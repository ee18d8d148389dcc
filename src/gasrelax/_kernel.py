"""The C kernels of `_verlet.c`, compiled on first use and loaded with ctypes.

The kernels draw their normals with NumPy's own distribution code: they are
compiled against `numpy/random/bitgen.h` under `numpy.get_include()` and
linked with the static `numpy/random/lib/libnpyrandom.a` that NumPy ships
for C users of its random C-API (and with `-lm`, which it needs).  Neither
imports `numpy.random`.

Each entry's ctypes signature is read from its `KERNEL <type> <name>(...)`
prototype in the source, the only place that states it.

The library is built with `cc` into `__pycache__/` beside the source, under a
name keyed by what its bits depend on: the source, the flags and the bytes of
NumPy's static library.  Only a build runs `cc`, so a built library loads
without it; after a compiler change, deleting `__pycache__/_verlet-*.so`
rebuilds it.  Each build writes a file of its own and renames it into place, so
processes that build at once all load a whole library; a build then removes the
libraries of other keys from the directory.  When that directory is not
writable, the library is built in a temporary directory of the process and
removed once loaded.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import re
import threading
from pathlib import Path

import numpy as np

_SOURCE = Path(__file__).with_name("_verlet.c")
_NUMPY_INCLUDE = Path(np.get_include())
# NumPy's random C-API: the header of its bit generator interface, and the
# static library of its distributions, where numpy/random/_examples finds it
_BITGEN_HEADER = _NUMPY_INCLUDE / "numpy" / "random" / "bitgen.h"
_NPYRANDOM = (_NUMPY_INCLUDE.parent.parent / "random" / "lib"
              / "libnpyrandom.a")
# no fast-math or host-specific options: the results must stay bit for bit;
# libm's fma() stays a call, so the library holds no fused instruction
_FLAGS = ("-O3", "-ffp-contract=off", "-fno-builtin-fma", "-fPIC", "-shared",
          f"-I{_NUMPY_INCLUDE}")
# the ctypes of the C types in the entries' prototypes; a pointer is c_void_p
_CTYPES = {"void": None, "double": ctypes.c_double,
           "ptrdiff_t": ctypes.c_ssize_t}

_lib = None
# held by the first load: threads of one process build into one file name
_load_lock = threading.Lock()


class KernelBuildError(RuntimeError):
    """The C kernel could not be compiled."""


def _run_cc(out: Path) -> None:
    import subprocess
    try:
        subprocess.run(["cc", *_FLAGS, "-o", str(out), str(_SOURCE),
                        str(_NPYRANDOM), "-lm"], capture_output=True,
                       check=True, errors="replace")
    except (OSError, subprocess.CalledProcessError) as exc:
        detail = getattr(exc, "stderr", None) or ""
        raise KernelBuildError(f"cannot build {_SOURCE.name} with 'cc': "
                               f"{exc} {detail}".rstrip()) from None


def _require(path: Path) -> None:
    if not path.is_file():
        raise KernelBuildError(f"cannot build {_SOURCE.name}: NumPy's "
                               f"random C-API file {path} is missing")


def _library_name() -> str:
    """The library's file name, keyed by what its bits depend on: the
    source, the flags and NumPy's static library, but not the compiler."""
    _require(_NPYRANDOM)
    key = hashlib.sha256(b"\0".join([_SOURCE.read_bytes(),
                                     " ".join(_FLAGS).encode(),
                                     _NPYRANDOM.read_bytes()]))
    return f"_verlet-{key.hexdigest()[:16]}.so"


def _load(cache_dir) -> ctypes.CDLL:
    path = Path(cache_dir) / _library_name()
    if not path.exists():
        _require(_BITGEN_HEADER)
        try:
            path.parent.mkdir(exist_ok=True)
        except OSError:
            pass
        if not os.access(path.parent, os.W_OK):
            import tempfile
            with tempfile.TemporaryDirectory() as private:
                part = Path(private) / path.name
                _run_cc(part)
                return _bind(ctypes.CDLL(str(part)))
        part = path.with_name(f"{path.name}.{os.getpid()}.part")
        _run_cc(part)
        os.replace(part, path)
        _prune(path)
    return _bind(ctypes.CDLL(str(path)))


def _prune(path: Path) -> None:
    """Remove the libraries of other keys beside the one just built at path;
    builds in progress (`*.part`) are left alone, and a process that has an
    old library loaded keeps its mapping."""
    for stale in path.parent.glob("_verlet-*.so"):
        if stale != path:
            try:
                stale.unlink()
            except OSError:
                pass


def _bind(lib: ctypes.CDLL) -> ctypes.CDLL:
    """Set restype and argtypes of each entry from its `KERNEL <type>
    <name>(...)` prototype in the source."""
    for ret, name, params in re.findall(r"^KERNEL (\w+) (\w+)\(([^)]*)\)",
                                        _SOURCE.read_text(), re.MULTILINE):
        entry = getattr(lib, name)
        entry.restype = _CTYPES[ret]
        entry.argtypes = [ctypes.c_void_p if "*" in param
                          else _CTYPES[param.split()[-2]]
                          for param in params.split(",")]
    return lib


def library() -> ctypes.CDLL:
    """The loaded kernels, built on the first call of the process; threads
    that call at once wait for that one build."""
    global _lib
    if _lib is None:
        with _load_lock:
            if _lib is None:
                _lib = _load(_SOURCE.parent / "__pycache__")
    return _lib
