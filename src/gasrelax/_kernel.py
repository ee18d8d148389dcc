"""The C kernels of `_verlet.c`, compiled on first use and loaded with ctypes.

The library is built with `cc` into `__pycache__/` beside the source, under
a name keyed by the source, the flags and `cc --version`, so a changed
kernel or compiler builds afresh.  Each build writes a file of its own and
renames it into place, so processes that build at once all load a whole
library.  When that directory is not writable, the library is built in a
temporary directory of the process and removed once loaded.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import subprocess
from pathlib import Path

_SOURCE = Path(__file__).with_name("_verlet.c")
# no fast-math or host-specific options: the results must stay bit for bit
_FLAGS = ("-O3", "-ffp-contract=off", "-fPIC", "-shared")

_lib = None


class KernelBuildError(RuntimeError):
    """The C kernel could not be compiled."""


def _run_cc(cc: str, args: list) -> bytes:
    try:
        return subprocess.run([cc, *args], capture_output=True,
                              check=True).stdout
    except (OSError, subprocess.CalledProcessError) as exc:
        detail = getattr(exc, "stderr", None) or b""
        raise KernelBuildError(f"cannot build {_SOURCE.name} with {cc!r}: "
                               f"{exc} {detail.decode(errors='replace')}"
                               .rstrip()) from None


def _load(cache_dir, cc: str) -> ctypes.CDLL:
    key = hashlib.sha256(b"\0".join([_SOURCE.read_bytes(),
                                     " ".join(_FLAGS).encode(),
                                     _run_cc(cc, ["--version"])]))
    path = Path(cache_dir) / f"_verlet-{key.hexdigest()[:16]}.so"
    if not path.exists():
        try:
            path.parent.mkdir(exist_ok=True)
        except OSError:
            pass
        if not os.access(path.parent, os.W_OK):
            import tempfile
            with tempfile.TemporaryDirectory() as private:
                part = Path(private) / path.name
                _run_cc(cc, [*_FLAGS, "-o", str(part), str(_SOURCE)])
                return _bind(ctypes.CDLL(str(part)))
        part = path.with_name(f"{path.name}.{os.getpid()}.part")
        _run_cc(cc, [*_FLAGS, "-o", str(part), str(_SOURCE)])
        os.replace(part, path)
    return _bind(ctypes.CDLL(str(path)))


def _bind(lib: ctypes.CDLL) -> ctypes.CDLL:
    ptr, n, d = ctypes.c_void_p, ctypes.c_ssize_t, ctypes.c_double
    lib.wall_sums.argtypes = [ptr, ptr, n, n, n, d, d]
    lib.wall_sums.restype = n
    lib.verlet_records.argtypes = [ptr, ptr, n, n, n, n, d, d, d, d, d, d, d,
                                   ptr, ptr]
    lib.verlet_records.restype = n
    lib.inverse_cdf.argtypes = [ptr, ptr, n, ptr, ptr, ptr, ptr, n, n]
    lib.inverse_cdf.restype = None
    return lib


def library() -> ctypes.CDLL:
    """The loaded kernels, built on the first call of the process."""
    global _lib
    if _lib is None:
        _lib = _load(_SOURCE.parent / "__pycache__", "cc")
    return _lib
