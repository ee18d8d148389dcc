"""Set-up time of one fresh interpreter, started by run.py.

    python3 perfbench/setup_time.py COMMAND [CLI ARGUMENTS ...]

Times importing `gasrelax.cli`, loading the config of the command line
through the CLI loader and tabulating the marginals the command builds:
rho0, plus the field-tilted rho1 for `simulate`.  The timer starts before
anything beyond the interpreter's own start-up is imported, so every module
the package pulls in is counted.  Prints `{"setup_s": ...}` as its last
stdout line.  Run from the root of the checkout.
"""

import os
import sys
from time import perf_counter


def main(cli_argv: list) -> float:
    start = perf_counter()
    from gasrelax import cli, gibbs
    config = cli.load_config(cli.build_parser().parse_args(cli_argv))
    params = config.model_params()
    gibbs.build_marginal(params, grid_size=config.grid_size)
    if cli_argv[0] == "simulate":
        gibbs.build_marginal(params, grid_size=config.grid_size, tilted=True)
    return perf_counter() - start


if __name__ == "__main__":
    sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                    os.pardir, "src"))
    seconds = main(sys.argv[1:])
    import json
    print(json.dumps({"setup_s": seconds}))
