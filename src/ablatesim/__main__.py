"""``python -m ablatesim``: the command-line interface of :mod:`ablatesim.sim_cli`."""

from .sim_cli import main

if __name__ == "__main__":
    raise SystemExit(main())
