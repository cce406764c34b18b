"""Entry point by path: ``python3 benchmarks/suite/run.py [options]``.

Same options as ``python -m benchmarks.suite``; puts the repository
root and ``src/`` on the import path itself, so no ``PYTHONPATH`` is
needed.  Exits with code 2, printing no result, when the library
sources are missing.
"""

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def main() -> int:
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"benchmark suite: no library sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # the solvers are elementwise NumPy and never call BLAS; helper
    # threads woken by the checks' norms would spin on the other core,
    # which the service's dispatch threads and the rank workers use
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from benchmarks.suite.cli import main as cli_main

    return cli_main()


if __name__ == "__main__":
    raise SystemExit(main())
