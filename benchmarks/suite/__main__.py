"""``python -m benchmarks.suite``: see :mod:`benchmarks.suite.cli`."""

from benchmarks.suite.run import main

raise SystemExit(main())
