"""One benchmark for the whole repository: five workloads, end-to-end and
per-layer metrics, one timing routine.  See ``README.md`` beside this
file and :mod:`benchmarks.suite.cli` for the command line."""
