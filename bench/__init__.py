"""The repo's benchmark: five workloads, host-clock and sim-clock metrics,
per-layer attribution taken from outside the program.  See ``README.md``."""
