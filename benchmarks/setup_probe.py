"""One sample of ``setup_s``: a fresh process that imports ``spfc``, builds a
workload's grid, initial field and initial state, and stops where the
marching call would start.

Usage: ``python3 benchmarks/setup_probe.py <workload> <seed>``.  Prints the
``time.monotonic()`` reading at that point; the parent subtracts the reading
it took just before starting this process (the clock is system-wide).
"""

import sys
import time

import workloads

workloads.setup(sys.argv[1], int(sys.argv[2]))
print(repr(time.monotonic()))
