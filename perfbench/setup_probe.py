"""Time one cold set-up in this fresh interpreter: import ospmatch and warm
up the public functions a workload uses.  Prints the seconds taken.

    python3 perfbench/setup_probe.py <workload>
"""
import sys
import time

start = time.perf_counter()
import workloads  # noqa: E402  (the import is part of what is timed)

workloads.warm_up(sys.argv[1])
print(time.perf_counter() - start)
