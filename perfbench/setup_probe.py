"""Time one cold set-up of a workload in a fresh interpreter.

Usage: python3 perfbench/setup_probe.py WORKLOAD SEED WORKDIR

Imports extalg (with its CLI), generates the workload's seeded inputs and
writes them under WORKDIR, then prints the seconds this took.  Nothing is
imported before the clock starts except what the interpreter loads itself.
"""

import os
import sys
import time

t0 = time.perf_counter()
sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import extalg  # noqa: E402
import extalg.cli  # noqa: E402,F401
import workloads  # noqa: E402

workloads.build(sys.argv[1], extalg, int(sys.argv[2]), sys.argv[3])
print(time.perf_counter() - t0)
