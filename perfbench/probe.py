"""Set-up probe: in a fresh interpreter, import qbound, build one workload's
model, prior, loss and schemes, finish one warm-up item, and print the
seconds that took.

    python3 perfbench/probe.py WORKLOAD SEED
"""

import sys
import time

t0 = time.perf_counter()

import run  # noqa: E402  (stdlib only; the clock starts before qbound loads)

run.prepare()

import workloads  # noqa: E402

workload = workloads.WORKLOADS[sys.argv[1]]
workload.warm_up(workload.build(int(sys.argv[2])))
print(time.perf_counter() - t0)
