"""qbound benchmark: throughput, set-up time, memory and success rate of
the workloads in ``workloads.py``, or per-layer metrics from a traced run.

    python3 perfbench/run.py --workload bayes-full --seed 2024 --seconds 25 --trace 0

Run it from the root of a qbound checkout; qbound is imported from that
checkout's ``src/``.  ``--trace 0`` times whole passes for ``--seconds``
and reports the ``end_to_end`` metrics of BENCHMARK.json; ``--trace 1``
runs one untraced serial pass, one untraced pass at the workload's worker
count when that is above 1, and one traced serial pass, and reports the
``per_layer`` metrics.  Every pass is checked for correctness.  The last
line of stdout is the result object; the line before records the
environment and the passes.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
# BLAS/OpenMP pools sized to the machine would oversubscribe the cores the
# process pool already uses; worker processes inherit these.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")
SETUP_PROBES = 5


def prepare():
    """Pin BLAS threads and make qbound importable from this checkout only.

    Must run before numpy is imported.
    """
    for var in THREAD_VARS:
        os.environ[var] = "1"
    init = SRC / "qbound" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"perfbench: {init} not found; run from the root of "
                         "a qbound checkout")
    sys.path.insert(0, str(SRC))
    import qbound
    if Path(qbound.__file__).resolve() != init.resolve():
        raise SystemExit(f"perfbench: imported qbound from {qbound.__file__}, "
                         f"not from {SRC}")


@dataclass
class Pass:
    workers: int
    wall_s: float
    items: int
    failed: int
    result: object
    problems: list

    def summary(self):
        return {"workers": self.workers, "wall_s": self.wall_s,
                "items": self.items, "failed": self.failed,
                "problems": self.problems}


def run_pass(workload, inputs, reference, workers):
    items = workload.items(inputs)
    t0 = time.perf_counter()
    try:
        result = workload.run_pass(inputs, workers)
    except Exception as exc:  # the pass failed as a whole: report, keep going
        return Pass(workers, time.perf_counter() - t0, items, items, None,
                    [f"{type(exc).__name__}: {exc}"])
    wall = time.perf_counter() - t0
    failed, problems = workload.check(inputs, result, reference)
    return Pass(workers, wall, items, failed, result, problems)


def peak_rss_mb(workers):
    """Peak RSS of this process plus `workers` times the largest child's."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + (workers * child if workers > 1 else 0)) / 1024.0


def setup_times(name, seed):
    """Seconds each fresh interpreter takes to set up and finish one item."""
    out = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(HERE / "probe.py"), name, str(seed)],
            capture_output=True, text=True, timeout=150, check=False)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
        out.append(float(proc.stdout.split()[-1]))
    return out


def timed_run(workload, inputs, reference, seconds, seed):
    """Whole passes until the next would end over half a pass past `seconds`."""
    passes = []
    t0 = time.perf_counter()
    while not passes or (time.perf_counter() - t0 + 0.5 * statistics.fmean(
            p.wall_s for p in passes) < seconds):
        passes.append(run_pass(workload, inputs, reference, workload.workers))
    # read before the probes, which are children too
    rss = peak_rss_mb(workload.workers)
    setup = setup_times(workload.name, seed)
    attempted = sum(p.items for p in passes)
    failed = sum(p.failed for p in passes)
    metrics = {
        "items_per_s": statistics.median(p.items / p.wall_s for p in passes),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": rss,
        "success_frac": 1.0 - failed / attempted,
    }
    return passes, metrics, {"setup_s": setup}


def traced_run(workload, inputs, reference):
    from tracer import Tracer
    serial = run_pass(workload, inputs, reference, 1)
    passes = [serial]
    pool = None
    if workload.workers > 1:
        pool = run_pass(workload, inputs, reference, workload.workers)
        passes.append(pool)
    tracer = Tracer()
    with tracer.installed():
        traced = run_pass(workload, inputs, reference, 1)
    passes.append(traced)
    if pool is not None and pool.result is not None and traced.result is not None:
        serial_values = workload.values(traced.result)
        pool_values = workload.values(pool.result)
        if serial_values != pool_values:
            traced.problems.append(
                f"workers=1 values {serial_values} differ from "
                f"workers={workload.workers} values {pool_values}")
            traced.failed = traced.items
    metrics = tracer.metrics()
    failures, boundary = (workload.estimator_counts(traced.result)
                          if traced.result is not None else (0, 0))
    metrics["simulate.failures"] = failures
    metrics["simulate.boundary_hits"] = boundary
    metrics["simulate.pool_speedup"] = (serial.wall_s / pool.wall_s
                                        if pool is not None else 1.0)
    metrics["trace.overhead_frac"] = traced.wall_s / serial.wall_s - 1.0
    return passes, metrics, {"absent_bindings": tracer.absent,
                             "spans": len(tracer.start)}


def environment(seed):
    import numpy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                    capture_output=True, text=True,
                                    timeout=30).stdout.strip() or commit
        except (OSError, subprocess.SubprocessError):
            pass
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "blas": blas, "git_commit": commit,
            "seed": seed, "threads": {v: os.environ[v] for v in THREAD_VARS},
            "src_lines": sum(len(f.read_text(encoding="utf-8").splitlines())
                             for f in sorted(SRC.rglob("*.py")))}


def result_line(passes, metrics, section):
    """The result object, with each metric's unit from BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in spec[section]}
    if set(units) != set(metrics):
        raise RuntimeError(f"metrics {sorted(metrics)} do not match the "
                           f"{section} list {sorted(units)} of BENCHMARK.json")
    return {"correct": all(not p.problems for p in passes),
            "attempted": sum(p.items for p in passes),
            "failed": sum(p.failed for p in passes),
            "metrics": {name: {"value": metrics[name], "unit": units[name]}
                        for name in units}}


def main(argv=None, defined=None):
    """Run the benchmark; `defined` replaces the workload table (tests)."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=2024)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    prepare()
    import workloads
    defined = defined or workloads.WORKLOADS
    if args.workload not in defined:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(defined)}")
    workload = defined[args.workload]
    inputs = workload.build(args.seed)
    reference = workload.reference(inputs)
    workload.warm_up(inputs)
    if args.trace:
        passes, metrics, extra = traced_run(workload, inputs, reference)
        section = "per_layer"
    else:
        passes, metrics, extra = timed_run(workload, inputs, reference,
                                           args.seconds, args.seed)
        section = "end_to_end"
    result = result_line(passes, metrics, section)
    details = {"workload": workload.name, "trace": args.trace,
               "failed_frac": result["failed"] / result["attempted"],
               "passes": [p.summary() for p in passes],
               "values": [workload.values(p.result) for p in passes
                          if p.result is not None],
               "environment": environment(args.seed), **extra}
    print(json.dumps({"perfbench": details}))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
