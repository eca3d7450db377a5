"""Smoke test of the benchmark at tiny sizes.

    PYTHONPATH=src python -m pytest perfbench/test_smoke.py
"""

import json
import shutil
import subprocess
import sys
from dataclasses import replace

import pytest

import run
import tracer
import workloads

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def tiny(workload):
    """A version of a workload that takes a second or two."""
    if isinstance(workload, workloads.BayesWorkload):
        return replace(workload, n_radial=4,
                       n_angular=4 if workload.family == "bloch_full" else 6)
    return replace(workload, trials=8)


TINY = {name: tiny(w) for name, w in workloads.WORKLOADS.items()}


@pytest.fixture
def bench(monkeypatch, capsys):
    """Run the benchmark in-process on tiny workloads; return its result."""
    for var in run.THREAD_VARS:
        monkeypatch.setenv(var, "1")
    monkeypatch.setattr(run, "SETUP_PROBES", 1)

    def call(name, trace, defined=TINY):
        assert run.main(["--workload", name, "--seconds", "0",
                         "--trace", str(trace)], defined=defined) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        return json.loads(lines[-1])

    return call


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", list(TINY))
def test_every_metric_prints_with_its_unit(bench, name, trace):
    result = bench(name, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, result
    assert result["attempted"] >= 1 and result["failed"] == 0
    section = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in section} == {
        k: v["unit"] for k, v in result["metrics"].items()}
    assert all(isinstance(v["value"], (int, float))
               for v in result["metrics"].values())


def test_corrupted_closed_form_trips_the_check(bench, monkeypatch):
    closed_form = workloads.BayesWorkload.reference
    monkeypatch.setattr(workloads.BayesWorkload, "reference",
                        lambda self, inputs: closed_form(self, inputs) + 1e-6)
    result = bench("bayes-full", 0)
    assert result["correct"] is False
    assert result["failed"] == result["attempted"]
    assert result["metrics"]["success_frac"]["value"] == 0.0


def test_corrupted_band_trips_the_check(bench):
    wl = TINY["mc-equatorial"]
    bad = replace(wl, configs=(wl.configs[0],
                               replace(wl.configs[1], band=(5.0, 5.0))))
    result = bench("mc-equatorial", 0, defined={"mc-equatorial": bad})
    assert result["correct"] is False
    assert result["failed"] == wl.trials


def test_missing_binding_reads_absent(monkeypatch):
    monkeypatch.setattr(tracer, "BINDINGS", tracer.BINDINGS + (
        ("qbound.bayes", "no_such_function", "holevo.solve"),
        ("qbound.no_such_module", "solve", "holevo.solve")))
    t = tracer.Tracer()
    with t.installed():
        pass
    assert t.absent == ["qbound.bayes.no_such_function",
                        "qbound.no_such_module.solve"]
    assert t.metrics()["holevo.solve_calls"] == 0


def test_fails_without_the_library(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "bayes-full",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
