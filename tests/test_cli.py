import ast
import contextlib
import io
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from qbound import check_dual, povm_fisher, bloch_equatorial
from qbound.cli import _row_stream, main
from qbound.models import basis_povm
from qbound.simulate import PAULI_BASES

from conftest import MALFORMED_SPECS, SRC, cli_env, malformed_spec, random_mixed_model


def run_cli(*args, env_seed=None):
    env = cli_env()
    if env_seed is not None:
        env["QBOUND_SEED"] = str(env_seed)
    return subprocess.run([sys.executable, "-m", "qbound", *args],
                          capture_output=True, text=True, env=env)


def _no_trials(*args, **kwargs):
    raise AssertionError("trials ran before the bound was checked")


def assert_usage_error(res):
    """Exit 2 with a one-line ``error:`` message and no traceback."""
    assert res.returncode == 2, res.stderr
    assert res.stderr.startswith("error:")
    assert len(res.stderr.strip().splitlines()) == 1
    assert "Traceback" not in res.stderr


class TestHelstromCommand:
    def test_identity_at_center(self):
        res = run_cli("helstrom", "--model", "bloch_full", "--theta", "0,0,0")
        assert res.returncode == 0
        out = json.loads(res.stdout)
        assert np.allclose(out["H"], np.eye(3))

    def test_axis_closed_form(self):
        res = run_cli("helstrom", "--model", "bloch_full", "--theta", "0,0,0.6")
        out = json.loads(res.stdout)
        assert out["H"][2][2] == pytest.approx(1 / 0.64, abs=1e-9)

    def test_missing_theta_is_usage_error(self):
        res = run_cli("helstrom", "--model", "bloch_full")
        assert res.returncode == 2

    def test_bad_theta_length(self):
        res = run_cli("helstrom", "--model", "bloch_full", "--theta", "0,0")
        assert res.returncode == 2
        assert "theta" in res.stderr

    def test_takes_no_seed(self):
        # helstrom draws no random numbers: no --seed, and QBOUND_SEED is unread
        res = run_cli("helstrom", "--model", "bloch_full", "--theta", "0,0,0",
                      env_seed="not-a-number")
        assert res.returncode == 0, res.stderr
        res = run_cli("helstrom", "--model", "bloch_full", "--theta", "0,0,0",
                      "--seed", "3")
        assert res.returncode == 2


class TestHolevoCommand:
    def test_full_bloch_value(self):
        res = run_cli("holevo", "--model", "bloch_full", "--theta", "0,0,0.5",
                      "--weight", "helstrom_quarter")
        assert res.returncode == 0
        out = json.loads(res.stdout)
        assert out["value"] == pytest.approx(1.0, abs=1e-3)

    def test_pure_dim3_value(self):
        res = run_cli("holevo", "--model", "pure_dim_d", "--dim", "3",
                      "--theta", "0.2,0.1,-0.15,0.25", "--weight", "helstrom_quarter")
        out = json.loads(res.stdout)
        assert out["value"] == pytest.approx(2.0, abs=1e-3)

    def test_non_psd_weight_file_rejected(self, tmp_path):
        bad = tmp_path / "w.json"
        bad.write_text(json.dumps([[1.0, 0.0], [0.0, -0.5]]))
        res = run_cli("holevo", "--model", "bloch_equatorial", "--theta", "0.3,0",
                      "--weight", f"file:{bad}")
        assert res.returncode == 2

    @pytest.mark.parametrize("entry", ["NaN", "Infinity"])
    def test_non_finite_weight_file_rejected(self, tmp_path, entry):
        bad = tmp_path / "w.json"
        bad.write_text(f"[[{entry}, 0], [0, 1]]")
        res = run_cli("holevo", "--model", "bloch_equatorial", "--theta", "0.3,0",
                      "--weight", f"file:{bad}")
        assert_usage_error(res)
        assert res.stdout == ""

    @pytest.mark.parametrize("content", ['{"a": 1}', '"abc"', "[[1, [2]], [3, 4]]"])
    def test_weight_file_not_a_matrix_rejected(self, tmp_path, content):
        # JSON that is not a p x p array of numbers exits 2, not with a traceback
        bad = tmp_path / "w.json"
        bad.write_text(content)
        res = run_cli("holevo", "--model", "bloch_equatorial", "--theta", "0.1,0.1",
                      "--weight", f"file:{bad}")
        assert_usage_error(res)
        assert "2 x 2 array of numbers" in res.stderr
        assert res.stdout == ""

    def test_nonconvergence_exit_code(self, tmp_path):
        # builtin families certify at the SLD start and never ascend the
        # dual; this random mixed model does, and one Newton step does not
        # certify it
        from qbound.models import model_to_spec
        spec = tmp_path / "model.json"
        spec.write_text(json.dumps(model_to_spec(
            random_mixed_model(np.random.default_rng(0), 3, 2))))
        res = run_cli("holevo", "--model", str(spec), "--theta", "0.05,-0.02",
                      "--max-iters", "1")
        assert res.returncode == 4
        payload = json.loads(res.stdout)
        diag = payload["diagnostics"]
        assert diag["iterations"] > 0
        assert payload["best_value"] >= diag["lower_bound"] >= diag["helstrom_value"]

    @pytest.mark.parametrize("max_iters", ["0", "-1"])
    def test_max_iters_below_one_rejected(self, max_iters):
        # bloch_equatorial certifies at the start and would exit 0 unchecked
        assert_usage_error(run_cli("holevo", "--model", "bloch_equatorial",
                                   "--theta", "0.3,0", "--max-iters", max_iters))

    def test_dual_json_roundtrip(self):
        # re-feeding the emitted K0 into check_dual reproduces the slack
        res = run_cli("holevo", "--model", "bloch_equatorial", "--theta", "0.3,0")
        out = json.loads(res.stdout)
        k0 = np.array(out["K0"], dtype=float)
        model = bloch_equatorial()
        info = povm_fisher(model, [0.3, 0.0], basis_povm(PAULI_BASES[0]))
        ok1, slack1 = check_dual(k0, info, out["dual_value"])
        ok2, slack2 = check_dual(k0, info, out["dual_value"])
        assert ok1 and ok2 and slack1 == slack2


class TestBayesCommand:
    def test_equatorial_constant_bound(self):
        res = run_cli("bayes", "--model", "bloch_equatorial", "--prior", "bump:0.8",
                      "--n-radial", "6", "--n-angular", "8")
        assert res.returncode == 0
        out = json.loads(res.stdout)
        assert out["value"] == pytest.approx(0.5, abs=max(out["error_estimate"], 1e-4))

    def test_unknown_prior_rejected(self):
        res = run_cli("bayes", "--model", "bloch_equatorial", "--prior", "cauchy:1")
        assert res.returncode == 2

    def test_zero_angular_nodes_rejected(self):
        assert_usage_error(run_cli("bayes", "--model", "bloch_equatorial",
                                   "--n-angular", "0"))

    def test_negative_prior_radius_rejected(self):
        assert_usage_error(run_cli("bayes", "--model", "bloch_equatorial",
                                   "--prior", "bump:-1"))

    @pytest.mark.parametrize("levels", ["0", "-1"])
    def test_levels_below_one_rejected(self, levels):
        assert_usage_error(run_cli("bayes", "--model", "bloch_equatorial",
                                   "--levels", levels))

    @pytest.mark.parametrize("command", ["simulate"])
    @pytest.mark.parametrize("workers", ["0", "-1"])
    def test_workers_below_one_rejected(self, command, workers):
        assert_usage_error(run_cli(command, "--model", "bloch_equatorial",
                                   "--workers", workers))

    def test_takes_no_workers(self):
        # the quadrature has one serial solve path
        code, out, _ = _run_main(["bayes", "--model", "bloch_equatorial",
                                  "--workers", "2"])
        assert code == 2 and out == ""


class TestSimulateCommand:
    def test_csv_output_and_dominance(self, tmp_path):
        out_path = tmp_path / "risk.csv"
        res = run_cli("simulate", "--model", "bloch_equatorial",
                      "--scheme", "alternating:x,y", "--estimator", "mle",
                      "--n-copies", "200,800", "--trials", "120",
                      "--seed", "3", "--workers", "2",
                      "--format", "csv", "--output", str(out_path))
        assert res.returncode == 0
        lines = out_path.read_text().strip().splitlines()
        assert lines[0] == "family,scheme,estimator,N,trials,value,std_error,bound,slack"
        rows = [line.split(",") for line in lines[1:]]
        assert len(rows) == 2
        for row in rows:
            value, std_error, bound, slack = map(float, row[5:9])
            assert value >= bound - 3 * std_error
            assert slack == pytest.approx(value - bound, abs=1e-12)

    def test_workers_do_not_change_values(self):
        args = ["simulate", "--model", "pure_qubit", "--scheme", "random-basis",
                "--estimator", "mle", "--n-copies", "150", "--trials", "60",
                "--seed", "5"]
        a = run_cli(*args, "--workers", "1")
        b = run_cli(*args, "--workers", "2")
        va = json.loads(a.stdout)["rows"][0]["value"]
        vb = json.loads(b.stdout)["rows"][0]["value"]
        assert va == vb

    def test_pure_dim_3_bound_by_monte_carlo(self):
        # p = 4 is past the ball grids
        res = run_cli("simulate", "--model", "pure_dim_d", "--dim", "3",
                      "--n-copies", "50", "--trials", "4")
        assert res.returncode == 0, res.stderr
        (row,) = json.loads(res.stdout)["rows"]
        assert row["bound"] == pytest.approx(2.0, abs=1e-9)  # d - 1

    def test_model_without_bound_fails_before_trials(self, tmp_path, monkeypatch):
        from qbound import cli
        from qbound.models import model_to_spec
        spec = tmp_path / "model.json"
        spec.write_text(json.dumps(model_to_spec(
            random_mixed_model(np.random.default_rng(0), 2, 2))))
        monkeypatch.setattr(cli, "bayes_risk_mc", _no_trials)
        code, out, err = _run_main(["simulate", "--model", str(spec), "--prior", "bump:0.1",
                                    "--n-copies", "50", "--trials", "4"])
        assert code == 2 and out == ""
        assert "fidelity embedding" in err

    def test_zero_copies_rejected(self):
        assert_usage_error(run_cli("simulate", "--model", "bloch_equatorial",
                                   "--n-copies", "0", "--trials", "4"))

    def test_env_seed_default(self):
        a = run_cli("simulate", "--model", "bloch_equatorial", "--scheme",
                    "alternating:x,y", "--n-copies", "100", "--trials", "40",
                    env_seed=123)
        b = run_cli("simulate", "--model", "bloch_equatorial", "--scheme",
                    "alternating:x,y", "--n-copies", "100", "--trials", "40",
                    env_seed=123)
        assert json.loads(a.stdout)["rows"] == json.loads(b.stdout)["rows"]


class TestVerifyPaper:
    def test_quick_passes_and_deterministic(self):
        a = run_cli("verify-paper", "--quick", "--n-bases", "300", "--seed", "11")
        b = run_cli("verify-paper", "--quick", "--n-bases", "300", "--seed", "11")
        assert a.returncode == 0
        assert a.stdout == b.stdout
        assert "FAIL" not in a.stdout

    def test_row_timings_on_stderr(self):
        # one "claim: seconds s" line per row, in table order; stdout holds
        # the table alone
        code, out, err = _run_main(["verify-paper", "--quick", "--n-bases", "60",
                                    "--seed", "11"])
        assert code == 0
        claims = [row[0] for row in _row_stream(11, 60, True, 1e-3)]
        lines = err.splitlines()
        assert [line.rsplit(": ", 1)[0] for line in lines] == claims
        assert all(float(line.rsplit(": ", 1)[1].removesuffix(" s")) >= 0.0 for line in lines)
        table = out.splitlines()
        assert table[0].startswith("claim") and table[-1] == f"{len(claims)}/{len(claims)} rows pass"
        assert all(line.startswith(claim) for line, claim in zip(table[1:], claims))

    def test_impossible_tolerance_fails_with_exit_one(self):
        res = run_cli("verify-paper", "--quick", "--n-bases", "60",
                      "--seed", "11", "--tol", "1e-18")
        assert res.returncode == 1
        assert "FAIL" in res.stdout

    @pytest.mark.parametrize("flags", [["--tol", "-1"], ["--tol", "nan"],
                                       ["--tol", "0"], ["--tol", "inf"],
                                       ["--n-bases", "0"], ["--n-bases", "1"]])
    def test_bad_arguments_rejected_up_front(self, flags):
        code, out, err = _run_main(["verify-paper", "--quick", *flags])
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and len(err.strip().splitlines()) == 1


# ---------------------------------------------------------------------------
# fuzzing: bad and edge values end in a documented exit code, never in an
# exception.  Sizes stay tiny and --workers is at most 1, so no process
# pool starts (a pool starts up to --workers processes).

def _pick(good, bad):
    """Mostly one of the good values; one time in four a bad or edge one."""
    return st.tuples(st.integers(0, 3), st.sampled_from(good),
                     st.sampled_from(bad)).map(lambda t: t[2] if t[0] == 0 else t[1])


_PARAMS = {"bloch_full": 3, "bloch_equatorial": 2, "pure_qubit": 2,
           "pure_dim_d --dim 3": 4, "pure_dim_d --dim 4": 6}
_BAD_MODELS = ["pure_dim_d --dim 1", "pure_dim_d --dim 0", "pure_dim_d --dim -2",
               "pure_dim_d", "bogus", "missing.json"]
_ENTRY = _pick(["0", "0.3", "-0.45"],
               ["1", "2", "nan", "inf", "-inf", "1e400", "x", ""])


def _model_and_theta(good):
    """--model (with --dim) and a --theta of mostly the right length."""
    def theta(name):
        p = _PARAMS.get(name, 2)
        size = _pick([p], [0, p - 1, p + 1])
        return size.flatmap(lambda n: st.lists(_ENTRY, min_size=n, max_size=n)).map(
            lambda xs: ["--model", *name.split(), "--theta=" + ",".join(xs)])
    return _pick(good, _BAD_MODELS).flatmap(theta)


def _model(good):
    return _pick(good, _BAD_MODELS).map(lambda name: ["--model", *name.split()])


def _flag(flag, good, bad):
    return _pick(good, bad).map(lambda v: [f"{flag}={v}"])


_PRIOR = _flag("--prior", ["bump:0.5", "bump:", "uniform:0.5"],
               ["bump:0", "bump:-1", "bump:nan", "bump:inf", "bump:2", "bump:x",
                "uniform:-0.1", "cauchy:1", ":0.5"])
_GRID = ["1", "2", "4"], ["0", "-1"]
_WORKERS = _flag("--workers", ["1"], ["0", "-1"])
# simulate integrates the bound on a fixed 8/12/2 grid (p > 3: 2000 prior
# draws) before its trials; on bloch_full that takes seconds, so it is left out
_ARGV = st.one_of(
    st.tuples(st.just(["helstrom"]), _model_and_theta(list(_PARAMS))),
    st.tuples(st.just(["holevo"]), _model_and_theta(list(_PARAMS)),
              _flag("--weight", ["helstrom_quarter", "identity"],
                    ["file:missing.json", "bogus", ""]),
              _flag("--max-iters", ["50", "600"], ["0", "-1", "1"])),
    st.tuples(st.just(["bayes"]), _model(list(_PARAMS)), _PRIOR,
              _flag("--n-radial", *_GRID), _flag("--n-angular", *_GRID),
              _flag("--levels", ["1", "2"], ["0", "-1"])),
    st.tuples(st.just(["simulate", "--seed", "3"]), _WORKERS,
              _model(["bloch_equatorial", "pure_qubit", "pure_dim_d --dim 3"]),
              _flag("--scheme", ["random-basis", "fixed:z", "alternating:x,y",
                                 "two-step:0.1"],
                    ["fixed:q", "alternating:x,w", "two-step:0", "two-step:1.5",
                     "two-step:x", "bogus"]),
              _flag("--estimator", ["mle", "bayes-mean"], ["bayes_mean"]),
              _PRIOR,
              _flag("--n-copies", ["1", "20", "3,20"],
                    ["0", "-5", "5,0", "abc", "", "3.5"]),
              _flag("--trials", ["2", "4"], ["-1", "0", "1"])),
).map(lambda parts: [arg for part in parts for arg in part])


def _run_main(argv):
    """(exit code, stdout, stderr) of one in-process CLI run."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:   # argparse ends usage errors this way
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=150, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(argv=_ARGV)
def test_cli_fuzz_exit_codes(argv):
    code, _, err = _run_main(argv)
    assert code in (0, 1, 2, 3, 4), (argv, code, err)


def test_bad_files_and_paths_exit_2(tmp_path):
    # malformed model specs, directories in place of files, --output paths
    # that cannot be written and a scheme of the wrong dimension: exit 2
    # with one error line, before any result is printed
    cases = []
    for k, name in enumerate(MALFORMED_SPECS):
        (tmp_path / f"spec{k}.json").write_text(json.dumps(malformed_spec(name)))
        cases.append(["helstrom", "--model", str(tmp_path / f"spec{k}.json")])
    point = ["--theta", "0.1,0.1"]
    cases = [argv + point for argv in cases + [
        ["helstrom", "--model", str(tmp_path)],
        ["holevo", "--model", str(tmp_path / "missing.json")],
        ["holevo", "--model", "bloch_equatorial", "--weight", f"file:{tmp_path}"],
        ["holevo", "--model", "bloch_equatorial", "--weight", f"file:{tmp_path / 'no.json'}"],
        ["helstrom", "--model", "bloch_equatorial", "--output", str(tmp_path / "no" / "o")],
        ["helstrom", "--model", "bloch_equatorial", "--output", str(tmp_path)]]]
    cases += [["simulate", "--model", "bloch_equatorial", "--scheme", "alternating:x,y",
               "--n-copies", "20", "--trials", "4", "--format", fmt, "--output", str(tmp_path)]
              for fmt in ("json", "csv")]
    cases.append(["simulate", "--model", "pure_dim_d", "--dim", "3", "--scheme", "fixed:z",
                  "--n-copies", "10", "--trials", "4"])
    for argv in cases:
        code, out, err = _run_main(argv)
        assert (code, out) == (2, ""), (argv, code, err)
        assert err.startswith("error:") and len(err.strip().splitlines()) == 1, (argv, err)


def _pick_bad(good, bad):
    """Mostly a bad or edge value; one time in four a good one."""
    return _pick(bad, good)


# a valid --quick run takes about a second, so only a few are drawn: every
# flag but --seed is mostly bad
_VERIFY_ARGV = st.tuples(
    st.just(["verify-paper", "--quick"]),
    _flag("--seed", ["3", "2024"], ["-1", "x", ""]),
    _pick_bad(["2", "30"], ["1", "0", "-4", "x", "1e3", ""]).map(
        lambda v: [f"--n-bases={v}"]),
    _pick_bad(["1e-3", "0.5"], ["0", "-1", "-0.0", "nan", "inf", "-inf", "x", ""]).map(
        lambda v: [f"--tol={v}"]),
).map(lambda parts: [arg for part in parts for arg in part])


@settings(max_examples=40, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(argv=_VERIFY_ARGV)
def test_verify_paper_fuzz_exit_codes(argv):
    code, out, err = _run_main(argv)
    assert code in (0, 1, 2, 3, 4), (argv, code, err)
    assert "Traceback" not in err
    if code == 2:   # rejected before any row is computed or printed
        assert out == "", (argv, out)
        assert len(err.strip().splitlines()) >= 1


_NUMPY_ONLY = """
import sys
from pathlib import Path
startup = set(sys.modules)        # the interpreter's own, site hooks included
import numpy as np
import numpy.linalg, numpy.random
startup |= set(sys.modules)       # and what numpy's compiled modules register
import qbound
from qbound.simulate import PAULI_BASES
model = qbound.bloch_equatorial()
theta = np.array([0.3, 0.1])
qbound.solve_holevo(model, theta, qbound.quarter_helstrom_weight(model, theta))
qbound.bayes_risk_mc(model, qbound.bump_prior(2, 0.8), qbound.alternating_scheme(PAULI_BASES[:2]),
                     qbound.Estimator("mle"), 100, 2)
main = sys.modules["__main__"]     # multiprocessing aliases it as __mp_main__
top = {name.partition(".")[0] for name, module in sys.modules.items()
       if name not in startup and module is not main}
print(sorted(top - set(sys.stdlib_module_names) - {"qbound", "numpy"}))
"""


def test_library_loads_only_numpy_and_the_standard_library():
    # the library is numpy-only: a Holevo solve and a risk run load no
    # other third-party module
    res = subprocess.run([sys.executable, "-c", _NUMPY_ONLY], capture_output=True,
                         text=True, env=cli_env())
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "[]"


_HEAP_PROBE = """
import ctypes                      # numpy imports it too, so whether it is loaded tells nothing
opened, init = [], ctypes.CDLL.__init__

def recording(self, name, *args, **kwargs):
    opened.append(name)
    init(self, name, *args, **kwargs)

ctypes.CDLL.__init__ = recording
import numpy as np
import qbound
from qbound import simulate
model = qbound.bloch_equatorial()
theta = np.array([0.3, 0.1])
qbound.solve_holevo(model, theta, qbound.quarter_helstrom_weight(model, theta))
for scheme in (qbound.random_basis_scheme(), qbound.alternating_scheme(simulate.PAULI_BASES[:2])):
    qbound.bayes_risk_mc(model, qbound.bump_prior(2, 0.8), scheme, qbound.Estimator("mle"), 50, 2)
print(len(opened))
simulate._keep_heap()              # what each pool worker runs first
print(len(opened))
"""


def test_heap_setting_stays_in_pool_workers():
    # glibc's malloc settings change only in the pool workers that
    # bayes_risk_mc starts: the caller's process opens no C library through
    # ctypes on import, in a Holevo solve or in a serial risk run
    res = subprocess.run([sys.executable, "-c", _HEAP_PROBE], capture_output=True,
                         text=True, env=cli_env())
    assert res.returncode == 0, res.stderr
    assert res.stdout.split() == ["0", "1"]


def test_library_lines_fit_99_columns():
    src = Path(SRC) / "qbound"
    long = [f"{path.name}:{n}" for path in sorted(src.glob("*.py"))
            for n, line in enumerate(path.read_text().splitlines(), 1) if len(line) > 99]
    assert not long, long


# names imported but not used, kept because perfbench/tracer.py wraps them
_KEPT_FOR_THE_TRACER = ["bayes.solve_holevo", "holevo.sld"]


def test_library_uses_every_name_it_imports():
    # every module but the package's __init__, which re-exports
    unused = []
    for path in sorted((Path(SRC) / "qbound").glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.stem}.{name}" for node in ast.walk(tree)
                   if isinstance(node, (ast.Import, ast.ImportFrom))
                   for name in ((a.asname or a.name).partition(".")[0] for a in node.names)
                   if name not in used]
    assert unused == _KEPT_FOR_THE_TRACER


# exported, and called by no library code: the paper's dual bounds,
# full-model embedding and van Trees bound, and the single-sample API
_EXPORT_ONLY = ["bayes_mean_estimate", "check_dual", "embedding_sequence",
                "full_model_collection", "j_functional", "mle_estimate", "sample_outcomes",
                "sld", "van_trees_rhs"]


def test_every_library_name_is_used_or_exported():
    # a module-level name that no library code reads and the package does
    # not export is a test fixture or dead code
    defined, read, exported = {}, set(), set()
    for path in sorted((Path(SRC) / "qbound").glob("*.py")):
        tree = ast.parse(path.read_text())
        if path.name == "__init__.py":
            exported = {a.asname or a.name for node in tree.body
                        if isinstance(node, ast.ImportFrom) for a in node.names}
            continue
        read |= {node.id for node in ast.walk(tree)
                 if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined[node.name] = path.stem
            for target in getattr(node, "targets", [getattr(node, "target", None)]):
                if isinstance(target, ast.Name):
                    defined[target.id] = path.stem
    assert [f"{mod}.{name}" for name, mod in defined.items()
            if name not in read | exported] == []
    assert sorted(exported - read) == _EXPORT_ONLY
