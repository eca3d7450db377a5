"""Acceptance suite: one test per shipped guarantee, with PASS/FAIL lines.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report.  Tolerances are pinned here; Monte Carlo checks use seed 2024 and
the documented calibration bands (see README, "Attainability bands and
separable limits").  Criteria 4b and 8b check what the Gill-Massar
inequality (PRA 61, 042312 (2000)) says of separable single-copy
measurements; the README and the per-test docstrings give the argument.
"""

import os
import subprocess
import sys
import time
from dataclasses import asdict

import numpy as np
import pytest

from qbound import (Domain, Estimator, IrregularModelError, QuadratureOptions,
                    RankDeficiencyError, alternating_scheme, basis_povm, bayes_risk_mc,
                    bump_prior, bloch_equatorial, bloch_full, builtin_model, check_dual,
                    check_density_matrix, classical_fisher, dual_bound, empirical_fisher,
                    fidelity, fidelity_loss, helstrom_matrix, integrated_holevo,
                    prior_expectation, pure_qubit, pure_state_model,
                    quarter_helstrom_weight, random_basis_scheme, sld,
                    solve_holevo, two_step_scheme, z_matrix)
from qbound.information import sld_from_state
from qbound.linalg import haar_unitaries, sym_sqrt_and_inv_sqrt
from qbound.cli import _row_stream
from qbound.simulate import PAULI_BASES

from conftest import cli_env, interior_points, random_hermitian, sld_residual

SEED = 2024
WORKERS = min(4, os.cpu_count() or 1)

CLOSED_FORM_CASES = [
    # (model factory, theta, expected C_{H/4})
    ("bloch_full", [0.0, 0.0, 0.0], 0.75),
    ("bloch_full", [0.0, 0.0, 0.3], 0.90),
    ("bloch_full", [0.0, 0.0, 0.5], 1.00),
    ("bloch_full", [0.0, 0.0, 0.8], 1.15),
    ("bloch_equatorial", [0.1, 0.0], 0.5),
    ("bloch_equatorial", [0.3, 0.0], 0.5),
    ("bloch_equatorial", [0.2, -0.4], 0.5),
    ("bloch_equatorial", [0.6, 0.5], 0.5),
    ("bloch_equatorial", [-0.7, 0.1], 0.5),
    ("pure_qubit", [0.25, -0.10], 1.0),
    ("pure_dim_3", [0.2, 0.1, -0.15, 0.25], 2.0),
]

FAMILY_POINTS = {
    "bloch_full": np.array([0.0, 0.0, 0.5]),
    "bloch_equatorial": np.array([0.3, 0.0]),
    "pure_qubit": np.array([0.25, -0.10]),
    "pure_dim_3": np.array([0.2, 0.1, -0.15, 0.25]),
}


# Seed-2024 N x risk of 2000 trials, estimator failures and boundary hits.
# A change that moves a value updates it here and lists the old and new
# values in CHANGES.md; the values must not depend on the worker count.
HARD_LIMIT_RTOL = 1e-6
RISK_MATRIX_LIMITS = {
    "pure_rb_250": (1.0033483859232475, 0, 0),
    "pure_rb_1000": (1.0233647716617353, 0, 0),
    "pure_rb_4000": (1.0067506561123696, 0, 0),
    "eq_alt_4000": (1.0082088149538508, 0, 0),
    "eq_ts_4000": (1.0012174461988328, 0, 0),
    "bf_ts_4000": (2.2823903723100267, 0, 0),
    "eq_alt_bayes_4000": (1.0009638177391857, 0, 0),
}
# small-N alternating-basis configs whose estimates often end on the rim:
# (family, estimator, N, value, failures, boundary hits)
BOUNDARY_LIMITS = {
    "eq_alt_20": ("bloch_equatorial", "mle", 20, 1.2719913688621238, 0, 135),
    "eq_alt_bayes_20": ("bloch_equatorial", "bayes_mean", 20, 0.561825828914909, 0, 135),
    "bf_alt_30": ("bloch_full", "mle", 30, 2.8786434161881056, 0, 279),
}
# posterior-mean configs whose likelihood is weighed in chunks of tables:
# (family, scheme, N, trials, prior radius, value, failures, boundary hits)
BAYES_MEAN_LIMITS = {
    "eq_ts_bayes_4000": ("bloch_equatorial", "two_step", 4000, 2000, 0.8,
                         0.9943749659667657, 0, 0),
    # a row per copy, 300 rows: chunks of one table
    "bf_rb_bayes_300": ("bloch_full", "random", 300, 400, 0.9, 2.250054310471622, 0, 1),
}
# pure_dim_d, d = 3, random bases, MLE, bump 0.5 prior, N = 250, 400 trials:
# (value, failures, boundary hits)
PURE_DIM_3_LIMIT = (2.165575919312448, 0, 0)
# (claim, expected, computed, tolerance) of verify-paper --quick --seed 2024
# (2000 random bases), computed and tolerance pinned at 1e-9 relative
VERIFY_QUICK_ROWS = [
    ("full-qubit C_{H/4} at r=0.0", 0.75, 0.75, 0.001),
    ("full-qubit C_{H/4} at r=0.5", 1.0, 1.0, 0.001),
    ("full-qubit C_{H/4} at r=0.8", 1.15, 1.15, 0.001),
    ("equatorial C_{H/4} at [0.3, 0.0]", 0.5, 0.4999999999999997, 0.001),
    ("equatorial C_{H/4} at [0.35, -0.45]", 0.5, 0.49999999999999895, 0.001),
    ("pure d=2 C_{H/4}", 1, 0.9999999999999991, 0.001),
    ("pure d=3 C_{H/4}", 2, 1.9999999999999991, 0.001),
    ("dual roundtrip equatorial |C^K - C_G'|", 0.0, 0.0, 1e-05),
    ("Gill-Massar equality pure d=2 (2000 random bases)", 1, 0.9999999999999984,
     0.05003544715798417),
    ("covariant scheme: ||Ibar - H/2||_F", 0.0, 0.08208850142636338, 0.19023248433964215),
    ("Gill-Massar equality pure d=3 (2000 random bases)", 2, 1.9999999999999991,
     0.07711684045886451),
    ("Bloch fidelity closed form (max dev)", 0.0, 2.220446049250313e-16, 1e-12),
    ("integrated bound full qubit vs (3+2E|theta|)/4", 0.99609375, 0.9960937499999998, 1e-08),
]


def _accepts(check, error):
    """x -> whether check(x) returns without raising error."""
    def accepted(x):
        try:
            check(x)
        except error:
            return False
        return True
    return accepted


def _fisher_skips(grad):
    """Whether an outcome of probability 1e-12 and derivative grad is skipped
    (adds nothing), not irregular."""
    try:
        info = classical_fisher([1e-12, 1.0 - 1e-12], [[grad, -grad]])
    except IrregularModelError:
        return False
    return info[0, 0] == pytest.approx(grad * grad / (1.0 - 1e-12), rel=1e-12)


# each module tolerance: (x -> whether x is accepted, values just inside the
# tolerance, values just outside it)
TOLERANCE_EDGES = {
    "density trace": (_accepts(lambda x: check_density_matrix(np.diag([0.5 + x, 0.5])),
                               ValueError), [0.5e-9, -0.5e-9], [2e-9]),
    "density eigenvalue": (_accepts(lambda x: check_density_matrix(np.diag([1.0 - x, x])),
                                    ValueError), [-0.5e-9], [-2e-9]),
    "SLD rank": (_accepts(lambda x: sld_from_state(np.diag([1.0 - x, x]),
                                                   np.diag([0.5, -0.5])[None]),
                          RankDeficiencyError), [2e-8], [0.5e-8]),
    "Fisher gradient": (_fisher_skips, [0.5e-8], [2e-8]),
    "dual slack": (lambda x: check_dual(np.zeros((2, 2)), np.eye(2), x)[0], [-0.5e-7], [-2e-7]),
    "weight eigenvalue": (_accepts(lambda x: sym_sqrt_and_inv_sqrt(np.diag([1.0, x])),
                                   ValueError), [2e-10], [0.5e-10]),
    "ball domain": (lambda x: bool(Domain("ball", dim=2).contains([1.0 + x, 0.0])),
                    [0.5e-12], [2e-12]),
}


def _model(name):
    if name == "pure_dim_3":
        return pure_state_model(3)
    return builtin_model(name, dim=3 if name == "pure_dim_d" else None)


def report(tag, ok, detail=""):
    print(f"\nACCEPTANCE {tag}: {'PASS' if ok else 'FAIL'}  {detail}")
    return ok


@pytest.fixture(scope="session")
def closed_form_solutions():
    start = time.time()
    out = []
    for name, theta, expected in CLOSED_FORM_CASES:
        model = _model(name)
        g = quarter_helstrom_weight(model, theta)
        sol = solve_holevo(model, theta, g)
        out.append((name, np.asarray(theta), expected, g, sol))
    return out, time.time() - start


@pytest.fixture(scope="session")
def gm_fishers():
    """2000-basis covariant-scheme information for the pure families."""
    out = {}
    for name in ("pure_qubit", "pure_dim_3"):
        model = _model(name)
        theta = FAMILY_POINTS[name]
        out[name] = (model, theta,
                     helstrom_matrix(model, theta).matrix,
                     empirical_fisher(model, theta, random_basis_scheme(),
                                      n_bases=2000, seed=SEED))
    return out


@pytest.fixture(scope="session")
def risk_matrix():
    """Shipped simulation test matrix at N = 4000, trials = 2000."""
    start = time.time()
    pq, eq, bf = pure_qubit(), bloch_equatorial(), bloch_full()
    prior2, prior3 = bump_prior(2, 0.8), bump_prior(3, 0.9)
    mle = Estimator("mle")
    configs = {
        "pure_rb_250": (pq, prior2, random_basis_scheme(), mle, 250, 1.0),
        "pure_rb_1000": (pq, prior2, random_basis_scheme(), mle, 1000, 1.0),
        "pure_rb_4000": (pq, prior2, random_basis_scheme(), mle, 4000, 1.0),
        "eq_alt_4000": (eq, prior2, alternating_scheme(PAULI_BASES[:2]), mle, 4000, 0.5),
        "eq_ts_4000": (eq, prior2, two_step_scheme(eq, 0.1), mle, 4000, 0.5),
        "bf_ts_4000": (bf, prior3, two_step_scheme(bf, 0.1), mle, 4000, None),
        "eq_alt_bayes_4000": (eq, prior2, alternating_scheme(PAULI_BASES[:2]),
                              Estimator("bayes_mean"), 4000, 0.5),
    }
    bf_bound = integrated_holevo(
        bf, fidelity_loss(bf), prior3,
        QuadratureOptions(n_radial=8, n_angular=8, levels=2)).value
    results = {}
    for key, (model, prior, scheme, estimator, n, bound) in configs.items():
        risk = bayes_risk_mc(model, prior, scheme, estimator, n, trials=2000,
                             seed=SEED, workers=WORKERS)
        results[key] = (risk, bf_bound if bound is None else bound)
    return results, time.time() - start


class TestCriterion1ClosedForms:
    def test_holevo_closed_forms(self, closed_form_solutions):
        solutions, elapsed = closed_form_solutions
        worst = max(abs(sol.value - expected) / expected
                    for _, _, expected, _, sol in solutions)
        ok = worst <= 1e-3 and elapsed < 60.0
        assert report("1", ok,
                      f"max rel dev {worst:.2e} over {len(solutions)} closed forms, "
                      f"{elapsed:.1f}s"), (worst, elapsed)


class TestCriterion2DualRoundtrip:
    def test_dual_roundtrip(self, closed_form_solutions):
        solutions, _ = closed_form_solutions
        worst = 0.0
        for name, theta, _, g, sol in solutions:
            k0, ck = dual_bound(sol, g)
            assert ck == sol.value  # C^{K0} = C_{G0} by construction
            i0 = np.linalg.inv(sol.v0)
            again = solve_holevo(_model(name), theta, i0 @ k0 @ i0)
            worst = max(worst, abs(again.value - sol.value) / sol.value)
        ok = worst <= 1e-5
        assert report("2", ok, f"max roundtrip rel dev {worst:.2e}"), worst


class TestCriterion3DualDominance:
    def test_random_projective_measurements(self):
        from qbound import povm_fisher
        rng = np.random.default_rng(SEED)
        violations = 0
        worst = np.inf
        for name, theta in FAMILY_POINTS.items():
            model = _model(name)
            g = quarter_helstrom_weight(model, theta)
            sol = solve_holevo(model, theta, g)
            k0, ck = dual_bound(sol, g)
            for _ in range(100):
                info = povm_fisher(model, theta,
                                   basis_povm(haar_unitaries(model.dim, 1, rng)[0]))
                holds, slack = check_dual(k0, info, ck)
                worst = min(worst, slack)
                violations += 0 if holds else 1
        ok = violations == 0
        assert report("3", ok,
                      f"0 violations required, got {violations}; min slack {worst:.3e}"), \
            violations


class TestCriterion4GillMassar:
    def test_random_basis_equality(self, gm_fishers):
        worst = 0.0
        for name, (model, theta, h, emp) in gm_fishers.items():
            d = model.dim
            hinv = np.linalg.inv(h)
            tr = float(np.trace(hinv @ emp.matrix))
            sigma = float(np.trace(hinv @ emp.std_error))
            dev = abs(tr - (d - 1)) / max(3 * sigma, 1e-12)
            worst = max(worst, dev)
        ok = worst <= 1.0
        assert report("4a", ok, f"max |trace - (d-1)| / (3 sigma) = {worst:.3f}"), worst

    def test_fixed_basis_strictly_below(self, gm_fishers):
        """A fixed basis meets Gill-Massar with equality but is rank deficient.

        A rank-one basis is an exhaustive measurement, so the equality
        trace(H^-1 I) = d - 1 holds for it as for the covariant scheme; the
        fixed basis falls short in rank instead.  Its d outcomes give at most
        d - 1 independent scores, so the whitened information
        J = H^-1/2 I H^-1/2 has rank d - 1 < p and its p - (d - 1) smallest
        eigenvalues vanish.  The covariant scheme's J has full rank: its
        smallest eigenvalue clears zero by more than three whitened standard
        errors (Weyl: eigenvalues move by at most the Frobenius norm of the
        perturbation).
        """
        from qbound import fixed_basis_scheme
        traces, ranks, lowest = {}, {}, {}
        ok = True
        for name, (model, theta, h, cov) in gm_fishers.items():
            d, p = model.dim, model.num_params
            _, w = sym_sqrt_and_inv_sqrt(h)
            fixed = empirical_fisher(model, theta,
                                     fixed_basis_scheme(np.eye(d, dtype=complex)))
            tr = float(np.trace(np.linalg.inv(h) @ fixed.matrix))
            eig_fixed = np.linalg.eigvalsh(w @ fixed.matrix @ w)
            eig_cov = np.linalg.eigvalsh(w @ cov.matrix @ w)
            # |(W E W)_ij| <= (|W| |E| |W|)_ij bounds the whitened error entrywise
            sigma = float(np.linalg.norm(np.abs(w) @ cov.std_error @ np.abs(w)))
            traces[name] = round(tr, 10)
            ranks[name] = int(np.sum(eig_fixed > 1e-8))
            lowest[name] = f"{eig_cov[0]:.3f} vs 3 sigma {3 * sigma:.3f}"
            ok = (ok and abs(tr - (d - 1)) <= 1e-8
                  and d - 1 < p and np.all(np.abs(eig_fixed[:p - (d - 1)]) <= 1e-8)
                  and eig_cov[0] > 3 * sigma)
        assert report("4b", ok,
                      f"fixed-basis traces {traces} (= d-1), ranks {ranks} "
                      f"(= d-1 < p); covariant lowest eigenvalue {lowest}"), \
            (traces, ranks, lowest)


class TestCriterion5CovariantProportionality:
    def test_half_helstrom(self, gm_fishers):
        model, theta, h, emp = gm_fishers["pure_qubit"]
        dev = float(np.linalg.norm(emp.matrix - 0.5 * h))
        sigma = float(np.linalg.norm(emp.std_error))
        ok = dev < 3 * sigma
        assert report("5", ok, f"||Ibar - H/2||_F = {dev:.4f} vs 3 sigma = {3*sigma:.4f}"), \
            (dev, sigma)


class TestCriterion6IntegratedBound:
    def test_full_bloch_bump_prior(self):
        model = bloch_full()
        prior = bump_prior(3, 0.9)
        quad = QuadratureOptions(n_radial=10, n_angular=12, levels=2)
        res = integrated_holevo(model, fidelity_loss(model), prior, quad)
        er = prior_expectation(lambda t: float(np.linalg.norm(t)), prior, quad)
        target = (3 + 2 * er) / 4
        ok = abs(res.value - target) <= 2 * res.error_estimate
        assert report("6", ok,
                      f"value {res.value:.8f} vs (3+2E|theta|)/4 = {target:.8f}, "
                      f"2x error estimate {2*res.error_estimate:.2e}"), \
            (res.value, target, res.error_estimate)


class TestCriterion7SimulationDominance:
    def test_every_config_dominates_integrated_bound(self, risk_matrix):
        results, elapsed = risk_matrix
        failures = []
        for key, (risk, bound) in results.items():
            if risk.value < bound - 3 * risk.std_error:
                failures.append((key, risk.value, bound))
        ok = not failures and elapsed < 600.0
        detail = "; ".join(f"{k}: {r.value:.3f}>= {b:.3f}-3x{r.std_error:.3f}"
                           for k, (r, b) in results.items())
        assert report("7", ok, f"runtime {elapsed:.0f}s at {WORKERS} workers; {detail}"), \
            (failures, elapsed)


class TestCriterion8AttainabilityTrend:
    def test_pure_qubit_trend_and_band(self, risk_matrix):
        """Band [1.0, 1.4] at N = 4000 (implementer-calibrated, see README);
        the decreasing trend is asserted up to twice the Monte Carlo error of
        each difference, since at 2000 trials the finite-N inflation of this
        estimator is smaller than the sampling noise."""
        results, _ = risk_matrix
        seq = [results[k][0] for k in ("pure_rb_250", "pure_rb_1000", "pure_rb_4000")]
        values = [r.value for r in seq]
        trend_ok = all(
            values[i + 1] <= values[i] + 2 * np.hypot(seq[i].std_error,
                                                      seq[i + 1].std_error)
            for i in range(2))
        band_ok = 1.0 <= values[2] <= 1.4
        ok = trend_ok and band_ok
        assert report("8a", ok,
                      f"N x risk over N=(250,1000,4000): "
                      f"{values[0]:.4f}, {values[1]:.4f}, {values[2]:.4f} "
                      f"(band [1.0, 1.4])"), values

    def test_equatorial_two_step_band(self, risk_matrix):
        """The two-step scheme reaches the separable floor, not the collective one.

        For separable schemes Gill-Massar, trace(H^-1 I) <= d - 1, gives the
        asymptotic floor (trace sqrt(H^-1/2 G H^-1/2))^2 / (d - 1) on
        N x risk; with the fidelity weight G = H/4 on a qubit that is
        (p/2)^2 = 1.  The collective-measurement limit 0.5 (the Holevo bound)
        is out of reach and must stay more than 3 sigma away.  The lower edge
        takes the -3 sigma of criterion 7; the upper edge 1.5 x floor keeps
        the 0.75/0.5 ratio of the collective band.
        """
        results, _ = risk_matrix
        model = bloch_equatorial()
        risk = results["eq_ts_4000"][0]
        floor = (model.num_params / 2) ** 2 / (model.dim - 1)
        collective = 0.5
        value, sigma = risk.value, risk.std_error
        ok = (floor - 3 * sigma <= value <= 1.5 * floor
              and value > collective + 3 * sigma)
        assert report("8b", ok,
                      f"N x risk = {value:.4f} +- {sigma:.4f} in "
                      f"[separable floor {floor:.2f} - 3 sigma, {1.5 * floor:.2f}], "
                      f"above collective limit {collective} + 3 sigma"), \
            (value, sigma, floor)


class TestHardLimits:
    """The seed-2024 values pinned at HARD_LIMIT_RTOL, so that a change that
    moves one fails here instead of in a hand check."""

    def test_risk_matrix_values(self, risk_matrix):
        results, _ = risk_matrix
        assert set(results) == set(RISK_MATRIX_LIMITS)
        for key, (value, failures, hits) in RISK_MATRIX_LIMITS.items():
            risk = results[key][0]
            assert risk.value == pytest.approx(value, rel=HARD_LIMIT_RTOL), key
            assert (risk.failures, risk.boundary_hits) == (failures, hits), key

    @pytest.mark.parametrize("name", list(BOUNDARY_LIMITS))
    def test_small_n_boundary_values(self, name):
        family, estimator, n, value, failures, hits = BOUNDARY_LIMITS[name]
        model = builtin_model(family)
        p = model.num_params
        prior = bump_prior(p, {2: 0.8, 3: 0.9}[p])
        runs = [bayes_risk_mc(model, prior, alternating_scheme(PAULI_BASES[:p]),
                              Estimator(estimator), n, trials=2000, seed=SEED,
                              workers=workers)
                for workers in (1, 2)]
        for risk in runs:
            assert risk.value == pytest.approx(value, rel=HARD_LIMIT_RTOL)
            assert (risk.failures, risk.boundary_hits) == (failures, hits)
        assert asdict(runs[0]) == asdict(runs[1])  # bit for bit

    @pytest.mark.parametrize("name", list(BAYES_MEAN_LIMITS))
    def test_bayes_mean_values(self, name):
        family, scheme, n, trials, radius, value, failures, hits = BAYES_MEAN_LIMITS[name]
        model = builtin_model(family)
        scheme = two_step_scheme(model, 0.1) if scheme == "two_step" else random_basis_scheme()
        runs = [bayes_risk_mc(model, bump_prior(model.num_params, radius), scheme,
                              Estimator("bayes_mean"), n, trials=trials, seed=SEED,
                              workers=workers)
                for workers in (1, 2)]
        for risk in runs:
            assert risk.value == pytest.approx(value, rel=HARD_LIMIT_RTOL)
            assert (risk.failures, risk.boundary_hits) == (failures, hits)
        assert asdict(runs[0]) == asdict(runs[1])  # bit for bit

    def test_pure_dim_3_value(self):
        model = builtin_model("pure_dim_d", dim=3)
        value, failures, hits = PURE_DIM_3_LIMIT
        runs = [bayes_risk_mc(model, bump_prior(model.num_params, 0.5), random_basis_scheme(),
                              Estimator("mle"), 250, trials=400, seed=SEED, workers=workers)
                for workers in (1, 2)]
        for risk in runs:
            assert risk.value == pytest.approx(value, rel=HARD_LIMIT_RTOL)
            assert (risk.failures, risk.boundary_hits) == (failures, hits)
        assert asdict(runs[0]) == asdict(runs[1])  # bit for bit

    def test_verify_paper_quick_rows(self):
        # pytest.approx keeps its 1e-12 absolute floor, so a row whose value
        # is rounding noise about 0 (the Bloch fidelity deviation) may move
        rows = list(_row_stream(SEED, 2000, True, 1e-3))
        assert [row[:2] for row in rows] == [row[:2] for row in VERIFY_QUICK_ROWS]
        for row, pinned in zip(rows, VERIFY_QUICK_ROWS):
            assert row[2:] == pytest.approx(pinned[2:], rel=1e-9), row[0]


class TestToleranceEdges:
    @pytest.mark.parametrize("name", list(TOLERANCE_EDGES))
    def test_inside_accepted_outside_rejected(self, name):
        accepted, inside, outside = TOLERANCE_EDGES[name]
        assert all(accepted(x) for x in inside)
        assert not any(accepted(x) for x in outside)


class TestCriterion9ConvexityMachinery:
    def test_z_convexity_spot_checks(self):
        rng = np.random.default_rng(SEED)
        violations = 0
        for k in range(200):
            d = 2 if k % 2 else 3
            p = 2 if k % 3 else 3
            w = rng.random(d) + 0.1
            w /= w.sum()
            u = haar_unitaries(d, 1, rng)[0]
            rho = (u * w) @ u.conj().T
            xs = np.stack([random_hermitian(d, rng) for _ in range(p)])
            ys = np.stack([random_hermitian(d, rng) for _ in range(p)])
            gap = 0.5 * (z_matrix(rho, xs) + z_matrix(rho, ys)) \
                - z_matrix(rho, 0.5 * (xs + ys))
            if np.linalg.eigvalsh(0.5 * (gap + gap.conj().T))[0] < -1e-10:
                violations += 1
        ok = violations == 0
        assert report("9a", ok, f"Z-convexity violations: {violations}/200"), violations

    def test_embedding_gap_decreases(self):
        from qbound import embedding_sequence
        model = bloch_equatorial()
        theta = np.array([0.3, 0.0])
        sol = solve_holevo(model, theta, quarter_helstrom_weight(model, theta))
        steps = embedding_sequence(sol, model, theta)
        gaps = [s.gap for s in steps]
        ok = all(s.margin > 0 for s in steps) and gaps[0] > gaps[1] > gaps[2]
        assert report("9b", ok,
                      f"11-block gaps over eps=(1e-1,1e-2,1e-3): "
                      f"{gaps[0]:.2e} > {gaps[1]:.2e} > {gaps[2]:.2e}"), gaps


class TestCriterion10HelstromCorrectness:
    def test_fidelity_hessian_and_sld_residuals(self, all_models):
        rng = np.random.default_rng(SEED)
        worst_h = 0.0
        worst_sld = 0.0
        for model in all_models.values():
            for theta in interior_points(model, 20, rng):
                h = helstrom_matrix(model, theta).matrix
                p = model.num_params
                step = 1e-3
                hess = np.empty((p, p))
                for i in range(p):
                    for j in range(p):
                        ei = np.zeros(p); ei[i] = step
                        ej = np.zeros(p); ej[j] = step
                        fpp = 1 - fidelity(model.state(theta + ei + ej), model.state(theta))
                        fpm = 1 - fidelity(model.state(theta + ei - ej), model.state(theta))
                        fmp = 1 - fidelity(model.state(theta - ei + ej), model.state(theta))
                        fmm = 1 - fidelity(model.state(theta - ei - ej), model.state(theta))
                        hess[i, j] = (fpp - fpm - fmp + fmm) / (4 * step * step)
                worst_h = max(worst_h, float(np.max(np.abs(2 * hess - h))))
                lams = sld(model, theta)
                worst_sld = max(worst_sld, sld_residual(model.state(theta),
                                                        model.derivs(theta), lams))
        ok = worst_h <= 1e-4 and worst_sld <= 1e-8
        assert report("10", ok,
                      f"max |2 FD-Hessian - H| = {worst_h:.2e} (tol 1e-4), "
                      f"max SLD residual = {worst_sld:.2e} (tol 1e-8)"), \
            (worst_h, worst_sld)


class TestCriterion11VerifyPaper:
    def test_exit_zero_and_deterministic(self):
        cmd = [sys.executable, "-m", "qbound", "verify-paper",
               "--seed", str(SEED), "--n-bases", "2000"]
        a = subprocess.run(cmd, capture_output=True, text=True, env=cli_env())
        b = subprocess.run(cmd, capture_output=True, text=True, env=cli_env())
        ok = a.returncode == 0 and a.stdout == b.stdout and "FAIL" not in a.stdout
        assert report("11", ok,
                      f"exit {a.returncode}, deterministic: {a.stdout == b.stdout}"), \
            a.stdout
