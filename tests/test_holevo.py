import numpy as np
import pytest

from qbound import (Domain, NonConvergenceError, NumericalError,
                    RankDeficiencyError, SolverOptions, affine_model,
                    basis_povm, check_dual, check_x_collection, dual_bound,
                    embedding_sequence, full_model_collection, full_model_z,
                    helstrom_matrix, holevo_objective, povm_fisher,
                    quarter_helstrom_weight, recover_v0, sld, solve_holevo,
                    z_matrix)
from qbound.holevo import _FeasibleSet, _SmoothedObjective, _solve_batch
from qbound.linalg import PAULIS, PAULI_Z, haar_unitary, random_hermitian

from conftest import interior_points


def axis_submodel(t):
    """One-parameter submodel along the third Bloch axis, based at radius t."""
    from qbound import bloch_state
    return affine_model(bloch_state([0, 0, t]), [0.5 * PAULI_Z],
                        Domain("box", bounds=((-0.9 - t, 0.9 - t),), dim=1))


class TestZMatrix:
    def test_pauli_collection_at_center(self):
        # X_i = sigma_i at rho = 1/2: off-diagonal traces vanish, Z = identity
        z = z_matrix(0.5 * np.eye(2), np.stack(PAULIS))
        assert np.max(np.abs(z - np.eye(3))) < 1e-12

    def test_single_x_real_nonnegative(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            x = random_hermitian(3, rng)
            rho = np.eye(3) / 3
            z = z_matrix(rho, x[None])
            assert abs(z[0, 0].imag) < 1e-12
            assert z[0, 0].real >= 0.0

    def test_convexity_in_psd_order(self):
        # Z((X+Y)/2) <= (Z(X) + Z(Y))/2
        rng = np.random.default_rng(1)
        for k in range(200):
            d = 2 if k % 2 else 3
            p = 2 if k % 3 else 3
            w = rng.random(d) + 0.1
            w /= w.sum()
            u = haar_unitary(d, rng)
            rho = (u * w) @ u.conj().T
            xs = np.stack([random_hermitian(d, rng) for _ in range(p)])
            ys = np.stack([random_hermitian(d, rng) for _ in range(p)])
            gap = 0.5 * (z_matrix(rho, xs) + z_matrix(rho, ys)) \
                - z_matrix(rho, 0.5 * (xs + ys))
            assert np.linalg.eigvalsh(0.5 * (gap + gap.conj().T))[0] > -1e-10


class TestObjective:
    def test_real_diagonal(self):
        assert holevo_objective(np.eye(2), np.diag([0.3, 0.7])) == pytest.approx(1.0)

    def test_imaginary_part_contributes_abs_trace(self):
        z = np.array([[1.0, 1.0j], [-1.0j, 1.0]])
        assert holevo_objective(np.eye(2), z) == pytest.approx(4.0)

    def test_monotone_in_hermitian_order(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            z1 = random_hermitian(3, rng)
            bump = random_hermitian(3, rng)
            bump = bump @ bump.conj().T  # PSD
            z2 = z1 + bump
            g = np.eye(3) + 0.2 * np.diag(rng.random(3))
            assert holevo_objective(g, z1) <= holevo_objective(g, z2) + 1e-9

    def test_recover_v0_real_z(self):
        z = np.diag([0.2, 0.5]).astype(complex)
        assert np.allclose(recover_v0(np.eye(2), z), z.real)

    def test_recover_v0_imaginary_block(self):
        z = np.array([[1.0, 1.0j], [-1.0j, 1.0]])
        v0 = recover_v0(np.eye(2), z)
        assert np.allclose(v0, 2 * np.eye(2), atol=1e-12)
        assert np.trace(np.eye(2) @ v0) == pytest.approx(holevo_objective(np.eye(2), z))


class TestSolver:
    def test_full_bloch_closed_form(self, all_models):
        model = all_models["bloch_full"]
        for r in (0.0, 0.5):
            theta = np.array([0, 0, r])
            sol = solve_holevo(model, theta, quarter_helstrom_weight(model, theta))
            assert sol.value == pytest.approx((3 + 2 * r) / 4, rel=1e-6)
            check_x_collection(model.state(theta), model.derivs(theta), sol.x_star)

    def test_equatorial_constant(self, all_models):
        model = all_models["bloch_equatorial"]
        theta = np.array([0.2, -0.4])
        sol = solve_holevo(model, theta, quarter_helstrom_weight(model, theta))
        assert sol.value == pytest.approx(0.5, rel=1e-4)

    def test_pure_models(self, all_models):
        for name, d in (("pure_qubit", 2), ("pure_dim_3", 3)):
            model = all_models[name]
            theta = 0.2 * np.ones(model.num_params)
            sol = solve_holevo(model, theta, quarter_helstrom_weight(model, theta))
            assert sol.value == pytest.approx(d - 1, rel=1e-6)

    def test_scalar_submodel_inverse_helstrom(self):
        # p = 1: the bound equals 1/H, attained by the scaled SLD
        for t in (0.0, 0.5, 0.8):
            sol = solve_holevo(axis_submodel(t), [0.0], np.array([[1.0]]))
            assert sol.value == pytest.approx(1 - t * t, rel=1e-6)

    def test_deterministic(self, all_models):
        model = all_models["bloch_equatorial"]
        theta = np.array([0.3, 0.1])
        g = quarter_helstrom_weight(model, theta)
        a = solve_holevo(model, theta, g)
        b = solve_holevo(model, theta, g)
        assert a.value == b.value
        assert np.array_equal(a.v0, b.v0)
        assert all(np.array_equal(x, y) for x, y in zip(a.x_star, b.x_star))
        assert a.diagnostics == b.diagnostics

    def test_sandwich_and_diagnostics(self, all_models):
        model = all_models["bloch_equatorial"]
        theta = np.array([0.5, 0.2])
        g = quarter_helstrom_weight(model, theta)
        sol = solve_holevo(model, theta, g)
        h = helstrom_matrix(model, theta).matrix
        floor = np.trace(g @ np.linalg.inv(h))
        assert sol.value >= floor - 1e-6
        assert sol.diagnostics["constraint_residual"] < 1e-8
        # objective at the SLD initialization upper-bounds the optimum
        from qbound import sld
        lams = sld(model, theta)
        hinv = np.linalg.inv(h)
        x_init = np.stack([sum(hinv[j, k] * lams[k] for k in range(2)) for j in range(2)])
        assert sol.value <= holevo_objective(g, z_matrix(model.state(theta), x_init)) + 1e-9

    def test_solution_invariants(self, all_models):
        rng = np.random.default_rng(3)
        model = all_models["bloch_equatorial"]
        theta = interior_points(model, 1, rng)[0]
        g = quarter_helstrom_weight(model, theta)
        sol = solve_holevo(model, theta, g)
        assert np.linalg.eigvalsh(sol.v0 - sol.z_star)[0] > -1e-7
        assert np.trace(g @ sol.v0) == pytest.approx(sol.value, rel=1e-7)
        assert holevo_objective(g, sol.z_star) == pytest.approx(sol.value, rel=1e-6)

    def test_scale_covariance(self, all_models):
        model = all_models["bloch_equatorial"]
        theta = np.array([0.35, -0.1])
        g = quarter_helstrom_weight(model, theta)
        base = solve_holevo(model, theta, g).value
        for c in (0.5, 3.0):
            assert solve_holevo(model, theta, c * g).value == pytest.approx(c * base, rel=1e-8)

    def test_reparameterization_covariance(self, all_models):
        # theta -> A theta maps the bound with weight G to weight A^T G A
        model = all_models["bloch_equatorial"]
        amat = np.array([[1.2, 0.3], [-0.1, 0.8]])
        theta_new = np.array([0.25, 0.1])
        reparam = affine_model(
            model.rho0,
            [sum(amat[i, j] * model.basis[i] for i in range(2)) for j in range(2)],
            Domain("ball", radius=0.55, dim=2))
        g = np.array([[0.9, 0.2], [0.2, 1.4]])
        direct = solve_holevo(reparam, theta_new, amat.T @ g @ amat).value
        mapped = solve_holevo(model, amat @ theta_new, g).value
        assert direct == pytest.approx(mapped, rel=1e-6)

    def test_nonconvergence_carries_best_value(self, all_models):
        model = all_models["bloch_equatorial"]
        theta = np.array([0.4, 0.2])
        g = quarter_helstrom_weight(model, theta)
        with pytest.raises(NonConvergenceError) as err:
            solve_holevo(model, theta, g, SolverOptions(max_iters=1, stage_rtol=0.0))
        assert err.value.best_value is not None
        assert err.value.best_value >= 0.5 - 1e-6

    def test_singular_helstrom_is_infeasible(self):
        # second basis direction never moves the state: H is singular
        zero = np.zeros((2, 2), dtype=complex)
        model = affine_model(0.5 * np.eye(2), [0.5 * PAULI_Z, zero],
                             Domain("ball", radius=0.5, dim=2))
        with pytest.raises(RankDeficiencyError):
            solve_holevo(model, [0.0, 0.0], np.eye(2))

    def test_one_sld_call_per_solve(self, all_models, monkeypatch):
        # one SLD evaluation per solve, and one per batch of solves
        import qbound.holevo
        from qbound.information import sld_from_state
        calls = []

        def counted(*args, **kwargs):
            calls.append(1)
            return sld_from_state(*args, **kwargs)

        monkeypatch.setattr(qbound.holevo, "sld_from_state", counted)
        model = all_models["bloch_equatorial"]
        theta = np.array([0.3, 0.1])
        g = quarter_helstrom_weight(model, theta)
        cold = solve_holevo(model, theta, g)
        assert len(calls) == 1
        solve_holevo(model, theta, g, SolverOptions(x_warm=cold.x_star))
        assert len(calls) == 2
        thetas = np.array([[0.3, 0.1], [-0.2, 0.4], [0.0, 0.5]])
        _solve_batch(model, thetas, np.stack([g] * 3), SolverOptions())
        assert len(calls) == 3

    def test_one_state_evaluation_per_solve(self, all_models, monkeypatch):
        from qbound.models import ParametricModel
        calls = []
        state, derivs = ParametricModel.state, ParametricModel.derivs

        def counted(fn):
            def wrapper(self, theta):
                calls.append(fn.__name__)
                return fn(self, theta)
            return wrapper

        for name in ("bloch_full", "bloch_equatorial", "pure_qubit"):
            model = all_models[name]
            theta = np.full(model.num_params, 0.2)
            g = quarter_helstrom_weight(model, theta)
            monkeypatch.setattr(ParametricModel, "state", counted(state))
            monkeypatch.setattr(ParametricModel, "derivs", counted(derivs))
            solve_holevo(model, theta, g)
            monkeypatch.undo()
            assert calls == ["state", "derivs"], name
            calls.clear()

    def test_one_weight_root_per_solve(self, all_models, monkeypatch):
        # G^1/2 and G^-1/2 are computed once; the exact objective and V0 at
        # the end come from the same roots, not from holevo_objective
        import qbound.holevo
        from qbound.linalg import sym_sqrt_and_inv_sqrt
        calls = []

        def counted(*args, **kwargs):
            calls.append(1)
            return sym_sqrt_and_inv_sqrt(*args, **kwargs)

        def forbidden(*args, **kwargs):
            raise AssertionError("holevo_objective called inside solve_holevo")

        monkeypatch.setattr(qbound.holevo, "sym_sqrt_and_inv_sqrt", counted)
        monkeypatch.setattr(qbound.holevo, "holevo_objective", forbidden)
        model = all_models["bloch_equatorial"]
        theta = np.array([0.3, 0.1])
        g = quarter_helstrom_weight(model, theta)
        cold = solve_holevo(model, theta, g)
        assert len(calls) == 1
        solve_holevo(model, theta, g, SolverOptions(x_warm=cold.x_star))
        assert len(calls) == 2
        full = all_models["bloch_full"]
        theta = np.array([0.1, -0.3, 0.4])
        solve_holevo(full, theta, quarter_helstrom_weight(full, theta))
        assert len(calls) == 3
        thetas = np.array([[0.3, 0.1], [-0.2, 0.4], [0.0, 0.5]])
        _solve_batch(model, thetas, np.stack([g] * 3), SolverOptions())
        assert len(calls) == 4

    def test_batch_does_not_change_a_point(self, all_models):
        # each point of a batch is solved bit for bit as it is alone
        rng = np.random.default_rng(12)
        cases = [all_models[name] for name in ("bloch_equatorial", "pure_dim_3")]
        cases.append(random_mixed_model(rng, 3, 2))
        for model in cases:
            p = model.num_params
            thetas = np.stack(interior_points(model, 7, rng, radius=0.15))
            a = rng.standard_normal((p, p))
            g = np.stack([a @ a.T + (1.0 + k) * np.eye(p) for k in range(7)])
            opts = SolverOptions(max_iters=200)
            batch = _solve_batch(model, thetas, g, opts)
            for i in (0, 3, 6):
                one = _solve_batch(model, thetas[i:i + 1], g[i:i + 1], opts)
                for key in ("value", "x_star", "z_star", "v0"):
                    assert np.array_equal(getattr(one, key)[0], getattr(batch, key)[i]), key
                for key in ("iterations", "converged", "gap_estimate"):
                    assert one.diagnostics[key][0] == batch.diagnostics[key][i], key

    @pytest.mark.parametrize("weight, message", [
        (np.array([[1.0, 0.5], [0.0, 1.0]]), "symmetric"),
        (np.array([[1.0, 2.0], [2.0, 1.0]]), "positive-definite"),
        (np.eye(3), "dimension")])
    def test_bad_weight_rejected(self, all_models, weight, message):
        with pytest.raises(ValueError, match=message):
            solve_holevo(all_models["bloch_equatorial"], [0.3, 0.1], weight)

    def test_analytic_gradient_matches_fd(self, all_models):
        model = all_models["bloch_equatorial"]
        theta = np.array([0.3, -0.2])
        obj = _Point(model, theta, quarter_helstrom_weight(model, theta))
        rng = np.random.default_rng(4)
        t = rng.standard_normal(obj.size)
        for eps in (1e-2, 1e-5):
            _, ga = obj.value_and_grad(t, eps)
            gf = _fd_grad(obj, t, eps, 1e-7)
            assert np.max(np.abs(ga - gf)) < 1e-6


class _Point:
    """The solver's feasible set and smoothed objective at one point, used
    through a batch of one."""

    def __init__(self, model, theta, g):
        thetas = np.asarray(theta, dtype=float)[None]
        self.fs = _FeasibleSet(model.state(thetas), model.derivs(thetas))
        self.obj = _SmoothedObjective(self.fs, np.asarray(g, dtype=float)[None])
        self.size = self.fs.p * self.fs.m

    def value(self, t, eps):
        return float(self.obj.value(t[None], eps)[0])

    def value_and_grad(self, t, eps):
        val, grad = self.obj.value_and_grad(t[None], eps)
        return float(val[0]), grad[0]

    def coords(self, xs):
        return self.fs.coords(np.asarray(xs)[None])[0]

    def x_mats(self, t):
        return self.fs.x_mats(t[None])[0]


def _fd_grad(obj, t, eps, step):
    """Forward-difference gradient of the smoothed objective (reference)."""
    f0 = obj.value(t, eps)
    grad = np.zeros_like(t)
    for i in range(t.size):
        tp = t.copy()
        h = step * max(1.0, abs(t[i]))
        tp[i] += h
        grad[i] = (obj.value(tp, eps) - f0) / h
    return grad


def _nelder_mead(fn, x0, iters=4000, scale=0.5):
    """Minimal Nelder-Mead, independent of the production solver.

    With no free coordinates (n == 0) the feasible point is unique and its
    value is the minimum; a simplex needs at least two points.
    """
    n = x0.size
    if n == 0:
        return fn(x0)
    simplex = [x0] + [x0 + scale * e for e in np.eye(n)]
    vals = [fn(x) for x in simplex]
    for _ in range(iters):
        order = np.argsort(vals)
        simplex = [simplex[i] for i in order]
        vals = [vals[i] for i in order]
        centroid = np.mean(simplex[:-1], axis=0)
        refl = centroid + (centroid - simplex[-1])
        fr = fn(refl)
        if fr < vals[0]:
            exp = centroid + 2.0 * (centroid - simplex[-1])
            fe = fn(exp)
            simplex[-1], vals[-1] = (exp, fe) if fe < fr else (refl, fr)
        elif fr < vals[-2]:
            simplex[-1], vals[-1] = refl, fr
        else:
            contr = centroid + 0.5 * (simplex[-1] - centroid)
            fc = fn(contr)
            if fc < vals[-1]:
                simplex[-1], vals[-1] = contr, fc
            else:
                simplex = [simplex[0] + 0.5 * (x - simplex[0]) for x in simplex]
                vals = [fn(x) for x in simplex]
        if max(vals) - min(vals) < 1e-13 * max(1.0, abs(vals[0])):
            break
    return min(vals)


def random_mixed_model(rng, d, p):
    """Random affine family around a random full-rank state."""
    w = rng.random(d) + 0.3
    w /= w.sum()
    u = haar_unitary(d, rng)
    rho0 = (u * w) @ u.conj().T
    basis = []
    for _ in range(p):
        b = random_hermitian(d, rng, traceless=True)
        basis.append(0.25 * b / np.linalg.norm(b))
    return affine_model(rho0, basis, Domain("ball", radius=0.2, dim=p))


class TestSolverAgainstIndependentOracle:
    def test_random_models_match_nelder_mead(self):
        # exact nonsmooth objective minimized by an unrelated method
        rng = np.random.default_rng(7)
        for case in range(6):
            d = 2 if case % 2 else 3
            p = 2 if case < 4 else 3
            model = random_mixed_model(rng, d, p)
            theta = model.domain.project(0.05 * rng.standard_normal(p))
            a = random_hermitian(p, rng).real
            g = a @ a.T + 0.5 * np.eye(p)
            sol = solve_holevo(model, theta, g)
            obj = _Point(model, theta, g)
            x0 = obj.coords(sol.x_star)
            exact = lambda t: obj.value(t, 0.0)  # noqa: E731
            oracle = _nelder_mead(exact, np.zeros_like(x0))
            oracle = min(oracle, _nelder_mead(exact, x0))
            assert sol.value == pytest.approx(oracle, rel=2e-5), (case, sol.value, oracle)
            if x0.size == 0:
                # the unique feasible collection is the SLD one,
                # X_j = sum_k (H^-1)_jk L_k, built here without _FeasibleSet
                hinv = np.linalg.inv(helstrom_matrix(model, theta).matrix)
                xs = np.einsum("jk,kab->jab", hinv, np.stack(sld(model, theta)))
                direct = holevo_objective(g, z_matrix(model.state(theta), xs))
                assert sol.value == pytest.approx(direct, rel=2e-5), (case, sol.value, direct)

    def test_start_independence(self):
        # the problem is convex: a warm start moved off the SLD start by the
        # Gaussian perturbation that random restarts used to draw, of scale
        # 0.3 (1 + |t0| / sqrt(n)) in null-space coordinates, reaches the
        # value of the cold solve
        rng = np.random.default_rng(7)
        for case in range(6):
            d = 2 if case % 2 else 3
            p = 2 if case < 4 else 3
            model = random_mixed_model(rng, d, p)
            theta = model.domain.project(0.05 * rng.standard_normal(p))
            a = random_hermitian(p, rng).real
            g = a @ a.T + 0.5 * np.eye(p)
            cold = solve_holevo(model, theta, g)
            point = _Point(model, theta, g)
            hinv = np.linalg.inv(helstrom_matrix(model, theta).matrix)
            t0 = point.coords(np.einsum("jk,kab->jab", hinv, sld(model, theta)))
            scale = 0.3 * (1.0 + np.linalg.norm(t0) / max(1.0, np.sqrt(t0.size)))
            for k in range(2):
                t = t0 + scale * rng.standard_normal(t0.size)
                warm = solve_holevo(model, theta, g,
                                    SolverOptions(x_warm=point.x_mats(t)))
                assert warm.value == pytest.approx(cold.value, rel=1e-8), \
                    (case, k, warm.value, cold.value)

    def test_random_models_satisfy_invariants(self):
        rng = np.random.default_rng(8)
        for case in range(12):
            d = 2 if case % 2 else 3
            p = 2 if case % 3 else 3
            model = random_mixed_model(rng, d, p)
            theta = model.domain.project(0.05 * rng.standard_normal(p))
            g = np.eye(p) + 0.3 * np.diag(rng.random(p))
            sol = solve_holevo(model, theta, g)
            h = helstrom_matrix(model, theta).matrix
            assert sol.value >= np.trace(g @ np.linalg.inv(h)) - 1e-6
            assert np.linalg.eigvalsh(sol.v0 - sol.z_star)[0] > -1e-7
            assert sol.diagnostics["constraint_residual"] < 1e-8
            k0, ck = dual_bound(sol, g)
            for _ in range(10):
                info = povm_fisher(model, theta, basis_povm(haar_unitary(d, rng)))
                ok, _ = check_dual(k0, info, ck)
                assert ok


class TestDualBound:
    def test_scalar_case_exact(self):
        sub = axis_submodel(0.5)
        g = np.array([[1.0]])
        sol = solve_holevo(sub, [0.0], g)
        k0, ck = dual_bound(sol, g)
        h = helstrom_matrix(sub, [0.0]).matrix
        assert k0[0, 0] == pytest.approx(sol.v0[0, 0] ** 2 * g[0, 0], rel=1e-9)
        assert np.trace(k0 @ h) == pytest.approx(ck, rel=1e-9)

    def test_roundtrip(self, all_models):
        model = all_models["bloch_equatorial"]
        theta = np.array([0.3, 0.0])
        g = quarter_helstrom_weight(model, theta)
        sol = solve_holevo(model, theta, g)
        k0, ck = dual_bound(sol, g)
        i0 = np.linalg.inv(sol.v0)
        again = solve_holevo(model, theta, i0 @ k0 @ i0)
        assert again.value == pytest.approx(ck, rel=1e-5)

    def test_dominates_random_measurements(self, all_models):
        rng = np.random.default_rng(5)
        model = all_models["bloch_equatorial"]
        theta = np.array([0.3, 0.0])
        g = quarter_helstrom_weight(model, theta)
        sol = solve_holevo(model, theta, g)
        k0, ck = dual_bound(sol, g)
        for _ in range(100):
            info = povm_fisher(model, theta, basis_povm(haar_unitary(2, rng)))
            ok, slack = check_dual(k0, info, ck)
            assert ok

    def test_mixture_information_respects_dual(self, all_models):
        # information of a randomized choice of two measurements stays in the set
        model = all_models["bloch_equatorial"]
        theta = np.array([0.25, 0.15])
        g = quarter_helstrom_weight(model, theta)
        sol = solve_holevo(model, theta, g)
        k0, ck = dual_bound(sol, g)
        i1 = povm_fisher(model, theta, basis_povm(np.linalg.eigh(PAULIS[0])[1])).matrix
        i2 = povm_fisher(model, theta, basis_povm(np.linalg.eigh(PAULIS[1])[1])).matrix
        for t in (0.25, 0.5, 0.75):
            ok, _ = check_dual(k0, t * i1 + (1 - t) * i2, ck)
            assert ok

    def test_trivial_zero_information(self):
        ok, slack = check_dual(np.eye(2), np.zeros((2, 2)), 0.5)
        assert ok and slack == pytest.approx(0.5)

    def test_gill_massar_form_on_pure_qubit(self, all_models):
        # K = H^{-1}: trace(H^{-1} I_M) <= d - 1 for projective bases
        model = all_models["pure_qubit"]
        theta = np.array([0.25, -0.1])
        hinv = np.linalg.inv(helstrom_matrix(model, theta).matrix)
        rng = np.random.default_rng(6)
        for _ in range(25):
            info = povm_fisher(model, theta, basis_povm(haar_unitary(2, rng)))
            ok, _ = check_dual(hinv, info, 1.0)
            assert ok

    def test_singular_v0_rejected(self, all_models):
        model = all_models["bloch_equatorial"]
        theta = np.array([0.3, 0.0])
        g = quarter_helstrom_weight(model, theta)
        sol = solve_holevo(model, theta, g)
        broken = type(sol)(value=sol.value, x_star=sol.x_star, z_star=sol.z_star,
                           v0=np.zeros_like(sol.v0), diagnostics=sol.diagnostics)
        with pytest.raises(NumericalError):
            dual_bound(broken, g)


class TestFullModel:
    def test_maximally_mixed_qubit(self):
        ys, zf = full_model_collection(0.5 * np.eye(2))
        for y, sigma in zip(ys, PAULIS):
            assert np.max(np.abs(y - sigma)) < 1e-12
        assert np.allclose(zf, np.eye(3), atol=1e-12)

    def test_diagonal_real_positive(self):
        rng = np.random.default_rng(7)
        w = rng.random(3) + 0.2
        w /= w.sum()
        u = haar_unitary(3, rng)
        rho = (u * w) @ u.conj().T
        zf = full_model_z(rho)
        diag = np.diag(zf)
        assert np.max(np.abs(diag.imag)) < 1e-12
        assert np.all(diag.real > 0)

    def test_leading_block_feasible_for_submodel(self, all_models):
        # the first p full-model constraints coincide with the submodel's
        model = all_models["bloch_equatorial"]
        theta = np.array([0.3, 0.0])
        ys, _ = full_model_collection(model.state(theta))
        # for d = 2 the full-model coordinates are the Bloch coordinates
        check_x_collection(model.state(theta), model.derivs(theta), ys[:2])

    def test_singular_state_rejected(self):
        with pytest.raises(RankDeficiencyError):
            full_model_z(np.diag([1.0, 0.0]))


class TestEmbedding:
    def test_interest_block_is_everything_for_full_model(self, all_models):
        model = all_models["bloch_full"]
        theta = np.array([0.2, 0.1, -0.3])
        g = quarter_helstrom_weight(model, theta)
        sol = solve_holevo(model, theta, g)
        steps = embedding_sequence(sol, model, theta, (1e-2, 1e-3))
        vinv = np.linalg.inv(sol.v0)
        for step in steps:
            assert step.margin > 0
            # (W^{-1})_11 = (V + delta)^{-1}: gap bounded by the delta shift
            assert step.gap <= np.linalg.norm(vinv, 2) ** 2 * step.delta * 1.01 + 1e-12

    def test_equatorial_in_full_qubit_converges(self, all_models):
        model = all_models["bloch_equatorial"]
        theta = np.array([0.3, 0.0])
        sol = solve_holevo(model, theta, quarter_helstrom_weight(model, theta))
        steps = embedding_sequence(sol, model, theta, (1e-1, 1e-2, 1e-3))
        gaps = [s.gap for s in steps]
        assert all(s.margin > 0 for s in steps)
        assert gaps[0] > gaps[1] > gaps[2]
        assert gaps[2] < 1e-3

    def test_rejects_pure_states(self, all_models):
        model = all_models["pure_qubit"]
        theta = np.array([0.2, 0.1])
        sol = solve_holevo(model, theta, quarter_helstrom_weight(model, theta))
        with pytest.raises(RankDeficiencyError):
            embedding_sequence(sol, model, theta)
