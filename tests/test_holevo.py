import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from qbound import (Domain, NonConvergenceError, NumericalError,
                    RankDeficiencyError, SolverOptions, affine_model,
                    basis_povm, check_dual, check_x_collection, dual_bound,
                    embedding_sequence, full_model_collection,
                    helstrom_matrix, holevo_objective, povm_fisher,
                    quarter_helstrom_weight, recover_v0, sld, solve_holevo,
                    z_matrix)
from qbound.holevo import CERTIFY_RTOL, _Dual, _FeasibleSet, _barrier, _solve_batch
from qbound.linalg import (PAULIS, PAULI_Z, haar_unitary, hermitize,
                           random_hermitian)

from conftest import (interior_points, random_mixed_model, random_qubit_pair_model,
                      suzuki_bound)

# The certificate bounds the error of the exact-arithmetic value; the
# computed value and bound each carry a few ulps of rounding.
ROUNDING = 1e-14


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
            assert abs(sol.value - (1 - t * t)) <= sol.diagnostics["gap_estimate"] + ROUNDING

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

    def test_nonconvergence_carries_best_value(self):
        # builtin families certify at the SLD start and never ascend the
        # dual; this random model does, and one Newton step does not certify it
        model = random_mixed_model(np.random.default_rng(0), 3, 2)
        with pytest.raises(NonConvergenceError) as err:
            solve_holevo(model, [0.05, -0.02], np.eye(2), SolverOptions(max_iters=1))
        diag = err.value.diagnostics
        assert err.value.best_value is not None
        assert diag["iterations"] > 0
        assert err.value.best_value >= diag["lower_bound"] >= diag["helstrom_value"]

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
        solve_holevo(model, theta, g)
        assert len(calls) == 1
        solve_holevo(model, theta, g)
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
        solve_holevo(model, theta, g)
        assert len(calls) == 1
        solve_holevo(model, theta, g)
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
                for key in ("iterations", "converged", "gap_estimate", "lower_bound"):
                    assert one.diagnostics[key][0] == batch.diagnostics[key][i], key

    @pytest.mark.parametrize("weight, message", [
        (np.array([[1.0, 0.5], [0.0, 1.0]]), "symmetric"),
        (np.array([[1.0, 2.0], [2.0, 1.0]]), "positive-definite"),
        (np.eye(3), "dimension"),
        (np.array([[np.nan, 0.0], [0.0, 1.0]]), "non-finite"),
        (np.array([[np.inf, 0.0], [0.0, 1.0]]), "non-finite")])
    def test_bad_weight_rejected(self, all_models, weight, message):
        with pytest.raises(ValueError, match=message):
            solve_holevo(all_models["bloch_equatorial"], [0.3, 0.1], weight)

    def test_analytic_gradient_matches_fd(self):
        # the dual ascent's gradient and minus Hessian of D(b) and of the
        # barrier log det(1 + iB), at random interior b, against central
        # differences of D and log det and of the analytic gradients
        rng = np.random.default_rng(4)
        for d, p in ((3, 2), (4, 2), (3, 3), (4, 3), (3, 4), (4, 4)):
            model = random_mixed_model(rng, d, p)
            theta = model.domain.project(0.05 * rng.standard_normal(p))
            point = _Point(model, theta, _spd(rng, p))
            t = rng.standard_normal(point.size)
            m, xs = point.expansion(t)
            basis = np.array([np.outer(e, f) - np.outer(f, e)
                              for k, e in enumerate(np.eye(p)) for f in np.eye(p)[k + 1:]])
            b = rng.standard_normal(len(basis))
            b *= rng.uniform(0.2, 0.9) / np.linalg.norm(np.tensordot(b, basis, 1), 2)

            def dual(b):
                d_b, _, grad, nhess = point.dual.newton_terms(m, xs, 0, basis, b)
                return d_b, grad, nhess

            for name, fn in (("dual", dual), ("barrier", lambda x: _barrier(x, basis))):
                value, grad, nhess = fn(b)
                scale = max(1.0, abs(value))
                gf = _central(lambda x: fn(x)[0], b, 1e-5)
                hf = _central(lambda x: fn(x)[1], b, 1e-5)
                assert np.max(np.abs(grad - gf)) < 1e-7 * scale, (d, p, name)
                assert np.max(np.abs(nhess + hf)) < 1e-6 * scale, (d, p, name)
            # the Newton terms' D(b) agrees with _Dual.value, which certifies the start
            assert dual(b)[0] == pytest.approx(point.dual_value(t, np.tensordot(b, basis, 1)),
                                               rel=1e-12)


class _Point:
    """The solver's feasible set and dual bounds at one point, used through
    a batch of one."""

    def __init__(self, model, theta, g):
        thetas = np.asarray(theta, dtype=float)[None]
        self.g = np.asarray(g, dtype=float)
        self.fs = _FeasibleSet(model.state(thetas), model.derivs(thetas))
        self.dual = _Dual(self.fs, self.g[None])
        self.size = self.fs.p * self.fs.m

    def value(self, t):
        """The exact objective at coordinates t."""
        return holevo_objective(self.g, z_matrix(self.fs.rho[0], self.fs.x_mats(t[None])[0]))

    def coords(self, xs):
        return self.fs.coords(np.asarray(xs)[None])[0]

    def expansion(self, t):
        """(G^1/2 Z(X) G^1/2, X) at the feasible point X at coordinates t."""
        xs = hermitize(self.fs.x_mats(t[None]))[0]
        gh = self.dual.gh[0]
        return gh @ z_matrix(self.fs.rho[0], xs) @ gh, xs

    def dual_value(self, t, b):
        """D(B) from the expansion about the feasible point at coordinates t."""
        m, xs = self.expansion(t)
        return float(self.dual.value(m[None], xs[None], np.asarray(b, dtype=float)[None])[0])


def _central(fn, x, step):
    """Central-difference derivative of fn (scalar- or array-valued) at x,
    stacked along the last axis (reference)."""
    cols = []
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = step
        cols.append((np.asarray(fn(x + e)) - np.asarray(fn(x - e))) / (2 * step))
    return np.stack(cols, axis=-1)


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


class TestSolverAgainstIndependentOracle:
    def test_random_models_match_nelder_mead(self):
        # exact nonsmooth objective minimized by an unrelated method
        rng = np.random.default_rng(7)
        for case in range(7):
            d = 2 if case % 2 else 3
            p = 2 if case < 4 else 3 if case < 6 else 4
            model = random_mixed_model(rng, d, p)
            theta = model.domain.project(0.05 * rng.standard_normal(p))
            a = random_hermitian(p, rng).real
            g = a @ a.T + 0.5 * np.eye(p)
            sol = solve_holevo(model, theta, g)
            obj = _Point(model, theta, g)
            x0 = obj.coords(sol.x_star)
            oracle = _nelder_mead(obj.value, np.zeros_like(x0))
            oracle = min(oracle, _nelder_mead(obj.value, x0))
            assert sol.value == pytest.approx(oracle, rel=2e-5), (case, sol.value, oracle)
            # Nelder-Mead values are objective values at feasible points, so
            # oracle >= C_G >= value - gap; its start x0 gives oracle <= value
            gap = sol.diagnostics["gap_estimate"]
            assert abs(sol.value - oracle) <= gap + ROUNDING * max(1.0, oracle), \
                (case, sol.value, oracle, gap)
            if x0.size == 0:
                # the unique feasible collection is the SLD one,
                # X_j = sum_k (H^-1)_jk L_k, built here without _FeasibleSet
                hinv = np.linalg.inv(helstrom_matrix(model, theta).matrix)
                xs = np.einsum("jk,kab->jab", hinv, np.stack(sld(model, theta)))
                direct = holevo_objective(g, z_matrix(model.state(theta), xs))
                assert sol.value == pytest.approx(direct, rel=2e-5), (case, sol.value, direct)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1))
    def test_two_parameter_qubits_match_suzuki(self, seed):
        # any two-parameter qubit model has a closed-form bound (suzuki_bound)
        rng = np.random.default_rng(seed)
        model = random_qubit_pair_model(rng, 0.05, 0.2)
        theta, g = np.zeros(2), _spd(rng, 2)
        expected = suzuki_bound(model, theta[None], g)[0]
        assert solve_holevo(model, theta, g).value == pytest.approx(expected, rel=1e-10)

    @staticmethod
    def _random_case(rng, p):
        d = 3 if p < 4 else 4
        model = random_mixed_model(rng, d, p)
        return model, model.domain.project(0.05 * rng.standard_normal(p)), _spd(rng, p)

    @pytest.mark.parametrize("p", [2, 3, 4])
    def test_random_unitary_invariance(self, p):
        # rho -> U rho U^dagger maps every feasible X to U X U^dagger and
        # leaves Z(X), so C_G, unchanged, for any weight G
        rng = np.random.default_rng(20 + p)
        for _ in range(3):
            model, theta, g = self._random_case(rng, p)
            u = haar_unitary(model.rho0.shape[0], rng)
            rotated = affine_model(u @ model.rho0 @ u.conj().T,
                                   [u @ b @ u.conj().T for b in model.basis], model.domain)
            a = solve_holevo(model, theta, g).value
            assert solve_holevo(rotated, theta, g).value == pytest.approx(a, rel=1e-9)

    @pytest.mark.parametrize("p", [2, 3, 4])
    def test_random_reparameterization_covariance(self, p):
        # theta = A phi maps the bound with weight G to weight A^T G A
        rng = np.random.default_rng(30 + p)
        for _ in range(3):
            model, theta, g = self._random_case(rng, p)
            amat = np.eye(p) + 0.5 * rng.standard_normal((p, p))
            phi = np.linalg.solve(amat, theta)
            reparam = affine_model(
                model.rho0, [sum(amat[i, j] * model.basis[i] for i in range(p)) for j in range(p)],
                Domain("ball", radius=2.0 * np.linalg.norm(phi) + 1.0, dim=p))
            a = solve_holevo(model, theta, g).value
            mapped = solve_holevo(reparam, phi, amat.T @ g @ amat).value
            assert mapped == pytest.approx(a, rel=1e-9)

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


CLOSED_FORMS = [
    ("bloch_full", [0.0, 0.0, 0.0], 0.75),
    ("bloch_full", [0.0, 0.0, 0.5], 1.0),
    ("bloch_full", [0.2, -0.1, 0.5], None),     # (3 + 2 |theta|) / 4
    ("bloch_equatorial", [0.3, 0.0], 0.5),
    ("bloch_equatorial", [0.6, 0.5], 0.5),
    ("bloch_equatorial", [-0.7, 0.1], 0.5),
    ("pure_qubit", [0.25, -0.10], 1.0),
    ("pure_dim_3", [0.2, 0.1, -0.15, 0.25], 2.0),
]


def _spd(rng, p, shift=0.5):
    a = rng.standard_normal((p, p))
    return a @ a.T + shift * np.eye(p)


def _antisymmetric(rng, p, norm):
    """A random real antisymmetric B with operator norm ``norm``."""
    a = rng.standard_normal((p, p))
    b = a - a.T
    return norm * b / np.linalg.norm(b, 2)


class TestCertificate:
    @pytest.mark.parametrize("name, theta, expected", CLOSED_FORMS)
    def test_gap_covers_closed_forms(self, all_models, name, theta, expected):
        model = all_models[name]
        if expected is None:
            expected = (3 + 2 * np.linalg.norm(theta)) / 4
        sol = solve_holevo(model, theta, quarter_helstrom_weight(model, theta))
        gap = sol.diagnostics["gap_estimate"]
        assert abs(sol.value - expected) <= gap + ROUNDING * max(1.0, expected)
        assert sol.diagnostics["lower_bound"] <= sol.value + ROUNDING * max(1.0, sol.value)

    @pytest.mark.parametrize("name", ["bloch_equatorial", "pure_qubit", "pure_dim_3"])
    def test_builtin_families_certify_at_start(self, all_models, name):
        # weak commutativity (bloch_equatorial) and pure states make the SLD
        # start optimal, for the fidelity weight and for arbitrary weights
        model = all_models[name]
        rng = np.random.default_rng(13)
        p = model.num_params
        thetas = np.stack(interior_points(model, 24, rng))
        weights = (np.stack([quarter_helstrom_weight(model, t) for t in thetas]),
                   np.stack([_spd(rng, p) for _ in thetas]))
        for g in weights:
            batch = _solve_batch(model, thetas, g, SolverOptions())
            diag = batch.diagnostics
            assert np.all(diag["iterations"] == 0)
            assert np.all(diag["gap_estimate"]
                          <= CERTIFY_RTOL * np.maximum(1.0, np.abs(batch.value)))

    def test_qutrit_models_certify(self):
        # twelve mixed qutrit models, spectrum (0.5, 0.3, 0.2) in a Haar basis
        # with three traceless directions of scale 0.05 and a random SPD
        # weight, at theta = 0: the dual maximiser lies inside ||B|| < 1 for
        # k = 0, 1, 2, 3, 6 and on ||B|| = 1 for the others
        rng = np.random.default_rng(11)
        for k in range(12):
            u = haar_unitary(3, rng)
            rho0 = (u * np.array([0.5, 0.3, 0.2])) @ u.conj().T
            basis = [random_hermitian(3, rng, traceless=True) for _ in range(3)]
            model = affine_model(rho0, [0.05 * b / np.linalg.norm(b) for b in basis],
                                 Domain("ball", radius=0.2, dim=3))
            sol = solve_holevo(model, np.zeros(3), _spd(rng, 3))
            assert sol.diagnostics["gap_estimate"] <= CERTIFY_RTOL * max(1.0, sol.value), k

    @settings(max_examples=24, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), d=st.sampled_from([2, 3, 4]),
           p=st.sampled_from([2, 3, 4, 5]))
    def test_dual_bounds_on_random_families(self, seed, d, p):
        assume(p <= d * d - 1)
        rng = np.random.default_rng(seed)
        model = random_mixed_model(rng, d, p)
        theta = model.domain.project(0.05 * rng.standard_normal(p))
        g = _spd(rng, p)
        batch = _solve_batch(model, theta[None], g[None], SolverOptions())
        value = batch.value[0]
        lower = batch.diagnostics["lower_bound"][0]
        floor = np.trace(g @ np.linalg.inv(helstrom_matrix(model, theta).matrix))
        tol = 1e-12 * max(1.0, abs(value))
        # lower <= C_G <= value and trace(G H^-1) <= C_G <= 2 trace(G H^-1)
        assert lower <= value + tol
        assert floor <= lower + tol and value <= 2 * floor + tol
        assert batch.diagnostics["converged"][0]
        assert value - lower <= CERTIFY_RTOL * max(1.0, abs(value))
        point = _Point(model, theta, g)
        if point.size == 0:
            return
        # D(0) = trace(G H^-1), from any feasible point
        t = point.coords(batch.x_star[0]) + rng.standard_normal(point.size)
        assert point.dual_value(t, np.zeros((p, p))) == pytest.approx(floor, rel=1e-10)
        # D(B) is a minimum over the feasible set: it does not depend on the
        # point it is expanded about, and it bounds every feasible value
        b = _antisymmetric(rng, p, rng.uniform(0.0, 0.9))
        d_sol = point.dual_value(point.coords(batch.x_star[0]), b)
        assert point.dual_value(t, b) == pytest.approx(d_sol, rel=1e-9)
        assert d_sol <= value + tol


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
        zf = full_model_collection(rho)[1]
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
            full_model_collection(np.diag([1.0, 0.0]))


class TestEmbedding:
    def test_interest_block_is_everything_for_full_model(self, all_models):
        model = all_models["bloch_full"]
        theta = np.array([0.2, 0.1, -0.3])
        g = quarter_helstrom_weight(model, theta)
        sol = solve_holevo(model, theta, g)
        steps = embedding_sequence(sol, model, theta)
        vinv = np.linalg.inv(sol.v0)
        for step in steps:
            assert step.margin > 0
            # (W^{-1})_11 = (V + delta)^{-1}: gap bounded by the delta shift
            assert step.gap <= np.linalg.norm(vinv, 2) ** 2 * step.delta * 1.01 + 1e-12

    def test_equatorial_in_full_qubit_converges(self, all_models):
        model = all_models["bloch_equatorial"]
        theta = np.array([0.3, 0.0])
        sol = solve_holevo(model, theta, quarter_helstrom_weight(model, theta))
        steps = embedding_sequence(sol, model, theta)
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
