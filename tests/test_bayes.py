import dataclasses

import numpy as np
import pytest

from qbound import (DivergentIntegralError, InfeasibleTaperError,
                    NonConvergenceError, NumericalError, QuadratureOptions, SolverOptions,
                    bump_prior, check_boundary_zero, fidelity_loss,
                    integrated_holevo, j_functional, prior_expectation,
                    prior_taper, quarter_helstrom_weight, solve_holevo,
                    uniform_ball_prior, van_trees_parts, van_trees_rhs)
from qbound.bayes import LossSpec, _BallGrid, _solve_nodes

QUICK = QuadratureOptions(n_radial=8, n_angular=12, levels=2)


def equatorial_c_fn(theta):
    """Canonical C = Gtilde psi' V0 for the equatorial family, closed form."""
    theta = np.asarray(theta, dtype=float)
    t = np.sqrt(1 - theta @ theta)
    v0 = np.eye(2) - np.outer(theta, theta)      # V0 = H^{-1}
    jac = np.vstack([np.eye(2), -theta / t])
    return 0.25 * jac @ v0


def _no_solve(*args, **kwargs):
    raise AssertionError("bad options must be rejected before any solve")


def _alternating_info_fn(model):
    from qbound import povm_fisher
    from qbound.models import basis_povm
    from qbound.simulate import PAULI_BASES

    def info(theta):
        i1 = povm_fisher(model, theta, basis_povm(PAULI_BASES[0])).matrix
        i2 = povm_fisher(model, theta, basis_povm(PAULI_BASES[1])).matrix
        return 0.5 * (i1 + i2)

    return info


class TestPriors:
    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_bump_mass_and_boundary(self, p):
        prior = bump_prior(p, 0.8)
        grid = _BallGrid(p, 0.8, 24, 24)
        mass = float(np.sum(grid.weights * [prior.density(t) for t in grid.nodes]))
        assert mass == pytest.approx(1.0, abs=1e-3)
        ok, worst = check_boundary_zero(prior)
        assert ok and worst < 1e-9

    def test_bump_gradient_matches_fd(self):
        prior = bump_prior(2, 0.8)
        rng = np.random.default_rng(0)
        for _ in range(10):
            theta = 0.6 * rng.uniform(-1, 1, 2)
            step = 1e-6
            fd = np.array([
                (prior.density(theta + step * e) - prior.density(theta - step * e)) / (2 * step)
                for e in np.eye(2)])
            assert np.max(np.abs(prior.density_grad(theta) - fd)) < 1e-6

    def test_sampling_matches_quadrature_moments(self):
        prior = bump_prior(2, 0.8)
        rng = np.random.default_rng(1)
        samples = prior.sample(rng, 4000)
        er_mc = np.mean(np.linalg.norm(samples, axis=1))
        er_quad = prior_expectation(lambda t: np.linalg.norm(t), prior, QUICK)
        assert er_mc == pytest.approx(er_quad, abs=3 * 0.2 / np.sqrt(4000))

    def test_zero_density_sampling_raises(self):
        # the rejection loop is bounded: a density that is zero on the
        # envelope raises instead of never returning
        from qbound import Domain, Prior
        prior = Prior(Domain("ball", radius=0.5, dim=2), lambda t: 0.0,
                      lambda t: np.zeros(2))
        with pytest.raises(NumericalError, match="rejection sampling"):
            prior.sample(np.random.default_rng(0))
        with pytest.raises(NumericalError, match="rejection sampling"):
            prior.sample(np.random.default_rng(0), 5)

    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_stacked_density_equals_per_point(self, p):
        # bit for bit: Prior.sample's acceptance decisions, and so the seeded
        # Monte Carlo values, depend on the stacked densities
        rng = np.random.default_rng(9)
        pts = rng.uniform(-1.05, 1.05, (500, p))
        for prior in (bump_prior(p, 0.8), uniform_ball_prior(p, 1.0),
                      prior_taper(uniform_ball_prior(p, 1.0), 0.3, 0.05)):
            stacked = prior.density(pts)
            assert stacked.shape == (500,)
            assert np.array_equal(stacked, [prior.density(t) for t in pts]), prior.family
            assert 0 < np.count_nonzero(stacked) < 500

    def test_uniform_ball_fails_boundary_check(self):
        ok, worst = check_boundary_zero(uniform_ball_prior(2, 0.8))
        assert not ok and worst > 0.1


class TestPriorTaper:
    def test_feasible_taper_is_valid(self):
        base = uniform_ball_prior(2, 1.0)
        tapered = prior_taper(base, eps=0.2, delta=0.05)
        grid = _BallGrid(2, tapered.domain.radius, 32, 32)
        mass = float(np.sum(grid.weights * [tapered.density(t) for t in grid.nodes]))
        assert mass == pytest.approx(1.0, abs=1e-3)
        ok, _ = check_boundary_zero(tapered)
        assert ok
        rng = np.random.default_rng(2)
        for _ in range(200):
            theta = rng.uniform(-1, 1, 2)
            if np.linalg.norm(theta) < 1.0:
                assert tapered.density(theta) <= (1 + 0.2) * base.density(theta) + 1e-12

    def test_mass_deficit_rejected(self):
        with pytest.raises(InfeasibleTaperError):
            prior_taper(uniform_ball_prior(3, 1.0), eps=0.05, delta=0.2)

    def test_zero_delta_rejected(self):
        with pytest.raises(InfeasibleTaperError):
            prior_taper(uniform_ball_prior(2, 1.0), eps=0.1, delta=0.0)

    def test_tapered_bound_converges(self, all_models):
        # E_{tapered} C_{H/4} approaches (3 + 2 E_pi |theta|)/4 as eps -> 0
        model = all_models["bloch_full"]
        loss = fidelity_loss(model)
        base = uniform_ball_prior(3, 1.0)
        target = (3 + 2 * 0.75) / 4  # E|theta| = 3/4 under the uniform ball
        gaps = []
        for eps, delta in ((0.2, 0.05), (0.1, 0.02), (0.05, 0.008)):
            tapered = prior_taper(base, eps, delta)
            # the taper is a narrow radial feature; GL nodes cluster at the
            # endpoints, so a fine radial rule resolves it
            quad = QuadratureOptions(n_radial=48, n_angular=8, levels=2)
            val = integrated_holevo(model, loss, tapered, quad).value
            gaps.append(abs(val - target))
        assert gaps[0] > gaps[1] > gaps[2]
        assert gaps[2] < 0.01


class TestIntegratedHolevo:
    def test_full_bloch_matches_closed_form(self, all_models):
        model = all_models["bloch_full"]
        prior = bump_prior(3, 0.9)
        res = integrated_holevo(model, fidelity_loss(model), prior, QUICK)
        er = prior_expectation(lambda t: np.linalg.norm(t), prior, QUICK)
        assert abs(res.value - (3 + 2 * er) / 4) <= 2 * res.error_estimate

    def test_equatorial_integrand_constant(self, all_models):
        model = all_models["bloch_equatorial"]
        rng = np.random.default_rng(3)
        values = []
        for _ in range(20):
            theta = 0.75 * rng.uniform(-0.7, 0.7, 2)
            values.append(solve_holevo(model, theta,
                                       quarter_helstrom_weight(model, theta)).value)
        assert np.var(values) < 1e-6

    def test_prior_independence_for_pure(self, all_models):
        model = all_models["pure_qubit"]
        loss = fidelity_loss(model)
        v1 = integrated_holevo(model, loss, bump_prior(2, 0.5), QUICK).value
        v2 = integrated_holevo(model, loss, bump_prior(2, 0.8), QUICK).value
        assert v1 == pytest.approx(1.0, abs=1e-6)
        assert v2 == pytest.approx(1.0, abs=1e-6)

    def test_refinement_error_bar(self, all_models):
        model = all_models["bloch_equatorial"]
        res = integrated_holevo(model, fidelity_loss(model), bump_prior(2, 0.8), QUICK)
        assert res.error_estimate > 0
        assert len(res.levels) == 2
        assert res.solver_failures == 0

    def test_monte_carlo_fallback(self, all_models):
        model = all_models["bloch_equatorial"]
        quad = QuadratureOptions(method="mc", mc_samples=100, seed=4)
        res = integrated_holevo(model, fidelity_loss(model), bump_prior(2, 0.8), quad)
        assert res.value == pytest.approx(0.5, abs=1e-4)

    def test_bad_prior_mass_rejected(self):
        from qbound import bloch_equatorial
        base = bump_prior(2, 0.8)
        broken = dataclasses.replace(base, density_fn=lambda t: 1.12 * base.density_fn(t))
        model_eq = bloch_equatorial()
        with pytest.raises(NumericalError, match="mass"):
            integrated_holevo(model_eq, fidelity_loss(model_eq), broken, QUICK)

    @pytest.mark.parametrize("quad", [QuadratureOptions(method="MC"),
                                      QuadratureOptions(method="mc", mc_samples=1),
                                      QuadratureOptions(method="mc", mc_samples=0)])
    def test_bad_quadrature_options_rejected(self, all_models, monkeypatch, quad):
        import qbound.bayes as bayes
        monkeypatch.setattr(bayes, "_solve_nodes", _no_solve)
        model = all_models["bloch_equatorial"]
        with pytest.raises(ValueError, match="method|mc_samples"):
            integrated_holevo(model, fidelity_loss(model), bump_prior(2, 0.8), quad)


class TestJFunctional:
    def test_matches_independent_oracle(self, all_models):
        # frozen value 7.4306 from analytic C and high-order radial quadrature
        model = all_models["bloch_equatorial"]
        prior = bump_prior(2, 0.8)
        jv = j_functional(model, prior, fidelity_loss(model),
                          c_fn=equatorial_c_fn, base_n=21, levels=3)
        assert jv == pytest.approx(7.4306, rel=0.01)

    def test_solver_path_agrees_with_analytic_c(self, all_models):
        model = all_models["bloch_equatorial"]
        prior = bump_prior(2, 0.8)
        loss = fidelity_loss(model)
        j_solver = j_functional(model, prior, loss, base_n=13, levels=2)
        j_analytic = j_functional(model, prior, loss, c_fn=equatorial_c_fn,
                                  base_n=13, levels=2)
        assert j_solver == pytest.approx(j_analytic, rel=1e-4)

    @pytest.mark.parametrize("levels", [0, 1])
    def test_fewer_than_two_levels_rejected(self, all_models, monkeypatch, levels):
        # the drift check compares the last two levels
        import qbound.bayes as bayes
        monkeypatch.setattr(bayes, "_solve_nodes", _no_solve)
        model = all_models["bloch_equatorial"]
        with pytest.raises(ValueError, match="levels >= 2"):
            j_functional(model, bump_prior(2, 0.5), fidelity_loss(model), levels=levels)

    def test_truncated_uniform_diverges(self, all_models):
        model = all_models["bloch_equatorial"]
        with pytest.raises(DivergentIntegralError):
            j_functional(model, uniform_ball_prior(2, 0.8), fidelity_loss(model),
                         c_fn=equatorial_c_fn)

    def test_scales_linearly_in_gtilde(self, all_models):
        model = all_models["bloch_equatorial"]
        prior = bump_prior(2, 0.8)
        loss = fidelity_loss(model)
        c = 3.0
        scaled = dataclasses.replace(loss, gtilde=lambda t: c * 0.25 * np.eye(3))
        j1 = j_functional(model, prior, loss, c_fn=equatorial_c_fn,
                          base_n=13, levels=2)
        j2 = j_functional(model, prior, scaled,
                          c_fn=lambda t: c * equatorial_c_fn(t), base_n=13, levels=2)
        assert j2 == pytest.approx(c * j1, rel=1e-6)


    def test_one_batch_per_level(self, all_models, monkeypatch):
        # one node stack per level, over the nodes a coarser level left unsolved
        import qbound.bayes as bayes
        real, sizes = bayes._solve_nodes, []

        def counting(model, loss, thetas, *args, **kwargs):
            sizes.append(len(thetas))
            return real(model, loss, thetas, *args, **kwargs)

        monkeypatch.setattr(bayes, "_solve_nodes", counting)
        model = all_models["bloch_equatorial"]
        j_functional(model, bump_prior(2, 0.8), fidelity_loss(model),
                     base_n=13, levels=3)
        assert len(sizes) == 3
        assert sizes[0] > 1 and sizes[1] > sizes[0] and sizes[2] > sizes[1]

    @pytest.mark.parametrize("name", ["bloch_equatorial", "pure_qubit"])
    def test_batch_equals_warm_chained_solves(self, all_models, name):
        # the per-node solve chain, each node warm-started from the one
        # before it in raster order
        model = all_models[name]
        loss = fidelity_loss(model)
        warm = [None]

        def chained_c(theta):
            sol = solve_holevo(model, theta, loss.g0(theta),
                               SolverOptions(x_warm=warm[0]))
            warm[0] = sol.x_star
            return loss.gtilde(theta) @ loss.psi_jac(theta) @ sol.v0

        prior = bump_prior(2, 0.8)
        batched = j_functional(model, prior, loss, base_n=13, levels=2)
        chained = j_functional(model, prior, loss, c_fn=chained_c, base_n=13, levels=2)
        assert batched == pytest.approx(chained, rel=1e-9)

class TestSerialization:
    def test_prior_spec_roundtrip(self):
        from qbound import prior_from_spec, prior_to_spec, prior_taper
        rng = np.random.default_rng(5)
        for prior in (bump_prior(2, 0.8), uniform_ball_prior(3, 1.0),
                      prior_taper(uniform_ball_prior(2, 1.0), 0.2, 0.05)):
            again = prior_from_spec(prior_to_spec(prior))
            assert again.domain.radius == pytest.approx(prior.domain.radius)
            for _ in range(10):
                theta = prior.domain.radius * 0.9 * rng.uniform(-0.7, 0.7,
                                                                prior.domain.dim)
                assert again.density(theta) == pytest.approx(prior.density(theta),
                                                             rel=1e-12)

    def test_unknown_prior_spec_keys_rejected(self):
        from qbound import prior_from_spec
        with pytest.raises(ValueError, match="unknown"):
            prior_from_spec({"family": "bump", "dim": 2, "sigma": 1.0})

    def test_loss_spec_roundtrip(self, all_models):
        from qbound import loss_from_spec
        model = all_models["bloch_equatorial"]
        loss = fidelity_loss(model)
        again = loss_from_spec(loss.to_spec(), model)
        theta = np.array([0.2, -0.3])
        assert np.allclose(again.g0(theta), loss.g0(theta))


class TestVanTrees:
    def test_numerator_equals_integrated_bound(self, all_models):
        model = all_models["bloch_equatorial"]
        prior = bump_prior(2, 0.8)
        loss = fidelity_loss(model)
        parts = van_trees_parts(model, prior, loss, _alternating_info_fn(model),
                                1000, c_fn=equatorial_c_fn, quad=QUICK)
        bound = integrated_holevo(model, loss, prior, QUICK).value
        assert parts["numerator_mean"] == pytest.approx(bound, abs=1e-6)

    def test_canonical_info_keeps_rhs_below_integrated_bound(self, all_models):
        # with the dual-attaining information I0 = V0^{-1} the bound reads
        # a^2/(a + J/N), which increases in N toward E C
        model = all_models["bloch_equatorial"]
        prior = bump_prior(2, 0.8)
        loss = fidelity_loss(model)

        def info_i0(theta):
            return np.linalg.inv(solve_holevo(model, theta, loss.g0(theta)).v0)

        bound = integrated_holevo(model, loss, prior, QUICK).value
        jv = j_functional(model, prior, loss, c_fn=equatorial_c_fn,
                          base_n=13, levels=2)
        values = []
        for n in (100, 1000, 10000):
            rhs = van_trees_rhs(model, prior, loss, info_i0, n,
                                c_fn=equatorial_c_fn, quad=QUICK)
            values.append(rhs)
            assert rhs <= bound + 1e-6
            assert rhs >= bound - jv / n - 1e-6  # a^2/(a+b) >= a-b
        assert values[0] < values[1] < values[2]

    def test_scheme_info_rhs_increasing_and_above_vt2(self, all_models):
        model = all_models["bloch_equatorial"]
        prior = bump_prior(2, 0.8)
        loss = fidelity_loss(model)
        info_fn = _alternating_info_fn(model)
        jv = j_functional(model, prior, loss, c_fn=equatorial_c_fn,
                          base_n=13, levels=2)
        values = []
        for n in (100, 1000, 10000):
            rhs = van_trees_rhs(model, prior, loss, info_fn, n,
                                c_fn=equatorial_c_fn, quad=QUICK)
            values.append(rhs)
            assert rhs >= 0.5 - jv / n - 1e-6
        assert values[0] < values[1] < values[2]

    def test_degenerate_denominator_raises(self, all_models):
        model = all_models["bloch_equatorial"]
        prior = bump_prior(2, 0.8)
        loss = fidelity_loss(model)
        zero_c = lambda theta: np.zeros((3, 2))
        with pytest.raises(NumericalError, match="denominator"):
            van_trees_rhs(model, prior, loss, _alternating_info_fn(model), 1000,
                          c_fn=zero_c, quad=QUICK)

    def test_simulated_risk_dominates_rhs(self, all_models):
        # the inequality itself: N x empirical risk >= van Trees bound
        from qbound import Estimator, bayes_risk_mc
        from qbound.simulate import PAULI_BASES, alternating_scheme
        model = all_models["bloch_equatorial"]
        prior = bump_prior(2, 0.8)
        loss = fidelity_loss(model)
        n = 4000
        rhs = van_trees_rhs(model, prior, loss, _alternating_info_fn(model), n,
                            c_fn=equatorial_c_fn, quad=QUICK)
        risk = bayes_risk_mc(model, prior, alternating_scheme(PAULI_BASES[:2]),
                             Estimator("mle"), n, trials=1200, seed=31, workers=2)
        assert risk.value >= rhs - 2 * risk.std_error


# ---------------------------------------------------------------------------
# batched quadrature solves against one solve_holevo per node

def _serial_chain(model, loss, grid, opts=SolverOptions()):
    """Per-node values and iterations from one cold solve_holevo per node."""
    sols = [solve_holevo(model, theta, loss.g0(theta), opts) for theta in grid.nodes]
    return (np.array([sol.value for sol in sols]),
            np.array([sol.diagnostics["iterations"] for sol in sols]))


def _random_affine_case():
    """Random mixed d = 3, p = 2 affine model with a quadratic loss whose
    weight is a fixed random SPD matrix."""
    from qbound import Domain, affine_model
    from qbound.linalg import haar_unitary, random_hermitian
    rng = np.random.default_rng(21)
    w = rng.random(3) + 0.3
    u = haar_unitary(3, rng)
    rho0 = (u * (w / w.sum())) @ u.conj().T
    basis = [0.05 * b / np.linalg.norm(b)
             for b in (random_hermitian(3, rng, traceless=True) for _ in range(2))]
    model = affine_model(rho0, basis, Domain("ball", radius=0.5, dim=2))
    a = rng.standard_normal((2, 2))
    gt = a @ a.T + 0.5 * np.eye(2)
    loss = LossSpec(psi=lambda t: np.asarray(t, dtype=float),
                    psi_jac=lambda t: np.broadcast_to(np.eye(2), np.shape(t) + (2,)),
                    gtilde=lambda t: gt, loss=None)
    return model, loss


class TestBatchedSolves:
    @pytest.mark.parametrize("name, tol", [("bloch_full", 1e-12),
                                           ("bloch_equatorial", 1e-9),
                                           ("pure_qubit", 1e-9),
                                           ("random_affine_d3", 1e-9)])
    def test_matches_one_solve_per_node(self, all_models, name, tol):
        if name == "random_affine_d3":
            model, loss = _random_affine_case()
        else:
            model = all_models[name]
            loss = fidelity_loss(model)
        prior = bump_prior(model.num_params, 0.4)
        grid = _BallGrid(model.num_params, 0.4, 4, 6)
        values, _, gaps, failures, _ = _solve_nodes(model, loss, grid.nodes,
                                                    SolverOptions(), strict=True)
        reference, _ = _serial_chain(model, loss, grid)
        assert failures == 0 and np.all(np.isfinite(gaps))
        assert np.max(np.abs(values - reference)) <= tol
        quad = QuadratureOptions(n_radial=4, n_angular=6, levels=1)
        res = integrated_holevo(model, loss, prior, quad)
        dens = np.array([prior.density(t) for t in grid.nodes])
        expected = np.sum(grid.weights * dens * reference) / np.sum(grid.weights * dens)
        assert res.value == pytest.approx(expected, abs=tol)

    def test_iterations_match_serial_chain(self, monkeypatch):
        # builtin families certify at the start; this random model descends
        import qbound.bayes
        model, loss = _random_affine_case()
        grid = _BallGrid(2, 0.4, 6, 8)
        per_batch = []
        real = qbound.bayes._solve_batch

        def recording(*args, **kwargs):
            batch = real(*args, **kwargs)
            per_batch.append(batch.diagnostics["iterations"])
            return batch

        monkeypatch.setattr(qbound.bayes, "_solve_batch", recording)
        values, _, _, _, total = _solve_nodes(model, loss, grid.nodes, SolverOptions(),
                                              strict=True)
        reference, serial = _serial_chain(model, loss, grid)
        assert np.array_equal(np.concatenate(per_batch), serial)
        assert total == serial.sum() > 0
        assert np.array_equal(values, reference)   # a node is solved as if alone

    def test_one_failed_node(self, all_models, monkeypatch):
        # batches of 5 nodes; the wrapper marks node 6, the second node of
        # the second batch, as not converged
        import qbound.bayes
        model = all_models["bloch_equatorial"]
        loss = fidelity_loss(model)
        grid = _BallGrid(2, 0.8, 4, 8)
        bad = 6
        real = qbound.bayes._solve_batch

        def failing(model, thetas, *args, **kwargs):
            batch = real(model, thetas, *args, **kwargs)
            hit = np.all(thetas == grid.nodes[bad], axis=1)
            batch.diagnostics["converged"] = batch.diagnostics["converged"] & ~hit
            return batch

        clean = _solve_nodes(model, loss, grid.nodes, SolverOptions(), strict=False)
        monkeypatch.setattr(qbound.bayes, "_solve_batch", failing)
        monkeypatch.setattr(qbound.bayes, "_NODE_BATCH", 5)
        with pytest.raises(NumericalError, match="solve failed at theta") as err:
            _solve_nodes(model, loss, grid.nodes, SolverOptions(), strict=True)
        assert str(grid.nodes[bad].tolist()) in str(err.value)
        assert isinstance(err.value.__cause__, NonConvergenceError)
        values, v0s, gaps, failures, _ = _solve_nodes(model, loss, grid.nodes,
                                                      SolverOptions(), strict=False)
        others = np.arange(len(grid.nodes)) != bad
        assert failures == 1
        assert np.array_equal(values[others], clean[0][others])
        assert np.array_equal(gaps[others], clean[2][others])
        assert np.array_equal(v0s[others], clean[1][others])
        assert np.isinf(gaps[bad]) and np.all(np.isnan(v0s[bad]))
        assert values[bad] == clean[0][bad]   # the best value found
