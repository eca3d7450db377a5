import dataclasses
import itertools
import math
import pickle

import numpy as np
import pytest

from qbound import (DivergentIntegralError, InfeasibleTaperError,
                    NonConvergenceError, NumericalError, QuadratureOptions, SolverOptions,
                    bump_prior, check_boundary_zero, fidelity_loss,
                    helstrom_matrix, integrated_holevo, j_functional, prior_expectation,
                    prior_taper, quarter_helstrom_weight, solve_holevo,
                    uniform_ball_prior, van_trees_parts, van_trees_rhs)
from qbound.bayes import _J_STEP, LossSpec, _BallGrid, _solve_nodes
from qbound.models import _squared_norms

from conftest import random_qubit_pair_model, suzuki_bound

QUICK = QuadratureOptions(n_radial=8, n_angular=12, levels=2)


def equatorial_c_fn(thetas):
    """Canonical C = Gtilde psi' V0 for the equatorial family, closed form,
    at each point of a stack (n, 2)."""
    thetas = np.asarray(thetas, dtype=float)
    t = np.sqrt(1 - _squared_norms(thetas))
    v0 = np.eye(2) - thetas[:, :, None] * thetas[:, None, :]      # V0 = H^{-1}
    jac = np.concatenate([np.broadcast_to(np.eye(2), v0.shape),
                          -(thetas / t[:, None])[:, None, :]], axis=1)
    return 0.25 * jac @ v0


def _no_solve(*args, **kwargs):
    raise AssertionError("bad options must be rejected before any solve")


def _alternating_info_fn(model):
    from qbound import povm_fisher
    from qbound.models import basis_povm
    from qbound.simulate import PAULI_BASES

    def info(thetas):
        return 0.5 * (povm_fisher(model, thetas, basis_povm(PAULI_BASES[0])).matrix
                      + povm_fisher(model, thetas, basis_povm(PAULI_BASES[1])).matrix)

    return info


def _at(fn, theta):
    """A node-stack callable at one point."""
    value = fn(np.asarray(theta, dtype=float)[None])
    return np.asarray(getattr(value, "matrix", value), dtype=float)[0]


class TestPriors:
    @pytest.mark.parametrize("make", [bump_prior, uniform_ball_prior])
    def test_radius_must_be_a_number(self, make):
        # "0.5" passed the domain and raised TypeError in the normalisation
        with pytest.raises(ValueError, match="ball radius"):
            make(2, "0.5")

    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_bump_mass_and_boundary(self, p):
        prior = bump_prior(p, 0.8)
        grid = _BallGrid(p, 0.8, 24, 24)
        mass = float(np.sum(grid.weights * [prior.density(t) for t in grid.nodes]))
        assert mass == pytest.approx(1.0, abs=1e-3)
        ok, worst = check_boundary_zero(prior)
        assert ok and worst < 1e-9

    @pytest.mark.parametrize("p", [1, 2, 3, 4])
    def test_bump_mass_is_the_per_node_quadrature(self, p):
        # one radial_fn call on all Gauss-Legendre nodes against one call per
        # node: the same normalisation, bit for bit
        r0 = 0.9
        x, w = np.polynomial.legendre.leggauss(128)
        r = 0.5 * r0 * (x + 1.0)
        vals = np.array([(1.0 - (ri / r0) * (ri / r0)) ** 2 for ri in r])
        surf = math.pi ** (p / 2.0) / math.gamma(p / 2.0 + 1.0) * p
        mass = float(np.sum(0.5 * r0 * w * surf * r ** (p - 1) * vals))
        assert bump_prior(p, r0).peak == 1.0 / mass

    def test_squared_norms_of_any_stack_are_dot_products(self):
        theta = np.random.default_rng(4).standard_normal((3, 5, 4))
        sq = _squared_norms(theta)
        assert sq.shape == (3, 5)
        assert all(sq[i] == theta[i] @ theta[i] for i in np.ndindex(3, 5))

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
                      np.zeros_like)
        with pytest.raises(NumericalError, match="rejection sampling"):
            prior.sample(np.random.default_rng(0))
        with pytest.raises(NumericalError, match="rejection sampling"):
            prior.sample(np.random.default_rng(0), 5)
        # a risk run draws its starts outside the estimator's retry: it
        # raises this at once instead of charging it to every trial
        from qbound import Estimator, alternating_scheme, bayes_risk_mc, bloch_equatorial
        from qbound.linalg import PAULI_BASES
        with pytest.raises(NumericalError, match="^rejection sampling"):
            bayes_risk_mc(bloch_equatorial(), prior, alternating_scheme(PAULI_BASES[:2]),
                          Estimator("mle"), 10, 4)

    def test_sample_each_equals_sample(self):
        # one draw per generator, bit for bit that of sample(rng), and the
        # same next draw of every generator after it; the low density makes
        # some first rounds accept nothing, so those go on in sample
        from qbound import Domain, Prior

        def rngs():
            return [np.random.default_rng([5, t]) for t in range(24)]

        low = Prior(Domain("ball", radius=0.9, dim=2), lambda t: 0.03, np.zeros_like)
        empty = [len(take) == 0 for take in low._rejection_round(rngs(), 16)]
        assert 0 < sum(empty) < len(empty)
        for prior in (bump_prior(2, 0.8), bump_prior(3, 0.9), low):
            drawn, alone = rngs(), rngs()
            draws = prior.sample_each(drawn)
            for rng, draw, ref in zip(drawn, draws, alone):
                assert np.array_equal(draw, prior.sample(ref))
                assert rng.random() == ref.random()
        with pytest.raises(NumericalError, match="rejection sampling"):
            Prior(low.domain, lambda t: 0.0, np.zeros_like).sample_each(rngs())

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

    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_stacked_gradient_matches_fd(self, p):
        # central differences of the density at radii across the supports,
        # three of them inside the taper's window [0.88, 0.9]; the stencils
        # keep clear of the window's ends and of the support edges
        rng = np.random.default_rng(10)
        radii = np.concatenate([rng.uniform(0.0, 1.1, 200), [0.885, 0.89, 0.895]])
        dirs = rng.standard_normal((radii.size, p))
        pts = radii[:, None] * dirs / np.linalg.norm(dirs, axis=1, keepdims=True)
        step = 1e-6
        for prior in (bump_prior(p, 0.8), uniform_ball_prior(p, 1.0),
                      prior_taper(bump_prior(p, 1.0), 0.3, 0.1)):
            edges = np.array([0.8, 0.88, 0.9, 1.0])
            at = pts[np.all(np.abs(radii[:, None] - edges) > 1e-3, axis=1)]
            stacked = prior.density_grad(at)
            assert stacked.shape == at.shape
            fd = np.stack([(prior.density(at + step * e) - prior.density(at - step * e))
                           / (2 * step) for e in np.eye(p)], axis=1)
            assert np.max(np.abs(stacked - fd)) < 1e-5, prior.family
            assert np.array_equal(stacked, [prior.density_grad(t) for t in at])

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

    def test_error_estimate_bounds_true_error(self):
        # a random mixed two-parameter qubit family with psi = theta: the
        # integrand is Suzuki's closed form at every node, and the reference
        # integrates it on a grid whose own refinement moves it by less
        # than 1% of the error checked
        rng = np.random.default_rng(1)
        model, loss = random_qubit_pair_model(rng, 0.2, 0.5), _theta_loss(rng)
        prior, gt = bump_prior(2, 0.5), loss.gtilde(np.zeros(2))

        def closed_form(n_radial, n_angular):
            grid = _BallGrid(2, 0.5, n_radial, n_angular)
            w = grid.weights * prior.density(grid.nodes)
            return np.sum(w * suzuki_bound(model, grid.nodes, gt)) / np.sum(w)

        reference, coarser = closed_form(256, 384), closed_form(128, 192)
        for quad in (QuadratureOptions(4, 6, 2), QuadratureOptions(8, 12, 2)):
            res = integrated_holevo(model, loss, prior, quad)
            error = abs(res.value - reference)
            assert abs(reference - coarser) < 0.01 * error
            assert error <= res.error_estimate, (quad, error, res.error_estimate)

    def test_monte_carlo_fallback(self, all_models):
        model = all_models["bloch_equatorial"]
        quad = QuadratureOptions(method="mc", mc_samples=100, seed=4)
        res = integrated_holevo(model, fidelity_loss(model), bump_prior(2, 0.8), quad)
        assert res.value == pytest.approx(0.5, abs=1e-4)

    def test_monte_carlo_error_adds_gaps_and_floor(self, all_models):
        # the standard error, the mean certified gap of the samples and the
        # 1e-10 floor, as on the grid; each sample from a cold solve_holevo
        model = all_models["bloch_equatorial"]
        loss, prior = fidelity_loss(model), bump_prior(2, 0.8)
        quad = QuadratureOptions(method="mc", mc_samples=100, seed=4)
        res = integrated_holevo(model, loss, prior, quad)
        sols = [solve_holevo(model, theta, loss.g0(theta))
                for theta in prior.sample(np.random.default_rng(4), 100)]
        values = np.array([sol.value for sol in sols])
        gaps = np.array([sol.diagnostics["gap_estimate"] for sol in sols])
        assert res.value == np.mean(values)
        assert res.error_estimate == (np.std(values, ddof=1) / math.sqrt(100)
                                      + np.mean(gaps) + 1e-10)

    def test_bad_prior_mass_rejected(self):
        from qbound import bloch_equatorial
        base = bump_prior(2, 0.8)
        broken = dataclasses.replace(base, density_fn=lambda t: 1.12 * base.density_fn(t))
        model_eq = bloch_equatorial()
        with pytest.raises(NumericalError, match="mass"):
            integrated_holevo(model_eq, fidelity_loss(model_eq), broken, QUICK)

    @pytest.mark.parametrize("quad", [QuadratureOptions(method="MC"),
                                      QuadratureOptions(method="mc", mc_samples=1),
                                      QuadratureOptions(method="mc", mc_samples=0),
                                      QuadratureOptions(levels=0),
                                      QuadratureOptions(levels=-1)])
    def test_bad_quadrature_options_rejected(self, all_models, monkeypatch, quad):
        import qbound.bayes as bayes
        monkeypatch.setattr(bayes, "_solve_nodes", _no_solve)
        model = all_models["bloch_equatorial"]
        with pytest.raises(ValueError, match="method|mc_samples|levels"):
            integrated_holevo(model, fidelity_loss(model), bump_prior(2, 0.8), quad)


def per_node_j_functional(prior, loss, c_fn, quad):
    """(value, error) of J(pi) with C from c_fn, and the stencil, the
    divergence and the weighted sum looped node by node on the ball grid
    levels of quad."""
    p, h = prior.domain.dim, _J_STEP
    grid = _BallGrid(p, prior.domain.radius, quad.n_radial, quad.n_angular)
    values = []
    for _ in range(quad.levels):
        total = 0.0
        for theta, weight in zip(grid.nodes, grid.weights):
            dens = prior.density(theta)
            if dens > 1e-12 * prior.peak:
                divc = sum((_at(c_fn, theta + h * e) - _at(c_fn, theta - h * e))[:, k]
                           for k, e in enumerate(np.eye(p))) / (2 * h)
                w = _at(c_fn, theta) @ prior.density_grad(theta) + divc * dens
                total += weight * float(w @ np.linalg.inv(loss.gtilde(theta)) @ w) / dens
        values.append(total)
        grid = grid.refined()
    return values[-1], abs(values[-1] - values[-2]) + h * h * abs(values[-1])


def solver_c_fn(model, loss):
    """Canonical C at each point of a stack, from one cold solve_holevo
    per point."""
    def c_fn(thetas):
        v0s = np.stack([solve_holevo(model, theta, loss.g0(theta)).v0 for theta in thetas])
        return loss.gtilde(thetas) @ loss.psi_jac(thetas) @ v0s
    return c_fn


# J(pi) on bloch_equatorial with a bump prior of each radius: closed-form C
# with div C by complex-step derivatives, exact to rounding, on a 200/400
# Gauss ball grid (100/200 agrees to 4e-15); so the central differences'
# bias (8e-12 of J at radius 0.8) counts against j_functional's error
J_REFERENCE = {0.8: 7.430574421921241, 0.5: 22.01741595619815}


class TestJFunctional:
    @pytest.mark.parametrize("case", ["analytic default", "scaled gtilde", "solver",
                                      "solver pure_qubit"])
    def test_stacked_sum_equals_per_node_loop(self, all_models, case):
        name = "pure_qubit" if case == "solver pure_qubit" else "bloch_equatorial"
        model = all_models[name]
        prior = bump_prior(2, 0.8)
        loss = fidelity_loss(model)
        c_fn, quad = equatorial_c_fn, QUICK
        if case == "analytic default":
            quad = QuadratureOptions()
        elif case == "scaled gtilde":
            loss = dataclasses.replace(loss, gtilde=lambda t: 0.75 * np.eye(3))
            c_fn = lambda t: 3.0 * equatorial_c_fn(t)
        if case.startswith("solver"):
            c_fn = solver_c_fn(model, loss)
            value, error = j_functional(model, prior, loss, quad=quad)
        else:
            value, error = j_functional(model, prior, loss, c_fn=c_fn, quad=quad)
        ref_value, ref_error = per_node_j_functional(prior, loss, c_fn, quad)
        assert value == pytest.approx(ref_value, rel=1e-12, abs=0.0)
        # the error is a difference of two levels: rounding of 1e-12 of J
        assert error == pytest.approx(ref_error, rel=0.0, abs=1e-12 * value)

    def test_matches_independent_oracle(self, all_models):
        # both radii, both paths, at 8/12/2 and the default 12/24/2
        model = all_models["bloch_equatorial"]
        for r0, c_fn, quad in itertools.product(J_REFERENCE, [equatorial_c_fn, None],
                                                [QUICK, None]):
            value, error = j_functional(model, bump_prior(2, r0), fidelity_loss(model),
                                        c_fn=c_fn, quad=quad)
            assert value == pytest.approx(J_REFERENCE[r0], rel=1e-7)
            assert error >= abs(value - J_REFERENCE[r0])

    def test_solver_path_agrees_with_analytic_c(self, all_models):
        model = all_models["bloch_equatorial"]
        prior = bump_prior(2, 0.8)
        loss = fidelity_loss(model)
        j_solver, _ = j_functional(model, prior, loss, quad=QUICK)
        j_analytic, _ = j_functional(model, prior, loss, c_fn=equatorial_c_fn, quad=QUICK)
        assert j_solver == pytest.approx(j_analytic, rel=1e-9)

    @pytest.mark.parametrize("levels", [0, 1])
    def test_fewer_than_two_levels_rejected(self, all_models, monkeypatch, levels):
        # the drift check compares the last two levels; van_trees_parts runs J first
        import qbound.bayes as bayes
        monkeypatch.setattr(bayes, "_solve_nodes", _no_solve)
        model = all_models["bloch_equatorial"]
        prior, loss = bump_prior(2, 0.5), fidelity_loss(model)
        quad = QuadratureOptions(levels=levels)
        for call in (lambda: j_functional(model, prior, loss, quad=quad),
                     lambda: van_trees_parts(model, prior, loss, _alternating_info_fn(model),
                                             quad=quad)):
            with pytest.raises(ValueError, match="levels >= 2"):
                call()

    def test_truncated_uniform_diverges(self, all_models):
        model = all_models["bloch_equatorial"]
        with pytest.raises(DivergentIntegralError):
            j_functional(model, uniform_ball_prior(2, 0.8), fidelity_loss(model),
                         c_fn=equatorial_c_fn)

    def test_tapered_prior_needs_a_finer_grid(self, all_models):
        # the taper's cutoff window is 0.008 wide: the default grid misses it
        # and is rejected by its refinement check; 24/48 is accepted, and its
        # error bounds the gap to a finer run (48/48 agrees with 48/96 to 1e-13)
        model = all_models["bloch_equatorial"]
        prior, loss = prior_taper(bump_prior(2, 0.8), 0.2, 0.05), fidelity_loss(model)
        with pytest.raises(DivergentIntegralError, match="refinement"):
            j_functional(model, prior, loss, c_fn=equatorial_c_fn)
        value, error = j_functional(model, prior, loss, c_fn=equatorial_c_fn,
                                    quad=QuadratureOptions(n_radial=24, n_angular=48))
        finer, _ = j_functional(model, prior, loss, c_fn=equatorial_c_fn,
                                quad=QuadratureOptions(n_radial=48, n_angular=48))
        assert error >= abs(value - finer) > 0.0

    def test_stencil_must_fit_in_the_model_domain(self, all_models, monkeypatch):
        import qbound.bayes as bayes
        monkeypatch.setattr(bayes, "_solve_nodes", _no_solve)
        model = all_models["bloch_equatorial"]
        with pytest.raises(ValueError, match="stencil"):
            j_functional(model, bump_prior(2, 1.0 - 0.5 * _J_STEP), fidelity_loss(model))

    def test_scales_linearly_in_gtilde(self, all_models):
        model = all_models["bloch_equatorial"]
        prior = bump_prior(2, 0.8)
        loss = fidelity_loss(model)
        c = 3.0
        scaled = dataclasses.replace(loss, gtilde=lambda t: c * 0.25 * np.eye(3))
        j1, _ = j_functional(model, prior, loss, c_fn=equatorial_c_fn, quad=QUICK)
        j2, _ = j_functional(model, prior, scaled, c_fn=lambda t: c * equatorial_c_fn(t),
                             quad=QUICK)
        assert j2 == pytest.approx(c * j1, rel=1e-6)

    @pytest.mark.parametrize("path", ["solver", "c_fn"])
    def test_one_batch_per_level(self, all_models, monkeypatch, path):
        # C once per point: one stack per level of the n nodes and their 2p
        # stencil points, (2p + 1) n = 480 and 1,920 at QUICK
        import qbound.bayes as bayes
        real, sizes, seen = bayes._solve_nodes, [], []

        def counting(model, loss, thetas, *args, **kwargs):
            sizes.append(len(thetas))
            seen.extend(map(tuple, thetas))
            return real(model, loss, thetas, *args, **kwargs)

        def recording_c_fn(thetas):
            sizes.append(len(thetas))
            seen.extend(map(tuple, thetas))
            return equatorial_c_fn(thetas)

        monkeypatch.setattr(bayes, "_solve_nodes", counting if path == "solver" else _no_solve)
        model = all_models["bloch_equatorial"]
        j_functional(model, bump_prior(2, 0.8), fidelity_loss(model),
                     c_fn=recording_c_fn if path == "c_fn" else None, quad=QUICK)
        assert len(set(seen)) == len(seen) == 480 + 1920
        for n_radial, n_angular in ((8, 12), (16, 24)):
            nodes = _BallGrid(2, 0.8, n_radial, n_angular).nodes
            assert set(map(tuple, nodes)) <= set(seen)
        assert sizes == [480, 1920]

    @pytest.mark.parametrize("name", ["bloch_equatorial", "pure_qubit"])
    def test_batch_equals_warm_chained_solves(self, all_models, name):
        # the chain of per-node solves in stack order, each one cold from
        # its SLD start (the solver has no warm start)
        model = all_models[name]
        loss = fidelity_loss(model)
        prior = bump_prior(2, 0.8)
        batched, _ = j_functional(model, prior, loss, quad=QUICK)
        chained, _ = j_functional(model, prior, loss, c_fn=solver_c_fn(model, loss), quad=QUICK)
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

    def test_pickle_roundtrip_is_exact(self):
        rng = np.random.default_rng(22)
        for prior in (bump_prior(2, 0.8), uniform_ball_prior(3, 1.0),
                      prior_taper(bump_prior(2, 0.9), 0.2, 0.05)):
            again = pickle.loads(pickle.dumps(prior))
            assert again.spec == prior.spec and again.domain == prior.domain
            pts = prior.domain.radius * rng.uniform(-0.7, 0.7, (32, prior.domain.dim))
            assert np.array_equal(again.density(pts), prior.density(pts))
            assert np.array_equal(again.density_grad(pts), prior.density_grad(pts))

    def test_unpickled_bump_prior_builds_no_quadrature_rule(self, monkeypatch):
        # a pool task unpickles its prior: the radial rule is built once per
        # process, not once per task, and the density stays bit for bit
        prior, pts = bump_prior(2, 0.8), np.random.default_rng(23).uniform(-0.6, 0.6, (32, 2))
        blob = pickle.dumps(prior)

        def no_rule(n):
            raise AssertionError("leggauss called while unpickling")

        monkeypatch.setattr(np.polynomial.legendre, "leggauss", no_rule)
        again = pickle.loads(blob)
        assert np.array_equal(again.density(pts), prior.density(pts))


def per_node_van_trees_parts(prior, loss, info_fn, c_fn, quad):
    """numerator_mean and info_mean of van_trees_parts with every term
    evaluated node by node on the last grid level of quad, as before the
    terms were stacked."""
    grid = _BallGrid(prior.domain.dim, prior.domain.radius, quad.n_radial, quad.n_angular)
    for _ in range(quad.levels - 1):
        grid = grid.refined()
    num_terms, den_terms = np.empty(len(grid.nodes)), np.empty(len(grid.nodes))
    for idx, theta in enumerate(grid.nodes):
        c = _at(c_fn, theta)
        jac = loss.psi_jac(theta)
        gi = np.linalg.inv(loss.gtilde(theta))
        imat = _at(info_fn, theta)
        num_terms[idx] = np.trace(c @ jac.T)
        den_terms[idx] = np.trace(gi @ c @ imat @ c.T)
    weights = grid.weights * np.array([prior.density(t) for t in grid.nodes])
    return (np.sum(weights * num_terms) / np.sum(weights),
            np.sum(weights * den_terms) / np.sum(weights))


class TestVanTrees:
    @pytest.mark.parametrize("case", ["solver", "closed form", "random affine"])
    def test_stacked_terms_equal_per_node_loop(self, all_models, case):
        # the terms take C from J(pi)'s stacks, on the last level of quad
        quad = QUICK
        if case == "random affine":   # non-identity Gtilde, Helstrom information
            model, loss = _random_affine_case()
            prior, quad = bump_prior(2, 0.4), QuadratureOptions(4, 6, 2)
            info_fn = lambda thetas: helstrom_matrix(model, thetas)
        else:
            model = all_models["bloch_equatorial"]
            loss, prior = fidelity_loss(model), bump_prior(2, 0.8)
            info_fn = _alternating_info_fn(model)
        c_fn = equatorial_c_fn if case == "closed form" else None
        parts = van_trees_parts(model, prior, loss, info_fn, c_fn=c_fn, quad=quad)
        numerator, info = per_node_van_trees_parts(prior, loss, info_fn,
                                                   c_fn or solver_c_fn(model, loss), quad)
        assert parts["numerator_mean"] == pytest.approx(numerator, rel=1e-12, abs=0.0)
        assert parts["info_mean"] == pytest.approx(info, rel=1e-12, abs=0.0)

    def test_each_node_solved_once(self, all_models, monkeypatch):
        # one stack of (2p + 1) n points per level, 1,440 and 5,760 at
        # 12/24/2: the terms reuse the C that J(pi) solved at the nodes
        import qbound.bayes as bayes
        real, sizes = bayes._solve_nodes, []

        def counting(model, loss, thetas, *args, **kwargs):
            sizes.append(len(thetas))
            return real(model, loss, thetas, *args, **kwargs)

        monkeypatch.setattr(bayes, "_solve_nodes", counting)
        model = all_models["bloch_equatorial"]
        prior, loss, quad = bump_prior(2, 0.8), fidelity_loss(model), QuadratureOptions()
        parts = van_trees_parts(model, prior, loss, lambda t: helstrom_matrix(model, t),
                                quad=quad)
        assert sizes == [1440, 5760]
        assert (parts["j_value"], parts["j_error"]) == j_functional(model, prior, loss,
                                                                    quad=quad)

    @pytest.mark.parametrize("r0", [0.8, 0.5])
    def test_part_errors_bound_true_error(self, all_models, r0):
        # the reference's last level is the 48/96 grid
        model = all_models["bloch_equatorial"]
        prior, loss = bump_prior(2, r0), fidelity_loss(model)
        for info_fn in (_alternating_info_fn(model), lambda t: helstrom_matrix(model, t)):
            reference = van_trees_parts(model, prior, loss, info_fn, c_fn=equatorial_c_fn,
                                        quad=QuadratureOptions(24, 48, 2))
            for quad in (QUICK, QuadratureOptions(12, 24, 2)):
                parts = van_trees_parts(model, prior, loss, info_fn, c_fn=equatorial_c_fn,
                                        quad=quad)
                for part in ("numerator", "info"):
                    error = abs(parts[f"{part}_mean"] - reference[f"{part}_mean"])
                    assert error <= parts[f"{part}_error"], (quad, part, error)

    @pytest.mark.parametrize("method", ["mc", "MC"])
    def test_grid_only_functions_reject_other_methods(self, all_models, monkeypatch,
                                                      method):
        import qbound.bayes as bayes
        monkeypatch.setattr(bayes, "_solve_nodes", _no_solve)
        model = all_models["bloch_equatorial"]
        loss, prior = fidelity_loss(model), bump_prior(2, 0.8)
        info_fn, quad = _alternating_info_fn(model), QuadratureOptions(method=method)
        for call in (lambda: van_trees_parts(model, prior, loss, info_fn, quad=quad),
                     lambda: van_trees_rhs(model, prior, loss, info_fn, 1000, quad=quad),
                     lambda: prior_expectation(np.linalg.norm, prior, quad)):
            with pytest.raises(ValueError, match=f"method {method!r}"):
                call()

    def test_numerator_equals_integrated_bound(self, all_models):
        model = all_models["bloch_equatorial"]
        prior = bump_prior(2, 0.8)
        loss = fidelity_loss(model)
        parts = van_trees_parts(model, prior, loss, _alternating_info_fn(model),
                                c_fn=equatorial_c_fn, quad=QUICK)
        bound = integrated_holevo(model, loss, prior, QUICK).value
        assert parts["numerator_mean"] == pytest.approx(bound, abs=1e-6)

    def test_canonical_info_keeps_rhs_below_integrated_bound(self, all_models):
        # with the dual-attaining information I0 = V0^{-1} the bound reads
        # a^2/(a + J/N), which increases in N toward E C
        model = all_models["bloch_equatorial"]
        prior = bump_prior(2, 0.8)
        loss = fidelity_loss(model)

        def info_i0(thetas):
            return np.linalg.inv(np.stack([solve_holevo(model, theta, loss.g0(theta)).v0
                                           for theta in thetas]))

        bound = integrated_holevo(model, loss, prior, QUICK).value
        jv, _ = j_functional(model, prior, loss, c_fn=equatorial_c_fn, quad=QUICK)
        n = np.array([100, 1000, 10000])
        rhs = van_trees_rhs(model, prior, loss, info_i0, n, c_fn=equatorial_c_fn, quad=QUICK)
        assert np.all(rhs <= bound + 1e-6)
        assert np.all(rhs >= bound - jv / n - 1e-6)  # a^2/(a+b) >= a-b
        assert rhs[0] < rhs[1] < rhs[2]

    def test_scheme_info_rhs_increasing_and_above_vt2(self, all_models):
        model = all_models["bloch_equatorial"]
        prior = bump_prior(2, 0.8)
        loss = fidelity_loss(model)
        info_fn = _alternating_info_fn(model)
        jv, _ = j_functional(model, prior, loss, c_fn=equatorial_c_fn, quad=QUICK)
        n = np.array([100, 1000, 10000])
        rhs = van_trees_rhs(model, prior, loss, info_fn, n, c_fn=equatorial_c_fn, quad=QUICK)
        assert np.all(rhs >= 0.5 - jv / n - 1e-6)
        assert rhs[0] < rhs[1] < rhs[2]

    def test_canonical_c_matches_closed_form(self, all_models):
        # c_fn=None solves every node for C = Gtilde psi' V0
        model = all_models["bloch_equatorial"]
        prior = bump_prior(2, 0.8)
        loss = fidelity_loss(model)
        info_fn = _alternating_info_fn(model)
        solved = van_trees_parts(model, prior, loss, info_fn, quad=QUICK)
        closed = van_trees_parts(model, prior, loss, info_fn, c_fn=equatorial_c_fn, quad=QUICK)
        assert solved["numerator_mean"] == pytest.approx(closed["numerator_mean"], abs=1e-9)
        assert solved["info_mean"] == pytest.approx(closed["info_mean"], abs=1e-9)
        assert solved["j_value"] == pytest.approx(closed["j_value"], rel=1e-9)
        # J(pi) on the grid levels of quad, with its error
        assert (closed["j_value"], closed["j_error"]) == j_functional(
            model, prior, loss, c_fn=equatorial_c_fn, quad=QUICK)

    def test_rhs_at_many_n_integrates_once(self, monkeypatch):
        # one van_trees_parts call for every N; each value is the scalar
        # formula a^2 / (I + J/N) bit for bit
        import qbound.bayes as bayes
        calls = []
        parts = {"numerator_mean": 0.51, "info_mean": 0.73, "j_value": 3.1}
        monkeypatch.setattr(bayes, "van_trees_parts",
                            lambda *args: calls.append(args) or parts)
        ns = [7, 100, 1000, 4000]
        rhs = van_trees_rhs(None, None, None, None, np.array(ns))
        assert len(calls) == 1
        assert rhs.tolist() == [0.51 ** 2 / (0.73 + 3.1 / n) for n in ns]
        assert van_trees_rhs(None, None, None, None, 1000) == 0.51 ** 2 / (0.73 + 3.1 / 1000)

    @pytest.mark.parametrize("n_copies", [0, -5, np.nan, np.inf, 0.5, [10, 0]])
    def test_bad_n_rejected_before_any_solve(self, monkeypatch, n_copies):
        import qbound.bayes as bayes

        def unexpected(*args):
            raise AssertionError("van_trees_parts ran")

        monkeypatch.setattr(bayes, "van_trees_parts", unexpected)
        with pytest.raises(ValueError, match="n_copies"):
            van_trees_rhs(None, None, None, None, n_copies)

    def test_degenerate_denominator_raises(self, all_models):
        model = all_models["bloch_equatorial"]
        prior = bump_prior(2, 0.8)
        loss = fidelity_loss(model)
        zero_c = lambda thetas: np.zeros((len(thetas), 3, 2))
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
    from qbound.linalg import haar_unitaries
    from conftest import random_hermitian
    rng = np.random.default_rng(21)
    w = rng.random(3) + 0.3
    u = haar_unitaries(3, 1, rng)[0]
    rho0 = (u * (w / w.sum())) @ u.conj().T
    basis = [0.05 * b / np.linalg.norm(b)
             for b in (random_hermitian(3, rng, traceless=True) for _ in range(2))]
    model = affine_model(rho0, basis, Domain("ball", radius=0.5, dim=2))
    return model, _theta_loss(rng)


def _theta_loss(rng):
    """Loss with psi = theta and a random SPD Gtilde (2, 2), so G0 = Gtilde."""
    a = rng.standard_normal((2, 2))
    gt = a @ a.T + 0.5 * np.eye(2)
    return LossSpec(psi_jac=lambda t: np.broadcast_to(np.eye(2), np.shape(t) + (2,)),
                    gtilde=lambda t: gt)


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
        values, _, gaps, _ = _solve_nodes(model, loss, grid.nodes, SolverOptions())
        reference, _ = _serial_chain(model, loss, grid)
        assert np.all(np.isfinite(gaps))
        assert np.max(np.abs(values - reference)) <= tol
        quad = QuadratureOptions(n_radial=4, n_angular=6, levels=1)
        res = integrated_holevo(model, loss, prior, quad)
        dens = np.array([prior.density(t) for t in grid.nodes])
        expected = np.sum(grid.weights * dens * reference) / np.sum(grid.weights * dens)
        assert res.value == pytest.approx(expected, abs=tol)

    def test_iterations_match_serial_chain(self, monkeypatch):
        # builtin families certify at the start; this random model ascends the dual
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
        values, _, _, total = _solve_nodes(model, loss, grid.nodes, SolverOptions())
        reference, serial = _serial_chain(model, loss, grid)
        assert np.array_equal(np.concatenate(per_batch), serial)
        assert total == serial.sum() > 0
        assert np.array_equal(values, reference)   # a node is solved as if alone

    def test_one_failed_node(self, all_models, monkeypatch):
        # batches of 5 nodes; the wrapper marks node 6, the second node of
        # the second batch, as not converged, and the stack raises there
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

        monkeypatch.setattr(qbound.bayes, "_solve_batch", failing)
        monkeypatch.setattr(qbound.bayes, "_NODE_BATCH", 5)
        with pytest.raises(NumericalError, match="solve failed at theta") as err:
            _solve_nodes(model, loss, grid.nodes, SolverOptions())
        assert str(grid.nodes[bad].tolist()) in str(err.value)
        assert isinstance(err.value.__cause__, NonConvergenceError)
