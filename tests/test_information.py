import numpy as np
import pytest

from qbound import (Domain, IrregularModelError, RankDeficiencyError,
                    affine_model, basis_povm, classical_fisher, fidelity,
                    helstrom_matrix, pauli_basis_povm, povm_fisher,
                    pure_state_model, sld, sld_residual)
from qbound.linalg import PAULIS, PAULI_Z, haar_unitary, random_hermitian

from conftest import interior_points


def _random_mixed_affine(d, rng):
    """Affine family through a random full-rank state, with d^2 - 1 random
    traceless directions scaled to keep the unit-radius domain mixed."""
    w = rng.uniform(0.5, 1.0, d)
    u = haar_unitary(d, rng)
    rho0 = (u * (w / w.sum())) @ u.conj().T
    basis = [random_hermitian(d, rng, traceless=True) for _ in range(d * d - 1)]
    scale = 0.5 * np.min(w / w.sum()) / sum(np.linalg.norm(b, 2) for b in basis)
    return affine_model(rho0, [scale * b for b in basis],
                        Domain("ball", radius=1.0, dim=d * d - 1))


class TestSld:
    def test_maximally_mixed_gives_paulis(self, all_models):
        # rho = 1/2 makes the Lyapunov map the identity
        lams = sld(all_models["bloch_full"], [0, 0, 0])
        for lam, sigma in zip(lams, PAULIS):
            assert np.max(np.abs(lam - sigma)) < 1e-12

    def test_residual_on_axis_point(self, all_models):
        model = all_models["bloch_full"]
        theta = [0, 0, 0.5]
        lams = sld(model, theta)
        assert sld_residual(model.state(theta), model.derivs(theta), lams) < 1e-10

    def test_pure_state_shortcut(self, all_models):
        # L = 2 drho solves the SLD equation when rho^2 = rho, and the
        # eigenbasis formula reduces to it on pure states
        model = all_models["pure_qubit"]
        theta = [0.3, -0.2]
        lams = sld(model, theta)
        rho, drho = model.state(theta), model.derivs(theta)
        for lam, dr in zip(lams, drho):
            assert np.max(np.abs(lam - 2 * dr)) < 1e-12
        assert sld_residual(rho, drho, lams) < 1e-12

    def test_residuals_everywhere(self, all_models):
        rng = np.random.default_rng(0)
        models = list(all_models.values()) + [pure_state_model(4),
                                               _random_mixed_affine(3, rng)]
        for model in models:
            for theta in interior_points(model, 10, rng):
                lams = sld(model, theta)
                assert sld_residual(model.state(theta), model.derivs(theta), lams) < 1e-8
                rho = model.state(theta)
                for lam in lams:
                    assert abs(np.trace(rho @ lam)) < 1e-8

    def test_singular_nonpure_state_raises(self):
        # boundary Bloch state in an affine (non-pure) family
        model = affine_model(np.diag([1.0, 0.0]).astype(complex), [0.5 * PAULI_Z],
                             domain=None)
        with pytest.raises(RankDeficiencyError) as err:
            sld(model, [0.0])
        assert err.value.eigenvalue is not None


class TestHelstrom:
    def test_identity_at_center(self, all_models):
        h = helstrom_matrix(all_models["bloch_full"], [0, 0, 0]).matrix
        assert np.allclose(h, np.eye(3), atol=1e-12)

    def test_axis_closed_form(self, all_models):
        h = helstrom_matrix(all_models["bloch_full"], [0, 0, 0.6]).matrix
        assert np.allclose(h, np.diag([1, 1, 1 / 0.64]), atol=1e-10)

    def test_embedding_gram_identity(self, all_models):
        # psi'^T psi' equals H for Bloch families and H/2 for pure families
        from qbound import fidelity_embedding
        rng = np.random.default_rng(1)
        for name, factor in [("bloch_full", 1.0), ("bloch_equatorial", 1.0),
                             ("pure_qubit", 0.5), ("pure_dim_3", 0.5)]:
            model = all_models[name]
            for theta in interior_points(model, 20, rng):
                _, jac = fidelity_embedding(model, theta)
                h = helstrom_matrix(model, theta).matrix
                assert np.max(np.abs(jac.T @ jac - factor * h)) < 1e-6

    def test_fidelity_hessian_ratio(self, all_models):
        # 1 - Fid = Delta^T H Delta / 4 + o(|Delta|^2)
        rng = np.random.default_rng(2)
        for model in (all_models["bloch_full"], all_models["bloch_equatorial"]):
            theta = interior_points(model, 1, rng, radius=0.5)[0]
            h = helstrom_matrix(model, theta).matrix
            direction = rng.normal(size=model.num_params)
            direction /= np.linalg.norm(direction)
            for scale in (1e-2, 1e-3):
                delta = scale * direction
                deficit = 1 - fidelity(model.state(theta + delta), model.state(theta))
                quad = 0.25 * delta @ h @ delta
                assert deficit / quad == pytest.approx(1.0, rel=0.01)

    def test_psd_and_symmetric(self, all_models):
        rng = np.random.default_rng(3)
        for model in all_models.values():
            for theta in interior_points(model, 5, rng):
                h = helstrom_matrix(model, theta).matrix
                assert np.allclose(h, h.T, atol=1e-9)
                assert np.linalg.eigvalsh(h)[0] > -1e-9

    def test_stack_equals_per_point(self, all_models):
        # bit for bit: a stack of points is an info_fn of van_trees_parts
        rng = np.random.default_rng(4)
        for name, model in all_models.items():
            pts = np.array(interior_points(model, 40, rng))
            stacked = helstrom_matrix(model, pts).matrix
            assert stacked.shape == (40,) + 2 * (model.num_params,)
            assert np.array_equal(stacked, [helstrom_matrix(model, t).matrix for t in pts]), name


class TestPovmFisher:
    def test_bernoulli_closed_form(self, all_models):
        model = all_models["bloch_full"]
        for t in (0.0, 0.5):
            info = povm_fisher(model, [0, 0, t], pauli_basis_povm(2)).matrix
            assert np.allclose(info, np.diag([0, 0, 1 / (1 - t * t)]), atol=1e-10)

    def test_matches_finite_differences(self, all_models):
        from qbound import born_distribution
        rng = np.random.default_rng(4)
        model = all_models["bloch_full"]
        theta = np.array([0.1, -0.2, 0.3])
        povm = basis_povm(haar_unitary(2, rng))
        probs = born_distribution(model.state(theta), povm)
        step = 1e-6
        dprobs = np.empty((3, len(povm)))
        for i in range(3):
            e = np.zeros(3)
            e[i] = step
            pp = born_distribution(model.state(theta + e), povm)
            pm = born_distribution(model.state(theta - e), povm)
            dprobs[i] = (pp - pm) / (2 * step)
        expected = sum(np.outer(dprobs[:, x], dprobs[:, x]) / probs[x]
                       for x in range(len(povm)))
        assert np.max(np.abs(povm_fisher(model, theta, povm).matrix - expected)) < 1e-5

    def test_quantum_dominance(self, all_models):
        rng = np.random.default_rng(5)
        for model in all_models.values():
            theta = interior_points(model, 1, rng)[0]
            h = helstrom_matrix(model, theta).matrix
            for _ in range(20):
                info = povm_fisher(model, theta, basis_povm(haar_unitary(model.dim, rng)))
                assert np.linalg.eigvalsh(h - info.matrix)[0] > -1e-8

    def test_zero_probability_outcome_skipped(self):
        # aligned pure state: p = (1, 0) with vanishing derivative at outcome 1
        info = classical_fisher(np.array([1.0, 0.0]), np.array([[0.0, 0.0]]))
        assert info.shape == (1, 1) and info[0, 0] == 0.0

    def test_irregular_model_raises(self):
        with pytest.raises(IrregularModelError):
            classical_fisher(np.array([1.0, 0.0]), np.array([[0.5, -0.5]]))

    def test_stack_equals_one_call_per_distribution(self):
        # (2, 3) distributions over 4 outcomes with 3 derivative rows each;
        # one outcome vanishes with a vanishing derivative and is skipped
        rng = np.random.default_rng(12)
        probs = rng.dirichlet(np.ones(4), size=(2, 3))
        dprobs = rng.standard_normal((2, 3, 3, 4))
        dprobs -= dprobs.mean(axis=-1, keepdims=True)
        probs[1, 2] = [0.5, 0.0, 0.25, 0.25]
        dprobs[1, 2, :, 1] = 0.0
        stacked = classical_fisher(probs, dprobs)
        assert stacked.shape == (2, 3, 3, 3)
        for i in np.ndindex(2, 3):
            assert np.array_equal(stacked[i], classical_fisher(probs[i], dprobs[i]))
            # the loop over outcomes, in the same order: the same arithmetic
            ref = np.zeros((3, 3))
            for x in np.flatnonzero(probs[i] > 0.0):
                ref += np.outer(dprobs[i][:, x], dprobs[i][:, x]) / probs[i][x]
            assert np.array_equal(stacked[i], 0.5 * (ref + ref.T))

    def test_irregular_outcome_inside_a_stack_raises(self):
        probs = np.array([[0.5, 0.5], [1.0, 0.0], [0.3, 0.7]])
        dprobs = np.array([[[0.1, -0.1]], [[0.5, -0.5]], [[0.2, -0.2]]])
        with pytest.raises(IrregularModelError, match="outcome 1 has probability 0"):
            classical_fisher(probs, dprobs)

    def test_additivity_over_independent_repetitions(self, all_models):
        # measuring one copy in each of two distinct bases: the joint
        # experiment's information is the sum of the per-basis informations
        from qbound import born_distribution
        model = all_models["bloch_full"]
        theta = np.array([0.2, -0.1, 0.3])
        rho, drho = model.state(theta), model.derivs(theta)
        dists, ddists = [], []
        for axis in (0, 2):
            povm = pauli_basis_povm(axis)
            dists.append(born_distribution(rho, povm))
            ddists.append(np.array([[np.trace(dr @ e).real for e in povm.elements]
                                    for dr in drho]))
        joint_p = np.outer(dists[0], dists[1]).ravel()
        joint_d = np.stack([
            (np.outer(ddists[0][i], dists[1]) + np.outer(dists[0], ddists[1][i])).ravel()
            for i in range(3)])
        total = classical_fisher(joint_p, joint_d)
        parts = classical_fisher(dists[0], ddists[0]) + classical_fisher(dists[1], ddists[1])
        assert np.allclose(total, parts, atol=1e-12)
