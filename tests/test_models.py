import dataclasses
import json
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qbound import (Domain, DomainError, Povm, affine_model, basis_povm,
                    bloch_full, born_distribution, builtin_model,
                    check_density_matrix, embedding_loss_scale, fidelity,
                    fidelity_embedding, model_from_spec, model_to_spec)
from qbound.linalg import PAULI_BASES, PAULI_X, PAULI_Z, haar_unitaries
from qbound.models import FAMILIES

from conftest import (MALFORMED_SPECS, fd_jacobian, interior_points, malformed_spec,
                      random_hermitian, random_mixed_model)

bloch_state = bloch_full().state


class TestBlochState:
    def test_center_is_maximally_mixed(self):
        assert np.allclose(bloch_state([0, 0, 0]), 0.5 * np.eye(2))

    def test_north_pole_is_pure(self):
        assert np.allclose(bloch_state([0, 0, 1]), np.diag([1.0, 0.0]))

    def test_x_axis_point(self):
        # substituting theta = (1,0,0) into the Pauli expansion
        assert np.allclose(bloch_state([1, 0, 0]), 0.5 * np.ones((2, 2)))

    def test_outside_ball_rejected(self):
        with pytest.raises(DomainError):
            bloch_state([0.8, 0.8, 0.8])

    def test_valid_density_matrix_on_random_points(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            x = rng.normal(size=3)
            x *= rng.random() / np.linalg.norm(x)
            check_density_matrix(bloch_state(x))


class TestDomainProject:
    def test_ball_projects_each_row(self):
        # rows inside the ball stay, rows outside land on the sphere along
        # their own direction; each row as it would alone, to the last bit
        rng = np.random.default_rng(19)
        dom = Domain("ball", radius=0.8, dim=3)
        rows = rng.normal(size=(40, 3)) * rng.uniform(0.1, 0.7, (40, 1))
        stack = dom.project(rows)
        norms = np.linalg.norm(rows, axis=1)
        inside = norms <= 0.8
        assert 5 <= inside.sum() <= 35
        assert np.array_equal(stack[inside], rows[inside])
        assert np.allclose(np.linalg.norm(stack[~inside], axis=1), 0.8, rtol=1e-15)
        assert np.allclose(stack[~inside] / 0.8, rows[~inside] / norms[~inside, None],
                           rtol=0.0, atol=1e-15)
        for row, out in zip(rows, stack):
            r = np.linalg.norm(row)
            single = row * (0.8 / r) if r > 0.8 else row
            assert np.array_equal(dom.project(row), single)
            assert np.array_equal(out, single)
        assert np.array_equal(dom.project(rows.reshape(4, 10, 3)), stack.reshape(4, 10, 3))

    def test_box_clips_each_row(self):
        dom = Domain("box", bounds=((-0.3, 0.2), (-0.1, 0.4)), dim=2)
        rows = np.array([[0.0, 0.0], [0.5, 0.0], [-0.5, 0.6], [0.1, -0.2]])
        expected = np.array([[0.0, 0.0], [0.2, 0.0], [-0.3, 0.4], [0.1, -0.1]])
        assert np.array_equal(dom.project(rows), expected)
        assert np.array_equal(dom.project(rows[2]), expected[2])


class TestDomainChecks:
    # a domain that would contain nothing, or that later code cannot read,
    # is refused where it is built
    @pytest.mark.parametrize("radius", [-1.0, 0.0, np.inf, np.nan, "0.5x", [0.5], "0.5", True])
    def test_ball_radius_positive_and_finite(self, radius):
        with pytest.raises(ValueError, match="ball radius"):
            Domain("ball", radius=radius, dim=1)

    @pytest.mark.parametrize("bounds", [((0.5, -0.5),), ((0.2, 0.2),), ((-np.inf, 1.0),),
                                        ((0.0, 1.0), (0.0, 1.0)), None, ((0.0,),),
                                        (("0", "1"),)])
    def test_box_bounds_finite_and_increasing(self, bounds):
        with pytest.raises(ValueError, match="box bounds"):
            Domain("box", bounds=bounds, dim=1)

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown domain kind 'sphere'"):
            Domain("sphere", radius=1.0, dim=2)

    def test_valid_domains_keep_their_values(self):
        ball = Domain("ball", radius=np.float64(0.7), dim=2)
        box = Domain("box", bounds=[[-1, 0.5]], dim=1)
        assert ball.radius == 0.7 and type(ball.radius) is float
        assert box.bounds == ((-1.0, 0.5),)
        assert ball.contains([0.7, 0.0]) and not ball.contains([0.71, 0.0])


class TestPovm:
    def test_elements_must_sum_to_identity(self):
        proj = np.diag([1.0, 0.0])
        with pytest.raises(ValueError):
            Povm((proj, 0.5 * np.diag([0.0, 1.0])))

    def test_elements_must_be_psd(self):
        with pytest.raises(ValueError):
            Povm((np.diag([1.5, 0.0]), np.diag([-0.5, 1.0])))

    def test_basis_povm_is_valid(self):
        rng = np.random.default_rng(1)
        for d in (2, 3, 4):
            u = haar_unitaries(d, 1, rng)[0]
            m = basis_povm(u)
            assert len(m) == d
            assert m.dim == d
            for x in range(d):
                assert np.array_equal(m.elements[x], np.outer(u[:, x], u[:, x].conj()))

    def test_stacked_povm_is_each_basis(self):
        # a stack of bases validates as one POVM stack, and each basis gets
        # its elements and Born probabilities bit for bit
        us = haar_unitaries(3, 40, np.random.default_rng(6))
        stacked = basis_povm(us)
        assert len(stacked) == 3 and stacked.dim == 3
        rho = np.diag([0.5, 0.3, 0.2]).astype(complex)
        probs = born_distribution(rho, stacked)
        assert probs.shape == (40, 3)
        for k, u in enumerate(us):
            assert np.array_equal(stacked.elements[k], basis_povm(u).elements)
            assert np.array_equal(probs[k], born_distribution(rho, basis_povm(u)))

    def test_one_bad_povm_in_a_stack_rejected(self):
        good = np.stack([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])
        with pytest.raises(ValueError, match="sum to the identity"):
            Povm(np.stack([good, good, 0.9 * good]))
        with pytest.raises(ValueError, match="not PSD"):
            Povm(np.stack([good, np.stack([np.diag([1.5, 0.0]), np.diag([-0.5, 1.0])])]))
        with pytest.raises(ValueError, match="at least one"):
            Povm(())


class TestBornDistribution:
    def test_eigenstate_measurement(self):
        p = born_distribution(np.diag([1.0, 0.0]), basis_povm(PAULI_BASES[2]))
        assert np.allclose(p, [1.0, 0.0])

    def test_maximally_mixed_any_basis(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            p = born_distribution(0.5 * np.eye(2), basis_povm(haar_unitaries(2, 1, rng)[0]))
            assert np.allclose(p, [0.5, 0.5])

    def test_pure_state_overlap_rule(self):
        # Pr(outcome = x) = |<psi_x|phi>|^2
        rng = np.random.default_rng(3)
        for _ in range(10):
            phi = rng.normal(size=3) + 1j * rng.normal(size=3)
            phi /= np.linalg.norm(phi)
            u = haar_unitaries(3, 1, rng)[0]
            p = born_distribution(np.outer(phi, phi.conj()), basis_povm(u))
            assert np.allclose(p, np.abs(u.conj().T @ phi) ** 2)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            born_distribution(np.eye(3) / 3, basis_povm(PAULI_BASES[0]))

    @given(st.lists(st.floats(-1, 1), min_size=3, max_size=3), st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=40, deadline=None)
    def test_sums_to_one(self, vec, seed):
        theta = np.array(vec)
        n = np.linalg.norm(theta)
        if n > 1.0:
            theta /= n * (1 + 1e-9)
        rng = np.random.default_rng(seed)
        p = born_distribution(bloch_state(theta), basis_povm(haar_unitaries(2, 1, rng)[0]))
        assert np.all(p >= 0.0)
        assert abs(p.sum() - 1.0) < 1e-9


class TestFidelity:
    def test_identical_states(self):
        rng = np.random.default_rng(4)
        for _ in range(5):
            rho = bloch_state(0.7 * rng.uniform(-0.57, 0.57, 3))
            assert fidelity(rho, rho) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_pure_states(self):
        assert fidelity(np.diag([1.0, 0.0]), np.diag([0.0, 1.0])) == pytest.approx(0.0, abs=1e-12)

    def test_bloch_closed_form(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            a, b = (rng.uniform(-0.57, 0.57, 3) for _ in range(2))
            expected = 0.5 * (1 + a @ b + np.sqrt(1 - a @ a) * np.sqrt(1 - b @ b))
            assert fidelity(bloch_state(a), bloch_state(b)) == pytest.approx(expected, abs=1e-12)

    def test_symmetry(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            a, b = (bloch_state(rng.uniform(-0.5, 0.5, 3)) for _ in range(2))
            assert fidelity(a, b) == pytest.approx(fidelity(b, a), abs=1e-9)

    @pytest.mark.parametrize("kind", ["mixed_qubit", "pure_qubit", "dim_3"])
    def test_stack_equals_pairs(self, kind):
        # bit for bit: the Monte Carlo loss of a block is one stacked call,
        # and a trial's loss must not depend on its block
        rng = np.random.default_rng(8)
        d = 3 if kind == "dim_3" else 2
        u = np.stack([haar_unitaries(d, 1, rng)[0] for _ in range(24)])
        if kind == "mixed_qubit":
            w = rng.dirichlet(np.ones(d), 24)
        else:  # rank one, with pure and near-pure pairs for d = 3
            w = np.zeros((24, d))
            w[:, 0] = 1.0
            if kind == "dim_3":
                w[::3] = rng.dirichlet(np.ones(d), 8)
        rhos = (u * w[:, None]) @ np.swapaxes(u.conj(), 1, 2)
        hats, rhos = rhos[:12], rhos[12:]
        fids = fidelity(hats, rhos)
        assert fids.shape == (12,)
        for fid, a, b in zip(fids, hats, rhos):
            one = fidelity(a, b)
            assert isinstance(one, float) and fid == one
        assert np.array_equal(fidelity(hats.reshape(3, 4, d, d), rhos.reshape(3, 4, d, d)),
                              fids.reshape(3, 4))

    def test_invalid_state_signals_numerical_failure(self):
        good = np.diag([0.5, 0.3, 0.2]).astype(complex)
        bad = np.diag([0.6, 0.5, -0.1]).astype(complex)  # not PSD
        with pytest.raises(ValueError):
            fidelity(bad, good)

    def test_monotone_under_measurement(self):
        # Fid(rho_hat, rho) <= squared Hellinger affinity of any outcome law
        rng = np.random.default_rng(7)
        pairs = [(bloch_state(rng.uniform(-0.5, 0.5, 3)),
                  bloch_state(rng.uniform(-0.5, 0.5, 3))) for _ in range(50)]
        for a, b in pairs:
            fid = fidelity(a, b)
            for _ in range(4):
                m = basis_povm(haar_unitaries(2, 1, rng)[0])
                pa, pb = born_distribution(a, m), born_distribution(b, m)
                affinity = float(np.sum(np.sqrt(pa * pb)) ** 2)
                assert fid <= affinity + 1e-9


class TestDerivatives:
    def test_traceless_and_fd_consistent(self, all_models):
        rng = np.random.default_rng(8)
        for name, model in all_models.items():
            for theta in interior_points(model, 100, rng, radius=0.8):
                check_density_matrix(model.state(theta))
                derivs = model.derivs(theta)
                for i, dr in enumerate(derivs):
                    assert abs(np.trace(dr)) < 1e-9
                    e = np.zeros(model.num_params)
                    e[i] = 1e-5
                    fd = (model.state(theta + e) - model.state(theta - e)) / 2e-5
                    assert np.max(np.abs(fd - dr)) < 1e-6 * max(1.0, np.max(np.abs(dr)))


class TestFidelityEmbedding:
    def test_bloch_center(self, all_models):
        psi, _ = fidelity_embedding(all_models["bloch_full"], [0, 0, 0])
        assert np.allclose(psi, [0, 0, 0, 1])

    def test_unit_length_bloch(self, all_models):
        rng = np.random.default_rng(9)
        for theta in interior_points(all_models["bloch_full"], 20, rng, radius=0.9):
            psi, _ = fidelity_embedding(all_models["bloch_full"], theta)
            assert np.linalg.norm(psi) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("name", ["bloch_full", "bloch_equatorial",
                                      "pure_qubit", "pure_dim_3"])
    def test_quadratic_identity_exact(self, all_models, name):
        model = all_models[name]
        scale = embedding_loss_scale(model)
        rng = np.random.default_rng(10)
        for _ in range(20):
            a, b = interior_points(model, 2, rng, radius=0.7)
            pa, _ = fidelity_embedding(model, a)
            pb, _ = fidelity_embedding(model, b)
            deficit = 1.0 - fidelity(model.state(a), model.state(b))
            assert deficit == pytest.approx(scale * np.sum((pa - pb) ** 2), abs=1e-10)

    def test_jacobian_matches_fd(self, all_models):
        rng = np.random.default_rng(11)
        for model in all_models.values():
            for theta in interior_points(model, 5, rng):
                _, jac = fidelity_embedding(model, theta)
                fd = fd_jacobian(lambda t: fidelity_embedding(model, t)[0], theta)
                assert np.max(np.abs(jac - fd)) < 1e-6

    def test_unsupported_family(self):
        model = affine_model(0.5 * np.eye(2), [0.5 * PAULI_Z])
        with pytest.raises(ValueError):
            fidelity_embedding(model, [0.2])


class TestModelSpec:
    def test_builtin_roundtrip(self, all_models):
        for model in all_models.values():
            again = model_from_spec(model_to_spec(model))
            assert again.family == model.family
            assert again.num_params == model.num_params

    def test_affine_roundtrip(self, tmp_path):
        model = affine_model(0.5 * np.eye(2), [0.5 * PAULI_Z],
                             Domain("ball", radius=0.9, dim=1))
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(model_to_spec(model)))
        again = model_from_spec(str(path))
        theta = [0.3]
        assert np.allclose(again.state(theta), model.state(theta))

    def test_pickle_roundtrip_is_exact(self, all_models):
        rng = np.random.default_rng(21)
        box = Domain("box", bounds=((-0.3, 0.2), (-0.1, 0.4)), dim=2)
        models = [*all_models.values(), random_mixed_model(rng, 3, 3),
                  affine_model(random_mixed_model(rng, 2, 2).rho0,
                               [0.3 * PAULI_Z, 0.3 * PAULI_X], box)]
        assert {m.family for m in models} == set(FAMILIES)
        for model in models:
            again = pickle.loads(pickle.dumps(model))
            assert again.family == model.family and again.domain == model.domain
            pts = np.array([model.domain.project(x) for x in
                            rng.uniform(-0.5, 0.5, (8, model.num_params))])
            assert np.array_equal(again.state(pts), model.state(pts))
            assert np.array_equal(again.derivs(pts), model.derivs(pts))

    def test_spec_less_family_rejected(self, all_models):
        custom = dataclasses.replace(all_models["bloch_full"], family="my_family")
        with pytest.raises(ValueError, match="my_family"):
            model_to_spec(custom)

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError, match="unknown"):
            model_from_spec({"family": "bloch_full", "extra": 1})

    def test_non_traceless_basis_rejected(self):
        spec = model_to_spec(affine_model(0.5 * np.eye(2), [0.5 * PAULI_Z]))
        spec["basis"][0][0][0] = [0.7, 0.0]  # puts trace on the basis matrix
        with pytest.raises(ValueError, match="traceless"):
            model_from_spec(spec)

    def test_invalid_rho0_rejected(self):
        rng = np.random.default_rng(12)
        bad = random_hermitian(2, rng)  # not a state
        with pytest.raises(ValueError):
            affine_model(bad, [0.5 * PAULI_Z])

    @pytest.mark.parametrize("name", list(MALFORMED_SPECS))
    def test_malformed_spec_rejected(self, name):
        with pytest.raises(ValueError):
            model_from_spec(malformed_spec(name))

    def test_pure_dim_requires_dim(self):
        with pytest.raises(ValueError):
            builtin_model("pure_dim_d")

    @pytest.mark.parametrize("dim", [2.5, True, "3", 1])
    def test_pure_dim_must_be_an_integer_of_at_least_2(self, dim):
        # 2.5 built d = 2 and "3" built d = 3
        with pytest.raises(ValueError, match="must be an integer >= 2"):
            builtin_model("pure_dim_d", dim=dim)
