import numpy as np
import pytest

from qbound import (Estimator, NumericalError, adapted_bases, alternating_scheme,
                    bayes_mean_estimate, bayes_risk_mc, bump_prior,
                    empirical_fisher, fixed_basis_scheme, helstrom_matrix,
                    mle_estimate, povm_fisher, random_basis_scheme,
                    sample_outcomes, two_step_scheme)
from qbound.models import Domain, affine_model, basis_povm
from qbound.simulate import PAULI_BASES, SampleData, _single_trial
from qbound.linalg import PAULI_Z


def axis_submodel():
    return affine_model(0.5 * np.eye(2), [0.5 * PAULI_Z],
                        Domain("box", bounds=((-1.0, 1.0),), dim=1))


class TestSampling:
    def test_eigenstate_is_deterministic(self, all_models):
        data = sample_outcomes(all_models["bloch_full"], [0, 0, 1.0],
                               fixed_basis_scheme(PAULI_BASES[2]), 200, seed=0)
        assert np.all(data.outcomes == 0)

    def test_maximally_mixed_frequencies(self, all_models):
        n = 10000
        data = sample_outcomes(all_models["bloch_full"], [0, 0, 0],
                               fixed_basis_scheme(PAULI_BASES[2]), n, seed=1)
        freq = np.mean(data.outcomes == 0)
        assert abs(freq - 0.5) < 3 * 0.5 / np.sqrt(n)

    def test_random_basis_conditional_frequencies(self, all_models):
        # mean of (1{x=0} - p_0(basis_i)) should vanish within 3 sigma
        model = all_models["pure_qubit"]
        theta = np.array([0.3, -0.2])
        phi_state = model.state(theta)
        n = 10000
        data = sample_outcomes(model, theta, random_basis_scheme(), n, seed=2)
        p0 = np.einsum("ni,nij,nj->n", data.bases[:, :, 0].conj(),
                       np.broadcast_to(phi_state, (n, 2, 2)), data.bases[:, :, 0]).real
        resid = (data.outcomes == 0).astype(float) - p0
        sigma = np.sqrt(np.mean(p0 * (1 - p0)) / n)
        assert abs(resid.mean()) < 3 * sigma

    def test_seeded_reproducibility(self, all_models):
        model = all_models["pure_qubit"]
        a = sample_outcomes(model, [0.2, 0.1], random_basis_scheme(), 500, seed=7)
        b = sample_outcomes(model, [0.2, 0.1], random_basis_scheme(), 500, seed=7)
        assert np.array_equal(a.outcomes, b.outcomes)
        assert np.array_equal(a.bases, b.bases)

    def test_realized_bases_form_valid_povms(self, all_models):
        data = sample_outcomes(all_models["pure_qubit"], [0.2, 0.1],
                               random_basis_scheme(), 40, seed=15)
        for u in data.bases:
            basis_povm(u)  # validates PSD elements summing to the identity

    def test_invalid_counts(self, all_models):
        with pytest.raises(ValueError):
            sample_outcomes(all_models["pure_qubit"], [0.1, 0.1],
                            random_basis_scheme(), 0, seed=0)


class TestMle:
    def test_bernoulli_closed_form(self):
        model = axis_submodel()
        data = sample_outcomes(model, [0.4], fixed_basis_scheme(PAULI_BASES[2]),
                               3000, seed=3)
        res = mle_estimate(data, model)
        closed = 2 * np.mean(data.outcomes == 0) - 1
        assert res.theta[0] == pytest.approx(closed, abs=1e-7)
        assert res.converged and not res.boundary

    def test_consistency_in_n(self, all_models):
        model = all_models["pure_qubit"]
        rng = np.random.default_rng(4)
        errors = []
        for n in (100, 400, 1600):
            errs = []
            for k in range(40):
                theta = 0.5 * rng.uniform(-0.7, 0.7, 2)
                data = sample_outcomes(model, theta, random_basis_scheme(), n,
                                       seed=1000 + 40 * n + k)
                errs.append(np.linalg.norm(mle_estimate(data, model).theta - theta))
            errors.append(np.mean(errs))
        assert errors[0] > errors[1] > errors[2]

    def test_degenerate_likelihood_boundary_flag(self, all_models):
        # every outcome lands on a basis state whose chart point is the rim
        model = all_models["pure_qubit"]
        data = SampleData(bases=np.stack([np.eye(2, dtype=complex)]),
                          basis_index=np.zeros(50, dtype=np.int64),
                          outcomes=np.ones(50, dtype=np.int64),
                          n_copies=50, scheme_kind="fixed_basis")
        res = mle_estimate(data, model)
        assert res.boundary

    def test_affine_full_bloch(self, all_models):
        model = all_models["bloch_full"]
        theta = np.array([0.2, -0.3, 0.4])
        data = sample_outcomes(model, theta,
                               alternating_scheme(PAULI_BASES), 9000, seed=5)
        res = mle_estimate(data, model)
        assert np.linalg.norm(res.theta - theta) < 0.05

    def test_pure_mle_escapes_local_maximum(self, all_models):
        # trial 1487 of pure_qubit, bump 0.8, random bases, N = 250, seed 2024:
        # the sphere likelihood has two local maxima and the spectral start
        # ascends to the lower one (-133.3352); the global one is -133.2540
        model = all_models["pure_qubit"]
        rng = np.random.default_rng(
            np.random.SeedSequence(entropy=2024, spawn_key=(1487,)))
        theta = bump_prior(2, 0.8).sample(rng)
        data = sample_outcomes(model, theta, random_basis_scheme(), 250, seed=rng)
        res = mle_estimate(data, model)
        assert res.converged
        assert res.loglik == pytest.approx(-133.2540, abs=1e-3)


class TestBayesMean:
    def test_stays_in_domain_and_near_mle(self, all_models):
        model = all_models["bloch_equatorial"]
        prior = bump_prior(2, 0.8)
        theta = np.array([0.3, 0.1])
        data = sample_outcomes(model, theta,
                               alternating_scheme(PAULI_BASES[:2]), 2000, seed=6)
        est, mle = bayes_mean_estimate(data, model, prior, seed=6)
        assert model.domain.contains(est)
        assert np.linalg.norm(est - mle.theta) < 0.1


class TestTwoStep:
    def test_stage2_bases_replayable(self, all_models):
        # stage-2 bases are a deterministic function of stage-1 data
        model = all_models["bloch_equatorial"]
        scheme = two_step_scheme(model, 0.1)
        data = sample_outcomes(model, [0.4, 0.2], scheme, 2000, seed=8)
        k1, n1 = data.stage1_bases, data.stage1_copies
        stage1 = SampleData(bases=data.bases[:k1],
                            basis_index=data.basis_index[:n1],
                            outcomes=data.outcomes[:n1], n_copies=n1,
                            scheme_kind="alternating_bases")
        theta1 = mle_estimate(stage1, model).theta
        replay = np.stack(adapted_bases(model, theta1))
        assert np.allclose(replay, data.bases[k1:], atol=1e-12)

    def test_fraction_bounds(self, all_models):
        with pytest.raises(ValueError):
            two_step_scheme(all_models["bloch_equatorial"], 1.0)
        with pytest.raises(ValueError):
            two_step_scheme(all_models["bloch_equatorial"], 0.0)

    def test_stage1_heavy_fraction_is_worse(self, all_models):
        # pushing almost everything into stage 1 wastes the adapted bases
        model = all_models["bloch_full"]
        prior = bump_prior(3, 0.9)
        est = Estimator("mle")
        lean = bayes_risk_mc(model, prior, two_step_scheme(model, 0.1), est,
                             1500, trials=500, seed=41, workers=2)
        heavy = bayes_risk_mc(model, prior, two_step_scheme(model, 0.95), est,
                              1500, trials=500, seed=41, workers=2)
        assert heavy.value > lean.value


class TestEmpiricalFisher:
    def test_fixed_basis_equals_povm_fisher(self, all_models):
        model = all_models["bloch_full"]
        theta = np.array([0.1, 0.2, -0.3])
        emp = empirical_fisher(model, theta, fixed_basis_scheme(PAULI_BASES[2]))
        exact = povm_fisher(model, theta, basis_povm(PAULI_BASES[2]))
        assert np.array_equal(emp.matrix, exact.matrix)
        assert np.all(emp.std_error == 0.0)

    def test_alternating_is_cycle_average(self, all_models):
        model = all_models["bloch_equatorial"]
        theta = np.array([0.3, -0.1])
        emp = empirical_fisher(model, theta, alternating_scheme(PAULI_BASES[:2]))
        i1 = povm_fisher(model, theta, basis_povm(PAULI_BASES[0])).matrix
        i2 = povm_fisher(model, theta, basis_povm(PAULI_BASES[1])).matrix
        assert np.allclose(emp.matrix, 0.5 * (i1 + i2), atol=1e-12)

    def test_covariant_half_helstrom(self, all_models):
        model = all_models["pure_qubit"]
        theta = np.array([0.25, -0.1])
        emp = empirical_fisher(model, theta, random_basis_scheme(),
                               n_bases=800, seed=9)
        h = helstrom_matrix(model, theta).matrix
        assert np.linalg.norm(emp.matrix - 0.5 * h) < 3 * np.linalg.norm(emp.std_error)

    def test_helstrom_dominates_empirical_information(self, all_models):
        model = all_models["pure_qubit"]
        theta = np.array([0.25, -0.1])
        h = helstrom_matrix(model, theta).matrix
        for scheme in (random_basis_scheme(), fixed_basis_scheme(PAULI_BASES[2]),
                       alternating_scheme(PAULI_BASES[:2])):
            emp = empirical_fisher(model, theta, scheme, n_bases=300, seed=16)
            slack = 3 * np.linalg.norm(emp.std_error)
            assert np.linalg.eigvalsh(h - emp.matrix)[0] >= -max(slack, 1e-8)

    def test_dual_bound_dominates_empirical_information(self, all_models):
        from qbound import dual_bound, quarter_helstrom_weight, solve_holevo
        for name in ("pure_qubit", "bloch_equatorial"):
            model = all_models[name]
            theta = np.array([0.25, -0.1]) if name == "pure_qubit" else np.array([0.3, 0.0])
            g = quarter_helstrom_weight(model, theta)
            k0, ck = dual_bound(solve_holevo(model, theta, g), g)
            for scheme in (random_basis_scheme(), alternating_scheme(PAULI_BASES[:2]),
                           two_step_scheme(model, 0.1) if name != "pure_dim_3" else None):
                if scheme is None:
                    continue
                emp = empirical_fisher(model, theta, scheme, n_bases=300, seed=18)
                slack = 3 * float(np.trace(k0 @ emp.std_error))
                assert np.trace(k0 @ emp.matrix) <= ck + max(slack, 1e-8)

    def test_two_step_mixture_formula(self, all_models):
        model = all_models["bloch_equatorial"]
        theta = np.array([0.3, 0.4])
        scheme = two_step_scheme(model, 0.2)
        emp = empirical_fisher(model, theta, scheme)
        stage1 = np.mean([povm_fisher(model, theta, basis_povm(b)).matrix
                          for b in scheme.bases], axis=0)
        stage2 = np.mean([povm_fisher(model, theta, basis_povm(b)).matrix
                          for b in adapted_bases(model, theta)], axis=0)
        assert np.allclose(emp.matrix, 0.2 * stage1 + 0.8 * stage2, atol=1e-12)


class TestBayesRisk:
    def test_oracle_estimator_has_zero_risk(self, all_models):
        model = all_models["bloch_equatorial"]
        r = bayes_risk_mc(model, bump_prior(2, 0.8),
                          alternating_scheme(PAULI_BASES[:2]),
                          Estimator("oracle"), 100, trials=50, seed=10)
        assert r.value == pytest.approx(0.0, abs=1e-12)
        assert r.loss_summary["max"] == pytest.approx(0.0, abs=1e-12)

    def test_seeded_reproducibility_and_workers(self, all_models):
        model = all_models["pure_qubit"]
        prior = bump_prior(2, 0.8)
        kwargs = dict(n_copies=300, trials=80, seed=12)
        a = bayes_risk_mc(model, prior, random_basis_scheme(), Estimator("mle"),
                          workers=1, **kwargs)
        b = bayes_risk_mc(model, prior, random_basis_scheme(), Estimator("mle"),
                          workers=2, **kwargs)
        assert a.value == b.value
        assert a.std_error == b.std_error

    def test_estimator_failures_abort(self, all_models, monkeypatch):
        import qbound.simulate as sim
        model = all_models["bloch_equatorial"]
        real = sim.mle_estimate
        calls = {"n": 0}

        def flaky(data, m, **kw):
            calls["n"] += 1
            if calls["n"] % 3 == 0:
                raise RuntimeError("synthetic estimator failure")
            return real(data, m, **kw)

        monkeypatch.setattr(sim, "mle_estimate", flaky)
        with pytest.raises(NumericalError, match="failed"):
            sim.bayes_risk_mc(model, bump_prior(2, 0.8),
                              alternating_scheme(PAULI_BASES[:2]),
                              Estimator("mle"), 100, trials=60, seed=13, workers=1)

    def test_single_trial_loss_is_fidelity_deficit(self, all_models):
        model = all_models["bloch_equatorial"]
        prior = bump_prior(2, 0.8)
        loss, boundary, err = _single_trial(
            model, prior, alternating_scheme(PAULI_BASES[:2]),
            Estimator("mle"), 500, 14, 0)
        assert err is None
        assert 0.0 <= loss < 0.2

    def test_unknown_estimator_kind(self):
        with pytest.raises(ValueError):
            Estimator("maximum_wishful_thinking")
