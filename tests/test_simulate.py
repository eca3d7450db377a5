import dataclasses
import functools
import math
import multiprocessing

import numpy as np
import pytest

from qbound import (Estimator, NumericalError, adapted_bases, alternating_scheme,
                    bayes_mean_estimate, bayes_risk_mc, bump_prior,
                    empirical_fisher, fixed_basis_scheme, helstrom_matrix,
                    mle_estimate, povm_fisher, random_basis_scheme,
                    sample_outcomes, two_step_scheme)
from qbound.models import Domain, affine_model, basis_povm, fidelity, pure_state_model
from qbound import simulate
from qbound.simulate import (PAULI_BASES, MeasurementScheme, SampleData, _CERT_MARGIN,
                             _affine_loglik, _ascend_sphere, _count_loglik,
                             _direction_basis, _likelihood_table, _pure_gap,
                             _pure_probs, _table)
from qbound.linalg import PAULI_Z, PAULIS, haar_unitaries


def outcome_table(data):
    """(vecs, counts): the count table of sampled data, its rows the outcome
    vectors (the conjugate transpose of the table's columns)."""
    cols, counts = _table(data.bases, data.basis_index, data.outcomes,
                          data.scheme_kind == "random_basis_covariant")
    return cols.T.conj(), counts


def likelihood_table(data, model):
    """(coeffs, counts) of the one table of sampled data, as the estimators
    see it: (acols, counts) for a pure family, ((a, bt), counts) for an
    affine one."""
    coeffs, counts = _likelihood_table(data, model)
    if model.is_pure:
        return coeffs[0], counts[0]
    return (coeffs[0][0], coeffs[1][0]), counts[0]


def draws_loglik(data, model):
    """The posterior mean's likelihood of the one table of sampled data, at
    draws (1, p, M) -> (1, M)."""
    coeffs, counts = _likelihood_table(data, model)
    if model.is_pure:
        return functools.partial(simulate._pure_draws_loglik, coeffs, counts)
    return functools.partial(simulate._draws_loglik, *coeffs, counts)


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

    def test_outcomes_equal_per_basis_reference(self, all_models):
        # the stacked Born probabilities differ from the einsum ones in the
        # last bit of many CDF entries; no outcome may change.  The harness
        # counts its tables straight from the same uniforms: its counts must
        # be the bincount of these outcomes, bit for bit.  Three bases at
        # N = 1000 or 4000 leave N % K = 1; pure_dim_3 has two thresholds a basis
        for seed in range(50):
            model = all_models[("bloch_full", "bloch_equatorial", "pure_qubit",
                                "pure_dim_3")[seed % 4]]
            n = (4000, 1000)[seed % 8 // 4]
            rng = np.random.default_rng(seed)
            theta = bump_prior(model.num_params, 0.9).sample(rng)
            haar = haar_unitaries(model.dim, 3, rng)
            schemes = [fixed_basis_scheme(haar[0]), alternating_scheme(haar)]
            if model.dim == 2:
                schemes += [alternating_scheme(PAULI_BASES), two_step_scheme(model, 0.1)]
            for scheme in schemes:
                ref_rng, harness_rng = np.random.default_rng(), np.random.default_rng()
                ref_rng.bit_generator.state = rng.bit_generator.state
                harness_rng.bit_generator.state = rng.bit_generator.state
                data = sample_outcomes(model, theta, scheme, n, seed=rng)
                u = ref_rng.random(n)
                ref = per_basis_outcomes(model.state(theta), data.bases,
                                         data.basis_index, u)
                assert np.array_equal(data.outcomes, ref)
                draws = simulate._cycle_draws(model, scheme, n, model.state(theta)[None],
                                              [harness_rng])
                rows = len(data.bases) * model.dim
                assert np.array_equal(draws[4][0], np.bincount(
                    data.basis_index * model.dim + data.outcomes, minlength=rows))
                assert harness_rng.random() == rng.random()  # the same draws consumed

    def test_harness_tables_equal_sampled_data_tables(self, all_models):
        # a block's tables, counted from the uniforms or (random bases) taken
        # column by column from the drawn bases, against the tables of the
        # per-copy outcomes of sample_outcomes, trial by trial, bit for bit
        for name, n in (("pure_qubit", 300), ("pure_dim_3", 250), ("bloch_full", 200),
                        ("bloch_equatorial", 1000)):
            model = all_models[name]
            rng = np.random.default_rng(60 + n)
            thetas = bump_prior(model.num_params, 0.8).sample(rng, 3)
            schemes = [random_basis_scheme(),
                       alternating_scheme(haar_unitaries(model.dim, 3, rng))]
            if model.dim == 2:
                schemes.append(two_step_scheme(model, 0.1))
            for scheme in schemes:
                rngs = [np.random.default_rng(61 + t) for t in range(3)]
                coeffs, counts = simulate._sample_block(model, scheme, n, model.state(thetas),
                                                        rngs)
                for t in range(3):
                    data = sample_outcomes(model, thetas[t], scheme, n, seed=61 + t)
                    ref_coeffs, ref_counts = _likelihood_table(data, model)
                    if model.is_pure:
                        assert coeffs[t].flags["C_CONTIGUOUS"]
                        assert np.array_equal(coeffs[t], ref_coeffs[0])
                    else:
                        assert np.array_equal(coeffs[0][t], ref_coeffs[0][0])
                        assert np.array_equal(coeffs[1][t], ref_coeffs[1][0])
                    if model.is_pure and scheme.kind == "random_basis_covariant":
                        # and against each copy's outcome vector, gathered apart
                        vecs = data.bases[np.arange(n), :, data.outcomes]
                        assert np.array_equal(coeffs[t], vecs.T.conj())
                    assert np.array_equal(counts[t], ref_counts[0])

    def test_block_thresholds_equal_blocks_of_one(self, all_models):
        # bit for bit: the Born thresholds of a block are one call, and a
        # trial's outcomes must not depend on its block
        rng = np.random.default_rng(11)
        for name in ("bloch_full", "bloch_equatorial", "pure_qubit", "pure_dim_3"):
            model = all_models[name]
            d, n = model.dim, simulate._TRIAL_BLOCK
            thetas = bump_prior(model.num_params, 0.9).sample(rng, n)
            rhos = model.state(thetas)
            shared = haar_unitaries(d, 3, rng)  # fixed, alternating and stage 1
            per_trial = haar_unitaries(d, 3 * n, rng).reshape(n, 3, d, d)
            cases = [(shared, lambda t: shared), (per_trial, lambda t: per_trial[t])]
            if d == 2:
                stage2 = np.stack(adapted_bases(model, thetas), axis=1)
                cases.append((stage2, lambda t: stage2[t]))
            for bases, own in cases:
                thr = simulate._thresholds(rhos, bases)
                assert thr.shape == (n, d - 1, bases.shape[-3])
                for t in range(n):
                    assert np.array_equal(thr[t], simulate._thresholds(rhos[t:t + 1], own(t))[0])
            # random bases: a trial is a block of one over its per-copy bases
            per_copy = haar_unitaries(d, 300, rng)
            thr = simulate._thresholds(rhos, per_copy)
            for t in range(n):
                assert np.array_equal(thr[t], simulate._thresholds(rhos[t], per_copy)[0])


def per_basis_outcomes(rho, bases, idx, u):
    """Outcomes of copies measured in bases[idx], one basis at a time:
    einsum Born probabilities and searchsorted on their CDF."""
    outcomes = np.empty(idx.size, dtype=np.int64)
    for k, v in enumerate(bases):
        probs = np.clip(np.einsum("ix,ij,jx->x", v.conj(), rho, v).real, 0.0, None)
        cum = np.cumsum(probs)
        cum /= cum[-1]
        mask = idx == k
        outcomes[mask] = np.searchsorted(cum, u[mask], side="right").clip(0, probs.size - 1)
    return outcomes


def qr_haar_unitaries(d, n, rng):
    """Haar bases as the Q factor of a batched QR of the same Ginibre draws,
    phase-fixed to a positive diagonal in R."""
    z = (rng.standard_normal((n, d, d)) + 1j * rng.standard_normal((n, d, d))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    ph = np.einsum("nii->ni", r)
    return q * (ph / np.abs(ph))[:, None, :]


def qr_random_basis_outcomes(model, theta, n, rng):
    """Random-basis outcomes through QR bases and a per-copy einsum."""
    rho, d = model.state(theta), model.dim
    bases = qr_haar_unitaries(d, n, rng)
    probs = np.clip(np.einsum("nix,ij,njx->nx", bases.conj(), rho, bases).real, 0.0, None)
    cum = np.cumsum(probs, axis=1)
    cum /= cum[:, -1:]
    return (rng.random(n)[:, None] > cum).sum(axis=1).clip(0, d - 1)


class TestHaar:
    def test_gram_schmidt_equals_qr(self):
        for d in (2, 3, 4):
            rng, ref_rng = np.random.default_rng(40 + d), np.random.default_rng(40 + d)
            u = haar_unitaries(d, 500, rng)
            ref = qr_haar_unitaries(d, 500, ref_rng)
            assert u.shape == (500, d, d)
            assert np.max(np.abs(u - ref)) <= 1e-12
            assert rng.random() == ref_rng.random()  # the same draws consumed

    def test_unitary(self):
        for d in (2, 3, 4):
            u = haar_unitaries(d, 500, np.random.default_rng(50 + d))
            gram = np.einsum("nji,njk->nik", u.conj(), u)
            assert np.max(np.abs(gram - np.eye(d))) <= 1e-12

    def test_random_basis_outcomes_equal_qr_path(self, all_models):
        model = all_models["pure_qubit"]
        runs = [([0.3, -0.2], 250, np.random.default_rng(32)),
                ([0.3, -0.2], 1000, np.random.default_rng(33))]
        rng = np.random.default_rng(np.random.SeedSequence(entropy=2024, spawn_key=(0,)))
        runs.append((bump_prior(2, 0.8).sample(rng), 4000, rng))
        for theta, n, rng in runs:
            ref_rng = np.random.default_rng()
            ref_rng.bit_generator.state = rng.bit_generator.state
            data = sample_outcomes(model, theta, random_basis_scheme(), n, seed=rng)
            ref = qr_random_basis_outcomes(model, theta, n, ref_rng)
            assert np.array_equal(data.outcomes, ref)


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
                          outcomes=np.ones(50, dtype=np.int64), scheme_kind="fixed_basis")
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


# ---------------------------------------------------------------------------
# test-local per-copy references: the likelihood over one row per copy, as
# evaluated before outcome count tables

def per_copy_vectors(data):
    return data.bases[data.basis_index, :, data.outcomes]


def per_copy_affine_loglik(vecs, model, theta):
    rho = model.state(theta)
    p = np.einsum("ni,ij,nj->n", vecs.conj(), rho, vecs).real
    return -np.inf if np.any(p <= 0.0) else float(np.sum(np.log(p)))


def per_copy_affine_mle(vecs, model, tol=1e-8, max_iters=400):
    """(theta, loglik) of projected gradient ascent over per-copy rows."""
    a = np.einsum("ni,ij,nj->n", vecs.conj(), model.rho0, vecs).real
    b = np.stack([np.einsum("ni,ij,nj->n", vecs.conj(), bm, vecs).real
                  for bm in model.basis], axis=1)

    def loglik(theta):
        p = a + b @ theta
        return -np.inf if np.any(p <= 0.0) else float(np.sum(np.log(p)))

    dom = model.domain
    theta = dom.reference_point.copy()
    f, step = loglik(theta), 1.0
    for _ in range(max_iters):
        grad = b.T @ (1.0 / (a + b @ theta))
        moved = False
        while step > 1e-14:
            cand = dom.project(theta + step * grad)
            fc = loglik(cand)
            if fc > f + 1e-12:
                theta, f, step, moved = cand, fc, min(step * 1.8, 1e3), True
                break
            step *= 0.5
        if not moved or np.linalg.norm(grad) < tol * max(1.0, len(vecs)):
            break
    return theta, f


def per_copy_pure_mle(vecs, d, tol=1e-8, max_iters=400):
    """(theta, loglik) of the three-start sphere ascent over per-copy rows."""
    arows = vecs.conj()

    def loglik(phi):
        p = np.abs(arows @ phi) ** 2
        return -np.inf if np.any(p <= 1e-300) else float(np.sum(np.log(p)))

    def ascend(phi):
        phi = phi / np.linalg.norm(phi)
        f = loglik(phi)
        if not np.isfinite(f):
            phi = (phi + 1e-6) / np.linalg.norm(phi + 1e-6)
            f = loglik(phi)
            if not np.isfinite(f):
                return f, phi
        step = 1.0 / max(1.0, len(arows))
        for _ in range(max_iters):
            amp = arows @ phi
            grad = arows.conj().T @ (amp / np.abs(amp) ** 2)
            grad -= phi * (phi.conj() @ grad)
            if np.linalg.norm(grad) < tol * max(1.0, len(arows)):
                return f, phi
            while step > 1e-16:
                cand = phi + step * grad
                cand /= np.linalg.norm(cand)
                fc = loglik(cand)
                if fc > f + 1e-12:
                    phi, f, step = cand, fc, min(step * 1.8, 1e3)
                    break
                step *= 0.5
            else:
                return f, phi
        return f, phi

    starts = [np.linalg.eigh(vecs.T.conj() @ vecs)[1][:, -1]]
    rng = np.random.default_rng(0)
    for _ in range(2):
        z = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        starts.append(z / np.linalg.norm(z))
    f, phi = max((ascend(s) for s in starts), key=lambda res: res[0])
    if abs(phi[0]) > 1e-12:
        phi = phi * (phi[0].conj() / abs(phi[0]))
    theta = np.empty(2 * (d - 1))
    theta[0::2], theta[1::2] = phi[1:].real, phi[1:].imag
    nrm = np.linalg.norm(theta)
    if nrm >= 1.0:
        theta *= (1.0 - 1e-9) / nrm
    return theta, f


def assert_reaches_per_copy_maximum(data, model):
    """mle_estimate reaches the maximum of the first-order per-copy ascent:
    the same point to 1e-6 and at least its log-likelihood, up to 1e-9|f|."""
    theta, f = per_copy_pure_mle(per_copy_vectors(data), model.dim)
    res = mle_estimate(data, model)
    assert res.converged
    assert res.loglik >= f - 1e-9 * abs(f)
    assert np.allclose(res.theta, theta, rtol=0.0, atol=1e-6)


def affine_runs(all_models):
    """(model, data) of fixed, alternating and two-step runs on the two
    affine qubit families."""
    runs = []
    for name, theta, fixed in (("bloch_equatorial", [0.3, -0.4], PAULI_BASES[0]),
                               ("bloch_full", [0.2, -0.3, 0.4], PAULI_BASES[2])):
        model = all_models[name]
        bases = PAULI_BASES[:model.num_params]
        for k, scheme in enumerate((fixed_basis_scheme(fixed),
                                    alternating_scheme(bases),
                                    two_step_scheme(model, 0.1))):
            runs.append((model, sample_outcomes(model, theta, scheme, 3000,
                                                seed=30 + k)))
    return runs


class TestCountTable:
    def test_rows_sum_to_n(self, all_models):
        # a row per (basis, outcome) pair, in that order, zero counts included
        for model, data in affine_runs(all_models):
            vecs, counts = outcome_table(data)
            assert counts.sum() == len(data.outcomes)
            assert np.all(counts >= 0)
            assert len(counts) == len(data.bases) * model.dim
            assert np.array_equal(vecs, np.concatenate([u.T for u in data.bases]))

    def test_count_loglik_equals_per_copy_sum(self, all_models):
        rng = np.random.default_rng(31)
        for model, data in affine_runs(all_models):
            (a, bt), counts = likelihood_table(data, model)
            vecs = per_copy_vectors(data)
            for _ in range(5):
                theta = 0.7 * model.domain.project(rng.uniform(-1, 1, model.num_params))
                ref = per_copy_affine_loglik(vecs, model, theta)
                assert _affine_loglik(a, bt, counts, theta) == pytest.approx(ref, rel=1e-12)

    def test_mle_matches_per_copy_ascent(self, all_models):
        for model, data in affine_runs(all_models):
            theta, f = per_copy_affine_mle(per_copy_vectors(data), model)
            res = mle_estimate(data, model)
            assert np.allclose(res.theta, theta, rtol=0.0, atol=1e-7)
            assert res.loglik == pytest.approx(f, rel=1e-9)

    def test_random_basis_table_is_per_copy(self, all_models):
        model = all_models["pure_qubit"]
        for n, seed in ((250, 32), (1000, 33)):
            data = sample_outcomes(model, [0.3, -0.2], random_basis_scheme(), n,
                                   seed=seed)
            vecs, counts = outcome_table(data)
            assert np.array_equal(vecs, per_copy_vectors(data))
            assert np.array_equal(counts, np.ones(n))
            assert_reaches_per_copy_maximum(data, model)

    def test_stacked_chart_equals_point_calls(self, all_models):
        # the draws of one table as a stack (1, p, 64) against 64 calls (1, p, 1)
        rng = np.random.default_rng(34)
        for name, scheme in (("bloch_equatorial", alternating_scheme(PAULI_BASES[:2])),
                             ("bloch_full", alternating_scheme(PAULI_BASES)),
                             ("pure_qubit", random_basis_scheme())):
            model = all_models[name]
            data = sample_outcomes(model, 0.3 * np.ones(model.num_params), scheme,
                                   500, seed=35)
            loglik = draws_loglik(data, model)
            # reaching past the domain: points off the chart give -inf
            thetas = rng.uniform(-1.1, 1.1, (64, model.num_params))
            stacked = loglik(thetas.T[None])[0]
            points = np.array([loglik(t[None, :, None])[0, 0] for t in thetas])
            assert stacked.shape == (64,)
            assert np.array_equal(np.isfinite(stacked), np.isfinite(points))
            assert np.isfinite(points).sum() >= 16
            fin = np.isfinite(points)
            assert np.allclose(stacked[fin], points[fin], rtol=1e-12, atol=0.0)


def rim_data(y_ones):
    """60 copies each in the x and y bases of bloch_equatorial, every x copy
    and all but y_ones of the y copies giving outcome 0: the unconstrained
    maximum lies outside the unit disc."""
    outcomes = np.zeros(120, dtype=np.int64)
    outcomes[1:2 * y_ones:2] = 1
    return SampleData(bases=np.stack(PAULI_BASES[:2]), basis_index=np.arange(120) % 2,
                      outcomes=outcomes, scheme_kind="alternating_bases")


def box_model():
    """The Bloch ball's three directions on a box that cuts into it."""
    return affine_model(0.5 * np.eye(2), [0.5 * s for s in PAULIS],
                        Domain("box", bounds=((-0.5, 0.5), (-0.4, 0.4), (-0.5, 0.5)),
                               dim=3))


def count_affine_logliks(monkeypatch):
    """A list that grows by one at every affine log-likelihood evaluation."""
    real, calls = simulate._affine_loglik, []

    def counting(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(simulate, "_affine_loglik", counting)
    return calls


class TestAffineNewton:
    @pytest.mark.parametrize("y_ones", [0, 10])
    def test_boundary_maximum_on_rim(self, all_models, monkeypatch, y_ones):
        model = all_models["bloch_equatorial"]
        data = rim_data(y_ones)
        calls = count_affine_logliks(monkeypatch)
        res = mle_estimate(data, model)
        # Newton steps along the rim; projected gradient steps need 50-220
        assert len(calls) <= 20
        assert res.boundary and res.converged
        assert np.linalg.norm(res.theta) == pytest.approx(1.0, abs=1e-12)
        (a, bt), counts = likelihood_table(data, model)
        grad = bt @ (counts / (a + res.theta @ bt))
        # KKT on the rim: the gradient is an outward normal
        assert grad @ res.theta > 0.0
        assert np.allclose(grad / np.linalg.norm(grad), res.theta, rtol=0.0, atol=1e-6)
        _, f = per_copy_affine_mle(per_copy_vectors(data), model)
        assert res.loglik >= f - 1e-12 * abs(f)

    def test_box_domain_matches_per_copy_ascent(self):
        model = box_model()
        assert model.family == "affine_custom"
        # the fourth basis couples the coordinates
        bases = (*PAULI_BASES, _direction_basis(np.array([1.0, 1.0, 1.0]) / np.sqrt(3.0)))
        hits = []
        for k, theta in enumerate(([0.2, -0.1, 0.3], [0.5, 0.4, -0.2])):
            data = sample_outcomes(model, theta, alternating_scheme(bases), 3000,
                                   seed=40 + k)
            ref, f = per_copy_affine_mle(per_copy_vectors(data), model)
            res = mle_estimate(data, model)
            assert res.converged
            assert np.allclose(res.theta, ref, rtol=0.0, atol=1e-7)
            assert res.loglik == pytest.approx(f, rel=1e-9)
            hits.append(res.boundary)
        assert hits == [False, True]

    def test_likelihood_evaluations_per_mle(self, all_models, monkeypatch):
        # a first-order projected ascent needs about 72 per MLE on these runs
        runs = affine_runs(all_models)
        calls = count_affine_logliks(monkeypatch)
        for model, data in runs:
            assert mle_estimate(data, model).converged
        assert len(calls) <= 20 * len(runs)


def tetrahedron_data():
    """One copy in each of four bases whose first vectors point at the
    corners of a tetrahedron on the Bloch sphere, every outcome 0: the
    likelihood has its maxima at the corners and saddle points midway
    between two of them."""
    corners = np.array([[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]]) / np.sqrt(3.0)
    bases = np.stack([_direction_basis(c) for c in corners])
    data = SampleData(bases=bases, basis_index=np.arange(4),
                      outcomes=np.zeros(4, dtype=np.int64), scheme_kind="alternating_bases")
    return corners, data


def chart_hessian(loglik, phi, h=1e-4):
    """Finite-difference Hessian of loglik((phi + q v)/|phi + q v|) at v = 0
    in the real coordinates (Re v, Im v), for a qubit amplitude phi."""
    q = np.array([-phi[1].conj(), phi[0].conj()])  # orthogonal to phi

    def f(x):
        psi = phi + (x[0] + 1j * x[1]) * q
        return loglik(psi / np.linalg.norm(psi))

    e = h * np.eye(2)
    return np.array([[(f(a + b) - f(a - b) - f(b - a) + f(-a - b)) / (4 * h * h)
                      for b in e] for a in e])


class TestNewtonAscent:
    def test_reaches_first_order_maximum(self, all_models):
        models = (all_models["pure_qubit"], all_models["pure_dim_3"], pure_state_model(4))
        for model in models:
            rng = np.random.default_rng(60 + model.dim)
            for n in (250, 1000):
                theta = bump_prior(model.num_params, 0.8).sample(rng)
                data = sample_outcomes(model, theta, random_basis_scheme(), n, seed=rng)
                assert_reaches_per_copy_maximum(data, model)

    def test_gradient_step_next_to_a_saddle(self, all_models, monkeypatch):
        corners, data = tetrahedron_data()
        acols, counts = likelihood_table(data, all_models["pure_qubit"])

        def loglik(phi):
            return _count_loglik(_pure_probs(acols, phi), counts)

        # a little off the saddle between corners 0 and 1, towards corner 0
        start = _direction_basis(corners[0] + corners[1] + 0.05 * (corners[0] - corners[1]))[:, 0]
        assert np.linalg.eigvalsh(-chart_hessian(loglik, start))[0] < 0.0
        real_cholesky, refused = np.linalg.cholesky, []

        def cholesky(a):
            try:
                return real_cholesky(a)
            except np.linalg.LinAlgError:
                refused.append(a)
                raise

        monkeypatch.setattr(np.linalg, "cholesky", cholesky)
        f, phi, converged = _ascend_sphere(acols, counts, start, loglik)
        assert refused  # the gradient step was taken
        assert converged
        peak = _direction_basis(corners[0])[:, 0]
        assert f == pytest.approx(loglik(peak), abs=1e-12)
        assert abs(np.vdot(peak, phi)) == pytest.approx(1.0, abs=1e-9)
        assert np.linalg.eigvalsh(-chart_hessian(loglik, phi))[0] > 0.0


def seed_2024_trial(model, trial, n_copies=250, bump=0.8):
    """The data of one trial of a random-basis risk run at seed 2024 (bump
    0.8 prior: pure_rb), drawn as bayes_risk_mc draws it."""
    rng = np.random.default_rng(np.random.SeedSequence(entropy=2024, spawn_key=(trial,)))
    theta = bump_prior(model.num_params, bump).sample(rng)
    return sample_outcomes(model, theta, random_basis_scheme(), n_copies, seed=rng)


@pytest.fixture
def count_ascents(monkeypatch):
    """The start of every _ascend_sphere call, in call order."""
    starts, real = [], simulate._ascend_sphere

    def counted(acols, counts, phi, *rest):
        starts.append(phi)
        return real(acols, counts, phi, *rest)

    monkeypatch.setattr(simulate, "_ascend_sphere", counted)
    return starts


def sphere_loglik(acols, counts):
    return lambda phi: _count_loglik(_pure_probs(acols, phi), counts)


def sphere_starts(acols, counts):
    """The first start of a pure MLE, the conjugate top eigenvector of
    sum c conj(e) e^T (the top eigenvector of sum c e e^H), followed by the
    three fallback starts."""
    d = acols.shape[0]
    top = np.linalg.eigh((acols * counts) @ acols.T.conj())[1][:, -1]
    rng = np.random.default_rng(0)
    starts = [top.conj(), top]
    for _ in range(2):
        z = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        starts.append(z / np.linalg.norm(z))
    return starts


def ascents(acols, counts, starts):
    """(loglik, phi, converged) of _ascend_sphere from each start."""
    loglik = sphere_loglik(acols, counts)
    return [_ascend_sphere(acols, counts, s, loglik) for s in starts]


def four_start_ascents(acols, counts):
    return ascents(acols, counts, sphere_starts(acols, counts))


def margin(counts):
    return _CERT_MARGIN * counts.sum()


def bloch_gap(acols, counts, phi):
    """The qubit bound in Bloch terms, an oracle for _pure_gap.  With m the
    Bloch vectors of the table rows and n that of phi, F(x) = sum c log(1 + x.m)
    on the sphere |x| = 1; mu = n.grad F(n), r = grad F(n) - mu n and
    kappa = lambda_min(sum c m m^T)/4 + mu give sqrt(kappa^2 + |r|^2) - kappa."""
    def bloch(amps):  # of qubit amplitudes (2,) or (2, rows)
        cross = amps[0].conj() * amps[1]
        return np.stack([2.0 * cross.real, 2.0 * cross.imag,
                         abs(amps[0]) ** 2 - abs(amps[1]) ** 2])

    m, n = bloch(acols.conj()), bloch(phi)  # acols holds conjugated amplitudes
    grad = m @ (counts / (1.0 + n @ m))
    mu = n @ grad
    r2 = np.sum((grad - mu * n) ** 2)
    kappa = np.linalg.eigvalsh((m * counts) @ m.T)[0] / 4.0 + mu
    root = math.sqrt(kappa * kappa + r2)
    return root - kappa if kappa <= 0.0 else r2 / (root + kappa)


def gell_mann_gap(acols, counts, phi):
    """The bound of _pure_gap from its definition, an oracle for any d:
    E = e e^H as matrices, and l the least eigenvalue of sum c E0 E0^T over
    the generalized Gell-Mann basis of the traceless Hermitian matrices."""
    d = len(phi)
    basis = []
    for a in range(d):
        for b in range(a + 1, d):
            for w in (1.0, 1j):
                x = np.zeros((d, d), dtype=complex)
                x[a, b], x[b, a] = w / math.sqrt(2.0), np.conj(w) / math.sqrt(2.0)
                basis.append(x)
    for k in range(1, d):
        basis.append(np.diag(np.r_[np.ones(k), -k, np.zeros(d - k - 1)] / math.sqrt(k * (k + 1))))
    e = acols.conj().T
    proj = e[:, :, None] * e[:, None, :].conj()
    y = np.einsum("kab,rba->kr", np.array(basis, dtype=complex), proj).real
    ell = np.linalg.eigvalsh((y * counts) @ y.T)[0]
    p = np.einsum("a,rab,b->r", phi.conj(), proj, phi).real
    big = np.einsum("r,rab->ab", counts / p, proj) + ell * np.outer(phi, phi.conj())
    return np.linalg.eigvalsh(big)[-1] - (phi.conj() @ big @ phi).real


def haar_states(rng, d, n):
    z = rng.standard_normal((n, d)) + 1j * rng.standard_normal((n, d))
    return z / np.linalg.norm(z, axis=1, keepdims=True)


def assert_not_beaten(acols, counts, phi, gap, states):
    """No state of a stack (n, d) beats phi by more than gap."""
    best = _count_loglik(_pure_probs(acols, states), counts).max()
    f = _count_loglik(_pure_probs(acols, phi), counts)
    assert best - f <= gap + 1e-12


class TestQubitCertificate:
    def test_certified_trial_ascends_once(self, all_models, count_ascents):
        model = all_models["pure_qubit"]
        data = seed_2024_trial(model, 0)
        acols, counts = likelihood_table(data, model)
        f, phi, _ = four_start_ascents(acols, counts)[0]
        count_ascents.clear()
        res = mle_estimate(data, model)
        assert len(count_ascents) == 1
        assert res.converged
        assert res.loglik == f
        assert _pure_gap(acols, counts, phi) <= margin(counts)

    def test_local_maximum_is_refused(self, all_models, count_ascents):
        # trial 1487 (see test_pure_mle_escapes_local_maximum): the first
        # start ascends to the lower maximum, 0.0812 below the best, and the
        # bound there covers that shortfall
        model = all_models["pure_qubit"]
        data = seed_2024_trial(model, 1487)
        acols, counts = likelihood_table(data, model)
        runs = four_start_ascents(acols, counts)
        f, phi, converged = runs[0]
        assert converged
        assert f == pytest.approx(-133.3352, abs=1e-3)
        best = max(run[0] for run in runs)
        assert best - f == pytest.approx(0.0812, abs=1e-4)
        assert _pure_gap(acols, counts, phi) >= best - f
        count_ascents.clear()
        res = mle_estimate(data, model)
        assert len(count_ascents) == 4
        assert res.loglik == pytest.approx(-133.2540, abs=1e-3)

    def test_tied_maxima_are_refused(self, all_models, count_ascents):
        # at a corner of the tetrahedron mu = -1 and lambda_min/4 = 1/3, so
        # kappa = -2/3, r = 0 and the bound is 2|kappa|
        corners, data = tetrahedron_data()
        acols, counts = likelihood_table(data, all_models["pure_qubit"])
        for corner in corners:
            gap = _pure_gap(acols, counts, _direction_basis(corner)[:, 0])
            assert gap == pytest.approx(4.0 / 3.0, abs=1e-12)
        res = mle_estimate(data, all_models["pure_qubit"])
        assert len(count_ascents) == 4
        assert res.converged
        assert res.loglik == pytest.approx(np.log(1.0 / 3.0 ** 3), abs=1e-9)

    def test_margin_refuses_near_stationary_point(self, all_models, monkeypatch):
        model = all_models["pure_qubit"]
        data = seed_2024_trial(model, 0)
        acols, counts = likelihood_table(data, model)
        f, phi, _ = four_start_ascents(acols, counts)[0]
        loglik = sphere_loglik(acols, counts)

        def off_maximum(step):
            psi = phi + step * np.array([-phi[1].conj(), phi[0].conj()])
            return psi / np.linalg.norm(psi)

        # 1e-5 off the maximum the bound is below the margin, 3e-5 off above it
        assert _pure_gap(acols, counts, off_maximum(1e-5)) <= margin(counts)
        near = off_maximum(3e-5)
        gap = _pure_gap(acols, counts, near)
        assert margin(counts) < gap < np.inf
        assert f - loglik(near) <= gap
        calls, real = [], simulate._ascend_sphere

        def stops_near(*args):
            calls.append(args[2])
            return (loglik(near), near, True) if len(calls) == 1 else real(*args)

        monkeypatch.setattr(simulate, "_ascend_sphere", stops_near)
        res = mle_estimate(data, model)
        assert len(calls) == 4
        assert res.loglik == pytest.approx(f, abs=1e-9)

    def test_bound_holds_on_a_sphere_grid(self, all_models):
        # at random points of random small tables no state of a 4,000-point
        # Fibonacci grid beats the bound, which equals the Bloch form
        model = all_models["pure_qubit"]
        k = np.arange(4000) + 0.5
        z, ang = 1.0 - 2.0 * k / k.size, np.pi * (1.0 + 5.0 ** 0.5) * k
        rad = np.sqrt(1.0 - z * z)
        grid = np.stack([_direction_basis(u)[:, 0] for u in
                         np.stack([rad * np.cos(ang), rad * np.sin(ang), z], axis=1)])
        rng = np.random.default_rng(5)
        for _ in range(300):
            theta = rng.uniform(-0.5, 0.5, 2)
            data = sample_outcomes(model, theta, random_basis_scheme(),
                                   int(rng.integers(3, 40)), seed=rng)
            acols, counts = likelihood_table(data, model)
            phi = grid[rng.integers(grid.shape[0])]
            gap = _pure_gap(acols, counts, phi)
            assert gap == pytest.approx(bloch_gap(acols, counts, phi), rel=1e-9)
            assert_not_beaten(acols, counts, phi, gap, grid)

    def test_certified_loglik_is_not_beaten(self, all_models):
        model = all_models["pure_qubit"]
        certified = 0
        for trial in range(200):
            acols, counts = likelihood_table(seed_2024_trial(model, trial), model)
            runs = four_start_ascents(acols, counts)
            f, phi, converged = runs[0]
            gap = _pure_gap(acols, counts, phi)
            if not (converged and gap <= margin(counts)):
                continue
            certified += 1
            best = max(run[0] for run in runs)
            assert best - f <= gap + 1e-12 * abs(f)
        assert certified >= 150


class TestPureCertificate:
    """The same certificate for d > 2: pure_dim_d trials at seed 2024 with a
    bump 0.5 prior."""

    def test_certified_trial_ascends_once(self, count_ascents):
        model = pure_state_model(3)
        data = seed_2024_trial(model, 0, bump=0.5)
        acols, counts = likelihood_table(data, model)
        f, phi, converged = four_start_ascents(acols, counts)[0]
        assert converged and _pure_gap(acols, counts, phi) <= margin(counts)
        count_ascents.clear()
        res = mle_estimate(data, model)
        assert len(count_ascents) == 1
        assert res.converged and res.loglik == f

    def test_uncertified_trial_ascends_four_times(self, count_ascents):
        model = pure_state_model(3)
        data = seed_2024_trial(model, 1, bump=0.5)
        acols, counts = likelihood_table(data, model)
        starts = sphere_starts(acols, counts)
        runs = ascents(acols, counts, starts)
        assert not (runs[0][2] and _pure_gap(acols, counts, runs[0][1]) <= margin(counts))
        count_ascents.clear()
        res = mle_estimate(data, model)
        assert len(count_ascents) == 4
        for seen, start in zip(count_ascents, starts):  # the three fallback starts last
            assert np.array_equal(seen, start)
        f, phi, converged = max(runs, key=lambda run: run[0])
        phi = phi * (phi[0].conj() / abs(phi[0]))
        assert res.loglik == f and res.converged == converged
        assert np.array_equal(res.theta[0::2], phi[1:].real)
        assert np.array_equal(res.theta[1::2], phi[1:].imag)

    @pytest.mark.parametrize("d, n_copies, trials, least", [(3, 250, 100, 50), (4, 1000, 40, 8)])
    def test_certified_loglik_is_not_beaten(self, d, n_copies, trials, least):
        # neither the fallback starts nor 2,000 Haar-random states beat a
        # certified point by more than its bound
        model = pure_state_model(d)
        rng = np.random.default_rng(7)
        certified = 0
        for trial in range(trials):
            data = seed_2024_trial(model, trial, n_copies, bump=0.5)
            acols, counts = likelihood_table(data, model)
            runs = four_start_ascents(acols, counts)
            f, phi, converged = runs[0]
            gap = _pure_gap(acols, counts, phi)
            if not (converged and gap <= margin(counts)):
                continue
            certified += 1
            assert max(run[0] for run in runs) - f <= gap + 1e-12 * abs(f)
            assert_not_beaten(acols, counts, phi, gap, haar_states(rng, d, 2000))
        assert certified >= least

    @pytest.mark.parametrize("d", [3, 4])
    def test_bound_holds_at_haar_states(self, d):
        # at random points of random small tables no state of 2,000
        # Haar-random ones beats the bound, which equals the Gell-Mann form
        model = pure_state_model(d)
        rng = np.random.default_rng(5)
        for _ in range(100):
            theta = rng.uniform(-0.3, 0.3, model.num_params)
            data = sample_outcomes(model, theta, random_basis_scheme(),
                                   int(rng.integers(3, 40)), seed=rng)
            acols, counts = likelihood_table(data, model)
            phi = haar_states(rng, d, 1)[0]
            gap = _pure_gap(acols, counts, phi)
            assert gap == pytest.approx(gell_mann_gap(acols, counts, phi), rel=1e-9)
            assert_not_beaten(acols, counts, phi, gap, haar_states(rng, d, 2000))


def per_draw_bayes_mean(data, model, prior, n_samples=256, spread=1.3, seed=0):
    """The posterior mean with one likelihood call per draw."""
    mle = mle_estimate(data, model)
    stack = draws_loglik(data, model)

    def loglik(theta):  # a draw (p,), weighed as a stack of one
        return stack(theta[None, :, None])[0, 0]

    p = model.num_params
    center = model.domain.project(mle.theta * (1.0 - 1e-9))
    h, hess, f0 = 1e-4, np.zeros((p, p)), loglik(center)
    for i in range(p):
        for j in range(i, p):
            ei, ej = np.zeros(p), np.zeros(p)
            ei[i] = ej[j] = h
            hess[i, j] = hess[j, i] = (loglik(center + ei + ej) - loglik(center + ei)
                                       - loglik(center + ej) + f0) / h ** 2
    cov = np.linalg.inv(-hess + 1e-6 * np.eye(p)) * spread ** 2
    cov = 0.5 * (cov + cov.T)
    w, v = np.linalg.eigh(cov)
    root = (v * np.sqrt(np.clip(w, 1e-12, None))) @ v.T
    rng = np.random.default_rng(seed)
    draws = center + rng.standard_normal((n_samples, p)) @ root.T
    logq = -0.5 * np.einsum("ni,ij,nj->n", draws - center,
                            np.linalg.inv(cov), draws - center)
    logw = np.full(n_samples, -np.inf)
    for i, t in enumerate(draws):
        dens = prior.density(t)
        if model.domain.contains(t) and dens > 0.0:
            logw[i] = loglik(t) + math.log(dens) - logq[i]
    finite = np.isfinite(logw)
    wts = np.exp(logw[finite] - np.max(logw[finite]))
    return (wts[:, None] * draws[finite]).sum(axis=0) / wts.sum()


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

    def test_stacked_weights_equal_per_draw_loop(self, all_models):
        for name, scheme, n in (
                ("bloch_equatorial", alternating_scheme(PAULI_BASES[:2]), 4000),
                ("bloch_equatorial", alternating_scheme(PAULI_BASES[:2]), 60),
                ("bloch_full", alternating_scheme(PAULI_BASES), 2000),
                ("pure_qubit", random_basis_scheme(), 300)):
            model = all_models[name]
            prior = bump_prior(model.num_params, 0.8)
            data = sample_outcomes(model, 0.35 * np.ones(model.num_params) / model.num_params,
                                   scheme, n, seed=36)
            est, _ = bayes_mean_estimate(data, model, prior, seed=37)
            ref = model.domain.project(per_draw_bayes_mean(data, model, prior, seed=37))
            assert np.allclose(est, ref, rtol=0.0, atol=1e-12)

    def test_draws_likelihood_on_crafted_tables(self):
        # the rows-first likelihood of the posterior mean's draws against
        # _affine_loglik, table by table: a zero-count row adds 0 whatever
        # its probability (table 0: 0 and NaN; table 3: every row), and an
        # observed row at _P_FLOOR (table 1) or of NaN probability (table 2)
        # gives -inf
        a = np.full((4, 4), 0.5)
        bt = np.tile(0.5 * np.array([[1.0, -1.0, 0.0, 0.0], [0.0, 0.0, 1.0, -1.0]]), (4, 1, 1))
        counts = np.tile([3.0, 0.0, 5.0, 0.0], (4, 1))
        a[0, 1], bt[0, :, 1], a[0, 3] = 0.0, 0.0, np.nan
        a[1, 0], bt[1, :, 0] = simulate._P_FLOOR, 0.0
        a[2, 2] = np.nan
        counts[3], a[3, 1] = 0.0, np.nan
        points = np.random.default_rng(70).uniform(-0.5, 0.5, (4, 2, 32))
        ll = simulate._draws_loglik(a, bt, counts, points)
        assert ll.shape == (4, 32)
        for t in range(4):
            assert np.array_equal(ll[t], _affine_loglik(a[t], bt[t], counts[t], points[t].T))
        assert np.all(np.isfinite(ll[0])) and np.all(ll[0] < 0.0)
        assert np.all(ll[1] == -np.inf) and np.all(ll[2] == -np.inf)
        assert np.all(ll[3] == 0.0)

    def test_draws_likelihood_chunks_equal_tables_alone(self):
        # chunks of _STACKED_ROWS // R tables: 5 tables of 100 rows (chunks of
        # 2, 2 and 1) and 3 of 300 rows (chunks of 1), each against the table
        # weighed alone, bit for bit
        rng = np.random.default_rng(72)
        for n_tables, rows in ((5, 100), (3, 300)):
            a = rng.uniform(0.3, 0.7, (n_tables, rows))
            bt = rng.uniform(-0.1, 0.1, (n_tables, 3, rows))
            counts = rng.integers(0, 4, (n_tables, rows)).astype(float)
            points = rng.uniform(-1.0, 1.0, (n_tables, 3, 256))
            ll = simulate._draws_loglik(a, bt, counts, points)
            assert ll.shape == (n_tables, 256) and np.all(np.isfinite(ll))
            for t in range(n_tables):
                one = simulate._draws_loglik(a[t:t + 1], bt[t:t + 1], counts[t:t + 1],
                                             points[t:t + 1])
                assert np.array_equal(ll[t], one[0])


class TestTwoStep:
    def test_stage2_bases_replayable(self, all_models):
        # stage-2 bases are a deterministic function of stage-1 data
        model = all_models["bloch_equatorial"]
        scheme = two_step_scheme(model, 0.1)
        data = sample_outcomes(model, [0.4, 0.2], scheme, 2000, seed=8)
        k1 = len(scheme.bases)
        n1 = int(np.sum(data.basis_index < k1))
        stage1 = SampleData(bases=data.bases[:k1],
                            basis_index=data.basis_index[:n1],
                            outcomes=data.outcomes[:n1], scheme_kind="alternating_bases")
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


def trial_start(prior, seed, trial):
    """(rng, theta) of a trial, drawn as bayes_risk_mc draws it."""
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(trial,)))
    return rng, prior.sample(rng)


def block_estimates(model, prior, scheme, estimator, n_copies, trials, seed=2024):
    """(estimates, boundary flags) of seeded trials sampled and estimated as
    one block, the way bayes_risk_mc runs a block."""
    starts = [trial_start(prior, seed, t) for t in trials]
    rhos = model.state(np.array([theta for _, theta in starts]))
    coeffs, counts = simulate._sample_block(model, scheme, n_copies, rhos,
                                            [rng for rng, _ in starts])
    if estimator == "mle":
        res = simulate._mle_block(model, coeffs, counts)
        return res.theta, res.boundary
    est, res = simulate._bayes_mean_block(model, coeffs, counts, prior)
    return est, res.boundary


# (family, prior radius, scheme, estimator, N): the affine MLE inside the
# disc and on its rim, two-step, and the posterior mean inside and on the rim
BLOCK_CONFIGS = {
    "eq_alt_mle_20": ("bloch_equatorial", 0.8, "alternating", "mle", 20),
    "bf_two_step_mle_4000": ("bloch_full", 0.9, "two_step", "mle", 4000),
    "eq_two_step_mle_4000": ("bloch_equatorial", 0.8, "two_step", "mle", 4000),
    "eq_alt_bayes_4000": ("bloch_equatorial", 0.8, "alternating", "bayes_mean", 4000),
    "eq_alt_bayes_20": ("bloch_equatorial", 0.8, "alternating", "bayes_mean", 20),
    # two-step tables of 8 and 12 rows (stage 1 and the adapted bases) in
    # the posterior mean's stacked likelihood, chunks of 32 and 21 tables
    "eq_two_step_bayes_4000": ("bloch_equatorial", 0.8, "two_step", "bayes_mean", 4000),
    "bf_two_step_bayes_300": ("bloch_full", 0.9, "two_step", "bayes_mean", 300),
    # a row per copy: more rows than a chunk of the posterior mean holds,
    # so its likelihood takes one table at a time
    "bf_random_bayes_300": ("bloch_full", 0.9, "random", "bayes_mean", 300),
    # pure tables of three Haar bases, two thresholds a basis
    "p3_haar_mle_250": ("pure_dim_3", 0.5, "haar", "mle", 250),
}
# trials per block of each config: 256 // rows for tables of K d rows (two-step:
# stage 1), at least 16; a table of random bases has N rows
BLOCK_TRIALS = {"eq_alt_mle_20": 64, "bf_two_step_mle_4000": 42, "eq_two_step_mle_4000": 64,
                "eq_alt_bayes_4000": 64, "eq_alt_bayes_20": 64, "eq_two_step_bayes_4000": 64,
                "bf_two_step_bayes_300": 42, "bf_random_bayes_300": 16, "p3_haar_mle_250": 28}


def block_config(all_models, name):
    family, radius, scheme, estimator, n = BLOCK_CONFIGS[name]
    model = all_models[family]
    scheme = {"two_step": lambda: two_step_scheme(model, 0.1), "random": random_basis_scheme,
              "alternating": lambda: alternating_scheme(PAULI_BASES[:model.num_params]),
              "haar": lambda: alternating_scheme(
                  haar_unitaries(model.dim, 3, np.random.default_rng(5)))}[scheme]()
    return model, bump_prior(model.num_params, radius), scheme, estimator, n


class TestTrialBlocks:
    @pytest.mark.parametrize("name", list(BLOCK_CONFIGS))
    def test_block_does_not_change_a_trial(self, all_models, name):
        # each trial of a full block against the same trial as a block of one
        model, prior, scheme, estimator, n = block_config(all_models, name)
        trials = range(BLOCK_TRIALS[name])
        est, hits = block_estimates(model, prior, scheme, estimator, n, trials)
        if n == 20:
            assert 0 < hits.sum() < len(trials)  # the rim and the inside
        for t in trials:
            one_est, one_hit = block_estimates(model, prior, scheme, estimator, n, [t])
            assert np.array_equal(one_est[0], est[t])
            assert one_hit[0] == hits[t]
        est_kind = Estimator(estimator)
        losses, boundary, errors = simulate._run_trials(model, prior, scheme, est_kind,
                                                        n, 2024, trials)
        singles = [simulate._run_trials(model, prior, scheme, est_kind, n, 2024, [t])
                   for t in trials]
        assert losses == [run[0][0] for run in singles]
        assert boundary == sum(run[1] for run in singles) == hits.sum()
        assert errors == []

    @pytest.mark.parametrize("name", ["eq_two_step_mle_4000", "eq_alt_bayes_4000"])
    def test_workers_are_bit_identical(self, all_models, name):
        # 300 trials: the pool's chunks of 38 trials are blocks of their own,
        # which start at other trials than the serial run's blocks of 64
        model, prior, scheme, estimator, n = block_config(all_models, name)
        runs = [bayes_risk_mc(model, prior, scheme, Estimator(estimator), n, trials=300,
                              seed=2024, workers=w) for w in (1, 2)]
        assert runs[0].to_dict() == runs[1].to_dict()

    @pytest.mark.parametrize("name", list(BLOCK_CONFIGS))
    def test_row_sized_blocks_equal_blocks_of_16(self, all_models, monkeypatch, name):
        # the blocks _run_trials picks, run as they are and cut into blocks of
        # 16: equal losses, boundary hits and errors
        model, prior, scheme, estimator, n = block_config(all_models, name)
        sizes, real = [], simulate._trial_block

        def blocks_of(split):
            def run(*args):
                *head, starts = args
                sizes.append(len(starts))
                step = split or len(starts)
                runs = [real(*head, starts[lo:lo + step]) for lo in range(0, len(starts), step)]
                return sum((vals for vals, _ in runs), []), sum(hits for _, hits in runs)
            return run

        results = []
        for split in (None, 16):
            monkeypatch.setattr(simulate, "_trial_block", blocks_of(split))
            results.append(simulate._run_trials(model, prior, scheme, Estimator(estimator),
                                                n, 2024, range(100)))
        size = BLOCK_TRIALS[name]
        assert sizes == 2 * ([size] * (100 // size) + [100 % size])
        assert results[0] == results[1]

    @pytest.mark.parametrize("n", [300, 4000])
    def test_random_bases_keep_blocks_of_16(self, all_models, monkeypatch, n):
        # a block of per-copy tables holds 16 of them, whatever N (its memory)
        sizes = []

        def no_work(*args):  # records the block's size, estimates nothing
            sizes.append(len(args[-1]))
            return [0.0] * sizes[-1], 0

        monkeypatch.setattr(simulate, "_trial_block", no_work)
        simulate._run_trials(all_models["pure_qubit"], bump_prior(2, 0.8), random_basis_scheme(),
                             Estimator("mle"), n, 2024, range(40))
        assert sizes == [16, 16, 8]

    def test_failing_trial_is_charged_alone(self, all_models, monkeypatch):
        # trial 5's table makes estimation raise: its block runs again trial
        # by trial, trial 5 fails with its own error, the rest keep their losses
        model, prior, scheme, _, n = block_config(all_models, "eq_alt_bayes_4000")
        starts = [trial_start(prior, 2024, 5)]
        _, counts = simulate._sample_block(model, scheme, n, model.state(starts[0][1][None]),
                                           [starts[0][0]])
        real = simulate._mle_block

        def refuses_trial_5(model, coeffs, counts_, *rest):
            if np.any(np.all(counts_ == counts[0], axis=-1)):
                raise RuntimeError("trial 5 refused")
            return real(model, coeffs, counts_, *rest)

        clean = simulate._run_trials(model, prior, scheme, Estimator("mle"), n, 2024, range(32))
        monkeypatch.setattr(simulate, "_mle_block", refuses_trial_5)
        losses, boundary, errors = simulate._run_trials(model, prior, scheme,
                                                        Estimator("mle"), n, 2024, range(32))
        assert errors == [repr(RuntimeError("trial 5 refused"))]
        assert np.isnan(losses[5])
        assert losses[:5] + losses[6:] == clean[0][:5] + clean[0][6:]
        assert boundary == clean[1]


class TestEmpiricalFisher:
    def test_fixed_basis_equals_povm_fisher(self, all_models):
        model = all_models["bloch_full"]
        theta = np.array([0.1, 0.2, -0.3])
        emp = empirical_fisher(model, theta, fixed_basis_scheme(PAULI_BASES[2]))
        exact = povm_fisher(model, theta, basis_povm(PAULI_BASES[2]))
        assert np.array_equal(emp.matrix, exact.matrix)
        assert np.all(emp.std_error == 0.0)
        alt = empirical_fisher(model, theta, alternating_scheme((PAULI_BASES[2],)))
        assert np.array_equal(emp.matrix, alt.matrix)

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

    @pytest.mark.parametrize("name, scheme", [
        ("pure_qubit", "random"), ("bloch_full", "random"), ("pure_dim_3", "random"),
        ("bloch_full", "fixed"), ("bloch_equatorial", "alternating"),
        ("bloch_full", "two_step"), ("pure_qubit", "two_step")])
    def test_equals_per_basis_reference(self, all_models, name, scheme):
        # one povm_fisher call per basis, averaged as the scheme weighs them
        model = all_models[name]
        theta = 0.6 * bump_prior(model.num_params, 0.9).sample(np.random.default_rng(3))

        def per_basis(bases):
            return [povm_fisher(model, theta, basis_povm(u)).matrix for u in bases]

        if scheme == "random":
            emp = empirical_fisher(model, theta, random_basis_scheme(), n_bases=400, seed=21)
            mats = per_basis(haar_unitaries(model.dim, 400, np.random.default_rng(21)))
            ref, se = np.mean(mats, axis=0), np.std(mats, axis=0, ddof=1) / math.sqrt(400)
        elif scheme == "two_step":
            sch = two_step_scheme(model, 0.3)
            emp = empirical_fisher(model, theta, sch)
            ref = (0.3 * np.mean(per_basis(sch.bases), axis=0)
                   + 0.7 * np.mean(per_basis(adapted_bases(model, theta)), axis=0))
            se = np.zeros_like(ref)
        else:
            bases = PAULI_BASES[2:] if scheme == "fixed" else PAULI_BASES[:2]
            sch = fixed_basis_scheme(bases[0]) if scheme == "fixed" else alternating_scheme(bases)
            emp = empirical_fisher(model, theta, sch)
            ref, se = np.mean(per_basis(bases), axis=0), np.zeros((model.num_params,) * 2)
        scale = np.max(np.abs(ref))
        assert np.max(np.abs(emp.matrix - ref)) <= 1e-12 * scale
        assert np.max(np.abs(emp.std_error - se)) <= 1e-12 * scale

    @pytest.mark.parametrize("name", ["pure_qubit", "bloch_full", "pure_dim_3"])
    def test_stacked_povm_fisher_is_each_basis_bit_for_bit(self, all_models, name):
        # haar_unitaries returns a strided stack; its contiguous copy and a
        # tuple of the bases must give the same matrices as one basis at a time
        model = all_models[name]
        theta = 0.6 * bump_prior(model.num_params, 0.9).sample(np.random.default_rng(4))
        us = haar_unitaries(model.dim, 64, np.random.default_rng(8))
        singles = np.stack([povm_fisher(model, theta, basis_povm(u)).matrix for u in us])
        for stack in (us, np.ascontiguousarray(us), tuple(us)):
            assert np.array_equal(povm_fisher(model, theta, basis_povm(stack)).matrix, singles)

    def test_non_unitary_scheme_basis_rejected(self, all_models):
        model = all_models["bloch_full"]
        theta = np.array([0.1, 0.2, -0.3])
        skewed = np.array([[1.0, 0.1], [0.0, 1.0]], dtype=complex)
        for scheme in (fixed_basis_scheme(skewed),
                       alternating_scheme((PAULI_BASES[0], 1.01 * PAULI_BASES[1])),
                       MeasurementScheme("two_step_adaptive", (PAULI_BASES[0], skewed), 0.5)):
            with pytest.raises(ValueError, match="sum to the identity"):
                empirical_fisher(model, theta, scheme)
        with pytest.raises(ValueError, match="sum to the identity"):
            basis_povm(skewed)  # the per-basis POVM says the same


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
        # every third estimation call raises: whole blocks, then the trials
        # of a block that raised, run again one at a time; 200 trials make
        # four blocks of (up to) 64 on bloch_equatorial's 4-row tables
        import qbound.simulate as sim
        model = all_models["bloch_equatorial"]
        real = sim._mle_block
        calls = {"n": 0}

        def flaky(*args, **kw):
            calls["n"] += 1
            if calls["n"] % 3 == 0:
                raise RuntimeError("synthetic estimator failure")
            return real(*args, **kw)

        monkeypatch.setattr(sim, "_mle_block", flaky)
        with pytest.raises(NumericalError, match="failed.*synthetic estimator failure"):
            sim.bayes_risk_mc(model, bump_prior(2, 0.8),
                              alternating_scheme(PAULI_BASES[:2]),
                              Estimator("mle"), 100, trials=200, seed=13, workers=1)

    def test_single_trial_loss_is_fidelity_deficit(self, all_models):
        # the harness's loss of trial 0 against one drawn by the public
        # single-trial functions from the trial's own generator
        model = all_models["bloch_equatorial"]
        prior = bump_prior(2, 0.8)
        scheme = alternating_scheme(PAULI_BASES[:2])
        losses, boundary, errors = simulate._run_trials(
            model, prior, scheme, Estimator("mle"), 500, 14, [0])
        assert errors == [] and boundary == 0
        rng = np.random.default_rng(np.random.SeedSequence(entropy=14, spawn_key=(0,)))
        theta = prior.sample(rng)
        est = mle_estimate(sample_outcomes(model, theta, scheme, 500, seed=rng), model).theta
        deficit = 1.0 - fidelity(model.state(est), model.state(theta))
        assert losses == [deficit]
        assert 0.0 <= deficit < 0.2

    @pytest.mark.parametrize("kind", ["prior", "model"])
    def test_spec_less_objects_run_serially_only(self, all_models, kind):
        # a serial run works on the caller's objects; a pool pickles models
        # and priors through their specs and refuses an object without one
        model = all_models["bloch_equatorial"]
        prior = bump_prior(2, 0.8)
        scheme = alternating_scheme(PAULI_BASES[:2])
        if kind == "model":
            custom = (dataclasses.replace(model, family="my_family"), prior)
        else:
            custom = (model, dataclasses.replace(prior, family="my_family", spec=None))
        kwargs = dict(n_copies=200, trials=40, seed=17)
        twin = bayes_risk_mc(model, prior, scheme, Estimator("mle"), **kwargs)
        run = bayes_risk_mc(*custom, scheme, Estimator("mle"), **kwargs)
        assert run.to_dict() == twin.to_dict()
        with pytest.raises(ValueError, match="my_family"):
            bayes_risk_mc(*custom, scheme, Estimator("mle"), workers=2, **kwargs)
        assert multiprocessing.active_children() == []

    def test_unknown_estimator_kind(self):
        with pytest.raises(ValueError):
            Estimator("maximum_wishful_thinking")

    def test_estimator_takes_no_options(self):
        # estimator settings are keyword arguments of mle_estimate and
        # bayes_mean_estimate; the risk harness runs their defaults
        with pytest.raises(TypeError):
            Estimator("mle", options={"n_samples": 64})

    def test_unknown_scheme_kind(self):
        # refused when the scheme is made, before any sampling or risk run
        with pytest.raises(ValueError, match="unknown scheme kind"):
            simulate.MeasurementScheme("adaptive_guesswork", tuple(PAULI_BASES[:2]))
