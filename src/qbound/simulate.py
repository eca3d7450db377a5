"""Monte Carlo harness for separable measurement-and-estimation schemes.

Schemes draw one projective basis per copy (fixed, alternating, uniformly
random, or two-step adaptive), sample outcomes through the Born rule, and
feed estimators (maximum likelihood or posterior mean) outcome count
tables; one count log-likelihood sum c log p serves them all.
A risk run takes its trials in blocks sized by the rows of a table (see
bayes_risk_mc).  Per trial only its RNG, from (seed, spawn_key=t), is called:
the prior's rejection draws and the uniforms (and Haar bases).  The rest
runs once per block: the prior densities (Prior.sample_each), the Born
thresholds against which shared-basis uniforms are counted straight into
tables (_draw_stage), estimation (as arrays over the tables; pure tables
one at a time) and the loss.  No sum's rounding depends on the block, so
results do not depend on how trials fall into blocks or onto workers;
sample_outcomes, mle_estimate and bayes_mean_estimate run blocks of one.
A process pool pickles the model, prior, scheme and estimator, models and
priors through their JSON specs, so an object without a spec needs workers=1.
"""

import functools
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .bayes import Prior
from .errors import DimensionMismatchError, NumericalError
from .information import InfoMatrix, povm_fisher
from .linalg import PAULI_BASES, PAULIS, _rise, haar_unitaries
from .models import ParametricModel, _count, basis_povm, fidelity


# ---------------------------------------------------------------------------
# schemes

@dataclass(frozen=True)
class MeasurementScheme:
    """Per-copy basis choice rule.

    kind: fixed_basis | alternating_bases | random_basis_covariant |
    two_step_adaptive.  ``bases`` holds the (stage-1) unitaries where
    applicable; ``first_fraction`` is the stage-1 share for two-step.
    """

    kind: str
    bases: tuple = ()
    first_fraction: float = 0.0

    def __post_init__(self):
        if self.kind not in ("fixed_basis", "alternating_bases", "random_basis_covariant",
                             "two_step_adaptive"):
            raise ValueError(f"unknown scheme kind {self.kind!r}")
        bases = tuple(np.asarray(b, dtype=complex) for b in self.bases)
        for k, b in enumerate(bases):
            if not (b.ndim == 2 and len(b) == b.shape[1]
                    and np.all(np.abs(b.conj().T @ b - np.eye(len(b))) <= 1e-10)):
                raise ValueError(f"scheme basis {k} is not a square unitary within 1e-10")
        object.__setattr__(self, "bases", bases)


def _check_dim(model, scheme):
    """DimensionMismatchError, before any trial, unless every basis is model.dim x model.dim."""
    if any(len(b) != model.dim for b in scheme.bases):
        raise DimensionMismatchError(f"scheme bases must be {model.dim} x {model.dim}")


def fixed_basis_scheme(basis):
    return MeasurementScheme("fixed_basis", (basis,))


def alternating_scheme(bases):
    if len(bases) < 1:
        raise ValueError("alternating scheme needs at least one basis")
    return MeasurementScheme("alternating_bases", tuple(bases))


def random_basis_scheme():
    """Uniformly random basis per copy (the covariant exhaustive scheme)."""
    return MeasurementScheme("random_basis_covariant")


def two_step_scheme(model: ParametricModel, first_fraction):
    """Stage 1: a fixed informationally complete basis cycle; stage 2:
    bases adapted to the stage-1 estimate (see :func:`adapted_bases`)."""
    if not 0.0 < first_fraction < 1.0:
        raise ValueError("first_fraction must lie strictly between 0 and 1")
    if model.family in ("bloch_full", "pure_qubit"):
        stage1 = PAULI_BASES
    elif model.family == "bloch_equatorial":
        stage1 = PAULI_BASES[:2]
    else:
        raise ValueError(f"two-step scheme not defined for family {model.family!r}")
    return MeasurementScheme("two_step_adaptive", stage1, first_fraction)


def _direction_basis(u):
    """Eigenbasis of u . sigma for a unit vector u (3,), or for each unit
    vector of a stack (n, 3), eigenvalue +1 first."""
    c = np.asarray(u)[..., None, None]
    op = c[..., 0, :, :] * PAULIS[0] + c[..., 1, :, :] * PAULIS[1] + c[..., 2, :, :] * PAULIS[2]
    return np.linalg.eigh(op)[1][..., ::-1]


def _orthonormal_frame(r):
    """(t1, t2) completing each unit vector of a stack r (n, 3) to an
    orthonormal frame."""
    a = np.where(np.abs(r[:, 2:]) < 0.9, [0.0, 0.0, 1.0], [1.0, 0.0, 0.0])
    t1 = np.cross(r, a)
    t1 /= np.linalg.norm(t1, axis=-1, keepdims=True)
    return t1, np.cross(r, t1)


def adapted_bases(model: ParametricModel, theta_hat):
    """Stage-2 bases for the two-step scheme, adapted to an estimate.

    The eigen-directions of the weight H/4 at the estimate are measured in
    equal proportion (alternating the adapted bases), which attains the
    separable-scheme optimum for the qubit families.  An estimate (p,) gives
    a tuple of unitaries, a stack of estimates (n, p) a tuple of (n, d, d)
    stacks.
    """
    theta = np.asarray(theta_hat, dtype=float)
    thetas = theta.reshape(-1, theta.shape[-1])
    norm = np.linalg.norm(thetas, axis=-1, keepdims=True)
    unit = thetas / np.maximum(norm, 1e-9)  # used where norm > 1e-9
    if model.family == "bloch_equatorial":  # radial and tangential
        r = np.pad(np.where(norm > 1e-9, unit, [1.0, 0.0]), ((0, 0), (0, 1)))
        dirs = (r, np.cross([0.0, 0.0, 1.0], r))
    elif model.family == "bloch_full":
        r = np.where(norm > 1e-9, unit, [0.0, 0.0, 1.0])
        dirs = (r, *_orthonormal_frame(r))
    elif model.family == "pure_qubit":
        rho = model.state(model.domain.project(thetas * (1.0 - 1e-12)))
        bloch = np.stack([np.sum(rho * s.T, axis=(-2, -1)).real for s in PAULIS], axis=1)
        dirs = _orthonormal_frame(bloch / np.linalg.norm(bloch, axis=-1, keepdims=True))
    else:
        raise ValueError(f"no adapted bases for family {model.family!r}")
    bases = tuple(_direction_basis(u) for u in dirs)
    return bases if theta.ndim > 1 else tuple(b[0] for b in bases)


# ---------------------------------------------------------------------------
# outcome sampling and count tables

@dataclass(frozen=True)
class SampleData:
    """Realized per-copy bases and outcomes of a scheme run."""

    bases: np.ndarray        # (K, d, d); columns of each unitary are the basis
    basis_index: np.ndarray  # (N,)
    outcomes: np.ndarray     # (N,)
    scheme_kind: str


def _thresholds(rhos, bases):
    """Inverse-CDF thresholds (T, d-1, K) of the Born probabilities <e|rho|e> of rhos (T, d, d)
    or (d, d) in bases (K, d, d) or (T, K, d, d), outcome j's (d, K) vectors e (Haar: a row of
    their array) at a time.  A uniform u falls on the outcome counting its thresholds below u."""
    d, cum = bases.shape[-1], []
    for j in range(d):
        e = np.swapaxes(bases[..., j], -1, -2)
        rho_e = np.reshape(rhos, (-1, d, d)) @ e
        prob = np.clip(np.sum(e.real * rho_e.real + e.imag * rho_e.imag, axis=-2), 0.0, None)
        cum.append(cum[-1] + prob if cum else prob)
    return np.stack([c / cum[-1] for c in cum[:-1]], axis=-2)


def _draw_stage(u, rngs, rhos, bases):
    """(thr, counts) of a stage of bases (K, d, d) or (T, K, d, d): fills u
    (T, n) row by row from rngs, copy i in basis i % K.  The Born thresholds
    thr (T, d-1, K) rise with the outcome, so outcome j or above in basis k
    is u[:, k::K] above thr[:, j-1, k]; tables (T, K d) of exact counts."""
    for rng, row in zip(rngs, u):
        rng.random(out=row)
    thr = _thresholds(rhos, bases)
    t, m, k = thr.shape
    above = np.zeros((t, k, m + 2))
    above[..., 0] = [u[:, b::k].shape[-1] for b in range(k)]
    for b, j in np.ndindex(k, m):
        above[:, b, j + 1] = np.count_nonzero(u[:, b::k] > thr[:, j, b, None], axis=-1)
    return thr, (above[..., :-1] - above[..., 1:]).reshape(t, -1)


def _cycle_draws(model, scheme, n_copies, rhos, rngs):
    """(bases (T, K, d, d), idx, u, thr, counts) of fixed, alternating or
    two-step trials in states rhos[t] drawn with rngs[t]: the basis of each
    copy, the uniforms (T, N), thresholds and tables (see _draw_stage).
    Two-step estimates stage 1 in one MLE, then draws stage 2 alike."""
    two_step = scheme.kind == "two_step_adaptive"
    n1 = (min(max(1, math.ceil(scheme.first_fraction * n_copies)), n_copies - 1)
          if two_step else n_copies)
    k1, u = len(scheme.bases), np.empty((len(rngs), n_copies))
    bases = np.broadcast_to(np.stack(scheme.bases), (len(rngs), k1, *rhos.shape[1:]))
    (thr, counts), idx = _draw_stage(u[:, :n1], rngs, rhos, bases[0]), np.arange(n1) % k1
    if two_step:
        theta1 = _mle_block(model, *_table_block(model, _columns(bases), counts)).theta
        stage2 = np.stack(adapted_bases(model, theta1), axis=1)
        thr2, counts2 = _draw_stage(u[:, n1:], rngs, rhos, stage2)
        thr, counts = np.concatenate([thr, thr2], -1), np.concatenate([counts, counts2], 1)
        bases = np.concatenate([bases, stage2], axis=1)
        idx = np.concatenate([idx, k1 + np.arange(n_copies - n1) % stage2.shape[1]])
    return bases, idx, u, thr, counts


def _random_trial(dim, n_copies, rho, rng):
    """(bases, idx, outcomes) of a random-basis trial: its N Haar bases, then
    its uniforms, copy i in basis i (thresholds of a block of one)."""
    bases = haar_unitaries(dim, n_copies, rng)
    return bases, np.arange(n_copies), (rng.random(n_copies) > _thresholds(rho, bases)[0]).sum(0)


def _copy_table(bases, idx, outcomes):
    """(cols, counts), a row per copy i in basis i of bases (N, d, d): a gather from bases.T."""
    cols = np.take_along_axis(bases.T, outcomes[None, None], 0)[0]
    return np.conjugate(cols, order="C"), np.ones(idx.size)


def _columns(bases):
    """Conjugated vectors of bases (..., K, d, d), C-ordered columns (..., d, K d)."""
    k, d = bases.shape[-3:-1]
    return np.conjugate(np.swapaxes(bases, -3, -2).reshape(*bases.shape[:-3], d, k * d),
                        order="C")


def _sample_block(model, scheme, n_copies, rhos, rngs):
    """(coeffs, counts) of the tables (see _table_block) of trials in states
    rhos[t] drawn with generators rngs[t]: counted from the uniforms, or a
    row per copy of random bases, taken from its basis (bases are not kept)."""
    if scheme.kind == "random_basis_covariant":
        cols = [_copy_table(*_random_trial(model.dim, n_copies, rho, rng))[0]
                for rho, rng in zip(rhos, rngs)]
        return _table_block(model, cols, np.ones((len(rngs), n_copies)))
    bases, _, _, _, counts = _cycle_draws(model, scheme, n_copies, rhos, rngs)
    return _table_block(model, _columns(bases), counts)


def sample_outcomes(model: ParametricModel, theta, scheme: MeasurementScheme,
                    n_copies, seed=0) -> SampleData:
    """i.i.d. Born sampling of a scheme; reproducible for a fixed seed: the
    draws of a block of one of the risk harness (see _sample_block)."""
    n_copies = _count("n_copies", n_copies, 1)
    _check_dim(model, scheme)
    rng = np.random.default_rng(seed)  # a Generator is used as it is
    rho = model.state(theta)[None]
    if scheme.kind == "random_basis_covariant":
        bases, idx, outcomes = _random_trial(model.dim, n_copies, rho[0], rng)
    else:
        (bases,), idx, (u,), (thr,), _ = _cycle_draws(model, scheme, n_copies, rho, [rng])
        outcomes = (u > thr[:, idx]).sum(axis=0)
    return SampleData(bases, idx, outcomes, scheme.kind)


def _table(bases, idx, outcomes):
    """(cols, counts): conjugated outcome vectors as columns (d, rows), a
    row per (basis, outcome) pair of bases (K, d, d), zero counts kept so
    that a block's tables share one shape."""
    k, d = bases.shape[:2]
    counts = np.bincount(idx * d + outcomes, minlength=k * d).astype(float)
    return _columns(bases), counts


def _table_block(model, cols, counts):
    """(coeffs, counts) of count tables (T, R) with conjugated outcome vectors
    cols (T, d, R) or [(d, R)] * T.  Affine: probabilities a + theta bt, a
    (T, R), bt (T, p, R).  Pure: per table, cols and counts, zeros dropped."""
    if model.is_pure:  # a table of positive counts (a row per copy) is not copied
        seen = counts > 0
        return ([c if s.all() else c.compress(s, axis=1) for c, s in zip(cols, seen)],
                [n if s.all() else n[s] for n, s in zip(counts, seen)])
    vecs = np.conjugate(np.swapaxes(np.asarray(cols), -1, -2), order="C")

    def expect(m):  # <e|m|e> of every row, one matrix product per table
        return np.sum(vecs.conj() * (vecs @ m.T), axis=-1).real

    bt = np.stack([expect(b) for b in model.basis], axis=1)
    return (expect(model.rho0), bt), counts


def _likelihood_table(data: SampleData, model: ParametricModel):
    """The count likelihood of sampled data, a block of one table."""
    table = _copy_table if data.scheme_kind == "random_basis_covariant" else _table
    cols, counts = table(data.bases, data.basis_index, data.outcomes)
    return _table_block(model, cols[None], counts[None])


# ---------------------------------------------------------------------------
# estimators

@dataclass(frozen=True)
class MleResult:
    """A maximum likelihood estimate; for a block of tables each field is
    stacked along a first axis of tables."""

    theta: np.ndarray
    boundary: bool
    converged: bool
    loglik: float


@dataclass(frozen=True)
class Estimator:
    """mle | bayes_mean (posterior mean)."""

    kind: str = "mle"

    def __post_init__(self):
        if self.kind not in ("mle", "bayes_mean"):
            raise ValueError(f"unknown estimator kind {self.kind!r}")


# an outcome at or below this probability makes the log-likelihood -inf
_P_FLOOR = 1e-300
# per copy: how far a certified pure MLE may fall short of the global maximum
_CERT_MARGIN = 1e-9
_MLE_TOL = 1e-8          # per-copy gradient length at which an MLE ascent stops
_MLE_MAX_ITERS = 400     # steps after which an MLE ascent stops unconverged
_POSTERIOR_DRAWS = 256   # importance draws of the posterior mean
_PROPOSAL_SPREAD = 1.3   # how much wider than the Laplace fit its proposal is
# rows per array pass: of a block of small tables (see bayes_risk_mc) and of a
# chunk of tables weighing the posterior mean's draws (see _draws_loglik), so
# each (tables, rows, 256) array is about 0.5 MB
_STACKED_ROWS = 256


def _count_loglik(probs, counts, axis=-1):
    """sum c log p over the rows axis (the last unless given) of the table's
    outcome probabilities: a float for one point, an array for a stack.  A
    row of count 0 adds 0; -inf where an observed outcome has probability at
    most _P_FLOOR (or NaN).  probs, a temporary of the caller, is overwritten."""
    seen = counts > 0
    ok = seen & (probs > _P_FLOOR)
    ll = np.log(probs, where=ok, out=probs)
    np.copyto(ll, 0.0, where=~ok)
    ll *= counts  # c log p where ok, 0 elsewhere
    np.copyto(ll, -np.inf, where=ok ^ seen)
    ll = ll.sum(axis=axis)
    return float(ll) if ll.ndim == 0 else ll


def _affine_loglik(a, bt, counts, theta):
    """Count log-likelihood of an affine table (a (rows,), bt (p, rows)) at
    theta (p,) or (..., p), or of tables stacked along leading axes that
    broadcast against the points'."""
    return _count_loglik(_affine_probs(a, bt, theta), counts)


def _affine_probs(a, bt, theta):
    # a + theta bt term by term (in place after the first), which rounds a
    # probability alike for every shape of points and tables; a matmul's
    # rounding can depend on the shapes, and so a table's result on its block
    probs = a + theta[..., 0, None] * bt[..., 0, :]
    for k in range(1, theta.shape[-1]):
        probs += theta[..., k, None] * bt[..., k, :]
    return probs


def _pure_probs(acols, phi):
    """|<e|phi>|^2 of every table row at amplitudes phi (d,) or (n, d);
    acols (d, rows) holds the conjugated outcome vectors as columns."""
    amp = phi @ acols
    return amp.real ** 2 + amp.imag ** 2


def mle_estimate(data: SampleData, model: ParametricModel) -> MleResult:
    """Maximum likelihood estimate of theta from sampled outcomes.

    The likelihood is evaluated on the outcome count table.  Affine
    families have a concave log-likelihood over the domain and use a
    safeguarded Newton ascent that keeps to the domain (see _mle_affine);
    pure families ascend on the amplitude sphere (safeguarded Riemannian
    Newton) and convert back to the chart.  The sphere likelihood is not
    concave.  The ascent starts at the top eigenvector of the summed outcome
    projectors and keeps that maximum when _pure_gap certifies it global to
    within _CERT_MARGIN per copy; otherwise it also ascends from three
    fallback starts and keeps the best (see _mle_pure).
    A degenerate all-boundary likelihood sets the boundary flag instead of
    raising.  A block of one of the risk harness (see _mle_block).
    """
    return _row(_mle_block(model, *_likelihood_table(data, model)))


def _row(res):
    """The MleResult of the first table of a block."""
    return MleResult(res.theta[0], bool(res.boundary[0]), bool(res.converged[0]),
                     float(res.loglik[0]))


def _mle_block(model, coeffs, counts):
    """The MleResult of every table of a block (see _table_block): one
    ascent over the stacked tables of an affine family, one table at a time
    for a pure family."""
    if model.is_pure:
        runs = [_mle_pure(c, n) for c, n in zip(coeffs, counts)]
        return MleResult(*map(np.array, zip(*runs)))
    return _mle_affine(*coeffs, counts, model.domain)


def _mle_affine(a, bt, counts, dom):
    """Safeguarded Newton ascent of the concave count log-likelihood of an
    affine family over its domain, for all tables of a block at once: a
    (T, R), bt (T, p, R) and counts (T, R).

    At theta, with probs = a + theta bt and r = counts/probs (0 on a row of
    count 0), the gradient is g = bt r and minus the Hessian is
    H = bt diag(r/probs) bt^T, a p x p PSD matrix.  The step is the Newton
    step (see _face_newton) where it exists and the gradient step g/N
    elsewhere (a rank-deficient bt, such as one fixed basis on
    bloch_equatorial).  The candidate dom.project(theta + t step) halves t
    until the likelihood rises (see linalg._rise); where the Newton
    direction cannot rise the gradient direction is tried.  A table stops
    when its projected gradient step is shorter than _MLE_TOL, which inside
    the domain is |g| < _MLE_TOL*N and on its boundary detects a constrained
    maximum, or when no candidate rises.  Every decision and every sum is
    per table.
    """
    loglik = functools.partial(_affine_loglik, a, bt, counts)
    n_copies = np.maximum(1.0, counts.sum(axis=-1))[:, None]
    seen = counts > 0
    theta = np.tile(dom.reference_point, (len(a), 1))
    f = loglik(theta)
    live = np.ones(len(a), dtype=bool)
    converged = np.zeros(len(a), dtype=bool)
    for _ in range(_MLE_MAX_ITERS):
        probs = _affine_probs(a, bt, theta)
        r = np.divide(counts, probs, out=np.zeros_like(probs), where=seen)
        grad = np.sum(bt * r[:, None], axis=-1)
        done = np.linalg.norm(dom.project(theta + grad / n_copies) - theta, axis=-1) < _MLE_TOL
        converged |= live & done
        live &= ~done
        if not live.any():
            break
        w = np.divide(r, probs, out=np.zeros_like(probs), where=seen)
        hess = np.sum(bt[:, :, None] * (bt * w[:, None])[:, None], axis=-1)
        steps = (_face_newton(theta, grad, hess, dom), grad / n_copies)
        f, theta, rose = _rise(f, theta, steps, dom.project, loglik, live)
        converged |= live & ~rose  # a maximum to working precision
        live &= rose
    if dom.kind == "ball":
        boundary = np.linalg.norm(theta, axis=-1) >= dom.radius * (1.0 - 1e-7)
    else:
        lo, hi = np.array(dom.bounds, dtype=float).T
        boundary = np.any((theta <= lo + 1e-7) | (theta >= hi - 1e-7), axis=-1)
    return MleResult(theta, boundary, converged, f)


def _face_newton(theta, grad, hess, dom):
    """Newton step H^-1 g of the log-likelihood at each point of a stack
    (n, p), on the face of dom that the point sits on with g pointing out of
    it (all of R^p inside the domain); a row of NaN where minus the Hessian
    there is not positive definite.

    With n an orthonormal basis of the active face's normals and
    P = I - n n^T, it solves (P H P + c P + n n^T) s = P g, where
    c = g.theta/|theta|^2 is the curvature term of the ball's rim (Absil,
    Mahony & Sepulchre, 2008, ch. 5) and 0 on a box face; dom.project
    retracts theta + s onto the face.  Without it a Newton step against an
    active constraint does not rise, and the ascent along the rim is
    first order.  Inside the domain P = I and n n^T = 0 leave H and g as
    they are.  The matrix is positive definite where its leading principal
    minors are (Sylvester's criterion).
    """
    p = theta.shape[-1]
    if dom.kind == "ball":
        rad2 = np.sum(theta * theta, axis=-1)
        slope = np.sum(grad * theta, axis=-1)
        out = (rad2 >= dom.radius ** 2 * (1.0 - 1e-12)) & (slope > 0.0)
        rad2 = np.where(out, rad2, 1.0)
        normal = np.where(out[:, None], theta, 0.0) / np.sqrt(rad2)[:, None]
        nn = normal[:, :, None] * normal[:, None, :]
        curv = np.where(out, slope / rad2, 0.0)
    else:
        lo, hi = np.array(dom.bounds, dtype=float).T
        out = ((theta <= lo) & (grad < 0.0)) | ((theta >= hi) & (grad > 0.0))
        nn, curv = out[:, :, None] * np.eye(p), np.zeros(len(theta))
    proj = np.eye(p) - nn
    hess = proj @ hess @ proj + curv[:, None, None] * proj + nn
    grad = (proj @ grad[:, :, None])[:, :, 0]
    pd = np.all(np.isfinite(hess), axis=(1, 2)) & np.all(np.isfinite(grad), axis=1)
    for k in range(1, p + 1):
        pd[pd] = np.linalg.det(hess[pd, :k, :k]) > 0.0
    step = np.full_like(grad, np.nan)
    step[pd] = np.linalg.solve(hess[pd], grad[pd, :, None])[:, :, 0]
    return step


def _mle_pure(acols, counts):
    """(theta, boundary, converged, loglik) of the pure-state MLE of one
    table on the amplitude sphere (see mle_estimate).

    The sphere likelihood is not concave, and an ascent can stop at a local
    maximum (trial 1487 of pure_qubit, N = 250, seed 2024).  The ascent
    starts at the top eigenvector of sum c e e^H and stops there when it
    converged and _pure_gap certifies the point as the global maximum to
    within _CERT_MARGIN per copy.  Otherwise it also ascends from three more
    starts, the complex conjugate of that eigenvector and two fixed
    pseudo-random unit vectors, and keeps the first of the best.  From the
    eigenvector alone trial 1487 stops at its lower maximum (-133.3352),
    so the conjugate stays among the fallback starts.
    """
    d = acols.shape[0]

    def loglik(phi):
        return _count_loglik(_pure_probs(acols, phi), counts)

    def ascend(start):
        return _ascend_sphere(acols, counts, start, loglik)

    # the top eigenvector of sum c conj(e) e^T, the conjugate of that of sum c e e^H
    top = np.linalg.eigh((acols * counts) @ acols.T.conj())[1][:, -1]
    runs = [ascend(top.conj())]
    f, phi, converged = runs[0]
    if not (converged and _pure_gap(acols, counts, phi)
            <= _CERT_MARGIN * max(1.0, float(counts.sum()))):
        # the random starts stay: where sum c e e^H is degenerate (2 * 1 on the
        # tetrahedron table of test_tied_maxima_are_refused) both eigenvector
        # starts stop at a saddle, log(1/36), and only these reach a corner, log(1/27)
        rng = np.random.default_rng(0)
        starts = [top]
        for _ in range(2):
            z = rng.standard_normal(d) + 1j * rng.standard_normal(d)
            starts.append(z / np.linalg.norm(z))
        runs += [ascend(s) for s in starts]
    f, phi, converged = max(runs, key=lambda res: res[0])  # the first of equal maxima

    if abs(phi[0]) > 1e-12:
        phi = phi * (phi[0].conj() / abs(phi[0]))
    boundary = abs(phi[0].real) < 1e-6
    theta = np.empty(2 * (d - 1))
    theta[0::2] = phi[1:].real
    theta[1::2] = phi[1:].imag
    nrm = np.linalg.norm(theta)
    if nrm >= 1.0:
        theta *= (1.0 - 1e-9) / nrm
        boundary = True
    return theta, boundary, converged, f


def _pure_gap(acols, counts, phi):
    """An upper bound on how far the count log-likelihood of any pure state
    exceeds that at phi, a point of finite likelihood.

    Over density matrices s, F(s) = sum c log p with p = tr(s E) is
    concave.  As p <= 1, -hess F is at least M = sum c E0 E0^T on traceless
    directions, where E0 = E - 1/d.  With l = lambda_min(M) >= 0 there,
    L = F + (l/2)(tr s^2 - 1) is concave and equals F on pure states, and
    its gradient at phi phi^H is A = sum c E/p + l phi phi^H.  So no pure
    state beats phi by more than lambda_max(A) - phi^H A phi, which for a
    qubit is sqrt(kappa^2 + |r|^2) - kappa in the Bloch terms of the
    trust-region optimality conditions (More & Sorensen, SIAM J. Sci. Stat.
    Comput. 4, 553 (1983)).  E0 and A are taken in real coordinates over an
    orthonormal basis of Hermitian matrices, the rows |e_a|^2 - 1/d and
    sqrt2 Re, Im e_a conj(e_b) for a < b; M's eigenvalue 0 on the identity
    comes first.  A multiple of the identity leaves the bound as it is.
    """
    d = acols.shape[0]
    upper = np.nonzero(~np.tri(d, dtype=bool))  # (a, b) with a < b; triu_indices is slower
    cross = math.sqrt(2.0) * acols[upper[0]].conj() * acols[upper[1]]
    y = np.concatenate([acols.real ** 2 + acols.imag ** 2 - 1.0 / d, cross.real, cross.imag])
    yc = y * counts
    ell = max(0.0, np.linalg.eigvalsh(yc @ y.T)[1])
    g = yc @ (1.0 / _pure_probs(acols, phi))
    big = np.diag(g[:d] + 0j)
    big[upper] = (g[d:len(cross) + d] + 1j * g[len(cross) + d:]) / math.sqrt(2.0)
    big[upper[::-1]] = big[upper].conj()
    big += ell * np.outer(phi, phi.conj())
    return float(np.linalg.eigvalsh(big)[-1] - (phi.conj() @ big @ phi).real)


def _ascend_sphere(acols, counts, phi, loglik):
    """(loglik, phi, converged) after a safeguarded Newton ascent from phi.

    About the current phi, with Q an orthonormal basis of phi-perp and
    w_i = (a_i Q)/(a_i phi), the log-likelihood at (phi + Q v)/|phi + Q v| is
    f + 2 Re(s1 v) - Re(v^T S2 v) - N |v|^2 + O(|v|^3), where
    s1 = sum c_i w_i and S2 = sum c_i w_i w_i^T (Absil, Mahony & Sepulchre,
    Optimization Algorithms on Matrix Manifolds, 2008, ch. 6).  In the real
    coordinates (Re v, Im v) the step is the Newton step of that model where
    its Hessian is negative definite and the gradient step g/(2N) elsewhere;
    it is halved until the likelihood rises.  |s1| is the norm of the
    Riemannian gradient, and the ascent stops when it falls below _MLE_TOL*N.
    """
    n_copies = max(1.0, float(counts.sum()))
    phi = phi / np.linalg.norm(phi)
    f = loglik(phi)
    if not np.isfinite(f):  # an outcome orthogonal to the start
        phi = (phi + 1e-6) / np.linalg.norm(phi + 1e-6)
        f = loglik(phi)
        if not np.isfinite(f):
            return f, phi, False
    m = phi.size - 1
    h = np.empty((2 * m, 2 * m))
    for _ in range(_MLE_MAX_ITERS):
        frame = np.linalg.eigh(np.outer(phi, phi.conj()))[1]
        frame[:, m] = phi  # the eigenvalue-1 vector, up to its phase
        amps = frame.T @ acols
        w = amps[:m] / amps[m]
        cw = w * counts
        s1 = cw.sum(axis=1)
        if np.linalg.norm(s1) < _MLE_TOL * n_copies:
            return f, phi, True
        s2 = cw @ w.T
        # g and h: half the gradient and minus half the Hessian of the model
        g = np.concatenate([s1.real, -s1.imag])
        h[:m, :m] = s2.real
        h[m:, m:] = -s2.real
        h[:m, m:] = h[m:, :m] = -s2.imag
        h[np.diag_indices(2 * m)] += n_copies
        try:
            np.linalg.cholesky(h)
            u = np.linalg.solve(h, g)
        except np.linalg.LinAlgError:  # the model is not concave here
            u = g / n_copies
        move = frame[:, :m] @ (u[:m] + 1j * u[m:])
        f, phi, rose = _rise(f, phi, [move], lambda v: v / np.linalg.norm(v), loglik)
        if not rose:
            return f, phi, True
    return f, phi, False


def bayes_mean_estimate(data: SampleData, model: ParametricModel, prior: Prior, seed=0):
    """Posterior mean via Laplace-guided importance sampling.

    Proposes from a normal centred at the MLE with covariance from a
    finite-difference Hessian at its 1 + p + p(p+1)/2 stencil points; falls
    back to the MLE when a stencil point has no finite likelihood or the
    effective sample size degenerates.  Returns (estimate, MleResult).  A
    block of one of the risk harness (see _bayes_mean_block).
    """
    est, mle = _bayes_mean_block(model, *_likelihood_table(data, model), prior, seed)
    return est[0], _row(mle)


def _draws_loglik(a, bt, counts, points):
    """Log-likelihoods (T, M) of affine tables (a, bt, counts) of R rows at
    draws (T, p, M): _affine_probs (chunk, R, M), draws innermost, summed over
    rows, in chunks of _STACKED_ROWS // R tables (at least one)."""
    size = max(1, _STACKED_ROWS // counts.shape[-1])
    a, bt, counts = a[..., None], np.swapaxes(bt, 1, 2), counts[..., None]
    return np.concatenate([
        _count_loglik(_affine_probs(a[lo:lo + size], points[lo:lo + size, None],
                                    bt[lo:lo + size]), counts[lo:lo + size], axis=-2)
        for lo in range(0, len(a), size)])


def _pure_draws_loglik(acols, counts, points):
    """Log-likelihoods (T, M) of pure tables (lists of acols and counts) at
    draws (T, p, M) on the parameter chart, -inf off it; a table at a time."""
    theta = np.swapaxes(points, 1, 2)
    nsq = np.sum(theta * theta, axis=-1)
    head = np.sqrt(np.where(nsq < 1.0, 1.0 - nsq, np.nan))  # NaN: -inf
    phis = np.concatenate([head[..., None], theta[..., 0::2] + 1j * theta[..., 1::2]], axis=-1)
    return np.stack([_count_loglik(_pure_probs(c, phi), n)
                     for c, n, phi in zip(acols, counts, phis)])


def _bayes_mean_block(model, coeffs, counts, prior, seed=0):
    """(estimates (T, p), MleResult) of the posterior means of a block: the
    stencils of all count tables in one likelihood call and their draws,
    weighed as one stack (domain, prior density, likelihood), in another;
    the likelihood takes affine tables in chunks (see _draws_loglik), pure
    tables one at a time.  Every table draws the standard normals of
    default_rng(seed), drawn once and stacked innermost, (T, p, M)."""
    mle = _mle_block(model, coeffs, counts)
    if model.is_pure:
        loglik = functools.partial(_pure_draws_loglik, coeffs, counts)
    else:
        loglik = functools.partial(_draws_loglik, *coeffs, counts)
    dom = model.domain
    n_tables, p = mle.theta.shape
    center = dom.project(mle.theta * (1.0 - 1e-9))[..., None]
    h = 1e-4
    step = h * np.eye(p)
    iu, ju = np.triu_indices(p)
    vals = loglik(np.concatenate([center, center + step, center + step[:, iu] + step[:, ju]],
                                 axis=2))
    laplace = np.all(np.isfinite(vals), axis=-1)
    vals[~laplace] = 0.0  # these tables keep their MLE
    f0, fi, fij = vals[:, :1], vals[:, 1:p + 1], vals[:, p + 1:]
    hess = np.empty((n_tables, p, p))
    hess[:, iu, ju] = hess[:, ju, iu] = (fij - fi[:, iu] - fi[:, ju] + f0) / h ** 2
    cov = np.linalg.inv(-hess + 1e-6 * np.eye(p)) * _PROPOSAL_SPREAD ** 2
    cov = 0.5 * (cov + np.swapaxes(cov, 1, 2))
    w, v = np.linalg.eigh(cov)
    root = (v * np.sqrt(np.clip(w, 1e-12, None))[:, None]) @ np.swapaxes(v, 1, 2)
    z = np.random.default_rng(seed).standard_normal((_POSTERIOR_DRAWS, p))
    draws = center + root @ z.T
    logq = -0.5 * np.add.reduce(np.swapaxes(np.linalg.inv(cov), 1, 2) @ (draws - center)
                                * (draws - center), axis=1)
    points = np.ascontiguousarray(np.swapaxes(draws, 1, 2))  # (T, M, p)
    dens = prior.density(points.reshape(-1, p)).reshape(n_tables, _POSTERIOR_DRAWS)
    usable = dom.contains(np.swapaxes(draws, 1, 2)) & (dens > 0.0)
    logw = np.where(usable, loglik(draws) - logq
                    + np.log(dens, where=usable, out=np.zeros_like(dens)), -np.inf)
    finite = np.isfinite(logw)
    with np.errstate(invalid="ignore", divide="ignore"):  # tables that keep their MLE
        wts = np.exp(logw - np.max(logw, axis=-1, keepdims=True, where=finite,
                                   initial=-np.inf))
        total = wts.sum(axis=-1)
        ess = total ** 2 / np.sum(wts ** 2, axis=-1)
        mean = dom.project(np.sum(wts[:, :, None] * points, axis=1) / total[:, None])
    keep = laplace & (finite.sum(axis=-1) >= 8) & (ess >= 8)
    return np.where(keep[:, None], mean, mle.theta), mle


# ---------------------------------------------------------------------------
# empirical information

def empirical_fisher(model: ParametricModel, theta, scheme: MeasurementScheme,
                     n_bases=1000, seed=0) -> InfoMatrix:
    """Per-copy average Fisher information of a scheme at theta.

    Randomized schemes average povm_fisher over sampled bases (the recorded
    basis is part of the outcome, so the scheme information is the basis
    average) and report an entrywise Monte Carlo standard error.  For the
    two-step scheme the stage-2 bases are adapted at theta itself, i.e. the
    reported matrix is the scheme's asymptotic per-copy information.  One
    povm_fisher call on the stacked bases gives each basis its own matrix."""
    zero = np.zeros((model.num_params,) * 2)
    bases = scheme.bases
    if scheme.kind == "random_basis_covariant":
        if n_bases < 1:
            raise ValueError("n_bases must be >= 1 for randomized schemes")
        bases = haar_unitaries(model.dim, n_bases, np.random.default_rng(seed))
    elif scheme.kind == "two_step_adaptive":
        bases += adapted_bases(model, theta)
    mats = povm_fisher(model, theta, basis_povm(bases)).matrix
    if scheme.kind == "random_basis_covariant":
        se = mats.std(axis=0, ddof=1) / math.sqrt(n_bases) if n_bases > 1 else zero
        return InfoMatrix(mats.mean(axis=0), std_error=se)
    if scheme.kind == "two_step_adaptive":
        f, k = scheme.first_fraction, len(scheme.bases)
        return InfoMatrix(f * mats[:k].mean(axis=0) + (1.0 - f) * mats[k:].mean(axis=0),
                          std_error=zero)
    return InfoMatrix(mats.mean(axis=0), std_error=zero)


# ---------------------------------------------------------------------------
# Bayes risk Monte Carlo

@dataclass(frozen=True)
class RiskEstimate:
    """N x (empirical Bayes risk) with its Monte Carlo standard error."""

    n_copies: int
    trials: int
    value: float
    std_error: float
    loss_summary: dict
    failures: int = 0
    boundary_hits: int = 0


# the fewest trials per block, kept by random bases (a row per copy; fewer ran slower)
_TRIAL_BLOCK = 16


def _keep_heap():
    """Pool initializer: glibc keeps freed arrays for the next trial instead of unmapping them."""
    import ctypes
    try:
        libc = ctypes.CDLL("libc.so.6")
        libc.mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD
        libc.mallopt(-1, 64 << 20)  # M_TRIM_THRESHOLD
    except (OSError, AttributeError):
        pass


def _run_block(model, prior, scheme, estimator, n_copies, seed, trials):
    """(losses, boundary hits, errors) of a block of trials (see _trial_block),
    trial t started from a generator from (seed, spawn_key=t) and its prior
    draw.  A block that raises runs again one trial at a time, so that each
    error is charged to its own trial."""
    rngs = [np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(t,)))
            for t in trials]
    starts = list(zip(rngs, prior.sample_each(rngs)))  # a prior that cannot be sampled raises
    try:
        return (*_trial_block(model, prior, scheme, estimator, n_copies, starts), [])
    except Exception as exc:  # counted; bayes_risk_mc aborts if the rate exceeds 1%
        if len(trials) == 1:
            return [np.nan], 0, [repr(exc)]
    losses, hits, errors = zip(*[_run_block(model, prior, scheme, estimator, n_copies, seed,
                                            [t]) for t in trials])
    return sum(losses, []), sum(hits), sum(errors, [])


def _trial_block(model, prior, scheme, estimator, n_copies, starts):
    """(losses, boundary hits) of a block of trials from their (rng, theta)
    starts; a trial's loss is its fidelity deficit 1 - Fid(rho(theta_hat),
    rho(theta)), one fidelity call for the block."""
    thetas = np.array([theta for _, theta in starts])
    rhos = model.state(thetas)
    coeffs, counts = _sample_block(model, scheme, n_copies, rhos, [rng for rng, _ in starts])
    if estimator.kind == "mle":
        res = _mle_block(model, coeffs, counts)
        theta_hat = res.theta
    else:
        theta_hat, res = _bayes_mean_block(model, coeffs, counts, prior)
    hits = int(res.boundary.sum())
    safe = model.domain.project(theta_hat)
    if model.is_pure:
        safe = np.where(np.linalg.norm(safe, axis=-1, keepdims=True) >= 1.0,
                        safe * (1.0 - 1e-9), safe)
    return np.maximum(1.0 - fidelity(model.state(safe), rhos), 0.0).tolist(), hits


def bayes_risk_mc(model: ParametricModel, prior: Prior, scheme: MeasurementScheme,
                  estimator: Estimator, n_copies, trials, seed=0,
                  workers=1) -> RiskEstimate:
    """N x empirical Bayes fidelity-risk over seeded independent trials.

    Draws theta from the prior, runs the scheme, estimates, and averages
    1 - Fid(rho(theta_hat), rho(theta)), in blocks (see _run_block) of
    _STACKED_ROWS // rows trials, at least _TRIAL_BLOCK, for tables of K d
    rows (two-step: of stage 1) or N (random bases).  Aborts if more than 1%
    of the trials fail in the estimator.  With workers=1 the blocks run on
    the caller's objects.  A pool of workers > 1 maps the same blocks, a task
    each (see _keep_heap); it pickles the model and the prior through their
    JSON specs, so an object without a spec (a custom prior, a ParametricModel
    of a family that model_to_spec cannot describe) raises ValueError there.
    """
    trials, n_copies = _count("trials", trials, 2), _count("n_copies", n_copies, 1)
    _check_dim(model, scheme)
    rows = n_copies if scheme.kind == "random_basis_covariant" else len(scheme.bases) * model.dim
    size = max(_TRIAL_BLOCK, _STACKED_ROWS // rows)
    blocks = [range(lo, min(lo + size, trials)) for lo in range(0, trials, size)]
    run = functools.partial(_run_block, model, prior, scheme, estimator, n_copies, seed)
    if workers <= 1:
        results = list(map(run, blocks))
    else:  # a task per block, results in block order
        with ProcessPoolExecutor(max_workers=workers, initializer=_keep_heap) as pool:
            results = list(pool.map(run, blocks))
    losses = np.array([loss for vals, _, _ in results for loss in vals])
    boundary = sum(bnd for _, bnd, _ in results)
    errors = [err for _, _, errs in results for err in errs]
    bad = np.isnan(losses)
    failures = int(bad.sum())
    if failures > 0.01 * trials:
        raise NumericalError(
            f"estimator failed in {failures}/{trials} trials; first errors: "
            f"{errors[:3]}")
    ok = losses[~bad]
    value = float(n_copies * ok.mean())
    std_error = float(n_copies * ok.std(ddof=1) / math.sqrt(ok.size))
    qs = np.quantile(ok, [0.0, 0.25, 0.5, 0.75, 1.0])
    summary = {"min": float(qs[0]), "q25": float(qs[1]), "median": float(qs[2]),
               "q75": float(qs[3]), "max": float(qs[4])}
    return RiskEstimate(n_copies, trials, value, std_error, summary,
                        failures=failures, boundary_hits=int(boundary))
