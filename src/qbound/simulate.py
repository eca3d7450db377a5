"""Monte Carlo harness for separable measurement-and-estimation schemes.

Schemes draw one projective basis per copy (fixed, alternating, uniformly
random, or two-step adaptive), sample outcomes through the Born rule, and
feed estimators (maximum likelihood, posterior mean, or a test-only oracle).
Estimators see the data as an outcome count table, one row per observed
(basis, outcome) pair, and one count log-likelihood sum c log p serves the
affine MLE, the pure-state MLE and the posterior mean; the posterior mean
takes its Laplace stencil in one stacked likelihood evaluation and weighs
all its importance draws in another.
Risk runs are reproducible: the RNG of trial t is derived from
(seed, spawn_key=t), so results do not depend on how trials are distributed
over workers.  A serial run works on the caller's model, prior, scheme and
estimator; a process pool pickles them, and models and priors pickle
through their JSON specs, so an object without a spec needs workers=1.
"""

import functools
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .bayes import Prior
from .errors import NumericalError
from .information import InfoMatrix, povm_fisher
from .linalg import PAULIS, _rise, haar_unitaries
from .models import ParametricModel, basis_povm, fidelity

PAULI_BASES = tuple(np.linalg.eigh(s)[1][:, ::-1] for s in PAULIS)


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
        object.__setattr__(self, "bases",
                           tuple(np.asarray(b, dtype=complex) for b in self.bases))


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
    """Eigenbasis of u . sigma for a unit vector u, eigenvalue +1 first."""
    op = u[0] * PAULIS[0] + u[1] * PAULIS[1] + u[2] * PAULIS[2]
    _, v = np.linalg.eigh(op)
    return v[:, ::-1]


def _orthonormal_frame(r):
    a = np.array([0.0, 0.0, 1.0]) if abs(r[2]) < 0.9 else np.array([1.0, 0.0, 0.0])
    t1 = np.cross(r, a)
    t1 /= np.linalg.norm(t1)
    return t1, np.cross(r, t1)


def adapted_bases(model: ParametricModel, theta_hat):
    """Stage-2 bases for the two-step scheme, adapted to an estimate.

    The eigen-directions of the weight H/4 at the estimate are measured in
    equal proportion (alternating the adapted bases), which attains the
    separable-scheme optimum for the qubit families.
    """
    theta_hat = np.asarray(theta_hat, dtype=float)
    if model.family == "bloch_equatorial":
        norm = np.linalg.norm(theta_hat)
        ang = math.atan2(theta_hat[1], theta_hat[0]) if norm > 1e-9 else 0.0
        radial = np.array([math.cos(ang), math.sin(ang), 0.0])
        tangent = np.array([-math.sin(ang), math.cos(ang), 0.0])
        return (_direction_basis(radial), _direction_basis(tangent))
    if model.family == "bloch_full":
        norm = np.linalg.norm(theta_hat)
        r = theta_hat / norm if norm > 1e-9 else np.array([0.0, 0.0, 1.0])
        t1, t2 = _orthonormal_frame(r)
        return (_direction_basis(r), _direction_basis(t1), _direction_basis(t2))
    if model.family == "pure_qubit":
        rho = model.state(model.domain.project(theta_hat * (1.0 - 1e-12)))
        bloch = np.array([np.trace(rho @ s).real for s in PAULIS])
        bloch /= np.linalg.norm(bloch)
        t1, t2 = _orthonormal_frame(bloch)
        return (_direction_basis(t1), _direction_basis(t2))
    raise ValueError(f"no adapted bases for family {model.family!r}")


# ---------------------------------------------------------------------------
# outcome sampling

@dataclass(frozen=True)
class SampleData:
    """Realized per-copy bases and outcomes of a scheme run."""

    bases: np.ndarray        # (K, d, d); columns of each unitary are the basis
    basis_index: np.ndarray  # (N,)
    outcomes: np.ndarray     # (N,)
    n_copies: int
    scheme_kind: str
    stage1_bases: int = 0    # two-step: bases[:stage1_bases] are stage 1
    stage1_copies: int = 0


def _sample(rho, bases, idx, u):
    """Outcomes of copies measured in bases[idx] (K, d, d), from uniforms u,
    by the inverse CDF of each basis's Born probabilities."""
    k, d = bases.shape[:2]
    # <e|rho|e> for every basis vector e at once: the bases side by side as
    # one (d, K*d) matrix, one product with rho
    ut = bases.transpose(1, 0, 2).reshape(d, k * d)
    rho_ut = rho @ ut
    probs = np.sum(ut.real * rho_ut.real + ut.imag * rho_ut.imag, axis=0).reshape(k, d)
    cum = np.cumsum(np.clip(probs, 0.0, None), axis=1)
    cum /= cum[:, -1:]
    return (u[:, None] > cum[idx]).sum(axis=1).clip(0, d - 1)


def sample_outcomes(model: ParametricModel, theta, scheme: MeasurementScheme,
                    n_copies, seed=0) -> SampleData:
    """i.i.d. Born sampling of a scheme; reproducible for a fixed seed."""
    if n_copies < 1:
        raise ValueError("n_copies must be >= 1")
    rng = np.random.default_rng(seed)  # a Generator is used as it is
    rho = model.state(theta)

    if scheme.kind in ("fixed_basis", "alternating_bases"):
        bases = np.stack(scheme.bases)
        idx = np.arange(n_copies) % len(bases)
        outcomes = _sample(rho, bases, idx, rng.random(n_copies))
        return SampleData(bases, idx, outcomes, n_copies, scheme.kind)

    if scheme.kind == "random_basis_covariant":
        bases = haar_unitaries(model.dim, n_copies, rng)
        idx = np.arange(n_copies)
        outcomes = _sample(rho, bases, idx, rng.random(n_copies))
        return SampleData(bases, idx, outcomes, n_copies, scheme.kind)

    if scheme.kind == "two_step_adaptive":
        n1 = max(1, int(math.ceil(scheme.first_fraction * n_copies)))
        if n1 >= n_copies:
            n1 = n_copies - 1
        u = rng.random(n_copies)  # drawn up front: stage split cannot peek ahead
        stage1 = np.stack(scheme.bases)
        k1 = len(stage1)
        idx1 = np.arange(n1) % k1
        out1 = _sample(rho, stage1, idx1, u[:n1])
        first = SampleData(stage1, idx1, out1, n1, "alternating_bases")
        stage2 = np.stack(adapted_bases(model, mle_estimate(first, model).theta))
        idx2 = np.arange(n_copies - n1) % len(stage2)
        out2 = _sample(rho, stage2, idx2, u[n1:])
        bases = np.concatenate([stage1, stage2])
        return SampleData(bases, np.concatenate([idx1, k1 + idx2]),
                          np.concatenate([out1, out2]), n_copies,
                          scheme.kind, stage1_bases=k1, stage1_copies=n1)

    raise ValueError(f"unknown scheme kind {scheme.kind!r}")


# ---------------------------------------------------------------------------
# estimators

@dataclass(frozen=True)
class MleResult:
    theta: np.ndarray
    boundary: bool
    converged: bool
    loglik: float


@dataclass(frozen=True)
class Estimator:
    """mle | bayes_mean (posterior mean) | oracle (test-only, returns truth)."""

    kind: str = "mle"
    prior: Optional[Prior] = None
    options: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in ("mle", "bayes_mean", "oracle"):
            raise ValueError(f"unknown estimator kind {self.kind!r}")


# an outcome at or below this probability makes the log-likelihood -inf
_P_FLOOR = 1e-300
# per copy: how far a certified qubit MLE may fall short of the global maximum
_CERT_MARGIN = 1e-9


def _outcome_table(data: SampleData):
    """(vecs, counts): the outcome vector of every observed (basis, outcome)
    pair, in (basis, outcome) order, and the number of copies that gave it.

    Fixed, alternating and two-step data collapse to at most K*d rows; a
    random-basis run keeps one row per copy, in copy order, each counted once.
    """
    k, d = data.bases.shape[:2]
    counts = np.bincount(data.basis_index * d + data.outcomes, minlength=k * d)
    rows = np.flatnonzero(counts)
    return data.bases[rows // d, :, rows % d], counts[rows]


def _count_loglik(probs, counts):
    """sum c log p over the last axis of the table's outcome probabilities
    (..., rows): a float for one point, an array for a stack.  -inf where an
    observed outcome has probability at most _P_FLOOR (or NaN)."""
    logp = np.log(probs, where=probs > _P_FLOOR, out=np.full(probs.shape, -np.inf))
    ll = (counts * logp).sum(axis=-1)
    return float(ll) if ll.ndim == 0 else ll


def _likelihood_table(data: SampleData, model: ParametricModel):
    """(coeffs, counts): the count likelihood of the data, built once.

    coeffs holds the conjugated outcome vectors of the table as columns
    (d, rows) for a pure family and (a, b), with outcome probabilities
    a + b @ theta, for an affine one; counts are floats.
    """
    vecs, counts = _outcome_table(data)
    if model.is_pure:
        coeffs = np.ascontiguousarray(vecs.T.conj())
    else:
        coeffs = _affine_probs(vecs, model)
    return coeffs, counts.astype(float)


def mle_estimate(data: SampleData, model: ParametricModel, tol=1e-8,
                 max_iters=400) -> MleResult:
    """Maximum likelihood estimate of theta from sampled outcomes.

    The likelihood is evaluated on the outcome count table, one row per
    observed (basis, outcome) pair.  Affine families have a concave
    log-likelihood over the domain and use a safeguarded Newton ascent that
    keeps to the domain (see _mle_affine); pure families ascend on the
    amplitude sphere (safeguarded Riemannian Newton) and convert back to
    the chart.  The sphere likelihood is not concave.  A qubit ascends from
    the top eigenvector of the summed outcome projectors and keeps that
    maximum when _qubit_gap certifies it global to within _CERT_MARGIN per
    copy; otherwise, and for every d > 2, it also ascends from three
    fallback starts and keeps the best (see _mle_pure).  A degenerate
    all-boundary likelihood sets the boundary flag instead of raising.
    """
    return _mle_from_table(model, *_likelihood_table(data, model), tol, max_iters)


def _mle_from_table(model, coeffs, counts, tol=1e-8, max_iters=400):
    if model.is_pure:
        return _mle_pure(coeffs, counts, tol, max_iters)
    return _mle_affine(*coeffs, counts, model.domain, tol, max_iters)


def _affine_probs(vecs, model):
    """(a, b) with outcome probabilities a + b @ theta in an affine family."""
    a = np.einsum("ni,ij,nj->n", vecs.conj(), model.rho0, vecs).real
    b = np.stack([np.einsum("ni,ij,nj->n", vecs.conj(), bm, vecs).real
                  for bm in model.basis], axis=1)
    return a, b


def _affine_loglik(a, b, counts, theta):
    """Count log-likelihood of an affine family at theta (p,) or (n, p)."""
    return _count_loglik(a + theta @ b.T, counts)


def _pure_probs(acols, phi):
    """|<e|phi>|^2 of every table row at amplitudes phi (d,) or (n, d);
    acols (d, rows) holds the conjugated outcome vectors as columns."""
    amp = phi @ acols
    return amp.real ** 2 + amp.imag ** 2


def _mle_affine(a, b, counts, dom, tol, max_iters):
    """Safeguarded Newton ascent of the concave count log-likelihood of an
    affine family over its domain.

    At theta, with probs = a + b theta and r = counts/probs, the gradient is
    g = b^T r and minus the Hessian is H = b^T diag(r/probs) b, a p x p PSD
    matrix.  The step is the Newton step (see _face_newton) where it exists
    and the gradient step g/N elsewhere (a rank-deficient b, such as one
    fixed basis on bloch_equatorial).  The candidate dom.project(theta + t
    step) halves t until the likelihood rises; where the Newton direction
    cannot rise the gradient direction is tried.  The ascent stops when the
    projected gradient step is shorter than tol, which inside the domain is
    |g| < tol*N and on its boundary detects a constrained maximum, or when no
    candidate rises.
    """
    loglik = functools.partial(_affine_loglik, a, b, counts)
    n_copies = max(1.0, float(counts.sum()))
    theta = dom.reference_point.copy()
    f = loglik(theta)
    converged = False
    for _ in range(max_iters):
        probs = a + b @ theta
        r = counts / probs
        grad = b.T @ r
        if np.linalg.norm(dom.project(theta + grad / n_copies) - theta) < tol:
            converged = True
            break
        newton = _face_newton(theta, grad, (b.T * (r / probs)) @ b, dom)
        steps = [grad / n_copies] if newton is None else [newton, grad / n_copies]
        f, theta, rose = _rise(f, theta, steps, dom.project, loglik)
        if not rose:  # a maximum to working precision
            converged = True
            break
    if dom.kind == "ball":
        boundary = np.linalg.norm(theta) >= dom.radius * (1.0 - 1e-7)
    else:
        lo, hi = np.array(dom.bounds, dtype=float).T
        boundary = bool(np.any(theta <= lo + 1e-7) or np.any(theta >= hi - 1e-7))
    return MleResult(theta, boundary, converged, f)


def _face_newton(theta, grad, hess, dom):
    """Newton step H^-1 g of the log-likelihood on the face of dom that
    theta sits on with g pointing out of it (all of R^p inside the domain),
    or None where minus the Hessian there is not positive definite.

    With n an orthonormal basis of the active face's normals and
    P = I - n n^T, it solves (P H P + c P + n n^T) s = P g, where
    c = g.theta/|theta|^2 is the curvature term of the ball's rim (Absil,
    Mahony & Sepulchre, 2008, ch. 5) and 0 on a box face; dom.project
    retracts theta + s onto the face.  Without it a Newton step against an
    active constraint does not rise, and the ascent along the rim is
    first order.
    """
    p = theta.size
    if dom.kind == "ball":
        rad2 = theta @ theta
        out = rad2 >= dom.radius ** 2 * (1.0 - 1e-12) and grad @ theta > 0.0
        normals = theta[:, None] / np.sqrt(rad2) if out else np.zeros((p, 0))
        curv = grad @ theta / rad2 if out else 0.0
    else:
        lo, hi = np.array(dom.bounds, dtype=float).T
        out = ((theta <= lo) & (grad < 0.0)) | ((theta >= hi) & (grad > 0.0))
        normals, curv = np.eye(p)[:, out], 0.0
    if normals.shape[1]:
        nn = normals @ normals.T
        proj = np.eye(p) - nn
        hess = proj @ hess @ proj + curv * proj + nn
        grad = proj @ grad
    try:
        np.linalg.cholesky(hess)
    except np.linalg.LinAlgError:  # singular H, such as a rank-deficient b
        return None
    return np.linalg.solve(hess, grad)


def _mle_pure(acols, counts, tol, max_iters):
    """Pure-state MLE on the amplitude sphere (see mle_estimate).

    The sphere likelihood is not concave, and an ascent can stop at a local
    maximum (trial 1487 of pure_qubit, N = 250, seed 2024).  A qubit ascends
    from the top eigenvector of sum c e e^H and stops there when the ascent
    converged and _qubit_gap certifies the point as the global maximum to
    within _CERT_MARGIN per copy.  Otherwise, and for every d > 2, it also
    ascends from three more starts, the complex conjugate of that eigenvector
    and two fixed pseudo-random unit vectors, and keeps the best.  From the
    eigenvector alone trial 1487 stops at its lower maximum (-133.3352),
    so the conjugate stays among the fallback starts.
    """
    d = acols.shape[0]

    def loglik(phi):
        return _count_loglik(_pure_probs(acols, phi), counts)

    def ascend(start):
        return _ascend_sphere(acols, counts, start, loglik, tol, max_iters)

    # the top eigenvector of sum c conj(e) e^T, the conjugate of that of sum c e e^H
    top = np.linalg.eigh((acols * counts) @ acols.T.conj())[1][:, -1]
    runs, certified = [], False
    if d == 2:
        runs.append(ascend(top.conj()))
        f, phi, converged = runs[0]
        certified = converged and (_qubit_gap(acols, counts, phi)
                                   <= _CERT_MARGIN * max(1.0, float(counts.sum())))
    if not certified:
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
    return MleResult(theta, boundary, converged, f)


def _qubit_gap(acols, counts, phi):
    """An upper bound on how far the count log-likelihood of any qubit state
    exceeds that at phi (a point of finite likelihood), or inf where the
    bound does not hold.

    With m the Bloch vectors of the table rows and n that of phi, outcome
    probabilities are p = (1 + n.m)/2, so up to a constant the likelihood is
    F(x) = sum c log(1 + x.m) on the sphere |x| = 1.  Let mu = n.grad F(n),
    r = grad F(n) - mu n and kappa = lambda_min(sum c m m^T)/4 + mu.  As
    -hess F = sum c m m^T/(1 + x.m)^2 and 1 + x.m <= 2 on the ball,
    L = F - (mu/2)(|x|^2 - 1) is kappa-strongly concave there when
    kappa > 0; it equals F on the sphere and grad L(n) = r, so no point of
    the sphere beats F(n) by more than |r|^2/(2 kappa).  This is the
    Lagrangian argument of the trust-region optimality conditions (More &
    Sorensen, SIAM J. Sci. Stat. Comput. 4, 553 (1983)).
    """
    def bloch(amps):  # of qubit amplitudes (2,) or (2, rows)
        cross = amps[0].conj() * amps[1]
        return np.stack([2.0 * cross.real, 2.0 * cross.imag,
                         abs(amps[0]) ** 2 - abs(amps[1]) ** 2])

    m, n = bloch(acols.conj()), bloch(phi)  # acols holds conjugated amplitudes
    grad = m @ (counts / (1.0 + n @ m))
    mu = n @ grad
    r = grad - mu * n
    kappa = np.linalg.eigvalsh((m * counts) @ m.T)[0] / 4.0 + mu
    return float(r @ r / (2.0 * kappa)) if kappa > 0.0 else np.inf


def _ascend_sphere(acols, counts, phi, loglik, tol, max_iters):
    """(loglik, phi, converged) after a safeguarded Newton ascent from phi.

    About the current phi, with Q an orthonormal basis of phi-perp and
    w_i = (a_i Q)/(a_i phi), the log-likelihood at (phi + Q v)/|phi + Q v| is
    f + 2 Re(s1 v) - Re(v^T S2 v) - N |v|^2 + O(|v|^3), where
    s1 = sum c_i w_i and S2 = sum c_i w_i w_i^T (Absil, Mahony & Sepulchre,
    Optimization Algorithms on Matrix Manifolds, 2008, ch. 6).  In the real
    coordinates (Re v, Im v) the step is the Newton step of that model where
    its Hessian is negative definite and the gradient step g/(2N) elsewhere;
    it is halved until the likelihood rises.  |s1| is the norm of the
    Riemannian gradient, and the ascent stops when it falls below tol*N.
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
    for _ in range(max_iters):
        frame = np.linalg.eigh(np.outer(phi, phi.conj()))[1]
        frame[:, m] = phi  # the eigenvalue-1 vector, up to its phase
        amps = frame.T @ acols
        w = amps[:m] / amps[m]
        cw = w * counts
        s1 = cw.sum(axis=1)
        if np.linalg.norm(s1) < tol * n_copies:
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


def _chart_loglik(model, coeffs, counts):
    """Log-likelihood of a table (see _likelihood_table) on the parameter
    chart, at one point (p,) or at each point of a stack (n, p); -inf off
    the chart."""
    if model.is_pure:

        def loglik(theta):
            theta = np.asarray(theta, dtype=float)
            nsq = np.sum(theta * theta, axis=-1)
            head = np.sqrt(np.where(nsq < 1.0, 1.0 - nsq, np.nan))  # NaN: -inf
            phi = np.concatenate([head[..., None],
                                  theta[..., 0::2] + 1j * theta[..., 1::2]], axis=-1)
            return _count_loglik(_pure_probs(coeffs, phi), counts)

        return loglik
    return lambda theta: _affine_loglik(*coeffs, counts, theta)


def bayes_mean_estimate(data: SampleData, model: ParametricModel, prior: Prior,
                        n_samples=256, spread=1.3, seed=0):
    """Posterior mean via Laplace-guided importance sampling.

    Proposes from a normal centred at the MLE with covariance from a
    finite-difference Hessian, whose 1 + p + p(p+1)/2 stencil points are
    one stacked likelihood evaluation; falls back to the MLE when a stencil
    point has no finite likelihood or the effective sample size
    degenerates.  The weights of all draws are evaluated as one stack:
    domain membership, prior density and log-likelihood.
    """
    table = _likelihood_table(data, model)
    mle = _mle_from_table(model, *table)
    loglik = _chart_loglik(model, *table)
    p = model.num_params
    center = model.domain.project(mle.theta * (1.0 - 1e-9))
    h = 1e-4
    step = h * np.eye(p)
    iu, ju = np.triu_indices(p)
    vals = loglik(np.concatenate([center[None], center + step,
                                  center + step[iu] + step[ju]]))
    if not np.all(np.isfinite(vals)):
        return mle.theta, mle
    f0, fi, fij = vals[0], vals[1:p + 1], vals[p + 1:]
    hess = np.empty((p, p))
    hess[iu, ju] = hess[ju, iu] = (fij - fi[iu] - fi[ju] + f0) / h ** 2
    cov = np.linalg.inv(-hess + 1e-6 * np.eye(p)) * spread ** 2
    cov = 0.5 * (cov + cov.T)
    w, v = np.linalg.eigh(cov)
    root = (v * np.sqrt(np.clip(w, 1e-12, None))) @ v.T
    rng = np.random.default_rng(seed)
    draws = center + rng.standard_normal((n_samples, p)) @ root.T
    logq = -0.5 * np.einsum("ni,ij,nj->n", draws - center,
                            np.linalg.inv(cov), draws - center)
    dens = prior.density(draws)
    usable = model.domain.contains(draws) & (dens > 0.0)
    logw = np.full(n_samples, -np.inf)
    logw[usable] = (loglik(draws[usable]) + np.log(dens[usable])) - logq[usable]
    finite = np.isfinite(logw)
    if finite.sum() < 8:
        return mle.theta, mle
    lw = logw[finite] - np.max(logw[finite])
    wts = np.exp(lw)
    ess = wts.sum() ** 2 / (wts ** 2).sum()
    if ess < 8:
        return mle.theta, mle
    theta = (wts[:, None] * draws[finite]).sum(axis=0) / wts.sum()
    return model.domain.project(theta), mle


# ---------------------------------------------------------------------------
# empirical information

def empirical_fisher(model: ParametricModel, theta, scheme: MeasurementScheme,
                     n_bases=1000, seed=0) -> InfoMatrix:
    """Per-copy average Fisher information of a scheme at theta.

    Randomized schemes average povm_fisher over sampled bases (the recorded
    basis is part of the outcome, so the scheme information is the basis
    average) and report an entrywise Monte Carlo standard error.  For the
    two-step scheme the stage-2 bases are adapted at theta itself, i.e. the
    reported matrix is the scheme's asymptotic per-copy information.
    """
    def infos(bases):  # the povm_fisher matrix of each basis, stacked
        return np.stack([povm_fisher(model, theta, basis_povm(u)).matrix for u in bases])

    zero = np.zeros((model.num_params,) * 2)
    if scheme.kind in ("fixed_basis", "alternating_bases"):
        return InfoMatrix(infos(scheme.bases).mean(axis=0), "povm_fisher", std_error=zero)
    if scheme.kind == "random_basis_covariant":
        if n_bases < 1:
            raise ValueError("n_bases must be >= 1 for randomized schemes")
        rng = np.random.default_rng(seed)
        mats = infos(haar_unitaries(model.dim, n_bases, rng))
        se = mats.std(axis=0, ddof=1) / math.sqrt(n_bases) if n_bases > 1 else zero
        return InfoMatrix(mats.mean(axis=0), "povm_fisher", std_error=se)
    if scheme.kind == "two_step_adaptive":
        f = scheme.first_fraction
        stage1 = infos(scheme.bases).mean(axis=0)
        stage2 = infos(adapted_bases(model, theta)).mean(axis=0)
        return InfoMatrix(f * stage1 + (1.0 - f) * stage2, "povm_fisher", std_error=zero)
    raise ValueError(f"unknown scheme kind {scheme.kind!r}")


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

    def to_dict(self):
        return {"n_copies": self.n_copies, "trials": self.trials,
                "value": self.value, "std_error": self.std_error,
                "loss_summary": self.loss_summary, "failures": self.failures,
                "boundary_hits": self.boundary_hits}


def _run_trials(model, prior, scheme, estimator, n_copies, seed, indices):
    """(losses, boundary hits, errors) of the trials in indices."""
    losses, boundary, errors = [], 0, []
    for t in indices:
        loss, hit_boundary, err = _single_trial(model, prior, scheme, estimator,
                                                n_copies, seed, t)
        losses.append(loss)
        boundary += hit_boundary
        if err is not None:
            errors.append(err)
    return losses, boundary, errors


def _single_trial(model, prior, scheme, estimator, n_copies, seed, trial):
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(trial,)))
    theta = prior.sample(rng)
    try:
        data = sample_outcomes(model, theta, scheme, n_copies, seed=rng)
        hit_boundary = 0
        if estimator.kind == "oracle":
            theta_hat = theta
        elif estimator.kind == "mle":
            res = mle_estimate(data, model, **estimator.options)
            theta_hat, hit_boundary = res.theta, int(res.boundary)
        else:
            theta_hat, res = bayes_mean_estimate(
                data, model, estimator.prior or prior, **estimator.options)
            hit_boundary = int(res.boundary)
        safe = model.domain.project(theta_hat)
        if model.is_pure and np.linalg.norm(safe) >= 1.0:
            safe = safe * (1.0 - 1e-9)
        loss = 1.0 - fidelity(model.state(safe), model.state(theta))
        return max(loss, 0.0), hit_boundary, None
    except Exception as exc:  # counted; run aborts if the rate exceeds 1%
        return np.nan, 0, repr(exc)


def bayes_risk_mc(model: ParametricModel, prior: Prior, scheme: MeasurementScheme,
                  estimator: Estimator, n_copies, trials, seed=0,
                  workers=1) -> RiskEstimate:
    """N x empirical Bayes fidelity-risk over seeded independent trials.

    Draws theta from the prior, runs the scheme, estimates, and averages
    1 - Fid(rho(theta_hat), rho(theta)).  Aborts if more than 1% of the
    trials fail in the estimator.  With workers=1 the trials run on the
    caller's objects.  A pool of workers > 1 pickles the model, the prior
    and the estimator's prior through their JSON specs, so an object
    without a spec (a custom prior, a ParametricModel of a family that
    model_to_spec cannot describe) raises ValueError there.
    """
    if trials < 2:
        raise ValueError("need at least 2 trials")
    if n_copies < 1:
        raise ValueError("n_copies must be >= 1")
    run = functools.partial(_run_trials, model, prior, scheme, estimator,
                            int(n_copies), seed)
    if workers <= 1:
        results = [run(range(trials))]
    else:
        size = max(1, math.ceil(trials / (4 * workers)))
        chunks = [range(start, min(start + size, trials))
                  for start in range(0, trials, size)]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(run, chunks))  # in chunk order
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
    return RiskEstimate(int(n_copies), int(trials), value, std_error, summary,
                        failures=failures, boundary_hits=int(boundary))
