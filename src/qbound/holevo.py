"""Holevo bound solver, dual bounds and the full-model embedding.

The bound for weight G at a model point is

    C_G = inf over feasible X of  trace Re(G^1/2 Z(X) G^1/2)
                                  + trace abs Im(G^1/2 Z(X) G^1/2),

where Z(X)_ij = trace(rho X_i X_j) and the X_j are Hermitian matrices with
trace(drho_i X_j) = delta_ij.  Without loss of generality the X_j are
restricted to trace(rho X_j) = 0 (centering any feasible X reduces Z in the
PSD order, and the objective is monotone in that order).

Solver design:

- the affine constraints are solved once; the optimization runs in
  unconstrained null-space coordinates, so every iterate is exactly feasible;
- the states, derivatives and SLDs L_k of a batch of n model points are
  computed at once, on arrays of shape (n, ...); the SLDs give both the
  Helstrom matrix H = Re Z(L) and the start X_j = sum_k (H^-1)_jk L_k,
  which is feasible.  ``solve_holevo`` is a batch of one;
- every solve is certified by the dual Holevo bound.  Since
  trace|A| = max trace(QA) over ||Q|| <= 1, C_G = max over B of D(B) with
  D(B) = min over feasible X of trace(W_B Z(X)), W_B = G^1/2 (1 + iB) G^1/2,
  B real antisymmetric with ||B|| <= 1.  Each D(B) is a lower bound on
  C_G and the minimum of a PSD quadratic in the null-space coordinates,
  one pseudo-inverse solve; D(0) = trace(G H^-1);
- a point whose value at the SLD start is within CERTIFY_RTOL of
  max(trace(G H^-1), D(B_s)), B_s = Im sign(i Im M), is solved with no
  iterations.  Every node of the builtin families certifies there: weak
  commutativity on bloch_equatorial, pure states on the pure families;
- every other point maximizes D alone by Newton ascent of
  D(B) + mu log det(1 + iB) as mu falls to 0; the barrier keeps ||B|| < 1
  for every p, so each D(B) on the way is a certified bound, and the
  minimizer of trace(W_B Z(X)) at the last B is the primal point;
- ``gap_estimate`` is value minus the largest lower bound found, so it
  bounds the error of the value.
"""

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import NonConvergenceError, NumericalError, RankDeficiencyError
# ``sld`` is not called here; it stays a name of this module because
# perfbench/tracer.py wraps qbound.holevo.sld
from .information import RANK_TOL, helstrom_matrix, sld, sld_from_state  # noqa: F401
from .linalg import (WEIGHT_EIG_FLOOR, _rise, hermitian_basis, hermitize,
                     sym_sqrt_and_inv_sqrt)
from .models import DERIV_TRACE_TOL, ParametricModel, check_density_matrix

# A point whose value is within CERTIFY_RTOL * max(1, |value|) of its
# certified lower bound is solved; only the others ascend the dual.
CERTIFY_RTOL = 1e-9
# Eigenvalues of the dual's Hessian below _PINV_CUTOFF * trace G are
# dropped from its pseudo-inverse.
_PINV_CUTOFF = 1e-10
CONSTRAINT_TOL = 1e-8   # |trace(drho_i X_j) - delta_ij| and |trace(rho X_j)| of a valid X
DUAL_SLACK_TOL = 1e-7   # allowed violation of trace(K I) <= C^K
_DELTA_MAX = 1e3        # largest shift delta that embedding_sequence adds to diag(V, 0)
_EMBEDDING_EPS = (1e-1, 1e-2, 1e-3)  # the eps of embedding_sequence's steps


# ---------------------------------------------------------------------------
# problem data and options

def _check_problem(rho, drho, g):
    """Validate stacks of states (n, d, d), derivatives (n, p, d, d) and
    weights (n, p, p); returns the symmetrized weights."""
    check_density_matrix(rho)
    traces = np.abs(np.trace(drho, axis1=-2, axis2=-1))
    if np.any(traces > DERIV_TRACE_TOL):
        i = int(np.argmax(np.max(traces, axis=0)))
        raise ValueError(f"drho[{i}] is not traceless")
    p = drho.shape[1]
    if g.shape[1:] != (p, p):
        raise ValueError("weight dimension != number of parameters")
    if not np.all(np.isfinite(g)):
        raise ValueError("weight matrix has a non-finite entry")
    gt = np.swapaxes(g, 1, 2)
    if np.max(np.abs(g - gt)) > 1e-9:
        raise ValueError("weight matrix must be symmetric")
    return 0.5 * (g + gt)   # sym_sqrt_and_inv_sqrt checks positive-definiteness


@dataclass
class SolverOptions:
    """Options for :func:`solve_holevo`."""

    seed: int = 0                     # no effect; the benchmark workloads pass it
    max_iters: int = 600              # Newton steps of the dual ascent per solve


@dataclass(frozen=True)
class HolevoSolution:
    """Optimizer record: value C_G, X*, Z(X*), the unique minimizer V0."""

    value: float
    x_star: tuple
    z_star: np.ndarray
    v0: np.ndarray
    diagnostics: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# objective building blocks

# A contraction over a batch axis must compute each point as it would
# compute that point alone, or results would depend on how points are
# batched.  matmul does; a two-operand einsum can change its summation
# order with the batch size, so those contractions are matmuls.  The
# three-operand einsum of z_matrix keeps one order for every batch size.
# The tests compare batched and one-point solves bit for bit.

def _flat(a):
    """Matrices (..., d, d) as rows (..., d*d)."""
    return a.reshape(*a.shape[:-2], a.shape[-2] * a.shape[-1])


def _dagger(a):
    return np.swapaxes(a.conj(), -1, -2)


def z_matrix(rho, xs):
    """Z(X)_ij = trace(rho X_i X_j); Hermitian and PSD up to rounding.

    rho (d, d) with xs (p, d, d) or one X (d, d); or stacks rho (n, d, d)
    with xs (n, p, d, d), giving (n, p, p).
    """
    rho = np.asarray(rho, dtype=complex)
    xs = np.asarray(xs, dtype=complex)
    if xs.ndim == rho.ndim:
        xs = xs[..., None, :, :]
    if xs.shape[-1] != rho.shape[-1]:
        raise ValueError("X dimension != state dimension")
    return np.einsum("...ab,...ibc,...jca->...ij", rho, xs, xs)


def _exact_terms(gh, ghinv, z):
    """(objective value, V0, M, (w, v)) at Z, given G^1/2 and G^-1/2, with
    M = G^1/2 Z G^1/2 and w, v the eigendecomposition of i Im M; Z may be
    a stack."""
    m = gh @ np.asarray(z, dtype=complex) @ gh
    w, v = np.linalg.eigh(1j * m.imag)
    abs_im = ((v * np.abs(w)[..., None, :]) @ _dagger(v)).real
    v0 = ghinv @ (m.real + abs_im) @ ghinv
    value = np.trace(m, axis1=-2, axis2=-1).real + np.sum(np.abs(w), axis=-1)
    return value, 0.5 * (v0 + np.swapaxes(v0, -1, -2)), m, (w, v)


def _sign_weight(w, v):
    """B_s = Im sign(i Im M) from the eigendecomposition (w, v) of i Im M;
    real antisymmetric with norm <= 1, and it attains
    trace abs Im M = -trace(B_s Im M)."""
    b = ((v * np.sign(w)[..., None, :]) @ _dagger(v)).imag
    return 0.5 * (b - np.swapaxes(b, -1, -2))


def holevo_objective(g, z):
    """trace Re(G^1/2 Z G^1/2) + trace abs Im(G^1/2 Z G^1/2)."""
    return float(_exact_terms(*sym_sqrt_and_inv_sqrt(g), z)[0])


def recover_v0(g, z):
    """The unique real symmetric minimizer V0 of trace(GV) over V >= Z.

    V0 = G^{-1/2}(Re(G^{1/2} Z G^{1/2}) + abs Im(G^{1/2} Z G^{1/2}))G^{-1/2};
    trace(G V0) equals the objective value at Z.
    """
    return _exact_terms(*sym_sqrt_and_inv_sqrt(g), z)[1]


def constraint_residual(drho, xs):
    """max |trace(drho_i X_j) - delta_ij| over all i, j; one value per point
    for stacks drho (n, p, d, d) and xs (n, p, d, d)."""
    c = np.einsum("...iab,...jba->...ij", np.asarray(drho), np.asarray(xs))
    return np.max(np.abs(c - np.eye(c.shape[-1])), axis=(-2, -1))


def check_x_collection(rho, drho, xs):
    """Validate a candidate X collection (feasibility and rho-centering)."""
    res = constraint_residual(drho, xs)
    if res > CONSTRAINT_TOL:
        raise ValueError(f"constraint residual {res:.3e} exceeds tolerance")
    centering = float(np.max(np.abs(np.einsum("ab,jba->j", rho, np.asarray(xs)))))
    if centering > CONSTRAINT_TOL:
        raise ValueError(f"X collection not rho-centered (|trace(rho X)| = {centering:.3e})")
    return res


# ---------------------------------------------------------------------------
# feasible set in null-space coordinates

def _coords(basis, mats):
    """Real coordinates trace(B_a M) in a stacked Hermitian basis (n, d, d)
    of one matrix (d, d) or of a stack (..., d, d); shape (..., n)."""
    return (_flat(np.swapaxes(mats, -1, -2)) @ _flat(basis).T).real


class _FeasibleSet:
    """Affine feasible sets {X_j}, one per point of a batch, in an
    orthonormal Hermitian operator basis.

    At point n, X_j = P_nj + sum_a t[n, j, a] N_na where the N_na span the
    common null space of the constraints trace(drho_ni X) = 0 and
    trace(rho_n X) = 0.  rho is (n, d, d) and drho (n, p, d, d).
    """

    def __init__(self, rho, drho):
        p, d = drho.shape[1], rho.shape[-1]
        self.basis = hermitian_basis(d)                  # (d^2, d, d)
        amat = _coords(self.basis, np.concatenate([drho, rho[:, None]], axis=1))
        u, s, vt = np.linalg.svd(amat)                   # amat: (n, p+1, d^2)
        if np.any(s[:, -1] <= 1e-12 * s[:, 0]):
            raise NumericalError("constraint matrix is rank deficient; "
                                 "model derivatives are linearly dependent")
        rank = p + 1
        self.null = np.swapaxes(vt[:, rank:], 1, 2)      # (n, d^2, m), orthonormal
        self.m = self.null.shape[2]
        # full row rank: the pseudo-inverse is V S^-1 U^T; its last column
        # maps the centering row, whose right-hand side is 0
        pinv = (np.swapaxes(vt[:, :rank], 1, 2) / s[:, None, :]) @ np.swapaxes(u, 1, 2)
        self.part_coords = np.swapaxes(pinv[:, :, :p], 1, 2)   # (n, p, d^2)
        n, b = len(rho), _flat(self.basis)
        self.pmats = (self.part_coords @ b).reshape(n, p, d, d)
        self.nflat = np.swapaxes(self.null, 1, 2) @ b    # (n, m, d^2): the N_a
        self.rho = rho
        # column a is rho N_a flattened: trace(rho N_a X) = flat(X^T) @ rho_n
        self.rho_n = np.ascontiguousarray(
            np.swapaxes(_flat(rho[:, None] @ self.nflat.reshape(n, -1, d, d)), 1, 2))
        # K_ab = trace(rho N_a N_b), Hermitian PSD with norm <= 1
        self.kmat = np.swapaxes(_flat(np.swapaxes(self.nflat.reshape(n, -1, d, d), -1, -2))
                                @ self.rho_n, 1, 2)
        self.p = p

    def x_mats(self, t, idx=slice(None)):
        """X collections (k, p, d, d) at coordinates t (k, p*m) of points idx."""
        base = self.pmats[idx]
        return base + (t.reshape(len(t), self.p, self.m) @ self.nflat[idx]).reshape(base.shape)

    def coords(self, xs):
        """Null-space coordinates (n, p*m) of feasible X collections
        (n, p, d, d), one per point."""
        t = (_coords(self.basis, xs) - self.part_coords) @ self.null
        return t.reshape(len(t), -1)


class _Dual:
    """The dual Holevo bounds D(B) of every point of a batch; ``idx``
    selects the points that a stack of X collections belongs to."""

    def __init__(self, fs: _FeasibleSet, g):
        self.fs = fs
        self.g = g
        self.gh, self.ghinv = sym_sqrt_and_inv_sqrt(g)   # once per batch
        # absolute: lambda_max(A) <= trace W_B = trace G, while on pure
        # states rho N = 0 and every entry of A is rounding noise
        self.cutoff = _PINV_CUTOFF * np.trace(g, axis1=1, axis2=2)

    def _alpha(self, xs, idx):
        """trace(rho N_a X_j) as (k, p, m)."""
        return _flat(np.swapaxes(xs, -1, -2)) @ self.fs.rho_n[idx]

    def parts(self, w, xs, idx=slice(None)):
        """c (k, p*m) and A (k, p*m, p*m), linear in the weights w (k, p, p):
        moving the feasible X_j by sum_a s_ja N_a changes trace(W Z(X)) by
        c.s + s^T A s, with c = 2 Re(W L), L_ja = trace(rho X_j N_a), and
        A = Re(W^T kron K)."""
        lin = 2.0 * (w @ self._alpha(xs, idx).conj()).real
        k, p, nm = lin.shape
        hess = (np.swapaxes(w, 1, 2)[:, :, None, :, None]
                * self.fs.kmat[idx][:, None, :, None, :]).real.reshape(k, p * nm, p * nm)
        return lin.reshape(k, p * nm), hess

    def value(self, m, xs, b, idx=slice(None)):
        """D(B) = min over feasible X of trace(W_B Z(X)) at points idx, a
        lower bound on C_G for every real antisymmetric B (k, p, p) with
        norm <= 1; W_B = G^1/2 (1 + iB) G^1/2 is then PSD.

        Expanded about feasible X (k, p, d, d) with M = G^1/2 Z(X) G^1/2,
        D(B) = trace(W_B Z(X)) - c^T A^+ c / 4 with c, A the parts of W_B.
        """
        gh = self.gh[idx]
        lin, hess = self.parts(self.g[idx] + 1j * (gh @ b @ gh), xs, idx)
        lam, u = np.linalg.eigh(hess)
        keep = lam > self.cutoff[idx][:, None]
        proj = (np.swapaxes(u, 1, 2) @ lin[..., None])[..., 0]
        decrement = np.sum(np.where(keep, proj * proj / np.where(keep, lam, 1.0), 0.0), axis=1)
        const = np.trace(m, axis1=1, axis2=2).real - np.trace(b @ m.imag, axis1=1, axis2=2)
        return const - 0.25 * decrement

    def newton_terms(self, m, xs, i, basis, b):
        """(D, s, gradient, minus Hessian) at point i, m and xs (p, d, d) as
        in ``value``, and B = sum_k b_k E_k, basis (nb, p, p).  e, c and A
        of D = e - c^T A^+ c / 4 are affine in b, with the slopes of
        W_k = i G^1/2 E_k G^1/2.  With s = -A^+ c / 2, D = e + c.s/2, the
        gradient is e_k + c_k.s + s.A_k s and minus the Hessian is
        r_k.A^+ r_l / 2, r_k = c_k + 2 A_k s."""
        w = np.concatenate([(np.eye(len(m)) + 1j * np.einsum("k,kij->ij", b, basis))[None],
                            1j * basis])
        e = np.einsum("kij,ji->k", w, m).real     # trace(G^1/2 w G^1/2 Z(X))
        lin, hess = self.parts(self.gh[i] @ w @ self.gh[i], xs[None], [i])
        lam, u = np.linalg.eigh(hess[0])
        keep = lam > self.cutoff[i]
        apinv = (u * np.where(keep, 1.0 / np.where(keep, lam, 1.0), 0.0)) @ u.T
        s = -0.5 * apinv @ lin[0]
        a_s = hess[1:] @ s
        r = lin[1:] + 2.0 * a_s
        return e[0] + 0.5 * lin[0] @ s, s, e[1:] + lin[1:] @ s + a_s @ s, 0.5 * r @ apinv @ r.T


def _barrier(b, basis):
    """(log det(1 + iB), gradient, minus Hessian) in the coordinates b of
    B = sum_k b_k E_k; with S = (1 + iB)^-1 the last two are trace(S iE_k)
    and trace(S iE_k S iE_l).  The log det is -inf unless ||B|| < 1."""
    ib = 1j * np.einsum("k,kij->ij", b, basis)
    w = np.linalg.eigvalsh(ib)          # pairs +-sigma, and 0 for odd p
    if w[0] <= -1.0:
        return -np.inf, None, None
    se = np.linalg.inv(np.eye(len(ib)) + ib) @ (1j * basis)
    return (np.sum(np.log1p(w)), np.trace(se, axis1=1, axis2=2).real,
            (_flat(se) @ _flat(np.swapaxes(se, 1, 2)).T).real)


def _ascend(dual: _Dual, xs, m, i, max_iters):
    """Maximize D over ||B|| <= 1 at point i, from B = 0; xs and m as in
    ``_Dual.value``.  Returns (s, D(b), Newton steps), with X + s the
    minimizer of trace(W_B Z(X)) at the last B.

    Newton steps on D + mu log det(1 + iB) are halved until that rises, or,
    once the decrement is below 1e-9 max(1, |D|) and a rise can be below
    rounding, until they stay inside the ball.  Once the decrement is below
    mu/10, or no halving rises, the point is centred and within about p mu
    of C_G: stop if p mu < 1e-12 max(1, |D|), else divide mu by 50.
    """
    p = m.shape[-1]
    eye, (j, k) = np.eye(p), np.triu_indices(p, 1)
    basis = eye[j, :, None] * eye[k, None, :] - eye[k, :, None] * eye[j, None, :]   # E_k
    b = np.zeros(len(basis))

    def objective(b):   # keeps the terms at b; -inf outside the ball, as mu > 0
        terms[:] = dual.newton_terms(m, xs, i, basis, b)
        return terms[0] + mu * _barrier(b, basis)[0]

    terms = list(dual.newton_terms(m, xs, i, basis, b))
    d_b, s, grad_d, hess_d = terms
    mu, steps = 0.01 * max(1.0, abs(d_b)) / p, 0
    while steps < max_iters:
        log_det, grad_b, hess_b = _barrier(b, basis)
        grad = grad_d + mu * grad_b
        step = np.linalg.solve(hess_d + mu * hess_b, grad)
        decrement, steps = grad @ step, steps + 1
        f = -np.inf if decrement < 1e-9 * max(1.0, abs(d_b)) else d_b + mu * log_det
        _, b, rose = _rise(f, b, [step], lambda x: x, objective)
        if rose:   # the accepted candidate is the last one objective saw
            d_b, s, grad_d, hess_d = terms
        if not rose or decrement < mu / 10.0:
            if p * mu < 1e-12 * max(1.0, abs(d_b)):
                break
            mu /= 50.0
    return s, d_b, steps


@dataclass(frozen=True)
class _BatchSolution:
    """Per-point results of a batch solve: arrays with a leading axis n.

    ``diagnostics`` maps each key of ``HolevoSolution.diagnostics`` to an
    array of per-point values, or to one value shared by the batch.
    """

    value: np.ndarray
    x_star: np.ndarray
    z_star: np.ndarray
    v0: np.ndarray
    diagnostics: dict

    def solution(self, i) -> HolevoSolution:
        diag = {k: v[i].item() if isinstance(v, np.ndarray) else v
                for k, v in self.diagnostics.items()}
        return HolevoSolution(value=float(self.value[i]), x_star=tuple(self.x_star[i]),
                              z_star=self.z_star[i], v0=self.v0[i], diagnostics=diag)

    def nonconvergence(self, i, opts: SolverOptions) -> NonConvergenceError:
        sol = self.solution(i)
        return NonConvergenceError(
            f"dual ascent did not certify the value within {opts.max_iters} Newton steps",
            best_value=sol.value, diagnostics=sol.diagnostics)


def _certified(dual: _Dual, t, floor, idx=slice(None)):
    """X, Z(X), the exact value, V0 and a certified lower bound on C_G at
    coordinates t (k, p*m) of points idx.

    The bound is the larger of floor and D(B_s), with B_s from X (see
    _sign_weight).  With an empty null space X is the one feasible point:
    the value is exact and is its own bound.
    """
    fs = dual.fs
    xs = hermitize(fs.x_mats(t, idx))
    zs = z_matrix(fs.rho[idx], xs)
    value, v0, m, (w, v) = _exact_terms(dual.gh[idx], dual.ghinv[idx], zs)
    if fs.m == 0:
        return xs, zs, value, v0, value.copy()
    return xs, zs, value, v0, np.maximum(floor, dual.value(m, xs, _sign_weight(w, v), idx))


def _solve_batch(model: ParametricModel, thetas, g, opts: SolverOptions):
    """Holevo solves at a stack of points thetas (n, p) with weights g (n, p, p).

    Each point is computed as it would be computed alone.  A point the SLD
    collection certifies keeps it, with no iterations; each other point
    ascends the dual alone (see _ascend) and is certified again at the
    primal point that the ascent ends on.  Non-convergence is reported per
    point in the diagnostics, not raised.
    """
    rho = model.state(thetas)                  # the one state/derivs evaluation
    drho = np.asarray(model.derivs(thetas), dtype=complex)
    g = _check_problem(rho, drho, np.asarray(g, dtype=float))

    lams = sld_from_state(rho, drho, model.is_pure)   # the one SLD evaluation
    hmat = z_matrix(rho, lams).real
    hmat = 0.5 * (hmat + np.swapaxes(hmat, 1, 2))
    h_min = np.linalg.eigvalsh(hmat)[:, 0]
    if np.any(h_min <= WEIGHT_EIG_FLOOR):
        worst = float(np.min(h_min))
        raise RankDeficiencyError(
            f"Helstrom matrix is singular (eigenvalue {worst:.3e}); "
            "the constraint set is infeasible", eigenvalue=worst)
    hinv = np.linalg.inv(hmat)

    fs = _FeasibleSet(rho, drho)
    dual = _Dual(fs, g)
    helstrom_value = np.einsum("nij,nji->n", g, hinv)
    t = fs.coords(hermitize((hinv @ _flat(lams)).reshape(lams.shape)))
    xs, zs, value, v0, lower = _certified(dual, t, helstrom_value)

    iters = np.zeros(len(thetas), dtype=int)
    for i in np.nonzero(value - lower > CERTIFY_RTOL * np.maximum(1.0, np.abs(value)))[0]:
        gh, row = dual.gh[i], [i]
        s, d_b, iters[i] = _ascend(dual, xs[i], gh @ zs[i] @ gh, i, opts.max_iters)
        xs[row], zs[row], value[row], v0[row], lower[row] = _certified(   # every D(B) bounds C_G
            dual, t[row] + s, np.maximum(lower[row], d_b), row)

    diagnostics = {
        "iterations": iters,
        "constraint_residual": constraint_residual(drho, xs),
        "gap_estimate": np.maximum(value - lower, 0.0),
        "lower_bound": lower,
        "null_dim": fs.m * fs.p,
        "converged": value - lower <= CERTIFY_RTOL * np.maximum(1.0, np.abs(value)),
        "helstrom_value": helstrom_value,
    }
    _validate_solutions(thetas, g, value, v0, zs, helstrom_value)
    return _BatchSolution(value, xs, zs, v0, diagnostics)


def solve_holevo(model: ParametricModel, theta, g,
                 opts: Optional[SolverOptions] = None) -> HolevoSolution:
    """Compute the Holevo bound C_G(theta) and its minimizer V0.

    Raises RankDeficiencyError when the Helstrom matrix is singular (the
    constraints are then infeasible) and NonConvergenceError, carrying the
    best value found, when the dual ascent does not certify it.
    """
    opts = opts or SolverOptions()
    thetas = np.asarray(theta, dtype=float).reshape(1, -1)
    batch = _solve_batch(model, thetas, np.asarray(g, dtype=float)[None], opts)
    if not batch.diagnostics["converged"][0]:
        raise batch.nonconvergence(0, opts)
    return batch.solution(0)


def _validate_solutions(thetas, g, value, v0, z_star, helstrom_value):
    """Check V0 >= Z(X*), trace(G V0) = value and value >= trace(G H^-1) at
    every point of a batch; raise NumericalError naming the first failure."""
    checks = (
        (np.linalg.eigvalsh(hermitize(v0 - z_star))[:, 0] < -1e-7,
         "V0 - Z(X*) is not PSD within tolerance"),
        (np.abs(np.einsum("nij,nji->n", g, v0) - value) > 1e-7 * np.maximum(1.0, np.abs(value)),
         "trace(G V0) does not reproduce the bound value"),
        (value < helstrom_value - 1e-6, "bound value fell below the Helstrom floor"),
    )
    for bad, message in checks:
        if np.any(bad):
            raise NumericalError(f"{message} at theta={thetas[np.argmax(bad)].tolist()}")


def quarter_helstrom_weight(model: ParametricModel, theta):
    """G = H(theta)/4, the weight matching fidelity loss."""
    return 0.25 * helstrom_matrix(model, theta).matrix


# ---------------------------------------------------------------------------
# dual bounds

def dual_bound(solution: HolevoSolution, g):
    """Dual weight K0 = V0 G V0 with trace(K0 I_M) <= C^{K0} = C_G.

    Requires a nonsingular V0 (singular weights are out of scope).
    """
    v0 = solution.v0
    if np.linalg.eigvalsh(v0)[0] <= WEIGHT_EIG_FLOOR:
        raise NumericalError("V0 is singular; dual construction unsupported")
    g = np.asarray(g, dtype=float)
    k0 = v0 @ g @ v0
    return 0.5 * (k0 + k0.T), solution.value


def check_dual(k, info, c_k):
    """Evaluate trace(K I) <= C^K; returns (holds, slack = C^K - trace(K I))."""
    imat = info.matrix if hasattr(info, "matrix") else np.asarray(info, dtype=float)
    slack = float(c_k - np.trace(np.asarray(k, dtype=float) @ imat))
    return slack >= -DUAL_SLACK_TOL, slack


# ---------------------------------------------------------------------------
# full-model embedding (convexity machinery)

def full_model_collection(rho):
    """Unique Y collection of the completely-unknown-state model at rho.

    Coordinates are Bloch-normalized: the derivative along coordinate i is
    T_i/sqrt(2) with T_i the orthonormal traceless Hermitian basis (for
    d = 2 these are the sigma_i/2).  Returns (ys, z_full).
    """
    rho = check_density_matrix(rho)
    w = np.linalg.eigvalsh(rho)
    if w[0] <= RANK_TOL:
        raise RankDeficiencyError(
            f"full model needs a nonsingular state (eigenvalue {w[0]:.3e})",
            eigenvalue=float(w[0]))
    derivs = hermitian_basis(rho.shape[0])[1:] / np.sqrt(2.0)  # the traceless part
    ys = _FeasibleSet(rho[None], derivs[None]).pmats[0]  # no null space: the unique one
    return list(ys), z_matrix(rho, ys)


@dataclass(frozen=True)
class EmbeddingStep:
    eps: float
    delta: float
    margin: float   # min eigenvalue of W_eps - Z_full (must be > 0)
    gap: float      # |(W_eps^{-1})_11 - V^{-1}| in max-entry norm


def embedding_sequence(solution: HolevoSolution, model: ParametricModel, theta):
    """Embed a submodel solution into the full-model picture.

    Augments X* with a basis of its rho-orthocomplement, solves for the
    unique full-model collection Y (whose leading block is X*), and for
    each eps of _EMBEDDING_EPS constructs
    W_eps = D_eps^{-1}(diag(V,0) + delta 1)D_eps^{-1} with
    delta(eps) = 1.01 * max(0, lambda_max(D_eps Z_full D_eps - diag(V,0))).
    Each step verifies W_eps > Z_full and reports the 11-block inversion gap.
    """
    rho = model.state(theta)
    w = np.linalg.eigvalsh(rho)
    if w[0] <= RANK_TOL:
        raise RankDeficiencyError("embedding requires a nonsingular state",
                                  eigenvalue=float(w[0]))
    drho = model.derivs(theta)
    v = np.asarray(solution.v0, dtype=float)
    xs = list(solution.x_star)
    p = len(xs)
    d = rho.shape[0]
    q = d * d - 1

    basis = hermitian_basis(d)
    rvec = _coords(basis, rho)
    # euclidean-orthonormal basis of {A : trace(rho A) = 0}
    _, _, vt = np.linalg.svd(rvec[None, :])
    lcols = vt[1:].T                                        # (d^2, q)
    lmats = np.einsum("am,acd->mcd", lcols, basis)
    gram = np.einsum("ab,mbc,nca->mn", rho, lmats, lmats).real
    gram = 0.5 * (gram + gram.T)
    xcoords = _coords(basis, np.stack(xs)) @ lcols
    # nu basis: orthocomplement of span{X*} under <A,B> = Re trace(rho A B)
    _, s, vt = np.linalg.svd(xcoords @ gram)
    rank = int(np.sum(s > 1e-12 * max(s[0], 1.0)))
    ncols = vt[rank:].T                                     # (q, q - p)
    nmats = np.einsum("qm,qcd->mcd", ncols, lmats)

    smats = hermitize(rho @ nmats + nmats @ rho) * 0.5
    ys = _FeasibleSet(rho[None], np.concatenate([drho, smats])[None]).pmats[0]
    lead_err = max(float(np.max(np.abs(ys[j] - xs[j]))) for j in range(p))
    if lead_err > 1e3 * CONSTRAINT_TOL:
        raise NumericalError(
            f"leading block of the full collection differs from X* by {lead_err:.3e}")
    z_full = z_matrix(rho, ys)

    v_ext = np.zeros((q, q))
    v_ext[:p, :p] = v
    v_inv = np.linalg.inv(v)
    steps = []
    for eps in _EMBEDDING_EPS:
        dvec = np.concatenate([np.ones(p), np.full(q - p, eps)])
        m_eps = z_full * np.outer(dvec, dvec)
        viol = float(np.linalg.eigvalsh(hermitize(m_eps - v_ext))[-1])
        delta = 1.01 * max(viol, 0.0) + 1e-12
        if delta > _DELTA_MAX:
            raise NumericalError(
                f"no delta < {_DELTA_MAX} makes W > Z_full at eps={eps} "
                f"(violating eigenvalue {viol:.3e})")
        w_eps = (v_ext + delta * np.eye(q)) / np.outer(dvec, dvec)
        margin = float(np.linalg.eigvalsh(hermitize(w_eps - z_full))[0])
        if margin <= 0.0:
            raise NumericalError(
                f"W - Z_full not positive definite at eps={eps} (margin {margin:.3e})")
        w_inv_lead = np.linalg.inv(w_eps)[:p, :p]
        gap = float(np.max(np.abs(w_inv_lead - v_inv)))
        steps.append(EmbeddingStep(eps=eps, delta=delta, margin=margin, gap=gap))
    return steps
