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
- every stage works on a batch of n model points at once, on arrays of
  shape (n, ...); the descent keeps a step size, a history and an
  active flag per point, so each point makes the accept/reject decisions
  of a solve on its own.  ``solve_holevo`` is a batch of one;
- the states, derivatives and SLDs L_k are computed once per batch; the
  SLDs give both the Helstrom matrix H = Re Z(L) and the start
  X_j = sum_k (H^-1)_jk L_k, which is feasible;
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
- only the other points descend, once, from the start or a given warm
  start; the problem is convex (it is a semidefinite program), so a local
  minimum is the global one;
- the nonsmooth trace-abs term is smoothed, trace|A| -> trace sqrt(A^2+eps),
  with eps continuation 1e-2 -> 1e-10; each stage is minimized by gradient
  descent with Armijo backtracking, with the analytic gradient below (the
  tests check it against finite differences);
- ``gap_estimate`` is value minus the largest lower bound found, so it
  bounds the error of the value.
"""

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .config import DEFAULT_NUMERICS, NumericsConfig
from .errors import NonConvergenceError, NumericalError, RankDeficiencyError
# ``sld`` is not called here; it stays a name of this module because
# perfbench/tracer.py wraps qbound.holevo.sld
from .information import helstrom_matrix, sld, sld_from_state  # noqa: F401
from .linalg import (hermitian_basis, hermitize, min_eigenvalue,
                     sym_sqrt_and_inv_sqrt)
from .models import ParametricModel, check_density_matrix

DEFAULT_EPS_SCHEDULE = tuple(10.0 ** (-k) for k in range(2, 11))
# A point whose value is within CERTIFY_RTOL * max(1, |value|) of its
# certified lower bound is solved; only the others descend.
CERTIFY_RTOL = 1e-9
# Eigenvalues of the dual's Hessian below _PINV_CUTOFF * trace G are
# dropped from its pseudo-inverse.
_PINV_CUTOFF = 1e-10


# ---------------------------------------------------------------------------
# problem data and options

def _check_problem(rho, drho, g, numerics: NumericsConfig):
    """Validate stacks of states (n, d, d), derivatives (n, p, d, d) and
    weights (n, p, p); returns the symmetrized weights."""
    check_density_matrix(rho, numerics)
    traces = np.abs(np.trace(drho, axis1=-2, axis2=-1))
    if np.any(traces > numerics.deriv_trace_tol):
        i = int(np.argmax(np.max(traces, axis=0)))
        raise ValueError(f"drho[{i}] is not traceless")
    p = drho.shape[1]
    if g.shape[1:] != (p, p):
        raise ValueError("weight dimension != number of parameters")
    gt = np.swapaxes(g, 1, 2)
    if np.max(np.abs(g - gt)) > 1e-9:
        raise ValueError("weight matrix must be symmetric")
    return 0.5 * (g + gt)   # sym_sqrt_and_inv_sqrt checks positive-definiteness


@dataclass
class SolverOptions:
    """Options for :func:`solve_holevo`.

    A solve that the SLD start does not certify descends once, from
    ``x_warm`` when it is given and from the SLD collection otherwise; the
    problem is convex, so no restarts.
    """

    seed: int = 0                     # no effect; the benchmark workloads pass it
    max_iters: int = 600              # per smoothing stage
    eps_schedule: Sequence[float] = DEFAULT_EPS_SCHEDULE
    stage_rtol: float = 1e-9          # relative change over 5 iters ends a stage
    x_warm: Optional[Sequence[np.ndarray]] = None  # warm-start X collection


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
# three-operand einsum of z_matrix keeps one order for every batch size,
# and its rounding, which the descent's stopping tests see, is the one
# the solver has always had.  The tests compare batched and one-point
# solves bit for bit.

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


def _dual_weight(w, v, eps):
    """B_eps = Im f(i Im M), f(a) = a / sqrt(a^2 + eps), from the
    eigendecomposition (w, v) of i Im M; real antisymmetric with norm <= 1.

    B_0 = Im sign(i Im M) attains trace abs Im M = -trace(B Im M); for
    eps > 0 it is the weight of the eps-smoothed objective's gradient.
    """
    f = np.sign(w) if eps == 0.0 else w / np.sqrt(w * w + eps)
    b = ((v * f[..., None, :]) @ _dagger(v)).imag
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


def check_x_collection(rho, drho, xs, numerics: NumericsConfig = DEFAULT_NUMERICS):
    """Validate a candidate X collection (feasibility and rho-centering)."""
    res = constraint_residual(drho, xs)
    if res > numerics.constraint_tol:
        raise ValueError(f"constraint residual {res:.3e} exceeds tolerance")
    centering = float(np.max(np.abs(np.einsum("ab,jba->j", rho, np.asarray(xs)))))
    if centering > numerics.constraint_tol:
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

    def coords(self, xs, idx=slice(None)):
        """Null-space coordinates (k, p*m) of feasible X collections
        (k, p, d, d) at points idx."""
        t = (_coords(self.basis, xs) - self.part_coords[idx]) @ self.null[idx]
        return t.reshape(len(t), -1)


class _SmoothedObjective:
    """The eps-smoothed objective of every point of a batch, and its dual
    lower bounds D(B); ``idx`` selects the points that coordinates ``t``
    (k, p*m) belong to."""

    def __init__(self, fs: _FeasibleSet, g):
        self.fs = fs
        self.g = g
        self.gh, self.ghinv = sym_sqrt_and_inv_sqrt(g)   # once per batch

    def _m(self, t, idx):
        xs = self.fs.x_mats(t, idx)
        gh = self.gh[idx]
        return gh @ z_matrix(self.fs.rho[idx], xs) @ gh, xs

    def value(self, t, eps, idx=slice(None)):
        m, _ = self._m(t, idx)
        w = np.linalg.eigvalsh(1j * m.imag)
        return np.trace(m, axis1=1, axis2=2).real + np.sum(np.sqrt(w * w + eps), axis=1)

    def _alpha(self, xs, idx):
        """trace(rho N_a X_j) as (k, p, m)."""
        return _flat(np.swapaxes(xs, -1, -2)) @ self.fs.rho_n[idx]

    def value_and_grad(self, t, eps, idx=slice(None)):
        m, xs = self._m(t, idx)
        w, v = np.linalg.eigh(1j * m.imag)
        val = np.trace(m, axis1=1, axis2=2).real + np.sum(np.sqrt(w * w + eps), axis=1)
        # d trace sqrt(A^2+eps) = trace((A^2+eps)^{-1/2} A dA) with A = i Im M
        q = (v * (w / np.sqrt(w * w + eps))[:, None, :]) @ _dagger(v)
        gh = self.gh[idx]
        tmat = gh @ q @ gh
        alpha = self._alpha(xs, idx)
        grad = 2.0 * (self.g[idx] @ alpha.real + tmat.imag @ alpha.imag)
        return val, grad.reshape(len(val), -1)

    def dual_value(self, m, xs, b, idx=slice(None)):
        """D(B) = min over feasible X of trace(W_B Z(X)) at points idx, a
        lower bound on C_G for every real antisymmetric B (k, p, p) with
        norm <= 1; W_B = G^1/2 (1 + iB) G^1/2 is then PSD.

        About a feasible X (k, p, d, d) with M = G^1/2 Z(X) G^1/2, moving
        X_j by sum_a s_ja N_a changes trace(W_B Z) by c.s + s^T A s with
        c = 2 Re(W_B L), L_ja = trace(rho X_j N_a), and A = Re(W_B^T kron K),
        so D(B) = trace(W_B Z(X)) - c^T A^+ c / 4.
        """
        gh, g = self.gh[idx], self.g[idx]
        wb = g + 1j * (gh @ b @ gh)
        lin = 2.0 * (wb @ self._alpha(xs, idx).conj()).real
        k, p, nm = lin.shape
        hess = (np.swapaxes(wb, 1, 2)[:, :, None, :, None]
                * self.fs.kmat[idx][:, None, :, None, :]).real.reshape(k, p * nm, p * nm)
        lam, u = np.linalg.eigh(hess)
        # an absolute cutoff: lambda_max(A) <= trace W_B = trace G, while on
        # pure states rho N = 0 and every entry of A is rounding noise
        keep = lam > _PINV_CUTOFF * np.trace(g, axis1=1, axis2=2)[:, None]
        proj = (np.swapaxes(u, 1, 2) @ lin.reshape(k, -1, 1))[..., 0]
        decrement = np.sum(np.where(keep, proj * proj / np.where(keep, lam, 1.0), 0.0), axis=1)
        const = np.trace(m, axis1=1, axis2=2).real - np.trace(b @ m.imag, axis1=1, axis2=2)
        return const - 0.25 * decrement


def _minimize_stage(obj: _SmoothedObjective, t, eps, opts: SolverOptions, rows):
    """Armijo-backtracking gradient descent on the eps-smoothed objective,
    for the points ``rows`` of the batch at coordinates t (len(rows), p*m).

    These points descend in lockstep, each with its own step size, history
    and stopping test; a point that stops leaves the active set.  Returns
    (t, iterations, converged), one entry per row.
    """
    n = len(t)
    t = t.copy()
    f, g = obj.value_and_grad(t, eps, rows)
    step = np.ones(n)
    history = np.empty((6, n))    # the last six values, indexed by iteration % 6
    history[0] = f
    iters = np.full(n, opts.max_iters)
    converged = np.zeros(n, dtype=bool)
    active = np.arange(n)
    for it in range(1, opts.max_iters + 1):
        ga = g[active]
        gnorm2 = (ga[:, None, :] @ ga[:, :, None])[:, 0, 0]
        flat = gnorm2 < 1e-26
        iters[active[flat]], converged[active[flat]] = it, True
        active, gnorm2 = active[~flat], gnorm2[~flat]
        # backtracking: halve each point's step until it gives sufficient descent
        accepted = np.zeros(n, dtype=bool)
        search, gn2 = active, gnorm2
        while search.size:
            s = step[search]
            t_new = t[search] - s[:, None] * g[search]
            ok = obj.value(t_new, eps, rows[search]) <= f[search] - 1e-4 * s * gn2
            t[search[ok]] = t_new[ok]
            accepted[search[ok]] = True
            search, gn2 = search[~ok], gn2[~ok]
            step[search] *= 0.5
            keep = step[search] > 1e-18
            search, gn2 = search[keep], gn2[keep]
        stuck = active[~accepted[active]]    # no descent possible at machine scale
        iters[stuck], converged[stuck] = it, True
        active = active[accepted[active]]
        if active.size == 0:
            break
        f[active], g[active] = obj.value_and_grad(t[active], eps, rows[active])
        step[active] = np.minimum(step[active] * 1.6, 1e6)
        history[it % 6, active] = f[active]
        if it >= 5:
            fa = f[active]
            done = np.abs(history[(it + 1) % 6, active] - fa) <= \
                opts.stage_rtol * np.maximum(1.0, np.abs(fa))
            iters[active[done]], converged[active[done]] = it, True
            active = active[~done]
            if active.size == 0:
                break
    return t, iters, converged


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
            f"continuation did not converge within {opts.max_iters} iterations/stage",
            best_value=sol.value, diagnostics=sol.diagnostics)


def _certified(obj: _SmoothedObjective, t, floor, idx=slice(None), eps_values=(0.0,)):
    """X, Z(X), the exact value, V0 and a certified lower bound on C_G at
    coordinates t (k, p*m) of points idx.

    The bound is the largest of floor and D(B_eps) for eps in eps_values,
    with B_eps from X (see _dual_weight).  With an empty null space X is
    the one feasible point: the value is exact and is its own bound.
    """
    fs = obj.fs
    xs = hermitize(fs.x_mats(t, idx))
    zs = z_matrix(fs.rho[idx], xs)
    value, v0, m, (w, v) = _exact_terms(obj.gh[idx], obj.ghinv[idx], zs)
    if fs.m == 0:
        return xs, zs, value, v0, value.copy()
    lower = floor
    for eps in eps_values:
        lower = np.maximum(lower, obj.dual_value(m, xs, _dual_weight(w, v, eps), idx))
    return xs, zs, value, v0, lower


def _solve_batch(model: ParametricModel, thetas, g, opts: SolverOptions,
                 numerics: NumericsConfig = DEFAULT_NUMERICS, x_warm=None):
    """Holevo solves at a stack of points thetas (n, p) with weights g (n, p, p).

    Each point is computed as it would be computed alone.  A point the SLD
    collection certifies keeps it, with no iterations.  The others descend
    from ``x_warm`` (n, p, d, d) when it is given and from the SLD
    collection otherwise; ``opts.x_warm`` is not read.
    Non-convergence is reported per point in the diagnostics, not raised.
    """
    rho = model.state(thetas)                  # the one state/derivs evaluation
    drho = np.asarray(model.derivs(thetas), dtype=complex)
    g = _check_problem(rho, drho, np.asarray(g, dtype=float), numerics)

    lams = sld_from_state(rho, drho, model.is_pure, numerics)   # the one SLD evaluation
    hmat = z_matrix(rho, lams).real
    hmat = 0.5 * (hmat + np.swapaxes(hmat, 1, 2))
    h_min = np.linalg.eigvalsh(hmat)[:, 0]
    if np.any(h_min <= numerics.weight_eig_floor):
        worst = float(np.min(h_min))
        raise RankDeficiencyError(
            f"Helstrom matrix is singular (eigenvalue {worst:.3e}); "
            "the constraint set is infeasible", eigenvalue=worst)
    hinv = np.linalg.inv(hmat)

    fs = _FeasibleSet(rho, drho)
    obj = _SmoothedObjective(fs, g)
    helstrom_value = np.einsum("nij,nji->n", g, hinv)
    t = fs.coords(hermitize((hinv @ _flat(lams)).reshape(lams.shape)))
    xs, zs, value, v0, lower = _certified(obj, t, helstrom_value)

    n = len(thetas)
    iters = np.zeros(n, dtype=int)
    converged = np.ones(n, dtype=bool)
    final_eps = np.zeros(n)
    # only points the SLD start does not certify descend
    rows = np.nonzero(value - lower > CERTIFY_RTOL * np.maximum(1.0, np.abs(value)))[0]
    if rows.size:
        t_start = t[rows] if x_warm is None else fs.coords(np.asarray(x_warm)[rows], rows)
        t_rows = t_start
        for eps in opts.eps_schedule:
            t_rows, stage_iters, ok = _minimize_stage(obj, t_rows, eps, opts, rows)
            iters[rows] += stage_iters
            converged[rows] &= ok
        final_eps[rows] = opts.eps_schedule[-1]
        # descent on the smoothed surrogate only: keep the start where it is lower
        lower_start = obj.value(t_start, 0.0, rows) < obj.value(t_rows, 0.0, rows)
        t_rows = np.where(lower_start[:, None], t_start, t_rows)
        # at a kink of the objective the smoothed weight bounds more tightly
        xs_r, zs_r, value_r, v0_r, lower_r = _certified(
            obj, t_rows, helstrom_value[rows], rows, (0.0, opts.eps_schedule[-1]))
        xs[rows], zs[rows], value[rows], v0[rows] = xs_r, zs_r, value_r, v0_r
        lower[rows] = np.maximum(lower[rows], lower_r)   # every D(B) bounds C_G

    diagnostics = {
        "iterations": iters,
        "final_eps": final_eps,
        "constraint_residual": constraint_residual(drho, xs),
        "gap_estimate": np.maximum(value - lower, 0.0),
        "lower_bound": lower,
        "null_dim": fs.m * fs.p,
        "converged": converged,
        "helstrom_value": helstrom_value,
    }
    _validate_solutions(thetas, g, value, v0, zs, helstrom_value)
    return _BatchSolution(value, xs, zs, v0, diagnostics)


def solve_holevo(model: ParametricModel, theta, g, opts: Optional[SolverOptions] = None,
                 numerics: NumericsConfig = DEFAULT_NUMERICS) -> HolevoSolution:
    """Compute the Holevo bound C_G(theta) and its minimizer V0.

    Raises RankDeficiencyError when the Helstrom matrix is singular (the
    constraints are then infeasible) and NonConvergenceError, carrying the
    best value found, when the continuation fails to converge.
    """
    opts = opts or SolverOptions()
    thetas = np.asarray(theta, dtype=float).reshape(1, -1)
    x_warm = None if opts.x_warm is None else np.asarray(opts.x_warm, dtype=complex)[None]
    batch = _solve_batch(model, thetas, np.asarray(g, dtype=float)[None], opts, numerics,
                         x_warm=x_warm)
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

def dual_bound(solution: HolevoSolution, g,
               numerics: NumericsConfig = DEFAULT_NUMERICS):
    """Dual weight K0 = V0 G V0 with trace(K0 I_M) <= C^{K0} = C_G.

    Requires a nonsingular V0 (singular weights are out of scope).
    """
    v0 = solution.v0
    if np.linalg.eigvalsh(v0)[0] <= numerics.weight_eig_floor:
        raise NumericalError("V0 is singular; dual construction unsupported")
    g = np.asarray(g, dtype=float)
    k0 = v0 @ g @ v0
    return 0.5 * (k0 + k0.T), solution.value


def check_dual(k, info, c_k, slack_tol=DEFAULT_NUMERICS.dual_slack_tol):
    """Evaluate trace(K I) <= C^K; returns (holds, slack = C^K - trace(K I))."""
    imat = info.matrix if hasattr(info, "matrix") else np.asarray(info, dtype=float)
    slack = float(c_k - np.trace(np.asarray(k, dtype=float) @ imat))
    return slack >= -slack_tol, slack


# ---------------------------------------------------------------------------
# full-model embedding (convexity machinery)

def full_model_collection(rho, numerics: NumericsConfig = DEFAULT_NUMERICS):
    """Unique Y collection of the completely-unknown-state model at rho.

    Coordinates are Bloch-normalized: the derivative along coordinate i is
    T_i/sqrt(2) with T_i the orthonormal traceless Hermitian basis (for
    d = 2 these are the sigma_i/2).  Returns (ys, z_full).
    """
    rho = check_density_matrix(rho)
    w = np.linalg.eigvalsh(rho)
    if w[0] <= numerics.rank_tol:
        raise RankDeficiencyError(
            f"full model needs a nonsingular state (eigenvalue {w[0]:.3e})",
            eigenvalue=float(w[0]))
    basis = hermitian_basis(rho.shape[0])
    derivs = basis[1:] / np.sqrt(2.0)        # the traceless part of the basis
    amat = _coords(basis, np.concatenate([derivs, rho[None]]))
    q = len(derivs)
    rhs = np.vstack([np.eye(q), np.zeros((1, q))])
    ys = np.einsum("aj,acd->jcd", np.linalg.solve(amat, rhs), basis)
    return list(ys), z_matrix(rho, ys)


def full_model_z(rho, numerics: NumericsConfig = DEFAULT_NUMERICS):
    """Z(Y) of the completely-unknown-state model at rho."""
    return full_model_collection(rho, numerics)[1]


@dataclass(frozen=True)
class EmbeddingStep:
    eps: float
    delta: float
    margin: float   # min eigenvalue of W_eps - Z_full (must be > 0)
    gap: float      # |(W_eps^{-1})_11 - V^{-1}| in max-entry norm


def embedding_sequence(solution: HolevoSolution, model: ParametricModel, theta,
                       eps_schedule=(1e-1, 1e-2, 1e-3), delta_max=1e3,
                       numerics: NumericsConfig = DEFAULT_NUMERICS):
    """Embed a submodel solution into the full-model picture.

    Augments X* with a basis of its rho-orthocomplement, solves for the
    unique full-model collection Y (whose leading block is X*), and for
    each eps constructs W_eps = D_eps^{-1}(diag(V,0) + delta 1)D_eps^{-1}
    with delta(eps) = 1.01 * max(0, lambda_max(D_eps Z_full D_eps - diag(V,0))).
    Each step verifies W_eps > Z_full and reports the 11-block inversion gap.
    """
    rho = model.state(theta)
    w = np.linalg.eigvalsh(rho)
    if w[0] <= numerics.rank_tol:
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
    amat = np.vstack([_coords(basis, np.asarray(drho)), _coords(basis, smats),
                      rvec])                                # (d^2, d^2)
    rhs = np.vstack([np.eye(q), np.zeros((1, q))])
    ys = np.einsum("aj,acd->jcd", np.linalg.solve(amat, rhs), basis)
    lead_err = max(float(np.max(np.abs(ys[j] - xs[j]))) for j in range(p))
    if lead_err > 1e3 * numerics.constraint_tol:
        raise NumericalError(
            f"leading block of the full collection differs from X* by {lead_err:.3e}")
    z_full = z_matrix(rho, ys)

    v_ext = np.zeros((q, q))
    v_ext[:p, :p] = v
    v_inv = np.linalg.inv(v)
    steps = []
    for eps in eps_schedule:
        dvec = np.concatenate([np.ones(p), np.full(q - p, eps)])
        m_eps = z_full * np.outer(dvec, dvec)
        viol = float(np.linalg.eigvalsh(hermitize(m_eps - v_ext))[-1])
        delta = 1.01 * max(viol, 0.0) + 1e-12
        if delta > delta_max:
            raise NumericalError(
                f"no delta < {delta_max} makes W > Z_full at eps={eps} "
                f"(violating eigenvalue {viol:.3e})")
        w_eps = (v_ext + delta * np.eye(q)) / np.outer(dvec, dvec)
        margin = min_eigenvalue(w_eps - z_full)
        if margin <= 0.0:
            raise NumericalError(
                f"W - Z_full not positive definite at eps={eps} (margin {margin:.3e})")
        w_inv_lead = np.linalg.inv(w_eps)[:p, :p]
        gap = float(np.max(np.abs(w_inv_lead - v_inv)))
        steps.append(EmbeddingStep(eps=eps, delta=delta, margin=margin, gap=gap))
    return steps
