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
- the SLDs L_k are computed once per solve; they give both the Helstrom
  matrix H = Re Z(L) and the start X_j = sum_k (H^-1)_jk L_k, which is
  feasible and optimal in quasi-classical cases;
- the problem is convex (it is a semidefinite program), so a local minimum
  is the global one and each solve descends once, from that start or from
  a given warm start;
- the nonsmooth trace-abs term is smoothed, trace|A| -> trace sqrt(A^2+eps),
  with eps continuation 1e-2 -> 1e-10; each stage is minimized by gradient
  descent with Armijo backtracking, with the analytic gradient below (the
  tests check it against finite differences).
"""

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .config import DEFAULT_NUMERICS, NumericsConfig
from .errors import NonConvergenceError, NumericalError, RankDeficiencyError
from .information import helstrom_matrix, sld
from .linalg import (hermitian_basis, hermitize, min_eigenvalue,
                     sym_sqrt_and_inv_sqrt)
from .models import ParametricModel, check_density_matrix

DEFAULT_EPS_SCHEDULE = tuple(10.0 ** (-k) for k in range(2, 11))


# ---------------------------------------------------------------------------
# problem data and options

@dataclass(frozen=True)
class HolevoProblem:
    """Model-point data (rho, drho) together with the weight matrix G."""

    rho: np.ndarray
    drho: tuple
    weight: np.ndarray

    def __post_init__(self):
        rho = check_density_matrix(self.rho)
        drho = tuple(np.asarray(d, dtype=complex) for d in self.drho)
        numerics = DEFAULT_NUMERICS
        for i, dr in enumerate(drho):
            if abs(np.trace(dr)) > numerics.deriv_trace_tol:
                raise ValueError(f"drho[{i}] is not traceless")
        g = np.asarray(self.weight, dtype=float)
        if np.max(np.abs(g - g.T)) > 1e-9:
            raise ValueError("weight matrix must be symmetric")
        g = 0.5 * (g + g.T)
        if np.linalg.eigvalsh(g)[0] <= numerics.weight_eig_floor:
            raise ValueError("weight matrix must be positive-definite")
        if g.shape[0] != len(drho):
            raise ValueError("weight dimension != number of parameters")
        object.__setattr__(self, "rho", rho)
        object.__setattr__(self, "drho", drho)
        object.__setattr__(self, "weight", g)

    @property
    def num_params(self):
        return len(self.drho)


@dataclass
class SolverOptions:
    """Options for :func:`solve_holevo`; serializable via ``to_dict``.

    Every solve descends once, from ``x_warm`` when it is given and from
    the SLD collection otherwise; the problem is convex, so no restarts.
    """

    seed: int = 0                     # no effect; the benchmark workloads pass it
    max_iters: int = 600              # per smoothing stage
    eps_schedule: Sequence[float] = DEFAULT_EPS_SCHEDULE
    stage_rtol: float = 1e-9          # relative change over 5 iters ends a stage
    x_warm: Optional[Sequence[np.ndarray]] = None  # warm-start X collection

    def to_dict(self):
        return {"max_iters": self.max_iters,
                "eps_schedule": list(self.eps_schedule),
                "stage_rtol": self.stage_rtol}

    @classmethod
    def from_dict(cls, obj):
        unknown = set(obj) - {"max_iters", "eps_schedule", "stage_rtol"}
        if unknown:
            raise ValueError(f"unknown solver option keys: {sorted(unknown)}")
        obj = dict(obj)
        if "eps_schedule" in obj:
            obj["eps_schedule"] = tuple(obj["eps_schedule"])
        return cls(**obj)


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

def z_matrix(rho, xs):
    """Z(X)_ij = trace(rho X_i X_j); Hermitian and PSD up to rounding."""
    rho = np.asarray(rho, dtype=complex)
    xs = np.asarray(xs, dtype=complex)
    if xs.ndim == 2:
        xs = xs[None, :, :]
    if xs.shape[1] != rho.shape[0]:
        raise ValueError("X dimension != state dimension")
    return np.einsum("ab,ibc,jca->ij", rho, xs, xs)


def _value_and_v0(gh, ghinv, z):
    """(objective value, V0) at Z from one eigendecomposition of
    i Im(G^1/2 Z G^1/2), given G^1/2 and G^-1/2."""
    m = gh @ np.asarray(z, dtype=complex) @ gh
    w, v = np.linalg.eigh(1j * m.imag)
    abs_im = ((v * np.abs(w)) @ v.conj().T).real
    v0 = ghinv @ (m.real + abs_im) @ ghinv
    return float(np.trace(m).real + np.sum(np.abs(w))), 0.5 * (v0 + v0.T)


def holevo_objective(g, z):
    """trace Re(G^1/2 Z G^1/2) + trace abs Im(G^1/2 Z G^1/2)."""
    return _value_and_v0(*sym_sqrt_and_inv_sqrt(g), z)[0]


def recover_v0(g, z):
    """The unique real symmetric minimizer V0 of trace(GV) over V >= Z.

    V0 = G^{-1/2}(Re(G^{1/2} Z G^{1/2}) + abs Im(G^{1/2} Z G^{1/2}))G^{-1/2};
    trace(G V0) equals the objective value at Z.
    """
    return _value_and_v0(*sym_sqrt_and_inv_sqrt(g), z)[1]


def constraint_residual(drho, xs):
    """max |trace(drho_i X_j) - delta_ij| over all i, j."""
    c = np.einsum("iab,jba->ij", np.asarray(drho), np.asarray(xs))
    return float(np.max(np.abs(c - np.eye(*c.shape))))


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
    return np.einsum("acd,...dc->...a", basis, mats).real


class _FeasibleSet:
    """Affine feasible set {X_j} in an orthonormal Hermitian operator basis.

    Each X_j = P_j + sum_a t[j, a] N_a where the N_a span the common null
    space of the constraints trace(drho_i X) = 0 and trace(rho X) = 0.
    """

    def __init__(self, rho, drho):
        d = rho.shape[0]
        p = len(drho)
        self.basis = hermitian_basis(d)                  # (d^2, d, d)
        self.amat = _coords(self.basis, np.concatenate([drho, rho[None]]))  # (p+1, d^2)
        u, s, vt = np.linalg.svd(self.amat)
        rank = int(np.sum(s > 1e-12 * s[0]))
        if rank < p + 1:
            raise NumericalError("constraint matrix is rank deficient; "
                                 "model derivatives are linearly dependent")
        self.null = vt[rank:].T                          # (d^2, m), orthonormal
        self.m = self.null.shape[1]
        # full row rank: the pseudo-inverse is V S^-1 U^T; its last column
        # maps the centering row, whose right-hand side is 0
        pinv = (vt[:rank].T / s) @ u.T
        self.part_coords = pinv[:, :p].T                 # (p, d^2)
        self.pmats = np.einsum("ja,acd->jcd", self.part_coords, self.basis)
        self.nmats = np.einsum("am,acd->mcd", self.null, self.basis)
        self.rho = rho
        self.rho_n = np.einsum("ab,mbc->mac", rho, self.nmats)
        self.p = p

    def x_mats(self, t):
        return self.pmats + np.einsum("jm,mcd->jcd", t.reshape(self.p, self.m), self.nmats)

    def coords(self, xs):
        """Null-space coordinates of a feasible X collection."""
        return ((_coords(self.basis, np.asarray(xs)) - self.part_coords) @ self.null).ravel()


class _SmoothedObjective:
    def __init__(self, fs: _FeasibleSet, g):
        self.fs = fs
        self.g = g
        self.gh, self.ghinv = sym_sqrt_and_inv_sqrt(g)   # once per solve

    def z_of(self, t):
        xs = self.fs.x_mats(t)
        return np.einsum("ab,ibc,jca->ij", self.fs.rho, xs, xs), xs

    def value(self, t, eps):
        z, _ = self.z_of(t)
        m = self.gh @ z @ self.gh
        w = np.linalg.eigvalsh(1j * m.imag)
        return float(np.trace(m).real + np.sum(np.sqrt(w * w + eps)))

    def value_and_grad(self, t, eps):
        z, xs = self.z_of(t)
        m = self.gh @ z @ self.gh
        ah = 1j * m.imag
        w, v = np.linalg.eigh(ah)
        val = float(np.trace(m).real + np.sum(np.sqrt(w * w + eps)))
        if self.fs.m == 0:
            return val, np.zeros(0)
        # d trace sqrt(A^2+eps) = trace((A^2+eps)^{-1/2} A dA) with A = i Im M
        q = (v * (w / np.sqrt(w * w + eps))) @ v.conj().T
        tmat = self.gh @ q @ self.gh
        alpha = np.einsum("mac,kca->mk", self.fs.rho_n, xs)   # trace(rho N_a X_k)
        grad = 2.0 * (self.g @ alpha.real.T + tmat.imag @ alpha.imag.T)
        return val, grad.ravel()


def _minimize_stage(obj: _SmoothedObjective, t, eps, opts: SolverOptions):
    """Armijo-backtracking gradient descent on the eps-smoothed objective."""
    f, g = obj.value_and_grad(t, eps)
    step = 1.0
    history = [f]
    iters = 0
    for iters in range(1, opts.max_iters + 1):
        gnorm2 = float(g @ g)
        if gnorm2 < 1e-26:
            return t, f, iters, True
        accepted = False
        while step > 1e-18:
            t_new = t - step * g
            f_new = obj.value(t_new, eps)
            if f_new <= f - 1e-4 * step * gnorm2:
                accepted = True
                break
            step *= 0.5
        if not accepted:
            return t, f, iters, True   # no descent possible at machine scale
        t = t_new
        f, g = obj.value_and_grad(t, eps)
        step = min(step * 1.6, 1e6)
        history.append(f)
        if len(history) > 5:
            prev = history[-6]
            if abs(prev - f) <= opts.stage_rtol * max(1.0, abs(f)):
                return t, f, iters, True
    return t, f, iters, False


def solve_holevo(model: ParametricModel, theta, g, opts: Optional[SolverOptions] = None,
                 numerics: NumericsConfig = DEFAULT_NUMERICS) -> HolevoSolution:
    """Compute the Holevo bound C_G(theta) and its minimizer V0.

    Raises RankDeficiencyError when the Helstrom matrix is singular (the
    constraints are then infeasible) and NonConvergenceError, carrying the
    best value found, when the continuation fails to converge.
    """
    opts = opts or SolverOptions()
    rho = model.state(theta)
    drho = model.derivs(theta)
    g = np.asarray(g, dtype=float)
    problem = HolevoProblem(rho, drho, g)

    lams = sld(model, theta, numerics)   # the one SLD call of the solve
    hmat = z_matrix(problem.rho, lams).real
    hmat = 0.5 * (hmat + hmat.T)
    h_eigs = np.linalg.eigvalsh(hmat)
    if h_eigs[0] <= numerics.weight_eig_floor:
        raise RankDeficiencyError(
            f"Helstrom matrix is singular (eigenvalue {h_eigs[0]:.3e}); "
            "the constraint set is infeasible", eigenvalue=float(h_eigs[0]))
    hinv = np.linalg.inv(hmat)

    fs = _FeasibleSet(problem.rho, problem.drho)
    obj = _SmoothedObjective(fs, problem.weight)

    if opts.x_warm is not None:
        t_start = fs.coords(opts.x_warm)
    else:
        t_start = fs.coords(hermitize(np.einsum("jk,kcd->jcd", hinv, lams)))

    t = t_start
    total_iters = 0
    converged = True
    if fs.m > 0:
        for eps in opts.eps_schedule:
            t, _, iters, ok = _minimize_stage(obj, t, eps, opts)
            total_iters += iters
            converged = converged and ok
        if obj.value(t_start, 0.0) < obj.value(t, 0.0):
            t = t_start   # descent on the smoothed surrogate only
    xs = tuple(hermitize(fs.x_mats(t)))
    zs = z_matrix(problem.rho, np.stack(xs))
    value, v0 = _value_and_v0(obj.gh, obj.ghinv, zs)

    eps_final = opts.eps_schedule[-1] if fs.m else 0.0
    gap = obj.value(t, eps_final) - value if fs.m else 0.0

    diagnostics = {
        "iterations": total_iters,
        "final_eps": eps_final,
        "constraint_residual": constraint_residual(problem.drho, xs),
        "gap_estimate": float(max(gap, 0.0)) + len(drho) * math.sqrt(eps_final or 0.0),
        "null_dim": fs.m * fs.p,
        "converged": converged,
        "helstrom_value": float(np.trace(g @ hinv)),
    }

    solution = HolevoSolution(value=value, x_star=xs, z_star=zs, v0=v0,
                              diagnostics=diagnostics)
    _validate_solution(problem, solution, numerics)
    if not converged:
        raise NonConvergenceError(
            f"continuation did not converge within {opts.max_iters} iterations/stage",
            best_value=value, diagnostics=diagnostics)
    return solution


def _validate_solution(problem, sol: HolevoSolution, numerics: NumericsConfig):
    if min_eigenvalue(sol.v0 - sol.z_star) < -1e-7:
        raise NumericalError("V0 - Z(X*) is not PSD within tolerance")
    tv = float(np.trace(problem.weight @ sol.v0).real)
    if abs(tv - sol.value) > 1e-7 * max(1.0, abs(sol.value)):
        raise NumericalError("trace(G V0) does not reproduce the bound value")
    if sol.value < sol.diagnostics["helstrom_value"] - 1e-6:
        raise NumericalError("bound value fell below the Helstrom floor")


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
