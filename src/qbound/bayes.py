"""Priors, quadratic loss specs, the integrated Holevo bound and van Trees.

Quadrature uses polar/spherical product grids (Gauss-Legendre radial x
uniform angular) on ball supports, with a Monte Carlo fallback; every
grid bound carries an error estimate, the refinement difference plus the
certified solver gaps.  Every Holevo solve of the module goes through
``_solve_nodes``: a stack of nodes, each solved cold from its SLD start,
in consecutive batches of ``_NODE_BATCH`` nodes.
"""

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .config import DEFAULT_NUMERICS
from .errors import DivergentIntegralError, InfeasibleTaperError, NumericalError
# ``solve_holevo`` is not called here; it stays a name of this module
# because perfbench/tracer.py wraps qbound.bayes.solve_holevo
from .holevo import SolverOptions, _solve_batch, solve_holevo  # noqa: F401
from .models import Domain, ParametricModel, embedding_loss_scale, fidelity_embedding

# Nodes per batch solve; bounds the memory of a batch.
_NODE_BATCH = 256
# Rejection rounds before Prior.sample gives up: a density that is zero (or
# far below ``peak``) on the envelope would otherwise never fill the draw.
_MAX_REJECTION_ROUNDS = 1000

# ---------------------------------------------------------------------------
# priors

@dataclass(frozen=True)
class Prior:
    """Probability density on a compact ball support.

    ``density`` vanishes outside the support; ``density_grad`` is the
    gradient of the density (analytic for the builtin families).
    ``density_fn`` takes a stack of points (n, p) and returns (n,) values
    or one value for all; ``grad_fn`` takes one point.  Builtin families
    carry a JSON-serializable ``spec``.
    """

    domain: Domain
    density_fn: Callable = field(repr=False)
    grad_fn: Callable = field(repr=False)
    family: str = "custom"
    peak: float = 1.0
    spec: Optional[dict] = None

    def density(self, theta):
        """Density at one point (p,), a float, or at each point of a stack
        (n, p); a point is computed as a stack of one."""
        theta = np.asarray(theta, dtype=float)
        stack = theta.reshape(-1, self.domain.dim)
        vals = np.broadcast_to(np.asarray(self.density_fn(stack), dtype=float), len(stack))
        vals = np.where(self.domain.contains(stack), vals, 0.0)
        return float(vals[0]) if theta.ndim == 1 else vals

    def density_grad(self, theta):
        theta = np.asarray(theta, dtype=float)
        if not self.domain.contains(theta):
            return np.zeros(self.domain.dim)
        return np.asarray(self.grad_fn(theta), dtype=float)

    def sample(self, rng, n=None):
        """Rejection sampling from the uniform ball envelope."""
        single = n is None
        count = 1 if single else int(n)
        out = np.empty((count, self.domain.dim))
        r0 = self.domain.radius
        p = self.domain.dim
        got = rounds = 0
        while got < count:
            if rounds == _MAX_REJECTION_ROUNDS:
                raise NumericalError(
                    f"rejection sampling accepted {got} of {count} draws in "
                    f"{rounds} rounds; the density is zero or far below its "
                    f"peak {self.peak:g} on the support")
            rounds += 1
            m = max(16, 2 * (count - got))
            x = rng.standard_normal((m, p))
            x /= np.linalg.norm(x, axis=1, keepdims=True)
            x *= r0 * rng.random(m)[:, None] ** (1.0 / p)
            dens = self.density(x)
            keep = rng.random(m) * self.peak <= dens
            take = x[keep][:count - got]
            out[got:got + take.shape[0]] = take
            got += take.shape[0]
        return out[0] if single else out


def _sq_norms(theta):
    """|theta|^2 of each point of a stack (n, p), in the arithmetic of
    ``theta @ theta`` for one point, which a sum over the last axis does
    not reproduce to the last bit."""
    return (theta[..., None, :] @ theta[..., :, None])[..., 0, 0]


def _ball_volume(p, r):
    return math.pi ** (p / 2.0) / math.gamma(p / 2.0 + 1.0) * r ** p


def _radial_mass(p, r0, radial_fn, n=128):
    """integral over the ball of radial_fn(r/r0) using Gauss-Legendre."""
    x, w = np.polynomial.legendre.leggauss(n)
    r = 0.5 * r0 * (x + 1.0)
    wr = 0.5 * r0 * w
    surf = _ball_volume(p, 1.0) * p  # surface area of the unit sphere in R^p
    vals = np.array([radial_fn(ri / r0) for ri in r])
    return float(np.sum(wr * surf * r ** (p - 1) * vals))


def _check_radius(r0):
    if not 0.0 < r0 < math.inf:
        raise ValueError(f"prior radius must be positive and finite, got {r0}")


def bump_prior(p, r0=0.9):
    """pi(theta) proportional to (1 - (|theta|/r0)^2)^2 on |theta| <= r0.

    Smooth, zero on the boundary, with analytic gradient.
    """
    _check_radius(r0)
    mass = _radial_mass(p, r0, lambda u: (1.0 - u * u) ** 2)
    c = 1.0 / mass

    def dens(theta):
        u2 = _sq_norms(theta) / (r0 * r0)
        return np.where(u2 < 1.0, c * (1.0 - u2) ** 2, 0.0)

    def grad(theta):
        u2 = float(theta @ theta) / (r0 * r0)
        if u2 >= 1.0:
            return np.zeros_like(theta)
        return -4.0 * c * (1.0 - u2) / (r0 * r0) * theta

    return Prior(Domain("ball", radius=r0, dim=p), dens, grad,
                 family="bump", peak=c,
                 spec={"family": "bump", "dim": p, "radius": r0})


def uniform_ball_prior(p, r0=1.0):
    """Uniform density on the ball; not boundary-zero (taper before use)."""
    _check_radius(r0)
    c = 1.0 / _ball_volume(p, r0)
    return Prior(Domain("ball", radius=r0, dim=p),
                 lambda theta: c, lambda theta: np.zeros(p),
                 family="uniform_ball", peak=c,
                 spec={"family": "uniform_ball", "dim": p, "radius": r0})


def prior_to_spec(prior: Prior):
    """JSON form of a builtin prior (family tag plus parameters)."""
    if prior.spec is None:
        raise ValueError(f"prior family {prior.family!r} has no JSON form")
    return dict(prior.spec)


def prior_from_spec(spec):
    allowed = {"family", "dim", "radius", "base", "eps", "delta"}
    unknown = set(spec) - allowed
    if unknown:
        raise ValueError(f"unknown prior spec keys: {sorted(unknown)}")
    family = spec.get("family")
    if family == "bump":
        return bump_prior(int(spec["dim"]), float(spec.get("radius", 0.9)))
    if family == "uniform_ball":
        return uniform_ball_prior(int(spec["dim"]), float(spec.get("radius", 1.0)))
    if family == "tapered":
        return prior_taper(prior_from_spec(spec["base"]),
                           float(spec["eps"]), float(spec["delta"]))
    raise ValueError(f"unknown prior family {family!r}")


def prior_taper(base: Prior, eps, delta):
    """Smooth cutoff of a prior to the ball of radius (1 - delta) * r_base.

    The tapered density always stays below (1 + eps) * base density; if the
    removed mass makes that impossible the combination is rejected.
    """
    if delta <= 0.0:
        raise InfeasibleTaperError("delta must be positive (boundary-zero fails at delta = 0)")
    if eps <= 0.0:
        raise InfeasibleTaperError("eps must be positive")
    r_base = base.domain.radius
    p = base.domain.dim
    b = (1.0 - delta) * r_base
    a = max(0.0, (1.0 - 1.2 * delta)) * r_base  # narrow window keeps mass loss small

    def cutoff(r):
        inside = np.cos(0.5 * math.pi * (r - a) / (b - a)) ** 2
        return np.where(r <= a, 1.0, np.where(r >= b, 0.0, inside))

    def cutoff_deriv(r):
        if r <= a or r >= b:
            return 0.0
        s = 0.5 * math.pi * (r - a) / (b - a)
        return -math.cos(s) * math.sin(s) * math.pi / (b - a)

    # integrate over the tapered support [0, b]: GL nodes cluster at the
    # endpoint, where the narrow cutoff window lives
    grid = _BallGrid(p, b, 128, max(48, 8 * p))
    kept = float(np.sum(grid.weights * base.density(grid.nodes)
                        * cutoff(np.sqrt(_sq_norms(grid.nodes)))))
    if kept <= 0.0 or 1.0 / kept > 1.0 + eps + 1e-9:
        raise InfeasibleTaperError(
            f"taper removes mass {1.0 - kept:.4f}; renormalization factor "
            f"{1.0 / max(kept, 1e-300):.4f} exceeds 1 + eps = {1.0 + eps}")
    scale = 1.0 / kept

    def dens(theta):
        return scale * base.density(theta) * cutoff(np.sqrt(_sq_norms(theta)))

    def grad(theta):
        r = float(np.linalg.norm(theta))
        h = float(cutoff(r))
        g = scale * base.density_grad(theta) * h
        if r > 0.0:
            g = g + scale * base.density(theta) * cutoff_deriv(r) * theta / r
        return g

    spec = None
    if base.spec is not None:
        spec = {"family": "tapered", "base": dict(base.spec),
                "eps": eps, "delta": delta}
    return Prior(Domain("ball", radius=b, dim=p), dens, grad,
                 family=f"tapered_{base.family}", peak=scale * base.peak,
                 spec=spec)


# ---------------------------------------------------------------------------
# loss specifications

@dataclass(frozen=True)
class LossSpec:
    """Quadratic loss  (psi_hat - psi)^T Gtilde (psi_hat - psi).

    ``g0(theta) = psi'(theta)^T Gtilde psi'(theta)`` is the induced weight
    for the underlying parameter.  ``g0`` takes one point (p,) or a stack
    (n, p) when ``psi_jac`` and ``gtilde`` do.
    """

    psi: Callable = field(repr=False)
    psi_jac: Callable = field(repr=False)
    gtilde: Callable = field(repr=False)
    loss: Callable = field(repr=False)
    name: str = "custom"

    def to_spec(self):
        if self.name != "fidelity":
            raise ValueError(f"loss {self.name!r} has no JSON form")
        return {"family": "fidelity"}

    def g0(self, theta):
        jac = self.psi_jac(theta)
        g = np.swapaxes(jac, -1, -2) @ self.gtilde(theta) @ jac
        g = 0.5 * (g + np.swapaxes(g, -1, -2))
        if np.any(np.linalg.eigvalsh(g)[..., 0] <= DEFAULT_NUMERICS.weight_eig_floor):
            raise NumericalError("induced weight G0 is not positive-definite")
        return g


def loss_from_spec(spec, model: ParametricModel) -> "LossSpec":
    unknown = set(spec) - {"family"}
    if unknown:
        raise ValueError(f"unknown loss spec keys: {sorted(unknown)}")
    if spec.get("family") != "fidelity":
        raise ValueError(f"unknown loss family {spec.get('family')!r}")
    return fidelity_loss(model)


def fidelity_loss(model: ParametricModel) -> LossSpec:
    """Loss 1 - Fid written exactly as a quadratic form in the embedding.

    Gtilde = s * identity with s = 1/4 (Bloch families) or 1/2 (pure
    families); the induced weight is G0 = H/4.
    """
    s = embedding_loss_scale(model)
    q = len(fidelity_embedding(model, model.domain.reference_point)[0])
    eye = s * np.eye(q)

    def loss(theta_hat, theta):
        dpsi = fidelity_embedding(model, theta_hat)[0] - fidelity_embedding(model, theta)[0]
        return float(s * dpsi @ dpsi)

    return LossSpec(psi=lambda t: fidelity_embedding(model, t)[0],
                    psi_jac=lambda t: fidelity_embedding(model, t)[1],
                    gtilde=lambda t: eye, loss=loss, name="fidelity")


# ---------------------------------------------------------------------------
# quadrature grids

class _BallGrid:
    """Gauss-Legendre radial x angular product grid on a ball.

    Directions are +-1 for p = 1, n_angular equispaced angles for p = 2,
    and n_angular azimuths x Gauss-Legendre polar cosines for p = 3; the
    nodes run over the n_radial radii of one direction, then the next.
    """

    def __init__(self, p, r0, n_radial, n_angular):
        if n_radial < 1 or n_angular < 1:
            raise ValueError("grids need n_radial >= 1 and n_angular >= 1")
        self.p, self.r0 = p, r0
        self.n_radial, self.n_angular = n_radial, n_angular
        xr, wr = np.polynomial.legendre.leggauss(n_radial)
        r = 0.5 * r0 * (xr + 1.0)
        wr = 0.5 * r0 * wr * r ** (p - 1)
        ang = 2.0 * math.pi * np.arange(n_angular) / n_angular
        w_ang = np.full(n_angular, 2.0 * math.pi / n_angular)
        if p == 1:
            dirs, w_dir = np.array([[-1.0], [1.0]]), np.ones(2)
        elif p == 2:
            dirs, w_dir = np.stack([np.cos(ang), np.sin(ang)], axis=1), w_ang
        elif p == 3:
            cu, wcu = np.polynomial.legendre.leggauss(max(4, n_angular // 2))
            su = np.sqrt(np.maximum(0.0, 1.0 - cu * cu))
            dirs = np.stack([np.outer(np.cos(ang), su), np.outer(np.sin(ang), su),
                             np.broadcast_to(cu, (n_angular, cu.size))], axis=-1)
            dirs, w_dir = dirs.reshape(-1, 3), np.outer(w_ang, wcu).ravel()
        else:
            raise ValueError("ball grids support p <= 3")
        self.nodes = (r[None, :, None] * dirs[:, None, :]).reshape(-1, p)
        self.weights = np.outer(w_dir, wr).ravel()

    def refined(self):
        return _BallGrid(self.p, self.r0, 2 * self.n_radial,
                         2 * self.n_angular if self.p > 1 else self.n_angular)


@dataclass
class QuadratureOptions:
    n_radial: int = 12
    n_angular: int = 24
    levels: int = 2
    method: str = "grid"      # "grid" | "mc"
    mc_samples: int = 100000
    seed: int = 0
    workers: int = 1          # no effect; the benchmark workloads pass it


@dataclass(frozen=True)
class BayesBoundResult:
    value: float
    error_estimate: float
    nodes: int
    solver_failures: int
    levels: tuple = ()
    mass: float = 1.0
    iterations: int = 0    # descent iterations summed over all nodes and levels

    def to_dict(self):
        return {"value": self.value, "error_estimate": self.error_estimate,
                "nodes": self.nodes, "solver_failures": self.solver_failures,
                "levels": list(self.levels), "mass": self.mass,
                "iterations": self.iterations}


def prior_expectation(fn, prior: Prior, quad: Optional[QuadratureOptions] = None):
    """E_pi[fn(theta)] on the module's grid, normalized by the on-grid mass."""
    quad = quad or QuadratureOptions()
    grid = _BallGrid(prior.domain.dim, prior.domain.radius,
                     quad.n_radial, quad.n_angular)
    dens = prior.density(grid.nodes)
    vals = np.array([fn(t) for t in grid.nodes])
    mass = float(np.sum(grid.weights * dens))
    return float(np.sum(grid.weights * dens * vals) / mass)


def _solve_nodes(model, loss, thetas, solver_opts, strict):
    """Holevo solves at a node stack thetas (n, p), each cold from its SLD
    start, in consecutive batches of _NODE_BATCH nodes.

    A node that does not converge raises NumericalError under ``strict``;
    otherwise it keeps its best value with an infinite gap and a NaN V0.
    Returns (values, v0s, gaps, failures, iterations) in node order.
    """
    n, p = thetas.shape
    values, gaps, v0s = np.empty(n), np.empty(n), np.empty((n, p, p))
    failures = iterations = 0
    for lo in range(0, n, _NODE_BATCH):
        rows = slice(lo, lo + _NODE_BATCH)
        batch = _solve_batch(model, thetas[rows], loss.g0(thetas[rows]), solver_opts)
        ok = batch.diagnostics["converged"]
        if strict and not ok.all():
            i = int(np.argmin(ok))
            raise NumericalError(
                f"Holevo solve failed at theta={thetas[lo + i].tolist()}"
            ) from batch.nonconvergence(i, solver_opts)
        values[rows] = batch.value
        gaps[rows] = np.where(ok, batch.diagnostics["gap_estimate"], np.inf)
        v0s[rows] = np.where(ok[:, None, None], batch.v0, np.nan)
        failures += int(np.sum(~ok))
        iterations += int(np.sum(batch.diagnostics["iterations"]))
    return values, v0s, gaps, failures, iterations


def integrated_holevo(model: ParametricModel, loss: LossSpec, prior: Prior,
                      quad: Optional[QuadratureOptions] = None,
                      solver_opts: Optional[SolverOptions] = None,
                      strict=True) -> BayesBoundResult:
    """E_pi C_{G0}, the integrated Holevo bound of the main theorem.

    The error estimate is the refinement difference plus the prior-weighted
    mean of the certified per-node gaps (value minus the node's dual lower
    bound) of the last level, plus a 1e-10 linear-algebra floor.  A node
    that failed (``strict=False``) has no certificate and makes the
    estimate infinite.
    """
    quad = quad or QuadratureOptions()
    solver_opts = solver_opts or SolverOptions()
    if quad.method not in ("grid", "mc"):
        raise ValueError(f"unknown quadrature method {quad.method!r} (use 'grid' or 'mc')")
    if quad.method == "mc":
        if quad.mc_samples < 2:
            raise ValueError("Monte Carlo quadrature needs mc_samples >= 2 for an "
                             f"error estimate, got {quad.mc_samples}")
        rng = np.random.default_rng(quad.seed)
        thetas = prior.sample(rng, quad.mc_samples)
        vals, _, _, _, iterations = _solve_nodes(model, loss, thetas, solver_opts, True)
        value = float(np.mean(vals))
        err = float(np.std(vals, ddof=1) / math.sqrt(len(vals)))
        return BayesBoundResult(value, err, len(vals), 0, (value,), iterations=iterations)

    grid = _BallGrid(prior.domain.dim, prior.domain.radius,
                     quad.n_radial, quad.n_angular)
    levels = []
    failures = iterations = 0
    gap_mean = 0.0
    mass = 1.0
    for _ in range(max(1, quad.levels)):
        dens = prior.density(grid.nodes)
        mass = float(np.sum(grid.weights * dens))
        if abs(mass - 1.0) > 1e-3:
            raise NumericalError(f"prior mass on the grid is {mass:.6f}, not 1")
        values, _, gaps, fails, iters = _solve_nodes(model, loss, grid.nodes,
                                                     solver_opts, strict)
        failures += fails
        iterations += iters
        gap_mean = float(np.sum(grid.weights * dens * np.where(dens > 0.0, gaps, 0.0)) / mass)
        levels.append(float(np.sum(grid.weights * dens * values) / mass))
        nodes = len(grid.nodes)
        grid = grid.refined()
    refine_err = abs(levels[-1] - levels[-2]) if len(levels) > 1 else 0.0
    err = refine_err + gap_mean + 1e-10
    return BayesBoundResult(levels[-1], err, nodes, failures, tuple(levels), mass,
                            iterations)


# ---------------------------------------------------------------------------
# van Trees machinery

def _canonical_c_fn(model, loss, thetas, solver_opts):
    """C(theta) = Gtilde psi' V0(theta) at a node stack thetas (n, p)."""
    v0s = _solve_nodes(model, loss, thetas, solver_opts, strict=True)[1]
    return loss.gtilde(thetas) @ loss.psi_jac(thetas) @ v0s


def van_trees_parts(model: ParametricModel, prior: Prior, loss: LossSpec,
                    info_fn, n_copies, c_fn=None,
                    quad: Optional[QuadratureOptions] = None,
                    solver_opts: Optional[SolverOptions] = None):
    """Numerator and denominator pieces of the van Trees bound.

    c_fn: matrix function theta -> C (dim psi x dim theta); None selects the
    canonical C = Gtilde psi' V0.  info_fn: theta -> per-copy information of
    the scheme under study.
    """
    quad = quad or QuadratureOptions()
    solver_opts = solver_opts or SolverOptions()
    grid = _BallGrid(prior.domain.dim, prior.domain.radius,
                     quad.n_radial, quad.n_angular)
    if c_fn is None:
        cs = _canonical_c_fn(model, loss, grid.nodes, solver_opts)
    else:
        cs = np.stack([np.asarray(c_fn(theta), dtype=float) for theta in grid.nodes])
    dens = prior.density(grid.nodes)
    mass = float(np.sum(grid.weights * dens))
    num_terms = np.empty(len(grid.nodes))
    den_terms = np.empty(len(grid.nodes))
    for idx, theta in enumerate(grid.nodes):
        c = cs[idx]
        jac = loss.psi_jac(theta)
        gi = np.linalg.inv(loss.gtilde(theta))
        info = info_fn(theta)
        imat = info.matrix if hasattr(info, "matrix") else np.asarray(info, dtype=float)
        num_terms[idx] = np.trace(c @ jac.T)
        den_terms[idx] = np.trace(gi @ c @ imat @ c.T)
    numerator_mean = float(np.sum(grid.weights * dens * num_terms) / mass)
    info_mean = float(np.sum(grid.weights * dens * den_terms) / mass)
    jf = j_functional(model, prior, loss, c_fn=c_fn, solver_opts=solver_opts)
    return {"numerator_mean": numerator_mean, "info_mean": info_mean,
            "j_value": jf, "n_copies": n_copies}


def van_trees_rhs(model: ParametricModel, prior: Prior, loss: LossSpec,
                  info_fn, n_copies, c_fn=None,
                  quad: Optional[QuadratureOptions] = None,
                  solver_opts: Optional[SolverOptions] = None):
    """Lower bound on N x Bayes risk for a scheme with information info_fn."""
    parts = van_trees_parts(model, prior, loss, info_fn, n_copies, c_fn,
                            quad, solver_opts)
    den = parts["info_mean"] + parts["j_value"] / n_copies
    if den <= 1e-14:
        raise NumericalError("van Trees denominator vanishes "
                             f"(information term {parts['info_mean']:.3e})")
    return parts["numerator_mean"] ** 2 / den


# ---------------------------------------------------------------------------
# the prior-regularity functional J(pi)

def check_boundary_zero(prior: Prior, n_points=64, tol=1e-9):
    """Sampled check that the density vanishes on the support boundary."""
    p = prior.domain.dim
    rng = np.random.default_rng(0)
    dirs = rng.standard_normal((n_points, p))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    r_edge = prior.domain.radius * (1.0 - 1e-9)
    worst = float(np.max(prior.density(r_edge * dirs)))
    return worst <= tol * max(1.0, prior.peak), worst


def j_functional(model: ParametricModel, prior: Prior, loss: LossSpec,
                 c_fn=None, base_n=21, levels=3, drift_tol=0.05,
                 solver_opts: Optional[SolverOptions] = None):
    """E_pi (C pi)'^T Gtilde^{-1} (C pi)' / pi^2 on nested Cartesian grids.

    The divergence is expanded as (C pi)' = C grad(pi) + div(C) pi with the
    prior gradient analytic and div(C) by central differences; only the
    differentiated C is multiplied by pi, so the finite-difference error
    stays integrable near the support boundary.  Priors that do not vanish
    on their boundary (the known failure mode, e.g. a truncated uniform)
    carry an infinite functional and are rejected, as is any estimate that
    keeps drifting by more than drift_tol across two refinements, which
    needs levels >= 2.  The Holevo solves of a level run as one node stack.
    """
    solver_opts = solver_opts or SolverOptions()
    p = prior.domain.dim
    if p > 3:
        raise ValueError("j_functional supports p <= 3")
    if levels < 2:
        raise ValueError(f"j_functional needs levels >= 2 for its drift check, got {levels}")
    ok, worst = check_boundary_zero(prior)
    if not ok:
        raise DivergentIntegralError(
            f"prior density is {worst:.3e} on its support boundary; J(pi) "
            "diverges for priors that do not vanish there")
    r0 = prior.domain.radius
    half = 1.02 * r0

    if c_fn is None:
        v0_cache = {}  # a refined grid keeps every node of the coarser one

        def c_stack(thetas):
            """C at a stack of nodes, solving only the nodes not seen before."""
            keys = [tuple(np.round(t, 12)) for t in thetas]
            todo = [i for i, key in enumerate(keys) if key not in v0_cache]
            if todo:
                v0s = _solve_nodes(model, loss, thetas[todo], solver_opts, strict=True)[1]
                v0_cache.update(zip((keys[i] for i in todo), v0s))
            v0s = np.stack([v0_cache[key] for key in keys])
            return loss.gtilde(thetas) @ loss.psi_jac(thetas) @ v0s
    else:
        def c_stack(thetas):
            return np.stack([np.asarray(c_fn(t), dtype=float) for t in thetas])

    q = len(loss.psi(prior.domain.reference_point))
    values = []
    n = base_n
    for _ in range(levels):
        axes = [np.linspace(-half, half, n)] * p
        h = axes[0][1] - axes[0][0]
        shell = r0 + 1.2 * h  # central differences at pi > 0 reach one step out
        if model.domain.kind == "ball" and shell >= model.domain.radius:
            raise ValueError(
                f"prior support radius {r0} leaves no room for the difference "
                f"stencil inside the model domain (need radius > {shell:.3f})")
        mesh = np.meshgrid(*axes, indexing="ij")
        pts = np.stack([m.ravel() for m in mesh], axis=-1)
        norms = np.linalg.norm(pts, axis=1)
        cgrid = np.zeros((pts.shape[0], q, p))
        inner = norms <= shell
        cgrid[inner] = c_stack(pts[inner])
        cgrid = cgrid.reshape(*([n] * p), q, p)
        divc = np.zeros((*([n] * p), q))
        for axis in range(p):
            divc += np.gradient(cgrid[..., axis], h, axis=axis, edge_order=2)
        cgrid = cgrid.reshape(-1, q, p)
        divc = divc.reshape(-1, q)
        dens = prior.density(pts)
        floor = 1e-12 * prior.peak
        total = 0.0
        for i in np.nonzero(dens > floor)[0]:
            w = cgrid[i] @ prior.density_grad(pts[i]) + divc[i] * dens[i]
            gi = np.linalg.inv(loss.gtilde(pts[i]))
            total += float(w @ gi @ w) / dens[i]
        values.append(total * h ** p)
        n = 2 * n - 1
    drift = abs(values[-1] - values[-2]) / max(abs(values[-1]), 1e-12)
    if drift > drift_tol:
        raise DivergentIntegralError(
            f"J(pi) drifts by {100 * drift:.1f}% under refinement "
            f"(values {values}); the prior likely violates the smoothness "
            "hypotheses")
    return values[-1]
