"""Priors, quadratic loss specs, the integrated Holevo bound and van Trees.

Quadrature uses polar/spherical product grids (Gauss-Legendre radial x
uniform angular) on ball supports, with a Monte Carlo fallback; every
reported bound carries a refinement-difference error estimate.  The
Holevo solves run in lockstep batches, one per radius: the nodes at
radial index k of every ray form one batch, and each node is
warm-started from node k-1 of its own ray.  A pool of worker processes,
when asked for, takes chunks of rays, each chunk its own lockstep batch.
"""

import math
from dataclasses import dataclass, field, replace
from typing import Callable, Optional

import numpy as np

from .config import DEFAULT_NUMERICS
from .errors import DivergentIntegralError, InfeasibleTaperError, NumericalError
from .holevo import SolverOptions, _solve_batch, solve_holevo
from .models import Domain, ParametricModel, embedding_loss_scale, fidelity_embedding

# Monte Carlo quadrature nodes per batch solve; bounds the batch's memory
# as the ray count bounds it on grids.
_MC_BATCH = 256
# Rejection rounds before Prior.sample gives up: a density that is zero (or
# far below ``peak``) on the envelope would otherwise never fill the draw.
_MAX_REJECTION_ROUNDS = 1000

# ---------------------------------------------------------------------------
# priors

@dataclass(frozen=True)
class Prior:
    """Probability density on a compact ball support.

    ``density`` vanishes outside the support; ``density_grad`` is the
    gradient of the density (analytic for the builtin families).  Builtin
    families carry a JSON-serializable ``spec``.
    """

    domain: Domain
    density_fn: Callable = field(repr=False)
    grad_fn: Callable = field(repr=False)
    family: str = "custom"
    peak: float = 1.0
    spec: Optional[dict] = None

    def density(self, theta):
        theta = np.asarray(theta, dtype=float)
        if not self.domain.contains(theta):
            return 0.0
        return float(self.density_fn(theta))

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
            dens = np.array([self.density(t) for t in x])
            keep = rng.random(m) * self.peak <= dens
            take = x[keep][:count - got]
            out[got:got + take.shape[0]] = take
            got += take.shape[0]
        return out[0] if single else out


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
        u2 = float(theta @ theta) / (r0 * r0)
        return c * (1.0 - u2) ** 2 if u2 < 1.0 else 0.0

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
        if r <= a:
            return 1.0
        if r >= b:
            return 0.0
        return math.cos(0.5 * math.pi * (r - a) / (b - a)) ** 2

    def cutoff_deriv(r):
        if r <= a or r >= b:
            return 0.0
        s = 0.5 * math.pi * (r - a) / (b - a)
        return -math.cos(s) * math.sin(s) * math.pi / (b - a)

    # integrate over the tapered support [0, b]: GL nodes cluster at the
    # endpoint, where the narrow cutoff window lives
    grid = _BallGrid(p, b, 128, max(48, 8 * p))
    kept = float(np.sum(grid.weights * np.array(
        [base.density(t) * cutoff(np.linalg.norm(t)) for t in grid.nodes])))
    if kept <= 0.0 or 1.0 / kept > 1.0 + eps + 1e-9:
        raise InfeasibleTaperError(
            f"taper removes mass {1.0 - kept:.4f}; renormalization factor "
            f"{1.0 / max(kept, 1e-300):.4f} exceeds 1 + eps = {1.0 + eps}")
    scale = 1.0 / kept

    def dens(theta):
        return scale * base.density(theta) * cutoff(float(np.linalg.norm(theta)))

    def grad(theta):
        r = float(np.linalg.norm(theta))
        h = cutoff(r)
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
    and n_angular azimuths x Gauss-Legendre polar cosines for p = 3; each
    direction is one ray of n_radial nodes, in that order.
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
        self.rays = [slice(k * n_radial, (k + 1) * n_radial) for k in range(len(dirs))]

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
    workers: int = 1          # fidelity loss only; rays are the parallel unit


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
    dens = np.array([prior.density(t) for t in grid.nodes])
    vals = np.array([fn(t) for t in grid.nodes])
    mass = float(np.sum(grid.weights * dens))
    return float(np.sum(grid.weights * dens * vals) / mass)


def _solve_rays(model, loss, rays, solver_opts, strict):
    """Holevo solves on a stack of rays (r, k, p), one lockstep batch per
    radial index; node k of a ray is warm-started from its node k-1.

    A node that does not converge raises NumericalError under ``strict``;
    otherwise it keeps its best value with an infinite gap, its V0 is NaN
    and the next node of its ray starts cold.  Returns (values, v0s, gaps,
    failures, iterations), the arrays shaped (r, k, ...).
    """
    r, k_count, p = rays.shape
    values = np.empty((r, k_count))
    gaps = np.empty((r, k_count))
    v0s = np.empty((r, k_count, p, p))
    failures = iterations = 0
    x_warm = warm = None
    for k in range(k_count):
        thetas = rays[:, k]
        batch = _solve_batch(model, thetas, loss.g0(thetas), solver_opts,
                             x_warm=x_warm, warm=warm)
        diag = batch.diagnostics
        warm = diag["converged"]
        if strict and not warm.all():
            i = int(np.argmin(warm))
            raise NumericalError(
                f"Holevo solve failed at theta={thetas[i].tolist()}"
            ) from batch.nonconvergence(i, solver_opts)
        values[:, k] = batch.value
        gaps[:, k] = np.where(warm, diag["gap_estimate"], np.inf)
        v0s[:, k] = np.where(warm[:, None, None], batch.v0, np.nan)
        failures += int(np.sum(~warm))
        iterations += int(np.sum(diag["iterations"]))
        x_warm = batch.x_star
    return values, v0s, gaps, failures, iterations


def _ray_chunk_worker(payload):
    from .models import model_from_spec
    model = model_from_spec(payload["model_spec"])
    return _solve_rays(model, fidelity_loss(model), payload["rays"],
                       SolverOptions.from_dict(payload["solver_opts"]), payload["strict"])


def _solve_on_grid(model, loss, grid, solver_opts, strict, workers=1):
    """Holevo solves on every node, as lockstep batches over the rays;
    chunks of rays may be distributed over worker processes.

    Returns (values, v0s, gaps, failures, iterations) in node order.
    """
    rays = grid.nodes.reshape(len(grid.rays), grid.n_radial, grid.p)
    parallel = workers > 1 and loss.name == "fidelity" and solver_opts.x_warm is None
    if not parallel:
        parts = [_solve_rays(model, loss, rays, solver_opts, strict)]
    else:
        from concurrent.futures import ProcessPoolExecutor
        from .models import model_to_spec
        base = {"model_spec": model_to_spec(model),
                "solver_opts": solver_opts.to_dict(), "strict": strict}
        per = max(1, math.ceil(len(rays) / (4 * workers)))
        chunks = [dict(base, rays=rays[i:i + per]) for i in range(0, len(rays), per)]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(_ray_chunk_worker, chunks))
    values, v0s, gaps, failures, iterations = zip(*parts)
    n = len(grid.nodes)
    return (np.concatenate(values).reshape(n), np.concatenate(v0s).reshape(n, grid.p, grid.p),
            np.concatenate(gaps).reshape(n), sum(failures), sum(iterations))


def integrated_holevo(model: ParametricModel, loss: LossSpec, prior: Prior,
                      quad: Optional[QuadratureOptions] = None,
                      solver_opts: Optional[SolverOptions] = None,
                      strict=True) -> BayesBoundResult:
    """E_pi C_{G0}, the integrated Holevo bound of the main theorem.

    The error estimate combines the refinement difference with the median
    per-node solver gap (plus a small linear-algebra floor).
    """
    quad = quad or QuadratureOptions()
    solver_opts = solver_opts or SolverOptions()
    if quad.method == "mc":
        rng = np.random.default_rng(quad.seed)
        thetas = prior.sample(rng, quad.mc_samples)
        # each sample is a ray of one node: batches without warm starts
        parts = [_solve_rays(model, loss, thetas[i:i + _MC_BATCH, None], solver_opts, True)
                 for i in range(0, len(thetas), _MC_BATCH)]
        vals = np.concatenate([part[0][:, 0] for part in parts])
        iterations = sum(part[4] for part in parts)
        value = float(np.mean(vals))
        err = float(np.std(vals, ddof=1) / math.sqrt(len(vals)))
        return BayesBoundResult(value, err, len(vals), 0, (value,), iterations=iterations)

    grid = _BallGrid(prior.domain.dim, prior.domain.radius,
                     quad.n_radial, quad.n_angular)
    levels = []
    failures = iterations = 0
    gap_med = 0.0
    mass = 1.0
    for _ in range(max(1, quad.levels)):
        dens = np.array([prior.density(t) for t in grid.nodes])
        mass = float(np.sum(grid.weights * dens))
        if abs(mass - 1.0) > 1e-3:
            raise NumericalError(f"prior mass on the grid is {mass:.6f}, not 1")
        values, _, gaps, fails, iters = _solve_on_grid(model, loss, grid, solver_opts,
                                                       strict, workers=quad.workers)
        failures += fails
        iterations += iters
        finite = gaps[np.isfinite(gaps)]
        gap_med = float(np.median(finite)) if finite.size else 0.0
        levels.append(float(np.sum(grid.weights * dens * values) / mass))
        nodes = len(grid.nodes)
        grid = grid.refined()
    refine_err = abs(levels[-1] - levels[-2]) if len(levels) > 1 else 0.0
    err = refine_err + gap_med + 1e-10
    return BayesBoundResult(levels[-1], err, nodes, failures, tuple(levels), mass,
                            iterations)


# ---------------------------------------------------------------------------
# van Trees machinery

def _canonical_c_fn(model, loss, grid, solver_opts):
    """C(theta) = Gtilde psi' V0(theta) tabulated on the grid nodes."""
    v0s = _solve_on_grid(model, loss, grid, solver_opts, strict=True)[1]
    table = {}
    for idx, theta in enumerate(grid.nodes):
        jac = loss.psi_jac(theta)
        table[idx] = loss.gtilde(theta) @ jac @ v0s[idx]
    return lambda idx, theta: table[idx]


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
        table = _canonical_c_fn(model, loss, grid, solver_opts)
        c_at = table
        c_point = None
    else:
        c_at = lambda idx, theta: np.asarray(c_fn(theta), dtype=float)
        c_point = c_fn
    dens = np.array([prior.density(t) for t in grid.nodes])
    mass = float(np.sum(grid.weights * dens))
    num_terms = np.empty(len(grid.nodes))
    den_terms = np.empty(len(grid.nodes))
    for idx, theta in enumerate(grid.nodes):
        c = c_at(idx, theta)
        jac = loss.psi_jac(theta)
        gi = np.linalg.inv(loss.gtilde(theta))
        info = info_fn(theta)
        imat = info.matrix if hasattr(info, "matrix") else np.asarray(info, dtype=float)
        num_terms[idx] = np.trace(c @ jac.T)
        den_terms[idx] = np.trace(gi @ c @ imat @ c.T)
    numerator_mean = float(np.sum(grid.weights * dens * num_terms) / mass)
    info_mean = float(np.sum(grid.weights * dens * den_terms) / mass)
    jf = j_functional(model, prior, loss, c_fn=c_point, solver_opts=solver_opts)
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
    worst = max(prior.density(r_edge * u) for u in dirs)
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
    keeps drifting by more than drift_tol across two refinements.
    """
    solver_opts = solver_opts or SolverOptions()
    p = prior.domain.dim
    if p > 3:
        raise ValueError("j_functional supports p <= 3")
    ok, worst = check_boundary_zero(prior)
    if not ok:
        raise DivergentIntegralError(
            f"prior density is {worst:.3e} on its support boundary; J(pi) "
            "diverges for priors that do not vanish there")
    r0 = prior.domain.radius
    half = 1.02 * r0

    if c_fn is None:
        v0_cache = {}
        warm = [None]  # raster order keeps neighbouring nodes adjacent

        def c_of(theta):
            key = tuple(np.round(theta, 12))
            if key not in v0_cache:
                sol = solve_holevo(model, theta, loss.g0(theta),
                                   replace(solver_opts, x_warm=warm[0]))
                warm[0] = sol.x_star
                v0_cache[key] = sol.v0
            return loss.gtilde(theta) @ loss.psi_jac(theta) @ v0_cache[key]
    else:
        c_of = lambda theta: np.asarray(c_fn(theta), dtype=float)

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
        for i in np.nonzero(norms <= shell)[0]:
            cgrid[i] = c_of(pts[i])
        cgrid = cgrid.reshape(*([n] * p), q, p)
        divc = np.zeros((*([n] * p), q))
        for axis in range(p):
            divc += np.gradient(cgrid[..., axis], h, axis=axis, edge_order=2)
        cgrid = cgrid.reshape(-1, q, p)
        divc = divc.reshape(-1, q)
        dens = np.array([prior.density(t) for t in pts])
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
