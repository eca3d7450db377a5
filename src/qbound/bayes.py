"""Priors, quadratic loss specs, the integrated Holevo bound and van Trees.

Every prior expectation (the integrated bound, the van Trees terms, J(pi)
and prior_expectation) is formed by ``_grid_levels`` on product grids
(Gauss-Legendre radial x uniform angular) on ball supports, with its
refinement difference; the integrated bound has a Monte Carlo fallback.
Every Holevo solve goes through ``_solve_nodes``: a stack of nodes, each
solved cold from its SLD start, in batches of ``_NODE_BATCH`` nodes.
"""

import math
from dataclasses import asdict, dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import DivergentIntegralError, InfeasibleTaperError, NumericalError
# not called here: solve_holevo stays a name of this module for perfbench/tracer.py
from .holevo import SolverOptions, _solve_batch, solve_holevo  # noqa: F401
from .linalg import WEIGHT_EIG_FLOOR
from .models import (Domain, ParametricModel, _squared_norms, embedding_loss_scale,
                     fidelity_embedding)

# Nodes per batch solve; bounds the memory of a batch.
_NODE_BATCH = 256
# Rejection rounds before Prior.sample gives up: a density that is zero (or
# far below ``peak``) on the envelope would otherwise never fill the draw.
_MAX_REJECTION_ROUNDS = 1000
_BOUNDARY_POINTS = 64   # sampled directions of check_boundary_zero
_BOUNDARY_TOL = 1e-9    # boundary density, relative to max(1, peak), that counts as zero
_J_DRIFT_TOL = 0.05     # largest relative change of J(pi) across the last refinement
_J_STEP = 1e-5          # central-difference step of div C in J(pi)

# ---------------------------------------------------------------------------
# priors

@dataclass(frozen=True)
class Prior:
    """Probability density on a compact ball support.

    ``density`` vanishes outside the support; ``density_grad`` is the
    gradient of the density (analytic for the builtin families).
    ``density_fn`` takes a stack of points (n, p) and returns (n,) values
    or one value for all; ``grad_fn`` takes a stack and returns (n, p)
    gradients or one gradient for all.  Builtin families carry a
    JSON-serializable ``spec``; a prior pickles through it, so one without
    a spec cannot be sent to a process pool.
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
        """Gradient at one point (p,) or at each point of a stack (n, p);
        a point is computed as a stack of one."""
        theta = np.asarray(theta, dtype=float)
        stack = theta.reshape(-1, self.domain.dim)
        grads = np.broadcast_to(np.asarray(self.grad_fn(stack), dtype=float), stack.shape)
        grads = np.where(self.domain.contains(stack)[:, None], grads, 0.0)
        return grads[0] if theta.ndim == 1 else grads

    def sample(self, rng, n=None):
        """Rejection sampling from the uniform ball envelope."""
        single = n is None
        count = 1 if single else int(n)
        out = np.empty((count, self.domain.dim))
        got = rounds = 0
        while got < count:
            if rounds == _MAX_REJECTION_ROUNDS:
                raise NumericalError(
                    f"rejection sampling accepted {got} of {count} draws in "
                    f"{rounds} rounds; the density is zero or far below its "
                    f"peak {self.peak:g} on the support")
            rounds += 1
            take = self._rejection_round([rng], max(16, 2 * (count - got)))[0][:count - got]
            out[got:got + take.shape[0]] = take
            got += take.shape[0]
        return out[0] if single else out

    def sample_each(self, rngs):
        """One draw per generator, each equal to sample(rng): the first
        rejection round of every generator weighs its candidates in one
        density call, and a generator that accepts none goes on with
        sample(rng), which is its next round."""
        firsts = self._rejection_round(rngs, 16)  # sample's round for one draw
        return [take[0] if len(take) else self.sample(rng) for take, rng in zip(firsts, rngs)]

    def _rejection_round(self, rngs, m):
        """The candidates that each generator accepts in one rejection round
        of m uniform draws from the ball envelope.  The density takes no
        random numbers, so one call weighs the candidates of all generators
        and each generator's sequence of draws stays as it is alone."""
        p = self.domain.dim
        draws = [(rng.standard_normal((m, p)), rng.random(m)) for rng in rngs]
        x = np.stack([z for z, _ in draws])  # (G, m, p), normalised and scaled at once
        x /= np.linalg.norm(x, axis=-1, keepdims=True)
        x *= self.domain.radius * np.stack([u for _, u in draws])[..., None] ** (1.0 / p)
        dens = self.density(x.reshape(-1, p)).reshape(len(rngs), m)
        accept = np.stack([rng.random(m) for rng in rngs]) * self.peak <= dens
        return [cands[keep] for cands, keep in zip(x, accept)]

    def __reduce__(self):
        """Pickle as the prior's JSON spec (see prior_to_spec), so that a
        process pool rebuilds it from its family tag and parameters."""
        return (prior_from_spec, (prior_to_spec(self),))


def _ball_volume(p, r):
    return math.pi ** (p / 2.0) / math.gamma(p / 2.0 + 1.0) * r ** p


def _radial_mass(p, r0, radial_fn, n=128):
    """integral over the ball of radial_fn(r/r0), one call on Gauss-Legendre nodes."""
    x, w = np.polynomial.legendre.leggauss(n)
    r = 0.5 * r0 * (x + 1.0)
    wr = 0.5 * r0 * w
    surf = _ball_volume(p, 1.0) * p  # surface area of the unit sphere in R^p
    return float(np.sum(wr * surf * r ** (p - 1) * radial_fn(r / r0)))


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
        u2 = _squared_norms(theta) / (r0 * r0)
        return np.where(u2 < 1.0, c * (1.0 - u2) ** 2, 0.0)

    def grad(theta):
        u2 = _squared_norms(theta)[:, None] / (r0 * r0)
        return np.where(u2 < 1.0, -4.0 * c * (1.0 - u2) / (r0 * r0) * theta, 0.0)

    return Prior(Domain("ball", radius=r0, dim=p), dens, grad,
                 family="bump", peak=c,
                 spec={"family": "bump", "dim": p, "radius": r0})


def uniform_ball_prior(p, r0=1.0):
    """Uniform density on the ball; not boundary-zero (taper before use)."""
    _check_radius(r0)
    c = 1.0 / _ball_volume(p, r0)
    return Prior(Domain("ball", radius=r0, dim=p),
                 lambda theta: c, np.zeros_like,
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
        s = 0.5 * math.pi * (r - a) / (b - a)
        return np.where((r <= a) | (r >= b), 0.0, -np.cos(s) * np.sin(s) * math.pi / (b - a))

    # integrate over the tapered support [0, b]: GL nodes cluster at the
    # endpoint, where the narrow cutoff window lives
    grid = _BallGrid(p, b, 128, max(48, 8 * p))
    kept = float(np.sum(grid.weights * base.density(grid.nodes)
                        * cutoff(np.sqrt(_squared_norms(grid.nodes)))))
    if kept <= 0.0 or 1.0 / kept > 1.0 + eps + 1e-9:
        raise InfeasibleTaperError(
            f"taper removes mass {1.0 - kept:.4f}; renormalization factor "
            f"{1.0 / max(kept, 1e-300):.4f} exceeds 1 + eps = {1.0 + eps}")
    scale = 1.0 / kept

    def dens(theta):
        return scale * base.density(theta) * cutoff(np.sqrt(_squared_norms(theta)))

    def grad(theta):
        r = np.sqrt(_squared_norms(theta))[:, None]
        radial = np.divide(theta, r, out=np.zeros_like(theta), where=r > 0.0)
        return scale * (base.density_grad(theta) * cutoff(r)
                        + base.density(theta)[:, None] * cutoff_deriv(r) * radial)

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
    for the underlying parameter.  ``psi_jac`` and ``gtilde`` take a stack
    of points (n, p): ``psi_jac`` returns (n, q, p) and ``gtilde`` (n, q, q)
    or one (q, q) for all; ``g0`` takes one point (p,) or a stack.
    """

    psi_jac: Callable = field(repr=False)
    gtilde: Callable = field(repr=False)

    def g0(self, theta):
        jac = self.psi_jac(theta)
        g = np.swapaxes(jac, -1, -2) @ self.gtilde(theta) @ jac
        g = 0.5 * (g + np.swapaxes(g, -1, -2))
        if np.any(np.linalg.eigvalsh(g)[..., 0] <= WEIGHT_EIG_FLOOR):
            raise NumericalError("induced weight G0 is not positive-definite")
        return g


def fidelity_loss(model: ParametricModel) -> LossSpec:
    """Loss 1 - Fid written exactly as a quadratic form in the embedding.

    Gtilde = s * identity with s = 1/4 (Bloch families) or 1/2 (pure
    families); the induced weight is G0 = H/4.
    """
    s = embedding_loss_scale(model)
    q = len(fidelity_embedding(model, model.domain.reference_point)[0])
    eye = s * np.eye(q)
    return LossSpec(psi_jac=lambda t: fidelity_embedding(model, t)[1],
                    gtilde=lambda t: eye)


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
    solver_failures: int = 0  # always 0, a failed node raises; read by perfbench and qbound bayes
    levels: tuple = ()
    mass: float = 1.0
    iterations: int = 0    # dual-ascent Newton steps summed over all nodes and levels

    def to_dict(self):
        return asdict(self)


def _grid_levels(prior: Prior, quad: Optional[QuadratureOptions], node_fn, levels):
    """Means sum(weights * dens * values) / mass of each column of
    node_fn(nodes (n, p), dens (n,), mass) -> values (n, k) or (n,) on the
    first ``levels`` grid levels of quad (grid quadrature only), mass being
    the on-grid mass; returns them (levels, k) with the refinement
    difference (k,) of the last two levels, zero for one level."""
    quad = quad or QuadratureOptions()
    if quad.method != "grid":
        raise ValueError(f"this integral takes grid quadrature only, not method {quad.method!r}")
    grid = _BallGrid(prior.domain.dim, prior.domain.radius, quad.n_radial, quad.n_angular)
    means = []
    for _ in range(levels):
        dens = prior.density(grid.nodes)
        mass = float(np.sum(grid.weights * dens))
        vals = np.asarray(node_fn(grid.nodes, dens, mass), dtype=float).reshape(len(dens), -1)
        means.append([np.sum(grid.weights * dens * col) / mass for col in vals.T])
        grid = grid.refined()
    means = np.array(means)
    return means, np.abs(means[-1] - means[-2]) if levels > 1 else np.zeros(means.shape[1])


def prior_expectation(fn, prior: Prior, quad: Optional[QuadratureOptions] = None):
    """E_pi[fn(theta)] on the first level of the module's grid, normalized by
    the on-grid mass.  fn maps one node (p,) to a float and is called once
    per node: a reduction such as np.linalg.norm, passed as fn, would reduce
    a whole node stack to one number."""
    return float(_grid_levels(prior, quad, lambda nodes, *_: [fn(t) for t in nodes], 1)[0][0, 0])


def _solve_nodes(model, loss, thetas, solver_opts):
    """Holevo solves at a node stack thetas (n, p), each cold from its SLD
    start, in consecutive batches of _NODE_BATCH nodes.  A node that does
    not converge raises NumericalError from its NonConvergenceError.
    Returns (values, v0s, gaps, iterations) in node order.
    """
    n, p = thetas.shape
    values, gaps, v0s = np.empty(n), np.empty(n), np.empty((n, p, p))
    iterations = 0
    for lo in range(0, n, _NODE_BATCH):
        rows = slice(lo, lo + _NODE_BATCH)
        batch = _solve_batch(model, thetas[rows], loss.g0(thetas[rows]), solver_opts)
        ok = batch.diagnostics["converged"]
        if not ok.all():
            i = int(np.argmin(ok))
            raise NumericalError(
                f"Holevo solve failed at theta={thetas[lo + i].tolist()}"
            ) from batch.nonconvergence(i, solver_opts)
        values[rows] = batch.value
        gaps[rows] = batch.diagnostics["gap_estimate"]
        v0s[rows] = batch.v0
        iterations += int(np.sum(batch.diagnostics["iterations"]))
    return values, v0s, gaps, iterations


def integrated_holevo(model: ParametricModel, loss: LossSpec, prior: Prior,
                      quad: Optional[QuadratureOptions] = None,
                      solver_opts: Optional[SolverOptions] = None) -> BayesBoundResult:
    """E_pi C_{G0}, the integrated Holevo bound of the main theorem.

    The error estimate is the refinement difference (grid) or standard
    error (Monte Carlo), plus the prior mean of the certified per-node gaps
    (value minus the node's dual lower bound) of the last level or the
    samples, plus a 1e-10 linear-algebra floor.  A node that does not
    converge raises NumericalError (see _solve_nodes).
    """
    quad = quad or QuadratureOptions()
    solver_opts = solver_opts or SolverOptions()
    if quad.method not in ("grid", "mc"):
        raise ValueError(f"unknown quadrature method {quad.method!r} (use 'grid' or 'mc')")
    if quad.levels < 1:
        raise ValueError(f"quadrature needs levels >= 1, got {quad.levels}")
    if quad.method == "mc":
        if quad.mc_samples < 2:
            raise ValueError("Monte Carlo quadrature needs mc_samples >= 2 for an "
                             f"error estimate, got {quad.mc_samples}")
        thetas = prior.sample(np.random.default_rng(quad.seed), quad.mc_samples)
        vals, _, gaps, iterations = _solve_nodes(model, loss, thetas, solver_opts)
        value = float(np.mean(vals))
        err = float(np.std(vals, ddof=1) / math.sqrt(len(vals)) + np.mean(gaps) + 1e-10)
        return BayesBoundResult(value, err, len(vals), levels=(value,), iterations=iterations)

    solved = []  # (iterations, nodes, mass) of each level

    def node_fn(nodes, dens, mass):
        if abs(mass - 1.0) > 1e-3:
            raise NumericalError(f"prior mass on the grid is {mass:.6f}, not 1")
        values, _, gaps, iters = _solve_nodes(model, loss, nodes, solver_opts)
        solved.append((iters, len(nodes), mass))
        return np.stack([values, np.where(dens > 0.0, gaps, 0.0)], axis=-1)

    means, refine = _grid_levels(prior, quad, node_fn, quad.levels)
    err = float(refine[0] + means[-1, 1] + 1e-10)
    return BayesBoundResult(float(means[-1, 0]), err, solved[-1][1],
                            levels=tuple(means[:, 0].tolist()), mass=solved[-1][2],
                            iterations=sum(s[0] for s in solved))


# ---------------------------------------------------------------------------
# van Trees machinery and the prior-regularity functional J(pi)

def van_trees_parts(model: ParametricModel, prior: Prior, loss: LossSpec,
                    info_fn, c_fn=None,
                    quad: Optional[QuadratureOptions] = None,
                    solver_opts: Optional[SolverOptions] = None):
    """The van Trees terms E_pi trace(C psi'^T) and E_pi trace(Gtilde^{-1} C
    I C^T) on the last grid level of quad, each with its refinement
    difference plus a 1e-10 floor as its error, and J(pi) with its error
    (see j_functional), from one C stack per level.  c_fn: node stack (n, p)
    -> C (n, dim psi, dim theta); None selects the canonical C = Gtilde psi'
    V0 from Holevo solves.  info_fn: node stack -> per-copy information (n,
    p, p) of the scheme under study, or an object with ``.matrix``."""
    quad = quad or QuadratureOptions()
    if quad.levels < 2:
        raise ValueError(f"J(pi) needs levels >= 2 for its drift check, got {quad.levels}")
    ok, worst = check_boundary_zero(prior)
    if not ok:
        raise DivergentIntegralError(
            f"prior density is {worst:.3e} on its support boundary; J(pi) "
            "diverges for priors that do not vanish there")
    p, r0 = prior.domain.dim, prior.domain.radius
    if model.domain.kind == "ball" and r0 + _J_STEP >= model.domain.radius:
        raise ValueError(
            f"prior support radius {r0} leaves no room for the difference "
            f"stencil inside the model domain (need radius > {r0 + _J_STEP})")
    if c_fn is None:
        def c_fn(thetas):  # the canonical C = Gtilde psi' V0, one stack of solves
            v0s = _solve_nodes(model, loss, thetas, solver_opts or SolverOptions())[1]
            return loss.gtilde(thetas) @ loss.psi_jac(thetas) @ v0s
    stencil = np.concatenate([np.zeros((1, p)), _J_STEP * np.eye(p), -_J_STEP * np.eye(p)])

    def node_fn(nodes, dens, mass):
        # C at the nodes of positive density and at their 2p stencil points
        keep = dens > 1e-12 * prior.peak
        x, dens = nodes[keep], dens[keep]
        cs = np.asarray(c_fn((stencil[:, None, :] + x).reshape(-1, p)), dtype=float)
        cs = cs.reshape(2 * p + 1, len(x), *cs.shape[1:])
        c, divc = cs[0], np.einsum("knqk->nq", cs[1:p + 1] - cs[p + 1:]) / (2.0 * _J_STEP)
        w = np.einsum("nqp,np->nq", c, prior.density_grad(x)) + divc * dens[:, None]
        gis, info = np.linalg.inv(loss.gtilde(x)), info_fn(x)
        imats = np.asarray(getattr(info, "matrix", info), dtype=float)
        vals = np.zeros((len(nodes), 3))
        # J(pi) is an integral, not a mean: the factor mass undoes the division by it
        vals[keep, 0] = mass * np.sum(w * (gis @ w[..., None])[..., 0], axis=-1) / dens ** 2
        vals[keep, 1] = np.trace(c @ np.swapaxes(loss.psi_jac(x), -1, -2), axis1=-2, axis2=-1)
        vals[keep, 2] = np.trace(gis @ c @ imats @ np.swapaxes(c, -1, -2), axis1=-2, axis2=-1)
        return vals

    means, refine = _grid_levels(prior, quad, node_fn, quad.levels)
    j_value = float(means[-1, 0])
    drift = refine[0] / max(abs(j_value), 1e-12)
    if drift > _J_DRIFT_TOL:
        raise DivergentIntegralError(
            f"J(pi) drifts by {100 * drift:.1f}% under refinement (values "
            f"{means[:, 0].tolist()}); the prior likely violates the smoothness hypotheses")
    return {"numerator_mean": float(means[-1, 1]), "info_mean": float(means[-1, 2]),
            "numerator_error": float(refine[1] + 1e-10), "info_error": float(refine[2] + 1e-10),
            "j_value": j_value, "j_error": float(refine[0] + _J_STEP ** 2 * abs(j_value))}


def van_trees_rhs(model: ParametricModel, prior: Prior, loss: LossSpec,
                  info_fn, n_copies, c_fn=None,
                  quad: Optional[QuadratureOptions] = None,
                  solver_opts: Optional[SolverOptions] = None):
    """Lower bound on N x Bayes risk for a scheme with information info_fn:
    a float at one N, an array at each N of an array; the parts are
    integrated once for every N, after each N is checked to be finite and >= 1."""
    n_copies = np.asarray(n_copies, dtype=float)
    if not np.all(np.isfinite(n_copies) & (n_copies >= 1.0)):
        raise ValueError(f"n_copies must be finite and at least 1, got {n_copies.tolist()}")
    parts = van_trees_parts(model, prior, loss, info_fn, c_fn, quad, solver_opts)
    den = parts["info_mean"] + parts["j_value"] / n_copies
    if np.any(den <= 1e-14):
        raise NumericalError("van Trees denominator vanishes "
                             f"(information term {parts['info_mean']:.3e})")
    rhs = parts["numerator_mean"] ** 2 / den
    return float(rhs) if rhs.ndim == 0 else rhs


def check_boundary_zero(prior: Prior):
    """Sampled check that the density vanishes on the support boundary."""
    p = prior.domain.dim
    rng = np.random.default_rng(0)
    dirs = rng.standard_normal((_BOUNDARY_POINTS, p))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    r_edge = prior.domain.radius * (1.0 - 1e-9)
    worst = float(np.max(prior.density(r_edge * dirs)))
    return worst <= _BOUNDARY_TOL * max(1.0, prior.peak), worst


def j_functional(model: ParametricModel, prior: Prior, loss: LossSpec, c_fn=None,
                 quad: Optional[QuadratureOptions] = None,
                 solver_opts: Optional[SolverOptions] = None):
    """(value, error) of E_pi (C pi)'^T Gtilde^{-1} (C pi)' / pi^2 on the
    grid levels of quad (grid quadrature only, levels >= 2).

    (C pi)' = C grad(pi) + div(C) pi, with grad(pi) analytic; only div(C)
    takes central differences (step _J_STEP), which keeps their error
    integrable near the support boundary.  It is the J(pi) of
    van_trees_parts, run with zero information: each level gets C from one
    stack of the nodes of positive density and their 2p stencil points.
    The error is the refinement difference plus _J_STEP^2 |J| for the
    stencil bias.  A prior that does not vanish on its boundary (J
    diverges), or a refinement difference above _J_DRIFT_TOL relative,
    raises DivergentIntegralError.
    """
    p = prior.domain.dim
    parts = van_trees_parts(model, prior, loss, lambda x: np.zeros((len(x), p, p)), c_fn,
                            quad, solver_opts)
    return parts["j_value"], parts["j_error"]
