"""States, POVMs, Born-rule distributions, fidelity and model families.

A parametric model maps a real parameter vector theta to a density matrix
together with its exact derivatives.  The builtin families are

- ``bloch_full``       full qubit, rho = (1 + theta.sigma)/2, p = 3
- ``bloch_equatorial`` equatorial-plane qubit, p = 2
- ``pure_qubit``       pure qubit chart, p = 2
- ``pure_dim_d``       pure state in dimension d, p = 2(d-1)
- ``affine_custom``    rho(theta) = rho0 + sum_i theta_i B_i

Pure families use the chart in which the first amplitude is real and
non-negative: the remaining amplitudes' real/imaginary parts are the
parameters, so p = 2(d-1) and the chart is the open unit ball.
"""

import json
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import DimensionMismatchError, DomainError
from .linalg import PAULIS, check_hermitian, hermitize, psd_sqrt

FAMILIES = ("bloch_full", "bloch_equatorial", "pure_qubit", "pure_dim_d", "affine_custom")

PSD_TOL = 1e-9           # eigenvalue floor of a numerically PSD state or POVM element
TRACE_TOL = 1e-9         # |trace(rho) - 1| of a state; each entry of a POVM's sum - 1
DERIV_TRACE_TOL = 1e-9   # |trace(drho_i)| of a model derivative
PROB_FLOOR = 1e-12       # a Born probability at or below this vanishes
_DOMAIN_TOL = 1e-12      # how far outside its domain a point still counts as inside


# ---------------------------------------------------------------------------
# basic validation

def check_density_matrix(rho):
    """Validate Hermiticity, positivity and unit trace of a state or a stack."""
    rho = check_hermitian(rho, name="density matrix")
    w = np.min(np.linalg.eigvalsh(rho)[..., 0])
    if w < -PSD_TOL:
        raise ValueError(f"density matrix has negative eigenvalue {w:.3e}")
    tr = np.trace(rho, axis1=-2, axis2=-1).real
    bad = np.abs(tr - 1.0) > TRACE_TOL
    if np.any(bad):
        raise ValueError(f"density matrix trace {float(tr[bad].flat[0])!r} != 1")
    return rho


def _count(name, value, least):
    """value as an int if it is an integer (not a bool) >= least; else ValueError."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < least:
        raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")
    return int(value)


@dataclass(frozen=True)
class Domain:
    """Parameter domain: a centred ball or an axis-aligned box."""

    kind: str                      # "ball" | "box"
    radius: float = 1.0            # ball
    bounds: Optional[tuple] = None  # box: ((lo, hi), ...) per coordinate
    dim: int = 0

    def __post_init__(self):  # a ball of radius in (0, inf), or a box of dim pairs lo < hi
        if self.kind == "ball":
            radius = _json_array(self.radius, lambda r: r.ndim == 0 and 0.0 < r < np.inf,
                                 "ball radius must be positive and finite")
            object.__setattr__(self, "radius", float(radius))
        elif self.kind == "box":
            bounds = _json_array(self.bounds, lambda b: b.shape == (self.dim, 2) and np.all(
                np.isfinite(b) & (b[:, :1] < b[:, 1:])), f"box bounds must be {self.dim} "
                "pairs [lo, hi] of finite numbers with lo < hi")
            object.__setattr__(self, "bounds", tuple(map(tuple, bounds.tolist())))
        else:
            raise ValueError(f"unknown domain kind {self.kind!r}")

    def contains(self, theta):
        """Membership of one point (p,), or of each point of a stack (n, p)."""
        theta = np.asarray(theta, dtype=float)
        if self.kind == "ball":
            return np.add.reduce(theta * theta, axis=-1) <= (self.radius + _DOMAIN_TOL) ** 2
        lo, hi = np.array(self.bounds).T
        return np.all((theta >= lo - _DOMAIN_TOL) & (theta <= hi + _DOMAIN_TOL), axis=-1)

    def project(self, theta):
        """The nearest point of the domain to one point (p,), or to each
        point of a stack (..., p)."""
        theta = np.asarray(theta, dtype=float)
        if self.kind == "ball":
            r = np.sqrt(_squared_norms(theta))[..., None]
            return theta * (self.radius / np.maximum(r, self.radius))
        lo, hi = np.array(self.bounds).T
        return np.clip(theta, lo, hi)

    @property
    def reference_point(self):
        if self.kind == "ball":
            return np.zeros(self.dim)
        return np.array([(b[0] + b[1]) / 2.0 for b in self.bounds])


# ---------------------------------------------------------------------------
# POVMs

@dataclass(frozen=True)
class Povm:
    """Finite-outcome positive operator valued measure.

    Elements (n, d, d) must be PSD and sum to the identity; a stack
    (..., n, d, d) holds one POVM per leading index, with shared outcomes.
    All are validated at construction time, as one stack.
    """

    elements: np.ndarray

    def __post_init__(self):
        elems = np.asarray(self.elements, dtype=complex)
        if elems.ndim < 3 or not elems.shape[-3]:
            raise ValueError("POVM needs at least one (d, d) element")
        object.__setattr__(self, "elements", check_hermitian(elems, 1e-10, "POVM element"))
        if np.min(np.linalg.eigvalsh(hermitize(elems))[..., 0]) < -PSD_TOL:
            raise ValueError("POVM element is not PSD")
        if np.max(np.abs(elems.sum(axis=-3) - np.eye(self.dim))) > TRACE_TOL:
            raise ValueError("POVM elements do not sum to the identity")

    @property
    def dim(self):
        return self.elements.shape[-1]

    def __len__(self):
        return self.elements.shape[-3]


def basis_povm(u):
    """Projective POVM built from the columns of a unitary (d, d), or the
    stacked POVM of the bases of a stack of unitaries (..., d, d)."""
    cols = np.swapaxes(np.asarray(u, dtype=complex), -1, -2)[..., None]
    return Povm(cols * np.swapaxes(cols, -1, -2).conj())


def _real_traces(mats, elems):
    """Re trace(A_k E_x) of stacks of matrices (..., m, d, d) and POVM elements
    (..., n, d, d), shape (..., m, n): one real matmul per entry, so an entry
    gets the same values in a stack as alone (see the note above holevo.z_matrix)."""
    a = np.swapaxes(np.asarray(mats, dtype=complex), -1, -2).reshape(*np.shape(mats)[:-2], -1)
    e = np.ascontiguousarray(elems).reshape(*elems.shape[:-2], -1)  # kernels follow layout
    return np.concatenate([a.real, -a.imag], axis=-1) @ np.swapaxes(
        np.concatenate([e.real, e.imag], axis=-1), -1, -2)


def born_distribution(rho, povm: Povm):
    """Outcome distribution of a measurement: p_x = trace(rho M_x), shape
    (n,), or (..., n) for states (..., d, d) and a stacked Povm, broadcast.

    Tiny negative values (above -1e3 PROB_FLOOR) are clipped to zero.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.shape[-1] != povm.dim:
        raise DimensionMismatchError(
            f"state dimension {rho.shape[-1]} != POVM dimension {povm.dim}")
    p = _real_traces(rho[..., None, :, :], povm.elements)[..., 0, :]
    if np.min(p) < -1e3 * PROB_FLOOR:
        raise ValueError(f"negative Born probability {np.min(p):.3e}")
    p = np.clip(p, 0.0, None)
    s = p.sum(axis=-1)
    if np.max(np.abs(s - 1.0)) > TRACE_TOL:
        raise ValueError(f"Born probabilities sum to {s!r}")
    return p


# ---------------------------------------------------------------------------
# fidelity

def fidelity(rho_hat, rho):
    """(trace sqrt(rho^1/2 rho_hat rho^1/2))^2, in [0, 1], of one pair of
    states (d, d), a float, or of each pair of two stacks (..., d, d).

    Qubits use the equivalent closed form trace(rho rho_hat) +
    2 sqrt(det rho det rho_hat), over a whole stack at once.  For d > 2 the
    pairs of a stack go one at a time, and a numerically pure argument uses
    the overlap <phi|rho_hat|phi>.  Both avoid the half-precision loss of
    taking matrix square roots of rank-deficient states.
    """
    rho_hat = np.asarray(rho_hat, dtype=complex)
    rho = np.asarray(rho, dtype=complex)
    if rho_hat.shape != rho.shape:
        raise DimensionMismatchError("states have different dimensions")
    if rho.shape[-1] == 2:
        dets = np.clip(np.linalg.det(np.stack([rho, rho_hat])).real, 0.0, None)
        val = np.clip(np.trace(rho @ rho_hat, axis1=-2, axis2=-1).real
                      + 2.0 * np.sqrt(dets[0] * dets[1]), 0.0, 1.0)
        return float(val) if rho.ndim == 2 else val
    if rho.ndim > 2:
        pairs = zip(rho_hat.reshape(-1, *rho.shape[-2:]), rho.reshape(-1, *rho.shape[-2:]))
        return np.array([fidelity(a, b) for a, b in pairs]).reshape(rho.shape[:-2])
    for a, b in ((rho, rho_hat), (rho_hat, rho)):
        w, v = np.linalg.eigh(a)
        if w[-1] >= 1.0 - 1e3 * PSD_TOL:
            phi = v[:, -1]
            return min(max(float((phi.conj() @ b @ phi).real), 0.0), 1.0)
    root = psd_sqrt(rho)
    inner = hermitize(root @ rho_hat @ root)
    w = np.linalg.eigvalsh(inner)
    if w[0] < -1e3 * PSD_TOL:
        raise ValueError(f"inner matrix not PSD (eigenvalue {w[0]:.3e})")
    val = float(np.sum(np.sqrt(np.clip(w, 0.0, None))) ** 2)
    return min(val, 1.0)


# ---------------------------------------------------------------------------
# parametric models

@dataclass(frozen=True)
class ParametricModel:
    """theta -> rho(theta) with exact derivatives d rho / d theta_i.

    ``state`` and ``derivs`` take one point, shape (p,), and return (d, d)
    and (p, d, d), or a stack of points, shape (n, p), and return (n, d, d)
    and (n, p, d, d).  ``state_fn`` and ``deriv_fn`` work on stacks.
    """

    dim: int
    num_params: int
    domain: Domain
    family: str
    state_fn: Callable = field(repr=False)
    deriv_fn: Callable = field(repr=False)
    is_pure: bool = False
    # affine data (rho(theta) = rho0 + sum theta_i basis_i), when applicable
    rho0: Optional[np.ndarray] = field(default=None, repr=False)
    basis: Optional[tuple] = field(default=None, repr=False)

    def state(self, theta):
        thetas, single = self._check_theta(theta)
        rho = self.state_fn(thetas)
        return rho[0] if single else rho

    def derivs(self, theta):
        thetas, single = self._check_theta(theta)
        drho = self.deriv_fn(thetas)
        return drho[0] if single else drho

    def _check_theta(self, theta):
        """(stack of points (n, p), whether one point was given)."""
        theta = np.asarray(theta, dtype=float)
        single = theta.ndim < 2
        thetas = theta.reshape(1, -1) if single else theta
        if thetas.shape[-1] != self.num_params:
            raise DimensionMismatchError(
                f"theta has {thetas.shape[-1]} entries, model expects {self.num_params}")
        inside = self.domain.contains(thetas)
        if not inside.all():
            raise DomainError(f"theta {thetas[np.argmin(inside)].tolist()} "
                              "outside model domain")
        return thetas, single

    def __reduce__(self):
        """Pickle as the model's JSON spec (see model_to_spec), so that a
        process pool rebuilds it from its family tag and data."""
        return (model_from_spec, (model_to_spec(self),))


def _affine_model(rho0, basis, domain, family, dim):
    rho0 = np.asarray(rho0, dtype=complex)
    basis = tuple(np.asarray(b, dtype=complex) for b in basis)
    stacked = np.stack(basis)

    def state_fn(theta):
        # one term at a time, in parameter order, for every point at once
        rho = rho0[None]
        for t, b in zip(theta.T, basis):
            rho = rho + t[:, None, None] * b
        return rho

    def deriv_fn(theta):
        return np.repeat(stacked[None], len(theta), axis=0)

    return ParametricModel(dim=dim, num_params=len(basis), domain=domain,
                           family=family, state_fn=state_fn, deriv_fn=deriv_fn,
                           rho0=rho0, basis=basis)


def bloch_full():
    dom = Domain("ball", radius=1.0, dim=3)
    return _affine_model(0.5 * np.eye(2, dtype=complex),
                         [0.5 * s for s in PAULIS], dom, "bloch_full", 2)


def bloch_equatorial():
    dom = Domain("ball", radius=1.0, dim=2)
    return _affine_model(0.5 * np.eye(2, dtype=complex),
                         [0.5 * PAULIS[0], 0.5 * PAULIS[1]], dom,
                         "bloch_equatorial", 2)


def affine_model(rho0, basis, domain=None):
    """User-defined affine family rho(theta) = rho0 + sum_i theta_i B_i.

    The B_i must be traceless Hermitian; rho0 must be a valid state.
    """
    rho0 = check_density_matrix(rho0)
    d = rho0.shape[0]
    mats = []
    for i, b in enumerate(basis):
        b = check_hermitian(b, 1e-10, f"basis[{i}]")
        if abs(np.trace(b)) > DERIV_TRACE_TOL:
            raise ValueError(f"basis[{i}] has trace {np.trace(b)!r}, must be traceless")
        if b.shape[0] != d:
            raise DimensionMismatchError("basis dimension != rho0 dimension")
        mats.append(b)
    if domain is None:
        domain = Domain("ball", radius=1.0, dim=len(mats))
    model = _affine_model(rho0, mats, domain, "affine_custom", d)
    check_density_matrix(model.state(domain.reference_point))
    return model


def _squared_norms(theta):
    """|theta|^2 of each point of a stack (..., p), in the arithmetic of
    ``theta @ theta`` for one point, which a sum over the last axis does
    not reproduce to the last bit."""
    return (theta[..., None, :] @ theta[..., :, None])[..., 0, 0]


def _pure_amplitudes(theta, d):
    """Chart amplitudes phi(theta) of a stack of points, shape (n, d)."""
    nsq = _squared_norms(theta)
    if np.any(nsq >= 1.0):
        raise DomainError("pure-state chart requires |theta| < 1")
    phi = np.zeros((len(theta), d), dtype=complex)
    phi[:, 0] = np.sqrt(1.0 - nsq)
    phi[:, 1:] = theta[:, 0::2] + 1j * theta[:, 1::2]
    return phi


def pure_state_model(d):
    """Pure state in dimension d, parameterized by 2(d-1) real coordinates.

    Chart gauge: first amplitude real and positive.  phi(theta) has first
    amplitude sqrt(1 - |theta|^2) and the rest theta[2k] + i theta[2k+1].
    """
    d = _count("pure-state model dimension d", d, 2)
    p = 2 * (d - 1)
    dom = Domain("ball", radius=1.0, dim=p)
    # d phi / d theta_j: 1 or i in amplitude 1 + j // 2, plus the first
    # amplitude's term filled in per point
    unit = np.zeros((p, d), dtype=complex)
    unit[0::2, 1:] = np.eye(d - 1)
    unit[1::2, 1:] = 1.0j * np.eye(d - 1)

    def state_fn(theta):
        phi = _pure_amplitudes(theta, d)
        return phi[:, :, None] * phi.conj()[:, None, :]

    def deriv_fn(theta):
        phi = _pure_amplitudes(theta, d)
        v = np.repeat(unit[None], len(theta), axis=0)
        v[:, :, 0] = -theta / phi[:, :1].real
        return (v[:, :, :, None] * phi.conj()[:, None, None, :]
                + phi[:, None, :, None] * v.conj()[:, :, None, :])

    family = "pure_qubit" if d == 2 else "pure_dim_d"
    return ParametricModel(dim=d, num_params=p, domain=dom, family=family,
                           state_fn=state_fn, deriv_fn=deriv_fn, is_pure=True)


def pure_qubit():
    return pure_state_model(2)


def builtin_model(family, dim=None):
    """Look up a builtin family by tag."""
    if family == "bloch_full":
        return bloch_full()
    if family == "bloch_equatorial":
        return bloch_equatorial()
    if family == "pure_qubit":
        return pure_qubit()
    if family == "pure_dim_d":
        if dim is None:
            raise ValueError("pure_dim_d requires dim")
        return pure_state_model(dim)
    raise ValueError(f"unknown family {family!r}")


# ---------------------------------------------------------------------------
# fidelity embeddings: loss written exactly as a quadratic form

def fidelity_embedding(model: ParametricModel, theta):
    """Vector psi(theta) and Jacobian psi'(theta) with

    - Bloch families: 1 - Fid = |psi_hat - psi|^2 / 4 exactly,
    - pure families:  1 - Fid = |psi_hat - psi|^2 / 2 exactly.

    One point (p,) gives shapes (q,) and (q, p); a stack (n, p) gives
    (n, q) and (n, q, p).
    """
    theta = np.asarray(theta, dtype=float)
    single = theta.ndim < 2
    thetas = theta.reshape(1, -1) if single else theta
    n, p = len(thetas), model.num_params
    if model.family in ("bloch_full", "bloch_equatorial"):
        nsq = _squared_norms(thetas)
        if np.any(nsq >= 1.0):
            raise DomainError("embedding Jacobian needs an interior Bloch point")
        tail = np.sqrt(1.0 - nsq)[:, None]
        psi = np.concatenate([thetas, tail], axis=1)
        jac = np.concatenate([np.broadcast_to(np.eye(p), (n, p, p)),
                              (-thetas / tail)[:, None, :]], axis=1)
    elif model.is_pure:
        rho = model.state(thetas)
        drho = model.derivs(thetas)
        psi = np.concatenate([rho.real.reshape(n, -1), rho.imag.reshape(n, -1)], axis=1)
        jac = np.concatenate([drho.real.reshape(n, p, -1), drho.imag.reshape(n, p, -1)],
                             axis=2).transpose(0, 2, 1)
    else:
        raise ValueError(f"family {model.family!r} has no quadratic fidelity embedding")
    return (psi[0], jac[0]) if single else (psi, jac)


def embedding_loss_scale(model: ParametricModel):
    """Scale s with loss = 1 - Fid = s * |psi_hat - psi|^2 (Gtilde = s * I)."""
    if model.family in ("bloch_full", "bloch_equatorial"):
        return 0.25
    if model.is_pure:
        return 0.5
    raise ValueError(f"family {model.family!r} has no quadratic fidelity embedding")


# ---------------------------------------------------------------------------
# JSON model specs

def _matrix_to_json(a):
    a = np.asarray(a, dtype=complex)
    return [[[float(x.real), float(x.imag)] for x in row] for row in a]


def _json_array(obj, valid, what):
    """obj as a C-ordered float array if it holds numbers (not strings or
    bools) and valid(array) holds; else ValueError: must be what."""
    try:
        a = np.array(obj, order="C")
    except ValueError:  # ragged lists
        a = np.array(None)
    if a.dtype.kind not in "iuf" or not valid(a := a.astype(float)):
        raise ValueError(f"{what}, got {obj!r}")
    return a


def _matrix_from_json(obj, name):
    """A d x d complex matrix from its d x d array of [re, im] pairs."""
    a = _json_array(obj, lambda a: a.ndim == 3 and a.shape[1:] == (len(a), 2) and len(a),
                    f"{name} must be a d x d array of [re, im] pairs")
    return a.view(complex)[..., 0]


def model_to_spec(model: ParametricModel):
    """JSON-serializable description of a model; ValueError for a family
    that model_from_spec cannot rebuild."""
    if model.family not in FAMILIES:
        raise ValueError(f"model family {model.family!r} has no JSON form")
    spec = {"family": model.family, "dim": model.dim}
    if model.family == "affine_custom":
        spec["rho0"] = _matrix_to_json(model.rho0)
        spec["basis"] = [_matrix_to_json(b) for b in model.basis]
        if model.domain.kind == "ball":
            spec["domain"] = {"kind": "ball", "radius": model.domain.radius}
        else:
            spec["domain"] = {"kind": "box", "bounds": [list(b) for b in model.domain.bounds]}
    return spec


def model_from_spec(spec):
    """Build a model from a ModelSpec dict (or a path to a JSON file)."""
    if isinstance(spec, str):
        with open(spec, encoding="utf-8") as fh:
            spec = json.load(fh)
    if not isinstance(spec, dict):
        raise ValueError("model spec must be a JSON object")
    allowed = {"family", "dim", "rho0", "basis", "domain"}
    unknown = set(spec) - allowed
    if unknown:
        raise ValueError(f"unknown model spec keys: {sorted(unknown)}")
    family = spec.get("family")
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}")
    if not isinstance(spec.get("dim", 0), int):
        raise ValueError(f"model dim must be an integer, got {spec['dim']!r}")
    if family != "affine_custom":
        return builtin_model(family, dim=spec.get("dim"))
    if "rho0" not in spec or "basis" not in spec:
        raise ValueError("affine_custom spec requires rho0 and basis")
    if not (isinstance(spec["basis"], list) and spec["basis"]):
        raise ValueError("model basis must be a non-empty list of matrices")
    rho0 = _matrix_from_json(spec["rho0"], "rho0")
    basis = [_matrix_from_json(b, f"basis[{i}]") for i, b in enumerate(spec["basis"])]
    p, domain = len(basis), None
    if "domain" in spec:
        dd = spec["domain"]
        if not isinstance(dd, dict):
            raise ValueError("model domain must be a JSON object")
        unknown = set(dd) - {"kind", "radius", "bounds"}
        if unknown:
            raise ValueError(f"unknown domain keys: {sorted(unknown)}")
        domain = Domain(**{"kind": None, **dd}, dim=p)  # Domain checks the kind and values
    return affine_model(rho0, basis, domain)
