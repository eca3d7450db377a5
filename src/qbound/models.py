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

from .config import DEFAULT_NUMERICS, NumericsConfig
from .errors import DimensionMismatchError, DomainError
from .linalg import PAULIS, check_hermitian, hermitize, psd_sqrt

FAMILIES = ("bloch_full", "bloch_equatorial", "pure_qubit", "pure_dim_d", "affine_custom")


# ---------------------------------------------------------------------------
# basic validation

def check_density_matrix(rho, numerics: NumericsConfig = DEFAULT_NUMERICS):
    """Validate Hermiticity, positivity and unit trace of a state or a stack."""
    rho = check_hermitian(rho, numerics.hermitian_tol, "density matrix")
    w = np.min(np.linalg.eigvalsh(rho)[..., 0])
    if w < -numerics.psd_tol:
        raise ValueError(f"density matrix has negative eigenvalue {w:.3e}")
    tr = np.trace(rho, axis1=-2, axis2=-1).real
    bad = np.abs(tr - 1.0) > numerics.trace_tol
    if np.any(bad):
        raise ValueError(f"density matrix trace {float(tr[bad].flat[0])!r} != 1")
    return rho


@dataclass(frozen=True)
class Domain:
    """Parameter domain: a centred ball or an axis-aligned box."""

    kind: str                      # "ball" | "box"
    radius: float = 1.0            # ball
    bounds: Optional[tuple] = None  # box: ((lo, hi), ...) per coordinate
    dim: int = 0

    def contains(self, theta, tol=1e-12):
        """Membership of one point (p,), or of each point of a stack (n, p)."""
        theta = np.asarray(theta, dtype=float)
        if self.kind == "ball":
            return np.add.reduce(theta * theta, axis=-1) <= (self.radius + tol) ** 2
        lo = np.array([b[0] for b in self.bounds])
        hi = np.array([b[1] for b in self.bounds])
        return np.all((theta >= lo - tol) & (theta <= hi + tol), axis=-1)

    def project(self, theta):
        theta = np.asarray(theta, dtype=float)
        if self.kind == "ball":
            r = np.linalg.norm(theta)
            if r > self.radius:
                return theta * (self.radius / r)
            return theta
        lo = np.array([b[0] for b in self.bounds])
        hi = np.array([b[1] for b in self.bounds])
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

    Elements must be PSD and sum to the identity; both are validated at
    construction time.
    """

    elements: tuple
    outcomes: tuple = ()

    def __post_init__(self):
        elems = tuple(np.asarray(e, dtype=complex) for e in self.elements)
        if not elems:
            raise ValueError("POVM needs at least one element")
        d = elems[0].shape[0]
        numerics = DEFAULT_NUMERICS
        total = np.zeros((d, d), dtype=complex)
        for e in elems:
            check_hermitian(e, 1e-10, "POVM element")
            if np.linalg.eigvalsh(hermitize(e))[0] < -numerics.psd_tol:
                raise ValueError("POVM element is not PSD")
            total += e
        if np.max(np.abs(total - np.eye(d))) > numerics.trace_tol:
            raise ValueError("POVM elements do not sum to the identity")
        object.__setattr__(self, "elements", elems)
        if not self.outcomes:
            object.__setattr__(self, "outcomes", tuple(range(len(elems))))
        elif len(self.outcomes) != len(elems):
            raise ValueError("one outcome label per element required")

    @property
    def dim(self):
        return self.elements[0].shape[0]

    def __len__(self):
        return len(self.elements)


def basis_povm(u):
    """Projective POVM built from the columns of a unitary."""
    u = np.asarray(u, dtype=complex)
    d = u.shape[0]
    return Povm(tuple(np.outer(u[:, x], u[:, x].conj()) for x in range(d)))


def pauli_basis_povm(axis):
    """Eigenbasis POVM of sigma_1, sigma_2 or sigma_3 (axis = 0, 1, 2)."""
    _, v = np.linalg.eigh(PAULIS[axis])
    return basis_povm(v[:, ::-1])  # descending eigenvalue order: "+1" first


def born_distribution(rho, povm: Povm, numerics: NumericsConfig = DEFAULT_NUMERICS):
    """Outcome distribution of a measurement: p_x = trace(rho M_x).

    Tiny negative values (above -prob_floor) are clipped to zero.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.shape[0] != povm.dim:
        raise DimensionMismatchError(
            f"state dimension {rho.shape[0]} != POVM dimension {povm.dim}")
    p = np.array([np.trace(rho @ e).real for e in povm.elements])
    if np.min(p) < -1e3 * numerics.prob_floor:
        raise ValueError(f"negative Born probability {np.min(p):.3e}")
    p = np.clip(p, 0.0, None)
    s = p.sum()
    if abs(s - 1.0) > numerics.trace_tol:
        raise ValueError(f"Born probabilities sum to {s!r}")
    return p


# ---------------------------------------------------------------------------
# fidelity

def fidelity(rho_hat, rho, numerics: NumericsConfig = DEFAULT_NUMERICS):
    """(trace sqrt(rho^1/2 rho_hat rho^1/2))^2, in [0, 1].

    Qubits use the equivalent closed form trace(rho rho_hat) +
    2 sqrt(det rho det rho_hat) and a numerically pure argument uses the
    overlap <phi|rho_hat|phi>; both avoid the half-precision loss of taking
    matrix square roots of rank-deficient states.
    """
    rho_hat = np.asarray(rho_hat, dtype=complex)
    rho = np.asarray(rho, dtype=complex)
    if rho_hat.shape != rho.shape:
        raise DimensionMismatchError("states have different dimensions")
    if rho.shape[0] == 2:
        dets = max(np.linalg.det(rho).real, 0.0) * max(np.linalg.det(rho_hat).real, 0.0)
        val = float(np.trace(rho @ rho_hat).real + 2.0 * np.sqrt(max(dets, 0.0)))
        return min(max(val, 0.0), 1.0)
    for a, b in ((rho, rho_hat), (rho_hat, rho)):
        w, v = np.linalg.eigh(a)
        if w[-1] >= 1.0 - 1e3 * numerics.psd_tol:
            phi = v[:, -1]
            return min(max(float((phi.conj() @ b @ phi).real), 0.0), 1.0)
    root = psd_sqrt(rho)
    inner = hermitize(root @ rho_hat @ root)
    w = np.linalg.eigvalsh(inner)
    if w[0] < -1e3 * numerics.psd_tol:
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


def bloch_state(theta):
    """Qubit state (1 + theta.sigma)/2 for theta in the unit ball."""
    theta = np.asarray(theta, dtype=float).reshape(-1)
    if theta.size != 3:
        raise DimensionMismatchError("bloch_state expects a 3-vector")
    if np.linalg.norm(theta) > 1.0 + 1e-12:
        raise DomainError(f"Bloch vector norm {np.linalg.norm(theta)!r} > 1")
    rho = 0.5 * np.eye(2, dtype=complex)
    for t, s in zip(theta, PAULIS):
        rho = rho + 0.5 * t * s
    return rho


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


def affine_model(rho0, basis, domain=None, numerics: NumericsConfig = DEFAULT_NUMERICS):
    """User-defined affine family rho(theta) = rho0 + sum_i theta_i B_i.

    The B_i must be traceless Hermitian; rho0 must be a valid state.
    """
    rho0 = check_density_matrix(rho0, numerics)
    d = rho0.shape[0]
    mats = []
    for i, b in enumerate(basis):
        b = check_hermitian(b, 1e-10, f"basis[{i}]")
        if abs(np.trace(b)) > numerics.deriv_trace_tol:
            raise ValueError(f"basis[{i}] has trace {np.trace(b)!r}, must be traceless")
        if b.shape[0] != d:
            raise DimensionMismatchError("basis dimension != rho0 dimension")
        mats.append(b)
    if domain is None:
        domain = Domain("ball", radius=1.0, dim=len(mats))
    model = _affine_model(rho0, mats, domain, "affine_custom", d)
    check_density_matrix(model.state(domain.reference_point), numerics)
    return model


def _squared_norms(theta):
    """|theta|^2 of each row of a stack (n, p), rounded as ``theta @ theta``."""
    return np.matmul(theta[:, None, :], theta[:, :, None])[:, 0, 0]


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
    if d < 2:
        raise ValueError("pure-state model needs d >= 2")
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
        return pure_state_model(int(dim))
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


def _matrix_from_json(obj):
    return np.array([[complex(e[0], e[1]) for e in row] for row in obj])


def model_to_spec(model: ParametricModel):
    """JSON-serializable description of a model."""
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
    if family != "affine_custom":
        return builtin_model(family, dim=spec.get("dim"))
    if "rho0" not in spec or "basis" not in spec:
        raise ValueError("affine_custom spec requires rho0 and basis")
    rho0 = _matrix_from_json(spec["rho0"])
    basis = [_matrix_from_json(b) for b in spec["basis"]]
    domain = None
    if "domain" in spec:
        dd = spec["domain"]
        unknown = set(dd) - {"kind", "radius", "bounds"}
        if unknown:
            raise ValueError(f"unknown domain keys: {sorted(unknown)}")
        if dd.get("kind") == "ball":
            domain = Domain("ball", radius=float(dd.get("radius", 1.0)), dim=len(basis))
        elif dd.get("kind") == "box":
            domain = Domain("box", bounds=tuple(tuple(b) for b in dd["bounds"]),
                            dim=len(basis))
        else:
            raise ValueError(f"unknown domain kind {dd.get('kind')!r}")
    return affine_model(rho0, basis, domain)
