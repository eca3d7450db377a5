"""Quantum and classical information matrices.

Symmetric logarithmic derivatives (SLDs) solve the Lyapunov-type equation
rho L_i + L_i rho = 2 drho_i.  In the eigenbasis rho = sum_m lambda_m |m><m|
the solution is L_i = sum 2 <m|drho_i|n> / (lambda_m + lambda_n) |m><n|
(Paris, Int. J. Quantum Inf. 7, 125 (2009)), with the entries where
lambda_m + lambda_n vanishes set to zero.  The same expression covers mixed
and pure states; on a pure state it reduces to L_i = 2 drho_i.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .config import DEFAULT_NUMERICS, NumericsConfig
from .errors import IrregularModelError, RankDeficiencyError
from .linalg import hermitize
from .models import ParametricModel, Povm, born_distribution


@dataclass(frozen=True)
class InfoMatrix:
    """Real symmetric PSD information matrix with its provenance kind."""

    matrix: np.ndarray
    kind: str  # "helstrom" | "povm_fisher"
    std_error: Optional[np.ndarray] = None  # entrywise MC error, when sampled

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        m = 0.5 * (m + m.T)
        object.__setattr__(self, "matrix", m)

    @property
    def num_params(self):
        return self.matrix.shape[0]


def sld(model: ParametricModel, theta, numerics: NumericsConfig = DEFAULT_NUMERICS):
    """Symmetric logarithmic derivatives lambda_i at theta, shape (p, d, d).

    Raises RankDeficiencyError when rho is numerically singular and the
    family is not pure.
    """
    rho = model.state(theta)
    drho = np.asarray(model.derivs(theta), dtype=complex)
    w, v = np.linalg.eigh(rho)
    if w[0] <= numerics.rank_tol and not model.is_pure:
        raise RankDeficiencyError(
            f"state is singular (eigenvalue {w[0]:.3e} <= {numerics.rank_tol:g}); "
            "SLDs are only computed for nonsingular or pure models",
            eigenvalue=float(w[0]))
    denom = w[:, None] + w[None, :]
    scale = np.where(denom > numerics.rank_tol,
                     2.0 / np.maximum(denom, numerics.rank_tol), 0.0)
    vh = v.conj().T
    return hermitize(v @ (scale * (vh @ drho @ v)) @ vh)


def sld_residual(rho, drho, lams):
    """max-entry residual of rho L + L rho - 2 drho over the collection."""
    lams = np.asarray(lams)
    return float(np.max(np.abs(rho @ lams + lams @ rho - 2.0 * np.asarray(drho))))


def helstrom_matrix(model: ParametricModel, theta,
                    numerics: NumericsConfig = DEFAULT_NUMERICS) -> InfoMatrix:
    """Helstrom quantum information matrix H_ij = Re trace(rho L_i L_j)."""
    lams = sld(model, theta, numerics)
    return InfoMatrix(np.einsum("ab,ibc,jca->ij", model.state(theta), lams, lams).real,
                      "helstrom")


def classical_fisher(probs, dprobs, numerics: NumericsConfig = DEFAULT_NUMERICS):
    """Fisher information of a finite distribution with derivative rows.

    probs: (n,) outcome probabilities; dprobs: (p, n) derivatives.
    Outcomes with p_x <= prob_floor and all |dp_x| <= prob_floor are
    skipped; a vanishing outcome with |dp_x| > fisher_grad_tol makes the
    model irregular and raises.
    """
    probs = np.asarray(probs, dtype=float)
    dprobs = np.atleast_2d(np.asarray(dprobs, dtype=float))
    p = dprobs.shape[0]
    info = np.zeros((p, p))
    for x in range(probs.size):
        px = probs[x]
        dx = dprobs[:, x]
        if px <= numerics.prob_floor:
            if np.max(np.abs(dx)) > numerics.fisher_grad_tol:
                raise IrregularModelError(
                    f"outcome {x} has probability {px:.3e} but derivative "
                    f"{np.max(np.abs(dx)):.3e}; Fisher information diverges")
            continue
        info += np.outer(dx, dx) / px
    return 0.5 * (info + info.T)


def povm_fisher(model: ParametricModel, theta, povm: Povm,
                numerics: NumericsConfig = DEFAULT_NUMERICS) -> InfoMatrix:
    """Fisher information of the Born distribution of a measurement."""
    rho = model.state(theta)
    drho = model.derivs(theta)
    probs = born_distribution(rho, povm, numerics)
    dprobs = np.array([[np.trace(dr @ e).real for e in povm.elements] for dr in drho])
    return InfoMatrix(classical_fisher(probs, dprobs, numerics), "povm_fisher")
