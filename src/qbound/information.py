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

from .errors import IrregularModelError, RankDeficiencyError
from .linalg import hermitize
from .models import PROB_FLOOR, ParametricModel, Povm, _real_traces, born_distribution

RANK_TOL = 1e-8          # a state eigenvalue at or below this makes the state singular
FISHER_GRAD_TOL = 1e-8   # |dp_x| above this at a vanishing outcome makes a model irregular


@dataclass(frozen=True)
class InfoMatrix:
    """Real symmetric PSD information matrix (or a stack)."""

    matrix: np.ndarray
    std_error: Optional[np.ndarray] = None  # entrywise MC error, when sampled

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        m = 0.5 * (m + np.swapaxes(m, -1, -2))
        object.__setattr__(self, "matrix", m)

    @property
    def num_params(self):
        return self.matrix.shape[-1]


def sld_from_state(rho, drho, pure=False):
    """SLDs of a state (d, d) with derivatives (p, d, d), shape (p, d, d);
    of stacks (n, d, d) and (n, p, d, d), shape (n, p, d, d).

    Raises RankDeficiencyError when a state is numerically singular and
    the family is not pure.
    """
    rho = np.asarray(rho, dtype=complex)
    drho = np.asarray(drho, dtype=complex)
    w, v = np.linalg.eigh(rho)
    w_min = float(np.min(w[..., 0]))
    if w_min <= RANK_TOL and not pure:
        raise RankDeficiencyError(
            f"state is singular (eigenvalue {w_min:.3e} <= {RANK_TOL:g}); "
            "SLDs are only computed for nonsingular or pure models",
            eigenvalue=w_min)
    denom = w[..., :, None] + w[..., None, :]
    scale = np.where(denom > RANK_TOL, 2.0 / np.maximum(denom, RANK_TOL), 0.0)
    v = v[..., None, :, :]              # one eigenbasis for all p derivatives
    vh = np.swapaxes(v.conj(), -1, -2)
    return hermitize(v @ (scale[..., None, :, :] * (vh @ drho @ v)) @ vh)


def sld(model: ParametricModel, theta):
    """Symmetric logarithmic derivatives lambda_i at theta, shape (p, d, d)."""
    return sld_from_state(model.state(theta), model.derivs(theta), model.is_pure)


def sld_residual(rho, drho, lams):
    """max-entry residual of rho L + L rho - 2 drho over the collection."""
    lams = np.asarray(lams)
    return float(np.max(np.abs(rho @ lams + lams @ rho - 2.0 * np.asarray(drho))))


def helstrom_matrix(model: ParametricModel, theta) -> InfoMatrix:
    """Helstrom information H_ij = Re trace(rho L_i L_j) at a point or a stack (n, p)."""
    rho = model.state(theta)
    lams = sld_from_state(rho, model.derivs(theta), model.is_pure)
    return InfoMatrix(np.einsum("...ab,...ibc,...jca->...ij", rho, lams, lams).real)


def classical_fisher(probs, dprobs):
    """Fisher information (p, p) of outcome probabilities (n,) with derivative
    rows (p, n), or (..., p, p) of a stack (..., n) and (..., p, n).
    Outcomes with p_x <= PROB_FLOOR and all |dp_x| <= FISHER_GRAD_TOL are
    skipped; a vanishing outcome with |dp_x| > FISHER_GRAD_TOL makes the
    model irregular and raises."""
    probs = np.asarray(probs, dtype=float)
    dprobs = np.asarray(dprobs, dtype=float)
    vanishing = probs <= PROB_FLOOR
    grad = np.max(np.abs(dprobs), axis=-2)
    irregular = np.argwhere(vanishing & (grad > FISHER_GRAD_TOL))
    if len(irregular):
        at = tuple(irregular[0])
        raise IrregularModelError(
            f"outcome {at[-1]} has probability {probs[at]:.3e} but derivative "
            f"{grad[at]:.3e}; Fisher information diverges")
    # dp_i dp_j / p_x of each outcome, summed in outcome order; skipped ones add 0
    d = np.where(vanishing[..., None, :], 0.0, dprobs)
    px = np.where(vanishing, 1.0, probs)[..., None, None, :]
    info = np.sum(d[..., :, None, :] * d[..., None, :, :] / px, axis=-1)
    return 0.5 * (info + np.swapaxes(info, -1, -2))


def povm_fisher(model: ParametricModel, theta, povm: Povm) -> InfoMatrix:
    """Fisher information of the Born distribution of a measurement; of a
    stacked Povm, each POVM's (..., p, p), the same as alone."""
    probs = born_distribution(model.state(theta), povm)
    dprobs = _real_traces(model.derivs(theta), povm.elements)
    return InfoMatrix(classical_fisher(probs, dprobs))
