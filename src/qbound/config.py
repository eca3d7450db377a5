"""Shared numerical tolerances.

All modules read their default tolerances from a single record so that the
numerical policy of the whole package can be tightened or relaxed in one
place.  Functions accept an optional ``numerics=`` override.
"""

from dataclasses import dataclass


@dataclass(frozen=True)
class NumericsConfig:
    hermitian_tol: float = 1e-12      # per-entry |A - A^H|
    psd_tol: float = 1e-9             # eigenvalue floor for "numerically PSD"
    trace_tol: float = 1e-9           # |trace(rho) - 1|, POVM completeness
    deriv_trace_tol: float = 1e-9     # |trace(drho_i)|
    prob_floor: float = 1e-12         # Born probabilities clipped below this
    fisher_grad_tol: float = 1e-8     # |dp| at a vanishing outcome => irregular
    rank_tol: float = 1e-8            # eigenvalue below this => rho singular
    weight_eig_floor: float = 1e-10   # smallest admissible eigenvalue of G, K, V0
    constraint_tol: float = 1e-8      # |trace(drho_i X_j) - delta_ij|
    dual_slack_tol: float = 1e-7      # allowed violation of trace(K I) <= C^K


DEFAULT_NUMERICS = NumericsConfig()
