"""Quantum estimation information bounds.

Helstrom and POVM Fisher information, the Holevo bound with its dual
family, the integrated (van Trees) Bayesian bound, and a Monte Carlo
harness for separable measurement-and-estimation schemes.
"""

__version__ = "0.1.0"

from .bayes import (BayesBoundResult, LossSpec, Prior, QuadratureOptions,
                    bump_prior, check_boundary_zero, fidelity_loss,
                    integrated_holevo, j_functional, prior_expectation,
                    prior_from_spec, prior_taper, prior_to_spec,
                    uniform_ball_prior, van_trees_parts, van_trees_rhs)
from .errors import (DimensionMismatchError, DivergentIntegralError,
                     DomainError, InfeasibleTaperError, IrregularModelError,
                     NonConvergenceError, NumericalError, RankDeficiencyError)
from .holevo import (EmbeddingStep, HolevoSolution, SolverOptions, check_dual,
                     dual_bound, embedding_sequence, full_model_collection,
                     quarter_helstrom_weight, solve_holevo, z_matrix)
from .information import (InfoMatrix, classical_fisher, helstrom_matrix,
                          povm_fisher, sld)
from .models import (Domain, ParametricModel, Povm, affine_model, basis_povm,
                     bloch_equatorial, bloch_full, born_distribution,
                     builtin_model, check_density_matrix, embedding_loss_scale,
                     fidelity, fidelity_embedding, model_from_spec,
                     model_to_spec, pure_qubit, pure_state_model)
from .simulate import (Estimator, MeasurementScheme, MleResult, RiskEstimate,
                       SampleData, adapted_bases, alternating_scheme,
                       bayes_mean_estimate, bayes_risk_mc, empirical_fisher,
                       fixed_basis_scheme, mle_estimate, random_basis_scheme,
                       sample_outcomes, two_step_scheme)
