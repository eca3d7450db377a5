"""The four benchmark workloads and their correctness checks.

Each workload drives qbound's public API the way a user does: the two
batch computations people wait on are the integrated Bayesian bound
``integrated_holevo`` (one Holevo solve per quadrature node) and the Monte
Carlo Bayes risk ``bayes_risk_mc`` (one sample, estimate and loss step per
trial).  Library functions are looked up on the ``qbound`` package at call
time, so the tracer in ``tracer.py`` sees these calls as root spans.

An item is one quadrature node solved, counted over every level, for the
``bayes-*`` workloads, and one Monte Carlo trial for the ``mc-*`` ones.
"""

from dataclasses import dataclass, replace

import numpy as np

import qbound
from qbound.simulate import PAULI_BASES

# Monte Carlo results must lie within this many of their own standard
# errors of the calibration band.
BAND_SIGMAS = 4.0
# Closed-form references of the integrated bound hold to rounding.
BAYES_TOL = 1e-9


@dataclass(frozen=True)
class Inputs:
    model: object
    prior: object
    loss: object = None
    quad: object = None
    solver: object = None
    schemes: tuple = ()
    seed: int = 0


@dataclass(frozen=True)
class BayesWorkload:
    """``integrated_holevo`` with fidelity loss and a bump prior."""

    name: str
    why: str
    family: str
    prior_radius: float
    n_radial: int
    n_angular: int
    levels: int = 2
    workers: int = 1

    def build(self, seed):
        model = qbound.builtin_model(self.family)
        return Inputs(
            model=model,
            prior=qbound.bump_prior(model.num_params, self.prior_radius),
            loss=qbound.fidelity_loss(model),
            quad=qbound.QuadratureOptions(n_radial=self.n_radial,
                                          n_angular=self.n_angular,
                                          levels=self.levels),
            solver=qbound.SolverOptions(seed=seed), seed=seed)

    def items(self, inputs):
        """Nodes solved over all levels, counted from the grid sizes.

        Each level doubles n_radial and n_angular of the one before.  A
        level has n_angular rays for p = 2 and n_angular x max(4,
        n_angular // 2) rays for p = 3, each of n_radial nodes.
        """
        p = inputs.model.num_params
        nr, na, total = self.n_radial, self.n_angular, 0
        for _ in range(self.levels):
            total += nr * {2: na, 3: na * max(4, na // 2)}[p]
            nr, na = 2 * nr, 2 * na
        return total

    def reference(self, inputs):
        """Closed form of E_pi C_G0 with G0 = H/4.

        bloch_full: C = (3 + 2|theta|)/4, integrated with the prior
        expectation of |theta| on the finest grid; bloch_equatorial:
        C = 1/2 at every point.
        """
        if self.family == "bloch_full":
            finest = 2 ** (self.levels - 1)
            mean_norm = qbound.prior_expectation(
                np.linalg.norm, inputs.prior,
                qbound.QuadratureOptions(n_radial=finest * self.n_radial,
                                         n_angular=finest * self.n_angular))
            return (3.0 + 2.0 * mean_norm) / 4.0
        if self.family == "bloch_equatorial":
            return 0.5
        raise ValueError(f"no closed form for family {self.family!r}")

    def warm_up(self, inputs):
        """One item: a single node solve at half the prior radius."""
        theta = np.zeros(inputs.model.num_params)
        theta[0] = 0.5 * self.prior_radius
        qbound.solve_holevo(inputs.model, theta, inputs.loss.g0(theta),
                            inputs.solver)

    def run_pass(self, inputs, workers):
        return qbound.integrated_holevo(inputs.model, inputs.loss, inputs.prior,
                                        replace(inputs.quad, workers=workers),
                                        inputs.solver)

    def values(self, result):
        return [result.value]

    def estimator_counts(self, result):
        return 0, 0

    def check(self, inputs, result, reference):
        """(failed items, problems) of one pass."""
        problems = []
        if result.solver_failures:
            problems.append(f"{result.solver_failures} solver failures")
        err = abs(result.value - reference)
        if not err <= BAYES_TOL:
            problems.append(f"value {result.value!r} differs from the closed "
                            f"form {reference!r} by {err:.3e}")
        return (self.items(inputs) if problems else 0), problems


@dataclass(frozen=True)
class McConfig:
    """One scheme + estimator pairing and its calibration band for N x risk."""

    scheme: str          # "random-basis" | "two-step" | "alternating-xy"
    estimator: str       # "mle" | "bayes_mean"
    band: tuple


@dataclass(frozen=True)
class McWorkload:
    """``bayes_risk_mc`` with fidelity loss and a bump prior; one pass runs
    every configuration once."""

    name: str
    why: str
    family: str
    prior_radius: float
    n_copies: int
    trials: int
    configs: tuple
    workers: int = 1

    def build(self, seed):
        model = qbound.builtin_model(self.family)
        schemes = []
        for cfg in self.configs:
            if cfg.scheme == "random-basis":
                schemes.append(qbound.random_basis_scheme())
            elif cfg.scheme == "two-step":
                schemes.append(qbound.two_step_scheme(model, 0.1))
            elif cfg.scheme == "alternating-xy":
                schemes.append(qbound.alternating_scheme(PAULI_BASES[:2]))
            else:
                raise ValueError(f"unknown scheme {cfg.scheme!r}")
        return Inputs(model=model,
                      prior=qbound.bump_prior(model.num_params, self.prior_radius),
                      schemes=tuple(schemes), seed=seed)

    def items(self, inputs):
        return self.trials * len(self.configs)

    def reference(self, inputs):
        return [cfg.band for cfg in self.configs]

    def warm_up(self, inputs):
        """The smallest run the API accepts (2 trials) of every configuration."""
        self._risks(inputs, trials=2, workers=1)

    def _risks(self, inputs, trials, workers):
        return [qbound.bayes_risk_mc(inputs.model, inputs.prior, scheme,
                                     qbound.Estimator(cfg.estimator),
                                     self.n_copies, trials, seed=inputs.seed,
                                     workers=workers)
                for cfg, scheme in zip(self.configs, inputs.schemes)]

    def run_pass(self, inputs, workers):
        return self._risks(inputs, self.trials, workers)

    def values(self, result):
        return [risk.value for risk in result]

    def check(self, inputs, result, reference):
        failed, problems = 0, []
        for cfg, risk, (lo, hi) in zip(self.configs, result, reference):
            slack = BAND_SIGMAS * risk.std_error
            if not lo - slack <= risk.value <= hi + slack:
                problems.append(
                    f"{cfg.scheme}+{cfg.estimator}: N x risk {risk.value:.4f} "
                    f"+- {risk.std_error:.4f} outside band [{lo}, {hi}] "
                    f"by more than {BAND_SIGMAS:g} standard errors")
                failed += risk.trials
            else:
                failed += risk.failures
        return failed, problems

    def estimator_counts(self, result):
        """(estimator failures, boundary hits) summed over the pass."""
        return (sum(risk.failures for risk in result),
                sum(risk.boundary_hits for risk in result))


# Calibration bands (README, "Attainability bands"): the pure-qubit band at
# N = 4000 is [1.0, 1.4]; the equatorial rows span their asymptote 1 and
# the measured seed-2024 values.  The posterior mean on the alternating
# scheme has the MLE's asymptotic risk, so it shares that row's band.
PURE_RB = McConfig("random-basis", "mle", (1.0, 1.4))
EQ_TWO_STEP = McConfig("two-step", "mle", (1.0, 1.001))
EQ_ALT_BAYES = McConfig("alternating-xy", "bayes_mean", (1.0, 1.008))

WORKLOADS = {w.name: w for w in (
    BayesWorkload(
        name="bayes-full",
        why=("5,184 node solves on bloch_full with an empty null space, so "
             "every solve does 0 descent iterations and is all fixed "
             "overhead (state/derivs, SLD, Helstrom, feasible-set SVD, "
             "validation): the target of batching the Holevo pipeline, and "
             "it bypasses the descent loop."),
        family="bloch_full", prior_radius=0.9, n_radial=8, n_angular=12),
    BayesWorkload(
        name="bayes-equatorial",
        why=("The CLI-default bayes run on bloch_equatorial: 1,440 solves "
             "that each run warm-started Armijo descent (13 iterations per "
             "solve on average), dominated by objective value+gradient "
             "calls, so a change that cuts fixed overhead but slows "
             "iterations shows here."),
        family="bloch_equatorial", prior_radius=0.8, n_radial=12, n_angular=24),
    McWorkload(
        name="mc-pure-rb",
        why=("Random basis + MLE on pure_qubit at workers 2: Haar sampling, "
             "pure-state MLE with random restarts and the process pool; no "
             "Holevo solves, and count tables cannot apply because every "
             "copy has its own basis."),
        family="pure_qubit", prior_radius=0.8, n_copies=4000, trials=600,
        configs=(PURE_RB,), workers=2),
    McWorkload(
        name="mc-equatorial",
        why=("Two-step(0.1) + MLE and alternating x,y + posterior mean on "
             "bloch_equatorial, serial: the only workload with affine MLE, "
             "adaptive stage-2 bases, bayes_mean_estimate and per-draw prior "
             "densities, and one that count tables apply to."),
        family="bloch_equatorial", prior_radius=0.8, n_copies=4000, trials=200,
        configs=(EQ_TWO_STEP, EQ_ALT_BAYES)),
)}

