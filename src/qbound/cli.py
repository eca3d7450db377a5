"""Command-line interface.

Subcommands: helstrom, holevo, bayes, simulate, verify-paper.  Outputs are
JSON on stdout (CSV for tabular simulate output with --format csv).  Exit
codes: 0 ok, 1 verification failure, 2 usage error, 3 numerical failure,
4 solver non-convergence.  QBOUND_SEED provides the default --seed of
simulate and verify-paper, the two commands that draw random numbers.
"""

import argparse
import csv
import io
import json
import os
import sys
import time
from dataclasses import asdict

import numpy as np

from . import __version__
from .bayes import (QuadratureOptions, bump_prior, fidelity_loss,
                    integrated_holevo, prior_expectation, uniform_ball_prior)
from .errors import (DimensionMismatchError, DomainError, NonConvergenceError,
                     NumericalError)
from .holevo import (SolverOptions, dual_bound, quarter_helstrom_weight,
                     solve_holevo)
from .information import helstrom_matrix
from .models import builtin_model, fidelity, model_from_spec
from .simulate import (Estimator, PAULI_BASES, alternating_scheme, bayes_risk_mc,
                       empirical_fisher, fixed_basis_scheme, random_basis_scheme,
                       two_step_scheme)

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_USAGE = 2
EXIT_NUMERICAL = 3
EXIT_NONCONVERGENCE = 4

_AXIS_BY_NAME = {"x": 0, "y": 1, "z": 2}
# prior draws of the Monte Carlo bound of simulate on a model with p > 3,
# which the ball grids do not cover
_BOUND_MC_SAMPLES = 2000


class UsageError(ValueError):
    pass


def _default_seed():
    try:
        return int(os.environ.get("QBOUND_SEED", "7"))
    except ValueError:
        raise UsageError("QBOUND_SEED must be an integer")


def _parse_model(args):
    name = args.model
    if name.startswith("file:"):
        name = name[5:]
    if os.path.exists(name) or name.endswith(".json"):
        return model_from_spec(name)  # an OSError of a missing file exits 2
    try:
        return builtin_model(name, dim=getattr(args, "dim", None))
    except ValueError as exc:
        raise UsageError(str(exc))


def _parse_theta(text, num_params):
    try:
        theta = np.array([float(x) for x in text.split(",")])
    except ValueError:
        raise UsageError(f"cannot parse --theta {text!r}")
    if theta.size != num_params:
        raise UsageError(f"--theta has {theta.size} entries, model needs {num_params}")
    return theta


def _parse_weight(spec, model, theta):
    if spec == "helstrom_quarter":
        return quarter_helstrom_weight(model, theta)
    if spec == "identity":
        return np.eye(model.num_params)
    if spec.startswith("file:"):
        p = model.num_params
        with open(spec[5:], encoding="utf-8") as fh:
            try:
                mat = np.array(json.load(fh))
            except ValueError:  # not JSON, or ragged lists
                mat = np.array(None)
        if mat.dtype.kind not in "iuf" or mat.shape != (p, p):
            raise UsageError(f"weight file must hold a {p} x {p} array of numbers")
        return mat.astype(float)  # solve_holevo checks it is finite, symmetric and PD
    raise UsageError(f"unknown weight {spec!r}")


def _parse_prior(spec, p):
    try:
        kind, _, radius = spec.partition(":")
        r0 = float(radius) if radius else 0.9
    except ValueError:
        raise UsageError(f"cannot parse --prior {spec!r}")
    if kind == "bump":
        return bump_prior(p, r0)
    if kind == "uniform":
        return uniform_ball_prior(p, r0)
    raise UsageError(f"unknown prior family {kind!r} (use bump:R or uniform:R)")


def _at_least_one(flag, value):
    if value < 1:
        raise UsageError(f"{flag} must be at least 1, got {value}")
    return value


def _parse_scheme(spec, model):
    kind, _, arg = spec.partition(":")
    if kind in ("random-basis", "random_basis", "random"):
        return random_basis_scheme()
    if kind in ("fixed", "fixed_basis"):
        axis = _AXIS_BY_NAME.get(arg or "z")
        if axis is None:
            raise UsageError("fixed scheme takes an axis: fixed:x|y|z")
        return fixed_basis_scheme(PAULI_BASES[axis])
    if kind in ("alternating", "alternating_bases"):
        names = (arg or "x,y").split(",")
        try:
            bases = [PAULI_BASES[_AXIS_BY_NAME[n]] for n in names]
        except KeyError:
            raise UsageError(f"unknown axis in --scheme {spec!r}")
        return alternating_scheme(bases)
    if kind in ("two-step", "two_step", "two_step_adaptive"):
        try:
            frac = float(arg) if arg else 0.1
        except ValueError:
            raise UsageError(f"cannot parse two-step fraction in {spec!r}")
        return two_step_scheme(model, frac)
    raise UsageError(f"unknown scheme {spec!r}")


def _matrix(obj):
    arr = np.asarray(obj)
    if np.iscomplexobj(arr):
        return [[[float(v.real), float(v.imag)] for v in row] for row in arr]
    return [[float(v) for v in row] for row in arr]


def _emit(payload, args):
    text = payload if isinstance(payload, str) else json.dumps(payload, indent=2,
                                                                sort_keys=True) + "\n"
    if args.output:  # first: a bad path exits 2 before any result is printed
        with open(args.output, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    print(text, end="")


# ---------------------------------------------------------------------------
# subcommands

def cmd_helstrom(args):
    model = _parse_model(args)
    theta = _parse_theta(args.theta, model.num_params)
    h = helstrom_matrix(model, theta).matrix
    _emit({"theta": theta.tolist(), "H": _matrix(h),
           "eigenvalues": np.linalg.eigvalsh(h).tolist()}, args)
    return EXIT_OK


def cmd_holevo(args):
    opts = SolverOptions(max_iters=_at_least_one("--max-iters", args.max_iters))
    model = _parse_model(args)
    theta = _parse_theta(args.theta, model.num_params)
    g = _parse_weight(args.weight, model, theta)
    sol = solve_holevo(model, theta, g, opts)
    k0, dual_value = dual_bound(sol, g)
    _emit({"theta": theta.tolist(), "value": sol.value, "weight": _matrix(g),
           "V0": _matrix(sol.v0), "K0": _matrix(k0), "dual_value": dual_value,
           "X_star": [_matrix(x) for x in sol.x_star],
           "diagnostics": sol.diagnostics}, args)
    return EXIT_OK


def cmd_bayes(args):
    model = _parse_model(args)
    prior = _parse_prior(args.prior, model.num_params)
    loss = fidelity_loss(model)
    quad = QuadratureOptions(n_radial=args.n_radial, n_angular=args.n_angular,
                             levels=args.levels)
    res = integrated_holevo(model, loss, prior, quad)
    payload = asdict(res)
    payload.update({"model": model.family, "prior": args.prior})
    _emit(payload, args)
    return EXIT_OK


def cmd_simulate(args):
    _at_least_one("--workers", args.workers)
    model = _parse_model(args)
    prior = _parse_prior(args.prior, model.num_params)
    scheme = _parse_scheme(args.scheme, model)
    estimator = Estimator(args.estimator.replace("-", "_"))
    try:
        n_list = [int(x) for x in args.n_copies.split(",")]
    except ValueError:
        raise UsageError(f"cannot parse --n-copies {args.n_copies!r}")
    if model.num_params > 3:
        quad = QuadratureOptions(method="mc", mc_samples=_BOUND_MC_SAMPLES, seed=args.seed)
    else:
        quad = QuadratureOptions(n_radial=8, n_angular=12, levels=2)
    # the bound first: a model it does not cover fails before the trials run
    bound = integrated_holevo(model, fidelity_loss(model), prior, quad).value
    risks = [bayes_risk_mc(model, prior, scheme, estimator, n, args.trials,
                           seed=args.seed, workers=args.workers) for n in n_list]
    rows = [{"family": model.family, "scheme": scheme.kind,
             "estimator": estimator.kind, "N": n, "trials": r.trials,
             "value": r.value, "std_error": r.std_error, "bound": bound,
             "slack": r.value - bound} for n, r in zip(n_list, risks)]
    if args.format == "csv":
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=list(rows[0].keys()))
        writer.writeheader()
        writer.writerows(rows)
        _emit(buf.getvalue(), args)
    else:
        _emit({"rows": rows, "seed": args.seed}, args)
    return EXIT_OK


def _row_stream(seed, n_bases, quick, closed_tol):
    """(claim, expected, computed, tolerance) regression rows, each yielded once computed."""
    bf = builtin_model("bloch_full")
    for r in (0.0, 0.5, 0.8):
        theta = np.array([0.0, 0.0, r])
        sol = solve_holevo(bf, theta, quarter_helstrom_weight(bf, theta))
        yield (f"full-qubit C_{{H/4}} at r={r}", (3 + 2 * r) / 4, sol.value, closed_tol)

    eq = builtin_model("bloch_equatorial")
    for theta in (np.array([0.3, 0.0]), np.array([0.35, -0.45])):
        sol = solve_holevo(eq, theta, quarter_helstrom_weight(eq, theta))
        yield (f"equatorial C_{{H/4}} at {theta.tolist()}", 0.5, sol.value, closed_tol)

    for d, theta in ((2, np.array([0.3, -0.2])), (3, np.array([0.2, 0.1, -0.15, 0.25]))):
        model = builtin_model("pure_qubit") if d == 2 else builtin_model("pure_dim_d", dim=3)
        sol = solve_holevo(model, theta, quarter_helstrom_weight(model, theta))
        yield (f"pure d={d} C_{{H/4}}", d - 1, sol.value, closed_tol)

    theta = np.array([0.3, 0.0])
    g = quarter_helstrom_weight(eq, theta)
    sol = solve_holevo(eq, theta, g)
    k0, ck = dual_bound(sol, g)
    i0 = np.linalg.inv(sol.v0)
    resolved = solve_holevo(eq, theta, i0 @ k0 @ i0)
    yield ("dual roundtrip equatorial |C^K - C_G'|", 0.0, abs(ck - resolved.value), 1e-5)

    for d in (2, 3):
        model = builtin_model("pure_qubit") if d == 2 else builtin_model("pure_dim_d", dim=3)
        theta = np.array([0.25, -0.1]) if d == 2 else np.array([0.2, 0.1, -0.15, 0.25])
        h = helstrom_matrix(model, theta).matrix
        emp = empirical_fisher(model, theta, random_basis_scheme(), n_bases=n_bases, seed=seed)
        tr = float(np.trace(np.linalg.inv(h) @ emp.matrix))
        sigma = float(np.trace(np.linalg.inv(h) @ emp.std_error))
        yield (f"Gill-Massar equality pure d={d} ({n_bases} random bases)",
               d - 1, tr, max(3 * sigma, 1e-9))
        if d == 2:
            dev = float(np.linalg.norm(emp.matrix - 0.5 * h))
            sig = float(np.linalg.norm(emp.std_error))
            yield ("covariant scheme: ||Ibar - H/2||_F", 0.0, dev, 3 * sig)

    pairs = np.random.default_rng(seed).uniform(-0.6, 0.6, (20 if quick else 100, 2, 3))
    a, b = pairs[:, 0], pairs[:, 1]  # each pair drawn a first, as a loop over pairs would
    ab, aa, bb = ((x[:, None] @ y[..., None])[:, 0, 0] for x, y in ((a, b), (a, a), (b, b)))
    closed = 0.5 * (1 + ab + np.sqrt(1 - aa) * np.sqrt(1 - bb))
    worst = float(np.max(np.abs(fidelity(bf.state(a), bf.state(b)) - closed)))
    yield ("Bloch fidelity closed form (max dev)", 0.0, worst, 1e-12)

    prior = bump_prior(3, 0.9)
    quad = QuadratureOptions(n_radial=8, n_angular=8, levels=2)
    res = integrated_holevo(bf, fidelity_loss(bf), prior, quad)
    er = prior_expectation(lambda t: float(np.linalg.norm(t)), prior, quad)
    yield ("integrated bound full qubit vs (3+2E|theta|)/4",
           (3 + 2 * er) / 4, res.value, max(2 * res.error_estimate, 1e-8))


def cmd_verify_paper(args):
    if not (np.isfinite(args.tol) and args.tol > 0.0):
        raise UsageError(f"--tol must be positive and finite, got {args.tol}")
    if args.n_bases < 2:
        # one sampled basis has no standard error to compare against
        raise UsageError(f"--n-bases must be at least 2, got {args.n_bases}")
    rows, start = [], time.perf_counter()
    for row in _row_stream(args.seed, args.n_bases, args.quick, args.tol):
        rows.append(row)  # each row's seconds since the previous row, on stderr
        print(f"{row[0]}: {time.perf_counter() - start:.3f} s", file=sys.stderr)
        start = time.perf_counter()
    failures = 0
    width = max(len(r[0]) for r in rows) + 2
    print(f"{'claim':<{width}}{'expected':>12}{'computed':>14}{'tol':>10}  status")
    for claim, expected, computed, tol in rows:
        ok = abs(computed - expected) <= tol
        failures += 0 if ok else 1
        print(f"{claim:<{width}}{expected:>12.6g}{computed:>14.8g}{tol:>10.2g}  "
              f"{'PASS' if ok else 'FAIL'}")
    print(f"\n{len(rows) - failures}/{len(rows)} rows pass")
    return EXIT_OK if failures == 0 else EXIT_VERIFY_FAIL


# ---------------------------------------------------------------------------

def build_parser():
    parser = argparse.ArgumentParser(
        prog="qbound",
        description="Quantum estimation information bounds and Monte Carlo checks")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--model", required=True,
                       help="family tag (bloch_full, bloch_equatorial, pure_qubit, "
                            "pure_dim_d) or path to a model spec JSON")
        p.add_argument("--dim", type=int, default=None, help="dimension for pure_dim_d")
        p.add_argument("--output", default=None, help="also write the output to a file")

    p = sub.add_parser("helstrom", help="Helstrom information matrix at a point")
    add_common(p)
    p.add_argument("--theta", required=True, help="comma-separated parameter values")
    p.set_defaults(func=cmd_helstrom)

    p = sub.add_parser("holevo", help="Holevo bound, minimizer V0 and dual weight")
    add_common(p)
    p.add_argument("--theta", required=True)
    p.add_argument("--weight", default="helstrom_quarter",
                   help="helstrom_quarter | identity | file:W.json")
    p.add_argument("--max-iters", type=int, default=600,
                   help="Newton steps of the dual ascent")
    p.set_defaults(func=cmd_holevo)

    p = sub.add_parser("bayes", help="integrated Holevo bound over a prior")
    add_common(p)
    p.add_argument("--prior", default="bump:0.9", help="bump:R | uniform:R")
    p.add_argument("--n-radial", type=int, default=12)
    p.add_argument("--n-angular", type=int, default=24)
    p.add_argument("--levels", type=int, default=2)
    p.set_defaults(func=cmd_bayes)

    p = sub.add_parser("simulate", help="Monte Carlo Bayes risk of a scheme")
    add_common(p)
    p.add_argument("--scheme", default="random-basis",
                   help="random-basis | fixed:x|y|z | alternating:x,y | two-step:frac")
    p.add_argument("--estimator", default="mle", choices=["mle", "bayes-mean", "bayes_mean"])
    p.add_argument("--prior", default="bump:0.8")
    p.add_argument("--n-copies", default="1000", help="comma-separated list")
    p.add_argument("--trials", type=int, default=500)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--format", default="json", choices=["json", "csv"])
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("verify-paper",
                       help="regression table of the published closed-form values")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--n-bases", type=int, default=2000,
                   help="sampled bases for the Gill-Massar rows")
    p.add_argument("--tol", type=float, default=1e-3,
                   help="relative tolerance for the closed-form rows")
    p.add_argument("--quick", action="store_true", help="smaller spot-check sizes")
    p.set_defaults(func=cmd_verify_paper)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if hasattr(args, "seed") and args.seed is None:
            args.seed = _default_seed()
        return args.func(args)
    except (UsageError, DomainError, DimensionMismatchError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except NonConvergenceError as exc:
        print(json.dumps({"error": str(exc), "best_value": exc.best_value,
                          "diagnostics": exc.diagnostics}, indent=2))
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NONCONVERGENCE
    except (NumericalError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
