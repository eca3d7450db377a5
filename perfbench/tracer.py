"""Span tracer that measures qbound's layers from outside the library.

The tracer replaces public bindings, at the place where callers look them
up, with wrappers that record one span per call: name, start, end and the
span that was open when the call began.  Spans live in flat arrays and
are reduced to per-layer metrics when the traced pass ends.  A span's
self time is its duration minus the durations of its direct children.

Only public (not ``_``-prefixed) names are wrapped.  A binding that a
refactor has removed is reported as absent and its counts read 0.
"""

import functools
import importlib
import time
from array import array
from contextlib import contextmanager

import numpy as np

# (module, attribute or Class.method, span name).  The first two are the
# root calls the workloads make; the rest are the bindings the library
# itself calls through.
BINDINGS = (
    ("qbound", "integrated_holevo", "bayes.integrated"),
    ("qbound", "bayes_risk_mc", "simulate.risk"),
    ("qbound.bayes", "solve_holevo", "holevo.solve"),
    ("qbound.holevo", "helstrom_matrix", "information.helstrom"),
    ("qbound.holevo", "sld", "information.sld"),
    ("qbound.information", "sld", "information.sld"),
    ("qbound.simulate", "sample_outcomes", "simulate.sample"),
    ("qbound.simulate", "mle_estimate", "simulate.mle"),
    ("qbound.simulate", "bayes_mean_estimate", "simulate.bayes_mean"),
    ("qbound.simulate", "fidelity", "models.fidelity"),
    ("qbound.simulate", "haar_unitaries", "linalg.haar"),
    ("qbound.bayes", "Prior.sample", "bayes.prior_sample"),
    ("qbound.bayes", "Prior.density", "bayes.prior_density"),
    ("qbound.models", "ParametricModel.state", "models.state"),
    ("qbound.models", "ParametricModel.derivs", "models.derivs"),
)


class Tracer:
    def __init__(self):
        spans = sorted({name for _, _, name in BINDINGS})
        self._ids = {name: i for i, name in enumerate(spans)}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._open = [-1]
        self.absent = []
        self.iterations = []
        self.gaps = []
        self.nonconverged = 0

    def _observe_solve(self, result, exc):
        if exc is not None:
            if type(exc).__name__ == "NonConvergenceError":
                self.nonconverged += 1
            return
        diag = getattr(result, "diagnostics", {})
        self.iterations.append(diag.get("iterations", 0))
        self.gaps.append(diag.get("gap_estimate", 0.0))

    def _wrap(self, fn, span):
        nid = self._ids[span]
        names, parents, starts, ends, open_ = (self.name, self.parent, self.start,
                                               self.end, self._open)
        observe = self._observe_solve if span == "holevo.solve" else None
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(open_[-1])
            ends.append(0.0)
            open_.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if observe is not None:
                    observe(None, exc)
                raise
            finally:
                ends[idx] = clock()
                open_.pop()
            if observe is not None:
                observe(result, None)
            return result

        return traced

    @contextmanager
    def installed(self):
        """Wrap every binding in BINDINGS for the duration of the block."""
        restore = []
        try:
            for module_name, path, span in BINDINGS:
                owner, attr = _resolve(module_name, path)
                if owner is None:
                    self.absent.append(f"{module_name}.{path}")
                    continue
                original = getattr(owner, attr)
                restore.append((owner, attr, original))
                setattr(owner, attr, self._wrap(original, span))
            yield self
        finally:
            for owner, attr, original in reversed(restore):
                setattr(owner, attr, original)

    def metrics(self):
        """Per-layer metrics of every span recorded so far."""
        names = np.frombuffer(self.name, dtype=np.int32)
        parents = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        nested = parents >= 0
        child = np.zeros(dur.size)
        np.add.at(child, parents[nested], dur[nested])
        own = dur - child
        parent_names = np.where(nested, names[np.maximum(parents, 0)], -1)

        def mask(span, under=None):
            m = names == self._ids[span]
            return m if under is None else m & (parent_names == self._ids[under])

        def calls(span):
            return int(mask(span).sum())

        def self_s(span, under=None):
            return float(own[mask(span, under)].sum())

        def pct_ms(span, q):
            d = dur[mask(span)]
            return float(np.percentile(d, q) * 1e3) if d.size else 0.0

        solves = calls("holevo.solve")
        return {
            "models.state_calls": calls("models.state"),
            "models.derivs_calls": calls("models.derivs"),
            "models.state_derivs_s": self_s("models.state") + self_s("models.derivs"),
            "models.fidelity_calls": calls("models.fidelity"),
            "models.fidelity_s": self_s("models.fidelity"),
            "information.sld_calls": calls("information.sld"),
            "information.sld_s": self_s("information.sld"),
            "information.sld_per_solve": calls("information.sld") / solves if solves else 0.0,
            "information.helstrom_calls": calls("information.helstrom"),
            "information.helstrom_s": self_s("information.helstrom"),
            "holevo.solve_calls": solves,
            "holevo.solve_self_s": self_s("holevo.solve"),
            "holevo.solve_p50_ms": pct_ms("holevo.solve", 50),
            "holevo.solve_p99_ms": pct_ms("holevo.solve", 99),
            "holevo.iterations_per_solve": float(np.mean(self.iterations)) if self.iterations else 0.0,
            "holevo.gap_max": float(max(self.gaps, default=0.0)),
            "holevo.nonconverged": self.nonconverged,
            # the quadrature's own work: grid, prior densities, g0, loops
            "bayes.integrated_self_s": (self_s("bayes.integrated")
                                        + self_s("bayes.prior_density", under="bayes.integrated")),
            "bayes.prior_density_calls": calls("bayes.prior_density"),
            # rejection sampling, including its envelope density calls
            "bayes.prior_sample_s": (self_s("bayes.prior_sample")
                                     + self_s("bayes.prior_density", under="bayes.prior_sample")),
            "simulate.sample_calls": calls("simulate.sample"),
            "simulate.sample_self_s": self_s("simulate.sample"),
            "simulate.mle_calls": calls("simulate.mle"),
            "simulate.mle_s": self_s("simulate.mle"),
            "simulate.mle_p50_ms": pct_ms("simulate.mle", 50),
            "simulate.mle_p99_ms": pct_ms("simulate.mle", 99),
            "simulate.bayes_mean_s": self_s("simulate.bayes_mean"),
            "linalg.haar_s": self_s("linalg.haar"),
        }


def _resolve(module_name, path):
    """(owner, attribute) of a public binding, or (None, None) if absent."""
    if any(part.startswith("_") for part in path.split(".")):
        raise ValueError(f"refusing to wrap private name {path!r}")
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None, None
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part, None)
        if owner is None:
            return None, None
    if not callable(getattr(owner, attr, None)):
        return None, None
    return owner, attr
