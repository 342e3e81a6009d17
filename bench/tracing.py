"""Spans around the calls into each homsr module, and the layer metrics derived from them.

The traced run replaces, for its own duration, the names that each consumer
module looks up at call time (for example ``homsr.estimation.coincidence_density_grid``
or ``FrameSampler._majorant``) with wrappers that record one span per call.
A span is ``[name, start, end, parent, op, attrs]``; spans stay in memory and
are written out when the run ends.  A name that a later version of the package
no longer has is skipped, and the metrics that depend on it are reported as
absent.
"""

from __future__ import annotations

import importlib
import statistics
import time
import types
from contextlib import contextmanager

NAME, START, END, PARENT, OP, ATTRS = range(6)


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _rows(momenta, L):
    return int(getattr(momenta, "size", 0)) // L


# (homsr module, attribute, span name, attrs taken before the call, attrs taken after it)
_MODULE_EDGES = [
    ("estimation", "coincidence_density_grid", "coincidence.grid", None,
     lambda a, k, r: {"L": a[0], "rows": _rows(_arg(a, k, 2, "momenta"), a[0])}),
    ("estimation", "class_weights", "coincidence.class_weights", None, lambda a, k, r: {"L": a[0]}),
    ("estimation", "frame_size_distribution", "coincidence.frame_size_distribution", None, None),
    ("estimation", "fisher_total", "fisher.fisher_total", None, None),
    ("estimation", "_log_likelihood", "estimation.objective", None, None),
    ("coincidence", "coincidence_density_all_splits", "coincidence.all_splits", None,
     lambda a, k, r: {"L": a[0], "rows": _rows(_arg(a, k, 1, "momenta"), a[0])}),
    ("fisher", "coincidence_density_all_splits", "coincidence.all_splits", None,
     lambda a, k, r: {"L": a[0], "rows": _rows(_arg(a, k, 1, "momenta"), a[0])}),
    ("fisher", "fisher_L", "fisher.fisher_L", None,
     lambda a, k, r: {"L": _arg(a, k, 2, "L"), "rel_err": r.stderr / r.value if r.value > 0 else 0.0}),
    ("fisher", "_fisher_integrand", "fisher.integrand", None,
     lambda a, k, r: {"rows": int(a[1].shape[0])}),
]
for _module in ("coincidence", "fisher"):
    _MODULE_EDGES += [
        (_module, "envelope_gh_nodes", "quadrature.gh", None, lambda a, k, r: {"rows": int(r[0].shape[0])}),
        (_module, "envelope_mc_nodes", "quadrature.mc", None, lambda a, k, r: {"rows": int(r.shape[0])}),
    ]

# FrameSampler methods; the majorant span notes whether the call scanned or hit the cache.
_SAMPLER_EDGES = [
    ("_majorant", "estimation.majorant",
     lambda a, k: {"scan": (a[1], a[2]) not in getattr(a[0], "_majorants", {})}, None),
    ("_sample_momenta", "estimation.sample_momenta", None,
     lambda a, k, r: {"accepted": int(r.shape[0])}),
]


class Tracer:
    """Records spans in memory; ``op`` tags every span with the current operation."""

    def __init__(self):
        self.spans = []
        self.op = "setup"
        self._stack = []
        self._restore = []

    def _open(self, name, attrs):
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.op, attrs])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, index):
        self.spans[index][END] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name):
        index = self._open(name, None)
        try:
            yield
        finally:
            self._close(index)

    def wrap(self, owner, attr, name, before=None, after=None):
        """Replace ``owner.attr`` by a span-recording wrapper; False when the name is absent."""
        original = vars(owner).get(attr)
        if not callable(original):
            return False

        def wrapper(*args, **kwargs):
            index = self._open(name, before(args, kwargs) if before else None)
            try:
                result = original(*args, **kwargs)
            finally:
                self._close(index)
            if after:
                self.spans[index][ATTRS] = {**(self.spans[index][ATTRS] or {}), **after(args, kwargs, result)}
            return result

        setattr(owner, attr, wrapper)
        self._restore.append((owner, attr, original))
        return True

    def install(self, homsr):
        """Wrap every call edge of the package that still exists; returns the missing ones."""
        missing = []
        for module, attr, name, before, after in _MODULE_EDGES:
            if not self.wrap(importlib.import_module(f"homsr.{module}"), attr, name, before, after):
                missing.append(f"{module}.{attr}")
        for attr, name, before, after in _SAMPLER_EDGES:
            if not self.wrap(homsr.FrameSampler, attr, name, before, after):
                missing.append(f"FrameSampler.{attr}")
        return missing

    def uninstall(self):
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)


def span_overhead_s(calls=20_000):
    """Seconds that one recorded span adds to a call, measured on a no-op function."""
    probe = types.SimpleNamespace(noop=lambda: None)
    direct = time.perf_counter()
    for _ in range(calls):
        probe.noop()
    direct = time.perf_counter() - direct
    tracer = Tracer()
    tracer.wrap(probe, "noop", "probe")
    wrapped = time.perf_counter()
    for _ in range(calls):
        probe.noop()
    wrapped = time.perf_counter() - wrapped
    return max(0.0, wrapped - direct) / calls


# Per-layer metric names and units; the order is the order of BENCHMARK.json.
LAYER_METRICS = {
    "coincidence.grid.calls": "count",
    "coincidence.grid.rows": "count",
    "coincidence.grid.s": "s",
    **{f"coincidence.grid.rows_per_s.L{L}": "rows/s" for L in (2, 4, 8, 12)},
    "coincidence.all_splits.calls": "count",
    "coincidence.all_splits.rows": "count",
    "coincidence.all_splits.s": "s",
    **{f"coincidence.all_splits.rows_per_s.L{L}": "rows/s" for L in (2, 4, 7, 12)},
    "coincidence.class_weights.s": "s",
    **{f"coincidence.class_weights.s.L{L}": "s" for L in (4, 8, 12)},
    "coincidence.frame_size_distribution.calls": "count",
    "coincidence.self_s": "s",
    "quadrature.gh.nodes": "count",
    "quadrature.mc.samples": "count",
    "quadrature.s": "s",
    **{f"fisher.fisher_L.s.L{L}": "s" for L in range(1, 8)},
    **{f"fisher.fisher_L.rel_err.L{L}": "ratio" for L in range(4, 8)},
    "fisher.integrand_rows": "count",
    "fisher.self_s": "s",
    "estimation.sampler_init.s": "s",
    "estimation.majorant.scans": "count",
    "estimation.majorant.s": "s",
    "estimation.sample.proposals": "count",
    "estimation.sample.accepted": "count",
    "estimation.sample.acceptance": "ratio",
    "estimation.sample.rescans": "count",
    "estimation.sample.self_s": "s",
    "estimation.mle.objective_evals": "count",
    "estimation.mle.kernel_calls_per_eval": "ratio",
    "estimation.mle.self_s": "s",
    "estimation.crb.s": "s",
    "estimation.self_s": "s",
    "trace.spans": "count",
    "trace.overhead_s": "s",
    "trace.unattributed_s": "s",
}


def layer_metrics(spans, traced_wall_s, per_span_s):
    """Per-layer metrics from the spans; ``None`` marks a metric with nothing to measure."""
    duration = [s[END] - s[START] for s in spans]
    own = list(duration)
    for i, s in enumerate(spans):
        if s[PARENT] >= 0:
            own[s[PARENT]] -= duration[i]

    def picked(name, **attrs):
        return [i for i, s in enumerate(spans)
                if s[NAME] == name and all((s[ATTRS] or {}).get(k) == v for k, v in attrs.items())]

    def total(indices, values=duration):
        return sum(values[i] for i in indices) if indices else None

    def count(indices):
        return len(indices) if indices else None

    def rows(indices):
        return sum(spans[i][ATTRS]["rows"] for i in indices) if indices else None

    def rate(indices):
        return rows(indices) / total(indices) if indices and total(indices) > 0 else None

    def median(values):
        return statistics.median(values) if values else None

    def children(parents, name):
        parents = set(parents)
        return [i for i, s in enumerate(spans) if s[NAME] == name and s[PARENT] in parents]

    def self_of(prefix):
        return total([i for i, s in enumerate(spans) if s[NAME].startswith(prefix)], own)

    m = {}
    grid, split = picked("coincidence.grid"), picked("coincidence.all_splits")
    for key, spans_of, orders in (("grid", grid, (2, 4, 8, 12)), ("all_splits", split, (2, 4, 7, 12))):
        m[f"coincidence.{key}.calls"] = count(spans_of)
        m[f"coincidence.{key}.rows"] = rows(spans_of)
        m[f"coincidence.{key}.s"] = total(spans_of)
        for L in orders:
            m[f"coincidence.{key}.rows_per_s.L{L}"] = rate(picked(f"coincidence.{key}", L=L))
    m["coincidence.class_weights.s"] = total(picked("coincidence.class_weights"))
    for L in (4, 8, 12):
        m[f"coincidence.class_weights.s.L{L}"] = total(picked("coincidence.class_weights", L=L))
    m["coincidence.frame_size_distribution.calls"] = count(picked("coincidence.frame_size_distribution"))
    m["coincidence.self_s"] = self_of("coincidence.")

    gh, mc = picked("quadrature.gh"), picked("quadrature.mc")
    m["quadrature.gh.nodes"] = rows(gh)
    m["quadrature.mc.samples"] = rows(mc)
    m["quadrature.s"] = total(gh + mc)

    for L in range(1, 8):
        m[f"fisher.fisher_L.s.L{L}"] = median([duration[i] for i in picked("fisher.fisher_L", L=L)])
    for L in range(4, 8):
        m[f"fisher.fisher_L.rel_err.L{L}"] = median([spans[i][ATTRS]["rel_err"] for i in picked("fisher.fisher_L", L=L)])
    m["fisher.integrand_rows"] = rows(picked("fisher.integrand"))
    m["fisher.self_s"] = self_of("fisher.")

    draws = picked("estimation.sample_momenta")
    accepted = sum(spans[i][ATTRS]["accepted"] for i in draws) if draws else None
    proposals = rows(children(draws, "coincidence.grid"))
    scans = picked("estimation.majorant", scan=True)
    m["estimation.sampler_init.s"] = total(picked("estimation.sampler_init"))
    m["estimation.majorant.scans"] = count(scans)
    m["estimation.majorant.s"] = total(scans)
    m["estimation.sample.proposals"] = proposals
    m["estimation.sample.accepted"] = accepted
    m["estimation.sample.acceptance"] = accepted / proposals if proposals else None
    # _sample_momenta asks for the bound once per pass; every pass after the first follows a violation.
    m["estimation.sample.rescans"] = (
        len(children(draws, "estimation.majorant")) - len(draws) if draws else None)
    m["estimation.sample.self_s"] = total(picked("estimation.sample_record") + draws, own)

    fits = picked("estimation.mle")
    evals = children(fits, "estimation.objective")
    m["estimation.mle.objective_evals"] = count(evals)
    m["estimation.mle.kernel_calls_per_eval"] = (
        len(children(evals, "coincidence.grid")) / len(evals) if evals else None)
    m["estimation.mle.self_s"] = total(fits + evals, own)
    m["estimation.crb.s"] = total(picked("estimation.crb"))
    m["estimation.self_s"] = self_of("estimation.")

    m["trace.spans"] = len(spans)
    m["trace.overhead_s"] = len(spans) * per_span_s
    m["trace.unattributed_s"] = traced_wall_s - sum(duration[i] for i, s in enumerate(spans) if s[PARENT] < 0)
    return m
