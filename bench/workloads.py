"""The benchmark's workloads: the call sequences of ``homsr estimate`` and ``homsr fi-curve``.

Each workload drives the public API of ``homsr`` in the order the CLI does,
times every call, applies the correctness gates to every operation, and at
the end runs the CLI itself against :class:`CliReplay` to check that the CLI
still makes exactly these calls.
"""

from __future__ import annotations

import csv
import inspect
import math
import os
import tempfile
import time
import types
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field

import numpy as np

# `homsr estimate` defaults.
FRAMES = 5000
L_CAP = 12
CLI_TRIALS = 20
# `homsr fi-curve` default s-grid, log:0.01:8:25.
S_GRID = np.geomspace(0.01, 8.0, 25)
# The fewest operations a run makes, so that every median has a middle value.
MIN_TRIALS = 3
MIN_POINTS = 6
# Accuracy that fi-curve timings are scaled to: relative stderr per Fisher order.
TARGET_REL_ERR = 1e-3
# Host-speed probe: seconds of a fixed numpy kernel on the reference host
# (2 vCPU, Python 3.11, numpy 2.4) when it runs at full speed.
REF_PROBE_S = 0.025
_PROBE_INPUT = np.random.default_rng(0).standard_normal(100_000)


def probe_seconds():
    """Seconds of the host-speed probe: trig and a product over 1e5 doubles, five times."""
    start = time.perf_counter()
    for _ in range(5):
        float((np.cos(_PROBE_INPUT) * np.sin(_PROBE_INPUT)).sum())
    return time.perf_counter() - start


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "estimate" or "fi-curve"
    ns: float
    true_s: float | None = None


WORKLOADS = {w.name: w for w in (
    Workload("estimate", "estimate", ns=1.5, true_s=1.0),
    Workload("estimate-bright", "estimate", ns=4.0, true_s=0.5),
    Workload("fi-curve", "fi-curve", ns=1.5),
)}


@dataclass
class Run:
    """What one run measured: samples by name, host-speed probes, operation counts and failures."""

    samples: dict = field(default_factory=dict)
    probes: list = field(default_factory=list)
    attempted: int = 0
    failures: dict = field(default_factory=dict)  # failed operation -> reasons
    cli_check: str = "not run"
    traced_wall_s: float = 0.0

    def add(self, name, value):
        self.samples.setdefault(name, []).append(value)

    def timed(self, name, func, *args, **kwargs):
        """Call ``func``, record its seconds, and probe the host speed before and after it."""
        self.probes.append(probe_seconds())
        start = time.perf_counter()
        result = func(*args, **kwargs)
        self.add(name, time.perf_counter() - start)
        self.probes.append(probe_seconds())
        return result

    def fail(self, op, reason):
        self.failures.setdefault(op, []).append(reason)


class CliMismatch(Exception):
    """The CLI made a call the benchmark did not make, or made it with other arguments."""


class CliReplay:
    """The calls the CLI must make, in order, each with the result the benchmark got for it.

    The stand-ins installed by :meth:`answering` bind the CLI's arguments to
    the callee's signature and compare them with the benchmark's; generators
    compare by their state before the call.  Because every call is
    deterministic, equal calls in equal order mean the CLI writes exactly
    the benchmark's values, which the caller then checks in the CLI's files.
    """

    def __init__(self):
        self._calls = []

    @staticmethod
    def key(func, args, kwargs):
        bound = inspect.signature(func).bind(*args, **kwargs)
        bound.apply_defaults()
        return {name: value.bit_generator.state if isinstance(value, np.random.Generator) else value
                for name, value in bound.arguments.items()}

    def add(self, name, key, result):
        self._calls.append((name, key, result))

    def stand_in(self, name, func):
        def call(*args, **kwargs):
            got = self.key(func, args, kwargs)
            if not self._calls:
                raise CliMismatch(f"the CLI made an extra call to {name}")
            want_name, want, result = self._calls.pop(0)
            if want_name != name:
                raise CliMismatch(f"the CLI called {name} where the benchmark called {want_name}")
            differ = [k for k in got.keys() | want.keys()
                      if k not in got or k not in want or not (got[k] is want[k] or got[k] == want[k])]
            if differ:
                raise CliMismatch(f"the CLI called {name} with other values of {sorted(differ)}")
            return result
        return call

    @contextmanager
    def answering(self, module, **funcs):
        saved = {name: getattr(module, name) for name in funcs}
        for name, func in funcs.items():
            setattr(module, name, self.stand_in(name, func))
        try:
            yield
        finally:
            for name, func in saved.items():
                setattr(module, name, func)

    @property
    def finished(self):
        return not self._calls


def _run_cli(homsr, replay, out_dir, argv, stand_ins, expected_rows):
    """Run ``homsr.cli.main(argv)`` against ``replay`` and compare its CSV with ``expected_rows``."""
    with tempfile.TemporaryDirectory(dir=out_dir) as tmp:
        out = os.path.join(tmp, "out.csv")
        try:
            with replay.answering(homsr.cli, **stand_ins):
                code = homsr.cli.main(argv + ["--out", out])
        except CliMismatch as exc:
            return f"fail: {exc}"
        with open(out, newline="") as fh:
            rows = [tuple(row.values()) for row in csv.DictReader(fh)]
    if code != 0:
        return f"fail: the CLI exited with {code}"
    if not replay.finished:
        return "fail: the CLI skipped calls the benchmark made"
    if rows != expected_rows:
        return "fail: the CLI wrote other values than the benchmark measured"
    return "pass"


def _span(tracer, name):
    return tracer.span(name) if tracer else nullcontext()


def run_estimate(homsr, workload, seed, seconds, tracer, out_dir):
    """`homsr estimate`: sampler set-up, trials until ``seconds`` have passed, then one CRB."""
    run, replay = Run(), CliReplay()
    psf = homsr.PsfModel()
    scene = homsr.SourceScene(separation=workload.true_s, brightness=workload.ns)
    wall = time.perf_counter()
    with _span(tracer, "estimation.sampler_init"):
        sampler = run.timed("sampler_init_s", homsr.FrameSampler, scene, psf, l_cap=L_CAP)
    replay.add("FrameSampler", replay.key(homsr.FrameSampler, (scene, psf), {"l_cap": L_CAP}),
               types.SimpleNamespace(sample_record=replay.stand_in("sample_record", sampler.sample_record)))

    # Set-up also scans the rejection bound of every (L, X) cell.  The CLI scans
    # them lazily, 81 of the 90 cells in trial 0 at the defaults and the rest
    # now and then later.  A bound is a fixed function of (L, X) until a
    # sampled proposal exceeds it, so scanning early leaves every sampled frame
    # as the CLI draws it, and every trial is then warm.
    with _span(tracer, "estimation.majorant_fill"):
        run.timed("majorant_fill_s", lambda: [sampler._majorant(L, X)
                                              for L in range(1, L_CAP + 1) for X in range(L + 1)])

    fits = []
    trial, start = 0, time.perf_counter()
    while trial < MIN_TRIALS or time.perf_counter() - start < seconds:
        op = f"trial-{trial}"
        if tracer:
            tracer.op = op
        rng = np.random.default_rng([seed, trial])
        sample_key = replay.key(sampler.sample_record, (rng, FRAMES), {})
        fit_kwargs = dict(l_cap=L_CAP, true_separation=workload.true_s, compute_crb=False)
        run.attempted += 1
        try:
            with _span(tracer, "estimation.sample_record"):
                record = run.timed("sample_s", sampler.sample_record, rng, FRAMES)
        except homsr.MajorantError as exc:
            run.fail(op, f"MajorantError: {exc}")
        else:
            with _span(tracer, "estimation.mle"):
                report = run.timed("fit_s", homsr.mle_separation, record, psf, workload.ns, **fit_kwargs)
            run.add("trial_s", run.samples["sample_s"][-1] + run.samples["fit_s"][-1])
            if trial < 2:
                replay.add("sample_record", sample_key, record)
                replay.add("mle_separation",
                           replay.key(homsr.mle_separation, (record, psf, workload.ns), fit_kwargs), report)
            fits.append((op, report))
        trial += 1

    if tracer:
        tracer.op = "crb"
    with _span(tracer, "estimation.crb"):
        crb = run.timed("crb_s", homsr.crb_report, scene, psf, FRAMES)
    run.traced_wall_s = time.perf_counter() - wall
    replay.add("crb_report", replay.key(homsr.crb_report, (scene, psf, FRAMES), {}), crb)

    limit = 6.0 * math.sqrt(crb)
    for op, report in fits:
        if report.boundary_flag:
            run.fail(op, f"boundary estimate {report.s_hat!r}")
        elif not math.isfinite(report.s_hat) or abs(report.s_hat - workload.true_s) > limit:
            run.fail(op, f"s_hat {report.s_hat!r} is more than 6 sqrt(CRB) = {limit:.4g} from {workload.true_s}")

    first_two = [(str(i), repr(r.s_hat), str(r.boundary_flag)) for i, (_, r) in enumerate(fits[:2])]
    run.cli_check = _run_cli(
        homsr, replay, out_dir,
        ["estimate", "--true-s", repr(workload.true_s), "--ns", repr(workload.ns), "--frames", str(FRAMES),
         "--trials", "2", "--seed", str(seed), "--l-cap", str(L_CAP)],
        dict(FrameSampler=homsr.FrameSampler, mle_separation=homsr.mle_separation, crb_report=homsr.crb_report),
        first_two)
    return run


def _fi_point_failures(homsr, breakdown, s, ns, smallest, largest):
    """Reasons one fi-curve point fails its gates (empty when it passes)."""
    reasons = []
    for L, est in breakdown.per_L.items():
        if not (math.isfinite(est.value) and est.value >= 0):
            reasons.append(f"F_{L} = {est.value!r}")
        if not est.converged:
            reasons.append(f"F_{L} did not converge")

    def off(L, ref, slack):
        est = breakdown.per_L[L]
        if abs(est.value / ref - 1.0) > 5.0 * est.stderr / ref + slack:
            reasons.append(f"F_{L} = {est.value!r} is off its closed form {ref!r}")

    if smallest:
        # Even orders approach the sub-Rayleigh limit with an O(s^2) relative offset.
        for L in range(2, breakdown.l_max + 1, 2):
            off(L, homsr.subrayleigh_fisher_order(L // 2, ns), 10.0 * s * s)
    if largest:
        off(2, homsr.asymptotic_fisher_2p(ns), 1e-3)
    return reasons


def run_fi_curve(homsr, workload, seed, seconds, tracer, out_dir):
    """`homsr fi-curve`: both grid ends, which carry the closed-form gates, then inner points.

    The relative error varies about 2x
    along the grid, so the inner points take turns from the grid's four
    quarters, each quarter in a seed-drawn order; every run then spans the grid.
    """
    run, replay = Run(), CliReplay()
    psf = homsr.PsfModel()
    quad = homsr.QuadratureSpec(scheme="auto")
    last = len(S_GRID) - 1
    rng = np.random.default_rng(seed)
    quarters = [rng.permutation(q) for q in np.array_split(np.arange(1, last), 4)]
    order = [0, last] + [int(i) for turn in zip(*quarters) for i in turn]
    wall = time.perf_counter()
    for i in order:
        if run.attempted >= MIN_POINTS and time.perf_counter() - wall >= seconds:
            break
        s = float(S_GRID[i])
        op = f"s={s!r}"
        if tracer:
            tracer.op = op
        scene = homsr.SourceScene(separation=s, brightness=workload.ns)
        run.attempted += 1
        with _span(tracer, "fisher.fisher_total"):
            breakdown = run.timed("fi_point_s", homsr.fisher_total, scene, psf, l_max=None, quad=quad)
        rel = max(e.stderr / e.value if e.value > 0 else 0.0 for e in breakdown.per_L.values())
        run.add("fi_rel_err", rel)
        for reason in _fi_point_failures(homsr, breakdown, s, workload.ns, i == 0, i == last):
            run.fail(op, reason)
        if run.attempted == 1:
            replay.add("fisher_total", replay.key(homsr.fisher_total, (scene, psf), {"l_max": None, "quad": quad}),
                       breakdown)
            first = (s, breakdown)
    run.traced_wall_s = time.perf_counter() - wall

    s, breakdown = first
    rows = [(repr(s), str(L), repr(e.value), repr(e.stderr), repr(breakdown.total), str(e.converged))
            for L, e in sorted(breakdown.per_L.items())]
    run.cli_check = _run_cli(
        homsr, replay, out_dir,
        ["fi-curve", "--ns", repr(workload.ns), "--s-grid", f"{s!r}:{s!r}:1"],
        dict(fisher_total=homsr.fisher_total), rows)
    return run


RUNNERS = {"estimate": run_estimate, "fi-curve": run_fi_curve}
