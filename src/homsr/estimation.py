"""Synthetic frame sampling and maximum-likelihood separation estimation.

Frames are drawn from the coincidence model in three stages: frame size
L from the closed-form thermal distribution (truncated at ``l_cap``;
larger frames are redrawn) and camera split X from the closed-form
momentum-integrated class weights, both exactly for every frame first, then
momenta by rejection sampling with the envelope as proposal, in rounds over
the whole record of one per-row kernel call each (:class:`FrameSampler`).

The likelihood used for estimation conditions on L <= l_cap — the same
truncation the sampler applies — by subtracting N log W(s) with
W(s) = sum_{L <= l_cap} P(L; s).  This removes the truncation bias that a
naive unconditioned likelihood would acquire from the discarded thermal
tail (a few percent of frames at N_s ~ 1.5).  :func:`crb_report` is the
Cramér-Rao bound of this fitted model: L <= l_cap, conditioned on the cap,
orders L >= 4 on one shared 20k-point lattice (L <= 3 on Gauss-Hermite),
relative standard error about 2.7e-3 at s = 1, N_s = 1.5.

The one record type is :class:`FrameRecord` (``==`` means equal outcome
lists): the sampler fills it, :func:`read_record` returns it equal to the
record written, and the likelihood lays its frames out once per fit as
column prefixes in descending L (column a holds k_a of the frames with
L > a: sum of L words a record, as a sampler round draws its proposals),
which one kernel call per evaluation reads, each row at its own (L, X).
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .coincidence import DetectionOutcome, class_weights, frame_size_distribution
from .coincidence import _bracket, _checked_row, _closed_form_weights, _count, _log_envelope, _theta_tables
from .coincidence import _with_s_derivative
from .fisher import QuadratureSpec, fisher_total
from .optics import PsfModel, SourceScene, mode_weights
from .quadrature import _each_batch

__all__ = [
    "ExperimentConfig",
    "EstimationReport",
    "FrameRecord",
    "FrameSampler",
    "MajorantError",
    "sample_frame",
    "simulate_experiment",
    "mle_separation",
    "crb_report",
    "write_record",
    "read_record",
    "record_to_lines",
    "record_from_lines",
]


# Default largest frame size L that the sampler draws and the likelihood conditions on.
L_CAP = 12
# Default interval (lo, hi) of separations on which mle_separation maximizes the likelihood.
SEARCH_INTERVAL = (0.05, 4.0)

# Envelope probes of the majorant scan (every split of every L at once),
# and the factor by which every majorant exceeds the largest bracket value seen.
_MAJORANT_SCAN = 32_768
_MAJORANT_MARGIN = 1.2
# Proposals added to every block's expected need, and the most one block draws.
_BLOCK_FLOOR = 16
_BLOCK_CAP = 32_768


class MajorantError(RuntimeError):
    """Raised when the rejection sampler observes a density above its majorant."""


@dataclass(frozen=True)
class ExperimentConfig:
    true_scene: SourceScene
    psf: PsfModel
    frame_count: int
    seed: int
    l_cap: int = L_CAP

    def __post_init__(self):
        _count("frame_count", self.frame_count, 1)
        _count("seed", self.seed, 0)
        _count("l_cap", self.l_cap, 2)


@dataclass(frozen=True)
class EstimationReport:
    s_hat: float
    crb: float | None          # 1/(N F), length^2 units
    bias: float | None
    boundary_flag: bool
    log_likelihood_curve: tuple | None   # (s_grid, log-likelihood values)
    objective_evals: int | None = None   # likelihood evaluations the optimiser made
    optimizer_success: bool | None = None  # the optimiser's own convergence flag


class FrameRecord(Sequence):
    """Frames grouped by photon number L: ``groups[L] = (positions, splits, momenta)``.

    Each row's frame index, its split X and its momenta (n_L, L), C1 photons
    first, with L in order of its first frame; the arrays are made read-only.
    The record reads, and compares with ``==``, as the list of its :class:`~homsr.coincidence.DetectionOutcome`s.
    """

    def __init__(self, groups):
        for L, (positions, _, _) in groups.items():
            if len(positions) == 0:
                raise ValueError(f"group L = {L} has no rows")
        self.groups = dict(sorted(groups.items(), key=lambda item: item[1][0][0]))
        for a in (a for arrays in self.groups.values() for a in arrays):
            a.flags.writeable = False

    @classmethod
    def _from_rows(cls, rows):
        """The record of ``(L, X, momenta)`` rows in frame order, grouped by L in one pass."""
        columns = {}
        for i, (L, X, k) in enumerate(rows):
            for column, value in zip(columns.setdefault(L, ([], [], [])), (i, X, k)):
                column.append(value)
        return cls({L: (np.array(p), np.array(x), np.array(k, dtype=float)) for L, (p, x, k) in columns.items()})

    @classmethod
    def from_outcomes(cls, outcomes):
        """Group outcomes by L on their canonical momenta; the record iterates as ``outcomes``."""
        outcomes = list(outcomes)
        record = cls._from_rows((o.photon_count, o.camera_split, o.canonical_momenta) for o in outcomes)
        record._frames = outcomes
        return record

    def _in_frame_order(self, make, unit=1.0):
        """``make(L, X, momenta / unit as a list)`` of every frame, in frame order."""
        made = [None] * len(self)
        for L, (positions, splits, momenta) in self.groups.items():
            for i, X, row in zip(positions.tolist(), splits.tolist(), (momenta / unit).tolist()):
                made[i] = make(L, X, row)
        return made

    @cached_property
    def _frames(self):
        """The outcomes in frame order, built once on first use."""
        return self._in_frame_order(lambda L, X, row: DetectionOutcome(L, X, tuple(row)))

    def __len__(self):
        return sum(len(positions) for positions, _, _ in self.groups.values())

    def __getitem__(self, index):
        return self._frames[index]

    def __eq__(self, other):  # outcomes, not columns: the columns drop camera assignments
        return self._frames == list(other) if isinstance(other, (FrameRecord, list)) else NotImplemented


class FrameSampler:
    """Sampler of frame records (:class:`FrameRecord`) for a fixed scene.

    L and the camera split X | L (the closed form of :func:`~homsr.coincidence.class_weights`, tabulated once
    per L) are drawn exactly for every frame first.  Momenta are rejection-sampled in rounds over the whole record
    (:meth:`_sample_momenta`), each one per-row bracket call for every (L, X) cell still short, each row at its own
    L and split, under a per-cell bound (:meth:`_majorant`) that all-orders bracket calls on one probe set, a row
    slice each, find at construction, not a proven maximum; every proposal is checked against its cell's bound.  The
    slices run in forked helper processes too when more than one CPU is usable (``quadrature._each_batch``).
    ``cell_counts[(L, X)]`` counts the proposals drawn, the rows accepted and the violated passes of each cell.
    """

    def __init__(self, scene: SourceScene, psf: PsfModel, l_cap: int = L_CAP):
        l_cap = _count("l_cap", l_cap, 2)
        self.scene, self.psf, self.l_cap = scene, psf, l_cap
        orders = range(1, l_cap + 1)

        p_l = frame_size_distribution(l_cap, scene, psf)
        self.truncated_mass = float(p_l.sum())
        self.p_l_given_cap = p_l / self.truncated_mass
        self._weights = np.array([np.pad(class_weights(L, scene, psf), (0, l_cap - L)) for L in orders])  # [L - 1, X]
        self._x_cdf = np.cumsum(self._weights / self._weights.sum(axis=1, keepdims=True), axis=1)  # of X | L
        self._theta = _theta_tables(l_cap, scene.brightness, mode_weights(scene, psf).delta)  # [L, X, j]
        # order L's probes: the first L columns of one column-major envelope draw, origin in row 0, so the same at
        # every l_cap >= L; its splits: columns (L - 1)(L + 2)/2 + X of the slices' all-orders bracket
        probes = (np.random.default_rng(9191).standard_normal((l_cap, _MAJORANT_SCAN)) * psf.sigma_k).T
        probes[0] = 0.0
        rows = _MAJORANT_SCAN * (l_cap + 1) // sum(L + 1 for L in orders)  # no slice's output above one order's
        starts = range(0, _MAJORANT_SCAN, rows)
        peaks = np.max(_each_batch(lambda i: _bracket(probes[starts[i] : starts[i] + rows], scene.separation,
                                                      self._theta, orders).max(axis=0), len(starts)), axis=0).tolist()
        self._majorants = {(L, X): _MAJORANT_MARGIN * max(peaks[(L - 1) * (L + 2) // 2 + x] for x in (X, L - X))
                           for L in orders for X in range(L + 1)}
        self.cell_counts = {}

    def _bracket(self, L, X, k):
        """The bracket of each row at L and split X, one per row in descending L (or one of them an int), ``k`` their
        momenta as one flat buffer of column prefixes: the sampler's [L, X, j] table in, one split per row out."""
        L, X = np.broadcast_arrays(L, X)
        return _bracket(k, self.scene.separation, self._theta, lengths=L, splits=X)

    def _majorant(self, L, X):
        """Rejection bound of cell (L, X): ``_MAJORANT_MARGIN`` times the largest of splits X and L - X (g_{L-X} at
        the reversed momenta is g_X) on order L's ``_MAJORANT_SCAN`` envelope probes, which cover the region Gaussian
        proposals visit, unless a violated pass has raised it (:meth:`_sample_momenta`)."""
        return self._majorants[(L, X)]

    def _sample_momenta(self, L, X, count, rng):
        """Rejection-sample ``count`` momentum tuples of cell (L, X), or of each cell of arrays L, X, count, in rounds.

        A proposal is accepted with probability g/bound, so a bound's exact acceptance is w(L, X)/bound, with w
        the closed-form class weight.  Each round draws, for every cell still short, its remaining count times
        bound/w plus ``_BLOCK_FLOOR`` proposals, at most ``_BLOCK_CAP`` in all, in one per-row bracket call.  A
        cell's pass keeps its accepted rows under one bound; a proposal above it ends the pass, raises the bound to
        ``_MAJORANT_MARGIN`` times that value and drops the pass's rows, so every returned row was drawn under a
        bound no proposal of its cell violated.  A cell's ninth violated pass raises :class:`MajorantError`.  The
        cells come in descending L, so a round draws its proposals as the kernel reads them, column prefixes of sum
        of L words; returns the cells' rows one after another, each row its L momenta in turn (sum of count L words).
        """
        ls, xs, want = (np.atleast_1d(a) for a in np.broadcast_arrays(L, X, count))
        cells, width, words = list(zip(ls.tolist(), xs.tolist())), int(ls.max(initial=0)), want * ls
        tallies = [self.cell_counts.setdefault(c, {"proposals": 0, "accepted": 0, "violated": 0}) for c in cells]
        bounds, w = np.array([self._majorant(*c) for c in cells]), self._weights[ls - 1, xs]
        have, before = np.zeros(len(cells), int), [t["violated"] for t in tallies]
        out, firsts = np.empty(int(words.sum())), np.cumsum(words) - words  # cell i's rows from word firsts[i] on
        while np.any(short := have < want):
            need = np.where(short, np.ceil((want - have) * bounds / w) + _BLOCK_FLOOR, 0)
            ends = np.minimum(np.cumsum(need), _BLOCK_CAP).astype(int)  # the cap cuts the last cells' blocks
            blocks = np.diff(ends, prepend=0)
            lengths = np.repeat(ls, blocks)
            k = rng.standard_normal(int(lengths.sum())) * self.psf.sigma_k  # column a: the proposals with L > a
            g = self._bracket(lengths, np.repeat(xs, blocks), k)
            accept = rng.random(ends[-1]) * np.repeat(bounds, blocks) < g
            starts = (ends - blocks)[live := np.flatnonzero(blocks)]  # a cell the cap left out has no rows
            peaks, got = np.full(len(cells), -np.inf), np.zeros(len(cells), int)
            peaks[live], got[live] = np.maximum.reduceat(g, starts), np.add.reduceat(accept, starts, dtype=int)
            got[violated := np.flatnonzero(peaks > bounds)] = 0
            # an unviolated cell's accepted rows follow the rows it has in out, up to its count
            row = np.repeat(have - np.cumsum(got) + got, got) + np.arange(got.sum())
            fits = row < np.repeat(want, got)
            kept = np.flatnonzero(accept & np.repeat(peaks <= bounds, blocks))[fits]
            to, start = (np.repeat(firsts, got) + row * np.repeat(ls, got))[fits], 0  # each kept row's first word
            for a in range(width):  # column a of k holds the proposals with L > a, so a prefix of the kept rows
                r = int(blocks[ls > a].sum())
                m = np.searchsorted(kept, r)
                out[to[:m] + a], start = k[start + kept[:m]], start + r
            have += got
            for tally, drawn, accepted in zip(tallies, blocks.tolist(), got.tolist()):
                tally["proposals"], tally["accepted"] = tally["proposals"] + drawn, tally["accepted"] + accepted
            for i in violated.tolist():  # the cell's pass ends: its bound is raised and its rows are redrawn
                self._majorants[cells[i]] = _MAJORANT_MARGIN * float(peaks[i])
                tallies[i]["violated"] += 1
                if tallies[i]["violated"] - before[i] == 9:  # this call's ninth violated pass of the cell
                    raise MajorantError(f"majorant for (L={ls[i]}, X={xs[i]}) was violated in 9 passes in a row")
                bounds[i], have[i] = self._majorant(*cells[i]), 0
        return out

    def sample_record(self, rng: np.random.Generator, n: int) -> FrameRecord:
        """Draw a :class:`FrameRecord` of ``n`` independent frames (order randomized)."""
        _count("n", n, 0)
        l_values = rng.choice(np.arange(1, self.l_cap + 1), size=n, p=self.p_l_given_cap)
        xs = np.minimum((self._x_cdf[l_values - 1] <= rng.random(n)[:, None]).sum(axis=1), l_values)
        cell = (self.l_cap - l_values) * (self.l_cap + 1) + xs  # in descending L, then ascending X
        cells, counts = np.unique(cell, return_counts=True)
        rows = self._sample_momenta(self.l_cap - cells // (self.l_cap + 1), cells % (self.l_cap + 1), counts, rng)
        frames, first = np.argsort(cell, kind="stable"), np.empty(n, int)  # the frame of each row, in turn
        first[frames] = np.cumsum(l_values[frames]) - l_values[frames]  # each frame's first word in the rows
        return FrameRecord({L: (p, xs[p], rows[first[p, None] + np.arange(L)])
                            for L in np.unique(l_values).tolist() for p in [np.flatnonzero(l_values == L)]})


def sample_frame(scene: SourceScene, psf: PsfModel, rng: np.random.Generator, l_cap: int = L_CAP) -> DetectionOutcome:
    """One-shot convenience wrapper around :class:`FrameSampler`: each call builds one and so pays its whole bound
    scan, about 0.1 s at l_cap 12; draw many frames with one sampler's :meth:`~FrameSampler.sample_record`."""
    return FrameSampler(scene, psf, l_cap=l_cap).sample_record(rng, 1)[0]


def simulate_experiment(config: ExperimentConfig, sampler: FrameSampler | None = None):
    """Generate the frame record of one experiment, reproducible from the seed."""
    if sampler is None:
        sampler = FrameSampler(config.true_scene, config.psf, l_cap=config.l_cap)
    return sampler.sample_record(np.random.default_rng(config.seed), config.frame_count)


def _likelihood_rows(record):
    """(momenta, L, X) of the record's rows for the per-row kernel: rows in descending L, momenta in column prefixes."""
    order = sorted(record.groups, reverse=True)
    _, xs, momenta = zip(*(record.groups[L] for L in order))
    k = np.concatenate([m[:, a] for a in range(order[0]) for m in momenta if m.shape[1] > a])
    return k, np.repeat(order, [len(x) for x in xs]), np.concatenate(xs)


def _log_likelihood(rows, n_frames, psf, brightness, l_cap, s):
    """Log-likelihood of the record's rows (:func:`_likelihood_rows`) without its s-independent envelope term."""
    k, lengths, xs = rows
    scene = SourceScene(separation=s, brightness=brightness)
    delta = mode_weights(scene, psf).delta
    bracket = _bracket(k, s, _theta_tables(lengths[0], brightness, delta), lengths=lengths, splits=xs)
    if np.any(bracket <= 0):
        return -np.inf
    norm = frame_size_distribution(l_cap, scene, psf).sum()
    return float(np.log(bracket).sum()) - n_frames * math.log(norm)


def mle_separation(
    record,
    psf: PsfModel,
    brightness: float,
    search_interval=SEARCH_INTERVAL,
    l_cap: int = L_CAP,
    true_separation: float | None = None,
    curve_points: int = 0,
    compute_crb: bool = True,
) -> EstimationReport:
    """Maximum-likelihood separation estimate from a frame record.

    ``record`` is a :class:`FrameRecord` or a sequence of outcomes, and the
    per-source brightness is known.  The likelihood is the exact coincidence
    density conditioned on L <= l_cap, so a frame above ``l_cap`` raises
    ``ValueError``.  Bounded Brent search minimizes the negative
    log-likelihood on ``search_interval`` (0 < lo < hi < inf) and flags a
    maximum at its boundary.  A record whose likelihood is zero across the
    interval (a zero-density frame) raises ``ValueError`` instead.
    """
    from scipy.optimize import minimize_scalar

    _count("l_cap", l_cap, 2)
    lo, hi = search_interval
    if not 0 < lo < hi < math.inf:
        raise ValueError(f"search_interval must satisfy 0 < lo < hi < inf, got {search_interval!r}")
    if not isinstance(record, FrameRecord):
        record = FrameRecord.from_outcomes(record)
    if not record:
        raise ValueError("record must be non-empty")
    if max(record.groups) > l_cap:
        raise ValueError(
            f"record has a frame with L = {max(record.groups)} photons, above l_cap = {l_cap}: "
            "the likelihood conditioned on L <= l_cap gives it probability 0"
        )
    n = len(record)
    rows = _likelihood_rows(record)
    log_env = sum(_log_envelope(k, psf) for _, _, k in record.groups.values())

    def objective(s):
        return -(log_env + _log_likelihood(rows, n, psf, brightness, l_cap, s))

    res = minimize_scalar(objective, bounds=(lo, hi), method="bounded", options={"xatol": 1e-5 * psf.sigma_x})
    if not np.isfinite(res.fun):
        raise ValueError(
            "log-likelihood is not finite at the optimum: a frame in the record has "
            "zero density (for example an antibunched pair with k1 == k2)"
        )
    s_hat = float(res.x)
    boundary = (s_hat - lo) < 1e-3 * (hi - lo) or (hi - s_hat) < 1e-3 * (hi - lo)

    curve = None
    if curve_points:
        grid = np.linspace(lo, hi, curve_points)
        curve = (grid, np.array([-objective(s) for s in grid]))

    crb = None
    if compute_crb:
        crb = crb_report(SourceScene(separation=max(s_hat, 1e-3 * psf.sigma_x), brightness=brightness), psf, n, l_cap)

    bias = (s_hat - true_separation) if true_separation is not None else None
    return EstimationReport(
        s_hat=s_hat,
        crb=crb,
        bias=bias,
        boundary_flag=boundary,
        log_likelihood_curve=curve,
        objective_evals=int(res.nfev),
        optimizer_success=bool(res.success),
    )


def crb_report(scene: SourceScene, psf: PsfModel, n_frames: int, l_cap: int = L_CAP) -> float:
    """Cramér-Rao bound 1/(N sigma_k^2 F) in length^2 units for an N-frame record of the fitted model.

    F is the information per frame of the model :func:`mle_separation` fits, L <= ``l_cap`` conditioned
    on that cap: sum_{L <= l_cap} F_L / W - (W'/W)^2 / sigma_k^2, with W = sum_{L <= l_cap} P(L) and W'
    exact.  The F_L come from one :func:`~homsr.fisher.fisher_total` call, L >= 4 on one shared 20k-point
    lattice (L <= 3 on Gauss-Hermite); the relative standard error of F is about 2.7e-3 at s = 1, N_s = 1.5
    (the orders' errors correlate on shared nodes, so it is larger than with a lattice per order).
    """
    _count("n_frames", n_frames, 1)
    _count("l_cap", l_cap, 2)
    breakdown = fisher_total(scene, psf, l_max=l_cap, quad=QuadratureSpec(sample_count=20_000))
    w, dw = _with_s_derivative(lambda s: sum(_closed_form_weights(L, s, scene.brightness, psf).sum()
                                             for L in range(1, l_cap + 1)), scene.separation)
    return 1.0 / (n_frames * (breakdown.total * psf.sigma_k ** 2 / w - (dw / w) ** 2))


# ---------------------------------------------------------------------------
# Record serialization: one frame per line, "L,X,k_1,...,k_L" in sigma_k units
# ---------------------------------------------------------------------------

def record_to_lines(record, psf: PsfModel):
    """Serialize a :class:`FrameRecord` or outcome sequence on canonical momenta (C1 photons first)."""
    if not isinstance(record, FrameRecord):
        record = FrameRecord.from_outcomes(record)
    yield from record._in_frame_order(lambda L, X, row: ",".join([str(L), str(X), *map(repr, row)]), psf.sigma_k)


def record_from_lines(lines, psf: PsfModel) -> FrameRecord:
    """The :class:`FrameRecord` of the lines (blanks skipped); a bad line's ``ValueError`` names its number and text."""
    sk = psf.sigma_k

    def row(number, line):
        try:
            L, X, *ks = line.split(",")
            return _checked_row(int(L), int(X), [float(k) * sk for k in ks])[:3]
        except ValueError as exc:
            raise ValueError(f"line {number} {line!r}: {exc}") from exc

    return FrameRecord._from_rows(row(n, line) for n, line in enumerate(map(str.strip, lines), 1) if line)


def write_record(path, record, psf: PsfModel):
    with open(path, "w") as fh:
        fh.writelines(line + "\n" for line in record_to_lines(record, psf))


def read_record(path, psf: PsfModel) -> FrameRecord:
    with open(path) as fh:
        return record_from_lines(fh, psf)
