"""Synthetic frame sampling and maximum-likelihood separation estimation.

Frames are drawn from the coincidence model in three stages: frame size
L from the closed-form thermal distribution (truncated at ``l_cap``;
larger frames are redrawn) and camera split X from the closed-form
momentum-integrated class weights, both exactly, then momenta by rejection
sampling with the product envelope as proposal, under a probe-scanned bound
that every proposal is checked against (see :class:`FrameSampler`).

The likelihood used for estimation conditions on L <= l_cap — the same
truncation the sampler applies — by subtracting N log W(s) with
W(s) = sum_{L <= l_cap} P(L; s).  This removes the truncation bias that a
naive unconditioned likelihood would acquire from the discarded thermal
tail (a few percent of frames at N_s ~ 1.5).

The record is grouped once by photon number L, momenta C1 photons first;
an evaluation makes one multi-split bracket-kernel call per L, and the
s-independent log envelope is summed once per record.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .coincidence import DetectionOutcome, class_weights, coincidence_density_grid, frame_size_distribution
from .coincidence import _bracket, _log_envelope, _theta_table
from .fisher import fisher_total
from .optics import PsfModel, SourceScene, mode_weights

__all__ = [
    "ExperimentConfig",
    "EstimationReport",
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


# Envelope probes per (L, X) cell in the initial majorant scan, and the
# factor by which every majorant exceeds the largest bracket value seen.
_MAJORANT_SCAN = 32_768
_MAJORANT_MARGIN = 1.2


class MajorantError(RuntimeError):
    """Raised when the rejection sampler observes a density above its majorant."""


@dataclass(frozen=True)
class ExperimentConfig:
    true_scene: SourceScene
    psf: PsfModel
    frame_count: int
    seed: int
    l_cap: int = 12

    def __post_init__(self):
        if self.frame_count < 1:
            raise ValueError("frame_count must be >= 1")
        if self.l_cap < 2:
            raise ValueError("l_cap must be >= 2")


@dataclass(frozen=True)
class EstimationReport:
    s_hat: float
    crb: float | None          # 1/(N F), length^2 units
    bias: float | None
    boundary_flag: bool
    log_likelihood_curve: tuple | None   # (s_grid, log-likelihood values)


class FrameSampler:
    """Sampler of frame outcomes for a fixed scene.

    L and the camera split X | L (the closed form of
    :func:`~homsr.coincidence.class_weights`, tabulated once per L) are drawn
    exactly.  Momenta are rejection-sampled under a per-(L, X) bound found by
    a probe scan (:meth:`_majorant`), not a proven maximum; every proposal is
    checked against it (:meth:`_sample_momenta`).
    """

    def __init__(self, scene: SourceScene, psf: PsfModel, l_cap: int = 12):
        if l_cap < 2:
            raise ValueError("l_cap must be >= 2")
        self.scene = scene
        self.psf = psf
        self.l_cap = l_cap

        p_l = frame_size_distribution(l_cap, scene, psf)
        self.truncated_mass = float(p_l.sum())
        self.p_l_given_cap = p_l / self.truncated_mass
        self.x_given_l = {}
        for L in range(1, l_cap + 1):
            w = class_weights(L, scene, psf)
            self.x_given_l[L] = w / w.sum()
        self._majorants: dict = {}

    def _bracket(self, L, X, k):
        return coincidence_density_grid(L, X, k, self.scene, self.psf, include_envelope=False)

    def _majorant(self, L, X):
        """Cached rejection bound of one (L, X) cell: ``_MAJORANT_MARGIN`` times the
        largest bracket value on a scan of envelope-distributed probes (plus the
        origin), which covers the region Gaussian proposals actually visit."""
        key = (L, X)
        if key not in self._majorants:
            rng = np.random.default_rng([9191, L, X])
            probes = rng.standard_normal((_MAJORANT_SCAN, L)) * self.psf.sigma_k
            probes[0] = 0.0
            peak = float(self._bracket(L, X, probes).max())
            self._majorants[key] = _MAJORANT_MARGIN * peak
        return self._majorants[key]

    def _sample_momenta(self, L, X, count, rng):
        """Rejection-sample ``count`` momentum tuples of the (L, X) cell.

        Each pass draws blocks of envelope proposals under one bound and keeps
        the accepted rows.  A proposal above the bound ends the pass: the bound
        is raised to ``_MAJORANT_MARGIN`` times that value and the pass's rows
        are dropped, so the returned samples were all drawn under a bound no
        proposal violated.  A ninth violated pass raises :class:`MajorantError`.
        """
        block = max(1024, 4 * count)
        for _ in range(9):
            bound = self._majorant(L, X)
            kept = np.empty((0, L))
            while len(kept) < count:
                k = rng.standard_normal((block, L)) * self.psf.sigma_k
                g = self._bracket(L, X, k)
                if g.max() > bound:
                    self._majorants[(L, X)] = _MAJORANT_MARGIN * float(g.max())
                    break
                kept = np.concatenate([kept, k[rng.random(block) * bound < g]])
            else:
                return kept[:count]
        raise MajorantError(f"majorant for (L={L}, X={X}) was violated in 9 passes in a row")

    def sample_record(self, rng: np.random.Generator, n: int):
        """Draw ``n`` independent frames (order randomized)."""
        l_values = rng.choice(np.arange(1, self.l_cap + 1), size=n, p=self.p_l_given_cap)
        frames = [None] * n
        for L in np.unique(l_values):
            idx_l = np.flatnonzero(l_values == L)
            xs = rng.choice(np.arange(L + 1), size=idx_l.size, p=self.x_given_l[L])
            for X in np.unique(xs):
                idx = idx_l[xs == X]
                k = self._sample_momenta(int(L), int(X), idx.size, rng)
                for row, frame_i in zip(k, idx):
                    frames[frame_i] = DetectionOutcome(int(L), int(X), tuple(row))
        return frames

    def sample_frame(self, rng: np.random.Generator) -> DetectionOutcome:
        return self.sample_record(rng, 1)[0]


def sample_frame(scene: SourceScene, psf: PsfModel, rng: np.random.Generator, l_cap: int = 12) -> DetectionOutcome:
    """One-shot convenience wrapper around :class:`FrameSampler`."""
    return FrameSampler(scene, psf, l_cap=l_cap).sample_frame(rng)


def simulate_experiment(config: ExperimentConfig, sampler: FrameSampler | None = None):
    """Generate the frame record of one experiment, reproducible from the seed."""
    if sampler is None:
        sampler = FrameSampler(config.true_scene, config.psf, l_cap=config.l_cap)
    rng = np.random.default_rng(config.seed)
    return sampler.sample_record(rng, config.frame_count)


def _group_record(record):
    """``{L: (momenta C1 photons first, splits present, each row's index into splits)}``."""
    rows, splits = {}, {}
    for outcome in record:
        rows.setdefault(outcome.photon_count, []).append(outcome.canonical_momenta)
        splits.setdefault(outcome.photon_count, []).append(outcome.camera_split)
    return {L: (np.asarray(rows[L]),) + np.unique(splits[L], return_inverse=True) for L in rows}


def _log_likelihood(groups, n_frames, psf, brightness, l_cap, s):
    """Log-likelihood of the grouped record without its s-independent envelope term."""
    scene = SourceScene(separation=s, brightness=brightness)
    delta = mode_weights(scene, psf).delta
    total = 0.0
    for L, (k, splits, column) in groups.items():
        bracket = _bracket(k, s, splits, _theta_table(L, brightness, delta)[splits])
        bracket = bracket[np.arange(len(k)), column]
        if np.any(bracket <= 0):
            return -np.inf
        total += float(np.log(bracket).sum())
    norm = frame_size_distribution(l_cap, scene, psf).sum()
    return total - n_frames * math.log(norm)


def mle_separation(
    record,
    psf: PsfModel,
    brightness: float,
    search_interval=(0.05, 4.0),
    l_cap: int = 12,
    true_separation: float | None = None,
    curve_points: int = 0,
    compute_crb: bool = True,
) -> EstimationReport:
    """Maximum-likelihood separation estimate from a frame record.

    The per-source brightness is treated as known; the likelihood is the
    exact coincidence density conditioned on L <= l_cap, so a frame above
    ``l_cap`` raises ``ValueError``.  It is evaluated per photon number L
    (see the module notes).  The scalar search
    is a bracketed golden-section/parabolic minimization of the negative
    log-likelihood; a maximum at the interval boundary is flagged.  A record
    whose likelihood is zero across the interval (a zero-density frame)
    raises ``ValueError`` instead of returning a boundary estimate.
    """
    from scipy.optimize import minimize_scalar

    if l_cap < 2:
        raise ValueError("l_cap must be >= 2")
    if not record:
        raise ValueError("record must be non-empty")
    groups = _group_record(record)
    if max(groups) > l_cap:
        raise ValueError(
            f"record has a frame with L = {max(groups)} photons, above l_cap = {l_cap}: "
            "the likelihood conditioned on L <= l_cap gives it probability 0"
        )
    n = len(record)
    lo, hi = search_interval
    log_env = sum(_log_envelope(k, psf) for k, _, _ in groups.values())

    def objective(s):
        return -(log_env + _log_likelihood(groups, n, psf, brightness, l_cap, s))

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
        crb = crb_report(SourceScene(separation=max(s_hat, 1e-3 * psf.sigma_x), brightness=brightness), psf, n)

    bias = (s_hat - true_separation) if true_separation is not None else None
    return EstimationReport(
        s_hat=s_hat,
        crb=crb,
        bias=bias,
        boundary_flag=boundary,
        log_likelihood_curve=curve,
    )


def crb_report(scene: SourceScene, psf: PsfModel, n_frames: int) -> float:
    """Cramér-Rao bound 1/(N F) in length^2 units for an N-frame record.

    F is ``fisher_total(scene, psf).total``: the sum of F_L over
    L <= ``default_l_max(scene)`` (7 at N_s = 1.5).  It is not conditioned on
    the ``l_cap`` a fit truncates its likelihood at.
    """
    breakdown = fisher_total(scene, psf)
    return 1.0 / (n_frames * breakdown.total * psf.sigma_k ** 2)


# ---------------------------------------------------------------------------
# Record serialization: one frame per line, "L,X,k_1,...,k_L" in sigma_k units
# ---------------------------------------------------------------------------

def record_to_lines(record, psf: PsfModel):
    """Serialize frames on their canonical momenta (C1 photons first), which keep the density."""
    sk = psf.sigma_k
    for outcome in record:
        cols = [str(outcome.photon_count), str(outcome.camera_split)]
        cols += [repr(k / sk) for k in outcome.canonical_momenta]
        yield ",".join(cols)


def record_from_lines(lines, psf: PsfModel):
    sk = psf.sigma_k
    record = []
    for line in lines:
        line = line.strip()
        if not line:
            continue
        parts = line.split(",")
        L, X = int(parts[0]), int(parts[1])
        momenta = tuple(float(p) * sk for p in parts[2:])
        record.append(DetectionOutcome(L, X, momenta))
    return record


def write_record(path, record, psf: PsfModel):
    with open(path, "w") as fh:
        for line in record_to_lines(record, psf):
            fh.write(line + "\n")


def read_record(path, psf: PsfModel):
    with open(path) as fh:
        return record_from_lines(fh, psf)
