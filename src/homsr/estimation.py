"""Synthetic frame sampling and maximum-likelihood separation estimation.

Frames are drawn exactly from the coincidence model in three stages:
frame size L from the closed-form thermal distribution (truncated at
``l_cap``; larger frames are redrawn), camera split X from the exact
closed-form momentum-integrated class weights, and momenta by rejection
sampling with the product envelope as proposal.

The likelihood used for estimation conditions on L <= l_cap — the same
truncation the sampler applies — by subtracting N log W(s) with
W(s) = sum_{L <= l_cap} P(L; s).  This removes the truncation bias that a
naive unconditioned likelihood would acquire from the discarded thermal
tail (a few percent of frames at N_s ~ 1.5).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace

import numpy as np
from scipy.optimize import minimize_scalar

from .coincidence import (
    DetectionOutcome,
    class_weights,
    coincidence_density_grid,
    frame_size_distribution,
)
from .fisher import QuadratureSpec, fisher_total
from .optics import PsfModel, SourceScene, momentum_envelope

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
    search_interval: tuple = (0.05, 4.0)
    momentum_bin: float | None = None  # optional pixelation of recorded momenta

    def __post_init__(self):
        if self.frame_count < 1:
            raise ValueError("frame_count must be >= 1")
        lo, hi = self.search_interval
        if not 0 <= lo < hi:
            raise ValueError("search interval must satisfy 0 <= lo < hi")
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
    """Exact sampler of frame outcomes for a fixed scene.

    The camera-split law X | L is the exact closed form of
    :func:`~homsr.coincidence.class_weights`, tabulated once per L.
    Rejection majorants are cached per (L, X) cell; the majorant is 1.2x
    the maximum bracket value found on a scan of envelope-distributed probe
    points (plus the origin).  Every proposal is
    checked against the majorant; a violation raises the bound and restarts
    the affected batch, and repeated violations abort with
    :class:`MajorantError`.
    """

    def __init__(self, scene: SourceScene, psf: PsfModel, l_cap: int = 12):
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
        """Initial rejection bound for the bracket factor of one (L, X) cell.

        The bound is ``_MAJORANT_MARGIN`` times the largest bracket value seen
        on a scan of envelope-distributed probes (plus the origin).  It covers
        the region Gaussian proposals actually visit; the sampler verifies it
        against every proposal and tightens it adaptively on a violation.
        """
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

        Every proposal is checked against the bound.  If one exceeds it, the
        bound is raised to cover the observed value and the whole batch is
        regenerated, so the returned samples were always produced under a
        bound no proposal violated.  Persistent violations abort with
        :class:`MajorantError`.
        """
        out = np.empty((count, L))
        block = max(1024, 4 * count)
        for rescan in range(9):
            bound = self._majorant(L, X)
            filled = 0
            attempts = 0
            warned = False
            while filled < count:
                k = rng.standard_normal((block, L)) * self.psf.sigma_k
                g = self._bracket(L, X, k)
                if g.max() > bound:
                    self._majorants[(L, X)] = _MAJORANT_MARGIN * float(g.max())
                    break
                accept = rng.random(block) * bound < g
                n_acc = int(accept.sum())
                take = min(n_acc, count - filled)
                out[filled : filled + take] = k[accept][:take]
                filled += take
                attempts += block
                if not warned and attempts >= 16 * block and filled < 1e-3 * attempts:
                    warnings.warn(
                        f"rejection efficiency below 1e-3 for (L={L}, X={X})",
                        RuntimeWarning,
                    )
                    warned = True
            else:
                return out
        raise MajorantError(
            f"majorant for (L={L}, X={X}) kept being violated after "
            f"{rescan + 1} adaptive rescans"
        )

    def sample_record(self, rng: np.random.Generator, n: int, momentum_bin: float | None = None):
        """Draw ``n`` independent frames (order randomized)."""
        l_values = rng.choice(np.arange(1, self.l_cap + 1), size=n, p=self.p_l_given_cap)
        frames = [None] * n
        order = np.arange(n)
        for L in np.unique(l_values):
            idx_l = order[l_values == L]
            xs = rng.choice(np.arange(L + 1), size=idx_l.size, p=self.x_given_l[L])
            for X in np.unique(xs):
                idx = idx_l[xs == X]
                k = self._sample_momenta(int(L), int(X), idx.size, rng)
                if momentum_bin is not None:
                    k = np.round(k / momentum_bin) * momentum_bin
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
    return sampler.sample_record(rng, config.frame_count, momentum_bin=config.momentum_bin)


def _group_record(record):
    groups = {}
    for outcome in record:
        key = (outcome.photon_count, outcome.camera_split, outcome.camera_assignment)
        groups.setdefault(key, []).append(outcome.momenta)
    return {key: np.asarray(rows) for key, rows in groups.items()}


def _log_likelihood(groups, n_frames, psf, brightness, l_cap, s):
    scene = SourceScene(separation=s, brightness=brightness)
    total = 0.0
    for (L, X, assignment), k in groups.items():
        dens = coincidence_density_grid(L, X, k, scene, psf, assignment=assignment)
        if np.any(dens <= 0):
            return -np.inf
        total += float(np.log(dens).sum())
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
    exact coincidence density conditioned on L <= l_cap.  The scalar search
    is a bracketed golden-section/parabolic minimization of the negative
    log-likelihood; a maximum at the interval boundary is flagged.  A record
    whose likelihood is zero across the interval (a zero-density frame)
    raises ``ValueError`` instead of returning a boundary estimate.
    """
    if not record:
        raise ValueError("record must be non-empty")
    groups = _group_record(record)
    n = len(record)
    lo, hi = search_interval

    def objective(s):
        return -_log_likelihood(groups, n, psf, brightness, l_cap, s)

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


def crb_report(scene: SourceScene, psf: PsfModel, n_frames: int, l_max: int | None = None, quad: QuadratureSpec | None = None) -> float:
    """Cramér-Rao bound 1/(N F) in length^2 units for an N-frame record."""
    breakdown = fisher_total(scene, psf, l_max=l_max, quad=quad)
    return 1.0 / (n_frames * breakdown.total * psf.sigma_k ** 2)


# ---------------------------------------------------------------------------
# Record serialization: one frame per line, "L,X,k_1,...,k_L" in sigma_k units
# ---------------------------------------------------------------------------

def record_to_lines(record, psf: PsfModel):
    """Serialize frames, C1 momenta first in stable order: the density is symmetric
    under a joint permutation of momenta and camera labels, so this keeps it."""
    sk = psf.sigma_k
    for outcome in record:
        pairs = list(zip(outcome.assignment, outcome.momenta))
        momenta = [k for q, k in pairs if q == 1] + [k for q, k in pairs if q == 0]
        cols = [str(outcome.photon_count), str(outcome.camera_split)]
        cols += [repr(k / sk) for k in momenta]
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
