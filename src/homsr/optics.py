"""Gaussian PSF model, thermal mode weights and detector-geometry checks.

Conventions used throughout the package
---------------------------------------
``sigma_x`` is the standard deviation of the single-photon *intensity*
profile |psi(x)|^2 and ``sigma_k = 1/(2 sigma_x)`` the standard deviation
of the momentum density |phi(k)|^2, so that ``sigma_x * sigma_k = 1/2``
(minimum-uncertainty Gaussian wavepacket).  With this choice

* |phi(k)|^2  = exp(-k^2/(2 sigma_k^2)) / sqrt(2 pi sigma_k^2)
* delta(s)    = exp(-s^2 sigma_k^2 / 2)          (PSF overlap)
* the mean-momentum marginal of a photon pair is
  exp(-Kbar^2/sigma_k^2)/sqrt(pi sigma_k^2) and the difference marginal
  exp(-dk^2/(4 sigma_k^2))/sqrt(4 pi sigma_k^2).

All Fisher informations produced by :mod:`homsr.fisher` are naturally
expressed in units of ``sigma_k**2`` under this convention.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "PsfModel",
    "SourceScene",
    "ModeWeights",
    "DetectorGeometry",
    "PixelValidityReport",
    "psf_overlap_delta",
    "momentum_envelope",
    "mean_momentum_envelope",
    "difference_momentum_envelope",
    "mode_weights",
    "validate_pixel_geometry",
]


@dataclass(frozen=True)
class PsfModel:
    """Gaussian point-spread function with spot size ``sigma_x``."""

    sigma_x: float = 1.0

    def __post_init__(self) -> None:
        sx = float(self.sigma_x) if 0 < self.sigma_x < math.inf else math.nan
        sk = 1.0 / (2.0 * sx)  # the envelopes divide by sigma_x^2 and sigma_k^2: neither may over- or underflow
        if not (0 < sx * sx < math.inf and 0 < sk * sk < math.inf):
            raise ValueError("sigma_x must be positive and finite, with sigma_x^2 and sigma_k^2 in float range")

    @property
    def sigma_k(self) -> float:
        """Momentum-space width; sigma_x * sigma_k = 1/2 exactly."""
        return 1.0 / (2.0 * self.sigma_x)

    def psf_amplitude(self, x):
        """Real position-space amplitude psi(x), normalized to unit L2 norm."""
        sx2 = self.sigma_x ** 2
        return (2.0 * math.pi * sx2) ** -0.25 * np.exp(-np.asarray(x) ** 2 / (4.0 * sx2))

    def momentum_amplitude(self, k):
        """Momentum-space amplitude phi(k), normalized to unit L2 norm."""
        sk2 = self.sigma_k ** 2
        return (2.0 * math.pi * sk2) ** -0.25 * np.exp(-np.asarray(k) ** 2 / (4.0 * sk2))


@dataclass(frozen=True)
class SourceScene:
    """Two equally bright thermal point sources at +-s/2 (centroid fixed at 0).

    Parameters
    ----------
    separation : float
        Source separation s >= 0, same length unit as ``PsfModel.sigma_x``.
    brightness : float
        Mean photon number N_s per source per frame (> 0).
    """

    separation: float
    brightness: float
    centroid: float = 0.0

    def __post_init__(self) -> None:
        if not 0 <= self.separation < math.inf:
            raise ValueError("separation must be non-negative and finite")
        if not 0 < self.brightness < math.inf:
            raise ValueError("brightness must be positive and finite")
        if self.centroid != 0.0:
            raise ValueError("centroid is fixed at 0 in this model")


@dataclass(frozen=True)
class ModeWeights:
    """Thermal weights of the symmetric/antisymmetric source modes.

    ``m_plus = N_s (1 + delta)`` and ``m_minus = N_s (1 - delta)`` are the
    mean occupations of the two modes, ``p0`` the vacuum weight of the
    double geometric decomposition and ``r_plus/r_minus`` the geometric
    ratios M/(M+1) generating p_m = r**m.
    """

    delta: float
    m_plus: float
    m_minus: float
    p0: float
    r_plus: float
    r_minus: float

    def p_m_plus(self, m):
        return self.r_plus ** np.asarray(m)

    def p_m_minus(self, m):
        return self.r_minus ** np.asarray(m)


def psf_overlap_delta(psf: PsfModel, s: float) -> float:
    """PSF overlap delta(s) = int psi(x - s/2) psi(x + s/2) dx.

    For the Gaussian model this equals exp(-s^2 sigma_k^2 / 2); the generic
    quadrature version lives in the test suite as an oracle.
    """
    if s < 0:
        raise ValueError("separation must be non-negative")
    return math.exp(-0.5 * (s * psf.sigma_k) ** 2)


def momentum_envelope(psf: PsfModel, k):
    """Single-photon momentum density |phi(k)|^2 (unit integral over R)."""
    sk2 = psf.sigma_k ** 2
    return np.exp(-np.asarray(k, dtype=float) ** 2 / (2.0 * sk2)) / math.sqrt(2.0 * math.pi * sk2)


def mean_momentum_envelope(psf: PsfModel, k_bar):
    """Density of the pair mean momentum (k1+k2)/2 under the envelope."""
    sk2 = psf.sigma_k ** 2
    return np.exp(-np.asarray(k_bar, dtype=float) ** 2 / sk2) / math.sqrt(math.pi * sk2)


def difference_momentum_envelope(psf: PsfModel, delta_k):
    """Density C(dk) of the pair momentum difference k1-k2 under the envelope."""
    sk2 = psf.sigma_k ** 2
    return np.exp(-np.asarray(delta_k, dtype=float) ** 2 / (4.0 * sk2)) / math.sqrt(4.0 * math.pi * sk2)


def mode_weights(scene: SourceScene, psf: PsfModel, delta_override: float | None = None) -> ModeWeights:
    """Thermal mode weights for a two-source scene.

    ``delta_override`` substitutes the PSF overlap (used e.g. for the
    large-separation asymptotic model where delta -> 0).
    """
    delta = psf_overlap_delta(psf, scene.separation) if delta_override is None else float(delta_override)
    ns = scene.brightness
    m_plus = ns * (1.0 + delta)
    m_minus = ns * (1.0 - delta)
    p0 = 1.0 / ((m_plus + 1.0) * (m_minus + 1.0))
    return ModeWeights(
        delta=delta,
        m_plus=m_plus,
        m_minus=m_minus,
        p0=p0,
        r_plus=m_plus / (m_plus + 1.0),
        r_minus=m_minus / (m_minus + 1.0),
    )


@dataclass(frozen=True)
class DetectorGeometry:
    """Far-field camera geometry mapping pixel position y to momentum k = y K0 / d."""

    far_field_distance: float
    longitudinal_wavenumber: float
    pixel_pitch: float

    def __post_init__(self) -> None:
        if not all(0 < x < math.inf for x in (self.far_field_distance, self.longitudinal_wavenumber, self.pixel_pitch)):
            raise ValueError("all detector-geometry fields must be positive and finite")

    def momentum_of_position(self, y):
        return np.asarray(y) * self.longitudinal_wavenumber / self.far_field_distance

    @property
    def momentum_resolution(self) -> float:
        """Momentum bin width delta_k of one pixel."""
        return self.pixel_pitch * self.longitudinal_wavenumber / self.far_field_distance


@dataclass(frozen=True)
class PixelValidityReport:
    ratio: float
    passed: bool
    status: str  # "pass" | "marginal" | "fail" | "unconstrained"
    threshold: float


def validate_pixel_geometry(geom: DetectorGeometry, s: float, threshold: float = 0.1) -> PixelValidityReport:
    """Check that one pixel integrates a momentum range small compared to 1/s.

    The figure of merit is ``rho = delta_y * K0 * s / d`` (pixel momentum
    width relative to the fringe scale 1/s).  The interference structure is
    resolved when rho is small; ``threshold`` operationalizes the "much
    smaller" condition.  Ratios within a factor 3 above the threshold are
    reported as "marginal".  Raises ``ValueError`` unless ``0 <= s < inf`` and ``0 < threshold < inf``.
    """
    if not 0 <= s < math.inf:
        raise ValueError("separation must be non-negative and finite")
    if not 0 < threshold < math.inf:
        raise ValueError(f"threshold must be positive and finite, got {threshold!r}")
    if s == 0:
        return PixelValidityReport(ratio=0.0, passed=True, status="unconstrained", threshold=threshold)
    ratio = geom.pixel_pitch * geom.longitudinal_wavenumber * s / geom.far_field_distance
    if ratio <= threshold:
        status = "pass"
    elif ratio <= 3.0 * threshold:
        status = "marginal"
    else:
        status = "fail"
    return PixelValidityReport(ratio=ratio, passed=ratio <= threshold, status=status, threshold=threshold)
