"""Per-order Fisher information of the coincidence model, plus closed-form limits.

Every Fisher value returned by this module is expressed in units of
``sigma_k**2`` (the natural information unit of the model), so the
closed-form coefficients below are directly comparable with the numeric
integrations.  Multi-frame Cramér-Rao bounds follow as
``1 / (N * F * sigma_k**2)``.

The per-order information is

    F^(L)(s) = sum_X  integral d^L k  (d/ds P^(L)(X; k))^2 / P^(L)(X; k)

computed with the envelope factored out (it is s-independent, so only the
bracket factor is differentiated).  The derivative is exact: the bracket
kernel of :mod:`homsr.coincidence` carries forward-mode d/ds through its
single pass over the photons, and the thermal coefficients through
delta'(s).  The envelope expectation over the L momenta is taken by
:func:`homsr.quadrature.envelope_expectation`: by default tensor
Gauss-Hermite for L <= 3 and envelope-importance Monte Carlo above.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy import integrate

from .coincidence import (
    _bracket,
    _closed_form_weights,
    _theta_table_ds,
    dk_conditional_density,
    kbar_conditional_density,
    two_photon_class_probability,
)
from .optics import PsfModel, SourceScene
from .quadrature import QuadratureSpec, envelope_expectation

__all__ = [
    "QuadratureSpec",
    "FisherEstimate",
    "FisherBreakdown",
    "fisher_L",
    "fisher_total",
    "bucket_fisher",
    "subrayleigh_fisher_order",
    "subrayleigh_fisher_total",
    "asymptotic_fisher_2p",
    "optimal_brightness",
    "HierarchyFisher",
    "sampling_hierarchy_fi",
    "di_baseline_fisher",
    "default_l_max",
]


@dataclass(frozen=True)
class FisherEstimate:
    """``stderr`` is the batch-mean standard error under Monte Carlo and the
    node-refinement difference |Q_n - Q_3n/4| under Gauss-Hermite."""

    value: float          # in sigma_k^2 units
    stderr: float
    converged: bool
    scheme: str


@dataclass(frozen=True)
class FisherBreakdown:
    per_L: dict
    total: float
    total_stderr: float
    l_max: int
    closed_form_refs: dict


def _fisher_integrand(L, k, scene, psf):
    """Sum over X of (d_s bracket)^2 / bracket at the momenta ``k`` (N, L)."""
    g0, deriv = _bracket(k, scene.separation, range(L + 1), *_theta_table_ds(L, scene, psf))
    # skip nodes where the density is vanishingly small relative to its
    # scale in that split; (d_s P)^2/P has a finite limit at the zeros, so
    # dropping a measure-zero neighborhood is below integration error.
    floor = 1e-15 * g0.max(axis=0, keepdims=True)
    contrib = np.where(g0 > floor, deriv ** 2 / np.where(g0 > 0, g0, 1.0), 0.0)
    return contrib.sum(axis=1)


def fisher_L(scene: SourceScene, psf: PsfModel, L: int, quad: QuadratureSpec | None = None) -> FisherEstimate:
    """Per-order Fisher information F^(L)(s) in sigma_k^2 units."""
    if L < 1:
        raise ValueError("L must be >= 1")
    if scene.separation <= 0:
        raise ValueError("fisher_L requires s > 0 (use the closed-form limits at s = 0)")
    quad = quad or QuadratureSpec()
    unit = psf.sigma_k ** 2
    value, stderr, scheme = envelope_expectation(lambda k: _fisher_integrand(L, k, scene, psf), L, psf, quad)
    value, stderr = float(value) / unit, float(stderr) / unit
    converged = stderr <= quad.relative_error_target * max(abs(value), 1e-300)
    return FisherEstimate(value, stderr, converged, scheme)


def default_l_max(scene: SourceScene) -> int:
    """Truncation order adequate for the thermal tail: min(7, ceil(2(2N_s+1)))."""
    return min(7, math.ceil(2.0 * (2.0 * scene.brightness + 1.0)))


def fisher_total(
    scene: SourceScene,
    psf: PsfModel,
    l_max: int | None = None,
    quad: QuadratureSpec | None = None,
) -> FisherBreakdown:
    """Truncated total Fisher information sum_{L <= l_max} F^(L), sigma_k^2 units."""
    if l_max is None:
        l_max = default_l_max(scene)
    if l_max < 2:
        raise ValueError("l_max must be >= 2")
    per_L = {}
    for L in range(1, l_max + 1):
        per_L[L] = fisher_L(scene, psf, L, quad)
    total = sum(e.value for e in per_L.values())
    total_stderr = math.sqrt(sum(e.stderr ** 2 for e in per_L.values()))
    refs = {
        "subrayleigh_total": subrayleigh_fisher_total(scene.brightness),
        "asymptotic_two_photon": asymptotic_fisher_2p(scene.brightness),
    }
    return FisherBreakdown(per_L=per_L, total=total, total_stderr=total_stderr, l_max=l_max, closed_form_refs=refs)


def bucket_fisher(scene: SourceScene, psf: PsfModel, L: int) -> float:
    """Fisher information of bucket detection at order L, sigma_k^2 units.

    Bucket detection records only (L, X); its information is
    sum_X (d_s w(L,X))^2 / w(L,X) over the exact closed-form class weights
    of :func:`~homsr.coincidence.class_weights`, with d_s w taken
    analytically from the same one-photon moments.
    """
    w0, deriv = _closed_form_weights(L, scene, psf)
    mask = w0 > 1e-15 * w0.max()
    return float((deriv[mask] ** 2 / w0[mask]).sum()) / psf.sigma_k ** 2


# ---------------------------------------------------------------------------
# Closed forms
# ---------------------------------------------------------------------------

def subrayleigh_fisher_order(P: int, ns: float) -> float:
    """Small-separation limit of F^(2P) in sigma_k^2 units."""
    if P < 1:
        raise ValueError("P must be >= 1")
    a = ns / (1.0 + 2.0 * ns)
    return math.comb(2 * P, P) / (2.0 * (2 * P - 1)) * a ** (2 * P - 1)


def subrayleigh_fisher_total(ns: float) -> float:
    """Small-separation limit of the all-order total, sigma_k^2 units."""
    return (1.0 + 2.0 * ns - math.sqrt(1.0 + 4.0 * ns)) / (2.0 * ns)


def asymptotic_fisher_2p(ns: float) -> float:
    """Large-separation limit of F^(2): N_s/(1+N_s)^3, sigma_k^2 units."""
    return ns / (1.0 + ns) ** 3


def optimal_brightness(L: int) -> float:
    """Brightness maximizing the large-separation F^(L): (L-1)/2."""
    if L < 2:
        raise ValueError("L must be >= 2")
    return (L - 1) / 2.0


# ---------------------------------------------------------------------------
# Two-photon sampling hierarchy (class / marginal / full decomposition)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HierarchyFisher:
    f_x: float          # class (bucket) information
    f_kbar_x: float     # class + mean-momentum marginal
    f_dk_x: float       # class + difference-momentum marginal
    f_full: float       # fully momentum-resolved two-photon information


def sampling_hierarchy_fi(scene: SourceScene, psf: PsfModel) -> HierarchyFisher:
    """Two-photon Fisher hierarchy from the conditional decomposition.

    Uses the exact factorization P^(2) = P(X) f(Kbar; X) g(dk; X):

        F_full = F_X + sum_X P(X) I[f(.;X)] + sum_X P(X) I[g(.;X)]

    where I[.] is the conditional score integral of each 1-D factor.  The
    three additive pieces are non-negative, so the hierarchy
    F_full >= F_{marg;X} >= F_X holds by construction; F_full is
    cross-validated against the 2-D quadrature of :func:`fisher_L` in the
    test suite.  All values in sigma_k^2 units.
    """
    h = min(1e-5 * psf.sigma_x, 0.45 * scene.separation) if scene.separation > 0 else 1e-5 * psf.sigma_x
    sp = replace(scene, separation=scene.separation + h)
    sm = replace(scene, separation=scene.separation - h)
    sk = psf.sigma_k

    f_x = 0.0
    extra_kbar = 0.0
    extra_dk = 0.0
    for cls in ("A", "B"):
        p0 = two_photon_class_probability(cls, scene, psf)
        pp = two_photon_class_probability(cls, sp, psf)
        pm = two_photon_class_probability(cls, sm, psf)
        f_x += ((pp - pm) / (2.0 * h)) ** 2 / p0

        def score(x, density, cls=cls):
            f0 = density(x, cls, scene, psf)
            d = (density(x, cls, sp, psf) - density(x, cls, sm, psf)) / (2.0 * h)
            return np.where(f0 > 1e-300, d ** 2 / np.where(f0 > 0, f0, 1.0), 0.0)

        i_kbar, _ = integrate.quad(score, -10.0 * sk, 10.0 * sk, args=(kbar_conditional_density,), limit=400)
        i_dk, _ = integrate.quad(score, -14.0 * sk, 14.0 * sk, args=(dk_conditional_density,), limit=400)
        extra_kbar += p0 * i_kbar
        extra_dk += p0 * i_dk

    unit = sk ** 2
    f_x /= unit
    extra_kbar /= unit
    extra_dk /= unit
    return HierarchyFisher(
        f_x=f_x,
        f_kbar_x=f_x + extra_kbar,
        f_dk_x=f_x + extra_dk,
        f_full=f_x + extra_kbar + extra_dk,
    )


# ---------------------------------------------------------------------------
# Pixelated direct-imaging baseline
# ---------------------------------------------------------------------------

def di_baseline_fisher(scene: SourceScene, psf: PsfModel, pixel_pitch: float, n_pixels: int) -> float:
    """First-principles pixelated direct-imaging Fisher information.

    The camera-plane intensity is the equal mixture of the two displaced
    PSF intensities; pixel probabilities are exact Gaussian-CDF integrals
    and the per-photon information sum_i (d_s q_i)^2 / q_i is scaled by
    N_s photons per frame.  Returned in sigma_k^2 units.
    """
    from scipy.special import ndtr

    if pixel_pitch <= 0 or n_pixels < 2:
        raise ValueError("need positive pixel pitch and at least 2 pixels")
    s, sx = scene.separation, psf.sigma_x
    half_extent = 0.5 * n_pixels * pixel_pitch
    if half_extent < 0.5 * s + 6.0 * sx:
        raise ValueError("pixel grid must extend >= 6 sigma_x beyond each source")
    edges = (np.arange(n_pixels + 1) - n_pixels / 2.0) * pixel_pitch

    def cdf(x, mu):
        return ndtr((x - mu) / sx)

    def pdf(x, mu):
        return np.exp(-((x - mu) ** 2) / (2.0 * sx ** 2)) / (sx * math.sqrt(2.0 * math.pi))

    q = 0.5 * (np.diff(cdf(edges, s / 2.0)) + np.diff(cdf(edges, -s / 2.0)))
    # d/ds of the pixel masses: the +s/2 source shifts right, the -s/2 left.
    d_plus = -0.5 * (pdf(edges[1:], s / 2.0) - pdf(edges[:-1], s / 2.0))
    d_minus = 0.5 * (pdf(edges[1:], -s / 2.0) - pdf(edges[:-1], -s / 2.0))
    dq = 0.5 * (d_plus + d_minus)
    mask = q > 1e-300
    per_photon = float((dq[mask] ** 2 / q[mask]).sum())
    return scene.brightness * per_photon / psf.sigma_k ** 2
