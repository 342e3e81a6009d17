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
kernel of :mod:`homsr.coincidence` and its thermal coefficients are analytic
in s, and one pass at complex s gives the value and d/ds together.  The
envelope expectation over the L momenta is taken by
:func:`homsr.quadrature.envelope_expectation`: by default tensor
Gauss-Hermite for L <= 3 and a randomly shifted rank-1 lattice above.
No value here takes a finite difference, and that expectation is the only
numeric integration (the two-photon hierarchy uses it in one dimension).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .coincidence import _bracket, _closed_form_weights, _fringe_mean, _theta_table, _with_s_derivative
from .coincidence import interference_kappa
from .optics import PsfModel, SourceScene, mode_weights
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
    """``stderr`` is the node-refinement difference |Q_n - Q_3n/4| under
    Gauss-Hermite, the standard error of the shift means under the rank-1
    lattice, and the standard error of the batch means under Monte Carlo."""

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
    def bracket(s):
        delta = np.exp(-0.5 * (s * psf.sigma_k) ** 2)
        return _bracket(k, s, range(L + 1), _theta_table(L, scene.brightness, delta))

    g0, deriv = _with_s_derivative(bracket, scene.separation)
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
    of :func:`~homsr.coincidence.class_weights`, with d_s w exact from the
    same closed form at complex s; no class is dropped, as the weights
    carry no cancellation.  Raises ``ValueError`` at s <= 0.
    """
    if scene.separation <= 0:
        raise ValueError("bucket_fisher requires s > 0 (use the closed-form limits at s = 0)")
    w0, deriv = _with_s_derivative(lambda s: _closed_form_weights(L, s, scene.brightness, psf), scene.separation)
    mask = w0 > 0
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
    """Two-photon Fisher hierarchy, sigma_k^2 units, from exact s-derivatives.

    P(X; Kbar, dk) = N_s p0^2 e(Kbar) h_X C(dk) q_X with h_X = 1 + N_s -
    alpha N_s delta cos(Kbar s), q_X = 1 + alpha cos(dk s/2), alpha = +1 for
    class B and -1 for A, and kappa = exp(-s^2 sigma_k^2/4).  F_X is
    :func:`bucket_fisher` at L = 2.  The information of (X, dk) is closed
    form: with c_X = N_s p0^2 Z_X, Z_X = 1 + N_s - alpha N_s delta kappa,
    a_X = d_s log c_X and sin^2 = (1 - cos)(1 + cos),

        F_{dk;X} = sum_X c_X [a_X^2 (1 + alpha kappa) - alpha a_X s sigma_k^2 kappa
                              + (sigma_k^2/2)(1 - alpha (1 - s^2 sigma_k^2/2) kappa)].

    The Kbar term sum_X P(X) E[(h'/h - Z'/Z)^2 | X], with h' = alpha N_s delta
    (s sigma_k^2 cos Kbar s + Kbar sin Kbar s) and Z' = 1.5 alpha N_s s
    sigma_k^2 delta kappa, is one Gauss-Hermite envelope expectation per
    class; its integrand is non-negative and falls with delta, so the dk
    fringe that defeats quadrature at large s never enters one.
    F_{Kbar;X} = F_X + Kbar term and F_full = F_{dk;X} + Kbar term, so
    F_{Kbar;X} >= F_X and F_full >= F_{dk;X} hold by construction, and
    F_full >= F_{Kbar;X} as far as the two closed forms keep F_{dk;X} >= F_X
    (to rounding; their gap is O(s^2), 2e-10 to 5e-10 relative at s = 1e-4).
    Raises ``ValueError`` at s <= 0, like :func:`fisher_L`.
    """
    f_x = bucket_fisher(scene, psf, 2)  # raises at s <= 0
    ns, s, sk2 = scene.brightness, scene.separation, psf.sigma_k ** 2
    w = mode_weights(scene, psf)
    delta, kappa = w.delta, interference_kappa(scene, psf)
    dlog_p0sq = -4.0 * ns ** 2 * s * sk2 * delta ** 2 * w.p0
    f_dk_x = kbar_term = 0.0
    for alpha in (1.0, -1.0):
        z = 1.0 + ns - alpha * ns * delta * kappa
        dz = 1.5 * alpha * ns * s * sk2 * delta * kappa
        c, a = ns * w.p0 ** 2 * z, dlog_p0sq + dz / z
        fringe = _fringe_mean(alpha, scene, psf)
        # 1 - alpha (1 - s^2 sigma_k^2/2) kappa, with 1 - kappa kept exact
        curvature = _fringe_mean(-alpha, scene, psf) + alpha * 0.5 * s * s * sk2 * kappa
        f_dk_x += c * (a * a * fringe - alpha * a * s * sk2 * kappa + 0.5 * sk2 * curvature)

        def kbar_score_sq(k, alpha=alpha, z=z, dz=dz):
            kbar = k[:, 0] / math.sqrt(2.0)
            h = 1.0 + ns - alpha * ns * delta * np.cos(kbar * s)
            dh = alpha * ns * delta * (s * sk2 * np.cos(kbar * s) + kbar * np.sin(kbar * s))
            return h / z * (dh / h - dz / z) ** 2

        kbar_term += c * fringe * float(envelope_expectation(kbar_score_sq, 1, psf, QuadratureSpec())[0])

    f_dk_x, kbar_term = f_dk_x / sk2, kbar_term / sk2
    return HierarchyFisher(f_x=f_x, f_kbar_x=f_x + kbar_term, f_dk_x=f_dk_x, f_full=f_dk_x + kbar_term)


# ---------------------------------------------------------------------------
# Pixelated direct-imaging baseline
# ---------------------------------------------------------------------------

def di_baseline_fisher(scene: SourceScene, psf: PsfModel, pixel_pitch: float, n_pixels: int) -> float:
    """First-principles pixelated direct-imaging Fisher information.

    The camera-plane intensity is the equal mixture of the two displaced
    PSF intensities.  Each pixel mass q_i is a Gaussian-CDF difference taken
    from its near tail, and d_s q_i = (g(e_i) - g(e_{i+1})) / (4 sigma_x) at
    the pixel edges, with g(e) = 2 phi(e/sigma_x) exp(-s^2/(8 sigma_x^2))
    sinh(e s/(2 sigma_x^2)): the two images' pdf difference without its
    cancellation at small s, and 0 at s = 0.  The per-photon information
    sum_i (d_s q_i)^2 / q_i is scaled by N_s photons per frame.  Returned in
    sigma_k^2 units.
    """
    from scipy.special import ndtr

    if pixel_pitch <= 0 or n_pixels < 2:
        raise ValueError("need positive pixel pitch and at least 2 pixels")
    s, sx = scene.separation, psf.sigma_x
    half_extent = 0.5 * n_pixels * pixel_pitch
    if half_extent < 0.5 * s + 6.0 * sx:
        raise ValueError("pixel grid must extend >= 6 sigma_x beyond each source")
    edges = (np.arange(n_pixels + 1) - n_pixels / 2.0) * pixel_pitch

    def mass(shift):  # Gaussian mass of each pixel about the image at +shift, from its near tail
        a, b = (edges[:-1] - shift) / sx, (edges[1:] - shift) / sx
        return np.where(a + b < 0, ndtr(b) - ndtr(a), ndtr(-a) - ndtr(-b))

    q = 0.5 * (mass(s / 2.0) + mass(-s / 2.0))
    # g(e) as sign(e) phi((|e| - s/2)/sigma_x) (1 - exp(-|e| s/sigma_x^2)), which cannot overflow
    g = np.sign(edges) * np.exp(-0.5 * ((np.abs(edges) - s / 2.0) / sx) ** 2) / math.sqrt(2.0 * math.pi)
    g *= -np.expm1(-np.abs(edges) * s / (sx * sx))
    dq = (g[:-1] - g[1:]) / (4.0 * sx)
    mask = q > 1e-300
    per_photon = float((dq[mask] ** 2 / q[mask]).sum())
    return scene.brightness * per_photon / psf.sigma_k ** 2
