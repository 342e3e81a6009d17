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
:func:`homsr.quadrature.envelope_expectation`, by default on a randomly
shifted rank-1 lattice; F_2's default route is the ``f_full`` of the two-photon
hierarchy (:func:`sampling_hierarchy_fi`), one 1-D Gauss-Hermite integral, and
F_1's is :func:`bucket_fisher`, since one photon's bracket is constant in k.
No value here takes a finite difference, and that expectation is the only
numeric integration.

The lattice and Monte Carlo node sets are nested across dimension, so
:func:`fisher_total` integrates every order on those schemes in one
expectation of dim l_max: one forward kernel pass per chunk of nodes gives
all of them, reading order L at photon L, on the first L momenta, which are
the nodes of its own :func:`fisher_L` call.  Because
those orders share nodes, their errors correlate, and ``total_stderr`` is the
error of their summed integrand rather than a quadrature sum over orders.
"""

from __future__ import annotations

import functools
import math
import operator
import sys
from dataclasses import dataclass, replace

import numpy as np

from .coincidence import _bracket, _closed_form_weights, _count, _fringe_mean, _orders_chunk, _subrayleigh_coefficient
from .coincidence import _theta_tables, _with_s_derivative, interference_kappa
from .optics import PsfModel, SourceScene, mode_weights
from .quadrature import QuadratureSpec, envelope_expectation, rule_points

_KBAR_RULE = QuadratureSpec(scheme="gauss_hermite_tensor")  # the two-photon hierarchy's 1-D Kbar rule

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
    lattice, the standard error of the batch means under Monte Carlo, and
    the hierarchy's ``kbar_error`` under "sampling_hierarchy" (F_2 by default)
    and 0 under "closed_form" (F_1 by default).  ``points`` is the integrand
    rows the order used, the rule's node count
    (:func:`~homsr.quadrature.rule_points`), 0 for the closed form; orders
    integrated together share one count."""

    value: float          # in sigma_k^2 units
    stderr: float
    converged: bool
    scheme: str
    points: int | None = None


@dataclass(frozen=True)
class FisherBreakdown:
    per_L: dict
    total: float
    total_stderr: float
    l_max: int
    closed_form_refs: dict


def _fisher_integrand(orders, k, scene, psf):
    """Sum over X of (d_s bracket)^2 / bracket at the momenta ``k`` for each of the ascending ``orders``.

    Order L is taken on the first L columns of ``k``, all from one :func:`~homsr.coincidence._bracket` pass; the
    result has shape (N, len(orders) + 1), column-major, one column per order, then their sum.  Split X of order
    L is dropped where its bracket is at or below 1e-14 w(L, X), its exact envelope mean, so a row's value depends
    on its momenta and the scene alone.  Rows go through in blocks of two kernel chunks, so a block's values and
    derivatives stay small.
    """
    s, ends = scene.separation, np.cumsum([L + 1 for L in orders])
    floor = 1e-14 * np.concatenate([_closed_form_weights(L, s, scene.brightness, psf) for L in orders])

    def bracket(rows, z):  # the orders' coefficients at z: a few microseconds, the tables' s-free parts are cached
        tables = _theta_tables(orders[-1], scene.brightness, np.exp(-0.5 * (z * psf.sigma_k) ** 2))
        return _bracket(rows, z, tables, orders)

    out = np.empty((len(orders) + 1, len(k))).T  # column-major, the orders' sum last
    block = 2 * _orders_chunk(orders[-1], 16)  # rows per block: two chunks of the kernel's orders form, complex
    for lo in range(0, len(k), block):
        g0, contrib = _with_s_derivative(functools.partial(bracket, k[lo : lo + block]), s)
        kept = g0 > floor  # (d_s P)^2/P is finite at the zeros: dropping a measure-zero neighborhood is below the error
        np.square(contrib, out=contrib)
        np.divide(contrib, g0, out=contrib, where=kept)
        contrib[~kept] = 0.0
        for i, (L, end) in enumerate(zip(orders, ends)):
            out[lo : lo + block, i] = contrib[:, end - L - 1 : end].sum(axis=1)
        del g0, contrib, kept  # free the block's complex array before the next one is built (without, 10 % slower)
    out[:, -1] = sum(out.T[:-1])  # added in order
    return out


def _check_separation(caller, scene, psf, orders):
    """Raise ``ValueError`` in ``caller``'s name unless s > 0, s^2 and (s sigma_k)^2 are finite and each split of
    ``orders`` has a normal drop floor 1e-14 w(L, X) (:func:`_fisher_integrand`), below which its values underflow."""
    s = scene.separation
    if s <= 0:
        raise ValueError(f"{caller} requires s > 0 (use the closed-form limits at s = 0)")
    if max(s, s * psf.sigma_k) > math.sqrt(sys.float_info.max) or any(
            1e-14 * _closed_form_weights(L, s, scene.brightness, psf).min() < sys.float_info.min for L in orders):
        raise ValueError(f"{caller} needs s^2, (s sigma_k)^2 and each split's drop floor 1e-14 w(L, X) to be normal "
                         f"floats, got s = {s!r} (use the closed-form limits at small and at large s)")


def _fisher_orders(scene, psf, orders, quad):
    """({L: FisherEstimate}, standard error of their sum) of ascending ``orders``; picks each order's route.

    Under "auto" F_1 is :func:`bucket_fisher`'s, F_2 :func:`sampling_hierarchy_fi`'s, and the other orders share
    one rank-1 lattice expectation of dim max(orders); Gauss-Hermite takes one rule per order, the lattice or Monte
    Carlo one for all.  Every rule is sized (:func:`~homsr.quadrature.rule_points`) before the first runs, so an
    impossible one is refused before any kernel call.  The error of the sum is that of the integrand's sum column,
    so it sees how orders that share nodes correlate; routes add in quadrature.
    """
    _check_separation("fisher_L", scene, psf, orders)
    routes, variance = [], 0.0  # (L, value, stderr, scheme, points) in sigma_k^2 units
    if quad.scheme == "auto":
        if 1 in orders:  # one photon's bracket is constant in k, so F_1 is its bucket information
            routes.append((1, bucket_fisher(scene, psf, 1), 0.0, "closed_form", 0))
        if 2 in orders:
            h = sampling_hierarchy_fi(scene, psf)
            routes.append((2, h.f_full, h.kbar_error, "sampling_hierarchy", rule_points(_KBAR_RULE, 1)))
            variance += h.kbar_error ** 2
        orders, quad = tuple(L for L in orders if L > 2), replace(quad, scheme="rank1_lattice")
    node_sets = [(L,) for L in orders] if quad.scheme == "gauss_hermite_tensor" else [orders] if orders else []
    for node_set, points in [(node_set, rule_points(quad, node_set[-1])) for node_set in node_sets]:
        integrand = functools.partial(_fisher_integrand, node_set, scene=scene, psf=psf)
        values, stderrs, scheme = envelope_expectation(integrand, node_set[-1], psf, quad)
        values, stderrs = values / psf.sigma_k ** 2, stderrs / psf.sigma_k ** 2
        routes += [(L, v, e, scheme, points) for L, v, e in zip(node_set, values.tolist(), stderrs.tolist())]
        variance += float(stderrs[-1]) ** 2
    estimates = {L: FisherEstimate(value, stderr, stderr <= quad.relative_error_target * max(abs(value), 1e-300),
                                   scheme, points) for L, value, stderr, scheme, points in sorted(routes)}
    return estimates, math.sqrt(variance)


def fisher_L(scene: SourceScene, psf: PsfModel, L: int, quad: QuadratureSpec | None = None) -> FisherEstimate:
    """Per-order Fisher information F^(L)(s) in sigma_k^2 units."""
    L = _count("L", L, 1)
    return _fisher_orders(scene, psf, (L,), quad or QuadratureSpec())[0][L]


def default_l_max(scene: SourceScene) -> int:
    """min(7, ceil(2(2N_s+1))), short of the thermal tail: see :func:`fisher_total` for what it drops."""
    return min(7, math.ceil(2.0 * (2.0 * scene.brightness + 1.0)))


def fisher_total(
    scene: SourceScene,
    psf: PsfModel,
    l_max: int | None = None,
    quad: QuadratureSpec | None = None,
) -> FisherBreakdown:
    """Truncated total Fisher information sum_{L <= l_max} F^(L), sigma_k^2 units.  The default l_max stops
    at L <= 7, which at N_s = 1.5 drops about 23 % of sum_{L<=24} F^(L) at s = 1 and 36 % at s = 8.

    Each order takes the route of its own :func:`fisher_L` call: under "auto", F_1 in closed form, F_2 from the
    two-photon hierarchy and orders 3..l_max in one lattice expectation of dim l_max, as the module docstring
    describes.  ``total`` is the sum of the ``per_L`` values; ``total_stderr`` combines the routes' errors in
    quadrature, the joint set's being the standard error of the shift (or batch) means of its summed integrand.
    """
    if l_max is None:
        l_max = default_l_max(scene)
    if l_max < 2:
        raise ValueError("l_max must be >= 2")
    per_L, total_stderr = _fisher_orders(scene, psf, tuple(range(1, l_max + 1)), quad or QuadratureSpec())
    total = sum(e.value for e in per_L.values())
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
    carry no cancellation.  Raises ``ValueError`` at L < 1 and, as
    :func:`fisher_L` does, at an s whose numbers leave float range.
    """
    L = _count("L", L, 1)
    _check_separation("bucket_fisher", scene, psf, (L,))
    w0, deriv = _with_s_derivative(lambda s: _closed_form_weights(L, s, scene.brightness, psf), scene.separation)
    return float((deriv ** 2 / w0).sum()) / psf.sigma_k ** 2


# ---------------------------------------------------------------------------
# Closed forms
# ---------------------------------------------------------------------------

def subrayleigh_fisher_order(P: int, ns: float) -> float:
    """Small-separation limit of F^(2P) in sigma_k^2 units."""
    return _subrayleigh_coefficient(P, ns)


def subrayleigh_fisher_total(ns: float) -> float:
    """Small-separation limit of the all-order total, sigma_k^2 units."""
    return (1.0 + 2.0 * ns - math.sqrt(1.0 + 4.0 * ns)) / (2.0 * ns)


def asymptotic_fisher_2p(ns: float) -> float:
    """Large-separation limit of F^(2): N_s/(1+N_s)^3, sigma_k^2 units."""
    return ns / (1.0 + ns) ** 3


def optimal_brightness(L: int) -> float:
    """Brightness maximizing the large-separation F^(L): (L-1)/2."""
    if operator.index(L) < 2:
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
    kbar_error: float   # node-refinement error of the Kbar term, which f_kbar_x and f_full carry


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
    sigma_k^2 delta kappa, is one 1-D Gauss-Hermite envelope expectation with
    a column per class, ``kbar_error`` the sum of their refinement errors;
    its integrand is non-negative and falls with delta, so the dk fringe that
    defeats quadrature at large s never enters one.
    F_{Kbar;X} = F_X + Kbar term and F_full = F_{dk;X} + Kbar term, so
    F_{Kbar;X} >= F_X and F_full >= F_{dk;X} hold by construction, and
    F_full >= F_{Kbar;X} as far as the two closed forms keep F_{dk;X} >= F_X
    (to rounding; their gap is O(s^2), 2e-10 to 5e-10 relative at s = 1e-4).
    Raises ``ValueError`` where :func:`bucket_fisher` at L = 2 does.
    """
    f_x = bucket_fisher(scene, psf, 2)  # raises where the separation is out of range
    ns, s, sk2 = scene.brightness, scene.separation, psf.sigma_k ** 2
    w = mode_weights(scene, psf)
    delta, kappa = w.delta, interference_kappa(scene, psf)
    dlog_p0sq = -4.0 * ns ** 2 * s * sk2 * delta ** 2 * w.p0
    alpha = np.array([1.0, -1.0])  # class B, then A: each array below holds the two classes in this order
    z = 1.0 + ns - alpha * ns * delta * kappa
    dz = 1.5 * alpha * ns * s * sk2 * delta * kappa
    c, a = ns * w.p0 ** 2 * z, dlog_p0sq + dz / z
    fringe = np.array([_fringe_mean(sign, scene, psf) for sign in alpha])
    # 1 - alpha (1 - s^2 sigma_k^2/2) kappa, with 1 - kappa kept exact
    curvature = fringe[::-1] + alpha * 0.5 * s * s * sk2 * kappa
    f_dk_x = c * (a * a * fringe - alpha * a * s * sk2 * kappa + 0.5 * sk2 * curvature)

    def kbar_score_sq(k):  # (N, 2), a column per class
        kbar = k[:, :1] / math.sqrt(2.0)
        h = 1.0 + ns - alpha * ns * delta * np.cos(kbar * s)
        dh = alpha * ns * delta * (s * sk2 * np.cos(kbar * s) + kbar * np.sin(kbar * s))
        return h / z * (dh / h - dz / z) ** 2

    value, error, _ = envelope_expectation(kbar_score_sq, 1, psf, _KBAR_RULE)
    f_dk_x, kbar_term, kbar_error = (float(x.sum()) / sk2 for x in (f_dk_x, c * fringe * value, c * fringe * error))
    return HierarchyFisher(f_x, f_x + kbar_term, f_dk_x, f_dk_x + kbar_term, kbar_error)


# ---------------------------------------------------------------------------
# Pixelated direct-imaging baseline
# ---------------------------------------------------------------------------

def di_baseline_fisher(scene: SourceScene, psf: PsfModel, pixel_pitch: float, n_pixels: int) -> float:
    """First-principles pixelated direct-imaging Fisher information.

    The camera-plane intensity is the equal mixture of the two displaced
    PSF intensities.  Each pixel mass q_i is a Gaussian-CDF difference taken
    from its near tail, Phi(t) = erfc(-t/sqrt 2)/2 by the standard library's
    ``math.erfc``; d_s q_i = (g(e_i) - g(e_{i+1})) / (4 sigma_x) at
    the pixel edges, with g(e) = phi((e - s/2)/sigma_x) - phi((e + s/2)/sigma_x)
    the two images' pdf difference, taken as sign(e) phi((|e| - s/2)/sigma_x)
    (1 - exp(-|e| s/sigma_x^2)): it does not cancel at small s, is 0 at s = 0
    and cannot overflow at large |e| s.  The per-photon information
    sum_i (d_s q_i)^2 / q_i is scaled by N_s photons per frame.  Returned in
    sigma_k^2 units.
    """
    if not 0 < pixel_pitch < math.inf or operator.index(n_pixels) < 2:  # a float count: ceil(n) pixels off centre
        raise ValueError("need a positive, finite pixel pitch and at least 2 pixels")
    s, sx = scene.separation, psf.sigma_x
    half_extent = 0.5 * n_pixels * pixel_pitch
    if half_extent < 0.5 * s + 6.0 * sx:
        raise ValueError("pixel grid must extend >= 6 sigma_x beyond each source")
    edges = (np.arange(n_pixels + 1) - n_pixels / 2.0) * pixel_pitch

    def mass(shift):  # Gaussian mass of each pixel about the image at +shift, from its near tail
        t = (edges - shift) / sx
        cdf, sf = 0.5 * np.frompyfunc(math.erfc, 1, 1)(np.stack([-t, t]) / math.sqrt(2.0)).astype(float)  # Phi(+-t)
        return np.where(t[:-1] + t[1:] < 0, cdf[1:] - cdf[:-1], sf[:-1] - sf[1:])

    q = 0.5 * (mass(s / 2.0) + mass(-s / 2.0))
    g = np.sign(edges) * np.exp(-0.5 * ((np.abs(edges) - s / 2.0) / sx) ** 2) / math.sqrt(2.0 * math.pi)
    g *= -np.expm1(-np.abs(edges) * s / (sx * sx))
    dq = (g[:-1] - g[1:]) / (4.0 * sx)
    mask = q > 1e-300
    per_photon = float((dq[mask] ** 2 / q[mask]).sum())
    return scene.brightness * per_photon / psf.sigma_k ** 2
