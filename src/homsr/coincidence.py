"""Coincidence probability densities for multiphoton interference frames.

The central object is the density of an L-photon frame outcome
``(L, X, k_1..k_L)``: L photons detected in total (one of which is the
reference photon), X of them in camera C1, with transverse momenta k_m.
Densities are over ordered momentum tuples in R^L; the combinatorial factor

    Theta_j = (L-1-j)! j! / (X! (L-X)!)

removes the double counting of equivalent orderings so that

    sum_{L>=1} sum_X  integral d^L k  P^(L)(X; k) = 1 .

The interference structure enters through the symmetric functions

    xi_j(k_1..k_{L-1}) = sum over j-element subsets S of
                         prod_{a in S} sin(k_a s/2) prod_{a not in S} cos(k_a s/2)

(elementary symmetric polynomial mixing cosine and sine half-angle factors;
the permutation-weighted variant, which carries an extra (L-1-j)! j!
multiplicity, is exposed as :func:`trig_xi`).  For each photon i the
leave-one-out value xi_j(k without k_i) enters with a sign fixed by the
camera assignment, and the squared signed sum weights the thermal-mode
coefficients.  The subset normalization is the one under which the total
density is correctly normalized; this is verified against the closed-form
frame-size distribution in the test suite.

One kernel forms the signed sums, in a single forward pass over the photons
(see :func:`_bracket`); it can carry the exact s-derivative along for the
Fisher information.  The sums are symmetric under a joint permutation of
momenta and camera labels, so any camera assignment is evaluated as the
canonical one (C1 photons first) on reordered momenta.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .optics import (
    PsfModel,
    SourceScene,
    difference_momentum_envelope,
    mean_momentum_envelope,
    mode_weights,
    momentum_envelope,
)
from .quadrature import QuadratureSpec, envelope_expectation

__all__ = [
    "DetectionOutcome",
    "TwoPhotonCoordinates",
    "trig_xi",
    "interference_phases",
    "coincidence_density",
    "log_coincidence_density",
    "coincidence_density_grid",
    "coincidence_density_all_splits",
    "two_photon_density",
    "three_photon_density",
    "four_photon_density",
    "subrayleigh_leading_density",
    "asymptotic_density",
    "bucket_probability",
    "conditional_decomposition",
    "TwoPhotonConditional",
    "two_photon_class_probability",
    "kbar_conditional_density",
    "dk_conditional_density",
    "interference_kappa",
    "frame_size_probability",
    "frame_size_distribution",
    "class_weights",
    "class_label",
]

# Floats of polynomial state per chunk of the bracket kernel; its
# temporaries take a few times more.
_CHUNK_BUDGET = 250_000


@dataclass(frozen=True)
class DetectionOutcome:
    """One frame's detection record.

    ``camera_assignment`` lists Q_i (1 for camera C1) per momentum slot; if
    omitted, the canonical assignment (first X momenta in C1) is used.
    """

    photon_count: int
    camera_split: int
    momenta: tuple
    camera_assignment: tuple | None = None

    def __post_init__(self):
        L, X = self.photon_count, self.camera_split
        if L < 1:
            raise ValueError("photon_count must be >= 1 (reference photon always present)")
        if not 0 <= X <= L:
            raise ValueError("camera_split must lie in [0, photon_count]")
        if len(self.momenta) != L:
            raise ValueError("momenta length must equal photon_count")
        object.__setattr__(self, "momenta", tuple(float(k) for k in self.momenta))
        if self.camera_assignment is not None:
            q = tuple(int(v) for v in self.camera_assignment)
            if len(q) != L or any(v not in (0, 1) for v in q) or sum(q) != X:
                raise ValueError("camera_assignment inconsistent with (L, X)")
            object.__setattr__(self, "camera_assignment", q)

    @property
    def assignment(self) -> tuple:
        if self.camera_assignment is not None:
            return self.camera_assignment
        return tuple([1] * self.camera_split + [0] * (self.photon_count - self.camera_split))


def class_label(L: int, X: int) -> str:
    """Outcome class: "B" (bunched), "A" (balanced antibunched), "UA" (unbalanced)."""
    if X in (0, L):
        return "B"
    if 2 * X == L:
        return "A"
    return "UA"


def trig_xi(j: int, momenta: Sequence[float], s: float) -> float:
    """Permutation-weighted symmetric trigonometric sum.

    Sums over all (L-1)! orderings that place ``j`` sine factors and the
    rest cosine factors of the half-angle arguments k*s/2; equals
    ``(L-1-j)! j!`` times the subset-normalized variant that the density
    evaluators use internally.
    """
    momenta = np.asarray(momenta, dtype=float)
    n = momenta.size
    if not 0 <= j <= n:
        raise ValueError("j out of range")
    coeffs = _product_poly_coeffs(np.cos(momenta * s / 2.0), np.sin(momenta * s / 2.0))
    return math.factorial(n - j) * math.factorial(j) * float(coeffs[j])


def interference_phases(assignment: Sequence[int], i: int) -> float:
    """Interferometric phase phi_i for reference slot ``i`` (0-based), mod 2pi.

    phi_i = sum_m Phi(S_m, Q_m) with S_i = 0, S_{m != i} = 1, and
    Phi(S, Q) = 0 if S == Q else pi/2.
    """
    q = [int(v) for v in assignment]
    if any(v not in (0, 1) for v in q):
        raise ValueError("assignment entries must be 0/1")
    if not 0 <= i < len(q):
        raise ValueError("reference slot out of range")
    mismatches = (1 if q[i] == 1 else 0) + sum(1 for m, v in enumerate(q) if m != i and v == 0)
    return (math.pi / 2.0 * mismatches) % (2.0 * math.pi)


# ---------------------------------------------------------------------------
# Core vectorized evaluator
# ---------------------------------------------------------------------------

def _product_poly_coeffs(c, sn):
    """Coefficients (in t) of prod_a (c_a + t sn_a) for 1-D inputs."""
    coeffs = np.zeros(len(c) + 1)
    coeffs[0] = 1.0
    for a in range(len(c)):
        coeffs[1 : a + 2] = coeffs[1 : a + 2] * c[a] + coeffs[: a + 1] * sn[a]
        coeffs[0] *= c[a]
    return coeffs


def _theta_table(L: int, ns: float, delta: float) -> np.ndarray:
    """Weights Theta_j p0 N_s^{L-1} / (2 A^{L-1-j} B^j), indexed [X, j] for X = 0..L."""
    a_mode = 1.0 + ns * (1.0 + delta)
    b_mode = 1.0 + ns * (1.0 - delta)
    p0 = 1.0 / (a_mode * b_mode)
    return np.array([
        [
            math.factorial(L - 1 - j) * math.factorial(j) / (math.factorial(X) * math.factorial(L - X))
            * p0 * ns ** (L - 1) / (2.0 * a_mode ** (L - 1 - j) * b_mode ** j)
            for j in range(L)
        ]
        for X in range(L + 1)
    ])


def _theta_table_ds(L: int, scene: SourceScene, psf: PsfModel):
    """:func:`_theta_table` at the scene's overlap delta and its exact s-derivative.

    log Theta-coefficient_j = const - (L-j) log A - (j+1) log B, so its
    delta-derivative is -(L-j) N_s/A + (j+1) N_s/B (the same for every X),
    and delta' = -s sigma_k^2 delta.
    """
    ns, s = scene.brightness, scene.separation
    delta = mode_weights(scene, psf).delta
    j = np.arange(L)
    dlog = -(L - j) * ns / (1.0 + ns * (1.0 + delta)) + (j + 1) * ns / (1.0 + ns * (1.0 - delta))
    coefs = _theta_table(L, ns, delta)
    return coefs, coefs * (dlog * (-s * psf.sigma_k ** 2 * delta))


def _times_linear(p, x, y):
    """p(t) (x + t y) for coefficient axis -2, truncated to p's length."""
    out = p * x
    out[..., 1:, :] += p[..., :-1, :] * y
    return out


def _bracket(k, s: float, splits, coefs, dcoefs=None):
    """Bracket sum_j coefs[x, j] S_j^2 of split X = splits[x] for each row of ``k``.

    ``k`` has shape (N, L) with the C1 photons first; ``splits`` ascends.
    With f_a(t) = cos(k_a s/2) + t sin(k_a s/2), the signed sums are the
    coefficients of S(t) = 2 C_X(t) - D(t), where D = sum_i prod_{a != i} f_a
    and C_X = sum_{i < X} prod_{a != i} f_a.  One pass over the photons
    builds them: the prefix product P <- P f_a, the leave-one-out sum
    D <- D f_a + P, and C_X <- D when a reaches X, times f_a thereafter.

    Given ``dcoefs`` (d_s of ``coefs``) the pass carries the same recurrences
    in forward-mode d_s, with d_s f_a = (k_a/2)(-sin + t cos), and also
    returns the exact d_s of the bracket.  Results have shape (N, len(splits)).
    """
    n_rows, L = k.shape
    splits = list(splits)
    out = np.empty((n_rows, len(splits)))
    dout = None if dcoefs is None else np.empty_like(out)
    # z[0] holds values and z[1] (if any) d_s; along axis 1 the polynomials
    # P, D, then C_X per stored split; coefficients on axis 2, rows on axis 3
    state = (1 if dout is None else 2, 2 + len(splits), L)
    chunk = max(1, _CHUNK_BUDGET // math.prod(state))
    for lo in range(0, n_rows, chunk):
        kt = np.ascontiguousarray(k[lo : lo + chunk].T)
        c, sn = np.cos(0.5 * s * kt), np.sin(0.5 * s * kt)
        z = np.zeros(state + (kt.shape[1],))
        z[0, 0, 0] = 1.0
        rows = 2
        for a in range(L):
            while rows - 2 < len(splits) and splits[rows - 2] == a:
                z[:, rows] = z[:, 1]
                rows += 1
            v = slice(0, min(a + 2, L))  # degrees stay <= a + 1
            new = _times_linear(z[:, :rows, v], c[a], sn[a])
            if dout is not None:
                new[1] += _times_linear(z[0, :rows, v], -0.5 * kt[a] * sn[a], 0.5 * kt[a] * c[a])
            new[:, 1] += z[:, 0, v]
            z[:, :rows, v] = new
        z[:, rows:] = z[:, 1:2]
        S = 2.0 * z[:, 2:] - z[:, 1:2]
        sq = S[0] * S[0]
        out[lo : lo + chunk] = np.einsum("xjn,xj->nx", sq, coefs)
        if dout is not None:
            dout[lo : lo + chunk] = np.einsum("xjn,xj->nx", sq, dcoefs) + 2.0 * np.einsum(
                "xjn,xj->nx", S[0] * S[1], coefs
            )
    return out if dout is None else (out, dout)


def coincidence_density_grid(
    L: int,
    X: int,
    momenta,
    scene: SourceScene,
    psf: PsfModel,
    assignment: Sequence[int] | None = None,
    delta_override: float | None = None,
    include_envelope: bool = True,
):
    """Vectorized frame-outcome density.

    ``momenta`` has shape (..., L); returns an array of shape (...,).
    ``delta_override`` replaces the PSF overlap (0 gives the
    large-separation asymptotic density).  With ``include_envelope=False``
    the product envelope factor is omitted (useful for quadratures whose
    weight already contains it).  A camera ``assignment`` is applied as a
    stable reorder of the momenta that puts its C1 slots first: the density
    is symmetric under a joint permutation of momenta and camera labels, so
    the reordered tuple has the canonical split X.
    """
    k = np.asarray(momenta, dtype=float)
    if k.shape[-1] != L:
        raise ValueError("momenta last axis must have length L")
    if L < 1:
        raise ValueError("photon_count must be >= 1")
    w = mode_weights(scene, psf, delta_override=delta_override)
    flat = k.reshape(-1, L)
    if assignment is not None:
        q = np.asarray(assignment, dtype=int)
        if q.shape != (L,) or not np.isin(q, (0, 1)).all() or int(q.sum()) != X:
            raise ValueError("camera assignment inconsistent with (L, X)")
        flat = flat[:, np.argsort(q == 0, kind="stable")]
    coefs = _theta_table(L, scene.brightness, w.delta)[X : X + 1]
    out = _bracket(flat, scene.separation, [X], coefs)[:, 0]
    if include_envelope:
        out = out * np.prod(momentum_envelope(psf, flat), axis=-1)
    return out.reshape(k.shape[:-1])


def coincidence_density_all_splits(
    L: int,
    momenta,
    scene: SourceScene,
    psf: PsfModel,
    delta_override: float | None = None,
    include_envelope: bool = True,
):
    """Density for every canonical split X = 0..L at once; shape (..., L+1)."""
    k = np.asarray(momenta, dtype=float)
    if k.shape[-1] != L:
        raise ValueError("momenta last axis must have length L")
    w = mode_weights(scene, psf, delta_override=delta_override)
    flat = k.reshape(-1, L)
    out = _bracket(flat, scene.separation, np.arange(L + 1), _theta_table(L, scene.brightness, w.delta))
    if include_envelope:
        out = out * np.prod(momentum_envelope(psf, flat), axis=-1)[:, None]
    return out.reshape(k.shape[:-1] + (L + 1,))


def coincidence_density(outcome: DetectionOutcome, scene: SourceScene, psf: PsfModel) -> float:
    """Probability density of one frame outcome over ordered momenta in R^L."""
    return float(
        coincidence_density_grid(
            outcome.photon_count,
            outcome.camera_split,
            np.asarray(outcome.momenta),
            scene,
            psf,
            assignment=outcome.camera_assignment,
        )
    )


def log_coincidence_density(outcome: DetectionOutcome, scene: SourceScene, psf: PsfModel) -> float:
    """Natural log of :func:`coincidence_density` (-inf at exact zeros)."""
    k = np.asarray(outcome.momenta)
    bracket = coincidence_density_grid(
        outcome.photon_count,
        outcome.camera_split,
        k,
        scene,
        psf,
        assignment=outcome.camera_assignment,
        include_envelope=False,
    )
    sk2 = psf.sigma_k ** 2
    log_env = -np.sum(k ** 2) / (2.0 * sk2) - 0.5 * len(k) * math.log(2.0 * math.pi * sk2)
    with np.errstate(divide="ignore"):
        return float(np.log(bracket) + log_env)


# ---------------------------------------------------------------------------
# Specialized low-order forms
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TwoPhotonCoordinates:
    """Mean/difference coordinates of a photon pair; bijective with (k1, k2)."""

    k_bar: float
    delta_k: float

    @classmethod
    def from_momenta(cls, k1: float, k2: float) -> "TwoPhotonCoordinates":
        return cls(k_bar=0.5 * (k1 + k2), delta_k=k1 - k2)

    def to_momenta(self):
        return self.k_bar + 0.5 * self.delta_k, self.k_bar - 0.5 * self.delta_k


_TWO_PHOTON_ALPHA = {"B": 1.0, "A": -1.0}


def _class_alpha(x_class: str) -> float:
    try:
        return _TWO_PHOTON_ALPHA[x_class.upper()]
    except KeyError:
        raise ValueError("two-photon class must be 'A' or 'B'") from None


def two_photon_density(coords: TwoPhotonCoordinates, x_class: str, scene: SourceScene, psf: PsfModel):
    """Mirror-summed two-photon class density in (Kbar, dk) coordinates.

    Class "B" sums the bunched outcomes X in {0, 2}; class "A" is the
    antibunched X = 1 outcome.  The Jacobian of (k1,k2) -> (Kbar, dk) is 1,
    so values are directly comparable with the ordered-pair density.
    """
    alpha = _class_alpha(x_class)
    w = mode_weights(scene, psf)
    ns, s = scene.brightness, scene.separation
    kbar = np.asarray(coords.k_bar, dtype=float)
    dk = np.asarray(coords.delta_k, dtype=float)
    env = mean_momentum_envelope(psf, kbar) * difference_momentum_envelope(psf, dk)
    return (
        ns
        * w.p0 ** 2
        * env
        * (1.0 + ns - alpha * ns * w.delta * np.cos(kbar * s))
        * (1.0 + alpha * np.cos(dk * s / 2.0))
    )


def _pair_xi(ka, kb, s):
    ca, cb = np.cos(ka * s / 2.0), np.cos(kb * s / 2.0)
    sa, sb = np.sin(ka * s / 2.0), np.sin(kb * s / 2.0)
    return ca * cb, ca * sb + cb * sa, sa * sb


def _triple_xi(ka, kb, kc, s):
    ca, cb, cc = (np.cos(k * s / 2.0) for k in (ka, kb, kc))
    sa, sb, sc = (np.sin(k * s / 2.0) for k in (ka, kb, kc))
    xi0 = ca * cb * cc
    xi1 = sa * cb * cc + ca * sb * cc + ca * cb * sc
    xi2 = sa * sb * cc + sa * cb * sc + ca * sb * sc
    xi3 = sa * sb * sc
    return xi0, xi1, xi2, xi3


_THREE_PHOTON_CLASSES = {"B": ((1.0, 1.0), 1.0 / 6.0), "UA": ((1.0, -1.0), 1.0 / 2.0)}
_FOUR_PHOTON_CLASSES = {
    "B": ((1.0, 1.0, 1.0), 1.0 / 24.0),
    "A": ((1.0, -1.0, -1.0), 1.0 / 8.0),
    "UA": ((-1.0, -1.0, -1.0), 1.0 / 6.0),
}


def three_photon_density(k1, k2, k3, x_class: str, scene: SourceScene, psf: PsfModel):
    """Mirror-summed three-photon class density.

    Classes: "B" (all three photons in one camera, X in {0,3}) and "UA"
    (2-1 split, X in {1,2}).  For "UA" the convention is that the *third*
    momentum argument is the lone photon.
    """
    try:
        (lam1, lam2), f_factor = _THREE_PHOTON_CLASSES[x_class.upper()]
    except KeyError:
        raise ValueError("three-photon class must be 'B' or 'UA'") from None
    w = mode_weights(scene, psf)
    ns, s = scene.brightness, scene.separation
    a_mode = 1.0 + ns * (1.0 + w.delta)
    b_mode = 1.0 + ns * (1.0 - w.delta)
    xi_big = [
        2.0 * w.p0 * ns ** 2 / a_mode ** 2,
        w.p0 ** 2 * ns ** 2,
        2.0 * w.p0 * ns ** 2 / b_mode ** 2,
    ]
    t23 = _pair_xi(k2, k3, s)
    t13 = _pair_xi(k1, k3, s)
    t12 = _pair_xi(k1, k2, s)
    bracket = sum(
        xi_big[j] * (t23[j] + lam1 * t13[j] + lam2 * t12[j]) ** 2 for j in range(3)
    )
    env = momentum_envelope(psf, k1) * momentum_envelope(psf, k2) * momentum_envelope(psf, k3)
    return f_factor * env * bracket


def four_photon_density(k1, k2, k3, k4, x_class: str, scene: SourceScene, psf: PsfModel):
    """Mirror-summed four-photon class density.

    Classes: "B" (4-0 split), "A" (balanced 2-2 split; vanishes as O(s^2)
    at small separation — verified numerically in the test suite), "UA"
    (3-1 split; the *first* momentum argument is the lone photon).
    """
    try:
        (lam1, lam2, lam3), f_factor = _FOUR_PHOTON_CLASSES[x_class.upper()]
    except KeyError:
        raise ValueError("four-photon class must be 'B', 'A' or 'UA'") from None
    w = mode_weights(scene, psf)
    ns, s = scene.brightness, scene.separation
    a_mode = 1.0 + ns * (1.0 + w.delta)
    b_mode = 1.0 + ns * (1.0 - w.delta)
    xi_big = [
        6.0 * w.p0 * ns ** 3 / a_mode ** 3,
        2.0 * w.p0 ** 2 * ns ** 3 / a_mode,
        2.0 * w.p0 ** 2 * ns ** 3 / b_mode,
        6.0 * w.p0 * ns ** 3 / b_mode ** 3,
    ]
    t234 = _triple_xi(k2, k3, k4, s)
    t134 = _triple_xi(k1, k3, k4, s)
    t124 = _triple_xi(k1, k2, k4, s)
    t123 = _triple_xi(k1, k2, k3, s)
    bracket = sum(
        xi_big[j] * (t234[j] + lam1 * t134[j] + lam2 * t124[j] + lam3 * t123[j]) ** 2
        for j in range(4)
    )
    env = (
        momentum_envelope(psf, k1)
        * momentum_envelope(psf, k2)
        * momentum_envelope(psf, k3)
        * momentum_envelope(psf, k4)
    )
    return f_factor * env * bracket


def subrayleigh_leading_density(P: int, momenta, scene: SourceScene, psf: PsfModel):
    """Leading small-s density of the balanced outcome X = P at order L = 2P.

    Equals ``(2P-2)!/(2 P! P!) (N_s/(1+2N_s))^{2P-1} prod |phi|^2
    (k_1+..+k_P - k_{P+1}-..-k_{2P})^2 s^2/4``; its ratio to the exact
    balanced density tends to 1 as s -> 0.
    """
    if P < 1:
        raise ValueError("P must be >= 1")
    k = np.asarray(momenta, dtype=float)
    if k.shape[-1] != 2 * P:
        raise ValueError("need 2P momenta")
    ns, s = scene.brightness, scene.separation
    a = ns / (1.0 + 2.0 * ns)
    coeff = math.factorial(2 * P - 2) / (2.0 * math.factorial(P) ** 2) * a ** (2 * P - 1)
    diff = k[..., :P].sum(axis=-1) - k[..., P:].sum(axis=-1)
    env = np.prod(momentum_envelope(psf, k), axis=-1)
    return coeff * env * diff ** 2 * s ** 2 / 4.0


def asymptotic_density(outcome: DetectionOutcome, scene: SourceScene, psf: PsfModel) -> float:
    """Large-separation density: the exact evaluator with the overlap set to 0."""
    return float(
        coincidence_density_grid(
            outcome.photon_count,
            outcome.camera_split,
            np.asarray(outcome.momenta),
            scene,
            psf,
            assignment=outcome.camera_assignment,
            delta_override=0.0,
        )
    )


def bucket_probability(P: int, scene: SourceScene, psf: PsfModel) -> float:
    """Leading small-s momentum-integrated probability of balanced antibunching.

    binom(2P, P) / (2 (2P-1)) * (N_s/(1+2N_s))^{2P-1} * s^2 sigma_k^2 / 4.
    """
    if P < 1:
        raise ValueError("P must be >= 1")
    ns, s = scene.brightness, scene.separation
    a = ns / (1.0 + 2.0 * ns)
    return (
        math.comb(2 * P, P)
        / (2.0 * (2 * P - 1))
        * a ** (2 * P - 1)
        * s ** 2
        * psf.sigma_k ** 2
        / 4.0
    )


# ---------------------------------------------------------------------------
# Two-photon conditional decomposition
# ---------------------------------------------------------------------------

def interference_kappa(scene: SourceScene, psf: PsfModel) -> float:
    """Envelope average of the fringe factors: kappa1 = kappa2 = exp(-s^2 sigma_k^2/4)."""
    return math.exp(-((scene.separation * psf.sigma_k) ** 2) / 4.0)


def two_photon_class_probability(x_class: str, scene: SourceScene, psf: PsfModel) -> float:
    """Momentum-integrated probability P(X) of a two-photon class ("A" or "B")."""
    alpha = _class_alpha(x_class)
    w = mode_weights(scene, psf)
    ns = scene.brightness
    kappa = interference_kappa(scene, psf)
    return ns * w.p0 ** 2 * (1.0 + ns - alpha * ns * w.delta * kappa) * (1.0 + alpha * kappa)


def kbar_conditional_density(k_bar, x_class: str, scene: SourceScene, psf: PsfModel):
    """Normalized conditional density f(Kbar; X) of the pair mean momentum."""
    alpha = _class_alpha(x_class)
    w = mode_weights(scene, psf)
    ns, s = scene.brightness, scene.separation
    kappa = interference_kappa(scene, psf)
    num = 1.0 + ns - alpha * ns * w.delta * np.cos(np.asarray(k_bar, dtype=float) * s)
    return mean_momentum_envelope(psf, k_bar) * num / (1.0 + ns - alpha * ns * w.delta * kappa)


def dk_conditional_density(delta_k, x_class: str, scene: SourceScene, psf: PsfModel):
    """Normalized conditional density g(dk; X) of the pair momentum difference."""
    alpha = _class_alpha(x_class)
    s = scene.separation
    kappa = interference_kappa(scene, psf)
    num = 1.0 + alpha * np.cos(np.asarray(delta_k, dtype=float) * s / 2.0)
    return difference_momentum_envelope(psf, delta_k) * num / (1.0 + alpha * kappa)


@dataclass(frozen=True)
class TwoPhotonConditional:
    p_class: float
    f_kbar: float
    g_dk: float
    kappa1: float
    kappa2: float


def conditional_decomposition(
    coords: TwoPhotonCoordinates, x_class: str, scene: SourceScene, psf: PsfModel
) -> TwoPhotonConditional:
    """Factorized two-photon density P(X) f(Kbar;X) g(dk;X) at given coordinates.

    f and g each integrate to 1 and the product reconstructs
    :func:`two_photon_density` exactly.
    """
    kappa = interference_kappa(scene, psf)
    return TwoPhotonConditional(
        p_class=two_photon_class_probability(x_class, scene, psf),
        f_kbar=float(kbar_conditional_density(coords.k_bar, x_class, scene, psf)),
        g_dk=float(dk_conditional_density(coords.delta_k, x_class, scene, psf)),
        kappa1=kappa,
        kappa2=kappa,
    )


# ---------------------------------------------------------------------------
# Frame-size distribution and momentum-integrated class weights
# ---------------------------------------------------------------------------

def frame_size_probability(
    L: int, scene: SourceScene, psf: PsfModel, delta_override: float | None = None
) -> float:
    """Exact probability that a frame contains L photons in total.

    P(L) = p0 * sum_{m+n = L-1} r_plus^m r_minus^n (thermal double geometric
    series), summed term by term: every term is positive, so no digits are
    lost as delta -> 0, where r_plus and r_minus merge.
    """
    if L < 1:
        raise ValueError("L must be >= 1")
    w = mode_weights(scene, psf, delta_override=delta_override)
    m = np.arange(L)
    return w.p0 * float(np.sum(w.r_plus ** m * w.r_minus ** (L - 1 - m)))


def frame_size_distribution(
    l_max: int, scene: SourceScene, psf: PsfModel, delta_override: float | None = None
) -> np.ndarray:
    """Array of frame-size probabilities for L = 1..l_max (index 0 -> L=1)."""
    return np.array(
        [frame_size_probability(L, scene, psf, delta_override=delta_override) for L in range(1, l_max + 1)]
    )


def class_weights(
    L: int,
    scene: SourceScene,
    psf: PsfModel,
    method: str = "auto",
    sample_count: int = 200_000,
    seed: int = 7,
) -> np.ndarray:
    """Momentum-integrated weights w(L, X) for X = 0..L (they sum to P(L)).

    The default ``"auto"`` is exact, O(L^2) and runs no quadrature.  Under
    the product envelope the photons are independent and the signed sums
    S_j are multilinear in each photon's (cos theta, sin theta),
    theta = k s/2; as E[sin] = E[sin cos] = 0, E[S_j^2] keeps only the
    one-photon moments (u = s^2 sigma_k^2/4)

        a = E[sin^2] = -expm1(-2u)/2,   b = E[cos^2] = 1 - a,
        kappa2 = E[cos]^2 = exp(-u),    g = b - kappa2 = expm1(-u)^2/2,

    giving E[S_{L-1}^2] = L a^{L-1} and, for j <= L-2,

        E[S_j^2] = a^j b^{L-2-j} [L C(L-2,j) g + L C(L-2,j-1) b
                                  + (2X-L)^2 C(L-2,j) kappa2],

    then w(L, X) = sum_j Theta-coefficient_j(L, X) E[S_j^2].  Every term is
    non-negative, so nothing cancels as s -> 0, and w(L, X) = w(L, L-X).

    ``"gh"`` (tensor Gauss-Hermite at the default node table) and ``"mc"``
    (``sample_count`` envelope draws in batches seeded from ``seed``)
    integrate the all-splits density with
    :func:`~homsr.quadrature.envelope_expectation`, as cross-checks.
    """
    if L < 1:
        raise ValueError("L must be >= 1")
    if method == "auto":
        return _closed_form_weights(L, scene, psf)[0]
    schemes = {"gh": "gauss_hermite_tensor", "mc": "monte_carlo_importance"}
    if method not in schemes:
        raise ValueError("method must be 'auto', 'gh' or 'mc'")
    quad = QuadratureSpec(scheme=schemes[method], sample_count=sample_count, seed=seed)
    return envelope_expectation(
        lambda k: coincidence_density_all_splits(L, k, scene, psf, include_envelope=False), L, psf, quad
    )[0]


def _closed_form_weights(L: int, scene: SourceScene, psf: PsfModel):
    """The exact w(L, X) of :func:`class_weights`, X = 0..L, and its s-derivative.

    Each one-photon moment is a function of u = s^2 sigma_k^2/4 with
    u' = s sigma_k^2/2: a' = exp(-2u) u', b' = -a', (kappa2)' = -kappa2 u'
    and g' = -expm1(-u) exp(-u) u'; the Theta coefficients bring their own
    s-derivative (:func:`_theta_table_ds`).
    """
    u = (scene.separation * psf.sigma_k) ** 2 / 4.0
    du = scene.separation * psf.sigma_k ** 2 / 2.0
    a = -math.expm1(-2.0 * u) / 2.0
    b = 1.0 - a
    kappa2 = interference_kappa(scene, psf)
    g = math.expm1(-u) ** 2 / 2.0
    da = math.exp(-2.0 * u) * du
    dkappa2 = -kappa2 * du
    dg = -math.expm1(-u) * kappa2 * du
    # E[S_j^2] and its s-derivative for j <= L-2, indexed [X, j]
    j = np.arange(L - 1)
    c = np.array([math.comb(L - 2, i) for i in j], dtype=float)
    c1 = np.array([math.comb(L - 1, i) for i in j]) - c  # C(L-2, j-1), also right at j = 0
    spin = ((2 * np.arange(L + 1) - L) ** 2)[:, None]
    power = a ** j * b ** (L - 2 - j)
    dpower = (j * a ** np.maximum(j - 1, 0) * b ** (L - 2 - j) - (L - 2 - j) * a ** j * b ** (L - 3 - j)) * da
    h = L * c * g + L * c1 * b + spin * c * kappa2
    dh = L * c * dg - L * c1 * da + spin * c * dkappa2
    # E[S_{L-1}^2] = L a^{L-1}
    moments = np.hstack([power * h, np.full((L + 1, 1), L * a ** (L - 1))])
    dmoments = np.hstack([dpower * h + power * dh, np.full((L + 1, 1), L * (L - 1) * a ** max(L - 2, 0) * da)])
    coefs, dcoefs = _theta_table_ds(L, scene, psf)
    return (coefs * moments).sum(axis=1), (dcoefs * moments + coefs * dmoments).sum(axis=1)
