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
from .quadrature import envelope_gh_nodes, envelope_mc_nodes

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

# Chunk size control for the vectorized evaluator: keep N * L^2 bounded.
_CHUNK_BUDGET = 4_000_000


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


def _loo_coeffs(c, sn):
    """Leave-one-out product polynomials.

    ``c``, ``sn`` have shape (N, L); returns q of shape (N, L, L) where
    q[n, i, j] is the coefficient of t^j in prod_{a != i} (c[n,a] + t sn[n,a]),
    built from prefix/suffix partial products (stable, O(L^3)).
    """
    n_rows, L = c.shape
    prefix = [np.ones((n_rows, 1))]
    for a in range(L):
        p = prefix[-1]
        new = np.zeros((n_rows, p.shape[1] + 1))
        new[:, :-1] += p * c[:, a : a + 1]
        new[:, 1:] += p * sn[:, a : a + 1]
        prefix.append(new)
    suffix = [np.ones((n_rows, 1))]
    for a in range(L - 1, -1, -1):
        p = suffix[-1]
        new = np.zeros((n_rows, p.shape[1] + 1))
        new[:, :-1] += p * c[:, a : a + 1]
        new[:, 1:] += p * sn[:, a : a + 1]
        suffix.append(new)
    suffix.reverse()  # suffix[a] = product over indices > a-1 ... see below

    # after reversal: suffix[m] is the product over indices >= m shifted by one:
    # suffix[L] = 1, suffix[m] = prod_{a >= m} (built above from the right).
    q = np.zeros((n_rows, L, L))
    for i in range(L):
        pa = prefix[i]          # degree i polynomial (indices < i)
        sb = suffix[i + 1]      # degree L-1-i polynomial (indices > i)
        for da in range(pa.shape[1]):
            q[:, i, da : da + sb.shape[1]] += pa[:, da : da + 1] * sb
    return q


def _theta_coefficients(L: int, X: int, ns: float, delta: float) -> np.ndarray:
    """Per-j weights Theta_j p0 N_s^{L-1} / (2 A^{L-1-j} B^j)."""
    a_mode = 1.0 + ns * (1.0 + delta)
    b_mode = 1.0 + ns * (1.0 - delta)
    p0 = 1.0 / (a_mode * b_mode)
    denom_x = math.factorial(X) * math.factorial(L - X)
    out = np.empty(L)
    for j in range(L):
        theta = math.factorial(L - 1 - j) * math.factorial(j) / denom_x
        out[j] = theta * p0 * ns ** (L - 1) / (2.0 * a_mode ** (L - 1 - j) * b_mode ** j)
    return out


def _theta_table(L: int, ns: float, delta: float) -> np.ndarray:
    """:func:`_theta_coefficients` for every split X = 0..L; shape (L+1, L)."""
    return np.stack([_theta_coefficients(L, X, ns, delta) for X in range(L + 1)])


def _bracket_chunk(phase_args, signs):
    """Per-j squared signed sums for one chunk.

    ``phase_args`` is k*s with shape (N, L); ``signs`` the per-slot camera
    signs (+-1).  Returns (sum_i signs_i q[:, i, j])**2 of shape (N, L);
    the Theta/thermal coefficients are applied by the caller.
    """
    half = phase_args * 0.5
    q = _loo_coeffs(np.cos(half), np.sin(half))
    s_j = np.einsum("nij,i->nj", q, signs)
    return s_j ** 2


def _bracket_chunk_all_splits(k):
    """Per-j squared signed sums for every canonical split X = 0..L.

    Returns array of shape (N, L+1, L): entry [:, X, j].
    """
    n_rows, L = k.shape
    half = k * 0.5
    q = _loo_coeffs(np.cos(half), np.sin(half))
    tot = q.sum(axis=1)                       # (N, L)
    cs = np.cumsum(q, axis=1)                 # (N, L, L)
    out = np.empty((n_rows, L + 1, L))
    out[:, 0, :] = tot ** 2                   # X = 0: all signs equal
    for X in range(1, L + 1):
        out[:, X, :] = (2.0 * cs[:, X - 1, :] - tot) ** 2
    return out


def _iter_chunks(n_rows: int, L: int):
    chunk = max(1, _CHUNK_BUDGET // max(1, L * L))
    for start in range(0, n_rows, chunk):
        yield start, min(start + chunk, n_rows)


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
    weight already contains it).
    """
    k = np.asarray(momenta, dtype=float)
    if k.shape[-1] != L:
        raise ValueError("momenta last axis must have length L")
    if L < 1:
        raise ValueError("photon_count must be >= 1")
    w = mode_weights(scene, psf, delta_override=delta_override)
    if assignment is None:
        signs = np.array([1.0] * X + [-1.0] * (L - X))
    else:
        q = np.asarray(assignment, dtype=int)
        if q.shape != (L,) or int(q.sum()) != X:
            raise ValueError("camera assignment inconsistent with (L, X)")
        signs = np.where(q == 1, 1.0, -1.0)
    coefs = _theta_coefficients(L, X, scene.brightness, w.delta)

    flat = k.reshape(-1, L)
    out = np.empty(flat.shape[0])
    for lo, hi in _iter_chunks(flat.shape[0], L):
        sq = _bracket_chunk(flat[lo:hi] * scene.separation, signs)
        out[lo:hi] = sq @ coefs
    if include_envelope:
        env = np.prod(momentum_envelope(psf, flat), axis=-1)
        out = out * env
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
    coefs = _theta_table(L, scene.brightness, w.delta)  # (L+1, L)
    flat = k.reshape(-1, L)
    out = np.empty((flat.shape[0], L + 1))
    for lo, hi in _iter_chunks(flat.shape[0], L):
        sq = _bracket_chunk_all_splits(flat[lo:hi] * scene.separation)  # (n, L+1, L)
        out[lo:hi] = np.einsum("nxj,xj->nx", sq, coefs)
    if include_envelope:
        env = np.prod(momentum_envelope(psf, flat), axis=-1)
        out = out * env[:, None]
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
    nodes_per_dim: int | None = None,
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

    ``"gh"`` (tensor Gauss-Hermite, ``nodes_per_dim`` nodes per photon) and
    ``"mc"`` (envelope Monte Carlo, ``sample_count`` draws from ``seed``)
    integrate the all-splits density numerically, as cross-checks.
    """
    if method == "auto":
        u = (scene.separation * psf.sigma_k) ** 2 / 4.0
        a = -math.expm1(-2.0 * u) / 2.0
        b = 1.0 - a
        g = math.expm1(-u) ** 2 / 2.0
        kappa2 = interference_kappa(scene, psf)
        spin = (2 * np.arange(L + 1) - L) ** 2
        moments = np.empty((L + 1, L))  # E[S_j^2], indexed [X, j]
        moments[:, L - 1] = L * a ** (L - 1)
        for j in range(L - 1):
            c = math.comb(L - 2, j)
            # C(L-2, j-1) = C(L-1, j) - C(L-2, j), which is also right at j = 0
            moments[:, j] = a ** j * b ** (L - 2 - j) * (
                L * c * g + L * (math.comb(L - 1, j) - c) * b + spin * c * kappa2
            )
        coefs = _theta_table(L, scene.brightness, mode_weights(scene, psf).delta)
        return (coefs * moments).sum(axis=1)
    if method == "gh":
        if nodes_per_dim is None:
            nodes_per_dim = {1: 64, 2: 48, 3: 40, 4: 24}.get(L, 24)
        k, w = envelope_gh_nodes(psf, L, nodes_per_dim)
        vals = coincidence_density_all_splits(L, k, scene, psf, include_envelope=False)
        return w @ vals
    if method == "mc":
        rng = np.random.default_rng(seed)
        k = envelope_mc_nodes(psf, L, sample_count, rng)
        vals = coincidence_density_all_splits(L, k, scene, psf, include_envelope=False)
        return vals.mean(axis=0)
    raise ValueError("method must be 'auto', 'gh' or 'mc'")
