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

One kernel forms the signed sums (:func:`_bracket`): one forward recurrence
that reads order L at photon L, the [L, X, j] table in, every split of each
order out (or one split per row), for one or several photon numbers.  It and
the class weights are analytic in s, so one pass at complex s gives their
exact s-derivative (:func:`_with_s_derivative`).
The sums are symmetric under a joint permutation of momenta and camera
labels, so any assignment is evaluated as the canonical one, C1 photons first.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass, fields
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

# Bytes per chunk of the bracket kernel, its rows times the bytes per row each form counts: large enough to
# spread numpy's per-call cost, small enough for a 2 MB L2 cache.  On a 2-vCPU Xeon, one order at every split
# for each L = 1..12 on 32,768 rows took 0.231-0.238 s at 1 MiB against 0.239-0.246 s at 512 KiB and
# 0.239-0.249 s at 2 MiB (best of 7); for orders 4..7 to 4..24, 2 MiB was 0-13 % faster, 512 KiB 3-15 % slower.
_CHUNK_BYTES = 1 << 20


@dataclass(frozen=True)
class DetectionOutcome:
    """One frame's detection record.

    ``camera_assignment`` lists Q_i (1 for camera C1) per momentum slot; if
    omitted, the canonical assignment (first X momenta in C1) is used.  The
    counts must be integers (``operator.index``) and are stored as ``int``.
    """

    photon_count: int
    camera_split: int
    momenta: tuple
    camera_assignment: tuple | None = None

    def __post_init__(self):
        row = _checked_row(self.photon_count, self.camera_split, self.momenta, self.camera_assignment)
        for field, value in zip(fields(self), row):
            object.__setattr__(self, field.name, value)

    @property
    def assignment(self) -> tuple:
        if self.camera_assignment is not None:
            return self.camera_assignment
        return tuple([1] * self.camera_split + [0] * (self.photon_count - self.camera_split))

    @property
    def canonical_momenta(self) -> tuple:
        """Momenta in the order :func:`_c1_first`, under which split X has the same density."""
        if self.camera_assignment is None:
            return self.momenta
        return tuple(self.momenta[i] for i in _c1_first(self.camera_assignment))


def _count(name, value, least):
    """``value`` as an int (``operator.index``: a float raises TypeError); below ``least``, a ValueError naming it."""
    if operator.index(value) < least:
        raise ValueError(f"{name} must be >= {least}, got {value}")
    return operator.index(value)


def _checked_frame(L, X, assignment):
    """(L, X, assignment) as ints, checked: L >= 1, 0 <= X <= L and X of the L slots in C1."""
    L, X = operator.index(L), operator.index(X)
    if L < 1:
        raise ValueError("photon_count must be >= 1 (reference photon always present)")
    if not 0 <= X <= L:
        raise ValueError("camera_split must lie in [0, photon_count]")
    if assignment is not None:
        assignment = tuple(int(v) for v in assignment)
        if len(assignment) != L or any(v not in (0, 1) for v in assignment) or sum(assignment) != X:
            raise ValueError("camera assignment inconsistent with (L, X)")
    return L, X, assignment


def _checked_row(L, X, momenta, assignment=None):
    """(L, X, momenta, assignment) of a :class:`DetectionOutcome` or record line, checked: L finite floats."""
    L, X, assignment = _checked_frame(L, X, assignment)
    if len(momenta) != L:
        raise ValueError("momenta length must equal photon_count")
    momenta = tuple(map(float, momenta))
    if not all(map(math.isfinite, momenta)):
        raise ValueError("momenta must be finite")
    return L, X, momenta, assignment


def _c1_first(assignment) -> np.ndarray:
    """Stable reorder of momentum slots that puts the C1 (Q = 1) slots first (see the module notes)."""
    return np.argsort(np.asarray(assignment) == 0, kind="stable")


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
    coeffs = _xi_coeffs(momenta, s)
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

def _xi_coeffs(momenta, s: float) -> list:
    """Coefficients xi_0..xi_n (in t) of prod_a (cos(k_a s/2) + t sin(k_a s/2)).

    The momenta may be scalars or broadcastable arrays.
    """
    coeffs = [1.0]
    for k in momenta:
        c, sn = np.cos(k * s / 2.0), np.sin(k * s / 2.0)
        prev = coeffs + [0.0]
        coeffs = [prev[0] * c] + [prev[j] * c + prev[j - 1] * sn for j in range(1, len(prev))]
    return coeffs


@functools.lru_cache(maxsize=64)
def _theta_parts(l_max: int, ns: float) -> tuple:
    """The s-free parts of :func:`_theta_tables`, read-only (every caller shares them): the factorial and N_s
    power products, the exponents of A and B, the X table 1/(X! (L-X)!) and the mask X <= L, j < L."""
    fact = np.array([math.factorial(i) for i in range(l_max + 1)], dtype=float)
    L, X, j = np.arange(l_max + 1)[:, None], np.arange(l_max + 1), np.arange(l_max)
    ns_power = np.array([ns ** (n - 1) for n in range(l_max + 1)])[:, None]
    parts = (fact[np.maximum(L - 1 - j, 0)] * fact[j] * ns_power, np.maximum(L - j, 0), j + 1,
             1.0 / (fact[X] * fact[np.maximum(L - X, 0)]), (X <= L)[:, :, None] & (j < L)[:, None, :])
    for part in parts:
        part.flags.writeable = False
    return parts


def _theta_tables(l_max: int, ns: float, delta) -> np.ndarray:
    """Weights Theta_j p0 N_s^{L-1} / (2 A^{L-1-j} B^j), indexed [L, X, j] for L, X <= l_max and j < l_max,
    zero unless X <= L and j < L.

    With p0 = 1/(A B) each L's table is the outer product of 1/(X! (L-X)!) and the X-free rest."""
    numerator, a_power, b_power, per_x, inside = _theta_parts(l_max, ns)
    per_j = numerator / (2.0 * (1.0 + ns * (1.0 + delta)) ** a_power * (1.0 + ns * (1.0 - delta)) ** b_power)
    return np.where(inside, per_x[:, :, None] * per_j[:, None, :], 0.0)


def _with_s_derivative(f, s: float):
    """(f(s), f'(s)) of an f analytic in s as Re, Im/h of f(s + ih), h = 1e-20 s > 0.

    Complex step (Squire & Trapp, SIAM Rev. 40, 110 (1998)): no difference is
    taken, so nothing cancels, and the O(h^2) error is far below rounding."""
    h = 1e-20 * s
    value = f(s + 1j * h)
    if isinstance(value, np.ndarray):  # the derivative takes the imaginary half's memory: no new array
        value.imag /= h
        return value.real, value.imag
    return value.real, value.imag / h


def _half_angle_trig(s, kt):
    """[cos, sin] of x = k s/2, stacked.  A complex s must be the step s + ih of :func:`_with_s_derivative`:
    then y = k h/2 is so small that cos(x + iy) = cos x - iy sin x and sin(x + iy) = sin x + iy cos x hold
    to the last bit, and so does the result against numpy's complex cos and sin, at a third of their cost."""
    step = not isinstance(s, float) and np.iscomplexobj(s)  # the first test spares a float s a slower second
    if step and abs(np.imag(s)) > 1e-15 * abs(np.real(s)):  # y could leave the range where those hold
        raise ValueError(f"complex s must be a complex step s + ih with h <= 1e-15 s, got {s!r}")
    trig = np.empty((2,) + kt.shape, complex if step else float)
    x = (0.5 * np.real(s)) * kt
    np.cos(x, out=trig[0].real)
    np.sin(x, out=trig[1].real)
    if step:
        y = (0.5 * np.imag(s)) * kt
        np.multiply(trig[1].real, -y, out=trig[0].imag)
        np.multiply(trig[0].real, y, out=trig[1].imag)
    return trig


def _bracket(k, s, table, orders=None, lengths=None, splits=None):
    """Bracket sum_j table[L, X, j] S_j^2 of each row of ``k``: the [L, X, j] table of :func:`_theta_tables` in,
    every split of each order out (or one split per row).

    ``k`` has shape (N, L) with the C1 photons first.  With f_a(t) = cos(k_a s/2) + t sin(k_a s/2), the signed
    sums are the coefficients of S_X(t) = 2 C_X(t) - D(t), where D = sum_i prod_{a != i} f_a and
    C_X = sum_{i < X} prod_{a != i} f_a.  One forward pass carries the prefix product P <- P f_a and
    S_X <- S_X f_a + P where a < X and S_X f_a - P where a >= X, and reads order L at photon L.  It is analytic
    in s and ``table`` and complex if either is, s only at the step of :func:`_with_s_derivative`.

    Given ``orders`` (strictly ascending L within 1..k.shape[1] and the table), order L is on the first L columns
    of ``k``, its splits X = 0..L on L + 1 columns of the (N, sum(L + 1)) result after the previous order's; without
    ``orders`` or ``lengths`` the one order is L = k.shape[1].  There the slots X >= 1 are shared: after photon
    a - 1 every S_X with X >= a is D, so slot a stands for them all, and photon a splits it into X = a (- P) and a
    new top slot (+ P).  S_0 = -D, the top slot negated (exactly), is not carried: X = 0 copies the square of the
    top slot, which X = L reads.  Given ``lengths`` and ``splits``, row i of the (N,) result is split
    X = ``splits[i]`` at L = ``lengths[i]``, rows in descending L, so the rows still running at photon a (L > a) are
    a prefix; ``k`` is then one flat buffer of column prefixes, sum(lengths) words: k_a of those rows after k_{a-1}
    of theirs.  A row has one slot, stored as -S_X until photon X, whose step it enters negated (exactly), so every
    step subtracts P; the rows of L = a are read at photon a, where the state is a dense (2, degree, running rows)
    view, 2 (L + 1) words a row.  A read squares its slots into the scratch, free until photon a's step, scales
    them by the coefficients and sums over j one slice at a time, without BLAS: each row's value then depends on
    its momenta alone, not on its place in the chunk, the row count or BLAS's threads.
    """
    n_rows, shared, dtype = len(k if lengths is None else lengths), lengths is None, np.result_type(s, table, float)
    if shared:  # every row runs to the last order
        orders = [k.shape[1]] if orders is None else list(orders)
        if not (orders and orders == sorted(set(orders)) and 1 <= orders[0] and orders[-1] <= k.shape[1]
                and orders[-1] < len(table)):
            raise ValueError("orders must strictly ascend within 1 <= L <= k.shape[1], the last within the table")
        k, lengths, ends = k[:, : orders[-1]], np.full(n_rows, orders[-1]), np.cumsum([L + 1 for L in orders]).tolist()
        reads = {L: (slice(e - L - 1, e), table[L, : L + 1, :L].T[..., None]) for L, e in zip(orders, ends)}  # [j, X]
    else:
        lengths, xs = np.asarray(lengths), np.asarray(splits)
        if n_rows and (np.any(lengths[1:] > lengths[:-1]) or lengths[-1] < 1):
            raise ValueError("per-row bracket needs rows in descending photon number, L >= 1")
        if np.any((xs < 0) | (xs > lengths)):  # a split outside 0..L never flips its slot: it would read X = L
            raise ValueError("per-row bracket needs each row's split within 0..L")
        if n_rows and lengths[0] >= len(table):  # past the table, the read of the widest rows would index out
            raise ValueError("per-row bracket needs a table through the rows' largest L")
        if np.shape(k) != (lengths.sum(),):
            raise ValueError(f"per-row bracket needs the rows' sum(lengths) = {lengths.sum()} momenta, one flat buffer")
        total = n_rows - np.cumsum(np.bincount(lengths))  # the rows with L > a: column a of k, from word starts[a]
        starts = (np.cumsum(total) - total).tolist()
    out = np.empty((n_rows, ends[-1]) if shared else n_rows, dtype)
    width, slots = (k.shape[1], k.shape[1]) if shared else (int(lengths.max(initial=0)), 1)
    # words per row: one (P, S) state; per row, its (P, S) to its own L in each of z, z_new and tmp
    words = (1 + slots) * width if shared else 6 * int(lengths.sum()) // max(1, n_rows) or 1
    chunk = max(1, _CHUNK_BYTES // (words * dtype.itemsize))
    per_slot = width * min(chunk, n_rows) if shared else int(lengths[:chunk].sum()) + min(chunk, n_rows)
    parts = np.empty((3, (1 + slots) * per_slot), dtype)  # z, z_new and tmp for every chunk: fewer page faults
    for lo in range(0, n_rows, chunk):
        n = min(chunk, n_rows - lo)
        # running[a]: the rows with L > a, a prefix of the chunk; photon a's factors are taken on those only
        running = (n - np.cumsum(np.bincount(lengths[lo : lo + n], minlength=width + 1))).tolist()
        first = list(itertools.accumulate(running[:width], initial=0))
        # photon a's factors on its running rows, photon after photon: a flat buffer in one chunk is read as it is
        columns = [k[lo : lo + r, a] if shared else k[starts[a] + lo :][:r] for a, r in enumerate(running[:width])]
        trig = _half_angle_trig(s, k if n == n_rows and not shared else np.concatenate(columns))
        # (P, S of each slot) twice and scratch, not zeroed: each step writes every coefficient the next one reads;
        # per row they are viewed anew at each photon, only as large as its running rows and degree
        d = width if shared else min(2, width)
        z, z_new, tmp = parts[:, : (1 + slots) * d * n].reshape(3, 1 + slots, d, n)
        z[:2, :2] = 0.0  # after photon 0: P = f_0, and S_X = D = 1 for X > 0 (per row, stored -S_X = -1)
        z[0, :2], z[1, 0] = (trig[0][:n], trig[1][:n])[:width], (1.0 if shared else -1.0)
        for a in range(1, width + 1):
            r, end = running[a], running[a - 1]
            if shared and a in reads:
                cols, cf = reads[a]
                sq = tmp.reshape(-1)[: a * (a + 1) * n].reshape(a, a + 1, n)  # [j, split, row]
                np.square(z[1 : a + 1, :a].transpose(1, 0, 2), out=sq[:, 1:])
                sq[:, 0] = sq[:, a]
                sq *= cf
                for j in range(1, a):  # one order of sums for every row, where a matmul's depends on BLAS
                    sq[0] += sq[j]
                out[lo : lo + n, cols] = sq[0].T
            elif not shared and end > r:  # the rows of L = a end here
                S = z[1, :a, r:end]
                out[lo + r : lo + end] = np.einsum("jr,jr,rj->r", S, S, table[a, xs[lo + r : lo + end], :a])
            if r == 0:
                break
            h = a + 1 if shared else 2  # rows of z in use: P and the slots
            v = min(a + 1, width)  # coefficients of P, of degree a (S has degree a - 1), truncated
            if not shared:  # the rows with X = a turn their stored -S_X into S_X
                z[1, :a, np.flatnonzero(xs[lo : lo + r] == a)] *= -1.0
                z_new = parts[a % 2, : 2 * min(v + 1, width) * r].reshape(2, min(v + 1, width), r)
                tmp = parts[2, : 2 * (v - 1) * r].reshape(2, v - 1, r)
            c, sn = trig[:, None, None, first[a] : first[a] + r]
            if v < width:  # the new top coefficient, P_a sin_a (S's is 0)
                np.multiply(z[:h, v - 1 : v, :r], sn, z_new[:h, v : v + 1, :r])
            np.multiply(z[:h, :v, :r], c, z_new[:h, :v, :r])  # (P, S) f_a, truncated
            np.multiply(z[:h, : v - 1, :r], sn, tmp[:h, : v - 1, :r])
            z_new[:h, 1:v, :r] += tmp[:h, : v - 1, :r]
            if shared:  # the new top slot, X > a: S f_a + P
                z_new[h, : v + 1] = z_new[h - 1, : v + 1]
                z_new[h, :v] += z[0, :v]
            z_new[1:h, :v, :r] -= z[0, :v, :r]
            z, z_new = z_new, z
    return out


def _density(L, splits, momenta, scene, psf, assignment, delta_override, include_envelope):
    """Density of the splits ``splits``, a slice of X = 0..L, at ``momenta`` (..., L) reordered by a checked camera
    ``assignment`` (:func:`_c1_first`): the [L, X, j] table in, every split of order L out, the slice a view of it."""
    k = np.asarray(momenta, dtype=float)
    if k.shape[-1] != L:
        raise ValueError("momenta last axis must have length L")
    flat = k.reshape(-1, L)
    if assignment is not None:
        flat = flat[:, _c1_first(assignment)]
    w = mode_weights(scene, psf, delta_override=delta_override)
    out = _bracket(flat, scene.separation, _theta_tables(L, scene.brightness, w.delta))[:, splits]
    if include_envelope:
        out = out * np.prod(momentum_envelope(psf, flat), axis=-1)[:, None]
    return out.reshape(k.shape[:-1] + out.shape[1:])


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
    weight already contains it).  A camera ``assignment`` is applied as the
    reorder :func:`_c1_first`.
    """
    L, X, assignment = _checked_frame(L, X, assignment)
    return _density(L, slice(X, X + 1), momenta, scene, psf, assignment, delta_override, include_envelope)[..., 0]


def coincidence_density_all_splits(
    L: int,
    momenta,
    scene: SourceScene,
    psf: PsfModel,
    delta_override: float | None = None,
    include_envelope: bool = True,
):
    """Density for every canonical split X = 0..L at once; shape (..., L+1)."""
    L = _checked_frame(L, 0, None)[0]
    return _density(L, slice(None), momenta, scene, psf, None, delta_override, include_envelope)


def coincidence_density(outcome: DetectionOutcome, scene: SourceScene, psf: PsfModel) -> float:
    """Probability density of one frame outcome over ordered momenta in R^L."""
    L, X = outcome.photon_count, outcome.camera_split
    return float(coincidence_density_grid(L, X, outcome.canonical_momenta, scene, psf))


def log_coincidence_density(outcome: DetectionOutcome, scene: SourceScene, psf: PsfModel) -> float:
    """Natural log of :func:`coincidence_density` (-inf at exact zeros)."""
    L, X = outcome.photon_count, outcome.camera_split
    bracket = coincidence_density_grid(L, X, outcome.canonical_momenta, scene, psf, include_envelope=False)
    with np.errstate(divide="ignore"):
        return float(np.log(bracket) + _log_envelope(outcome.momenta, psf))


def _log_envelope(k, psf: PsfModel) -> float:
    """Log of the product envelope, summed over every momentum in ``k``."""
    sk2 = psf.sigma_k ** 2
    return float(-np.sum(np.square(k)) / (2.0 * sk2) - 0.5 * np.size(k) * math.log(2.0 * math.pi * sk2))


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


# Outcome classes by (L, class): the camera signs of photons 2..L relative to photon 1,
# and the class factor, the mirror multiplicity over 2 X! (L-X)!.
_CLASSES = {
    (2, "B"): ((1.0,), 1 / 2), (2, "A"): ((-1.0,), 1 / 2),
    (3, "B"): ((1.0, 1.0), 1 / 6), (3, "UA"): ((1.0, -1.0), 1 / 2),
    (4, "B"): ((1.0, 1.0, 1.0), 1 / 24), (4, "A"): ((1.0, -1.0, -1.0), 1 / 8), (4, "UA"): ((-1.0, -1.0, -1.0), 1 / 6),
}


def _class_entry(L: int, x_class: str) -> tuple:
    """(signs, factor) of ``x_class`` at order L; a ValueError names that order's classes."""
    try:
        return _CLASSES[L, x_class.upper()]
    except KeyError:
        raise ValueError(f"{L}-photon class must be one of {', '.join(c for n, c in _CLASSES if n == L)}") from None


def _fringe(alpha: float, u):
    """1 + alpha cos(u) as 2 cos^2(u/2) or 2 sin^2(u/2), which do not cancel as u -> 0."""
    half = np.asarray(u, dtype=float) / 2.0
    return 2.0 * (np.cos(half) if alpha > 0 else np.sin(half)) ** 2


def _fringe_mean(alpha: float, scene: SourceScene, psf: PsfModel) -> float:
    """Envelope mean 1 + alpha kappa of the difference fringe; 1 - kappa via expm1."""
    u = (scene.separation * psf.sigma_k) ** 2 / 4.0
    return 1.0 + math.exp(-u) if alpha > 0 else -math.expm1(-u)


def two_photon_density(coords: TwoPhotonCoordinates, x_class: str, scene: SourceScene, psf: PsfModel):
    """Mirror-summed two-photon class density in (Kbar, dk) coordinates.

    Class "B" sums the bunched outcomes X in {0, 2}; class "A" is the
    antibunched X = 1 outcome.  The Jacobian of (k1,k2) -> (Kbar, dk) is 1,
    so values are directly comparable with the ordered-pair density.
    """
    (alpha,), _ = _class_entry(2, x_class)  # alpha: the camera sign of photon 2
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
        * _fringe(alpha, dk * s / 2.0)
    )


def _low_order_density(momenta: tuple, x_class: str, scene: SourceScene, psf: PsfModel):
    """Class density from the written-out leave-one-out sums, independent of :func:`_bracket`.

    factor * envelope * sum_j w_j (sum_i lam_i xi_j(momenta without k_i))^2, with the class's
    signs lam_i (lam_1 = 1) and w_j = j! (L-1-j)! N_s^{L-1} / (A^{L-j} B^{j+1}), A, B = 1 + N_s (1 +- delta).
    """
    L = len(momenta)
    signs, factor = _class_entry(L, x_class)
    ns, s, delta = scene.brightness, scene.separation, mode_weights(scene, psf).delta
    a_mode, b_mode = 1.0 + ns * (1.0 + delta), 1.0 + ns * (1.0 - delta)
    f = math.factorial
    weights = [f(j) * f(L - 1 - j) * ns ** (L - 1) / (a_mode ** (L - j) * b_mode ** (j + 1)) for j in range(L)]
    leave_one_out = [_xi_coeffs(momenta[:i] + momenta[i + 1 :], s) for i in range(L)]
    signed = [sum(lam * c[j] for lam, c in zip((1.0,) + signs, leave_one_out)) for j in range(L)]
    env = math.prod(momentum_envelope(psf, k) for k in momenta)
    return factor * env * sum(w * sj ** 2 for w, sj in zip(weights, signed))


def three_photon_density(k1, k2, k3, x_class: str, scene: SourceScene, psf: PsfModel):
    """Mirror-summed three-photon class density.

    Classes: "B" (all three photons in one camera, X in {0,3}) and "UA"
    (2-1 split, X in {1,2}).  For "UA" the convention is that the *third*
    momentum argument is the lone photon.
    """
    return _low_order_density((k1, k2, k3), x_class, scene, psf)


def four_photon_density(k1, k2, k3, k4, x_class: str, scene: SourceScene, psf: PsfModel):
    """Mirror-summed four-photon class density.

    Classes: "B" (4-0 split), "A" (balanced 2-2 split; vanishes as O(s^2)
    at small separation — verified numerically in the test suite), "UA"
    (3-1 split; the *first* momentum argument is the lone photon).
    """
    return _low_order_density((k1, k2, k3, k4), x_class, scene, psf)


def subrayleigh_leading_density(P: int, momenta, scene: SourceScene, psf: PsfModel):
    """Leading small-s density of the balanced outcome X = P at order L = 2P.

    Equals ``(2P-2)!/(2 P! P!) (N_s/(1+2N_s))^{2P-1} prod |phi|^2
    (k_1+..+k_P - k_{P+1}-..-k_{2P})^2 s^2/4``; its ratio to the exact
    balanced density tends to 1 as s -> 0.
    """
    coeff = _subrayleigh_coefficient(P, scene.brightness) / (2 * P)
    k = np.asarray(momenta, dtype=float)
    if k.shape[-1] != 2 * P:
        raise ValueError("need 2P momenta")
    diff = k[..., :P].sum(axis=-1) - k[..., P:].sum(axis=-1)
    env = np.prod(momentum_envelope(psf, k), axis=-1)
    return coeff * env * diff ** 2 * scene.separation ** 2 / 4.0


def asymptotic_density(outcome: DetectionOutcome, scene: SourceScene, psf: PsfModel) -> float:
    """Large-separation density: the exact evaluator with the overlap set to 0."""
    L, X = outcome.photon_count, outcome.camera_split
    return float(coincidence_density_grid(L, X, outcome.canonical_momenta, scene, psf, delta_override=0.0))


def _subrayleigh_coefficient(P: int, ns: float) -> float:
    """binom(2P, P) / (2 (2P-1)) * (N_s/(1+2N_s))^{2P-1}: the small-s balanced weight and F^(2P)."""
    if P < 1:
        raise ValueError("P must be >= 1")
    a = ns / (1.0 + 2.0 * ns)
    return math.comb(2 * P, P) / (2.0 * (2 * P - 1)) * a ** (2 * P - 1)


def bucket_probability(P: int, scene: SourceScene, psf: PsfModel) -> float:
    """Leading small-s momentum-integrated probability of balanced antibunching.

    binom(2P, P) / (2 (2P-1)) * (N_s/(1+2N_s))^{2P-1} * s^2 sigma_k^2 / 4.
    """
    return _subrayleigh_coefficient(P, scene.brightness) * scene.separation ** 2 * psf.sigma_k ** 2 / 4.0


# ---------------------------------------------------------------------------
# Two-photon conditional decomposition
# ---------------------------------------------------------------------------

def interference_kappa(scene: SourceScene, psf: PsfModel) -> float:
    """Envelope average of the fringe factors: kappa1 = kappa2 = exp(-s^2 sigma_k^2/4)."""
    return math.exp(-((scene.separation * psf.sigma_k) ** 2) / 4.0)


def two_photon_class_probability(x_class: str, scene: SourceScene, psf: PsfModel) -> float:
    """Momentum-integrated probability P(X) of a two-photon class ("A" or "B")."""
    (alpha,), _ = _class_entry(2, x_class)
    w = mode_weights(scene, psf)
    ns = scene.brightness
    kappa = interference_kappa(scene, psf)
    return ns * w.p0 ** 2 * (1.0 + ns - alpha * ns * w.delta * kappa) * _fringe_mean(alpha, scene, psf)


def kbar_conditional_density(k_bar, x_class: str, scene: SourceScene, psf: PsfModel):
    """Normalized conditional density f(Kbar; X) of the pair mean momentum."""
    (alpha,), _ = _class_entry(2, x_class)
    w = mode_weights(scene, psf)
    ns, s = scene.brightness, scene.separation
    kappa = interference_kappa(scene, psf)
    num = 1.0 + ns - alpha * ns * w.delta * np.cos(np.asarray(k_bar, dtype=float) * s)
    return mean_momentum_envelope(psf, k_bar) * num / (1.0 + ns - alpha * ns * w.delta * kappa)


def dk_conditional_density(delta_k, x_class: str, scene: SourceScene, psf: PsfModel):
    """Normalized conditional density g(dk; X) of the pair momentum difference."""
    (alpha,), _ = _class_entry(2, x_class)
    dk = np.asarray(delta_k, dtype=float)
    mean = _fringe_mean(alpha, scene, psf)
    if mean == 0.0:  # class A at s = 0: the fringe ratio tends to dk^2 / (2 sigma_k^2)
        return difference_momentum_envelope(psf, dk) * dk ** 2 / (2.0 * psf.sigma_k ** 2)
    return difference_momentum_envelope(psf, dk) * _fringe(alpha, dk * scene.separation / 2.0) / mean


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
    """Exact probability that a frame contains L photons in total (see :func:`frame_size_distribution`)."""
    L = _count("L", L, 1)
    return float(frame_size_distribution(L, scene, psf, delta_override=delta_override)[-1])


def frame_size_distribution(
    l_max: int, scene: SourceScene, psf: PsfModel, delta_override: float | None = None
) -> np.ndarray:
    """Array of frame-size probabilities for L = 1..l_max (index 0 -> L=1).

    P(L) = p0 * sum_{m+n = L-1} r_plus^m r_minus^n (thermal double geometric
    series), a convolution of positive terms: no digits are lost as
    delta -> 0, where r_plus and r_minus merge.
    """
    w = mode_weights(scene, psf, delta_override=delta_override)
    m = np.arange(max(l_max, 1))  # np.convolve rejects empty input; [:l_max] is empty at l_max <= 0
    return w.p0 * np.convolve(w.r_plus ** m, w.r_minus ** m)[:l_max]


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
    L = _count("L", L, 1)
    if method == "auto":
        return _closed_form_weights(L, scene.separation, scene.brightness, psf)
    schemes = {"gh": "gauss_hermite_tensor", "mc": "monte_carlo_importance"}
    if method not in schemes:
        raise ValueError("method must be 'auto', 'gh' or 'mc'")
    quad = QuadratureSpec(scheme=schemes[method], sample_count=sample_count, seed=seed)
    return envelope_expectation(
        lambda k: coincidence_density_all_splits(L, k, scene, psf, include_envelope=False), L, psf, quad
    )[0]


def _closed_form_weights(L: int, s, ns: float, psf: PsfModel) -> np.ndarray:
    """The exact w(L, X) of :func:`class_weights`, X = 0..L, at separation ``s``.

    Written with ``np.exp``/``np.expm1`` only, so it is analytic in s and
    :func:`_with_s_derivative` takes its exact s-derivative.
    """
    u = (s * psf.sigma_k) ** 2 / 4.0
    a = -np.expm1(-2.0 * u) / 2.0
    b = 1.0 - a
    kappa2 = np.exp(-u)
    g = np.expm1(-u) ** 2 / 2.0
    # E[S_j^2] for j <= L-2, indexed [X, j], then E[S_{L-1}^2] = L a^{L-1}
    j = np.arange(L - 1)
    c = np.array([math.comb(L - 2, i) for i in j], dtype=float)
    c1 = np.array([math.comb(L - 1, i) for i in j]) - c  # C(L-2, j-1), also right at j = 0
    spin = ((2 * np.arange(L + 1) - L) ** 2)[:, None]
    h = L * c * g + L * c1 * b + spin * c * kappa2
    moments = np.hstack([a ** j * b ** (L - 2 - j) * h, np.full((L + 1, 1), L * a ** (L - 1))])
    return (_theta_tables(L, ns, np.exp(-2.0 * u))[L, : L + 1, :L] * moments).sum(axis=1)  # delta = exp(-2u)
