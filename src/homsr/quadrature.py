"""Envelope expectations: the one numeric integration path of the package.

:func:`envelope_expectation` takes E_env[f(k)] over ``dim`` momenta drawn
from the product envelope prod_m |phi(k_m)|^2 (isotropic Gaussian, per-axis
standard deviation sigma_k).  It serves :func:`homsr.fisher.fisher_L`
(dim = L), :func:`homsr.fisher.fisher_total` (dim = l_max, every order on
the lattice or Monte Carlo at once), :func:`homsr.fisher.sampling_hierarchy_fi`
(dim = 1) and the ``"gh"``/``"mc"`` cross-checks of
:func:`homsr.coincidence.class_weights`.  Schemes (:class:`QuadratureSpec`):

* ``"gauss_hermite_tensor"``: tensor Gauss-Hermite, ``nodes_per_dim`` per
  axis (default 64, 48, 40 for dim 1, 2, 3, else 24); the error is the
  node-refinement difference from the rule with int(3n/4) nodes per axis.
* ``"monte_carlo_importance"``: ``sample_count`` envelope draws in
  ``batch_count`` batches, batch b seeded ``[seed, b]`` and drawn one
  coordinate at a time; the error is the standard error of the batch means.
* ``"rank1_lattice"``: randomly shifted rank-1 lattice rule (randomized
  quasi-Monte Carlo).  Each of ``batch_count`` uniform shifts, seeded
  ``[seed, b]``, moves the n points {i z / n}, where n is the largest
  prime <= ``sample_count // batch_count`` and z is a generating vector from
  fast component-by-component search (Nuyens & Cools, Math. Comp. 75, 903
  (2006)).  The points are tent-transformed (Hickernell 2002) and mapped to
  the envelope by the inverse normal CDF.  The error is the standard error
  of the shift means (L'Ecuyer & Lemieux 2000).
* ``"auto"``: Gauss-Hermite for dim <= 3, the lattice above.

The two random rules are nested across dimension: with the same seed, the
dim-m node set is the first m columns of the dim-D node set for every
m <= D.  The seed does not depend on dim, the first m of D uniform or normal
draws are the m draws, and component-by-component search fixes z_1..z_m
before it looks at z_{m+1}.  So one dim-D call can integrate functions of
fewer momenta on exactly the nodes their own calls would use.

The random rules' batches (shifts) are independent, so they run on
min(usable CPUs, ``batch_count``) threads: the calling thread and helpers
from one pool that a forked child does not inherit.  Each batch draws its
own nodes from its own seed and its mean is kept in batch order, and
:func:`homsr.coincidence._bracket` gives a row the same bits wherever it
sits in a call, so no result depends on the number of threads.
"""

from __future__ import annotations

import functools
import math
import operator
import os
import threading
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri

from .optics import PsfModel

_GH_NODES = {1: 64, 2: 48, 3: 40}

_pool = None  # threads that help the calling thread through the batches, started by the first call that needs them
_helper = threading.local()  # ``busy`` is set on the pool's threads


def _drop_pool():
    global _pool
    _pool = None  # a forked child has none of the parent's threads; its first call starts its own


os.register_at_fork(after_in_child=_drop_pool)


def _each_batch(run, count: int) -> list:
    """[run(b) for b in range(count)] on min(usable CPUs, count) threads: the calling one and pool helpers.

    Each thread takes the next b when it finishes one.  Serial on one CPU and on a helper, whose nested call
    would otherwise wait on its own pool.  An exception is raised once every thread has stopped.
    """
    global _pool
    cpus = len(os.sched_getaffinity(0))
    helpers = min(cpus, count) - 1
    if helpers < 1 or getattr(_helper, "busy", False):
        return [run(b) for b in range(count)]
    if _pool is None:
        from concurrent.futures import ThreadPoolExecutor  # here, not at import: it loads logging, ~4 ms

        _pool = ThreadPoolExecutor(cpus - 1, "homsr-batch", initializer=setattr, initargs=(_helper, "busy", True))
    results, todo = [None] * count, iter(range(count))

    def drain():
        for b in todo:  # next() on a range iterator is atomic under the GIL: each b goes to one thread
            results[b] = run(b)

    running = [_pool.submit(drain) for _ in range(helpers)]
    try:
        drain()
    finally:
        for _ in todo:  # after an error here, hand out no more batches
            pass
        for future in running:
            future.result()
    return results


@dataclass(frozen=True)
class QuadratureSpec:
    """Integration controls for :func:`envelope_expectation` (see the module docstring).

    Under Monte Carlo ``sample_count`` draws are split into ``batch_count``
    equal batches.  Under the lattice ``batch_count`` is the number of
    random shifts, each over the largest prime n <= ``sample_count //
    batch_count`` points, so at most ``sample_count`` points are used.
    """

    scheme: str = "auto"
    nodes_per_dim: int | None = None
    sample_count: int = 200_000
    seed: int = 20240801
    relative_error_target: float = 0.05
    batch_count: int = 20

    def __post_init__(self):
        if self.nodes_per_dim is not None and operator.index(self.nodes_per_dim) < 8:
            raise ValueError("nodes_per_dim must be >= 8")
        if operator.index(self.sample_count) < 10_000:
            raise ValueError("sample_count must be >= 10^4")
        if operator.index(self.batch_count) < 2:
            raise ValueError("batch_count must be >= 2")
        if not (math.isfinite(self.relative_error_target) and self.relative_error_target > 0):
            raise ValueError(f"relative_error_target must be finite and > 0, got {self.relative_error_target!r}")


def envelope_gh_nodes(psf: PsfModel, dim: int, nodes_per_dim: int):
    """Tensor Gauss-Hermite rule for E_env[f] = sum_i w_i f(k_i).

    Returns ``(k, w)`` with ``k`` of shape ``(nodes_per_dim**dim, dim)``, column-major.
    """
    x, wx = np.polynomial.hermite.hermgauss(nodes_per_dim)
    k = np.stack(np.meshgrid(*([np.sqrt(2.0) * psf.sigma_k * x] * dim), indexing="ij"))
    w = np.prod(np.meshgrid(*([wx / np.sqrt(np.pi)] * dim), indexing="ij"), axis=0)
    return k.reshape(dim, -1).T, w.ravel()


def envelope_mc_nodes(psf: PsfModel, dim: int, count: int, rng: np.random.Generator):
    """``count`` iid envelope draws, column-major (count, dim), weights 1/count, one coordinate at a time."""
    return (rng.standard_normal((dim, count)) * psf.sigma_k).T


@functools.lru_cache(maxsize=None)
def _largest_prime_at_most(m: int) -> int:
    for n in range(m, 1, -1):
        if all(n % p for p in range(2, math.isqrt(n) + 1)):
            return n
    raise ValueError(f"a lattice needs a prime number of points per shift, but sample_count // batch_count = {m}")


@functools.lru_cache(maxsize=None)
def lattice_generating_vector(n: int, dim: int) -> np.ndarray:
    """Generating vector z for an n-point rank-1 lattice in ``dim`` dimensions, n prime.

    Fast component-by-component search: each z_j minimises the P_2 criterion
    with product weights 0.9^j given z_1 = 1, ..., z_{j-1}.  Ordering both
    the candidates and the points by powers of a primitive root g makes the
    table of omega(k z / n) circulant, so each component costs one FFT.
    """
    factors = [p for p in range(2, n) if (n - 1) % p == 0 and all(p % q for q in range(2, math.isqrt(p) + 1))]
    g = next(g for g in range(1, n) if all(pow(g, (n - 1) // p, n) != 1 for p in factors))
    powers = np.array([pow(g, m, n) for m in range(n - 1)])  # k = g^m over k = 1..n-1
    x = powers / n
    omega = 2.0 * np.pi ** 2 * (x * x - x + 1.0 / 6.0)  # 2 pi^2 B_2(x)
    omega_hat = np.conj(np.fft.fft(omega))
    z = [1]
    prod = 1.0 + 0.9 * omega  # product kernel over the chosen components, at k = g^m
    for j in range(2, dim + 1):
        # score[i] = sum_m prod[m] omega(g^(m-i)) is the criterion for z = g^(-i)
        score = np.fft.ifft(np.fft.fft(prod) * omega_hat).real
        i = int(np.argmin(score))
        z.append(pow(g, (n - 1 - i) % (n - 1), n))
        prod *= 1.0 + 0.9 ** j * np.roll(omega, i)
    z = np.array(z)
    z.flags.writeable = False  # shared by every caller through the cache
    return z


def envelope_lattice_nodes(psf: PsfModel, dim: int, count: int, rng: np.random.Generator):
    """One randomly shifted n-point lattice, column-major (n, dim), n the largest prime <= ``count`` (weights 1/n)."""
    n = _largest_prime_at_most(count)
    x = np.outer(lattice_generating_vector(n, dim) / n, np.arange(n)).T
    x += rng.random(dim)
    x -= np.floor(x)
    x *= 2.0
    x -= 1.0
    np.abs(x, out=x)
    np.subtract(1.0, x, out=x)  # tent transform 1 - |2x - 1|
    ndtri(x, out=x)
    x *= psf.sigma_k
    return x


def resolved_scheme(quad: QuadratureSpec, dim: int) -> str:
    """The scheme :func:`envelope_expectation` runs over ``dim`` momenta, with "auto" resolved."""
    if quad.scheme == "auto":
        return "gauss_hermite_tensor" if dim <= 3 else "rank1_lattice"
    return quad.scheme


def envelope_expectation(f, dim: int, psf: PsfModel, quad: QuadratureSpec):
    """E_env[f(k)] over ``dim`` envelope momenta; returns ``(value, error, scheme)``.

    ``f`` maps momenta of shape (N, dim), column-major, to values of shape
    (N, ...); value and error have the trailing shape, and ``scheme`` is the
    one used after resolving "auto".  Under the random rules ``f`` is called
    once per batch, from several threads at once when more than one CPU is
    usable; the result is the same on one thread as on many if ``f``'s rows
    depend only on their own momenta.
    """
    scheme = resolved_scheme(quad, dim)
    if scheme == "gauss_hermite_tensor":
        def rule(nodes):
            k, w = envelope_gh_nodes(psf, dim, nodes)
            return w @ f(k)

        n = quad.nodes_per_dim or _GH_NODES.get(dim, 24)
        if n ** dim > 10 ** 6:  # refused before any node array is built
            raise ValueError(f"a {n}^{dim} tensor Gauss-Hermite rule needs {n ** dim} nodes, above 10^6; use quad=auto")
        value = rule(n)
        return value, np.abs(value - rule(int(0.75 * n))), scheme

    nodes = {"monte_carlo_importance": envelope_mc_nodes, "rank1_lattice": envelope_lattice_nodes}.get(scheme)
    if nodes is None:
        raise ValueError(f"unknown quadrature scheme: {quad.scheme}")
    batch = quad.sample_count // quad.batch_count
    if scheme == "rank1_lattice":  # fill the lattice's caches before the batches run: lru_cache does not lock
        lattice_generating_vector(_largest_prime_at_most(batch), dim)
    means = np.array(_each_batch(
        lambda b: f(nodes(psf, dim, batch, np.random.default_rng([quad.seed, b]))).mean(axis=0), quad.batch_count
    ))
    return means.mean(axis=0), means.std(axis=0, ddof=1) / math.sqrt(quad.batch_count), scheme
