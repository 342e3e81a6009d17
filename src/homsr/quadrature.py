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

The random rules' batches (shifts) are independent, so they run in
min(usable CPUs, ``batch_count``) processes, the caller and helpers that it
forks and reaps (:func:`_each_batch`; ``os.fork`` needs Linux, as
``os.sched_getaffinity`` does); OpenBLAS's fork handler stops its worker
threads, so the caller has one OS thread right after each fork.  Each batch
draws its nodes from its own seed, its mean is kept in batch order, and
:func:`homsr.coincidence._bracket` gives a row the same bits wherever it
sits in a call, without BLAS, so no result depends on the number of
processes.
"""

from __future__ import annotations

import functools
import math
import numbers
import operator
import os
import pickle
import signal
import threading
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri

from .optics import PsfModel

_GH_NODES = {1: 64, 2: 48, 3: 40}
_SCHEMES = ("auto", "gauss_hermite_tensor", "monte_carlo_importance", "rank1_lattice")


def _each_batch(run, count: int) -> list:
    """[run(b) for b in range(count)] in min(usable CPUs, count) processes: the caller and helpers it forks.

    Each process takes the next b when it finishes one.  A helper, which unlike a thread shares no interpreter
    lock, pickles {b: run(b)} or its exception back through a pipe and ends with ``os._exit``; the caller raises
    that exception, or ``RuntimeError`` for a helper without a readable reply, once it has reaped every helper,
    and kills them on an error of its own.  Serial on one CPU or while another thread is alive, which a forked
    child would lose with any lock it held.  OpenBLAS's workers, which numpy and scipy start at import and at
    each BLAS call, are stopped by its own fork handler, so the caller has one OS thread right after each fork:
    the count CPython >= 3.12 reads to warn.  Fork, exit and reap cost 3.2-3.8 ms a call (one helper, 2 vCPU).
    """
    helpers = min(len(os.sched_getaffinity(0)), count) - 1
    if helpers < 1 or threading.active_count() > 1:
        return [run(b) for b in range(count)]
    todo, children, replies = os.pipe(), [], []  # todo holds the next b: taken by a read, b + 1 put back

    def drain(results):
        while (b := int.from_bytes(os.read(todo[0], 4), "little")) < count:
            os.write(todo[1], (b + 1).to_bytes(4, "little"))
            results[b] = run(b)
        os.write(todo[1], b.to_bytes(4, "little"))  # count: every other process stops too
        return results

    os.write(todo[1], bytes(4))
    try:
        for _ in range(helpers):
            reader, writer = os.pipe()
            if (pid := os.fork()) == 0:
                try:
                    try:
                        reply = drain({})
                    except BaseException as exc:
                        reply = exc
                    try:
                        message = pickle.dumps(reply)
                    except Exception as exc:  # an unpicklable exception or result reaches the caller as text
                        message = pickle.dumps(RuntimeError(f"helper could not send {reply!r:.300}: {exc}"))
                    with os.fdopen(writer, "wb") as pipe:
                        pipe.write(message)
                finally:
                    os._exit(0)
            os.close(writer)
            children.append((pid, reader))
        results = drain({})
    except BaseException:
        for pid, _ in children:  # their batches are not wanted
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        for pid, reader in children:
            with os.fdopen(reader, "rb") as pipe:
                replies.append((pid, pipe.read(), os.waitpid(pid, 0)[1]))
        os.close(todo[0])
        os.close(todo[1])
    for pid, message, status in replies:
        try:
            reply = pickle.loads(message)
        except Exception:  # it died before or while it wrote
            raise RuntimeError(f"batch helper {pid} ended without readable results "
                               f"(exit code {os.waitstatus_to_exitcode(status)})") from None
        if isinstance(reply, BaseException):
            raise reply
        results.update(reply)
    return [results[b] for b in range(count)]


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
        if self.scheme not in _SCHEMES:
            raise ValueError(f"unknown quadrature scheme: {self.scheme!r}, use one of {', '.join(_SCHEMES)}")
        # above 370 nodes numpy's Gauss-Hermite weights underflow: the rule gives 0.0, above 400 NaN
        if self.nodes_per_dim is not None and not 8 <= operator.index(self.nodes_per_dim) <= 370:
            raise ValueError(f"nodes_per_dim must lie within 8..370, got {self.nodes_per_dim}")
        if operator.index(self.sample_count) < 10_000:
            raise ValueError("sample_count must be >= 10^4")
        if operator.index(self.batch_count) < 2:
            raise ValueError("batch_count must be >= 2")
        if self.sample_count // self.batch_count < 2:
            raise ValueError("sample_count // batch_count must be >= 2: a lattice shift needs a prime number of "
                             f"points and a Monte Carlo batch two draws, got {self.sample_count // self.batch_count}")
        if not isinstance(self.seed, numbers.Integral) or self.seed < 0:
            raise ValueError(f"seed must be an integer >= 0, got {self.seed!r}")
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
    """The largest prime n <= m, for m >= 2."""
    return next(n for n in range(m, 1, -1) if all(n % p for p in range(2, math.isqrt(n) + 1)))


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


def rule_points(quad: QuadratureSpec, dim: int) -> int:
    """The integrand rows :func:`envelope_expectation` takes over ``dim`` momenta."""
    scheme, batch = resolved_scheme(quad, dim), quad.sample_count // quad.batch_count
    if scheme == "gauss_hermite_tensor":
        n = quad.nodes_per_dim or _GH_NODES.get(dim, 24)
        return n ** dim + int(0.75 * n) ** dim
    return quad.batch_count * (_largest_prime_at_most(batch) if scheme == "rank1_lattice" else batch)


def envelope_expectation(f, dim: int, psf: PsfModel, quad: QuadratureSpec):
    """E_env[f(k)] over ``dim`` envelope momenta; returns ``(value, error, scheme)``.

    ``f`` maps momenta of shape (N, dim), column-major, to values of shape (N, ...); value and error have
    the trailing shape, each column's those of integrating it alone (a column-major ``f`` is not copied),
    and ``scheme`` is the one used after resolving "auto".  Under the random rules ``f`` is called once
    per batch, in forked helpers too when more than one CPU is usable, so its side effects may not reach
    the caller (:func:`rule_points` counts its rows); the result is the same in one process as in many if
    ``f``'s rows depend only on their own momenta.
    """
    def columns(k):  # f(k) with the node axis last and contiguous
        return np.ascontiguousarray(np.moveaxis(f(k), 0, -1))

    scheme = resolved_scheme(quad, dim)
    if scheme == "gauss_hermite_tensor":
        def rule(nodes):
            k, w = envelope_gh_nodes(psf, dim, nodes)
            return (columns(k) * w).sum(axis=-1)

        n = quad.nodes_per_dim or _GH_NODES.get(dim, 24)
        if n ** dim > 10 ** 6:  # refused before any node array is built
            raise ValueError(f"a {n}^{dim} tensor Gauss-Hermite rule needs {n ** dim} nodes, above 10^6; use quad=auto")
        value = rule(n)
        return value, np.abs(value - rule(int(0.75 * n))), scheme

    nodes = {"monte_carlo_importance": envelope_mc_nodes, "rank1_lattice": envelope_lattice_nodes}[scheme]
    batch = quad.sample_count // quad.batch_count
    if scheme == "rank1_lattice":  # fill the lattice's caches before the helpers fork, or each would search
        lattice_generating_vector(_largest_prime_at_most(batch), dim)
    means = np.stack(_each_batch(  # (..., batches): each column's batch means contiguous
        lambda b: columns(nodes(psf, dim, batch, np.random.default_rng([quad.seed, b]))).mean(axis=-1),
        quad.batch_count), axis=-1)
    return means.mean(axis=-1), means.std(axis=-1, ddof=1) / math.sqrt(quad.batch_count), scheme
