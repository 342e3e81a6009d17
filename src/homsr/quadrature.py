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
  the envelope by the inverse normal CDF (:func:`_ndtri`, cephes' ``ndtri``
  in the package, no scipy).  The error is the standard error of the shift
  means (L'Ecuyer & Lemieux 2000).
* ``"auto"``: Gauss-Hermite for dim <= 3, the lattice above; :mod:`homsr.fisher`
  reads it as its own route table (:class:`QuadratureSpec`).

The two random rules are nested across dimension: with the same seed, the
dim-m node set is the first m columns of the dim-D node set for every
m <= D.  The seed does not depend on dim, the first m of D uniform or normal
draws are the m draws, and component-by-component search fixes z_1..z_m
before it looks at z_{m+1}.  So one dim-D call can integrate functions of
fewer momenta on exactly the nodes their own calls would use.

The random rules' batches (shifts) are independent, so they run in
P = min(usable CPUs, ``batch_count``) processes, the caller and helpers that
it forks and reaps, process i running batches i, i + P, ...
(:func:`_each_batch`; ``os.fork`` needs Linux, as
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

from .optics import PsfModel

_GH_NODES = {1: 64, 2: 48, 3: 40}
_SCHEMES = ("auto", "gauss_hermite_tensor", "monte_carlo_importance", "rank1_lattice")


def _each_batch(run, count: int) -> list:
    """[run(b) for b in range(count)] in P = min(usable CPUs, count) processes: the caller and helpers it forks.

    Process i runs batches i, i + P, i + 2P, ...: the caller runs share 0 once it has forked the helpers, which
    suits batches of equal cost.  A helper, which unlike a thread shares no interpreter lock, pickles the list of
    its share's results or its exception back through its own pipe and ends with ``os._exit``; the caller raises
    that exception, or ``RuntimeError`` for a helper without a readable reply, once it has reaped every helper,
    and kills them on an error of its own.  Serial on one CPU or while another thread is alive, which a forked
    child would lose with any lock it held.  numpy's OpenBLAS worker (2 OS threads after ``import homsr``),
    started at import and at each BLAS call, is stopped by its fork handler, so the caller has one OS thread right
    after each fork: the count CPython >= 3.12 reads to warn.  Fork, exit and reap: 2.0-2.9 ms a call (one helper).
    """
    processes = min(len(os.sched_getaffinity(0)), count)
    if processes < 2 or threading.active_count() > 1:
        return [run(b) for b in range(count)]
    results, children, replies = [None] * count, [], []
    try:
        for i in range(1, processes):
            reader, writer = os.pipe()
            if (pid := os.fork()) == 0:
                try:
                    try:
                        reply = [run(b) for b in range(i, count, processes)]
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
        results[::processes] = [run(b) for b in range(0, count, processes)]
    except BaseException:
        for pid, _ in children:  # their batches are not wanted
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        for pid, reader in children:
            with os.fdopen(reader, "rb") as pipe:
                replies.append((pid, pipe.read(), os.waitpid(pid, 0)[1]))
    for i, (pid, message, status) in enumerate(replies, 1):
        try:
            reply = pickle.loads(message)
        except Exception:  # it died before or while it wrote
            raise RuntimeError(f"batch helper {pid} ended without readable results "
                               f"(exit code {os.waitstatus_to_exitcode(status)})") from None
        if isinstance(reply, BaseException):
            raise reply
        results[i::processes] = reply
    return results


@dataclass(frozen=True)
class QuadratureSpec:
    """Integration controls for :func:`envelope_expectation`; the module docstring gives each scheme's rule.

    ``"auto"`` reads two ways.  A bare :func:`envelope_expectation` runs Gauss-Hermite up to dim 3 and the lattice
    above.  :mod:`homsr.fisher` reads it as its route table: F_1 in closed form, F_2 from the two-photon hierarchy
    and every other order on the lattice, so ``fisher_L(scene, psf, 3)`` runs on the lattice.
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


_EXP_M2 = 0.13533528323661269189  # exp(-2): the central branch's edge
_NDTRI = (  # cephes ndtri's numerator and monic denominator (leading 1 left out), central, tail, far tail
    ((-5.99633501014107895267e1, 9.80010754185999661536e1, -5.66762857469070293439e1, 1.39312609387279679503e1,
      -1.23916583867381258016e0),
     (1.95448858338141759834e0, 4.67627912898881538453e0, 8.63602421390890590575e1, -2.25462687854119370527e2,
      2.00260212380060660359e2, -8.20372256168333339912e1, 1.59056225126211695515e1, -1.18331621121330003142e0)),
    ((4.05544892305962419923e0, 3.15251094599893866154e1, 5.71628192246421288162e1, 4.40805073893200834700e1,
      1.46849561928858024014e1, 2.18663306850790267539e0, -1.40256079171354495875e-1, -3.50424626827848203418e-2,
      -8.57456785154685413611e-4),
     (1.57799883256466749731e1, 4.53907635128879210584e1, 4.13172038254672030440e1, 1.50425385692907503408e1,
      2.50464946208309415979e0, -1.42182922854787788574e-1, -3.80806407691578277194e-2, -9.33259480895457427372e-4)),
    ((3.23774891776946035970e0, 6.91522889068984211695e0, 3.93881025292474443415e0, 1.33303460815807542389e0,
      2.01485389549179081538e-1, 1.23716634817820021358e-2, 3.01581553508235416007e-4, 2.65806974686737550832e-6,
      6.23974539184983293730e-9),
     (6.02427039364742014255e0, 3.67983563856160859403e0, 1.37702099489081330271e0, 2.16236993594496635890e-1,
      1.34204006088543189037e-2, 3.28014464682127739104e-4, 2.89247864745380683936e-6, 6.79019408009981274425e-9)),
)


def _rational(z, p, q):
    """z p(z) / q(z) for a monic q given without its leading 1: cephes' Horner steps, in place, in its order."""
    num, den = p[0] * z + p[1], z + q[0]
    for acc, coefs in ((num, p[2:]), (den, q[1:])):
        for c in coefs:
            acc *= z
            acc += c
    return z * num / den


def _ndtri(y: np.ndarray) -> np.ndarray:
    """Phi^-1(y) in place for a C- or Fortran-contiguous y in [0, 1], -inf at 0 and +inf at 1; returns ``y``.

    Cephes' ``ndtri`` (S. Moshier), which ``scipy.special.ndtri`` runs, step for step: a rational in (y - 1/2)^2 for
    exp(-2) < y <= 1 - exp(-2), else x - log(x)/x less a rational in 1/x, x = sqrt(-2 log min(y, 1 - y)), one for
    x < 8 and one beyond.  Central values carry scipy's bits, tails may differ by a few ulp (numpy's ``log``).
    """
    v = y.ravel(order="K")  # y's memory in its own order, so each mask and gather runs along it
    upper = v > 1.0 - _EXP_M2
    np.subtract(1.0, v, out=v, where=upper)
    central, end = v > _EXP_M2, v == 0.0
    tail = ~(central | end)
    c = v[central] - 0.5
    v[central] = (c + c * _rational(c * c, *_NDTRI[0])) * 2.50662827463100050242  # times sqrt(2 pi)
    x = np.sqrt(-2.0 * np.log(v[tail]))
    z, far = 1.0 / x, x >= 8.0
    x1 = _rational(z, *_NDTRI[1])
    x1[far] = _rational(z[far], *_NDTRI[2])
    v[tail], v[end] = x - np.log(x) / x - x1, np.inf
    np.negative(v, out=v, where=~(upper | central))  # the lower tail
    return y


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
    return np.multiply(_ndtri(x), psf.sigma_k, out=x)


def _rule(quad: QuadratureSpec, dim: int) -> tuple[str, int]:
    """The scheme :func:`envelope_expectation` runs over ``dim`` momenta, "auto" resolved, and its size: nodes per
    axis under Gauss-Hermite, else points per batch (shift).  Refuses a tensor rule above 10^6 nodes."""
    scheme = quad.scheme if quad.scheme != "auto" else "gauss_hermite_tensor" if dim <= 3 else "rank1_lattice"
    if scheme == "gauss_hermite_tensor":
        n = quad.nodes_per_dim or _GH_NODES.get(dim, 24)
        if n ** dim > 10 ** 6:  # refused before any node array is built
            raise ValueError(f"a {n}^{dim} tensor Gauss-Hermite rule needs {n ** dim} nodes, above 10^6; use quad=auto "
                             "(--quad auto on the command line)")
        return scheme, n
    batch = quad.sample_count // quad.batch_count
    return scheme, _largest_prime_at_most(batch) if scheme == "rank1_lattice" else batch


def rule_points(quad: QuadratureSpec, dim: int) -> int:
    """The integrand rows :func:`envelope_expectation` takes over ``dim`` momenta; raises where it does."""
    scheme, n = _rule(quad, dim)
    return n ** dim + int(0.75 * n) ** dim if scheme == "gauss_hermite_tensor" else quad.batch_count * n


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

    scheme, n = _rule(quad, dim)
    if scheme == "gauss_hermite_tensor":
        def rule(nodes):
            k, w = envelope_gh_nodes(psf, dim, nodes)
            return (columns(k) * w).sum(axis=-1)

        value = rule(n)
        return value, np.abs(value - rule(int(0.75 * n))), scheme

    nodes = {"monte_carlo_importance": envelope_mc_nodes, "rank1_lattice": envelope_lattice_nodes}[scheme]
    if scheme == "rank1_lattice":  # fill the generating vector's cache before the helpers fork, or each would search
        lattice_generating_vector(n, dim)
    means = np.stack(_each_batch(  # (..., batches): each column's batch means contiguous
        lambda b: columns(nodes(psf, dim, n, np.random.default_rng([quad.seed, b]))).mean(axis=-1),
        quad.batch_count), axis=-1)
    return means.mean(axis=-1), means.std(axis=-1, ddof=1) / math.sqrt(quad.batch_count), scheme
