"""Unit tests for the envelope-expectation integrator.

Oracles: the Gaussian moments E[k^(2p)] = (2p-1)!! sigma_k^(2p), which the
default Gauss-Hermite rules integrate exactly, the characteristic function
E[prod_a cos(k_a)] = exp(-dim sigma_k^2 / 2), the projection property of a
rank-1 lattice, the reproducibility of the seeded Monte Carlo batches
and lattice shifts, and the nesting of both random rules across dimension.
"""

import math
import os
import subprocess
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import homsr
from homsr import quadrature
from homsr.optics import PsfModel
from homsr.quadrature import (
    QuadratureSpec,
    envelope_expectation,
    envelope_lattice_nodes,
    envelope_mc_nodes,
    lattice_generating_vector,
)

PSF = PsfModel()
GH = QuadratureSpec(scheme="gauss_hermite_tensor")
MC = QuadratureSpec(scheme="monte_carlo_importance")
LATTICE = QuadratureSpec(scheme="rank1_lattice")


def double_factorial(n):
    return math.prod(range(n, 0, -2))


@settings(derandomize=True, deadline=None)
@given(
    powers=st.lists(st.integers(0, 4), min_size=1, max_size=3),
    sigma_x=st.sampled_from([0.5, 1.0, 2.0]),
)
def test_gh_integrates_even_monomials_exactly(powers, sigma_x):
    psf = PsfModel(sigma_x=sigma_x)
    p = np.array(powers)
    value, error, scheme = envelope_expectation(lambda k: np.prod(k ** (2 * p), axis=1), p.size, psf, GH)
    exact = math.prod(double_factorial(2 * q - 1) * psf.sigma_k ** (2 * q) for q in powers)
    assert scheme == "gauss_hermite_tensor"
    assert value == pytest.approx(exact, rel=1e-12)
    assert error <= 1e-12 * exact


@pytest.mark.parametrize("quad", [GH, MC, LATTICE], ids=["gh", "mc", "lattice"])
def test_vector_f_matches_scalar_calls(quad):
    def f(k):
        return np.stack([np.cos(k.sum(axis=1)), k[:, 0] ** 2, np.abs(k[:, 1])], axis=1)

    value, error, _ = envelope_expectation(f, 2, PSF, quad)
    assert value.shape == error.shape == (3,)
    for i in range(3):
        v, e, _ = envelope_expectation(lambda k: f(k)[:, i], 2, PSF, quad)
        assert value[i] == pytest.approx(v, rel=1e-13, abs=1e-14)
        assert error[i] == pytest.approx(e, rel=1e-9, abs=1e-14)


def test_mc_is_reproducible_and_unbiased():
    def f(k):
        return k[:, 2] ** 2

    first = envelope_expectation(f, 4, PSF, MC)
    assert first == envelope_expectation(f, 4, PSF, MC)
    value, error, scheme = first
    assert scheme == "monte_carlo_importance"
    assert 0 < error
    assert abs(value - PSF.sigma_k ** 2) < 5 * error


@pytest.mark.parametrize("dim", [1, 2, 3, 4, 5])
def test_auto_picks_gh_up_to_three_dimensions(dim):
    _, _, scheme = envelope_expectation(lambda k: k[:, 0] ** 2, dim, PSF, QuadratureSpec())
    assert scheme == ("gauss_hermite_tensor" if dim <= 3 else "rank1_lattice")


@pytest.mark.parametrize("n, dim", [(9973, 7), (1009, 12), (101, 4)])
def test_lattice_vector_visits_every_point_once_per_axis(n, dim):
    z = lattice_generating_vector(n, dim)
    assert z.shape == (dim,) and z[0] == 1
    assert all(math.gcd(int(zj), n) == 1 for zj in z)
    for zj in z:
        assert np.array_equal(np.sort(np.arange(n) * zj % n), np.arange(n))


def test_lattice_is_reproducible():
    def f(k):
        return np.cos(k).prod(axis=1)

    first = envelope_expectation(f, 5, PSF, LATTICE)
    assert first == envelope_expectation(f, 5, PSF, LATTICE)
    assert first[2] == "rank1_lattice"


@pytest.mark.parametrize("dim", [4, 5, 6, 7])
def test_lattice_cosine_product_beats_mc_tenfold(dim):
    def f(k):
        return np.cos(k).prod(axis=1)

    exact = math.exp(-0.5 * dim * PSF.sigma_k ** 2)
    value, error, _ = envelope_expectation(f, dim, PSF, LATTICE)
    _, mc_error, _ = envelope_expectation(f, dim, PSF, MC)
    assert 0 < error <= mc_error / 10
    assert abs(value - exact) < 5 * error


@pytest.mark.parametrize("nodes, count", [(envelope_lattice_nodes, 1000), (envelope_mc_nodes, 1000)],
                         ids=["lattice", "mc"])
def test_random_rules_nest_across_dimension(nodes, count):
    # one seed serves every dim, so a dim-12 call holds each smaller call's nodes in its first columns
    wide = nodes(PSF, 12, count, np.random.default_rng([5, 3]))
    for m in range(1, 13):
        narrow = nodes(PSF, m, count, np.random.default_rng([5, 3]))
        assert narrow.shape == wide[:, :m].shape and (narrow == wide[:, :m]).all()


@pytest.mark.parametrize("quad, dim, points", [
    (GH, 2, 48 ** 2 + 36 ** 2),
    (QuadratureSpec(nodes_per_dim=10), 3, 10 ** 3 + 7 ** 3),
    (LATTICE, 5, 20 * 9973),
    (QuadratureSpec(sample_count=20_000), 4, 20 * 997),
    (MC, 5, 200_000),
    (QuadratureSpec(scheme="monte_carlo_importance", sample_count=10_001, batch_count=7), 3, 7 * 1428),
])
def test_rule_points_counts_the_integrand_rows(quad, dim, points):
    rows = []

    def f(k):
        rows.append(len(k))
        assert k.flags.f_contiguous  # column-major: each momentum's column contiguous, as the kernel reads them
        return k[:, 0]

    envelope_expectation(f, dim, PSF, quad)
    assert sum(rows) == points


def test_lattice_needs_a_prime_per_shift():
    with pytest.raises(ValueError, match="prime"):
        envelope_expectation(lambda k: k[:, 0], 4, PSF,
                             QuadratureSpec(scheme="rank1_lattice", sample_count=10_000, batch_count=10_000))


def test_unknown_scheme_rejected():
    with pytest.raises(ValueError, match="unknown quadrature scheme"):
        envelope_expectation(lambda k: k[:, 0], 1, PSF, QuadratureSpec(scheme="simpson"))


@pytest.mark.parametrize("target", [0.0, -0.05, math.nan, math.inf])
def test_relative_error_target_must_be_finite_and_positive(target):
    with pytest.raises(ValueError, match="relative_error_target"):
        QuadratureSpec(relative_error_target=target)


@pytest.mark.parametrize("count", [{"batch_count": 2.5}, {"sample_count": 100000.0}, {"nodes_per_dim": 8.5}],
                         ids=["batch_count", "sample_count", "nodes_per_dim"])
def test_counts_must_be_integers(count):
    with pytest.raises(TypeError, match="integer"):
        QuadratureSpec(**count)


def test_tensor_gh_refuses_a_rule_above_a_million_nodes():
    def f(k):
        raise AssertionError("no node may be evaluated")

    with pytest.raises(ValueError, match=r"needs 191102976 nodes, above 10\^6; use quad=auto"):
        envelope_expectation(f, 6, PSF, GH)
    value, _, _ = envelope_expectation(lambda k: k[:, 3] ** 2, 4, PSF, GH)  # 24^4 nodes stay allowed
    assert value == pytest.approx(PSF.sigma_k ** 2, rel=1e-12)


def cpus(monkeypatch, count):
    """Make the batches see ``count`` usable CPUs: one runs them on the calling thread, two adds a helper."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)))


@pytest.mark.parametrize("quad", [LATTICE, MC], ids=["lattice", "mc"])
def test_batches_give_the_same_result_on_one_thread_and_two(quad, monkeypatch):
    def f(k):
        if threading.current_thread() is not threading.main_thread():
            helped.set()
        elif count == 2:
            assert helped.wait(10)  # the helper takes a batch before the calling thread runs out
        return np.column_stack([np.cos(k).prod(axis=1), (k * k).sum(axis=1)])

    results = []
    for count in (1, 2):
        cpus(monkeypatch, count)
        helped = threading.Event()
        results.append(envelope_expectation(f, 5, PSF, quad))
        assert helped.is_set() == (count == 2)
    (one, one_error, _), (two, two_error, _) = results
    assert np.array_equal(one, two) and np.array_equal(one_error, two_error)


def test_an_error_in_a_helper_reaches_the_caller(monkeypatch):
    cpus(monkeypatch, 2)
    helped = threading.Event()

    def f(k):
        if threading.current_thread() is threading.main_thread():
            assert helped.wait(10)
            return k[:, 0]
        helped.set()
        raise KeyError("batch failed on a helper")

    with pytest.raises(KeyError, match="batch failed on a helper"):
        envelope_expectation(f, 4, PSF, QuadratureSpec(scheme="rank1_lattice", sample_count=20_000))
    value, _, _ = envelope_expectation(lambda k: k[:, 0] ** 2, 4, PSF, LATTICE)  # the pool still serves
    assert value == pytest.approx(PSF.sigma_k ** 2, rel=1e-3)


def test_every_batch_runs_once_on_more_threads_than_cores(monkeypatch):
    # seven helpers and a short switch interval: a batch handed out twice, or lost, shows in the calls
    monkeypatch.setattr(quadrature, "_pool", None)
    cpus(monkeypatch, 8)
    calls, results = [], []

    def run(b):
        calls.append(b)
        for _ in range(100):  # Python-level work, at whose steps the interpreter switches threads
            pass
        return b * b

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        caller = threading.Thread(target=lambda: results.extend(quadrature._each_batch(run, 2000)))
        caller.start()
        caller.join(60)
        assert not caller.is_alive()
    finally:
        sys.setswitchinterval(interval)
        if quadrature._pool is not None:
            quadrature._pool.shutdown()
    assert sorted(calls) == list(range(2000)) and results == [b * b for b in range(2000)]


def test_a_cold_lattice_is_searched_once(monkeypatch):
    # lru_cache does not lock: the calling thread fills it before helpers start, so a cold key misses once
    cpus(monkeypatch, 2)
    quad = QuadratureSpec(scheme="rank1_lattice", sample_count=20 * 1213, seed=3)
    misses = lattice_generating_vector.cache_info().misses
    envelope_expectation(lambda k: k[:, 0], 11, PSF, quad)
    assert lattice_generating_vector.cache_info().misses == misses + 1


def test_a_forked_child_runs_its_own_batches():
    # the child has none of the parent's helper threads; with the parent's pool it would wait forever
    src = os.path.dirname(os.path.dirname(os.path.abspath(homsr.__file__)))
    probe = f"""
import os, signal, sys
sys.path.insert(0, {src!r})
os.sched_getaffinity = lambda pid: {{0, 1}}
import homsr
scene, psf, quad = homsr.SourceScene(1.0, 1.5), homsr.PsfModel(), homsr.QuadratureSpec(sample_count=20_000)
parent = homsr.fisher_L(scene, psf, 4, quad)
pid = os.fork()
if pid == 0:
    signal.alarm(30)  # a hung child ends itself
    os._exit(0 if homsr.fisher_L(scene, psf, 4, quad) == parent else 1)
print(os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]))
"""
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, timeout=90, check=True)
    assert done.stdout.strip() == "0"
