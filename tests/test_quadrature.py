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
import time

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


@pytest.mark.parametrize("quad, dim", [(GH, 1), (GH, 2), (GH, 3)] + [
    (QuadratureSpec(scheme=scheme, sample_count=20_000), dim)
    for scheme in ("rank1_lattice", "monte_carlo_importance") for dim in (1, 2, 3, 4)
], ids=lambda p: p.scheme if isinstance(p, QuadratureSpec) else f"dim{p}")
def test_a_column_integrates_as_it_does_alone(quad, dim):
    # a column-major integrand's columns are reduced one by one, in the order of a 1-D integrand
    def f1(k):
        return np.exp(k.sum(axis=1))

    def f(k):
        a, b = f1(k), np.abs(k).prod(axis=1)
        return np.array([a, b, a + b]).T

    value, error, _ = envelope_expectation(f, dim, PSF, quad)
    alone, alone_error, _ = envelope_expectation(f1, dim, PSF, quad)
    assert value[0] == alone and error[0] == alone_error


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
def test_rule_points_counts_the_integrand_rows(quad, dim, points, monkeypatch):
    cpus(monkeypatch, 1)  # every batch in this process, where the closure can count its rows
    assert quadrature.rule_points(quad, dim) == points
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


def test_unknown_scheme_rejected_when_the_spec_is_built():
    with pytest.raises(ValueError, match="unknown quadrature scheme"):
        QuadratureSpec(scheme="simpson")


@pytest.mark.parametrize("nodes", [7, 371, 400])
def test_gh_nodes_outside_8_to_370_rejected(nodes):
    # at 371 numpy's weights underflow and E[k^2] came back 0.0; at 400, NaN
    with pytest.raises(ValueError, match=r"nodes_per_dim must lie within 8\.\.370"):
        QuadratureSpec(scheme="gauss_hermite_tensor", nodes_per_dim=nodes)


def test_gh_rule_at_370_nodes_is_still_exact():
    quad = QuadratureSpec(scheme="gauss_hermite_tensor", nodes_per_dim=370)
    value, _, _ = envelope_expectation(lambda k: k[:, 0] ** 2, 1, PSF, quad)
    assert value == pytest.approx(PSF.sigma_k ** 2, rel=1e-12)


@pytest.mark.parametrize("scheme", ["auto", "monte_carlo_importance", "rank1_lattice"])
def test_every_batch_needs_two_points(scheme):
    # one Monte Carlo draw per batch gave NaN, and no lattice has a prime number of points below 2
    with pytest.raises(ValueError, match="prime"):
        QuadratureSpec(scheme=scheme, sample_count=10_000, batch_count=5_001)
    QuadratureSpec(scheme=scheme, sample_count=10_000, batch_count=5_000)


@pytest.mark.parametrize("seed", [-1, 2.5, "7"])
def test_seed_must_be_a_non_negative_integer(seed):
    with pytest.raises(ValueError, match="seed must be an integer >= 0"):
        QuadratureSpec(seed=seed)


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
    """Make the batches see ``count`` usable CPUs: one runs them in the calling process, two forks a helper."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)))


def helper_mark(caller, marks, text=""):
    """In a batch: a helper writes ``text`` to ``marks/<its pid>`` and returns True; the calling process waits up to
    10 s for a helper's mark, so that a helper takes a batch before the caller runs out of them, and returns False."""
    if os.getpid() != caller:
        (marks / str(os.getpid())).write_text(text)
        return True
    deadline = time.monotonic() + 10
    while not any(marks.iterdir()):
        assert time.monotonic() < deadline, "no helper took a batch"
        time.sleep(1e-3)
    return False


def no_child_left():
    with pytest.raises(ChildProcessError):  # every helper was reaped
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("quad", [LATTICE, MC], ids=["lattice", "mc"])
def test_batches_give_the_same_result_in_one_process_and_two(quad, monkeypatch, tmp_path):
    caller = os.getpid()

    def f(k):
        if count == 2:
            helper_mark(caller, marks)
        return np.column_stack([np.cos(k).prod(axis=1), (k * k).sum(axis=1)])

    results = []
    for count in (1, 2):
        cpus(monkeypatch, count)
        marks = tmp_path / str(count)
        marks.mkdir()
        results.append(envelope_expectation(f, 5, PSF, quad))
        assert len(list(marks.iterdir())) == count - 1  # on two CPUs a second pid ran a batch
    (one, one_error, _), (two, two_error, _) = results
    assert np.array_equal(one, two) and np.array_equal(one_error, two_error)


def test_an_error_in_a_helper_reaches_the_caller(monkeypatch, tmp_path):
    cpus(monkeypatch, 2)
    caller = os.getpid()

    def f(k):
        if helper_mark(caller, tmp_path):
            raise KeyError("batch failed on a helper")
        return k[:, 0]

    with pytest.raises(KeyError, match="batch failed on a helper"):
        envelope_expectation(f, 4, PSF, QuadratureSpec(scheme="rank1_lattice", sample_count=20_000))
    no_child_left()
    value, _, _ = envelope_expectation(lambda k: k[:, 0] ** 2, 4, PSF, LATTICE)  # the next call forks anew
    assert value == pytest.approx(PSF.sigma_k ** 2, rel=1e-3)


def test_every_batch_runs_once_on_more_processes_than_cores(monkeypatch, tmp_path):
    # seven helpers take batch numbers from one pipe: a number handed out twice, or lost, shows in the log
    cpus(monkeypatch, 8)
    log = os.open(tmp_path / "log", os.O_WRONLY | os.O_CREAT | os.O_APPEND)

    def run(b):
        os.write(log, f"{b}\n".encode())  # one appended write a batch, whole lines from every process
        return b * b

    try:
        results = quadrature._each_batch(run, 2000)
    finally:
        os.close(log)
    assert sorted(map(int, (tmp_path / "log").read_text().split())) == list(range(2000))
    assert results == [b * b for b in range(2000)]


def test_a_cold_lattice_is_searched_once(monkeypatch, tmp_path):
    # the caller fills lru_cache before it forks, so a helper inherits the vector: each of its batches is a hit
    cpus(monkeypatch, 2)
    caller, quad = os.getpid(), QuadratureSpec(scheme="rank1_lattice", sample_count=20 * 1213, seed=3)
    before, batches = lattice_generating_vector.cache_info(), []

    def f(k):
        batches.append(len(k))  # this process's own copy of the list
        now = lattice_generating_vector.cache_info()
        helper_mark(caller, tmp_path, f"{now.misses - before.misses} {now.hits - before.hits - len(batches)}")
        return k[:, 0]

    envelope_expectation(f, 11, PSF, quad)
    assert lattice_generating_vector.cache_info().misses == before.misses + 1
    assert [mark.read_text() for mark in tmp_path.iterdir()] == ["1 0"]  # the inherited miss, no search of its own


@pytest.mark.parametrize("failing", [None, "caller", "helper"])
def test_no_helper_outlives_the_call(monkeypatch, tmp_path, failing):
    cpus(monkeypatch, 2)
    caller = os.getpid()

    def run(b):
        if failing == ("helper" if helper_mark(caller, tmp_path) else "caller"):
            raise ValueError(f"batch {b} failed")
        return b

    if failing:
        with pytest.raises(ValueError, match="failed"):
            quadrature._each_batch(run, 50)
    else:
        assert quadrature._each_batch(run, 50) == list(range(50))
    no_child_left()


def test_a_helper_that_dies_in_a_batch_is_an_error(monkeypatch, tmp_path):
    cpus(monkeypatch, 2)
    caller = os.getpid()

    def run(b):
        if helper_mark(caller, tmp_path):
            os._exit(3)
        return b

    with pytest.raises(RuntimeError, match=r"batch helper \d+ ended without readable results \(exit code 3\)"):
        quadrature._each_batch(run, 20)
    no_child_left()


class Unpicklable(Exception):
    def __reduce__(self):
        raise TypeError("this error cannot be pickled")


def test_an_unpicklable_error_in_a_helper_reaches_the_caller(monkeypatch, tmp_path):
    cpus(monkeypatch, 2)
    caller = os.getpid()

    def run(b):
        if helper_mark(caller, tmp_path):
            raise Unpicklable("batch failed on a helper")
        return b

    with pytest.raises(RuntimeError, match=r"Unpicklable\('batch failed on a helper'\).*cannot be pickled"):
        quadrature._each_batch(run, 20)
    no_child_left()


def test_a_caller_with_another_live_thread_runs_serially(monkeypatch):
    # a forked child would keep only the calling thread, and any lock the other one held
    cpus(monkeypatch, 2)
    release = threading.Event()
    other = threading.Thread(target=release.wait, args=(10,))
    other.start()
    try:
        pids = quadrature._each_batch(lambda b: os.getpid(), 20)
    finally:
        release.set()
        other.join(10)
    assert not other.is_alive()
    assert pids == [os.getpid()] * 20


def test_many_cheap_batches_do_not_hang():
    # 20,000 four-byte batch numbers would overfill a 64 KiB pipe written before the helpers read it
    src = os.path.dirname(os.path.dirname(os.path.abspath(homsr.__file__)))
    probe = f"""
import os, sys
sys.path.insert(0, {src!r})
os.sched_getaffinity = lambda pid: {{0, 1}}
from homsr import quadrature
print(quadrature._each_batch(lambda b: b, 20_000) == list(range(20_000)))
"""
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, timeout=60, check=True)
    assert done.stdout.strip() == "True"


def test_a_forked_child_runs_its_own_batches():
    # a process that the caller forks itself forks its own helpers and reaps them
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
