"""Unit tests for the envelope-expectation integrator.

Oracles: the Gaussian moments E[k^(2p)] = (2p-1)!! sigma_k^(2p), which the
default Gauss-Hermite rules integrate exactly, and the reproducibility of
the seeded Monte Carlo batches.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from homsr.optics import PsfModel
from homsr.quadrature import QuadratureSpec, envelope_expectation

PSF = PsfModel()
GH = QuadratureSpec(scheme="gauss_hermite_tensor")
MC = QuadratureSpec(scheme="monte_carlo_importance")


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


@pytest.mark.parametrize("quad", [GH, MC], ids=["gh", "mc"])
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
    assert scheme == ("gauss_hermite_tensor" if dim <= 3 else "monte_carlo_importance")


def test_unknown_scheme_rejected():
    with pytest.raises(ValueError, match="unknown quadrature scheme"):
        envelope_expectation(lambda k: k[:, 0], 1, PSF, QuadratureSpec(scheme="simpson"))
