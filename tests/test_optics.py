"""Unit tests for the PSF model, thermal mode weights and detector geometry.

Oracles: direct numerical quadrature of the Gaussian amplitudes (overlap,
normalizations, moments) and explicit geometric-series sums for the thermal
weights.
"""

import math

import numpy as np
import pytest
from scipy import integrate
from scipy.stats import norm

from homsr.optics import (
    DetectorGeometry,
    PsfModel,
    SourceScene,
    difference_momentum_envelope,
    mean_momentum_envelope,
    mode_weights,
    momentum_envelope,
    psf_overlap_delta,
    validate_pixel_geometry,
)


@pytest.fixture(params=[0.7, 1.0, 2.5])
def psf(request):
    return PsfModel(sigma_x=request.param)


class TestPsfModel:
    def test_uncertainty_product(self, psf):
        assert psf.sigma_x * psf.sigma_k == pytest.approx(0.5, abs=0)

    def test_amplitude_normalization_and_width(self, psf):
        norm_int, _ = integrate.quad(lambda x: psf.psf_amplitude(x) ** 2, -np.inf, np.inf)
        var, _ = integrate.quad(lambda x: x ** 2 * psf.psf_amplitude(x) ** 2, -np.inf, np.inf)
        assert norm_int == pytest.approx(1.0, rel=1e-12)
        assert math.sqrt(var) == pytest.approx(psf.sigma_x, rel=1e-12)

    def test_momentum_amplitude_normalization_and_width(self, psf):
        norm_int, _ = integrate.quad(lambda k: psf.momentum_amplitude(k) ** 2, -np.inf, np.inf)
        var, _ = integrate.quad(lambda k: k ** 2 * psf.momentum_amplitude(k) ** 2, -np.inf, np.inf)
        assert norm_int == pytest.approx(1.0, rel=1e-12)
        assert math.sqrt(var) == pytest.approx(psf.sigma_k, rel=1e-12)

    def test_envelope_is_squared_amplitude(self, psf):
        k = np.linspace(-3, 3, 41)
        np.testing.assert_allclose(momentum_envelope(psf, k), psf.momentum_amplitude(k) ** 2, rtol=1e-13)

    def test_invalid_sigma_x(self):
        with pytest.raises(ValueError):
            PsfModel(sigma_x=0.0)

    # 1e-320 and 1e-160 overflow sigma_k^2 = 1/(4 sigma_x^2); 1e200 and 1e160 overflow sigma_x^2
    @pytest.mark.parametrize("sigma_x", [math.nan, math.inf, 1e-320, 1e200, 1e-160, 1e160])
    def test_non_finite_sigma_x(self, sigma_x):
        with pytest.raises(ValueError, match="sigma_x must be positive and finite"):
            PsfModel(sigma_x=sigma_x)


class TestOverlap:
    @pytest.mark.parametrize("s", [0.0, 0.3, 1.0, 4.0])
    def test_overlap_against_quadrature(self, psf, s):
        oracle, _ = integrate.quad(
            lambda x: psf.psf_amplitude(x - s / 2.0) * psf.psf_amplitude(x + s / 2.0),
            -np.inf,
            np.inf,
        )
        assert psf_overlap_delta(psf, s) == pytest.approx(oracle, rel=1e-12)

    def test_overlap_bounds(self, psf):
        assert psf_overlap_delta(psf, 0.0) == 1.0
        assert 0.0 < psf_overlap_delta(psf, 10.0 * psf.sigma_x) < 1e-5
        with pytest.raises(ValueError):
            psf_overlap_delta(psf, -1.0)


class TestPairEnvelopes:
    def test_mean_momentum_marginal(self, psf):
        # (k1 + k2)/2 of two iid envelope draws is Normal(0, sigma_k/sqrt(2)).
        k = np.linspace(-2, 2, 21)
        np.testing.assert_allclose(
            mean_momentum_envelope(psf, k),
            norm.pdf(k, scale=psf.sigma_k / math.sqrt(2.0)),
            rtol=1e-12,
        )

    def test_difference_momentum_marginal(self, psf):
        # k1 - k2 is Normal(0, sqrt(2) sigma_k).
        k = np.linspace(-4, 4, 21)
        np.testing.assert_allclose(
            difference_momentum_envelope(psf, k),
            norm.pdf(k, scale=math.sqrt(2.0) * psf.sigma_k),
            rtol=1e-12,
        )


class TestSourceScene:
    def test_validation(self):
        with pytest.raises(ValueError):
            SourceScene(separation=-1.0, brightness=1.0)
        with pytest.raises(ValueError):
            SourceScene(separation=1.0, brightness=0.0)
        with pytest.raises(ValueError):
            SourceScene(separation=1.0, brightness=1.0, centroid=0.5)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_parameters(self, value):
        with pytest.raises(ValueError, match="separation must be non-negative and finite"):
            SourceScene(separation=value, brightness=1.0)
        with pytest.raises(ValueError, match="brightness must be positive and finite"):
            SourceScene(separation=1.0, brightness=value)


class TestModeWeights:
    @pytest.mark.parametrize("s,ns", [(0.1, 0.5), (1.0, 1.5), (5.0, 3.0)])
    def test_identities(self, psf, s, ns):
        w = mode_weights(SourceScene(separation=s, brightness=ns), psf)
        delta = psf_overlap_delta(psf, s)
        assert w.delta == pytest.approx(delta, rel=1e-14)
        assert w.m_plus == pytest.approx(ns * (1 + delta), rel=1e-14)
        assert w.m_minus == pytest.approx(ns * (1 - delta), rel=1e-14)
        assert w.p0 * (w.m_plus + 1) * (w.m_minus + 1) == pytest.approx(1.0, rel=1e-14)
        assert 0 < w.r_plus < 1 and 0 <= w.r_minus < 1

    def test_geometric_weights_sum(self, psf):
        w = mode_weights(SourceScene(separation=1.0, brightness=1.5), psf)
        m = np.arange(200)
        # p_m = r^m (1 - r) is a normalized geometric distribution.
        assert w.p_m_plus(m).sum() * (1 - w.r_plus) == pytest.approx(1.0, rel=1e-12)
        assert w.p_m_minus(m).sum() * (1 - w.r_minus) == pytest.approx(1.0, rel=1e-12)

    def test_delta_override(self, psf):
        scene = SourceScene(separation=1.0, brightness=1.5)
        w = mode_weights(scene, psf, delta_override=0.0)
        assert w.delta == 0.0
        assert w.m_plus == w.m_minus == scene.brightness


class TestDetectorGeometry:
    def test_momentum_map(self):
        geom = DetectorGeometry(far_field_distance=2.0, longitudinal_wavenumber=8.0, pixel_pitch=0.01)
        assert geom.momentum_of_position(0.5) == pytest.approx(2.0)
        assert geom.momentum_resolution == pytest.approx(0.04)

    def test_validation(self):
        with pytest.raises(ValueError):
            DetectorGeometry(far_field_distance=0.0, longitudinal_wavenumber=1.0, pixel_pitch=1.0)

    def test_pixel_validity_statuses(self):
        geom = DetectorGeometry(far_field_distance=1.0, longitudinal_wavenumber=1.0, pixel_pitch=0.05)
        assert validate_pixel_geometry(geom, 1.0).status == "pass"
        assert validate_pixel_geometry(geom, 4.0).status == "marginal"
        report = validate_pixel_geometry(geom, 10.0)
        assert report.status == "fail" and not report.passed
        assert validate_pixel_geometry(geom, 0.0).status == "unconstrained"

    def test_negative_separation_rejected(self):
        geom = DetectorGeometry(far_field_distance=1.0, longitudinal_wavenumber=1.0, pixel_pitch=0.05)
        with pytest.raises(ValueError, match="separation must be non-negative"):
            validate_pixel_geometry(geom, -1.0)

    @pytest.mark.parametrize("field", ["far_field_distance", "longitudinal_wavenumber", "pixel_pitch"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, -1.0])
    def test_every_field_must_be_positive_and_finite(self, field, value):
        # a NaN field once gave a NaN momentum resolution, and an infinite distance a resolution of 0
        fields = {"far_field_distance": 1.0, "longitudinal_wavenumber": 1.0, "pixel_pitch": 0.05, field: value}
        with pytest.raises(ValueError, match="positive and finite"):
            DetectorGeometry(**fields)

    @pytest.mark.parametrize("s", [math.nan, math.inf])
    def test_separation_must_be_finite(self, s):
        geom = DetectorGeometry(far_field_distance=1.0, longitudinal_wavenumber=1.0, pixel_pitch=0.05)
        with pytest.raises(ValueError, match="separation must be non-negative and finite"):
            validate_pixel_geometry(geom, s)

    @pytest.mark.parametrize("threshold", [0.0, -1.0, math.nan, math.inf])
    def test_threshold_must_be_positive_and_finite(self, threshold):
        geom = DetectorGeometry(far_field_distance=1.0, longitudinal_wavenumber=1.0, pixel_pitch=0.05)
        with pytest.raises(ValueError, match="threshold must be positive and finite"):
            validate_pixel_geometry(geom, 1.0, threshold)

    def test_ratio_formula(self):
        geom = DetectorGeometry(far_field_distance=0.5, longitudinal_wavenumber=100.0, pixel_pitch=1e-4)
        report = validate_pixel_geometry(geom, 2.0)
        assert report.ratio == pytest.approx(1e-4 * 100.0 * 2.0 / 0.5, rel=1e-14)
