"""Unit tests for the L-photon coincidence densities.

Oracles
-------
* brute-force subset/permutation enumeration of the trigonometric symmetric
  sums and of the full density formula (independent of the vectorized
  one-pass evaluation path);
* tensor Gauss-Hermite quadrature of densities against the closed-form
  thermal frame-size distribution;
* 1-D adaptive quadrature for the two-photon conditional factors.
"""

import itertools
import math

import numpy as np
import pytest
from scipy import integrate

from homsr.coincidence import (
    DetectionOutcome,
    TwoPhotonCoordinates,
    asymptotic_density,
    bucket_probability,
    class_label,
    class_weights,
    coincidence_density,
    coincidence_density_all_splits,
    coincidence_density_grid,
    conditional_decomposition,
    dk_conditional_density,
    four_photon_density,
    frame_size_distribution,
    frame_size_probability,
    interference_kappa,
    interference_phases,
    kbar_conditional_density,
    log_coincidence_density,
    subrayleigh_leading_density,
    three_photon_density,
    trig_xi,
    two_photon_class_probability,
    two_photon_density,
)
from homsr.optics import PsfModel, SourceScene, mode_weights, momentum_envelope, psf_overlap_delta
from homsr.quadrature import envelope_gh_nodes

PSF = PsfModel()
RNG = np.random.default_rng(20240817)


# ---------------------------------------------------------------------------
# Enumeration oracles
# ---------------------------------------------------------------------------

def xi_hat_oracle(j, momenta, s):
    """Subset-normalized symmetric mix: sum over j-subsets of sine slots."""
    c = np.cos(np.asarray(momenta) * s / 2.0)
    sn = np.sin(np.asarray(momenta) * s / 2.0)
    total = 0.0
    for subset in itertools.combinations(range(len(momenta)), j):
        term = 1.0
        for a in range(len(momenta)):
            term *= sn[a] if a in subset else c[a]
        total += term
    return total


def density_oracle(L, X, k, scene, psf, assignment=None):
    """Direct evaluation of the frame-outcome density by slot enumeration."""
    s, ns = scene.separation, scene.brightness
    delta = psf_overlap_delta(psf, s)
    a_mode = 1.0 + ns * (1.0 + delta)
    b_mode = 1.0 + ns * (1.0 - delta)
    p0 = 1.0 / (a_mode * b_mode)
    if assignment is None:
        assignment = [1] * X + [0] * (L - X)
    signs = [1.0 if q == 1 else -1.0 for q in assignment]
    total = 0.0
    for j in range(L):
        theta = math.factorial(L - 1 - j) * math.factorial(j) / (math.factorial(X) * math.factorial(L - X))
        coef = theta * p0 * ns ** (L - 1) / (2.0 * a_mode ** (L - 1 - j) * b_mode ** j)
        signed = sum(
            signs[i] * xi_hat_oracle(j, [k[a] for a in range(L) if a != i], s) for i in range(L)
        )
        total += coef * signed ** 2
    return total * np.prod(momentum_envelope(psf, np.asarray(k)))


class TestTrigXi:
    @pytest.mark.parametrize("n,j", [(2, 0), (3, 1), (4, 2), (5, 5), (5, 3)])
    def test_against_permutation_enumeration(self, n, j):
        k = RNG.standard_normal(n)
        s = 1.7
        c = np.cos(k * s / 2.0)
        sn = np.sin(k * s / 2.0)
        # Sum over all orderings placing j sine factors first.
        oracle = sum(
            np.prod(sn[list(perm[:j])]) * np.prod(c[list(perm[j:])])
            for perm in itertools.permutations(range(n))
        )
        assert trig_xi(j, k, s) == pytest.approx(oracle, rel=1e-12)

    def test_equals_weighted_subset_sum(self):
        k = RNG.standard_normal(4)
        s = 0.9
        assert trig_xi(2, k, s) == pytest.approx(
            math.factorial(2) * math.factorial(2) * xi_hat_oracle(2, k, s), rel=1e-13
        )

    def test_j_range_validation(self):
        with pytest.raises(ValueError):
            trig_xi(4, [0.1, 0.2], 1.0)


class TestInterferencePhases:
    def test_hand_values(self):
        # Q = (1, 1, 0): slot 0 -> mismatch at own slot + one 0-slot -> pi.
        assert interference_phases((1, 1, 0), 0) == pytest.approx(math.pi)
        # slot 2 (the 0-slot): no mismatches -> 0.
        assert interference_phases((1, 1, 0), 2) == pytest.approx(0.0)
        # Q = (0, 0): slot 0 -> one other 0-slot -> pi/2.
        assert interference_phases((0, 0), 0) == pytest.approx(math.pi / 2)

    def test_validation(self):
        with pytest.raises(ValueError):
            interference_phases((0, 2), 0)
        with pytest.raises(ValueError):
            interference_phases((0, 1), 5)


class TestGeneralDensity:
    @pytest.mark.parametrize("L", [2, 3, 4, 5])
    def test_against_enumeration_oracle(self, L):
        scene = SourceScene(separation=1.4, brightness=1.5)
        for X in range(L + 1):
            k = RNG.standard_normal(L) * PSF.sigma_k
            assert coincidence_density_grid(L, X, k, scene, PSF) == pytest.approx(
                density_oracle(L, X, k, scene, PSF), rel=1e-12
            )

    def test_noncanonical_assignment(self):
        scene = SourceScene(separation=2.0, brightness=0.8)
        k = RNG.standard_normal(4) * PSF.sigma_k
        q = (0, 1, 0, 1)
        assert coincidence_density_grid(4, 2, k, scene, PSF, assignment=q) == pytest.approx(
            density_oracle(4, 2, k, scene, PSF, assignment=q), rel=1e-12
        )

    def test_all_splits_matches_per_split(self):
        scene = SourceScene(separation=1.0, brightness=1.5)
        k = RNG.standard_normal((7, 3)) * PSF.sigma_k
        stacked = coincidence_density_all_splits(3, k, scene, PSF)
        for X in range(4):
            np.testing.assert_allclose(
                stacked[:, X], coincidence_density_grid(3, X, k, scene, PSF), rtol=1e-13
            )

    def test_parity_and_mirror_symmetry(self):
        scene = SourceScene(separation=1.2, brightness=1.5)
        k = RNG.standard_normal((5, 3)) * PSF.sigma_k
        for X in range(4):
            assignment = tuple([1] * X + [0] * (3 - X))
            mirror = tuple(1 - q for q in assignment)
            d = coincidence_density_grid(3, X, k, scene, PSF)
            np.testing.assert_allclose(d, coincidence_density_grid(3, X, -k, scene, PSF), rtol=1e-13)
            # Swapping the camera labels (Q -> 1-Q, X -> L-X) flips every
            # sign in the interference sum, leaving the square unchanged.
            np.testing.assert_allclose(
                d, coincidence_density_grid(3, 3 - X, k, scene, PSF, assignment=mirror), rtol=1e-13
            )

    def test_hom_dip(self):
        # Two identical photons never antibunch: the X=1 density vanishes
        # at k1 = k2 for any separation and brightness.
        scene = SourceScene(separation=3.0, brightness=2.0)
        for k in (0.0, 0.31, -1.2):
            assert coincidence_density_grid(2, 1, [k, k], scene, PSF) < 1e-30

    def test_outcome_wrappers(self):
        scene = SourceScene(separation=1.0, brightness=1.5)
        outcome = DetectionOutcome(3, 2, (0.1, -0.4, 0.7))
        dens = coincidence_density(outcome, scene, PSF)
        assert dens > 0
        assert log_coincidence_density(outcome, scene, PSF) == pytest.approx(math.log(dens), rel=1e-12)

    def test_detection_outcome_validation(self):
        with pytest.raises(ValueError):
            DetectionOutcome(2, 3, (0.0, 0.0))
        with pytest.raises(ValueError):
            DetectionOutcome(2, 1, (0.0,))
        with pytest.raises(ValueError):
            DetectionOutcome(2, 1, (0.0, 0.0), camera_assignment=(1, 1))
        outcome = DetectionOutcome(3, 1, (0.0, 0.1, 0.2))
        assert outcome.assignment == (1, 0, 0)

    def test_class_label(self):
        assert class_label(3, 0) == "B" and class_label(3, 3) == "B"
        assert class_label(4, 2) == "A"
        assert class_label(4, 1) == "UA"


class TestNormalization:
    @pytest.mark.parametrize("L", range(1, 13))
    @pytest.mark.parametrize("s", [1e-6, 0.1, 1.0, 4.0, 11.0, 20.0])
    def test_classes_integrate_to_frame_probability(self, L, s):
        scene = SourceScene(separation=s, brightness=1.5)
        weights = class_weights(L, scene, PSF)
        assert weights.sum() == pytest.approx(frame_size_probability(L, scene, PSF), rel=1e-9)
        assert np.all(weights >= 0)
        np.testing.assert_array_equal(weights, weights[::-1])

    def test_frame_size_against_double_geometric_sum(self):
        for s in (0.8, 11.0):
            scene = SourceScene(separation=s, brightness=1.5)
            w = mode_weights(scene, PSF)
            for L in (1, 2, 5, 9):
                oracle = w.p0 * sum(
                    w.r_plus ** m * w.r_minus ** (L - 1 - m) for m in range(L)
                )
                assert frame_size_probability(L, scene, PSF) == pytest.approx(oracle, rel=1e-12)

    def test_frame_size_distribution_consistency(self):
        scene = SourceScene(separation=1.0, brightness=1.5)
        dist = frame_size_distribution(15, scene, PSF)
        assert dist.shape == (15,)
        assert np.all(dist > 0)
        assert dist.sum() < 1.0
        assert dist[4] == frame_size_probability(5, scene, PSF)

    def test_frame_size_total_mass(self):
        # Every frame contains the reference photon, so the frame-size law
        # is already normalized over L >= 1 (no vacuum outcome).
        scene = SourceScene(separation=1.0, brightness=1.5)
        total = frame_size_distribution(400, scene, PSF).sum()
        assert total == pytest.approx(1.0, rel=1e-12)

    def test_degenerate_equal_modes(self):
        # delta = 0 makes both thermal modes equal; the geometric sum must
        # reduce to the L r^{L-1} limit without loss of accuracy.
        scene = SourceScene(separation=1.0, brightness=1.5)
        w = mode_weights(scene, PSF, delta_override=0.0)
        p = frame_size_probability(6, scene, PSF, delta_override=0.0)
        assert p == pytest.approx(w.p0 * 6 * w.r_plus ** 5, rel=1e-12)


class TestSpecializedForms:
    SCENES = [SourceScene(0.3, 0.5), SourceScene(1.3, 1.5), SourceScene(4.0, 2.5)]

    @pytest.mark.parametrize("scene", SCENES)
    def test_two_photon(self, scene):
        k = RNG.standard_normal(2) * PSF.sigma_k
        coords = TwoPhotonCoordinates.from_momenta(*k)
        bunched = coincidence_density_grid(2, 0, k, scene, PSF) + coincidence_density_grid(2, 2, k, scene, PSF)
        assert two_photon_density(coords, "B", scene, PSF) == pytest.approx(bunched, rel=1e-12)
        assert two_photon_density(coords, "A", scene, PSF) == pytest.approx(
            coincidence_density_grid(2, 1, k, scene, PSF), rel=1e-12
        )

    @pytest.mark.parametrize("scene", SCENES)
    def test_three_photon(self, scene):
        k = RNG.standard_normal(3) * PSF.sigma_k
        bunched = coincidence_density_grid(3, 0, k, scene, PSF) + coincidence_density_grid(3, 3, k, scene, PSF)
        assert three_photon_density(*k, "B", scene, PSF) == pytest.approx(bunched, rel=1e-12)
        # The unbalanced class sums the mirror pair X in {1, 2} with the
        # third argument as the lone photon.
        mirrored = 2.0 * coincidence_density_grid(3, 2, k, scene, PSF, assignment=(1, 1, 0))
        assert three_photon_density(*k, "UA", scene, PSF) == pytest.approx(mirrored, rel=1e-12)

    @pytest.mark.parametrize("scene", SCENES)
    def test_four_photon(self, scene):
        k = RNG.standard_normal(4) * PSF.sigma_k
        bunched = coincidence_density_grid(4, 0, k, scene, PSF) + coincidence_density_grid(4, 4, k, scene, PSF)
        assert four_photon_density(*k, "B", scene, PSF) == pytest.approx(bunched, rel=1e-12)
        assert four_photon_density(*k, "A", scene, PSF) == pytest.approx(
            coincidence_density_grid(4, 2, k, scene, PSF), rel=1e-12
        )
        mirrored = 2.0 * coincidence_density_grid(4, 1, k, scene, PSF, assignment=(1, 0, 0, 0))
        assert four_photon_density(*k, "UA", scene, PSF) == pytest.approx(mirrored, rel=1e-12)

    def test_invalid_class_names(self):
        scene = SourceScene(1.0, 1.0)
        with pytest.raises(ValueError):
            two_photon_density(TwoPhotonCoordinates(0.0, 0.0), "UA", scene, PSF)
        with pytest.raises(ValueError):
            three_photon_density(0.1, 0.2, 0.3, "A", scene, PSF)
        with pytest.raises(ValueError):
            four_photon_density(0.1, 0.2, 0.3, 0.4, "Z", scene, PSF)

    def test_coordinates_roundtrip(self):
        coords = TwoPhotonCoordinates.from_momenta(0.7, -0.2)
        assert coords.to_momenta() == pytest.approx((0.7, -0.2))


class TestSmallSeparationLimits:
    @pytest.mark.parametrize("P", [1, 2])
    def test_leading_density_ratio(self, P):
        k = RNG.standard_normal(2 * P) * PSF.sigma_k
        ratios = []
        for s in (1e-2, 1e-3):
            scene = SourceScene(separation=s, brightness=1.5)
            exact = coincidence_density_grid(2 * P, P, k, scene, PSF)
            lead = subrayleigh_leading_density(P, k, scene, PSF)
            ratios.append(lead / exact)
        assert ratios[0] == pytest.approx(1.0, abs=5e-3)
        assert ratios[1] == pytest.approx(1.0, abs=5e-5)

    def test_balanced_four_photon_vanishes_quadratically(self):
        # The balanced 2-2 outcome opens as s^2 (extended HOM suppression).
        k = np.array([0.4, -0.2, 0.8, 0.1]) * PSF.sigma_k
        d1 = coincidence_density_grid(4, 2, k, SourceScene(1e-3, 1.5), PSF)
        d2 = coincidence_density_grid(4, 2, k, SourceScene(2e-3, 1.5), PSF)
        assert d2 / d1 == pytest.approx(4.0, rel=1e-3)

    def test_odd_order_classes_stay_positive(self):
        # For odd L no extended-HOM zero exists: all classes keep a finite
        # small-s limit.
        k = np.array([0.4, -0.2, 0.8]) * PSF.sigma_k
        scene = SourceScene(1e-4, 1.5)
        for X in range(4):
            assert coincidence_density_grid(3, X, k, scene, PSF) > 1e-6

    def test_bucket_probability_matches_integrated_weight(self):
        # s = 1e-6 guards the closed-form weights against cancellation.
        for s in (0.01, 1e-6):
            scene = SourceScene(separation=s, brightness=1.5)
            for P in (1, 2):
                weights = class_weights(2 * P, scene, PSF)
                assert bucket_probability(P, scene, PSF) == pytest.approx(
                    weights[P], rel=2e-4
                )

    def test_validation(self):
        with pytest.raises(ValueError):
            subrayleigh_leading_density(0, [0.0, 0.0], SourceScene(0.1, 1.0), PSF)
        with pytest.raises(ValueError):
            bucket_probability(0, SourceScene(0.1, 1.0), PSF)


class TestAsymptoticDensity:
    def test_matches_exact_at_large_separation(self):
        scene = SourceScene(separation=30.0, brightness=1.5)
        outcome = DetectionOutcome(2, 1, (0.37, -0.21))
        exact = coincidence_density(outcome, scene, PSF)
        # delta(30 sigma_x) ~ 1e-98: the overlap-free density is exact here
        # up to the residual fringe average, which GH integration washes out
        # only in integrated quantities; pointwise agreement needs the
        # oscillatory cos(Kbar s) term, so compare momentum-integrated masses.
        assert asymptotic_density(outcome, scene, PSF) == pytest.approx(exact, rel=1e-2)

    def test_integrated_masses_agree(self):
        scene = SourceScene(separation=30.0, brightness=1.5)
        k, w = envelope_gh_nodes(PSF, 2, 80)
        exact = w @ coincidence_density_all_splits(2, k, scene, PSF, include_envelope=False)
        free = w @ coincidence_density_all_splits(2, k, scene, PSF, delta_override=0.0, include_envelope=False)
        np.testing.assert_allclose(exact, free, rtol=1e-6)


class TestConditionalDecomposition:
    SCENE = SourceScene(separation=1.7, brightness=1.2)

    def test_kappa_identity(self):
        s, sk = self.SCENE.separation, PSF.sigma_k
        assert interference_kappa(self.SCENE, PSF) == pytest.approx(math.exp(-(s * sk) ** 2 / 4.0))

    @pytest.mark.parametrize("cls", ["A", "B"])
    def test_factors_normalized(self, cls):
        f_int, _ = integrate.quad(lambda kb: kbar_conditional_density(kb, cls, self.SCENE, PSF), -10, 10)
        g_int, _ = integrate.quad(lambda dk: dk_conditional_density(dk, cls, self.SCENE, PSF), -14, 14, limit=200)
        assert f_int == pytest.approx(1.0, rel=1e-9)
        assert g_int == pytest.approx(1.0, rel=1e-9)

    @pytest.mark.parametrize("cls", ["A", "B"])
    def test_product_reconstructs_density(self, cls):
        coords = TwoPhotonCoordinates(k_bar=0.23, delta_k=-0.71)
        parts = conditional_decomposition(coords, cls, self.SCENE, PSF)
        assert parts.p_class * parts.f_kbar * parts.g_dk == pytest.approx(
            float(two_photon_density(coords, cls, self.SCENE, PSF)), rel=1e-12
        )

    def test_class_probabilities_match_quadrature(self):
        weights = class_weights(2, self.SCENE, PSF)
        assert two_photon_class_probability("A", self.SCENE, PSF) == pytest.approx(weights[1], rel=1e-10)
        assert two_photon_class_probability("B", self.SCENE, PSF) == pytest.approx(
            weights[0] + weights[2], rel=1e-10
        )


class TestClassWeights:
    def test_methods_agree(self):
        scene = SourceScene(separation=1.0, brightness=1.5)
        gh = class_weights(3, scene, PSF, method="gh")
        mc = class_weights(3, scene, PSF, method="mc", sample_count=400_000)
        np.testing.assert_allclose(mc, gh, rtol=2e-2)
        for L in (2, 3, 4):
            np.testing.assert_allclose(
                class_weights(L, scene, PSF), class_weights(L, scene, PSF, method="gh"), rtol=1e-10
            )

    def test_auto_falls_back_to_mc_at_large_separation(self):
        # Tensor GH under-resolves the fringes at large s * sigma_k; the
        # closed-form default must agree with a large-sample MC reference.
        scene = SourceScene(separation=20.0, brightness=1.5)
        auto = class_weights(4, scene, PSF, sample_count=400_000)
        mc = class_weights(4, scene, PSF, method="mc", sample_count=400_000, seed=123)
        np.testing.assert_allclose(auto, mc, rtol=5e-2)
        assert auto.sum() == pytest.approx(frame_size_probability(4, scene, PSF), rel=2e-2)

    def test_invalid_method(self):
        with pytest.raises(ValueError):
            class_weights(2, SourceScene(1.0, 1.0), PSF, method="trapezoid")

    @pytest.mark.parametrize("L", [0, -1])
    def test_rejects_empty_frame_size(self, L):
        with pytest.raises(ValueError):
            class_weights(L, SourceScene(1.0, 1.0), PSF)
