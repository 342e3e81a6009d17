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

from homsr import coincidence
from homsr.coincidence import (
    DetectionOutcome,
    _bracket,
    _closed_form_weights,
    _half_angle_trig,
    _theta_table,
    _theta_tables,
    _with_s_derivative,
    _xi_coeffs,
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
from homsr.optics import (
    PsfModel,
    SourceScene,
    difference_momentum_envelope,
    mode_weights,
    momentum_envelope,
    psf_overlap_delta,
)
from homsr.quadrature import QuadratureSpec, envelope_expectation, envelope_gh_nodes

PSF = PsfModel()


@pytest.fixture
def rng(request):
    """A generator seeded from the test's node id, so a test draws the same inputs alone as in a full run."""
    return np.random.default_rng(list(request.node.nodeid.encode()))


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
    def test_against_permutation_enumeration(self, n, j, rng):
        k = rng.standard_normal(n)
        s = 1.7
        c = np.cos(k * s / 2.0)
        sn = np.sin(k * s / 2.0)
        # Sum over all orderings placing j sine factors first.
        oracle = sum(
            np.prod(sn[list(perm[:j])]) * np.prod(c[list(perm[j:])])
            for perm in itertools.permutations(range(n))
        )
        assert trig_xi(j, k, s) == pytest.approx(oracle, rel=1e-12)

    def test_equals_weighted_subset_sum(self, rng):
        k = rng.standard_normal(4)
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
    def test_against_enumeration_oracle(self, L, rng):
        scene = SourceScene(separation=1.4, brightness=1.5)
        for X in range(L + 1):
            k = rng.standard_normal(L) * PSF.sigma_k
            assert coincidence_density_grid(L, X, k, scene, PSF) == pytest.approx(
                density_oracle(L, X, k, scene, PSF), rel=1e-12
            )

    def test_noncanonical_assignment(self, rng):
        scene = SourceScene(separation=2.0, brightness=0.8)
        k = rng.standard_normal(4) * PSF.sigma_k
        q = (0, 1, 0, 1)
        assert coincidence_density_grid(4, 2, k, scene, PSF, assignment=q) == pytest.approx(
            density_oracle(4, 2, k, scene, PSF, assignment=q), rel=1e-12
        )

    def test_all_splits_matches_per_split(self, rng):
        scene = SourceScene(separation=1.0, brightness=1.5)
        k = rng.standard_normal((7, 3)) * PSF.sigma_k
        stacked = coincidence_density_all_splits(3, k, scene, PSF)
        for X in range(4):
            np.testing.assert_allclose(
                stacked[:, X], coincidence_density_grid(3, X, k, scene, PSF), rtol=1e-13
            )

    def test_parity_and_mirror_symmetry(self, rng):
        scene = SourceScene(separation=1.2, brightness=1.5)
        k = rng.standard_normal((5, 3)) * PSF.sigma_k
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

    @pytest.mark.parametrize("X", [3, -1])
    def test_split_outside_frame_rejected(self, X, rng):
        k = rng.standard_normal((4, 2)) * PSF.sigma_k
        with pytest.raises(ValueError, match=r"camera_split must lie in \[0, photon_count\]"):
            coincidence_density_grid(2, X, k, SourceScene(1.0, 1.5), PSF)

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

    def test_outcome_with_noncanonical_assignment(self):
        scene = SourceScene(separation=1.3, brightness=1.1)
        k, q = (0.4, -0.9, 0.2, 1.3), (0, 1, 0, 1)
        outcome = DetectionOutcome(4, 2, k, camera_assignment=q)
        assert outcome.canonical_momenta == (-0.9, 1.3, 0.4, 0.2)
        oracle = density_oracle(4, 2, k, scene, PSF, assignment=q)
        assert coincidence_density(outcome, scene, PSF) == pytest.approx(oracle, rel=1e-12)
        assert log_coincidence_density(outcome, scene, PSF) == pytest.approx(math.log(oracle), rel=1e-12)

    def test_detection_outcome_validation(self):
        with pytest.raises(ValueError):
            DetectionOutcome(2, 3, (0.0, 0.0))
        with pytest.raises(ValueError):
            DetectionOutcome(2, 1, (0.0,))
        with pytest.raises(ValueError):
            DetectionOutcome(2, 1, (0.0, 0.0), camera_assignment=(1, 1))
        outcome = DetectionOutcome(3, 1, (0.0, 0.1, 0.2))
        assert outcome.assignment == (1, 0, 0)

    def test_explicit_assignment_is_returned(self):
        assert DetectionOutcome(3, 1, (0.0, 0.1, 0.2), camera_assignment=(0, 1, 0)).assignment == (0, 1, 0)

    @pytest.mark.parametrize("L, X", [(2, 1.0), (2.0, 1), (np.float64(2), 1)])
    def test_detection_outcome_rejects_non_integer_counts(self, L, X):
        with pytest.raises(TypeError):
            DetectionOutcome(L, X, (0.1, 0.4))

    @pytest.mark.parametrize("k", [math.nan, math.inf, -math.inf])
    def test_detection_outcome_rejects_non_finite_momenta(self, k):
        with pytest.raises(ValueError, match="momenta must be finite"):
            DetectionOutcome(2, 1, (k, 0.5))

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
    def test_two_photon(self, scene, rng):
        k = rng.standard_normal(2) * PSF.sigma_k
        coords = TwoPhotonCoordinates.from_momenta(*k)
        bunched = coincidence_density_grid(2, 0, k, scene, PSF) + coincidence_density_grid(2, 2, k, scene, PSF)
        assert two_photon_density(coords, "B", scene, PSF) == pytest.approx(bunched, rel=1e-12)
        assert two_photon_density(coords, "A", scene, PSF) == pytest.approx(
            coincidence_density_grid(2, 1, k, scene, PSF), rel=1e-12
        )

    @pytest.mark.parametrize("scene", SCENES)
    def test_three_photon(self, scene, rng):
        k = rng.standard_normal(3) * PSF.sigma_k
        bunched = coincidence_density_grid(3, 0, k, scene, PSF) + coincidence_density_grid(3, 3, k, scene, PSF)
        assert three_photon_density(*k, "B", scene, PSF) == pytest.approx(bunched, rel=1e-12)
        # The unbalanced class sums the mirror pair X in {1, 2} with the
        # third argument as the lone photon.
        mirrored = 2.0 * coincidence_density_grid(3, 2, k, scene, PSF, assignment=(1, 1, 0))
        assert three_photon_density(*k, "UA", scene, PSF) == pytest.approx(mirrored, rel=1e-12)

    @pytest.mark.parametrize("scene", SCENES)
    def test_four_photon(self, scene, rng):
        k = rng.standard_normal(4) * PSF.sigma_k
        bunched = coincidence_density_grid(4, 0, k, scene, PSF) + coincidence_density_grid(4, 4, k, scene, PSF)
        assert four_photon_density(*k, "B", scene, PSF) == pytest.approx(bunched, rel=1e-12)
        assert four_photon_density(*k, "A", scene, PSF) == pytest.approx(
            coincidence_density_grid(4, 2, k, scene, PSF), rel=1e-12
        )
        mirrored = 2.0 * coincidence_density_grid(4, 1, k, scene, PSF, assignment=(1, 0, 0, 0))
        assert four_photon_density(*k, "UA", scene, PSF) == pytest.approx(mirrored, rel=1e-12)

    def test_invalid_class_names(self):
        scene = SourceScene(1.0, 1.0)
        with pytest.raises(ValueError, match="2-photon class must be one of B, A$"):
            two_photon_density(TwoPhotonCoordinates(0.0, 0.0), "UA", scene, PSF)
        with pytest.raises(ValueError, match="3-photon class must be one of B, UA$"):
            three_photon_density(0.1, 0.2, 0.3, "A", scene, PSF)
        with pytest.raises(ValueError, match="4-photon class must be one of B, A, UA$"):
            four_photon_density(0.1, 0.2, 0.3, 0.4, "Z", scene, PSF)

    @pytest.mark.parametrize("scene", SCENES)
    def test_two_photon_class_entries(self, scene):
        # The leave-one-out evaluator at L = 2 reproduces the (Kbar, dk) closed form at fixed momenta.
        k = np.array([0.37, -0.81]) * PSF.sigma_k
        coords = TwoPhotonCoordinates.from_momenta(*k)
        for x_class in ("A", "B"):
            assert coincidence._low_order_density(tuple(k), x_class, scene, PSF) == pytest.approx(
                two_photon_density(coords, x_class, scene, PSF), rel=1e-12
            )

    def test_low_order_forms_do_not_use_the_kernel(self, monkeypatch):
        # The specialised forms are an independent check of the bracket kernel only if they avoid it.
        def forbidden(*args, **kwargs):
            raise AssertionError("kernel called")

        for name in ("_bracket", "_theta_table", "_density"):
            monkeypatch.setattr(coincidence, name, forbidden)
        scene = SourceScene(1.3, 1.5)
        assert three_photon_density(0.1, 0.2, 0.3, "UA", scene, PSF) > 0
        assert four_photon_density(0.1, 0.2, 0.3, 0.4, "A", scene, PSF) > 0

    def test_coordinates_roundtrip(self):
        coords = TwoPhotonCoordinates.from_momenta(0.7, -0.2)
        assert coords.to_momenta() == pytest.approx((0.7, -0.2))


class TestSmallSeparationLimits:
    @pytest.mark.parametrize("P", [1, 2])
    def test_leading_density_ratio(self, P, rng):
        # The leading term (k_1+..+k_P - k_{P+1}-..-k_{2P})^2 s^2 vanishes where that difference
        # does, so its relative tolerance holds only at |difference| >= c sigma_k.  Nearer the zero
        # the error is held to the tolerance times the leading density at |difference| = c sigma_k.
        # With c = 1.5, none of 200,000 envelope draws per P fails either check.
        c = 1.5
        k = rng.standard_normal(2 * P) * PSF.sigma_k
        diff = k[:P].sum() - k[P:].sum()
        for s, tol in ((1e-2, 5e-3), (1e-3, 5e-5)):
            scene = SourceScene(separation=s, brightness=1.5)
            exact = coincidence_density_grid(2 * P, P, k, scene, PSF)
            lead = subrayleigh_leading_density(P, k, scene, PSF)
            if abs(diff) >= c * PSF.sigma_k:
                assert lead / exact == pytest.approx(1.0, abs=tol)
            else:
                assert abs(lead - exact) <= tol * lead * (c * PSF.sigma_k / diff) ** 2

    def test_leading_density_near_its_zero(self):
        # |difference| = 0.01 sigma_k: the ratio misses 5e-3, the bound at c = 1.5 holds.
        k = np.array([0.8, -0.3, 0.45, 0.04]) * PSF.sigma_k
        scene = SourceScene(separation=1e-2, brightness=1.5)
        exact = coincidence_density_grid(4, 2, k, scene, PSF)
        lead = subrayleigh_leading_density(2, k, scene, PSF)
        assert abs(lead / exact - 1.0) > 5e-3
        assert abs(lead - exact) <= 5e-3 * lead * (1.5 / 0.01) ** 2

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


    @pytest.mark.parametrize("s", [1e-8, 1e-6, 1e-3])
    def test_antibunched_probability_at_small_separation(self, s):
        scene = SourceScene(separation=s, brightness=1.5)
        assert two_photon_class_probability("A", scene, PSF) == pytest.approx(
            class_weights(2, scene, PSF)[1], rel=1e-12, abs=0.0
        )

    def test_antibunched_difference_density_limit(self):
        # g(dk; A) -> C(dk) dk^2 / (2 sigma_k^2) as s -> 0.
        dk = np.linspace(-3.0, 3.0, 13)
        limit = difference_momentum_envelope(PSF, dk) * dk ** 2 / (2.0 * PSF.sigma_k ** 2)
        g = dk_conditional_density(dk, "A", SourceScene(separation=1e-8, brightness=1.5), PSF)
        np.testing.assert_allclose(g, limit, rtol=1e-12, atol=0.0)

    def test_antibunched_difference_density_at_zero_separation(self):
        # At s = 0 the fringe and its mean both vanish; the finite limit is returned.
        scene = SourceScene(separation=0.0, brightness=1.5)
        dk = np.linspace(-3.0, 3.0, 13)
        limit = difference_momentum_envelope(PSF, dk) * dk ** 2 / (2.0 * PSF.sigma_k ** 2)
        np.testing.assert_allclose(dk_conditional_density(dk, "A", scene, PSF), limit, rtol=1e-12, atol=0.0)
        g_int, _ = integrate.quad(lambda x: dk_conditional_density(x, "A", scene, PSF), -14, 14, limit=200)
        assert g_int == pytest.approx(1.0, rel=1e-9)
        parts = conditional_decomposition(TwoPhotonCoordinates(k_bar=0.2, delta_k=0.9), "A", scene, PSF)
        assert math.isfinite(parts.g_dk) and parts.g_dk > 0


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


class TestComplexStep:
    """The s-derivatives taken at complex s, and the real value path beside them."""

    def test_helper_on_a_known_function(self):
        for s in (1e-8, 0.5, 7.0):
            value, deriv = _with_s_derivative(lambda z: np.exp(-z * z) * np.sin(3.0 * z), s)
            assert value == math.exp(-s * s) * math.sin(3.0 * s)
            assert deriv == pytest.approx(math.exp(-s * s) * (3.0 * math.cos(3.0 * s) - 2.0 * s * math.sin(3.0 * s)),
                                          rel=1e-14)

    @pytest.mark.parametrize("ns", [0.1, 1.5])
    @pytest.mark.parametrize("s", [1e-6, 0.01, 1.0, 4.0, 8.0])
    @pytest.mark.parametrize("L", [1, 2, 3])
    def test_kernel_derivative_matches_closed_form(self, L, s, ns):
        # two independent analytic paths to d_s w(L, X): the envelope
        # expectation of the kernel, and the closed-form class weights
        def integrated_kernel(s):
            coefs = _theta_table(L, ns, np.exp(-0.5 * (s * PSF.sigma_k) ** 2))
            quad = QuadratureSpec(scheme="gauss_hermite_tensor")
            return envelope_expectation(lambda k: _bracket(k, s, range(L + 1), coefs), L, PSF, quad)[0]

        got = _with_s_derivative(integrated_kernel, s)
        want = _with_s_derivative(lambda s: _closed_form_weights(L, s, ns, PSF), s)
        for g, w in zip(got, want):
            np.testing.assert_allclose(g, w, rtol=0, atol=1e-12 * np.abs(w).max())

    def test_value_path_stays_real(self, rng):
        scene = SourceScene(separation=1.0, brightness=1.5)
        k = rng.standard_normal((50, 4)) * PSF.sigma_k
        coefs = _theta_table(4, 1.5, mode_weights(scene, PSF).delta)
        assert _bracket(k, 1.0, range(5), coefs).dtype == np.float64
        assert class_weights(4, scene, PSF).dtype == np.float64
        assert coincidence_density_grid(4, 2, k, scene, PSF).dtype == np.float64
        assert coincidence_density_all_splits(4, k, scene, PSF).dtype == np.float64

    @pytest.mark.parametrize("s", [0.01, 1.0, 8.0])
    def test_real_part_of_complex_pass_is_the_real_pass(self, s, rng):
        for L in range(1, 13):
            k = rng.standard_normal((64, L)) * PSF.sigma_k
            coefs = _theta_table(L, 1.5, psf_overlap_delta(PSF, s))
            real = _bracket(k, s, range(L + 1), coefs)
            complex_ = _bracket(k, s + 1e-20j * s, range(L + 1), coefs)
            assert complex_.dtype == np.complex128
            assert (np.abs(complex_.real - real) <= 1e-15 * real.max(axis=0)).all()


def oracle_bracket(k, s, splits, coefs):
    """sum_j coefs[x, j] S_j^2 with S = sum_i sigma_i xi(k without k_i), sigma_i = +1 for i < X."""
    L = k.shape[1]
    cols = list(k.T)
    loo = [np.array([np.broadcast_to(xi, k.shape[:1]) for xi in _xi_coeffs(cols[:i] + cols[i + 1 :], s)])
           for i in range(L)]  # each (L, N)
    out = []
    for x, X in enumerate(splits):
        S = sum(loo[:X]) - sum(loo[X:]) if X < L else sum(loo)
        out.append(np.einsum("j,jn->n", coefs[x], S * S))
    return np.stack(out, axis=1)


class TestBracketKernel:
    """The prefix x suffix kernel against the leave-one-out sums built one photon at a time."""

    @pytest.mark.parametrize("complex_step", [False, True])
    @pytest.mark.parametrize("L", list(range(1, 13)) + [20])
    def test_matches_leave_one_out_oracle(self, L, complex_step, rng):
        s = 1.3 * (1 + 1e-20j) if complex_step else 1.3
        coefs = _theta_table(L, 1.5, psf_overlap_delta(PSF, 1.3))
        split_sets = [list(range(L + 1)), [0], [L], [0, L], [L // 2 or 1]]
        split_sets += [list(np.unique(rng.integers(0, L + 1, 3))) for _ in range(2)]
        for splits in split_sets:
            # row counts 1, chunk - 1 and chunk + 1 under the kernel's own chunk sizing
            chunk = max(1, coincidence._CHUNK_BYTES // ((2 + len(splits)) * L * (16 if complex_step else 8)))
            counts = [1, 2, 40] if L == 20 else [1, chunk - 1, chunk + 1]
            k = rng.standard_normal((max(counts), L)) * PSF.sigma_k
            want = oracle_bracket(k, s, splits, coefs[splits])
            for n in counts:
                got = _bracket(k[:n], s, splits, coefs[splits])
                assert got.shape == (n, len(splits)) and got.dtype == np.result_type(s, float)
                for part in (np.real, np.imag) if complex_step else (np.real,):
                    # relative to the split's largest value over all the rows drawn
                    scale = np.abs(part(want)).max(axis=0)
                    assert (np.abs(part(got) - part(want[:n])) <= 1e-13 * scale).all(), (splits, n, part)

    @pytest.mark.parametrize("complex_step", [False, True])
    def test_orders_in_one_pass_match_one_order_calls(self, complex_step, rng):
        # several photon numbers from one prefix pass over the widest k, each on its first L columns
        s = 1.3 * (1 + 1e-20j) if complex_step else 1.3
        for width in range(1, 13):
            k = rng.standard_normal((500, width)) * PSF.sigma_k
            orders = sorted({width, *rng.integers(1, width + 1, 3).tolist()})
            splits = [list(range(L + 1)) if L % 2 else sorted({0, L, *rng.integers(0, L + 1, 2).tolist()})
                      for L in orders]
            coefs = [_theta_table(L, 1.5, psf_overlap_delta(PSF, 1.3))[x] for L, x in zip(orders, splits)]
            got = _bracket(k, s, splits, coefs, orders)
            assert got.shape == (500, sum(map(len, splits))) and got.dtype == np.result_type(s, float)
            ends = np.cumsum([len(x) for x in splits])
            for L, x, c, end in zip(orders, splits, coefs, ends):
                want = _bracket(k[:, :L], s, x, c)
                for part in (np.real, np.imag) if complex_step else (np.real,):
                    scale = np.abs(part(want)).max(axis=0)
                    assert (np.abs(part(got[:, end - len(x) : end]) - part(want)) <= 1e-14 * scale).all(), (L, x)

    @pytest.mark.parametrize("complex_step", [False, True])
    @pytest.mark.parametrize("subset", [lambda L: {0}, lambda L: {L}, lambda L: {0, L}, lambda L: {0, 1, L}],
                             ids=["{0}", "{L}", "{0, L}", "{0, 1, L}"])
    def test_orders_reading_the_top_slot_match_one_order_calls(self, subset, complex_step, rng):
        # S_0 = -D is not carried: X = 0 squares the top slot, as X = L does, alone or beside other splits
        s = 1.3 * (1 + 1e-20j) if complex_step else 1.3
        delta = psf_overlap_delta(PSF, 1.3)
        for width in range(1, 8):
            k = rng.standard_normal((300, width)) * PSF.sigma_k
            orders = list(range(1, width + 1))
            splits = [sorted(subset(L)) for L in orders]
            coefs = [_theta_table(L, 1.5, delta)[x] for L, x in zip(orders, splits)]
            got = _bracket(k, s, splits, coefs, orders)
            for L, x, c, end in zip(orders, splits, coefs, np.cumsum([len(x) for x in splits])):
                want = _bracket(k[:, :L], s, x, c)
                for part in (np.real, np.imag) if complex_step else (np.real,):
                    scale = np.abs(part(want)).max(axis=0)  # each split's largest value
                    assert (np.abs(part(got[:, end - len(x) : end]) - part(want)) <= 1e-13 * scale).all(), (L, x)

    @pytest.mark.parametrize("complex_step", [False, True])
    @pytest.mark.parametrize("s", [0.01, 1.0, 8.0])
    def test_per_row_form_matches_all_splits_kernel(self, s, complex_step, rng):
        # every row at its own L = 1..12 and random X in one call, rows in descending L, zero-padded
        s = s * (1 + 1e-20j) if complex_step else s
        delta = psf_overlap_delta(PSF, 1.3)
        # the first n of one draw of L; row counts 1 and one row either side of a chunk edge under the
        # kernel's per-row chunk sizing, 6 sum(L) / n words per row
        pool = rng.integers(1, 13, 8000)
        pool[0] = 12
        counts = np.arange(1, len(pool) + 1)
        words = np.maximum(6 * np.cumsum(pool) // counts, 1)
        chunk = np.maximum(1, coincidence._CHUNK_BYTES // (words * (16 if complex_step else 8)))
        for n in (1, counts[counts == chunk - 1][0], counts[counts == chunk + 1][0]):
            lengths = np.sort(pool[:n])[::-1]
            xs = rng.integers(0, lengths + 1)
            k = rng.standard_normal((n, 12)) * PSF.sigma_k * (np.arange(12) < lengths[:, None])
            got = _bracket(k, s, xs, _theta_tables(12, 1.5, delta)[lengths, xs], lengths=lengths)
            assert got.shape == (n,) and got.dtype == np.result_type(s, float)
            for L in np.unique(lengths):
                rows = np.flatnonzero(lengths == L)
                want = _bracket(k[rows, :L], s, range(L + 1), _theta_table(L, 1.5, delta))
                for part in (np.real, np.imag) if complex_step else (np.real,):
                    # relative to the split's largest value over the rows of this L
                    scale = np.abs(part(want)).max(axis=0)[xs[rows]]
                    error = np.abs(part(got[rows]) - part(want[np.arange(len(rows)), xs[rows]]))
                    assert (error <= 1e-13 * scale).all(), (n, L, part)

    @pytest.mark.parametrize("complex_step", [False, True])
    @pytest.mark.parametrize("s", [0.01, 1.0, 8.0])
    def test_per_row_form_on_one_order_matches_single_split_calls(self, s, complex_step, rng):
        # the sampler's call shape: rows of one L, each at its own X, against one prefix x suffix call per split
        z = s * (1 + 1e-20j) if complex_step else s
        delta = psf_overlap_delta(PSF, s)
        for L in range(1, 13):
            k = rng.standard_normal((3000, L)) * PSF.sigma_k
            xs = rng.integers(0, L + 1, len(k))
            coefs = _theta_table(L, 1.5, delta)
            got = _bracket(k, z, xs, coefs[xs], lengths=np.full(len(k), L))
            assert got.shape == (len(k),) and got.dtype == np.result_type(z, float)
            for X in range(L + 1):
                rows = xs == X
                want = _bracket(k[rows], z, [X], coefs[X : X + 1])[:, 0]
                for part in (np.real, np.imag) if complex_step else (np.real,):
                    scale = np.abs(part(want)).max()  # the split's largest value
                    assert (np.abs(part(got[rows]) - part(want)) <= 1e-13 * scale).all(), (L, X, part)

    @pytest.mark.parametrize("complex_step", [False, True])
    @pytest.mark.parametrize("s", [0.01, 1.0, 8.0])
    @pytest.mark.parametrize("width", [13, 16, 20, 24])
    def test_orders_at_high_photon_numbers_match_one_order_calls(self, width, s, complex_step, rng):
        # the widths of Fisher sums past L = 12, at the bound of the leave-one-out oracle test
        z = s * (1 + 1e-20j) if complex_step else s
        k = rng.standard_normal((300, width)) * PSF.sigma_k
        orders = sorted({1, 4, width // 2, width - 1, width})
        coefs = [_theta_table(L, 1.5, psf_overlap_delta(PSF, s)) for L in orders]
        got = _bracket(k, z, [range(L + 1) for L in orders], coefs, orders)
        assert got.shape == (300, sum(orders) + len(orders))
        for L, c, end in zip(orders, coefs, np.cumsum([L + 1 for L in orders])):
            want = _bracket(k[:, :L], z, range(L + 1), c)
            for part in (np.real, np.imag) if complex_step else (np.real,):
                scale = np.abs(part(want)).max(axis=0)
                assert (np.abs(part(got[:, end - L - 1 : end]) - part(want)) <= 1e-13 * scale).all(), (L, part)

    @pytest.mark.parametrize("complex_step", [False, True])
    def test_every_form_across_chunk_edges(self, complex_step, monkeypatch, rng):
        # a chunk of a few rows, counted by the trig taken once per chunk, so that every form
        # starts and ends its passes at several chunk edges whatever its bytes per row
        monkeypatch.setattr(coincidence, "_CHUNK_BYTES", 2048)
        chunks, trig = [], coincidence._half_angle_trig
        monkeypatch.setattr(coincidence, "_half_angle_trig", lambda s, kt: chunks.append(kt.shape) or trig(s, kt))
        s = 1.3 * (1 + 1e-20j) if complex_step else 1.3
        delta = psf_overlap_delta(PSF, 1.3)
        k = rng.standard_normal((45, 9)) * PSF.sigma_k

        def bracket(*args, **kwargs):
            chunks.clear()
            got = _bracket(*args, **kwargs)
            assert len(chunks) >= 3
            return got

        def check(got, want, scale):  # relative to each split's largest value in ``scale``
            for part in (np.real, np.imag) if complex_step else (np.real,):
                assert (np.abs(part(got) - part(want)) <= 1e-13 * np.abs(part(scale)).max(axis=0)).all(), part

        splits = [0, 3, 4, 9]  # one order, a split subset
        coefs = _theta_table(9, 1.5, delta)[splits]
        want = oracle_bracket(k, s, splits, coefs)
        check(bracket(k, s, splits, coefs), want, want)
        orders, splits = (2, 5, 9), [[0, 1, 2], [1, 4], list(range(10))]
        coefs = [_theta_table(L, 1.5, delta)[x] for L, x in zip(orders, splits)]
        want = np.hstack([oracle_bracket(k[:, :L], s, x, c) for L, x, c in zip(orders, splits, coefs)])
        check(bracket(k, s, splits, coefs, orders), want, want)
        lengths = np.sort(rng.integers(1, 10, 45))[::-1]
        lengths[0] = 9
        xs = rng.integers(0, lengths + 1)
        got = bracket(k * (np.arange(9) < lengths[:, None]), s, xs, _theta_tables(9, 1.5, delta)[lengths, xs],
                      lengths=lengths)
        for L in np.unique(lengths):
            rows = np.flatnonzero(lengths == L)
            want = oracle_bracket(k[rows, :L], s, range(L + 1), _theta_table(L, 1.5, delta))
            check(got[rows], want[np.arange(len(rows)), xs[rows]], want[:, xs[rows]])

    @pytest.mark.parametrize("complex_step", [False, True])
    def test_orders_read_a_row_alike_wherever_it_sits(self, complex_step, monkeypatch, rng):
        # chunks of 2 (complex) or 4 (real) rows: every row, those at chunk edges among them, must read
        # bit for bit the same in its place, alone and in a row-permuted call
        monkeypatch.setattr(coincidence, "_CHUNK_BYTES", 2048)
        s = 1.3 * (1 + 1e-20j) if complex_step else 1.3
        tables = _theta_tables(7, 1.5, np.exp(-0.5 * (s * PSF.sigma_k) ** 2))
        orders = (2, 4, 5, 7)
        args = [range(L + 1) for L in orders], [tables[L, : L + 1, :L] for L in orders], orders
        k = rng.standard_normal((41, 7)) * PSF.sigma_k
        got = _bracket(k, s, *args)
        perm = rng.permutation(len(k))
        assert np.array_equal(_bracket(k[perm], s, *args), got[perm])
        for i in range(len(k)):
            assert np.array_equal(_bracket(k[i : i + 1], s, *args), got[i : i + 1]), i

    @pytest.mark.parametrize("lengths", [[2, 3], [3, 0], [4, 2]])
    def test_per_row_form_needs_descending_photon_numbers_within_k(self, lengths):
        with pytest.raises(ValueError, match="descending photon number"):
            _bracket(np.zeros((2, 3)), 1.0, np.array([0, 0]), np.ones((2, 3)), lengths=np.array(lengths))

    @pytest.mark.parametrize("s", [1e-8, 0.01, 1.0, 8.0, 40.0])
    def test_complex_half_angle_trig_is_numpys(self, s, rng):
        k = rng.standard_normal((7, 5000)) * PSF.sigma_k
        z = s * (1 + 1e-20j)
        c, sn = _half_angle_trig(z, k)
        assert np.array_equal(c, np.cos(0.5 * z * k)) and np.array_equal(sn, np.sin(0.5 * z * k))

    def test_half_angle_trig_refuses_a_complex_s_off_the_step(self, rng):
        # the real-trig identity holds only where cosh and sinh of the imaginary half-angle round to 1 and y
        with pytest.raises(ValueError, match="complex step"):
            _half_angle_trig(1 + 1e-3j, rng.standard_normal((3, 10)))


class TestArgumentErrors:
    @pytest.mark.parametrize("call, message", [
        pytest.param(lambda scene: coincidence_density_grid(3, 1, np.zeros((4, 2)), scene, PSF),
                     "momenta last axis must have length L", id="grid-axis-not-L"),
        pytest.param(lambda scene: subrayleigh_leading_density(2, np.zeros((4, 3)), scene, PSF),
                     "need 2P momenta", id="leading-density-not-2P"),
        pytest.param(lambda scene: frame_size_probability(0, scene, PSF), "L must be >= 1", id="frame-size-L-zero"),
    ])
    def test_rejected(self, call, message):
        with pytest.raises(ValueError, match=message):
            call(SourceScene(1.0, 1.5))
