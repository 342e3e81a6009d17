"""Unit tests for per-order, total, bucket and baseline Fisher informations.

Oracles: the closed-form small- and large-separation limits, agreement
between the Gauss-Hermite, rank-1 lattice and Monte Carlo integration paths,
the additive two-photon hierarchy decomposition, adaptive quadrature of
the unpixelated direct-imaging information, and five-point differences in s
for the exact derivatives.
"""

import math
import os
import subprocess
import sys
import warnings
from dataclasses import replace

import numpy as np
import pytest
from scipy import integrate

import homsr
from homsr import fisher
from homsr.coincidence import class_weights, coincidence_density_all_splits
from homsr.fisher import (
    QuadratureSpec,
    _fisher_integrand,
    asymptotic_fisher_2p,
    bucket_fisher,
    default_l_max,
    di_baseline_fisher,
    fisher_L,
    fisher_total,
    optimal_brightness,
    sampling_hierarchy_fi,
    subrayleigh_fisher_order,
    subrayleigh_fisher_total,
)
from homsr.optics import PsfModel, SourceScene
from homsr.quadrature import envelope_lattice_nodes, envelope_mc_nodes

PSF = PsfModel()


def five_point_ds(f, scene, h):
    """Five-point central difference of f(scene) in the separation."""

    def at(d):
        return f(replace(scene, separation=scene.separation + d))

    return (at(-2 * h) - 8 * at(-h) + 8 * at(h) - at(2 * h)) / (12 * h)


class TestClosedForms:
    def test_subrayleigh_order_anchors(self):
        # a = N_s/(1+2N_s); F^(2P) = C(2P,P)/(2(2P-1)) a^(2P-1).
        assert subrayleigh_fisher_order(1, 1.5) == pytest.approx(0.375, rel=1e-12)
        a = 1.0 / 3.0
        assert subrayleigh_fisher_order(2, 1.0) == pytest.approx(1.0 * a ** 3, rel=1e-12)

    def test_subrayleigh_total_anchors(self):
        assert subrayleigh_fisher_total(1.5) == pytest.approx(0.4514162296, rel=1e-8)
        assert subrayleigh_fisher_total(1.0) == pytest.approx(0.3819660113, rel=1e-8)

    def test_total_dominates_partial_sums(self):
        for ns in (0.1, 1.0, 3.0):
            partial = sum(subrayleigh_fisher_order(p, ns) for p in range(1, 80))
            assert partial == pytest.approx(subrayleigh_fisher_total(ns), rel=1e-6)

    def test_asymptotic_two_photon(self):
        assert asymptotic_fisher_2p(0.5) == pytest.approx(4.0 / 27.0, rel=1e-12)

    def test_optimal_brightness(self):
        assert optimal_brightness(2) == 0.5
        assert optimal_brightness(3) == 1.0
        ns_grid = np.linspace(0.05, 3.0, 60)
        values = ns_grid / (1.0 + ns_grid) ** 3
        assert abs(ns_grid[np.argmax(values)] - 0.5) < 0.06

    def test_validation(self):
        with pytest.raises(ValueError):
            subrayleigh_fisher_order(0, 1.0)
        with pytest.raises(ValueError):
            optimal_brightness(1)

    def test_optimal_brightness_refuses_a_float_order(self):
        with pytest.raises(TypeError, match="integer"):
            optimal_brightness(2.5)


class TestFisherL:
    def test_two_photon_small_separation(self):
        for ns in (0.1, 1.5):
            scene = SourceScene(separation=0.01, brightness=ns)
            est = fisher_L(scene, PSF, 2)
            assert est.converged
            assert est.value == pytest.approx(subrayleigh_fisher_order(1, ns), rel=0.02)

    def test_two_photon_large_separation(self):
        for ns in (0.5, 1.5):
            scene = SourceScene(separation=20.0, brightness=ns)
            est = fisher_L(scene, PSF, 2)
            assert est.value == pytest.approx(asymptotic_fisher_2p(ns), rel=0.02)

    def test_gh_and_mc_agree(self):
        scene = SourceScene(separation=1.0, brightness=1.5)
        gh = fisher_L(scene, PSF, 3, QuadratureSpec(scheme="gauss_hermite_tensor"))
        mc = fisher_L(scene, PSF, 3, QuadratureSpec(scheme="monte_carlo_importance"))
        assert mc.value == pytest.approx(gh.value, rel=0.05)
        assert mc.stderr > 0

    def test_gh_error_is_nonzero_at_eight_nodes(self):
        # the refinement rule must use fewer nodes than the rule it checks
        est = fisher_L(
            SourceScene(8.0, 1.5), PSF, 2, QuadratureSpec(scheme="gauss_hermite_tensor", nodes_per_dim=8)
        )
        assert est.stderr > 0

    def test_reference_photon_order_is_negligible(self):
        # The lone reference photon carries information only through the
        # frame-size weight; by s = 6 sigma_x that channel is ~1e-8.
        est = fisher_L(SourceScene(separation=6.0, brightness=1.5), PSF, 1)
        assert est.value < 1e-6

    def test_validation(self):
        with pytest.raises(ValueError):
            fisher_L(SourceScene(separation=0.0, brightness=1.0), PSF, 2)
        with pytest.raises(ValueError):
            fisher_L(SourceScene(separation=1.0, brightness=1.0), PSF, 0)
        with pytest.raises(ValueError):
            QuadratureSpec(nodes_per_dim=4)
        with pytest.raises(ValueError):
            QuadratureSpec(sample_count=100)
        with pytest.raises(ValueError):
            QuadratureSpec(batch_count=1)
        with pytest.raises(ValueError):
            fisher_L(SourceScene(1.0, 1.0), PSF, 2, QuadratureSpec(scheme="simpson"))


class TestLatticeFisher:
    """``"auto"`` integrates L >= 4 on the shifted lattice; MC is the unbiased reference."""

    @pytest.mark.parametrize("s", [0.01, 1.0, 8.0])
    @pytest.mark.parametrize("L", [4, 5, 6, 7])
    def test_agrees_with_mc(self, L, s):
        scene = SourceScene(separation=s, brightness=1.5)
        lattice = fisher_L(scene, PSF, L, QuadratureSpec(sample_count=50_000))
        mc = fisher_L(scene, PSF, L, QuadratureSpec(scheme="monte_carlo_importance", sample_count=50_000))
        assert lattice.scheme == "rank1_lattice"
        assert abs(lattice.value - mc.value) < 4 * math.hypot(lattice.stderr, mc.stderr)

    @pytest.mark.parametrize("L", [4, 6])
    def test_even_orders_reach_subrayleigh_limit(self, L):
        s = 0.01
        est = fisher_L(SourceScene(separation=s, brightness=1.5), PSF, L)
        ref = subrayleigh_fisher_order(L // 2, 1.5)
        assert est.scheme == "rank1_lattice"
        assert abs(est.value / ref - 1.0) <= 5 * est.stderr / ref + 10 * s * s

    def test_leaves_heavy_scipy_subpackages_unloaded(self):
        # the lattice maps points through scipy.special.ndtri, not scipy.stats
        src = os.path.dirname(os.path.dirname(os.path.abspath(homsr.__file__)))
        probe = (
            f"import sys; sys.path.insert(0, {src!r}); import homsr; "
            "homsr.fisher_L(homsr.SourceScene(1, 1.5), homsr.PsfModel(), 4); "
            "print(','.join(m for m in ('scipy.integrate', 'scipy.stats') if m in sys.modules))"
        )
        loaded = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, check=True)
        assert loaded.stdout.strip() == ""


class TestExactIntegrand:
    @pytest.mark.parametrize("s", [0.01, 1.0, 8.0])
    @pytest.mark.parametrize("L", [1, 2, 3, 5, 8])
    def test_matches_five_point_difference(self, L, s):
        # The tolerance is the reference's own error: at step 1e-3 s the
        # double-precision five-point difference is off by up to ~2e-7
        # (its truncation at s = 8, its rounding at s = 0.01); a central
        # difference of step 1e-3 sigma_x is off by up to 8e-4 on these draws.
        scene = SourceScene(separation=s, brightness=1.5)
        k = envelope_mc_nodes(PSF, L, 200, np.random.default_rng([3, L]))

        def density(sc):
            return coincidence_density_all_splits(L, k, sc, PSF, include_envelope=False)

        g = density(scene)
        dg = five_point_ds(density, scene, 1e-3 * s)
        floor = 1e-15 * g.max(axis=0, keepdims=True)
        expected = np.where(g > floor, dg ** 2 / np.where(g > 0, g, 1.0), 0.0).sum(axis=1)
        np.testing.assert_allclose(_fisher_integrand(L, k, scene, PSF), expected, rtol=1e-6)

    def test_blocks_leave_every_row_as_one_block_gives_it(self, monkeypatch):
        # rows with k_2 -> k_1 take split X = 1 of L = 2 towards zero: below 1e-15 of its largest value over
        # the call, but not over their own block of 4 rows, which is then redone at the call's floor
        scene = SourceScene(separation=1.0, brightness=1.5)
        k = envelope_mc_nodes(PSF, 2, 40, np.random.default_rng(5))
        gap = np.geomspace(1e-10, 1e-5, 40) * PSF.sigma_k
        k = np.vstack([k, np.column_stack([k[:, 0], k[:, 0] + gap])])
        whole = _fisher_integrand(2, k, scene, PSF)  # one block
        redone, rows = [], fisher._fisher_rows
        monkeypatch.setattr(fisher, "_fisher_rows", lambda *args: redone.append(len(args) > 4) or rows(*args))
        monkeypatch.setattr(fisher, "_CHUNK_BYTES", 192)  # kernel chunks of 2 rows at L = 2, complex
        assert np.array_equal(_fisher_integrand(2, k, scene, PSF), whole)
        assert len(redone) > 20 and any(redone)


class TestFisherTotal:
    def test_default_l_max(self):
        assert default_l_max(SourceScene(1.0, 1.5)) == 7
        assert default_l_max(SourceScene(1.0, 0.1)) == 3

    def test_breakdown_consistency(self):
        scene = SourceScene(separation=0.5, brightness=0.5)
        breakdown = fisher_total(scene, PSF)
        assert breakdown.total == pytest.approx(sum(e.value for e in breakdown.per_L.values()), rel=1e-12)
        assert set(breakdown.per_L) == set(range(1, breakdown.l_max + 1))
        assert breakdown.closed_form_refs["subrayleigh_total"] == pytest.approx(
            subrayleigh_fisher_total(0.5), rel=1e-12
        )

    def test_small_separation_total_matches_closed_form(self):
        scene = SourceScene(separation=0.01, brightness=1.0)
        breakdown = fisher_total(scene, PSF, l_max=6)
        assert breakdown.total == pytest.approx(subrayleigh_fisher_total(1.0), rel=0.03)

    def test_validation(self):
        with pytest.raises(ValueError):
            fisher_total(SourceScene(1.0, 1.0), PSF, l_max=1)

    @pytest.mark.parametrize("s", [0.01, 1.0, 8.0])
    @pytest.mark.parametrize("scheme", ["auto", "rank1_lattice", "monte_carlo_importance"])
    def test_per_order_equals_fisher_L(self, scheme, s):
        # the orders integrated together see exactly the nodes of their own calls
        scene, quad = SourceScene(separation=s, brightness=1.5), QuadratureSpec(scheme=scheme, sample_count=20_000)
        breakdown = fisher_total(scene, PSF, l_max=7, quad=quad)
        for L in range(1, 8):
            alone, joint = fisher_L(scene, PSF, L, quad), breakdown.per_L[L]
            assert joint.value == pytest.approx(alone.value, rel=1e-12, abs=0)
            assert joint.stderr == pytest.approx(alone.stderr, rel=1e-12, abs=0)
            assert (joint.scheme, joint.points, joint.converged) == (alone.scheme, alone.points, alone.converged)
        assert breakdown.total == sum(e.value for e in breakdown.per_L.values())

    @pytest.mark.parametrize("scheme", ["auto", "rank1_lattice"])
    def test_total_stderr_is_the_shift_error_of_the_summed_integrand(self, scheme):
        scene, quad = SourceScene(separation=1.0, brightness=1.5), QuadratureSpec(scheme=scheme, sample_count=20_000)
        breakdown = fisher_total(scene, PSF, l_max=6, quad=quad)
        joint = [L for L, e in breakdown.per_L.items() if e.scheme == "rank1_lattice"]
        totals = []
        for b in range(quad.batch_count):
            rng = np.random.default_rng([quad.seed, b])
            k = envelope_lattice_nodes(PSF, 6, quad.sample_count // quad.batch_count, rng)
            totals.append(sum(_fisher_integrand(L, k[:, :L], scene, PSF).mean() for L in joint))
        shift_error = np.std(totals, ddof=1) / math.sqrt(quad.batch_count) / PSF.sigma_k ** 2
        others = sum(e.stderr ** 2 for L, e in breakdown.per_L.items() if L not in joint)
        assert breakdown.total_stderr == pytest.approx(math.sqrt(shift_error ** 2 + others), rel=1e-9)
        # shared nodes correlate the orders' errors, so the sum's error is not their quadrature sum
        assert breakdown.total_stderr != pytest.approx(math.sqrt(sum(e.stderr ** 2 for e in breakdown.per_L.values())),
                                                       rel=1e-3)

    @pytest.mark.parametrize("scheme", ["auto", "monte_carlo_importance"])
    def test_one_thread_and_two_agree_bit_for_bit(self, scheme, monkeypatch):
        # the shifts (or batches) run on every usable CPU; their means are kept in shift order
        scene, quad = SourceScene(separation=1.0, brightness=1.5), QuadratureSpec(scheme=scheme, sample_count=20_000)
        runs = []
        for count in (1, 2):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid, count=count: set(range(count)))
            breakdown = fisher_total(scene, PSF, l_max=7, quad=quad)
            runs.append((breakdown.per_L, breakdown.total, breakdown.total_stderr))
        assert runs[0] == runs[1]

    def test_points_are_the_rows_each_order_used(self):
        breakdown = fisher_total(SourceScene(1.0, 1.5), PSF, l_max=5, quad=QuadratureSpec(sample_count=20_000))
        gh = {1: 64 + 48, 2: 48 ** 2 + 36 ** 2, 3: 40 ** 3 + 30 ** 3}
        assert {L: e.points for L, e in breakdown.per_L.items()} == {**gh, 4: 20 * 997, 5: 20 * 997}
        mc = fisher_L(SourceScene(1.0, 1.5), PSF, 4, QuadratureSpec(scheme="monte_carlo_importance"))
        assert mc.points == 200_000
        uneven = QuadratureSpec(scheme="monte_carlo_importance", sample_count=10_001, batch_count=7)
        breakdown = fisher_total(SourceScene(1.0, 1.5), PSF, l_max=4, quad=uneven)
        assert {L: e.points for L, e in breakdown.per_L.items()} == dict.fromkeys(range(1, 5), 7 * 1428)


class TestHierarchy:
    @pytest.mark.parametrize("s,ns", [(0.3, 0.5), (1.0, 1.5), (3.0, 1.0)])
    def test_ordering_and_cross_check(self, s, ns):
        scene = SourceScene(separation=s, brightness=ns)
        h = sampling_hierarchy_fi(scene, PSF)
        assert h.f_full >= h.f_dk_x >= h.f_x >= 0
        assert h.f_full >= h.f_kbar_x >= h.f_x
        est = fisher_L(scene, PSF, 2)
        assert h.f_full == pytest.approx(est.value, rel=1e-3)

    def test_class_term_matches_bucket(self):
        scene = SourceScene(separation=1.0, brightness=1.5)
        h = sampling_hierarchy_fi(scene, PSF)
        assert bucket_fisher(scene, PSF, 2) == pytest.approx(h.f_x, rel=1e-4)


class TestHierarchyExact:
    @pytest.mark.parametrize("ns", [0.1, 1.5])
    @pytest.mark.parametrize("s", [1e-7, 1e-4, 0.01, 1.0, 8.0, 20.0])
    def test_matches_fisher_L_and_bucket(self, s, ns):
        scene = SourceScene(separation=s, brightness=ns)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            h = sampling_hierarchy_fi(scene, PSF)
        assert h.f_full == pytest.approx(fisher_L(scene, PSF, 2).value, rel=1e-10)
        assert h.f_x == bucket_fisher(scene, PSF, 2)
        if s >= 1e-4:
            assert h.f_full >= h.f_dk_x >= h.f_x
            assert h.f_full >= h.f_kbar_x >= h.f_x

    def test_zero_separation_rejected(self):
        with pytest.raises(ValueError, match="s > 0"):
            sampling_hierarchy_fi(SourceScene(separation=0.0, brightness=1.5), PSF)


class TestBucketFisher:
    @pytest.mark.parametrize("s", [1e-8, 1e-12])
    @pytest.mark.parametrize("L", [2, 4, 6])
    def test_keeps_balanced_classes_at_tiny_separation(self, L, s):
        # The balanced weights are exact down to any s > 0, so the bucket
        # information reaches the sub-Rayleigh limit of F^(L).
        scene = SourceScene(separation=s, brightness=1.5)
        assert bucket_fisher(scene, PSF, L) == pytest.approx(subrayleigh_fisher_order(L // 2, 1.5), rel=1e-12)

    def test_zero_separation_rejected(self):
        with pytest.raises(ValueError, match="s > 0"):
            bucket_fisher(SourceScene(separation=0.0, brightness=1.5), PSF, 2)

    @pytest.mark.parametrize("L", [0, -1])
    def test_order_below_one_rejected(self, L):
        with pytest.raises(ValueError, match="L must be >= 1"):
            bucket_fisher(SourceScene(separation=1.0, brightness=1.5), PSF, L)

    def test_small_separation_retains_information(self):
        scene = SourceScene(separation=0.02, brightness=1.5)
        for L in (2, 4):
            resolved = fisher_L(scene, PSF, L).value
            assert bucket_fisher(scene, PSF, L) >= 0.95 * resolved

    @pytest.mark.parametrize("s", [0.3, 1.0, 5.0])
    @pytest.mark.parametrize("L", [1, 2, 4, 8, 12])
    def test_matches_five_point_difference_of_weights(self, L, s):
        scene = SourceScene(separation=s, brightness=1.5)
        w = class_weights(L, scene, PSF)
        dw = five_point_ds(lambda sc: class_weights(L, sc, PSF), scene, 1e-4 * s)
        expected = float((dw ** 2 / w).sum()) / PSF.sigma_k ** 2
        assert bucket_fisher(scene, PSF, L) == pytest.approx(expected, rel=2e-7)

    def test_large_separation_loses_information(self):
        scene = SourceScene(separation=10.0, brightness=1.5)
        resolved = fisher_L(scene, PSF, 2).value
        assert bucket_fisher(scene, PSF, 2) < 0.05 * resolved


class TestDiBaseline:
    @staticmethod
    def _unpixelated_oracle(scene, psf):
        s, sx = scene.separation, psf.sigma_x

        def intensity(x, sep):
            return 0.5 * (
                np.exp(-((x - sep / 2.0) ** 2) / (2 * sx ** 2))
                + np.exp(-((x + sep / 2.0) ** 2) / (2 * sx ** 2))
            ) / (sx * math.sqrt(2 * math.pi))

        h = 1e-6

        def integrand(x):
            d = (intensity(x, s + h) - intensity(x, s - h)) / (2 * h)
            return d ** 2 / intensity(x, s)

        lim = s / 2.0 + 10.0 * sx
        value, _ = integrate.quad(integrand, -lim, lim, limit=200)
        return scene.brightness * value / psf.sigma_k ** 2

    def test_fine_pixels_converge_to_continuum(self):
        scene = SourceScene(separation=1.0, brightness=1.5)
        fine = di_baseline_fisher(scene, PSF, pixel_pitch=0.01, n_pixels=2800)
        assert fine == pytest.approx(self._unpixelated_oracle(scene, PSF), rel=1e-3)

    @pytest.mark.parametrize("s, pitch, n", [
        (0.3, 0.5, 200), (1.0, 2.0, 60), (1.0, 5.0, 40), (8.0, 5.0, 40), (0.0, 0.5, 200),
        # near s = 0 each d_s q_i is a small difference of two image pdfs
        (1e-6, 0.5, 200), (1e-6, 2.0, 60), (1e-4, 0.5, 200), (1e-4, 5.0, 40),
    ])
    def test_matches_extended_precision_pixel_sum(self, s, pitch, n):
        # The same pixel sum at 40 digits, with d_s q from the Gaussian pdf.
        mpmath = pytest.importorskip("mpmath")

        def mass(a, b):  # Gaussian mass on [a, b], from the near tail
            return mpmath.ncdf(b) - mpmath.ncdf(a) if a + b < 0 else mpmath.ncdf(-a) - mpmath.ncdf(-b)

        with mpmath.workdps(40):
            sx, half = mpmath.mpf(PSF.sigma_x), mpmath.mpf(s) / 2
            edges = [(i - mpmath.mpf(n) / 2) * mpmath.mpf(pitch) for i in range(n + 1)]
            info = mpmath.mpf(0)
            for lo, hi in zip(edges[:-1], edges[1:]):
                q = (mass((lo - half) / sx, (hi - half) / sx) + mass((lo + half) / sx, (hi + half) / sx)) / 2
                dq = (mpmath.npdf((hi + half) / sx) - mpmath.npdf((lo + half) / sx)
                      - mpmath.npdf((hi - half) / sx) + mpmath.npdf((lo - half) / sx)) / (4 * sx)
                info += dq ** 2 / q
            expected = float(info) * 1.5 / PSF.sigma_k ** 2
        got = di_baseline_fisher(SourceScene(s, 1.5), PSF, pixel_pitch=pitch, n_pixels=n)
        # at s = 0 the direct image carries no information; the 40-digit sum leaves ~1e-85
        assert got == pytest.approx(expected, rel=1e-13, abs=1e-30)

    def test_coarse_pixels_lose_information(self):
        scene = SourceScene(separation=1.0, brightness=1.5)
        fine = di_baseline_fisher(scene, PSF, pixel_pitch=0.01, n_pixels=2800)
        coarse = di_baseline_fisher(scene, PSF, pixel_pitch=2.0, n_pixels=14)
        assert coarse < fine

    def test_rayleigh_curse(self):
        # Direct imaging loses all information as s -> 0, while the
        # interferometric total stays finite.
        ns = 1.5
        di_small = di_baseline_fisher(SourceScene(0.05, ns), PSF, pixel_pitch=0.05, n_pixels=260)
        assert di_small < 0.05 * subrayleigh_fisher_total(ns)

    def test_coverage_validation(self):
        with pytest.raises(ValueError):
            di_baseline_fisher(SourceScene(1.0, 1.0), PSF, pixel_pitch=0.1, n_pixels=20)
        with pytest.raises(ValueError):
            di_baseline_fisher(SourceScene(1.0, 1.0), PSF, pixel_pitch=0.0, n_pixels=100)

    def test_pixel_count_must_be_an_integer(self):
        # a float count would build ceil(n) pixels, centred a quarter pitch off
        with pytest.raises(TypeError):
            di_baseline_fisher(SourceScene(1.0, 1.5), PSF, pixel_pitch=0.1, n_pixels=400.5)
        assert di_baseline_fisher(SourceScene(1.0, 1.5), PSF, 0.1, np.int64(400)) == di_baseline_fisher(
            SourceScene(1.0, 1.5), PSF, 0.1, 400)
