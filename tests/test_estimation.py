"""Unit tests for the frame sampler, record IO and the ML estimator.

Oracles: closed-form frame-size/class probabilities for the sampled
frequencies, exact serialization round-trips, and the Cramér-Rao bound for
the estimator's dispersion on a short synthetic record.
"""

import math

import numpy as np
import pytest

from homsr.coincidence import DetectionOutcome, class_weights, coincidence_density, frame_size_distribution
from homsr.estimation import (
    ExperimentConfig,
    FrameSampler,
    MajorantError,
    crb_report,
    mle_separation,
    read_record,
    record_from_lines,
    record_to_lines,
    sample_frame,
    simulate_experiment,
    write_record,
)
from homsr.optics import PsfModel, SourceScene

PSF = PsfModel()
SCENE = SourceScene(separation=1.0, brightness=1.5)


@pytest.fixture(scope="module")
def sampler():
    return FrameSampler(SCENE, PSF)


@pytest.fixture(scope="module")
def record_2000(sampler):
    return sampler.sample_record(np.random.default_rng(11), 2000)


class TestSampler:
    def test_deterministic_from_seed(self):
        a = FrameSampler(SCENE, PSF, l_cap=6).sample_record(np.random.default_rng(3), 40)
        b = FrameSampler(SCENE, PSF, l_cap=6).sample_record(np.random.default_rng(3), 40)
        assert a == b

    def test_l_cap_respected(self, sampler, record_2000):
        assert max(o.photon_count for o in record_2000) <= sampler.l_cap

    def test_frame_size_frequencies(self, sampler, record_2000):
        n = len(record_2000)
        p = sampler.p_l_given_cap
        counts = np.bincount([o.photon_count for o in record_2000], minlength=sampler.l_cap + 1)[1:]
        for L in range(1, 6):
            expected = n * p[L - 1]
            se = math.sqrt(n * p[L - 1] * (1 - p[L - 1]))
            assert abs(counts[L - 1] - expected) < 4 * se

    def test_class_frequencies(self, record_2000):
        frames = [o for o in record_2000 if o.photon_count == 2]
        w = class_weights(2, SCENE, PSF)
        w = w / w.sum()
        n = len(frames)
        for X in range(3):
            observed = sum(o.camera_split == X for o in frames)
            se = math.sqrt(n * w[X] * (1 - w[X]))
            assert abs(observed - n * w[X]) < 4 * se

    def test_truncated_mass(self, sampler):
        assert sampler.truncated_mass == pytest.approx(
            frame_size_distribution(sampler.l_cap, SCENE, PSF).sum(), rel=1e-12
        )
        assert 0.95 < sampler.truncated_mass < 1.0

    def test_momentum_bin_rounding(self, sampler):
        record = sampler.sample_record(np.random.default_rng(5), 50, momentum_bin=0.05)
        for outcome in record:
            for k in outcome.momenta:
                assert k / 0.05 == pytest.approx(round(k / 0.05), abs=1e-9)

    def test_sample_frame_wrapper(self):
        outcome = sample_frame(SCENE, PSF, np.random.default_rng(0), l_cap=4)
        assert 1 <= outcome.photon_count <= 4

    def test_majorant_adapts_instead_of_failing(self, sampler):
        # Force an artificially low bound: the sampler must recover by
        # rescanning rather than raising.
        key = (3, 1)
        sampler._majorant(*key)
        sampler._majorants[key] *= 1e-3
        draws = sampler._sample_momenta(3, 1, 500, np.random.default_rng(2))
        assert draws.shape == (500, 3)
        assert sampler._majorants[key] > 0
        assert issubclass(MajorantError, RuntimeError)


class TestSimulateExperiment:
    def test_reproducible_from_config(self):
        config = ExperimentConfig(SCENE, PSF, frame_count=30, seed=99, l_cap=5)
        a = simulate_experiment(config)
        b = simulate_experiment(config)
        assert a == b

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ExperimentConfig(SCENE, PSF, frame_count=0, seed=1)
        with pytest.raises(ValueError):
            ExperimentConfig(SCENE, PSF, frame_count=10, seed=1, search_interval=(2.0, 1.0))
        with pytest.raises(ValueError):
            ExperimentConfig(SCENE, PSF, frame_count=10, seed=1, l_cap=1)


class TestRecordIO:
    def test_roundtrip_exact(self, record_2000, tmp_path):
        path = tmp_path / "record.csv"
        subset = record_2000[:200]
        write_record(path, subset, PSF)
        back = read_record(path, PSF)
        assert back == subset

    def test_line_format(self):
        outcome = DetectionOutcome(2, 1, (0.25, -0.5))
        (line,) = list(record_to_lines([outcome], PSF))
        fields = line.split(",")
        assert fields[0] == "2" and fields[1] == "1"
        # momenta serialized in sigma_k units
        assert float(fields[2]) == pytest.approx(0.25 / PSF.sigma_k)

    def test_roundtrip_keeps_camera_assignment(self):
        outcome = DetectionOutcome(3, 1, (0.3, -0.7, 1.1), camera_assignment=(0, 0, 1))
        (back,) = record_from_lines(record_to_lines([outcome], PSF), PSF)
        assert coincidence_density(back, SCENE, PSF) == pytest.approx(
            coincidence_density(outcome, SCENE, PSF), rel=1e-12
        )

    def test_blank_lines_ignored(self):
        lines = ["", "1,0,0.5", "   "]
        record = record_from_lines(lines, PSF)
        assert len(record) == 1
        assert record[0].photon_count == 1


class TestMle:
    def test_recovers_truth_within_dispersion(self, record_2000):
        report = mle_separation(record_2000, PSF, SCENE.brightness, true_separation=1.0)
        sd = math.sqrt(report.crb)
        assert abs(report.bias) < 4 * sd
        assert not report.boundary_flag

    def test_boundary_flagged(self, record_2000):
        report = mle_separation(
            record_2000[:400], PSF, SCENE.brightness, search_interval=(1.8, 3.0), compute_crb=False
        )
        assert report.boundary_flag
        assert report.s_hat < 1.8 + 1e-2

    def test_likelihood_curve(self, record_2000):
        report = mle_separation(
            record_2000[:400], PSF, SCENE.brightness, curve_points=15, compute_crb=False
        )
        grid, values = report.log_likelihood_curve
        assert grid.shape == values.shape == (15,)
        # curve maximum sits at the grid point nearest the estimate
        assert abs(grid[np.argmax(values)] - report.s_hat) <= (grid[1] - grid[0])

    def test_empty_record_rejected(self):
        with pytest.raises(ValueError):
            mle_separation([], PSF, 1.5)

    def test_zero_density_frame_rejected(self):
        # An antibunched pair with k1 == k2 has density 0 at every s.
        record = [DetectionOutcome(1, 0, (0.1,))] * 50 + [DetectionOutcome(2, 1, (0.3, 0.3))]
        with pytest.raises(ValueError, match="zero density"):
            mle_separation(record, PSF, 1.5, compute_crb=False)


class TestCrb:
    def test_scales_inversely_with_frames(self):
        one = crb_report(SCENE, PSF, 1000)
        four = crb_report(SCENE, PSF, 4000)
        assert one == pytest.approx(4.0 * four, rel=1e-12)
        assert one > 0
