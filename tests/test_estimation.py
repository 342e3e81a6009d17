"""Unit tests for the frame sampler, record IO and the ML estimator.

Oracles: closed-form frame-size/class probabilities for the sampled
frequencies, exact serialization round-trips, and the Cramér-Rao bound for
the estimator's dispersion on a short synthetic record.
"""

import itertools
import math
import os

import numpy as np
import pytest

import homsr.estimation as estimation
from homsr.coincidence import (
    DetectionOutcome,
    _bracket,
    class_weights,
    coincidence_density,
    frame_size_distribution,
    log_coincidence_density,
)
from homsr.estimation import (
    EstimationReport,
    ExperimentConfig,
    FrameRecord,
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
from homsr.fisher import QuadratureSpec, fisher_L
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

    def test_l_cap_must_be_an_integer(self):
        with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
            FrameSampler(SCENE, PSF, l_cap=2.5)

    def test_negative_frame_count_names_n(self, sampler):
        with pytest.raises(ValueError, match="n must be >= 0"):
            sampler.sample_record(np.random.default_rng(0), -1)

    def test_record_of_no_frames(self, sampler):
        record = sampler.sample_record(np.random.default_rng(0), 0)
        assert len(record) == 0 and record == [] and record.groups == {}

    def test_record_of_one_frame(self, sampler):
        record = sampler.sample_record(np.random.default_rng(5), 1)
        [(L, (positions, splits, momenta))] = record.groups.items()
        assert positions.tolist() == [0] and momenta.shape == (1, L) and record[0].momenta == tuple(momenta[0])
        assert record[0].camera_split == splits[0] and np.isfinite(momenta).all()
        assert record == [sample_frame(SCENE, PSF, np.random.default_rng(5))]  # a fresh sampler, the same draws

    def test_sample_frame_wrapper(self):
        outcome = sample_frame(SCENE, PSF, np.random.default_rng(0), l_cap=4)
        assert 1 <= outcome.photon_count <= 4

    def test_majorant_adapts_instead_of_failing(self, sampler, monkeypatch):
        # Force an artificially low bound: the sampler must recover by
        # raising it rather than failing.  A raise lasts one call, so the
        # shared sampler's table is restored afterwards.
        key = (3, 1)
        monkeypatch.setitem(sampler._majorants, key, sampler._majorant(*key) * 1e-3)
        draws = sampler._sample_momenta(3, 1, 500, np.random.default_rng(2))
        assert draws.shape == (500 * 3,)  # 500 rows of 3 momenta, one after another
        assert sampler._majorants[key] > 0
        assert issubclass(MajorantError, RuntimeError)

    def test_majorant_error_after_nine_violated_passes(self):
        # Every bracket call exceeds every bound before it, so each pass ends
        # at its first block; the ninth such pass must raise.
        sampler = FrameSampler(SCENE, PSF, l_cap=3)
        brackets, passes = [], []
        majorant = sampler._majorant

        def growing_bracket(L, X, k):  # 10x the previous call, so above any 1.2x bound
            brackets.append(len(L))
            return np.full(len(L), 10.0 ** len(brackets))

        def counted_majorant(L, X):
            passes.append((L, X))
            return majorant(L, X)

        sampler._bracket, sampler._majorant = growing_bracket, counted_majorant
        with pytest.raises(MajorantError):
            sampler._sample_momenta(2, 1, 100, np.random.default_rng(0))
        assert len(passes) == 1  # the table is read once per call; the raises stay in the call
        assert sampler.cell_counts[(2, 1)]["violated"] == 9
        assert len(brackets) == 9  # one block per pass: the probe scan ran when the sampler was built


def ragged_rows(lengths, k):
    """The rows of a round's flat buffer ``k`` (column a of the rows with L > a, column after column), as tuples."""
    rows, at = [[] for _ in lengths], 0
    for a in range(max(lengths, default=0)):
        running = int(np.count_nonzero(np.asarray(lengths) > a))
        for row, value in zip(rows, k[at : at + running].tolist()):
            row.append(value)
        at += running
    assert at == len(k)
    return [tuple(row) for row in rows]


def recorded_brackets(sampler):
    """Wrap ``sampler._bracket`` so each call's (L, X, momenta, result) is appended to the returned list."""
    calls, bracket = [], sampler._bracket

    def recorded(L, X, k):
        calls.append((L, X, k, bracket(L, X, k)))
        return calls[-1][3]

    sampler._bracket = recorded
    return calls


class TestMajorantScanAndBlocks:
    """One probe scan at construction bounds every cell; blocks are sized by the exact acceptance w/bound."""

    @pytest.mark.parametrize("s", [0.01, 1.0, 8.0])
    def test_bracket_mirror_identity(self, s):
        # g_{L-X} at the reversed momenta is g_X, which lets one scan bound splits X and L - X alike
        sampler = FrameSampler(SourceScene(s, 1.5), PSF)
        for L in range(1, 13):
            k = np.random.default_rng([L, 17]).standard_normal((400, L)) * PSF.sigma_k
            g = _bracket(k, s, sampler._theta, [L])
            mirrored = _bracket(k[:, ::-1], s, sampler._theta, [L])[:, ::-1]
            assert g.shape == (400, L + 1)
            assert np.all(np.abs(mirrored - g) <= 1e-13 * g.max(axis=0))

    @pytest.mark.parametrize("s", [0.01, 1.0, 8.0])
    def test_one_scan_fills_every_split(self, s):
        sampler = FrameSampler(SourceScene(s, 1.5), PSF)
        assert sorted(sampler._majorants) == [(L, X) for L in range(1, 13) for X in range(L + 1)]
        # the pinned probe draw: order L's probes are its first L columns, the origin row 0
        probes = (np.random.default_rng(9191).standard_normal((12, 32_768)) * PSF.sigma_k).T
        probes[0] = 0.0
        for L in range(1, 13):
            peak = _bracket(probes[:, :L], s, sampler._theta, [L]).max(axis=0)
            for X in range(L + 1):
                assert sampler._majorant(L, X) == 1.2 * max(peak[X], peak[L - X])

    def test_bounds_do_not_depend_on_l_cap(self):
        # column-major probes: order L reads the same draw at every l_cap >= L
        small, large = FrameSampler(SCENE, PSF, l_cap=6), FrameSampler(SCENE, PSF)
        for L in range(1, 7):
            for X in range(L + 1):
                assert small._majorant(L, X) == large._majorant(L, X)

    @pytest.mark.parametrize("l_cap", [2, 12, 20])
    def test_scan_slices_stay_within_one_orders_output(self, monkeypatch, l_cap):
        # one usable CPU keeps every slice in this process, where the closure can count it
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        calls, bracket = [], estimation._bracket

        def recorded(k, *args, **kwargs):
            calls.append(bracket(k, *args, **kwargs))
            return calls[-1]

        monkeypatch.setattr(estimation, "_bracket", recorded)
        FrameSampler(SCENE, PSF, l_cap=l_cap)
        assert sum(len(out) for out in calls) == 32_768
        assert all(out.size <= 32_768 * (l_cap + 1) for out in calls)

    def test_proposals_per_frame_at_s_1(self):
        # the bounds alone need about 4.4 proposals per frame here
        sampler = FrameSampler(SCENE, PSF)
        calls = recorded_brackets(sampler)
        record = sampler.sample_record(np.random.default_rng(23), 5000)
        proposals = sum(len(L) for L, X, _, _ in calls if X is not None)  # one row per proposal
        assert len(record) == 5000
        assert proposals <= 7 * 5000

    def test_blocks_capped_at_s_8(self, monkeypatch):
        # bound/w reaches 2e3 at s = 8, so a cell's expected need is well above a small cap
        cap = 2048
        monkeypatch.setattr(estimation, "_BLOCK_CAP", cap)
        sampler = FrameSampler(SourceScene(8.0, 1.5), PSF)
        calls = recorded_brackets(sampler)
        record = sampler.sample_record(np.random.default_rng(29), 5000)
        blocks = [len(L) for L, X, _, _ in calls if X is not None]
        assert len(record) == 5000
        assert max(blocks) == cap

    def test_cell_counts(self):
        sampler = FrameSampler(SCENE, PSF, l_cap=6)
        calls = recorded_brackets(sampler)
        record = sampler.sample_record(np.random.default_rng(31), 3000)
        drawn = {}
        for L, X, k, _ in calls:
            if X is not None:  # one L and split per row
                for cell in zip(L.tolist(), X.tolist()):
                    drawn[cell] = drawn.get(cell, 0) + 1
        frames = {}
        for L, (_, splits, _) in record.groups.items():
            for X, n in zip(*np.unique(splits, return_counts=True)):
                frames[(L, int(X))] = int(n)
        assert sorted(sampler.cell_counts) == sorted(frames)
        for cell, counts in sampler.cell_counts.items():
            assert counts["proposals"] == drawn[cell]
            assert frames[cell] <= counts["accepted"] <= counts["proposals"]
            assert counts["violated"] == 0

    def test_cell_counts_record_violated_passes(self):
        sampler = FrameSampler(SCENE, PSF, l_cap=3)
        sampler._majorant(2, 1)
        sampler._majorants[(2, 1)] *= 1e-3
        assert sampler._sample_momenta(2, 1, 200, np.random.default_rng(37)).shape == (200 * 2,)
        assert sampler.cell_counts[(2, 1)]["violated"] >= 1

    def test_one_proposal_call_per_round(self):
        # every cell of the record shares one per-row call per round, each row at its own L and split: 2-4 calls
        sampler = FrameSampler(SCENE, PSF)
        calls = recorded_brackets(sampler)
        record = sampler.sample_record(np.random.default_rng(23), 5000)
        proposals = [(L, X, k) for L, X, k, _ in calls if X is not None]
        assert len(record) == 5000
        assert len(proposals) <= 6
        for L, X, k in proposals:
            assert np.ndim(L) == np.ndim(X) == 1 and len(L) == len(X)
            assert np.all(np.diff(L) <= 0) and k.shape == (L.sum(),)  # descending L, sum of L words

    def test_violation_keeps_other_cells_of_its_round(self, monkeypatch):
        # a violation in cell (3, 1) of the first round drops that cell's rows only: the cells of other L keep
        # the rows and tallies of an unforced call from the same generator
        monkeypatch.setattr(estimation, "_BLOCK_FLOOR", 2000)  # blocks far above need: one round fills a cell
        cells = (np.array([4, 3, 2]), np.array([2, 1, 0]), np.array([40, 40, 40]))
        plain = FrameSampler(SCENE, PSF, l_cap=4)
        plain_calls = recorded_brackets(plain)
        want = plain._sample_momenta(*cells, np.random.default_rng(53))
        assert len(plain_calls) == 1  # the unforced call ends in one round

        forced = FrameSampler(SCENE, PSF, l_cap=4)
        bracket, calls, bound = forced._bracket, [], forced._majorant(3, 1)

        def first_round_violates(L, X, k):  # one proposal of (3, 1) at 1.1 times its bound
            g = bracket(L, X, k)
            calls.append((L, X, k))
            if len(calls) == 1:
                g[np.flatnonzero((L == 3) & (X == 1))[0]] = 1.1 * bound
            return g

        forced._bracket = first_round_violates
        got = forced._sample_momenta(*cells, np.random.default_rng(53))
        assert len(calls) == 2 and got.shape == want.shape == (40 * 4 + 40 * 3 + 40 * 2,)
        np.testing.assert_array_equal(got[:160], want[:160])  # cell (4, 2), 40 rows of 4 momenta
        np.testing.assert_array_equal(got[280:], want[280:])  # cell (2, 0)
        for cell in [(4, 2), (2, 0)]:
            assert forced.cell_counts[cell] == plain.cell_counts[cell]
        counts = forced.cell_counts[(3, 1)]
        L, X, k = calls[1]
        assert counts["violated"] == 1 and forced._majorant(3, 1) == bound  # the raise lasted the call only
        assert len(L) == np.ceil(40 * (1.2 * (1.1 * bound)) / forced._weights[2, 1]) + 2000  # sized by the raise
        redrawn = (L == 3) & (X == 1)
        assert counts["proposals"] == plain.cell_counts[(3, 1)]["proposals"] + redrawn.sum()
        assert counts["accepted"] >= 40 and redrawn.sum() == len(L)  # the second round drew for (3, 1) alone
        # (3, 1)'s rows were all drawn in the second round, under the raised bound
        second = set(ragged_rows(L, k))
        assert all(tuple(row) in second for row in got[160:280].reshape(40, 3).tolist())

    def test_violation_drops_the_rows_its_pass_kept_from_earlier_rounds(self):
        # a pass spans rounds: a violation in the second round also drops the rows accepted in the first
        sampler = FrameSampler(SCENE, PSF, l_cap=4)
        bracket, calls, bound = sampler._bracket, [], sampler._majorant(3, 1)

        def rounds(L, X, k):  # round one: ten proposals just under the bound, the rest rejected; two: a violation
            g = bracket(L, X, k)
            calls.append((L, k))
            if len(calls) == 1:
                g[:10], g[10:] = 0.99 * bound, 0.0
            elif len(calls) == 2:
                g[0] = 1.1 * bound
            return g

        sampler._bracket = rounds
        got = sampler._sample_momenta(3, 1, 40, np.random.default_rng(61))
        assert len(calls[1][0]) < len(calls[0][0])  # the first round kept rows, so the second drew fewer proposals
        assert len(calls) >= 3 and sampler.cell_counts[(3, 1)]["violated"] == 1
        later = {row for L, k in calls[2:] for row in ragged_rows(L, k)}
        assert all(tuple(row) in later for row in got.reshape(40, 3).tolist())

    def test_records_depend_only_on_their_seed(self):
        # a violation in record 1 raises (2, 1)'s bound for that record only: every other record is a fresh
        # sampler's record from the same seed, and the sampler's table is the scan's after all five
        sampler = FrameSampler(SCENE, PSF)
        bracket, bound, forced = sampler._bracket, sampler._majorant(2, 1), []

        def violates_in_record_1(L, X, k):  # one proposal of (2, 1) at 1.1 times its bound, in record 1's first call
            g = bracket(L, X, k)
            if t == 1 and not forced:
                forced.append(np.flatnonzero((L == 2) & (X == 1))[0])
                g[forced[0]] = 1.1 * bound
            return g

        sampler._bracket = violates_in_record_1
        records = []
        for t in range(5):
            records.append(sampler.sample_record(np.random.default_rng([7, t]), 1000))
        assert forced and sampler.cell_counts[(2, 1)]["violated"] == 1
        for t in (0, 2, 3, 4):
            fresh = FrameSampler(SCENE, PSF)
            assert records[t] == fresh.sample_record(np.random.default_rng([7, t]), 1000), t
        assert sampler._majorants == fresh._majorants

    def test_round_draws_the_masked_column_major_draw(self):
        # each proposal's momenta are, bit for bit, its column of a (largest L, rows) zero array whose entries
        # before each row's L were filled, column-major, by one draw from the same generator state
        sampler = FrameSampler(SCENE, PSF, l_cap=6)
        calls = recorded_brackets(sampler)
        cells = (np.array([6, 4, 4, 1]), np.array([3, 0, 2, 1]), np.array([30, 20, 20, 40]))
        sampler._sample_momenta(*cells, np.random.default_rng(71))
        L, _, k, _ = calls[0]
        padded = np.zeros((L[0], len(L)))
        padded[np.arange(L[0])[:, None] < L] = np.random.default_rng(71).standard_normal(int(L.sum())) * PSF.sigma_k
        assert set(L.tolist()) == {6, 4, 1}
        assert ragged_rows(L, k) == [tuple(padded[:n, i].tolist()) for i, n in enumerate(L.tolist())]


class TestPerRowHook:
    """``FrameSampler._bracket`` with one L per row, as a whole-record round calls it."""

    @pytest.mark.parametrize("s", [0.01, 1.0, 8.0])
    @pytest.mark.parametrize("n", [1, 40, 5000])
    def test_per_row_photon_numbers_match_per_l_calls_bit_for_bit(self, s, n):
        sampler = FrameSampler(SourceScene(s, 1.5), PSF)
        rng = np.random.default_rng([59, n])
        lengths = np.sort(rng.integers(1, 13, n))[::-1]
        xs = rng.integers(0, lengths + 1)
        k = rng.standard_normal((n, 12)) * PSF.sigma_k
        # the rows' flat buffer: column a of the rows with L > a, column after column
        got = sampler._bracket(lengths, xs, np.concatenate([k[lengths > a, a] for a in range(12)]))
        for L in np.unique(lengths).tolist():
            rows = lengths == L
            np.testing.assert_array_equal(got[rows], sampler._bracket(L, xs[rows], k[rows, :L].T.ravel()))


class TestCellDensities:
    """Each (L, X) cell of a sampled record follows its own density g_X, not a neighbour's."""

    S = 4.0
    FRAMES = 400_000
    ENVELOPE_DRAWS = 1_000_000

    @staticmethod
    def fringes(k, s):
        """sum_{a < b} b^2 cos(s (k_a - k_b)/2): pair fringes, deeper across cameras, weighted to the last photons."""
        return sum(b * b * np.cos(s * (k[:, a] - k[:, b]) / 2) for a, b in itertools.combinations(range(k.shape[1]), 2))

    @pytest.fixture(scope="class")
    def sampled(self):
        sampler = FrameSampler(SourceScene(self.S, 1.5), PSF, l_cap=5)
        return sampler, sampler.sample_record(np.random.default_rng(41), self.FRAMES)

    @pytest.mark.parametrize("L", [3, 5])
    def test_cell_means_match_their_own_density(self, sampled, L):
        sampler, record = sampled
        # E_env[h g_X] / E_env[g_X] by ratio estimation over envelope draws, with its delta-method standard error
        sums, draws = 0.0, 4
        for b in range(draws):
            k = np.random.default_rng([43, L, b]).standard_normal((self.ENVELOPE_DRAWS // draws, L)) * PSF.sigma_k
            g, h = _bracket(k, self.S, sampler._theta, [L]), self.fringes(k, self.S)[:, None]
            sums = sums + np.array([g.sum(0), (h * g).sum(0), (h * g * g).sum(0), (h * h * g * g).sum(0), (g * g).sum(0)])
        n = self.ENVELOPE_DRAWS
        mean_g, mean_hg, hgg, hhgg, gg = sums / n
        want = mean_hg / mean_g
        # var of (h - want) g / E[g] over the draws
        want_se = np.sqrt((hhgg - 2 * want * hgg + want ** 2 * gg) / mean_g ** 2 / n)
        _, splits, momenta = record.groups[L]
        got = [self.fringes(momenta[splits == X], self.S) for X in range(L + 1)]
        mean = np.array([h.mean() for h in got])
        se = np.array([h.std(ddof=1) / math.sqrt(len(h)) for h in got])
        for X in range(L + 1):
            assert abs(mean[X] - want[X]) < 4 * math.hypot(se[X], want_se[X]), (L, X, mean[X], want[X])
        # the statistic tells each cell from its neighbours and from its mirror (g_0 = g_L, so 0 and L are one density)
        for a, b in {(X, X + 1) for X in range(L)} | {(X, L - X) for X in range(1, L) if 2 * X != L}:
            assert abs(want[a] - want[b]) > 10 * math.hypot(se[a], se[b]), (L, a, b)


class TestFrameRecord:
    def test_reads_as_outcomes_built_from_columns(self, record_2000):
        frames = [None] * len(record_2000)
        for L, (positions, splits, momenta) in record_2000.groups.items():
            assert momenta.shape == (len(positions), L) and splits.shape == positions.shape
            for i, X, row in zip(positions, splits, momenta):
                frames[i] = DetectionOutcome(L, X, tuple(row))
        assert list(record_2000) == frames
        assert record_2000[0] == frames[0] and record_2000[-1] == frames[-1]
        assert record_2000[:10] == frames[:10]
        firsts = [positions[0] for positions, _, _ in record_2000.groups.values()]
        assert firsts == sorted(firsts)  # groups in order of their first frame

    def test_seeds_give_unequal_records(self, sampler):
        a, b = (sampler.sample_record(np.random.default_rng(seed), 40) for seed in (1, 2))
        assert a != b

    def test_columns_read_only(self, record_2000):
        for arrays in record_2000.groups.values():
            assert not any(a.flags.writeable for a in arrays)
        with pytest.raises(ValueError, match="read-only"):
            record_2000.groups[1][2][0, 0] = 0.0

    def test_fit_matches_outcome_list(self, record_2000):
        fits = [mle_separation(r, PSF, SCENE.brightness, compute_crb=False) for r in (record_2000, list(record_2000))]
        assert fits[0].s_hat == fits[1].s_hat

    def test_lines_match_outcome_list(self, record_2000):
        assert list(record_to_lines(record_2000, PSF)) == list(record_to_lines(list(record_2000), PSF))

    def test_from_outcomes_groups_canonical_momenta(self):
        outcomes = [DetectionOutcome(1, 0, (0.1,)),
                    DetectionOutcome(3, 1, (0.3, -0.7, 1.1), camera_assignment=(0, 0, 1))]
        record = FrameRecord.from_outcomes(outcomes)
        assert list(record) == outcomes
        assert record.groups[3][2].tolist() == [[1.1, 0.3, -0.7]]

    def test_group_without_rows_rejected(self):
        with pytest.raises(ValueError, match="group L = 2 has no rows"):
            FrameRecord({2: (np.array([], int), np.array([], int), np.empty((0, 2)))})


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
            ExperimentConfig(SCENE, PSF, frame_count=10, seed=1, l_cap=1)

    def test_negative_seed_named(self):
        with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
            ExperimentConfig(SCENE, PSF, frame_count=10, seed=-1)

    def test_frame_count_must_be_an_integer(self):
        with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
            ExperimentConfig(SCENE, PSF, frame_count=10.5, seed=1)


class TestRecordIO:
    def test_roundtrip_exact(self, record_2000, tmp_path):
        path = tmp_path / "record.csv"
        subset = record_2000[:200]
        write_record(path, subset, PSF)
        back = read_record(path, PSF)
        assert back == subset
        write_record(path, record_2000, PSF)
        back = read_record(path, PSF)
        assert isinstance(back, FrameRecord)
        assert back == record_2000
        fits = [mle_separation(r, PSF, SCENE.brightness, compute_crb=False) for r in (record_2000, back)]
        assert fits[1].s_hat == fits[0].s_hat

    def test_sample_write_read_fit_builds_no_outcome(self, sampler, tmp_path, monkeypatch):
        def forbidden(self):
            raise AssertionError("DetectionOutcome built")

        monkeypatch.setattr(DetectionOutcome, "__post_init__", forbidden)
        path = tmp_path / "record.csv"
        record = sampler.sample_record(np.random.default_rng(5), 300)
        write_record(path, record, PSF)
        fits = [mle_separation(r, PSF, SCENE.brightness, compute_crb=False) for r in (record, read_record(path, PSF))]
        assert fits[1].s_hat == fits[0].s_hat

    def test_line_format(self):
        outcome = DetectionOutcome(2, 1, (0.25, -0.5))
        (line,) = list(record_to_lines([outcome], PSF))
        fields = line.split(",")
        assert fields[0] == "2" and fields[1] == "1"
        # momenta serialized in sigma_k units
        assert float(fields[2]) == pytest.approx(0.25 / PSF.sigma_k)

    def test_numpy_integer_counts_roundtrip(self):
        outcome = DetectionOutcome(np.int64(3), np.int64(1), (0.3, -0.7, 1.1))
        assert type(outcome.photon_count) is int and type(outcome.camera_split) is int
        (line,) = list(record_to_lines([outcome], PSF))
        assert line.startswith("3,1,")
        assert record_from_lines([line], PSF) == [outcome]

    def test_roundtrip_keeps_camera_assignment(self):
        outcome = DetectionOutcome(3, 1, (0.3, -0.7, 1.1), camera_assignment=(0, 0, 1))
        (back,) = record_from_lines(record_to_lines([outcome], PSF), PSF)
        assert coincidence_density(back, SCENE, PSF) == pytest.approx(
            coincidence_density(outcome, SCENE, PSF), rel=1e-12
        )

    @pytest.mark.parametrize("line, message", [
        *(pytest.param(f"2,1,{text},0.5", "momenta must be finite", id=text) for text in ("nan", "inf", "-inf")),
        pytest.param("3,1,0.1,0.5", "momenta length must equal photon_count", id="too-few-momenta"),
        pytest.param("2,3,0.1,0.5", r"camera_split must lie in \[0, photon_count\]", id="split-above-L"),
        pytest.param("0,0", "photon_count must be >= 1", id="L-zero"),
        pytest.param("2.0,1,0.1,0.5", "invalid literal for int", id="L-not-integer"),
    ])
    def test_non_finite_momentum_rejected(self, line, message):
        with pytest.raises(ValueError, match=message):
            record_from_lines([line], PSF)

    def test_error_names_line_number_and_text(self, tmp_path):
        path = tmp_path / "record.csv"
        path.write_text("1,0,0.5\n\n1,0,0.5\n2.0,1,0.1,0.5\n")  # line numbers count the blank line
        with pytest.raises(ValueError, match=r"line 4 '2\.0,1,0\.1,0\.5': invalid literal for int"):
            read_record(path, PSF)

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

    @pytest.mark.parametrize(
        "interval", [(-1.0, 4.0), (0.0, 4.0), (3.0, 1.0), (1.0, 1.0), (0.05, math.inf), (math.nan, 4.0)]
    )
    def test_bad_search_interval_rejected(self, interval, record_2000, monkeypatch):
        # raised before the likelihood is evaluated
        monkeypatch.setattr(estimation, "_log_likelihood", None)
        with pytest.raises(ValueError, match="search_interval"):
            mle_separation(record_2000, PSF, 1.5, search_interval=interval, compute_crb=False)

    def test_l_cap_below_two_rejected(self, record_2000, monkeypatch):
        monkeypatch.setattr(estimation, "_log_likelihood", None)
        with pytest.raises(ValueError, match="l_cap must be >= 2"):
            mle_separation(record_2000, PSF, 1.5, l_cap=1, compute_crb=False)

    def test_l_cap_must_be_an_integer(self, record_2000, monkeypatch):
        monkeypatch.setattr(estimation, "_log_likelihood", None)
        with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
            mle_separation(record_2000, PSF, 1.5, l_cap=4.5, compute_crb=False)

    def test_empty_record_rejected(self):
        with pytest.raises(ValueError):
            mle_separation([], PSF, 1.5)

    def test_zero_density_frame_rejected(self):
        # An antibunched pair with k1 == k2 has density 0 at every s.
        record = [DetectionOutcome(1, 0, (0.1,))] * 50 + [DetectionOutcome(2, 1, (0.3, 0.3))]
        with pytest.raises(ValueError, match="zero density"):
            mle_separation(record, PSF, 1.5, compute_crb=False)

    def test_frame_above_l_cap_rejected(self):
        # The likelihood is conditioned on L <= l_cap, so such a frame has probability 0.
        record = [DetectionOutcome(1, 0, (0.1,))] * 50 + [DetectionOutcome(13, 6, tuple(np.linspace(-1, 1, 13)))]
        with pytest.raises(ValueError, match="L = 13.*l_cap = 12"):
            mle_separation(record, PSF, 1.5, compute_crb=False)


class TestLikelihood:
    """The grouped likelihood against a frame-by-frame sum of public densities."""

    @pytest.fixture(scope="class")
    def mixed_record(self, record_2000):
        record = [o for o in record_2000 if o.photon_count <= 6][:300]
        assert {o.photon_count for o in record} == set(range(1, 7))
        # one frame with a non-canonical camera assignment (C1 photon last)
        return record + [DetectionOutcome(3, 1, (0.3, -0.7, 1.1), camera_assignment=(0, 0, 1))]

    def test_curve_matches_framewise_densities(self, mixed_record):
        l_cap = 12
        report = mle_separation(mixed_record, PSF, SCENE.brightness, l_cap=l_cap, curve_points=7, compute_crb=False)
        for s, value in zip(*report.log_likelihood_curve):
            scene = SourceScene(separation=s, brightness=SCENE.brightness)
            expected = sum(log_coincidence_density(o, scene, PSF) for o in mixed_record)
            expected -= len(mixed_record) * math.log(frame_size_distribution(l_cap, scene, PSF).sum())
            assert value == pytest.approx(expected, rel=1e-12)

    def test_frames_of_one_photon_only(self, record_2000):
        # the per-row layout of L = 1 frames alone is one column of momenta
        record = [o for o in record_2000 if o.photon_count == 1][:200]
        assert {o.camera_split for o in record} == {0, 1}
        report = mle_separation(record, PSF, SCENE.brightness, curve_points=5, compute_crb=False)
        assert np.isfinite(report.s_hat) and report.optimizer_success
        for s, value in zip(*report.log_likelihood_curve):
            scene = SourceScene(separation=s, brightness=SCENE.brightness)
            expected = sum(log_coincidence_density(o, scene, PSF) for o in record)
            expected -= len(record) * math.log(frame_size_distribution(12, scene, PSF).sum())
            assert value == pytest.approx(expected, rel=1e-12)

    def test_canonical_order_gives_same_estimate(self, mixed_record):
        last = mixed_record[-1]
        canonical = mixed_record[:-1] + [DetectionOutcome(3, 1, last.canonical_momenta)]
        assert canonical[-1].momenta == (1.1, 0.3, -0.7)
        fits = [mle_separation(r, PSF, SCENE.brightness, compute_crb=False) for r in (mixed_record, canonical)]
        assert fits[0].s_hat == fits[1].s_hat

    def test_one_kernel_call_per_evaluation(self, mixed_record, monkeypatch):
        counts = {"evals": 0, "kernel": 0}
        bracket, log_likelihood = estimation._bracket, estimation._log_likelihood

        def counted_bracket(*args, **kwargs):
            counts["kernel"] += 1
            return bracket(*args, **kwargs)

        def counted_log_likelihood(*args, **kwargs):
            counts["evals"] += 1
            return log_likelihood(*args, **kwargs)

        monkeypatch.setattr(estimation, "_bracket", counted_bracket)
        monkeypatch.setattr(estimation, "_log_likelihood", counted_log_likelihood)
        report = mle_separation(mixed_record, PSF, SCENE.brightness, compute_crb=False)
        assert counts["evals"] > 0
        assert counts["kernel"] == counts["evals"]
        assert report.objective_evals == counts["evals"]

    def test_reports_the_optimiser_status(self, mixed_record):
        report = mle_separation(mixed_record, PSF, SCENE.brightness, compute_crb=False)
        assert report.optimizer_success is True
        assert EstimationReport(1.0, None, None, False, None).optimizer_success is None


def scipy_bounded(f, lo, hi, xatol, **options):
    """(x, fun, nfev, success) of scipy's bounded Brent search, the oracle of ``estimation._bounded_brent``."""
    from scipy.optimize import minimize_scalar

    res = minimize_scalar(f, bounds=(lo, hi), method="bounded", options={"xatol": xatol, **options})
    return res.x, res.fun, res.nfev, res.success


def assert_same_search(got, want):
    # exact equality; a NaN x or f(x) must be NaN on both sides
    np.testing.assert_array_equal(np.array(got[:3], dtype=float), np.array(want[:3], dtype=float))
    assert type(got[2]) is int and got[3] is want[3]


class TestBoundedBrent:
    """The in-package bounded Brent search takes scipy's steps: the same point, value, evaluations and flag."""

    @pytest.mark.parametrize("xatol", [1e-5, 1e-2])
    @pytest.mark.parametrize("f", [
        lambda x: (x - 1.3) ** 2,  # minimum inside
        lambda x: (x + 1.0) ** 2,  # at the lower edge
        lambda x: (x - 10.0) ** 2,  # at the upper edge
        lambda x: math.cos(3.0 * x),
        lambda x: 2.0,  # constant
        lambda x: math.inf,  # a zero-density record: +inf everywhere
        lambda x: math.inf if x < 0.7 else (x - 1.5) ** 2,  # +inf on part of the interval
        lambda x: math.inf if x > 1.2 else (x - 1.5) ** 2,
        lambda x: math.nan if x > 2.0 else (x - 1.0) ** 2,  # NaN on part of it
        lambda x: math.nan if x < 1.0 else (x - 3.0) ** 2,
        lambda x: math.nan,
    ], ids=["inside", "lower edge", "upper edge", "cos", "constant", "inf", "inf below", "inf above", "nan above",
            "nan below", "nan"])
    def test_matches_scipy(self, f, xatol):
        assert_same_search(estimation._bounded_brent(f, 0.05, 4.0, xatol), scipy_bounded(f, 0.05, 4.0, xatol))

    @pytest.mark.parametrize("maxfun", [1, 2, 3, 5, 8])
    def test_stops_at_the_evaluation_cap(self, maxfun):
        def f(x):
            return math.cos(3.0 * x)

        got = estimation._bounded_brent(f, 0.05, 4.0, 1e-9, maxfun=maxfun)
        assert_same_search(got, scipy_bounded(f, 0.05, 4.0, 1e-9, maxiter=maxfun))
        assert got[2] == max(maxfun, 2) and got[3] is False

    @pytest.mark.parametrize("s,seed,interval", [
        (0.1, [11, 0], (0.05, 4.0)), (0.1, [11, 0], (1e-3, 4.0)),  # both fits end on the edge
        (0.1, [11, 2], (0.05, 4.0)), (0.1, [11, 2], (1e-3, 4.0)),  # both inside
        (1.0, [11, 0], (0.05, 4.0)), (4.0, [11, 0], (0.05, 4.0)),
    ])
    def test_fit_objective_matches_scipy(self, s, seed, interval, monkeypatch):
        searches, brent = [], estimation._bounded_brent

        def recorded(*args, **kwargs):
            searches.append(args)
            return brent(*args, **kwargs)

        monkeypatch.setattr(estimation, "_bounded_brent", recorded)
        record = FrameSampler(SourceScene(s, 1.5), PSF).sample_record(np.random.default_rng(seed), 5000)
        report = mle_separation(record, PSF, 1.5, search_interval=interval, compute_crb=False)
        (objective, lo, hi, xatol), = searches
        want = scipy_bounded(objective, lo, hi, xatol)
        assert_same_search(brent(objective, lo, hi, xatol), want)
        assert (report.s_hat, report.objective_evals, report.optimizer_success) == (want[0], want[2], want[3])
        assert report.boundary_flag is (s == 0.1 and seed == [11, 0])


class TestCrb:
    def test_scales_inversely_with_frames(self):
        one = crb_report(SCENE, PSF, 1000)
        four = crb_report(SCENE, PSF, 4000)
        assert one == pytest.approx(4.0 * four, rel=1e-12)
        assert one > 0

    @pytest.mark.parametrize("n_frames", [0, -5])
    def test_rejects_fewer_than_one_frame(self, n_frames, monkeypatch):
        # raised before the Fisher sum is taken
        monkeypatch.setattr(estimation, "fisher_total", None)
        with pytest.raises(ValueError, match="n_frames must be >= 1"):
            crb_report(SCENE, PSF, n_frames)

    def test_frame_count_must_be_an_integer(self, monkeypatch):
        monkeypatch.setattr(estimation, "fisher_total", None)
        with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
            crb_report(SCENE, PSF, 100.5)

    def test_rejects_l_cap_below_two(self, monkeypatch):
        monkeypatch.setattr(estimation, "fisher_total", None)
        with pytest.raises(ValueError, match="l_cap must be >= 2"):
            crb_report(SCENE, PSF, 1000, l_cap=1)

    def test_conditioned_on_l_cap(self):
        # F = sum_{L <= 7} F_L / W - (W'/W)^2 / sigma_k^2 at crb_report's spec, with W = sum_{L <= 7} P(L)
        # and W' by central difference of the frame-size law
        f_sum = sum(fisher_L(SCENE, PSF, L, QuadratureSpec(sample_count=20_000)).value for L in range(1, 8))

        def mass(s):
            return frame_size_distribution(7, SourceScene(s, SCENE.brightness), PSF).sum()

        h = 1e-5
        w, dw = mass(SCENE.separation), (mass(SCENE.separation + h) - mass(SCENE.separation - h)) / (2 * h)
        info = f_sum / w - (dw / w) ** 2 / PSF.sigma_k ** 2
        assert crb_report(SCENE, PSF, 1000, l_cap=7) == pytest.approx(1.0 / (1000 * info * PSF.sigma_k ** 2), rel=1e-10)

    def test_fit_passes_its_l_cap(self, record_2000, monkeypatch):
        calls = []
        monkeypatch.setattr(estimation, "crb_report", lambda *args: calls.append(args) or 1e-3)
        record = [outcome for outcome in record_2000 if outcome.photon_count <= 5]
        assert mle_separation(record, PSF, 1.5, l_cap=5).crb == 1e-3
        assert len(calls) == 1 and calls[0][2:] == (len(record), 5)
