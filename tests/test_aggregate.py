from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from shotgenre import aggregate
from shotgenre.aggregate import (
    even_indices, pack_records, pooled_visual, sample_shots, shot_feature, video_feature,
)
from shotgenre.featurestore import Shot, VideoRecord


def _record(num_shots, frames_per_shot=5, d=4, seed=0):
    rng = np.random.default_rng(seed)
    shots = [Shot(rng.normal(size=(frames_per_shot, d)).astype(np.float32))
             for _ in range(num_shots)]
    return VideoRecord("r0", "train", set(), shots, np.zeros(3, np.float32), [])


class TestShotFeature:
    def test_hand_mean(self):
        out = shot_feature(np.array([[1, 3], [3, 5], [2, 1]], dtype=np.float32))
        np.testing.assert_array_equal(out, np.array([2, 3], dtype=np.float32))

    def test_single_frame_identity(self):
        out = shot_feature(np.array([[4, 4]], dtype=np.float32))
        np.testing.assert_array_equal(out, np.array([4, 4], dtype=np.float32))

    def test_symmetric_cancellation(self):
        out = shot_feature(np.array([[1, 1], [-1, -1]], dtype=np.float32))
        np.testing.assert_array_equal(out, np.array([0, 0], dtype=np.float32))

    def test_empty_shot_rejected(self):
        with pytest.raises(ValueError):
            shot_feature(np.zeros((0, 4), dtype=np.float32))

    def test_accepts_shot_objects(self):
        shot = Shot(np.array([[2, 2], [4, 4]], dtype=np.float32))
        np.testing.assert_array_equal(shot_feature(shot), np.array([3, 3], np.float32))

    def test_permutation_invariance_exact(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            frames = rng.normal(size=(7, 5)).astype(np.float32) * 100
            base = shot_feature(frames)
            shuffled = shot_feature(frames[rng.permutation(7)])
            np.testing.assert_array_equal(base, shuffled)

    def test_scale_equivariance_within_ulp(self):
        rng = np.random.default_rng(12)
        frames = rng.normal(size=(6, 8)).astype(np.float32)
        for c in (2.0, 0.5, -4.0):
            scaled = shot_feature((frames * c).astype(np.float32))
            expect = (shot_feature(frames).astype(np.float64) * c).astype(np.float32)
            diff = np.abs(scaled.astype(np.float64) - expect.astype(np.float64))
            assert np.all(diff <= np.spacing(np.abs(expect).astype(np.float64)))


class TestVideoFeature:
    def test_hand_mean(self):
        out = video_feature(np.array([[2, 3], [4, 5]], dtype=np.float32))
        np.testing.assert_array_equal(out, np.array([3, 4], dtype=np.float32))

    def test_single_shot_identity(self):
        x = np.array([1.5, -2.25], dtype=np.float32)
        np.testing.assert_array_equal(video_feature([x]), x)

    def test_composition_equals_grand_mean(self):
        # uniform frame counts: mean of shot means == mean over every frame
        rng = np.random.default_rng(13)
        shots = rng.normal(size=(6, 4, 9)).astype(np.float32)
        via_shots = video_feature([shot_feature(s) for s in shots])
        grand = shots.reshape(-1, 9).astype(np.float64).mean(axis=0)
        np.testing.assert_allclose(via_shots, grand, atol=1e-6)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            video_feature(np.zeros((0, 4), dtype=np.float32))


class TestEvenIndices:
    def test_twenty_shots_pick_eight(self):
        # floor(i * 19 / 7) for i = 0..7
        assert even_indices(20, 8) == [0, 2, 5, 8, 10, 13, 16, 19]

    def test_fewer_available_duplicates(self):
        assert even_indices(2, 4) == [0, 0, 0, 1]

    def test_single_wanted(self):
        assert even_indices(9, 1) == [0]

    def test_exact_match(self):
        assert even_indices(3, 3) == [0, 1, 2]


class TestSampleShots:
    def test_deterministic_uniform_indices(self):
        rec = _record(20)
        picked = sample_shots(rec, num_shots=8, frames_per_shot=3, mode="deterministic-uniform")
        expect = [0, 2, 5, 8, 10, 13, 16, 19]
        for shot, idx in zip(picked, expect):
            np.testing.assert_array_equal(shot.frames[0], rec.shots[idx].frames[0])

    def test_fewer_shots_returns_all_in_order(self):
        rec = _record(5)
        picked = sample_shots(rec, num_shots=8, frames_per_shot=5)
        assert len(picked) == 5
        for got, src in zip(picked, rec.shots):
            np.testing.assert_array_equal(got.frames, src.frames)

    def test_seeded_random_repeatable(self):
        rec = _record(30)
        a = sample_shots(rec, mode="seeded-random", seed=99)
        b = sample_shots(rec, mode="seeded-random", seed=99)
        assert len(a) == 8
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x.frames, y.frames)

    def test_seeded_random_distinct_shots(self):
        rec = _record(30)
        picked = sample_shots(rec, mode="seeded-random", seed=3)
        keys = [s.frames.tobytes() for s in picked]
        assert len(set(keys)) == len(keys) == 8

    def test_frame_subsampling_evenly_spaced(self):
        rec = _record(1, frames_per_shot=7)
        picked = sample_shots(rec, num_shots=1, frames_per_shot=3)
        assert picked[0].frames.shape[0] == 3
        np.testing.assert_array_equal(picked[0].frames[1], rec.shots[0].frames[3])

    def test_frame_duplication_when_short(self):
        rec = _record(1, frames_per_shot=2)
        picked = sample_shots(rec, num_shots=1, frames_per_shot=3)
        assert picked[0].frames.shape[0] == 3
        np.testing.assert_array_equal(picked[0].frames[0], picked[0].frames[1])

    def test_zero_shots_rejected(self):
        rec = VideoRecord("r", "train", set(), [], np.zeros(3, np.float32), [])
        with pytest.raises(ValueError):
            sample_shots(rec)

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            sample_shots(_record(4), mode="whatever")


# Exact float32 values whose float64 sums cancel or absorb terms, so a
# change in summation order changes the pooled result.
PALETTE = np.array([2.0 ** 60, -2.0 ** 60, 2.0 ** 30, -2.0 ** 30, 1.0, -1.0, 0.375, 3.0])


def _frames(rng, f, d):
    normal = rng.normal(size=(f, d)) * 10.0 ** rng.integers(-6, 7, size=(f, d))
    return np.where(rng.random((f, d)) < 0.5, rng.choice(PALETTE, (f, d)),
                    normal).astype(np.float32)


@st.composite
def ragged_records(draw):
    """Records of 1-19 shots of 1-11 frames of width 1-4."""
    d = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    records = []
    for i in range(draw(st.integers(1, 6))):
        frame_counts = draw(st.lists(st.integers(1, 11), min_size=1, max_size=19))
        shots = [Shot(_frames(rng, f, d)) for f in frame_counts]
        records.append(VideoRecord(f"r{i}", "train", set(), shots, np.zeros(1, np.float32), []))
    return records


class _KeyRows:
    """Stands in for the generator ``pooled_visual`` draws its keys from:
    row ``i`` is ``default_rng(seeds[i]).random(width)``, whose first ``n``
    keys are the ones ``sample_shots`` draws for a record of ``n`` shots
    from ``seeds[i]``."""

    def __init__(self, seeds):
        self.seeds = seeds
        self.sizes = []

    def random(self, size):
        self.sizes.append(size)
        return np.stack([np.random.default_rng(int(s)).random(size[1]) for s in self.seeds])


class TestPooledVisual:
    @settings(max_examples=150, deadline=None)
    @given(records=ragged_records(), num_shots=st.integers(1, 16),
           frames_per_shot=st.integers(1, 10), mode=st.sampled_from(aggregate.MODES),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_matches_per_record_path(self, records, num_shots, frames_per_shot, mode, seed):
        seeds = np.random.default_rng(seed).integers(0, 2 ** 63 - 1, size=len(records))
        expect = np.stack([
            video_feature([shot_feature(s) for s in
                           sample_shots(r, num_shots, frames_per_shot, mode, int(k))])
            for r, k in zip(records, seeds)
        ])
        # a block of two records makes most record lists span several blocks
        with mock.patch.object(aggregate, "_BLOCK_RECORDS", 2):
            packed = pack_records(records, frames_per_shot)
        got = pooled_visual(packed, num_shots, mode, _KeyRows(seeds))
        assert got.dtype == np.float32
        np.testing.assert_array_equal(got, expect)

    @settings(max_examples=100, deadline=None)
    @given(records=ragged_records())
    def test_all_frames_match_shot_feature(self, records):
        expect = np.stack([shot_feature(s) for r in records for s in r.shots])
        with mock.patch.object(aggregate, "_BLOCK_RECORDS", 2):
            got = pack_records(records, None).shot_features
        assert got.dtype == np.float32
        np.testing.assert_array_equal(got, expect)

    def test_zero_frames_per_shot_rejected(self):
        with pytest.raises(ValueError, match="frames_per_shot"):
            pack_records([_record(3)], 0)

    def test_seeded_random_requires_rng(self):
        with pytest.raises(ValueError, match="generator"):
            pooled_visual(pack_records([_record(20)]), mode="seeded-random")

    def test_draws_one_key_row_per_record(self):
        keys = _KeyRows([4, 5, 6])
        records = [_record(3), _record(12), _record(7)]
        pooled_visual(pack_records(records), num_shots=8, mode="seeded-random", rng=keys)
        assert keys.sizes == [(3, 12)]
        pooled_visual(pack_records(records), num_shots=8, rng=keys)
        assert keys.sizes == [(3, 12)]

    def test_each_shot_kept_at_rate_num_shots_over_shots(self):
        # shot j of every copy is the unit vector e_j, so 8 * a pooled row
        # marks the picked shots; 20k draws of 8 of 10 shots pick each shot
        # with frequency 0.8 (binomial sd 0.0028; tolerance 0.01 is 3.5 sd)
        shots = [Shot(np.eye(10, dtype=np.float32)[j:j + 1]) for j in range(10)]
        rec = VideoRecord("r", "train", set(), shots, np.zeros(3, np.float32), [])
        packed = pack_records([rec] * 20_000, frames_per_shot=1)
        picked = 8 * pooled_visual(packed, num_shots=8, mode="seeded-random",
                                   rng=np.random.default_rng(2024))
        np.testing.assert_array_equal(picked.sum(axis=1), 8)
        np.testing.assert_allclose(picked.mean(axis=0), 0.8, atol=0.01)

    def test_width_one_sums_left_to_right(self):
        # numpy's sum adds 8 or more contiguous values pairwise, which here
        # keeps 10 of the 14 ones that a left-to-right sum loses to rounding
        # at 2**54; every path must sum left to right and give mean 0
        column = np.array([-2.0 ** 54] + [1.0] * 14 + [2.0 ** 54], dtype=np.float32)[:, None]
        one_frame_shots = VideoRecord("s", "train", set(), [Shot(r[None]) for r in column],
                                      np.zeros(1, np.float32), [])
        one_shot = VideoRecord("f", "train", set(), [Shot(column)], np.zeros(1, np.float32), [])
        assert video_feature(column)[0] == 0.0
        assert shot_feature(column)[0] == 0.0
        assert pooled_visual(pack_records([one_frame_shots], 1), num_shots=16)[0, 0] == 0.0
        assert pooled_visual(pack_records([one_shot], 16), num_shots=1)[0, 0] == 0.0
        assert pack_records([one_shot], None).shot_features[0, 0] == 0.0

    def test_empty_record_named(self):
        empty = VideoRecord("blank", "train", set(), [], np.zeros(3, np.float32), [])
        with pytest.raises(ValueError, match="record blank"):
            pack_records([_record(3), empty])

    def test_frameless_shot_named(self):
        rec = VideoRecord("nof", "train", set(), [Shot(np.zeros((0, 4), np.float32))],
                          np.zeros(3, np.float32), [])
        with pytest.raises(ValueError, match="record nof"):
            pack_records([rec])

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="mode"):
            pooled_visual(pack_records([_record(3)]), mode="whatever")


class TestGroupedMean:
    def test_hand_groups_read_only_their_count(self):
        values = np.array([[1, 10], [3, 30], [8, 80]], dtype=np.float32)
        # row 1's index past its count points outside values and is never read
        index = np.array([[0, 1, 2], [2, 9, 9], [1, 0, 9]])
        out = aggregate.grouped_mean(values, index, np.array([3, 1, 2]))
        assert out.dtype == np.float32
        np.testing.assert_array_equal(out, [[4, 40], [8, 80], [2, 20]])

    def test_no_groups_gives_empty_matrix(self):
        out = aggregate.grouped_mean(np.ones((4, 3), np.float32), np.zeros((0, 2), np.int64),
                                     np.zeros(0, np.int64))
        assert out.shape == (0, 3) and out.dtype == np.float32
