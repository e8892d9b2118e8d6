import csv

import numpy as np
import pytest

from oracles import oracle_window_spans
from shotgenre import aggregate, analysis, fusion
from shotgenre.featurestore import (
    Dataset, EmbeddingTable, GenreTaxonomy, PixelStats, Shot, Token, VideoRecord,
)


def make_record(num_shots, d=4, seed=0):
    rng = np.random.default_rng(seed)
    shots = [Shot(rng.normal(size=(3, d)).astype(np.float32)) for _ in range(num_shots)]
    return VideoRecord("long", "test", set(), shots, np.zeros(2, np.float32), [])


def visual_model(d=4, g=3, seed=0):
    return fusion.make_genre_model("early", ("visual",), GenreTaxonomy(("A", "B", "C")[:g]),
                                   {"visual": d}, d_h=4, seed=seed)


class TestWindowStarts:
    def test_sixteen_shots_three_windows(self):
        assert analysis.window_starts(16, 8, 4) == [(0, 8), (4, 12), (8, 16)]

    def test_exactly_one_window(self):
        assert analysis.window_starts(8, 8, 4) == [(0, 8)]

    def test_partial_tail_included(self):
        assert analysis.window_starts(17, 8, 4) == [(0, 8), (4, 12), (8, 16), (12, 17)]

    def test_short_sequence_partial_only(self):
        assert analysis.window_starts(5, 8, 4) == [(0, 5)]

    def test_too_short_for_half_window(self):
        assert analysis.window_starts(3, 8, 4) == []

    def test_matches_oracle_on_random_cases(self):
        rng = np.random.default_rng(7)
        for _ in range(300):
            n = int(rng.integers(1, 60))
            w = int(rng.integers(1, 12))
            s = int(rng.integers(1, 8))
            assert analysis.window_starts(n, w, s) == oracle_window_spans(n, w, s)

    def test_starts_form_arithmetic_sequence(self):
        spans = analysis.window_starts(40, 8, 4)
        starts = [a for a, _ in spans]
        assert all(b - a == 4 for a, b in zip(starts, starts[1:]))

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            analysis.window_starts(0, 8, 4)
        with pytest.raises(ValueError):
            analysis.window_starts(5, 0, 4)


class TestSlidingWindow:
    def test_window_count_and_bounds(self):
        rec = make_record(16)
        labeling = analysis.sliding_window(rec, visual_model(), window=8, stride=4)
        assert [(w.start, w.end) for w in labeling.windows] == [(0, 8), (4, 12), (8, 16)]
        assert all(w.scores.shape == (3,) for w in labeling.windows)

    def test_deterministic(self):
        rec = make_record(20)
        model = visual_model(seed=2)
        a = analysis.sliding_window(rec, model)
        b = analysis.sliding_window(rec, model)
        for x, y in zip(a.windows, b.windows):
            np.testing.assert_array_equal(x.scores, y.scores)

    def test_empty_record_rejected(self):
        rec = VideoRecord("x", "test", set(), [], np.zeros(2, np.float32), [])
        with pytest.raises(ValueError):
            analysis.sliding_window(rec, visual_model())

    def test_language_model_requires_table(self):
        model = fusion.make_genre_model("late", ("visual", "language"),
                                        GenreTaxonomy(("A", "B", "C")),
                                        {"visual": 4, "language": 4}, d_h=4, seed=0)
        with pytest.raises(ValueError, match="embedding table"):
            analysis.sliding_window(make_record(10), model)

    def test_per_shot_mode_window_one(self):
        rec = make_record(6)
        labeling = analysis.sliding_window(rec, visual_model(), window=1, stride=1)
        assert [(w.start, w.end) for w in labeling.windows] == [(i, i + 1) for i in range(6)]

    @pytest.mark.parametrize("window,stride,spans", [
        (8, 4, [(0, 8), (4, 11)]),  # one full and one 7-shot trailing window
        (1, 1, [(i, i + 1) for i in range(11)]),
    ])
    @pytest.mark.parametrize("strategy", fusion.STRATEGIES)
    def test_batched_rows_equal_per_window_predict(self, strategy, window, stride, spans):
        rng = np.random.default_rng(11)
        table = EmbeddingTable(dim=3, vectors={w: rng.normal(size=3).astype(np.float32)
                                               for w in ("sea", "ship", "storm")})
        shots = [Shot(rng.normal(size=(int(rng.integers(1, 5)), 4)).astype(np.float32))
                 for _ in range(11)]
        rec = VideoRecord("long", "test", set(), shots, rng.normal(size=2).astype(np.float32),
                          [Token("sea", "NOUN"), Token("storm", "NOUN"), Token("ship", "NOUN")])
        model = fusion.make_genre_model(strategy, fusion.MODALITIES,
                                        GenreTaxonomy(("A", "B", "C")),
                                        {"visual": 4, "audio": 2, "language": 3}, d_h=5, seed=6)
        labeling = analysis.sliding_window(rec, model, table, window=window, stride=stride)
        assert [(w.start, w.end) for w in labeling.windows] == spans
        static = fusion.assemble_inputs(rec, table, modalities=("audio", "language"))
        for w in labeling.windows:
            visual = aggregate.video_feature(
                [aggregate.shot_feature(s) for s in rec.shots[w.start:w.end]])
            expect = fusion.predict(model, dict(static, visual=visual))
            assert w.scores.dtype == np.float32
            np.testing.assert_array_equal(w.scores, expect)

    def test_too_short_record_has_no_windows(self):
        labeling = analysis.sliding_window(make_record(3), visual_model(), window=8, stride=4)
        assert labeling.windows == []


class TestRetrieveShots:
    def _labeling(self, scores):
        taxonomy = GenreTaxonomy(("A", "B"))
        windows = [analysis.WindowScore(start=4 * i, end=4 * i + 8,
                                        scores=np.array([s, 0.0], np.float32))
                   for i, s in enumerate(scores)]
        return analysis.WindowLabeling(windows=windows, taxonomy=taxonomy, window=8, stride=4)

    def test_ranking_and_top_k(self):
        lab = self._labeling([0.9, 0.1, 0.5])
        top = analysis.retrieve_shots(lab, "A", top_k=2)
        assert [w.start for w in top] == [0, 8]

    def test_ties_earliest_first(self):
        lab = self._labeling([0.5, 0.5, 0.5])
        top = analysis.retrieve_shots(lab, "A", top_k=3)
        assert [w.start for w in top] == [0, 4, 8]

    def test_top_k_clamped(self):
        lab = self._labeling([0.3, 0.2])
        assert len(analysis.retrieve_shots(lab, "A", top_k=10)) == 2

    def test_unknown_genre(self):
        with pytest.raises(KeyError):
            analysis.retrieve_shots(self._labeling([0.1]), "Z", top_k=1)

    def test_matches_bruteforce_sort_oracle(self):
        rng = np.random.default_rng(11)
        scores = rng.uniform(size=12).round(1).tolist()  # ties likely
        lab = self._labeling(scores)
        got = [w.start for w in analysis.retrieve_shots(lab, "A", top_k=12)]
        remaining = list(enumerate(np.array(scores, dtype=np.float32)))
        expect = []
        while remaining:
            best = max(remaining, key=lambda kv: (kv[1], -kv[0]))
            expect.append(best[0] * 4)
            remaining.remove(best)
        assert got == expect


class TestPixelStats:
    def test_black_frame(self):
        ps = analysis.pixel_stats(np.zeros((4, 4, 3), np.uint8))
        assert ps.mean_luma == 0.0
        assert ps.warm_frac == 0.0 and ps.cold_frac == 0.0

    def test_white_frame_neutral(self):
        ps = analysis.pixel_stats(np.full((4, 4, 3), 255, np.uint8))
        assert ps.mean_luma == pytest.approx(1.0, abs=1e-7)
        assert ps.warm_frac == 0.0 and ps.cold_frac == 0.0

    def test_pure_red_warm(self):
        frame = np.zeros((2, 2, 3), np.uint8)
        frame[..., 0] = 255
        ps = analysis.pixel_stats(frame)
        assert ps.warm_frac == 1.0 and ps.cold_frac == 0.0
        assert ps.mean_luma == pytest.approx(0.2126, abs=1e-7)

    def test_pure_blue_cold(self):
        frame = np.zeros((2, 2, 3), np.uint8)
        frame[..., 2] = 255
        ps = analysis.pixel_stats(frame)
        assert ps.cold_frac == 1.0 and ps.warm_frac == 0.0

    def test_partition_sums_to_one(self):
        rng = np.random.default_rng(12)
        frame = rng.integers(0, 256, size=(16, 16, 3)).astype(np.uint8)
        ps = analysis.pixel_stats(frame)
        assert ps.warm_frac + ps.cold_frac + ps.neutral_frac == 1.0

    def test_matches_per_pixel_oracle(self):
        import colorsys

        rng = np.random.default_rng(13)
        frame = rng.integers(0, 256, size=(5, 7, 3)).astype(np.uint8)
        warm = cold = 0
        luma_total = 0.0
        for row in frame.reshape(-1, 3):
            r, g, b = (v / 255.0 for v in row)
            luma_total += 0.2126 * r + 0.7152 * g + 0.0722 * b
            h, s, v = colorsys.rgb_to_hsv(r, g, b)
            hue = h * 360.0
            if s < 0.15 or v < 0.1:
                continue
            if hue < 90.0 or hue >= 330.0:
                warm += 1
            else:
                cold += 1
        ps = analysis.pixel_stats(frame)
        total = frame.shape[0] * frame.shape[1]
        # PixelStats canonicalizes to 32-bit values
        assert ps.warm_frac == float(np.float32(warm / total))
        assert ps.cold_frac == float(np.float32(cold / total))
        assert ps.mean_luma == pytest.approx(luma_total / total, abs=1e-7)

    def test_empty_frame_rejected(self):
        with pytest.raises(ValueError):
            analysis.pixel_stats(np.zeros((0, 3, 3), np.uint8))


def _record_with_stats(rid, genres, luma, warm=0.3, cold=0.3, split="train"):
    shot = Shot(np.zeros((2, 4), np.float32),
                [PixelStats(luma, warm, cold), PixelStats(luma, warm, cold)])
    return VideoRecord(rid, split, genres, [shot], np.zeros(2, np.float32), [])


class TestGenreProfiles:
    def _dataset(self, records):
        return Dataset(GenreTaxonomy(("A", "B")), 4, 2, 2, records)

    def test_hand_ci(self):
        ds = self._dataset([
            _record_with_stats("r0", {"A"}, 0.2),
            _record_with_stats("r1", {"A"}, 0.4),
        ])
        prof = {p.genre: p for p in analysis.genre_profiles(ds)}["A"]
        assert prof.brightness_mean == pytest.approx(0.3, abs=1e-7)
        # sample stddev of (0.2, 0.4) is 0.1414...; 1.96 * sd / sqrt(2)
        assert prof.brightness_ci == pytest.approx(1.96 * 0.14142135 / np.sqrt(2), abs=1e-4)
        assert not prof.flagged

    def test_single_video_flagged_no_ci(self):
        ds = self._dataset([_record_with_stats("r0", {"A"}, 0.5)])
        prof = {p.genre: p for p in analysis.genre_profiles(ds)}["A"]
        assert prof.flagged and prof.brightness_ci is None
        assert prof.brightness_mean == pytest.approx(0.5)

    def test_identical_values_zero_ci(self):
        ds = self._dataset([_record_with_stats(f"r{i}", {"B"}, 0.25) for i in range(4)])
        prof = {p.genre: p for p in analysis.genre_profiles(ds)}["B"]
        assert prof.brightness_ci == pytest.approx(0.0, abs=1e-12)

    def test_coldwarm_ratio_floor(self):
        ds = self._dataset([
            _record_with_stats("r0", {"A"}, 0.5, warm=0.0, cold=0.4),
            _record_with_stats("r1", {"A"}, 0.5, warm=0.0, cold=0.4),
        ])
        prof = {p.genre: p for p in analysis.genre_profiles(ds)}["A"]
        assert prof.coldwarm_mean == pytest.approx(0.4 / 1e-6)

    def test_long_record_matches_per_frame_float64_mean(self):
        # 3 shots of 50 frames: past the 128 values np.mean sums in one block
        rng = np.random.default_rng(14)
        stats = rng.dirichlet((2.0, 2.0, 2.0), size=(3, 50)).astype(np.float32)
        rec = VideoRecord("r0", "train", {"A"}, [Shot(np.zeros((50, 4)), s) for s in stats],
                          np.zeros(2, np.float32), [])
        rows = [(float(a), float(b), float(c)) for a, b, c in stats.reshape(-1, 3)]
        luma, warm, cold = (float(np.mean([row[j] for row in rows])) for j in range(3))
        prof = {p.genre: p for p in analysis.genre_profiles(self._dataset([rec]))}["A"]
        assert prof.brightness_mean == luma
        assert prof.coldwarm_mean == cold / warm

    def test_records_without_stats_skipped(self):
        bare = VideoRecord("r9", "train", {"A"},
                           [Shot(np.zeros((1, 4), np.float32))], np.zeros(2, np.float32), [])
        ds = self._dataset([bare])
        prof = {p.genre: p for p in analysis.genre_profiles(ds)}["A"]
        assert prof.num_videos == 0 and prof.flagged

    def test_csv_writers(self, tmp_path):
        ds = self._dataset([
            _record_with_stats("r0", {"A"}, 0.2),
            _record_with_stats("r1", {"A"}, 0.4),
        ])
        analysis.write_profiles_csv(analysis.genre_profiles(ds), tmp_path / "p.csv")
        lines = (tmp_path / "p.csv").read_text().strip().splitlines()
        assert lines[0].startswith("genre,num_videos")
        assert len(lines) == 3

        rec = make_record(12)
        labeling = analysis.sliding_window(rec, visual_model())
        analysis.write_labeling_csv(labeling, tmp_path / "l.csv")
        lines = (tmp_path / "l.csv").read_text().strip().splitlines()
        assert lines[0] == "start,end,genre,score"
        assert len(lines) == 1 + len(labeling.windows) * 3

    def test_csv_writers_quote_fields(self, tmp_path):
        odd = 'Sci-Fi, "B"'
        taxonomy = GenreTaxonomy(("A", odd))
        ds = Dataset(taxonomy, 4, 2, 2, [_record_with_stats("r0", {odd}, 0.5)])
        analysis.write_profiles_csv(analysis.genre_profiles(ds), tmp_path / "p.csv")
        model = fusion.make_genre_model("early", ("visual",), taxonomy, {"visual": 4}, d_h=4)
        analysis.write_labeling_csv(analysis.sliding_window(make_record(8), model),
                                    tmp_path / "l.csv")
        for name in ("p.csv", "l.csv"):
            with open(tmp_path / name, newline="", encoding="utf-8") as fh:
                genres = [row["genre"] for row in csv.DictReader(fh)]
            assert set(genres) == {"A", odd}, name
