import csv
import json

import numpy as np
import pytest

from oracles import oracle_average_precision, oracle_predictions_text
from shotgenre import metrics
from shotgenre.featurestore import DatasetFormatError, GenreTaxonomy


class TestAveragePrecision:
    def test_perfect_ranking(self):
        assert metrics.average_precision([0.9, 0.1], [1, 0]) == 1.0

    def test_inverted_ranking(self):
        assert metrics.average_precision([0.1, 0.9], [1, 0]) == 0.5

    def test_five_sixths_case(self):
        ap = metrics.average_precision([0.9, 0.8, 0.7], [1, 0, 1])
        assert ap == (1.0 + 2.0 / 3.0) / 2.0
        assert abs(ap - 5.0 / 6.0) < 1e-12

    def test_matches_oracle_on_random_instances(self):
        rng = np.random.default_rng(17)
        for _ in range(1000):
            n = int(rng.integers(1, 51))
            scores = np.round(rng.uniform(0, 1, size=n), 2)  # induce ties
            labels = rng.integers(0, 2, size=n)
            got = metrics.average_precision(scores, labels)
            want = oracle_average_precision(scores.tolist(), labels.tolist())
            assert abs(got - want) < 1e-12

    def test_tie_broken_by_original_index(self):
        # same score everywhere: earlier index ranks first
        assert metrics.average_precision([0.5, 0.5], [1, 0]) == 1.0
        assert metrics.average_precision([0.5, 0.5], [0, 1]) == 0.5

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(18)
        for _ in range(50):
            n = int(rng.integers(2, 30))
            scores = rng.normal(size=n)
            labels = rng.integers(0, 2, size=n)
            base = metrics.average_precision(scores, labels)
            squashed = metrics.average_precision(np.tanh(scores) * 3 + 1, labels)
            assert base == pytest.approx(squashed, abs=1e-12)

    def test_zero_positives(self):
        assert metrics.average_precision([0.4, 0.2], [0, 0]) == 0.0

    def test_bad_labels_rejected(self):
        with pytest.raises(ValueError):
            metrics.average_precision([0.1], [2])

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_nonfinite_scores_rejected(self, bad):
        with pytest.raises(ValueError, match="scores must be finite"):
            metrics.average_precision([bad, 0.2, 0.9], [0, 1, 1])


def make_predictions(scores, ids=None, genres=("A", "B")):
    scores = np.asarray(scores, dtype=np.float32)
    ids = ids or [f"r{i}" for i in range(scores.shape[0])]
    return metrics.PredictionSet(ids=ids, scores=scores, genres=list(genres))


class TestGenreReport:
    def test_perfect_predictions_all_ones(self):
        taxonomy = GenreTaxonomy(("A", "B"))
        preds = make_predictions([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        truth = {"r0": {"A"}, "r1": {"B"}, "r2": {"A", "B"}}
        rep = metrics.genre_report(preds, truth, taxonomy)
        for summary in (rep.macro, rep.micro):
            assert summary.recall_at_05 == 1.0
            assert summary.precision_at_05 == 1.0
            assert summary.map == 1.0

    def test_all_half_scores_inclusive_threshold(self):
        # score exactly 0.5 counts as positive: recall 1, precision = prevalence
        taxonomy = GenreTaxonomy(("A", "B"))
        preds = make_predictions(np.full((4, 2), 0.5))
        truth = {"r0": {"A"}, "r1": {"A"}, "r2": {"B"}, "r3": set()}
        rep = metrics.genre_report(preds, truth, taxonomy)
        rows = {r.genre: r for r in rep.per_genre}
        assert rows["A"].recall == 1.0 and rows["B"].recall == 1.0
        assert rows["A"].precision == pytest.approx(2 / 4)
        assert rows["B"].precision == pytest.approx(1 / 4)

    def test_macro_map_is_mean_of_hand_aps(self):
        taxonomy = GenreTaxonomy(("A", "B"))
        scores = np.array([[0.9, 0.9], [0.8, 0.1], [0.7, 0.5]])
        truth = {"r0": {"A"}, "r1": set(), "r2": {"A", "B"}}
        labels_a = [1 if "A" in truth[f"r{i}"] else 0 for i in range(3)]
        labels_b = [1 if "B" in truth[f"r{i}"] else 0 for i in range(3)]
        ap_a = oracle_average_precision(scores[:, 0].tolist(), labels_a)  # 5/6 case
        ap_b = oracle_average_precision(scores[:, 1].tolist(), labels_b)
        assert ap_a == pytest.approx(5 / 6, abs=1e-12)
        rep = metrics.genre_report(make_predictions(scores), truth, taxonomy)
        assert rep.macro.map == pytest.approx((ap_a + ap_b) / 2, abs=1e-12)

    def test_micro_pooled_vs_weighted(self):
        taxonomy = GenreTaxonomy(("A", "B"))
        scores = np.array([[0.9, 0.2], [0.4, 0.8], [0.6, 0.3]])
        truth = {"r0": {"A"}, "r1": {"B"}, "r2": {"B"}}
        preds = make_predictions(scores)
        pooled = metrics.genre_report(preds, truth, taxonomy)
        flat = oracle_average_precision(scores.ravel().tolist(),
                                        [1, 0, 0, 1, 0, 1])
        assert pooled.micro.map == pytest.approx(flat, abs=1e-12)
        weighted = metrics.genre_report(preds, truth, taxonomy, micro_map_mode="weighted")
        ap_a = oracle_average_precision(scores[:, 0].tolist(), [1, 0, 0])
        ap_b = oracle_average_precision(scores[:, 1].tolist(), [0, 1, 1])
        assert weighted.micro.map == pytest.approx((1 * ap_a + 2 * ap_b) / 3, abs=1e-12)

    def test_zero_support_genre_flagged(self):
        taxonomy = GenreTaxonomy(("A", "B"))
        preds = make_predictions([[0.9, 0.1]])
        rep = metrics.genre_report(preds, {"r0": {"A"}}, taxonomy)
        assert rep.zero_support_genres == ["B"]
        rows = {r.genre: r for r in rep.per_genre}
        assert rows["B"].support == 0 and rows["B"].ap == 0.0

    def test_genre_order_invariance_of_macro(self):
        scores = np.array([[0.9, 0.2], [0.1, 0.7]])
        truth = {"r0": {"A"}, "r1": {"B"}}
        rep1 = metrics.genre_report(make_predictions(scores), truth, GenreTaxonomy(("A", "B")))
        rep2 = metrics.genre_report(make_predictions(scores[:, ::-1], genres=("B", "A")),
                                    truth, GenreTaxonomy(("B", "A")))
        assert rep1.macro.map == pytest.approx(rep2.macro.map, abs=1e-15)
        assert rep1.micro.recall_at_05 == rep2.micro.recall_at_05

    def test_sample_order_invariance_of_micro_counts(self):
        scores = np.array([[0.9, 0.2], [0.1, 0.7], [0.6, 0.6]])
        truth = {"r0": {"A"}, "r1": {"B"}, "r2": {"A", "B"}}
        rep1 = metrics.genre_report(make_predictions(scores), truth, GenreTaxonomy(("A", "B")))
        perm = [2, 0, 1]
        rep2 = metrics.genre_report(
            make_predictions(scores[perm], ids=[f"r{i}" for i in perm]),
            truth, GenreTaxonomy(("A", "B")))
        assert rep1.micro.recall_at_05 == rep2.micro.recall_at_05
        assert rep1.micro.precision_at_05 == rep2.micro.precision_at_05

    def test_all_values_in_unit_interval(self):
        rng = np.random.default_rng(19)
        taxonomy = GenreTaxonomy(("A", "B", "C"))
        scores = rng.uniform(size=(20, 3)).astype(np.float32)
        truth = {f"r{i}": {g for g in "ABC" if rng.random() < 0.4} for i in range(20)}
        rep = metrics.genre_report(make_predictions(scores, genres=("A", "B", "C")), truth, taxonomy)
        values = [rep.macro.recall_at_05, rep.macro.precision_at_05, rep.macro.map,
                  rep.micro.recall_at_05, rep.micro.precision_at_05, rep.micro.map]
        values += [v for r in rep.per_genre for v in (r.recall, r.precision, r.ap)]
        assert all(0.0 <= v <= 1.0 for v in values)

    def test_id_mismatch_rejected(self):
        preds = make_predictions([[0.5, 0.5]])
        with pytest.raises(ValueError, match="id mismatch"):
            metrics.genre_report(preds, {"other": {"A"}}, GenreTaxonomy(("A", "B")))

    def test_unknown_truth_genre_named(self):
        preds = make_predictions([[0.5, 0.5], [0.1, 0.9]])
        truth = {"r0": {"A"}, "r1": {"B", "Western"}}
        with pytest.raises(ValueError,
                           match="record r1: truth genre 'Western' is not in the taxonomy"):
            metrics.genre_report(preds, truth, GenreTaxonomy(("A", "B")))

    def test_empty_predictions_rejected(self):
        preds = metrics.PredictionSet(ids=[], scores=np.zeros((0, 2), np.float32),
                                      genres=["A", "B"])
        with pytest.raises(ValueError, match="empty"):
            metrics.genre_report(preds, {}, GenreTaxonomy(("A", "B")))


class TestBoundaryReport:
    def test_perfect_separation(self):
        rep = metrics.boundary_report([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0])
        assert rep["ap"] == 1.0 and rep["recall_at_05"] == 1.0

    def test_all_below_threshold(self):
        rep = metrics.boundary_report([0.4, 0.4], [1, 1])
        assert rep["recall_at_05"] == 0.0

    def test_mixed_case_matches_oracle(self):
        scores = [0.6, 0.55, 0.4, 0.7]
        labels = [1, 0, 1, 0]
        rep = metrics.boundary_report(scores, labels)
        assert rep["ap"] == pytest.approx(oracle_average_precision(scores, labels), abs=1e-12)
        assert rep["recall_at_05"] == 0.5  # only the 0.6 positive passes

    def test_zero_positives_flagged(self):
        rep = metrics.boundary_report([0.9], [0])
        assert rep["ap"] == 0.0 and rep["flagged_zero_positives"]


class TestPredictionFiles:
    def test_roundtrip(self, tmp_path):
        preds = make_predictions([[0.25, 0.75], [0.1, 0.9]])
        path = tmp_path / "p.jsonl"
        metrics.write_predictions(preds, path)
        again = metrics.read_predictions(path)
        assert again.ids == preds.ids
        assert again.genres == preds.genres
        np.testing.assert_array_equal(again.scores, preds.scores)

    def _prediction_file(self, tmp_path, rows):
        path = tmp_path / "p.jsonl"
        lines = [json.dumps({"format_version": 1, "taxonomy": ["A", "B"]})]
        lines += [json.dumps({"id": rid, "scores": scores}) for rid, scores in rows]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return path

    def test_duplicate_id_named(self, tmp_path):
        path = self._prediction_file(tmp_path, [("r0", [0.1, 0.2]), ("r1", [0.3, 0.4]),
                                                ("r0", [0.5, 0.6])])
        with pytest.raises(DatasetFormatError, match="line 4: duplicate prediction id 'r0'"):
            metrics.read_predictions(path)

    def test_row_width_checked_against_taxonomy(self, tmp_path):
        path = self._prediction_file(tmp_path, [("r0", [0.1, 0.2]), ("r1", [0.3, 0.4, 0.5])])
        with pytest.raises(DatasetFormatError, match="line 3: scores must be a list of 2 finite"):
            metrics.read_predictions(path)

    def test_write_matches_oracle_bytes(self, tmp_path):
        preds = make_predictions([[-0.0, 1e-45], [3.4028235e38, 0.1], [1 / 3, 1.0]],
                                 ids=['ñ"id\\', "日本", "r"], genres=("Ünder", 'Q"uote'))
        path = tmp_path / "p.jsonl"
        metrics.write_predictions(preds, path)
        assert path.read_bytes() == oracle_predictions_text(preds).encode("utf-8")
        again = metrics.read_predictions(path)
        assert again.ids == preds.ids and again.genres == preds.genres
        assert again.scores.tobytes() == preds.scores.tobytes()

    def _header_file(self, tmp_path, header):
        path = tmp_path / "p.jsonl"
        path.write_text(json.dumps(header) + "\n" + json.dumps({"id": "r0", "scores": [0.5]})
                        + "\n", encoding="utf-8")
        return path

    def test_unsupported_version_rejected(self, tmp_path):
        path = self._header_file(tmp_path, {"format_version": 9, "taxonomy": ["A"]})
        with pytest.raises(DatasetFormatError, match="line 1: unsupported format_version 9"):
            metrics.read_predictions(path)

    @pytest.mark.parametrize("taxonomy, named", [
        ("A", "taxonomy must be a list of strings, got 'A'"),
        (["A", "A"], "taxonomy contains duplicate genre names"),
        (["A", 1], "taxonomy must be a list of strings, got ['A', 1]"),
        (None, "taxonomy must be a list of strings, got None"),
        ([], "taxonomy is empty"),
    ], ids=["A", "taxonomy1", "taxonomy2", "None", "empty"])
    def test_taxonomy_not_distinct_strings_rejected(self, tmp_path, taxonomy, named):
        # a string taxonomy used to be split into its characters, and an
        # empty one to load as zero genres
        path = self._header_file(tmp_path, {"format_version": 1, "taxonomy": taxonomy})
        with pytest.raises(DatasetFormatError) as err:
            metrics.read_predictions(path)
        assert str(err.value) == f"line 1: {named}"

    @pytest.mark.parametrize("score", [float("nan"), 1e39, -1e39, float("inf")])
    def test_non_finite_score_rejected(self, tmp_path, score):
        # under the suite's error::RuntimeWarning filter, so 1e39 must not warn
        path = self._prediction_file(tmp_path, [("r0", [0.1, 0.2]), ("r1", [0.3, score])])
        with pytest.raises(DatasetFormatError,
                           match="line 3: scores must be a list of 2 finite numbers"):
            metrics.read_predictions(path)

    @pytest.mark.parametrize("score", [True, False, "0.5"])
    def test_non_number_score_rejected(self, tmp_path, score):
        path = self._prediction_file(tmp_path, [("r0", [score, 0.2])])
        with pytest.raises(DatasetFormatError,
                           match="line 2: scores must be a list of 2 finite numbers"):
            metrics.read_predictions(path)

    def test_huge_integer_score_rejected(self, tmp_path):
        path = self._prediction_file(tmp_path, [("r0", [10 ** 400, 0.2])])
        with pytest.raises(DatasetFormatError,
                           match="line 2: scores must be a list of 2 finite numbers"):
            metrics.read_predictions(path)

    def test_report_csv_quotes_fields(self, tmp_path):
        odd = 'Sci-Fi, "B"'
        taxonomy = GenreTaxonomy(("A", odd))
        preds = make_predictions([[1.0, 0.0], [0.0, 1.0]], genres=taxonomy.names)
        rep = metrics.genre_report(preds, {"r0": {"A"}, "r1": {odd}}, taxonomy)
        metrics.write_report_csv(rep, tmp_path / "r.csv")
        with open(tmp_path / "r.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        assert [r["genre"] for r in rows] == ["A", odd]
        assert [r["support"] for r in rows] == ["1", "1"]

    def test_report_files(self, tmp_path):
        taxonomy = GenreTaxonomy(("A", "B"))
        preds = make_predictions([[1.0, 0.0], [0.0, 1.0]])
        rep = metrics.genre_report(preds, {"r0": {"A"}, "r1": {"B"}}, taxonomy)
        metrics.write_report_text(rep, tmp_path / "r.txt")
        metrics.write_report_csv(rep, tmp_path / "r.csv")
        text = (tmp_path / "r.txt").read_text()
        assert "macro" in text and "per-genre" in text
        lines = (tmp_path / "r.csv").read_text().strip().splitlines()
        assert lines[0] == "genre,recall_at_05,precision_at_05,ap,support"
        assert len(lines) == 3
