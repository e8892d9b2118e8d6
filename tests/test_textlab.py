import csv
from collections import Counter

import numpy as np
import pytest

from oracles import oracle_keywords
from shotgenre import featurestore as fs, textlab
from shotgenre.featurestore import EmbeddingTable, Token


def toks(*pairs):
    return [Token(t, p) for t, p in pairs]


class TestExtractKeywords:
    def test_pos_filter_and_frequency(self):
        transcript = (toks(*[("ship", "NOUN")] * 3) + toks(*[("run", "VERB")] * 5)
                      + toks(*[("cold", "ADJ")] * 2) + toks(("we", "PRON")))
        assert textlab.extract_keywords(transcript, k=2) == ["ship", "cold"]

    def test_empty_transcript(self):
        assert textlab.extract_keywords([], k=5) == []

    def test_tie_broken_lexicographically(self):
        transcript = toks(("zebra", "NOUN"), ("zebra", "NOUN"), ("apple", "NOUN"), ("apple", "NOUN"))
        assert textlab.extract_keywords(transcript, k=1) == ["apple"]

    def test_permutation_invariant(self):
        rng = np.random.default_rng(3)
        transcript = toks(*[(f"w{rng.integers(0, 9)}", "NOUN") for _ in range(60)])
        base = textlab.extract_keywords(transcript, k=5)
        for _ in range(5):
            perm = [transcript[i] for i in rng.permutation(len(transcript))]
            assert textlab.extract_keywords(perm, k=5) == base

    def test_matches_oracle_on_random_transcripts(self):
        rng = np.random.default_rng(4)
        pos_tags = list(fs.POS_TAGS)
        for _ in range(500):
            length = int(rng.integers(0, 40))
            transcript = toks(*[(f"w{rng.integers(0, 12)}", pos_tags[rng.integers(0, 6)])
                                for _ in range(length)])
            k = int(rng.integers(1, 8))
            assert textlab.extract_keywords(transcript, k=k) == oracle_keywords(transcript, k)


class TestLanguageFeature:
    def table(self):
        return EmbeddingTable(dim=3, vectors={
            "ship": np.array([1, 2, 3], np.float32),
            "anti": np.array([-1, -2, -3], np.float32),
        })

    def test_single_keyword_identity(self):
        vec, flagged = textlab.language_feature(["ship"], self.table())
        np.testing.assert_array_equal(vec, np.array([1, 2, 3], np.float32))
        assert not flagged

    def test_symmetric_mean_is_zero(self):
        vec, flagged = textlab.language_feature(["ship", "anti"], self.table())
        np.testing.assert_array_equal(vec, np.zeros(3, np.float32))
        assert not flagged

    def test_oov_skipped(self):
        vec, flagged = textlab.language_feature(["ship", "unknown"], self.table())
        np.testing.assert_array_equal(vec, np.array([1, 2, 3], np.float32))
        assert not flagged

    def test_empty_and_all_oov_flagged(self):
        for keywords in ([], ["nope", "nada"]):
            vec, flagged = textlab.language_feature(keywords, self.table())
            np.testing.assert_array_equal(vec, np.zeros(3, np.float32))
            assert flagged


class TestTfidf:
    def test_single_movie_double_word(self):
        table = textlab.tfidf_scores("G", [("m0", toks(("ship", "NOUN"), ("ship", "NOUN")))])
        assert table.vocabulary == ["ship"]
        assert table.matrix[0, 0] == pytest.approx(2.0)  # 2 * (ln(2/2) + 1)
        assert table.scores[0] == pytest.approx(2.0)

    def test_word_in_every_movie_scores_total_count(self):
        corpus = [(f"m{i}", toks(*[("sea", "NOUN")] * (i + 1))) for i in range(4)]
        table = textlab.tfidf_scores("G", corpus)
        # df = n -> idf = 1 exactly, so the score is the raw total count
        assert table.scores[table.vocabulary.index("sea")] == pytest.approx(1 + 2 + 3 + 4)

    def test_absent_word_zero_cell(self):
        corpus = [("m0", toks(("sea", "NOUN"))), ("m1", toks(("sky", "NOUN")))]
        table = textlab.tfidf_scores("G", corpus)
        i, j = table.movie_ids.index("m1"), table.vocabulary.index("sea")
        assert table.matrix[i, j] == 0.0

    def test_scores_match_bruteforce_exactly(self):
        rng = np.random.default_rng(6)
        words = [f"w{i}" for i in range(10)]
        corpus = []
        for m in range(7):
            transcript = toks(*[(words[rng.integers(0, 10)], "NOUN")
                                for _ in range(int(rng.integers(1, 30)))])
            corpus.append((f"m{m}", transcript))
        table = textlab.tfidf_scores("G", corpus)
        for j in range(len(table.vocabulary)):
            acc = 0.0
            for i in range(len(table.movie_ids)):
                acc += table.matrix[i][j]
            assert acc == table.scores[j]  # exact, same accumulation order

    def test_pos_filter_default_and_flag(self):
        corpus = [("m0", toks(("run", "VERB"), ("sea", "NOUN")))]
        filtered = textlab.tfidf_scores("G", corpus)
        assert filtered.vocabulary == ["sea"]
        everything = textlab.tfidf_scores("G", corpus, eligible_only=False)
        assert everything.vocabulary == ["run", "sea"]

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError):
            textlab.tfidf_scores("G", [])


class TestExclusionFilter:
    def ranked(self, genres, word, extras=10):
        # every genre list: [word?, filler_i...] all with descending scores
        lists = {}
        for gi in range(8):
            ranking = []
            if gi in genres:
                ranking.append((word, 100.0))
            ranking += [(f"g{gi}_word{j}", 50.0 - j) for j in range(extras)]
            lists[f"genre{gi}"] = ranking
        return lists

    def test_word_in_six_lists_excluded(self):
        lists = self.ranked(range(6), "common")
        out = textlab.exclusion_filter(lists, top_n=20, max_genres=5)
        assert all("common" not in [w for w, _ in r] for r in out.values())

    def test_word_in_exactly_five_lists_retained(self):
        lists = self.ranked(range(5), "borderline")
        out = textlab.exclusion_filter(lists, top_n=20, max_genres=5)
        assert [w for w, _ in out["genre0"]][0] == "borderline"

    def test_word_below_top_n_not_counted(self):
        # word sits at rank 21 everywhere: never enters the pooled list
        lists = {f"genre{gi}": [(f"w{j}", 100.0 - j) for j in range(20)] + [("deep", 1.0)]
                 for gi in range(8)}
        out = textlab.exclusion_filter(lists, top_n=20, max_genres=5)
        assert all(("deep", 1.0) in r for r in out.values())

    def test_order_preserved(self):
        lists = self.ranked(range(8), "common")
        out = textlab.exclusion_filter(lists, top_n=20, max_genres=5)
        kept = [w for w, _ in out["genre3"]]
        assert kept == [f"g3_word{j}" for j in range(10)]


class TestPlantedPipeline:
    def test_planted_vocab_tops_filtered_lists(self):
        cfg = fs.SynthConfig(num_videos=200, num_genres=6)
        ds, _, truth = fs.synth_dataset(cfg, seed=33)
        tables = textlab.build_genre_tables(ds.records, ds.taxonomy)
        _, filtered = textlab.filtered_genre_rankings(tables)
        for genre, vocab in truth.genre_vocab.items():
            top = [w for w, _ in filtered[genre][:len(vocab)]]
            assert set(top) == set(vocab), f"{genre}: {top}"

    def test_junk_pos_never_scored(self):
        cfg = fs.SynthConfig(num_videos=30, num_genres=4)
        ds, _, _ = fs.synth_dataset(cfg, seed=8)
        tables = textlab.build_genre_tables(ds.records, ds.taxonomy)
        for table in tables.values():
            assert not any(w.startswith("junk") for w in table.vocabulary)

    def test_ranked_csv(self, tmp_path):
        rankings = {"A": [("x", 2.0), ("y", 1.0)], "B": [("z", 3.0)]}
        path = tmp_path / "rank.csv"
        textlab.write_ranked_csv(rankings, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "genre,rank,word,score"
        assert lines[1] == "A,1,x,2.0"
        assert len(lines) == 4


def test_ranked_csv_quotes_fields(tmp_path):
    odd = 'Sci-Fi, "B"'
    path = tmp_path / "rank.csv"
    textlab.write_ranked_csv({odd: [("a,b", 2.0), ('say "hi"', 1.5)]}, path)
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert [(r["genre"], r["rank"], r["word"], r["score"]) for r in rows] == [
        (odd, "1", "a,b", "2.0"), (odd, "2", 'say "hi"', "1.5")]


def test_keyword_counts_consistency():
    # the CSV emitted by the CLI uses Counter on eligible POS; keep the two
    # selection paths agreeing
    transcript = toks(("sea", "NOUN"), ("sea", "NOUN"), ("sky", "ADJ"), ("run", "VERB"))
    counts = Counter(t.text for t in transcript if t.pos in textlab.KEYWORD_POS)
    words = textlab.extract_keywords(transcript, k=10)
    assert words == ["sea", "sky"]
    assert counts["sea"] == 2 and counts["run"] == 0
