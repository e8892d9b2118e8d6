import json
import re

import numpy as np
import pytest

from shotgenre import featurestore as fs


def small_config(**kw):
    base = dict(num_videos=12, num_genres=4, d_v=5, d_a=6, d_l=4,
                shots_per_video=3, frames_per_shot=2, vocab_per_genre=3,
                num_fillers=8, num_junk=4)
    base.update(kw)
    return fs.SynthConfig(**base)


@pytest.fixture(scope="module")
def small():
    return fs.synth_dataset(small_config(), seed=21)


class TestRoundTrip:
    def test_identity_on_synthetic(self, small, tmp_path):
        ds, _, _ = small
        path = tmp_path / "d.jsonl"
        fs.write_dataset(ds, path)
        again = fs.read_dataset(path)
        assert again == ds
        assert [r.id for r in again.records] == [r.id for r in ds.records]

    def test_random_configs_roundtrip(self, tmp_path):
        rng = np.random.default_rng(5)
        for i in range(10):
            cfg = small_config(
                num_videos=int(rng.integers(1, 8)),
                num_genres=int(rng.integers(2, 6)),
                d_v=int(rng.integers(1, 7)),
                d_a=int(rng.integers(1, 7)),
                shots_per_video=int(rng.integers(1, 5)),
                frames_per_shot=int(rng.integers(1, 4)),
                with_pixel_stats=bool(rng.integers(0, 2)),
            )
            ds, _, _ = fs.synth_dataset(cfg, seed=i)
            path = tmp_path / f"r{i}.jsonl"
            fs.write_dataset(ds, path)
            assert fs.read_dataset(path) == ds

    def test_float_bit_exact(self, tmp_path):
        taxonomy = fs.GenreTaxonomy(("A", "B"))
        rec = fs.VideoRecord("x", "train", {"A"},
                             [fs.Shot(np.array([[0.1, 1 / 3]], dtype=np.float32))],
                             np.array([2.5e-12], dtype=np.float32), [])
        ds = fs.Dataset(taxonomy, 2, 1, 3, [rec])
        path = tmp_path / "f.jsonl"
        fs.write_dataset(ds, path)
        again = fs.read_dataset(path)
        got = again.records[0].shots[0].frames[0]
        assert got[0] == np.float32(0.1)
        assert got[1] == np.float32(1 / 3)
        assert again.records[0].audio_embedding[0] == np.float32(2.5e-12)

    def test_empty_transcript_serializes(self, tmp_path):
        taxonomy = fs.GenreTaxonomy(("A",))
        rec = fs.VideoRecord("x", "val", set(),
                             [fs.Shot(np.zeros((1, 2), np.float32))],
                             np.zeros(1, np.float32), [])
        ds = fs.Dataset(taxonomy, 2, 1, 1, [rec])
        path = tmp_path / "t.jsonl"
        fs.write_dataset(ds, path)
        assert fs.read_dataset(path).records[0].transcript == []

    def test_embeddings_roundtrip(self, small, tmp_path):
        _, table, _ = small
        path = tmp_path / "e.jsonl"
        fs.write_embeddings(table, path)
        assert fs.read_embeddings(path) == table

    def test_planted_truth_roundtrip(self, small, tmp_path):
        _, _, truth = small
        path = tmp_path / "truth.json"
        truth.save(path)
        loaded = fs.PlantedTruth.load(path)
        np.testing.assert_array_equal(loaded.w_visual, truth.w_visual)
        np.testing.assert_array_equal(loaded.w_audio, truth.w_audio)
        assert loaded.genre_vocab == truth.genre_vocab
        assert loaded.filler_tokens == truth.filler_tokens


class TestReadErrors:
    def _write(self, tmp_path, lines):
        path = tmp_path / "bad.jsonl"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return path

    def _header(self, taxonomy=("A", "B"), d_v=2, d_a=1, d_l=1):
        return json.dumps({"format_version": 1, "taxonomy": list(taxonomy),
                           "d_v": d_v, "d_a": d_a, "d_l": d_l})

    def _record_line(self, **kw):
        obj = {"id": "r1", "split": "train", "genres": ["A"],
               "shots": [{"frames": [[1.0, 2.0]]}],
               "audio_embedding": [0.5], "transcript": []}
        obj.update(kw)
        return json.dumps(obj)

    def test_empty_header_only_file(self, tmp_path):
        path = self._write(tmp_path, [self._header()])
        ds = fs.read_dataset(path)
        assert ds.records == []
        assert ds.taxonomy.names == ("A", "B")

    def test_malformed_line_reports_lineno(self, tmp_path):
        path = self._write(tmp_path, [self._header(), self._record_line(), "{not json"])
        with pytest.raises(fs.DatasetFormatError, match="line 3"):
            fs.read_dataset(path)

    def test_dimension_mismatch_names_record(self, tmp_path):
        bad = self._record_line(shots=[{"frames": [[1.0, 2.0, 3.0]]}])
        path = self._write(tmp_path, [self._header(), bad])
        with pytest.raises(fs.DatasetFormatError, match="r1"):
            fs.read_dataset(path)

    def test_duplicate_id(self, tmp_path):
        path = self._write(tmp_path, [self._header(), self._record_line(), self._record_line()])
        with pytest.raises(fs.DatasetFormatError, match="duplicate"):
            fs.read_dataset(path)

    def test_unknown_genre(self, tmp_path):
        path = self._write(tmp_path, [self._header(), self._record_line(genres=["Sci-Fi"])])
        with pytest.raises(fs.DatasetFormatError, match="Sci-Fi"):
            fs.read_dataset(path)

    @pytest.mark.parametrize("entry", [
        [5, "NOUN"],
        [["a"], "NOUN"],
        ["a", None],
        ["a", "NOUN", "x"],
        ["a"],
        "ab",
        {"a": "NOUN"},
    ])
    def test_malformed_transcript_entry_named(self, tmp_path, entry):
        line = self._record_line(transcript=[["ok", "NOUN"], entry])
        path = self._write(tmp_path, [self._header(), line])
        named = r"line 2: malformed record \(transcript token 1 is not a"
        with pytest.raises(fs.DatasetFormatError, match=named):
            fs.read_dataset(path)

    @pytest.mark.parametrize("header, record, named", [
        ({"taxonomy": "AB"}, {}, "line 1: taxonomy must be a list of strings"),
        ({"taxonomy": ["A", 2]}, {}, "line 1: taxonomy must be a list of strings"),
        ({"taxonomy": []}, {}, "line 1: taxonomy is empty"),
        ({"taxonomy": ["A", "A"]}, {}, "line 1: taxonomy contains duplicate genre names"),
        ({"d_v": 2.9}, {}, "line 1: feature dimensions must be integers"),
        ({"d_v": "2"}, {}, "line 1: feature dimensions must be integers"),
        ({"d_v": "abc"}, {}, "line 1: feature dimensions must be integers"),
        ({"d_a": True}, {}, "line 1: feature dimensions must be integers"),
        ({}, {"id": None}, r"line 2: malformed record \(id must be a string"),
        ({}, {"id": 7}, r"line 2: malformed record \(id must be a string"),
        ({}, {"boundary_flags": [0.7]}, r"line 2: malformed record \(boundary_flags"),
        ({}, {"boundary_flags": [True]}, r"line 2: malformed record \(boundary_flags"),
        ({}, {"boundary_flags": ["0"]}, r"line 2: malformed record \(boundary_flags"),
        ({}, {"boundary_flags": [2]}, r"line 2: malformed record \(boundary_flags"),
    ], ids=["taxonomy-str", "taxonomy-int", "taxonomy-empty", "taxonomy-dup", "dim-float",
            "dim-str", "dim-word", "dim-bool", "id-null", "id-int", "flag-float", "flag-bool",
            "flag-str", "flag-2"])
    def test_mistyped_value_named(self, tmp_path, header, record, named):
        # a two-shot record with one boundary flag, valid until overridden
        head = {"format_version": 1, "taxonomy": ["A", "B"], "d_v": 2, "d_a": 1, "d_l": 1}
        rec = {"shots": [{"frames": [[1.0, 2.0]]}] * 2, "boundary_flags": [1]}
        valid = self._write(tmp_path, [json.dumps(head), self._record_line(**rec)])
        assert fs.read_dataset(valid).records[0].boundary_flags == [1]
        path = self._write(tmp_path, [json.dumps({**head, **header}),
                                      self._record_line(**{**rec, **record})])
        with pytest.raises(fs.DatasetFormatError, match=named):
            fs.read_dataset(path)

    def test_zero_byte_file(self, tmp_path):
        path = tmp_path / "z.jsonl"
        path.write_text("", encoding="utf-8")
        with pytest.raises(fs.DatasetFormatError, match="header"):
            fs.read_dataset(path)


class TestValidateRecord:
    def test_valid_record_no_violations(self, small):
        ds, _, _ = small
        dims = (ds.d_v, ds.d_a, ds.d_l)
        for rec in ds.records:
            assert fs.validate_record(rec, ds.taxonomy, dims) == []

    def test_unknown_genre_named(self):
        taxonomy = fs.GenreTaxonomy(("Action",))
        rec = fs.VideoRecord("x", "train", {"Sci-Fi"},
                             [fs.Shot(np.zeros((1, 2), np.float32))],
                             np.zeros(1, np.float32), [])
        problems = fs.validate_record(rec, taxonomy, (2, 1, 1))
        assert len(problems) == 1 and "Sci-Fi" in problems[0]

    def test_multiple_violations_all_reported(self):
        taxonomy = fs.GenreTaxonomy(("A",))
        rec = fs.VideoRecord("x", "train", set(), [], np.zeros(3, np.float32), [])
        problems = fs.validate_record(rec, taxonomy, (2, 1, 1))
        assert len(problems) == 2  # no shots + wrong audio length

    def test_bad_token_pos_and_case(self):
        taxonomy = fs.GenreTaxonomy(("A",))
        rec = fs.VideoRecord("x", "train", set(),
                             [fs.Shot(np.zeros((1, 2), np.float32))],
                             np.zeros(1, np.float32),
                             [fs.Token("Ship", "NOUN"), fs.Token("sea", "XX")])
        problems = fs.validate_record(rec, taxonomy, (2, 1, 1))
        assert any("lowercase" in p for p in problems)
        assert any("POS" in p for p in problems)

    def test_boundary_flags_length(self):
        taxonomy = fs.GenreTaxonomy(("A",))
        shots = [fs.Shot(np.zeros((1, 2), np.float32)) for _ in range(3)]
        rec = fs.VideoRecord("x", "train", set(), shots, np.zeros(1, np.float32),
                             [], boundary_flags=[1])
        problems = fs.validate_record(rec, taxonomy, (2, 1, 1))
        assert any("boundary_flags" in p for p in problems)

    @pytest.mark.parametrize("rid, flags, named", [
        (None, [1], "record id must be a string, got None"),
        (7, [1], "record id must be a string, got 7"),
        ("x", [0.7], "record x: boundary_flags must be integers 0 or 1, got [0.7]"),
        ("x", [True], "record x: boundary_flags must be integers 0 or 1, got [True]"),
        ("x", ["0"], "record x: boundary_flags must be integers 0 or 1, got ['0']"),
        ("x", [2], "record x: boundary_flags must be integers 0 or 1, got [2]"),
    ], ids=["id-none", "id-int", "flag-float", "flag-bool", "flag-str", "flag-2"])
    def test_mistyped_id_and_flags_kept_and_reported(self, tmp_path, rid, flags, named):
        # the values read_dataset rejects in a file are kept as given in
        # memory, reported, and never written
        taxonomy = fs.GenreTaxonomy(("A",))
        shots = [fs.Shot(np.zeros((1, 2), np.float32)) for _ in range(2)]
        rec = fs.VideoRecord(rid, "train", set(), shots, np.zeros(1, np.float32), [],
                             boundary_flags=flags)
        assert rec.id is rid and rec.boundary_flags == flags
        assert [type(b) for b in rec.boundary_flags] == [type(b) for b in flags]
        assert fs.validate_record(rec, taxonomy, (2, 1, 1)) == [named]
        with pytest.raises(fs.DatasetFormatError, match=re.escape(named)):
            fs.write_dataset(fs.Dataset(taxonomy, 2, 1, 1, [rec]), tmp_path / "d.jsonl")
        assert not (tmp_path / "d.jsonl").exists()


class TestSynth:
    def test_deterministic_bytes(self, tmp_path):
        cfg = small_config()
        a = fs.synth_dataset(cfg, seed=7)[0]
        b = fs.synth_dataset(cfg, seed=7)[0]
        pa, pb = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        fs.write_dataset(a, pa)
        fs.write_dataset(b, pb)
        assert pa.read_bytes() == pb.read_bytes()

    def test_different_seed_differs(self):
        cfg = small_config()
        assert fs.synth_dataset(cfg, seed=1)[0] != fs.synth_dataset(cfg, seed=2)[0]

    def test_zero_noise_features_exact(self):
        cfg = small_config(noise_sigma_v=0.0, noise_sigma_a=0.0)
        ds, _, truth = fs.synth_dataset(cfg, seed=3)
        w_v = truth.w_visual.astype(np.float64)
        w_a = truth.w_audio.astype(np.float64)
        for rec in ds.records:
            y = ds.taxonomy.label_vector(rec.genres)
            expect_v = (w_v @ y).astype(np.float32)
            for shot in rec.shots:
                for frame in shot.frames:
                    np.testing.assert_array_equal(frame, expect_v)
            np.testing.assert_array_equal(rec.audio_embedding, (w_a @ y).astype(np.float32))

    def test_transcript_contains_active_genre_vocab(self):
        ds, _, truth = fs.synth_dataset(small_config(vocab_presence_prob=0.4), seed=9)
        for rec in ds.records:
            words = {t.text for t in rec.transcript}
            for g in rec.genres:
                assert words & set(truth.genre_vocab[g]), f"{rec.id} missing vocab for {g}"

    def test_label_counts_one_to_three(self, small):
        ds, _, _ = small
        assert all(1 <= len(r.genres) <= 3 for r in ds.records)

    def test_split_ratio(self):
        ds, _, _ = fs.synth_dataset(small_config(num_videos=600, num_genres=4), seed=1)
        counts = {s: len(ds.split(s)) for s in ("train", "val", "test")}
        assert counts == {"train": 420, "val": 60, "test": 120}

    def test_pixel_stats_partition(self):
        ds, _, _ = fs.synth_dataset(small_config(with_pixel_stats=True), seed=2)
        for rec in ds.records:
            for shot in rec.shots:
                assert shot.pixel_stats is not None
                for ps in shot.pixel_stats:
                    assert 0.0 <= ps.mean_luma <= 1.0
                    assert ps.warm_frac + ps.cold_frac <= 1.0
                    assert ps.neutral_frac >= 0.0

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            fs.synth_dataset(small_config(num_videos=0), seed=0)
        with pytest.raises(ValueError):
            fs.synth_dataset(small_config(noise_sigma_v=-1.0), seed=0)

    def test_embedding_table_covers_vocab_and_fillers(self, small):
        _, table, truth = small
        for vocab in truth.genre_vocab.values():
            assert all(tok in table for tok in vocab)
        assert all(tok in table for tok in truth.filler_tokens)


def _token_counts(dataset):
    tokens = [t for r in dataset.records for t in r.transcript]
    return len({id(t) for t in tokens}), len({(t.text, t.pos) for t in tokens})


class TestTokenSharing:
    def test_one_token_per_pair_after_synth_and_read(self, small, tmp_path):
        ds, _, _ = small
        path = tmp_path / "d.jsonl"
        fs.write_dataset(ds, path)
        first, second = fs.read_dataset(path), fs.read_dataset(path)
        for d in (ds, first, second):
            objects, pairs = _token_counts(d)
            assert objects == pairs > 1
        assert first == second == ds
        # the table lives for one read: two reads share no Token
        ids = [{id(t) for r in d.records for t in r.transcript} for d in (first, second)]
        assert not ids[0] & ids[1]


class TestResplit:
    def test_ratio_and_determinism(self, small):
        ds, _, _ = small
        again = fs.resplit(ds, seed=4)
        assert fs.resplit(ds, seed=4) == again
        assert {r.id for r in again.records} == {r.id for r in ds.records}
        assert again != ds or [r.split for r in again.records] == [r.split for r in ds.records]
        assert all(r.split in fs.SPLITS for r in again.records)
        assert len(again.split("val")) >= 1
