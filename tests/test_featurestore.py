import copy
import json
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import oracle_dataset_text
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


# ---------------------------------------------------------------------------
# the record writer and reader fast paths
# ---------------------------------------------------------------------------

EXTREMES = np.array([-0.0, 1e-45, -1e-45, 3.4028235e38, -3.4028235e38, 1.1754944e-38,
                     0.1, 1e16, 1e-4, 9.999999e-05], dtype=np.float32)


def _edge_dataset():
    """Boundary flags, empty transcripts, one-frame and ragged shots, escaped
    and non-ASCII text, and float32 extremes, each in one small dataset."""
    taxonomy = fs.GenreTaxonomy(("Drama", "Ünder", 'Q"uote'))
    words = [fs.Token("é", "NOUN"), fs.Token('say "hi"', "ADJ"), fs.Token("back\\slash", "PRON"),
             fs.Token("日本", "VERB"), fs.Token("🎬\ttab\n", "OTHER")]
    stats = [fs.PixelStats(0.0, 1.0, 0.0), fs.PixelStats(1e-45, 0.25, 0.75),
             fs.PixelStats(-0.0, 0.1, 0.2)]
    records = [
        fs.VideoRecord("flags", "train", {"Drama", "Ünder"},
                       [fs.Shot(EXTREMES[:6].reshape(3, 2)), fs.Shot(EXTREMES[6:8].reshape(1, 2)),
                        fs.Shot(EXTREMES[8:].reshape(1, 2))],
                       EXTREMES[:3], words * 2 + [fs.Token("é", "NOUN")], boundary_flags=[1, 0]),
        fs.VideoRecord('ñ"id\\', "test", set(), [fs.Shot(np.ones((1, 2), np.float32))],
                       np.zeros(3, np.float32), []),
        fs.VideoRecord("stats", "val", {'Q"uote'},
                       [fs.Shot(np.full((3, 2), -0.0, np.float32), stats),
                        fs.Shot(np.full((3, 2), 2.5, np.float32), stats[::-1])],
                       EXTREMES[-3:], words[:1], boundary_flags=[0]),
    ]
    return fs.Dataset(taxonomy, 2, 3, 4, records)


@pytest.fixture(scope="module")
def written_datasets():
    return {
        "synth": fs.synth_dataset(small_config(), seed=21)[0],
        "synth-pixel-stats": fs.synth_dataset(small_config(with_pixel_stats=True), seed=22)[0],
        "edge-cases": _edge_dataset(),
    }


@pytest.mark.parametrize("name", ["synth", "synth-pixel-stats", "edge-cases"])
def test_write_matches_oracle_bytes(written_datasets, tmp_path, name):
    ds = written_datasets[name]
    path = tmp_path / "d.jsonl"
    fs.write_dataset(ds, path)
    assert path.read_bytes() == oracle_dataset_text(ds).encode("utf-8")
    assert fs.read_dataset(path) == ds


_TEXT = st.text(min_size=1, max_size=5).filter(lambda t: t == t.lower())
_F32 = st.floats(width=32, allow_nan=False, allow_infinity=False)


@st.composite
def datasets(draw):
    """Small valid datasets: ragged shots, optional pixel stats and boundary
    flags, and transcripts drawn from a pool of tokens, some equal but
    distinct objects."""
    d_v, d_a = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    taxonomy = fs.GenreTaxonomy(("A", "B", "C"))
    pool = draw(st.lists(st.builds(fs.Token, _TEXT, st.sampled_from(fs.POS_TAGS)),
                         min_size=1, max_size=4))
    with_stats = draw(st.booleans())
    records = []
    for rid in draw(st.lists(st.text(min_size=1, max_size=4), max_size=4, unique=True)):
        shots = []
        for n in draw(st.lists(st.integers(1, 3), min_size=1, max_size=3)):
            values = draw(st.lists(_F32, min_size=n * d_v, max_size=n * d_v))
            stats = None
            if with_stats:
                stats = [fs.PixelStats(*draw(st.tuples(st.floats(0, 1, width=32),
                                                       st.floats(0, 0.5, width=32),
                                                       st.floats(0, 0.5, width=32))))
                         for _ in range(n)]
            shots.append(fs.Shot(np.array(values, np.float32).reshape(n, d_v), stats))
        flags = draw(st.none() | st.lists(st.sampled_from([0, 1]), min_size=len(shots) - 1,
                                          max_size=len(shots) - 1))
        records.append(fs.VideoRecord(
            rid, draw(st.sampled_from(fs.SPLITS)), draw(st.sets(st.sampled_from(taxonomy.names))),
            shots, np.array(draw(st.lists(_F32, min_size=d_a, max_size=d_a)), np.float32),
            draw(st.lists(st.sampled_from(pool), max_size=6)), boundary_flags=flags))
    return fs.Dataset(taxonomy, d_v, d_a, 2, records)


def _fresh_file(tmp_path_factory, name):
    # a new file each time: rewriting one in place can wait on a flush
    path = tmp_path_factory.getbasetemp() / name
    path.unlink(missing_ok=True)
    return path


@settings(max_examples=60, deadline=None)
@given(ds=datasets())
def test_write_read_roundtrip_property(tmp_path_factory, ds):
    path = _fresh_file(tmp_path_factory, "roundtrip.jsonl")
    fs.write_dataset(ds, path)
    assert path.read_bytes() == oracle_dataset_text(ds).encode("utf-8")
    assert fs.read_dataset(path) == ds


def _valid_lines():
    ds = fs.synth_dataset(small_config(num_videos=2, shots_per_video=2, d_v=2, d_a=2,
                                       with_pixel_stats=True), seed=4)[0]
    ds.records[0].boundary_flags = [1]
    header, *records = oracle_dataset_text(ds).splitlines()
    return [header] + [json.loads(line) for line in records]


def _paths(obj, prefix=()):
    yield prefix
    items = obj.items() if isinstance(obj, dict) else enumerate(obj) if isinstance(obj, list) else ()
    for key, value in items:
        yield from _paths(value, prefix + (key,))


_HEADER, *_RECORDS = _valid_lines()
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 3) | st.text(max_size=3)
    | st.sampled_from([10 ** 400, 1e39, -1e39, float("nan"), float("inf"), -0.0, 0.5,
                       "NOUN", "Action", "Ship"]),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(["frames", "pixel_stats", "mean_luma"]) | st.text(max_size=2),
                      inner, max_size=3),
    max_leaves=6)


@st.composite
def _mutation(draw):
    """A record, a site in it (the whole record, or a value under one of its
    keys, picked key first so that short fields are hit as often as long
    ones), and a replacement value or ``KeyError`` for deletion."""
    ri = draw(st.integers(0, len(_RECORDS) - 1))
    key = draw(st.sampled_from([None, *_RECORDS[ri]]))
    path = () if key is None else draw(st.sampled_from(list(_paths(_RECORDS[ri][key], (key,)))))
    return ri, path, draw(st.just(KeyError) | _JSON_VALUES)


@settings(max_examples=300, deadline=None)
@given(mutations=st.lists(_mutation(), min_size=1, max_size=3), repeat_transcript=st.booleans())
def test_read_fuzzed_record_raises_only_format_errors(tmp_path_factory, mutations,
                                                      repeat_transcript):
    # runs under the suite's error::RuntimeWarning filter, so a numpy warning
    # on the way to the error fails the test as well
    records = copy.deepcopy(_RECORDS)
    for ri, path, value in mutations:
        if not path:
            if value is not KeyError:
                records[ri] = value
            continue
        parent = records[ri]
        try:
            for key in path[:-1]:
                parent = parent[key]
            if value is KeyError:
                del parent[path[-1]]
            else:
                parent[path[-1]] = value
        except (KeyError, IndexError, TypeError):  # an earlier mutation moved the site
            pass
    if repeat_transcript and all(isinstance(r, dict) for r in records):
        records[1]["transcript"] = copy.deepcopy(records[0].get("transcript"))
    path = _fresh_file(tmp_path_factory, "fuzzed.jsonl")
    path.write_text("\n".join([_HEADER] + [json.dumps(r) for r in records]) + "\n",
                    encoding="utf-8")
    try:
        fs.read_dataset(path)
    except fs.DatasetFormatError:
        pass


class TestTokenChecksOnTableMiss:
    def _record(self, rid, transcript, genres=("A",)):
        return {"id": rid, "split": "train", "genres": list(genres),
                "shots": [{"frames": [[1.0, 2.0]]}], "audio_embedding": [0.5],
                "transcript": transcript}

    @pytest.mark.parametrize("first_bad", [1, 2])
    def test_repeated_invalid_token_names_first_bad_record(self, tmp_path, first_bad):
        good = [["ok", "NOUN"], ["fine", "ADJ"]]
        bad = good + [["Ship", "NOUN"], ["sea", "XX"], ["ok", "NOUN"]]
        records = [self._record(f"r{i}", bad if i >= first_bad else good,
                                genres=("A", "Z") if i == first_bad else ("A",))
                   for i in range(4)]
        head = {"format_version": 1, "taxonomy": ["A"], "d_v": 2, "d_a": 1, "d_l": 1}
        path = tmp_path / "d.jsonl"
        path.write_text("\n".join(map(json.dumps, [head] + records)) + "\n", encoding="utf-8")
        rid = f"r{first_bad}"
        expect = (f"line {first_bad + 2}: record {rid}: genre 'Z' not in taxonomy; "
                  f"record {rid}: transcript token 2 ('Ship') is not lowercase; "
                  f"record {rid}: transcript token 3 has unknown POS 'XX'")
        with pytest.raises(fs.DatasetFormatError) as err:
            fs.read_dataset(path)
        assert str(err.value) == expect

    def test_two_key_object_is_not_a_table_hit(self, tmp_path):
        # unpacks to the keys ("ok", "NOUN"), a pair the first record put in the table
        head = {"format_version": 1, "taxonomy": ["A"], "d_v": 2, "d_a": 1, "d_l": 1}
        records = [self._record("r0", [["ok", "NOUN"]]),
                   self._record("r1", [["ok", "NOUN"], {"ok": 0, "NOUN": 0}])]
        path = tmp_path / "d.jsonl"
        path.write_text("\n".join(map(json.dumps, [head] + records)) + "\n", encoding="utf-8")
        named = (r"line 3: malformed record \(transcript token 1 is not a \[text, pos\] pair: "
                 r"\{'ok': 0, 'NOUN': 0\}\)")
        with pytest.raises(fs.DatasetFormatError, match=named):
            fs.read_dataset(path)

    def test_write_repeated_invalid_token_names_first_bad_record(self, tmp_path):
        taxonomy = fs.GenreTaxonomy(("A",))
        ok, bad = fs.Token("ok", "NOUN"), fs.Token("", "NOUN")
        records = [fs.VideoRecord(f"r{i}", "train", set(), [fs.Shot(np.zeros((1, 2), np.float32))],
                                  np.zeros(1, np.float32), [ok, bad] if i else [ok])
                   for i in range(3)]
        with pytest.raises(fs.DatasetFormatError) as err:
            fs.write_dataset(fs.Dataset(taxonomy, 2, 1, 1, records), tmp_path / "d.jsonl")
        assert str(err.value) == "record r1: transcript token 1 has empty text"
        assert fs.validate_record(records[1], taxonomy, (2, 1, 1)) == [str(err.value)]


class TestSatelliteErrors:
    def _write(self, tmp_path, lines, name="bad.jsonl"):
        path = tmp_path / name
        path.write_text("\n".join(map(json.dumps, lines)) + "\n", encoding="utf-8")
        return path

    HEAD = {"format_version": 1, "taxonomy": ["A", "B"], "d_v": 2, "d_a": 1, "d_l": 1}

    def _record(self, **kw):
        return {"id": "r1", "split": "train", "genres": ["A"],
                "shots": [{"frames": [[1.0, 2.0]]}], "audio_embedding": [0.5],
                "transcript": [], **kw}

    def test_read_rejects_non_string_genre(self, tmp_path):
        path = self._write(tmp_path, [self.HEAD, self._record(), self._record(id="r2", genres=[1, "A"])])
        named = r"line 3: malformed record \(genres must be strings, got \[1, 'A'\]\)"
        with pytest.raises(fs.DatasetFormatError, match=named):
            fs.read_dataset(path)

    def test_validate_reports_non_string_genre(self):
        taxonomy = fs.GenreTaxonomy(("A",))
        rec = fs.VideoRecord("x", "train", [1, "A", "Z"], [fs.Shot(np.zeros((1, 2), np.float32))],
                             np.zeros(1, np.float32), [])
        assert fs.validate_record(rec, taxonomy, (2, 1, 1)) == [
            "record x: genre 1 is not a string", "record x: genre 'Z' not in taxonomy"]
        assert "genres=['A', 'Z', 1]" in repr(rec)

    @pytest.mark.parametrize("where, value, named", [
        ("frames", 1e39, "record r1: shot 0 has non-finite frame values"),
        ("audio_embedding", -1e39, "record r1: audio embedding has non-finite values"),
        ("frames", 10 ** 400, r"malformed record \(int too large to convert to float\)"),
    ], ids=["frames-1e39", "audio-1e39", "frames-huge-int"])
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_out_of_float32_range_is_a_format_error(self, tmp_path, where, value, named):
        rec = (self._record(shots=[{"frames": [[1.0, value]]}]) if where == "frames"
               else self._record(audio_embedding=[value]))
        path = self._write(tmp_path, [self.HEAD, rec])
        with pytest.raises(fs.DatasetFormatError, match=f"line 2: .*{named}"):
            fs.read_dataset(path)

    def test_validate_names_each_non_finite_shot(self):
        frames = [np.zeros((2, 2), np.float32) for _ in range(4)]
        frames[1][0, 1], frames[3][1, 0] = np.nan, np.inf
        rec = fs.VideoRecord("x", "train", set(), [fs.Shot(f) for f in frames],
                             np.zeros(1, np.float32), [])
        assert fs.validate_record(rec, fs.GenreTaxonomy(("A",)), (2, 1, 1)) == [
            "record x: shot 1 has non-finite frame values",
            "record x: shot 3 has non-finite frame values"]

    @pytest.mark.parametrize("header, line, named", [
        ({}, {"token": 5, "vector": [0.5]}, "line 2: token must be a string, got 5"),
        ({}, {"token": ["a"], "vector": [0.5]}, r"line 2: token must be a string, got \['a'\]"),
        ({"d_l": 2.7}, None, r"line 1: d_l must be an integer >= 1, got 2.7"),
        ({"d_l": 0}, None, r"line 1: d_l must be an integer >= 1, got 0"),
        ({"format_version": 9}, None, "line 1: unsupported format_version 9"),
        ({}, {"token": "a", "vector": [1e39]}, "line 2: non-finite embedding for 'a'"),
        ({}, {"token": "a", "vector": 5}, "line 2: vector must be a list, got 5"),
    ], ids=["token-int", "token-list", "dim-float", "dim-zero", "version", "overflow", "scalar"])
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_read_embeddings_rejects(self, tmp_path, header, line, named):
        head = {"format_version": 1, "d_l": 1, **header}
        path = self._write(tmp_path, [head, line or {"token": "a", "vector": [0.5]}])
        with pytest.raises(fs.DatasetFormatError, match=named):
            fs.read_embeddings(path)
