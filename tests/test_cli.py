import json
import os

import pytest

from shotgenre.cli import run

SYNTH = ["synth", "--videos", "40", "--genres", "4", "--d-v", "6", "--d-a", "6",
         "--d-l", "6", "--shots", "5", "--frames", "3", "--seed", "7"]


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """One synthesized dataset + trained model shared by the CLI tests."""
    root = tmp_path_factory.mktemp("cli")
    data = root / "d.jsonl"
    assert run(SYNTH + ["--out", str(data)]) == 0
    model = root / "m.ckpt"
    assert run(["train", "--data", str(data), "--out", str(model),
                "--epochs", "3", "--d-h", "8", "--seed", "1"]) == 0
    return root, data, model


def test_synth_writes_three_artifacts(workdir):
    root, data, _ = workdir
    assert data.exists()
    assert (root / "d.emb.jsonl").exists()
    assert (root / "d.truth.json").exists()
    manifest = json.loads((root / "d.jsonl.manifest.json").read_text())
    assert manifest["command"] == "synth"
    assert manifest["seed"] == 7
    assert set(manifest["artifacts"]) == {"d.jsonl", "d.emb.jsonl", "d.truth.json"}
    assert manifest["versions"]["shotgenre"]


def test_synth_byte_reproducible(tmp_path):
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    assert run(SYNTH + ["--out", str(a)]) == 0
    assert run(SYNTH + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_train_then_eval(workdir, tmp_path):
    root, data, model = workdir
    assert model.exists()
    assert (root / "m.ckpt.history.csv").exists()
    prefix = tmp_path / "ev"
    code = run(["eval", "--data", str(data), "--model", str(model),
                "--split", "test", "--out-prefix", str(prefix)])
    assert code == 0
    assert (tmp_path / "ev.predictions.jsonl").exists()
    report = (tmp_path / "ev.report.txt").read_text()
    assert "macro" in report and "micro" in report


@pytest.mark.parametrize("shots, frames", [(10, 4), (3, 1)])
def test_train_seed_repeat_byte_identical(tmp_path, shots, frames):
    # 8 shots of 3 frames are requested: 10x4 records draw a random subset,
    # 3x1 records keep every shot and duplicate its frame
    data = tmp_path / "d.jsonl"
    assert run(["synth", "--out", str(data), "--videos", "30", "--genres", "3",
                "--d-v", "4", "--d-a", "4", "--d-l", "4", "--shots", str(shots),
                "--frames", str(frames), "--seed", "5"]) == 0
    outs = []
    for name in ("a", "b"):
        model = tmp_path / f"{name}.ckpt"
        assert run(["train", "--data", str(data), "--out", str(model), "--epochs", "3",
                    "--d-h", "8", "--shots", "8", "--frames", "3", "--seed", "2"]) == 0
        outs.append((model.read_bytes(), (tmp_path / f"{name}.ckpt.history.csv").read_bytes()))
    assert outs[0] == outs[1]


def test_eval_dim_mismatch_exit_1(workdir, tmp_path, capsys):
    root, data, model = workdir
    other = tmp_path / "other.jsonl"
    assert run(["synth", "--out", str(other), "--videos", "10", "--genres", "4",
                "--d-v", "9", "--d-a", "6", "--d-l", "6", "--seed", "1"]) == 0
    code = run(["eval", "--data", str(other), "--model", str(model),
                "--out-prefix", str(tmp_path / "x")])
    assert code == 1
    err = capsys.readouterr().err
    assert "6" in err and "9" in err  # names both dims


def test_mistyped_dataset_header_exit_1(tmp_path, capsys):
    # a string taxonomy used to read as one genre per character
    data = tmp_path / "d.jsonl"
    header = {"format_version": 1, "taxonomy": "AB", "d_v": 2, "d_a": 1, "d_l": 1}
    record = {"id": "r1", "split": "train", "genres": ["A"], "shots": [{"frames": [[1.0, 2.0]]}],
              "audio_embedding": [0.5], "transcript": []}
    data.write_text(json.dumps(header) + "\n" + json.dumps(record) + "\n", encoding="utf-8")
    assert run(["pixstats", "--data", str(data), "--out", str(tmp_path / "p.csv")]) == 1
    assert "line 1: taxonomy" in capsys.readouterr().err


def test_mixed_type_genres_exit_1(tmp_path, capsys):
    # sorting [1, "A"] used to escape as a TypeError traceback
    data = tmp_path / "d.jsonl"
    header = {"format_version": 1, "taxonomy": ["A"], "d_v": 2, "d_a": 1, "d_l": 1}
    record = {"id": "r1", "split": "train", "genres": [1, "A"],
              "shots": [{"frames": [[1.0, 2.0]]}], "audio_embedding": [0.5], "transcript": []}
    data.write_text(json.dumps(header) + "\n" + json.dumps(record) + "\n", encoding="utf-8")
    assert run(["train", "--data", str(data), "--out", str(tmp_path / "m.ckpt")]) == 1
    assert "line 2: malformed record (genres must be a list of strings" in capsys.readouterr().err


@pytest.mark.parametrize("taxonomy, named", [
    ([], "line 1: taxonomy is empty"),
    (["A", "A"], "line 1: taxonomy contains duplicate genre names"),
], ids=["empty", "duplicate"])
def test_bad_taxonomy_exit_1(tmp_path, capsys, taxonomy, named):
    data = tmp_path / "d.jsonl"
    header = {"format_version": 1, "taxonomy": taxonomy, "d_v": 2, "d_a": 1, "d_l": 1}
    data.write_text(json.dumps(header) + "\n", encoding="utf-8")
    assert run(["pixstats", "--data", str(data), "--out", str(tmp_path / "p.csv")]) == 1
    assert named in capsys.readouterr().err


@pytest.mark.parametrize("command, key, value", [
    ("eval", "strategy", None),
    ("eval", "d_h", [2]),
    ("eval", "modalities", 3),
    ("eval", "shapes", None),
    ("boundary-eval", "hidden_dims", None),
])
def test_malformed_checkpoint_header_exit_1(workdir, tmp_path, capsys, command, key, value):
    # a checkpoint with the right magic whose header lacks or mistypes one field
    from shotgenre import sceneboundary as sb

    _, data, model = workdir
    if command == "boundary-eval":
        model = tmp_path / "b.ckpt"
        sb.save_boundary_model(sb.make_boundary_model(6, hidden_dims=(4,), seed=0), model)
    head, _, blob = model.read_bytes().partition(b"\n")
    header = json.loads(head)
    if value is None:
        del header[key]
    else:
        header[key] = value
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(json.dumps(header).encode() + b"\n" + blob)
    out = ["--out-prefix", str(tmp_path / "x")] if command == "eval" else \
        ["--out", str(tmp_path / "x.json")]
    assert run([command, "--data", str(data), "--model", str(bad), *out]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and str(bad) in err


def test_report_from_predictions(workdir, tmp_path):
    root, data, model = workdir
    prefix = tmp_path / "ev"
    assert run(["eval", "--data", str(data), "--model", str(model),
                "--out-prefix", str(prefix)]) == 0
    out = tmp_path / "re"
    code = run(["report", "--data", str(data),
                "--predictions", str(tmp_path / "ev.predictions.jsonl"),
                "--out-prefix", str(out)])
    assert code == 0
    assert (tmp_path / "re.report.csv").read_text() == (tmp_path / "ev.report.csv").read_text()


@pytest.mark.parametrize("score", ["NaN", "1e39", "true"])
def test_report_rejects_malformed_scores(workdir, tmp_path, capsys, score):
    root, data, model = workdir
    prefix = tmp_path / "ev"
    assert run(["eval", "--data", str(data), "--model", str(model),
                "--out-prefix", str(prefix)]) == 0
    preds = tmp_path / "ev.predictions.jsonl"
    header, first, *rest = preds.read_text(encoding="utf-8").splitlines()
    row = json.loads(first)
    first = f'{{"id":{json.dumps(row["id"])},"scores":[{",".join([score] * len(row["scores"]))}]}}'
    preds.write_text("\n".join([header, first, *rest]) + "\n", encoding="utf-8")
    capsys.readouterr()
    assert run(["report", "--data", str(data), "--predictions", str(preds),
                "--out-prefix", str(tmp_path / "re")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: line 2: ")
    assert not (tmp_path / "re.report.txt").exists()


@pytest.mark.parametrize("command", ["eval", "report"])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_nonfinite_threshold_exit_1(workdir, tmp_path, capsys, command, value):
    # a NaN threshold used to report recall and precision of 0 with exit 0
    root, data, model = workdir
    if command == "eval":
        source = ["--model", str(model)]
    else:
        assert run(["eval", "--data", str(data), "--model", str(model),
                    "--out-prefix", str(tmp_path / "ev")]) == 0
        source = ["--predictions", str(tmp_path / "ev.predictions.jsonl")]
    before = sorted(os.listdir(tmp_path))
    capsys.readouterr()
    assert run([command, "--data", str(data), *source, f"--threshold={value}",
                "--out-prefix", str(tmp_path / "x")]) == 1
    assert capsys.readouterr().err == f"error: threshold must be finite, got {value}\n"
    assert sorted(os.listdir(tmp_path)) == before


def test_keywords_and_tfidf(workdir, tmp_path):
    _, data, _ = workdir
    kw = tmp_path / "kw.csv"
    assert run(["keywords", "--data", str(data), "--out", str(kw), "--k", "5"]) == 0
    assert kw.read_text().startswith("id,rank,keyword,frequency")
    prefix = tmp_path / "tf"
    # the dataset has 4 genres, so drop the exclusion threshold below that
    assert run(["tfidf", "--data", str(data), "--out-prefix", str(prefix),
                "--max-genres", "3"]) == 0
    ranked = (tmp_path / "tf.ranked.csv").read_text()
    filtered = (tmp_path / "tf.filtered.csv").read_text()
    assert ranked.startswith("genre,rank,word,score")
    assert "filler0" in ranked and "filler0" not in filtered


@pytest.mark.parametrize("command, option, value, named", [
    ("tfidf", "--limit", "-1", "--limit must be >= 0, got -1"),
    ("tfidf", "--top-n", "-1", "--top-n must be >= 0, got -1"),
    ("tfidf", "--max-genres", "-1", "--max-genres must be >= 0, got -1"),
    ("synth", "--fillers", "-3", "--fillers must be >= 0, got -3"),
    ("boundary-train", "--hidden", "0", "--hidden: sizes must be >= 1, got '0'"),
    ("boundary-train", "--hidden", "64,-4", "--hidden: sizes must be >= 1, got '64,-4'"),
], ids=["limit", "top-n", "max-genres", "fillers", "hidden-zero", "hidden-negative"])
def test_out_of_range_count_exit_1(workdir, tmp_path, capsys, command, option, value, named):
    # each used to run on silently, or fail in numpy's words
    _, data, _ = workdir
    out = tmp_path / "out"
    args = {"tfidf": ["--data", str(data), "--out-prefix", str(out)],
            "synth": ["--out", str(out)],
            "boundary-train": ["--data", str(data), "--out", str(out)]}[command]
    capsys.readouterr()
    assert run([command, *args, option, value]) == 1
    assert capsys.readouterr().err == f"error: {named}\n"
    assert os.listdir(tmp_path) == []


def test_slide_and_retrieval(workdir, tmp_path):
    _, data, model = workdir
    out = tmp_path / "slide.csv"
    code = run(["slide", "--data", str(data), "--model", str(model), "--out", str(out),
                "--window", "3", "--stride", "2", "--genre", "Action", "--top-k", "2"])
    assert code == 0
    assert out.read_text().startswith("start,end,genre,score")
    assert (tmp_path / "slide.csv.top.csv").exists()


def test_pixstats(tmp_path):
    data = tmp_path / "px.jsonl"
    assert run(["synth", "--out", str(data), "--videos", "20", "--genres", "4",
                "--pixel-stats", "--seed", "2"]) == 0
    out = tmp_path / "profiles.csv"
    assert run(["pixstats", "--data", str(data), "--out", str(out)]) == 0
    assert out.read_text().startswith("genre,num_videos")


def test_pixstats_without_stats_is_runtime_error(workdir, tmp_path):
    _, data, _ = workdir
    assert run(["pixstats", "--data", str(data), "--out", str(tmp_path / "p.csv")]) == 1


class TestBoundaryCommands:
    @pytest.fixture(scope="class")
    def annotated(self, tmp_path_factory):
        import numpy as np

        from shotgenre import featurestore as fs, sceneboundary as sb

        root = tmp_path_factory.mktemp("boundary")
        seqs, _ = sb.synth_boundary_sequences(num_sequences=8, shots_per_sequence=24,
                                              feature_dim=6, seed=3)
        taxonomy = fs.GenreTaxonomy(("A", "B"))
        records = []
        for i, (feats, flags) in enumerate(seqs):
            shots = [fs.Shot(f.reshape(1, -1)) for f in feats]
            records.append(fs.VideoRecord(f"s{i}", "train", set(), shots,
                                          np.zeros(2, np.float32), [], boundary_flags=flags))
        ds = fs.Dataset(taxonomy, 6, 2, 2, records)
        path = root / "ann.jsonl"
        fs.write_dataset(ds, path)
        return root, path

    def test_train_eval_cycle(self, annotated):
        root, path = annotated
        ckpt = root / "b.ckpt"
        code = run(["boundary-train", "--data", str(path), "--out", str(ckpt),
                    "--epochs", "20", "--max-lr", "0.003", "--hidden", "16,8",
                    "--batch", "64", "--seed", "5"])
        assert code == 0
        out = root / "beval.json"
        assert run(["boundary-eval", "--data", str(path), "--model", str(ckpt),
                    "--out", str(out)]) == 0
        result = json.loads(out.read_text())
        assert set(result) >= {"ap", "recall_at_05", "positives"}
        assert result["ap"] > 0.5

    def test_trains_on_train_split_only(self, annotated, tmp_path):
        import numpy as np

        from shotgenre import featurestore as fs, sceneboundary as sb

        _, path = annotated
        train_only = fs.read_dataset(path)
        seqs, _ = sb.synth_boundary_sequences(num_sequences=3, shots_per_sequence=24,
                                              feature_dim=6, seed=11)
        held_out = [fs.VideoRecord(f"t{i}", "test", set(),
                                   [fs.Shot(f.reshape(1, -1)) for f in feats],
                                   np.zeros(2, np.float32), [], boundary_flags=flags)
                    for i, (feats, flags) in enumerate(seqs)]
        mixed = fs.Dataset(train_only.taxonomy, 6, 2, 2, held_out + train_only.records)
        fs.write_dataset(mixed, tmp_path / "mixed.jsonl")
        args = ["--epochs", "2", "--hidden", "8", "--batch", "64", "--seed", "1"]
        assert run(["boundary-train", "--data", str(path),
                    "--out", str(tmp_path / "a.ckpt"), *args]) == 0
        assert run(["boundary-train", "--data", str(tmp_path / "mixed.jsonl"),
                    "--out", str(tmp_path / "b.ckpt"), *args]) == 0
        assert (tmp_path / "a.ckpt").read_bytes() == (tmp_path / "b.ckpt").read_bytes()

    def test_no_annotated_train_records_names_split(self, annotated, tmp_path, capsys):
        from shotgenre import featurestore as fs

        _, path = annotated
        ds = fs.read_dataset(path)
        for rec in ds.records:
            rec.split = "test"
        fs.write_dataset(ds, tmp_path / "test_only.jsonl")
        assert run(["boundary-train", "--data", str(tmp_path / "test_only.jsonl"),
                    "--out", str(tmp_path / "x.ckpt"), "--epochs", "1",
                    "--hidden", "4", "--seed", "0"]) == 1
        assert "'train'" in capsys.readouterr().err

    def test_unannotated_data_rejected(self, annotated, tmp_path):
        root, _ = annotated
        plain = tmp_path / "plain.jsonl"
        assert run(["synth", "--out", str(plain), "--videos", "8", "--genres", "2",
                    "--seed", "0"]) == 0
        assert run(["boundary-train", "--data", str(plain),
                    "--out", str(tmp_path / "x.ckpt"), "--epochs", "1",
                    "--hidden", "4", "--seed", "0"]) == 1


    @pytest.mark.parametrize("command, option, value, named", [
        ("train", "--max-lr", "nan", "max_lr must be finite and > 0, got nan"),
        ("train", "--max-lr", "inf", "max_lr must be finite and > 0, got inf"),
        ("boundary-train", "--max-lr", "nan", "max_lr must be finite and > 0, got nan"),
        ("boundary-train", "--weights", "nan,1",
         "class_weights must be finite and > 0, got (nan, 1.0)"),
        ("boundary-train", "--weights", "inf,1",
         "class_weights must be finite and > 0, got (inf, 1.0)"),
    ], ids=["train-lr-nan", "train-lr-inf", "boundary-lr-nan", "weights-nan", "weights-inf"])
    def test_nonfinite_rate_or_weights_exit_1(self, workdir, annotated, tmp_path, capsys,
                                              command, option, value, named):
        data = workdir[1] if command == "train" else annotated[1]
        capsys.readouterr()
        assert run([command, "--data", str(data), "--out", str(tmp_path / "m.ckpt"),
                    "--epochs", "1", option, value]) == 1
        assert capsys.readouterr().err == f"error: {named}\n"
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("command", ["train", "boundary-train"])
    def test_config_checked_before_dataset(self, tmp_path, capsys, command):
        # the rate is rejected without reading --data, which is not a dataset
        data = tmp_path / "not-a-dataset.jsonl"
        data.write_text("not json\n", encoding="utf-8")
        capsys.readouterr()
        assert run([command, "--data", str(data), "--out", str(tmp_path / "m.ckpt"),
                    "--max-lr", "nan"]) == 1
        assert capsys.readouterr().err == "error: max_lr must be finite and > 0, got nan\n"
        assert os.listdir(tmp_path) == [data.name]

    def test_eval_short_checkpoint_exit_1(self, annotated, tmp_path, capsys):
        from shotgenre import nn, sceneboundary as sb

        _, path = annotated
        model = sb.make_boundary_model(6, hidden_dims=(4,), seed=0)
        params = [p for layer in model.mlp.layers for p in (layer.weights, layer.bias)]
        ckpt = tmp_path / "short.ckpt"
        nn.save_checkpoint(ckpt, {"kind": "scene-boundary", "feature_dim": 6,
                                  "hidden_dims": [4]}, params[:-1])
        assert run(["boundary-eval", "--data", str(path), "--model", str(ckpt),
                    "--out", str(tmp_path / "e.json")]) == 1
        assert "expected 4 parameter arrays, got 3" in capsys.readouterr().err


class TestConfigAndErrors:
    def test_config_file_provides_defaults(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        out = tmp_path / "c.jsonl"
        cfg.write_text(json.dumps({"videos": 10, "genres": 4, "seed": 3,
                                   "out": str(out)}))
        assert run(["--config", str(cfg), "synth"]) == 0
        assert out.exists()

    def test_flags_override_config(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"videos": 10, "genres": 4, "seed": 3}))
        out = tmp_path / "c.jsonl"
        assert run(["--config", str(cfg), "synth", "--out", str(out), "--videos", "6"]) == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 1 + 6

    def test_unknown_config_key_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"video": 10}))
        assert run(["--config", str(cfg), "synth", "--out", str(tmp_path / "x.jsonl")]) == 2
        assert "unknown config key" in capsys.readouterr().err

    def test_config_values_converted(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"videos": "3", "genres": 2, "noise-v": 0,
                                   "pixel-stats": False}))
        out = tmp_path / "x.jsonl"
        assert run(["--config", str(cfg), "synth", "--out", str(out)]) == 0
        config = json.loads((tmp_path / "x.jsonl.manifest.json").read_text())["config"]
        assert config["videos"] == 3 and config["pixel_stats"] is False
        assert config["noise_v"] == 0.0 and isinstance(config["noise_v"], float)
        assert len(out.read_text().splitlines()) == 1 + 3

    @pytest.mark.parametrize("key, value, expect", [
        ("videos", "three", "expected int"),
        ("videos", 2.5, "expected int"),
        ("videos", True, "expected int"),
        ("noise-v", "x", "expected float"),
        ("out", 5, "expected str"),
        ("seed", None, "expected int"),
        ("pixel-stats", "false", "expected true or false"),
        ("pixel-stats", 1, "expected true or false"),
    ])
    def test_config_value_type_usage_error(self, tmp_path, capsys, key, value, expect):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: value}))
        assert run(["--config", str(cfg), "synth", "--out", str(tmp_path / "x.jsonl")]) == 2
        err = capsys.readouterr().err
        assert f"config key {key!r}" in err and expect in err

    def test_config_flag_false_and_choices(self, workdir, tmp_path, capsys):
        _, data, _ = workdir
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"all-pos": False, "limit": None}))
        assert run(["--config", str(cfg), "tfidf", "--data", str(data),
                    "--out-prefix", str(tmp_path / "w")]) == 0
        assert json.loads((tmp_path / "w.manifest.json").read_text())["config"]["all_pos"] is False
        cfg.write_text(json.dumps({"fusion": "middle"}))
        assert run(["--config", str(cfg), "train", "--data", str(data),
                    "--out", str(tmp_path / "m.ckpt")]) == 2
        assert "'middle' is not one of early, intermediate, late" in capsys.readouterr().err

    def test_missing_required_usage_error(self, capsys):
        assert run(["synth"]) == 2
        assert "--out" in capsys.readouterr().err

    def test_missing_input_usage_error(self, tmp_path):
        assert run(["eval", "--data", str(tmp_path / "nope.jsonl"),
                    "--model", str(tmp_path / "nope.ckpt"),
                    "--out-prefix", str(tmp_path / "x")]) == 2

    def test_unknown_flag_exit_2(self):
        assert run(["synth", "--wat", "1"]) == 2

    def test_env_var_path_default(self, tmp_path, monkeypatch):
        out = tmp_path / "env.jsonl"
        monkeypatch.setenv("SHOTGENRE_OUT", str(out))
        assert run(["synth", "--videos", "5", "--genres", "2", "--seed", "1"]) == 0
        assert out.exists()

    def test_manifest_identical_up_to_paths_and_timestamp(self, tmp_path):
        manifests = []
        for sub in ("one", "two"):
            d = tmp_path / sub
            os.makedirs(d)
            out = d / "h.jsonl"
            assert run(["synth", "--videos", "6", "--genres", "2", "--seed", "9",
                        "--out", str(out)]) == 0
            m = json.loads((d / "h.jsonl.manifest.json").read_text())
            del m["timestamp"]
            del m["config"]["out"]
            manifests.append(m)
        assert manifests[0] == manifests[1]
