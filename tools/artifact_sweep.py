"""Run every ``shotgenre`` command at fixed seeds and print the sha256 of each
artifact it writes: one ``<sha256>  <name>`` line per file, in name order.

Two checkouts that print the same lines write byte-identical artifacts, so a
change meant to keep every output the same is checked by diffing this
script's output under each checkout's ``src``:

    PYTHONPATH=src python tools/artifact_sweep.py --out /tmp/sweep

Manifests are left out, since each records the time it was written. What
the commands print goes to stderr, so stdout holds only the hash lines.
"""

import argparse
import contextlib
import hashlib
import sys
from pathlib import Path

import numpy as np

from shotgenre import featurestore, sceneboundary
from shotgenre.cli import run

SYNTH = ["--videos", "60", "--genres", "5", "--d-v", "6", "--d-a", "6", "--d-l", "6"]
BOUNDARY_SEQUENCES, BOUNDARY_TRAIN = 24, 18


def write_boundary_sets(out: Path) -> None:
    """Annotated scene-boundary sequences as two datasets, built through the
    public API: a training file and a held-out file.

    The held-out sequences alternate between the train and test splits, for
    the ``--split train`` eval. Two more held-out records have no window to
    score, and the evals skip them: an annotated one of three shots and one
    without boundary flags."""
    seqs, _ = sceneboundary.synth_boundary_sequences(
        num_sequences=BOUNDARY_SEQUENCES, shots_per_sequence=43, feature_dim=8, seed=5)

    def record(rid, split, feats, flags):
        return featurestore.VideoRecord(rid, split, set(),
                                        [featurestore.Shot(f.reshape(1, -1)) for f in feats],
                                        np.zeros(2, np.float32), [], boundary_flags=flags)

    records = [record(f"seq{i:03d}", "train" if i < BOUNDARY_TRAIN or i % 2 else "test",
                      feats, flags)
               for i, (feats, flags) in enumerate(seqs)]
    feats, flags = seqs[0]
    records += [record("short", "train", feats[:3], flags[:2]),
                record("unflagged", "train", feats, None)]
    taxonomy = featurestore.GenreTaxonomy(("none",))
    for name, part in (("boundary_train.jsonl", records[:BOUNDARY_TRAIN]),
                       ("boundary_heldout.jsonl", records[BOUNDARY_TRAIN:])):
        featurestore.write_dataset(featurestore.Dataset(taxonomy, 8, 2, 2, part), out / name)


def commands(out: Path) -> list:
    data, pixels, model, late, early, boundary = (
        str(out / name) for name in ("data.jsonl", "pixels.jsonl", "model.ckpt", "late.ckpt",
                                     "early.ckpt", "boundary.ckpt"))
    train = ["--epochs", "5", "--d-h", "8", "--seed", "13"]
    return [
        ["synth", "--out", data, *SYNTH, "--shots", "10", "--frames", "3", "--seed", "11"],
        ["synth", "--out", pixels, *SYNTH, "--shots", "4", "--frames", "2", "--pixel-stats",
         "--seed", "12"],
        ["train", "--data", data, "--out", model, *train],
        ["eval", "--data", data, "--model", model, "--split", "test",
         "--out-prefix", str(out / "eval")],
        # the other two fusion strategies, and the training options left at
        # their defaults above
        ["train", "--data", data, "--out", late, *train, "--fusion", "late",
         "--modalities", "v,a", "--dropout", "0.2", "--optimizer", "sgd", "--max-lr", "0.05",
         "--no-resample"],
        ["eval", "--data", data, "--model", late, "--split", "test",
         "--out-prefix", str(out / "eval_late")],
        ["train", "--data", data, "--out", early, *train, "--fusion", "early"],
        ["eval", "--data", data, "--model", early, "--split", "test",
         "--out-prefix", str(out / "eval_early")],
        ["report", "--data", data, "--predictions", str(out / "eval.predictions.jsonl"),
         "--out-prefix", str(out / "report")],
        ["keywords", "--data", data, "--out", str(out / "keywords.csv"), "--k", "5"],
        ["tfidf", "--data", data, "--out-prefix", str(out / "tfidf"), "--max-genres", "3"],
        ["slide", "--data", data, "--model", model, "--out", str(out / "slide.csv"),
         "--window", "4", "--stride", "2", "--genre", "Action", "--top-k", "3"],
        ["pixstats", "--data", pixels, "--out", str(out / "pixstats.csv")],
        ["boundary-train", "--data", str(out / "boundary_train.jsonl"), "--out", boundary,
         "--epochs", "20", "--hidden", "64,32", "--seed", "14"],
        ["boundary-eval", "--data", str(out / "boundary_heldout.jsonl"), "--model", boundary,
         "--out", str(out / "boundary_eval.json")],
        ["boundary-eval", "--data", str(out / "boundary_heldout.jsonl"), "--model", boundary,
         "--split", "train", "--out", str(out / "boundary_eval_train.json")],
    ]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True, help="directory for the artifacts")
    out = Path(parser.parse_args(argv).out)
    out.mkdir(parents=True, exist_ok=True)
    with contextlib.redirect_stdout(sys.stderr):
        write_boundary_sets(out)
        for command in commands(out):
            code = run(command)
            if code:
                print(f"artifact_sweep: {command[0]} exited {code}")
                return code
    for path in sorted(out.iterdir()):
        if path.is_file() and not path.name.endswith(".manifest.json"):
            print(f"{hashlib.sha256(path.read_bytes()).hexdigest()}  {path.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
