"""The benchmark's workloads: the inputs each builds from its seed, the CLI
commands it runs, the checks on what those commands write, and the
end-to-end figures one pass yields.

Why each workload exists is written in ``perfbench/README.md``; in short,
``fusion_train`` is dominated by per-epoch shot resampling (``aggregate``),
``catalog`` by re-reading a large JSONL file (``featurestore``) with
resampling bypassed, and ``boundary`` by large BLAS matmuls (``nn``).
"""

import csv
import json
import math
from dataclasses import dataclass, field

import numpy as np

from shotgenre import featurestore, sceneboundary

# Acceptance bars the checks hold the outputs to (criteria 4 and 8).
MIN_TEST_MACRO_MAP = 0.95
MIN_BOUNDARY_AP = 0.90
MIN_BOUNDARY_RECALL = 0.80


@dataclass
class Step:
    """One CLI invocation. ``check(out_dir)`` returns a list of problems with
    what the command wrote; an empty list means the output is correct.

    A workload may list a short command several times, each writing its own
    files; the pass then counts that command at its median time.
    """

    command: str
    argv: list
    check: object = None


@dataclass
class Record:
    id: str
    split: str
    genres: list = field(default_factory=list)


def scan_records(path) -> list:
    """Id, split and genres of every record in a dataset file, read with the
    json module alone so the checks do not rely on the code under test."""
    records = []
    with open(path, "r", encoding="utf-8") as fh:
        fh.readline()
        for line in fh:
            if line.strip():
                obj = json.loads(line)
                records.append(Record(obj["id"], obj["split"], obj["genres"]))
    return records


def read_csv(path) -> list:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def macro_map(report_csv) -> float:
    """Macro-mAP as the eval report defines it: the mean of the per-genre AP
    column, zero-support genres included."""
    return float(np.mean([float(row["ap"]) for row in read_csv(report_csv)]))


def check_predictions(path, records) -> list:
    """One finite score row in [0, 1] per record, ids in record order."""
    problems = []
    with open(path, "r", encoding="utf-8") as fh:
        width = len(json.loads(fh.readline())["taxonomy"])
        rows = [json.loads(line) for line in fh if line.strip()]
    if [r["id"] for r in rows] != [r.id for r in records]:
        problems.append(f"{path}: prediction ids differ from the {len(records)} expected records")
    for row in rows:
        scores = row["scores"]
        if len(scores) != width or not all(math.isfinite(s) and 0.0 <= s <= 1.0 for s in scores):
            problems.append(f"{path}: record {row['id']}: scores not {width} finite values in [0, 1]")
            break
    return problems


class Workload:
    name = ""

    def setup(self, runner, data_dir, seed) -> bool:
        """Build the workload's inputs in ``data_dir``; False if that failed."""
        raise NotImplementedError

    def prepare(self, data_dir) -> None:
        """Read what the checks and rates need from the built inputs."""

    def steps(self, data_dir, out_dir, seed) -> list:
        """The commands of one pass: they read ``data_dir`` and write only
        into ``out_dir``."""
        raise NotImplementedError

    def figures(self, out_dir, times) -> dict:
        """End-to-end figures of one pass, from per-command seconds."""
        raise NotImplementedError

    def extras(self, out_dir, times) -> dict:
        """Figures only this workload has: ``{name: (value, unit)}``."""
        return {}


class FusionTrain(Workload):
    """The criterion-4 planted set and the paper's headline pipeline."""

    name = "fusion_train"
    epochs = 200
    eval_repeats = 5  # eval takes about 0.2 s
    synth_args = ["--videos", "600", "--genres", "8", "--d-v", "16", "--d-a", "16",
                  "--d-l", "16", "--shots", "10", "--frames", "4",
                  "--noise-v", "0.05", "--noise-a", "0.05", "--noise-l", "0.1"]

    def setup(self, runner, data_dir, seed):
        return runner.cli("synth", ["synth", "--out", str(data_dir / "data.jsonl"),
                                    *self.synth_args, "--seed", str(seed)]) == 0

    def prepare(self, data_dir):
        records = scan_records(data_dir / "data.jsonl")
        self.train = [r for r in records if r.split == "train"]
        self.test = [r for r in records if r.split == "test"]

    def steps(self, data_dir, out_dir, seed):
        data, model = str(data_dir / "data.jsonl"), str(out_dir / "model.ckpt")
        return [
            Step("train", ["train", "--data", data, "--out", model, "--fusion", "intermediate",
                           "--epochs", str(self.epochs), "--seed", str(seed)]),
        ] + [
            Step("eval", ["eval", "--data", data, "--model", model, "--split", "test",
                          "--out-prefix", str(out_dir / f"test{k}")],
                 lambda out_dir, k=k: self.check_eval(out_dir, f"test{k}"))
            for k in range(self.eval_repeats)
        ]

    def check_eval(self, out_dir, prefix):
        problems = check_predictions(out_dir / f"{prefix}.predictions.jsonl", self.test)
        score = macro_map(out_dir / f"{prefix}.report.csv")
        if not score >= MIN_TEST_MACRO_MAP:
            problems.append(f"test macro-mAP {score:.4f} < {MIN_TEST_MACRO_MAP}")
        return problems

    def figures(self, out_dir, times):
        return {
            "train_samples_per_s": len(self.train) * self.epochs / times["train"],
            "eval_records_per_s": len(self.test) / times["eval"],
        }

    def extras(self, out_dir, times):
        return {"test_macro_map": (macro_map(out_dir / "test0.report.csv"), "fraction")}


class Catalog(Workload):
    """A large corpus read by every command; resampling is off."""

    name = "catalog"
    epochs = 20
    synth_args = ["--videos", "6000", "--genres", "21", "--shots", "4", "--frames", "2",
                  "--pixel-stats"]

    def setup(self, runner, data_dir, seed):
        return runner.cli("synth", ["synth", "--out", str(data_dir / "catalog.jsonl"),
                                    *self.synth_args, "--seed", str(seed)]) == 0

    def prepare(self, data_dir):
        records = scan_records(data_dir / "catalog.jsonl")
        self.train = [r for r in records if r.split == "train"]
        self.genres_with_records = {g for r in records for g in r.genres}
        with open(data_dir / "catalog.jsonl", "r", encoding="utf-8") as fh:
            self.taxonomy = json.loads(fh.readline())["taxonomy"]

    def steps(self, data_dir, out_dir, seed):
        data, model = str(data_dir / "catalog.jsonl"), str(out_dir / "model.ckpt")
        return [
            Step("train", ["train", "--data", data, "--out", model, "--no-resample",
                           "--epochs", str(self.epochs), "--seed", str(seed)]),
            Step("eval", ["eval", "--data", data, "--model", model, "--split", "train",
                          "--out-prefix", str(out_dir / "train")], self.check_eval),
            Step("tfidf", ["tfidf", "--data", data, "--out-prefix", str(out_dir / "words")],
                 self.check_tfidf),
            Step("pixstats", ["pixstats", "--data", data, "--out", str(out_dir / "pixels.csv")],
                 self.check_pixstats),
        ]

    def check_eval(self, out_dir):
        return check_predictions(out_dir / "train.predictions.jsonl", self.train)

    def check_tfidf(self, out_dir):
        ranked = {row["genre"] for row in read_csv(out_dir / "words.ranked.csv")}
        if ranked != self.genres_with_records:
            return [f"tfidf ranks {len(ranked)} genres, "
                    f"{len(self.genres_with_records)} genres have records"]
        return []

    def check_pixstats(self, out_dir):
        genres = [row["genre"] for row in read_csv(out_dir / "pixels.csv")]
        if genres != self.taxonomy or len(genres) != 21:
            return [f"pixstats wrote {len(genres)} genre rows, expected the 21 of the taxonomy"]
        return []

    def figures(self, out_dir, times):
        return {
            "train_samples_per_s": len(self.train) * self.epochs / times["train"],
            "eval_records_per_s": len(self.train) / times["eval"],
        }

    def extras(self, out_dir, times):
        return {"analytics_s": (times["tfidf"] + times["pixstats"], "s")}


class Boundary(Workload):
    """Scene-boundary training at the paper's 4096-1024 head.

    The held-out sequences live in their own file: ``boundary-train`` trains
    on every annotated record of ``--data`` whatever its split tag, so
    ``boundary-eval --split test`` on the training file would score
    training data.
    """

    name = "boundary"
    epochs = 5
    eval_repeats = 9  # boundary-eval takes about 70 ms
    sequences = 75
    train_sequences = 60
    shots = 43
    dim = 16

    def setup(self, runner, data_dir, seed):
        seqs, _ = sceneboundary.synth_boundary_sequences(
            num_sequences=self.sequences, shots_per_sequence=self.shots,
            feature_dim=self.dim, boundary_prob=1 / 11, seed=seed)
        records = [
            featurestore.VideoRecord(f"seq{i:03d}", "train", set(),
                                     [featurestore.Shot(f.reshape(1, -1)) for f in feats],
                                     np.zeros(2, np.float32), [], boundary_flags=flags)
            for i, (feats, flags) in enumerate(seqs)
        ]
        taxonomy = featurestore.GenreTaxonomy(("none",))
        for name, part in (("boundary_train.jsonl", records[:self.train_sequences]),
                           ("boundary_heldout.jsonl", records[self.train_sequences:])):
            featurestore.write_dataset(featurestore.Dataset(taxonomy, self.dim, 2, 2, part),
                                       data_dir / name)
        return True

    def prepare(self, data_dir):
        per_sequence = self.shots - sceneboundary.WINDOW + 1
        self.train_samples = self.train_sequences * per_sequence
        self.heldout_samples = (self.sequences - self.train_sequences) * per_sequence

    def steps(self, data_dir, out_dir, seed):
        model = str(out_dir / "boundary.ckpt")
        return [
            Step("boundary-train", ["boundary-train", "--data", str(data_dir / "boundary_train.jsonl"),
                                    "--out", model, "--epochs", str(self.epochs),
                                    "--seed", str(seed)]),
        ] + [
            Step("boundary-eval", ["boundary-eval", "--data", str(data_dir / "boundary_heldout.jsonl"),
                                   "--model", model, "--out", str(out_dir / f"eval{k}.json")],
                 lambda out_dir, k=k: self.check_eval(out_dir / f"eval{k}.json"))
            for k in range(self.eval_repeats)
        ]

    @staticmethod
    def result(path) -> dict:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)

    def check_eval(self, path):
        result = self.result(path)
        problems = []
        if not result["ap"] >= MIN_BOUNDARY_AP:
            problems.append(f"held-out AP {result['ap']:.4f} < {MIN_BOUNDARY_AP}")
        if not result["recall_at_05"] >= MIN_BOUNDARY_RECALL:
            problems.append(f"held-out recall@0.5 {result['recall_at_05']:.4f} < {MIN_BOUNDARY_RECALL}")
        return problems

    def figures(self, out_dir, times):
        return {
            "train_samples_per_s": self.train_samples * self.epochs / times["boundary-train"],
            "eval_records_per_s": self.heldout_samples / times["boundary-eval"],
        }

    def extras(self, out_dir, times):
        return {"boundary_ap": (float(self.result(out_dir / "eval0.json")["ap"]), "fraction")}


WORKLOADS = {w.name: w for w in (FusionTrain, Catalog, Boundary)}
