"""Command-line pipeline driver.

Subcommands: synth, train, eval, keywords, tfidf, slide, pixstats,
boundary-train, boundary-eval, report. Every option can come from a JSON
config file (``--config``, flat object of option names for the chosen
subcommand; unknown keys are rejected, values are converted and checked
as the flag's text would be, and flags take only JSON true/false) with
command-line flags taking precedence; path options additionally fall back
to ``SHOTGENRE_<NAME>`` environment variables. Every successful run writes
a ``.manifest.json`` recording the effective config, seed, versions and
artifact hashes.

Exit codes: 0 success, 1 runtime failure, 2 usage error.
"""

import argparse
import csv
import hashlib
import json
import os
import sys
from collections import Counter
from datetime import datetime, timezone

import numpy as np

from . import __version__, analysis, fusion, metrics, sceneboundary, textlab
from .featurestore import (
    DatasetFormatError, SynthConfig, read_dataset, read_embeddings,
    synth_dataset, write_dataset, write_embeddings,
)

USAGE_EXIT = 2
RUNTIME_EXIT = 1


class UsageError(Exception):
    pass


# ---------------------------------------------------------------------------
# option table
# ---------------------------------------------------------------------------

_REQUIRED = object()


class Opt:
    def __init__(self, name, type=str, default=_REQUIRED, help="", is_path=False,
                 is_flag=False, choices=None):
        self.name = name            # CLI name, e.g. "out" -> --out
        self.dest = name.replace("-", "_")
        self.type = type
        self.default = default
        self.help = help
        self.is_path = is_path
        self.is_flag = is_flag
        self.choices = choices


_COMMON_EVAL = [
    Opt("shots", int, 8, "shots sampled per video"),
    Opt("frames", int, 3, "frames sampled per shot"),
    Opt("keywords-k", int, 20, "keywords per transcript"),
]

COMMANDS = {
    "synth": [
        Opt("out", is_path=True, help="dataset output path (.jsonl)"),
        Opt("videos", int, 600, "number of videos"),
        Opt("genres", int, 8, "number of genres"),
        Opt("d-v", int, 16, "visual feature dim"),
        Opt("d-a", int, 16, "audio feature dim"),
        Opt("d-l", int, 16, "language feature dim"),
        Opt("shots", int, 10, "shots per video"),
        Opt("frames", int, 4, "frames per shot"),
        Opt("noise-v", float, 0.1, "visual noise sigma"),
        Opt("noise-a", float, 0.1, "audio noise sigma"),
        Opt("noise-l", float, 0.1, "language (embedding) noise sigma"),
        Opt("vocab-per-genre", int, 6, "planted vocabulary words per genre"),
        Opt("fillers", int, 30, "shared filler words"),
        Opt("pixel-stats", is_flag=True, default=False, help="attach planted pixel stats"),
        Opt("seed", int, 0),
    ],
    "train": [
        Opt("data", is_path=True, help="dataset path"),
        Opt("out", is_path=True, help="checkpoint output path"),
        Opt("embeddings", is_path=True, default=None,
            help="embedding table (default: <data>.emb.jsonl when language is enabled)"),
        Opt("fusion", str, "intermediate", "fusion strategy",
            choices=("early", "intermediate", "late")),
        Opt("modalities", str, "v,a,l", "comma list from {v,a,l}"),
        Opt("d-h", int, 32, "hidden width"),
        Opt("batch", int, 256, "batch size"),
        Opt("epochs", int, 50),
        Opt("max-lr", float, 1e-3, "peak learning rate"),
        Opt("optimizer", str, "adam", choices=("adam", "sgd")),
        Opt("dropout", float, 0.0),
        Opt("no-resample", is_flag=True, default=False,
            help="sample training shots once instead of every epoch"),
        Opt("seed", int, 0),
    ] + _COMMON_EVAL,
    "eval": [
        Opt("data", is_path=True),
        Opt("model", is_path=True),
        Opt("out-prefix", is_path=True, help="writes <prefix>.predictions.jsonl/.report.txt/.report.csv"),
        Opt("split", str, "test", choices=("train", "val", "test")),
        Opt("embeddings", is_path=True, default=None),
        Opt("threshold", float, 0.5),
        Opt("micro-map", str, "pooled", choices=("pooled", "weighted")),
    ] + _COMMON_EVAL,
    "keywords": [
        Opt("data", is_path=True),
        Opt("out", is_path=True, help="CSV of per-record keywords"),
        Opt("k", int, 20, "keywords per record"),
    ],
    "tfidf": [
        Opt("data", is_path=True),
        Opt("out-prefix", is_path=True, help="writes <prefix>.ranked.csv and <prefix>.filtered.csv"),
        Opt("top-n", int, 20, "words pooled per genre for the exclusion list"),
        Opt("max-genres", int, 5, "exclude words in more than this many genre top-N lists"),
        Opt("all-pos", is_flag=True, default=False, help="score every POS, not just NOUN/PRON/ADJ"),
        Opt("limit", int, None, "rows per genre in the CSVs (default: all)"),
    ],
    "slide": [
        Opt("data", is_path=True),
        Opt("model", is_path=True),
        Opt("out", is_path=True, help="window labeling CSV"),
        Opt("id", str, None, "record id (default: first record)"),
        Opt("window", int, 8),
        Opt("stride", int, 4),
        Opt("embeddings", is_path=True, default=None),
        Opt("genre", str, None, "also rank windows for this genre"),
        Opt("top-k", int, 5, "windows to keep in the retrieval CSV"),
        Opt("keywords-k", int, 20),
    ],
    "pixstats": [
        Opt("data", is_path=True),
        Opt("out", is_path=True, help="per-genre profile CSV"),
    ],
    "boundary-train": [
        Opt("data", is_path=True,
            help="dataset with boundary_flags records; trains on split 'train'"),
        Opt("out", is_path=True, help="checkpoint output path"),
        Opt("epochs", int, 10),
        Opt("batch", int, 256),
        Opt("max-lr", float, 1e-3),
        Opt("weights", str, "10,1", "boundary,non-boundary loss weights"),
        Opt("val-frac", float, 0.2),
        Opt("hidden", str, "4096,1024", "hidden layer sizes"),
        Opt("seed", int, 0),
    ],
    "boundary-eval": [
        Opt("data", is_path=True),
        Opt("model", is_path=True),
        Opt("out", is_path=True, help="JSON report path"),
        Opt("split", str, None, choices=("train", "val", "test"),
            help="restrict to one split (default: all annotated records)"),
    ],
    "report": [
        Opt("data", is_path=True),
        Opt("predictions", is_path=True),
        Opt("out-prefix", is_path=True),
        Opt("threshold", float, 0.5),
        Opt("micro-map", str, "pooled", choices=("pooled", "weighted")),
    ],
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="shotgenre",
        description="shot-based multi-modal movie genre pipeline",
    )
    parser.add_argument("--config", default=None, help="JSON config file; flags override it")
    parser.add_argument("--threads", type=int, default=os.cpu_count() or 1,
                        help="accepted for compatibility; has no effect")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, opts in COMMANDS.items():
        p = sub.add_parser(command)
        for o in opts:
            kwargs = {"dest": o.dest, "default": argparse.SUPPRESS, "help": o.help}
            if o.is_flag:
                kwargs["action"] = "store_true"
            else:
                kwargs["type"] = o.type
                if o.choices:
                    kwargs["choices"] = o.choices
            p.add_argument(f"--{o.name}", **kwargs)
    return parser


def _config_value(o: Opt, key: str, value):
    """Check and convert one ``--config`` value as argparse would the flag's
    text: flags take only JSON true/false, other options go through
    ``o.type`` and ``o.choices``, and null is kept only where the default is
    None."""
    if o.is_flag:
        if not isinstance(value, bool):
            raise UsageError(f"config key {key!r}: expected true or false, got {value!r}")
        return value
    if value is None and o.default is None:
        return None
    # JSON numbers are accepted for numeric options; str(int) and str(float)
    # give text that o.type parses back to the same value.
    numeric = isinstance(value, (int, float)) and not isinstance(value, bool)
    try:
        if not (isinstance(value, str) or (numeric and o.type is not str)):
            raise ValueError
        value = o.type(str(value))
    except ValueError:
        raise UsageError(f"config key {key!r}: expected {o.type.__name__}, got {value!r}") from None
    if o.choices and value not in o.choices:
        raise UsageError(
            f"config key {key!r}: {value!r} is not one of {', '.join(o.choices)}"
        )
    return value


def _effective_options(command: str, ns: argparse.Namespace, config_path) -> dict:
    """builtin defaults < env (paths) < config file < explicit flags."""
    opts = {o.dest: o for o in COMMANDS[command]}
    values = {}
    for dest, o in opts.items():
        if o.default is not _REQUIRED:
            values[dest] = o.default
    for dest, o in opts.items():
        if o.is_path:
            env = os.environ.get(f"SHOTGENRE_{dest.upper()}")
            if env is not None:
                values[dest] = env
    if config_path is not None:
        if not os.path.exists(config_path):
            raise UsageError(f"config file not found: {config_path}")
        try:
            with open(config_path, "r", encoding="utf-8") as fh:
                cfg = json.load(fh)
        except json.JSONDecodeError as exc:
            raise UsageError(f"config file is not valid JSON: {exc}") from exc
        if not isinstance(cfg, dict):
            raise UsageError("config file must hold a JSON object")
        for key, value in cfg.items():
            dest = key.replace("-", "_")
            if dest not in opts:
                raise UsageError(f"unknown config key {key!r} for command {command!r}")
            values[dest] = _config_value(opts[dest], key, value)
    for dest in opts:
        if hasattr(ns, dest):
            values[dest] = getattr(ns, dest)
    missing = sorted(o.name for o in COMMANDS[command]
                     if o.default is _REQUIRED and values.get(o.dest) is None)
    if missing:
        raise UsageError("missing required option(s): " + ", ".join(f"--{m}" for m in missing))
    return values


def _validate_paths(command: str, values: dict) -> None:
    for o in COMMANDS[command]:
        if not o.is_path:
            continue
        value = values.get(o.dest)
        if value is None:
            continue
        is_input = o.name in ("data", "model", "embeddings", "predictions", "config")
        if is_input:
            if not os.path.exists(value):
                raise UsageError(f"--{o.name}: file not found: {value}")
        else:
            parent = os.path.dirname(os.path.abspath(str(value)))
            os.makedirs(parent, exist_ok=True)


def _sibling(path: str, tag: str, ext: str) -> str:
    base = str(path)
    if base.endswith(".jsonl"):
        base = base[: -len(".jsonl")]
    return f"{base}.{tag}.{ext}"


def _sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _write_manifest(primary: str, command: str, values: dict, artifacts: list) -> str:
    manifest = {
        "command": command,
        "config": {k: values[k] for k in sorted(values)},
        "seed": values.get("seed"),
        "versions": {
            "shotgenre": __version__,
            "numpy": np.__version__,
            "python": sys.version.split()[0],
        },
        "artifacts": {os.path.basename(p): _sha256(p) for p in sorted(artifacts)},
        "timestamp": datetime.now(timezone.utc).isoformat(),
    }
    path = f"{primary}.manifest.json"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def _parse_modalities(spec: str) -> tuple:
    table = {"v": "visual", "a": "audio", "l": "language"}
    mods = []
    for part in spec.split(","):
        part = part.strip().lower()
        if part in table:
            mods.append(table[part])
        elif part in table.values():
            mods.append(part)
        elif part:
            raise UsageError(f"unknown modality {part!r} (use v, a, l)")
    if not mods:
        raise UsageError("at least one modality required")
    return tuple(mods)


def _parse_pair(spec: str, name: str) -> tuple:
    try:
        parts = [float(p) for p in str(spec).split(",")]
    except ValueError:
        raise UsageError(f"--{name}: expected two comma-separated numbers, got {spec!r}") from None
    if len(parts) != 2:
        raise UsageError(f"--{name}: expected two comma-separated numbers, got {spec!r}")
    return tuple(parts)


def _parse_sizes(spec: str, name: str) -> tuple:
    try:
        sizes = tuple(int(p) for p in str(spec).split(",") if p.strip())
    except ValueError:
        raise UsageError(f"--{name}: expected comma-separated integers, got {spec!r}") from None
    if any(size < 1 for size in sizes):
        raise ValueError(f"--{name}: sizes must be >= 1, got {spec!r}")
    return sizes


def _count(v: dict, name: str):
    value = v[name.replace("-", "_")]
    if value is not None and value < 0:
        raise ValueError(f"--{name} must be >= 0, got {value}")
    return value


def _load_embeddings_for(values: dict, dataset_path: str, needed: bool):
    path = values.get("embeddings")
    if path is None:
        candidate = _sibling(dataset_path, "emb", "jsonl")
        if os.path.exists(candidate):
            path = candidate
        elif needed:
            raise UsageError(
                "language modality requires --embeddings "
                f"(no table found at the default {candidate})"
            )
        else:
            return None
    return read_embeddings(path)


# ---------------------------------------------------------------------------
# handlers (each returns the list of artifact paths it wrote)
# ---------------------------------------------------------------------------

def _cmd_synth(v: dict) -> tuple:
    config = SynthConfig(
        num_videos=v["videos"], num_genres=v["genres"], d_v=v["d_v"], d_a=v["d_a"],
        d_l=v["d_l"], shots_per_video=v["shots"], frames_per_shot=v["frames"],
        noise_sigma_v=v["noise_v"], noise_sigma_a=v["noise_a"], noise_sigma_l=v["noise_l"],
        vocab_per_genre=v["vocab_per_genre"], num_fillers=_count(v, "fillers"),
        with_pixel_stats=v["pixel_stats"],
    )
    dataset, table, truth = synth_dataset(config, seed=v["seed"])
    out = v["out"]
    emb_path = _sibling(out, "emb", "jsonl")
    truth_path = _sibling(out, "truth", "json")
    write_dataset(dataset, out)
    write_embeddings(table, emb_path)
    truth.save(truth_path)
    print(f"wrote {len(dataset.records)} records -> {out}")
    return out, [out, emb_path, truth_path]


def _write_history(out: str, history, score: str, trained: str) -> str:
    """Write the per-epoch ``history`` to ``<out>.history.csv`` and print its
    best ``score`` after ``trained``, which names the model and the score."""
    path = f"{out}.history.csv"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"epoch,train_loss,{score}\n")
        for row in history:
            fh.write(f"{row['epoch']},{row['train_loss']!r},{row[score]!r}\n")
    if history:
        best = max(history, key=lambda r: r[score])
        print(f"trained {trained} {best[score]:.4f} (epoch {best['epoch']})")
    return path


def _cmd_train(v: dict) -> tuple:
    mods = _parse_modalities(v["modalities"])
    config = fusion.TrainConfig(
        strategy=v["fusion"], modalities=mods, d_h=v["d_h"], batch_size=v["batch"],
        epochs=v["epochs"], max_lr=v["max_lr"], seed=v["seed"],
        shots_per_video=v["shots"], frames_per_shot=v["frames"],
        keywords_k=v["keywords_k"], resample_each_epoch=not v["no_resample"],
        optimizer=v["optimizer"], dropout=v["dropout"],
    )
    config.validate()
    dataset = read_dataset(v["data"])
    table = _load_embeddings_for(v, v["data"], needed="language" in mods)
    model, history = fusion.train(dataset, config, table)
    out = v["out"]
    fusion.save_model(model, out)
    hist_path = _write_history(out, history, "val_macro_map",
                               f"{config.strategy} fusion: best val macro-mAP")
    return out, [out, hist_path]


def _check_model_dims(model: fusion.GenreModel, dataset) -> None:
    dims = {"visual": dataset.d_v, "audio": dataset.d_a, "language": dataset.d_l}
    for m in model.modalities:
        if model.input_dims[m] != dims[m]:
            raise ValueError(
                f"dimension mismatch: model expects {m} dim {model.input_dims[m]}, "
                f"dataset provides {dims[m]}"
            )
    if list(model.taxonomy.names) != list(dataset.taxonomy.names):
        raise ValueError("model and dataset taxonomies differ")


def _cmd_eval(v: dict) -> tuple:
    dataset = read_dataset(v["data"])
    model = fusion.load_model(v["model"])
    _check_model_dims(model, dataset)
    table = _load_embeddings_for(v, v["data"], needed="language" in model.modalities)
    records = dataset.split(v["split"])
    if not records:
        raise ValueError(f"split {v['split']!r} is empty")
    preds = fusion.infer_dataset(model, records, table, num_shots=v["shots"],
                                 frames_per_shot=v["frames"], keywords_k=v["keywords_k"])
    report = metrics.genre_report(preds, records, dataset.taxonomy,
                                  threshold=v["threshold"], micro_map_mode=v["micro_map"])
    prefix = v["out_prefix"]
    paths = [f"{prefix}.predictions.jsonl", f"{prefix}.report.txt", f"{prefix}.report.csv"]
    metrics.write_predictions(preds, paths[0])
    metrics.write_report_text(report, paths[1])
    metrics.write_report_csv(report, paths[2])
    print(metrics.format_report(report), end="")
    return prefix, paths


def _cmd_keywords(v: dict) -> tuple:
    dataset = read_dataset(v["data"])
    out = v["out"]
    with open(out, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["id", "rank", "keyword", "frequency"])
        for rec in dataset.records:
            counts = Counter(t.text for t in rec.transcript if t.pos in textlab.KEYWORD_POS)
            for rank, word in enumerate(textlab.extract_keywords(rec.transcript, k=v["k"]), 1):
                writer.writerow([rec.id, rank, word, counts[word]])
    return out, [out]


def _cmd_tfidf(v: dict) -> tuple:
    top_n, max_genres, limit = (_count(v, name) for name in ("top-n", "max-genres", "limit"))
    dataset = read_dataset(v["data"])
    tables = textlab.build_genre_tables(dataset.records, dataset.taxonomy,
                                        eligible_only=not v["all_pos"])
    raw, filtered = textlab.filtered_genre_rankings(tables, top_n=top_n, max_genres=max_genres)
    prefix = v["out_prefix"]
    paths = [f"{prefix}.ranked.csv", f"{prefix}.filtered.csv"]
    textlab.write_ranked_csv(raw, paths[0], limit=limit)
    textlab.write_ranked_csv(filtered, paths[1], limit=limit)
    return prefix, paths


def _cmd_slide(v: dict) -> tuple:
    dataset = read_dataset(v["data"])
    model = fusion.load_model(v["model"])
    _check_model_dims(model, dataset)
    table = _load_embeddings_for(v, v["data"], needed="language" in model.modalities)
    if v["id"] is None:
        if not dataset.records:
            raise ValueError("dataset has no records")
        record = dataset.records[0]
    else:
        matches = [r for r in dataset.records if r.id == v["id"]]
        if not matches:
            raise ValueError(f"record id {v['id']!r} not found")
        record = matches[0]
    labeling = analysis.sliding_window(record, model, table, window=v["window"],
                                       stride=v["stride"], keywords_k=v["keywords_k"])
    out = v["out"]
    analysis.write_labeling_csv(labeling, out)
    paths = [out]
    if v["genre"] is not None:
        top = analysis.retrieve_shots(labeling, v["genre"], v["top_k"])
        top_path = f"{out}.top.csv"
        with open(top_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("rank,start,end,score\n")
            j = labeling.taxonomy.index(v["genre"])
            for rank, w in enumerate(top, 1):
                fh.write(f"{rank},{w.start},{w.end},{float(w.scores[j])!r}\n")
        paths.append(top_path)
    return out, paths


def _cmd_pixstats(v: dict) -> tuple:
    dataset = read_dataset(v["data"])
    profiles = analysis.genre_profiles(dataset)
    if all(p.num_videos == 0 for p in profiles):
        raise ValueError("no records carry pixel statistics")
    out = v["out"]
    analysis.write_profiles_csv(profiles, out)
    return out, [out]


def _boundary_samples(records, none_message: str) -> tuple:
    """The ``(x, y)`` boundary samples of every annotated record with at least
    one window, in record order; raises ``none_message`` if there are none."""
    pairs = [sceneboundary.samples_from_record(rec) for rec in records
             if rec.boundary_flags is not None and len(rec.shots) >= sceneboundary.WINDOW]
    if not pairs:
        raise ValueError(none_message)
    return tuple(map(np.concatenate, zip(*pairs)))


def _cmd_boundary_train(v: dict) -> tuple:
    hidden_dims = _parse_sizes(v["hidden"], "hidden")
    config = sceneboundary.BoundaryTrainConfig(
        class_weights=_parse_pair(v["weights"], "weights"),
        batch_size=v["batch"], epochs=v["epochs"], max_lr=v["max_lr"],
        seed=v["seed"], val_frac=v["val_frac"],
        hidden_dims=hidden_dims,
    )
    config.validate()
    dataset = read_dataset(v["data"])
    x, y = _boundary_samples(dataset.split("train"),
                             "no annotated records (boundary_flags) in split 'train'")
    model, history = sceneboundary.train_boundary(x, y, config)
    out = v["out"]
    sceneboundary.save_boundary_model(model, out)
    hist_path = _write_history(out, history, "val_ap", "boundary model: best val AP")
    return out, [out, hist_path]


def _cmd_boundary_eval(v: dict) -> tuple:
    dataset = read_dataset(v["data"])
    model = sceneboundary.load_boundary_model(v["model"])
    if model.feature_dim != dataset.d_v:
        raise ValueError(
            f"dimension mismatch: model expects shot dim {model.feature_dim}, "
            f"dataset provides {dataset.d_v}"
        )
    records = dataset.records if v["split"] is None else dataset.split(v["split"])
    x, y = _boundary_samples(records, "no annotated records to evaluate")
    result = sceneboundary.eval_boundary(model, x, y)
    out = v["out"]
    with open(out, "w", encoding="utf-8", newline="\n") as fh:
        json.dump({k: result[k] for k in sorted(result)}, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"boundary eval: ap={result['ap']:.4f} recall@0.5={result['recall_at_05']:.4f} "
          f"({result['positives']} positives, {len(y)} samples)")
    return out, [out]


def _cmd_report(v: dict) -> tuple:
    dataset = read_dataset(v["data"])
    preds = metrics.read_predictions(v["predictions"])
    by_id = {r.id: r for r in dataset.records}
    missing = [i for i in preds.ids if i not in by_id]
    if missing:
        raise ValueError(f"prediction ids missing from dataset: {missing[:3]}")
    truth = {i: by_id[i].genres for i in preds.ids}
    report = metrics.genre_report(preds, truth, threshold=v["threshold"],
                                  micro_map_mode=v["micro_map"])
    prefix = v["out_prefix"]
    paths = [f"{prefix}.report.txt", f"{prefix}.report.csv"]
    metrics.write_report_text(report, paths[0])
    metrics.write_report_csv(report, paths[1])
    print(metrics.format_report(report), end="")
    return prefix, paths


_HANDLERS = {
    "synth": _cmd_synth,
    "train": _cmd_train,
    "eval": _cmd_eval,
    "keywords": _cmd_keywords,
    "tfidf": _cmd_tfidf,
    "slide": _cmd_slide,
    "pixstats": _cmd_pixstats,
    "boundary-train": _cmd_boundary_train,
    "boundary-eval": _cmd_boundary_eval,
    "report": _cmd_report,
}


def run(argv) -> int:
    parser = _build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        values = _effective_options(ns.command, ns, ns.config)
        _validate_paths(ns.command, values)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return USAGE_EXIT
    try:
        primary, artifacts = _HANDLERS[ns.command](values)
        manifest = _write_manifest(primary, ns.command, values, artifacts)
        print(f"manifest: {manifest}")
        return 0
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return USAGE_EXIT
    except (ValueError, DatasetFormatError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return RUNTIME_EXIT


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
