"""Multi-label ranking/threshold metrics: macro/micro recall@0.5,
precision@0.5 and mAP, plus the boundary-detection report (AP, Recall@0.5).

Average precision is non-interpolated: rank by descending score with ties
broken by ascending original index, then average the precision at each
positive rank. Genres with zero positives score 0.0 and are flagged via
support=0.
"""

import csv
import json
from dataclasses import dataclass

import numpy as np

from .featurestore import DatasetFormatError, json_line

__all__ = [
    "MetricsSummary",
    "GenreRow",
    "MetricsReport",
    "PredictionSet",
    "average_precision",
    "genre_report",
    "boundary_report",
    "write_predictions",
    "read_predictions",
    "write_report_text",
    "write_report_csv",
]


def average_precision(scores, labels) -> float:
    """Non-interpolated AP; ties broken by ascending original index.

    Zero positive labels is defined as 0.0 (callers flag it).
    """
    s = np.asarray(scores, dtype=np.float64)
    y = np.asarray(labels)
    if s.shape != y.shape or s.ndim != 1:
        raise ValueError(f"scores shape {s.shape} != labels shape {y.shape}")
    if not np.all((y == 0) | (y == 1)):
        raise ValueError("labels must be 0/1")
    positives = int(y.sum())
    if positives == 0:
        return 0.0
    order = np.lexsort((np.arange(s.size), -s))
    hits = y[order].astype(bool)
    ranks = np.arange(1, s.size + 1, dtype=np.float64)
    precision_at_hits = np.cumsum(hits)[hits] / ranks[hits]
    return float(precision_at_hits.sum() / positives)


@dataclass
class MetricsSummary:
    recall_at_05: float
    precision_at_05: float
    map: float


@dataclass
class GenreRow:
    genre: str
    recall: float
    precision: float
    ap: float
    support: int


@dataclass
class MetricsReport:
    macro: MetricsSummary
    micro: MetricsSummary
    per_genre: list
    threshold: float = 0.5
    micro_map_mode: str = "pooled"
    num_records: int = 0

    @property
    def zero_support_genres(self) -> list:
        return [row.genre for row in self.per_genre if row.support == 0]


@dataclass
class PredictionSet:
    """Per-record probability vectors, aligned with a genre taxonomy order."""

    ids: list
    scores: np.ndarray  # (N, G) float32
    genres: list        # taxonomy names, length G

    def __post_init__(self):
        self.scores = np.asarray(self.scores, dtype=np.float32)
        if self.scores.ndim != 2 or self.scores.shape != (len(self.ids), len(self.genres)):
            raise ValueError(
                f"scores shape {self.scores.shape} != ({len(self.ids)}, {len(self.genres)})"
            )


def _normalize_truth(truth) -> dict:
    if isinstance(truth, dict):
        return {str(k): set(v) for k, v in truth.items()}
    return {r.id: set(r.genres) for r in truth}


def genre_report(predictions: PredictionSet, truth, taxonomy=None, threshold: float = 0.5,
                 micro_map_mode: str = "pooled") -> MetricsReport:
    """Build the full macro/micro report for a prediction set.

    ``truth`` is a mapping id -> genre collection, or an iterable of records.
    A prediction counts as positive when score >= threshold (inclusive).
    ``micro_map_mode``: "pooled" ranks all (record, genre) pairs together;
    "weighted" is the support-weighted mean of per-genre APs.
    """
    if micro_map_mode not in ("pooled", "weighted"):
        raise ValueError(f"unknown micro_map_mode {micro_map_mode!r}")
    truth_map = _normalize_truth(truth)
    names = list(taxonomy.names) if taxonomy is not None else list(predictions.genres)
    if names != list(predictions.genres):
        raise ValueError("prediction set genre order does not match taxonomy")
    if len(predictions.ids) == 0:
        raise ValueError("empty prediction set")
    missing = [i for i in predictions.ids if i not in truth_map]
    predicted_ids = set(predictions.ids)
    extra = [i for i in truth_map if i not in predicted_ids]
    if missing or extra:
        raise ValueError(
            f"prediction/truth id mismatch (missing truth for {missing[:3]}, "
            f"unmatched truth ids {extra[:3]})"
        )

    scores = predictions.scores.astype(np.float64)
    n, g = scores.shape
    labels = np.zeros((n, g), dtype=np.int64)
    column = {name: j for j, name in enumerate(names)}
    for i, rid in enumerate(predictions.ids):
        for genre in truth_map[rid]:
            if genre not in column:
                raise ValueError(f"record {rid}: truth genre {genre!r} is not in the taxonomy")
            labels[i, column[genre]] = 1

    predicted = scores >= threshold
    rows = []
    tp_total = fp_total = fn_total = 0
    for j, genre in enumerate(names):
        y = labels[:, j]
        p = predicted[:, j]
        tp = int(np.sum(p & (y == 1)))
        fp = int(np.sum(p & (y == 0)))
        fn = int(np.sum(~p & (y == 1)))
        support = int(y.sum())
        recall = tp / (tp + fn) if (tp + fn) > 0 else 0.0
        precision = tp / (tp + fp) if (tp + fp) > 0 else 0.0
        ap = average_precision(scores[:, j], y) if support > 0 else 0.0
        rows.append(GenreRow(genre=genre, recall=recall, precision=precision,
                             ap=ap, support=support))
        tp_total += tp
        fp_total += fp
        fn_total += fn

    macro = MetricsSummary(
        recall_at_05=float(np.mean([r.recall for r in rows])),
        precision_at_05=float(np.mean([r.precision for r in rows])),
        map=float(np.mean([r.ap for r in rows])),
    )
    micro_recall = tp_total / (tp_total + fn_total) if (tp_total + fn_total) > 0 else 0.0
    micro_precision = tp_total / (tp_total + fp_total) if (tp_total + fp_total) > 0 else 0.0
    if micro_map_mode == "pooled":
        micro_map = average_precision(scores.ravel(), labels.ravel())
    else:
        supports = np.array([r.support for r in rows], dtype=np.float64)
        aps = np.array([r.ap for r in rows])
        micro_map = float((supports * aps).sum() / supports.sum()) if supports.sum() > 0 else 0.0
    micro = MetricsSummary(recall_at_05=micro_recall, precision_at_05=micro_precision,
                           map=micro_map)
    return MetricsReport(macro=macro, micro=micro, per_genre=rows, threshold=threshold,
                         micro_map_mode=micro_map_mode, num_records=n)


def boundary_report(scores, labels) -> dict:
    """AP and Recall@0.5 for boundary probabilities.

    Zero positives yields ap=0.0 with ``flagged_zero_positives`` set.
    """
    s = np.asarray(scores, dtype=np.float64)
    y = np.asarray(labels)
    positives = int(y.sum())
    tp = int(np.sum((s >= 0.5) & (y == 1)))
    return {
        "ap": average_precision(s, y),
        "recall_at_05": tp / positives if positives > 0 else 0.0,
        "positives": positives,
        "flagged_zero_positives": positives == 0,
    }


# ---------------------------------------------------------------------------
# files
# ---------------------------------------------------------------------------

def write_predictions(predictions: PredictionSet, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(json_line({"format_version": 1, "taxonomy": list(predictions.genres)}) + "\n")
        for rid, row in zip(predictions.ids, predictions.scores):
            fh.write(json_line({"id": rid, "scores": row}) + "\n")


def read_predictions(path) -> PredictionSet:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            header = json.loads(fh.readline())
            genres = list(header["taxonomy"])
        except (json.JSONDecodeError, KeyError, TypeError) as exc:
            raise DatasetFormatError(f"line 1: malformed prediction header ({exc})") from exc
        ids, rows = [], []
        seen = set()
        for lineno, line in enumerate(fh, start=2):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
                rid = obj["id"]
                row = np.asarray(obj["scores"], dtype=np.float32)
                duplicate = rid in seen
            except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
                raise DatasetFormatError(f"line {lineno}: malformed prediction ({exc})") from exc
            if duplicate:
                raise DatasetFormatError(f"line {lineno}: duplicate prediction id {rid!r}")
            if row.shape != (len(genres),):
                raise DatasetFormatError(
                    f"line {lineno}: scores have shape {row.shape}, but the header"
                    f" taxonomy has {len(genres)} genres"
                )
            seen.add(rid)
            ids.append(rid)
            rows.append(row)
    scores = np.stack(rows) if rows else np.zeros((0, len(genres)), dtype=np.float32)
    return PredictionSet(ids=ids, scores=scores, genres=genres)


def format_report(report: MetricsReport) -> str:
    lines = [
        f"multi-label genre report ({report.num_records} records, "
        f"{len(report.per_genre)} genres, positive rule: score >= {report.threshold})",
        (f"macro  recall@0.5={report.macro.recall_at_05:.6f}  "
         f"precision@0.5={report.macro.precision_at_05:.6f}  mAP={report.macro.map:.6f}"),
        (f"micro  recall@0.5={report.micro.recall_at_05:.6f}  "
         f"precision@0.5={report.micro.precision_at_05:.6f}  "
         f"mAP={report.micro.map:.6f}  (mAP mode: {report.micro_map_mode})"),
    ]
    if report.zero_support_genres:
        lines.append("zero-support genres (scored 0, flagged): "
                     + ", ".join(report.zero_support_genres))
    lines.append("per-genre:")
    width = max(len(r.genre) for r in report.per_genre)
    for r in report.per_genre:
        lines.append(f"  {r.genre:<{width}}  recall={r.recall:.6f}  "
                     f"precision={r.precision:.6f}  ap={r.ap:.6f}  support={r.support}")
    return "\n".join(lines) + "\n"


def write_report_text(report: MetricsReport, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(format_report(report))


def write_report_csv(report: MetricsReport, path) -> None:
    """Flat per-genre rows for plotting."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["genre", "recall_at_05", "precision_at_05", "ap", "support"])
        for r in report.per_genre:
            writer.writerow([r.genre, repr(r.recall), repr(r.precision), repr(r.ap), r.support])
