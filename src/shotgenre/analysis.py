"""Long-video sliding-window genre labeling, per-genre shot retrieval, and
low-level pixel statistics (brightness, warm/cold color ratio) with
per-genre profiles.

Window rule: full windows start at multiples of the stride; if they do not
already cover the tail of the video, one trailing partial window is added
provided it holds at least window/2 shots. Brightness uses Rec. 709 luma;
warm hues are [0, 90) and [330, 360) degrees, cold hues [90, 330), and
pixels with saturation < 0.15 or value < 0.1 count as neutral.
"""

import csv
from dataclasses import dataclass

import numpy as np

from . import aggregate, fusion
from .featurestore import Dataset, GenreTaxonomy, PixelStats, VideoRecord

__all__ = [
    "WindowScore",
    "WindowLabeling",
    "GenreProfile",
    "window_starts",
    "sliding_window",
    "retrieve_shots",
    "pixel_stats",
    "genre_profiles",
    "write_labeling_csv",
    "write_profiles_csv",
]

SAT_NEUTRAL = 0.15
VAL_NEUTRAL = 0.1
LUMA_WEIGHTS = (0.2126, 0.7152, 0.0722)  # Rec. 709


@dataclass
class WindowScore:
    start: int   # first shot index (inclusive)
    end: int     # last shot index (exclusive)
    scores: np.ndarray  # (G,) float32


@dataclass
class WindowLabeling:
    windows: list
    taxonomy: GenreTaxonomy
    window: int
    stride: int


def window_starts(num_shots: int, window: int, stride: int) -> list:
    """(start, end) pairs: full windows at stride multiples, plus one trailing
    partial window of >= window/2 shots when the full ones leave a tail."""
    if num_shots < 1:
        raise ValueError("empty shot sequence")
    if window < 1 or stride < 1:
        raise ValueError("window and stride must be >= 1")
    spans = []
    start = 0
    while start + window <= num_shots:
        spans.append((start, start + window))
        start += stride
    covered = spans[-1][1] if spans else 0
    if covered < num_shots and (num_shots - start) * 2 >= window:
        spans.append((start, num_shots))
    return spans


def sliding_window(record: VideoRecord, model: fusion.GenreModel,
                   embedding_table=None, window: int = 8, stride: int = 4,
                   keywords_k: int = 20) -> WindowLabeling:
    """Label a long video window by window, in one batched :func:`fusion.predict`.

    The visual feature is each window's :func:`aggregate.grouped_mean` of the
    all-frame shot features. Audio and language have no per-window slices
    in the record format, so the record's global embedding / transcript is
    reused for every window when the model needs those modalities
    (visual-only models need nothing extra).
    """
    if len(record.shots) == 0:
        raise ValueError(f"record {record.id} has no shots")
    spans = window_starts(len(record.shots), window, stride)
    starts, ends = np.array(spans, dtype=np.int64).reshape(-1, 2).T
    inputs = {m: np.broadcast_to(feats, (len(spans), feats.shape[1]))
              for m, feats in fusion.static_features(
                  [record], model.modalities, keywords_k, embedding_table).items()}
    if "visual" in model.modalities:
        shots = aggregate.pack_records([record], None).shot_features
        inputs["visual"] = aggregate.grouped_mean(shots, starts[:, None] + np.arange(window),
                                                  ends - starts)
    scores = fusion.predict(model, inputs)
    return WindowLabeling(windows=[WindowScore(start=start, end=end, scores=row)
                                   for (start, end), row in zip(spans, scores)],
                          taxonomy=model.taxonomy, window=window, stride=stride)


def retrieve_shots(labeling: WindowLabeling, genre: str, top_k: int) -> list:
    """Windows ranked by the genre's score (desc; earlier window wins ties),
    clamped to the number of windows."""
    j = labeling.taxonomy.index(genre)
    order = sorted(range(len(labeling.windows)),
                   key=lambda i: (-float(labeling.windows[i].scores[j]), i))
    return [labeling.windows[i] for i in order[:max(top_k, 0)]]


# ---------------------------------------------------------------------------
# pixel statistics
# ---------------------------------------------------------------------------

def pixel_stats(frame: np.ndarray) -> PixelStats:
    """Brightness and warm/cold fractions of an (h, w, 3) uint8 RGB frame.

    warm_frac + cold_frac + neutral == 1 exactly (integer pixel counts).
    """
    arr = np.asarray(frame)
    if arr.ndim != 3 or arr.shape[2] != 3 or arr.shape[0] == 0 or arr.shape[1] == 0:
        raise ValueError(f"expected a non-empty (h, w, 3) frame, got shape {arr.shape}")
    rgb = arr.astype(np.float64) / 255.0
    r, g, b = rgb[..., 0], rgb[..., 1], rgb[..., 2]
    luma = LUMA_WEIGHTS[0] * r + LUMA_WEIGHTS[1] * g + LUMA_WEIGHTS[2] * b

    mx = rgb.max(axis=-1)
    mn = rgb.min(axis=-1)
    delta = mx - mn
    sat = np.where(mx > 0, delta / np.where(mx > 0, mx, 1.0), 0.0)
    # hue in degrees, [0, 360)
    hue = np.zeros_like(mx)
    nz = delta > 0
    r_max = nz & (mx == r)
    g_max = nz & (mx == g) & ~r_max
    b_max = nz & ~r_max & ~g_max
    hue[r_max] = (60.0 * ((g[r_max] - b[r_max]) / delta[r_max])) % 360.0
    hue[g_max] = 60.0 * ((b[g_max] - r[g_max]) / delta[g_max]) + 120.0
    hue[b_max] = 60.0 * ((r[b_max] - g[b_max]) / delta[b_max]) + 240.0

    neutral = (sat < SAT_NEUTRAL) | (mx < VAL_NEUTRAL)
    warm = ~neutral & ((hue < 90.0) | (hue >= 330.0))
    cold = ~neutral & ~warm
    total = arr.shape[0] * arr.shape[1]
    return PixelStats(
        mean_luma=float(luma.mean()),
        warm_frac=int(warm.sum()) / total,
        cold_frac=int(cold.sum()) / total,
    )


# ---------------------------------------------------------------------------
# per-genre profiles
# ---------------------------------------------------------------------------

@dataclass
class GenreProfile:
    genre: str
    num_videos: int
    brightness_mean: float = None
    brightness_ci: float = None   # 1.96 * stderr half-width; None when n < 2
    coldwarm_mean: float = None   # cold_frac / warm_frac (warm floored at 1e-6)
    coldwarm_ci: float = None
    flagged: bool = False         # n < 2: CI omitted


def _video_values(record: VideoRecord) -> tuple:
    stats = [ps for shot in record.shots if shot.pixel_stats for ps in shot.pixel_stats]
    if not stats:
        return None
    luma = float(np.mean([ps.mean_luma for ps in stats]))
    warm = float(np.mean([ps.warm_frac for ps in stats]))
    cold = float(np.mean([ps.cold_frac for ps in stats]))
    return luma, cold / max(warm, 1e-6)


def genre_profiles(dataset: Dataset) -> list:
    """Mean brightness and cold/warm ratio per genre with 95% CIs over videos.

    Videos without pixel statistics are skipped; genres with fewer than two
    such videos are flagged and get no CI.
    """
    per_genre = {g: [] for g in dataset.taxonomy.names}
    for rec in dataset.records:
        values = _video_values(rec)
        if values is None:
            continue
        for g in rec.genres:
            per_genre[g].append(values)
    profiles = []
    for g in dataset.taxonomy.names:
        vals = per_genre[g]
        n = len(vals)
        if n == 0:
            profiles.append(GenreProfile(genre=g, num_videos=0, flagged=True))
            continue
        luma = np.array([v[0] for v in vals])
        ratio = np.array([v[1] for v in vals])
        prof = GenreProfile(
            genre=g, num_videos=n,
            brightness_mean=float(luma.mean()),
            coldwarm_mean=float(ratio.mean()),
            flagged=n < 2,
        )
        if n >= 2:
            prof.brightness_ci = 1.96 * float(luma.std(ddof=1)) / np.sqrt(n)
            prof.coldwarm_ci = 1.96 * float(ratio.std(ddof=1)) / np.sqrt(n)
        profiles.append(prof)
    return profiles


# ---------------------------------------------------------------------------
# files
# ---------------------------------------------------------------------------

def write_labeling_csv(labeling: WindowLabeling, path) -> None:
    """(start, end, genre, score) rows, every window x every genre."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["start", "end", "genre", "score"])
        for w in labeling.windows:
            for j, genre in enumerate(labeling.taxonomy.names):
                writer.writerow([w.start, w.end, genre, repr(float(w.scores[j]))])


def write_profiles_csv(profiles, path) -> None:
    def cell(v):
        return "" if v is None else repr(float(v))

    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["genre", "num_videos", "brightness_mean", "brightness_ci",
                         "coldwarm_mean", "coldwarm_ci", "flagged"])
        for p in profiles:
            writer.writerow([p.genre, p.num_videos, cell(p.brightness_mean),
                             cell(p.brightness_ci), cell(p.coldwarm_mean),
                             cell(p.coldwarm_ci), int(p.flagged)])
