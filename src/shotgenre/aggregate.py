"""Shot and video feature aggregation (mean pooling) and the shot/frame
sampling policy.

One averaging rule serves every mean (frames into a shot, shots into a video
or a window): each coordinate's sorted values are summed left to right in
64-bit, so a mean is bit-exactly invariant to input order; results are 32-bit.

Sampling: a record with at most ``num_shots`` shots keeps all of them;
otherwise "seeded-random" keeps the ``num_shots`` shots with the lowest
uniform keys (in temporal order) and "deterministic-uniform" takes evenly
spaced shots. Frames are picked by even spacing within a shot (duplicated
when a shot is shorter than ``frames_per_shot``), or all frames are kept.

``pack_records`` pools each shot of a record list once through
``grouped_mean``: fusion (evenly spaced frames, then ``pooled_visual``),
sliding-window labeling and scene-boundary samples (all frames) call it.
``sample_shots`` + ``shot_feature`` + ``video_feature`` pool one record and
are only the reference that tests compare the batched path to, bit for bit.
"""

from dataclasses import dataclass

import numpy as np

from .featurestore import Shot, VideoRecord

__all__ = ["shot_feature", "video_feature", "sample_shots", "even_indices",
           "grouped_mean", "pack_records", "pooled_visual"]

MODES = ("seeded-random", "deterministic-uniform")

# Records pooled per step of pack_records: bounds its temporaries to the
# frames of _BLOCK_RECORDS records.
_BLOCK_RECORDS = 128


def _ordered_mean(rows: np.ndarray, axis: int = 0) -> np.ndarray:
    # Sort each column, then sum left to right (accumulate is sequential,
    # where sum() may go pairwise): permutations of the input rows then
    # reduce in the identical order, so the result is exactly permutation
    # invariant. Widening keeps the order, so the float32 rows sort first.
    acc = np.add.accumulate(np.sort(rows, axis=axis).astype(np.float64), axis=axis)
    return (np.take(acc, -1, axis=axis) / rows.shape[axis]).astype(np.float32)


def shot_feature(shot) -> np.ndarray:
    """Elementwise mean of a shot's frame features -> (d_v,) float32."""
    frames = shot.frames if isinstance(shot, Shot) else np.asarray(shot, dtype=np.float32)
    if frames.ndim != 2 or frames.shape[0] == 0:
        raise ValueError("shot_feature requires a non-empty (frames, d_v) matrix")
    return _ordered_mean(frames)


def video_feature(shot_features) -> np.ndarray:
    """Elementwise mean of shot features -> (d_v,) float32."""
    rows = np.asarray(shot_features, dtype=np.float32)
    if rows.ndim == 1:
        rows = rows.reshape(1, -1)
    if rows.shape[0] == 0:
        raise ValueError("video_feature requires at least one shot feature")
    return _ordered_mean(rows)


def _even(counts: np.ndarray, wanted: int) -> np.ndarray:
    # (len(counts), wanted) evenly spaced indices into each of counts' items
    return np.arange(wanted) * (counts[:, None] - 1) // max(wanted - 1, 1)


def even_indices(available: int, wanted: int) -> list:
    """Evenly spaced indices ``floor(j*(available-1)/(wanted-1))``; duplicates
    appear when fewer than ``wanted`` items are available."""
    if available < 1 or wanted < 1:
        raise ValueError("even_indices requires positive counts")
    return _even(np.array([available]), wanted)[0].tolist()


def _shot_indices(counts: np.ndarray, num_shots: int, mode: str, rng) -> np.ndarray:
    """Indices of the shots each record contributes, in temporal order: row
    ``i`` of the ``(N, min(max(counts), num_shots))`` result holds record
    ``i``'s picks in its first ``min(counts[i], num_shots)`` columns.
    "seeded-random" draws ``keys`` of shape ``(N, max(counts))`` from ``rng``
    and keeps the lowest of ``keys[i, :counts[i]]``, ties to the earlier."""
    if mode not in MODES:
        raise ValueError(f"unknown sampling mode {mode!r}")
    width = min(int(counts.max()), num_shots)
    if mode == "deterministic-uniform":
        return np.where(counts[:, None] > num_shots, _even(counts, width), np.arange(width))
    if rng is None:
        raise ValueError("seeded-random sampling needs a generator")
    keys = rng.random((len(counts), int(counts.max())))
    # padding keys sort last, so a short record keeps all of its shots
    keys[np.arange(keys.shape[1]) >= counts[:, None]] = np.inf
    return np.sort(np.argsort(keys, axis=1, kind="stable")[:, :width], axis=1)


def sample_shots(record: VideoRecord, num_shots: int = 8, frames_per_shot: int = 3,
                 mode: str = "deterministic-uniform", seed: int = 0) -> list:
    """Subsample a record to ``num_shots`` shots of ``frames_per_shot`` frames.

    mode "seeded-random": the shots with the lowest keys in
    ``default_rng(seed).random(n)``, in temporal order; "deterministic-uniform":
    evenly spaced shots. Records with fewer shots return all of them. Frames
    are always picked by even spacing within the shot.
    """
    n = len(record.shots)
    if n == 0:
        raise ValueError(f"record {record.id}: cannot sample shots from an empty record")
    out = []
    for i in _shot_indices(np.array([n]), num_shots, mode, np.random.default_rng(seed))[0].tolist():
        shot = record.shots[i]
        frame_idx = even_indices(shot.num_frames, frames_per_shot)
        stats = None if shot.pixel_stats is None else shot.pixel_stats[frame_idx]
        out.append(Shot(shot.frames[frame_idx], stats))
    return out


@dataclass(frozen=True)
class PackedShots:
    """The pooled shots of a record list: record ``i`` owns rows
    ``shot_start[i]:shot_start[i + 1]`` of ``shot_features``."""

    shot_features: np.ndarray  # (total shots, d_v) float32
    shot_start: np.ndarray     # (records + 1,) int64


def grouped_mean(values: np.ndarray, index: np.ndarray, counts) -> np.ndarray:
    """Row ``i`` is the mean of ``values[index[i, :counts[i]]]``, as float32,
    taken with one gather and one mean per distinct count."""
    out = np.empty((len(counts), values.shape[1]), dtype=np.float32)
    for k in np.unique(counts).tolist():
        rows = np.flatnonzero(counts == k)
        out[rows] = _ordered_mean(values[index[rows, :k]], axis=1)
    return out


def pack_records(records, frames_per_shot: int = 3) -> PackedShots:
    """Pool every shot of ``records`` once, from ``frames_per_shot`` evenly
    spaced frames or, when it is None, from all of its frames. Every record
    needs at least one shot and every shot at least one frame."""
    if frames_per_shot is not None and frames_per_shot < 1:
        raise ValueError("frames_per_shot must be positive")
    shots, shot_start = [], [0]
    for rec in records:
        if not rec.shots:
            raise ValueError(f"record {rec.id}: cannot sample shots from an empty record")
        if any(shot.num_frames == 0 for shot in rec.shots):
            raise ValueError(f"record {rec.id}: cannot sample frames from an empty shot")
        shots.extend(rec.shots)
        shot_start.append(len(shots))
    pooled = []
    for lo in range(0, len(records), _BLOCK_RECORDS):
        block = shots[shot_start[lo]:shot_start[min(lo + _BLOCK_RECORDS, len(records))]]
        counts = np.array([shot.num_frames for shot in block], dtype=np.int64)
        if frames_per_shot is None:
            picks, kept = np.arange(counts.max()), counts
        else:
            picks, kept = _even(counts, frames_per_shot), np.full_like(counts, frames_per_shot)
        frame_ids = (np.cumsum(counts) - counts)[:, None] + picks
        pooled.append(grouped_mean(np.concatenate([shot.frames for shot in block]), frame_ids, kept))
    return PackedShots(shot_features=np.concatenate(pooled),
                       shot_start=np.array(shot_start, dtype=np.int64))


def pooled_visual(packed: PackedShots, num_shots: int = 8,
                  mode: str = "deterministic-uniform", rng=None) -> np.ndarray:
    """Pooled visual features of every packed record -> (N, d_v) float32.

    "seeded-random" draws one ``(N, max shots)`` matrix of uniform keys from
    ``rng``; record ``i`` keeps the shots with the lowest keys in row ``i``.
    Row ``i`` equals ``video_feature([shot_feature(s) for s in
    sample_shots(record_i, num_shots, frames_per_shot, mode, seed)])`` bit
    for bit when row ``i`` starts with ``default_rng(seed).random(n)``.
    """
    if num_shots < 1:
        raise ValueError("num_shots must be positive")
    counts = np.diff(packed.shot_start)
    picks = packed.shot_start[:-1, None] + _shot_indices(counts, num_shots, mode, rng)
    return grouped_mean(packed.shot_features, picks, np.minimum(counts, num_shots))
