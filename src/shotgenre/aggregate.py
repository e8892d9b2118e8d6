"""Shot and video feature aggregation (mean pooling) and the shot/frame
sampling policy.

Means are accumulated in 64-bit after sorting each coordinate's values, so
they are bit-exactly invariant to input order; results are emitted as
32-bit.

Sampling: a record with at most ``num_shots`` shots keeps all of them;
otherwise "seeded-random" draws ``num_shots`` distinct shots from
``default_rng(seed)`` (kept in temporal order) and "deterministic-uniform"
takes evenly spaced shots. Frames are always picked by even spacing within
a shot, duplicated when a shot is shorter than ``frames_per_shot``.

``sample_shots`` + ``shot_feature`` + ``video_feature`` pool one record and
are the reference. ``pooled_visual`` pools a whole record list, bit for bit
equal to the reference, over the layout ``pack_records`` builds once: every
frame in one contiguous float32 array, with per-shot frame offsets and counts
and per-record shot offsets. It groups records by picked-shot count and
gathers them in blocks of ``_BLOCK_RECORDS``.
"""

from dataclasses import dataclass

import numpy as np

from .featurestore import Shot, VideoRecord

__all__ = ["shot_feature", "video_feature", "sample_shots", "even_indices",
           "pack_records", "pooled_visual"]

MODES = ("seeded-random", "deterministic-uniform")

# Records gathered per batched step: bounds pooled_visual's temporaries to
# _BLOCK_RECORDS * num_shots * frames_per_shot frame rows.
_BLOCK_RECORDS = 128


def _ordered_mean(rows: np.ndarray, axis: int = 0) -> np.ndarray:
    # Sort each column before summing: permutations of the input rows then
    # reduce in the identical order, so the result is exactly permutation
    # invariant (not just up to rounding). Widening float32 to float64 keeps
    # the order, so the float32 rows are sorted first.
    acc = np.sort(rows, axis=axis).astype(np.float64)
    return (acc.sum(axis=axis) / rows.shape[axis]).astype(np.float32)


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


def even_indices(available: int, wanted: int) -> list:
    """Evenly spaced indices ``floor(j*(available-1)/(wanted-1))``; duplicates
    appear when fewer than ``wanted`` items are available."""
    if available < 1 or wanted < 1:
        raise ValueError("even_indices requires positive counts")
    if wanted == 1:
        return [0]
    return [(j * (available - 1)) // (wanted - 1) for j in range(wanted)]


def _shot_indices(n: int, num_shots: int, mode: str, seed: int) -> list:
    """Indices of the shots a record of ``n`` shots contributes."""
    if mode not in MODES:
        raise ValueError(f"unknown sampling mode {mode!r}")
    if n <= num_shots:
        return list(range(n))
    if mode == "seeded-random":
        rng = np.random.default_rng(seed)
        return sorted(rng.choice(n, size=num_shots, replace=False).tolist())
    return even_indices(n, num_shots)


def sample_shots(record: VideoRecord, num_shots: int = 8, frames_per_shot: int = 3,
                 mode: str = "deterministic-uniform", seed: int = 0) -> list:
    """Subsample a record to ``num_shots`` shots of ``frames_per_shot`` frames.

    mode "seeded-random": shots drawn without replacement from ``seed``
    (returned in temporal order); "deterministic-uniform": evenly spaced shot
    indices. Records with fewer shots return all of them. Frames are always
    picked by even spacing within the shot.
    """
    n = len(record.shots)
    if n == 0:
        raise ValueError(f"record {record.id}: cannot sample shots from an empty record")
    out = []
    for i in _shot_indices(n, num_shots, mode, seed):
        shot = record.shots[i]
        frame_idx = even_indices(shot.num_frames, frames_per_shot)
        stats = None
        if shot.pixel_stats is not None:
            stats = [shot.pixel_stats[j] for j in frame_idx]
        out.append(Shot(shot.frames[frame_idx], stats))
    return out


@dataclass(frozen=True)
class PackedShots:
    """The frames of a record list in one CSR-style ragged layout: record
    ``i`` owns shots ``shot_start[i]:shot_start[i + 1]``, and shot ``s`` owns
    rows ``frame_start[s]:frame_start[s] + frame_count[s]`` of ``frames``."""

    frames: np.ndarray       # (total frames, d_v) float32
    frame_start: np.ndarray  # (total shots,) int64
    frame_count: np.ndarray  # (total shots,) int64
    shot_start: np.ndarray   # (records + 1,) int64


def pack_records(records) -> PackedShots:
    """Pack the shots of ``records`` for :func:`pooled_visual`; every record
    needs at least one shot and every shot at least one frame."""
    shots, shot_start = [], [0]
    for rec in records:
        if not rec.shots:
            raise ValueError(f"record {rec.id}: cannot sample shots from an empty record")
        if any(shot.num_frames == 0 for shot in rec.shots):
            raise ValueError(f"record {rec.id}: cannot sample frames from an empty shot")
        shots.extend(rec.shots)
        shot_start.append(len(shots))
    frame_count = np.array([shot.num_frames for shot in shots], dtype=np.int64)
    return PackedShots(frames=np.concatenate([shot.frames for shot in shots]),
                       frame_start=np.cumsum(frame_count) - frame_count,
                       frame_count=frame_count,
                       shot_start=np.array(shot_start, dtype=np.int64))


def pooled_visual(packed: PackedShots, num_shots: int = 8, frames_per_shot: int = 3,
                  mode: str = "deterministic-uniform", seeds=None) -> np.ndarray:
    """Pooled visual features of every packed record -> (N, d_v) float32.

    Row ``i`` equals ``video_feature([shot_feature(s) for s in
    sample_shots(record_i, num_shots, frames_per_shot, mode, seeds[i])])``
    bit for bit; ``seeds`` (one per record) defaults to all zeros.
    """
    if num_shots < 1 or frames_per_shot < 1:
        raise ValueError("num_shots and frames_per_shot must be positive")
    starts = packed.shot_start[:-1].tolist()
    seeds = [0] * len(starts) if seeds is None else [int(s) for s in seeds]
    if len(seeds) != len(starts):
        raise ValueError(f"{len(seeds)} seeds for {len(starts)} records")
    counts = np.diff(packed.shot_start)
    picked = [[start + j for j in _shot_indices(n, num_shots, mode, seed)]
              for start, n, seed in zip(starts, counts.tolist(), seeds)]
    # even_indices for every picked shot at once
    steps = np.arange(frames_per_shot, dtype=np.int64)
    divisor = max(frames_per_shot - 1, 1)
    picked_counts = np.minimum(counts, num_shots)
    out = np.empty((len(picked), packed.frames.shape[1]), dtype=np.float32)
    for k in np.unique(picked_counts).tolist():
        group = np.flatnonzero(picked_counts == k)
        for lo in range(0, len(group), _BLOCK_RECORDS):
            rows = group[lo:lo + _BLOCK_RECORDS]
            shot_ids = np.array([picked[r] for r in rows], dtype=np.int64)         # (b, k)
            last = packed.frame_count[shot_ids][..., None] - 1
            frame_ids = packed.frame_start[shot_ids][..., None] + steps * last // divisor
            frames = packed.frames[frame_ids]                                      # (b, k, f, d)
            out[rows] = _ordered_mean(_ordered_mean(frames, axis=2), axis=1)
    return out
