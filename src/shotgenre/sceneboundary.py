"""Scene boundary detection: sample construction from annotated shot
sequences, the fixed MLP classifier, class-weighted training, and
evaluation.

A sample is four consecutive shot features; the label says whether a scene
boundary sits between the middle two shots. Samples travel as one ``(x, y)``
pair: row i of the float32 matrix ``x`` is one sample's four shots
flattened, and ``y[i]`` is its int64 label. The classifier is an MLP
(4*d - 4096 - 1024 - 2 by default, hidden sizes configurable for toy runs)
whose two outputs are logits; :func:`nn.softmax` of them gives the class
probabilities. It is trained with weighted cross-entropy, boundary weighted
10:1 over non-boundary. The loop is :func:`nn.fit` and the parameters go
through :func:`nn.mlp_params` / :func:`nn.set_mlp_params`; this module
supplies the samples, the loss and the validation AP.
"""

import copy
from dataclasses import dataclass

import numpy as np

from . import aggregate, metrics, nn
from ._rng import spawn_rng
from .featurestore import VideoRecord, valid_flags

__all__ = [
    "BoundaryModel",
    "BoundaryTrainConfig",
    "build_samples",
    "samples_from_record",
    "make_boundary_model",
    "predict_boundary",
    "train_boundary",
    "eval_boundary",
    "grad_check_closure",
    "save_boundary_model",
    "load_boundary_model",
    "synth_boundary_sequences",
]

WINDOW = 4  # shots per sample; the label refers to the gap between shots 2 and 3


def build_samples(shot_features, boundary_flags) -> tuple:
    """``(x, y)`` with one sample per run of four consecutive shots.

    ``boundary_flags[j]`` marks a boundary between shots j and j+1 and must
    be the integer 0 or 1. Row i of the ``(n - 3, 4*d)`` float32 ``x`` is
    shots i..i+3 flattened; its int64 label ``y[i]`` is ``boundary_flags[i+1]``.
    """
    feats = np.asarray(shot_features, dtype=np.float32)
    flags = list(boundary_flags)
    if feats.ndim != 2 or feats.shape[0] < WINDOW:
        raise ValueError(f"need (n, d) shot features with n >= {WINDOW}, got {feats.shape}")
    n = feats.shape[0]
    if len(flags) != n - 1:
        raise ValueError(f"expected {n - 1} boundary flags, got {len(flags)}")
    if not valid_flags(flags):
        raise ValueError(f"boundary flags must be integers 0 or 1, got {flags!r}")
    count = n - WINDOW + 1
    x = np.concatenate([feats[k:k + count] for k in range(WINDOW)], axis=1)
    return x, np.array(flags[1:count + 1], dtype=np.int64)


def samples_from_record(record: VideoRecord) -> tuple:
    """:func:`build_samples` of an annotated record (one with ``boundary_flags``);
    shot features are the all-frame means of :func:`aggregate.pack_records`."""
    if record.boundary_flags is None:
        raise ValueError(f"record {record.id} carries no boundary_flags")
    feats = aggregate.pack_records([record], None).shot_features
    return build_samples(feats, record.boundary_flags)


# ---------------------------------------------------------------------------
# model
# ---------------------------------------------------------------------------

@dataclass
class BoundaryModel:
    mlp: nn.Mlp
    feature_dim: int
    hidden_dims: tuple


def make_boundary_model(feature_dim: int, hidden_dims=(4096, 1024), seed: int = 0) -> BoundaryModel:
    return _boundary_model(feature_dim, hidden_dims, spawn_rng(seed, "boundary/init"))


def _boundary_model(feature_dim: int, hidden_dims, rng) -> BoundaryModel:
    dims = (WINDOW * feature_dim, *hidden_dims, 2)
    activations = ["relu"] * len(hidden_dims) + ["linear"]
    return BoundaryModel(mlp=nn.make_mlp(dims, activations, rng),
                         feature_dim=feature_dim, hidden_dims=tuple(hidden_dims))


def predict_boundary(model: BoundaryModel, x) -> np.ndarray:
    """Boundary-class probability per row of ``x`` (softmax component 1)."""
    logits, _ = nn.mlp_forward(model.mlp, x)
    return nn.softmax(logits)[:, 1].astype(np.float32)


@dataclass
class BoundaryTrainConfig:
    class_weights: tuple = (10.0, 1.0)  # (boundary, non-boundary)
    batch_size: int = 256
    epochs: int = 10
    max_lr: float = 1e-3
    seed: int = 0
    val_frac: float = 0.2
    hidden_dims: tuple = (4096, 1024)

    def validate(self):
        if self.batch_size < 1 or self.epochs < 0:
            raise ValueError("invalid batch_size / epochs")
        if not 0 < self.max_lr < np.inf:
            raise ValueError(f"max_lr must be finite and > 0, got {self.max_lr!r}")
        if not (0.0 < self.val_frac < 1.0):
            raise ValueError("val_frac must be in (0, 1)")
        if not all(0 < w < np.inf for w in self.class_weights):
            raise ValueError(f"class_weights must be finite and > 0, got {self.class_weights!r}")


def _loss(model: BoundaryModel, x, y, weights) -> tuple:
    """The weighted-CE loss, its gradient for the logits and the forward cache."""
    logits, cache = nn.mlp_forward(model.mlp, x)
    return (*nn.weighted_ce_loss(logits, y, weights), cache)


def _loss_and_grads(model: BoundaryModel, x, y, weights) -> tuple:
    loss, d_logits, cache = _loss(model, x, y, weights)
    grads, _ = nn.backward(model.mlp, cache, d_logits)
    return loss, [g for pair in grads for g in pair]


def grad_check_closure(model: BoundaryModel, x, y, class_weights=(10.0, 1.0)) -> tuple:
    """(loss_fn, x0, g0) for :func:`nn.grad_check` over the weighted-CE loss of ``(x, y)``."""
    clone = copy.deepcopy(model)
    return nn.grad_check_closure([clone.mlp], lambda: _loss(clone, x, y, class_weights)[0],
                                 lambda: _loss_and_grads(clone, x, y, class_weights))


def train_boundary(x, y, config: BoundaryTrainConfig) -> tuple:
    """Weighted-CE training over a seeded train/val split of the samples ``(x, y)``;
    returns (model, history) with the best-validation-AP parameters."""
    config.validate()
    if len(y) < 2:
        raise ValueError("need at least 2 samples")

    rng_split = spawn_rng(config.seed, "boundary/split")
    perm = rng_split.permutation(len(y))
    n_val = max(1, int(round(config.val_frac * len(y))))
    val_idx, train_idx = perm[:n_val], perm[n_val:]
    y_train = y[train_idx]
    if y_train.sum() == 0 or y_train.sum() == len(y_train):
        raise ValueError("degenerate train split: needs both boundary and non-boundary samples")

    model = make_boundary_model(x.shape[1] // WINDOW, hidden_dims=config.hidden_dims,
                                seed=config.seed)

    def batch_loss(idx):
        rows = train_idx[idx]
        return _loss_and_grads(model, x[rows], y[rows], config.class_weights)

    def evaluate():
        val_logits, _ = nn.mlp_forward(model.mlp, x[val_idx])
        return metrics.average_precision(nn.softmax(val_logits)[:, 1], y[val_idx])

    history = nn.fit([model.mlp], len(train_idx), batch_loss, evaluate,
                     epochs=config.epochs, batch_size=config.batch_size,
                     max_lr=config.max_lr, rng=spawn_rng(config.seed, "boundary/shuffle"),
                     score_name="val_ap")
    return model, history


def eval_boundary(model: BoundaryModel, x, y) -> dict:
    """AP and Recall@0.5 of the boundary-class probabilities of ``(x, y)``."""
    if len(y) == 0:
        raise ValueError("empty sample set")
    return metrics.boundary_report(predict_boundary(model, x), y)


def save_boundary_model(model: BoundaryModel, path) -> None:
    header = {
        "kind": "scene-boundary",
        "feature_dim": model.feature_dim,
        "hidden_dims": list(model.hidden_dims),
    }
    nn.save_checkpoint(path, header, nn.mlp_params([model.mlp]))


def load_boundary_model(path) -> BoundaryModel:
    header, params = nn.load_checkpoint(path)
    if header.get("kind") != "scene-boundary":
        raise ValueError(f"{path}: not a boundary checkpoint (kind={header.get('kind')!r})")
    # zero-weight layers of the header's shape take the checkpoint arrays
    try:
        model = _boundary_model(int(header["feature_dim"]), tuple(header["hidden_dims"]), None)
    except (KeyError, TypeError) as exc:
        raise ValueError(f"{path}: malformed boundary checkpoint header ({exc!r})") from exc
    nn.set_mlp_params([model.mlp], params)
    return model


# ---------------------------------------------------------------------------
# synthetic annotated sequences
# ---------------------------------------------------------------------------

def synth_boundary_sequences(num_sequences: int = 50, shots_per_sequence: int = 43,
                             feature_dim: int = 16, boundary_prob: float = 1.0 / 11.0,
                             shift_scale: float = 3.0, noise_sigma: float = 0.3,
                             seed: int = 0) -> tuple:
    """Annotated sequences with a planted, linearly separable structure.

    Shots scatter around a per-scene center; at every planted boundary the
    center jumps by ``shift_scale`` along a fixed unit vector, so boundary
    windows differ from non-boundary ones by that planted shift. Returns
    (sequences, truth) where each sequence is (features, flags) and truth
    holds the shift vector.
    """
    rng = spawn_rng(seed, "boundary/synth")
    direction = rng.normal(size=feature_dim)
    direction /= np.linalg.norm(direction)
    sequences = []
    for _ in range(num_sequences):
        center = rng.normal(size=feature_dim)
        feats = np.zeros((shots_per_sequence, feature_dim), dtype=np.float32)
        flags = []
        for i in range(shots_per_sequence):
            feats[i] = (center + noise_sigma * rng.normal(size=feature_dim)).astype(np.float32)
            if i < shots_per_sequence - 1:
                is_boundary = int(rng.random() < boundary_prob)
                flags.append(is_boundary)
                if is_boundary:
                    center = center + shift_scale * direction
        sequences.append((feats, flags))
    return sequences, {"shift_vector": direction.astype(np.float32), "shift_scale": shift_scale}
