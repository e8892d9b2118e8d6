"""Scene boundary detection: sample construction from annotated shot
sequences, the fixed MLP classifier, class-weighted training, and
evaluation.

A sample is four consecutive shot features; the label says whether a scene
boundary sits between the middle two shots. The classifier is an MLP
(4*d - 4096 - 1024 - 2 by default, hidden sizes configurable for toy runs)
with a softmax head trained with weighted cross-entropy, boundary weighted
10:1 over non-boundary. The loop is :func:`nn.fit` and the parameters go
through :func:`nn.mlp_params` / :func:`nn.set_mlp_params`; this module
supplies the samples, the loss and the validation AP.
"""

import copy
from dataclasses import dataclass

import numpy as np

from . import aggregate, metrics, nn
from ._rng import spawn_rng
from .featurestore import VideoRecord

__all__ = [
    "BoundarySample",
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


@dataclass
class BoundarySample:
    shots: np.ndarray  # (4, d) float32
    label: int         # 1 = scene boundary between shots[1] and shots[2]

    def __post_init__(self):
        self.shots = np.asarray(self.shots, dtype=np.float32)
        if self.shots.ndim != 2 or self.shots.shape[0] != WINDOW:
            raise ValueError(f"expected (4, d) shot features, got {self.shots.shape}")
        if self.label not in (0, 1):
            raise ValueError(f"label must be 0/1, got {self.label}")


def build_samples(shot_features, boundary_flags) -> list:
    """One sample per run of four consecutive shots.

    ``boundary_flags[j]`` marks a boundary between shots j and j+1; the
    sample starting at shot i is labeled with ``boundary_flags[i+1]``.
    """
    feats = np.asarray(shot_features, dtype=np.float32)
    flags = [int(b) for b in boundary_flags]
    n = feats.shape[0]
    if n < WINDOW:
        raise ValueError(f"need at least {WINDOW} shots, got {n}")
    if len(flags) != n - 1:
        raise ValueError(f"expected {n - 1} boundary flags, got {len(flags)}")
    return [
        BoundarySample(shots=feats[i:i + WINDOW], label=flags[i + 1])
        for i in range(n - WINDOW + 1)
    ]


def samples_from_record(record: VideoRecord) -> list:
    """Build samples from an annotated record (one with ``boundary_flags``);
    shot features are the per-shot frame means."""
    if record.boundary_flags is None:
        raise ValueError(f"record {record.id} carries no boundary_flags")
    feats = np.stack([aggregate.shot_feature(s) for s in record.shots])
    return build_samples(feats, record.boundary_flags)


def _stack(samples) -> tuple:
    x = np.stack([s.shots.reshape(-1) for s in samples]).astype(np.float64)
    y = np.array([s.label for s in samples], dtype=np.int64)
    return x, y


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
    activations = ["relu"] * len(hidden_dims) + ["softmax"]
    return BoundaryModel(mlp=nn.make_mlp(dims, activations, rng),
                         feature_dim=feature_dim, hidden_dims=tuple(hidden_dims))


def predict_boundary(model: BoundaryModel, samples) -> np.ndarray:
    """Boundary-class probability per sample (softmax component 1)."""
    x, _ = _stack(list(samples))
    probs, _ = nn.mlp_forward(model.mlp, x)
    return probs[:, 1].astype(np.float32)


@dataclass
class BoundaryTrainConfig:
    class_weights: tuple = (10.0, 1.0)  # (boundary, non-boundary)
    batch_size: int = 256
    epochs: int = 10
    max_lr: float = 1e-3
    seed: int = 0
    val_frac: float = 0.2
    hidden_dims: tuple = (4096, 1024)
    warmup_frac: float = 0.05

    def validate(self):
        if self.batch_size < 1 or self.epochs < 0 or self.max_lr <= 0:
            raise ValueError("invalid batch_size / epochs / max_lr")
        if not (0.0 < self.val_frac < 1.0):
            raise ValueError("val_frac must be in (0, 1)")
        if min(self.class_weights) <= 0:
            raise ValueError("class weights must be positive")


def _loss_and_grads(model: BoundaryModel, x, y, weights) -> tuple:
    # The softmax lives in the network head; a linear-head view of the same
    # layers gives the logits, so the weighted-CE grad flows back exactly.
    logits_net = nn.Mlp(model.mlp.layers, model.mlp.activations[:-1] + ["linear"])
    logits, cache = nn.mlp_forward(logits_net, x)
    loss, d_logits = nn.weighted_ce_loss(logits, y, weights)
    grads, _ = nn.backward(logits_net, cache, d_logits)
    return loss, [g for pair in grads for g in pair]


def grad_check_closure(model: BoundaryModel, samples, class_weights=(10.0, 1.0)) -> tuple:
    """(loss_fn, x0) for :func:`nn.grad_check` over the weighted-CE loss."""
    clone = copy.deepcopy(model)
    x, y = _stack(list(samples))
    return nn.grad_check_closure([clone.mlp], lambda: _loss_and_grads(clone, x, y, class_weights))


def train_boundary(samples, config: BoundaryTrainConfig) -> tuple:
    """Weighted-CE training over a seeded train/val split of ``samples``;
    returns (model, history) with the best-validation-AP parameters."""
    config.validate()
    samples = list(samples)
    if len(samples) < 2:
        raise ValueError("need at least 2 samples")
    x, y = _stack(samples)
    d = samples[0].shots.shape[1]

    rng_split = spawn_rng(config.seed, "boundary/split")
    perm = rng_split.permutation(len(samples))
    n_val = max(1, int(round(config.val_frac * len(samples))))
    val_idx, train_idx = perm[:n_val], perm[n_val:]
    y_train = y[train_idx]
    if y_train.sum() == 0 or y_train.sum() == len(y_train):
        raise ValueError("degenerate train split: needs both boundary and non-boundary samples")

    model = make_boundary_model(d, hidden_dims=config.hidden_dims, seed=config.seed)

    def batch_loss(idx):
        rows = train_idx[idx]
        return _loss_and_grads(model, x[rows], y[rows], config.class_weights)

    def evaluate():
        val_scores, _ = nn.mlp_forward(model.mlp, x[val_idx])
        return metrics.average_precision(val_scores[:, 1], y[val_idx])

    history = nn.fit([model.mlp], len(train_idx), batch_loss, evaluate,
                     epochs=config.epochs, batch_size=config.batch_size,
                     max_lr=config.max_lr, warmup_frac=config.warmup_frac,
                     rng=spawn_rng(config.seed, "boundary/shuffle"), score_name="val_ap")
    return model, history


def eval_boundary(model: BoundaryModel, samples) -> dict:
    """AP and Recall@0.5 of the boundary-class probabilities."""
    samples = list(samples)
    if not samples:
        raise ValueError("empty sample set")
    scores = predict_boundary(model, samples)
    labels = np.array([s.label for s in samples])
    return metrics.boundary_report(scores, labels)


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
