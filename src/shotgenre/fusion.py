"""The three multi-modal fusion architectures, their binary-relevance
training, and inference.

Every strategy is a set of branches (hidden ReLU + sigmoid head), each
with its own BCE in the loss:
  early        - one branch, "trunk", over the concatenated raw modality
                 features;
  intermediate - one branch per modality, plus a joint sigmoid head over the
                 concatenated hidden states whose BCE joins the loss;
  late         - one branch per modality.
Without a joint head (early and late) the prediction is the arithmetic mean
of the branch probabilities, so early's is its one branch's output.

Training is binary relevance: one sigmoid output per genre, mean BCE. The
loop itself is :func:`nn.fit`; :func:`train` supplies the features (visual
drawn per epoch, or once), dropout masks, loss and validation macro-mAP. Parameters
are read and installed through :func:`nn.mlp_params` / :func:`nn.set_mlp_params`.
Everything is seeded; identical config + seed reproduces checkpoints
byte-for-byte.
"""

import copy
import dataclasses
from dataclasses import dataclass, field

import numpy as np

from . import aggregate, metrics, nn, textlab
from ._rng import spawn_rng
from .featurestore import Dataset, EmbeddingTable, GenreTaxonomy, VideoRecord

__all__ = [
    "MODALITIES",
    "TrainConfig",
    "ModalityBranch",
    "GenreModel",
    "TrainingDivergedError",
    "make_genre_model",
    "model_params",
    "set_model_params",
    "static_features",
    "assemble_inputs",
    "predict",
    "branch_predictions",
    "training_loss",
    "loss_and_grads",
    "grad_check_closure",
    "train",
    "infer_dataset",
    "save_model",
    "load_model",
    "compare_strategies",
    "format_comparison",
]

MODALITIES = ("visual", "audio", "language")
STRATEGIES = ("early", "intermediate", "late")


TrainingDivergedError = nn.TrainingDivergedError


def canonical_modalities(modalities) -> tuple:
    mods = tuple(modalities)
    unknown = set(mods) - set(MODALITIES)
    if unknown:
        raise ValueError(f"unknown modalities {sorted(unknown)}")
    if not mods:
        raise ValueError("at least one modality required")
    return tuple(m for m in MODALITIES if m in set(mods))


@dataclass
class TrainConfig:
    strategy: str = "intermediate"
    modalities: tuple = MODALITIES
    d_h: int = 32
    batch_size: int = 256
    epochs: int = 50
    max_lr: float = 1e-3
    seed: int = 0
    shots_per_video: int = 8
    frames_per_shot: int = 3
    keywords_k: int = 20
    resample_each_epoch: bool = True
    optimizer: str = "adam"
    dropout: float = 0.0

    def validate(self) -> None:
        if self.strategy not in STRATEGIES:
            raise ValueError(f"unknown strategy {self.strategy!r}")
        if self.optimizer not in ("adam", "sgd"):
            raise ValueError(f"unknown optimizer {self.optimizer!r}")
        for name in ("d_h", "batch_size", "shots_per_video", "frames_per_shot", "keywords_k"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive")
        if self.epochs < 0 or self.max_lr <= 0 or not (0.0 <= self.dropout < 1.0):
            raise ValueError("invalid epochs / max_lr / dropout")
        canonical_modalities(self.modalities)


@dataclass
class ModalityBranch:
    hidden: nn.Mlp  # raw feature -> d_h, ReLU
    head: nn.Mlp    # d_h -> G, sigmoid


@dataclass
class GenreModel:
    strategy: str
    modalities: tuple
    taxonomy: GenreTaxonomy
    d_h: int
    input_dims: dict                 # modality -> raw feature dim
    # branch name -> ModalityBranch: early's one "trunk" over the concatenated
    # input, else one per modality (canonical order)
    branches: dict = field(default_factory=dict)
    joint: nn.Mlp = None             # intermediate only

    @property
    def num_genres(self) -> int:
        return len(self.taxonomy)


def make_genre_model(strategy: str, modalities, taxonomy: GenreTaxonomy,
                     input_dims: dict, d_h: int, seed: int = 0) -> GenreModel:
    """Seeded model construction; parameter draws happen in a fixed order so
    identical arguments give identical weights."""
    return _genre_model(strategy, modalities, taxonomy, input_dims, d_h,
                        spawn_rng(seed, "fusion/init"))


def _genre_model(strategy: str, modalities, taxonomy: GenreTaxonomy, input_dims: dict,
                 d_h: int, rng) -> GenreModel:
    # rng None gives zero-weight nets, for parameters that are installed next
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}")
    mods = canonical_modalities(modalities)
    missing = [m for m in mods if m not in input_dims]
    if missing:
        raise ValueError(f"input_dims missing {missing}")
    g = len(taxonomy)
    dims = {m: int(input_dims[m]) for m in mods}
    branch_dims = {"trunk": sum(dims.values())} if strategy == "early" else dims
    branches = {name: ModalityBranch(hidden=nn.make_mlp((d, d_h), ["relu"], rng),
                                     head=nn.make_mlp((d_h, g), ["sigmoid"], rng))
                for name, d in branch_dims.items()}
    joint = (nn.make_mlp((d_h * len(mods), g), ["sigmoid"], rng)
             if strategy == "intermediate" else None)
    return GenreModel(strategy=strategy, modalities=mods, taxonomy=taxonomy, d_h=d_h,
                      input_dims=dims, branches=branches, joint=joint)


def _mlps(model: GenreModel) -> list:
    """All MLPs in the canonical parameter order."""
    nets = [net for b in model.branches.values() for net in (b.hidden, b.head)]
    return nets + ([model.joint] if model.joint is not None else [])


def model_params(model: GenreModel) -> list:
    return nn.mlp_params(_mlps(model))


def set_model_params(model: GenreModel, arrays) -> None:
    nn.set_mlp_params(_mlps(model), [np.asarray(a, dtype=np.float32) for a in arrays])


# ---------------------------------------------------------------------------
# input assembly
# ---------------------------------------------------------------------------

def static_features(records, modalities, keywords_k: int, table) -> dict:
    """Float32 ``(N, d)`` audio and language matrices of ``records`` for the
    requested modalities (visual is sampled separately): audio is the stored
    embedding, language the mean embedding of the extracted keywords."""
    feats = {}
    if "audio" in modalities:
        feats["audio"] = np.stack([r.audio_embedding for r in records])
    if "language" in modalities:
        if table is None:
            raise ValueError("language modality requires an embedding table")
        feats["language"] = np.stack([
            textlab.language_feature(textlab.extract_keywords(r.transcript, k=keywords_k),
                                     table)[0]
            for r in records
        ])
    return feats


def assemble_inputs(record: VideoRecord, embedding_table: EmbeddingTable = None,
                    train_mode: bool = False, seed: int = 0,
                    modalities=MODALITIES, num_shots: int = 8,
                    frames_per_shot: int = 3, keywords_k: int = 20) -> dict:
    """Per-modality float32 feature vectors for one record.

    Visual pools sampled shots (seeded-random from ``default_rng(seed)`` in
    train mode, evenly spaced otherwise) through :func:`aggregate.pooled_visual`; audio
    and language are row 0 of :func:`static_features`.
    """
    mods = canonical_modalities(modalities)
    out = {}
    if "visual" in mods:
        mode = "seeded-random" if train_mode else "deterministic-uniform"
        out["visual"] = aggregate.pooled_visual(aggregate.pack_records([record], frames_per_shot),
                                                num_shots, mode, np.random.default_rng(seed))[0]
    for m, feats in static_features([record], mods, keywords_k, embedding_table).items():
        out[m] = feats[0]
    return out


# ---------------------------------------------------------------------------
# forward / backward
# ---------------------------------------------------------------------------

def _branch_inputs(model: GenreModel, mats: dict) -> dict:
    """Each branch's input: early's trunk reads the concatenated modalities,
    the other strategies' branches their own modality."""
    if model.strategy == "early":
        return {"trunk": np.concatenate([mats[m] for m in model.modalities], axis=-1)}
    return mats


def _forward(model: GenreModel, inputs: dict, masks: dict = None) -> dict:
    """Forward pass for any strategy.

    Returns rho, the per-branch probabilities ``aux`` and the caches needed
    for the backward pass. rho is the joint head's output, or None without a
    joint head. ``masks`` optionally holds inverted-dropout masks, by branch
    name, applied to each hidden activation. Every tensor keeps the inputs'
    leading shape: single (d,) vectors give (G,) outputs, (B, d) batches give
    (B, G).
    """
    missing = [m for m in model.modalities if m not in inputs]
    if missing:
        raise ValueError(f"missing modality inputs {missing} for strategy {model.strategy}")
    mats = {m: np.asarray(inputs[m]) for m in model.modalities}
    if len({x.ndim for x in mats.values()}) > 1:
        raise ValueError("mixed single/batch modality inputs")
    for m in model.modalities:
        if mats[m].shape[-1] != model.input_dims[m]:
            raise ValueError(
                f"{m} input dim {mats[m].shape[-1]} != model dim {model.input_dims[m]}"
            )
    xs = _branch_inputs(model, mats)
    aux, hidden, ctx = {}, {}, {"branch": {}}
    for name, branch in model.branches.items():
        z, cache_h = nn.mlp_forward(branch.hidden, xs[name])
        if masks and name in masks:
            z = z * masks[name]
        aux[name], cache_head = nn.mlp_forward(branch.head, z)
        hidden[name] = z
        ctx["branch"][name] = {"cache_hidden": cache_h, "cache_head": cache_head}
    rho = None
    if model.joint is not None:
        zcat = np.concatenate(list(hidden.values()), axis=-1)
        rho, ctx["cache_joint"] = nn.mlp_forward(model.joint, zcat)
    return {"rho": rho, "aux": aux, "ctx": ctx}


def predict(model: GenreModel, inputs: dict) -> np.ndarray:
    """Per-genre probabilities in (0,1), float32; accepts a single record's
    feature dict or batched (B, d) inputs."""
    out = _forward(model, inputs)
    rho, aux = out["rho"], out["aux"]
    if rho is None:
        # the mean of the branch probabilities as reported at the 32-bit
        # boundary, so predict() IS the mean of branch_predictions()
        rho = sum(p.astype(np.float32).astype(np.float64) for p in aux.values()) / len(aux)
    return np.asarray(rho, dtype=np.float32)


def branch_predictions(model: GenreModel, inputs: dict) -> dict:
    """Per-modality branch probabilities (float32); empty for early fusion,
    whose one branch reads every modality."""
    out = _forward(model, inputs)
    return {m: np.asarray(p, dtype=np.float32) for m, p in out["aux"].items()
            if m in model.modalities}


def training_loss(model: GenreModel, inputs: dict, labels) -> float:
    """The sum of the branch BCEs, plus the joint BCE for intermediate; early's
    one branch makes its loss bce(rho)."""
    return _loss_from_forward(model, _forward(model, inputs), labels)[0]


def _loss_from_forward(model: GenreModel, fwd: dict, labels) -> tuple:
    y = np.asarray(labels, dtype=np.float64)
    shape = next(iter(fwd["aux"].values())).shape
    if y.shape != shape:
        raise ValueError(f"labels shape {y.shape} != predictions shape {shape}")
    total, parts = 0.0, {}
    if model.joint is not None:
        total, parts["rho"] = nn.bce_loss(fwd["rho"], y)
    for name, aux in fwd["aux"].items():
        aux_loss, parts[name] = nn.bce_loss(aux, y)
        total += aux_loss
    return total, parts


def loss_and_grads(model: GenreModel, inputs: dict, labels, masks: dict = None) -> tuple:
    """Training loss and gradients for every parameter, aligned with
    :func:`model_params` order."""
    fwd = _forward(model, inputs, masks=masks)
    loss, d_parts = _loss_from_forward(model, fwd, labels)
    ctx = fwd["ctx"]
    d_hidden, head_grads = {}, {}
    for name, branch in model.branches.items():
        head_grads[name], d_hidden[name] = nn.backward(
            branch.head, ctx["branch"][name]["cache_head"], d_parts[name])
    if model.joint is not None:
        g_joint, d_zcat = nn.backward(model.joint, ctx["cache_joint"], d_parts["rho"])
        for i, name in enumerate(model.branches):
            d_hidden[name] = d_hidden[name] + d_zcat[..., i * model.d_h:(i + 1) * model.d_h]
    pairs = []
    for name, branch in model.branches.items():
        dz = d_hidden[name]
        if masks and name in masks:
            dz = dz * masks[name]
        g_hidden, _ = nn.backward(branch.hidden, ctx["branch"][name]["cache_hidden"], dz)
        pairs += g_hidden + head_grads[name]
    if model.joint is not None:
        pairs += g_joint
    return loss, [g for pair in pairs for g in pair]


def grad_check_closure(model: GenreModel, inputs: dict, labels) -> tuple:
    """(loss_fn, x0) for :func:`nn.grad_check`: the training loss as a float64
    function of the flattened parameter vector."""
    clone = copy.deepcopy(model)
    return nn.grad_check_closure(_mlps(clone), lambda: loss_and_grads(clone, inputs, labels))


# ---------------------------------------------------------------------------
# training / inference
# ---------------------------------------------------------------------------

def _label_matrix(records, taxonomy) -> np.ndarray:
    return np.stack([taxonomy.label_vector(r.genres) for r in records])


def _macro_map(scores: np.ndarray, labels: np.ndarray) -> float:
    aps = [
        metrics.average_precision(scores[:, j], labels[:, j]) if labels[:, j].sum() > 0 else 0.0
        for j in range(labels.shape[1])
    ]
    return float(np.mean(aps))


def train(dataset: Dataset, config: TrainConfig, embedding_table: EmbeddingTable = None) -> tuple:
    """Train a fusion model; returns ``(model, history)`` where history holds
    one {epoch, train_loss, val_macro_map} entry per epoch and the model
    carries the best-validation-mAP parameters.

    Each train shot is pooled once by :func:`aggregate.pack_records`; each
    epoch (or only the first, without ``resample_each_epoch``) draws the
    split's shot picks from one generator in one :func:`aggregate.pooled_visual` call.
    """
    config.validate()
    mods = canonical_modalities(config.modalities)
    train_recs = dataset.split("train")
    val_recs = dataset.split("val")
    if not train_recs:
        raise ValueError("dataset has no train split")
    if not val_recs:
        raise ValueError("dataset has no val split")
    if "language" in mods:
        if embedding_table is None:
            raise ValueError("language modality requires an embedding table")
        if embedding_table.dim != dataset.d_l:
            raise ValueError(
                f"embedding table dim {embedding_table.dim} != dataset d_l {dataset.d_l}"
            )

    input_dims = {"visual": dataset.d_v, "audio": dataset.d_a, "language": dataset.d_l}
    model = make_genre_model(config.strategy, mods, dataset.taxonomy,
                             input_dims, config.d_h, seed=config.seed)
    if config.epochs == 0:
        return model, []

    y_train = _label_matrix(train_recs, dataset.taxonomy)
    y_val = _label_matrix(val_recs, dataset.taxonomy)
    shots, frames = config.shots_per_video, config.frames_per_shot
    n = len(train_recs)
    feats = static_features(train_recs, mods, config.keywords_k, embedding_table)
    val_feats = static_features(val_recs, mods, config.keywords_k, embedding_table)
    rng_shots = spawn_rng(config.seed, "fusion/shots")
    rng_drop = spawn_rng(config.seed, "fusion/dropout")

    if "visual" in mods:
        train_packed = aggregate.pack_records(train_recs, frames)
        val_feats["visual"] = aggregate.pooled_visual(aggregate.pack_records(val_recs, frames),
                                                      shots)

    def begin_epoch(epoch):
        # one seeded-random shot draw for the split, every epoch or only the first
        if "visual" in mods and (config.resample_each_epoch or epoch == 0):
            feats["visual"] = aggregate.pooled_visual(train_packed, shots, "seeded-random",
                                                      rng_shots)

    keep = 1.0 - config.dropout

    def batch_loss(idx):
        masks = None
        if config.dropout > 0.0:
            masks = {name: (rng_drop.random((len(idx), config.d_h)) < keep) / keep
                     for name in model.branches}
        return loss_and_grads(model, {m: feats[m][idx] for m in mods}, y_train[idx],
                              masks=masks)

    def evaluate():
        return _macro_map(predict(model, val_feats).astype(np.float64), y_val)

    history = nn.fit(_mlps(model), n, batch_loss, evaluate, epochs=config.epochs,
                     batch_size=config.batch_size, max_lr=config.max_lr,
                     rng=spawn_rng(config.seed, "fusion/shuffle"),
                     score_name="val_macro_map", optimizer=config.optimizer,
                     begin_epoch=begin_epoch)
    return model, history


def infer_dataset(model: GenreModel, records, embedding_table: EmbeddingTable = None,
                  num_shots: int = 8, frames_per_shot: int = 3,
                  keywords_k: int = 20) -> metrics.PredictionSet:
    """Deterministic inference (evenly spaced sampling) over records, order
    preserved: the features of all records are built as (N, d) matrices
    (visual via :func:`aggregate.pooled_visual`) and scored in one batched
    :func:`predict`. Rows equal ``predict(model, assemble_inputs(rec, ...))``.
    """
    records = list(records)
    if not records:
        raise ValueError("empty record set")
    feats = static_features(records, model.modalities, keywords_k, embedding_table)
    if "visual" in model.modalities:
        feats["visual"] = aggregate.pooled_visual(aggregate.pack_records(records, frames_per_shot),
                                                  num_shots)
    return metrics.PredictionSet(ids=[r.id for r in records], scores=predict(model, feats),
                                 genres=list(model.taxonomy.names))


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------

def save_model(model: GenreModel, path) -> None:
    header = {
        "kind": "genre-fusion",
        "strategy": model.strategy,
        "modalities": list(model.modalities),
        "taxonomy": list(model.taxonomy.names),
        "d_h": model.d_h,
        "input_dims": {m: model.input_dims[m] for m in model.modalities},
    }
    nn.save_checkpoint(path, header, model_params(model))


def load_model(path) -> GenreModel:
    header, params = nn.load_checkpoint(path)
    if header.get("kind") != "genre-fusion":
        raise ValueError(f"{path}: not a fusion checkpoint (kind={header.get('kind')!r})")
    try:
        model = _genre_model(header["strategy"], tuple(header["modalities"]),
                             GenreTaxonomy(tuple(header["taxonomy"])),
                             {m: int(d) for m, d in header["input_dims"].items()},
                             int(header["d_h"]), None)
    except (KeyError, TypeError, AttributeError) as exc:
        raise ValueError(f"{path}: malformed fusion checkpoint header ({exc!r})") from exc
    set_model_params(model, params)
    return model


# ---------------------------------------------------------------------------
# strategy comparison harness
# ---------------------------------------------------------------------------

def compare_strategies(dataset: Dataset, config: TrainConfig,
                       embedding_table: EmbeddingTable = None,
                       split: str = "test") -> list:
    """Train all three strategies on identical data/seed and report each on
    the given split."""
    rows = []
    for strategy in STRATEGIES:
        cfg = dataclasses.replace(config, strategy=strategy)
        model, history = train(dataset, cfg, embedding_table)
        preds = infer_dataset(model, dataset.split(split), embedding_table,
                              num_shots=cfg.shots_per_video,
                              frames_per_shot=cfg.frames_per_shot,
                              keywords_k=cfg.keywords_k)
        report = metrics.genre_report(preds, dataset.split(split), dataset.taxonomy)
        rows.append({"strategy": strategy, "model": model, "history": history,
                     "report": report})
    return rows


def format_comparison(rows) -> str:
    lines = [
        "fusion strategy comparison (same data, same seed)",
        f"{'strategy':<14} {'macro r@0.5':>11} {'macro p@0.5':>11} {'macro mAP':>10}"
        f" {'micro r@0.5':>11} {'micro p@0.5':>11} {'micro mAP':>10}",
    ]
    for row in rows:
        rep = row["report"]
        lines.append(
            f"{row['strategy']:<14} {rep.macro.recall_at_05:>11.4f} "
            f"{rep.macro.precision_at_05:>11.4f} {rep.macro.map:>10.4f} "
            f"{rep.micro.recall_at_05:>11.4f} {rep.micro.precision_at_05:>11.4f} "
            f"{rep.micro.map:>10.4f}"
        )
    return "\n".join(lines) + "\n"
