"""Minimal neural core: dense layers, activations, losses, Adam, reverse-mode
gradients, the training loop, and a finite-difference gradient checker.

Parameters are float32 at rest. During :func:`fit` the nets hold float64
views of one flat master vector that the optimizer updates in place; it only
ever holds float32-representable values. All arithmetic (forward, backward,
optimizer) runs in 64-bit so gradient checks are meaningful at rtol 1e-4.
Only the MLP shapes this package needs are supported - no general autodiff.
Forward and backward run over the last axis, so a (d,) vector and a (B, d)
batch take one path; a forward cache is the list of layer inputs plus output.

A model is a list of MLPs. For the fusion and scene-boundary models alike,
:func:`mlp_params` / :func:`set_mlp_params` get and install its parameters,
:func:`fit` trains it and :func:`grad_check_closure` checks its gradients.
"""

import json
import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "ACTIVATIONS",
    "PROB_EPS",
    "DenseLayer",
    "Mlp",
    "AdamState",
    "GradCheckResult",
    "TrainingDivergedError",
    "make_mlp",
    "mlp_params",
    "set_mlp_params",
    "mlp_forward",
    "backward",
    "softmax",
    "bce_loss",
    "weighted_ce_loss",
    "adam_step",
    "sgd_step",
    "init_adam",
    "lr_schedule",
    "fit",
    "grad_check",
    "grad_check_closure",
    "flatten_arrays",
    "unflatten_vector",
    "save_checkpoint",
    "load_checkpoint",
]

ACTIVATIONS = ("relu", "sigmoid", "linear")

# probabilities are clamped to [PROB_EPS, 1 - PROB_EPS] before any log
PROB_EPS = 1e-7


@dataclass
class DenseLayer:
    weights: np.ndarray  # (out, in) float32
    bias: np.ndarray     # (out,) float32

    def __post_init__(self):
        if self.weights.ndim != 2 or self.bias.shape != (self.weights.shape[0],):
            raise ValueError(
                f"inconsistent dense shapes: weights {self.weights.shape}, bias {self.bias.shape}"
            )


@dataclass
class Mlp:
    layers: list
    activations: list

    def __post_init__(self):
        if len(self.layers) != len(self.activations):
            raise ValueError("one activation tag per layer required")
        for act in self.activations:
            if act not in ACTIVATIONS:
                raise ValueError(f"unknown activation {act!r}")
        for prev, nxt in zip(self.layers, self.layers[1:]):
            if nxt.weights.shape[1] != prev.weights.shape[0]:
                raise ValueError(
                    f"adjacent layer dims mismatch: {prev.weights.shape} -> {nxt.weights.shape}"
                )

    @property
    def in_dim(self) -> int:
        return self.layers[0].weights.shape[1]

    @property
    def out_dim(self) -> int:
        return self.layers[-1].weights.shape[0]


def glorot_uniform(out_dim: int, in_dim: int, rng: np.random.Generator) -> np.ndarray:
    limit = np.sqrt(6.0 / (in_dim + out_dim))
    return rng.uniform(-limit, limit, size=(out_dim, in_dim)).astype(np.float32)


def make_mlp(dims, activations, rng: np.random.Generator) -> Mlp:
    """Build an MLP with glorot-uniform weights and zero biases; with ``rng``
    None the weights are zeros too, for parameters that are installed next.

    ``dims`` is (in, h1, ..., out); ``activations`` has one tag per layer.
    """
    layers = [
        DenseLayer(np.zeros((dims[i + 1], dims[i]), dtype=np.float32) if rng is None
                   else glorot_uniform(dims[i + 1], dims[i], rng),
                   np.zeros(dims[i + 1], dtype=np.float32))
        for i in range(len(dims) - 1)
    ]
    return Mlp(layers=layers, activations=list(activations))


def mlp_params(nets) -> list:
    """Every layer's (weights, bias) of ``nets``, in net and layer order."""
    return [p for net in nets for layer in net.layers for p in (layer.weights, layer.bias)]


def set_mlp_params(nets, arrays) -> None:
    """Install ``arrays``, in :func:`mlp_params` order, into ``nets`` as given,
    keeping their dtype (:func:`fit` and grad checks install float64). Their
    count and every shape must match the nets."""
    layers = [layer for net in nets for layer in net.layers]
    if len(arrays) != 2 * len(layers):
        raise ValueError(f"expected {2 * len(layers)} parameter arrays, got {len(arrays)}")
    for i, (layer, w, b) in enumerate(zip(layers, arrays[0::2], arrays[1::2])):
        if w.shape != layer.weights.shape or b.shape != layer.bias.shape:
            raise ValueError(f"layer {i}: parameter shapes {w.shape}, {b.shape} != "
                             f"{layer.weights.shape}, {layer.bias.shape}")
        layer.weights = w
        layer.bias = b


def _apply_activation(act: str, z: np.ndarray) -> np.ndarray:
    if act == "relu":
        return np.maximum(z, 0.0)
    if act == "sigmoid":
        out = np.empty_like(z)
        pos = z >= 0
        out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
        ez = np.exp(z[~pos])
        out[~pos] = ez / (1.0 + ez)
        return out
    return z  # linear


def mlp_forward(mlp: Mlp, x) -> tuple:
    """Run the net over the last axis of ``x``: a (d,) vector, a (B, d) batch
    or any (..., d) stack gives an output of the same leading shape.

    Returns ``(output, cache)``; the cache for :func:`backward` is the list
    ``[x, a1, ..., aL]`` of each layer's float64 input plus the final output.
    """
    a = np.asarray(x, dtype=np.float64)
    if a.shape[-1] != mlp.in_dim:
        raise ValueError(f"input dim {a.shape[-1]} != expected {mlp.in_dim}")
    cache = [a]
    for layer, act in zip(mlp.layers, mlp.activations):
        w = np.asarray(layer.weights, dtype=np.float64)
        b = np.asarray(layer.bias, dtype=np.float64)
        a = _apply_activation(act, a @ w.T + b)
        cache.append(a)
    return a, cache


def backward(mlp: Mlp, cache, upstream) -> tuple:
    """Reverse-mode gradients for every layer.

    ``cache`` is the :func:`mlp_forward` list of layer inputs and output;
    ``upstream`` has the output's shape. Returns ``(grads, dx)`` where grads
    is a list of (dW, db) float64 pairs in layer order, summed over every
    leading axis, and dx is the gradient with respect to the network input,
    in its shape. ReLU masks on its output ``a > 0``, which is the zero
    subgradient at exactly 0.
    """
    if len(cache) != len(mlp.layers) + 1:
        raise ValueError("cache does not match this network")
    da = np.asarray(upstream, dtype=np.float64)
    grads = [None] * len(mlp.layers)
    for i in range(len(mlp.layers) - 1, -1, -1):
        layer, act, x, a = mlp.layers[i], mlp.activations[i], cache[i], cache[i + 1]
        if da.shape != a.shape:
            raise ValueError(f"upstream shape {da.shape} != layer output {a.shape}")
        if act == "relu":
            dz = da * (a > 0)
        elif act == "sigmoid":
            dz = da * a * (1.0 - a)
        else:
            dz = da
        dz2 = dz.reshape(-1, dz.shape[-1])
        grads[i] = (dz2.T @ x.reshape(-1, x.shape[-1]), dz2.sum(axis=0))
        da = dz @ np.asarray(layer.weights, dtype=np.float64)
    return grads, da


def softmax(z) -> np.ndarray:
    """Softmax over the last axis: subtract the row max, exp, divide by the
    row sum."""
    ez = np.exp(z - z.max(axis=-1, keepdims=True))
    return ez / ez.sum(axis=-1, keepdims=True)


# ---------------------------------------------------------------------------
# losses
# ---------------------------------------------------------------------------

def bce_loss(probs, labels, eps: float = PROB_EPS) -> tuple:
    """Mean binary cross-entropy over all entries, with probabilities
    clamped to [eps, 1-eps] before the logs.

    Returns ``(loss, dloss/dprobs)``; the gradient is zero where the clamp is
    active (the clamped loss is locally flat there).
    """
    p = np.asarray(probs, dtype=np.float64)
    y = np.asarray(labels, dtype=np.float64)
    if p.shape != y.shape:
        raise ValueError(f"probs shape {p.shape} != labels shape {y.shape}")
    pc = np.clip(p, eps, 1.0 - eps)
    n = p.size
    loss = -float(np.sum(y * np.log(pc) + (1.0 - y) * np.log1p(-pc))) / n
    inside = (p >= eps) & (p <= 1.0 - eps)
    grad = np.where(inside, (-y / pc + (1.0 - y) / (1.0 - pc)) / n, 0.0)
    return loss, grad


def weighted_ce_loss(logits, labels, class_weights=(10.0, 1.0)) -> tuple:
    """Softmax cross-entropy with a per-class weight on each sample's loss.

    ``class_weights`` is (weight for label 1, weight for label 0). ``logits``
    is (..., 2) with one label per row. Returns ``(loss, dloss/dlogits)``,
    averaging over the rows; the gradient has the shape of ``logits``.
    """
    z = np.asarray(logits, dtype=np.float64)
    y = np.asarray(labels).reshape(-1)
    if z.shape[-1:] != (2,) or z.size != 2 * y.size:
        raise ValueError(f"expected (B,2) logits and (B,) labels, got {z.shape}, {y.shape}")
    if not np.all((y == 0) | (y == 1)):
        raise ValueError("labels must be 0 or 1")
    y = y.astype(np.int64)
    if not np.all(np.isfinite(z)):
        raise ValueError("non-finite logits")
    w_pos, w_neg = float(class_weights[0]), float(class_weights[1])
    w = np.where(y == 1, w_pos, w_neg)
    sm = softmax(z.reshape(-1, 2))
    b = sm.shape[0]
    picked = np.clip(sm[np.arange(b), y], PROB_EPS, None)
    loss = float(np.sum(w * -np.log(picked))) / b
    onehot = np.zeros_like(sm)
    onehot[np.arange(b), y] = 1.0
    grad = w[:, None] * (sm - onehot) / b
    return loss, grad.reshape(z.shape)


# ---------------------------------------------------------------------------
# optimizers
# ---------------------------------------------------------------------------

# Elements per optimizer block: 64K float64 values (512 KB per operand), so
# that a block's parameters, moments, gradient and scratch stay in L2 cache
# across the passes of one step.
_STEP_BLOCK = 1 << 16


@dataclass
class AdamState:
    m: np.ndarray  # flat float64 first moment, one entry per parameter
    v: np.ndarray  # flat float64 second moment
    step: int = 0
    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8


def init_adam(params, lr: float = 1e-3, beta1: float = 0.9, beta2: float = 0.999,
              eps: float = 1e-8) -> AdamState:
    """Adam state for the flat parameter vector ``params``: zero float64
    moments of its length, at step 0."""
    return AdamState(m=np.zeros(np.shape(params)), v=np.zeros(np.shape(params)),
                     step=0, lr=lr, beta1=beta1, beta2=beta2, eps=eps)


def _blocks(params, grads):
    """``(start, end, upd, tmp, rounded)`` per :data:`_STEP_BLOCK`-element
    block of the flat vectors ``params`` and ``grads``, with block-sized
    float64 scratch ``upd`` and ``tmp`` and float32 scratch ``rounded``."""
    if grads.shape != params.shape or params.ndim != 1:
        raise ValueError(f"grad shape {grads.shape} != param shape {params.shape}")
    size = min(_STEP_BLOCK, params.size)
    scratch = np.empty(size), np.empty(size), np.empty(size, dtype=np.float32)
    for start in range(0, params.size, _STEP_BLOCK):
        end = min(start + _STEP_BLOCK, params.size)
        yield (start, end) + tuple(a[:end - start] for a in scratch)


def _store_rounded(p, upd, rounded) -> None:
    """``p = float32(p - upd)``, in place; ``upd`` is overwritten."""
    np.subtract(p, upd, out=upd)
    rounded[...] = upd
    p[...] = rounded


def adam_step(params, grads, state: AdamState, lr: float = None) -> None:
    """One Adam update with bias correction (Kingma & Ba, arXiv 1412.6980),
    in place on the flat float64 vector ``params`` and on ``state``.

    ``grads`` is a float64 vector of the same length. The operation order is
    ``m = b1*m + (1-b1)*g``, ``v = b2*v + ((1-b2)*g)*g``, then
    ``p - (lr*mhat) / (sqrt(vhat)+eps)`` rounded to float32 and stored back,
    one :data:`_STEP_BLOCK`-element block at a time.
    """
    if state.m.shape != params.shape:
        raise ValueError(f"Adam state of shape {state.m.shape} != param shape {params.shape}")
    step_lr = state.lr if lr is None else lr
    state.step += 1
    b1, b2 = state.beta1, state.beta2
    c1, c2 = 1.0 - b1 ** state.step, 1.0 - b2 ** state.step
    for start, end, upd, tmp, rounded in _blocks(params, grads):
        g, m, v = grads[start:end], state.m[start:end], state.v[start:end]
        m *= b1
        np.multiply(g, 1.0 - b1, out=tmp)
        m += tmp
        v *= b2
        np.multiply(g, 1.0 - b2, out=tmp)
        tmp *= g
        v += tmp
        np.divide(m, c1, out=upd)
        upd *= step_lr
        np.divide(v, c2, out=tmp)
        np.sqrt(tmp, out=tmp)
        tmp += state.eps
        upd /= tmp
        _store_rounded(params[start:end], upd, rounded)


def sgd_step(params, grads, lr: float) -> None:
    """``params = float32(params - lr*grads)``, in place on the flat float64
    vector ``params``, one :data:`_STEP_BLOCK`-element block at a time."""
    for start, end, upd, _, rounded in _blocks(params, grads):
        np.multiply(grads[start:end], lr, out=upd)
        _store_rounded(params[start:end], upd, rounded)


def lr_schedule(step: int, total_steps: int, max_lr: float, warmup_frac: float = 0.05) -> float:
    """Linear warmup over warmup_frac of the run to max_lr, then cosine decay."""
    if total_steps <= 0:
        return max_lr
    warmup = max(1, int(round(warmup_frac * total_steps)))
    if step < warmup:
        return max_lr * (step + 1) / warmup
    if total_steps == warmup:
        return max_lr
    progress = (step - warmup) / (total_steps - warmup)
    return max_lr * 0.5 * (1.0 + np.cos(np.pi * min(progress, 1.0)))


# ---------------------------------------------------------------------------
# training loop
# ---------------------------------------------------------------------------

class TrainingDivergedError(RuntimeError):
    """Raised when the training loss becomes non-finite."""


def fit(nets, n: int, batch_loss, evaluate, *, epochs: int, batch_size: int,
        max_lr: float, rng: np.random.Generator, score_name: str,
        optimizer: str = "adam", begin_epoch=None) -> list:
    """Minibatch training of the parameters of ``nets`` over ``n`` samples.

    At entry the parameters are packed into one flat float64 master vector
    and the nets receive float64 views of it, which every step updates in
    place. Each epoch calls ``begin_epoch(epoch)`` if given, shuffles with
    ``rng.permutation(n)``, then per batch takes an ``optimizer`` ("adam" or
    "sgd") step at the :func:`lr_schedule` rate on ``batch_loss(idx) -> (loss,
    grads in mlp_params order)``; a non-finite loss raises
    :class:`TrainingDivergedError`. ``evaluate()`` then scores the epoch
    (higher is better). Returns one ``{"epoch", "train_loss", score_name}``
    row per epoch; the nets end with float32 arrays of the best-scoring
    parameters, or of the current ones if a step or callback raises.
    """
    master, shapes = flatten_arrays(mlp_params(nets))
    set_mlp_params(nets, unflatten_vector(master, shapes))
    grad = np.empty_like(master)
    state = init_adam(master, lr=max_lr) if optimizer == "adam" else None
    total_steps = epochs * ((n + batch_size - 1) // batch_size)
    step = 0
    history = []
    best_score = -1.0
    best = master.astype(np.float32)
    try:
        for epoch in range(epochs):
            if begin_epoch is not None:
                begin_epoch(epoch)
            perm = rng.permutation(n)
            epoch_loss = 0.0
            for start in range(0, n, batch_size):
                idx = perm[start:start + batch_size]
                loss, grads = batch_loss(idx)
                if not np.isfinite(loss):
                    raise TrainingDivergedError(f"non-finite loss at epoch {epoch}, step {step}")
                if [np.shape(g) for g in grads] != shapes:
                    raise ValueError(f"grad shapes {[np.shape(g) for g in grads]} != "
                                     f"param shapes {shapes}")
                np.concatenate([np.ravel(g) for g in grads], out=grad)
                del grads  # not held while the next batch builds its own
                lr = lr_schedule(step, total_steps, max_lr)
                if state is not None:
                    adam_step(master, grad, state, lr=lr)
                else:
                    sgd_step(master, grad, lr)
                step += 1
                epoch_loss += loss * len(idx)
            score = evaluate()
            history.append({"epoch": epoch, "train_loss": epoch_loss / n, score_name: score})
            if score > best_score:
                best_score = score
                best[...] = master
    except BaseException:
        # float32 at rest on every exit: here the parameters before the failure
        set_mlp_params(nets, unflatten_vector(master.astype(np.float32), shapes))
        raise
    set_mlp_params(nets, unflatten_vector(best, shapes))
    return history


# ---------------------------------------------------------------------------
# gradient checking
# ---------------------------------------------------------------------------

@dataclass
class GradCheckResult:
    max_rel_error: float
    rel_errors: np.ndarray
    skipped: list = field(default_factory=list)

    def __repr__(self):
        return (f"GradCheckResult(max_rel_error={self.max_rel_error:.3e}, "
                f"checked={self.rel_errors.size - len(self.skipped)}, skipped={len(self.skipped)})")


def grad_check(loss_fn, params, grad, h: float = 1e-4) -> GradCheckResult:
    """Compare the analytic gradient ``grad`` at ``params`` against central
    finite differences of ``loss_fn(x) -> loss`` over a flat float64
    parameter vector. Relative error per coordinate is
    ``|a - n| / max(1e-8, |a| + |n|)``.

    Kink handling (the documented ReLU caveat): for a smooth function the
    forward/backward one-sided disagreement is ~h*f'' and halves when the
    step halves; a slope kink within ~0.3h of the base point keeps it from
    halving. Such coordinates are skipped and reported. The numeric value
    itself is the central difference at step h/4, which a kink far enough
    away to evade that detector cannot reach.
    """
    x0 = np.asarray(params, dtype=np.float64).ravel().copy()
    f0 = loss_fn(x0)
    g0 = np.asarray(grad, dtype=np.float64).ravel()
    if g0.shape != x0.shape:
        raise ValueError("analytic gradient shape mismatch")
    n_coords = x0.size
    rel = np.zeros(n_coords)
    skipped = []
    floor = 1e-9 * max(1.0, abs(f0))
    for i in range(n_coords):
        x = x0.copy()

        def f_at(offset):
            x[i] = x0[i] + offset
            return loss_fn(x)

        f_p1, f_m1 = f_at(h), f_at(-h)
        f_p2, f_m2 = f_at(h / 2), f_at(-h / 2)
        d1 = abs((f_p1 - f0) / h - (f0 - f_m1) / h)
        d2 = abs((f_p2 - f0) / (h / 2) - (f0 - f_m2) / (h / 2))
        if d1 > floor and d2 > 0.6 * d1:
            skipped.append(i)
            continue
        numeric = (f_at(h / 4) - f_at(-h / 4)) / (h / 2)
        rel[i] = abs(g0[i] - numeric) / max(1e-8, abs(g0[i]) + abs(numeric))
    checked = np.delete(rel, skipped) if skipped else rel
    max_err = float(checked.max()) if checked.size else 0.0
    return GradCheckResult(max_rel_error=max_err, rel_errors=rel, skipped=skipped)


def grad_check_closure(nets, loss, loss_and_grads) -> tuple:
    """``(loss_fn, x0, g0)`` for :func:`grad_check` over the parameters of
    ``nets``: ``loss_fn`` installs the flat vector into ``nets`` as float64
    arrays and returns ``loss()``, and ``g0`` is the flattened gradient of
    ``loss_and_grads()`` at ``x0``. The nets are overwritten, so pass a copy
    of the model."""
    x0, shapes = flatten_arrays(mlp_params(nets))

    def fn(vec):
        set_mlp_params(nets, unflatten_vector(vec, shapes))
        return loss()

    set_mlp_params(nets, unflatten_vector(x0, shapes))
    return fn, x0, flatten_arrays(loss_and_grads()[1])[0]


def flatten_arrays(arrays) -> tuple:
    """Concatenate arrays into one float64 vector; returns (vector, shapes)."""
    shapes = [a.shape for a in arrays]
    if not arrays:
        return np.zeros(0), shapes
    return np.concatenate([np.asarray(a, dtype=np.float64).ravel() for a in arrays]), shapes


def unflatten_vector(vec, shapes) -> list:
    """Views of the flat array ``vec`` in ``shapes``, keeping its dtype."""
    out = []
    pos = 0
    for shape in shapes:
        size = math.prod(shape)
        out.append(vec[pos:pos + size].reshape(shape))
        pos += size
    if pos != len(vec):
        raise ValueError("vector length does not match shapes")
    return out


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------

_CKPT_MAGIC = "shotgenre-ckpt-v1"


def save_checkpoint(path, header: dict, params) -> None:
    """Header line (JSON) + parameters as little-endian float32 in order."""
    head = dict(header)
    head["magic"] = _CKPT_MAGIC
    head["shapes"] = [list(p.shape) for p in params]
    with open(path, "wb") as fh:
        fh.write(json.dumps(head, sort_keys=True).encode("utf-8") + b"\n")
        for p in params:
            fh.write(np.ascontiguousarray(p, dtype="<f4").tobytes())


def load_checkpoint(path) -> tuple:
    """Returns (header dict, list of float32 arrays)."""
    with open(path, "rb") as fh:
        header = json.loads(fh.readline().decode("utf-8"))
        if not isinstance(header, dict) or header.get("magic") != _CKPT_MAGIC:
            raise ValueError(f"{path}: not a checkpoint file")
        blob = fh.read()
    try:
        shapes = [tuple(int(n) for n in shape) for shape in header["shapes"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"{path}: malformed checkpoint header ({exc!r})") from exc
    params = []
    pos = 0
    for shape in shapes:
        size = math.prod(shape)
        end = pos + 4 * size
        if end > len(blob):
            raise ValueError(f"{path}: truncated checkpoint")
        params.append(np.frombuffer(blob, dtype="<f4", count=size, offset=pos)
                      .reshape(shape).copy())
        pos = end
    if pos != len(blob):
        raise ValueError(f"{path}: trailing bytes in checkpoint")
    return header, params
