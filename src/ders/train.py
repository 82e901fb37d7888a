"""Exact-gradient training on synthetic tasks.

Gradients are hand-derived reverse-mode derivatives computed from the forward
tape — no autograd. One FFN backward, ``_ffn_backward``, serves every FFN the
forward ran (dense block, routed expert, member N+1, parallel universal FFN)
and returns (dX, dW_in, dW_out); the caller lands the weight gradients in one
flat buffer per dtype (:class:`GradLayout`). Special cases the MoE stack needs:

* the top-k routing mask is treated as a constant (straight-through): task-loss
  gradient flows only through surviving softmax entries;
* a group member's (a routed expert's or member N+1's) weight gradient dW lands
  on its delta's trainable arrays as ``DeltaWeight.weight_grads`` says, and on a
  trainable shared base whole: experts in index order, then member N+1;
* a dense block's or parallel universal FFN's gradients land on its own
  ``w_in`` and ``w_out``;
* frozen parameters (vanilla/compressed bases, frozen shared FFNs, quantized
  payloads) get no gradient entry at all.

The auxiliary load-balance penalty is N·Σᵢ fractionᵢ·mean_probᵢ with the
dispatch fraction treated as a constant; its coefficient is configurable and 0
disables it.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import cached_property

import numpy as np

from . import numkern
from .errors import ConfigError, NumericError, ParameterError
from .moe import (
    Model,
    MoELayer,
    act_grad,
    check_fields,
    copy_model,
    forward_tape,
    missing_field,
    model_forward,
    named_parameters,
)

TASK_KINDS = ("cluster_regression", "modular_classification")
OPTIMIZERS = ("sgd", "adam")
SCHEDULES = ("constant", "cosine", "linear")


# ---------------------------------------------------------------------------
# Synthetic tasks
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SyntheticTask:
    """A deterministic synthetic data generator with disjoint train/eval splits.

    ``cluster_regression``: inputs are drawn around one of ``n_clusters``
    centers; the target is tanh(x · A_c) for a cluster-specific map A_c (plus
    optional label noise), so per-cluster expert specialization helps. The
    ``shift`` knob perturbs every map by ``shift``·G(shift_seed), producing a
    related-but-different task for fine-tuning experiments.

    ``modular_classification``: inputs are one-hot pairs (a, b), the label is
    (a+b) mod m with m = n_clusters; the pair universe is split 80/20 into
    disjoint train/eval sets.

    The task data each derives from its fields (centers and maps, pair split,
    eval set) is built on first use and kept, so equality and hashing see the
    fields only.
    """

    kind: str
    d: int
    n_clusters: int
    seed: int
    out_width: int = 4
    noise: float = 0.0
    spread: float = 2.0
    shift: float = 0.0
    shift_seed: int = 0
    eval_size: int = 256

    def __post_init__(self):
        check_fields(self, d=1, n_clusters=1, out_width=1, eval_size=1, noise=0, seed=0)
        if self.kind not in TASK_KINDS:
            raise ConfigError(f"kind must be one of {TASK_KINDS}, got {self.kind!r}")
        if self.kind == "modular_classification":
            if self.shift != 0.0:
                raise ConfigError("shift applies to cluster_regression only")
            if self.n_clusters < 2:
                raise ConfigError(
                    f"n_clusters must be >= 2 for modular_classification, got {self.n_clusters}"
                )

    # -- shared task data ---------------------------------------------------

    @property
    def in_width(self) -> int:
        return self.d if self.kind == "cluster_regression" else 2 * self.n_clusters

    @property
    def target_width(self) -> int:
        return self.out_width if self.kind == "cluster_regression" else self.n_clusters

    @property
    def loss_kind(self) -> str:
        return "mse" if self.kind == "cluster_regression" else "ce"

    @cached_property
    def _centers_and_maps(self):
        g = numkern.RngStream(self.seed, numkern.derive_stream_id("task", "centers")).generator
        centers = self.spread * g.standard_normal((self.n_clusters, self.d))
        g = numkern.RngStream(self.seed, numkern.derive_stream_id("task", "maps")).generator
        maps = g.standard_normal((self.n_clusters, self.d, self.out_width)) / np.sqrt(self.d)
        if self.shift != 0.0:
            gs = numkern.RngStream(
                self.seed, numkern.derive_stream_id("task", "shift", self.shift_seed)
            ).generator
            maps = maps + (
                self.shift
                * gs.standard_normal((self.n_clusters, self.d, self.out_width))
                / np.sqrt(self.d)
            )
        return centers, maps

    @cached_property
    def _pair_split(self):
        m = self.n_clusters
        pairs = np.array([(a, b) for a in range(m) for b in range(m)], dtype=np.int64)
        g = numkern.RngStream(self.seed, numkern.derive_stream_id("task", "split")).generator
        order = g.permutation(len(pairs))
        n_eval = max(1, len(pairs) // 5)
        return pairs[order[n_eval:]], pairs[order[:n_eval]]

    def _onehot_pairs(self, pairs: np.ndarray) -> np.ndarray:
        m = self.n_clusters
        x = np.zeros((len(pairs), 2 * m), dtype=np.float64)
        x[np.arange(len(pairs)), pairs[:, 0]] = 1.0
        x[np.arange(len(pairs)), m + pairs[:, 1]] = 1.0
        return x

    def _regression_sample(self, n: int, rng: numkern.RngStream):
        centers, maps = self._centers_and_maps
        g = rng.generator
        c = g.integers(0, self.n_clusters, size=n)
        x = centers[c] + g.standard_normal((n, self.d))
        y = np.zeros((n, self.out_width), dtype=x.dtype)
        for ci in range(self.n_clusters):
            rows = np.flatnonzero(c == ci)
            if rows.size:
                y[rows] = np.tanh(numkern.matmul(x[rows], maps[ci]))
        if self.noise > 0.0:
            y = y + (self.noise * g.standard_normal(y.shape)).astype(x.dtype)
        return x, y

    # -- public sampling API --------------------------------------------------

    def sample_train(self, n: int, rng: numkern.RngStream):
        if n < 1:
            raise ParameterError("batch size must be >= 1")
        if self.kind == "cluster_regression":
            return self._regression_sample(n, rng)
        train_pairs, _ = self._pair_split
        picks = rng.generator.integers(0, len(train_pairs), size=n)
        pairs = train_pairs[picks]
        labels = (pairs[:, 0] + pairs[:, 1]) % self.n_clusters
        return self._onehot_pairs(pairs), labels

    @cached_property
    def _eval_set(self):
        if self.kind == "cluster_regression":
            rng = numkern.RngStream(self.seed, numkern.derive_stream_id("task", "eval"))
            return self._regression_sample(self.eval_size, rng)
        _, eval_pairs = self._pair_split
        return self._onehot_pairs(eval_pairs), (eval_pairs[:, 0] + eval_pairs[:, 1]) % self.n_clusters

    def eval_set(self):
        return self._eval_set


def make_task(kind: str, params: dict, seed: int) -> SyntheticTask:
    """The task ``kind`` with ``params``: any :class:`SyntheticTask` field but
    ``kind`` and ``seed``, each required unless it has a default."""
    allowed = {f.name for f in fields(SyntheticTask)} - {"kind", "seed"}
    unknown = set(params) - allowed
    if unknown:
        raise ConfigError(f"unknown task parameters: {sorted(unknown)}")
    missing = missing_field(SyntheticTask, {*params, "kind", "seed"})
    if missing:
        raise ConfigError(f"task parameter '{missing}' is required")
    return SyntheticTask(kind=kind, seed=seed, **params)


# ---------------------------------------------------------------------------
# Losses and metrics
# ---------------------------------------------------------------------------


def _log_softmax(pred: np.ndarray) -> np.ndarray:
    shifted = pred - np.max(pred, axis=1, keepdims=True)
    return shifted - np.log(np.sum(np.exp(shifted), axis=1, keepdims=True))


def task_loss_and_grad(pred: np.ndarray, y, loss_kind: str):
    """(loss, dLoss/dPred). MSE is mean over the batch, summed over outputs."""
    b = pred.shape[0]
    if loss_kind == "mse":
        r = pred - y
        loss = float(np.sum(r * r) / b)
        return loss, (2.0 / b) * r
    if loss_kind == "ce":
        logp = _log_softmax(pred)
        labels = np.asarray(y, dtype=np.int64)
        loss = float(-np.sum(logp[np.arange(b), labels]) / b)
        dpred = np.exp(logp)
        dpred[np.arange(b), labels] -= 1.0
        return loss, dpred / b
    raise ParameterError(f"unknown loss kind {loss_kind!r}")


def eval_metric(pred: np.ndarray, y, kind: str) -> float:
    """Higher-is-better score in points (0–100).

    Regression: 100·max(0, R²) against the eval set's per-column mean.
    Classification: accuracy percentage.
    """
    if kind == "cluster_regression":
        sse = float(np.sum((pred - y) ** 2))
        sst = float(np.sum((y - y.mean(axis=0, keepdims=True)) ** 2))
        if sst == 0.0:
            return 100.0 if sse == 0.0 else 0.0
        return 100.0 * max(0.0, 1.0 - sse / sst)
    if kind == "modular_classification":
        labels = np.asarray(y, dtype=np.int64)
        return 100.0 * float(np.mean(np.argmax(pred, axis=1) == labels))
    raise ParameterError(f"unknown task kind {kind!r}")


def evaluate(model: Model, task: SyntheticTask) -> float:
    x, y = task.eval_set()
    return eval_metric(model_forward(model, x), y, task.kind)


# ---------------------------------------------------------------------------
# Backward pass
# ---------------------------------------------------------------------------


def _ffn_backward(rec: dict, d_out: np.ndarray):
    """(d_x, d_w_in, d_w_out) of one FFN forward that recorded ``rec``; the
    caller lands the weight gradients where its weights live."""
    d_a = numkern.matmul(d_out, rec["w_out"].T)
    d_w_out = numkern.matmul(rec["a"].T, d_out)
    d_h = d_a * act_grad(rec["activation"], rec["h"])
    d_w_in = numkern.matmul(rec["x"].T, d_h)
    return numkern.matmul(d_h, rec["w_in"].T), d_w_in, d_w_out


def _land_member(buffers: dict, layer: MoELayer, i: int, d_w_in, d_w_out) -> None:
    """Land group member i's weight gradients in ``buffers`` (keyed by the id
    of the live array): the trainable base takes them whole, delta i as its
    form says."""
    for group, d_w in ((layer.group_in, d_w_in), (layer.group_out, d_w_out)):
        if layer.trainable_base:
            buffers[id(group.base)] += d_w
        delta = group.deltas[i]
        for field, grad in delta.weight_grads(d_w):
            buffers[id(getattr(delta, field))] += grad


def _moe_backward(
    buffers: dict, layer: MoELayer, tape: dict, d_y: np.ndarray, aux_coeff: float
) -> np.ndarray:
    x = tape["x"]
    probs = tape["probs"]
    scores = tape["scores"]
    b = x.shape[0]
    d_x = np.zeros_like(x)
    d_scores = np.zeros_like(scores)
    for i, rec in enumerate(tape["experts"]):
        if rec is None:
            continue
        rows = rec["rows"]
        d_scores[rows, i] = np.sum(d_y[rows] * rec["out"], axis=1)
        d_rows, d_w_in, d_w_out = _ffn_backward(rec, scores[rows, i : i + 1] * d_y[rows])
        d_x[rows] += d_rows
        _land_member(buffers, layer, i, d_w_in, d_w_out)
    uni = tape["universal"]
    if uni is not None:
        d_uni, d_w_in, d_w_out = _ffn_backward(uni, d_y)
        d_x += d_uni
        if layer.extended:
            _land_member(buffers, layer, layer.n_experts, d_w_in, d_w_out)
        else:
            buffers[id(layer.universal.w_in)] += d_w_in
            buffers[id(layer.universal.w_out)] += d_w_out
    # Straight-through top-k: only surviving entries carry task-loss gradient.
    d_probs = np.where(scores != 0.0, d_scores, 0.0)
    if aux_coeff != 0.0:
        # aux = N · Σ_i fraction_i · mean_prob_i, fraction treated constant.
        fraction = np.mean(scores != 0.0, axis=0)
        d_probs = d_probs + aux_coeff * layer.n_experts * fraction / b
    d_logits = probs * (d_probs - np.sum(d_probs * probs, axis=1, keepdims=True))
    buffers[id(layer.router.w_r)] += numkern.matmul(x.T, d_logits)
    d_x += numkern.matmul(d_logits, layer.router.w_r.T)
    return d_x


def _aux_loss(tape: dict, model: Model) -> float:
    total = 0.0
    for block, block_tape in zip(model.blocks, tape["blocks"]):
        if not isinstance(block, MoELayer):
            continue
        probs = block_tape["probs"]
        scores = block_tape["scores"]
        fraction = np.mean(scores != 0.0, axis=0)
        mean_prob = np.mean(probs, axis=0)
        total += float(block.n_experts * np.sum(fraction * mean_prob))
    return total


class GradLayout:
    """One flat gradient buffer per dtype, ``flats``, over ``params`` (a
    :func:`ders.moe.named_parameters` walk) in walk order. ``grads`` maps each
    name, and ``buffers`` the id of each live array, to its view of a buffer."""

    def __init__(self, params: list[tuple[str, np.ndarray]]):
        self.params, sizes, starts = params, {}, []
        for _, arr in params:
            starts.append(sizes.get(arr.dtype, 0))
            sizes[arr.dtype] = starts[-1] + arr.size
        self.flats = {dtype: np.zeros(size, dtype) for dtype, size in sizes.items()}
        self.grads = {name: self.flats[arr.dtype][start : start + arr.size].reshape(arr.shape)
                      for (name, arr), start in zip(params, starts)}
        self.buffers = {id(arr): grad for (_, arr), grad in zip(params, self.grads.values())}


def loss_and_grads(model: Model, batch, task: SyntheticTask, aux_loss_coeff: float = 0.0):
    """Total loss (task + aux_loss_coeff · balance penalty) and exact gradients.

    Returns ``(loss, grads)`` where ``grads`` maps every trainable parameter
    name (exactly the :func:`ders.moe.named_parameters` set) to its gradient.
    Components are available via :func:`loss_parts`.
    """
    loss, _, grads = loss_parts(model, batch, task, aux_loss_coeff)
    return loss, grads


def loss_parts(model: Model, batch, task: SyntheticTask, aux_loss_coeff: float = 0.0, layout=None):
    """(total_loss, (task_loss, aux_raw), grads) — the full training quantity.
    ``grads`` are views of ``layout``, a :class:`GradLayout` of the model's
    parameters, valid until its next step or call; by default a fresh one."""
    x, y = batch
    pred, tape = forward_tape(model, x)
    if task.loss_kind == "mse":
        y = np.asarray(y, dtype=pred.dtype)  # regression targets in the model's dtype
    task_loss, d_pred = task_loss_and_grad(pred, y, task.loss_kind)
    aux_raw = _aux_loss(tape, model) if aux_loss_coeff != 0.0 else 0.0
    total = task_loss + aux_loss_coeff * aux_raw
    if not np.isfinite(total):
        raise NumericError(f"non-finite loss {total!r} at the readout")

    layout = layout or GradLayout(named_parameters(model))
    for flat in layout.flats.values():
        flat.fill(0)
    buffers = layout.buffers  # keyed by the live parameter array while backprop lands them
    buffers[id(model.readout)] += numkern.matmul(tape["h_final"].T, d_pred)
    d_h = numkern.matmul(d_pred, model.readout.T)
    for block, rec in zip(reversed(model.blocks), reversed(tape["blocks"])):
        if isinstance(block, MoELayer):
            d_block_in = _moe_backward(buffers, block, rec, d_h, aux_loss_coeff)
        else:
            d_block_in, d_w_in, d_w_out = _ffn_backward(rec, d_h)
            buffers[id(block.ffn.w_in)] += d_w_in
            buffers[id(block.ffn.w_out)] += d_w_out
        d_h = d_h + d_block_in  # residual path
    buffers[id(model.embed)] += numkern.matmul(tape["x_in"].T, d_h)
    if not all(np.isfinite(flat).all() for flat in layout.flats.values()):
        for name, grad in layout.grads.items():  # name the first non-finite one
            numkern.check_finite(grad, f"the gradient of {name}")
    return total, (task_loss, aux_raw), layout.grads


# ---------------------------------------------------------------------------
# Optimizers and the training loop
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TrainConfig:
    steps: int
    batch_size: int = 32
    lr: float = 1e-2
    optimizer: str = "adam"
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    aux_loss_coeff: float = 0.01
    schedule: str = "constant"
    eval_every: int = 50
    seed: int = 0

    def __post_init__(self):
        check_fields(self, steps=1, batch_size=1, eval_every=1, lr=0, aux_loss_coeff=0, seed=0)
        if self.optimizer not in OPTIMIZERS:
            raise ConfigError(f"optimizer must be one of {OPTIMIZERS}, got {self.optimizer!r}")
        for name in ("beta1", "beta2"):
            if not 0.0 <= getattr(self, name) < 1.0:
                raise ConfigError(f"{name} must lie in [0, 1), got {getattr(self, name)!r}")
        if self.eps <= 0:
            raise ConfigError(f"eps must be > 0, got {self.eps!r}")
        if self.schedule not in SCHEDULES:
            raise ConfigError(f"schedule must be one of {SCHEDULES}, got {self.schedule!r}")


def optimizer_state(layout: GradLayout) -> dict:
    """Adam's state for ``layout``: per dtype, ``(m, v, scratch)``, each as
    long as that dtype's flat gradient buffer and zero."""
    return {dtype: tuple(np.zeros_like(g) for _ in range(3)) for dtype, g in layout.flats.items()}


def _optimizer_step(cfg: TrainConfig, layout: GradLayout, state: dict, t: int, lr: float):
    """Step ``t`` of SGD or Adam, whose ``state`` is :func:`optimizer_state`:
    each flat gradient buffer turns into its update, which each parameter
    subtracts. Adam evaluates ``lr·(m/b1t) / (√(v/b2t) + eps)`` operation by
    operation in its scratch buffer and the gradient's own."""
    b1t, b2t = 1.0 - cfg.beta1**t, 1.0 - cfg.beta2**t
    for dtype, g in layout.flats.items():
        if cfg.optimizer == "sgd":
            g *= lr
            continue
        m, v, s = state[dtype]
        m *= cfg.beta1
        m += np.multiply(1.0 - cfg.beta1, g, out=s)
        v *= cfg.beta2
        np.multiply(g, g, out=s)
        s *= 1.0 - cfg.beta2
        v += s
        np.divide(v, b2t, out=s)
        np.sqrt(s, out=s)
        s += cfg.eps
        np.divide(m, b1t, out=g)
        g *= lr
        g /= s
    for (_, arr), update in zip(layout.params, layout.grads.values()):
        arr -= update


def _lr_at(cfg: TrainConfig, step: int) -> float:
    progress = (step - 1) / cfg.steps
    if cfg.schedule == "constant":
        return cfg.lr
    if cfg.schedule == "cosine":
        return cfg.lr * 0.5 * (1.0 + float(np.cos(np.pi * progress)))
    return cfg.lr * (1.0 - progress)  # linear


@dataclass
class TrainResult:
    model: Model
    best_model: Model
    best_metric: float
    trace: list


def train_loop(model: Model, task: SyntheticTask, cfg: TrainConfig) -> TrainResult:
    """Deterministic training; the input model is left untouched.

    The trace has one row per step: {step, loss, aux_loss, eval_metric} with
    eval_metric empty except at evaluation steps (every ``eval_every`` steps
    and at the end). Returns the final model plus the best-eval checkpoint.
    Every step lands its gradients in one :class:`GradLayout`, walked once.
    """
    if model.in_width != task.in_width or model.out_width != task.target_width:
        raise ConfigError(
            f"model io ({model.in_width}->{model.out_width}) does not fit task "
            f"io ({task.in_width}->{task.target_width})"
        )
    model = copy_model(model)
    layout = GradLayout(named_parameters(model))
    state = optimizer_state(layout)
    trace: list[dict] = []
    best_metric = -np.inf
    best_model = copy_model(model)
    try:
        for step in range(1, cfg.steps + 1):
            rng = numkern.RngStream(cfg.seed, numkern.derive_stream_id("batch", step))
            batch = task.sample_train(cfg.batch_size, rng)
            total, (_, aux_raw), _ = loss_parts(model, batch, task, cfg.aux_loss_coeff, layout)
            _optimizer_step(cfg, layout, state, step, _lr_at(cfg, step))
            row = {"step": step, "loss": total, "aux_loss": aux_raw, "eval_metric": ""}
            if step % cfg.eval_every == 0 or step == cfg.steps:
                metric = evaluate(model, task)
                row["eval_metric"] = metric
                if metric > best_metric:
                    best_metric = metric
                    best_model = copy_model(model)
            trace.append(row)
    except NumericError as e:
        e.trace = trace  # divergence: abort, keep the partial trace attached
        raise
    return TrainResult(model=model, best_model=best_model, best_metric=best_metric, trace=trace)
