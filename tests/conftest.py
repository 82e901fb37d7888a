"""Shared fixtures and oracles."""

import json
import struct

import numpy as np

from ders import train
from ders.deltas import (
    ExpertGroup,
    init_lowrank_trainable,
    init_sparse_trainable,
    sparse_keep_count,
)
from ders.errors import ParameterError
from ders.moe import (
    FFN,
    MoELayer,
    Router,
    _moe_forward,
    build_dense_model,
    copy_model,
    forward_tape,
    named_parameters,
)
from ders.numkern import RngStream, derive_stream_id


def triple_loop_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Independent naive oracle: scalar accumulation, k innermost."""
    n, inner = a.shape
    inner2, m = b.shape
    assert inner == inner2
    out = np.zeros((n, m), dtype=np.result_type(a, b))
    for i in range(n):
        for j in range(m):
            acc = out.dtype.type(0)
            for k in range(inner):
                acc += a[i, k] * b[k, j]
            out[i, j] = acc
    return out


def rng_mat(shape, seed, scale=1.0):
    g = np.random.default_rng(seed)
    return scale * g.standard_normal(shape)


def edit_header(path, edit, dest):
    """Write to ``dest`` checkpoint ``path`` with its JSON header changed in
    place by ``edit``, or replaced by what ``edit`` returns if not None, the
    header length fixed up."""
    with open(path, "rb") as fh:
        blob = fh.read()
    (header_len,) = struct.unpack_from("<I", blob, 8)
    header = json.loads(blob[12 : 12 + header_len])
    replaced = edit(header)
    if replaced is not None:
        header = replaced
    edited = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    with open(dest, "wb") as fh:
        fh.write(blob[:8] + struct.pack("<I", len(edited)) + edited + blob[12 + header_len :])


def to_float32(dense):
    """A copy of a dense model with every matrix cast to float32."""
    out = copy_model(dense)
    out.embed = out.embed.astype(np.float32)
    out.readout = out.readout.astype(np.float32)
    for block in out.blocks:
        block.ffn.w_in = block.ffn.w_in.astype(np.float32)
        block.ffn.w_out = block.ffn.w_out.astype(np.float32)
    return out


def build_mixed_moe_model(seed: int, d=5, d_h=7, n=3):
    """Dense block + sparse-delta MoE (with universal FFN) + low-rank MoE (extended).

    Covers every trainable parameter class in one model: dense FFN weights,
    router, shared bases, sparse values, low-rank A/B factors, a separate
    universal FFN, a folded always-active delta, embed and readout. Parameters
    get a small random nudge so no gradient path sits at an exact zero.
    """
    dense = build_dense_model(d=d, d_h=d_h, depth=3, in_width=4, out_width=3, seed=seed)
    m = dense

    def stream(*parts):
        return RngStream(seed, derive_stream_id(*parts))

    def router(idx):
        w = stream("frk_router", idx).generator.uniform(-0.5, 0.5, (d, n))
        return Router(w, 2)

    def sparse(rows, cols, tag, i):
        return init_sparse_trainable(rows, cols, 0.6, stream("sm", tag, i), np.float64)

    def lowrank(rows, cols, tag, i):
        return init_lowrank_trainable(rows, cols, 2, stream("lm", tag, i), np.float64)

    ffn1 = m.blocks[1].ffn
    sm_layer = MoELayer(
        router=router(1),
        group_in=ExpertGroup(
            ffn1.w_in.copy(),
            [sparse(d, d_h, "in", i) for i in range(n)],
        ),
        group_out=ExpertGroup(
            ffn1.w_out.copy(),
            [sparse(d_h, d, "out", i) for i in range(n)],
        ),
        n_experts=n,
        universal=FFN(ffn1.w_in.copy(), ffn1.w_out.copy(), ffn1.activation),
        trainable_base=True,
        method="ders_sm",
    )
    ffn2 = m.blocks[2].ffn
    lm_layer = MoELayer(
        router=router(2),
        group_in=ExpertGroup(
            ffn2.w_in.copy(),
            [lowrank(d, d_h, "in", i) for i in range(n + 1)],
        ),
        group_out=ExpertGroup(
            ffn2.w_out.copy(),
            [lowrank(d_h, d, "out", i) for i in range(n + 1)],
        ),
        n_experts=n,
        extended=True,
        trainable_base=True,
        method="ders_lm",
    )
    m.blocks[1] = sm_layer
    m.blocks[2] = lm_layer
    nudge = stream("nudge").generator
    for _, arr in named_parameters(m):
        arr += 0.05 * nudge.standard_normal(arr.shape)
    return m


def loss_only(model, batch, task, aux_coeff):
    x, y = batch
    pred, tape = forward_tape(model, x)
    task_loss, _ = train.task_loss_and_grad(pred, y, task.loss_kind)
    aux = train._aux_loss(tape, model) if aux_coeff else 0.0
    return task_loss + aux_coeff * aux


def fd_worst_relative_error(model, batch, task, aux_coeff, h=1e-5):
    """Max relative error between analytic and central-difference gradients,
    over every entry of every trainable parameter."""
    _, grads = train.loss_and_grads(model, batch, task, aux_coeff)
    worst = 0.0
    for name, arr in named_parameters(model):
        flat = arr.ravel()
        gflat = grads[name].ravel()
        for idx in range(flat.size):
            orig = flat[idx]
            flat[idx] = orig + h
            lp = loss_only(model, batch, task, aux_coeff)
            flat[idx] = orig - h
            lm = loss_only(model, batch, task, aux_coeff)
            flat[idx] = orig
            fd = (lp - lm) / (2.0 * h)
            rel = abs(fd - gflat[idx]) / max(abs(fd), abs(gflat[idx]), 1e-8)
            worst = max(worst, rel)
    return worst


def routing_masks(model, batch):
    """The top-k survivor pattern of every MoE layer for a batch."""
    x, _ = batch
    _, tape = forward_tape(model, x)
    return [
        (bt["scores"] != 0.0) for bt in tape["blocks"] if bt is not None and bt["kind"] == "moe"
    ]


def trainable_count(model):
    """Total trainable values (sum over the parameter registry)."""
    return sum(int(arr.size) for _, arr in named_parameters(model))


def moe_forward(layer: MoELayer, x: np.ndarray) -> np.ndarray:
    """MoE block output for a single row vector or a batch (no residual)."""
    arr = np.asarray(x)
    if arr.ndim == 1:
        return _moe_forward(layer, arr.reshape(1, -1), None)[0]
    return _moe_forward(layer, arr, None)


def formula_check(entries, seed: int = 0) -> list[dict]:
    """Check the per-matrix counting laws against actually built containers.

    ``entries`` is an iterable of (d, d_h, n_experts, kind, value) tuples with
    kind "p" (sparse, value = drop rate) or "r" (low rank, value = rank). For
    each entry one d×d_h matrix group is built: a base plus n_experts deltas.
    Sparse law: (1 + n·(1−p))·d·d_h stored values, allowed to deviate by up to
    n from per-expert rounding. Low-rank law: d·d_h + n·r·(d+d_h), exact.
    """
    rows = []
    for idx, (d, d_h, n_experts, kind, value) in enumerate(entries):
        total = d * d_h
        walk = total  # the shared base matrix
        if kind == "p":
            formula = (1.0 + n_experts * (1.0 - value)) * total
            allowed = float(n_experts)
            for i in range(n_experts):
                if sparse_keep_count(d, d_h, value) == 0:
                    continue  # degenerate: nothing kept for this expert
                rng = RngStream(seed, derive_stream_id("formula", idx, i))
                delta = init_sparse_trainable(d, d_h, value, rng, np.float64)
                walk += delta.stored_values()
        elif kind == "r":
            formula = float(total + n_experts * value * (d + d_h))
            allowed = 0.0
            for i in range(n_experts):
                rng = RngStream(seed, derive_stream_id("formula", idx, i))
                delta = init_lowrank_trainable(d, d_h, value, rng, np.float64)
                walk += delta.stored_values()
        else:
            raise ParameterError(f"formula_check kind must be 'p' or 'r', got {kind!r}")
        deviation = abs(walk - formula)
        rows.append(
            {
                "d": d,
                "d_h": d_h,
                "n_experts": n_experts,
                "kind": kind,
                "value": value,
                "formula": formula,
                "walk": walk,
                "deviation": deviation,
                "allowed": allowed,
                "ok": deviation <= allowed,
            }
        )
    return rows


def reset_synthesis_counters(model):
    for block in model.blocks:
        if isinstance(block, MoELayer):
            block.synthesis_count = 0


class OracleSgd:
    """The per-array SGD step: the reference for ``train``'s flat-buffer one."""

    def __init__(self, cfg):
        self.cfg = cfg

    def step(self, params, grads, lr):
        for name, arr in params:
            arr -= lr * grads[name]


class OracleAdam:
    """The per-array Adam step, ``m`` and ``v`` kept per name: the reference
    for ``train``'s flat-buffer one."""

    def __init__(self, cfg):
        self.cfg = cfg
        self.t = 0
        self.m = {}
        self.v = {}

    def step(self, params, grads, lr):
        cfg = self.cfg
        self.t += 1
        b1t = 1.0 - cfg.beta1**self.t
        b2t = 1.0 - cfg.beta2**self.t
        for name, arr in params:
            g = grads[name]
            m = self.m.setdefault(name, np.zeros_like(arr))
            v = self.v.setdefault(name, np.zeros_like(arr))
            m *= cfg.beta1
            m += (1.0 - cfg.beta1) * g
            v *= cfg.beta2
            v += (1.0 - cfg.beta2) * (g * g)
            arr -= lr * (m / b1t) / (np.sqrt(v / b2t) + cfg.eps)


def oracle_train(model, task, cfg):
    """(final model, trace) of ``train.train_loop``'s steps, each driven by
    ``train.loss_parts`` without a caller's layout and by the per-array
    oracle optimizer."""
    model = copy_model(model)
    params = named_parameters(model)
    opt = OracleAdam(cfg) if cfg.optimizer == "adam" else OracleSgd(cfg)
    trace = []
    for step in range(1, cfg.steps + 1):
        batch = task.sample_train(cfg.batch_size, RngStream(cfg.seed, derive_stream_id("batch", step)))
        total, (_, aux_raw), grads = train.loss_parts(model, batch, task, cfg.aux_loss_coeff)
        opt.step(params, grads, train._lr_at(cfg, step))
        row = {"step": step, "loss": total, "aux_loss": aux_raw, "eval_metric": ""}
        if step % cfg.eval_every == 0 or step == cfg.steps:
            row["eval_metric"] = train.evaluate(model, task)
        trace.append(row)
    return model, trace
