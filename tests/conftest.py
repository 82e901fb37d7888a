"""Shared fixtures and oracles."""

import csv
import io
import json
import struct
from dataclasses import fields, is_dataclass, replace

import numpy as np

from ders import cli, numkern, train
from ders.checkpoint import save_model
from ders.deltas import (
    ExpertGroup,
    init_lowrank_trainable,
    init_sparse_trainable,
    sparse_keep_count,
)
from ders.errors import ParameterError
from ders.moe import (
    _GELU_A,
    _GELU_C,
    FFN,
    DenseBlock,
    MoELayer,
    Router,
    _moe_forward,
    act_forward,
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


def gelu_oracle(x: np.ndarray) -> np.ndarray:
    """The tanh GELU as one expression, 0.5·x·(1 + tanh(C·(x + A·x·x·x))),
    evaluated left to right by numpy with a fresh temporary per operation."""
    u = _GELU_C * (x + _GELU_A * x * x * x)
    return 0.5 * x * (1.0 + np.tanh(u))


def gelu_grad_oracle(x: np.ndarray) -> np.ndarray:
    """The tanh GELU's derivative as one expression, evaluated left to right by
    numpy with a fresh temporary per operation."""
    u = _GELU_C * (x + _GELU_A * x * x * x)
    t = np.tanh(u)
    return 0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * _GELU_C * (1.0 + 3.0 * _GELU_A * x * x)


def cli_report(tmp_path, model, command, fmt):
    """The text that ``ders <command> --format <fmt>`` writes for ``model``:
    ``report-params`` (params.*) or ``analyze-similarity`` (similarity.*)."""
    ckpt = str(tmp_path / "model.ckpt")
    save_model(model, ckpt)
    assert cli.main([command, "--ckpt", ckpt, "--format", fmt, "--out", str(tmp_path)]) == 0
    stem = {"report-params": "params", "analyze-similarity": "similarity"}[command]
    with open(tmp_path / f"{stem}.{fmt}", encoding="utf-8") as fh:
        return fh.read()


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


HEADER_LEVELS = ("top", "model", "block", "group", "delta", "record")


def header_level(header, level):
    """The key path ("" for the header itself) of an entry at ``level``, one
    of :data:`HEADER_LEVELS`, of a parsed header with a MoE block, and the
    entry."""
    j = next(j for j, b in enumerate(header["model"]["blocks"]) if b["kind"] == "moe")
    block = f"model.blocks.{j}"
    path = {
        "top": "",
        "model": "model",
        "block": block,
        "group": f"{block}.group_in",
        "delta": f"{block}.group_in.deltas.1",
        "record": "records.2",
    }[level]
    entry = header
    for part in filter(None, path.split(".")):
        entry = entry[int(part)] if isinstance(entry, list) else entry[part]
    return path, entry


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


# ---------------------------------------------------------------------------
# The per-artifact text emitters that ``cli._write_csv`` and ``cli._write_json``
# replaced, kept as the oracles of those two writers' bytes.
# ---------------------------------------------------------------------------


def report_to_json(report):
    return json.dumps(report.to_dict(), indent=2, sort_keys=True)


_CSV_FIELDS = (
    "name",
    "kind",
    "trainable_values",
    "stored_values",
    "stored_bits",
    "index_overhead_bits",
    "scale_overhead_bits",
    "equivalent_expert_ratio",
)


def report_to_csv(report):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(_CSV_FIELDS)
    for row in list(report.layers) + [report.totals]:
        ratio = row.equivalent_expert_ratio
        writer.writerow(
            [
                row.name,
                row.kind,
                row.trainable_values,
                row.stored_values,
                row.stored_bits,
                row.index_overhead_bits,
                row.scale_overhead_bits,
                "" if ratio is None else repr(ratio),
            ]
        )
    return buf.getvalue()


def similarity_to_csv(report):
    buf = io.StringIO()
    buf.write(f"# {report.note}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["block", "matrix", "row", "col", "value"])
    for layer in report.layers:
        for tag in ("w_in", "w_out", "mean"):
            mat = layer.cosine[tag]
            mask = layer.undefined[tag]
            for a, row_label in enumerate(layer.labels):
                for b, col_label in enumerate(layer.labels):
                    value = "undefined" if mask[a, b] else repr(float(mat[a, b]))
                    writer.writerow([layer.block, tag, row_label, col_label, value])
    return buf.getvalue()


def similarity_to_json(report):
    return json.dumps(report.to_dict(), indent=2, sort_keys=True)


def _float_cell(value) -> str:
    return repr(float(value))


def metrics_csv(trace):
    lines = ["step,loss,aux_loss,eval_metric"]
    for row in trace:
        metric = row["eval_metric"]
        lines.append(
            ",".join(
                [
                    str(row["step"]),
                    _float_cell(row["loss"]),
                    _float_cell(row["aux_loss"]),
                    "" if metric == "" else _float_cell(metric),
                ]
            )
        )
    return "\n".join(lines) + "\n"


def json_bytes(data) -> bytes:
    return (json.dumps(data, indent=2, sort_keys=True) + "\n").encode()


def sweep_csv(cells):
    """``sweep.csv`` from each row's (kind, value, eval metric, three counts),
    joined as the emitter's ``_sweep_row`` lines were."""
    lines = ["kind,value,eval_metric,stored_values,stored_bits,trainable_values"]
    for kind, value, metric, *counts in cells:
        lines.append(",".join([kind, str(value), _float_cell(metric), *map(str, counts)]))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# The hand-written checkpoint topology walk and the two per-form header dicts
# that ``checkpoint._entry``, over each class's annotated fields, replaced,
# kept as the oracle of the header a checkpoint writes.
# ---------------------------------------------------------------------------

DELTA_HEADERS = {
    "sparse": {"rows": int, "cols": int, "rescale": float},
    "quantized": {"rows": int, "cols": int, "bit_width": int, "scale": float},
}


def _descriptor(delta):
    header = DELTA_HEADERS.get(delta.kind, {})
    return {"kind": delta.kind, **{key: getattr(delta, key) for key in header}}


def topology_oracle(model):
    """The ``model`` entry of the checkpoint header of ``model``."""
    blocks = []
    for block in model.blocks:
        if isinstance(block, DenseBlock):
            blocks.append({"kind": "dense", "activation": block.ffn.activation})
            continue
        alias = "alias" if block.method == "vanilla" else None
        blocks.append(
            {
                "kind": "moe",
                "n_experts": block.n_experts,
                "topk_count": block.router.topk_count,
                "activation": block.activation,
                "extended": block.extended,
                "trainable_base": block.trainable_base,
                "method": block.method,
                "universal": (
                    None if block.universal is None else {"activation": block.universal.activation}
                ),
                "init_base_in": alias,
                "init_base_out": alias,
                "group_in": {"deltas": [_descriptor(d) for d in block.group_in.deltas]},
                "group_out": {"deltas": [_descriptor(d) for d in block.group_out.deltas]},
            }
        )
    return {
        "d": model.d,
        "d_h": model.d_h,
        "in_width": model.in_width,
        "out_width": model.out_width,
        "ancestor_params": model.ancestor_params,
        "activation": model.activation,
        "blocks": blocks,
    }


# ---------------------------------------------------------------------------
# The stable-argsort top-k and the per-expert MoE loop that ``numkern.topk_mask``
# and ``moe._moe_forward`` replaced, kept as the oracles of their bytes.
# ---------------------------------------------------------------------------


def argsort_topk_mask(arr: np.ndarray, topk_count: int) -> np.ndarray:
    """Zero all but the ``topk_count`` first entries of each row of a 2-D
    ``arr`` in a stable sort of ``-arr``."""
    order = np.argsort(-arr, axis=1, kind="stable")
    keep = np.zeros(arr.shape, dtype=bool)
    keep[np.arange(arr.shape[0])[:, None], order[:, :topk_count]] = True
    return np.where(keep, arr, np.zeros((), dtype=arr.dtype))


def _fresh_ffn(x, w_in, w_out, activation):
    """act(x · w_in) · w_out with the activation in a fresh array."""
    return numkern.matmul(act_forward(activation, numkern.matmul(x, w_in)), w_out)


def per_expert_moe_forward(layer: MoELayer, x: np.ndarray) -> np.ndarray:
    """The MoE block output by one mask per routed expert, argsort routing and
    a fresh activation array per FFN."""
    probs = numkern.softmax(numkern.matmul(x, layer.router.w_r))
    scores = argsort_topk_mask(probs, layer.router.topk_count)
    n = layer.n_experts
    y = np.zeros((x.shape[0], layer.group_out.base.shape[1]), dtype=x.dtype)
    routed = scores != 0.0
    for i in np.flatnonzero(routed.any(axis=0)):
        rows = np.flatnonzero(routed[:, i])
        out = _fresh_ffn(x[rows], *layer.synthesized_weights(i), layer.activation)
        y[rows] += scores[rows, i : i + 1] * out
    if layer.extended:
        y += _fresh_ffn(x, *layer.synthesized_weights(n), layer.activation)
    elif layer.universal is not None:
        uni = layer.universal
        y += _fresh_ffn(x, uni.w_in, uni.w_out, uni.activation)
    return y


def oracle_model_forward(model, batch: np.ndarray) -> np.ndarray:
    """``model_forward`` of a 2-D batch through :func:`per_expert_moe_forward`
    and fresh-activation dense blocks."""
    h = numkern.matmul(np.asarray(batch, dtype=model.embed.dtype), model.embed)
    for block in model.blocks:
        if isinstance(block, MoELayer):
            out = per_expert_moe_forward(block, h)
        else:
            out = _fresh_ffn(h, block.ffn.w_in, block.ffn.w_out, block.ffn.activation)
        h = h + out
    return numkern.matmul(h, model.readout)


def cast_floats(model, dtype):
    """A copy of ``model`` with every float array, at any depth, cast to
    ``dtype``: each dataclass is rebuilt, since the expert groups and deltas
    are frozen."""

    def cast(value):
        if isinstance(value, np.ndarray) and value.dtype.kind == "f":
            return value.astype(dtype)
        if isinstance(value, (list, tuple)):
            return type(value)(map(cast, value))
        if is_dataclass(value):
            return replace(value, **{f.name: cast(getattr(value, f.name)) for f in fields(value) if f.init})
        return value

    return cast(copy_model(model))
