"""Router, FFN, MoE layer, and model forward passes.

A model is a stack of residual blocks (plain FFN or MoE layer) between an embed
and a readout matrix. MoE routing follows the softmax-then-top-k convention:

    R(x) = TopK(softmax(x · W_R), k)        (no renormalization after masking)
    y    = Σ_i R(x)_i · E_i(x)              (+ universal FFN output if present)

Expert weights are synthesized on demand from the layer's shared base and the
expert's delta; experts whose routing score is zero are never materialized
(instrumented by a per-layer synthesis counter). The batched forward evaluates
rows independently with a fixed accumulation order, so a batch result equals
the stacked single-row results bit-for-bit.

Every FFN-shaped computation, act(x · W_in) · W_out, runs through one private
forward: a dense block, each routed expert on the rows routed to it, the
extended always-active member N+1, and the parallel universal FFN. On a tape it
records x, both weights, the activation, h, a and out, which is all that
``ders.train._ffn_backward`` reads.
"""

from __future__ import annotations

import copy
import numbers
import sys
from dataclasses import dataclass, fields

import numpy as np

from . import numkern
from .deltas import ExpertGroup, synthesize
from .errors import DimensionError, NumericError, ParameterError

ACTIVATIONS = ("gelu", "relu", "tanh", "identity")
METHODS = ("vanilla", "ders_sm", "ders_lm")

_GELU_C = 0.7978845608028654  # sqrt(2/pi)
_GELU_A = 0.044715


def act_forward(name: str, x: np.ndarray) -> np.ndarray:
    if name == "gelu":
        u = _GELU_C * (x + _GELU_A * x * x * x)
        return 0.5 * x * (1.0 + np.tanh(u))
    if name == "relu":
        return np.maximum(x, 0.0)
    if name == "tanh":
        return np.tanh(x)
    if name == "identity":
        return x
    raise ParameterError(f"unknown activation {name!r}; choose from {ACTIVATIONS}")


def act_grad(name: str, x: np.ndarray) -> np.ndarray:
    """Derivative of the activation, evaluated at the pre-activation x."""
    if name == "gelu":
        u = _GELU_C * (x + _GELU_A * x * x * x)
        t = np.tanh(u)
        return 0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * _GELU_C * (1.0 + 3.0 * _GELU_A * x * x)
    if name == "relu":
        return (x > 0).astype(x.dtype)
    if name == "tanh":
        t = np.tanh(x)
        return 1.0 - t * t
    if name == "identity":
        return np.ones_like(x)
    raise ParameterError(f"unknown activation {name!r}; choose from {ACTIVATIONS}")


# ---------------------------------------------------------------------------
# Types
# ---------------------------------------------------------------------------


# A scalar field's annotation -> (what the error says it must be, test). Every
# module declares ``from __future__ import annotations``, so an annotation is
# its source text. JSON reads NaN, Infinity and 1e400 as floats; none of them
# is a usable setting.
FIELD_TYPES = {
    "int": ("an integer", lambda v: isinstance(v, numbers.Integral) and not isinstance(v, bool)),
    "float": (
        "a finite number",
        lambda v: isinstance(v, numbers.Real)
        and not isinstance(v, bool)
        and abs(v) <= sys.float_info.max,
    ),
    "str": ("a string", lambda v: isinstance(v, str)),
    "bool": ("true or false", lambda v: isinstance(v, bool)),
}


def check_fields(obj, activation: str | None = None) -> None:
    """Check every field of the dataclass ``obj`` annotated ``int``, ``float``,
    ``str`` or ``bool`` by :data:`FIELD_TYPES`, and, if given, that
    ``activation`` is one of :data:`ACTIVATIONS`. Fields of any other
    annotation (arrays, nested objects) are left to the caller."""
    for f in fields(obj):
        rule = FIELD_TYPES.get(f.type)
        value = getattr(obj, f.name)
        if rule is not None and not rule[1](value):
            raise ParameterError(f"{f.name} must be {rule[0]}, got {value!r}")
    if activation is not None and activation not in ACTIVATIONS:
        raise ParameterError(f"unknown activation {activation!r}")


@dataclass
class Router:
    """Linear router: scores = TopK(softmax(x · w_r), topk_count)."""

    w_r: np.ndarray  # d × N
    topk_count: int

    def __post_init__(self):
        check_fields(self)
        if self.w_r.ndim != 2:
            raise DimensionError("router weight must be 2-D")
        if not 1 <= self.topk_count <= self.w_r.shape[1]:
            raise ParameterError(
                f"topk_count={self.topk_count} out of range [1, {self.w_r.shape[1]}]"
            )


@dataclass
class FFN:
    """Two-matrix feed-forward block: x -> act(x · w_in) · w_out."""

    w_in: np.ndarray  # d × d_h
    w_out: np.ndarray  # d_h × d
    activation: str = "gelu"

    def __post_init__(self):
        if self.w_in.ndim != 2 or self.w_out.ndim != 2:
            raise DimensionError("FFN weights must be 2-D")
        if self.w_in.shape[1] != self.w_out.shape[0]:
            raise DimensionError(
                f"FFN inner dims differ: w_in {self.w_in.shape}, w_out {self.w_out.shape}"
            )
        check_fields(self, self.activation)


@dataclass
class DenseBlock:
    """A plain (non-MoE) residual FFN block."""

    ffn: FFN


@dataclass
class MoELayer:
    """A routed expert block: one ExpertGroup per FFN matrix, plus the router.

    ``universal`` holds an always-active FFN evaluated in parallel with the
    routed experts (its output is summed in). ``extended`` means the universal
    FFN has instead been folded into the groups as delta N+1, still always
    active but sharing the group's base. A vanilla layer's base is frozen:
    it is the dense FFN every expert was copied from.
    """

    router: Router
    group_in: ExpertGroup  # base d × d_h
    group_out: ExpertGroup  # base d_h × d
    n_experts: int
    activation: str = "gelu"
    universal: FFN | None = None
    extended: bool = False
    trainable_base: bool = False
    method: str = "vanilla"
    synthesis_count: int = 0

    def __post_init__(self):
        check_fields(self, self.activation)
        if self.method not in METHODS:
            raise ParameterError(f"unknown upcycle method {self.method!r}; choose from {METHODS}")
        if self.method == "vanilla" and self.trainable_base:
            # Its shared base is the init base that compression and analysis subtract.
            raise ParameterError("trainable_base must be False on a vanilla layer, got True")
        expected = self.n_experts + (1 if self.extended else 0)
        for tag, group in (("in", self.group_in), ("out", self.group_out)):
            if len(group) != expected:
                raise DimensionError(
                    f"{tag} group holds {len(group)} deltas, expected {expected} "
                    f"(n_experts={self.n_experts}, extended={self.extended})"
                )
        if self.router.w_r.shape[1] != self.n_experts:
            raise DimensionError(
                f"router is {self.router.w_r.shape}, expected {self.n_experts} columns"
            )
        if self.extended and self.universal is not None:
            raise ParameterError("extended layers fold the universal FFN into the group")

    def synthesized_weights(self, i: int) -> tuple[np.ndarray, np.ndarray]:
        """Materialize expert i's (w_in, w_out), counting the synthesis."""
        w_in = synthesize(self.group_in.base, self.group_in.deltas[i])
        w_out = synthesize(self.group_out.base, self.group_out.deltas[i])
        self.synthesis_count += 1
        return w_in, w_out


@dataclass
class Model:
    """Embed → residual blocks → readout, with dense-ancestor metadata."""

    d: int
    d_h: int
    in_width: int
    out_width: int
    embed: np.ndarray  # in_width × d
    blocks: list
    readout: np.ndarray  # d × out_width
    ancestor_params: int
    activation: str = "gelu"

    def __post_init__(self):
        check_fields(self, self.activation)
        if self.embed.shape != (self.in_width, self.d):
            raise DimensionError(f"embed is {self.embed.shape}, expected {(self.in_width, self.d)}")
        if self.readout.shape != (self.d, self.out_width):
            raise DimensionError(
                f"readout is {self.readout.shape}, expected {(self.d, self.out_width)}"
            )
        if self.ancestor_params <= 0:
            raise ParameterError("ancestor_params must be positive")
        for j, block in enumerate(self.blocks):
            if isinstance(block, DenseBlock):
                sides = [("ffn", block.ffn.w_in, block.ffn.w_out)]
            else:
                sides = [("group base", block.group_in.base, block.group_out.base)]
                if block.universal is not None:
                    sides.append(("universal", block.universal.w_in, block.universal.w_out))
            for name, w_in, w_out in sides:
                if w_in.shape != (self.d, self.d_h) or w_out.shape != (self.d_h, self.d):
                    raise DimensionError(
                        f"block {j} {name} is {w_in.shape} then {w_out.shape}, expected "
                        f"(d, d_h) then (d_h, d) for d={self.d}, d_h={self.d_h}"
                    )


# ---------------------------------------------------------------------------
# Forward passes
# ---------------------------------------------------------------------------


def route(router: Router, x: np.ndarray, tape: dict | None = None) -> np.ndarray:
    """Routing scores for a row vector (or batch): softmax then top-k mask.

    With a ``tape``, also records the batch's softmax ``probs`` for backprop.
    """
    logits = numkern.matmul(np.atleast_2d(x), router.w_r)
    probs = numkern.softmax(logits)
    scores = numkern.topk_mask(probs, router.topk_count)
    if tape is not None:
        tape["probs"] = probs
    return scores[0] if np.asarray(x).ndim == 1 else scores


def _ffn(rec: dict | None, x: np.ndarray, w_in, w_out, activation: str) -> np.ndarray:
    """act(x · w_in) · w_out: the one FFN forward of every dense block, routed
    expert, member N+1 and parallel universal FFN. With a ``rec``, records on
    it what :func:`ders.train._ffn_backward` reads."""
    h = numkern.matmul(x, w_in)
    a = act_forward(activation, h)
    out = numkern.matmul(a, w_out)
    if rec is not None:
        rec.update(x=x, w_in=w_in, w_out=w_out, activation=activation, h=h, a=a, out=out)
    return out


def ffn_forward(ffn: FFN, x: np.ndarray, tape: dict | None = None) -> np.ndarray:
    return _ffn(tape, x, ffn.w_in, ffn.w_out, ffn.activation)


def _moe_forward(layer: MoELayer, x: np.ndarray, tape: dict | None) -> np.ndarray:
    """Batched MoE forward; with a ``tape``, records intermediates for backprop.

    Per-row accumulation order is fixed (experts in index order, the
    always-active member or universal FFN last), and experts are synthesized
    once per call, only if some row routes to them.
    """
    scores = route(layer.router, x, tape)
    if tape is not None:
        tape.update(x=x, scores=scores, experts=[], universal=None)
    n = layer.n_experts
    y = np.zeros((x.shape[0], layer.group_out.base.shape[1]), dtype=x.dtype)
    for i in range(n):
        rows = np.flatnonzero(scores[:, i] != 0.0)
        rec = None if tape is None or rows.size == 0 else {"rows": rows}
        if tape is not None:
            tape["experts"].append(rec)
        if rows.size:
            out = _ffn(rec, x[rows], *layer.synthesized_weights(i), layer.activation)
            y[rows] += scores[rows, i : i + 1] * out
    if layer.extended or layer.universal is not None:
        rec = None if tape is None else {}
        if layer.extended:
            y += _ffn(rec, x, *layer.synthesized_weights(n), layer.activation)
        else:
            y += ffn_forward(layer.universal, x, rec)
        if tape is not None:
            tape["universal"] = rec
    return y


def _forward(model: Model, batch: np.ndarray, tape: dict | None) -> np.ndarray:
    # The model's float dtype, so a float32 model computes in float32.
    x = np.asarray(batch, dtype=model.embed.dtype)
    if x.ndim == 1:
        x = x.reshape(1, -1)
    if x.ndim != 2 or x.shape[1] != model.in_width:
        raise DimensionError(f"batch is {x.shape}, expected (*, {model.in_width})")
    numkern.check_finite(x, "the input batch")
    h = numkern.matmul(x, model.embed)
    if tape is not None:
        tape.update(x_in=x, blocks=[])
    for j, block in enumerate(model.blocks):
        moe = isinstance(block, MoELayer)
        rec = None if tape is None else {"kind": "moe" if moe else "dense"}
        try:
            out = _moe_forward(block, h, rec) if moe else ffn_forward(block.ffn, h, rec)
        except NumericError as e:
            raise NumericError(f"block {j}: {e}") from e
        h = h + out  # residual connection
        if tape is not None:
            tape["blocks"].append(rec)
    if tape is not None:
        tape["h_final"] = h
    return numkern.check_finite(numkern.matmul(h, model.readout), "the prediction")


def model_forward(model: Model, batch: np.ndarray) -> np.ndarray:
    """Predictions for a batch of row vectors (rows independent, bit-stable).

    A 1-D input is treated as a single row and returns a 1-D output.
    """
    pred = _forward(model, batch, None)
    return pred[0] if np.asarray(batch).ndim == 1 else pred


def forward_tape(model: Model, batch: np.ndarray) -> tuple[np.ndarray, dict]:
    """Forward pass that also returns the intermediates backprop needs."""
    tape: dict = {}
    return _forward(model, batch, tape), tape


# ---------------------------------------------------------------------------
# Construction, copying, parameter registry
# ---------------------------------------------------------------------------


def build_dense_model(
    d: int,
    d_h: int,
    depth: int,
    in_width: int,
    out_width: int,
    seed: int,
    activation: str = "gelu",
) -> Model:
    """A fresh dense model: embed, ``depth`` residual FFN blocks, readout.

    All matrices are float64, uniform(−1/√fan_in, 1/√fan_in) from per-matrix
    streams of ``seed``; no biases anywhere.
    """
    if depth < 0:
        raise ParameterError("depth must be >= 0")
    if min(d, d_h, in_width, out_width) < 1:
        raise ParameterError("model dimensions must be >= 1")

    def init(rows, cols, *stream_parts):
        rng = numkern.RngStream(seed, numkern.derive_stream_id(*stream_parts))
        return rng.generator.uniform(-1.0 / np.sqrt(rows), 1.0 / np.sqrt(rows), (rows, cols))

    embed = init(in_width, d, "embed")
    blocks = [
        DenseBlock(FFN(init(d, d_h, "block", j, "w_in"), init(d_h, d, "block", j, "w_out"), activation))
        for j in range(depth)
    ]
    readout = init(d, out_width, "readout")
    total = embed.size + readout.size + sum(
        b.ffn.w_in.size + b.ffn.w_out.size for b in blocks
    )
    return Model(d, d_h, in_width, out_width, embed, blocks, readout, total, activation)


def copy_model(model: Model) -> Model:
    """Deep copy: no array aliasing with the original."""
    return copy.deepcopy(model)


def _ffn_arrays(prefix: str, ffn: FFN) -> list:
    return [(f"{prefix}.w_in", ffn.w_in, None, True), (f"{prefix}.w_out", ffn.w_out, None, True)]


def block_arrays(j: int, block) -> list[tuple[str, np.ndarray, str | None, bool]]:
    """The :func:`model_arrays` entries of ``model.blocks[j]``, in its order."""
    prefix = f"blocks.{j}"
    if isinstance(block, DenseBlock):
        return _ffn_arrays(f"{prefix}.ffn", block.ffn)
    arrays = [(f"{prefix}.router.w_r", block.router.w_r, None, True)]
    for tag, group in (("group_in", block.group_in), ("group_out", block.group_out)):
        arrays.append((f"{prefix}.{tag}.base", group.base, None, block.trainable_base))
        for i, delta in enumerate(group.deltas):
            arrays += [
                (f"{prefix}.{tag}.delta{i}.{field}", arr, disk, field in delta.TRAINABLE)
                for field, arr, disk in delta.records()
            ]
    if block.universal is not None:
        arrays += _ffn_arrays(f"{prefix}.universal", block.universal)
    return arrays


def model_arrays(model: Model) -> list[tuple[str, np.ndarray, str | None, bool]]:
    """Every stored array once, in checkpoint record order, as (name, live
    array, on-disk dtype or ``None`` for the model's float width, trainable).

    Frozen arrays are vanilla/compressed shared bases, quantized payloads,
    sparse index vectors and (with a frozen shared FFN) the DeRS bases. The
    embed and readout are always trainable.
    """
    arrays = [("embed", model.embed, None, True)]
    for j, block in enumerate(model.blocks):
        arrays += block_arrays(j, block)
    return arrays + [("readout", model.readout, None, True)]


def named_parameters(model: Model) -> list[tuple[str, np.ndarray]]:
    """The trainable entries of :func:`model_arrays`, in its order, as (name,
    live array): in-place optimizer updates take effect directly."""
    return [(name, arr) for name, arr, _, trainable in model_arrays(model) if trainable]
