"""Router, FFN, MoE layer, and model forward passes.

A model is a stack of residual blocks (plain FFN or MoE layer) between an embed
and a readout matrix. MoE routing follows the softmax-then-top-k convention:

    R(x) = TopK(softmax(x · W_R), k)        (no renormalization after masking)
    y    = Σ_i R(x)_i · E_i(x)              (+ universal FFN output if present)

Expert weights are synthesized on demand from the layer's shared base and the
expert's delta; experts whose routing score is zero are never materialized
(instrumented by a per-layer synthesis counter). An untaped forward takes an
expert it synthesized before from the layer's cache, one record checked once
per forward that keeps the frozen groups and makes their arrays read-only; a
taped forward or :func:`thaw` drops it and restores the flags. The batched
forward evaluates rows independently with a fixed accumulation order, so a
batch result equals the stacked single-row results bit-for-bit.

Every FFN-shaped computation, act(x · W_in) · W_out, runs through one private
forward over one or more spans of rows, each with its own weights: a dense
block, the extended always-active member N+1 and the parallel universal FFN
as one span, and a block of routed experts as one span per expert, the rows
routed to it. A forward puts consecutive routed experts in a block of at
most ``_BLOCK_PAIRS`` (row, expert) pairs, which shares one activation, one
score multiply and one combine; the activation is elementwise and each
row's contributions are added in expert index order, so the bytes do not
depend on the blocks. A taped forward runs the same blocks and records per
block x, the spans, the activation, h, a and out, which is all that
``ders.train._ffn_backward`` reads, so the backward walks them too.
"""

from __future__ import annotations

import copy
import numbers
import sys
from dataclasses import MISSING, dataclass, field, fields
from types import SimpleNamespace

import numpy as np

from . import numkern
from .deltas import ExpertGroup, synthesize
from .errors import DimensionError, NumericError, ParameterError

ACTIVATIONS = ("gelu", "relu", "tanh", "identity")
METHODS = ("vanilla", "ders_sm", "ders_lm")

_GELU_C = 0.7978845608028654  # sqrt(2/pi)
_GELU_A = 0.044715


def _gelu_tanh(x: np.ndarray) -> np.ndarray:
    """tanh(C·(x + A·x·x·x)) in one fresh buffer, each operation in that order
    and rounding, never written into ``x`` (a tape records it)."""
    t = np.multiply(_GELU_A, x)
    t *= x
    t *= x
    t += x
    t *= _GELU_C
    return np.tanh(t, out=t)


def act_forward(name: str, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """The activation of ``x``, in a fresh array or, given ``out`` (which
    may be ``x`` itself), written into ``out``: the same operations in the
    same order either way."""
    if name == "gelu":
        # 0.5·x·(1 + tanh(C·(x + A·x·x·x))) in two buffers.
        u = _gelu_tanh(x)
        u += 1.0
        out = np.multiply(0.5, x, out=out)
        out *= u
        return out
    if name == "relu":
        return np.maximum(x, 0.0, out=out)
    if name == "tanh":
        return np.tanh(x, out=out)
    if name == "identity":
        return x
    raise ParameterError(f"unknown activation {name!r}; choose from {ACTIVATIONS}")


def act_grad(name: str, x: np.ndarray) -> np.ndarray:
    """Derivative of the activation, evaluated at the pre-activation x."""
    if name == "gelu":
        # 0.5·(1 + t) + 0.5·x·(1 − t·t)·C·(1 + 3A·x·x) with t = tanh(C·(x + A·x·x·x)),
        # each operation in that order and rounding, in three buffers.
        t = _gelu_tanh(x)
        b = np.multiply(t, t)
        np.subtract(1.0, b, out=b)
        out = np.multiply(0.5, x)
        out *= b
        out *= _GELU_C
        np.multiply(3.0 * _GELU_A, x, out=b)
        b *= x
        b += 1.0
        out *= b
        t += 1.0
        t *= 0.5
        out += t
        return out
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


def _each(kind: str):
    """The test that a value is a list whose items all pass ``FIELD_TYPES[kind]``."""
    return lambda v: isinstance(v, list) and all(map(FIELD_TYPES[kind][1], v))


# A field's annotation -> (what the error says it must be, test). Every module
# declares ``from __future__ import annotations``, so an annotation is its
# source text. JSON reads NaN, Infinity and 1e400 as floats; none of them is a
# usable setting.
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
    "list[int]": ("a list of integers", _each("int")),
    "list[float]": ("a list of finite numbers", _each("float")),
}


def check_fields(obj, activation: str | None = None, **lows) -> None:
    """Check each field of the dataclass ``obj`` annotated by a
    :data:`FIELD_TYPES` key by its rule (others, arrays say, are the caller's),
    each field named in ``lows`` against its lower bound, and, if given, that
    ``activation`` is one of :data:`ACTIVATIONS`. A message starts with the field."""
    for f in fields(obj):
        rule = FIELD_TYPES.get(f.type)
        value = getattr(obj, f.name)
        if rule is not None and not rule[1](value):
            raise ParameterError(f"{f.name} must be {rule[0]}, got {value!r}")
    for name, low in lows.items():
        if getattr(obj, name) < low:
            raise ParameterError(f"{name} must be >= {low}, got {getattr(obj, name)!r}")
    if activation is not None and activation not in ACTIVATIONS:
        raise ParameterError(f"activation must be one of {ACTIVATIONS}, got {activation!r}")


def missing_field(cls, given) -> str | None:
    """The first field of dataclass ``cls`` without a default that ``given`` lacks."""
    for f in fields(cls):
        if f.default is MISSING and f.default_factory is MISSING and f.name not in given:
            return f.name
    return None


@dataclass(frozen=True)
class ModelConfig:
    """The ``model`` section: width, hidden width, FFN blocks, activation."""

    d: int
    d_h: int
    depth: int
    activation: str = "gelu"

    def __post_init__(self):
        check_fields(self, self.activation, d=1, d_h=1, depth=0)


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
    it is the dense FFN every expert was copied from. ``_served`` is the
    layer's served-expert cache, which ``_expert_weights`` checks per forward.
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
    synthesis_count: int = field(default=0, init=False)
    # The served-expert cache (see ``_expert_weights``): None or one record of
    # the two groups it serves, every array they hold, the arrays it made
    # read-only (None before its first kept pair) and, by expert index, None
    # after the expert's first synthesis, then the kept pair.
    _served: SimpleNamespace | None = field(default=None, init=False, repr=False, compare=False)

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
        """Materialize expert i's (w_in, w_out), counting the synthesis. An
        untaped forward calls it only on a miss of the layer's cache."""
        w_in = synthesize(self.group_in.base, self.group_in.deltas[i])
        w_out = synthesize(self.group_out.base, self.group_out.deltas[i])
        self.synthesis_count += 1
        return w_in, w_out

    def _expert_weights(self, taped: bool):
        """The forward's one check of the layer's served cache, then the
        callable giving expert i's (w_in, w_out) in it. The record is dropped,
        its flags restored, if the forward is taped (the only path before
        training's in-place writes), the layer holds other groups, or it has
        frozen its arrays and one is writeable again. A layer whose groups
        hold a view keeps none: read-only on a view would not stop a write
        through the array it views."""
        served, groups = self._served, (self.group_in, self.group_out)
        if served is not None and (
            taped or served.groups[0] is not groups[0] or served.groups[1] is not groups[1]
            or served.frozen is not None and any(a.flags.writeable for a in served.arrays)
        ):
            for a in served.frozen or ():
                a.flags.writeable = True
            self._served = served = None
        if served is None and not taped:
            arrays = [g.base for g in groups] + [r[1] for g in groups for d in g.deltas for r in d.records()]
            if all(a.flags.owndata for a in arrays):
                served = self._served = SimpleNamespace(groups=groups, arrays=arrays, frozen=None, pairs={})
        return self.synthesized_weights if served is None else self._served_weights

    def _served_weights(self, i: int) -> tuple[np.ndarray, np.ndarray]:
        """Expert i's pair from the checked record, a hit being a dict lookup;
        the first pair kept (a second synthesis) makes its arrays read-only."""
        served = self._served
        pair = served.pairs.get(i)
        if pair is None:
            pair = self.synthesized_weights(i)
            if i in served.pairs and served.frozen is None:
                served.frozen = [a for a in served.arrays if a.flags.writeable]
                for a in served.frozen:
                    a.flags.writeable = False
            served.pairs[i] = pair if i in served.pairs else None  # kept from the second on
        return pair

    def __getstate__(self):
        # A copy or a pickle starts with no served-expert cache.
        return {**self.__dict__, "_served": None}


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
        check_fields(self, self.activation, ancestor_params=1)
        if self.embed.shape != (self.in_width, self.d):
            raise DimensionError(f"embed is {self.embed.shape}, expected {(self.in_width, self.d)}")
        if self.readout.shape != (self.d, self.out_width):
            raise DimensionError(
                f"readout is {self.readout.shape}, expected {(self.d, self.out_width)}"
            )
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


def _ffn(rec: dict | None, x: np.ndarray, spans: list, activation: str) -> np.ndarray:
    """act(x · w_in) · w_out on each span ``(start, end, w_in, w_out)`` of
    x's rows, the spans consecutive and covering x: the one FFN forward of a
    dense block, member N+1 and the parallel universal FFN (one span each),
    and of a block of routed experts (one span per expert). A block's spans
    share one activation over their stacked ``h``. With a ``rec``, records
    on it what :func:`ders.train._ffn_backward` reads: x, the spans, the
    activation, h, a and out; without one, nothing keeps ``h``, so the
    activation overwrites it."""
    h = _stacked([numkern.matmul(x[s:e], w_in) for s, e, w_in, _ in spans])
    a = act_forward(activation, h, out=h if rec is None else None)
    out = _stacked([numkern.matmul(a[s:e], w_out) for s, e, _, w_out in spans])
    if rec is not None:
        rec.update(x=x, spans=spans, activation=activation, h=h, a=a, out=out)
    return out


def _stacked(parts: list) -> np.ndarray:
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


def ffn_forward(ffn: FFN, x: np.ndarray, tape: dict | None = None) -> np.ndarray:
    return _ffn(tape, x, [(0, x.shape[0], ffn.w_in, ffn.w_out)], ffn.activation)


# The most (row, expert) pairs an untaped forward runs as one block of routed
# experts. tools/kernel_bench.py's ``model_forward_us`` rows pick it: a 1- to
# 8-row request runs each layer as one block, while a 2,048-row eval keeps
# one expert per block, whose activation stays small enough for the CPU cache.
_BLOCK_PAIRS = 64


def _blocks(counts: list[int], cap: int):
    """The experts with a nonzero ``counts`` entry, in index order, as blocks
    ``(start, end, members)`` of consecutive slices of the pairs, each member
    ``(expert, start, end)``. A block takes the next expert while it then
    holds at most ``cap`` pairs; an expert with more forms a block alone."""
    members, start, end = [], 0, 0
    for i, count in enumerate(counts):
        if not count:
            continue
        if members and end + count - start > cap:
            yield start, end, members
            members, start = [], end
        members.append((i, end, end + count))
        end += count
    if members:
        yield start, end, members


def _combine(y: np.ndarray, rows: np.ndarray, out: np.ndarray, members: int) -> None:
    """``y[rows] += out`` for a block's pairs, each row's contributions added
    in pair order, by expert: one fancy-index add for one member, whose rows
    are distinct, else ``np.add.at`` over the elements of C-ordered ``y``
    (on 2-D it is about twice as slow)."""
    if members == 1:
        y[rows] += out
        return
    d = y.shape[1]
    np.add.at(y.reshape(-1), (rows[:, None] * d + np.arange(d)).reshape(-1), out.reshape(-1))


def _moe_forward(layer: MoELayer, x: np.ndarray, tape: dict | None) -> np.ndarray:
    """Batched MoE forward; with a ``tape``, records intermediates for backprop.

    One dispatch per call: ``np.nonzero(scores.T)`` lists the routed (row,
    expert) pairs sorted by expert, then row, so one gather of their rows
    and weights leaves each expert a contiguous slice. Consecutive experts
    run as blocks of at most ``_BLOCK_PAIRS`` pairs, taped or not: per
    block, one product with ``w_in`` per expert, one activation, one product
    with ``w_out`` per expert, one multiply by the scores and one combine
    into ``y``. The combine adds each row's contributions in expert index
    order from +0.0, the always-active member or universal FFN last, so a
    block's size never shows in the bytes. Each expert's weights are taken
    once per call, only if some row routes to them, through the callable of
    :meth:`MoELayer._expert_weights`, which checks the layer's served cache
    once per call. The tape keeps the dispatch ``counts`` per expert and one
    record per block: its pairs' ``rows``, ``experts`` and ``weights``, its
    ``members`` ``(expert, start, end)`` in index order, and what
    :func:`_ffn` records.
    """
    scores = route(layer.router, x, tape)
    n = layer.n_experts
    expert = layer._expert_weights(tape is not None)
    y = np.zeros((x.shape[0], layer.group_out.base.shape[1]), dtype=x.dtype)
    experts, rows = np.nonzero(scores.T)
    xs, weights = x[rows], scores[rows, experts][:, None]
    counts = np.bincount(experts, minlength=n)
    if tape is not None:
        tape.update(x=x, scores=scores, counts=counts, routed=[], universal=None)
    for start, end, members in _blocks(counts.tolist(), _BLOCK_PAIRS):
        rec = None
        if tape is not None:
            rec = {"rows": rows[start:end], "experts": experts[start:end],
                   "weights": weights[start:end], "members": members}
            tape["routed"].append(rec)
        spans = [(s - start, e - start, *expert(i)) for i, s, e in members]
        out = _ffn(rec, xs[start:end], spans, layer.activation)
        # A tape keeps ``out`` for the backward.
        out = np.multiply(out, weights[start:end], out=out if rec is None else None)
        _combine(y, rows[start:end], out, len(members))
    if layer.extended or layer.universal is not None:
        rec = None if tape is None else {}
        if layer.extended:
            y += _ffn(rec, x, [(0, x.shape[0], *expert(n))], layer.activation)
        else:
            y += ffn_forward(layer.universal, x, rec)
        if tape is not None:
            tape["universal"] = rec
    return y


def _forward(model: Model, batch: np.ndarray, tape: dict | None) -> np.ndarray:
    x = np.asarray(batch)
    if x.dtype.kind not in "biuf":
        # A cast would drop an imaginary part or parse strings and objects.
        raise ParameterError(f"batch must hold bools, integers or floats, got dtype {x.dtype}")
    # The model's float dtype, so a float32 model computes in float32.
    x = x.astype(model.embed.dtype, copy=False)
    if x.ndim == 1:
        x = x.reshape(1, -1)
    if x.ndim != 2 or x.shape[1] != model.in_width or x.shape[0] == 0:
        raise DimensionError(f"batch is {x.shape}, expected (n, {model.in_width}) with n >= 1")
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
    ModelConfig(d, d_h, depth, activation)  # checks its four fields
    if min(in_width, out_width) < 1:
        raise ParameterError("in_width and out_width must be >= 1")

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
    """Deep copy: no array aliasing with the original, no served-expert cache,
    and every array writeable."""
    return copy.deepcopy(model)


def _layers(model: Model) -> list[MoELayer]:
    return [block for block in model.blocks if isinstance(block, MoELayer)]


def thaw(model: Model) -> None:
    """Drop ``model``'s served-expert cache, so that its next forward
    synthesizes every routed expert afresh and keeps nothing, and make
    writeable again exactly the arrays the cache made read-only."""
    for layer in _layers(model):
        layer._expert_weights(taped=True)  # drops the record, as a taped forward does


def cache_bytes(model: Model) -> int:
    """Bytes of the synthesized experts ``model``'s cache holds: memory
    spent to serve, not part of any storage count."""
    served = [layer._served for layer in _layers(model) if layer._served is not None]
    return sum(w.nbytes for s in served for pair in s.pairs.values() if pair for w in pair)


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
