"""Parameter, storage-bit, and added-parameter accounting.

Walks every stored array in a model and reports, per layer and in total:
trainable value counts, stored value counts, payload bits at a container
width of K bits per float, index overhead (sparse positions persist as
unsigned 32-bit integers) and scale overhead (one K-bit scalar per sparse
rescale or quantizer scale) flagged separately, and the equivalent-expert
ratio of each MoE layer. Closed-form counting laws for sparse and low-rank
delta layers are checked against exhaustive walks by ``formula_check``.

Added parameters relative to the dense ancestor are reported under two
conventions side by side: values only, and values plus index vectors plus
scale scalars.
"""

from __future__ import annotations

import io
import csv
import json
from dataclasses import dataclass, asdict

import numpy as np

from .deltas import init_lowrank_trainable, init_sparse_trainable, sparse_keep_count
from .errors import ParameterError
from .moe import DenseBlock, MoELayer, Model, block_arrays
from .numkern import RngStream, derive_stream_id, dtype_bits

SCHEMA_VERSION = 1

# Sparse index vectors persist as unsigned 32-bit integers.
INDEX_BITS = 32


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------


@dataclass
class LayerCount:
    """Counts for one named piece of the model (or the totals row)."""

    name: str
    kind: str  # embed | dense | moe | readout | total
    trainable_values: int = 0
    stored_values: int = 0
    stored_bits: int = 0
    index_overhead_bits: int = 0
    scale_overhead_bits: int = 0
    index_entries: int = 0
    scale_entries: int = 0
    equivalent_expert_ratio: float | None = None


@dataclass
class ParamReport:
    """Full accounting walk of a model at container width ``bit_width``."""

    schema_version: int
    bit_width: int
    layers: list[LayerCount]
    totals: LayerCount
    ancestor_params: int
    added_params_values_only: int
    added_params_with_overheads: int

    def to_dict(self) -> dict:
        return asdict(self)


def expert_groups_count(layer: MoELayer, bit_width: int) -> LayerCount:
    """Storage of a layer's two expert groups: the shared bases at K bits plus
    every delta's payload, with index and scale overheads and the
    equivalent-expert ratio (stored values over members × one expert's)."""
    out = LayerCount(name="experts", kind="moe")
    unit = 0
    for group in (layer.group_in, layer.group_out):
        unit += int(group.base.size)
        for delta in group.deltas:
            out.stored_values += delta.stored_values()
            out.stored_bits += delta.value_bits(bit_width)
            out.index_entries += delta.index_entries()
            out.scale_entries += delta.scale_entries()
    out.stored_values += unit
    out.stored_bits += unit * bit_width
    out.index_overhead_bits = out.index_entries * INDEX_BITS
    out.scale_overhead_bits = out.scale_entries * bit_width
    members = len(layer.group_in.deltas)
    if members > 0 and unit > 0:
        out.equivalent_expert_ratio = out.stored_values / float(members * unit)
    return out


def _moe_layer_count(name: str, layer: MoELayer, bit_width: int) -> LayerCount:
    out = expert_groups_count(layer, bit_width)
    out.name = name
    extra = [layer.router.w_r]
    if layer.universal is not None:
        extra += [layer.universal.w_in, layer.universal.w_out]
    for arr in extra:
        out.stored_values += int(arr.size)
        out.stored_bits += int(arr.size) * bit_width
    return out


def count_report(model: Model, bit_width: int | None = None) -> ParamReport:
    """Exhaustive storage walk of ``model`` at float width ``bit_width`` (K).

    K defaults to the bit width of the model's own arrays. A block's
    trainable count sums its :func:`ders.moe.block_arrays` entries, the walk
    that also yields the trainable-parameter registry, so the totals row
    always matches that registry exactly.
    """
    if bit_width is None:
        bit_width = dtype_bits(model.embed.dtype)

    # The embed and readout are always trainable (ders.moe.model_arrays).
    layers: list[LayerCount] = [
        LayerCount(
            name="embed",
            kind="embed",
            trainable_values=int(model.embed.size),
            stored_values=int(model.embed.size),
            stored_bits=int(model.embed.size) * bit_width,
        )
    ]
    ratio_num = 0.0
    ratio_den = 0.0
    for j, block in enumerate(model.blocks):
        name = f"blocks.{j}"
        if isinstance(block, DenseBlock):
            values = int(block.ffn.w_in.size + block.ffn.w_out.size)
            row = LayerCount(
                name=name,
                kind="dense",
                stored_values=values,
                stored_bits=values * bit_width,
            )
        else:
            row = _moe_layer_count(name, block, bit_width)
            if row.equivalent_expert_ratio is not None:
                unit = float(
                    len(block.group_in.deltas)
                    * (block.group_in.base.size + block.group_out.base.size)
                )
                ratio_num += row.equivalent_expert_ratio * unit
                ratio_den += unit
        row.trainable_values = sum(int(arr.size) for _, arr, _, t in block_arrays(j, block) if t)
        layers.append(row)

    layers.append(
        LayerCount(
            name="readout",
            kind="readout",
            trainable_values=int(model.readout.size),
            stored_values=int(model.readout.size),
            stored_bits=int(model.readout.size) * bit_width,
        )
    )

    totals = LayerCount(name="total", kind="total")
    for row in layers:
        totals.trainable_values += row.trainable_values
        totals.stored_values += row.stored_values
        totals.stored_bits += row.stored_bits
        totals.index_overhead_bits += row.index_overhead_bits
        totals.scale_overhead_bits += row.scale_overhead_bits
        totals.index_entries += row.index_entries
        totals.scale_entries += row.scale_entries
    if ratio_den > 0:
        totals.equivalent_expert_ratio = ratio_num / ratio_den

    overheads = totals.index_entries + totals.scale_entries
    return ParamReport(
        schema_version=SCHEMA_VERSION,
        bit_width=bit_width,
        layers=layers,
        totals=totals,
        ancestor_params=model.ancestor_params,
        added_params_values_only=totals.stored_values - model.ancestor_params,
        added_params_with_overheads=totals.stored_values + overheads - model.ancestor_params,
    )


# ---------------------------------------------------------------------------
# Closed-form counting laws
# ---------------------------------------------------------------------------


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


# ---------------------------------------------------------------------------
# Emitters
# ---------------------------------------------------------------------------


def report_to_json(report: ParamReport) -> str:
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


def report_to_csv(report: ParamReport) -> str:
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
