"""Parameter, storage-bit, and added-parameter accounting.

``count_report`` folds over the blocks and reports, per layer and in total:
trainable value counts, stored value counts, payload bits at a container
width of K bits per float, index overhead (sparse positions persist as
unsigned 32-bit integers) and scale overhead (one K-bit scalar per sparse
rescale or quantizer scale) flagged separately, and the equivalent-expert
ratio of each MoE layer. Float arrays count K bits per value; expert groups
count each delta's own storage counts (``ders.deltas``).

Added parameters relative to the dense ancestor are reported under two
conventions side by side: values only, and values plus index vectors plus
scale scalars.

The module computes and returns data only: ``ParamReport.to_dict`` is the
content of ``params.json`` and ``PARAMS_CSV_FIELDS`` names the columns of
``params.csv``; ``ders.cli`` writes both.
"""

from __future__ import annotations

from dataclasses import dataclass, asdict, fields

from .moe import DenseBlock, MoELayer, Model, block_arrays
from .numkern import dtype_bits

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


# The fields a row adds into the totals row.
_COUNT_FIELDS = tuple(f.name for f in fields(LayerCount) if f.type == "int")

# The columns of ``params.csv``, one row per layer and then the totals row:
# every field but the raw index and scale entry counts.
PARAMS_CSV_FIELDS = tuple(
    f.name for f in fields(LayerCount) if f.name not in ("index_entries", "scale_entries")
)


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


def _add_counts(into: LayerCount, row: LayerCount) -> None:
    for key in _COUNT_FIELDS:
        setattr(into, key, getattr(into, key) + getattr(row, key))


def _float_count(name: str, kind: str, arrays, bit_width: int, trainable: bool = False) -> LayerCount:
    """Arrays stored at the model's float width: their values at K bits each."""
    values = sum(int(arr.size) for arr in arrays)
    return LayerCount(name, kind, values if trainable else 0, values, values * bit_width)


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


def count_report(model: Model, bit_width: int | None = None) -> ParamReport:
    """Exhaustive storage walk of ``model`` at float width ``bit_width`` (K).

    K defaults to the bit width of the model's own arrays. A block's
    trainable count sums its :func:`ders.moe.block_arrays` entries, the walk
    that also yields the trainable-parameter registry, so the totals row
    always matches that registry exactly. The embed and readout are always
    trainable (``ders.moe.model_arrays``).
    """
    if bit_width is None:
        bit_width = dtype_bits(model.embed.dtype)

    layers = [_float_count("embed", "embed", [model.embed], bit_width, trainable=True)]
    ratio_num = 0.0
    ratio_den = 0.0
    for j, block in enumerate(model.blocks):
        name = f"blocks.{j}"
        if isinstance(block, DenseBlock):
            row = _float_count(name, "dense", [block.ffn.w_in, block.ffn.w_out], bit_width)
        else:
            row = expert_groups_count(block, bit_width)
            row.name = name
            floats = [block.router.w_r]
            if block.universal is not None:
                floats += [block.universal.w_in, block.universal.w_out]
            _add_counts(row, _float_count(name, "moe", floats, bit_width))
            if row.equivalent_expert_ratio is not None:
                # Weighted by expert size; this float expression fixes params.json's bytes.
                unit = float(
                    len(block.group_in.deltas)
                    * (block.group_in.base.size + block.group_out.base.size)
                )
                ratio_num += row.equivalent_expert_ratio * unit
                ratio_den += unit
        row.trainable_values = sum(int(arr.size) for _, arr, _, t in block_arrays(j, block) if t)
        layers.append(row)
    layers.append(_float_count("readout", "readout", [model.readout], bit_width, trainable=True))

    totals = LayerCount(name="total", kind="total")
    for row in layers:
        _add_counts(totals, row)
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

