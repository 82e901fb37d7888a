"""Post-training delta compression of vanilla-upcycled models.

A trained vanilla-upcycled model stores, per MoE layer and per FFN matrix,
the frozen upcycle-time base plus one trained dense delta per expert.
Compression decomposes each trained expert weight against that frozen
base and replaces the dense delta with a compact form: a Bernoulli-masked
sparse delta (unbiased via the recorded 1/(1−p) rescale), a k-bit
symmetric quantized delta, or — the lossless path — the dense delta
itself. The forward pass afterwards synthesizes expert weights on demand
from base + compressed delta; nothing else about the model changes.

In non-extended mode the parallel universal FFN is left untouched. In
extended mode it is folded into each group as always-active member N+1,
decomposed and compressed like any expert.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .accounting import expert_groups_count
from .deltas import (
    SUPPORTED_BIT_WIDTHS,
    DenseDelta,
    ExpertGroup,
    decompose,
    quantize,
    sparsify,
    synthesize,
)
from .errors import ConfigError, StateError
from .moe import MoELayer, Model, check_fields, copy_model
from .numkern import RngStream, derive_stream_id, dtype_bits

TECHNIQUES = ("dense", "sparsify", "quantize")

SCHEMA_VERSION = 1


@dataclass(frozen=True)
class CompressionSpec:
    """What to do to each decomposed expert delta.

    technique: "sparsify" (keep each element with prob 1−drop_rate),
    "quantize" (k-bit symmetric absmax codes), or "dense" (no information
    loss; the decomposed delta is stored as-is). ``extended`` folds the
    universal FFN into the groups as member N+1 before compressing.
    ``seed`` feeds the per-expert, per-matrix sparsification mask streams.
    """

    technique: str
    drop_rate: float = 0.0
    bit_width: int = 8
    extended: bool = False
    seed: int = 0

    def __post_init__(self):
        check_fields(self, seed=0)
        if self.technique not in TECHNIQUES:
            raise ConfigError(f"technique must be one of {TECHNIQUES}, got {self.technique!r}")
        if not 0.0 <= self.drop_rate < 1.0:
            raise ConfigError(f"drop_rate must lie in [0, 1), got {self.drop_rate!r}")
        if self.bit_width not in SUPPORTED_BIT_WIDTHS:
            raise ConfigError(
                f"bit_width must be one of {SUPPORTED_BIT_WIDTHS}, got {self.bit_width!r}"
            )


def choose_base(model: Model) -> dict[int, tuple[np.ndarray, np.ndarray]]:
    """The pre-fine-tuning base per MoE layer: {block: (in, out)}.

    A vanilla layer's experts are copies of one dense FFN, which its frozen
    group bases still hold. Any other layer kind (or a model with no MoE
    layers at all) has no such base and cannot be decomposed.
    """
    bases: dict[int, tuple[np.ndarray, np.ndarray]] = {}
    for j, block in enumerate(model.blocks):
        if not isinstance(block, MoELayer):
            continue
        if block.method != "vanilla":
            raise StateError(
                f"block {j} is a {block.method} layer with no init base: "
                "not a vanilla-upcycled checkpoint"
            )
        bases[j] = (block.group_in.base, block.group_out.base)
    if not bases:
        raise StateError("model has no MoE layers: not a vanilla-upcycled checkpoint")
    return bases


def _compress_delta(dense: DenseDelta, spec: CompressionSpec, block: int, mat_tag: str, i: int):
    if spec.technique == "sparsify":
        stream = RngStream(spec.seed, derive_stream_id("compress", block, mat_tag, i))
        return sparsify(dense, spec.drop_rate, stream)
    if spec.technique == "quantize":
        return quantize(dense, spec.bit_width)
    return dense


def ders_compress(model: Model, spec: CompressionSpec) -> Model:
    """Decompose every expert of a vanilla-upcycled model and compress.

    Returns a new model; the input is never mutated. Per layer and per FFN
    matrix, each member weight W_i = synthesize(base, delta_i) (plus the
    universal FFN as member N+1 in extended mode) is decomposed against the
    layer's init base (:func:`choose_base`) and its delta replaced per
    ``spec``; the group base stays frozen.
    """
    out = copy_model(model)
    for j in choose_base(out):
        layer = out.blocks[j]
        if spec.extended and layer.universal is None:
            raise StateError(
                f"block {j} has no universal FFN: extended compression needs one"
            )
        new_groups = {}
        for mat_tag, group in (("w_in", layer.group_in), ("w_out", layer.group_out)):
            members = [synthesize(group.base, d) for d in group.deltas]
            if spec.extended:
                uni = layer.universal
                members.append(uni.w_in if mat_tag == "w_in" else uni.w_out)
            deltas = []
            for i, trained in enumerate(members):
                deltas.append(_compress_delta(decompose(group.base, trained), spec, j, mat_tag, i))
            new_groups[mat_tag] = ExpertGroup(group.base, deltas)
        out.blocks[j] = replace(
            layer,
            group_in=new_groups["w_in"],
            group_out=new_groups["w_out"],
            extended=layer.extended or spec.extended,
            universal=None if spec.extended else layer.universal,
            trainable_base=False,
        )
    return out


def compression_report(model: Model, spec: CompressionSpec, bit_width: int | None = None) -> dict:
    """Storage accounting for a compression run on the compressed ``model``,
    per layer and in total, at ``bit_width`` (default: the model's own).

    "Before" counts every member's effective weight as a full matrix at K
    bits (the cost of shipping N independent experts); "after" counts the
    shared base at K bits plus each compressed delta's payload, with index
    and scale overheads flagged separately. The equivalent-expert ratio is
    stored values after / before; for sparsification the closed-form
    expectation (1 + n·(1−p))/n is reported alongside it. The "after"
    figures are ``accounting.expert_groups_count`` of each layer.
    """
    if bit_width is None:
        bit_width = dtype_bits(model.embed.dtype)
    layers = []
    totals = {
        "stored_values_before": 0,
        "stored_values_after": 0,
        "stored_bits_before": 0,
        "stored_bits_after": 0,
        "index_overhead_bits": 0,
        "scale_overhead_bits": 0,
    }
    for j, block in enumerate(model.blocks):
        if not isinstance(block, MoELayer):
            continue
        n_members = len(block.group_in.deltas)
        values_before = n_members * int(block.group_in.base.size + block.group_out.base.size)
        experts = expert_groups_count(block, bit_width)
        ratio_formula = None
        if spec.technique == "sparsify":
            ratio_formula = (1.0 + n_members * (1.0 - spec.drop_rate)) / n_members
        elif spec.technique == "dense":
            ratio_formula = (1.0 + n_members) / n_members
        row = {
            "block": j,
            "n_members": n_members,
            "stored_values_before": values_before,
            "stored_values_after": experts.stored_values,
            "stored_bits_before": values_before * bit_width,
            "stored_bits_after": experts.stored_bits,
            "index_overhead_bits": experts.index_overhead_bits,
            "scale_overhead_bits": experts.scale_overhead_bits,
            "equivalent_expert_ratio": experts.equivalent_expert_ratio,
            "equivalent_expert_ratio_formula": ratio_formula,
        }
        layers.append(row)
        for key in totals:
            totals[key] += row[key]
    totals["equivalent_expert_ratio"] = (
        totals["stored_values_after"] / float(totals["stored_values_before"])
        if layers
        else None
    )
    return {
        "schema_version": SCHEMA_VERSION,
        "technique": spec.technique,
        "drop_rate": spec.drop_rate,
        "bit_width": spec.bit_width,
        "extended": spec.extended,
        "seed": spec.seed,
        "container_bit_width": bit_width,
        "layers": layers,
        "totals": totals,
    }
