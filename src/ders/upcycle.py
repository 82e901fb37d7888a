"""Construct MoE models from dense models.

Three methods, all preserving the dense model's function at initialization
(every trainable delta starts at zero, so each expert synthesizes to the
original FFN weight):

* ``vanilla``  — each expert is an independent full copy, stored as a frozen
                 shared base plus a trainable dense delta initialized to zero
                 (the copy is implicit in base + 0). The frozen base is the
                 init base that post-training decomposition subtracts.
* ``ders_sm``  — one trainable shared base plus N sparse index/value deltas:
                 fixed random index sets, zero-initialized values. Per-matrix
                 trainable count: (1 + N·(1−p))·d·d_h.
* ``ders_lm``  — one trainable shared base plus N low-rank deltas A·B with A
                 random, B zero. Per-matrix trainable count:
                 d·d_h + N·r·(d + d_h).

``extended`` (DeRS methods only) folds the parallel universal FFN into each
group as an always-active delta N+1 instead of keeping a separate weight copy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import numkern
from .deltas import DenseDelta, ExpertGroup, init_lowrank_trainable, init_sparse_trainable
from .errors import ConfigError, StateError
from .moe import FFN, METHODS, DenseBlock, Model, MoELayer, Router, check_fields, model_arrays

LAYER_PATTERNS = ("every_layer", "every_other_layer")


@dataclass(frozen=True)
class UpcycleConfig:
    n_experts: int
    topk_count: int
    method: str = "vanilla"
    sparse_rate: float = 0.75
    rank: int = 4
    layer_pattern: str = "every_layer"
    parallel_universal: bool = False
    extended: bool = False
    freeze_shared: bool = False
    seed: int = 0

    def __post_init__(self):
        check_fields(self, n_experts=1, rank=1, seed=0)
        if self.method not in METHODS:
            raise ConfigError(f"method must be one of {METHODS}, got {self.method!r}")
        if self.layer_pattern not in LAYER_PATTERNS:
            raise ConfigError(
                f"layer_pattern must be one of {LAYER_PATTERNS}, got {self.layer_pattern!r}"
            )
        if not 1 <= self.topk_count <= self.n_experts:
            raise ConfigError(f"topk_count must be in [1, {self.n_experts}], got {self.topk_count}")
        if not 0.0 <= self.sparse_rate < 1.0:
            raise ConfigError(f"sparse_rate must lie in [0, 1), got {self.sparse_rate!r}")
        if self.extended and not self.parallel_universal:
            raise ConfigError("extended=true requires parallel_universal=true")
        if self.extended and self.method == "vanilla":
            raise ConfigError(
                "extended applies to DeRS methods; vanilla models fold the universal "
                "FFN at compression time instead"
            )
        if self.freeze_shared and self.method == "vanilla":
            raise ConfigError(
                "freeze_shared applies to DeRS methods; the vanilla base is frozen "
                "by construction"
            )


def selected_layers(depth: int, pattern: str) -> list[int]:
    """Block indices to upcycle. ``every_other_layer`` takes 0, 2, 4, ..."""
    if pattern == "every_layer":
        picked = list(range(depth))
    elif pattern == "every_other_layer":
        picked = list(range(0, depth, 2))
    else:
        raise ConfigError(f"unknown layer_pattern {pattern!r}")
    if not picked:
        raise ConfigError(f"layer_pattern {pattern!r} selects zero of {depth} blocks")
    return picked


def _router(d: int, n_experts: int, topk: int, seed: int, layer_idx: int, dtype) -> Router:
    rng = numkern.RngStream(seed, numkern.derive_stream_id("router", layer_idx))
    bound = 1.0 / float(np.sqrt(d))
    w_r = rng.generator.uniform(-bound, bound, (d, n_experts)).astype(dtype)
    return Router(w_r, topk)


def _dense_stored_values(model: Model) -> int:
    if not all(isinstance(block, DenseBlock) for block in model.blocks):
        raise StateError("model already contains MoE layers; upcycle a dense model")
    return sum(arr.size for _, arr, _, _ in model_arrays(model))


def _initial_delta(cfg: UpcycleConfig, j: int, mat_tag: str, i: int, w: np.ndarray):
    """Expert i's delta refining weight ``w`` (matrix ``mat_tag`` of block j), at
    its upcycle-time value, in ``w``'s shape and dtype."""
    if cfg.method == "vanilla":
        return DenseDelta(np.zeros_like(w))
    rng = numkern.RngStream(cfg.seed, numkern.derive_stream_id("delta", j, mat_tag, i))
    rows, cols = w.shape
    if cfg.method == "ders_sm":
        return init_sparse_trainable(rows, cols, cfg.sparse_rate, rng, w.dtype)
    return init_lowrank_trainable(rows, cols, cfg.rank, rng, w.dtype)


def _moe_layer(dense: Model, cfg: UpcycleConfig, j: int, ffn: FFN) -> MoELayer:
    n_deltas = cfg.n_experts + (1 if cfg.extended else 0)
    groups = [
        ExpertGroup(w.copy(), [_initial_delta(cfg, j, tag, i, w) for i in range(n_deltas)])
        for tag, w in (("w_in", ffn.w_in), ("w_out", ffn.w_out))
    ]
    universal = None
    if cfg.parallel_universal and not cfg.extended:
        universal = FFN(ffn.w_in.copy(), ffn.w_out.copy(), ffn.activation)
    return MoELayer(
        router=_router(dense.d, cfg.n_experts, cfg.topk_count, cfg.seed, j, ffn.w_in.dtype),
        group_in=groups[0],
        group_out=groups[1],
        n_experts=cfg.n_experts,
        activation=ffn.activation,
        universal=universal,
        extended=cfg.extended,
        trainable_base=not (cfg.method == "vanilla" or cfg.freeze_shared),
        method=cfg.method,
    )


def upcycle(dense: Model, cfg: UpcycleConfig) -> Model:
    """Upcycle the blocks ``cfg.layer_pattern`` selects into MoE layers by
    ``cfg.method``, copying the rest; the input model is never mutated."""
    max_rank = min(dense.d, dense.d_h)
    if cfg.method == "ders_lm" and cfg.rank > max_rank:
        raise ConfigError(f"rank must be <= min(d, d_h) = {max_rank}, got {cfg.rank}")
    ancestor = _dense_stored_values(dense)
    picked = set(selected_layers(len(dense.blocks), cfg.layer_pattern))
    blocks: list = []
    for j, block in enumerate(dense.blocks):
        f = block.ffn
        if j in picked:
            blocks.append(_moe_layer(dense, cfg, j, f))
        else:
            blocks.append(DenseBlock(FFN(f.w_in.copy(), f.w_out.copy(), f.activation)))
    return Model(
        d=dense.d,
        d_h=dense.d_h,
        in_width=dense.in_width,
        out_width=dense.out_width,
        embed=dense.embed.copy(),
        blocks=blocks,
        readout=dense.readout.copy(),
        ancestor_params=ancestor,
        activation=dense.activation,
    )
