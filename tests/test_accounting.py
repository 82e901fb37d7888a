"""Storage accounting: exhaustive walks vs closed-form counting laws."""

import json

import numpy as np
import pytest

from conftest import build_mixed_moe_model, formula_check, trainable_count
from ders.accounting import (
    INDEX_BITS,
    count_report,
    report_to_csv,
    report_to_json,
)
from ders.compress import CompressionSpec, ders_compress
from ders.errors import ParameterError
from ders.moe import DenseBlock, MoELayer, build_dense_model, named_parameters
from ders.numkern import RngStream
from ders.upcycle import UpcycleConfig, upcycle


def upcycled(method, *, d=8, d_h=16, depth=2, n=4, **kw):
    dense = build_dense_model(d=d, d_h=d_h, depth=depth, in_width=4, out_width=3, seed=0)
    cfg = dict(n_experts=n, topk_count=2, method=method, seed=1)
    cfg.update(kw)
    return upcycle(dense, UpcycleConfig(**cfg))


def walk_arrays(model):
    """Independent oracle: enumerate every stored array (no double-counting
    of aliased init-base records) and sum element counts, index entries and
    scale entries, each delta by its kind."""
    values = model.embed.size + model.readout.size
    index = scale = 0
    for block in model.blocks:
        if isinstance(block, DenseBlock):
            values += block.ffn.w_in.size + block.ffn.w_out.size
            continue
        values += block.router.w_r.size
        for group in (block.group_in, block.group_out):
            values += group.base.size
            for delta in group.deltas:
                kind = type(delta).__name__
                if kind == "DenseDelta":
                    values += delta.mat.size
                elif kind == "SparseDelta":
                    values += delta.value.size
                    index += delta.index.size
                    scale += 1  # the rescale
                elif kind == "LowRankDelta":
                    values += delta.a.size + delta.b.size
                else:
                    values += delta.rows * delta.cols
                    scale += 1  # the quantizer scale
        if block.universal is not None:
            values += block.universal.w_in.size + block.universal.w_out.size
    return {"stored_values": int(values), "index_entries": int(index), "scale_entries": scale}


class TestCountReport:
    def test_dense_ancestor_adds_nothing(self):
        model = build_dense_model(d=8, d_h=16, depth=2, in_width=4, out_width=3, seed=0)
        rep = count_report(model)
        assert rep.added_params_values_only == 0
        assert rep.added_params_with_overheads == 0
        assert rep.totals.stored_values == model.ancestor_params
        assert rep.totals.trainable_values == model.ancestor_params

    @pytest.mark.parametrize(
        "method,kw",
        [
            ("vanilla", {}),
            ("vanilla", {"parallel_universal": True}),
            ("ders_sm", {"sparse_rate": 0.75}),
            ("ders_sm", {"sparse_rate": 0.9, "extended": True, "parallel_universal": True}),
            ("ders_lm", {"rank": 3}),
            ("ders_lm", {"rank": 2, "freeze_shared": True}),
            ("vanilla", {"compress": CompressionSpec("sparsify", drop_rate=0.5)}),
            ("vanilla", {"compress": CompressionSpec("quantize", bit_width=4)}),
            ("vanilla", {"compress": CompressionSpec("dense")}),
        ],
    )
    def test_walk_matches_independent_oracle(self, method, kw):
        kw = dict(kw)
        spec = kw.pop("compress", None)
        model = upcycled(method, **kw)
        if spec is not None:
            model = ders_compress(model, spec)
        rep = count_report(model)
        oracle = walk_arrays(model)
        for field, want in oracle.items():
            assert getattr(rep.totals, field) == want, field
        assert rep.totals.trainable_values == trainable_count(model)
        assert rep.totals.trainable_values == sum(
            arr.size for _, arr in named_parameters(model)
        )

    def test_vanilla_layer_values(self):
        model = upcycled("vanilla", depth=1)
        row = count_report(model).layers[1]
        assert row.kind == "moe"
        # router 8·4 plus, per matrix, base 128 and four dense deltas of 128.
        assert row.stored_values == 32 + 2 * (128 + 4 * 128)
        assert row.trainable_values == 32 + 8 * 128  # base frozen
        assert row.equivalent_expert_ratio == pytest.approx((1 + 4) / 4)

    def test_totals_are_sums_of_layers(self):
        rep = count_report(build_mixed_moe_model(seed=0))
        for field in (
            "trainable_values",
            "stored_values",
            "stored_bits",
            "index_overhead_bits",
            "scale_overhead_bits",
        ):
            assert getattr(rep.totals, field) == sum(
                getattr(row, field) for row in rep.layers
            )

    def test_report_is_pure(self):
        model = build_mixed_moe_model(seed=1)
        assert count_report(model).to_dict() == count_report(model).to_dict()

    def test_sparse_overheads_flagged_separately(self):
        model = upcycled("ders_sm", sparse_rate=0.75, depth=1)
        row = count_report(model).layers[1]
        kept = 32  # 128 positions, keep a quarter of each matrix
        assert row.index_entries == 8 * kept
        assert row.index_overhead_bits == 8 * kept * INDEX_BITS
        assert row.scale_entries == 8
        assert row.scale_overhead_bits == 8 * 64
        rep = count_report(model)
        assert (
            rep.added_params_with_overheads
            == rep.added_params_values_only
            + rep.totals.index_entries
            + rep.totals.scale_entries
        )

    def test_sparse_equivalent_expert_ratio(self):
        model = upcycled("ders_sm", sparse_rate=0.75, depth=1)
        row = count_report(model).layers[1]
        assert row.equivalent_expert_ratio == pytest.approx((1 + 4 * 0.25) / 4, abs=1e-9)

    def test_quantized_bits_law(self):
        model = upcycled("vanilla", depth=1)
        compressed = ders_compress(model, CompressionSpec("quantize", bit_width=2))
        row = count_report(compressed, bit_width=16).layers[1]
        per_matrix = (16 + 4 * 2) * 128  # shared base at K plus N code planes at k
        assert row.stored_bits == 32 * 16 + 2 * per_matrix
        assert row.scale_overhead_bits == 8 * 16
        assert row.index_overhead_bits == 0

    def test_frozen_base_not_trainable(self):
        frozen = upcycled("ders_sm", sparse_rate=0.75, freeze_shared=True, depth=1)
        free = upcycled("ders_sm", sparse_rate=0.75, depth=1)
        diff = (
            count_report(free).layers[1].trainable_values
            - count_report(frozen).layers[1].trainable_values
        )
        assert diff == 2 * 128  # the two base matrices

    def test_custom_bit_width_scales_float_payload(self):
        model = upcycled("vanilla", depth=1)
        r64 = count_report(model, bit_width=64)
        r16 = count_report(model, bit_width=16)
        assert r64.totals.stored_bits == 4 * r16.totals.stored_bits
        assert r64.totals.stored_values == r16.totals.stored_values


class TestFormulaCheck:
    def test_sparse_hand_value(self):
        (row,) = formula_check([(8, 16, 4, "p", 0.75)])
        assert row["formula"] == row["walk"] == 256
        assert row["ok"]

    def test_lowrank_hand_value(self):
        (row,) = formula_check([(8, 16, 4, "r", 2)])
        assert row["formula"] == row["walk"] == 320
        assert row["deviation"] == 0.0

    def test_no_drop_limit(self):
        (row,) = formula_check([(8, 16, 4, "p", 0.0)])
        assert row["formula"] == row["walk"] == (1 + 4) * 128

    def test_random_tuples_within_rounding(self):
        rng = RngStream(11, 0).generator
        entries = []
        for _ in range(60):
            d = int(rng.integers(2, 65))
            d_h = int(rng.integers(2, 65))
            n = int(rng.integers(2, 9))
            if rng.random() < 0.5:
                entries.append((d, d_h, n, "p", float(rng.uniform(0.0, 0.999))))
            else:
                entries.append((d, d_h, n, "r", int(rng.integers(1, min(d, d_h) + 1))))
        rows = formula_check(entries, seed=5)
        assert all(row["ok"] for row in rows)
        assert max(row["deviation"] for row in rows) <= 8

    def test_unknown_kind_rejected(self):
        with pytest.raises(ParameterError):
            formula_check([(4, 4, 2, "q", 1)])


class TestEmitters:
    def test_json_round_trips(self):
        rep = count_report(upcycled("ders_sm", sparse_rate=0.75, depth=1))
        data = json.loads(report_to_json(rep))
        assert data["totals"]["stored_values"] == rep.totals.stored_values
        assert data["schema_version"] == 1

    def test_csv_shape_and_total_row(self):
        rep = count_report(build_mixed_moe_model(seed=2))
        lines = report_to_csv(rep).splitlines()
        assert len(lines) == 1 + len(rep.layers) + 1
        assert lines[0].startswith("name,kind,trainable_values")
        assert lines[-1].startswith("total,total,")
