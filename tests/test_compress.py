"""Compression: decompose-and-replace, lossless paths, storage law, trends."""

import numpy as np
import pytest

from conftest import rng_mat
from ders.compress import CompressionSpec, choose_base, compression_report, ders_compress
from ders.deltas import DenseDelta, QuantizedDelta, SparseDelta, synthesize
from ders.errors import ConfigError, StateError
from ders.moe import build_dense_model, model_forward, named_parameters
from ders.train import TrainConfig, evaluate, make_task, train_loop
from ders.upcycle import UpcycleConfig, upcycle


@pytest.fixture(scope="module")
def trained():
    """One trained vanilla-upcycled model (with universal FFN) shared by tests."""
    task = make_task("cluster_regression", dict(d=4, n_clusters=3, out_width=2), 11)
    dense = build_dense_model(d=8, d_h=16, depth=2, in_width=4, out_width=2, seed=2)
    moe = upcycle(
        dense,
        UpcycleConfig(
            n_experts=4, topk_count=2, method="vanilla", parallel_universal=True, seed=5
        ),
    )
    res = train_loop(moe, task, TrainConfig(steps=150, lr=5e-3, seed=4, eval_every=50))
    return res.model, task


def forward_stack(model, seeds=(0, 1, 2)):
    return np.concatenate(
        [model_forward(model, rng_mat((16, model.in_width), seed=s)) for s in seeds]
    )


class TestSpecValidation:
    def test_bad_technique(self):
        with pytest.raises(ConfigError):
            CompressionSpec("prune")

    def test_bad_drop_rate(self):
        with pytest.raises(ConfigError):
            CompressionSpec("sparsify", drop_rate=1.0)
        with pytest.raises(ConfigError):
            CompressionSpec("sparsify", drop_rate=-0.1)
        with pytest.raises(ConfigError):
            CompressionSpec("sparsify", drop_rate="0.5")

    def test_bad_bit_width(self):
        with pytest.raises(ConfigError):
            CompressionSpec("quantize", bit_width=3)


class TestPreconditions:
    def test_dense_model_rejected(self):
        dense = build_dense_model(d=4, d_h=8, depth=1, in_width=4, out_width=2, seed=0)
        with pytest.raises(StateError, match="vanilla-upcycled"):
            ders_compress(dense, CompressionSpec("dense"))

    @pytest.mark.parametrize("method,kw", [("ders_sm", {"sparse_rate": 0.5}), ("ders_lm", {"rank": 2})])
    def test_non_vanilla_rejected(self, method, kw):
        dense = build_dense_model(d=4, d_h=8, depth=1, in_width=4, out_width=2, seed=0)
        moe = upcycle(dense, UpcycleConfig(n_experts=2, topk_count=1, method=method, seed=1, **kw))
        with pytest.raises(StateError, match="vanilla-upcycled"):
            choose_base(moe)

    def test_extended_needs_universal(self, trained):
        model, _ = trained
        bare = upcycle(
            build_dense_model(d=4, d_h=8, depth=1, in_width=4, out_width=2, seed=0),
            UpcycleConfig(n_experts=2, topk_count=1, method="vanilla", seed=1),
        )
        with pytest.raises(StateError, match="universal"):
            ders_compress(bare, CompressionSpec("dense", extended=True))


class TestChooseBase:
    def test_untrained_base_equals_every_expert(self):
        dense = build_dense_model(d=4, d_h=8, depth=1, in_width=4, out_width=2, seed=3)
        moe = upcycle(dense, UpcycleConfig(n_experts=3, topk_count=2, method="vanilla", seed=1))
        bases = choose_base(moe)
        for j, (base_in, base_out) in bases.items():
            layer = moe.blocks[j]
            for base, group in ((base_in, layer.group_in), (base_out, layer.group_out)):
                for delta in group.deltas:
                    assert np.array_equal(synthesize(group.base, delta), base)

    def test_trained_deltas_nonzero(self, trained):
        model, _ = trained
        bases = choose_base(model)
        moved = 0
        for j, (base_in, _) in bases.items():
            group = model.blocks[j].group_in
            for delta in group.deltas:
                if np.any(synthesize(group.base, delta) != base_in):
                    moved += 1
        assert moved > 0


class TestLosslessPaths:
    def test_dense_technique_bit_identical(self, trained):
        model, _ = trained
        compressed = ders_compress(model, CompressionSpec("dense"))
        assert np.array_equal(forward_stack(compressed), forward_stack(model))
        for layer in (b for b in compressed.blocks if hasattr(b, "group_in")):
            for group in (layer.group_in, layer.group_out):
                assert all(isinstance(d, DenseDelta) for d in group.deltas)

    def test_sparsify_p0_exact(self, trained):
        model, _ = trained
        compressed = ders_compress(model, CompressionSpec("sparsify", drop_rate=0.0))
        diff = np.abs(forward_stack(compressed) - forward_stack(model)).max()
        assert diff < 1e-12
        layer = next(b for b in compressed.blocks if hasattr(b, "group_in"))
        delta = layer.group_in.deltas[0]
        assert isinstance(delta, SparseDelta)
        assert delta.rescale == 1.0
        assert delta.value.size == delta.rows * delta.cols

    def test_input_model_not_mutated(self, trained):
        model, _ = trained
        before = {k: v.copy() for k, v in named_parameters(model)}
        ders_compress(model, CompressionSpec("sparsify", drop_rate=0.9))
        for k, v in named_parameters(model):
            assert np.array_equal(v, before[k])


class TestQuantizePath:
    def test_k16_output_bound(self, trained):
        model, _ = trained
        compressed = ders_compress(model, CompressionSpec("quantize", bit_width=16))
        diff = np.abs(forward_stack(compressed) - forward_stack(model)).max()
        assert diff <= 1e-2
        layer = next(b for b in compressed.blocks if hasattr(b, "group_in"))
        assert all(isinstance(d, QuantizedDelta) for d in layer.group_in.deltas)

    def test_wider_codes_are_closer(self, trained):
        model, _ = trained
        ref = forward_stack(model)
        errs = []
        for k in (2, 8, 16):
            compressed = ders_compress(model, CompressionSpec("quantize", bit_width=k))
            errs.append(np.abs(forward_stack(compressed) - ref).max())
        assert errs[2] <= errs[1] <= errs[0]


class TestSparsifyPath:
    def test_fresh_mask_per_expert_and_matrix(self, trained):
        model, _ = trained
        compressed = ders_compress(model, CompressionSpec("sparsify", drop_rate=0.5, seed=9))
        layer = next(b for b in compressed.blocks if hasattr(b, "group_in"))
        index_sets = [tuple(d.index) for d in layer.group_in.deltas]
        index_sets += [tuple(d.index) for d in layer.group_out.deltas]
        assert len(set(index_sets)) > 1
        assert all(d.rescale == pytest.approx(2.0) for d in layer.group_in.deltas)

    def test_same_seed_reproducible_masks(self, trained):
        model, _ = trained
        spec = CompressionSpec("sparsify", drop_rate=0.5, seed=9)
        a = ders_compress(model, spec)
        b = ders_compress(model, spec)
        for la, lb in zip(a.blocks, b.blocks):
            if not hasattr(la, "group_in"):
                continue
            for ga, gb in zip((la.group_in, la.group_out), (lb.group_in, lb.group_out)):
                for da, db in zip(ga.deltas, gb.deltas):
                    assert np.array_equal(da.index, db.index)
                    assert np.array_equal(da.value, db.value)
        c = ders_compress(model, CompressionSpec("sparsify", drop_rate=0.5, seed=10))
        la = next(b_ for b_ in a.blocks if hasattr(b_, "group_in"))
        lc = next(b_ for b_ in c.blocks if hasattr(b_, "group_in"))
        assert not np.array_equal(la.group_in.deltas[0].index, lc.group_in.deltas[0].index)

    def test_monotone_degradation(self, trained):
        model, task = trained
        metrics = [evaluate(model, task)]
        for p in (0.5, 0.9):
            spec = CompressionSpec("sparsify", drop_rate=p, seed=3)
            metrics.append(evaluate(ders_compress(model, spec), task))
        for worse, better in zip(metrics[1:], metrics[:-1]):
            assert worse <= better + 1.0


class TestExtended:
    def test_folds_universal_as_extra_member(self, trained):
        model, _ = trained
        compressed = ders_compress(model, CompressionSpec("dense", extended=True))
        for block in compressed.blocks:
            if not hasattr(block, "group_in"):
                continue
            assert block.extended
            assert block.universal is None
            assert len(block.group_in.deltas) == block.n_experts + 1
            assert len(block.group_out.deltas) == block.n_experts + 1
        np.testing.assert_allclose(
            forward_stack(compressed), forward_stack(model), rtol=0, atol=1e-9
        )

    def test_non_extended_leaves_universal_untouched(self, trained):
        model, _ = trained
        compressed = ders_compress(model, CompressionSpec("quantize", bit_width=8))
        for orig, comp in zip(model.blocks, compressed.blocks):
            if not hasattr(orig, "group_in"):
                continue
            assert comp.universal is not None
            assert np.array_equal(comp.universal.w_in, orig.universal.w_in)
            assert np.array_equal(comp.universal.w_out, orig.universal.w_out)
            assert len(comp.group_in.deltas) == orig.n_experts


class TestReport:
    def test_storage_bits_law(self, trained):
        model, _ = trained
        spec = CompressionSpec("quantize", bit_width=2)
        compressed = ders_compress(model, spec)
        report = compression_report(compressed, spec, bit_width=16)
        unit = 2 * 8 * 16  # both FFN matrices of one member
        for row in report["layers"]:
            assert row["stored_bits_before"] == 4 * 16 * unit
            assert row["stored_bits_after"] == (16 + 4 * 2) * unit
            assert row["scale_overhead_bits"] == 8 * 16
        assert report["totals"]["stored_bits_after"] == 2 * (16 + 4 * 2) * unit

    def test_sparsify_ratio_formula(self, trained):
        model, _ = trained
        spec = CompressionSpec("sparsify", drop_rate=0.9, seed=1)
        report = compression_report(ders_compress(model, spec), spec)
        for row in report["layers"]:
            assert row["equivalent_expert_ratio_formula"] == pytest.approx(
                (1 + 4 * 0.1) / 4, abs=1e-9
            )
        assert report["totals"]["stored_values_before"] == 2 * 4 * 2 * 8 * 16

    def test_realized_ratio_tracks_formula(self, trained):
        model, _ = trained
        spec = CompressionSpec("sparsify", drop_rate=0.9, seed=1)
        report = compression_report(ders_compress(model, spec), spec)
        for row in report["layers"]:
            assert row["equivalent_expert_ratio"] == pytest.approx(
                row["equivalent_expert_ratio_formula"], abs=0.05
            )
