"""Upcycling: identity at init, counting formulas, reproducibility, knobs."""

import numpy as np
import pytest

from conftest import rng_mat
from ders import numkern
from ders.compress import choose_base
from ders.deltas import LowRankDelta, SparseDelta
from ders.errors import ConfigError, StateError
from ders.moe import DenseBlock, MoELayer, build_dense_model, model_forward, named_parameters
from ders.upcycle import UpcycleConfig, selected_layers, upcycle


def dense_fixture(d=8, d_h=16, depth=2, seed=7):
    return build_dense_model(d=d, d_h=d_h, depth=depth, in_width=d, out_width=4, seed=seed)


def cfg_for(method, **kw):
    base = dict(n_experts=4, topk_count=4, method=method, seed=3)
    base.update(kw)
    return UpcycleConfig(**base)


class TestIdentityAtInit:
    @pytest.mark.parametrize("method", ["vanilla", "ders_sm", "ders_lm"])
    def test_full_k_matches_dense(self, method):
        dense = dense_fixture()
        up = upcycle(dense, cfg_for(method, sparse_rate=0.75, rank=2))
        xs = rng_mat((100, 8), seed=1)
        diff = np.abs(model_forward(up, xs) - model_forward(dense, xs)).max()
        assert diff < 1e-12

    @pytest.mark.parametrize("method", ["vanilla", "ders_sm", "ders_lm"])
    def test_partial_k_matches_score_weighted_base(self, method):
        dense = dense_fixture(depth=1)
        up = upcycle(dense, cfg_for(method, topk_count=2, sparse_rate=0.75, rank=2))
        layer = up.blocks[0]
        x = rng_mat((1, 8), seed=2)
        h = x @ up.embed
        from ders.moe import act_forward, route

        scores = route(layer.router, h[0])
        base_out = act_forward("gelu", h @ layer.group_in.base) @ layer.group_out.base
        expected = (h + scores.sum() * base_out) @ up.readout
        assert np.allclose(model_forward(up, x), expected, atol=1e-12)


class TestVanilla:
    def test_added_param_formula(self):
        d, d_h, n = 8, 16, 4
        dense = dense_fixture(depth=1)
        up = upcycle(dense, cfg_for("vanilla"))
        stored_layer = sum(p.size for name, p in named_parameters(up) if name.startswith("blocks.0"))
        # N trainable expert copies per matrix plus the router; the frozen base
        # replaces the ancestor FFN, so added-vs-ancestor removes one copy.
        assert stored_layer == n * 2 * d * d_h + d * n
        added = stored_layer + 2 * d * d_h - 2 * d * d_h - n * 2 * d * d_h  # router only among extras
        assert added == d * n

    def test_experts_synthesize_to_original(self):
        dense = dense_fixture(depth=1)
        up = upcycle(dense, cfg_for("vanilla"))
        layer = up.blocks[0]
        from ders.deltas import synthesize

        for i in range(4):
            assert np.array_equal(
                synthesize(layer.group_in.base, layer.group_in.deltas[i]),
                dense.blocks[0].ffn.w_in,
            )

    def test_router_differs_across_layers_same_seed(self):
        dense = dense_fixture(depth=2)
        up = upcycle(dense, cfg_for("vanilla"))
        assert not np.array_equal(up.blocks[0].router.w_r, up.blocks[1].router.w_r)

    def test_init_base_recorded_and_aliased(self):
        up = upcycle(dense_fixture(depth=1), cfg_for("vanilla"))
        layer = up.blocks[0]
        bases = choose_base(up)
        assert list(bases) == [0]
        base_in, base_out = bases[0]
        assert base_in is layer.group_in.base and base_out is layer.group_out.base
        assert layer.method == "vanilla"
        assert not layer.trainable_base

    def test_universal_copy_added(self):
        up = upcycle(dense_fixture(depth=1), cfg_for("vanilla", parallel_universal=True))
        layer = up.blocks[0]
        assert layer.universal is not None
        assert np.array_equal(layer.universal.w_in, layer.group_in.base)
        assert layer.universal.w_in is not layer.group_in.base

    def test_does_not_mutate_dense(self):
        dense = dense_fixture(depth=1)
        before = dense.blocks[0].ffn.w_in.copy()
        up = upcycle(dense, cfg_for("vanilla"))
        up.blocks[0].group_in.deltas[0].mat[0, 0] = 9.0
        up.blocks[0].group_in.base[0, 0] = 9.0
        assert np.array_equal(dense.blocks[0].ffn.w_in, before)


class TestDersSM:
    def test_per_matrix_trainable_count(self):
        # d=8, d_h=16, N=4, p=0.75 -> 128 + 4*32 == 256 == (1+4*0.25)*128
        dense = dense_fixture(depth=1)
        up = upcycle(dense, cfg_for("ders_sm", sparse_rate=0.75))
        layer = up.blocks[0]
        count = layer.group_in.base.size + sum(len(dd.value) for dd in layer.group_in.deltas)
        assert count == 256

    def test_same_seed_identical_indices(self):
        dense = dense_fixture(depth=1)
        a = upcycle(dense, cfg_for("ders_sm", sparse_rate=0.5))
        b = upcycle(dense, cfg_for("ders_sm", sparse_rate=0.5))
        for i in range(4):
            assert np.array_equal(
                a.blocks[0].group_in.deltas[i].index, b.blocks[0].group_in.deltas[i].index
            )

    def test_indices_differ_across_experts_and_matrices(self):
        up = upcycle(dense_fixture(depth=1), cfg_for("ders_sm", sparse_rate=0.9))
        layer = up.blocks[0]
        idx0 = layer.group_in.deltas[0].index
        idx1 = layer.group_in.deltas[1].index
        assert not np.array_equal(idx0, idx1)

    def test_extended_adds_folded_delta(self):
        up = upcycle(
            dense_fixture(depth=1),
            cfg_for("ders_sm", parallel_universal=True, extended=True, sparse_rate=0.5),
        )
        layer = up.blocks[0]
        assert layer.extended and layer.universal is None
        assert len(layer.group_in.deltas) == 5
        assert all(isinstance(dd, SparseDelta) for dd in layer.group_in.deltas)

    def test_freeze_shared_excludes_base(self):
        up = upcycle(dense_fixture(depth=1), cfg_for("ders_sm", freeze_shared=True))
        names = [n for n, _ in named_parameters(up)]
        assert not any(name.endswith(".base") for name in names)
        assert any(".value" in name for name in names)


class TestDersLM:
    def test_per_matrix_trainable_count(self):
        # d=8, d_h=16, N=4, r=2 -> 128 + 4*2*24 == 320
        up = upcycle(dense_fixture(depth=1), cfg_for("ders_lm", rank=2))
        layer = up.blocks[0]
        count = layer.group_in.base.size + sum(
            dd.a.size + dd.b.size for dd in layer.group_in.deltas
        )
        assert count == 320

    def test_rank_boundary(self):
        dense = dense_fixture(depth=1)  # min(d, d_h) == 8
        upcycle(dense, cfg_for("ders_lm", rank=8))
        with pytest.raises(ConfigError):
            upcycle(dense, cfg_for("ders_lm", rank=9))

    def test_deltas_are_lowrank_with_zero_b(self):
        up = upcycle(dense_fixture(depth=1), cfg_for("ders_lm", rank=3))
        for dd in up.blocks[0].group_in.deltas:
            assert isinstance(dd, LowRankDelta)
            assert np.array_equal(dd.b, np.zeros_like(dd.b))

    def test_reproducible_a_factors(self):
        dense = dense_fixture(depth=1)
        a = upcycle(dense, cfg_for("ders_lm", rank=2))
        b = upcycle(dense, cfg_for("ders_lm", rank=2))
        assert np.array_equal(a.blocks[0].group_in.deltas[0].a, b.blocks[0].group_in.deltas[0].a)


class TestPatternsAndValidation:
    def test_every_other_layer(self):
        assert selected_layers(5, "every_other_layer") == [0, 2, 4]
        up = upcycle(dense_fixture(depth=4), cfg_for("vanilla", layer_pattern="every_other_layer"))
        kinds = [type(b) for b in up.blocks]
        assert kinds == [MoELayer, DenseBlock, MoELayer, DenseBlock]

    def test_zero_layers_rejected(self):
        with pytest.raises(ConfigError):
            selected_layers(0, "every_layer")

    def test_already_upcycled_rejected(self):
        up = upcycle(dense_fixture(depth=1), cfg_for("vanilla"))
        with pytest.raises(StateError):
            upcycle(up, cfg_for("vanilla"))

    def test_topk_exceeds_experts(self):
        with pytest.raises(ConfigError):
            cfg_for("vanilla", topk_count=5)

    def test_bool_n_experts_rejected(self):
        with pytest.raises(ConfigError):
            UpcycleConfig(n_experts=True, topk_count=1)

    def test_extended_requires_universal(self):
        with pytest.raises(ConfigError):
            cfg_for("ders_sm", extended=True)

    def test_extended_vanilla_rejected(self):
        with pytest.raises(ConfigError):
            cfg_for("vanilla", parallel_universal=True, extended=True)

    def test_freeze_shared_vanilla_rejected(self):
        with pytest.raises(ConfigError):
            cfg_for("vanilla", freeze_shared=True)

    def test_bad_method(self):
        with pytest.raises(ConfigError):
            cfg_for("ders_xx")

    def test_ancestor_params_recorded(self):
        dense = dense_fixture(depth=2)
        up = upcycle(dense, cfg_for("vanilla"))
        expected = dense.embed.size + dense.readout.size + sum(
            b.ffn.w_in.size + b.ffn.w_out.size for b in dense.blocks
        )
        assert up.ancestor_params == expected
