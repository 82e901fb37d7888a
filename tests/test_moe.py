"""Routing, MoE forward, model forward: equivalences and sparse activation."""

import numpy as np
import pytest

from conftest import moe_forward, reset_synthesis_counters, rng_mat
from ders import moe, numkern
from ders.deltas import DenseDelta, ExpertGroup, synthesize
from ders.errors import DimensionError, ParameterError
from ders.moe import (
    FFN,
    DenseBlock,
    Model,
    MoELayer,
    Router,
    act_forward,
    act_grad,
    build_dense_model,
    copy_model,
    ffn_forward,
    model_forward,
    named_parameters,
    route,
)


def make_vanilla_layer(d=4, d_h=6, n=3, k=2, seed=0, deltas_scale=0.0, universal=False):
    g = np.random.default_rng(seed)
    base_in = g.standard_normal((d, d_h))
    base_out = g.standard_normal((d_h, d))
    deltas_in = [DenseDelta(deltas_scale * g.standard_normal((d, d_h))) for _ in range(n)]
    deltas_out = [DenseDelta(deltas_scale * g.standard_normal((d_h, d))) for _ in range(n)]
    w_r = g.standard_normal((d, n))
    uni = FFN(g.standard_normal((d, d_h)), g.standard_normal((d_h, d))) if universal else None
    return MoELayer(
        router=Router(w_r, k),
        group_in=ExpertGroup(base_in, deltas_in),
        group_out=ExpertGroup(base_out, deltas_out),
        n_experts=n,
        universal=uni,
    )


def brute_force_moe(layer, x):
    """Dense oracle: materialize every expert, sum score-weighted outputs."""
    scores = route(layer.router, x)
    y = np.zeros(len(x))
    for i in range(layer.n_experts):
        w_in = synthesize(layer.group_in.base, layer.group_in.deltas[i])
        w_out = synthesize(layer.group_out.base, layer.group_out.deltas[i])
        h = act_forward(layer.activation, x @ w_in)
        y = y + scores[i] * (h @ w_out)
    if layer.extended:
        w_in = synthesize(layer.group_in.base, layer.group_in.deltas[layer.n_experts])
        w_out = synthesize(layer.group_out.base, layer.group_out.deltas[layer.n_experts])
        y = y + act_forward(layer.activation, x @ w_in) @ w_out
    elif layer.universal is not None:
        y = y + act_forward(layer.universal.activation, x @ layer.universal.w_in) @ layer.universal.w_out
    return y


class TestRoute:
    def test_zero_router_full_k_symmetry(self):
        r = Router(np.zeros((3, 4)), 4)
        assert np.allclose(route(r, np.ones(3)), [0.25] * 4, atol=1e-15)

    def test_zero_router_tie_break(self):
        r = Router(np.zeros((3, 4)), 2)
        assert np.array_equal(route(r, np.ones(3)), [0.25, 0.25, 0.0, 0.0])

    def test_dominant_expert_top1(self):
        w_r = np.zeros((2, 4))
        w_r[0, 2] = 50.0
        r = Router(w_r, 1)
        x = np.array([1.0, 0.0])
        scores = route(r, x)
        probs = numkern.softmax(x @ w_r)
        assert scores[2] == probs[2]
        assert np.count_nonzero(scores) == 1

    def test_batch_matches_rows(self):
        r = Router(rng_mat((5, 4), seed=1), 2)
        xs = rng_mat((6, 5), seed=2)
        batched = route(r, xs)
        for i in range(6):
            assert np.array_equal(batched[i], route(r, xs[i]))


class TestActivations:
    @pytest.mark.parametrize("name", moe.ACTIVATIONS)
    def test_grad_matches_finite_difference(self, name):
        x = np.linspace(-2.5, 2.5, 41)
        if name == "relu":
            x = x[np.abs(x) > 1e-3]  # avoid the kink
        h = 1e-6
        fd = (act_forward(name, x + h) - act_forward(name, x - h)) / (2 * h)
        assert np.allclose(act_grad(name, x), fd, atol=1e-8)

    def test_unknown_activation(self):
        with pytest.raises(ParameterError):
            act_forward("swish", np.zeros(2))


class TestMoEForward:
    def test_zero_deltas_full_k_equals_base_ffn(self):
        layer = make_vanilla_layer(n=3, k=3)
        x = rng_mat((1, 4), seed=3)[0]
        base = FFN(layer.group_in.base, layer.group_out.base)
        assert np.allclose(moe_forward(layer, x), ffn_forward(base, x.reshape(1, -1))[0], atol=1e-12)

    def test_zero_deltas_top1_scaled_by_score(self):
        # Hand oracle on a 2-expert, d=2 case.
        g = np.random.default_rng(4)
        d, d_h = 2, 3
        base_in, base_out = g.standard_normal((d, d_h)), g.standard_normal((d_h, d))
        layer = MoELayer(
            router=Router(g.standard_normal((d, 2)), 1),
            group_in=ExpertGroup(base_in, [DenseDelta(np.zeros((d, d_h))) for _ in range(2)]),
            group_out=ExpertGroup(base_out, [DenseDelta(np.zeros((d_h, d))) for _ in range(2)]),
            n_experts=2,
        )
        x = g.standard_normal(d)
        scores = route(layer.router, x)
        winner_score = scores[scores != 0][0]
        expected = winner_score * (act_forward("gelu", x @ base_in) @ base_out)
        assert np.allclose(moe_forward(layer, x), expected, atol=1e-12)

    def test_dense_equivalence_oracle(self):
        layer = make_vanilla_layer(n=4, k=2, deltas_scale=0.5, universal=True, seed=5)
        for s in range(5):
            x = rng_mat((1, 4), seed=10 + s)[0]
            assert np.allclose(moe_forward(layer, x), brute_force_moe(layer, x), atol=1e-12)

    def test_unrouted_experts_never_materialized(self):
        layer = make_vanilla_layer(n=5, k=2, deltas_scale=0.3, seed=6)
        layer.synthesis_count = 0
        moe_forward(layer, rng_mat((1, 4), seed=7)[0])
        assert layer.synthesis_count <= 2

    def test_batch_equals_single_rows_bitwise(self):
        layer = make_vanilla_layer(n=4, k=2, deltas_scale=0.4, universal=True, seed=8)
        xs = rng_mat((7, 4), seed=9)
        batched = moe_forward(layer, xs)
        for i in range(7):
            assert np.array_equal(batched[i], moe_forward(layer, xs[i]))

    def test_universal_output_added(self):
        layer = make_vanilla_layer(n=2, k=2, universal=True, seed=10)
        x = rng_mat((1, 4), seed=11)[0]
        with_u = moe_forward(layer, x)
        layer_no_u = make_vanilla_layer(n=2, k=2, universal=False, seed=10)
        uni_out = act_forward("gelu", x @ layer.universal.w_in) @ layer.universal.w_out
        assert np.allclose(with_u, moe_forward(layer_no_u, x) + uni_out, atol=1e-12)

    def test_extended_member_always_active(self):
        g = np.random.default_rng(12)
        d, d_h, n = 3, 5, 2
        base_in, base_out = g.standard_normal((d, d_h)), g.standard_normal((d_h, d))
        deltas_in = [DenseDelta(0.2 * g.standard_normal((d, d_h))) for _ in range(n + 1)]
        deltas_out = [DenseDelta(0.2 * g.standard_normal((d_h, d))) for _ in range(n + 1)]
        layer = MoELayer(
            router=Router(g.standard_normal((d, n)), 1),
            group_in=ExpertGroup(base_in, deltas_in),
            group_out=ExpertGroup(base_out, deltas_out),
            n_experts=n,
            extended=True,
        )
        x = g.standard_normal(d)
        assert np.allclose(moe_forward(layer, x), brute_force_moe(layer, x), atol=1e-12)

    def test_extended_with_universal_rejected(self):
        with pytest.raises(ParameterError):
            make_layer = make_vanilla_layer(n=2, k=1, universal=True)
            MoELayer(
                router=make_layer.router,
                group_in=ExpertGroup(
                    make_layer.group_in.base, make_layer.group_in.deltas + [DenseDelta(np.zeros((4, 6)))]
                ),
                group_out=ExpertGroup(
                    make_layer.group_out.base, make_layer.group_out.deltas + [DenseDelta(np.zeros((6, 4)))]
                ),
                n_experts=2,
                extended=True,
                universal=make_layer.universal,
            )

    def test_delta_count_mismatch_rejected(self):
        layer = make_vanilla_layer(n=3, k=1)
        with pytest.raises(DimensionError):
            MoELayer(
                router=layer.router,
                group_in=ExpertGroup(layer.group_in.base, layer.group_in.deltas[:2]),
                group_out=layer.group_out,
                n_experts=3,
            )


class TestModelForward:
    def test_batch_of_one_equals_single_row(self):
        m = build_dense_model(d=5, d_h=9, depth=2, in_width=3, out_width=2, seed=0)
        x = rng_mat((1, 3), seed=13)
        assert np.array_equal(model_forward(m, x)[0], model_forward(m, x[0]))

    def test_permuted_batch_permuted_outputs(self):
        m = build_dense_model(d=5, d_h=9, depth=2, in_width=3, out_width=2, seed=0)
        xs = rng_mat((6, 3), seed=14)
        perm = np.array([3, 0, 5, 1, 4, 2])
        assert np.array_equal(model_forward(m, xs)[perm], model_forward(m, xs[perm]))

    def test_two_block_composition_oracle(self):
        m = build_dense_model(d=4, d_h=7, depth=2, in_width=4, out_width=3, seed=1)
        x = rng_mat((2, 4), seed=15)
        h = x @ m.embed
        for block in m.blocks:
            h = h + act_forward("gelu", h @ block.ffn.w_in) @ block.ffn.w_out
        assert np.allclose(model_forward(m, x), h @ m.readout, atol=1e-12)

    def test_width_mismatch(self):
        m = build_dense_model(d=4, d_h=7, depth=1, in_width=4, out_width=3, seed=1)
        with pytest.raises(DimensionError):
            model_forward(m, np.zeros((2, 5)))

    def test_synthesis_counter_resets(self):
        m = build_dense_model(d=4, d_h=6, depth=1, in_width=4, out_width=2, seed=3)
        layer = make_vanilla_layer()
        m.blocks[0] = layer
        model_forward(m, rng_mat((3, 4), seed=17))
        assert layer.synthesis_count > 0
        reset_synthesis_counters(m)
        assert layer.synthesis_count == 0


class TestRegistryAndCopy:
    def test_named_parameters_orders_and_freezes(self):
        m = build_dense_model(d=4, d_h=6, depth=2, in_width=4, out_width=2, seed=4)
        layer = make_vanilla_layer(universal=True)
        m.blocks[1] = layer
        names = [n for n, _ in named_parameters(m)]
        assert names[0] == "embed" and names[-1] == "readout"
        assert "blocks.1.router.w_r" in names
        assert "blocks.1.group_in.delta0.mat" in names
        assert "blocks.1.universal.w_in" in names
        assert "blocks.1.group_in.base" not in names  # frozen base
        layer.trainable_base = True
        assert "blocks.1.group_in.base" in [n for n, _ in named_parameters(m)]

    def test_registry_returns_live_arrays(self):
        m = build_dense_model(d=3, d_h=5, depth=1, in_width=3, out_width=2, seed=5)
        params = dict(named_parameters(m))
        params["embed"][0, 0] = 123.0
        assert m.embed[0, 0] == 123.0

    def test_copy_model_no_aliasing(self):
        m = build_dense_model(d=3, d_h=5, depth=1, in_width=3, out_width=2, seed=6)
        m2 = copy_model(m)
        m2.embed[0, 0] = 55.0
        assert m.embed[0, 0] != 55.0
        x = rng_mat((2, 3), seed=18)
        m3 = copy_model(m)
        assert np.array_equal(model_forward(m, x), model_forward(m3, x))
