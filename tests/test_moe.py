"""Routing, MoE forward, model forward: equivalences and sparse activation."""

import operator
from dataclasses import FrozenInstanceError, fields, replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import (
    build_mixed_moe_model,
    cast_floats,
    gelu_grad_oracle,
    gelu_oracle,
    moe_forward,
    oracle_model_forward,
    reset_synthesis_counters,
    rng_mat,
)
from ders import moe, numkern, train
from ders.deltas import (
    DELTA_KINDS,
    SUPPORTED_BIT_WIDTHS,
    DenseDelta,
    ExpertGroup,
    LowRankDelta,
    quantize,
    sparsify,
    synthesize,
)
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
    forward_tape,
    model_forward,
    named_parameters,
    route,
)


def gelu_input(dtype, shape):
    """Signed values with |x| from 1e-4 to 40, led by ±0.0, ±40, ±9 and ±1e-30."""
    g = np.random.default_rng(shape[0] * 1000 + shape[1])
    magnitude = 10.0 ** g.uniform(-4.0, np.log10(40.0), shape)
    x = (np.where(g.random(shape) < 0.5, -1.0, 1.0) * magnitude).astype(dtype)
    specials = np.array([-0.0, 0.0, 40.0, -40.0, 9.0, -9.0, 1e-30, -1e-30], dtype)
    x.reshape(-1)[: specials.size] = specials[: x.size]
    return x


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

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("shape", [(1, 1), (3, 5), (16, 64), (512, 128)])
    def test_gelu_bytes_equal_the_expression(self, dtype, shape):
        """The buffered GELU gives the one-line expression's bytes, on signed
        zeros and where tanh saturates, and leaves its input unchanged."""
        x = gelu_input(dtype, shape)
        before = x.copy()
        out = act_forward("gelu", x)
        assert out.dtype == dtype and out.shape == shape
        assert out.tobytes() == gelu_oracle(x).tobytes()
        assert x.tobytes() == before.tobytes()
        if x.size > 1:
            assert np.signbit(out.flat[0]) and not np.signbit(out.flat[1])  # −0.0 and +0.0 kept

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("shape", [(1, 1), (3, 5), (32, 64), (512, 128)])
    def test_gelu_grad_bytes_equal_the_expression(self, dtype, shape):
        """The buffered GELU derivative gives the one-line expression's bytes
        on the same inputs, and leaves its input unchanged."""
        x = gelu_input(dtype, shape)
        before = x.copy()
        out = act_grad("gelu", x)
        assert out.dtype == dtype and out.shape == shape
        assert out.tobytes() == gelu_grad_oracle(x).tobytes()
        assert x.tobytes() == before.tobytes()

    @pytest.mark.parametrize("name", moe.ACTIVATIONS)
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_in_place_bytes_equal_a_fresh_array(self, name, dtype):
        """Written into its own input, each activation gives the bytes of
        the fresh-array call."""
        x = gelu_input(dtype, (16, 64))
        fresh = act_forward(name, x)
        out = act_forward(name, x, out=x)
        assert out is x
        assert x.tobytes() == fresh.tobytes()

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
                    make_layer.group_in.base, [*make_layer.group_in.deltas, DenseDelta(np.zeros((4, 6)))]
                ),
                group_out=ExpertGroup(
                    make_layer.group_out.base, [*make_layer.group_out.deltas, DenseDelta(np.zeros((6, 4)))]
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

    @pytest.mark.parametrize("build", ["dense", "mixed"])
    @pytest.mark.parametrize("forward", [model_forward, forward_tape])
    def test_empty_batch_refused(self, build, forward):
        """A zero-row batch is refused alike by a dense and an MoE model,
        naming its shape."""
        if build == "dense":
            m = build_dense_model(d=4, d_h=7, depth=1, in_width=4, out_width=3, seed=1)
        else:
            m = build_mixed_moe_model(1)
        with pytest.raises(DimensionError, match=r"batch is \(0, 4\)"):
            forward(m, np.zeros((0, m.in_width)))

    @pytest.mark.parametrize(
        "batch",
        [
            np.full((2, 4), 1.0 + 1.0j),
            np.array([["1", "0", "0", "0"]]),
            np.array([[1.0, 0.0, 0.0, 0.0]], dtype=object),
        ],
        ids=["complex", "string", "object"],
    )
    @pytest.mark.parametrize("forward", [model_forward, forward_tape])
    def test_non_numeric_batch_refused(self, batch, forward):
        m = build_mixed_moe_model(1)
        with pytest.raises(ParameterError, match="bools, integers or floats"):
            forward(m, batch)

    @pytest.mark.parametrize("dtype", [np.int64, np.uint8, bool])
    def test_int_and_bool_one_hot_batches_serve(self, dtype):
        m = build_mixed_moe_model(1)
        one_hot = np.eye(m.in_width)[[0, 2, 3]]
        expected = model_forward(m, one_hot)
        assert model_forward(m, one_hot.astype(dtype)).tobytes() == expected.tobytes()

    def test_synthesis_counter_resets(self):
        m = build_dense_model(d=4, d_h=6, depth=1, in_width=4, out_width=2, seed=3)
        layer = make_vanilla_layer()
        m.blocks[0] = layer
        model_forward(m, rng_mat((3, 4), seed=17))
        assert layer.synthesis_count > 0
        reset_synthesis_counters(m)
        assert layer.synthesis_count == 0


def mixed_model_of_kind(seed, kind, dtype):
    """``conftest.build_mixed_moe_model`` with every delta of both MoE layers
    (one beside a universal FFN, one extended) replaced by a random delta of
    form ``kind``, the quantized ones over every bit width, at ``dtype``. Each
    layer routes to 1, 2 or 3 of its 3 experts, by ``seed``: at 3 the order
    in which the experts are added shows in the bytes."""
    model = build_mixed_moe_model(seed)
    g = np.random.default_rng(seed)
    for j, block in enumerate(model.blocks):
        if not isinstance(block, MoELayer):
            continue
        block.router.topk_count = 1 + (seed + j) % block.n_experts
        for tag in ("group_in", "group_out"):
            group, deltas = getattr(block, tag), []
            rows, cols = group.base.shape
            for i in range(len(group)):
                mat = DenseDelta(0.1 * g.standard_normal((rows, cols)))
                if kind == "sparse":
                    mat = sparsify(mat, 0.5, numkern.RngStream(seed, 10 * j + i))
                elif kind == "lowrank":
                    mat = LowRankDelta(g.standard_normal((rows, 2)), 0.1 * g.standard_normal((2, cols)))
                elif kind == "quantized":
                    mat = quantize(mat, SUPPORTED_BIT_WIDTHS[(i + j) % len(SUPPORTED_BIT_WIDTHS)])
                elif kind != "dense":
                    raise NotImplementedError(f"no random {kind} delta")
                deltas.append(mat)
            setattr(block, tag, ExpertGroup(group.base, deltas))
    return cast_floats(model, dtype)


def ffn_records(tape):
    """Every FFN record of a model tape: dense blocks, routed experts, and
    the universal FFN or member N+1."""
    for rec in tape["blocks"]:
        if rec["kind"] == "dense":
            yield rec
        else:
            yield from (r for r in rec["experts"] + [rec["universal"]] if r is not None)


class TestOneDispatch:
    """``_moe_forward`` against the per-expert loop it replaced."""

    @settings(max_examples=24, deadline=None, derandomize=True, database=None)
    @given(
        seed=st.integers(0, 2**16),
        kind=st.sampled_from(["dense", "sparse", "lowrank", "quantized"]),
        dtype=st.sampled_from(["float64", "float32"]),
        rows=st.one_of(st.integers(1, 9), st.just(300)),
    )
    @example(seed=1, kind="dense", dtype="float64", rows=1)
    @example(seed=2, kind="sparse", dtype="float32", rows=1)
    @example(seed=3, kind="lowrank", dtype="float64", rows=9)
    @example(seed=4, kind="quantized", dtype="float32", rows=5)
    @example(seed=5, kind="dense", dtype="float32", rows=300)
    @example(seed=6, kind="sparse", dtype="float64", rows=300)
    @example(seed=7, kind="lowrank", dtype="float32", rows=300)
    @example(seed=8, kind="quantized", dtype="float64", rows=300)
    def test_matches_the_per_expert_loop(self, seed, kind, dtype, rows):
        """The batch forward equals the oracle and the stacked single-row
        forwards byte for byte, the taped forward predicts the same, each
        layer synthesizes each routed expert (and member N+1) once, and no
        recorded ``h`` is overwritten by its activation."""
        model = mixed_model_of_kind(seed, kind, dtype)
        layers = [b for b in model.blocks if isinstance(b, MoELayer)]
        x = 2.0 * np.random.default_rng(seed).standard_normal((rows, model.in_width))
        expected = oracle_model_forward(copy_model(model), x)
        before = [layer.synthesis_count for layer in layers]
        pred = model_forward(model, x)
        counts = [layer.synthesis_count - b for layer, b in zip(layers, before)]
        assert pred.dtype == np.dtype(dtype)
        assert pred.tobytes() == expected.tobytes()
        stacked = np.concatenate([model_forward(model, x[i : i + 1]) for i in range(rows)])
        assert stacked.tobytes() == pred.tobytes()

        taped, tape = forward_tape(model, x)
        assert taped.tobytes() == pred.tobytes()
        moe_tapes = [rec for rec in tape["blocks"] if rec["kind"] == "moe"]
        for layer, rec, count in zip(layers, moe_tapes, counts):
            routed = (rec["scores"] != 0.0).any(axis=0)
            assert count == int(routed.sum()) + layer.extended
            for i, expert in enumerate(rec["experts"]):
                assert (expert is None) == (not routed[i])
                if expert is not None:
                    assert np.array_equal(expert["rows"], np.flatnonzero(rec["scores"][:, i]))
        for rec in ffn_records(tape):
            assert rec["a"] is not rec["h"]
            assert rec["h"].tobytes() == numkern.matmul(rec["x"], rec["w_in"]).tobytes()


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


KINDS = tuple(DELTA_KINDS)


def moe_layers(model):
    return [b for b in model.blocks if isinstance(b, MoELayer)]


def source_arrays(layer, i):
    """Expert i's shared bases and the record arrays of its two deltas."""
    arrays = [layer.group_in.base, layer.group_out.base]
    for group in (layer.group_in, layer.group_out):
        arrays += [arr for _, arr, _ in group.deltas[i].records()]
    return arrays


def doubled(delta):
    """``delta`` of the same form with each float scalar and float record
    doubled: a changed delta."""
    changes = {}
    for f in fields(delta):
        value = getattr(delta, f.name)
        if isinstance(value, float) or (isinstance(value, np.ndarray) and value.dtype.kind == "f"):
            changes[f.name] = 2.0 * value
    return replace(delta, **changes)


def all_routed(kind, dtype="float64", seed=0):
    """``mixed_model_of_kind`` with every expert routed to every row, and a
    20-row batch. The model's arrays own their data, so the cache engages."""
    model = mixed_model_of_kind(seed, kind, dtype)
    for layer in moe_layers(model):
        layer.router.topk_count = layer.n_experts
    return model, 2.0 * np.random.default_rng(seed).standard_normal((20, model.in_width))


def served(kind, dtype="float64", seed=0):
    """``all_routed`` served twice: every expert is cached."""
    model, x = all_routed(kind, dtype, seed)
    model_forward(model, x)
    model_forward(model, x)
    return model, x


class TestServedCache:
    """The cache an untaped forward keeps of the experts it synthesized before."""

    @settings(max_examples=30, deadline=None, derandomize=True, database=None)
    @given(
        seed=st.integers(0, 2**16),
        kind=st.sampled_from(KINDS),
        dtype=st.sampled_from(["float64", "float32"]),
        k=st.integers(1, 3),
        sizes=st.lists(st.integers(1, 8), min_size=2, max_size=6),
    )
    @example(seed=1, kind="quantized", dtype="float32", k=3, sizes=[8, 1, 8])
    @example(seed=2, kind="lowrank", dtype="float64", k=1, sizes=[1, 1, 1])
    def test_requests_equal_the_uncached_forward(self, seed, kind, dtype, k, sizes):
        """Each request of a sequence equals the per-expert oracle, which
        synthesizes every expert afresh, and its stacked single rows, byte
        for byte, whichever experts earlier requests left in the cache."""
        model = mixed_model_of_kind(seed, kind, dtype)
        for layer in moe_layers(model):
            layer.router.topk_count = k
        g = np.random.default_rng(seed)
        for rows in sizes:
            x = 2.0 * g.standard_normal((rows, model.in_width))
            pred = model_forward(model, x)
            assert pred.tobytes() == oracle_model_forward(model, x).tobytes()
            stacked = np.concatenate([model_forward(model, x[i : i + 1]) for i in range(rows)])
            assert stacked.tobytes() == pred.tobytes()
        assert moe.cache_bytes(model) > 0

    def test_synthesis_count_counts_misses_only(self):
        """The first forward synthesizes and keeps nothing, the second
        synthesizes and keeps, later ones synthesize nothing; a taped forward
        synthesizes every time and drops the cache."""
        model, x = all_routed("sparse")
        layers = moe_layers(model)
        reset_synthesis_counters(model)
        model_forward(model, x)
        once = [layer.synthesis_count for layer in layers]
        assert once == [layer.n_experts + layer.extended for layer in layers]
        assert moe.cache_bytes(model) == 0
        model_forward(model, x)
        held = moe.cache_bytes(model)
        assert held == sum(
            n * (layer.group_in.base.nbytes + layer.group_out.base.nbytes)
            for layer, n in zip(layers, once)
        )
        for _ in range(3):
            model_forward(model, x)
        assert [layer.synthesis_count for layer in layers] == [2 * n for n in once]
        forward_tape(model, x)
        assert [layer.synthesis_count for layer in layers] == [3 * n for n in once]
        assert moe.cache_bytes(model) == 0

    @pytest.mark.parametrize("kind", KINDS)
    def test_in_place_write_after_serving_raises(self, kind):
        """A write into an array a kept expert was synthesized from raises;
        a record of its own made writeable again by hand makes its entry
        miss, so a write through it is served."""
        model, x = served(kind)
        for layer in moe_layers(model):
            for arr in source_arrays(layer, 0):
                with pytest.raises(ValueError):
                    arr += arr.dtype.type(1)
        # Nothing was written: the cached forward still equals the oracle.
        before = model_forward(model, x)
        assert before.tobytes() == oracle_model_forward(model, x).tobytes()
        record = moe_layers(model)[0].group_out.deltas[0].records()[-1][1]
        record.flags.writeable = True
        record[...] = 2 * record if record.dtype.kind == "f" else record ^ 0x55
        after = model_forward(model, x)
        assert after.tobytes() != before.tobytes()
        assert after.tobytes() == oracle_model_forward(model, x).tobytes()

    @pytest.mark.parametrize("kind", KINDS)
    def test_expert_structures_refuse_rebinding(self, kind):
        """A hit tests only that the layer holds the kept groups, so no field
        of a group or a delta, nor a group member, can be rebound."""
        group = moe_layers(mixed_model_of_kind(0, kind, "float64"))[0].group_out
        delta = group.deltas[0]
        assert type(delta) is DELTA_KINDS[kind]
        for obj in (group, delta):
            for f in fields(obj):
                with pytest.raises(FrozenInstanceError):
                    setattr(obj, f.name, getattr(obj, f.name))
        with pytest.raises(TypeError):
            group.deltas[0] = delta

    @pytest.mark.parametrize(
        "kind, rebind, error",
        [
            ("quantized", lambda g: setattr(g.deltas[0], "scale", 2.0 * g.deltas[0].scale), FrozenInstanceError),
            ("sparse", lambda g: setattr(g.deltas[0], "value", 2.0 * g.deltas[0].value), FrozenInstanceError),
            ("lowrank", lambda g: operator.setitem(g.deltas, 0, LowRankDelta(g.deltas[0].a, 2.0 * g.deltas[0].b)), TypeError),
            ("dense", lambda g: operator.setitem(g.deltas, 0, DenseDelta(2.0 * g.deltas[0].mat)), TypeError),
        ],
        ids=["QuantizedDelta.scale", "SparseDelta.value", "group.deltas[i] lowrank", "group.deltas[i] dense"],
    )
    def test_rebinding_a_source_is_refused(self, kind, rebind, error):
        model, x = served(kind)
        before = model_forward(model, x)
        with pytest.raises(error):
            rebind(moe_layers(model)[0].group_out)
        assert model_forward(model, x).tobytes() == before.tobytes()
        assert before.tobytes() == oracle_model_forward(model, x).tobytes()

    @pytest.mark.parametrize("kind", KINDS)
    def test_a_rebound_group_is_served_afresh(self, kind):
        """A layer given a new group whose delta changed misses, so it
        serves the new weights."""
        model, x = served(kind)
        before = model_forward(model, x)
        layer = moe_layers(model)[0]
        group = layer.group_out
        layer.group_out = ExpertGroup(group.base, [doubled(group.deltas[0]), *group.deltas[1:]])
        after = model_forward(model, x)
        assert after.tobytes() != before.tobytes()
        assert after.tobytes() == oracle_model_forward(model, x).tobytes()

    @pytest.mark.parametrize("kind", KINDS)
    def test_a_shared_source_made_writeable_drops_the_layer(self, kind):
        """A group base that every kept expert of a layer read, made
        writeable by hand and written, drops the whole layer: its next
        forward synthesizes every routed expert afresh and equals the
        oracle, while the other layer still serves from its cache."""
        model, x = served(kind)
        layer, other = moe_layers(model)
        base = layer.group_out.base
        base.flags.writeable = True
        base *= 2
        reset_synthesis_counters(model)
        pred = model_forward(model, x)
        assert layer.synthesis_count == layer.n_experts + layer.extended
        assert other.synthesis_count == 0
        assert pred.tobytes() == oracle_model_forward(model, x).tobytes()

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(
        seed=st.integers(0, 2**16),
        kind=st.sampled_from(KINDS),
        steps=st.lists(
            st.tuples(st.sampled_from(["request", "train", "rebind", "flip"]), st.integers(0, 2**16)),
            min_size=1,
            max_size=8,
        ),
    )
    @example(seed=0, kind="sparse", steps=[("request", 3), ("request", 3), ("train", 0), ("request", 5)])
    @example(seed=1, kind="lowrank", steps=[("request", 2), ("request", 2), ("flip", 0), ("request", 2)])
    def test_every_lifecycle_serves_the_uncached_bytes(self, seed, kind, steps):
        """Over any sequence of requests, training steps (taped gradients,
        then an in-place update of every trainable array, with no ``thaw``),
        rebound groups, and source arrays made writeable by hand and written,
        each request equals the per-expert oracle and its stacked single
        rows byte for byte."""
        model = mixed_model_of_kind(seed, kind, "float64")
        task = train.make_task(
            "cluster_regression", dict(d=model.in_width, n_clusters=2, out_width=model.out_width), seed
        )
        for step, n in steps:
            layer = moe_layers(model)[n % 2]
            tag = ("group_in", "group_out")[n // 2 % 2]
            if step == "request":
                x = 2.0 * np.random.default_rng(n).standard_normal((1 + n % 6, model.in_width))
                pred = model_forward(model, x)
                assert pred.tobytes() == oracle_model_forward(model, x).tobytes()
                stacked = np.concatenate([model_forward(model, x[i : i + 1]) for i in range(x.shape[0])])
                assert stacked.tobytes() == pred.tobytes()
            elif step == "train":
                _, grads = train.loss_and_grads(model, task.sample_train(4, numkern.RngStream(seed, n)), task)
                for name, arr in named_parameters(model):
                    arr -= 1e-2 * grads[name]
            elif step == "rebind":
                deltas = list(getattr(layer, tag).deltas)
                deltas[n % len(deltas)] = doubled(deltas[n % len(deltas)])
                setattr(layer, tag, ExpertGroup(getattr(layer, tag).base, deltas))
            else:
                # Any float array or packed payload the layer's groups hold.
                groups = (layer.group_in, layer.group_out)
                arrays = [g.base for g in groups] + [r[1] for g in groups for d in g.deltas for r in d.records()]
                arrays = [a for a in arrays if a.dtype.kind == "f" or a.dtype == np.uint8]
                arr = arrays[n % len(arrays)]
                arr.flags.writeable = True
                arr[...] = 2 * arr if arr.dtype.kind == "f" else arr ^ 0x55

    def test_thaw_restores_exactly_the_flags_it_set(self):
        model, x = all_routed("lowrank")
        layer = moe_layers(model)[0]
        layer.group_in.base.flags.writeable = False
        model_forward(model, x)
        model_forward(model, x)
        arrays = source_arrays(layer, 0)
        assert not any(arr.flags.writeable for arr in arrays)
        moe.thaw(model)
        assert moe.cache_bytes(model) == 0
        assert not layer.group_in.base.flags.writeable
        assert all(arr.flags.writeable for arr in arrays[1:])
        reset_synthesis_counters(model)
        model_forward(model, x)
        assert layer.synthesis_count == layer.n_experts and moe.cache_bytes(model) == 0

    def test_copy_of_a_served_model_carries_no_cache(self):
        model, x = served("quantized")
        twin = copy_model(model)
        assert moe.cache_bytes(model) > 0 and moe.cache_bytes(twin) == 0
        for layer in moe_layers(twin):
            for arr in source_arrays(layer, 0):
                arr += arr.dtype.type(0)  # writeable
        reset_synthesis_counters(twin)
        assert model_forward(twin, x).tobytes() == model_forward(model, x).tobytes()
        assert [layer.synthesis_count for layer in moe_layers(twin)] == [
            layer.n_experts + layer.extended for layer in moe_layers(twin)
        ]

    def test_a_view_among_the_sources_is_served_uncached(self):
        """Read-only on a view would not stop a write through the array it
        views, so an expert whose sources include one is never kept."""
        model, x = all_routed("dense")
        layer, other = moe_layers(model)
        base = layer.group_in.base
        layer.group_in = ExpertGroup(np.concatenate([base, base])[: base.shape[0]], layer.group_in.deltas)
        reset_synthesis_counters(model)
        for _ in range(3):
            model_forward(model, x)
        assert layer.synthesis_count == 3 * layer.n_experts
        assert other.synthesis_count == 2 * (other.n_experts + other.extended)
        assert layer.group_in.base.flags.writeable and layer.group_out.base.flags.writeable


def capped_forward(model, x, cap, thawed):
    """``model_forward(model, x)`` with blocks of at most ``cap`` pairs, after
    two warm-up forwards and, if ``thawed``, ``moe.thaw``: the prediction,
    each MoE layer's syntheses in it, its activation calls and the stacked
    single-row forwards that follow it."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(moe, "_BLOCK_PAIRS", cap)
        model_forward(model, x)
        model_forward(model, x)
        if thawed:
            moe.thaw(model)
        reset_synthesis_counters(model)
        calls = []
        mp.setattr(moe, "act_forward", lambda *args, **kw: calls.append(args) or act_forward(*args, **kw))
        pred = model_forward(model, x)
        counts, act_calls = [layer.synthesis_count for layer in moe_layers(model)], len(calls)
        stacked = np.concatenate([model_forward(model, x[i : i + 1]) for i in range(x.shape[0])])
    return pred, counts, act_calls, stacked


class TestBlocks:
    """An untaped forward runs consecutive routed experts as blocks of at
    most ``moe._BLOCK_PAIRS`` (row, expert) pairs."""

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(
        seed=st.integers(0, 2**16),
        kind=st.sampled_from(KINDS),
        dtype=st.sampled_from(["float64", "float32"]),
        k=st.integers(1, 3),
        rows=st.integers(2, 12),
        case=st.sampled_from(["one block", "several blocks", "an expert past the cap"]),
        thawed=st.booleans(),
    )
    @example(seed=1, kind="quantized", dtype="float32", k=3, rows=12, case="one block", thawed=False)
    @example(seed=2, kind="sparse", dtype="float64", k=3, rows=9, case="several blocks", thawed=True)
    @example(seed=3, kind="lowrank", dtype="float32", k=2, rows=7, case="an expert past the cap", thawed=False)
    @example(seed=4, kind="dense", dtype="float64", k=1, rows=5, case="several blocks", thawed=False)
    def test_blocks_equal_the_per_expert_path(self, seed, kind, dtype, k, rows, case, thawed):
        """Whether every routed expert of a layer shares one block, they
        split into several, or one expert's span alone passes the cap, the
        forward equals the per-expert oracle and its stacked single rows
        byte for byte, and synthesizes what the per-expert path (one expert
        per block) does, warm or after ``thaw``."""
        model = mixed_model_of_kind(seed, kind, dtype)
        for layer in moe_layers(model):
            layer.router.topk_count = k
        x = 2.0 * np.random.default_rng(seed).standard_normal((rows, model.in_width))
        expected = oracle_model_forward(copy_model(model), x)
        _, tape = forward_tape(copy_model(model), x)
        pairs = [(rec["scores"] != 0.0).sum(axis=0) for rec in tape["blocks"] if rec["kind"] == "moe"]
        largest = max(int(p.max()) for p in pairs)
        cap = {"one block": moe._BLOCK_PAIRS, "several blocks": largest, "an expert past the cap": largest - 1}[case]
        if case == "several blocks":
            assume(any(p.sum() > cap for p in pairs))
        per_expert = copy_model(model)

        pred, counts, act_calls, stacked = capped_forward(model, x, cap, thawed)
        assert pred.tobytes() == expected.tobytes()
        assert stacked.tobytes() == pred.tobytes()
        assert counts == capped_forward(per_expert, x, 0, thawed)[1]
        # One activation for the dense block, the universal FFN and member
        # N+1 each, and one per block of routed experts.
        moe_blocks = act_calls - 3
        if case == "one block":
            assert moe_blocks == len(pairs)
        else:
            assert moe_blocks > len(pairs)
