"""Tasks, exact gradients vs finite differences, optimizers, training loop."""

import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    build_mixed_moe_model,
    fd_worst_relative_error,
    oracle_train,
    rng_mat,
    routing_masks,
    to_float32,
)
from ders import train
from ders.checkpoint import load_model, save_model
from ders.cli import main
from ders.compress import CompressionSpec, ders_compress
from ders.deltas import DenseDelta, ExpertGroup
from ders.errors import ConfigError, NumericError, ParameterError
from ders.moe import (
    Model,
    MoELayer,
    Router,
    build_dense_model,
    cache_bytes,
    copy_model,
    forward_tape,
    model_arrays,
    model_forward,
    named_parameters,
)
from ders.numkern import RngStream, derive_stream_id
from ders.train import (
    SyntheticTask,
    TrainConfig,
    eval_metric,
    evaluate,
    loss_and_grads,
    loss_parts,
    make_task,
    task_loss_and_grad,
    train_loop,
)
from ders.upcycle import UpcycleConfig, upcycle


def regression_task(seed=11, d=6, n_clusters=3, out_width=3, **kw):
    return make_task(
        "cluster_regression", dict(d=d, n_clusters=n_clusters, out_width=out_width, **kw), seed
    )


class TestMakeTask:
    def test_fixed_seed_identical_datasets(self):
        a, b = regression_task(seed=5), regression_task(seed=5)
        xa, ya = a.sample_train(16, RngStream(1, 0))
        xb, yb = b.sample_train(16, RngStream(1, 0))
        assert np.array_equal(xa, xb) and np.array_equal(ya, yb)
        ea, eb = a.eval_set(), b.eval_set()
        assert np.array_equal(ea[0], eb[0])

    @pytest.mark.parametrize(
        "kind, params",
        [
            ("cluster_regression", {"d": 4, "n_clusters": 2}),
            ("modular_classification", {"d": 1, "n_clusters": 4}),
        ],
    )
    def test_equality_and_hash_ignore_the_data_built_on_use(self, kind, params):
        """Tasks are frozen values: sampling and the eval set build data
        that equality and hashing do not see."""
        a, b = make_task(kind, params, 1), make_task(kind, params, 1)
        a.eval_set()
        assert a == b and hash(a) == hash(b)
        b.sample_train(4, RngStream(0, 0))
        b.eval_set()
        assert a == b and hash(a) == hash(b)
        assert a != make_task(kind, params, 2)
        with pytest.raises(dataclasses.FrozenInstanceError):
            a.seed = 2

    def test_train_eval_disjoint_regression(self):
        t = regression_task(eval_size=64)
        ex, _ = t.eval_set()
        tx, _ = t.sample_train(512, RngStream(2, 0))
        eval_rows = {row.tobytes() for row in ex}
        assert not any(row.tobytes() in eval_rows for row in tx)

    def test_train_eval_disjoint_modular(self):
        t = make_task("modular_classification", dict(d=1, n_clusters=8), 3)
        ex, _ = t.eval_set()
        tx, _ = t.sample_train(400, RngStream(4, 0))
        eval_rows = {row.tobytes() for row in ex}
        assert not any(row.tobytes() in eval_rows for row in tx)

    def test_single_cluster_solvable_by_dense(self):
        t = regression_task(seed=7, d=4, n_clusters=1, out_width=2)
        model = build_dense_model(d=8, d_h=16, depth=1, in_width=4, out_width=2, seed=0)
        res = train_loop(model, t, TrainConfig(steps=900, lr=5e-3, seed=1, aux_loss_coeff=0.0))
        assert res.best_metric > 90.0

    def test_unknown_param_rejected(self):
        with pytest.raises(ConfigError):
            make_task("cluster_regression", dict(d=4, n_clusters=2, frobnicate=1), 0)

    def test_wrongly_typed_param_rejected(self):
        with pytest.raises(ConfigError):
            make_task("cluster_regression", dict(d=4.0, n_clusters=2), 0)

    def test_bad_kind_rejected(self):
        with pytest.raises(ConfigError):
            make_task("mystery", dict(d=4, n_clusters=2), 0)

    def test_shift_changes_targets_not_inputs(self):
        a = regression_task(seed=9)
        b = regression_task(seed=9, shift=0.5, shift_seed=1)
        xa, ya = a.eval_set()
        xb, yb = b.eval_set()
        assert np.array_equal(xa, xb)
        assert not np.allclose(ya, yb)

    def test_modular_labels(self):
        t = make_task("modular_classification", dict(d=1, n_clusters=5), 0)
        x, y = t.sample_train(32, RngStream(0, 1))
        a = np.argmax(x[:, :5], axis=1)
        b = np.argmax(x[:, 5:], axis=1)
        assert np.array_equal(y, (a + b) % 5)


class TestLossesAndMetrics:
    def test_mse_convention(self):
        pred = np.array([[1.0, 2.0], [3.0, 4.0]])
        y = np.zeros((2, 2))
        loss, dpred = task_loss_and_grad(pred, y, "mse")
        assert loss == pytest.approx((1 + 4 + 9 + 16) / 2)
        assert np.allclose(dpred, 2 * pred / 2)

    def test_ce_matches_direct_formula(self):
        pred = rng_mat((4, 5), seed=1)
        labels = np.array([0, 2, 4, 1])
        loss, dpred = task_loss_and_grad(pred, labels, "ce")
        p = np.exp(pred) / np.exp(pred).sum(axis=1, keepdims=True)
        direct = -np.mean(np.log(p[np.arange(4), labels]))
        assert loss == pytest.approx(direct, abs=1e-12)
        hot = np.zeros((4, 5))
        hot[np.arange(4), labels] = 1
        assert np.allclose(dpred, (p - hot) / 4, atol=1e-12)

    def test_r2_metric_endpoints(self):
        y = rng_mat((10, 3), seed=2)
        assert eval_metric(y, y, "cluster_regression") == 100.0
        mean_pred = np.repeat(y.mean(axis=0, keepdims=True), 10, axis=0)
        assert eval_metric(mean_pred, y, "cluster_regression") == pytest.approx(0.0, abs=1e-9)

    def test_accuracy_metric(self):
        pred = np.array([[0.9, 0.1], [0.2, 0.8], [0.6, 0.4], [0.3, 0.7]])
        assert eval_metric(pred, np.array([0, 1, 1, 1]), "modular_classification") == 75.0


class TestGradients:
    def test_direct_readout_hand_gradient(self):
        # Linear regression case: d(MSE)/d(readout) == 2·xᵀ(ŷ−y)/batch.
        task = regression_task(seed=3, d=3, n_clusters=1, out_width=2)
        g = np.random.default_rng(0)
        model = Model(
            d=3,
            d_h=4,
            in_width=3,
            out_width=2,
            embed=np.eye(3),
            blocks=[],
            readout=g.standard_normal((3, 2)),
            ancestor_params=15,
        )
        x, y = task.sample_train(8, RngStream(5, 0))
        _, grads = loss_and_grads(model, (x, y), task, 0.0)
        pred = model_forward(model, x)
        hand = 2.0 * (x.T @ (pred - y)) / 8
        assert np.allclose(grads["readout"], hand, atol=1e-12)

    def test_all_parameter_classes_match_finite_differences(self):
        task = regression_task(seed=13, d=4, n_clusters=2, out_width=3)
        for seed in (0, 1):
            model = build_mixed_moe_model(seed=seed, d=5, d_h=7, n=3)
            batch = task.sample_train(6, RngStream(seed, 99))
            worst = fd_worst_relative_error(model, batch, task, aux_coeff=0.01)
            assert worst < 1e-4, f"seed {seed}: worst relative error {worst}"

    def test_topk_sets_stable_under_perturbation(self):
        task = regression_task(seed=13, d=4, n_clusters=2, out_width=3)
        model = build_mixed_moe_model(seed=0, d=5, d_h=7, n=3)
        batch = task.sample_train(6, RngStream(0, 99))
        base_masks = routing_masks(model, batch)
        h = 1e-5
        for _, arr in named_parameters(model):
            flat = arr.ravel()
            for idx in (0, flat.size // 2):
                orig = flat[idx]
                for sign in (+1, -1):
                    flat[idx] = orig + sign * h
                    for m0, m1 in zip(base_masks, routing_masks(model, batch)):
                        assert np.array_equal(m0, m1)
                flat[idx] = orig

    def test_sparse_gradient_locality_vs_dense_oracle(self):
        task = regression_task(seed=17, d=5, n_clusters=2, out_width=2)
        dense = build_dense_model(d=5, d_h=6, depth=1, in_width=5, out_width=2, seed=2)
        sm = upcycle(dense, UpcycleConfig(n_experts=3, topk_count=2, method="ders_sm",
                                          sparse_rate=0.5, seed=4))
        # Oracle: same model with each sparse delta replaced by its dense
        # materialization (identical forward, full dense parameterization).
        oracle = upcycle(dense, UpcycleConfig(n_experts=3, topk_count=2, method="vanilla", seed=4))
        layer, olayer = sm.blocks[0], oracle.blocks[0]
        olayer.trainable_base = True
        for tag in ("group_in", "group_out"):
            dense = [DenseDelta(d.materialize(np.float64)) for d in getattr(layer, tag).deltas]
            setattr(olayer, tag, ExpertGroup(getattr(olayer, tag).base, dense))
        for arr_pair in ((layer.group_in.base, olayer.group_in.base),
                         (layer.group_out.base, olayer.group_out.base)):
            assert np.array_equal(*arr_pair)
        olayer.router.w_r[...] = layer.router.w_r
        batch = task.sample_train(8, RngStream(1, 1))
        x, y = batch
        assert np.array_equal(model_forward(sm, x), model_forward(oracle, x))
        _, g_sm = loss_and_grads(sm, batch, task, 0.0)
        _, g_or = loss_and_grads(oracle, batch, task, 0.0)
        for tag in ("group_in", "group_out"):
            for i in range(3):
                sp = getattr(layer, tag).deltas[i]
                dense_grad = g_or[f"blocks.0.{tag}.delta{i}.mat"].ravel()
                sparse_grad = g_sm[f"blocks.0.{tag}.delta{i}.value"]
                assert np.allclose(sparse_grad, dense_grad[sp.index], atol=1e-12)
                off = np.setdiff1d(np.arange(sp.rows * sp.cols), sp.index)
                assert np.abs(dense_grad[off]).max() > 0  # locality is a real restriction

    def test_freeze_shared_has_no_base_entry(self):
        task = regression_task(seed=19, d=4, n_clusters=2, out_width=2)
        dense = build_dense_model(d=4, d_h=6, depth=1, in_width=4, out_width=2, seed=3)
        frozen = upcycle(dense, UpcycleConfig(n_experts=2, topk_count=1, method="ders_sm",
                                              sparse_rate=0.5, freeze_shared=True, seed=5))
        batch = task.sample_train(4, RngStream(2, 2))
        _, grads = loss_and_grads(frozen, batch, task, 0.0)
        assert not any(k.endswith(".base") for k in grads)
        free = upcycle(dense, UpcycleConfig(n_experts=2, topk_count=1, method="ders_sm",
                                            sparse_rate=0.5, seed=5))
        _, grads_free = loss_and_grads(free, batch, task, 0.0)
        assert any(k.endswith(".base") for k in grads_free)

    def test_aux_loss_reported_and_affects_router(self):
        task = regression_task(seed=23, d=4, n_clusters=2, out_width=3)
        model = build_mixed_moe_model(seed=3, d=5, d_h=7, n=3)
        batch = task.sample_train(6, RngStream(3, 3))
        total0, (task0, aux0), g0 = loss_parts(model, batch, task, 0.0)
        total1, (task1, aux1), g1 = loss_parts(model, batch, task, 0.5)
        assert aux0 == 0.0 and aux1 > 0.0
        assert total1 == pytest.approx(task1 + 0.5 * aux1)
        assert task0 == task1
        router_keys = [k for k in g0 if "router" in k]
        assert any(not np.allclose(g0[k], g1[k]) for k in router_keys)

    def test_successive_calls_share_no_gradient_memory(self):
        task = regression_task(seed=23, d=4, n_clusters=2, out_width=3)
        model = build_mixed_moe_model(seed=3, d=5, d_h=7, n=3)
        batch = task.sample_train(6, RngStream(3, 3))
        _, first = loss_and_grads(model, batch, task, 0.01)
        _, second = loss_and_grads(model, batch, task, 0.01)
        assert not any(np.shares_memory(a, b) for a in first.values() for b in second.values())


def _float_arrays(tree):
    """Every float ndarray in a nest of dicts, lists and tuples."""
    if isinstance(tree, np.ndarray):
        return [tree] if tree.dtype.kind == "f" else []
    if isinstance(tree, dict):
        tree = list(tree.values())
    if isinstance(tree, (list, tuple)):
        return [arr for item in tree for arr in _float_arrays(item)]
    return []


class TestFloat32Compute:
    @pytest.mark.parametrize(
        "task",
        [regression_task(seed=29, d=4, n_clusters=2, out_width=3),
         make_task("modular_classification", dict(d=4, n_clusters=5), 31)],
        ids=["regression", "classification"],
    )
    def test_float32_model_trains_and_evaluates_in_float32(self, task, monkeypatch):
        """The task's float64 batch and targets are cast to the model's dtype,
        so numpy does not promote the forward and backward to float64."""
        dense = build_dense_model(d=6, d_h=8, depth=2, in_width=task.in_width,
                                  out_width=task.target_width, seed=4)
        model = upcycle(to_float32(dense), UpcycleConfig(n_experts=3, topk_count=2,
                                                         method="ders_lm", rank=2, seed=6))
        batch = task.sample_train(5, RngStream(4, 4))
        assert batch[0].dtype == np.float64
        seen = {}

        def tape_spy(m, x):
            seen["pred"], seen["tape"] = forward_tape(m, x)
            return seen["pred"], seen["tape"]

        def loss_spy(pred, y, kind):
            loss, seen["d_pred"] = task_loss_and_grad(pred, y, kind)
            return loss, seen["d_pred"]

        monkeypatch.setattr(train, "forward_tape", tape_spy)
        monkeypatch.setattr(train, "task_loss_and_grad", loss_spy)
        _, _, grads = loss_parts(model, batch, task, 0.01)
        activations = _float_arrays(seen["tape"])
        assert len(activations) > 10
        assert {arr.dtype for arr in activations} == {np.dtype(np.float32)}
        assert seen["pred"].dtype == seen["d_pred"].dtype == np.float32
        assert {g.dtype for g in grads.values()} == {np.dtype(np.float32)}
        assert model_forward(model, task.eval_set()[0]).dtype == np.float32
        assert 0.0 <= evaluate(model, task) <= 100.0


def _generated_model(method, pattern, depth, universal, frozen, activation, dtype, seed):
    """A small model of ``depth`` blocks, MoE where ``pattern`` picks, every
    trainable array nudged off its upcycle value. A vanilla "extended" layer
    is what ``ders compress --extended`` makes of a parallel universal FFN."""
    dense = build_dense_model(d=4, d_h=6, depth=depth, in_width=3, out_width=2, seed=seed,
                              activation=activation)
    if dtype == "float32":
        dense = to_float32(dense)
    upcycled_by_ders = method != "vanilla"
    model = upcycle(dense, UpcycleConfig(
        n_experts=3, topk_count=2, method=method, rank=2, layer_pattern=pattern,
        parallel_universal=universal != "neither", extended=upcycled_by_ders and universal == "extended",
        freeze_shared=upcycled_by_ders and frozen, seed=seed,
    ))
    if not upcycled_by_ders and universal == "extended":
        model = ders_compress(model, CompressionSpec(technique="dense", extended=True))
    nudge = np.random.default_rng(seed)
    for _, arr in named_parameters(model):
        arr += (0.1 * nudge.standard_normal(arr.shape)).astype(arr.dtype)
    return model


class TestSharedFfnProperty:
    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(
        method=st.sampled_from(["vanilla", "ders_sm", "ders_lm"]),
        pattern=st.sampled_from(["every_layer", "every_other_layer"]),
        depth=st.integers(1, 3),
        universal=st.sampled_from(["parallel", "extended", "neither"]),
        frozen=st.booleans(),
        activation=st.sampled_from(["gelu", "relu", "tanh", "identity"]),
        dtype=st.sampled_from(["float64", "float32"]),
        rows=st.integers(1, 6),
        seed=st.integers(0, 2**16),
    )
    def test_one_forward_and_backward_for_every_block_kind(
        self, method, pattern, depth, universal, frozen, activation, dtype, rows, seed
    ):
        """Batch == stacked rows, the taped forward == the plain one, and the
        gradients cover exactly the trainables, the same bytes on every call."""
        model = _generated_model(method, pattern, depth, universal, frozen, activation, dtype,
                                 seed)
        g = np.random.default_rng(seed + 1)
        x, y = g.standard_normal((rows, 3)), g.standard_normal((rows, 2))
        pred = model_forward(model, x)
        assert pred.dtype == np.dtype(dtype)
        assert np.stack([model_forward(model, row) for row in x]).tobytes() == pred.tobytes()
        assert forward_tape(model, x)[0].tobytes() == pred.tobytes()
        task = regression_task(seed=1, d=3, n_clusters=2, out_width=2)
        loss, grads = loss_and_grads(model, (x, y), task, 0.01)
        assert list(grads) == [name for name, _ in named_parameters(model)]
        loss2, grads2 = loss_and_grads(model, (x, y), task, 0.01)
        assert loss2 == loss
        assert all(grads[k].tobytes() == grads2[k].tobytes() for k in grads)


class TestFlatOptimizerOracle:
    @pytest.mark.parametrize("optimizer", ["adam", "sgd"])
    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    @pytest.mark.parametrize("method", ["vanilla", "ders_sm", "ders_lm"])
    @settings(max_examples=4, deadline=None, derandomize=True, database=None)
    @given(
        pattern=st.sampled_from(["every_layer", "every_other_layer"]),
        depth=st.integers(1, 3),
        universal=st.sampled_from(["parallel", "extended", "neither"]),
        frozen=st.booleans(),
        seed=st.integers(0, 2**16),
    )
    def test_train_loop_matches_the_per_array_oracle(
        self, method, dtype, optimizer, pattern, depth, universal, frozen, seed
    ):
        """The flat-buffer optimizer leaves the same model bytes and trace as
        the per-array one driving the same steps."""
        model = _generated_model(method, pattern, depth, universal, frozen, "gelu", dtype, seed)
        task = regression_task(seed=1, d=3, n_clusters=2, out_width=2)

        def stored(m):
            return [(name, arr.dtype, arr.tobytes()) for name, arr, _, _ in model_arrays(m)]

        for aux_loss_coeff in (0.0, 0.01):
            for schedule in ("constant", "cosine"):
                cfg = TrainConfig(steps=4, batch_size=5, lr=2e-2, optimizer=optimizer,
                                  aux_loss_coeff=aux_loss_coeff, schedule=schedule,
                                  eval_every=2, seed=seed)
                result = train_loop(model, task, cfg)
                oracle_model, oracle_trace = oracle_train(model, task, cfg)
                assert result.trace == oracle_trace
                assert stored(result.model) == stored(oracle_model)


class TestTrainLoop:
    def test_lr_zero_leaves_parameters_bit_identical(self):
        task = regression_task(seed=29, d=4, n_clusters=2, out_width=2)
        model = build_dense_model(d=4, d_h=6, depth=1, in_width=4, out_width=2, seed=6)
        before = {k: v.copy() for k, v in named_parameters(model)}
        res = train_loop(model, task, TrainConfig(steps=5, lr=0.0, seed=0))
        for k, v in named_parameters(res.model):
            assert np.array_equal(v, before[k])

    def test_same_seed_identical_traces_and_params(self):
        task = regression_task(seed=31, d=4, n_clusters=2, out_width=2)
        model = build_dense_model(d=4, d_h=6, depth=1, in_width=4, out_width=2, seed=7)
        cfg = TrainConfig(steps=30, lr=1e-2, seed=9, eval_every=10)
        a, b = train_loop(model, task, cfg), train_loop(model, task, cfg)
        assert a.trace == b.trace
        for (ka, va), (kb, vb) in zip(named_parameters(a.model), named_parameters(b.model)):
            assert ka == kb and np.array_equal(va, vb)

    def test_input_model_untouched(self):
        task = regression_task(seed=37, d=4, n_clusters=2, out_width=2)
        model = build_dense_model(d=4, d_h=6, depth=1, in_width=4, out_width=2, seed=8)
        before = model.embed.copy()
        train_loop(model, task, TrainConfig(steps=10, lr=1e-2, seed=0))
        assert np.array_equal(model.embed, before)

    def test_dense_beats_best_linear_map_oracle(self):
        task = regression_task(seed=41, d=8, n_clusters=4, out_width=3, eval_size=256)
        ex, ey = task.eval_set()
        bx, by = task.sample_train(4096, RngStream(100, 0))
        aug = np.hstack([bx, np.ones((len(bx), 1))])
        w, *_ = np.linalg.lstsq(aug, by, rcond=None)
        eaug = np.hstack([ex, np.ones((len(ex), 1))])
        linear_mse = float(np.mean(np.sum((eaug @ w - ey) ** 2, axis=1)))
        model = build_dense_model(d=16, d_h=32, depth=2, in_width=8, out_width=3, seed=9)
        res = train_loop(model, task, TrainConfig(steps=800, lr=4e-3, seed=1, eval_every=100))
        pred = model_forward(res.best_model, ex)
        model_mse = float(np.mean(np.sum((pred - ey) ** 2, axis=1)))
        assert model_mse < linear_mse

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_divergence_aborts_with_trace(self):
        task = regression_task(seed=43, d=4, n_clusters=2, out_width=2)
        model = build_dense_model(d=4, d_h=6, depth=1, in_width=4, out_width=2, seed=10)
        with pytest.raises(NumericError) as exc:
            train_loop(model, task, TrainConfig(steps=200, lr=1e9, optimizer="sgd", seed=0))
        assert isinstance(exc.value.trace, list)

    def test_training_a_served_model_equals_training_an_unserved_copy(self):
        """Serving twice freezes the model's expert sources; ``train_loop``
        trains a writeable copy, and each step's taped forward drops the
        cache its evals leave, so its in-place writes never meet a read-only
        array."""
        task = regression_task(seed=53, d=4, n_clusters=2, out_width=3)
        model = build_mixed_moe_model(4)
        unserved = copy_model(model)
        ex, _ = task.eval_set()
        model_forward(model, ex)
        model_forward(model, ex)
        assert cache_bytes(model) > 0
        cfg = TrainConfig(steps=5, batch_size=5, lr=2e-2, eval_every=1, seed=3)
        served, plain = train_loop(model, task, cfg), train_loop(unserved, task, cfg)

        def stored(m):
            return [(name, arr.tobytes()) for name, arr, _, _ in model_arrays(m)]

        assert served.trace == plain.trace
        assert stored(served.model) == stored(plain.model)
        assert stored(served.best_model) == stored(plain.best_model)
        assert cache_bytes(served.model) == 0

    def test_best_checkpoint_tracked(self):
        task = regression_task(seed=47, d=4, n_clusters=2, out_width=2)
        model = build_dense_model(d=8, d_h=12, depth=1, in_width=4, out_width=2, seed=11)
        res = train_loop(model, task, TrainConfig(steps=120, lr=5e-3, seed=2, eval_every=30))
        evals = [r["eval_metric"] for r in res.trace if r["eval_metric"] != ""]
        assert res.best_metric == max(evals)
        assert evaluate(res.best_model, task) == res.best_metric

    def test_mismatched_io_rejected(self):
        task = regression_task(seed=53, d=4, n_clusters=2, out_width=2)
        model = build_dense_model(d=4, d_h=6, depth=1, in_width=5, out_width=2, seed=12)
        with pytest.raises(ConfigError):
            train_loop(model, task, TrainConfig(steps=1))

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            TrainConfig(steps=0)
        with pytest.raises(ConfigError):
            TrainConfig(steps=1, optimizer="lion")
        with pytest.raises(ConfigError):
            TrainConfig(steps=1, schedule="warmup")
        with pytest.raises(ConfigError):
            TrainConfig(steps=1, lr=float("nan"))
        with pytest.raises(ConfigError):  # replace constructs, so it checks too
            dataclasses.replace(TrainConfig(steps=1), beta2=1.0)

    def test_sgd_and_schedules_run(self):
        task = regression_task(seed=59, d=4, n_clusters=2, out_width=2)
        model = build_dense_model(d=4, d_h=6, depth=1, in_width=4, out_width=2, seed=13)
        for schedule in ("constant", "cosine", "linear"):
            res = train_loop(
                model, task, TrainConfig(steps=20, lr=1e-2, optimizer="sgd", schedule=schedule)
            )
            assert len(res.trace) == 20


def _planted_models():
    """The models whose arrays the planted-value test writes into, all with
    the default activation: the mixed model, a vanilla MoE and its 4-bit
    compression."""
    dense = build_dense_model(d=5, d_h=7, depth=1, in_width=4, out_width=3, seed=23)
    vanilla = upcycle(dense, UpcycleConfig(n_experts=3, topk_count=2, method="vanilla", seed=1))
    quantized = ders_compress(vanilla, CompressionSpec("quantize", bit_width=4))
    return {"mixed": build_mixed_moe_model(seed=21), "vanilla": vanilla, "quantized": quantized}


# Parameter class -> (model, the arrays of that class to plant into). Every
# delta of a group is planted, so whichever experts a row routes to see it.
_PLANT_SITES = {
    "embed": ("mixed", lambda m: [m.embed]),
    "readout": ("mixed", lambda m: [m.readout]),
    "dense FFN": ("mixed", lambda m: [m.blocks[0].ffn.w_in]),
    "router": ("mixed", lambda m: [m.blocks[1].router.w_r]),
    "shared base": ("mixed", lambda m: [m.blocks[1].group_in.base]),
    "dense delta": ("vanilla", lambda m: [d.mat for d in m.blocks[0].group_in.deltas]),
    "sparse delta": ("mixed", lambda m: [d.value for d in m.blocks[1].group_in.deltas]),
    "low-rank delta": ("mixed", lambda m: [d.a for d in m.blocks[2].group_in.deltas]),
    "quantized scale": ("quantized", None),
    "universal FFN": ("mixed", lambda m: [m.blocks[1].universal.w_in]),
}


class TestFiniteness:
    """Non-finite values are caught where they enter and leave a stage."""

    @pytest.fixture
    def task(self):
        return regression_task(seed=61, d=4, n_clusters=2, out_width=3)

    @pytest.mark.parametrize("value", [np.nan, np.inf], ids=["nan", "inf"])
    @pytest.mark.parametrize("site", list(_PLANT_SITES))
    def test_planted_value_raises_and_exits_4(self, site, value, task, tmp_path):
        which, arrays = _PLANT_SITES[site]
        model = _planted_models()[which]
        if arrays is None:
            group = model.blocks[0].group_in
            planted = [dataclasses.replace(delta, scale=value) for delta in group.deltas]
            model.blocks[0].group_in = ExpertGroup(group.base, planted)
        else:
            for arr in arrays(model):
                arr.flat[0] = value
        batch = task.sample_train(16, RngStream(5, 0))
        with np.errstate(all="ignore"):
            with pytest.raises(NumericError):
                model_forward(model, batch[0])
            with pytest.raises(NumericError):
                loss_and_grads(model, batch, task)
        path = str(tmp_path / "planted.ckpt")
        save_model(model, path)
        with pytest.raises(NumericError):
            load_model(path)
        cfg = str(tmp_path / "config.json")
        params = {"d": 4, "n_clusters": 2, "out_width": 3}
        with open(cfg, "w") as fh:
            json.dump({"seed": 0, "task": {"kind": "cluster_regression", "params": params}}, fh)
        assert main(["eval", "--config", cfg, "--out", str(tmp_path), "--ckpt", path]) == 4

    @pytest.mark.parametrize("value", [np.nan, np.inf], ids=["nan", "inf"])
    def test_planted_input_value_raises(self, value, task):
        model = build_mixed_moe_model(seed=21)
        x, y = task.sample_train(16, RngStream(5, 0))
        x[3, 1] = value
        with pytest.raises(NumericError, match="input batch"):
            model_forward(model, x)
        with pytest.raises(NumericError, match="input batch"):
            loss_and_grads(model, (x, y), task)

    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    def test_first_poisoned_gradient_is_named_though_not_embed(self, dtype, task, monkeypatch):
        """A NaN planted in one expert's weight gradient poisons its delta's a
        and b only. The one check over a flat gradient buffer fails, and the
        error names the first of the two in parameter order."""
        dense = build_dense_model(d=5, d_h=7, depth=2, in_width=4, out_width=3, seed=23)
        if dtype == "float32":
            dense = to_float32(dense)
        model = upcycle(dense, UpcycleConfig(n_experts=3, topk_count=2, method="ders_lm",
                                             rank=2, seed=1))
        delta = model.blocks[1].group_out.deltas[2]
        exact = type(delta).weight_grads

        def planted(self, d_w):
            if self is delta:
                d_w = d_w.copy()
                d_w.flat[0] = np.nan
            return exact(self, d_w)

        monkeypatch.setattr(type(delta), "weight_grads", planted)
        with pytest.raises(NumericError, match=r"the gradient of blocks\.1\.group_out\.delta2\.a$"):
            loss_and_grads(model, task.sample_train(16, RngStream(5, 0)), task)

    def test_inf_that_tanh_absorbs_reaches_the_gradients_only(self, task):
        """In memory, an intermediate ±inf that the activation maps to a finite
        value is not an error; the gradient it poisons is, by name."""
        model = build_dense_model(
            d=5, d_h=7, depth=1, in_width=4, out_width=3, seed=23, activation="tanh"
        )
        model.blocks[0].ffn.w_in[0, 0] = np.inf
        x, y = task.sample_train(16, RngStream(5, 0))
        with np.errstate(invalid="ignore"):
            assert np.isfinite(model_forward(model, x)).all()
            with pytest.raises(NumericError, match="gradient of embed"):
                loss_and_grads(model, (x, y), task)
