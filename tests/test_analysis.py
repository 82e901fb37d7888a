"""Similarity diagnostics: exact unit cases, invariances, norm statistics."""

import json
import math

import numpy as np
import pytest

from ders.analysis import (
    cosine_report,
    pairwise_cosine,
    similarity_to_csv,
    similarity_to_json,
)
from ders.compress import choose_base
from ders.errors import StateError
from ders.moe import build_dense_model, named_parameters
from ders.train import TrainConfig, make_task, train_loop
from ders.upcycle import UpcycleConfig, upcycle


def vanilla_model(seed=0, depth=2, n=3):
    dense = build_dense_model(d=6, d_h=10, depth=depth, in_width=4, out_width=2, seed=seed)
    return upcycle(dense, UpcycleConfig(n_experts=n, topk_count=2, method="vanilla", seed=1))


def trained_model(seed=0, steps=120):
    task = make_task("cluster_regression", dict(d=4, n_clusters=2, out_width=2), 17)
    model = vanilla_model(seed=seed)
    return train_loop(model, task, TrainConfig(steps=steps, lr=5e-3, seed=3)).model, task


class TestPairwiseCosine:
    def test_orthogonal_vectors(self):
        cos, undefined = pairwise_cosine([np.array([1.0, 0.0]), np.array([0.0, 1.0])])
        assert cos[0, 1] == 0.0 and cos[1, 0] == 0.0
        assert cos[0, 0] == 1.0 and cos[1, 1] == 1.0
        assert not undefined.any()

    def test_opposite_vectors(self):
        cos, _ = pairwise_cosine([np.array([1.0, 2.0]), np.array([-1.0, -2.0])])
        assert cos[0, 1] == pytest.approx(-1.0, abs=1e-15)

    def test_bitwise_equal_scores_exact_one(self):
        v = np.linspace(-1, 1, 7) * math.pi
        cos, _ = pairwise_cosine([v, v.copy()])
        assert cos[0, 1] == 1.0

    def test_zero_norm_marked_undefined(self):
        cos, undefined = pairwise_cosine([np.zeros(3), np.array([1.0, 2.0, 3.0])])
        assert undefined[0, 0] and undefined[0, 1] and undefined[1, 0]
        assert not undefined[1, 1] and cos[1, 1] == 1.0
        assert np.isnan(cos[0, 1])

    def test_power_of_two_scale_invariance(self):
        rng = np.random.default_rng(5)
        members = [rng.normal(size=12) for _ in range(4)]
        scaled = [members[0] * 4.0] + [m.copy() for m in members[1:]]
        cos_a, _ = pairwise_cosine(members)
        cos_b, _ = pairwise_cosine(scaled)
        assert np.array_equal(cos_a, cos_b)

    def test_values_clamped(self):
        rng = np.random.default_rng(9)
        members = [rng.normal(size=50) for _ in range(6)]
        cos, _ = pairwise_cosine(members)
        assert np.nanmax(cos) <= 1.0 and np.nanmin(cos) >= -1.0


class TestCosineReport:
    def test_untrained_all_exactly_one(self):
        report = cosine_report(vanilla_model())
        for layer in report.layers:
            for tag in ("w_in", "w_out", "mean"):
                assert not layer.undefined[tag].any()
                assert np.all(layer.cosine[tag] == 1.0)

    def test_symmetry_and_unit_diagonal(self):
        model, _ = trained_model()
        report = cosine_report(model)
        for layer in report.layers:
            for tag in ("w_in", "w_out", "mean"):
                mat = layer.cosine[tag]
                assert np.array_equal(mat, mat.T)
                assert np.all(np.diag(mat) == 1.0)
                assert np.all(mat <= 1.0) and np.all(mat >= -1.0)

    def test_mean_is_matrix_average(self):
        model, _ = trained_model(seed=1)
        for layer in cosine_report(model).layers:
            expected = (layer.cosine["w_in"] + layer.cosine["w_out"]) / 2.0
            assert np.array_equal(layer.cosine["mean"], expected)

    def test_member_labels_and_shapes(self):
        report = cosine_report(vanilla_model(n=3))
        layer = report.layers[0]
        assert layer.labels == ["init", "E1", "E2", "E3"]
        assert layer.cosine["mean"].shape == (4, 4)

    def test_decompose_consistency(self):
        model, _ = trained_model(seed=2)
        report = cosine_report(model)
        bases = choose_base(model)
        for layer in report.layers:
            block = model.blocks[layer.block]
            for tag, group, init in zip(
                ("w_in", "w_out"), (block.group_in, block.group_out), bases[layer.block]
            ):
                for i, delta in enumerate(group.deltas):
                    rebuilt = init + delta.materialize(init.dtype)
                    u, v = rebuilt.ravel(), init.ravel()
                    direct = float(np.sum(u * v)) / (
                        math.sqrt(float(np.sum(u * u))) * math.sqrt(float(np.sum(v * v)))
                    )
                    assert layer.cosine[tag][0, i + 1] == pytest.approx(direct, abs=1e-12)

    def test_requires_recorded_init(self):
        dense = build_dense_model(d=6, d_h=10, depth=1, in_width=4, out_width=2, seed=0)
        with pytest.raises(StateError):
            cosine_report(dense)
        sm = upcycle(
            dense,
            UpcycleConfig(n_experts=2, topk_count=1, method="ders_sm", sparse_rate=0.5, seed=1),
        )
        with pytest.raises(StateError, match="init base"):
            cosine_report(sm)


def delta_rows(model):
    """One row per expert and matrix: the delta norms and base-norm ratios
    that ``cosine_report`` holds."""
    return [
        {
            "block": layer.block,
            "matrix": tag,
            "member": member,
            "delta_norm": norm,
            "base_norm": layer.base_norms[tag],
            "ratio": ratio,
        }
        for layer in cosine_report(model).layers
        for tag in ("w_in", "w_out")
        for member, norm, ratio in zip(layer.labels[1:], layer.delta_norms[tag], layer.ratios[tag])
    ]


class TestDeltaStats:
    def test_untrained_ratios_zero(self):
        rows = delta_rows(vanilla_model())
        assert rows and all(r["ratio"] == 0.0 and r["delta_norm"] == 0.0 for r in rows)

    def test_one_tiny_step_bounds_ratio(self):
        task = make_task("cluster_regression", dict(d=4, n_clusters=2, out_width=2), 19)
        dense = build_dense_model(d=6, d_h=10, depth=1, in_width=4, out_width=2, seed=3)
        model = upcycle(dense, UpcycleConfig(n_experts=2, topk_count=2, method="vanilla", seed=1))
        res = train_loop(
            model, task, TrainConfig(steps=1, lr=1e-4, optimizer="sgd", seed=0, eval_every=10)
        )
        rows = delta_rows(res.model)
        assert all(0.0 < r["ratio"] < 1e-2 for r in rows)

    def test_higher_ratio_means_lower_similarity(self):
        model = vanilla_model(n=2, depth=1)
        layer = next(b for b in model.blocks if hasattr(b, "group_in"))
        rng = np.random.default_rng(3)
        layer.group_in.deltas[0].mat += 0.01 * rng.normal(size=layer.group_in.base.shape)
        layer.group_out.deltas[0].mat += 0.01 * rng.normal(size=layer.group_out.base.shape)
        layer.group_in.deltas[1].mat += 2.0 * rng.normal(size=layer.group_in.base.shape)
        layer.group_out.deltas[1].mat += 2.0 * rng.normal(size=layer.group_out.base.shape)
        rows = delta_rows(model)
        ratio = {(r["matrix"], r["member"]): r["ratio"] for r in rows}
        assert ratio[("w_in", "E2")] > ratio[("w_in", "E1")]
        sim = cosine_report(model).layers[0].cosine["mean"]
        assert sim[0, 2] < sim[0, 1]

    def test_row_schema(self):
        rows = delta_rows(vanilla_model(depth=2, n=3))
        assert len(rows) == 2 * 2 * 3
        assert set(rows[0]) == {"block", "matrix", "member", "delta_norm", "base_norm", "ratio"}


class TestEmitters:
    def test_csv_header_and_scope_note(self):
        model, _ = trained_model(seed=3, steps=40)
        text = similarity_to_csv(cosine_report(model))
        lines = text.splitlines()
        assert lines[0].startswith("# cosine similarity over FFN matrices only")
        assert lines[1] == "block,matrix,row,col,value"
        n_layers = len(cosine_report(model).layers)
        assert len(lines) == 2 + n_layers * 3 * 16  # 4 members -> 16 cells per matrix

    def test_csv_marks_undefined(self):
        model = vanilla_model(n=2, depth=1)
        layer = next(b for b in model.blocks if hasattr(b, "group_in"))
        layer.group_in.deltas[0].mat[...] = -layer.group_in.base  # zero-norm member
        text = similarity_to_csv(cosine_report(model))
        assert "undefined" in text

    def test_json_nulls_for_undefined(self):
        model = vanilla_model(n=2, depth=1)
        layer = next(b for b in model.blocks if hasattr(b, "group_in"))
        layer.group_in.deltas[0].mat[...] = -layer.group_in.base
        data = json.loads(similarity_to_json(cosine_report(model)))
        cell = data["layers"][0]["cosine"]["w_in"][0][1]
        assert cell is None
        assert data["note"].startswith("cosine similarity")
