"""CLI pipeline: artifacts, chaining, exit codes, determinism, flag overrides."""

import json
import os
import re
import shutil
import struct

import numpy as np
import pytest

from conftest import edit_header
from ders.accounting import count_report
from ders.checkpoint import load_model
from ders.cli import Experiment, load_config, main
from ders.compress import CompressionSpec, ders_compress
from ders.deltas import LowRankDelta, QuantizedDelta, SparseDelta
from ders.errors import NumericError
from ders.train import train_loop

BASE_CONFIG = {
    "seed": 7,
    "model": {"d": 12, "d_h": 24, "depth": 2},
    "task": {"kind": "modular_classification", "params": {"d": 1, "n_clusters": 8}, "seed": 3},
    "pretrain": {"steps": 250, "lr": 0.01, "eval_every": 125},
    "upcycle": {"n_experts": 4, "topk_count": 2, "method": "vanilla"},
    "train": {"steps": 120, "lr": 0.005, "eval_every": 60},
    "compress": {"technique": "sparsify", "drop_rate": 0.9},
    "sweep": {"drop_rates": [0.5], "bit_widths": [8]},
}


def write_config(tmp_path, overrides=None, name="config.json"):
    cfg = json.loads(json.dumps(BASE_CONFIG))
    for key, value in (overrides or {}).items():
        if isinstance(value, dict) and isinstance(cfg.get(key), dict):
            cfg[key].update(value)
        else:
            cfg[key] = value
    path = str(tmp_path / name)
    with open(path, "w") as fh:
        json.dump(cfg, fh)
    return path


def run(*argv):
    return main(list(argv))


def readme_config(tmp_path):
    """The config of README.md's CLI quickstart, written to a file."""
    with open(os.path.join(os.path.dirname(__file__), "..", "README.md")) as fh:
        text = re.search(r"```json\n(.*?)```", fh.read(), re.S).group(1)
    path = str(tmp_path / "readme.json")
    with open(path, "w") as fh:
        fh.write(text)
    return path


def copy_ckpt(src, name, out):
    os.makedirs(out, exist_ok=True)
    shutil.copy(os.path.join(src, name), os.path.join(out, name))


def read_json(out, name):
    with open(os.path.join(out, name)) as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """One full pretrain -> upcycle -> train -> compress run shared by tests."""
    tmp = tmp_path_factory.mktemp("pipeline")
    cfg = write_config(tmp)
    out = str(tmp / "run")
    for cmd in ("pretrain-dense", "upcycle", "train", "compress"):
        assert run(cmd, "--config", cfg, "--out", out) == 0
    return cfg, out


class TestPipeline:
    def test_all_artifacts_emitted(self, pipeline):
        cfg, out = pipeline
        assert run("eval", "--config", cfg, "--out", out) == 0
        assert run("report-params", "--out", out) == 0
        assert run("analyze-similarity", "--ckpt", os.path.join(out, "trained.ckpt"), "--out", out) == 0
        assert run("sweep", "--config", cfg, "--out", out) == 0
        for name in (
            "dense.ckpt",
            "moe.ckpt",
            "trained.ckpt",
            "compressed.ckpt",
            "metrics.csv",
            "compression_report.json",
            "eval.json",
            "params.json",
            "similarity.csv",
            "sweep.csv",
        ):
            assert os.path.exists(os.path.join(out, name)), name

    def test_metrics_csv_schema(self, pipeline):
        _, out = pipeline
        with open(os.path.join(out, "metrics.csv")) as fh:
            lines = fh.read().splitlines()
        assert lines[0] == "step,loss,aux_loss,eval_metric"
        assert len(lines) == 1 + 120
        first = lines[1].split(",")
        assert first[0] == "1" and float(first[1]) > 0

    def test_eval_json_fields(self, pipeline):
        cfg, out = pipeline
        run("eval", "--config", cfg, "--out", out)
        data = read_json(out, "eval.json")
        assert data["checkpoint"] == "compressed.ckpt"
        assert data["task_kind"] == "modular_classification"
        assert 0.0 <= data["eval_metric"] <= 100.0

    def test_compression_report_totals(self, pipeline):
        _, out = pipeline
        report = read_json(out, "compression_report.json")
        assert report["technique"] == "sparsify"
        totals = report["totals"]
        assert totals["stored_values_after"] < totals["stored_values_before"]

    def test_sweep_csv_rows(self, pipeline):
        cfg, out = pipeline
        run("sweep", "--config", cfg, "--out", out)
        with open(os.path.join(out, "sweep.csv")) as fh:
            lines = fh.read().splitlines()
        assert lines[0] == "kind,value,eval_metric,stored_values,stored_bits,trainable_values"
        kinds = [line.split(",")[0] for line in lines[1:]]
        assert kinds == ["baseline", "drop_rate", "bit_width"]

    def test_sweep_counts_are_report_totals_of_each_row_model(self, pipeline):
        """Every row's three count cells are ``count_report(m).totals`` of the
        model ``m`` it evaluates: the trained model, or its compression with
        the sweep's own spec."""
        cfg, out = pipeline
        assert run("sweep", "--config", cfg, "--out", out) == 0
        with open(os.path.join(out, "sweep.csv")) as fh:
            rows = [line.split(",") for line in fh.read().splitlines()[1:]]
        trained, _ = load_model(os.path.join(out, "trained.ckpt"))
        seed = load_config(cfg)["seed"]  # the config sets no compress.seed
        techniques = {"drop_rate": "sparsify", "bit_width": "quantize"}
        for kind, value, _, *counts in rows:
            if kind == "baseline":
                model = trained
            else:
                number = float(value) if kind == "drop_rate" else int(value)
                spec = CompressionSpec(techniques[kind], seed=seed, **{kind: number})
                model = ders_compress(trained, spec)
            totals = count_report(model).totals
            assert counts == [
                str(totals.stored_values),
                str(totals.stored_bits),
                str(totals.trainable_values),
            ], kind
        # 8-bit codes replace the delta floats one for one.
        stored = {kind: counts[0] for kind, _, _, *counts in rows}
        assert stored["bit_width"] == stored["baseline"]

    def test_eval_prefers_newest_stage_artifact(self, pipeline):
        cfg, out = pipeline
        run("eval", "--config", cfg, "--out", out)
        assert read_json(out, "eval.json")["stage"] == "compress"
        run("eval", "--config", cfg, "--out", out, "--ckpt", os.path.join(out, "moe.ckpt"))
        assert read_json(out, "eval.json")["checkpoint"] == "moe.ckpt"


class TestIdentityAndChance:
    def test_untrained_eval_near_chance(self, tmp_path):
        cfg = write_config(
            tmp_path,
            {
                "task": {"kind": "modular_classification", "params": {"d": 1, "n_clusters": 16}, "seed": 5},
                "pretrain": {"steps": 1, "lr": 0.0},
            },
        )
        out = str(tmp_path / "run")
        assert run("pretrain-dense", "--config", cfg, "--out", out) == 0
        assert run("eval", "--config", cfg, "--out", out) == 0
        metric = read_json(out, "eval.json")["eval_metric"]
        n_eval = read_json(out, "eval.json")["eval_size"]
        q = 1.0 / 16.0
        sigma = (q * (1 - q) / n_eval) ** 0.5
        assert abs(metric / 100.0 - q) <= 3 * sigma

    def test_upcycle_then_eval_matches_dense_exactly(self, tmp_path):
        cfg = write_config(tmp_path, {"upcycle": {"n_experts": 4, "topk_count": 4}})
        out = str(tmp_path / "run")
        assert run("pretrain-dense", "--config", cfg, "--out", out) == 0
        assert run("eval", "--config", cfg, "--out", out) == 0
        dense_metric = read_json(out, "eval.json")["eval_metric"]
        assert run("upcycle", "--config", cfg, "--out", out) == 0
        assert run("eval", "--config", cfg, "--out", out) == 0
        data = read_json(out, "eval.json")
        assert data["checkpoint"] == "moe.ckpt"
        assert data["eval_metric"] == dense_metric


class TestExitCodes:
    def test_unknown_config_key_exit_2_with_path(self, tmp_path, capsys):
        path = str(tmp_path / "bad.json")
        with open(path, "w") as fh:
            json.dump({"seed": 1, "upcycle": {"n_expert": 4}}, fh)
        assert run("upcycle", "--config", path, "--out", str(tmp_path)) == 2
        assert "upcycle.n_expert" in capsys.readouterr().err

    def test_invalid_json_exit_2_with_line(self, tmp_path, capsys):
        path = str(tmp_path / "bad.json")
        with open(path, "w") as fh:
            fh.write('{"seed": 1,\n  "model": }\n')
        assert run("pretrain-dense", "--config", path, "--out", str(tmp_path)) == 2
        assert "line 2" in capsys.readouterr().err

    def test_missing_seed_exit_2(self, tmp_path, capsys):
        path = str(tmp_path / "bad.json")
        with open(path, "w") as fh:
            json.dump({"model": {"d": 4, "d_h": 8, "depth": 1}}, fh)
        assert run("pretrain-dense", "--config", path, "--out", str(tmp_path)) == 2
        assert "'seed'" in capsys.readouterr().err

    def test_missing_config_exit_2(self, tmp_path):
        assert run("eval", "--out", str(tmp_path)) == 2

    def test_missing_artifact_exit_3(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert run("train", "--config", cfg, "--out", str(tmp_path / "empty")) == 3
        assert "moe.ckpt" in capsys.readouterr().err

    def test_version_skew_exit_3(self, tmp_path, pipeline, capsys):
        _, out = pipeline
        cfg = write_config(tmp_path)
        blob = bytearray(open(os.path.join(out, "dense.ckpt"), "rb").read())
        struct.pack_into("<I", blob, 4, 99)
        skewed = str(tmp_path / "skewed.ckpt")
        with open(skewed, "wb") as fh:
            fh.write(blob)
        assert run("eval", "--config", cfg, "--out", str(tmp_path), "--ckpt", skewed) == 3
        assert "newer" in capsys.readouterr().err

    def test_non_vanilla_similarity_exit_3(self, tmp_path):
        cfg = write_config(tmp_path, {"upcycle": {"method": "ders_lm", "rank": 2}})
        out = str(tmp_path / "run")
        assert run("pretrain-dense", "--config", cfg, "--out", out) == 0
        assert run("upcycle", "--config", cfg, "--out", out) == 0
        assert run("analyze-similarity", "--out", out, "--ckpt", os.path.join(out, "moe.ckpt")) == 3

    def test_bad_flag_exit_2(self):
        assert run("upcycle", "--method", "magic") == 2

    def test_empty_eval_set_exit_2(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            {
                "task": {
                    "kind": "cluster_regression",
                    "params": {"d": 4, "n_clusters": 2, "eval_size": 0},
                },
                "pretrain": {"steps": 5},
            },
        )
        out = str(tmp_path / "run")
        assert run("pretrain-dense", "--config", cfg, "--out", out) == 2
        assert "eval_size" in capsys.readouterr().err
        assert not os.path.exists(os.path.join(out, "dense.ckpt"))

    @pytest.mark.parametrize("field,value", [("steps", 1.5), ("steps", "5"), ("lr", "fast")])
    def test_wrongly_typed_train_field_exit_2(self, tmp_path, capsys, field, value):
        cfg = write_config(tmp_path, {"pretrain": {"steps": 5, field: value}})
        assert run("pretrain-dense", "--config", cfg, "--out", str(tmp_path / "run")) == 2
        assert field in capsys.readouterr().err


    @pytest.mark.parametrize(
        "command,section,field,value",
        [
            ("pretrain-dense", "model", "d", "8"),
            ("pretrain-dense", "task", "params", [1]),
            ("upcycle", "upcycle", "n_experts", True),
            ("compress", "compress", "drop_rate", "0.5"),
            ("train", "train", "lr", float("inf")),
            ("pretrain-dense", "task", "params.spread", float("nan")),
        ],
    )
    def test_wrongly_typed_config_field_exit_2(
        self, tmp_path, capsys, command, section, field, value
    ):
        """A dotted ``field`` names a nested key; json.dump writes inf and
        nan as the Infinity and NaN that json.loads accepts."""
        for key in reversed(field.split(".")):
            value = {key: value}
        cfg = write_config(tmp_path, {section: value})
        assert run(command, "--config", cfg, "--out", str(tmp_path / "run")) == 2
        assert f"'{section}.{field}'" in capsys.readouterr().err

    def test_missing_required_field_exit_2(self, tmp_path, pipeline, capsys):
        """A stage config field without a default is named by its key path."""
        _, src = pipeline
        data = json.loads(json.dumps(BASE_CONFIG))
        del data["train"]["steps"]
        cfg = str(tmp_path / "config.json")
        with open(cfg, "w") as fh:
            json.dump(data, fh)
        out = str(tmp_path / "run")
        copy_ckpt(src, "moe.ckpt", out)
        assert run("train", "--config", cfg, "--out", out) == 2
        assert "'train.steps'" in capsys.readouterr().err
        assert not os.path.exists(os.path.join(out, "trained.ckpt"))

    def test_negative_noise_exit_2(self, tmp_path, capsys):
        params = {"d": 1, "n_clusters": 8, "noise": -1.0}
        cfg = write_config(tmp_path, {"task": {"params": params}})
        assert run("pretrain-dense", "--config", cfg, "--out", str(tmp_path / "run")) == 2
        assert "noise" in capsys.readouterr().err

    def test_missing_delta_header_field_exit_3(self, tmp_path, pipeline, capsys):
        cfg, out = pipeline

        def damage(header):
            moe = next(b for b in header["model"]["blocks"] if b["kind"] == "moe")
            del moe["group_in"]["deltas"][0]["rows"]

        damaged = str(tmp_path / "damaged.ckpt")
        edit_header(os.path.join(out, "compressed.ckpt"), damage, damaged)
        assert run("eval", "--config", cfg, "--out", str(tmp_path), "--ckpt", damaged) == 3
        assert "'rows'" in capsys.readouterr().err

    @pytest.mark.parametrize("damage", ["no n_experts", "negative offset"])
    def test_damaged_topology_or_offset_exit_3(self, tmp_path, pipeline, capsys, damage):
        cfg, out = pipeline

        def edit(header):
            if damage == "no n_experts":
                del next(b for b in header["model"]["blocks"] if b["kind"] == "moe")["n_experts"]
            else:
                rec = next(r for r in header["records"] if r["name"] == "readout")
                rec["offset"] = -2 * rec["nbytes"]

        damaged = str(tmp_path / "damaged.ckpt")
        edit_header(os.path.join(out, "trained.ckpt"), edit, damaged)
        assert run("eval", "--config", cfg, "--out", str(tmp_path), "--ckpt", damaged) == 3
        assert ("n_experts" if damage == "no n_experts" else "readout") in capsys.readouterr().err

    def test_unparseable_record_dtype_exit_3(self, tmp_path, pipeline, capsys):
        """A record's dtype string is compared with the expected one, never
        parsed: numpy's parser raises SyntaxError on ",f8"."""
        _, out = pipeline

        def edit(header):
            header["records"][0]["dtype"] = ",f8"

        damaged = str(tmp_path / "damaged.ckpt")
        edit_header(os.path.join(out, "trained.ckpt"), edit, damaged)
        assert run("report-params", "--out", str(tmp_path), "--ckpt", damaged) == 3
        assert "',f8'" in capsys.readouterr().err

    @pytest.mark.parametrize("field", ["offset", "n_experts", "shape"])
    def test_mistyped_header_field_exit_3(self, tmp_path, pipeline, capsys, field):
        cfg, out = pipeline

        def edit(header):
            if field == "n_experts":
                next(b for b in header["model"]["blocks"] if b["kind"] == "moe")[field] = "2"
            else:
                rec = next(r for r in header["records"] if r["name"] == "readout")
                rec[field] = "0" if field == "offset" else "x"

        damaged = str(tmp_path / "damaged.ckpt")
        edit_header(os.path.join(out, "trained.ckpt"), edit, damaged)
        assert run("eval", "--config", cfg, "--out", str(tmp_path), "--ckpt", damaged) == 3
        assert "wrong type" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "field,value",
        [
            ("n_experts", 2.0),
            ("extended", "no"),
            ("topk_count", 9),
            ("activation", "foo"),
            ("trainable_base", "yes"),
            ("trainable_base", True),
            ("d", 8.0),
            ("d_h", 25),
            ("kind", "moa"),
        ],
    )
    def test_invalid_model_scalar_exit_3(self, tmp_path, pipeline, capsys, field, value):
        """A damaged size, flag, activation or block kind that keeps a valid
        JSON type is refused as corruption; ``d`` and ``d_h`` are the model's,
        the rest the MoE layer's (a vanilla layer, whose base must stay frozen)."""
        cfg, out = pipeline

        def edit(header):
            topo = header["model"]
            in_model = field in ("d", "d_h")
            entry = topo if in_model else next(b for b in topo["blocks"] if b["kind"] == "moe")
            entry[field] = value

        damaged = str(tmp_path / "damaged.ckpt")
        edit_header(os.path.join(out, "trained.ckpt"), edit, damaged)
        assert run("eval", "--config", cfg, "--out", str(tmp_path), "--ckpt", damaged) == 3
        err = capsys.readouterr().err
        assert field in err and repr(value) in err

    def test_unknown_method_exit_3(self, tmp_path, pipeline, capsys):
        """An unknown MoE ``method`` is corruption for every command that
        loads the checkpoint, not a silent load or a misleading message."""
        cfg, out = pipeline

        def edit(header):
            next(b for b in header["model"]["blocks"] if b["kind"] == "moe")["method"] = "foo"

        damaged = str(tmp_path / "damaged.ckpt")
        edit_header(os.path.join(out, "trained.ckpt"), edit, damaged)
        for cmd in (
            ("eval", "--config", cfg),
            ("report-params",),
            ("analyze-similarity",),
        ):
            assert run(*cmd, "--out", str(tmp_path), "--ckpt", damaged) == 3, cmd
            err = capsys.readouterr().err
            assert "method" in err and "'foo'" in err, cmd

    @pytest.mark.parametrize(
        "part,command",
        [
            ("header", "report-params"),
            ("delta", "report-params"),
            ("meta", "eval"),
            ("no-meta", "eval"),
        ],
    )
    def test_wrongly_shaped_header_exit_3(self, tmp_path, pipeline, capsys, part, command):
        """Valid JSON of the wrong shape is corruption, not a traceback or a
        silent load: a header, a delta entry or a ``meta`` that is not a JSON
        object, or a header whose ``meta`` key is renamed away."""
        cfg, out = pipeline

        def edit(header):
            if part == "header":
                return [1]
            if part == "delta":
                moe = next(b for b in header["model"]["blocks"] if b["kind"] == "moe")
                moe["group_in"]["deltas"][0] = 5
            elif part == "meta":
                header["meta"] = 3
            else:
                header["leta"] = header.pop("meta")

        damaged = str(tmp_path / "damaged.ckpt")
        edit_header(os.path.join(out, "trained.ckpt"), edit, damaged)
        assert run(command, "--config", cfg, "--out", str(tmp_path), "--ckpt", damaged) == 3
        assert "damaged.ckpt" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "method,value",
        [("vanilla", "record"), ("vanilla", "foo"), ("vanilla", None), ("ders_sm", "alias")],
    )
    def test_wrong_init_base_field_exit_3(self, tmp_path, pipeline, capsys, method, value):
        """A vanilla layer's init base is its group base, marked "alias" in the
        header, and no other layer has one (null): any other value is corruption."""
        cfg, out = pipeline
        src = os.path.join(out, "trained.ckpt")
        if method == "ders_sm":
            sm = str(tmp_path / "sm")
            copy_ckpt(out, "dense.ckpt", sm)
            assert run("upcycle", "--config", cfg, "--out", sm, "--method", "ders-sm") == 0
            src = os.path.join(sm, "moe.ckpt")

        def edit(header):
            next(b for b in header["model"]["blocks"] if b["kind"] == "moe")["init_base_in"] = value

        damaged = str(tmp_path / "damaged.ckpt")
        edit_header(src, edit, damaged)
        assert run("eval", "--config", cfg, "--out", str(tmp_path), "--ckpt", damaged) == 3
        err = capsys.readouterr().err
        assert "init_base_in" in err and repr(value) in err

    def test_train_divergence_keeps_trace_exit_4(self, tmp_path, pipeline):
        """A diverging run exits 4 and still writes one metrics row per
        completed step, the same bytes on every run."""
        _, src = pipeline
        cfg = write_config(
            tmp_path, {"train": {"steps": 200, "lr": 1e9, "optimizer": "sgd", "eval_every": 500}}
        )
        texts = []
        for i in (0, 1):
            out = str(tmp_path / f"run{i}")
            copy_ckpt(src, "moe.ckpt", out)
            with np.errstate(all="ignore"):
                assert run("train", "--config", cfg, "--out", out) == 4
            assert not os.path.exists(os.path.join(out, "trained.ckpt"))
            with open(os.path.join(out, "metrics.csv"), "rb") as fh:
                texts.append(fh.read())
        assert texts[0] == texts[1]
        exp = Experiment(load_config(cfg))
        moe, _ = load_model(os.path.join(src, "moe.ckpt"))
        with np.errstate(all="ignore"), pytest.raises(NumericError) as exc:
            train_loop(moe, exp.task(), exp.train_config("train"))
        rows = texts[0].decode().splitlines()[1:]
        assert [int(row.split(",")[0]) for row in rows] == [r["step"] for r in exc.value.trace]
        assert 0 < len(rows) < 200


class TestDeterminismAndThreads:
    def test_reruns_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path, {"pretrain": {"steps": 40}, "train": {"steps": 30}})
        outs = [str(tmp_path / f"run{i}") for i in (0, 1)]
        for out in outs:
            for cmd in ("pretrain-dense", "upcycle", "train", "compress", "eval"):
                assert run(cmd, "--config", cfg, "--out", out) == 0
        for name in ("dense.ckpt", "moe.ckpt", "trained.ckpt", "compressed.ckpt", "metrics.csv", "eval.json"):
            with open(os.path.join(outs[0], name), "rb") as fa, open(os.path.join(outs[1], name), "rb") as fb:
                assert fa.read() == fb.read(), name

    def test_seed_override_changes_model(self, tmp_path):
        cfg = write_config(tmp_path, {"pretrain": {"steps": 5}})
        out_a, out_b = str(tmp_path / "a"), str(tmp_path / "b")
        assert run("pretrain-dense", "--config", cfg, "--out", out_a) == 0
        assert run("pretrain-dense", "--config", cfg, "--out", out_b, "--seed", "99") == 0
        with open(os.path.join(out_a, "dense.ckpt"), "rb") as fa, open(
            os.path.join(out_b, "dense.ckpt"), "rb"
        ) as fb:
            assert fa.read() != fb.read()


class TestFlagOverrides:
    @pytest.mark.parametrize(
        "argv",
        [
            ("pretrain-dense", "--extended"),
            ("upcycle", "--bit-width", "4"),
            ("upcycle", "--format", "csv"),
            ("train", "--method", "ders-lm"),
            ("compress", "--rank", "2"),
            ("compress", "--freeze-shared"),
            ("eval", "--drop-rate", "0.5"),
            ("report-params", "--rank", "2"),
            ("analyze-similarity", "--method", "vanilla"),
            ("sweep", "--bit-width", "4"),
        ],
        ids=" ".join,
    )
    def test_flag_a_subcommand_does_not_read_exits_2_and_writes_nothing(
        self, tmp_path, pipeline, capsys, argv
    ):
        _, src = pipeline
        cfg = write_config(tmp_path)
        out = str(tmp_path / "run")
        for name in ("dense.ckpt", "moe.ckpt", "trained.ckpt"):
            copy_ckpt(src, name, out)
        before = {name: os.path.getmtime(os.path.join(out, name)) for name in os.listdir(out)}
        assert run(argv[0], "--config", cfg, "--out", out, *argv[1:]) == 2
        assert "unrecognized arguments" in capsys.readouterr().err
        after = {name: os.path.getmtime(os.path.join(out, name)) for name in os.listdir(out)}
        assert after == before

    def test_method_and_rank_flags(self, tmp_path, pipeline):
        _, src = pipeline
        cfg = write_config(tmp_path)
        out = str(tmp_path / "run")
        os.makedirs(out, exist_ok=True)
        with open(os.path.join(src, "dense.ckpt"), "rb") as fh:
            blob = fh.read()
        with open(os.path.join(out, "dense.ckpt"), "wb") as fh:
            fh.write(blob)
        assert run("upcycle", "--config", cfg, "--out", out, "--method", "ders-lm", "--rank", "2") == 0
        model, meta = load_model(os.path.join(out, "moe.ckpt"))
        assert meta["method"] == "ders_lm"
        layer = next(b for b in model.blocks if hasattr(b, "group_in"))
        delta = layer.group_in.deltas[0]
        assert isinstance(delta, LowRankDelta) and delta.rank == 2

    def test_bit_width_flag_selects_quantize(self, tmp_path, pipeline):
        _, src = pipeline
        cfg = write_config(tmp_path, {"compress": None})
        with open(cfg) as fh:
            data = json.load(fh)
        del data["compress"]
        with open(cfg, "w") as fh:
            json.dump(data, fh)
        out = str(tmp_path / "run")
        os.makedirs(out, exist_ok=True)
        with open(os.path.join(src, "trained.ckpt"), "rb") as fh:
            blob = fh.read()
        with open(os.path.join(out, "trained.ckpt"), "wb") as fh:
            fh.write(blob)
        assert run("compress", "--config", cfg, "--out", out, "--bit-width", "4") == 0
        model, meta = load_model(os.path.join(out, "compressed.ckpt"))
        assert meta["technique"] == "quantize"
        layer = next(b for b in model.blocks if hasattr(b, "group_in"))
        delta = layer.group_in.deltas[0]
        assert isinstance(delta, QuantizedDelta) and delta.bit_width == 4

    def test_format_flag(self, tmp_path, pipeline):
        _, out = pipeline
        dest = str(tmp_path / "fmt")
        os.makedirs(dest, exist_ok=True)
        ckpt = os.path.join(out, "trained.ckpt")
        assert run("report-params", "--out", dest, "--ckpt", ckpt, "--format", "csv") == 0
        assert os.path.exists(os.path.join(dest, "params.csv"))
        assert run("analyze-similarity", "--out", dest, "--ckpt", ckpt, "--format", "json") == 0
        assert os.path.exists(os.path.join(dest, "similarity.json"))
        data = json.load(open(os.path.join(dest, "similarity.json")))
        assert data["note"].startswith("cosine similarity")

    @pytest.mark.parametrize(
        "flag,value,kind",
        [("--bit-width", "4", QuantizedDelta), ("--drop-rate", "0.5", SparseDelta)],
    )
    def test_lone_flag_selects_its_technique_over_the_config(
        self, tmp_path, pipeline, flag, value, kind
    ):
        """README's config sets ``compress.technique: "sparsify"``; a lone
        ``--bit-width`` still quantizes, and a lone ``--drop-rate`` sparsifies
        over a config that says ``quantize``."""
        _, src = pipeline
        cfg = readme_config(tmp_path)
        if kind is SparseDelta:
            data = load_config(cfg)
            data["compress"]["technique"] = "quantize"
            with open(cfg, "w") as fh:
                json.dump(data, fh)
        out = str(tmp_path / "run")
        copy_ckpt(src, "trained.ckpt", out)
        assert run("compress", "--config", cfg, "--out", out, flag, value) == 0
        model, _ = load_model(os.path.join(out, "compressed.ckpt"))
        layer = next(b for b in model.blocks if hasattr(b, "group_in"))
        assert all(isinstance(d, kind) for d in layer.group_in.deltas)
        if kind is QuantizedDelta:
            assert layer.group_in.deltas[0].bit_width == 4

    def test_compress_both_flags_rejected_whatever_the_config(self, tmp_path, pipeline, capsys):
        _, src = pipeline
        out = str(tmp_path / "run")
        copy_ckpt(src, "trained.ckpt", out)
        cfg = readme_config(tmp_path)
        flags = ("--bit-width", "4", "--drop-rate", "0.5")
        assert run("compress", "--config", cfg, "--out", out, *flags) == 2
        assert "technique" in capsys.readouterr().err
        assert not os.path.exists(os.path.join(out, "compressed.ckpt"))

    def test_compress_both_flags_without_technique_rejected(self, tmp_path, pipeline, capsys):
        _, src = pipeline
        cfg = write_config(tmp_path)
        with open(cfg) as fh:
            data = json.load(fh)
        del data["compress"]
        with open(cfg, "w") as fh:
            json.dump(data, fh)
        out = str(tmp_path / "run")
        os.makedirs(out, exist_ok=True)
        with open(os.path.join(src, "trained.ckpt"), "rb") as fh:
            blob = fh.read()
        with open(os.path.join(out, "trained.ckpt"), "wb") as fh:
            fh.write(blob)
        code = run(
            "compress", "--config", cfg, "--out", out, "--bit-width", "4", "--drop-rate", "0.5"
        )
        assert code == 2
        assert "technique" in capsys.readouterr().err
