"""CLI pipeline: artifacts, chaining, exit codes, determinism, flag overrides."""

import contextlib
import io
import json
import os
import re
import shutil
import struct
import subprocess
import sys
import tempfile
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import ders
from conftest import (
    HEADER_LEVELS,
    edit_header,
    header_level,
    json_bytes,
    metrics_csv,
    report_to_csv,
    report_to_json,
    similarity_to_csv,
    similarity_to_json,
    sweep_csv,
)
from ders import cli
from ders.accounting import LayerCount, ParamReport, count_report
from ders.analysis import NOTE, LayerSimilarity, SimilarityReport
from ders.checkpoint import load_model, save_model
from ders.cli import Experiment, load_config, main
from ders.compress import CompressionSpec, ders_compress
from ders.deltas import LowRankDelta, QuantizedDelta, SparseDelta
from ders.errors import ConfigError, NumericError
from ders.moe import ACTIVATIONS, build_dense_model
from ders.train import SyntheticTask, TrainConfig, train_loop
from ders.upcycle import UpcycleConfig

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


class TestSweepRowsAreStageModels:
    @pytest.mark.parametrize("extended", [False, True], ids=["plain", "extended"])
    def test_each_compression_row_is_the_compress_stage_checkpoint(
        self, tmp_path, monkeypatch, extended
    ):
        """A compression row's model, saved, is byte-identical to what ``ders
        compress --drop-rate v`` (``--bit-width v``) writes under the same
        config, and its count cells are ``report-params`` on that checkpoint."""
        cfg = write_config(
            tmp_path,
            {
                "model": {"d": 8, "d_h": 16, "depth": 2},
                "pretrain": {"steps": 20, "lr": 0.01, "eval_every": 20},
                "upcycle": {"n_experts": 2, "topk_count": 1, "parallel_universal": True},
                "train": {"steps": 10, "lr": 0.005, "eval_every": 10},
                "compress": {"technique": "sparsify", "drop_rate": 0.5, "extended": extended},
                "sweep": {"drop_rates": [0.5], "bit_widths": [4]},
            },
        )
        out = str(tmp_path / "run")
        for cmd in ("pretrain-dense", "upcycle", "train"):
            assert run(cmd, "--config", cfg, "--out", out) == 0
        row_models = {}
        sweep_row = cli._sweep_row

        def recording_row(kind, value, model, task):
            row_models[kind] = model
            return sweep_row(kind, value, model, task)

        monkeypatch.setattr(cli, "_sweep_row", recording_row)
        assert run("sweep", "--config", cfg, "--out", out) == 0
        with open(os.path.join(out, "sweep.csv")) as fh:
            rows = {r[0]: r for r in (line.split(",") for line in fh.read().splitlines()[1:])}
        for kind in ("drop_rate", "bit_width"):
            stage_out = str(tmp_path / kind)
            copy_ckpt(out, "trained.ckpt", stage_out)
            flag = "--" + kind.replace("_", "-")
            assert run("compress", "--config", cfg, "--out", stage_out, flag, rows[kind][1]) == 0
            assert run("report-params", "--out", stage_out) == 0
            stage_ckpt = os.path.join(stage_out, "compressed.ckpt")
            _, meta = load_model(stage_ckpt)
            assert meta["stage"] == "compress"
            row_ckpt = str(tmp_path / f"{kind}_row.ckpt")
            save_model(row_models[kind], row_ckpt, meta=meta)
            with open(stage_ckpt, "rb") as stage, open(row_ckpt, "rb") as row:
                assert row.read() == stage.read(), kind
            totals = read_json(stage_out, "params.json")["totals"]
            fields = ("stored_values", "stored_bits", "trainable_values")
            assert rows[kind][3:] == [str(totals[f]) for f in fields], kind


class TestSweepChecks:
    @pytest.mark.parametrize("flag", ["--freeze-shared", "--extended"])
    def test_rank_rows_upcycle_as_ders_lm_under_the_flag(self, tmp_path, flag):
        """With ``upcycle.method`` vanilla, as in the README config, a rank
        row is the ders-lm upcycle at its rank under the sweep's flag: its
        trainable count is ``report-params`` of ``upcycle --method ders-lm
        --rank 2 <flag>``."""
        with open(readme_config(tmp_path)) as fh:
            data = json.load(fh)
        assert data["upcycle"]["method"] == "vanilla"
        data["sweep"] = {"ranks": [2]}
        cfg = str(tmp_path / "sweep.json")
        with open(cfg, "w") as fh:
            json.dump(data, fh)
        out = str(tmp_path / "run")
        assert run("pretrain-dense", "--config", cfg, "--out", out) == 0
        assert run("sweep", "--config", cfg, "--out", out, flag) == 0
        with open(os.path.join(out, "sweep.csv")) as fh:
            (row,) = [line.split(",") for line in fh.read().splitlines()[1:]]
        assert row[:2] == ["rank", "2"]
        argv = ("--out", out, "--method", "ders-lm", "--rank", "2", flag)
        assert run("upcycle", "--config", cfg, *argv) == 0
        assert run("report-params", "--out", out) == 0
        assert row[5] == str(read_json(out, "params.json")["totals"]["trainable_values"])

    @pytest.mark.parametrize(
        "sweep,key,bad",
        [
            ({"ranks": [2, 3, 0]}, "ranks", 0),
            ({"drop_rates": [0.5, 1.5]}, "drop_rates", 1.5),
            ({"bit_widths": [8, 3]}, "bit_widths", 3),
            ({"ranks": [2, 100]}, "ranks", 100),  # above min(d, d_h) = 12
        ],
    )
    def test_bad_value_exits_2_before_any_row_computes(
        self, tmp_path, pipeline, monkeypatch, capsys, sweep, key, bad
    ):
        """Every sweep value is checked before the first row compresses or
        trains; the one error line names ``sweep.<key>`` and the value."""
        _, src = pipeline
        out = str(tmp_path / "run")
        for name in ("dense.ckpt", "trained.ckpt"):
            copy_ckpt(src, name, out)
        calls = []
        for name in ("train_loop", "ders_compress"):
            real = getattr(cli, name)
            monkeypatch.setattr(
                cli, name, lambda *a, real=real, name=name: calls.append(name) or real(*a)
            )
        # The base config's sweep lists a drop rate and a bit width: rows that
        # would compute before a later bad value if values were checked late.
        cfg = write_config(tmp_path, {"sweep": sweep})
        assert run("sweep", "--config", cfg, "--out", out) == 2
        assert calls == []
        assert not os.path.exists(os.path.join(out, "sweep.csv"))
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and f"sweep.{key}" in err[0] and repr(bad) in err[0], err


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
    def test_out_of_memory_exits_1_with_one_error_line(self, tmp_path):
        """A config whose first array does not fit the address space fails as
        one ``error:`` line and exit 1, not a traceback, and writes nothing."""
        cfg = write_config(tmp_path, {"model": {"d": 32, "d_h": 10**7, "depth": 2}})
        out = str(tmp_path / "run")
        code = (
            "import resource, sys\n"
            "limit = 3 * 2**29  # 1.5 GiB; one 32 x 10**7 float64 matrix is 2.38 GiB\n"
            "hard = resource.getrlimit(resource.RLIMIT_AS)[1]\n"
            "resource.setrlimit(resource.RLIMIT_AS, (limit, hard))\n"
            "from ders.cli import main\n"
            f"sys.exit(main(['pretrain-dense', '--config', {cfg!r}, '--out', {out!r}]))\n"
        )
        src = os.path.dirname(os.path.dirname(ders.__file__))
        env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "PYTHONPATH": src}
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120
        )
        assert proc.returncode == 1, proc.stderr
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: out of memory"), proc.stderr
        assert not os.path.exists(os.path.join(out, "dense.ckpt"))

    @pytest.mark.parametrize("case", ["--ckpt dir", "dense.ckpt dir", "--out file", "artifact dir"])
    def test_filesystem_error_exit_3_with_one_error_line(self, tmp_path, pipeline, capsys, case):
        """A directory where a checkpoint or artifact file belongs, or a file
        where ``--out`` needs a directory, exits 3 with one ``error:`` line,
        not a traceback."""
        cfg, src = pipeline
        out = str(tmp_path / "run")
        os.makedirs(out)
        trained = os.path.join(src, "trained.ckpt")
        if case == "--ckpt dir":
            argv = ("eval", "--config", cfg, "--out", out, "--ckpt", out)
        elif case == "dense.ckpt dir":
            os.makedirs(os.path.join(out, "dense.ckpt"))
            argv = ("upcycle", "--config", cfg, "--out", out)
        elif case == "--out file":
            open(tmp_path / "file", "w").close()
            argv = ("eval", "--config", cfg, "--out", str(tmp_path / "file"), "--ckpt", trained)
        else:
            os.makedirs(os.path.join(out, "eval.json"))
            argv = ("eval", "--config", cfg, "--out", out, "--ckpt", trained)
        assert run(*argv) == 3
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), lines
        if case == "artifact dir":
            assert os.listdir(out) == ["eval.json"]  # no temp file left behind

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

    def test_one_parser_parses_every_call_as_a_fresh_one(self, tmp_path, monkeypatch, capsys):
        """``main`` builds its parser once per process, and each call still
        parses as a freshly built parser would: a flag that an earlier call
        set, or that the subcommand does not take, reads None."""
        seen = []
        for name, (_, flags) in cli.SUBCOMMANDS.items():
            monkeypatch.setitem(cli.SUBCOMMANDS, name, (lambda args, out: seen.append(args) or 0, flags))
        out = ["--out", str(tmp_path)]
        argvs = [
            ["upcycle", "--method", "ders-sm", "--drop-rate", "0.5", "--extended", "--seed", "3"],
            ["compress", "--bit-width", "4", "--config", "c.json"],
            ["upcycle"],
            ["report-params", "--format", "json", "--ckpt", "m.ckpt"],
            ["sweep", "--freeze-shared"],
            ["eval"],
        ]
        for argv in argvs:
            assert main(argv + out) == 0
            fresh = cli._build_parser.__wrapped__().parse_args(argv + out)
            assert vars(seen[-1]) == vars(fresh)
            assert [key for key in cli._FLAGS if getattr(seen[-1], key) is not None] == [
                key for key in cli._FLAGS if f"--{key.replace('_', '-')}" in argv
            ]
        assert main(["eval", "--rank", "2"] + out) == 2  # a flag eval does not take
        assert "unrecognized arguments: --rank 2" in capsys.readouterr().err
        assert main(["train"] + out) == 0 and seen[-1].rank is None
        assert cli._build_parser() is cli._build_parser()

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

    def test_missing_task_parameter_names_its_key_path(self, tmp_path, capsys):
        data = json.loads(json.dumps(BASE_CONFIG))
        del data["task"]["params"]["n_clusters"]
        cfg = str(tmp_path / "config.json")
        with open(cfg, "w") as fh:
            json.dump(data, fh)
        assert run("pretrain-dense", "--config", cfg, "--out", str(tmp_path / "run")) == 2
        assert "config field 'task.params.n_clusters' is required" in capsys.readouterr().err

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

    @pytest.mark.parametrize("level", HEADER_LEVELS)
    def test_unknown_header_key_exit_3(self, tmp_path, pipeline, capsys, level):
        """A key the program never writes, at any level of the header, is
        corruption named by its key path."""
        cfg, out = pipeline
        where = []

        def edit(header):
            parent, entry = header_level(header, level)
            entry["junk"] = 0
            where.append(f"{parent}.junk" if parent else "junk")

        damaged = str(tmp_path / "damaged.ckpt")
        edit_header(os.path.join(out, "compressed.ckpt"), edit, damaged)
        assert run("eval", "--config", cfg, "--out", str(tmp_path), "--ckpt", damaged) == 3
        assert f"header key {where[0]} holds 0" in capsys.readouterr().err

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
            train_loop(moe, exp.task(), exp.build(TrainConfig, "train"))
        rows = texts[0].decode().splitlines()[1:]
        assert [int(row.split(",")[0]) for row in rows] == [r["step"] for r in exc.value.trace]
        assert 0 < len(rows) < 200


# A tiny config for the mutation properties: d = 2 and d_h = 3, so a rank
# above 2 is out of range.
_TINY_CONFIG = {
    "seed": 1,
    "model": {"d": 2, "d_h": 3, "depth": 1},
    "task": {
        "kind": "cluster_regression",
        "params": {"d": 1, "n_clusters": 1, "out_width": 1, "eval_size": 2},
    },
    "pretrain": {"steps": 1, "batch_size": 2},
    "upcycle": {"n_experts": 2, "topk_count": 1},
    "train": {"steps": 1, "batch_size": 2},
}

_NOT_A_NUMBER = st.one_of(
    st.text(max_size=3), st.booleans(), st.none(), st.lists(st.integers(), max_size=2)
)
_NOT_AN_INT = _NOT_A_NUMBER | st.floats().filter(lambda v: not v.is_integer()) | st.just(2.0)
_NAN = st.just(float("nan"))
_MISSING = object()

# Each model key with the bad values to try: a wrong type, NaN, a missing key,
# zero and negatives (depth 0 is a valid depth).
_BAD_MODEL_VALUES = {
    "d": _NOT_AN_INT | _NAN | st.just(_MISSING) | st.integers(max_value=0),
    "d_h": _NOT_AN_INT | _NAN | st.just(_MISSING) | st.integers(max_value=0),
    "depth": _NOT_AN_INT | _NAN | st.just(_MISSING) | st.integers(max_value=-1),
    "activation": st.integers()
    | st.none()
    | st.text(max_size=6).filter(lambda a: a not in ACTIVATIONS),
}


def _bad_list(good, bad):
    """A list of valid values with a bad one somewhere, or a value that is not
    a list of the right item type at all."""
    planted = st.tuples(st.lists(good, max_size=2), bad, st.lists(good, max_size=2))
    wrong_items = st.lists(st.text(max_size=2) | st.booleans() | st.none(), min_size=1, max_size=2)
    not_a_list = st.text(max_size=3) | st.booleans() | st.none() | st.integers() | st.floats()
    return planted.map(lambda t: [*t[0], t[1], *t[2]]) | wrong_items | not_a_list


# Each sweep key with bad values: out of range (zero, negative, too large),
# NaN, a wrong type, or a missing key (an empty sweep).
_BAD_SWEEP_VALUES = {
    "drop_rates": _bad_list(
        st.floats(0.0, 0.99), st.floats(min_value=1.0) | st.floats(max_value=-1e-9) | _NAN
    )
    | st.just(_MISSING),
    "bit_widths": _bad_list(
        st.sampled_from([1, 2, 4, 8, 16]),
        st.integers().filter(lambda k: k not in (1, 2, 4, 8, 16)) | _NAN | st.just(4.0),
    )
    | st.just(_MISSING),
    "ranks": _bad_list(st.integers(1, 2), st.integers(max_value=0) | st.integers(3, 10**6) | _NAN)
    | st.just(_MISSING),
}


@pytest.fixture(scope="module")
def tiny_run(tmp_path_factory):
    """A run directory holding the tiny config's dense.ckpt and trained.ckpt."""
    tmp = tmp_path_factory.mktemp("tiny")
    cfg = str(tmp / "config.json")
    with open(cfg, "w") as fh:
        json.dump(_TINY_CONFIG, fh)
    out = str(tmp / "run")
    for cmd in ("pretrain-dense", "upcycle", "train"):
        assert run(cmd, "--config", cfg, "--out", out) == 0
    os.remove(os.path.join(out, "moe.ckpt"))
    os.remove(os.path.join(out, "metrics.csv"))
    return tmp, out


def _mutated_run(tmp, out, command, section, key, value):
    """Run ``command`` on the tiny config with ``section.key`` set to
    ``value`` (or deleted); returns (exit code, stderr lines, files in out)."""
    data = json.loads(json.dumps(_TINY_CONFIG))
    data[section] = dict(data.get(section, {}))
    if value is _MISSING:
        data[section].pop(key, None)
    else:
        data[section][key] = value
    cfg = str(tmp / "mutated.json")
    with open(cfg, "w") as fh:
        json.dump(data, fh)
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = run(command, "--config", cfg, "--out", out)
    return code, err.getvalue().splitlines(), sorted(os.listdir(out))


class TestConfigSectionMutations:
    """A bad ``model`` or ``sweep`` key exits 2 with one ``error:`` line that
    names its key path, before anything is written."""

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_bad_model_key(self, tiny_run, data):
        tmp, _ = tiny_run
        key = data.draw(st.sampled_from(sorted(_BAD_MODEL_VALUES)))
        value = data.draw(_BAD_MODEL_VALUES[key])
        out = str(tmp / "model_run")
        os.makedirs(out, exist_ok=True)
        code, err, files = _mutated_run(tmp, out, "pretrain-dense", "model", key, value)
        assert code == 2 and len(err) == 1 and err[0].startswith("error: "), err
        assert re.search(rf"\bmodel\.{key}\b", err[0]), err
        assert files == []

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_bad_sweep_key(self, tiny_run, data):
        """The sweep lists only the mutated key, so deleting it empties the
        sweep, whose error names every sweep key."""
        tmp, out = tiny_run
        key = data.draw(st.sampled_from(sorted(_BAD_SWEEP_VALUES)))
        value = data.draw(_BAD_SWEEP_VALUES[key])
        code, err, files = _mutated_run(tmp, out, "sweep", "sweep", key, value)
        assert code == 2 and len(err) == 1 and err[0].startswith("error: "), err
        assert re.search(rf"\bsweep\.{key}\b", err[0]) or (
            value is _MISSING and all(k in err[0] for k in _BAD_SWEEP_VALUES)
        ), err
        assert files == ["dense.ckpt", "trained.ckpt"]


# The tiny config with every section a stage reads: ``compress`` and ``sweep``
# as well.
_TINY_FULL_CONFIG = {
    **_TINY_CONFIG,
    "compress": {"technique": "sparsify", "drop_rate": 0.5},
    "sweep": {"drop_rates": [0.5]},
}


@pytest.fixture(scope="module")
def tiny_ckpts(tmp_path_factory):
    """A run directory holding the tiny config's dense, moe and trained checkpoints."""
    tmp = tmp_path_factory.mktemp("tiny_ckpts")
    cfg = str(tmp / "config.json")
    with open(cfg, "w") as fh:
        json.dump(_TINY_FULL_CONFIG, fh)
    out = str(tmp / "run")
    for cmd in ("pretrain-dense", "upcycle", "train"):
        assert run(cmd, "--config", cfg, "--out", out) == 0
    return out


def _run_tiny(tmp_path, tiny_ckpts, config, command, *flags):
    """``command`` with ``flags`` on ``config`` in a copy of the tiny run;
    returns (exit code, stderr lines)."""
    out = str(tmp_path / "run")
    shutil.copytree(tiny_ckpts, out)
    cfg = str(tmp_path / "config.json")
    with open(cfg, "w") as fh:
        json.dump(config, fh)
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = run(command, "--config", cfg, "--out", out, *flags)
    return code, err.getvalue().splitlines()


class TestSeedRule:
    """Every seed must be >= 0. A negative one exits 2 with one error line
    naming the key or flag that set it."""

    @pytest.mark.parametrize(
        "build",
        [
            lambda: CompressionSpec("sparsify", seed=-1),
            lambda: SyntheticTask("cluster_regression", d=1, n_clusters=1, seed=-1),
            lambda: TrainConfig(steps=1, seed=-1),
            lambda: UpcycleConfig(n_experts=2, topk_count=1, seed=-1),
        ],
        ids=["CompressionSpec", "SyntheticTask", "TrainConfig", "UpcycleConfig"],
    )
    def test_every_config_dataclass_refuses_a_negative_seed(self, build):
        with pytest.raises(ConfigError, match=r"^seed must be >= 0, got -1$"):
            build()

    @pytest.mark.parametrize("command", ["pretrain-dense", "upcycle", "train", "compress", "eval"])
    def test_negative_task_seed_names_task_seed(self, tmp_path, tiny_ckpts, command):
        """``task.seed`` sits beside ``task.params``, not inside it."""
        config = {**_TINY_FULL_CONFIG, "task": {**_TINY_CONFIG["task"], "seed": -3}}
        code, err = _run_tiny(tmp_path, tiny_ckpts, config, command)
        assert code == 2 and len(err) == 1, err
        assert "'task.seed'" in err[0] and "-3" in err[0] and "params" not in err[0], err

    @pytest.mark.parametrize("command", ["compress", "sweep"])
    def test_negative_compress_seed_names_compress_seed(self, tmp_path, tiny_ckpts, command):
        config = {**_TINY_FULL_CONFIG, "compress": {**_TINY_FULL_CONFIG["compress"], "seed": -5}}
        code, err = _run_tiny(tmp_path, tiny_ckpts, config, command)
        assert code == 2 and len(err) == 1, err
        assert re.search(r"\bcompress\.seed must be >= 0, got -5$", err[0]), err

    @pytest.mark.parametrize("command", ["pretrain-dense", "train"])
    def test_negative_root_seed_names_seed(self, tmp_path, tiny_ckpts, command):
        """The root seed is every stage's default seed; the error names the
        key the user wrote, not a stage's."""
        code, err = _run_tiny(tmp_path, tiny_ckpts, {**_TINY_FULL_CONFIG, "seed": -7}, command)
        assert code == 2 and len(err) == 1, err
        assert "'seed'" in err[0] and "-7" in err[0] and "pretrain" not in err[0], err

    @pytest.mark.parametrize("command", ["pretrain-dense", "train"])
    def test_negative_seed_flag_names_the_flag(self, tmp_path, tiny_ckpts, command):
        code, err = _run_tiny(tmp_path, tiny_ckpts, _TINY_FULL_CONFIG, command, "--seed", "-2")
        assert (code, err) == (2, ["error: --seed must be >= 0, got -2"])


class TestRankBoundNamesItsKeyPath:
    """The ders-lm rank bound depends on the dense model, so ``upcycle``
    checks it, not ``UpcycleConfig``; the CLI still names its key path."""

    def test_upcycle_rank_flag(self, tmp_path, tiny_ckpts):
        argv = ("upcycle", "--method", "ders-lm", "--rank", "100")
        code, err = _run_tiny(tmp_path, tiny_ckpts, _TINY_FULL_CONFIG, *argv)
        assert (code, err) == (2, ["error: upcycle.rank must be <= min(d, d_h) = 2, got 100"])

    def test_sweep_rank(self, tmp_path, tiny_ckpts):
        config = {**_TINY_FULL_CONFIG, "sweep": {"ranks": [100]}}
        code, err = _run_tiny(tmp_path, tiny_ckpts, config, "sweep")
        expected = "error: sweep.ranks: upcycle.rank must be <= min(d, d_h) = 2, got 100"
        assert (code, err) == (2, [expected])


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


# Float cells the writers must spell as the emitters they replaced did: signed
# zeros, subnormals, the extremes, and ordinary values.
_SPECIAL_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.0**-1060, 1e308, -1e308, 0.1, 1 / 3]
_PY_FLOATS = st.sampled_from(_SPECIAL_FLOATS) | st.floats(allow_nan=False, allow_infinity=False)
_FLOATS = _PY_FLOATS | _PY_FLOATS.map(np.float64)
_COUNTS = st.integers(0, 2**62)

_LAYER_COUNTS = st.builds(
    LayerCount,
    name=st.sampled_from(["embed", "blocks.0", "blocks.1", "readout", "total"]),
    kind=st.sampled_from(["embed", "dense", "moe", "readout", "total"]),
    trainable_values=_COUNTS,
    stored_values=_COUNTS,
    stored_bits=_COUNTS,
    index_overhead_bits=_COUNTS,
    scale_overhead_bits=_COUNTS,
    index_entries=_COUNTS,
    scale_entries=_COUNTS,
    # Reports hold Python floats here: the emitter spelled the ratio with repr.
    equivalent_expert_ratio=st.none() | _PY_FLOATS,
)

_PARAM_REPORTS = st.builds(
    ParamReport,
    schema_version=st.just(1),
    bit_width=st.sampled_from([32, 64]),
    layers=st.lists(_LAYER_COUNTS, max_size=4),
    totals=_LAYER_COUNTS,
    ancestor_params=_COUNTS,
    added_params_values_only=st.integers(-(2**62), 2**62),
    added_params_with_overheads=st.integers(-(2**62), 2**62),
)


@st.composite
def _similarity_reports(draw):
    """Reports of up to two layers of 1-4 members, with masked (undefined)
    cosine entries and ``None`` norm ratios."""
    layers = []
    for block in draw(st.lists(st.integers(0, 9), max_size=2, unique=True)):
        m = draw(st.integers(1, 4))
        cosine, undefined = {}, {}
        for tag in ("w_in", "w_out", "mean"):
            mask = draw(arrays(bool, (m, m)))
            values = draw(arrays(np.float64, (m, m), elements=_PY_FLOATS))
            cosine[tag] = np.where(mask, np.nan, values)
            undefined[tag] = mask
        norms = st.lists(_PY_FLOATS, min_size=m - 1, max_size=m - 1)
        ratios = st.lists(st.none() | _PY_FLOATS, min_size=m - 1, max_size=m - 1)
        layers.append(
            LayerSimilarity(
                block=block,
                labels=["init"] + [f"E{i}" for i in range(1, m)],
                cosine=cosine,
                undefined=undefined,
                delta_norms={tag: draw(norms) for tag in ("w_in", "w_out")},
                base_norms={tag: draw(_PY_FLOATS) for tag in ("w_in", "w_out")},
                ratios={tag: draw(ratios) for tag in ("w_in", "w_out")},
            )
        )
    return SimilarityReport(schema_version=1, note=NOTE, layers=layers)


_TRACES = st.lists(
    st.fixed_dictionaries(
        {"loss": _FLOATS, "aux_loss": _FLOATS, "eval_metric": st.just("") | _FLOATS}
    ),
    max_size=5,
).map(lambda rows: [{"step": i + 1, **row} for i, row in enumerate(rows)])

_SWEEP_CELLS = st.tuples(_FLOATS, _COUNTS, _COUNTS, _COUNTS)  # eval metric, three counts
_SWEEP_ROWS = st.tuples(
    _SWEEP_CELLS.map(lambda cells: ["baseline", "", *cells]),
    st.lists(
        st.tuples(
            st.sampled_from(["drop_rate", "bit_width", "rank"]),
            st.integers(1, 64) | _PY_FLOATS,
            _SWEEP_CELLS,
        ).map(lambda row: [row[0], row[1], *row[2]]),
        min_size=1,
        max_size=4,
    ),
).map(lambda rows: [rows[0], *rows[1]])

_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | _FLOATS | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=8), inner, max_size=3),
    max_leaves=12,
)


@pytest.fixture(scope="module")
def writer_run(tmp_path_factory):
    """A run directory whose config and checkpoints the writer properties
    drive each command with; the report each command writes is generated."""
    tmp = tmp_path_factory.mktemp("writers")
    cfg = write_config(tmp, {"sweep": {"drop_rates": [0.5]}})
    out = str(tmp / "run")
    model = build_dense_model(d=2, d_h=3, depth=1, in_width=1, out_width=8, seed=0)
    for name in ("moe.ckpt", "trained.ckpt"):
        save_model(model, os.path.join(out, name))
    return cfg, out


def _read_bytes(out, name):
    with open(os.path.join(out, name), "rb") as fh:
        return fh.read()


class TestWriters:
    """Each command writes, through ``_write_csv`` and ``_write_json``, the
    bytes of the per-artifact emitter it replaced (``conftest``)."""

    _SETTINGS = settings(max_examples=60, deadline=None, derandomize=True, database=None)

    @_SETTINGS
    @given(report=_PARAM_REPORTS)
    def test_report_params_bytes(self, writer_run, report):
        _, out = writer_run
        ckpt = os.path.join(out, "trained.ckpt")
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(cli, "count_report", lambda model: report)
            for fmt in ("json", "csv"):
                assert run("report-params", "--ckpt", ckpt, "--out", out, "--format", fmt) == 0
        assert _read_bytes(out, "params.json") == (report_to_json(report) + "\n").encode()
        assert _read_bytes(out, "params.csv") == report_to_csv(report).encode()

    @_SETTINGS
    @given(report=_similarity_reports())
    def test_analyze_similarity_bytes(self, writer_run, report):
        _, out = writer_run
        ckpt = os.path.join(out, "trained.ckpt")
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(cli, "cosine_report", lambda model: report)
            for fmt in ("json", "csv"):
                assert run("analyze-similarity", "--ckpt", ckpt, "--out", out, "--format", fmt) == 0
        assert _read_bytes(out, "similarity.json") == (similarity_to_json(report) + "\n").encode()
        assert _read_bytes(out, "similarity.csv") == similarity_to_csv(report).encode()

    @_SETTINGS
    @given(trace=_TRACES, diverged=st.booleans())
    def test_metrics_bytes(self, writer_run, trace, diverged):
        """Both ``metrics.csv`` writes: after training, and the partial trace
        of a diverged run."""
        cfg, out = writer_run

        def train_loop(model, task, train_cfg):
            if diverged:
                exc = NumericError("diverged")
                exc.trace = trace
                raise exc
            return types.SimpleNamespace(model=model, trace=trace, best_metric=0.0)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(cli, "train_loop", train_loop)
            assert run("train", "--config", cfg, "--out", out) == (4 if diverged else 0)
        assert _read_bytes(out, "metrics.csv") == metrics_csv(trace).encode()

    @_SETTINGS
    @given(rows=_SWEEP_ROWS)
    def test_sweep_bytes(self, writer_run, rows):
        """``sweep.csv`` from the rows ``_sweep_row`` returns, whatever their
        cells: the config lists one drop rate per row after the baseline."""
        cfg, out = writer_run
        data = load_config(cfg)
        data["sweep"] = {"drop_rates": [0.5] * (len(rows) - 1)}
        sweep_cfg = os.path.join(os.path.dirname(cfg), "sweep.json")
        with open(sweep_cfg, "w") as fh:
            json.dump(data, fh)
        returned = iter(rows)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(cli, "ders_compress", lambda model, spec: model)
            mp.setattr(cli, "_sweep_row", lambda kind, value, model, task: next(returned))
            assert run("sweep", "--config", sweep_cfg, "--out", out) == 0
        assert _read_bytes(out, "sweep.csv") == sweep_csv(rows).encode()

    @_SETTINGS
    @given(data=st.dictionaries(st.text(max_size=8), _JSON, max_size=4))
    def test_json_bytes(self, data):
        """``compression_report.json`` and ``eval.json`` pass their dicts to
        ``_write_json`` unchanged."""
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "report.json")
            cli._write_json(path, data)
            assert _read_bytes(tmp, "report.json") == json_bytes(data)
