"""Self-test of the benchmark's checks: each passes on a short run's real
outputs and fails once a fault is planted in the output it inspects.

    python3 -m pytest perfbench/test_checks.py -q
"""

from __future__ import annotations

import json
import os
import struct
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import refmodel  # noqa: E402
from ders import cli, moe  # noqa: E402
from ders.checkpoint import load_model  # noqa: E402
from ders.compress import CompressionSpec, ders_compress  # noqa: E402

DROP_RATE = 0.9

CONFIG = {
    "seed": 5,
    "model": {"d": 8, "d_h": 32, "depth": 2, "activation": "gelu"},
    "task": {"kind": "cluster_regression", "seed": 6, "params": {"d": 4, "n_clusters": 4, "out_width": 3, "eval_size": 64}},
    "pretrain": {"steps": 40, "lr": 0.01},
    "upcycle": {"n_experts": 4, "topk_count": 2, "method": "vanilla", "seed": 7},
    "train": {"steps": 20, "lr": 0.003, "seed": 8},
    "compress": {"seed": 9},
}


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("short_run")
    config = out / "config.json"
    config.write_text(json.dumps(CONFIG))
    for argv in (["pretrain-dense"], ["upcycle"], ["train"], ["compress", "--drop-rate", str(DROP_RATE)], ["eval"]):
        assert cli.main(argv[:1] + ["--config", str(config), "--out", str(out)] + argv[1:]) == 0
    return out


def _rewrite_header(path, edit) -> None:
    blob = open(path, "rb").read()
    (header_len,) = struct.unpack_from("<I", blob, 8)
    header = json.loads(blob[12 : 12 + header_len])
    edit(header)
    text = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    with open(path, "wb") as fh:
        fh.write(blob[:8] + struct.pack("<I", len(text)) + text + blob[12 + header_len :])


def test_rescale_scaled_by_1_005_fails_the_sparse_check(run_dir, tmp_path):
    compressed, trained = run_dir / "compressed.ckpt", run_dir / "trained.ckpt"
    assert checks.sparse_deltas(str(compressed), str(trained), DROP_RATE) == []
    planted = tmp_path / "compressed.ckpt"
    planted.write_bytes(compressed.read_bytes())

    def scale_one(header):
        delta = header["model"]["blocks"][0]["group_in"]["deltas"][1]
        delta["rescale"] *= 1.005

    _rewrite_header(planted, scale_one)
    load_model(str(planted))  # the program still loads it
    failures = checks.sparse_deltas(str(planted), str(trained), DROP_RATE)
    assert len(failures) == 1 and "rescale" in failures[0]


def test_keep_statistics_pass_and_catch_a_wrong_drop_rate(run_dir):
    compressed = str(run_dir / "compressed.ckpt")
    report = (run_dir / "compression_report.json").read_text()
    assert checks.keep_statistics(compressed, report, DROP_RATE) == []
    assert checks.keep_statistics(compressed, report, 0.8) != []


def test_one_flipped_quantized_code_fails_the_decode_check(run_dir):
    trained, _ = load_model(str(run_dir / "trained.ckpt"))
    quantized = ders_compress(trained, CompressionSpec("quantize", bit_width=4, seed=1))
    assert checks.quantized_error(quantized, trained) == []
    quantized.blocks[1].group_out.deltas[2].packed[5] ^= 0x08  # top bit of one 4-bit code
    failures = checks.quantized_error(quantized, trained)
    assert len(failures) == 1 and "block 1 out delta2" in failures[0]


def test_one_perturbed_response_row_fails_the_serving_checks(run_dir):
    path = str(run_dir / "compressed.ckpt")
    model, _ = load_model(path)
    reference = refmodel.Reference(path)
    rng = np.random.default_rng(0)
    requests = [rng.standard_normal((int(n), model.in_width)) for n in rng.integers(1, 9, size=12)]
    responses = [moe.model_forward(model, x) for x in requests]
    assert checks.stacked_responses(model, requests, responses) == []
    assert all(checks.matches_reference(reference, x, r) for x, r in zip(requests, responses))
    responses[7] = responses[7].copy()
    responses[7][0] *= 1.0 + 1e-6
    assert checks.stacked_responses(model, requests, responses) == [7]
    assert not checks.matches_reference(reference, requests[7], responses[7])


def test_one_changed_checkpoint_byte_fails_the_round_trip(run_dir, tmp_path):
    source = (run_dir / "compressed.ckpt").read_bytes()
    assert checks.checkpoint_roundtrip(str(run_dir / "compressed.ckpt")) == []
    (header_len,) = struct.unpack_from("<I", source, 8)
    blob = bytearray(source)
    blob[12 + header_len + 100] ^= 0x01  # one bit of one payload byte
    planted = tmp_path / "compressed.ckpt"
    planted.write_bytes(bytes(blob))
    assert checks.checkpoint_roundtrip(str(planted)) != []


def test_eval_check_against_the_reference_forward(run_dir):
    task = cli.Experiment(CONFIG).task()
    x, y = task.eval_set()
    reference = refmodel.Reference(str(run_dir / "compressed.ckpt"))
    text = (run_dir / "eval.json").read_text()
    assert checks.eval_matches(text, reference, x, y) == []
    record = json.loads(text)
    record["eval_metric"] += 2e-6
    assert checks.eval_matches(json.dumps(record), reference, x, y) != []


def test_upcycle_identity_and_closed_form_counts(run_dir):
    dense, _ = load_model(str(run_dir / "dense.ckpt"))
    upcycled, _ = load_model(str(run_dir / "moe.ckpt"))
    assert checks.upcycle_identity(upcycled, dense) == []
    assert checks.trainable_counts(upcycled, "vanilla", 4, 0.75, 4) == []
    upcycled.blocks[0].group_in.deltas[3].mat[0, 0] = 1e-9
    assert len(checks.upcycle_identity(upcycled, dense)) == 1
    assert checks.trainable_counts(upcycled, "ders_sm", 4, 0.75, 4) != []


def test_loss_check_reads_the_metrics_file(run_dir):
    text = (run_dir / "metrics.csv").read_text()
    assert checks.loss_decreases(text) == []
    header, *rows = text.strip().splitlines()
    assert checks.loss_decreases("\n".join([header] + rows[::-1]) + "\n") != []



def test_a_wrong_gradient_fails_the_finite_difference_check(run_dir, monkeypatch):
    from ders import train
    from ders.numkern import RngStream

    model, _ = load_model(str(run_dir / "moe.ckpt"))
    task = cli.Experiment(CONFIG).task()
    batch = task.sample_train(16, RngStream(1, 2))
    assert checks.gradient_fd(model, batch, task, 0.01) == []
    exact = train.loss_and_grads

    def skewed(*args):
        loss, grads = exact(*args)
        grads["blocks.0.router.w_r"] = grads["blocks.0.router.w_r"] * 1.001
        return loss, grads

    monkeypatch.setattr(train, "loss_and_grads", skewed)
    failures = checks.gradient_fd(model, batch, task, 0.01)
    assert len(failures) == 1 and "blocks.0.router.w_r" in failures[0]
