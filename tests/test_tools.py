"""The command-line tools under ``tools/``: how they end when their reader
does, the manifest's ``save → load → save`` check, and kernel_bench's census,
serving forward and training step sections."""

import os
import subprocess
import sys

import numpy as np
import pytest

from conftest import build_mixed_moe_model
from ders import cli, moe, numkern
from ders.accounting import count_report
from ders.moe import METHODS, cache_bytes, copy_model, forward_tape, model_forward, named_parameters
from ders.upcycle import UpcycleConfig, upcycle

TOOLS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "tools")


@pytest.mark.parametrize(
    "argv",
    [
        ["pipeline_manifest.py"],
        ["kernel_bench.py", "--repeat", "1"],
    ],
    ids=lambda argv: argv[0],
)
def test_closed_stdout_stops_without_a_traceback(argv):
    """Writing to a pipe whose reader has gone (``tool | head``) ends the
    tool with exit 1 and nothing on stderr."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(TOOLS, argv[0]), *argv[1:]],
            stdout=write_end,
            stderr=subprocess.PIPE,
            text=True,
            timeout=300,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 1
    assert proc.stderr == ""


def test_manifest_names_a_checkpoint_that_changes_on_resave(tmp_path, monkeypatch):
    """A checkpoint whose bytes change on ``save → load → save`` stops the
    manifest run with its name (exit 1 from the command line)."""
    monkeypatch.syspath_prepend(TOOLS)
    import pipeline_manifest

    real_save = pipeline_manifest.save_model

    def save_one_byte_longer(model, path, meta=None):
        real_save(model, path, meta=meta)
        with open(path, "ab") as fh:
            fh.write(b"\0")

    monkeypatch.setattr(pipeline_manifest, "save_model", save_one_byte_longer)
    with pytest.raises(SystemExit) as exc:
        pipeline_manifest.run(pipeline_manifest.PIPELINE[:1], str(tmp_path))
    assert "vanilla/dense.ckpt changed on save → load → save" in str(exc.value.code)


def test_census_records_matmul_outside_paused_blocks(monkeypatch):
    """As a workload's tracer, the census counts each ``numkern.matmul`` call
    by phase, shape and layout, except inside ``paused()``; ``span`` returns
    what the function it calls returns."""
    monkeypatch.syspath_prepend(TOOLS)
    import kernel_bench

    a, b = np.ones((2, 3)), np.ones((3, 4))
    real = numkern.matmul
    with kernel_bench.Census() as census:
        census.phase = "round"
        with census.paused():
            numkern.matmul(a, b)
        assert not census.calls
        assert census.span("numkern.matmul", numkern.matmul, a, np.asfortranarray(b)).shape == (2, 4)
        assert census.span("add", lambda x, y=0: x + y, 1, y=2) == 3
    assert numkern.matmul is real
    numkern.matmul(a, b)  # after the block: not counted
    assert census.calls == {("round", 2, 3, 4, "C", "F"): 1}


def test_census_counts_act_forward_outside_paused_blocks(monkeypatch):
    """The census counts each ``moe.act_forward`` call by phase, except
    inside ``paused()``, and restores ``moe.act_forward`` on exit."""
    monkeypatch.syspath_prepend(TOOLS)
    import kernel_bench

    x = np.ones((2, 3))
    real = moe.act_forward
    with kernel_bench.Census() as census:
        census.phase = "setup"
        assert moe.act_forward("relu", x).tobytes() == real("relu", x).tobytes()
        census.phase = "round"
        with census.paused():
            moe.act_forward("gelu", x)
        moe.act_forward("tanh", x, out=x.copy())
        moe.act_forward("identity", x)
    assert moe.act_forward is real
    moe.act_forward("gelu", x)  # after the block: not counted
    assert census.acts == {"setup": 1, "round": 2}
    assert not census.calls


def test_census_counts_one_activation_per_block(monkeypatch):
    """A served forward's activation count in the census falls with blocks
    while its matmul count stays: each MoE layer of a 2-row forward runs one
    block instead of one per routed expert."""
    monkeypatch.syspath_prepend(TOOLS)
    import kernel_bench

    model = build_mixed_moe_model(2)
    x = np.random.default_rng(2).standard_normal((2, model.in_width))
    censuses = []
    for cap in (0, moe._BLOCK_PAIRS):  # one expert per block, then the default
        monkeypatch.setattr(moe, "_BLOCK_PAIRS", cap)
        with kernel_bench.Census() as census:
            census.phase = "round"
            model_forward(model, x)
        censuses.append(census)
    per_expert, blocked = censuses
    _, tape = forward_tape(model, x)
    routed = sum(int((rec["scores"] != 0.0).any(axis=0).sum()) for rec in tape["blocks"] if rec["kind"] == "moe")
    assert routed > 2
    # The dense block, the universal FFN and member N+1 run one activation each.
    assert per_expert.acts["round"] == 3 + routed
    assert blocked.acts["round"] == 3 + 2
    assert blocked.calls == per_expert.calls


def test_train_step_counts_the_trainable_parameters_of_each_method(tmp_path, monkeypatch):
    """kernel_bench's ``train_step`` steps each method's upcycled model of
    the prepared ``upcycle_train`` workload, whose trainable arrays and
    values are the upcycled model's."""
    monkeypatch.syspath_prepend(TOOLS)
    import kernel_bench

    workload = kernel_bench.WORKLOADS["upcycle_train"](0, str(tmp_path), kernel_bench.Census())
    workload.setup(str(tmp_path / "setup"))
    workload.prepare(str(tmp_path / "setup"))
    report = kernel_bench.train_step(workload, 1)
    exp = cli.Experiment(workload.config())
    for method in METHODS:
        upcycled = upcycle(workload.dense, exp.build(UpcycleConfig, "upcycle", method=method))
        assert report[method]["steps"] == 1
        assert report[method]["trainable_values"] == count_report(upcycled).totals.trainable_values
        assert report[method]["trainable_arrays"] == len(named_parameters(upcycled))


def test_forward_states_the_cache_trade(monkeypatch):
    """kernel_bench's ``forward`` section reports what a served model's
    expert cache holds beside the model's stored bytes, and times the
    forward warm and cold; the cold calls leave nothing cached."""
    monkeypatch.syspath_prepend(TOOLS)
    import kernel_bench

    model = copy_model(build_mixed_moe_model(0))
    x = np.random.default_rng(0).standard_normal((16, model.in_width))
    model_forward(model, x)
    model_forward(model, x)
    held = cache_bytes(model)
    totals = count_report(model).totals
    report = kernel_bench.forward({"mixed": model}, 1, 0)["mixed"]
    assert report["cache_bytes"] == held > 0
    assert report["stored_bytes"] == (
        totals.stored_bits + totals.index_overhead_bits + totals.scale_overhead_bits
    ) // 8
    rows = [str(r) for r in kernel_bench.FORWARD_ROWS]
    assert list(report["model_forward_us"]["warm"]) == list(report["model_forward_us"]["cold"]) == rows
    assert cache_bytes(model) == 0
