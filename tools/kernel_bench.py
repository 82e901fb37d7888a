"""Time ``numkern.matmul`` on every product shape of the two benchmark
workloads, in each orientation, the activations on three shapes, the serving
forward's layers and the parts of a training step; print JSON.

    python3 tools/kernel_bench.py [--repeat N] [--seed S]

Run from anywhere in a source checkout: the program is imported from the
checkout's ``src/`` directory, and the workloads from its ``perfbench/``.

First a census. Each workload of ``perfbench/workloads.py``, which defines
its shapes, counts and stages, runs in-process in a temporary directory at
workload seed ``--seed`` (the seed ``perfbench/run.py --seed`` takes): its
set-up and ``prepare``, then one round that is not recorded, as perfbench
does not trace its warm-up round, then one recorded round. Every
``numkern.matmul`` call is recorded by phase (``setup`` or ``round``), shape
(n × k · k × m) and operand layouts (``C`` for C-contiguous, ``F`` for a
transposed view), and every ``moe.act_forward`` call by phase. The
workload's own checks run paused and are not counted, so a round's matmul
count is the ``numkern.matmul.calls`` of a traced perfbench round: a warm
round, whose served models take their experts from the cache the first
round filled.

Then every recorded key is timed through ``matmul``'s one einsum form in
each orientation: ``direct``, the form over ``(a, b)`` as ``matmul``
computes most outputs, and ``ba``, the C-contiguous transpose of the form
over ``(bᵀ, aᵀ)`` as it computes tall-narrow and one-column ones; and
through ``matmul`` itself. An orientation whose einsum output would have one
column is not timed (it would not give the triple loop's bytes), and 1×1
outputs take the k-loop. Times are medians over ``--repeat`` interleaved
calls, in microseconds. ``einsum_k_ordered`` is the probe decision
``matmul`` took at import.

``rules`` sums calls × time per workload and phase for each rule "compute
the product as ``ba`` when m ≤ T < n or m = 1, else ``direct``" (``matmul``
uses T = 32), for the faster orientation per shape (``best_of_both_us``),
and for ``matmul`` as it stands, beside the phase's matmul ``calls`` and
``act_forward_calls``: an untaped MoE forward runs one activation per block
of routed experts, not one per expert, so fewer activation calls at equal
matmul calls show what blocks save. ``act_forward`` and ``act_grad`` time each
activation and its derivative at 16×64, 32×64 and 512×128 float64.

``forward`` times the serving path on the three models ``compress_serve``
serves (``sparse``, ``4-bit``, ``lowrank``): ``synthesize`` of
expert 0's two matrices, and ``route`` (the first MoE layer, on its input)
and ``model_forward`` at 1, 4, 8 and 2,048 rows, ``warm`` (experts from the
cache) and ``cold`` (each call after ``moe.thaw``, so every routed expert is
synthesized). Beside them it states the trade: ``cache_bytes``, what the
model's expert cache holds after the census rounds, and ``stored_bytes``,
the model's stored bits with their index and scale overheads from
``accounting.count_report``, in bytes. The ``model_forward_us`` rows, warm
and cold, are the evidence for ``moe._BLOCK_PAIRS`` = 64, the most (row,
expert) pairs of one block (``BENCH_25.json`` has them at caps 0 to a whole
layer). A 1-, 4- or 8-row request, at most 16 pairs a layer with top-2
routing, runs each layer's routed experts as one block: 4- and 8-row
forwards take about a fifth less time than with one expert per block. The
2,048-row eval, about 512 pairs an expert, keeps one expert per block; with
one block a layer, its 4 MiB activation slows that forward from about 24 to
35 ms.

``train_step`` times, per upcycle method, the parts of a training step on
``upcycle_train``'s pretrained dense model, upcycled with the workload
config's ``upcycle`` section and stepped with its ``train`` section as
``train_loop`` steps it, after the census: ``loss_parts_us`` (forward,
backward and gradient landing), ``optimizer_us`` (the Adam step on the flat
buffers) and ``zero_check_us`` (zero-filling the flat gradient buffers, which
``loss_parts`` also does), each the median over ``--repeat`` steps after one
warm-up step, with the step count and the number of trainable arrays and
values.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import dataclasses
import json
import os
import statistics
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]

import numpy as np  # noqa: E402

from ders import cli, moe, numkern, train  # noqa: E402
from ders.accounting import count_report  # noqa: E402
from ders.deltas import synthesize  # noqa: E402
from ders.upcycle import UpcycleConfig, upcycle  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

THRESHOLDS = (0, 1, 2, 4, 8, 16, 32, 64, 128)
ACT_SHAPES = ((16, 64), (32, 64), (512, 128))
FORWARD_ROWS = (1, 4, 8, 2048)
SERVED = ("sparse", "4-bit", "lowrank")  # compress_serve's models, in its MODELS order


def _layout(x: np.ndarray) -> str:
    return "C" if x.flags.c_contiguous else "F" if x.flags.f_contiguous else "strided"


class Census:
    """Counts ``numkern.matmul`` calls per (phase, n, k, m, layout of a, of b)
    in ``calls``, and ``moe.act_forward`` calls per phase in ``acts``.

    It serves as a workload's tracer: ``span`` calls straight through, and
    nothing is recorded inside ``paused()``, where the workload runs its own
    checks."""

    def __init__(self):
        self.calls: collections.Counter = collections.Counter()
        self.acts: collections.Counter = collections.Counter()
        self.phase = ""
        self.recording = True

    def __enter__(self):
        inner, act = self.inner, self.act = numkern.matmul, moe.act_forward

        def recording(a, b):
            if self.recording:
                self.calls[(self.phase, a.shape[0], a.shape[1], b.shape[1], _layout(a), _layout(b))] += 1
            return inner(a, b)

        def counting(*args, **kwargs):
            if self.recording:
                self.acts[self.phase] += 1
            return act(*args, **kwargs)

        numkern.matmul, moe.act_forward = recording, counting
        return self

    def __exit__(self, *exc):
        numkern.matmul, moe.act_forward = self.inner, self.act

    @contextlib.contextmanager
    def paused(self):
        recording, self.recording = self.recording, False
        try:
            yield
        finally:
            self.recording = recording

    def span(self, name: str, fn, *args, **kwargs):
        return fn(*args, **kwargs)


def run_workloads(seed: int) -> tuple[dict, dict]:
    """Each workload's :class:`Census`, after its set-up, one uncounted round and one
    counted round in a temporary directory, and each workload, by name."""
    census, workloads = {}, {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, workload_class in WORKLOADS.items():
            with Census() as c:
                workload = workloads[name] = workload_class(seed, os.path.join(tmp, name), c)
                out = os.path.join(tmp, name, "setup")
                c.phase = "setup"
                workload.setup(out)
                workload.prepare(out)
                with c.paused():
                    workload.round()  # the warm-up round perfbench does not trace
                c.phase = "round"
                rnd = workload.round()
            if rnd.failed:
                print(f"kernel_bench: {name}: {rnd.failed} of {rnd.ops} operations failed", file=sys.stderr)
            census[name] = c
    return census, workloads


def _operand(rng, rows: int, cols: int, layout: str) -> np.ndarray:
    if layout == "F":
        return np.ascontiguousarray(rng.standard_normal((cols, rows))).T
    return rng.standard_normal((rows, cols))


def _orientations(a: np.ndarray, b: np.ndarray) -> dict:
    """The timed callables of one product: each exact orientation, and matmul."""
    n, m = a.shape[0], b.shape[1]
    calls = {}
    if n == m == 1:
        calls["k_loop"] = lambda: numkern._k_loop(a, b)
    else:
        if m >= 2:
            calls["direct"] = lambda: numkern._einsum(a, b)
        if n >= 2:
            calls["ba"] = lambda: np.ascontiguousarray(numkern._einsum(b.T, a.T).T)
    calls["matmul"] = lambda: numkern.matmul(a, b)
    return calls


def _median_us(fns: dict, repeat: int, before=lambda: None) -> dict:
    """Median µs of each call over ``repeat`` interleaved calls after one
    warm-up call, with ``before`` called untimed ahead of every call."""
    samples = {name: [] for name in fns}
    for fn in fns.values():
        before()
        fn()  # warm-up
    for _ in range(repeat):
        for name, fn in fns.items():
            before()
            t0 = time.perf_counter()
            fn()
            samples[name].append(time.perf_counter() - t0)
    return {name: round(1e6 * statistics.median(s), 2) for name, s in samples.items()}


def _rule_us(row: dict, threshold: int) -> float:
    """One call's time under "``ba`` when m ≤ threshold < n or m = 1, else
    ``direct``"."""
    if "k_loop" in row:
        return row["k_loop"]
    n, m = row["n"], row["m"]
    use_ba = "direct" not in row or m <= threshold < n
    return row["ba"] if use_ba else row["direct"]


def _best_us(row: dict) -> float:
    return min(row.get(form, np.inf) for form in ("ba", "direct", "k_loop"))


def forward(served: dict, repeat: int, seed: int) -> dict:
    """Per served model: its delta kind, the bytes its expert cache holds
    after the census beside its stored bytes, ``synthesize`` of expert 0's
    ``w_in`` and ``w_out``, and ``route`` and ``model_forward`` per row count,
    the forward ``warm`` (from the cache) and ``cold`` (after ``moe.thaw``)."""
    rng = np.random.default_rng(seed)
    out = {}
    for name, model in served.items():
        layer = next(b for b in model.blocks if isinstance(b, moe.MoELayer))
        x = {rows: 2.0 * rng.standard_normal((rows, model.in_width)) for rows in FORWARD_ROWS}
        h = {rows: numkern.matmul(x[rows], model.embed) for rows in FORWARD_ROWS}
        groups = {"w_in": layer.group_in, "w_out": layer.group_out}
        forwards = {str(r): (lambda r=r: moe.model_forward(model, x[r])) for r in FORWARD_ROWS}
        totals = count_report(model).totals
        out[name] = {
            "kind": layer.group_in.deltas[0].kind,
            "cache_bytes": moe.cache_bytes(model),
            "stored_bytes": (totals.stored_bits + totals.index_overhead_bits + totals.scale_overhead_bits) // 8,
            "synthesize_us": _median_us(
                {tag: (lambda g=g: synthesize(g.base, g.deltas[0])) for tag, g in groups.items()}, repeat
            ),
            "route_us": _median_us(
                {str(r): (lambda r=r: moe.route(layer.router, h[r])) for r in FORWARD_ROWS}, repeat
            ),
            "model_forward_us": {
                "warm": _median_us(forwards, repeat),
                "cold": _median_us(forwards, repeat, before=lambda: moe.thaw(model)),
            },
        }
    return out


def _step_parts(model, task, cfg: train.TrainConfig) -> tuple:
    """``model``'s gradient layout, and ``cfg.steps`` steps of ``train_loop``
    on it in three parts, which are called in order once per step."""
    layout = train.GradLayout(moe.named_parameters(model))
    state = train.optimizer_state(layout)
    batches = iter([
        task.sample_train(cfg.batch_size, numkern.RngStream(cfg.seed, numkern.derive_stream_id("batch", t)))
        for t in range(1, cfg.steps + 1)
    ])
    t = 0

    def loss_parts():
        nonlocal t
        t += 1
        train.loss_parts(model, next(batches), task, cfg.aux_loss_coeff, layout)

    def zero_fill():
        # The buffers now hold the update, which the next step zero-fills anyway.
        for flat in layout.flats.values():
            flat.fill(0)

    return layout, {
        "loss_parts_us": loss_parts,
        "optimizer_us": lambda: train._optimizer_step(cfg, layout, state, t, train._lr_at(cfg, t)),
        "zero_check_us": zero_fill,
    }


def train_step(workload, repeat: int) -> dict:
    """Per upcycle method: the median µs of each part of ``repeat`` training
    steps, after one warm-up step, on the prepared ``upcycle_train``
    ``workload``'s dense model, and the trainable arrays and values."""
    exp = cli.Experiment(workload.config())
    cfg = dataclasses.replace(exp.build(train.TrainConfig, "train"), steps=repeat + 1)
    out = {}
    for method in moe.METHODS:
        model = upcycle(workload.dense, exp.build(UpcycleConfig, "upcycle", method=method))
        layout, parts = _step_parts(model, workload.task, cfg)
        out[method] = {
            "steps": repeat,
            "trainable_arrays": len(layout.params),
            "trainable_values": sum(flat.size for flat in layout.flats.values()),
            **_median_us(parts, repeat),
        }
    return out


def bench(repeat: int, seed: int) -> dict:
    census, workloads = run_workloads(seed)
    keys = sorted({key[1:] for c in census.values() for key in c.calls})
    rng = np.random.default_rng(seed)
    table = []
    for n, k, m, layout_a, layout_b in keys:
        a, b = _operand(rng, n, k, layout_a), _operand(rng, k, m, layout_b)
        row = {"n": n, "k": k, "m": m, "a": layout_a, "b": layout_b}
        row.update(_median_us(_orientations(a, b), repeat))
        for name, c in census.items():
            for phase in ("setup", "round"):
                count = c.calls.get((phase, n, k, m, layout_a, layout_b), 0)
                if count:
                    row[f"{name}.{phase}.calls"] = count
        table.append(row)

    rules = {}
    for name in census:
        for phase in ("setup", "round"):
            col = f"{name}.{phase}.calls"
            rows = [r for r in table if col in r]
            totals = {f"ba_if_m_le_{t}_us": sum(r[col] * _rule_us(r, t) for r in rows) for t in THRESHOLDS}
            totals["best_of_both_us"] = sum(r[col] * _best_us(r) for r in rows)
            totals["matmul_us"] = sum(r[col] * r["matmul"] for r in rows)
            totals["calls"] = sum(r[col] for r in rows)
            totals["act_forward_calls"] = census[name].acts[phase]
            rules[f"{name}.{phase}"] = {key: round(v, 1) for key, v in totals.items()}

    act = {"act_forward_us": {}, "act_grad_us": {}}
    for rows, cols in ACT_SHAPES:
        x = rng.standard_normal((rows, cols))
        for key, fn in (("act_forward_us", moe.act_forward), ("act_grad_us", moe.act_grad)):
            fns = {name: (lambda name=name, fn=fn: fn(name, x)) for name in moe.ACTIVATIONS}
            act[key][f"{rows}x{cols}"] = _median_us(fns, repeat)
    return {
        "repeat": repeat,
        "seed": seed,
        "einsum_k_ordered": numkern._EINSUM_K_ORDERED,
        "rules": rules,
        **act,
        "forward": forward(dict(zip(SERVED, workloads["compress_serve"].models, strict=True)), repeat, seed),
        "train_step": train_step(workloads["upcycle_train"], repeat),
        "matmul_us": table,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeat", type=int, default=100, help="timed calls per shape")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    if args.repeat < 1:
        parser.error("--repeat must be >= 1")
    print(json.dumps(bench(args.repeat, args.seed), indent=1))
    return 0


if __name__ == "__main__":
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout (``| head``): stop without a traceback, and
        # point stdout at /dev/null so the exit's own flush cannot fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    sys.exit(code)
