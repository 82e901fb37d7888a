"""Time the parts of one training step, per upcycle method, and print them as JSON.

    python3 tools/train_step_bench.py [--steps N] [--seed S]

Run from anywhere in a source checkout: the program is imported from the
checkout's ``src/`` directory, and the workload from its ``perfbench/``. The
model is the benchmark's ``upcycle_train`` model at workload seed ``--seed``
(the seed ``perfbench/run.py --seed`` takes), whose shapes
``perfbench/workloads.py`` defines: the dense model the workload's set-up
pretrains, in a temporary directory, upcycled by each method with the
workload config's ``upcycle`` section and stepped with its ``train`` section.

Each step runs as ``train_loop`` runs it, on one gradient layout, and times:

* ``loss_parts_us``: the forward, backward and gradient landing;
* ``optimizer_us``: the Adam step on the flat buffers;
* ``zero_check_us``: zero-filling the flat gradient buffers plus their
  finiteness check (both also inside ``loss_parts_us``).

Each time is the median over the steps, in microseconds, with the step count
and the number of trainable arrays and values. The first step of each method
is a warm-up and is not timed.
"""

from __future__ import annotations

import argparse
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

from ders import cli, numkern, train  # noqa: E402
from ders.moe import METHODS, named_parameters  # noqa: E402
from ders.upcycle import UpcycleConfig, upcycle  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _us(samples: list) -> float:
    return round(1e6 * statistics.median(samples), 2)


def pretrained(seed: int, workdir: str):
    """The dense model of the ``upcycle_train`` set-up, and the workload's config."""
    workload = WORKLOADS["upcycle_train"](seed, workdir, Tracer())
    out = os.path.join(workdir, "setup")
    workload.setup(out)
    workload.prepare(out)
    return workload.dense, cli.Experiment(workload.config())


def bench_method(method: str, steps: int, dense, exp: cli.Experiment) -> dict:
    task = exp.task()
    model = upcycle(dense, exp.build(UpcycleConfig, "upcycle", method=method))
    cfg = dataclasses.replace(exp.build(train.TrainConfig, "train"), steps=steps + 1)
    layout = train.GradLayout(named_parameters(model))
    state = train.optimizer_state(layout)
    times = {"loss_parts_us": [], "optimizer_us": [], "zero_check_us": []}
    for step in range(1, cfg.steps + 1):
        rng = numkern.RngStream(cfg.seed, numkern.derive_stream_id("batch", step))
        batch = task.sample_train(cfg.batch_size, rng)
        t0 = time.perf_counter()
        train.loss_parts(model, batch, task, cfg.aux_loss_coeff, layout)
        t1 = time.perf_counter()
        train._optimizer_step(cfg, layout, state, step, train._lr_at(cfg, step))
        t2 = time.perf_counter()
        # The buffers now hold the update, which the next step zero-fills anyway.
        for flat in layout.flats.values():
            flat.fill(0)
        finite = all(np.isfinite(flat).all() for flat in layout.flats.values())
        t3 = time.perf_counter()
        if not finite:
            raise SystemExit(f"train_step_bench: {method} step {step} left a non-finite update")
        if step > 1:
            for key, dt in zip(times, (t1 - t0, t2 - t1, t3 - t2)):
                times[key].append(dt)
    return {
        "steps": steps,
        "trainable_arrays": len(layout.params),
        "trainable_values": sum(flat.size for flat in layout.flats.values()),
        **{key: _us(samples) for key, samples in times.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--steps", type=int, default=200, help="timed steps per method")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    if args.steps < 1:
        parser.error("--steps must be >= 1")
    with tempfile.TemporaryDirectory() as tmp:
        dense, exp = pretrained(args.seed, tmp)
    print(json.dumps({m: bench_method(m, args.steps, dense, exp) for m in METHODS}, indent=2))
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
