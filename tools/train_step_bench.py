"""Time the parts of one training step, per upcycle method, and print them as JSON.

    python3 tools/train_step_bench.py [--steps N] [--seed S]

Run from anywhere in a source checkout: the program is imported from the
checkout's ``src/`` directory. The model has the shape of the benchmark's
``upcycle_train`` workload (d = 32, d_h = 64, two blocks, N = 4 experts,
top-2, drop rate 0.75, rank 4, 32-row Adam steps on the README regression
task), built in-process from a fresh dense model rather than a pretrained one.

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
import json
import os
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402

from ders import numkern, train  # noqa: E402
from ders.moe import build_dense_model, named_parameters  # noqa: E402
from ders.upcycle import UpcycleConfig, upcycle  # noqa: E402

METHODS = ("vanilla", "ders_sm", "ders_lm")


def _us(samples: list) -> float:
    return round(1e6 * statistics.median(samples), 2)


def bench_method(method: str, steps: int, seed: int) -> dict:
    task = train.make_task("cluster_regression", {"d": 8, "n_clusters": 4, "out_width": 4}, seed)
    dense = build_dense_model(d=32, d_h=64, depth=2, in_width=task.in_width,
                              out_width=task.target_width, seed=seed)
    model = upcycle(dense, UpcycleConfig(n_experts=4, topk_count=2, method=method,
                                         sparse_rate=0.75, rank=4, seed=seed))
    cfg = train.TrainConfig(steps=steps + 1, lr=0.003, seed=seed)
    layout = train.GradLayout(named_parameters(model))
    moments = {dtype: (np.zeros_like(g), np.zeros_like(g)) for dtype, g in layout.flats.items()}
    times = {"loss_parts_us": [], "optimizer_us": [], "zero_check_us": []}
    for step in range(1, cfg.steps + 1):
        rng = numkern.RngStream(cfg.seed, numkern.derive_stream_id("batch", step))
        batch = task.sample_train(cfg.batch_size, rng)
        t0 = time.perf_counter()
        train.loss_parts(model, batch, task, cfg.aux_loss_coeff, layout)
        t1 = time.perf_counter()
        train._optimizer_step(cfg, layout, moments, step, train._lr_at(cfg, step))
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
    print(json.dumps({m: bench_method(m, args.steps, args.seed) for m in METHODS}, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
