"""In-memory span tracing of the ders layers, installed from outside the package.

``install`` replaces each public function named in ``LAYERS`` by a wrapper
that records a span (name, start, end, parent) while the tracer is active.
A function is replaced in every loaded ``ders`` module that holds it under
its name, because modules that import a function by name (``from .deltas
import synthesize``) keep their own reference to it. While the tracer is
inactive a wrapper costs one attribute test and a call.

A layer's self time is its span's duration minus the time covered by its
direct child spans.
"""

from __future__ import annotations

import json
import os
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

# (module, function, span name). The span name of ``deltas.synthesize`` gets
# the delta kind appended, so that synthesis time splits per delta kind.
LAYERS = (
    ("ders.numkern", "matmul", "numkern.matmul"),
    ("ders.numkern", "softmax", "numkern.softmax"),
    ("ders.numkern", "topk_mask", "numkern.topk_mask"),
    ("ders.numkern", "bernoulli_mask", "numkern.bernoulli_mask"),
    ("ders.moe", "route", "moe.route"),
    ("ders.moe", "model_forward", "moe.model_forward"),
    ("ders.moe", "forward_tape", "moe.forward_tape"),
    ("ders.deltas", "synthesize", "deltas.synthesize"),
    ("ders.deltas", "unpack_codes", "deltas.unpack_codes"),
    ("ders.deltas", "pack_codes", "deltas.pack_codes"),
    ("ders.deltas", "decompose", "deltas.decompose"),
    ("ders.deltas", "sparsify", "deltas.sparsify"),
    ("ders.deltas", "quantize", "deltas.quantize"),
    ("ders.compress", "ders_compress", "compress.ders_compress"),
    ("ders.compress", "compression_report", "compress.compression_report"),
    ("ders.train", "evaluate", "train.evaluate"),
    ("ders.train", "loss_parts", "train.loss_parts"),
    ("ders.train", "train_loop", "train.train_loop"),
    ("ders.checkpoint", "save_model", "checkpoint.save_model"),
    ("ders.checkpoint", "load_model", "checkpoint.load_model"),
    ("ders.upcycle", "upcycle", "upcycle.upcycle"),
    ("ders.accounting", "count_report", "accounting.count_report"),
    ("ders.analysis", "cosine_report", "analysis.cosine_report"),
)

_DELTA_KINDS = {
    "DenseDelta": "dense",
    "SparseDelta": "sparse",
    "LowRankDelta": "lowrank",
    "QuantizedDelta": "quantized",
}

class Tracer:
    """Spans and counters of the traced rounds; nothing is written until ``dump``."""

    def __init__(self):
        self.active = False
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []

    def begin(self, name: str) -> int:
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1])
        self._stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def paused(self):
        """Record nothing inside the block (the benchmark's own checks)."""
        active, self.active = self.active, False
        try:
            yield
        finally:
            self.active = active

    def span(self, name: str, fn, *args, **kwargs):
        """Call ``fn`` inside a span when active, plainly otherwise."""
        if not self.active:
            return fn(*args, **kwargs)
        index = self.begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.end(index)

    def self_times(self) -> dict[str, tuple[int, float, float]]:
        """{span name: (calls, total seconds, self seconds)}."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
        for (name, start, end, _), covered in zip(self.spans, child):
            row = out[name]
            row[0] += 1
            row[1] += end - start
            row[2] += end - start - covered
        return {name: tuple(row) for name, row in out.items()}

    def dump(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent"], "spans": self.spans}, fh)


def _replace_everywhere(original, wrapper) -> None:
    for mod_name, module in list(sys.modules.items()):
        if mod_name != "ders" and not mod_name.startswith("ders."):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapper)


def _make_wrapper(tracer: Tracer, fn, name: str):
    def wrapper(*args, **kwargs):
        if not tracer.active:
            return fn(*args, **kwargs)
        label = name
        if name == "numkern.matmul":
            a, b = args
            tracer.counts["numkern.matmul.flop"] += 2.0 * a.shape[0] * a.shape[1] * b.shape[1]
        elif name == "deltas.synthesize":
            label = f"{name}.{_DELTA_KINDS.get(type(args[1]).__name__, 'other')}"
        index = tracer.begin(label)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.end(index)
            if name.startswith("checkpoint."):
                path = args[1] if name == "checkpoint.save_model" else args[0]
                if os.path.exists(path):
                    tracer.counts[f"{name}.bytes"] += os.path.getsize(path)

    wrapper.__wrapped__ = fn
    return wrapper


def install(tracer: Tracer) -> None:
    """Wrap every layer in ``LAYERS`` and count expert syntheses."""
    import importlib

    for mod_name, attr, name in LAYERS:
        module = importlib.import_module(mod_name)
        original = getattr(module, attr)
        _replace_everywhere(original, _make_wrapper(tracer, original, name))

    from ders.moe import MoELayer

    synthesized = MoELayer.synthesized_weights

    def counted(self, i):
        if tracer.active:
            tracer.counts["moe.syntheses"] += 1
        return synthesized(self, i)

    MoELayer.synthesized_weights = counted


def _seconds(times, name):
    return times.get(name, (0, 0.0, 0.0))[2]


def _calls(times, name):
    return times.get(name, (0, 0.0, 0.0))[0]


def layer_metrics(tracer: Tracer, rounds: int) -> dict[str, tuple[float, str]]:
    """Per-round layer numbers: {metric name: (value, unit)}."""
    times = tracer.self_times()
    counts = tracer.counts
    out: dict[str, tuple[float, str]] = {}

    def put(name, value, unit):
        out[name] = (value / rounds, unit)

    matmul_s = _seconds(times, "numkern.matmul")
    put("numkern.matmul.calls", _calls(times, "numkern.matmul"), "count")
    put("numkern.matmul.self_s", matmul_s, "s")
    put("numkern.matmul.flop", counts["numkern.matmul.flop"], "flop")
    out["numkern.matmul.gflop_per_s"] = (
        counts["numkern.matmul.flop"] / matmul_s / 1e9 if matmul_s > 0 else 0.0,
        "GFLOP/s",
    )
    for name in ("numkern.softmax", "numkern.topk_mask", "moe.route"):
        put(f"{name}.calls", _calls(times, name), "count")
    put("moe.route.self_s", _seconds(times, "moe.route"), "s")
    kinds = ("dense", "sparse", "lowrank", "quantized")
    put("deltas.synthesize.calls", sum(_calls(times, f"deltas.synthesize.{k}") for k in kinds), "count")
    for kind in kinds:
        put(f"deltas.synthesize.{kind}.self_s", _seconds(times, f"deltas.synthesize.{kind}"), "s")
    put("moe.syntheses", counts["moe.syntheses"], "count")
    for name in (
        "deltas.unpack_codes",
        "deltas.decompose",
        "deltas.sparsify",
        "deltas.quantize",
        "deltas.pack_codes",
        "numkern.bernoulli_mask",
        "compress.ders_compress",
        "compress.compression_report",
        "moe.model_forward",
        "train.evaluate",
        "moe.forward_tape",
        "train.loss_parts",
        "train.train_loop",
        "checkpoint.save_model",
        "checkpoint.load_model",
        "upcycle.upcycle",
        "accounting.count_report",
        "analysis.cosine_report",
    ):
        put(f"{name}.self_s", _seconds(times, name), "s")
    put("moe.model_forward.calls", _calls(times, "moe.model_forward"), "count")
    put("train.steps", _calls(times, "train.loss_parts"), "count")
    for name in ("checkpoint.save_model", "checkpoint.load_model"):
        put(f"{name}.calls", _calls(times, name), "count")
        put(f"{name}.bytes", counts[f"{name}.bytes"], "bytes")
    from ders.cli import SUBCOMMANDS

    for stage in SUBCOMMANDS:
        put(f"cli.{stage}.wall_s", times.get(f"cli.{stage}", (0, 0.0, 0.0))[1], "s")
    for arm in ("vanilla", "ders_sm", "ders_lm"):
        put(f"cli.train.{arm}.wall_s", times.get(f"cli.train.{arm}", (0, 0.0, 0.0))[1], "s")
    return out
