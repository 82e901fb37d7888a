"""The two workloads: generated configs and inputs, set-up, and one round.

A round is the timed unit that a run repeats. Every round of a workload does
the same operations on the same inputs, so every round attempts the same
number of operations and repeats the previous round's artifacts bit for bit.
CLI stages are driven in-process through ``ders.cli.main``; serving calls
``ders.moe.model_forward``. Checks run between the timed calls.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import shutil
import time

import numpy as np

import checks
import pace
import refmodel
from ders import cli, moe
from ders.checkpoint import load_model
from ders.compress import CompressionSpec, ders_compress
from ders.numkern import RngStream

UPCYCLE_ARMS = (("vanilla", "vanilla"), ("ders-sm", "ders_sm"), ("ders-lm", "ders_lm"))
AUX_LOSS_COEFF = 0.01  # TrainConfig's default, which the generated configs keep


def _seeds(seed: int, count: int) -> list[int]:
    rng = random.Random(seed)
    return [rng.randrange(1, 2**31) for _ in range(count)]


def digest(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


class Round:
    """Timings and operation outcomes of one round."""

    def __init__(self):
        self.call_s: dict = {}  # seconds of each timed call, keyed the same in every round
        self.reference_s: dict = {}  # the reference loop's seconds last run before each call
        self.rate_keys: set = set()  # the calls that process ``rows``
        self.rows = 0
        self.ops = 0
        self.failed = 0
        self.messages: list[str] = []

    @property
    def wall_s(self) -> float:
        return sum(self.call_s.values())

    def timed(self, key, fn, *args, reference: bool = True):
        """Call ``fn``, after the reference loop unless ``reference`` is false."""
        if reference or not self.reference_s:
            self._reference = pace.reference_loop()
        t0 = time.perf_counter()
        result = fn(*args)
        self.call_s[key] = time.perf_counter() - t0
        self.reference_s[key] = self._reference
        return result

    def op(self, failures: list, label: str) -> None:
        self.ops += 1
        if failures:
            self.failed += 1
            self.messages.extend(f"{label}: {f}" for f in failures)


class Workload:
    name = ""

    def __init__(self, seed: int, workdir: str, tracer):
        self.seed = seed
        self.workdir = workdir
        self.tracer = tracer
        self.config_path = os.path.join(workdir, "config.json")
        os.makedirs(workdir, exist_ok=True)
        with open(self.config_path, "w", encoding="utf-8") as fh:
            json.dump(self.config(), fh, indent=2, sort_keys=True)

    def config(self) -> dict:
        raise NotImplementedError

    def setup(self, out: str) -> list[str]:
        """Make the inputs of a round in ``out``; returns the files to compare across set-ups."""
        raise NotImplementedError

    def prepare(self, out: str) -> None:
        """Adopt the artifacts of the set-up in ``out`` for the rounds."""
        raise NotImplementedError

    def round(self) -> Round:
        raise NotImplementedError

    def stage(self, rnd: Round | None, argv: list[str], out: str, label: str | None = None):
        """Run one CLI stage in-process; returns its exit code."""
        full = argv[:1] + ["--config", self.config_path, "--out", out] + argv[1:]
        if rnd is None:
            return self.tracer.span(f"cli.{argv[0]}", cli.main, full)
        return rnd.timed(label or argv[0], self.tracer.span, f"cli.{argv[0]}", cli.main, full)

    def must(self, argv: list[str], out: str) -> None:
        code = self.stage(None, argv, out)
        if code != 0:
            raise RuntimeError(f"set-up stage {argv} exited {code}")


# ---------------------------------------------------------------------------


class UpcycleTrain(Workload):
    """README model and task; upcycle and train with each of the three methods."""

    name = "upcycle_train"
    N, K, SPARSE_RATE, RANK = 4, 2, 0.75, 4
    PRETRAIN_STEPS, TRAIN_STEPS, BATCH = 150, 60, 32

    def config(self):
        seed, task_seed, upcycle_seed, train_seed = _seeds(self.seed, 4)
        return {
            "seed": seed,
            "model": {"d": 32, "d_h": 64, "depth": 2, "activation": "gelu"},
            "task": {
                "kind": "cluster_regression",
                "seed": task_seed,
                "params": {"d": 8, "n_clusters": 4, "out_width": 4},
            },
            "pretrain": {"steps": self.PRETRAIN_STEPS, "lr": 0.01},
            "upcycle": {
                "n_experts": self.N,
                "topk_count": self.K,
                "sparse_rate": self.SPARSE_RATE,
                "rank": self.RANK,
                "seed": upcycle_seed,
            },
            "train": {"steps": self.TRAIN_STEPS, "lr": 0.003, "batch_size": self.BATCH, "seed": train_seed},
        }

    def setup(self, out):
        self.must(["pretrain-dense"], out)
        return ["dense.ckpt"]

    def prepare(self, out):
        cfg = self.config()
        self.task = cli.Experiment(cfg).task()
        self.dense, _ = load_model(os.path.join(out, "dense.ckpt"))
        self.batch = self.task.sample_train(self.BATCH, RngStream(self.seed, 1))
        self.arm_dirs = {}
        for flag, _ in UPCYCLE_ARMS:
            arm_dir = os.path.join(self.workdir, flag)
            os.makedirs(arm_dir, exist_ok=True)
            shutil.copyfile(os.path.join(out, "dense.ckpt"), os.path.join(arm_dir, "dense.ckpt"))
            self.arm_dirs[flag] = arm_dir
        self.digests: dict[str, tuple] = {}
        self.fd_failures: dict[str, list] = {}

    def round(self):
        rnd = Round()
        for flag, method in UPCYCLE_ARMS:
            arm_dir = self.arm_dirs[flag]
            code = self.stage(rnd, ["upcycle", "--method", flag], arm_dir, f"upcycle.{method}")
            failures = [f"exit {code}"] if code else []
            with self.tracer.paused():
                if not failures:
                    upcycled, _ = load_model(os.path.join(arm_dir, "moe.ckpt"))
                    failures += checks.upcycle_identity(upcycled, self.dense)
                    failures += checks.trainable_counts(upcycled, method, self.N, self.SPARSE_RATE, self.RANK)
                rnd.op(failures, f"upcycle {flag}")
                # The gradient check costs a fifth of a round. Its inputs (this
                # seed's batch and the upcycled model, checked bit for bit
                # above) are the same in every round, so it runs in the first
                # round and its outcome counts in every round.
                if not failures and flag not in self.fd_failures:
                    self.fd_failures[flag] = checks.gradient_fd(upcycled, self.batch, self.task, AUX_LOSS_COEFF)
                fd_failures = [] if failures else self.fd_failures[flag]

            arm_span = f"cli.train.{method}"
            code = rnd.timed(f"train.{method}", self.tracer.span, arm_span, self.stage, None, ["train"], arm_dir)
            rnd.rate_keys.add(f"train.{method}")
            rnd.rows += self.TRAIN_STEPS * self.BATCH
            failures = fd_failures + ([f"exit {code}"] if code else [])
            with self.tracer.paused():
                if not code:
                    failures += checks.loss_decreases(_read(os.path.join(arm_dir, "metrics.csv")))
                    hashes = tuple(digest(os.path.join(arm_dir, f)) for f in ("metrics.csv", "trained.ckpt"))
                    if self.digests.setdefault(flag, hashes) != hashes:
                        failures.append("metrics.csv or trained.ckpt differs from the first round")
            rnd.op(failures, f"train {flag}")
        return rnd


# ---------------------------------------------------------------------------


class CompressServe(Workload):
    """DeRS Compression, then small-batch serving of compressed and low-rank models.

    A round compresses, evaluates, reports, analyzes and sweeps a trained
    vanilla MoE through the CLI, then one closed-loop client sends 1–8-row
    requests round-robin over three models made in set-up.
    """

    name = "compress_serve"
    DROP_RATE = 0.9
    CHECKED_BIT_WIDTHS = (2, 4, 8)
    MODELS = ("sparse.ckpt", "quant.ckpt", "lowrank.ckpt")
    REQUESTS, MAX_ROWS, CHECKED_EVERY, PACED_EVERY = 240, 8, 16, 24

    def config(self):
        """A wider vanilla MoE (d_h = 4·d, N = 8, k = 2) with a 2,048-row eval set."""
        seed, task_seed, upcycle_seed, train_seed, compress_seed = _seeds(self.seed, 5)
        return {
            "seed": seed,
            "model": {"d": 32, "d_h": 128, "depth": 2, "activation": "gelu"},
            "task": {
                "kind": "cluster_regression",
                "seed": task_seed,
                "params": {"d": 8, "n_clusters": 8, "out_width": 4, "eval_size": 2048},
            },
            "pretrain": {"steps": 40, "lr": 0.01},
            "upcycle": {"n_experts": 8, "topk_count": 2, "method": "vanilla", "rank": 4, "seed": upcycle_seed},
            "train": {"steps": 10, "lr": 0.003, "seed": train_seed},
            "compress": {"seed": compress_seed},
            "sweep": {"drop_rates": [0.5, 0.9, 0.99], "bit_widths": [1, 2, 4, 8]},
        }

    def setup(self, out):
        self.must(["pretrain-dense"], out)
        self.must(["upcycle", "--method", "ders-lm"], out)
        self.must(["train"], out)
        os.replace(os.path.join(out, "trained.ckpt"), os.path.join(out, "lowrank.ckpt"))
        self.must(["upcycle"], out)
        self.must(["train"], out)
        self.must(["compress", "--drop-rate", str(self.DROP_RATE)], out)
        os.replace(os.path.join(out, "compressed.ckpt"), os.path.join(out, "sparse.ckpt"))
        self.must(["compress", "--bit-width", "4"], out)
        os.replace(os.path.join(out, "compressed.ckpt"), os.path.join(out, "quant.ckpt"))
        return ["dense.ckpt", "moe.ckpt", "trained.ckpt", *self.MODELS]

    def prepare(self, out):
        self.out = out
        cfg = self.config()
        self.task = cli.Experiment(cfg).task()
        self.eval_x, self.eval_y = self.task.eval_set()
        self.trained, _ = load_model(os.path.join(out, "trained.ckpt"))
        self.compress_seed = cfg["compress"]["seed"]
        self.digests: dict[str, str] = {}

        self.models = [load_model(os.path.join(out, name))[0] for name in self.MODELS]
        self.references = [refmodel.Reference(os.path.join(out, name)) for name in self.MODELS]
        rng = np.random.default_rng(_seeds(self.seed, 6)[5])
        in_width = self.models[0].in_width
        sizes = rng.integers(1, self.MAX_ROWS + 1, size=self.REQUESTS)
        self.requests = [2.0 * rng.standard_normal((int(n), in_width)) for n in sizes]
        self.first: list | None = None

    def _same_as_first(self, name: str) -> list[str]:
        got = digest(os.path.join(self.out, name))
        return [] if self.digests.setdefault(name, got) == got else [f"{name} differs from the first round"]

    def round(self):
        rnd = Round()
        self._compress(rnd)
        self._serve(rnd)
        return rnd

    def _compress(self, rnd):
        out = self.out
        compressed = os.path.join(out, "compressed.ckpt")
        code = self.stage(rnd, ["compress", "--drop-rate", str(self.DROP_RATE)], out)
        failures = [f"exit {code}"] if code else []
        with self.tracer.paused():
            if not code:
                trained = os.path.join(out, "trained.ckpt")
                failures += checks.sparse_deltas(compressed, trained, self.DROP_RATE)
                report = _read(os.path.join(out, "compression_report.json"))
                failures += checks.keep_statistics(compressed, report, self.DROP_RATE)
                failures += checks.checkpoint_roundtrip(compressed)
                failures += self._same_as_first("compressed.ckpt")
        rnd.op(failures, "compress")

        code = self.stage(rnd, ["eval"], out)
        rnd.rate_keys.add("eval")
        rnd.rows += self.eval_x.shape[0]
        failures = [f"exit {code}"] if code else []
        if not code:
            reference = refmodel.Reference(compressed)
            eval_json = _read(os.path.join(out, "eval.json"))
            failures += checks.eval_matches(eval_json, reference, self.eval_x, self.eval_y)
        rnd.op(failures, "eval")

        for stage, artifact in (("report-params", "params.json"), ("analyze-similarity", "similarity.csv")):
            code = self.stage(rnd, [stage], out)
            rnd.op([f"exit {code}"] if code else self._same_as_first(artifact), stage)

        code = self.stage(rnd, ["sweep"], out)
        failures = [f"exit {code}"] if code else self._same_as_first("sweep.csv")
        with self.tracer.paused():
            if not code:
                # The sweep's quantized models, remade with the sweep's own spec.
                for k in self.CHECKED_BIT_WIDTHS:
                    spec = CompressionSpec("quantize", bit_width=k, seed=self.compress_seed)
                    failures += checks.quantized_error(ders_compress(self.trained, spec), self.trained)
        rnd.op(failures, "sweep")

    def _serve(self, rnd):
        forward = moe.model_forward  # the traced wrapper while tracing is installed
        responses = []
        for k, x in enumerate(self.requests):
            model = self.models[k % len(self.models)]
            responses.append(rnd.timed(k, forward, model, x, reference=k % self.PACED_EVERY == 0))
            rnd.rate_keys.add(k)
        rnd.rows += sum(x.shape[0] for x in self.requests)

        with self.tracer.paused():
            bad = self._wrong_responses(responses)
        for k in range(len(self.requests)):
            rnd.op([f"request {k} response is wrong"] if k in bad else [], "serve")

    def _wrong_responses(self, responses) -> set[int]:
        bad: set[int] = set()
        n_models = len(self.models)
        for m, model in enumerate(self.models):
            mine = list(range(m, len(self.requests), n_models))
            wrong = checks.stacked_responses(model, [self.requests[k] for k in mine], [responses[k] for k in mine])
            bad.update(mine[w] for w in wrong)
        for k in range(0, len(self.requests), self.CHECKED_EVERY):
            if not checks.matches_reference(self.references[k % n_models], self.requests[k], responses[k]):
                bad.add(k)
        if self.first is None:
            self.first = responses
        for k, (a, b) in enumerate(zip(self.first, responses)):
            if not np.array_equal(a, b):
                bad.add(k)
        return bad


WORKLOADS = {w.name: w for w in (UpcycleTrain, CompressServe)}
