"""Command-line pipeline driver.

Subcommands chain through fixed artifact names inside ``--out``:

    pretrain-dense      dense.ckpt
    upcycle             moe.ckpt          (reads dense.ckpt)
    train               trained.ckpt, metrics.csv (reads moe.ckpt)
    compress            compressed.ckpt, compression_report.json (reads trained.ckpt)
    eval                eval.json         (newest checkpoint, or --ckpt)
    report-params       params.json|csv   (newest checkpoint, or --ckpt)
    analyze-similarity  similarity.csv|json (newest checkpoint, or --ckpt)
    sweep               sweep.csv         (drop rates / bit widths on trained.ckpt,
                                           ranks re-upcycled from dense.ckpt)

The JSON config is validated before any compute: unknown and wrongly typed
keys are rejected with their full field path. Only ``seed`` (mandatory: the
default seed of every stage that does not set its own), ``task.kind`` and
``task.seed`` are typed by hand. Every seed, there, in a section or given as
``--seed``, must be >= 0. Every other key is a field of a frozen
dataclass, typed by its annotation through ``moe.FIELD_TYPES``: ``model`` of
``ModelConfig``, ``pretrain`` and ``train`` of ``TrainConfig``, ``upcycle`` of
``UpcycleConfig``, ``compress`` of ``CompressionSpec``, ``sweep`` of
``SweepConfig`` and ``task.params`` of ``SyntheticTask``. ``Experiment.build``
turns a section and the flags given into its config, which checks itself on
construction; each error names its key path. Exit codes: 0 success, 2
config error, 3 state error or ``OSError`` (a path that is a directory, say),
4 numeric error, 1 any other toolkit error or running out of memory. Every
text artifact is written by ``_write_json`` or ``_write_csv``.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import os
import sys
from dataclasses import asdict, dataclass, field, fields

from .accounting import PARAMS_CSV_FIELDS, count_report
from .analysis import SIMILARITY_CSV_FIELDS, cosine_report, similarity_rows
from .checkpoint import load_model, save_model, write_atomic
from .compress import CompressionSpec, compression_report, ders_compress
from .errors import ConfigError, DersError, DimensionError, NumericError, StateError
from .moe import (
    FIELD_TYPES,
    METHODS,
    Model,
    ModelConfig,
    build_dense_model,
    check_fields,
    missing_field,
)
from .train import TASK_KINDS, SyntheticTask, TrainConfig, evaluate, train_loop
from .upcycle import UpcycleConfig, upcycle

_CKPT_CHAIN = ("compressed.ckpt", "trained.ckpt", "moe.ckpt", "dense.ckpt")


@dataclass(frozen=True)
class SweepConfig:
    """The ``sweep`` section. Each ``drop_rates`` (``bit_widths``) value is a
    row compressed as ``compress --drop-rate`` (``--bit-width``) would, and
    each ``ranks`` value a row upcycled as ders_lm at that rank, then trained."""

    drop_rates: list[float] = field(default_factory=list)
    bit_widths: list[int] = field(default_factory=list)
    ranks: list[int] = field(default_factory=list)

    def __post_init__(self):
        check_fields(self)
        if not (self.drop_rates or self.bit_widths or self.ranks):
            raise ConfigError("drop_rates, bit_widths and ranks are all empty")


def _fields_schema(cls, skip=()) -> dict:
    """The keys of a config section backed by dataclass ``cls``: its fields,
    each typed by its annotation."""
    return {f.name: FIELD_TYPES[f.type] for f in fields(cls) if f.init and f.name not in skip}


_SEED = ("an integer >= 0", lambda v: FIELD_TYPES["int"][1](v) and v >= 0)

# Every config key with its type, as (what the error says it must be, test); a
# nested dict is a JSON object with its own keys.
_SCHEMA: dict = {
    "seed": _SEED,
    "model": _fields_schema(ModelConfig),
    "task": {
        "kind": (f"one of {TASK_KINDS}", lambda v: v in TASK_KINDS),
        "seed": _SEED,
        "params": _fields_schema(SyntheticTask, skip=("kind", "seed")),
    },
    "pretrain": _fields_schema(TrainConfig),
    "train": _fields_schema(TrainConfig),
    "upcycle": _fields_schema(UpcycleConfig),
    "compress": _fields_schema(CompressionSpec),
    "sweep": _fields_schema(SweepConfig),
}

# The compression field each technique flag sets, with the technique it selects;
# ``sweep`` lists that field's values under the field's name plus "s".
_TECHNIQUE_FLAGS = {"drop_rate": "sparsify", "bit_width": "quantize"}


# ---------------------------------------------------------------------------
# Config loading and the per-stage views over it
# ---------------------------------------------------------------------------


def _validate(value, schema: dict, path: str = "") -> None:
    """Reject unknown keys and wrongly typed values, naming the full key path."""
    for key, item in value.items():
        full = f"{path}{key}"
        if key not in schema:
            raise ConfigError(f"unknown config key '{full}'; allowed: {sorted(schema)}")
        spec = schema[key]
        if isinstance(spec, dict):
            if not isinstance(item, dict):
                raise ConfigError(f"config section '{full}' must be a JSON object")
            _validate(item, spec, f"{full}.")
        elif not spec[1](item):
            raise ConfigError(f"config field '{full}' must be {spec[0]}, got {item!r}")


def load_config(path: str | None) -> dict:
    if path is None:
        raise ConfigError("--config is required for this subcommand")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError("config root must be a JSON object")
    _validate(data, _SCHEMA)
    if "seed" not in data:
        raise ConfigError("config field 'seed' is required")
    return data


class Experiment:
    """A validated config plus the command-line overrides applied to it."""

    def __init__(self, raw: dict, seed_override: int | None = None):
        if seed_override is not None and seed_override < 0:
            raise ConfigError(f"--seed must be >= 0, got {seed_override}")
        self.raw = raw
        self.seed = seed_override if seed_override is not None else raw["seed"]

    def _section(self, path: str) -> dict:
        section = self.raw
        for key in path.split("."):
            section = section.get(key) or {}
        return section

    def build(self, cls, path: str, **overrides):
        """``cls`` from the config section at dotted ``path`` with each
        override that is not None (a flag not given reads None) applied
        first, and a ``seed`` field defaulting to the config seed. A field
        without a default is required, and ``path`` prefixes a construction
        error, whose message starts with its field."""
        values = {**self._section(path), **{k: v for k, v in overrides.items() if v is not None}}
        if any(f.name == "seed" for f in fields(cls)):
            values.setdefault("seed", self.seed)
        missing = missing_field(cls, values)
        if missing:
            raise ConfigError(f"config field '{path}.{missing}' is required")
        try:
            return cls(**values)
        except ConfigError as exc:
            raise ConfigError(f"{path}.{exc}") from exc

    def task(self) -> SyntheticTask:
        section = self._section("task")
        if "kind" not in section:
            raise ConfigError("config field 'task.kind' is required")
        return self.build(
            SyntheticTask, "task.params", kind=section["kind"], seed=section.get("seed")
        )

    def upcycle_config(self, args, **overrides) -> UpcycleConfig:
        """The ``upcycle`` section under the upcycle flags given, then
        ``overrides``; ``--extended`` turns ``parallel_universal`` on unless
        the section sets it."""
        universal = args.extended and self._section("upcycle").get("parallel_universal", True)
        flags = {
            "method": args.method and args.method.replace("-", "_"),
            "sparse_rate": args.drop_rate,
            "rank": args.rank,
            "extended": args.extended,
            "parallel_universal": universal,
            "freeze_shared": args.freeze_shared,
        }
        return self.build(UpcycleConfig, "upcycle", **{**flags, **overrides})

    def compression_spec(self, args) -> CompressionSpec:
        """The ``compress`` section under the compression flags given; a
        lone ``--drop-rate`` or ``--bit-width`` also selects its technique."""
        chosen = [key for key in _TECHNIQUE_FLAGS if getattr(args, key) is not None]
        if len(chosen) > 1:
            flags = " / ".join(f"--{key.replace('_', '-')}" for key in _TECHNIQUE_FLAGS)
            raise ConfigError(f"each of {flags} selects a technique: pass at most one")
        technique = _TECHNIQUE_FLAGS[chosen[0]] if chosen else None
        given = {key: getattr(args, key) for key in (*_TECHNIQUE_FLAGS, "extended")}
        return self.build(CompressionSpec, "compress", technique=technique, **given)


# ---------------------------------------------------------------------------
# Artifact plumbing
# ---------------------------------------------------------------------------


def _load_ckpt(path: str) -> tuple[Model, dict]:
    if not os.path.exists(path):
        raise StateError(
            f"checkpoint {path} not found: run the earlier pipeline stage first"
        )
    return load_model(path)


def _resolve_ckpt(out: str, explicit: str | None) -> str:
    if explicit is not None:
        return explicit
    for name in _CKPT_CHAIN:
        path = os.path.join(out, name)
        if os.path.exists(path):
            return path
    raise StateError(f"no checkpoint found in {out}")


def _write_json(path: str, data) -> None:
    """Indented, key-sorted JSON with a trailing newline."""
    write_atomic(path, (json.dumps(data, indent=2, sort_keys=True) + "\n").encode())


def _write_csv(path: str, header, rows, comment: str | None = None) -> None:
    """An optional ``# comment`` line, ``header``, then ``rows``. A cell is
    empty for None, ``repr`` for a float (``np.float64`` too, through
    ``float``: numpy 2 spells its own repr ``np.float64(…)``), else ``str``."""
    buf = io.StringIO()
    if comment is not None:
        buf.write(f"# {comment}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow(
            "" if v is None else repr(float(v)) if isinstance(v, float) else str(v) for v in row
        )
    write_atomic(path, buf.getvalue().encode())


_METRICS_FIELDS = ("step", "loss", "aux_loss", "eval_metric")


def _write_metrics(out: str, trace: list[dict]) -> None:
    rows = ([row[key] for key in _METRICS_FIELDS] for row in trace)
    _write_csv(os.path.join(out, "metrics.csv"), _METRICS_FIELDS, rows)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _cmd_pretrain(args, out: str) -> int:
    exp = Experiment(load_config(args.config), args.seed)
    task = exp.task()
    dims = asdict(exp.build(ModelConfig, "model"))
    cfg = exp.build(TrainConfig, "pretrain")
    model = build_dense_model(
        **dims, in_width=task.in_width, out_width=task.target_width, seed=exp.seed
    )
    result = train_loop(model, task, cfg)
    save_model(
        result.model,
        os.path.join(out, "dense.ckpt"),
        meta={"stage": "pretrain-dense", "seed": exp.seed, "best_metric": result.best_metric},
    )
    return 0


def _upcycle(dense: Model, cfg: UpcycleConfig) -> Model:
    """``upcycle``, with a config error named by its key path, as
    ``Experiment.build`` names the errors ``UpcycleConfig`` raises."""
    try:
        return upcycle(dense, cfg)
    except ConfigError as exc:
        raise ConfigError(f"upcycle.{exc}") from exc


def _cmd_upcycle(args, out: str) -> int:
    exp = Experiment(load_config(args.config), args.seed)
    cfg = exp.upcycle_config(args)
    dense, _ = _load_ckpt(os.path.join(out, "dense.ckpt"))
    moe = _upcycle(dense, cfg)
    save_model(
        moe,
        os.path.join(out, "moe.ckpt"),
        meta={"stage": "upcycle", "method": cfg.method, "seed": cfg.seed},
    )
    return 0


def _cmd_train(args, out: str) -> int:
    exp = Experiment(load_config(args.config), args.seed)
    task = exp.task()
    cfg = exp.build(TrainConfig, "train")
    moe, _ = _load_ckpt(os.path.join(out, "moe.ckpt"))
    try:
        result = train_loop(moe, task, cfg)
    except NumericError as exc:
        # Divergence: keep the steps that completed before it.
        _write_metrics(out, exc.trace)
        raise
    save_model(
        result.model,
        os.path.join(out, "trained.ckpt"),
        meta={"stage": "train", "seed": exp.seed, "best_metric": result.best_metric},
    )
    _write_metrics(out, result.trace)
    return 0


def _cmd_compress(args, out: str) -> int:
    exp = Experiment(load_config(args.config), args.seed)
    spec = exp.compression_spec(args)
    trained, _ = _load_ckpt(os.path.join(out, "trained.ckpt"))
    compressed = ders_compress(trained, spec)
    save_model(
        compressed,
        os.path.join(out, "compressed.ckpt"),
        meta={"stage": "compress", "technique": spec.technique, "seed": spec.seed},
    )
    report = compression_report(compressed, spec)
    _write_json(os.path.join(out, "compression_report.json"), report)
    return 0


def _cmd_eval(args, out: str) -> int:
    exp = Experiment(load_config(args.config), args.seed)
    task = exp.task()
    path = _resolve_ckpt(out, args.ckpt)
    model, meta = _load_ckpt(path)
    metric = evaluate(model, task)
    x, _ = task.eval_set()
    _write_json(
        os.path.join(out, "eval.json"),
        {
            "eval_metric": metric,
            "task_kind": task.kind,
            "eval_size": int(x.shape[0]),
            "checkpoint": os.path.basename(path),
            "stage": meta.get("stage"),
        },
    )
    return 0


def _cmd_report_params(args, out: str) -> int:
    model, _ = _load_ckpt(_resolve_ckpt(out, args.ckpt))
    report = count_report(model)
    if (args.format or "json") == "json":
        _write_json(os.path.join(out, "params.json"), report.to_dict())
    else:
        layers = [*report.layers, report.totals]
        rows = ([getattr(row, key) for key in PARAMS_CSV_FIELDS] for row in layers)
        _write_csv(os.path.join(out, "params.csv"), PARAMS_CSV_FIELDS, rows)
    return 0


def _cmd_analyze_similarity(args, out: str) -> int:
    model, _ = _load_ckpt(_resolve_ckpt(out, args.ckpt))
    report = cosine_report(model)
    if (args.format or "csv") == "csv":
        path = os.path.join(out, "similarity.csv")
        _write_csv(path, SIMILARITY_CSV_FIELDS, similarity_rows(report), comment=report.note)
    else:
        _write_json(os.path.join(out, "similarity.json"), report.to_dict())
    return 0


_SWEEP_FIELDS = ("kind", "value", "eval_metric", "stored_values", "stored_bits", "trainable_values")


def _sweep_row(kind: str, value, model: Model, task) -> list:
    """One ``sweep.csv`` row: the eval metric and the ``report-params``
    totals of the model the row evaluates."""
    totals = count_report(model).totals
    counts = [totals.stored_values, totals.stored_bits, totals.trainable_values]
    return [kind, value, evaluate(model, task), *counts]


def _cmd_sweep(args, out: str) -> int:
    exp = Experiment(load_config(args.config), args.seed)
    sweep = exp.build(SweepConfig, "sweep")
    task = exp.task()
    train_cfg = exp.build(TrainConfig, "train") if sweep.ranks else None
    dense = _load_ckpt(os.path.join(out, "dense.ckpt"))[0] if sweep.ranks else None
    # (row kind, value, compression spec or upcycled model) per row: every
    # value is checked before any row compresses or trains.
    arms = []
    for key in ("drop_rates", "bit_widths", "ranks"):
        kind = key[:-1]
        for value in getattr(sweep, key):
            try:
                if kind == "rank":
                    arm = _upcycle(dense, exp.upcycle_config(args, method="ders_lm", rank=value))
                else:
                    arm = exp.compression_spec(argparse.Namespace(**{**vars(args), kind: value}))
            except ConfigError as exc:
                raise ConfigError(f"sweep.{key}: {exc}") from exc
            arms.append((kind, value, arm))

    rows = []
    if sweep.drop_rates or sweep.bit_widths:
        trained, _ = _load_ckpt(os.path.join(out, "trained.ckpt"))
        rows.append(_sweep_row("baseline", "", trained, task))
    for kind, value, arm in arms:
        if kind == "rank":
            rows.append(_sweep_row(kind, value, train_loop(arm, task, train_cfg).model, task))
        else:
            rows.append(_sweep_row(kind, value, ders_compress(trained, arm), task))
    _write_csv(os.path.join(out, "sweep.csv"), _SWEEP_FIELDS, rows)
    return 0


# Each subcommand's handler and the only flags it takes besides --config,
# --seed and --out.
SUBCOMMANDS = {
    "pretrain-dense": (_cmd_pretrain, ()),
    "upcycle": (_cmd_upcycle, ("method", "drop_rate", "rank", "extended", "freeze_shared")),
    "train": (_cmd_train, ()),
    "compress": (_cmd_compress, ("drop_rate", "bit_width", "extended")),
    "eval": (_cmd_eval, ("ckpt",)),
    "report-params": (_cmd_report_params, ("ckpt", "format")),
    "analyze-similarity": (_cmd_analyze_similarity, ("ckpt", "format")),
    # The rank arms upcycle: the upcycle flags the sweep does not set itself.
    "sweep": (_cmd_sweep, ("extended", "freeze_shared")),
}


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


# The keyword arguments of each optional flag; every one defaults to None.
_FLAGS = {
    "method": {"choices": sorted({*METHODS, *(m.replace("_", "-") for m in METHODS)})},
    "drop_rate": {"type": float},
    "bit_width": {"type": int},
    "rank": {"type": int},
    "extended": {"action": "store_const", "const": True},
    "freeze_shared": {"action": "store_const", "const": True},
    "format": {"choices": ("csv", "json")},
    "ckpt": {"help": "explicit checkpoint path"},
}


@functools.cache  # built once per process: parse_args leaves the parser as it was
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ders",
        description="Desk-scale mixture-of-experts upcycling, training, and delta compression.",
    )
    # A flag a subcommand does not take reads as None, so the config views it
    # shares with other subcommands (``Experiment.upcycle_config``) still work.
    parser.set_defaults(**dict.fromkeys(_FLAGS))
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, flags) in SUBCOMMANDS.items():
        sp = sub.add_parser(name)
        sp.add_argument("--config", default=None, help="path to the JSON experiment config")
        sp.add_argument("--seed", type=int, default=None, help="override the config seed")
        sp.add_argument("--out", default=".", help="artifact directory")
        for flag in flags:
            sp.add_argument(f"--{flag.replace('_', '-')}", dest=flag, default=None, **_FLAGS[flag])
    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    out = args.out
    try:
        os.makedirs(out, exist_ok=True)
        return SUBCOMMANDS[args.command][0](args, out)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except StateError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (NumericError, DimensionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except DersError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
