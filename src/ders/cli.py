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
keys are rejected with their full field path, and the top-level ``seed`` is
mandatory (it is the default seed for every stage that does not set its own).
The ``pretrain``, ``train``, ``upcycle``, ``compress`` and ``task.params``
keys are the fields of ``TrainConfig``, ``UpcycleConfig``, ``CompressionSpec``
and ``SyntheticTask``, each typed by its annotation through
``moe.FIELD_TYPES``; only ``model`` and ``sweep`` are listed by hand. Exit
codes: 0 success, 2 config error, 3 state error, 4 numeric error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import MISSING, fields, replace

from .accounting import count_report, report_to_csv, report_to_json
from .analysis import cosine_report, similarity_to_csv, similarity_to_json
from .checkpoint import load_model, save_model, write_atomic
from .compress import CompressionSpec, compression_report, ders_compress
from .errors import ConfigError, DersError, DimensionError, NumericError, StateError
from .moe import FIELD_TYPES, Model, build_dense_model
from .train import SyntheticTask, TrainConfig, evaluate, make_task, train_loop
from .upcycle import UpcycleConfig, upcycle

# Each subcommand with the only flags it takes besides --config, --seed and --out.
SUBCOMMANDS = {
    "pretrain-dense": (),
    "upcycle": ("method", "drop_rate", "rank", "extended", "freeze_shared"),
    "train": (),
    "compress": ("drop_rate", "bit_width", "extended"),
    "eval": ("ckpt",),
    "report-params": ("ckpt", "format"),
    "analyze-similarity": ("ckpt", "format"),
    # The rank arms upcycle: the upcycle flags the sweep does not set itself.
    "sweep": ("extended", "freeze_shared"),
}

_CKPT_CHAIN = ("compressed.ckpt", "trained.ckpt", "moe.ckpt", "dense.ckpt")

_METHOD_ALIASES = {
    "vanilla": "vanilla",
    "ders-sm": "ders_sm",
    "ders-lm": "ders_lm",
    "ders_sm": "ders_sm",
    "ders_lm": "ders_lm",
}

# A config value's type: (what the error message says it must be, test).
_INT, _NUMBER, _STRING = (FIELD_TYPES[name] for name in ("int", "float", "str"))
_NUMBERS = ("a list of numbers", lambda v: isinstance(v, list) and all(_NUMBER[1](x) for x in v))
_INTS = ("a list of integers", lambda v: isinstance(v, list) and all(_INT[1](x) for x in v))


def _fields_schema(cls, skip=()) -> dict:
    """The keys of a config section backed by dataclass ``cls``: its fields,
    each typed by its annotation."""
    return {f.name: FIELD_TYPES[f.type] for f in fields(cls) if f.init and f.name not in skip}


# Every config key with its type; a nested dict is a JSON object with its own keys.
_SCHEMA: dict = {
    "seed": _INT,
    "model": {"d": _INT, "d_h": _INT, "depth": _INT, "activation": _STRING},
    "task": {
        "kind": _STRING,
        "seed": _INT,
        "params": _fields_schema(SyntheticTask, skip=("kind", "seed")),
    },
    "pretrain": _fields_schema(TrainConfig),
    "train": _fields_schema(TrainConfig),
    "upcycle": _fields_schema(UpcycleConfig),
    "compress": _fields_schema(CompressionSpec),
    "sweep": {"drop_rates": _NUMBERS, "bit_widths": _INTS, "ranks": _INTS},
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


def _build(cls, name: str, section: dict):
    """The stage config ``cls(**section)`` of config section ``name``, validated;
    each field without a default must be in ``section``."""
    for f in fields(cls):
        if f.default is MISSING and f.name not in section:
            raise ConfigError(f"config field '{name}.{f.name}' is required")
    cfg = cls(**section)
    cfg.validate()
    return cfg


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
        self.raw = raw
        self.seed = seed_override if seed_override is not None else raw["seed"]

    def _section(self, name: str) -> dict:
        return dict(self.raw.get(name) or {})

    def task(self):
        section = self._section("task")
        if not section:
            raise ConfigError("config section 'task' is required for this subcommand")
        if "kind" not in section:
            raise ConfigError("config field 'task.kind' is required")
        return make_task(
            section["kind"], dict(section.get("params") or {}), section.get("seed", self.seed)
        )

    def model_dims(self) -> dict:
        section = self._section("model")
        for field in ("d", "d_h", "depth"):
            if field not in section:
                raise ConfigError(f"config field 'model.{field}' is required")
        section.setdefault("activation", "gelu")
        return section

    def train_config(self, name: str) -> TrainConfig:
        section = self._section(name)
        if not section:
            raise ConfigError(f"config section '{name}' is required for this subcommand")
        section.setdefault("seed", self.seed)
        return _build(TrainConfig, name, section)

    def upcycle_config(self, args) -> UpcycleConfig:
        section = self._section("upcycle")
        section.setdefault("seed", self.seed)
        if args.method is not None:
            section["method"] = _METHOD_ALIASES[args.method]
        if args.drop_rate is not None:
            section["sparse_rate"] = args.drop_rate
        if args.rank is not None:
            section["rank"] = args.rank
        if args.extended is not None:
            section["extended"] = args.extended
            section.setdefault("parallel_universal", True)
        if args.freeze_shared is not None:
            section["freeze_shared"] = args.freeze_shared
        return _build(UpcycleConfig, "upcycle", section)

    def compression_spec(self, args) -> CompressionSpec:
        section = self._section("compress")
        section.setdefault("seed", self.seed)
        flags = " / ".join(f"--{key.replace('_', '-')}" for key in _TECHNIQUE_FLAGS)
        chosen = [key for key in _TECHNIQUE_FLAGS if getattr(args, key) is not None]
        if len(chosen) > 1:
            raise ConfigError(f"each of {flags} selects a technique: pass at most one")
        if chosen:
            key = chosen[0]
            section.update(technique=_TECHNIQUE_FLAGS[key], **{key: getattr(args, key)})
        elif "technique" not in section:
            raise ConfigError(
                f"compression technique unspecified: set 'compress.technique' or pass one of {flags}"
            )
        if args.extended is not None:
            section["extended"] = args.extended
        return _build(CompressionSpec, "compress", section)


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


def _float_cell(value) -> str:
    return repr(float(value))


def _metrics_csv(trace: list[dict]) -> str:
    lines = ["step,loss,aux_loss,eval_metric"]
    for row in trace:
        metric = row["eval_metric"]
        lines.append(
            ",".join(
                [
                    str(row["step"]),
                    _float_cell(row["loss"]),
                    _float_cell(row["aux_loss"]),
                    "" if metric == "" else _float_cell(metric),
                ]
            )
        )
    return "\n".join(lines) + "\n"


def _json_bytes(data) -> bytes:
    return (json.dumps(data, indent=2, sort_keys=True) + "\n").encode()


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _cmd_pretrain(args, out: str) -> int:
    exp = Experiment(load_config(args.config), args.seed)
    task = exp.task()
    dims = exp.model_dims()
    model = build_dense_model(
        d=dims["d"],
        d_h=dims["d_h"],
        depth=dims["depth"],
        in_width=task.in_width,
        out_width=task.target_width,
        seed=exp.seed,
        activation=dims["activation"],
    )
    result = train_loop(model, task, exp.train_config("pretrain"))
    save_model(
        result.model,
        os.path.join(out, "dense.ckpt"),
        meta={"stage": "pretrain-dense", "seed": exp.seed, "best_metric": result.best_metric},
    )
    return 0


def _cmd_upcycle(args, out: str) -> int:
    exp = Experiment(load_config(args.config), args.seed)
    dense, _ = _load_ckpt(os.path.join(out, "dense.ckpt"))
    cfg = exp.upcycle_config(args)
    moe = upcycle(dense, cfg)
    save_model(
        moe,
        os.path.join(out, "moe.ckpt"),
        meta={"stage": "upcycle", "method": cfg.method, "seed": cfg.seed},
    )
    return 0


def _cmd_train(args, out: str) -> int:
    exp = Experiment(load_config(args.config), args.seed)
    task = exp.task()
    moe, _ = _load_ckpt(os.path.join(out, "moe.ckpt"))
    try:
        result = train_loop(moe, task, exp.train_config("train"))
    except NumericError as exc:
        # Divergence: keep the steps that completed before it.
        write_atomic(os.path.join(out, "metrics.csv"), _metrics_csv(exc.trace).encode())
        raise
    save_model(
        result.model,
        os.path.join(out, "trained.ckpt"),
        meta={"stage": "train", "seed": exp.seed, "best_metric": result.best_metric},
    )
    write_atomic(os.path.join(out, "metrics.csv"), _metrics_csv(result.trace).encode())
    return 0


def _cmd_compress(args, out: str) -> int:
    exp = Experiment(load_config(args.config), args.seed)
    trained, _ = _load_ckpt(os.path.join(out, "trained.ckpt"))
    spec = exp.compression_spec(args)
    compressed = ders_compress(trained, spec)
    save_model(
        compressed,
        os.path.join(out, "compressed.ckpt"),
        meta={"stage": "compress", "technique": spec.technique, "seed": spec.seed},
    )
    report = compression_report(compressed, spec)
    write_atomic(os.path.join(out, "compression_report.json"), _json_bytes(report))
    return 0


def _cmd_eval(args, out: str) -> int:
    exp = Experiment(load_config(args.config), args.seed)
    task = exp.task()
    path = _resolve_ckpt(out, args.ckpt)
    model, meta = _load_ckpt(path)
    metric = evaluate(model, task)
    x, _ = task.eval_set()
    write_atomic(
        os.path.join(out, "eval.json"),
        _json_bytes(
            {
                "eval_metric": metric,
                "task_kind": task.kind,
                "eval_size": int(x.shape[0]),
                "checkpoint": os.path.basename(path),
                "stage": meta.get("stage"),
            }
        ),
    )
    return 0


def _cmd_report_params(args, out: str) -> int:
    model, _ = _load_ckpt(_resolve_ckpt(out, args.ckpt))
    report = count_report(model)
    fmt = args.format or "json"
    if fmt == "json":
        name, text = "params.json", report_to_json(report) + "\n"
    else:
        name, text = "params.csv", report_to_csv(report)
    write_atomic(os.path.join(out, name), text.encode())
    return 0


def _cmd_analyze_similarity(args, out: str) -> int:
    model, _ = _load_ckpt(_resolve_ckpt(out, args.ckpt))
    report = cosine_report(model)
    fmt = args.format or "csv"
    if fmt == "csv":
        name, text = "similarity.csv", similarity_to_csv(report)
    else:
        name, text = "similarity.json", similarity_to_json(report) + "\n"
    write_atomic(os.path.join(out, name), text.encode())
    return 0


def _sweep_row(kind: str, value, model: Model, task) -> str:
    """One ``sweep.csv`` line: the eval metric and the ``report-params``
    totals of the model the row evaluates."""
    totals = count_report(model).totals
    counts = (totals.stored_values, totals.stored_bits, totals.trainable_values)
    return ",".join([kind, str(value), _float_cell(evaluate(model, task)), *map(str, counts)])


def _cmd_sweep(args, out: str) -> int:
    exp = Experiment(load_config(args.config), args.seed)
    section = exp._section("sweep")
    swept = [(key, tech, section.get(f"{key}s") or []) for key, tech in _TECHNIQUE_FLAGS.items()]
    ranks = section.get("ranks") or []
    if not (ranks or any(values for *_, values in swept)):
        raise ConfigError(
            "config section 'sweep' must list at least one of drop_rates/bit_widths/ranks"
        )
    task = exp.task()
    lines = ["kind,value,eval_metric,stored_values,stored_bits,trainable_values"]

    if any(values for *_, values in swept):
        trained, _ = _load_ckpt(os.path.join(out, "trained.ckpt"))
        lines.append(_sweep_row("baseline", "", trained, task))
        seed = exp._section("compress").get("seed", exp.seed)
        for kind, technique, values in swept:
            for value in values:
                spec = CompressionSpec(technique, seed=seed, **{kind: value})
                lines.append(_sweep_row(kind, value, ders_compress(trained, spec), task))

    if ranks:
        dense, _ = _load_ckpt(os.path.join(out, "dense.ckpt"))
        train_cfg = exp.train_config("train")
        for r in ranks:
            cfg = replace(exp.upcycle_config(args), method="ders_lm", rank=int(r))
            result = train_loop(upcycle(dense, cfg), task, train_cfg)
            lines.append(_sweep_row("rank", r, result.model, task))

    write_atomic(os.path.join(out, "sweep.csv"), ("\n".join(lines) + "\n").encode())
    return 0


_COMMANDS = {
    "pretrain-dense": _cmd_pretrain,
    "upcycle": _cmd_upcycle,
    "train": _cmd_train,
    "compress": _cmd_compress,
    "eval": _cmd_eval,
    "report-params": _cmd_report_params,
    "analyze-similarity": _cmd_analyze_similarity,
    "sweep": _cmd_sweep,
}


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


# The keyword arguments of each optional flag; every one defaults to None.
_FLAGS = {
    "method": {"choices": sorted(_METHOD_ALIASES)},
    "drop_rate": {"type": float},
    "bit_width": {"type": int},
    "rank": {"type": int},
    "extended": {"action": "store_const", "const": True},
    "freeze_shared": {"action": "store_const", "const": True},
    "format": {"choices": ("csv", "json")},
    "ckpt": {"help": "explicit checkpoint path"},
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ders",
        description="Desk-scale mixture-of-experts upcycling, training, and delta compression.",
    )
    # A flag a subcommand does not take reads as None, so the config views it
    # shares with other subcommands (``Experiment.upcycle_config``) still work.
    parser.set_defaults(**dict.fromkeys(_FLAGS))
    sub = parser.add_subparsers(dest="command", required=True)
    for name, flags in SUBCOMMANDS.items():
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
        return _COMMANDS[args.command](args, out)
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


if __name__ == "__main__":
    sys.exit(main())
