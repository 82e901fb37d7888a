"""Self-describing binary checkpoints.

Layout: the magic ``DERS``, a little-endian u32 format version and header
length, a UTF-8 JSON header, the concatenated little-endian array payloads
and a u32 CRC-32 of the payload. The header holds the topology, a record
table (name, dtype, shape, offset, byte count per ``moe.model_arrays``
entry, in its order) and caller-supplied ``meta``. Floats keep the model's
width (f8 or f4); sparse indices persist as u32, quantized payloads as
bytes, scalar floats via repr. Writes are atomic (``write_atomic``).

Each header scalar is declared once, as a field of ``Model``, ``MoELayer``,
``Router``, ``FFN`` or a delta form annotated by a ``moe.FIELD_TYPES`` key:
``_entry`` writes it, ``_build`` reads it back checked by that table. A
layer's router and a dense block's FFN share their holder's entry, so only
structural keys are spelled here: ``kind``, ``blocks``, ``universal``,
``init_base_*`` (``"alias"`` on a vanilla layer, whose init base is its
frozen group base, else ``null``), ``group_*`` and ``deltas``.

A load checks each record (dtype string, shape, byte count, offset: records
tile the payload) before decoding it. Then one rule: the header the rebuilt
model writes, with the file's free-form ``meta``, must equal the file's byte
for byte, or the file is corruption named by the first key path that
differs. Bad magic, a version below 1, truncation, a bad checksum and a
mistyped scalar are corruption too; a newer version is refused; a
non-finite float is a numeric error.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import os
import struct
import tempfile
import zlib
from dataclasses import fields

import numpy as np

from .deltas import DELTA_KINDS, ExpertGroup
from .errors import ConfigError, CorruptionError, DimensionError, NumericError, StateError
from .moe import FIELD_TYPES, FFN, DenseBlock, Model, MoELayer, Router, model_arrays
from .numkern import check_finite

MAGIC = b"DERS"
FORMAT_VERSION = 1

_FLOAT_TAGS = {"float64": "<f8", "float32": "<f4"}

# Held objects, by annotation, whose header scalars share their holder's entry.
_SHARED = {"Router": Router, "FFN": FFN}


@functools.cache
def _fields(cls) -> tuple[tuple[str, str], ...]:
    """(name, annotation) of each init field of dataclass ``cls``, in order."""
    return tuple((f.name, f.type) for f in fields(cls) if f.init)


def _entry(obj) -> dict:
    """The header scalars (``moe.FIELD_TYPES`` fields) of ``obj`` and its router or FFN."""
    entry = {}
    for name, kind in _fields(type(obj)):
        if kind in FIELD_TYPES:
            entry[name] = getattr(obj, name)
        elif kind in _SHARED:
            entry.update(_entry(getattr(obj, name)))
    return entry


def _walk_model(model: Model) -> dict:
    """The header's ``model`` entry: each object's ``_entry`` under structural keys."""
    blocks = []
    for block in model.blocks:
        entry = _entry(block)
        if isinstance(block, DenseBlock):
            blocks.append({"kind": "dense", **entry})
            continue
        alias = "alias" if entry["method"] == "vanilla" else None
        entry.update(kind="moe", init_base_in=alias, init_base_out=alias)
        entry["universal"] = None if block.universal is None else _entry(block.universal)
        for tag, group in (("group_in", block.group_in), ("group_out", block.group_out)):
            entry[tag] = {"deltas": [{"kind": d.kind, **_entry(d)} for d in group.deltas]}
        blocks.append(entry)
    return {**_entry(model), "blocks": blocks}


def _header(model: Model, meta: dict) -> tuple[dict, list]:
    """The header ``save_model`` writes for ``model`` and ``meta``, and the
    (array, on-disk dtype) pair of each of its records."""
    tag = model.embed.dtype.name
    if tag not in _FLOAT_TAGS:
        raise StateError(f"cannot checkpoint dtype {tag}; expected float64 or float32")
    records, arrays, offset = [], [], 0
    for name, arr, disk, _ in model_arrays(model):
        dtype = np.dtype(disk or _FLOAT_TAGS[tag])
        nbytes = arr.size * dtype.itemsize
        rec = {"name": name, "dtype": dtype.str.lstrip("|"), "shape": list(arr.shape)}
        records.append(dict(rec, offset=offset, nbytes=nbytes))
        arrays.append((arr, dtype))
        offset += nbytes
    return {"dtype": tag, "model": _walk_model(model), "records": records, "meta": meta}, arrays


def _encode(header: dict) -> bytes:
    return json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")


def write_atomic(path: str, data: bytes) -> None:
    """Write ``data`` to ``path`` through a temp file in its directory that is
    renamed over it, so a reader never sees a partial file."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def save_model(model: Model, path: str, meta: dict | None = None) -> None:
    """Write ``model`` (plus JSON-serializable ``meta``) atomically to ``path``."""
    header, arrays = _header(model, meta or {})
    payload = b"".join(arr.astype(dtype, copy=False).tobytes() for arr, dtype in arrays)
    header_bytes = _encode(header)
    prefix = MAGIC + struct.pack("<II", FORMAT_VERSION, len(header_bytes))
    write_atomic(path, prefix + header_bytes + payload + struct.pack("<I", zlib.crc32(payload)))


def load_model(path: str) -> tuple[Model, dict]:
    """Read a checkpoint; returns (model, meta). Rejects corruption, any
    format version newer than this library understands, and non-finite floats."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < 12 or blob[:4] != MAGIC:
        raise CorruptionError(f"{path} is not a DERS checkpoint (bad magic)")
    (version,) = struct.unpack_from("<I", blob, 4)
    if version < 1:
        raise CorruptionError(f"{path} names format version {version}; versions start at 1")
    if version > FORMAT_VERSION:
        raise StateError(
            f"checkpoint format version {version} is newer than the supported {FORMAT_VERSION}"
        )
    (header_len,) = struct.unpack_from("<I", blob, 8)
    header_end = 12 + header_len
    if header_end + 4 > len(blob):
        raise CorruptionError(f"{path} is truncated (header extends past end of file)")
    header_bytes = blob[12:header_end]
    try:
        header = json.loads(header_bytes.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CorruptionError(f"{path} has an unreadable header: {exc}") from exc
    payload = blob[header_end:-4]
    (stored_crc,) = struct.unpack_from("<I", blob, len(blob) - 4)
    if zlib.crc32(payload) != stored_crc:
        raise CorruptionError(f"{path} failed its payload checksum")

    if not isinstance(header, dict):
        raise CorruptionError(f"{path} has a header of type {type(header).__name__}, not an object")
    if "meta" not in header:
        raise CorruptionError(f"{path} header lacks the field 'meta'")
    meta = header["meta"]
    if not isinstance(meta, dict):
        raise CorruptionError(f"{path} has a 'meta' of type {type(meta).__name__}, not an object")
    if header.get("dtype") not in _FLOAT_TAGS:
        raise CorruptionError(f"{path} names unknown float dtype {header.get('dtype')!r}")
    try:
        model = _build_model(header, payload)
    except KeyError as exc:
        raise CorruptionError(f"{path} header lacks the field {exc}") from exc
    except (TypeError, ValueError, ConfigError, DimensionError) as exc:
        raise CorruptionError(f"{path} header has a field of the wrong type or value: {exc}") from exc
    written, _ = _header(model, meta)
    if _encode(written) != header_bytes:
        raise CorruptionError(f"{path}: {_difference(header, written)}")
    return model, meta


def _difference(got, want, key: str = "") -> str:
    """Where the parsed header ``got`` first differs from the header ``want``
    its model writes, in sorted key and list order: the key path and both
    values, ``...`` standing for a missing key or item ("" below the top if
    they differ only in spelling)."""
    if isinstance(got, dict) and isinstance(want, dict):
        pairs = [(k, got.get(k, ...), want.get(k, ...)) for k in sorted(got.keys() | want.keys())]
    elif isinstance(got, list) and isinstance(want, list):
        pairs = [(i, *p) for i, p in enumerate(itertools.zip_longest(got, want, fillvalue=...))]
    elif type(got) is type(want) and got == want:
        return ""
    else:
        got, want = ("nothing" if v is ... else repr(v) for v in (got, want))
        return f"header key {key} holds {got}, but its model writes {want}"
    found = (_difference(a, b, f"{key}.{k}" if key else k) for k, a, b in pairs)
    spelling = "" if key else "header is not spelled as its model writes it"
    return next(filter(None, found), spelling)


def _read_scalars(cls, entry: dict, key: str) -> dict:
    """The header scalars of ``cls`` in its header ``entry`` at key path
    ``key``, each checked by the ``moe.FIELD_TYPES`` rule of its annotation."""
    values = {}
    for name, kind in _fields(cls):
        if kind not in FIELD_TYPES:
            continue
        value = entry[name]
        must, ok = FIELD_TYPES[kind]
        if not ok(value):
            error = NumericError if kind == "float" and type(value) is float else CorruptionError
            raise error(f"header key {key}.{name} holds {value!r}: wrong type or value, not {must}")
        values[name] = value
    return values


def _build(cls, entry: dict, key: str, take, nested=None):
    """``cls`` from its header ``entry`` at key path ``key``, field by field
    in declaration order, which is record order: a scalar from the entry, a
    router or FFN it holds from the same entry, an array as the next record
    (``take``), and any other field by ``nested[name](entry[name], path)``."""
    kwargs = _read_scalars(cls, entry, key)
    for name, kind in _fields(cls):
        if kind in _SHARED:
            kwargs[name] = _build(_SHARED[kind], entry, key, take)
        elif kind == "np.ndarray":
            kwargs[name] = take(None)
        elif kind not in FIELD_TYPES:
            kwargs[name] = nested[name](entry[name], f"{key}.{name}")
    return cls(**kwargs)


def _build_model(header: dict, payload: bytes) -> Model:
    """The model a header and payload describe; each array takes the next record."""
    float_tag = _FLOAT_TAGS[header["dtype"]]
    table = header["records"]
    cursor = iter(table)
    end = 0  # records tile the payload in table order

    def take(disk: str | None) -> np.ndarray:
        nonlocal end
        rec = next(cursor, None)
        if rec is None:
            raise CorruptionError(f"the record table ends after {len(table)} records")
        name, shape, start, nbytes = rec["name"], rec["shape"], rec["offset"], rec["nbytes"]
        dtype = np.dtype(disk or float_tag)
        want = dtype.str.lstrip("|")
        if rec["dtype"] != want:
            raise CorruptionError(f"record {name!r} has dtype {rec['dtype']!r}, not {want!r}")
        ints = (*shape, start, nbytes) if isinstance(shape, list) else (None,)
        if not all(type(n) is int and n >= 0 for n in ints):
            raise CorruptionError(f"record {name!r}: a shape, offset or size of the wrong type")
        count = math.prod(shape)
        if nbytes != count * dtype.itemsize:
            raise CorruptionError(f"record {name!r} holds {nbytes} bytes, not {count} items")
        if start != end or end + nbytes > len(payload):
            raise CorruptionError(f"record {name!r} must start at byte {end}, inside the payload")
        end += nbytes
        arr = np.frombuffer(payload, dtype, count, start).reshape(shape)
        if disk is None:
            check_finite(arr, f"checkpoint record {name!r}")
        return arr.copy()

    def group(entry: dict, key: str) -> ExpertGroup:
        base = take(None)
        deltas = []
        for i, desc in enumerate(entry["deltas"]):
            cls = DELTA_KINDS.get(desc["kind"])
            if cls is None:
                raise CorruptionError(f"checkpoint names unknown delta kind {desc['kind']!r}")
            records = {name: take(disk) for name, disk in cls.RECORDS}
            deltas.append(cls(**_read_scalars(cls, desc, f"{key}.deltas.{i}"), **records))
        return ExpertGroup(base, deltas)

    def universal(entry: dict | None, key: str) -> FFN | None:
        return None if entry is None else _build(FFN, entry, key, take)

    nested = {"group_in": group, "group_out": group, "universal": universal}

    def blocks(entries: list, key: str) -> list:
        out = []
        for j, desc in enumerate(entries):
            cls = {"dense": DenseBlock, "moe": MoELayer}.get(desc["kind"])
            if cls is None:
                raise CorruptionError(f"{key}.{j} has unknown kind {desc['kind']!r}")
            out.append(_build(cls, desc, f"{key}.{j}", take, nested))
        return out

    model = _build(Model, header["model"], "model", take, {"blocks": blocks})
    if end != len(payload):
        raise CorruptionError(f"the payload holds {len(payload) - end} bytes after the last record")
    return model
