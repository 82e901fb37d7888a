"""Self-describing binary checkpoints.

Layout: the 4-byte magic ``DERS``, a little-endian u32 format version, a
little-endian u32 header length, a UTF-8 JSON header, the concatenated
little-endian array payloads, and a trailing u32 CRC-32 of the payload.
The header carries the model topology, a record table (name, dtype, shape,
offset, byte count; one record per ``ders.moe.model_arrays`` entry, in its
order), per-delta metadata (kind, rescale, quantizer scale),
and caller-supplied metadata such as seeds and stage configs — a
checkpoint loads without any external configuration.

Floats stored on disk keep the model's own width (f8 or f4); sparse index
vectors persist as u32; quantized payloads as raw bytes. Each delta form
declares its own header scalars and records (``ders.deltas``). Scalar floats
(rescales, quantizer scales) live in the JSON header, which round-trips
them exactly via repr. A vanilla layer's init base, the dense FFN its
experts were copied from, is its frozen group base: the header marks it
``"alias"`` (any other layer ``null``) and stores no second copy. Writes are
atomic (``write_atomic``): a temp file in the target directory is renamed
over the destination.

Loading reads the record table in order: each array of the model that the
topology describes takes the next record, whose dtype string, shape, byte
count and offset (records tile the payload in table order) are checked
before its bytes are decoded, and the table must equal the rebuilt model's
``model_arrays``. Wrong magic, a format version below 1, truncation,
checksum failures, a header of the wrong shape, unknown float dtypes and any
other table are corruption; a newer version is refused outright. A float
record or delta header scalar that is not finite is a numeric error.
"""

from __future__ import annotations

import json
import math
import os
import struct
import tempfile
import zlib

import numpy as np

from .deltas import DELTA_KINDS, ExpertGroup
from .errors import ConfigError, CorruptionError, DimensionError, StateError
from .moe import DenseBlock, FFN, Model, MoELayer, Router, model_arrays
from .numkern import check_finite

MAGIC = b"DERS"
FORMAT_VERSION = 1

_FLOAT_TAGS = {"float64": "<f8", "float32": "<f4"}


def _walk_model(model: Model):
    """Topology header + ordered (name, canonical array) records."""
    tag = model.embed.dtype.name
    if tag not in _FLOAT_TAGS:
        raise StateError(f"cannot checkpoint dtype {tag}; expected float64 or float32")
    fdt = _FLOAT_TAGS[tag]
    blocks = []
    for block in model.blocks:
        if isinstance(block, DenseBlock):
            blocks.append({"kind": "dense", "activation": block.ffn.activation})
            continue
        alias = "alias" if block.method == "vanilla" else None
        blocks.append(
            {
                "kind": "moe",
                "n_experts": block.n_experts,
                "topk_count": block.router.topk_count,
                "activation": block.activation,
                "extended": block.extended,
                "trainable_base": block.trainable_base,
                "method": block.method,
                "universal": (
                    None if block.universal is None else {"activation": block.universal.activation}
                ),
                "init_base_in": alias,
                "init_base_out": alias,
                "group_in": {"deltas": [d.descriptor() for d in block.group_in.deltas]},
                "group_out": {"deltas": [d.descriptor() for d in block.group_out.deltas]},
            }
        )
    arrays = [
        (name, np.ascontiguousarray(arr.astype(disk or fdt, copy=False)))
        for name, arr, disk, _ in model_arrays(model)
    ]
    topology = {
        "d": model.d,
        "d_h": model.d_h,
        "in_width": model.in_width,
        "out_width": model.out_width,
        "ancestor_params": model.ancestor_params,
        "activation": model.activation,
        "blocks": blocks,
    }
    return tag, topology, arrays


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
    tag, topology, arrays = _walk_model(model)
    records = []
    payload_parts = []
    offset = 0
    for name, arr in arrays:
        data = arr.tobytes()
        records.append(
            {
                "name": name,
                "dtype": arr.dtype.str.lstrip("|"),
                "shape": list(arr.shape),
                "offset": offset,
                "nbytes": len(data),
            }
        )
        payload_parts.append(data)
        offset += len(data)
    payload = b"".join(payload_parts)
    header = {
        "dtype": tag,
        "model": topology,
        "records": records,
        "meta": meta or {},
    }
    header_bytes = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    write_atomic(
        path,
        b"".join(
            [
                MAGIC,
                struct.pack("<I", FORMAT_VERSION),
                struct.pack("<I", len(header_bytes)),
                header_bytes,
                payload,
                struct.pack("<I", zlib.crc32(payload)),
            ]
        ),
    )


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
    try:
        header = json.loads(blob[12:header_end].decode("utf-8"))
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
        return _build_model(header, payload), meta
    except KeyError as exc:
        raise CorruptionError(f"{path} header lacks the field {exc}") from exc
    except (TypeError, ValueError, ConfigError, DimensionError) as exc:
        raise CorruptionError(f"{path} header has a field of the wrong type or value: {exc}") from exc


def _build_model(header: dict, payload: bytes) -> Model:
    """The model a checked header and payload describe. Each array takes the
    next entry of the record table, so the table must equal the rebuilt
    model's ``model_arrays``, entry for entry."""
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
        if not isinstance(shape, list) or not all(
            type(n) is int and n >= 0 for n in (*shape, start, nbytes)
        ):
            raise CorruptionError(
                f"record {name!r} has a shape, offset or byte count of the wrong type or value"
            )
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

    def ffn(activation: str) -> FFN:
        return FFN(take(None), take(None), activation)

    def group(entry: dict) -> ExpertGroup:
        base = take(None)
        deltas = []
        for desc in entry["deltas"]:
            cls = DELTA_KINDS.get(desc["kind"])
            if cls is None:
                raise CorruptionError(f"checkpoint names unknown delta kind {desc['kind']!r}")
            deltas.append(cls.from_records(desc, take))
        return ExpertGroup(base, deltas)

    topo = header["model"]
    embed = take(None)
    blocks = []
    for j, desc in enumerate(topo["blocks"]):
        if desc["kind"] == "dense":
            blocks.append(DenseBlock(ffn(desc["activation"])))
            continue
        if desc["kind"] != "moe":
            raise CorruptionError(f"block {j} has unknown kind {desc['kind']!r}")
        layer = MoELayer(  # arguments evaluate, and so take records, in table order
            router=Router(take(None), desc["topk_count"]),
            group_in=group(desc["group_in"]),
            group_out=group(desc["group_out"]),
            n_experts=desc["n_experts"],
            activation=desc["activation"],
            universal=None if desc["universal"] is None else ffn(desc["universal"]["activation"]),
            extended=desc["extended"],
            trainable_base=desc["trainable_base"],
            method=desc["method"],
        )
        # A vanilla layer's init base is its group base; no other layer has one.
        expected = "alias" if layer.method == "vanilla" else None
        for side in ("init_base_in", "init_base_out"):
            if desc[side] != expected:
                raise CorruptionError(
                    f"block {j} is a {layer.method} layer, so its {side} must be "
                    f"{expected!r}, not {desc[side]!r}"
                )
        blocks.append(layer)
    model = Model(
        d=topo["d"],
        d_h=topo["d_h"],
        in_width=topo["in_width"],
        out_width=topo["out_width"],
        embed=embed,
        blocks=blocks,
        readout=take(None),
        ancestor_params=topo["ancestor_params"],
        activation=topo["activation"],
    )
    walk = [name for name, *_ in model_arrays(model)]
    for rec, name in zip(table, walk):
        if rec["name"] != name:
            raise CorruptionError(f"record {rec['name']!r} stands where the model stores {name!r}")
    if len(table) > len(walk):
        raise CorruptionError(f"record {table[len(walk)]['name']!r} is not an array of the model")
    if end != len(payload):
        raise CorruptionError(f"the payload holds {len(payload) - end} bytes after the last record")
    return model
