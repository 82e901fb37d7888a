"""Checkpoint container: bit-exact round trips, corruption and version checks."""

import json
import os
import re
import struct
import tempfile
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dataclasses import fields

from conftest import (
    DELTA_HEADERS,
    HEADER_LEVELS,
    build_mixed_moe_model,
    edit_header,
    header_level,
    rng_mat,
    to_float32,
    topology_oracle,
)
from ders.checkpoint import FORMAT_VERSION, MAGIC, load_model, save_model
from ders.compress import CompressionSpec, choose_base, ders_compress
from ders.deltas import DELTA_KINDS
from ders.errors import CorruptionError, StateError
from ders.moe import (
    FFN,
    FIELD_TYPES,
    Model,
    MoELayer,
    Router,
    build_dense_model,
    model_arrays,
    model_forward,
    named_parameters,
)
from ders.train import TrainConfig, make_task, train_loop
from ders.upcycle import UpcycleConfig, upcycle
from test_train import _generated_model


def dense_model(seed=0):
    return build_dense_model(d=8, d_h=16, depth=2, in_width=4, out_width=3, seed=seed)


def vanilla_model(universal=True, dense=None):
    return upcycle(
        dense or dense_model(),
        UpcycleConfig(
            n_experts=4, topk_count=2, method="vanilla", parallel_universal=universal, seed=1
        ),
    )


def float_arrays(model):
    """Every float array a model holds: parameters, frozen bases, float delta records."""
    arrays = [arr for _, arr in named_parameters(model)]
    for block in model.blocks:
        if isinstance(block, MoELayer):
            for group in (block.group_in, block.group_out):
                arrays.append(group.base)
                for delta in group.deltas:
                    arrays.extend(arr for _, arr, disk in delta.records() if disk is None)
    return arrays


def assert_same_model(a, b):
    pa, pb = dict(named_parameters(a)), dict(named_parameters(b))
    assert pa.keys() == pb.keys()
    for k in pa:
        assert np.array_equal(pa[k], pb[k]), k
    x = rng_mat((9, a.in_width), seed=3)
    assert np.array_equal(model_forward(a, x), model_forward(b, x))


class TestRoundTrip:
    def test_dense_model(self, tmp_path):
        model = dense_model()
        path = str(tmp_path / "dense.ckpt")
        save_model(model, path, meta={"stage": "pretrain", "seed": 0})
        loaded, meta = load_model(path)
        assert meta == {"stage": "pretrain", "seed": 0}
        assert loaded.ancestor_params == model.ancestor_params
        assert_same_model(model, loaded)

    @pytest.mark.parametrize(
        "method,kw",
        [
            ("vanilla", {"parallel_universal": True}),
            ("ders_sm", {"sparse_rate": 0.75}),
            ("ders_sm", {"sparse_rate": 0.5, "extended": True, "parallel_universal": True}),
            ("ders_lm", {"rank": 3, "freeze_shared": True}),
        ],
    )
    def test_upcycled_models(self, method, kw, tmp_path):
        model = upcycle(
            dense_model(), UpcycleConfig(n_experts=3, topk_count=2, method=method, seed=2, **kw)
        )
        path = str(tmp_path / "m.ckpt")
        save_model(model, path)
        loaded, _ = load_model(path)
        assert_same_model(model, loaded)

    def test_sparse_container_fields_exact(self, tmp_path):
        model = upcycle(
            dense_model(),
            UpcycleConfig(n_experts=2, topk_count=1, method="ders_sm", sparse_rate=0.6, seed=4),
        )
        layer = model.blocks[0]
        layer.group_in.deltas[0].value[:] = np.pi * np.arange(layer.group_in.deltas[0].value.size)
        path = str(tmp_path / "m.ckpt")
        save_model(model, path)
        loaded, _ = load_model(path)
        a, b = layer.group_in.deltas[0], loaded.blocks[0].group_in.deltas[0]
        assert np.array_equal(a.index, b.index)
        assert a.index.dtype == b.index.dtype
        assert np.array_equal(a.value, b.value)
        assert a.rescale == b.rescale

    @pytest.mark.parametrize("technique,kw", [
        ("sparsify", {"drop_rate": 0.7}),
        ("quantize", {"bit_width": 1}),
        ("quantize", {"bit_width": 4}),
        ("dense", {}),
    ])
    def test_compressed_models(self, technique, kw, tmp_path):
        model = ders_compress(vanilla_model(), CompressionSpec(technique, seed=5, **kw))
        path = str(tmp_path / "c.ckpt")
        save_model(model, path)
        loaded, _ = load_model(path)
        x = rng_mat((9, 4), seed=1)
        assert np.array_equal(model_forward(model, x), model_forward(loaded, x))
        for la, lb in zip(model.blocks, loaded.blocks):
            if not hasattr(la, "group_in"):
                continue
            for ga, gb in zip((la.group_in, la.group_out), (lb.group_in, lb.group_out)):
                for da, db in zip(ga.deltas, gb.deltas):
                    if technique == "quantize":
                        assert np.array_equal(da.packed, db.packed)
                        assert da.scale == db.scale and da.bit_width == db.bit_width

    def test_extended_compressed_topology(self, tmp_path):
        model = ders_compress(
            vanilla_model(), CompressionSpec("quantize", bit_width=8, extended=True)
        )
        path = str(tmp_path / "e.ckpt")
        save_model(model, path)
        loaded, _ = load_model(path)
        layer = loaded.blocks[0]
        assert layer.extended and layer.universal is None
        assert len(layer.group_in.deltas) == layer.n_experts + 1
        assert_same_model(model, loaded)

    def test_mixed_model(self, tmp_path):
        model = build_mixed_moe_model(seed=6)
        path = str(tmp_path / "mix.ckpt")
        save_model(model, path)
        loaded, _ = load_model(path)
        assert_same_model(model, loaded)

    def test_init_base_alias_preserved(self, tmp_path):
        model = vanilla_model()
        path = str(tmp_path / "v.ckpt")
        save_model(model, path)
        loaded, _ = load_model(path)
        bases = choose_base(loaded)
        assert sorted(bases) == [j for j, b in enumerate(loaded.blocks) if isinstance(b, MoELayer)]
        for j, (base_in, base_out) in bases.items():
            assert base_in is loaded.blocks[j].group_in.base
            assert base_out is loaded.blocks[j].group_out.base
            assert np.array_equal(base_in, model.blocks[j].group_in.base)
            assert np.array_equal(base_out, model.blocks[j].group_out.base)

    def test_float32_models(self, tmp_path):
        """A float32 dense model upcycles by each method, trains a step and
        compresses by each lossy technique in float32; every result checkpoints
        as float32, save → load → save is byte-identical and outputs are equal."""
        dense = to_float32(dense_model())
        task = make_task("cluster_regression", dict(d=4, n_clusters=2, out_width=3), 5)
        one_step = TrainConfig(steps=1, lr=1e-2, seed=2)
        models = {"dense": dense}
        for method, kw in (
            ("vanilla", {"parallel_universal": True}),
            ("ders_sm", {"sparse_rate": 0.5}),
            ("ders_lm", {"rank": 3}),
        ):
            cfg = UpcycleConfig(n_experts=4, topk_count=2, method=method, seed=1, **kw)
            models[method] = train_loop(upcycle(dense, cfg), task, one_step).model
        for technique, kw in (("sparsify", {"drop_rate": 0.7}), ("quantize", {"bit_width": 4})):
            spec = CompressionSpec(technique, seed=5, **kw)
            models[technique] = ders_compress(models["vanilla"], spec)
        for name, model in models.items():
            assert {arr.dtype for arr in float_arrays(model)} == {np.dtype(np.float32)}, name
            pa, pb = str(tmp_path / f"{name}.a.ckpt"), str(tmp_path / f"{name}.b.ckpt")
            save_model(model, pa)
            loaded, _ = load_model(pa)
            save_model(loaded, pb)
            with open(pa, "rb") as fa, open(pb, "rb") as fb:
                assert fa.read() == fb.read(), name
            assert {arr.dtype for arr in float_arrays(loaded)} == {np.dtype(np.float32)}, name
            assert_same_model(model, loaded)

    @pytest.mark.parametrize(
        "technique,kw", [("sparsify", {"drop_rate": 0.7}), ("quantize", {"bit_width": 4})]
    )
    def test_float32_compressed_models_load_under_float64_default(self, technique, kw, tmp_path):
        """The toolkit builds float64; a float32 file still loads as float32."""
        vanilla = vanilla_model(dense=to_float32(dense_model()))
        model = ders_compress(vanilla, CompressionSpec(technique, seed=5, **kw))
        x = rng_mat((9, 4), seed=1).astype(np.float32)
        want = model_forward(model, x)
        path = str(tmp_path / "c32.ckpt")
        save_model(model, path)
        loaded, _ = load_model(path)
        got = model_forward(loaded, x)
        assert want.dtype == got.dtype == np.float32
        assert np.array_equal(want, got)

    def test_save_load_save_byte_identical(self, tmp_path):
        model = ders_compress(vanilla_model(), CompressionSpec("sparsify", drop_rate=0.5, seed=7))
        pa, pb = str(tmp_path / "a.ckpt"), str(tmp_path / "b.ckpt")
        meta = {"seed": 7, "stage": "compress", "lr": 0.004999999999}
        save_model(model, pa, meta=meta)
        loaded, loaded_meta = load_model(pa)
        save_model(loaded, pb, meta=loaded_meta)
        with open(pa, "rb") as fa, open(pb, "rb") as fb:
            assert fa.read() == fb.read()

    def test_loaded_arrays_are_writable_copies(self, tmp_path):
        model = dense_model()
        path = str(tmp_path / "d.ckpt")
        save_model(model, path)
        loaded, _ = load_model(path)
        loaded.embed += 1.0  # must not raise (frombuffer views are read-only)
        assert not np.array_equal(loaded.embed, model.embed)


def canonical(value) -> str:
    """JSON text that tells 2 from 2.0 and 1 from true."""
    return json.dumps(value, sort_keys=True)


def read_header(path):
    with open(path, "rb") as fh:
        blob = fh.read()
    (header_len,) = struct.unpack_from("<I", blob, 8)
    return json.loads(blob[12 : 12 + header_len])


class TestRoundTripProperty:
    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(
        method=st.sampled_from(["vanilla", "ders_sm", "ders_lm"]),
        pattern=st.sampled_from(["every_layer", "every_other_layer"]),
        depth=st.integers(1, 3),
        universal=st.sampled_from(["parallel", "extended", "neither"]),
        frozen=st.booleans(),
        activation=st.sampled_from(["gelu", "relu", "tanh", "identity"]),
        dtype=st.sampled_from(["float64", "float32"]),
        compression=st.sampled_from([None, "sparsify", "quantize"]),
        seed=st.integers(0, 2**16),
    )
    def test_records_follow_the_walk_and_round_trip(
        self, method, pattern, depth, universal, frozen, activation, dtype, compression, seed
    ):
        """The header's records are ``model_arrays`` in order, its topology is
        the hand-written oracle's, the parameters are its trainable entries,
        and save → load → save is byte-identical; vanilla models are also
        checked sparsified and at 4 bits."""
        model = _generated_model(method, pattern, depth, universal, frozen, activation, dtype,
                                 seed)
        if compression is not None and method == "vanilla":
            kw = {"drop_rate": 0.5} if compression == "sparsify" else {"bit_width": 4}
            model = ders_compress(model, CompressionSpec(compression, seed=seed, **kw))
        walk = model_arrays(model)
        trainable = [(name, arr) for name, arr, _, t in walk if t]
        params = named_parameters(model)
        assert [name for name, _ in params] == [name for name, _ in trainable]
        assert all(a is b for (_, a), (_, b) in zip(params, trainable))
        with tempfile.TemporaryDirectory() as tmp:
            pa, pb = os.path.join(tmp, "a.ckpt"), os.path.join(tmp, "b.ckpt")
            save_model(model, pa, meta={"seed": seed})
            header = read_header(pa)
            assert [rec["name"] for rec in header["records"]] == [name for name, *_ in walk]
            assert canonical(header["model"]) == canonical(topology_oracle(model))
            for desc in header["model"]["blocks"]:
                if desc["kind"] == "moe":
                    alias = "alias" if desc["method"] == "vanilla" else None
                    assert desc["init_base_in"] == desc["init_base_out"] == alias
            loaded, meta = load_model(pa)
            save_model(loaded, pb, meta=meta)
            with open(pa, "rb") as fa, open(pb, "rb") as fb:
                assert fa.read() == fb.read()


class TestHeaderSchema:
    def _header_keys(self, value, keys):
        if isinstance(value, dict):
            keys.update(value)
            for item in value.values():
                self._header_keys(item, keys)
        elif isinstance(value, list):
            for item in value:
                self._header_keys(item, keys)
        return keys

    def test_every_init_field_is_stored(self, tmp_path):
        """Every init field of ``Model``, ``MoELayer``, ``Router``, ``FFN`` and
        each delta form is a header scalar (annotated by a ``FIELD_TYPES`` key
        and written), or names a record of ``model_arrays`` or the object
        holding it: any other field would silently drop out of checkpoints."""
        models = [
            build_mixed_moe_model(seed=6),  # dense block, sparse, low-rank, universal
            vanilla_model(),  # dense deltas
            ders_compress(vanilla_model(), CompressionSpec("quantize", bit_width=4)),
        ]
        keys, parts = set(), set()
        for i, model in enumerate(models):
            path = str(tmp_path / f"{i}.ckpt")
            save_model(model, path)
            self._header_keys(read_header(path), keys)
            parts.update(part for name, *_ in model_arrays(model) for part in name.split("."))
        kinds = {type(d).kind for m in models for b in m.blocks if isinstance(b, MoELayer)
                 for g in (b.group_in, b.group_out) for d in g.deltas}
        assert kinds == set(DELTA_KINDS)
        for cls in (Model, MoELayer, Router, FFN, *DELTA_KINDS.values()):
            for f in fields(cls):
                if not f.init:
                    continue
                stored = f.name in keys if f.type in FIELD_TYPES else f.name in parts
                assert stored, f"{cls.__name__}.{f.name}: {f.type}"

    def test_delta_header_scalars_are_the_oracle_dicts(self):
        for kind, cls in DELTA_KINDS.items():
            scalars = {f.name: f.type for f in fields(cls) if f.type in FIELD_TYPES}
            want = {key: t.__name__ for key, t in DELTA_HEADERS.get(kind, {}).items()}
            assert scalars == want, kind


class TestFailureModes:
    def _saved(self, tmp_path):
        path = str(tmp_path / "m.ckpt")
        save_model(vanilla_model(universal=False), path)
        with open(path, "rb") as fh:
            return path, bytearray(fh.read())

    @pytest.mark.parametrize("level", HEADER_LEVELS)
    def test_unknown_key_refused_at_every_level(self, tmp_path, level):
        """A key the program never writes is corruption at each of the six
        levels of the header, named by its key path."""
        path = str(tmp_path / "c.ckpt")
        model = ders_compress(vanilla_model(), CompressionSpec("sparsify", drop_rate=0.5, seed=5))
        save_model(model, path)
        where = []

        def edit(header):
            parent, entry = header_level(header, level)
            entry["junk"] = 0
            where.append(f"{parent}.junk" if parent else "junk")

        edit_header(path, edit, path)
        with pytest.raises(CorruptionError, match=re.escape(f"header key {where[0]} holds 0")):
            load_model(path)

    def test_meta_is_free_form(self, tmp_path):
        """``meta`` is the caller's: a key the program never writes there loads."""
        path = str(tmp_path / "m.ckpt")
        save_model(vanilla_model(), path, meta={"seed": 1})

        def edit(header):
            header["meta"]["junk"] = [1, {"x": None}]

        edit_header(path, edit, path)
        _, meta = load_model(path)
        assert meta == {"seed": 1, "junk": [1, {"x": None}]}

    @pytest.mark.parametrize("old, new", [(b'"meta":{', b'"meta": {'), (b"1e-05", b"1E-05")])
    def test_a_header_spelled_otherwise_refused(self, tmp_path, old, new):
        """The header must be spelled as its model writes it: the same values
        with a space added, or an exponent written ``E``, are refused."""
        path = str(tmp_path / "m.ckpt")
        save_model(vanilla_model(), path, meta={"lr": 1e-05})
        with open(path, "rb") as fh:
            blob = fh.read()
        (header_len,) = struct.unpack_from("<I", blob, 8)
        header = blob[12 : 12 + header_len]
        assert header.count(old) == 1
        header = header.replace(old, new)
        with open(path, "wb") as fh:
            fh.write(blob[:8] + struct.pack("<I", len(header)) + header + blob[12 + header_len :])
        with pytest.raises(CorruptionError, match="not spelled as its model writes it"):
            load_model(path)

    def test_bad_magic(self, tmp_path):
        path, blob = self._saved(tmp_path)
        blob[:4] = b"NOPE"
        with open(path, "wb") as fh:
            fh.write(blob)
        with pytest.raises(CorruptionError, match="magic"):
            load_model(path)

    def test_corrupt_payload_byte(self, tmp_path):
        path, blob = self._saved(tmp_path)
        (header_len,) = struct.unpack_from("<I", bytes(blob), 8)
        blob[12 + header_len + 100] ^= 0xFF
        with open(path, "wb") as fh:
            fh.write(blob)
        with pytest.raises(CorruptionError, match="checksum"):
            load_model(path)

    def test_truncated_file(self, tmp_path):
        path, blob = self._saved(tmp_path)
        with open(path, "wb") as fh:
            fh.write(blob[: len(blob) // 2])
        with pytest.raises(CorruptionError):
            load_model(path)

    def test_unknown_float_dtype_rejected(self, tmp_path):
        path, blob = self._saved(tmp_path)
        (header_len,) = struct.unpack_from("<I", bytes(blob), 8)
        header = bytes(blob[12 : 12 + header_len])
        assert header.count(b'"dtype":"float64"') == 1
        blob[12 : 12 + header_len] = header.replace(b'"dtype":"float64"', b'"dtype":"float16"')
        with open(path, "wb") as fh:
            fh.write(blob)
        with pytest.raises(CorruptionError, match="float16"):
            load_model(path)

    @pytest.mark.parametrize(
        "technique,kw,field,value",
        [
            ("sparsify", {"drop_rate": 0.5}, "rows", None),
            ("sparsify", {"drop_rate": 0.5}, "rows", "5"),
            ("sparsify", {"drop_rate": 0.5}, "rescale", True),
            ("quantize", {"bit_width": 4}, "bit_width", 4.0),
            ("quantize", {"bit_width": 4}, "scale", None),
        ],
    )
    def test_missing_or_mistyped_delta_header_field_rejected(
        self, technique, kw, field, value, tmp_path
    ):
        """A delta header field deleted (``None``) or of the wrong JSON type is
        corruption, not a ``KeyError`` or ``TypeError`` from deep in the load."""
        path = str(tmp_path / "c.ckpt")
        save_model(ders_compress(vanilla_model(), CompressionSpec(technique, seed=5, **kw)), path)

        def damage(header):
            entry = next(b for b in header["model"]["blocks"] if b["kind"] == "moe")
            entry = entry["group_in"]["deltas"][0]
            if value is None:
                del entry[field]
            else:
                entry[field] = value

        edit_header(path, damage, path)
        with pytest.raises(CorruptionError, match=field):
            load_model(path)

    def test_missing_topology_field_rejected(self, tmp_path):
        path, _ = self._saved(tmp_path)

        def damage(header):
            del next(b for b in header["model"]["blocks"] if b["kind"] == "moe")["n_experts"]

        edit_header(path, damage, path)
        with pytest.raises(CorruptionError, match="n_experts"):
            load_model(path)

    def test_negative_record_offset_rejected(self, tmp_path):
        """A negative offset would slice the payload from its end and load
        another record's bytes."""
        path, _ = self._saved(tmp_path)

        def damage(header):
            rec = next(r for r in header["records"] if r["name"] == "readout")
            rec["offset"] = -2 * rec["nbytes"]

        edit_header(path, damage, path)
        with pytest.raises(CorruptionError, match="readout"):
            load_model(path)

    @pytest.mark.parametrize(
        "where, field, value",
        [("readout", "offset", "0"), ("moe", "n_experts", "2"), ("readout", "shape", "x")],
    )
    def test_mistyped_topology_or_record_field_rejected(self, tmp_path, where, field, value):
        """A header field of the wrong JSON type is corruption, not a
        ``TypeError`` from deep in the load."""
        path, _ = self._saved(tmp_path)

        def damage(header):
            if where == "moe":
                entry = next(b for b in header["model"]["blocks"] if b["kind"] == "moe")
            else:
                entry = next(r for r in header["records"] if r["name"] == where)
            entry[field] = value

        edit_header(path, damage, path)
        with pytest.raises(CorruptionError, match="wrong type"):
            load_model(path)

    def test_version_zero_rejected(self, tmp_path):
        """Versions start at 1: a flipped low bit of version 1 is corruption."""
        path, blob = self._saved(tmp_path)
        struct.pack_into("<I", blob, 4, 0)
        with open(path, "wb") as fh:
            fh.write(blob)
        with pytest.raises(CorruptionError, match="version 0"):
            load_model(path)

    @pytest.mark.parametrize(
        "damage, match",
        [
            ("float record relabelled <i8", "'<i8'"),
            ("dtype ,f8", "',f8'"),
            ("nbytes not a multiple of the item size", "readout"),
            ("shape [-1, -24]", "readout"),
            ("empty shape [0, 2**70]", "wrong type or value"),
            ("offset moved back one item", "readout"),
            ("extra record", "'extra'"),
            ("two records swapped", "'blocks.0.group_in.delta1.mat'"),
        ],
    )
    def test_record_table_damage_rejected(self, tmp_path, damage, match):
        """Each record is checked against the array that takes it before its
        bytes are decoded (the dtype string is compared, never parsed), must
        start where the previous record ends, and the whole table must equal
        the rebuilt model's ``model_arrays``."""
        path, _ = self._saved(tmp_path)

        def edit(header):
            records = header["records"]
            readout = records[-1]
            assert readout["name"] == "readout" and readout["shape"] == [8, 3]
            if damage == "float record relabelled <i8":
                readout["dtype"] = "<i8"
            elif damage == "dtype ,f8":
                readout["dtype"] = ",f8"
            elif damage == "nbytes not a multiple of the item size":
                readout["nbytes"] -= 1
            elif damage == "shape [-1, -24]":
                readout["shape"] = [-1, -24]
            elif damage == "empty shape [0, 2**70]":  # numpy cannot make that array
                readout.update(shape=[0, 2**70], nbytes=0)
            elif damage == "offset moved back one item":
                readout["offset"] -= 8
            elif damage == "extra record":
                records.append(dict(readout, name="extra"))
            else:
                i = [r["name"] for r in records].index("blocks.0.group_in.delta0.mat")
                records[i], records[i + 1] = records[i + 1], records[i]

        edit_header(path, edit, path)
        with pytest.raises(CorruptionError, match=match):
            load_model(path)

    def test_payload_bytes_after_the_last_record_rejected(self, tmp_path):
        """The records tile the payload: bytes past the last one, even under
        a matching checksum, are corruption."""
        path, blob = self._saved(tmp_path)
        (header_len,) = struct.unpack_from("<I", bytes(blob), 8)
        payload = bytes(blob[12 + header_len : -4]) + bytes(8)
        with open(path, "wb") as fh:
            fh.write(blob[: 12 + header_len] + payload + struct.pack("<I", zlib.crc32(payload)))
        with pytest.raises(CorruptionError, match="8 bytes after the last record"):
            load_model(path)

    def test_newer_version_rejected(self, tmp_path):
        path, blob = self._saved(tmp_path)
        struct.pack_into("<I", blob, 4, FORMAT_VERSION + 1)
        with open(path, "wb") as fh:
            fh.write(blob)
        with pytest.raises(StateError, match="newer"):
            load_model(path)

    def test_no_temp_files_left_behind(self, tmp_path):
        path = str(tmp_path / "clean.ckpt")
        save_model(dense_model(), path)
        save_model(dense_model(seed=1), path)  # overwrite in place
        assert sorted(os.listdir(tmp_path)) == ["clean.ckpt"]
        loaded, _ = load_model(path)
        assert_same_model(build_dense_model(d=8, d_h=16, depth=2, in_width=4, out_width=3, seed=1), loaded)

    def test_magic_constant(self):
        assert MAGIC == b"DERS"


def tiny_compressed(technique):
    """A one-block vanilla model with two experts and a parallel universal
    FFN, sparsified at p = 0.5 or quantized at 4 bits."""
    dense = build_dense_model(d=2, d_h=4, depth=1, in_width=2, out_width=1, seed=0)
    cfg = UpcycleConfig(
        n_experts=2, topk_count=1, method="vanilla", parallel_universal=True, seed=1
    )
    kw = {"drop_rate": 0.5} if technique == "sparsify" else {"bit_width": 4}
    return ders_compress(upcycle(dense, cfg), CompressionSpec(technique, seed=5, **kw))


@pytest.fixture(scope="module", params=["sparsify", "quantize"])
def hostile(request, tmp_path_factory):
    """(path to overwrite, the saved bytes, the end of the JSON header)."""
    path = str(tmp_path_factory.mktemp("hostile") / "m.ckpt")
    save_model(tiny_compressed(request.param), path)
    with open(path, "rb") as fh:
        blob = fh.read()
    return path, blob, 12 + struct.unpack_from("<I", blob, 8)[0]


def loads(path, data):
    """Whether ``data``, written to ``path``, loads; ``StateError`` means it
    was refused, and any other exception propagates."""
    with open(path, "wb") as fh:
        fh.write(data)
    try:
        load_model(path)
    except StateError:
        return False
    return True


def flip(blob, i, bit):
    data = bytearray(blob)
    data[i] ^= 1 << bit
    return bytes(data)


class TestHostileBytes:
    """Single-bit flips and truncations of a tiny compressed checkpoint.

    Outside the JSON header (magic, version, length, payload and CRC), every
    flip and every truncation is refused as ``StateError``. Inside the header,
    a flip either loads or is refused as ``StateError``, never another
    exception. The CRC covers only the payload, and the header must only be
    what the rebuilt model writes, so a flip that keeps it so (a digit of a
    rescale, a quantizer scale or ``ancestor_params``) goes unnoticed: that
    is the open header-checksum gap of format version 1, and these tests do
    not assert that such flips are refused.
    """

    def test_every_flip_outside_the_header_and_every_truncation_refused(self, hostile):
        path, blob, header_end = hostile
        outside = [*range(12), *range(header_end, len(blob))]
        assert [(i, b) for i in outside for b in range(8) if loads(path, flip(blob, i, b))] == []
        assert [n for n in range(len(blob)) if loads(path, blob[:n])] == []

    @settings(max_examples=500, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def test_a_header_flip_loads_or_is_refused(self, hostile, data):
        path, blob, header_end = hostile
        i = data.draw(st.integers(12, header_end - 1), label="byte")
        loads(path, flip(blob, i, data.draw(st.integers(0, 7), label="bit")))
