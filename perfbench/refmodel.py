"""The benchmark's own reading of a checkpoint and its own forward pass.

Nothing here calls into ``ders``: the checkpoint container is parsed from its
documented layout, expert weights are synthesized from the stored arrays, and
the forward pass uses numpy ``@`` with its own softmax, top-k and GELU. The
correctness checks compare the program's outputs against these.
"""

from __future__ import annotations

import json
import struct

import numpy as np

_GELU_C = float(np.sqrt(2.0 / np.pi))


def read_checkpoint(path: str) -> tuple[dict, dict[str, np.ndarray]]:
    """(header, {record name: array}) of a DERS checkpoint file."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] != b"DERS":
        raise ValueError(f"{path}: bad magic")
    (header_len,) = struct.unpack_from("<I", blob, 8)
    header = json.loads(blob[12 : 12 + header_len].decode("utf-8"))
    payload = blob[12 + header_len : -4]
    arrays = {}
    for rec in header["records"]:
        raw = payload[rec["offset"] : rec["offset"] + rec["nbytes"]]
        arrays[rec["name"]] = np.frombuffer(raw, dtype=np.dtype(rec["dtype"])).reshape(rec["shape"])
    return header, arrays


def unpack(packed: np.ndarray, bit_width: int, n_codes: int) -> np.ndarray:
    """Signed codes from a little-endian bit stream of ``bit_width``-bit fields."""
    bits = np.unpackbits(packed.astype(np.uint8), bitorder="little")[: n_codes * bit_width]
    fields = bits.reshape(n_codes, bit_width).astype(np.int64)
    u = fields @ (np.int64(1) << np.arange(bit_width, dtype=np.int64))
    if bit_width == 1:
        return np.where(u == 1, 1, -1)
    return np.where(u >= 1 << (bit_width - 1), u - (1 << bit_width), u)


def delta_matrix(desc: dict, name: str, arrays: dict, shape) -> np.ndarray:
    """The dense matrix a stored delta stands for."""
    kind = desc["kind"]
    if kind == "dense":
        return arrays[f"{name}.mat"].astype(np.float64)
    if kind == "sparse":
        out = np.zeros(shape[0] * shape[1])
        out[arrays[f"{name}.index"].astype(np.int64)] = arrays[f"{name}.value"] * desc["rescale"]
        return out.reshape(shape)
    if kind == "lowrank":
        return arrays[f"{name}.a"] @ arrays[f"{name}.b"]
    if kind == "quantized":
        codes = unpack(arrays[f"{name}.packed"], desc["bit_width"], shape[0] * shape[1])
        return (codes * desc["scale"]).reshape(shape)
    raise ValueError(f"unknown delta kind {kind!r}")


def expert_weights(header: dict, arrays: dict) -> list:
    """Per block: ("dense", w_in, w_out) or ("moe", w_r, k, [(w_in_i, w_out_i)])."""
    blocks = []
    for j, desc in enumerate(header["model"]["blocks"]):
        prefix = f"blocks.{j}"
        if desc["kind"] == "dense":
            blocks.append(("dense", arrays[f"{prefix}.ffn.w_in"], arrays[f"{prefix}.ffn.w_out"]))
            continue
        if desc["extended"] or desc["universal"] is not None:
            raise ValueError("the reference forward covers plain routed MoE layers only")
        members = {}
        for tag in ("group_in", "group_out"):
            base = arrays[f"{prefix}.{tag}.base"]
            members[tag] = [
                base + delta_matrix(d, f"{prefix}.{tag}.delta{i}", arrays, base.shape)
                for i, d in enumerate(desc[tag]["deltas"])
            ]
        blocks.append(
            (
                "moe",
                arrays[f"{prefix}.router.w_r"],
                desc["topk_count"],
                list(zip(members["group_in"], members["group_out"])),
            )
        )
    return blocks


def gelu(x: np.ndarray) -> np.ndarray:
    return 0.5 * x * (1.0 + np.tanh(_GELU_C * (x + 0.044715 * x**3)))


def routing(logits: np.ndarray, k: int) -> np.ndarray:
    """Softmax over experts, then keep the k largest per row (lowest index wins ties)."""
    e = np.exp(logits - logits.max(axis=1, keepdims=True))
    probs = e / e.sum(axis=1, keepdims=True)
    ranked = np.argsort(-probs, axis=1, kind="stable")[:, :k]
    keep = np.zeros(probs.shape, dtype=bool)
    keep[np.arange(probs.shape[0])[:, None], ranked] = True
    return np.where(keep, probs, 0.0)


class Reference:
    """A checkpoint's weights, synthesized once, and its forward pass."""

    def __init__(self, path: str):
        header, arrays = read_checkpoint(path)
        if header["model"]["activation"] != "gelu":
            raise ValueError("the reference forward covers GELU models only")
        self.embed = arrays["embed"]
        self.readout = arrays["readout"]
        self.blocks = expert_weights(header, arrays)

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Predictions for the rows of ``x``."""
        h = np.atleast_2d(x) @ self.embed
        for block in self.blocks:
            if block[0] == "dense":
                h = h + gelu(h @ block[1]) @ block[2]
                continue
            _, w_r, k, experts = block
            scores = routing(h @ w_r, k)
            y = np.zeros_like(h)
            for i, (w_in, w_out) in enumerate(experts):
                y += scores[:, i : i + 1] * (gelu(h @ w_in) @ w_out)
            h = h + y
        return h @ self.readout


def r2_points(pred: np.ndarray, y: np.ndarray) -> float:
    """Regression score in points: 100·max(0, R²) against the per-column mean."""
    sse = float(np.sum((pred - y) ** 2))
    sst = float(np.sum((y - y.mean(axis=0)) ** 2))
    return 100.0 * max(0.0, 1.0 - sse / sst)
