"""Redundancy diagnostics over trained models.

For each MoE layer of a vanilla-upcycled model this module measures how
close the trained experts stayed to their shared initialization: pairwise
cosine similarity among {init, E_1..E_N} flattened FFN weights (per matrix
and averaged over w_in/w_out), and per-expert delta Frobenius norms with
ratios to the base norm. Routers are excluded: similarities cover FFN
matrices only.

Cosines are computed with deterministic pairwise-summation dot products,
are exactly 1.0 for bitwise-equal members, and are invariant under
positive power-of-two rescaling of any single member. Zero-norm members
yield explicitly "undefined" entries (flagged in a mask and emitted as the
string "undefined"), never silently propagated NaNs.
"""

from __future__ import annotations

import io
import csv
import json
import math
from dataclasses import dataclass

import numpy as np

from .compress import choose_base
from .deltas import decompose, synthesize
from .moe import Model

SCHEMA_VERSION = 1

NOTE = "cosine similarity over FFN matrices only (w_in, w_out); routers excluded"


def _dot(u: np.ndarray, v: np.ndarray) -> float:
    return float(np.sum(u * v))


def _norm(u: np.ndarray) -> float:
    return math.sqrt(_dot(u, u))


def pairwise_cosine(members: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """All-pairs cosine over flattened arrays.

    Returns (cos, undefined): an m×m symmetric matrix with exact unit
    diagonal (NaN only at undefined entries) and a boolean mask marking
    entries involving a zero-norm member. Defined values are clamped to
    [−1, 1]; bitwise-equal members score exactly 1.0.
    """
    flats = [np.asarray(w).ravel() for w in members]
    norms = [_norm(f) for f in flats]
    m = len(flats)
    cos = np.full((m, m), np.nan)
    undefined = np.zeros((m, m), dtype=bool)
    for a in range(m):
        for b in range(a, m):
            if norms[a] == 0.0 or norms[b] == 0.0:
                undefined[a, b] = undefined[b, a] = True
                continue
            if a == b or np.array_equal(flats[a], flats[b]):
                c = 1.0
            else:
                c = _dot(flats[a], flats[b]) / (norms[a] * norms[b])
                c = min(1.0, max(-1.0, c))
            cos[a, b] = cos[b, a] = c
    return cos, undefined


@dataclass
class LayerSimilarity:
    """Similarity matrices and delta norms for one MoE layer.

    ``labels`` orders the members: the init base first, then one
    entry per group delta. ``cosine`` has keys "w_in", "w_out", "mean";
    ``undefined`` the matching masks. Norm ratios are None when the base
    norm is zero.
    """

    block: int
    labels: list[str]
    cosine: dict[str, np.ndarray]
    undefined: dict[str, np.ndarray]
    delta_norms: dict[str, list[float]]
    base_norms: dict[str, float]
    ratios: dict[str, list[float | None]]


@dataclass
class SimilarityReport:
    schema_version: int
    note: str
    layers: list[LayerSimilarity]

    def to_dict(self) -> dict:
        out = {"schema_version": self.schema_version, "note": self.note, "layers": []}
        for layer in self.layers:
            entry = {
                "block": layer.block,
                "labels": list(layer.labels),
                "cosine": {},
                "delta_norms": layer.delta_norms,
                "base_norms": layer.base_norms,
                "ratios": layer.ratios,
            }
            for tag, mat in layer.cosine.items():
                mask = layer.undefined[tag]
                entry["cosine"][tag] = [
                    [None if mask[a, b] else mat[a, b] for b in range(mat.shape[1])]
                    for a in range(mat.shape[0])
                ]
            out["layers"].append(entry)
        return out


def cosine_report(model: Model) -> SimilarityReport:
    """Pairwise cosine similarity among {init, E_1..E_N} per MoE layer.

    Member weights are synthesized from the group (base + delta); the init
    member is the layer's frozen group base, the dense FFN every expert was
    copied from (:func:`ders.compress.choose_base`). Per-matrix similarity is
    computed for w_in and w_out separately and averaged into "mean"
    (undefined wherever either side is undefined).
    """
    layers = []
    for j, inits in choose_base(model).items():
        block = model.blocks[j]
        labels = ["init"] + [f"E{i + 1}" for i in range(len(block.group_in.deltas))]
        cosine: dict[str, np.ndarray] = {}
        undefined: dict[str, np.ndarray] = {}
        delta_norms: dict[str, list[float]] = {}
        base_norms: dict[str, float] = {}
        ratios: dict[str, list[float | None]] = {}
        for tag, group, init in zip(("w_in", "w_out"), (block.group_in, block.group_out), inits):
            members = [init] + [synthesize(group.base, d) for d in group.deltas]
            cosine[tag], undefined[tag] = pairwise_cosine(members)
            base_norm = _norm(init)
            base_norms[tag] = base_norm
            norms = [_norm(decompose(init, w).mat) for w in members[1:]]
            delta_norms[tag] = norms
            ratios[tag] = [
                (n / base_norm if base_norm > 0.0 else None) for n in norms
            ]
        undefined["mean"] = undefined["w_in"] | undefined["w_out"]
        cosine["mean"] = np.where(
            undefined["mean"], np.nan, (cosine["w_in"] + cosine["w_out"]) / 2.0
        )
        layers.append(
            LayerSimilarity(
                block=j,
                labels=labels,
                cosine=cosine,
                undefined=undefined,
                delta_norms=delta_norms,
                base_norms=base_norms,
                ratios=ratios,
            )
        )
    return SimilarityReport(schema_version=SCHEMA_VERSION, note=NOTE, layers=layers)


def similarity_to_csv(report: SimilarityReport) -> str:
    """Heatmap-ready rows: block, matrix, row, col, value.

    The first line is a comment carrying the report's scope note. Undefined
    entries emit the literal string "undefined".
    """
    buf = io.StringIO()
    buf.write(f"# {report.note}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["block", "matrix", "row", "col", "value"])
    for layer in report.layers:
        for tag in ("w_in", "w_out", "mean"):
            mat = layer.cosine[tag]
            mask = layer.undefined[tag]
            for a, row_label in enumerate(layer.labels):
                for b, col_label in enumerate(layer.labels):
                    value = "undefined" if mask[a, b] else repr(float(mat[a, b]))
                    writer.writerow([layer.block, tag, row_label, col_label, value])
    return buf.getvalue()


def similarity_to_json(report: SimilarityReport) -> str:
    return json.dumps(report.to_dict(), indent=2, sort_keys=True)
