"""Correctness checks on the outputs of a workload round.

Each check returns a list of failure messages; an empty list is a pass. The
expected values come from the benchmark's own computation (``refmodel``) or
from a property of the method (upcycle identity, closed-form counts, exact
decomposition, unbiased Bernoulli keep counts, quantizer error bound, finite
differences), never from a stored copy of an earlier output.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import tempfile

import numpy as np

import refmodel
from ders import deltas, moe, train
from ders.accounting import count_report
from ders.checkpoint import load_model, save_model


def _bits(a: np.ndarray) -> bytes:
    return np.ascontiguousarray(a, dtype=np.float64).view(np.uint64).tobytes()


# ---------------------------------------------------------------------------
# upcycle_train
# ---------------------------------------------------------------------------


def upcycle_identity(moe_model, dense_model) -> list[str]:
    """Right after upcycling, every synthesized expert weight is the dense FFN weight."""
    failures = []
    for j, (block, dense) in enumerate(zip(moe_model.blocks, dense_model.blocks)):
        if not isinstance(block, moe.MoELayer):
            continue
        for tag, group, want in (
            ("w_in", block.group_in, dense.ffn.w_in),
            ("w_out", block.group_out, dense.ffn.w_out),
        ):
            for i, delta in enumerate(group.deltas):
                if _bits(deltas.synthesize(group.base, delta)) != _bits(want):
                    failures.append(f"block {j} expert {i} {tag} differs from the dense FFN")
    return failures


def expected_layer_trainables(method, d, d_h, n, sparse_rate, rank) -> int:
    """Trainable values of one upcycled MoE layer by the paper's closed forms."""
    if method == "vanilla":
        per_matrix = n * d * d_h
    elif method == "ders_sm":
        keep = math.floor(d * d_h * (1.0 - sparse_rate) + 0.5)  # round half up
        per_matrix = d * d_h + n * keep
    else:
        per_matrix = d * d_h + n * rank * (d + d_h)
    return d * n + 2 * per_matrix  # router + the w_in and w_out groups


def trainable_counts(model, method, n, sparse_rate, rank) -> list[str]:
    """``count_report`` trainable counts against the closed forms."""
    want = expected_layer_trainables(method, model.d, model.d_h, n, sparse_rate, rank)
    failures = []
    for row in count_report(model).layers:
        if row.kind == "moe" and row.trainable_values != want:
            failures.append(f"{row.name}: {row.trainable_values} trainable values, closed form {want}")
    return failures


def _routing_masks(model, x) -> list[np.ndarray]:
    _, tape = moe.forward_tape(model, x)
    return [t["scores"] != 0.0 for t in tape["blocks"] if t["kind"] == "moe"]


def _param_class(name: str) -> str:
    """embed, readout, router, base, or the delta field (mat, value, a, b)."""
    return name.rsplit(".", 1)[-1] if name.startswith("blocks.") else name


def gradient_fd(model, batch, task, aux_coeff, h=1e-5, tol=1e-4) -> list[str]:
    """Analytic gradients against central differences, one coordinate per parameter class.

    The probed coordinate is the largest-gradient entry of the first array of
    each class (embed, router, shared base, each delta field, readout). A
    probe that would change the top-k set is skipped, since the
    straight-through gradient does not describe a jump.
    """
    _, grads = train.loss_and_grads(model, batch, task, aux_coeff)
    masks = _routing_masks(model, batch[0])
    failures, seen, probed = [], set(), 0
    for name, arr in moe.named_parameters(model):
        g = grads[name].ravel()
        if _param_class(name) in seen or not np.any(g):
            continue
        seen.add(_param_class(name))
        flat = arr.reshape(-1)
        idx = int(np.argmax(np.abs(g)))
        orig = flat[idx]
        losses, stable = [], True
        for sign in (1.0, -1.0):
            flat[idx] = orig + sign * h
            stable &= all(np.array_equal(a, b) for a, b in zip(masks, _routing_masks(model, batch[0])))
            losses.append(train.loss_and_grads(model, batch, task, aux_coeff)[0])
        flat[idx] = orig
        if not stable:
            continue
        fd = (losses[0] - losses[1]) / (2.0 * h)
        rel = abs(fd - g[idx]) / max(abs(fd), abs(g[idx]))
        probed += 1
        if rel >= tol:
            failures.append(f"{name}[{idx}]: analytic {g[idx]:.6e}, central difference {fd:.6e}")
    if probed == 0:
        failures.append("no gradient coordinate could be probed")
    return failures


def loss_decreases(metrics_csv: str) -> list[str]:
    """Mean loss over the last tenth of the steps is below that of the first tenth."""
    losses = [float(row["loss"]) for row in csv.DictReader(io.StringIO(metrics_csv))]
    tenth = max(1, len(losses) // 10)
    first, last = float(np.mean(losses[:tenth])), float(np.mean(losses[-tenth:]))
    return [] if last < first else [f"loss did not fall: first tenth {first:.6g}, last tenth {last:.6g}"]


# ---------------------------------------------------------------------------
# compress_serve: compression
# ---------------------------------------------------------------------------


def eval_matches(eval_json: str, reference: "refmodel.Reference", x, y, tol=1e-6) -> list[str]:
    """``eval.json``'s metric against the benchmark's own forward and R²."""
    got = json.loads(eval_json)["eval_metric"]
    want = refmodel.r2_points(reference.forward(x), y)
    return [] if abs(got - want) <= tol else [f"eval_metric {got!r}, reference {want!r}"]


def _trained_members(trained_path: str) -> dict:
    """{(block, tag, i): trained expert weight} of a vanilla-upcycled checkpoint."""
    header, arrays = refmodel.read_checkpoint(trained_path)
    out = {}
    for j, desc in enumerate(header["model"]["blocks"]):
        if desc["kind"] != "moe":
            continue
        for tag in ("group_in", "group_out"):
            base = arrays[f"blocks.{j}.{tag}.base"]
            for i, d in enumerate(desc[tag]["deltas"]):
                out[j, tag, i] = base + refmodel.delta_matrix(d, f"blocks.{j}.{tag}.delta{i}", arrays, base.shape)
    return out


def sparse_deltas(compressed_path: str, trained_path: str, drop_rate: float) -> list[str]:
    """Rescale is 1/(1−p) and every kept value is the exact decomposed delta."""
    header, arrays = refmodel.read_checkpoint(compressed_path)
    trained = _trained_members(trained_path)
    failures = []
    for j, desc in enumerate(header["model"]["blocks"]):
        if desc["kind"] != "moe":
            continue
        for tag in ("group_in", "group_out"):
            base = arrays[f"blocks.{j}.{tag}.base"].ravel()
            for i, d in enumerate(desc[tag]["deltas"]):
                name = f"blocks.{j}.{tag}.delta{i}"
                if d["kind"] != "sparse":
                    failures.append(f"{name} is {d['kind']}, not sparse")
                    continue
                if d["rescale"] != 1.0 / (1.0 - drop_rate):
                    failures.append(f"{name}: rescale {d['rescale']!r}, want 1/(1-{drop_rate})")
                index = arrays[f"{name}.index"].astype(np.int64)
                w = trained[j, tag, i].ravel()[index]
                if _bits(base[index] + arrays[f"{name}.value"]) != _bits(w):
                    failures.append(f"{name}: kept values are not the decomposed delta")
    return failures


def keep_statistics(compressed_path: str, report_json: str, drop_rate: float, sigmas=5.0) -> list[str]:
    """Kept counts and the equivalent-expert ratio lie within 5σ of the binomial law."""
    header, arrays = refmodel.read_checkpoint(compressed_path)
    report = json.loads(report_json)
    rows = {row["block"]: row for row in report["layers"]}
    p, failures = drop_rate, []
    for j, desc in enumerate(header["model"]["blocks"]):
        if desc["kind"] != "moe":
            continue
        n = desc["n_experts"]
        unit, kept_total = 0, 0
        for tag in ("group_in", "group_out"):
            cells = int(np.prod(arrays[f"blocks.{j}.{tag}.base"].shape))
            unit += cells
            for i in range(len(desc[tag]["deltas"])):
                kept = int(arrays[f"blocks.{j}.{tag}.delta{i}.index"].size)
                kept_total += kept
                if abs(kept - cells * (1 - p)) > sigmas * math.sqrt(cells * p * (1 - p)):
                    failures.append(f"block {j} {tag} delta{i}: {kept} of {cells} kept at p={p}")
        row = rows.get(j)
        if row is None:
            failures.append(f"report has no row for block {j}")
            continue
        ratio = (unit + kept_total) / (n * unit)
        want = (1 + n * (1 - p)) / n
        sigma = math.sqrt(n * unit * p * (1 - p)) / (n * unit)
        if row["equivalent_expert_ratio"] != ratio:
            failures.append(f"block {j}: report ratio {row['equivalent_expert_ratio']!r}, stored {ratio!r}")
        if abs(ratio - want) > sigmas * sigma:
            failures.append(f"block {j}: ratio {ratio:.6f}, closed form {want:.6f}")
        if row["equivalent_expert_ratio_formula"] != want:
            failures.append(f"block {j}: report formula {row['equivalent_expert_ratio_formula']!r}")
    return failures


def quantized_error(quantized_model, trained_model) -> list[str]:
    """Each quantized delta with k ≥ 2 decodes to within scale/2 of the decomposed delta."""
    failures = []
    for j, (qb, tb) in enumerate(zip(quantized_model.blocks, trained_model.blocks)):
        if not isinstance(qb, moe.MoELayer):
            continue
        for tag, qg, tg in (("in", qb.group_in, tb.group_in), ("out", qb.group_out, tb.group_out)):
            for i, (qd, td) in enumerate(zip(qg.deltas, tg.deltas)):
                if qd.bit_width < 2:
                    continue
                want = deltas.decompose(qg.base, deltas.synthesize(tg.base, td)).mat
                codes = refmodel.unpack(qd.packed, qd.bit_width, qd.rows * qd.cols)
                err = np.max(np.abs(codes.reshape(want.shape) * qd.scale - want))
                if err > qd.scale / 2 * (1 + 1e-9):
                    failures.append(
                        f"block {j} {tag} delta{i} at {qd.bit_width} bits: error {err:.3e} > scale/2 {qd.scale / 2:.3e}"
                    )
    return failures


def checkpoint_roundtrip(path: str) -> list[str]:
    """load → save reproduces the checkpoint's bytes."""
    with open(path, "rb") as fh:
        before = fh.read()
    try:
        model, meta = load_model(path)
    except Exception as exc:  # any refusal to load is a failed round trip
        return [f"{os.path.basename(path)} does not load: {exc}"]
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(path)), suffix=".rt")
    os.close(fd)
    try:
        save_model(model, tmp, meta=meta)
        with open(tmp, "rb") as fh:
            after = fh.read()
    finally:
        os.unlink(tmp)
    return [] if after == before else [f"{os.path.basename(path)}: load → save changed its bytes"]


# ---------------------------------------------------------------------------
# compress_serve: serving
# ---------------------------------------------------------------------------


def stacked_responses(model, requests, responses) -> list[int]:
    """Indices of requests whose response differs from one forward over all rows."""
    whole = moe.model_forward(model, np.vstack(requests))
    bad, row = [], 0
    for k, (x, out) in enumerate(zip(requests, responses)):
        if _bits(out) != _bits(whole[row : row + x.shape[0]]):
            bad.append(k)
        row += x.shape[0]
    return bad


def matches_reference(reference: "refmodel.Reference", x, out, tol=1e-9) -> bool:
    want = reference.forward(x)
    return float(np.max(np.abs(out - want))) <= tol * float(np.max(np.abs(want)))
