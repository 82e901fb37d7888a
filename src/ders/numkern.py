"""Deterministic dense numeric kernels and seeded randomness.

Matrices are 2-D ``numpy.ndarray`` values (row-major). There is no module-wide
dtype: a kernel's result takes the dtype of its operands, and the toolkit
builds everything in float64 unless it is handed float32 arrays. Every kernel
here is pure and has a fixed, platform-independent summation order, so results
are bit-reproducible:

* ``matmul`` accumulates over the inner dimension in increasing index order,
  starting from +0.0, which is exactly the naive triple-loop order per output
  element. It has two ways to evaluate that one order (a broadcast product
  reduced over its outermost axis, or a Python loop of rank-1 updates) and
  picks one by shape; both give the same bytes. BLAS is deliberately not used
  (its blocked summation is not bit-stable across shapes).
* ``matmul`` does not check finiteness. Values are checked where they enter
  and leave a stage: the input batch and the prediction of a forward pass, the
  loss and each gradient, and every float of a loaded checkpoint. ``softmax``
  keeps its input check, once per routing call.
* Randomness comes from counter-based Philox streams keyed by
  ``(seed, stream_id)``; identical keys give identical draws on any platform,
  independent of call order elsewhere in the program.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DimensionError, NumericError, ParameterError

_MASK64 = (1 << 64) - 1


def dtype_bits(dtype) -> int:
    """Bit width of ``dtype``."""
    return np.dtype(dtype).itemsize * 8


def check_finite(arr: np.ndarray, context: str) -> np.ndarray:
    if not np.all(np.isfinite(arr)):
        raise NumericError(f"non-finite values in {context}")
    return arr


@dataclass(frozen=True)
class RngStream:
    """A named, reproducible random stream.

    The pair (seed, stream_id) keys a counter-based Philox generator, so two
    streams with different ids are statistically independent and each stream
    yields the same draw sequence on every run and platform.
    """

    seed: int
    stream_id: int = 0

    @cached_property
    def generator(self) -> np.random.Generator:
        key = ((self.seed & _MASK64) << 64) | (self.stream_id & _MASK64)
        return np.random.Generator(np.random.Philox(key=key))


def derive_stream_id(*parts: int | str) -> int:
    """Mix structured coordinates (layer, matrix, expert, purpose...) into a
    64-bit stream id.

    Uses a splitmix64-style finalizer; strings are folded in with FNV-1a so the
    result never depends on Python's salted ``hash``.
    """
    h = 0
    for part in parts:
        if isinstance(part, str):
            v = 0xCBF29CE484222325
            for byte in part.encode("utf-8"):
                v = ((v ^ byte) * 0x100000001B3) & _MASK64
            part = v
        elif not isinstance(part, (int, np.integer)):
            raise ParameterError(f"stream id parts must be int or str, got {type(part)!r}")
        h = (h + (int(part) & _MASK64) + 0x9E3779B97F4A7C15) & _MASK64
        h = ((h ^ (h >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        h = ((h ^ (h >> 27)) * 0x94D049BB133111EB) & _MASK64
        h = h ^ (h >> 31)
    return h


# Elements in the broadcast product's (inner, rows, cols) temporary, one
# buffer per call: large enough that the per-block overhead is small, small
# enough to stay in cache and out of the peak RSS.
_BROADCAST_BLOCK = 1 << 16


def matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix product with a deterministic summation order.

    Every output element is ``((0.0 + a[i,0]·b[0,j]) + a[i,1]·b[1,j]) + …``,
    in increasing k, exactly the naive triple loop. Two evaluations give those
    bytes:

    * the broadcast product: near-equal blocks of rows form all their
      products at once in a C-ordered ``(inner, rows, cols)`` buffer, and
      ``np.add.reduce`` sums it over axis 0 with ``initial=0.0``. Because the
      summed axis is the outermost one, numpy adds whole rows in k order; a
      temporary in any other layout (numpy's default follows the operands,
      and a transposed ``b`` makes k the contiguous axis) is reduced pairwise
      instead. The initial +0.0 is the loop's own start, so products that are
      all −0.0 sum to +0.0;
    * the k-loop ``out += a[:, k] * b[k, :]``, wherever a block would hold a
      single output element (1×1 outputs, or one column of rows too wide to
      pair up: numpy reduces a lone element's axis pairwise, whatever the
      layout) or one row needs more than the block.

    Rows are independent, so the product of a batch equals the stacked
    products of its rows bit-for-bit.
    """
    if a.ndim != 2 or b.ndim != 2:
        raise DimensionError(f"matmul needs 2-D operands, got ndim {a.ndim} and {b.ndim}")
    if a.shape[1] != b.shape[0]:
        raise DimensionError(f"matmul shape mismatch: {a.shape} x {b.shape}")
    (n, inner), cols = a.shape, b.shape[1]
    dtype = np.result_type(a, b)
    row_size = inner * cols
    rows = min(n, _BROADCAST_BLOCK // max(row_size, 1))
    blocks = -(-n // rows) if rows else 0
    if not blocks or n // blocks * cols < 2:
        out = np.zeros((n, cols), dtype=dtype)
        for k in range(inner):
            out += a[:, k : k + 1] * b[k : k + 1, :]
        return out
    out = np.empty((n, cols), dtype=dtype)
    bounds = [n * i // blocks for i in range(blocks + 1)]
    flat = np.empty(-(-n // blocks) * row_size, dtype=dtype)
    a_t = a.T
    for r0, r1 in zip(bounds, bounds[1:]):
        buf = flat[: (r1 - r0) * row_size].reshape(inner, r1 - r0, cols)
        np.multiply(a_t[:, r0:r1, None], b[:, None, :], out=buf)
        np.add.reduce(buf, axis=0, initial=0.0, out=out[r0:r1])
    return out


def softmax(v: np.ndarray) -> np.ndarray:
    """Row-wise stable softmax. Accepts a 1-D row vector or a 2-D batch.

    Each row is shifted by its max before exponentiation; rows are processed
    independently, so batched and single-row calls agree bit-for-bit.
    """
    arr = np.asarray(v)
    if arr.size == 0:
        raise DimensionError("softmax of an empty vector")
    squeeze = arr.ndim == 1
    if squeeze:
        arr = arr.reshape(1, -1)
    if arr.ndim != 2:
        raise DimensionError(f"softmax needs a row vector or batch, got ndim={arr.ndim}")
    check_finite(arr, "softmax input")
    shifted = arr - np.max(arr, axis=1, keepdims=True)
    e = np.exp(shifted)
    out = e / np.sum(e, axis=1, keepdims=True)
    return out[0] if squeeze else out


def topk_mask(v: np.ndarray, topk_count: int) -> np.ndarray:
    """Zero all but the ``topk_count`` largest entries per row.

    Survivors keep their original values (no renormalization: the routing
    convention applies softmax first and masks after). Ties are broken toward
    the lowest index via a stable sort.
    """
    arr = np.asarray(v)
    squeeze = arr.ndim == 1
    if squeeze:
        arr = arr.reshape(1, -1)
    if arr.ndim != 2:
        raise DimensionError(f"topk_mask needs a row vector or batch, got ndim={arr.ndim}")
    n = arr.shape[1]
    if not 1 <= topk_count <= n:
        raise ParameterError(f"topk_count={topk_count} out of range [1, {n}]")
    order = np.argsort(-arr, axis=1, kind="stable")
    keep = np.zeros(arr.shape, dtype=bool)
    np.put_along_axis(keep, order[:, :topk_count], True, axis=1)
    out = np.where(keep, arr, np.zeros((), dtype=arr.dtype))
    return out[0] if squeeze else out


def bernoulli_mask(p: float, rows: int, cols: int, rng: RngStream) -> np.ndarray:
    """Matrix of independent {0,1} draws, 1 with probability ``p``."""
    if not 0.0 <= p <= 1.0:
        raise ParameterError(f"Bernoulli probability p={p} outside [0, 1]")
    if rows < 0 or cols < 0:
        raise ParameterError("mask dimensions must be non-negative")
    draws = rng.generator.random((rows, cols)) < p
    return draws.astype(np.float64)


def sample_unique_indices(total: int, keep: int, rng: RngStream) -> np.ndarray:
    """``keep`` distinct integers in [0, total), sorted ascending (int64)."""
    if keep > total:
        raise ParameterError(f"cannot keep {keep} unique indices out of {total}")
    if keep < 0 or total < 0:
        raise ParameterError("counts must be non-negative")
    if keep == 0:
        return np.empty(0, dtype=np.int64)
    picked = rng.generator.choice(total, size=keep, replace=False)
    return np.sort(picked.astype(np.int64))
