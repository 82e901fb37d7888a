"""Deterministic dense numeric kernels and seeded randomness.

Matrices are 2-D ``numpy.ndarray`` values (row-major). There is no module-wide
dtype: a kernel's result takes the dtype of its operands, and the toolkit
builds everything in float64 unless it is handed float32 arrays. Every kernel
here is pure and has a fixed, platform-independent summation order, so results
are bit-reproducible:

* ``matmul`` accumulates over the inner dimension in increasing index order,
  starting from +0.0, which is exactly the naive triple-loop order per output
  element. ``np.einsum`` adds the products in that order, checked by an
  import-time probe in both operand orders; a narrow output with more rows
  than columns is computed transposed, ``(bᵀ·aᵀ)ᵀ``, which sums the same
  products (x·y == y·x exactly) in the same order. 1×1 outputs, and all
  outputs where the probe fails, take a Python loop of rank-1 updates. BLAS
  is deliberately not used (its blocked summation is not bit-stable across
  shapes).
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


def _k_loop(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The triple loop's order as rank-1 updates ``out += a[:, k] · b[k, :]``."""
    out = np.zeros((a.shape[0], b.shape[1]), dtype=np.result_type(a, b))
    for k in range(a.shape[1]):
        out += a[:, k : k + 1] * b[k : k + 1, :]
    return out


def _einsum(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``einsum("ki,kj->ij")`` of C-ordered operands of one dtype (k outermost at ≥ 2 columns)."""
    dtype = np.result_type(a, b)
    a_t, b = np.ascontiguousarray(a.T, dtype=dtype), np.ascontiguousarray(b, dtype=dtype)
    return np.einsum("ki,kj->ij", a_t, b, optimize=False)


def _einsum_is_k_ordered(product=_einsum) -> bool:
    """Whether ``product`` gives the k-loop's bytes, in float64 and float32, in
    both operand orders :func:`matmul` uses (``a·b``, and ``(bᵀ·aᵀ)ᵀ`` where
    that has two or more columns), on a multiply-add witness (0 unfused, 2⁻⁶⁰
    fused), −0.0 products and wide exponents."""
    e, g = 1.0 + 2.0**-30, np.random.default_rng(20251)
    cases = [([[1.0, e]] * rows, [[-(1.0 + 2.0**-29), 0.0], [e, 1.0]]) for rows in (1, 2)]
    cases += [([[-0.0, 1.0]] * rows, [[1.0, 2.0], [-0.0, -0.0]]) for rows in (1, 2)]
    for shapes in [((1, 300), (300, 3)), ((2, 70), (70, 3)), ((5, 300), (300, 2)), ((40, 33), (33, 4))]:
        cases.append([g.standard_normal(s) * 2.0 ** g.integers(-30, 30, s) for s in shapes])
    cast = [[np.asarray(x, dtype=t) for x in case] for t in (np.float64, np.float32) for case in cases]
    for a, b in cast:
        expected = _k_loop(a, b).tobytes()
        if product(a, b).tobytes() != expected:
            return False
        if a.shape[0] >= 2 and product(b.T, a.T).T.tobytes() != expected:
            return False
    return True


_EINSUM_K_ORDERED = _einsum_is_k_ordered()  # False where einsum fuses (FMA builds) or reorders

# Outputs this narrow, with more rows than columns, are computed transposed:
# einsum's inner loop then runs along the n rows instead of the few columns.
# tools/kernel_bench.py measures both orientations on the benchmark's shapes:
# wider outputs (512×32·32×128) are slower transposed.
_NARROW_COLUMNS = 32


def matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix product with a deterministic summation order, C-contiguous.

    Every output element is ``((0.0 + a[i,0]·b[0,j]) + a[i,1]·b[1,j]) + …``,
    in increasing k, exactly the naive triple loop. ``einsum`` gives those
    bytes whenever its output has two or more columns. An output of n rows
    and m ≤ 32 columns with n > m is computed as ``(bᵀ·aᵀ)ᵀ``: the same
    k-ordered sums with the operands swapped (x·y == y·x exactly), which is
    the faster orientation when the columns are few. A 1×1 output, whose sum
    einsum would unroll, and every output if the probe rejected einsum take
    the k-loop.

    Rows are independent and every orientation gives the triple loop's bytes,
    so the product of a batch equals the stacked products of its rows
    bit-for-bit, whichever orientation each of them took.
    """
    if a.ndim != 2 or b.ndim != 2:
        raise DimensionError(f"matmul needs 2-D operands, got ndim {a.ndim} and {b.ndim}")
    if a.shape[1] != b.shape[0]:
        raise DimensionError(f"matmul shape mismatch: {a.shape} x {b.shape}")
    n, m = a.shape[0], b.shape[1]
    if not _EINSUM_K_ORDERED or n == m == 1:
        return _k_loop(a, b)
    if m <= _NARROW_COLUMNS and n > m:
        return np.ascontiguousarray(_einsum(b.T, a.T).T)
    return _einsum(a, b)


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
    keep[np.arange(arr.shape[0])[:, None], order[:, :topk_count]] = True
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
