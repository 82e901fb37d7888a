"""Deterministic dense numeric kernels and seeded randomness.

Matrices are 2-D ``numpy.ndarray`` values (row-major). There is no module-wide
dtype: a kernel's result takes the dtype of its operands, and the toolkit
builds everything in float64 unless it is handed float32 arrays. Every kernel
here is pure and has a fixed, platform-independent summation order, so results
are bit-reproducible:

* ``matmul`` accumulates over the inner dimension in increasing index order,
  starting from +0.0, which is exactly the naive triple-loop order per output
  element. One einsum form, ``einsum("ik,kj->ij")`` over its first operand
  as given, adds the products in that order, checked by an import-time probe
  in both orientations ``matmul`` uses it in: ``a·b`` for most outputs, and
  ``(bᵀ·aᵀ)ᵀ`` for an output of at least 32 rows and at most 32 columns,
  fewer columns than rows, or of one column, which sums the same products
  (x·y == y·x exactly) in the same order. 1×1
  outputs, and all outputs where the probe fails (an einsum that fuses the
  multiply-add, as FMA builds may), take a Python loop of rank-1 updates.
  BLAS is deliberately not used (its blocked summation is not bit-stable
  across shapes).
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
from numpy._core.multiarray import c_einsum

from .errors import DimensionError, NumericError, ParameterError

_MASK64 = (1 << 64) - 1


def dtype_bits(dtype) -> int:
    """Bit width of ``dtype``."""
    return np.dtype(dtype).itemsize * 8


def check_finite(arr: np.ndarray, context: str) -> np.ndarray:
    if not np.isfinite(arr).all():
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
    """``einsum("ik,kj->ij")`` of ``a`` in any layout and a C-ordered ``b`` of
    one dtype: no copy of ``a``, and k-ordered at ≥ 2 columns, where b's
    contiguous rows make the columns the inner loop. Other operands are
    converted first; the kernel is ``c_einsum``, which ``np.einsum`` calls."""
    if a.dtype != b.dtype or not b.flags.c_contiguous:
        dtype = np.result_type(a, b)
        a, b = a.astype(dtype, copy=False), np.ascontiguousarray(b, dtype=dtype)
    return c_einsum("ik,kj->ij", a, b)


def _einsum_is_k_ordered(form=_einsum) -> bool:
    """Whether ``form`` gives the k-loop's bytes in both orientations
    :func:`matmul` uses, in float64 and float32: ``form(a, b)`` on a
    C-ordered, F-ordered and strided ``a`` where the output has two or more
    columns, and ``form(bᵀ, aᵀ)ᵀ`` where it has two or more rows. The
    witnesses are a multiply-add (0 unfused, 2⁻⁶⁰ fused), −0.0 products and
    wide exponents."""
    e, g = 1.0 + 2.0**-30, np.random.default_rng(20251)
    cases = [([[1.0, e]] * rows, [[-(1.0 + 2.0**-29), 0.0], [e, 1.0]]) for rows in (1, 2)]
    cases += [([[-0.0, 1.0]] * rows, [[1.0, 2.0], [-0.0, -0.0]]) for rows in (1, 2)]
    for shapes in [
        ((1, 300), (300, 3)),
        ((2, 70), (70, 3)),
        ((5, 300), (300, 2)),
        ((40, 33), (33, 4)),
        ((3, 70), (70, 1)),
    ]:
        cases.append([g.standard_normal(s) * 2.0 ** g.integers(-30, 30, s) for s in shapes])
    cast = [[np.asarray(x, dtype=t) for x in case] for t in (np.float64, np.float32) for case in cases]
    for a, b in cast:
        expected = _k_loop(a, b).tobytes()
        layouts = (a, np.asfortranarray(a), np.repeat(a, 2, axis=1)[:, ::2])
        if b.shape[1] >= 2 and any(form(x, b).tobytes() != expected for x in layouts):
            return False
        if a.shape[0] >= 2 and form(b.T, a.T).T.tobytes() != expected:
            return False
    return True


_EINSUM_K_ORDERED = _einsum_is_k_ordered()  # False where einsum fuses (FMA builds) or reorders

# An output of at least this many rows, and at most this many columns and
# fewer columns than rows, is computed transposed: einsum's inner loop then
# runs along its many rows instead of its few columns. tools/kernel_bench.py
# times both orientations on the benchmark's shapes: at --repeat 30 this
# rule's matmul time per workload phase is within 1.7% of taking the faster
# orientation of every shape. The transposed form wins from 32 rows at 4 or
# 8 columns (a 32-row batch's router and readout products), ``a·b`` at 8 to
# 16 rows and at as many columns as rows.
_NARROW_COLUMNS = 32


def matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix product with a deterministic summation order, C-contiguous.

    Every output element is ``((0.0 + a[i,0]·b[0,j]) + a[i,1]·b[1,j]) + …``,
    in increasing k, exactly the naive triple loop. One einsum form,
    ``einsum("ik,kj->ij")`` over its first operand as given (C, F or
    strided; only the second is made C-contiguous), gives those bytes at two
    or more output columns, where its inner loop runs along the second
    operand's rows. The output's n rows and m columns pick how it is used:

    * ``a·b`` for every output with m ≥ 2 that is not tall-narrow;
    * ``(bᵀ·aᵀ)ᵀ`` for tall-narrow outputs (m ≤ 32 ≤ n and m < n) and
      one-column outputs of n ≥ 2 rows: the same k-ordered sums with the
      operands swapped (x·y == y·x exactly), faster when the columns are
      few;
    * the k-loop for a 1×1 output, whose sum einsum would unroll, and for
      every output if the import-time probe rejected einsum.

    Rows are independent and every form gives the triple loop's bytes, so the
    product of a batch equals the stacked products of its rows bit-for-bit,
    whichever form each of them took.
    """
    if a.ndim != 2 or b.ndim != 2:
        raise DimensionError(f"matmul needs 2-D operands, got ndim {a.ndim} and {b.ndim}")
    if a.shape[1] != b.shape[0]:
        raise DimensionError(f"matmul shape mismatch: {a.shape} x {b.shape}")
    n, m = a.shape[0], b.shape[1]
    if not _EINSUM_K_ORDERED or n == m == 1:
        return _k_loop(a, b)
    if m == 1 or m < n and m <= _NARROW_COLUMNS <= n:
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
    shifted = arr - arr.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    out = e / e.sum(axis=1, keepdims=True)
    return out[0] if squeeze else out


def topk_mask(v: np.ndarray, topk_count: int) -> np.ndarray:
    """Zero all but the ``topk_count`` largest entries per row of floats.

    Survivors keep their original values (no renormalization: the routing
    convention applies softmax first and masks after). The survivors are the
    first ``topk_count`` of a stable descending sort: ties go to the lowest
    index and −0.0 ties +0.0. They are found by ``topk_count`` argmax
    passes, each marking its pick with −inf, below every other entry. Input
    holding NaN or −inf, which softmax never emits, is refused.
    """
    arr = np.asarray(v)
    squeeze = arr.ndim == 1
    if squeeze:
        arr = arr.reshape(1, -1)
    if arr.ndim != 2:
        raise DimensionError(f"topk_mask needs a row vector or batch, got ndim={arr.ndim}")
    if arr.dtype.kind != "f":
        raise ParameterError(f"topk_mask needs floats, got dtype {arr.dtype}")
    n = arr.shape[1]
    if not 1 <= topk_count <= n:
        raise ParameterError(f"topk_count={topk_count} out of range [1, {n}]")
    if not arr.min(initial=np.inf) > -np.inf:
        raise NumericError("topk_mask input holds NaN or −inf")
    work = arr.copy()
    out = np.zeros(arr.shape, dtype=arr.dtype)
    flat_work, flat_out, flat_arr = work.reshape(-1), out.reshape(-1), arr.reshape(-1)
    row_starts = np.arange(0, arr.size, n)
    for _ in range(topk_count):
        picks = work.argmax(axis=1)
        picks += row_starts
        flat_out[picks] = flat_arr[picks]
        flat_work[picks] = -np.inf
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
