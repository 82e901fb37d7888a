"""Expert-specific delta weights: representations, codecs, decomposition, synthesis.

An expert weight never has to be stored whole. It is the sum of a shared base
matrix and a per-expert delta, ``W_i = W_base + Δ_i``, and the delta can be held
in one of four forms:

* ``DenseDelta``      — a full matrix (trainable in vanilla upcycling; lossless).
* ``SparseDelta``     — flat index vector + value vector, with a rescale factor
                        (1/(1−p) for compression-produced deltas, 1.0 for
                        trainable ones).
* ``LowRankDelta``    — a product A·B with A ∈ R^{d×r}, B ∈ R^{r×d_h}.
* ``QuantizedDelta``  — bit-packed k-bit codes plus one per-matrix scale.

``synthesize`` reconstructs W_i on demand; ``decompose`` recovers a delta from a
(base, trained) pair such that synthesis is exact whenever ``trained`` is
representable as a float sum ``base ⊕ d`` — which holds for every matrix this
toolkit produces, because trained experts are stored as base-plus-delta in the
first place.

Everything that differs by form lives on the form's class (``DeltaWeight``
lists it): the checkpoint tag, header scalars (its ``int`` and ``float``
fields) and record layout, from which the storage counts follow, the
trainable arrays and their gradients, and ``materialize``.
Checkpoints, training, accounting and compression use only that interface, so
a new form is one new class here, listed in ``DELTA_KINDS``. The forms and
``ExpertGroup`` are frozen: rebinding a field or a group member raises, and
only arrays are written in place, which ``ders.moe``'s expert cache relies on.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import ClassVar

import numpy as np

from . import numkern
from .errors import CorruptionError, DimensionError, ParameterError, StateError

SUPPORTED_BIT_WIDTHS = (1, 2, 4, 8, 16)


# ---------------------------------------------------------------------------
# Representations
# ---------------------------------------------------------------------------


class DeltaWeight:
    """What every delta form defines; the four forms below fill it in.

    ``kind`` tags the form in checkpoints. Its fields annotated ``int`` or
    ``float`` are the header scalars a checkpoint keeps in its JSON header,
    and ``RECORDS`` names the array fields stored as payload records, in
    record order, each with its on-disk dtype (``None``: the model's own
    float width). ``TRAINABLE`` names the arrays an optimizer updates. The
    storage counts are read off the records and the ``float`` fields.
    """

    kind: ClassVar[str]
    RECORDS: ClassVar[tuple[tuple[str, str | None], ...]]
    TRAINABLE: ClassVar[tuple[str, ...]] = ()

    def records(self) -> list[tuple[str, np.ndarray, str | None]]:
        """(field, array, on-disk dtype) for each record, in record order."""
        return [(name, getattr(self, name), disk) for name, disk in self.RECORDS]

    def weight_grads(self, d_w: np.ndarray) -> list[tuple[str, np.ndarray]]:
        """(field, gradient) for each trainable field, given dLoss/dW of the
        synthesized expert weight."""
        return []

    def _record_size(self, disk: str | None) -> int:
        return sum(int(getattr(self, name).size) for name, d in self.RECORDS if d == disk)

    def stored_values(self) -> int:
        """Stored value count: the size of the records kept at the model's
        float width."""
        return self._record_size(None)

    def value_bits(self, bit_width: int) -> int:
        """Payload bits of the stored values at ``bit_width`` bits per float."""
        return self.stored_values() * bit_width

    def index_entries(self) -> int:
        """Positions stored alongside the values: the size of the ``<u4`` records."""
        return self._record_size("<u4")

    def scale_entries(self) -> int:
        """Per-container scalars (sparse rescale, quantizer scale): the
        ``float`` fields."""
        return sum(f.type == "float" for f in fields(self))

    def materialize(self, dtype) -> np.ndarray:
        """The full delta matrix, in ``dtype``."""
        raise NotImplementedError


@dataclass(frozen=True)
class DenseDelta(DeltaWeight):
    """A full-resolution delta matrix (shape d × d_h)."""

    kind = "dense"
    RECORDS = (("mat", None),)
    TRAINABLE = ("mat",)

    mat: np.ndarray

    def __post_init__(self):
        if self.mat.ndim != 2:
            raise DimensionError("DenseDelta matrix must be 2-D")

    @property
    def shape(self) -> tuple[int, int]:
        return self.mat.shape

    def weight_grads(self, d_w):
        return [("mat", d_w)]

    def materialize(self, dtype) -> np.ndarray:
        return self.mat.astype(dtype)


@dataclass(frozen=True)
class SparseDelta(DeltaWeight):
    """Index/value storage for a mostly-zero delta.

    ``index`` holds flat row-major positions (sorted, distinct, int64 in memory,
    u32 on disk); ``value`` the matching entries, in their own float dtype.
    ``rescale`` multiplies values at materialization: 1/(1−p) for sparsified
    deltas (unbiased estimator), 1.0 for trainable deltas whose values are
    learned directly.
    """

    kind = "sparse"
    RECORDS = (("index", "<u4"), ("value", None))
    TRAINABLE = ("value",)

    rows: int
    cols: int
    index: np.ndarray
    value: np.ndarray
    rescale: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "index", np.asarray(self.index, dtype=np.int64))
        object.__setattr__(self, "value", np.asarray(self.value))
        object.__setattr__(self, "rescale", float(self.rescale))
        if self.index.ndim != 1 or self.value.ndim != 1:
            raise CorruptionError("SparseDelta index/value must be 1-D vectors")
        if len(self.index) != len(self.value):
            raise CorruptionError(
                f"SparseDelta index/value length mismatch: {len(self.index)} vs {len(self.value)}"
            )
        total = self.rows * self.cols
        if len(self.index) and (self.index[0] < 0 or self.index[-1] >= total):
            raise CorruptionError(f"SparseDelta index outside [0, {total})")
        if len(self.index) > 1 and not np.all(np.diff(self.index) > 0):
            raise CorruptionError("SparseDelta index must be strictly increasing")

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    def records(self):
        if self.index.size and int(self.index[-1]) >= 2**32:
            raise StateError("sparse index exceeds the u32 on-disk range")
        return super().records()

    def weight_grads(self, d_w):
        # Chain rule through the rescale, at the fixed positions only.
        return [("value", d_w.reshape(-1)[self.index] * self.rescale)]

    def materialize(self, dtype) -> np.ndarray:
        dtype = np.dtype(dtype)
        out = np.zeros(self.rows * self.cols, dtype=dtype)
        if len(self.index):
            out[self.index] = self.value * dtype.type(self.rescale)
        return out.reshape(self.rows, self.cols)


@dataclass(frozen=True)
class LowRankDelta(DeltaWeight):
    """A delta factored as A·B with inner dimension ``rank``."""

    kind = "lowrank"
    RECORDS = (("a", None), ("b", None))
    TRAINABLE = ("a", "b")

    a: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        if self.a.ndim != 2 or self.b.ndim != 2:
            raise DimensionError("LowRankDelta factors must be 2-D")
        if self.a.shape[1] != self.b.shape[0]:
            raise DimensionError(
                f"LowRankDelta inner dims differ: A is {self.a.shape}, B is {self.b.shape}"
            )
        if self.rank < 1:
            raise ParameterError("LowRankDelta rank must be >= 1")

    @property
    def rank(self) -> int:
        return self.a.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return (self.a.shape[0], self.b.shape[1])

    def weight_grads(self, d_w):
        return [("a", numkern.matmul(d_w, self.b.T)), ("b", numkern.matmul(self.a.T, d_w))]

    def materialize(self, dtype) -> np.ndarray:
        return numkern.matmul(self.a, self.b).astype(dtype, copy=False)


@dataclass(frozen=True)
class QuantizedDelta(DeltaWeight):
    """Bit-packed k-bit codes plus one per-matrix scale (not trainable).

    Codes are packed little-endian, ``bit_width`` bits each in row-major order
    (the first code occupies the least-significant bits of the first byte).
    For bit_width >= 2 codes are two's-complement integers in
    ±(2^(k−1)−1); for bit_width == 1 the code is a sign bit (1 → +1, 0 → −1).
    """

    kind = "quantized"
    RECORDS = (("packed", "u1"),)

    rows: int
    cols: int
    bit_width: int
    packed: np.ndarray
    scale: float

    def __post_init__(self):
        if self.bit_width not in SUPPORTED_BIT_WIDTHS:
            raise ParameterError(
                f"bit_width must be one of {SUPPORTED_BIT_WIDTHS}, got {self.bit_width}"
            )
        object.__setattr__(self, "packed", np.ascontiguousarray(self.packed, dtype=np.uint8))
        object.__setattr__(self, "scale", float(self.scale))
        expected = packed_byte_count(self.rows * self.cols, self.bit_width)
        if self.packed.size != expected:
            raise CorruptionError(
                f"QuantizedDelta payload holds {self.packed.size} bytes, expected {expected}"
            )
        if self.scale < 0:
            raise CorruptionError("QuantizedDelta scale must be >= 0")

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    def stored_values(self) -> int:
        """One code per element: the codes replace the floats one for one."""
        return int(self.rows * self.cols)

    def value_bits(self, bit_width: int) -> int:
        """Codes are ``self.bit_width`` bits each, whatever the float width."""
        return self.stored_values() * self.bit_width

    def materialize(self, dtype) -> np.ndarray:
        """``code × scale`` per element. For k ≤ 4 the products are taken on
        the 256-entry byte table once, and one ``take`` decodes the payload
        straight to values: the same products, without an int64 code array."""
        dtype = np.dtype(dtype)
        scale, n = dtype.type(self.scale), self.rows * self.cols
        if self.bit_width in _BYTE_TABLES:
            table = _BYTE_TABLES[self.bit_width].astype(dtype) * scale
            values = _records(table).take(self.packed).view(dtype)[:n]
        else:
            values = unpack_codes(self.packed, self.bit_width, n).astype(dtype) * scale
        return values.reshape(self.rows, self.cols)


DELTA_KINDS = {cls.kind: cls for cls in (DenseDelta, SparseDelta, LowRankDelta, QuantizedDelta)}


@dataclass(frozen=True)
class ExpertGroup:
    """One shared base weight plus the per-expert deltas (a tuple) that refine it."""

    base: np.ndarray
    deltas: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "deltas", tuple(self.deltas))
        if self.base.ndim != 2:
            raise DimensionError("ExpertGroup base must be 2-D")
        for i, d in enumerate(self.deltas):
            if d.shape != self.base.shape:
                raise DimensionError(
                    f"delta {i} shape {d.shape} does not match base {self.base.shape}"
                )

    def __len__(self) -> int:
        return len(self.deltas)


# ---------------------------------------------------------------------------
# Bit packing
# ---------------------------------------------------------------------------


def packed_byte_count(n_codes: int, bit_width: int) -> int:
    """Bytes needed to hold ``n_codes`` codes of ``bit_width`` bits each."""
    return (n_codes * bit_width + 7) // 8


def pack_codes(codes: np.ndarray, bit_width: int) -> np.ndarray:
    """Pack signed integer codes into a little-endian uint8 array.

    Code j occupies bits [j·k, (j+1)·k) of the bit stream; within a byte the
    first code sits in the least-significant bits.
    """
    if bit_width not in SUPPORTED_BIT_WIDTHS:
        raise ParameterError(f"unsupported bit width {bit_width}")
    codes = np.asarray(codes, dtype=np.int64).ravel()
    if bit_width == 1:
        # Sign-bit convention: +1 -> 1, -1 -> 0 (two's complement would fold
        # both onto the same bit).
        u = (codes > 0).astype(np.uint32)
    else:
        u = (codes & ((1 << bit_width) - 1)).astype(np.uint32)
    if bit_width == 16:
        return u.astype("<u2").view(np.uint8).copy()
    if bit_width == 8:
        return u.astype(np.uint8)
    per_byte = 8 // bit_width
    padded = np.zeros(packed_byte_count(len(u), bit_width) * per_byte, dtype=np.uint32)
    padded[: len(u)] = u
    groups = padded.reshape(-1, per_byte)
    byte = np.zeros(len(groups), dtype=np.uint32)
    for slot in range(per_byte):
        byte |= groups[:, slot] << (slot * bit_width)
    return byte.astype(np.uint8)


def _byte_table(bit_width: int) -> np.ndarray:
    """For each of the 256 byte values, that byte's 8/k codes in stream
    order, as a (256, 8/k) int64 matrix.

    A field is sign-extended two's complement for k >= 2; for k == 1 the sign
    bit maps to ±1.
    """
    per_byte = 8 // bit_width
    shifts = np.arange(per_byte) * bit_width
    u = (np.arange(256, dtype=np.int64)[:, None] >> shifts) & ((1 << bit_width) - 1)
    if bit_width == 1:
        codes = np.where(u == 1, 1, -1)
    else:
        codes = np.where(u >= 1 << (bit_width - 1), u - (1 << bit_width), u)
    return codes.astype(np.int64)


def _records(table: np.ndarray) -> np.ndarray:
    """Each row of a C-ordered ``table`` as one void record, so that one
    ``take`` by byte value decodes a whole payload in stream order."""
    return table.view(np.dtype((np.void, table.itemsize * table.shape[1]))).ravel()


_BYTE_TABLES = {k: _byte_table(k) for k in (1, 2, 4)}


def unpack_codes(packed: np.ndarray, bit_width: int, n_codes: int) -> np.ndarray:
    """Inverse of :func:`pack_codes`; returns signed int64 codes.

    bit_width >= 2 codes are sign-extended two's complement; bit_width == 1
    maps the sign bit to ±1. 8- and 16-bit payloads are read as signed
    little-endian integers; narrower ones decode a byte at a time through a
    256-entry table. Slots past ``n_codes`` (the last byte's padding) are
    dropped.
    """
    if bit_width not in SUPPORTED_BIT_WIDTHS:
        raise ParameterError(f"unsupported bit width {bit_width}")
    packed = np.ascontiguousarray(packed, dtype=np.uint8)
    if packed.size != packed_byte_count(n_codes, bit_width):
        raise CorruptionError(
            f"packed payload holds {packed.size} bytes, expected "
            f"{packed_byte_count(n_codes, bit_width)} for {n_codes} codes"
        )
    if bit_width == 16:
        codes = packed.view("<i2")
    elif bit_width == 8:
        codes = packed.view(np.int8)
    else:
        codes = _records(_BYTE_TABLES[bit_width]).take(packed).view(np.int64)
    return codes[:n_codes].astype(np.int64, copy=False)


# ---------------------------------------------------------------------------
# Core operations
# ---------------------------------------------------------------------------


def decompose(base: np.ndarray, trained: np.ndarray) -> DenseDelta:
    """Recover the delta between a trained weight and its base.

    Starts from the elementwise difference and applies a short correction loop
    (``d += trained − (base + d)``) so that ``base + d`` reproduces ``trained``
    exactly whenever ``trained`` lies in the image of float addition with
    ``base`` — always true for weights produced by this toolkit, which stores
    experts as base-plus-delta.

    Exact means byte-equal, except at −0.0, where it is only value-equal: for
    ``base = trained = −0.0`` the delta is ``−0.0 − (−0.0) = +0.0``, and
    synthesis gives ``−0.0 + 0.0 = +0.0``.
    """
    if base.shape != trained.shape:
        raise DimensionError(f"decompose shape mismatch: {base.shape} vs {trained.shape}")
    d = trained - base
    mismatches = np.count_nonzero((base + d) != trained)
    for _ in range(4):
        if mismatches == 0:
            break
        candidate = d + (trained - (base + d))
        new_mismatches = np.count_nonzero((base + candidate) != trained)
        if new_mismatches >= mismatches:
            break
        d, mismatches = candidate, new_mismatches
    return DenseDelta(d)


def synthesize(base: np.ndarray, delta: DeltaWeight) -> np.ndarray:
    """Reconstruct an expert weight: base + the delta materialized in base's dtype."""
    if delta.shape != base.shape:
        raise DimensionError(f"synthesize shape mismatch: base {base.shape}, delta {delta.shape}")
    return base + delta.materialize(base.dtype)


def sparsify(delta: DenseDelta, drop_rate: float, rng: numkern.RngStream) -> SparseDelta:
    """Randomly drop entries with probability ``drop_rate``; rescale survivors.

    Each entry is dropped independently (Bernoulli(p) mask); kept entries are
    stored raw with ``rescale = 1/(1−p)`` applied at materialization, making the
    materialized delta an unbiased estimator of the input.
    """
    if not 0.0 <= drop_rate < 1.0:
        raise ParameterError(f"drop_rate={drop_rate} must lie in [0, 1) (p=1 drops everything)")
    rows, cols = delta.shape
    mask = numkern.bernoulli_mask(drop_rate, rows, cols, rng)
    kept = np.flatnonzero(mask.ravel() == 0).astype(np.int64)
    values = delta.mat.ravel()[kept].copy()
    return SparseDelta(rows, cols, kept, values, rescale=1.0 / (1.0 - drop_rate))


def quantize(delta: DenseDelta, bit_width: int) -> QuantizedDelta:
    """Quantize a delta to ``bit_width`` bits per element with one scale.

    bit_width >= 2: symmetric uniform quantization, scale = absmax/(2^(k−1)−1),
    codes = round(x/scale) clamped to ±(2^(k−1)−1). bit_width == 1: sign
    quantization, scale = mean|x|, decode = sign × scale. An all-zero input
    yields scale 0 and all-zero decode.
    """
    if bit_width not in SUPPORTED_BIT_WIDTHS:
        raise ParameterError(f"bit_width must be one of {SUPPORTED_BIT_WIDTHS}, got {bit_width}")
    rows, cols = delta.shape
    x = delta.mat.ravel()
    if bit_width == 1:
        scale = float(np.mean(np.abs(x))) if x.size else 0.0
        codes = np.where(x >= 0, 1, -1).astype(np.int64)
        if scale == 0.0:
            codes = np.ones_like(codes)
        return QuantizedDelta(rows, cols, 1, pack_codes(codes, 1), scale)
    absmax = float(np.max(np.abs(x))) if x.size else 0.0
    qmax = (1 << (bit_width - 1)) - 1
    if absmax == 0.0:
        codes = np.zeros(x.size, dtype=np.int64)
        return QuantizedDelta(rows, cols, bit_width, pack_codes(codes, bit_width), 0.0)
    scale = absmax / qmax
    codes = np.clip(np.round(x / scale), -qmax, qmax).astype(np.int64)
    return QuantizedDelta(rows, cols, bit_width, pack_codes(codes, bit_width), scale)


def sparse_keep_count(rows: int, cols: int, sparse_rate: float) -> int:
    """Number of positions a trainable sparse delta keeps: round-half-up of
    rows·cols·(1−sparse_rate)."""
    if not 0.0 <= sparse_rate < 1.0:
        raise ParameterError(f"sparse_rate={sparse_rate} must lie in [0, 1)")
    return int(np.floor(rows * cols * (1.0 - sparse_rate) + 0.5))


def init_sparse_trainable(
    rows: int, cols: int, sparse_rate: float, rng: numkern.RngStream, dtype
) -> SparseDelta:
    """Trainable sparse delta: fixed random index set, zero-initialized values.

    Keeps round(rows·cols·(1−sparse_rate)) positions (round-half-up), sampled
    uniformly without replacement; values start at zero (in ``dtype``, the
    refined weight's) so synthesis returns the base unchanged. rescale is
    1.0 — the values are learned directly.
    """
    total = rows * cols
    keep = sparse_keep_count(rows, cols, sparse_rate)
    if keep == 0:
        raise ParameterError(
            f"sparse_rate={sparse_rate} keeps zero of {total} entries (degenerate expert)"
        )
    index = numkern.sample_unique_indices(total, keep, rng)
    value = np.zeros(keep, dtype=dtype)
    return SparseDelta(rows, cols, index, value, rescale=1.0)


def init_lowrank_trainable(
    rows: int,
    cols: int,
    rank: int,
    rng: numkern.RngStream,
    dtype,
) -> LowRankDelta:
    """Trainable low-rank delta: A uniform on ±1/sqrt(rows), B zero (so A·B
    starts at 0), both in ``dtype``, the refined weight's. The bound keeps
    early-training gradient magnitudes comparable across ranks.
    """
    if not 1 <= rank <= min(rows, cols):
        raise ParameterError(f"rank={rank} out of range [1, {min(rows, cols)}]")
    scale = 1.0 / float(np.sqrt(rows))
    a = rng.generator.uniform(-scale, scale, size=(rows, rank)).astype(dtype)
    b = np.zeros((rank, cols), dtype=dtype)
    return LowRankDelta(a, b)
