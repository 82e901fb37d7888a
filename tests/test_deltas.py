"""Delta representations, codecs, decomposition/synthesis round trips."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import rng_mat
from ders import deltas, numkern
from ders.deltas import (
    DenseDelta,
    ExpertGroup,
    LowRankDelta,
    QuantizedDelta,
    SparseDelta,
    decompose,
    init_lowrank_trainable,
    init_sparse_trainable,
    pack_codes,
    quantize,
    sparsify,
    synthesize,
    unpack_codes,
)
from ders.errors import CorruptionError, DimensionError, ParameterError
from ders.numkern import RngStream


class TestDecompose:
    def test_equal_inputs_zero_delta(self):
        base = rng_mat((3, 4), seed=0)
        assert np.array_equal(decompose(base, base.copy()).mat, np.zeros((3, 4)))

    def test_hand_arithmetic(self):
        out = decompose(np.array([[1.0, 2.0]]), np.array([[1.5, 1.5]]))
        assert np.array_equal(out.mat, [[0.5, -0.5]])

    def test_round_trip_exact_for_summed_weights(self):
        # Trained weights in this toolkit are always a float sum base + delta;
        # in that regime decompose/synthesize round-trips bit-exactly, even
        # when the delta dwarfs the base.
        base = rng_mat((40, 50), seed=1)
        for scale, seed in [(1e-3, 2), (1.0, 3), (50.0, 4)]:
            trained = base + rng_mat((40, 50), seed=seed, scale=scale)
            back = synthesize(base, decompose(base, trained))
            assert np.array_equal(back, trained)

    def test_correction_loop_reduces_mismatches(self):
        # Arbitrary float pairs are generally NOT expressible as base + d for
        # any representable d; decompose must still come within one ulp.
        g = np.random.default_rng(5)
        base = g.standard_normal((60, 60))
        trained = g.standard_normal((60, 60))
        back = synthesize(base, decompose(base, trained))
        err = np.abs(back - trained)
        assert err.max() <= np.spacing(np.abs(trained)).max()

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            decompose(np.zeros((2, 2)), np.zeros((2, 3)))

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(
        dtype=st.sampled_from([np.float64, np.float32]),
        shape=st.tuples(st.integers(1, 4), st.integers(1, 4)),
        data=st.data(),
    )
    def test_round_trip_over_generated_sums(self, dtype, shape, data):
        """synthesize(base, decompose(base, base + d)) is base + d, over
        exponents from subnormal to near the overflow bound: byte-equal
        wherever the sum is not −0.0, and value-equal there."""
        width = np.dtype(dtype).itemsize * 8
        limit = 2.0**1022 if width == 64 else 2.0**126  # base + d stays finite
        elements = st.floats(-limit, limit, width=width)
        base = data.draw(arrays(dtype, shape, elements=elements))
        total = base + data.draw(arrays(dtype, shape, elements=elements))
        back = synthesize(base, decompose(base, total))
        assert np.array_equal(back, total)
        signed = ~((total == 0) & np.signbit(total))
        assert same_bytes(back[signed], total[signed])

    def test_negative_zero_sum_comes_back_positive(self):
        """The one value-equal case: −0.0 − (−0.0) is +0.0, and −0.0 + 0.0 too."""
        base = np.array([[-0.0]])
        total = base + np.array([[-0.0]])
        back = synthesize(base, decompose(base, total))
        assert np.signbit(total[0, 0]) and not np.signbit(back[0, 0])
        assert np.array_equal(back, total)


class TestMaterializeAndSynthesize:
    def test_sparse_hand_placement(self):
        d = SparseDelta(2, 2, index=[0, 3], value=[2.0, 5.0], rescale=1.0)
        assert np.array_equal(d.materialize(np.float64), [[2.0, 0.0], [0.0, 5.0]])

    def test_sparse_rescale_applied(self):
        d = SparseDelta(1, 2, index=[1], value=[3.0], rescale=2.0)
        assert np.array_equal(d.materialize(np.float64), [[0.0, 6.0]])

    def test_lowrank_rank_one_outer_product(self):
        d = LowRankDelta(np.array([[1.0], [2.0]]), np.array([[3.0, 4.0]]))
        assert np.array_equal(d.materialize(np.float64), [[3.0, 4.0], [6.0, 8.0]])

    def test_dense_copy_is_independent(self):
        mat = rng_mat((2, 3), seed=6)
        d = DenseDelta(mat)
        out = d.materialize(np.float64)
        out[0, 0] = 99.0
        assert d.mat[0, 0] != 99.0

    def test_empty_sparse_leaves_base(self):
        base = rng_mat((3, 3), seed=7)
        d = SparseDelta(3, 3, index=[], value=[])
        assert np.array_equal(synthesize(base, d), base)

    def test_lowrank_zero_b_leaves_base(self):
        base = rng_mat((4, 6), seed=8)
        d = LowRankDelta(rng_mat((4, 2), seed=9), np.zeros((2, 6)))
        assert np.array_equal(synthesize(base, d), base)

    def test_dense_elementwise_sum_oracle(self):
        base = rng_mat((5, 5), seed=10)
        mat = rng_mat((5, 5), seed=11)
        assert np.array_equal(synthesize(base, DenseDelta(mat)), base + mat)

    def test_synthesize_shape_mismatch(self):
        with pytest.raises(DimensionError):
            synthesize(np.zeros((2, 2)), DenseDelta(np.zeros((3, 3))))


class TestSparsify:
    def test_p_zero_keeps_everything_exactly(self):
        delta = DenseDelta(rng_mat((6, 7), seed=12))
        sp = sparsify(delta, 0.0, RngStream(1, 1))
        assert sp.rescale == 1.0
        assert len(sp.index) == 42
        assert np.array_equal(sp.materialize(np.float64), delta.mat)

    def test_all_zero_delta(self):
        sp = sparsify(DenseDelta(np.zeros((4, 4))), 0.7, RngStream(1, 2))
        assert np.array_equal(sp.materialize(np.float64), np.zeros((4, 4)))

    def test_dense_mask_oracle_exact(self):
        delta = DenseDelta(rng_mat((9, 11), seed=13))
        stream = RngStream(21, 37)
        sp = sparsify(delta, 0.35, stream)
        mask = numkern.bernoulli_mask(0.35, 9, 11, RngStream(21, 37))
        # Same rescale definition as the container records: one float 1/(1-p).
        oracle = (1.0 - mask) * delta.mat * (1.0 / (1.0 - 0.35))
        assert np.array_equal(sp.materialize(np.float64), oracle)

    def test_p_one_rejected(self):
        with pytest.raises(ParameterError):
            sparsify(DenseDelta(np.zeros((2, 2))), 1.0, RngStream(0, 0))

    def test_monte_carlo_unbiasedness_small(self):
        delta = DenseDelta(rng_mat((10, 10), seed=14))
        acc = np.zeros((10, 10))
        n = 3000
        for s in range(n):
            acc += sparsify(delta, 0.5, RngStream(100, s)).materialize(np.float64)
        rel = np.linalg.norm(acc / n - delta.mat) / np.linalg.norm(delta.mat)
        assert rel < 0.05


class TestQuantize:
    def test_all_zero_any_width(self):
        for k in deltas.SUPPORTED_BIT_WIDTHS:
            q = quantize(DenseDelta(np.zeros((3, 5))), k)
            assert q.scale == 0.0
            assert np.array_equal(q.materialize(np.float64), np.zeros((3, 5)))

    def test_one_bit_hand_case(self):
        q = quantize(DenseDelta(np.array([[0.1, -0.2, 0.3]])), 1)
        assert q.scale == pytest.approx(0.2, abs=1e-15)
        assert np.allclose(q.materialize(np.float64), [[0.2, -0.2, 0.2]], atol=1e-15)

    def test_sixteen_bit_relative_error(self):
        mat = rng_mat((20, 20), seed=15)
        q = quantize(DenseDelta(mat), 16)
        rel = np.linalg.norm(q.materialize(np.float64) - mat) / np.linalg.norm(mat)
        assert rel < 1e-3

    def test_step_size_bound(self):
        mat = rng_mat((12, 12), seed=16)
        for k in (2, 4, 8, 16):
            q = quantize(DenseDelta(mat), k)
            err = np.abs(q.materialize(np.float64) - mat).max()
            assert err <= q.scale / 2 + 1e-15

    def test_monotone_over_supported_widths(self):
        mat = rng_mat((15, 15), seed=17)
        errors = [
            np.linalg.norm(quantize(DenseDelta(mat), k).materialize(np.float64) - mat)
            for k in (2, 4, 8, 16)
        ]
        assert all(errors[i] >= errors[i + 1] for i in range(len(errors) - 1))

    def test_unsupported_width(self):
        with pytest.raises(ParameterError):
            quantize(DenseDelta(np.zeros((2, 2))), 3)

    def test_codes_stay_in_symmetric_range(self):
        mat = rng_mat((8, 8), seed=18) * 10
        for k in (2, 4, 8):
            q = quantize(DenseDelta(mat), k)
            codes = unpack_codes(q.packed, k, 64)
            qmax = (1 << (k - 1)) - 1
            assert codes.min() >= -qmax and codes.max() <= qmax


class TestPacking:
    @pytest.mark.parametrize("k", [2, 4, 8, 16])
    def test_round_trip_every_width(self, k):
        qmax = (1 << (k - 1)) - 1
        g = np.random.default_rng(k)
        codes = g.integers(-qmax, qmax + 1, size=37).astype(np.int64)
        packed = pack_codes(codes, k)
        assert packed.dtype == np.uint8
        assert np.array_equal(unpack_codes(packed, k, 37), codes)

    def test_round_trip_one_bit(self):
        codes = np.array([1, -1, -1, 1, 1, 1, -1, 1, -1, 1], dtype=np.int64)
        packed = pack_codes(codes, 1)
        assert packed.size == 2  # 10 sign bits -> 2 bytes
        assert np.array_equal(unpack_codes(packed, 1, 10), codes)

    def test_little_endian_layout(self):
        # First code sits in the least-significant bits of the first byte.
        packed = pack_codes(np.array([1, 0, 0, 0], dtype=np.int64), 2)
        assert packed[0] == 0b00000001
        packed16 = pack_codes(np.array([0x0201], dtype=np.int64), 16)
        assert list(packed16) == [0x01, 0x02]

    def test_byte_count_formula(self):
        assert deltas.packed_byte_count(10, 1) == 2
        assert deltas.packed_byte_count(10, 2) == 3
        assert deltas.packed_byte_count(10, 4) == 5
        assert deltas.packed_byte_count(10, 8) == 10
        assert deltas.packed_byte_count(10, 16) == 20

    def test_truncated_payload_rejected(self):
        with pytest.raises(CorruptionError):
            unpack_codes(np.zeros(1, dtype=np.uint8), 8, 5)


def shift_decode(packed, bit_width, n_codes):
    """The per-slot shift-and-sign-extend decode that ``unpack_codes``
    replaced, kept as its oracle."""
    packed = np.asarray(packed, dtype=np.uint8)
    if bit_width == 16:
        u = packed.view("<u2").astype(np.int64)[:n_codes]
    elif bit_width == 8:
        u = packed.astype(np.int64)[:n_codes]
    else:
        per_byte = 8 // bit_width
        mask = (1 << bit_width) - 1
        slots = [(packed.astype(np.uint32) >> (s * bit_width)) & mask for s in range(per_byte)]
        u = np.stack(slots, axis=1).ravel().astype(np.int64)[:n_codes]
    if bit_width == 1:
        return np.where(u == 1, 1, -1).astype(np.int64)
    half = 1 << (bit_width - 1)
    return np.where(u >= half, u - (1 << bit_width), u).astype(np.int64)


def same_bytes(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


class TestByteTableDecode:
    @pytest.mark.parametrize("k", deltas.SUPPORTED_BIT_WIDTHS)
    def test_every_byte_value(self, k):
        packed = np.arange(256, dtype=np.uint8)
        if k == 16:  # a 16-bit code spans two bytes: every pair of byte values
            packed = np.arange(1 << 16, dtype="<u2").view(np.uint8)
        n_codes = packed.size * 8 // k
        assert same_bytes(unpack_codes(packed, k, n_codes), shift_decode(packed, k, n_codes))

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(
        k=st.sampled_from(deltas.SUPPORTED_BIT_WIDTHS),
        n_codes=st.integers(0, 80),
        data=st.data(),
        dtype=st.sampled_from([np.float64, np.float32]),
    )
    def test_materialize_matches_oracle(self, k, n_codes, data, dtype):
        n_bytes = deltas.packed_byte_count(n_codes, k)
        packed = np.frombuffer(data.draw(st.binary(min_size=n_bytes, max_size=n_bytes)), np.uint8)
        codes = shift_decode(packed, k, n_codes)
        assert same_bytes(unpack_codes(packed, k, n_codes), codes)
        dtype = np.dtype(dtype)
        for scale in (0.0, 5e-324, 1.0, 1e300):
            with np.errstate(all="ignore"):  # 1e300 is inf in float32; 0 * inf is nan
                got = QuantizedDelta(1, n_codes, k, packed, scale).materialize(dtype)
                want = (codes.astype(dtype) * dtype.type(scale)).reshape(1, n_codes)
            assert same_bytes(got, want)

    @pytest.mark.parametrize("k", deltas.SUPPORTED_BIT_WIDTHS)
    def test_read_only_payload(self, k):
        payload = bytes(range(deltas.packed_byte_count(48, k)))
        packed = np.frombuffer(payload, dtype=np.uint8)
        assert not packed.flags.writeable
        codes = shift_decode(packed, k, 48)
        assert same_bytes(unpack_codes(packed, k, 48), codes)
        q = QuantizedDelta(6, 8, k, packed, 0.5)
        assert same_bytes(q.materialize(np.float64), codes.reshape(6, 8) * 0.5)

    @pytest.mark.parametrize("k", deltas.SUPPORTED_BIT_WIDTHS)
    def test_strided_payload(self, k):
        n_bytes = deltas.packed_byte_count(48, k)
        strided = np.random.default_rng(k).integers(0, 256, 2 * n_bytes, dtype=np.uint8)[::2]
        assert not strided.flags.c_contiguous
        q = QuantizedDelta(6, 8, k, strided, 0.25)
        assert q.packed.flags.c_contiguous and q.packed.dtype == np.uint8
        contiguous = QuantizedDelta(6, 8, k, strided.copy(), 0.25)
        for dtype in (np.float64, np.float32):
            assert same_bytes(q.materialize(dtype), contiguous.materialize(dtype))


class TestInitSparseTrainable:
    def test_p_zero_covers_everything(self):
        sp = init_sparse_trainable(3, 4, 0.0, RngStream(0, 0), np.float64)
        assert np.array_equal(sp.index, np.arange(12))
        assert np.array_equal(sp.value, np.zeros(12))
        assert sp.rescale == 1.0

    def test_zero_init_synthesis(self):
        base = rng_mat((4, 4), seed=19)
        sp = init_sparse_trainable(4, 4, 0.5, RngStream(1, 1), np.float64)
        assert np.array_equal(synthesize(base, sp), base)

    def test_counting_oracle(self):
        sp = init_sparse_trainable(4, 4, 0.75, RngStream(2, 2), np.float64)
        assert len(sp.index) == 4
        assert len(set(sp.index.tolist())) == 4

    def test_degenerate_rate_rejected(self):
        with pytest.raises(ParameterError):
            init_sparse_trainable(4, 4, 0.999, RngStream(0, 0), np.float64)

    def test_reproducible(self):
        a = init_sparse_trainable(8, 8, 0.8, RngStream(5, 6), np.float64)
        b = init_sparse_trainable(8, 8, 0.8, RngStream(5, 6), np.float64)
        assert np.array_equal(a.index, b.index)


class TestInitLowRankTrainable:
    def test_zero_init_synthesis(self):
        base = rng_mat((5, 8), seed=20)
        lr = init_lowrank_trainable(5, 8, 3, RngStream(3, 3), np.float64)
        assert np.array_equal(synthesize(base, lr), base)

    def test_rank_boundaries(self):
        init_lowrank_trainable(4, 6, 4, RngStream(0, 0), np.float64)
        with pytest.raises(ParameterError):
            init_lowrank_trainable(4, 6, 5, RngStream(0, 0), np.float64)
        with pytest.raises(ParameterError):
            init_lowrank_trainable(4, 6, 0, RngStream(0, 0), np.float64)

    def test_default_scale_bound(self):
        lr = init_lowrank_trainable(16, 8, 2, RngStream(4, 4), np.float64)
        assert np.abs(lr.a).max() <= 1.0 / 4.0

    def test_bit_identical_across_streams(self):
        a = init_lowrank_trainable(6, 6, 2, RngStream(9, 1), np.float64)
        b = init_lowrank_trainable(6, 6, 2, RngStream(9, 1), np.float64)
        assert np.array_equal(a.a, b.a)


class TestValidation:
    def test_sparse_index_out_of_range(self):
        with pytest.raises(CorruptionError):
            SparseDelta(2, 2, index=[4], value=[1.0])

    def test_sparse_index_not_increasing(self):
        with pytest.raises(CorruptionError):
            SparseDelta(2, 2, index=[1, 1], value=[1.0, 2.0])

    def test_sparse_length_mismatch(self):
        with pytest.raises(CorruptionError):
            SparseDelta(2, 2, index=[0, 1], value=[1.0])

    def test_lowrank_inner_mismatch(self):
        with pytest.raises(DimensionError):
            LowRankDelta(np.zeros((2, 3)), np.zeros((2, 4)))

    def test_quantized_payload_size_checked(self):
        with pytest.raises(CorruptionError):
            QuantizedDelta(2, 2, 8, np.zeros(3, dtype=np.uint8), 1.0)

    def test_group_shape_mismatch(self):
        with pytest.raises(DimensionError):
            ExpertGroup(np.zeros((2, 2)), [DenseDelta(np.zeros((2, 3)))])

    def test_group_len(self):
        g = ExpertGroup(np.zeros((2, 2)), [DenseDelta(np.zeros((2, 2)))] * 3)
        assert len(g) == 3
