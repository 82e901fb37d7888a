"""Kernels: exact summation order, stable softmax, top-k, seeded draws."""

import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import argsort_topk_mask, rng_mat, triple_loop_matmul
from ders import numkern
from ders.errors import DimensionError, NumericError, ParameterError


_CASE_DEFAULTS = {
    "dtype": "float64",
    "seed": 0,
    "zeros": 0.0,
    "neg_zero_row": False,
    "transpose_a": False,
    "transpose_b": False,
    "strided_a": False,
    "strided_b": False,
}


def _case(n, inner, m, **options):
    """An (n × inner) · (inner × m) property case; ``options`` override the defaults."""
    return {"n": n, "inner": inner, "m": m, **_CASE_DEFAULTS, **options}


_MATMUL_CASES = st.builds(
    _case,
    n=st.integers(1, 70),
    inner=st.integers(1, 70),
    m=st.integers(1, 70),
    dtype=st.sampled_from(["float64", "float32", "float32 float64", "float64 float32"]),
    seed=st.integers(0, 2**32 - 1),
    zeros=st.sampled_from([0.0, 0.1, 0.5]),
    neg_zero_row=st.booleans(),
    transpose_a=st.booleans(),
    transpose_b=st.booleans(),
    strided_a=st.booleans(),
    strided_b=st.booleans(),
)


def _operands(case):
    """Random operands of ``case["dtype"]``, or of its two dtypes in order,
    with injected +0.0/-0.0 entries, optionally a first row of ``a`` whose
    products with column 0 of ``b`` are all -0.0, optionally as transposed
    views of Fortran-ordered copies, ``a`` optionally as every other column
    of a wider array, and ``b`` as every other row of a taller one."""
    g = np.random.default_rng(case["seed"])
    dtype_a, dtype_b = (case["dtype"].split() * 2)[:2]
    a = g.standard_normal((case["n"], case["inner"])).astype(dtype_a)
    b = g.standard_normal((case["inner"], case["m"])).astype(dtype_b)
    for arr in (a, b):
        hit = g.random(arr.shape) < case["zeros"]
        arr[hit] = np.where(g.random(arr.shape) < 0.5, 0.0, -0.0)[hit]
    if case["neg_zero_row"]:
        a[0] = -0.0
        b[:, 0] = np.abs(b[:, 0])
    if case["transpose_a"]:
        a = np.ascontiguousarray(a.T).T
    if case["transpose_b"]:
        b = np.ascontiguousarray(b.T).T
    if case["strided_a"]:
        a = np.repeat(a, 2, axis=1)[:, ::2]
    if case["strided_b"]:
        b = np.repeat(b, 2, axis=0)[::2]
    return a, b


def _converted_einsum(a, b):
    """``np.einsum("ik,kj->ij")`` on ``a`` and ``b`` converted to one dtype
    with ``b`` C-ordered: the kernel on the operands the probe covers."""
    dtype = np.result_type(a, b)
    return np.einsum("ik,kj->ij", a.astype(dtype), np.ascontiguousarray(b, dtype=dtype), optimize=False)


# Whether this numpy's einsum kernel is k-ordered, judged apart from
# ``numkern._einsum``, so that a fault in its conversions cannot hide behind
# a probe it makes fail.
_KERNEL_K_ORDERED = numkern._einsum_is_k_ordered(_converted_einsum)


def _fma_matmul(a, b):
    """The triple loop with each multiply-add rounded once, as an FMA does:
    the running sum plus the exact product, rounded to float64 and then to the
    dtype (exact for float64, which the probe's witness case uses)."""
    dtype = np.result_type(a, b)
    out = np.zeros((a.shape[0], b.shape[1]), dtype=dtype)
    for i, j in np.ndindex(out.shape):
        acc = Fraction(0)
        for k in range(a.shape[1]):
            acc += Fraction(float(a[i, k])) * Fraction(float(b[k, j]))
            acc = Fraction(float(dtype.type(float(acc))))
        out[i, j] = float(acc)
    return out


class TestMatmul:
    def test_identity(self):
        a = np.eye(2)
        b = np.array([[3.0, 4.0], [5.0, 6.0]])
        assert np.array_equal(numkern.matmul(a, b), b)

    def test_hand_arithmetic(self):
        out = numkern.matmul(np.array([[1.0, 2.0]]), np.array([[3.0], [4.0]]))
        assert np.array_equal(out, [[11.0]])

    def test_matches_triple_loop_oracle_exactly(self):
        a = rng_mat((7, 5), seed=1)
        b = rng_mat((5, 3), seed=2)
        assert numkern.matmul(a, b).tobytes() == triple_loop_matmul(a, b).tobytes()

    def test_matches_oracle_float32(self):
        a = rng_mat((6, 9), seed=3).astype(np.float32)
        b = rng_mat((9, 4), seed=4).astype(np.float32)
        out = numkern.matmul(a, b)
        assert out.dtype == np.float32
        assert out.tobytes() == triple_loop_matmul(a, b).tobytes()

    def test_batch_rows_equal_single_rows_bitwise(self):
        a = rng_mat((11, 8), seed=5)
        b = rng_mat((8, 6), seed=6)
        full = numkern.matmul(a, b)
        for i in range(a.shape[0]):
            assert full[i].tobytes() == numkern.matmul(a[i : i + 1], b)[0].tobytes()

    @pytest.mark.parametrize("einsum", [True, False], ids=["einsum", "k_loop"])
    @settings(max_examples=120, deadline=None, derandomize=True, database=None)
    @given(case=_MATMUL_CASES)
    @example(case=_case(1, 1, 1))
    @example(case=_case(1, 9, 1))
    @example(case=_case(1, 70, 1, neg_zero_row=True))
    @example(case=_case(2, 70, 1, neg_zero_row=True, transpose_b=True))
    @example(case=_case(40, 300, 1))
    @example(case=_case(2, 70, 1, dtype="float32", zeros=0.1))
    @example(case=_case(1, 70, 2, neg_zero_row=True))
    @example(case=_case(1, 300, 2, dtype="float32", transpose_a=True))
    @example(case=_case(70, 70, 70, transpose_b=True))
    @example(case=_case(33, 64, 2, dtype="float32", transpose_a=True, zeros=0.3))
    # The benchmark's tall-narrow products, which matmul computes transposed.
    @example(case=_case(512, 128, 32))
    @example(case=_case(512, 128, 32, dtype="float32", transpose_a=True, transpose_b=True))
    @example(case=_case(2048, 32, 8, transpose_a=True))
    @example(case=_case(2048, 32, 8, dtype="float32", transpose_b=True, zeros=0.1))
    @example(case=_case(2048, 32, 4, transpose_b=True))
    @example(case=_case(2048, 32, 4, dtype="float32", transpose_a=True))
    @example(case=_case(64, 16, 32, transpose_a=True, transpose_b=True, neg_zero_row=True))
    @example(case=_case(64, 16, 32, dtype="float32"))
    # A tall-narrow product of the census whose ``b`` is a transposed view
    # (``LowRankDelta.weight_grads``' d_w·Bᵀ) or strided: einsum's first
    # operand ``bᵀ`` is then C-ordered or strided, taken as given.
    @example(case=_case(64, 32, 4, transpose_b=True))
    @example(case=_case(64, 32, 4, dtype="float32", transpose_b=True))
    @example(case=_case(64, 32, 4, strided_b=True))
    @example(case=_case(64, 32, 4, dtype="float32", strided_b=True, neg_zero_row=True))
    # The edges of the ``a·b`` orientation's rule: one column (transposed) at
    # n ≥ 2, one row, 32 and 33 rows at 32 and 33 columns, 31 and 32 rows at
    # 4 columns, and an F-ordered, strided or float32 ``a`` and an F-ordered
    # ``b`` taken as ``a·b``.
    @example(case=_case(2, 40, 1, transpose_a=True))
    @example(case=_case(5, 64, 1, dtype="float32", strided_a=True))
    @example(case=_case(1, 128, 32, strided_a=True, neg_zero_row=True))
    @example(case=_case(32, 64, 32, transpose_a=True))
    @example(case=_case(31, 32, 4, dtype="float32", transpose_a=True))
    @example(case=_case(32, 32, 4, transpose_a=True, neg_zero_row=True))
    @example(case=_case(32, 64, 4, dtype="float32", transpose_b=True))
    @example(case=_case(33, 64, 32, dtype="float32", strided_a=True))
    @example(case=_case(33, 64, 33, transpose_a=True, transpose_b=True))
    @example(case=_case(4, 128, 32, strided_a=True, zeros=0.3))
    @example(case=_case(8, 64, 32, dtype="float32", transpose_a=True, transpose_b=True))
    @example(case=_case(512, 32, 128, dtype="float32", strided_a=True))
    @example(case=_case(2, 70, 2, transpose_b=True, neg_zero_row=True))
    # Operands of two dtypes, which ``_einsum`` converts before the kernel.
    @example(case=_case(33, 64, 2, dtype="float32 float64", transpose_a=True))
    @example(case=_case(5, 40, 3, dtype="float64 float32", neg_zero_row=True))
    def test_bytes_match_triple_loop_oracle(self, einsum, case):
        """Either evaluation, every form, any layout, float32, float64 or one
        of each, signed zeros: the bytes of the naive triple loop in a
        C-contiguous array, and batch == stacked rows."""
        a, b = _operands(case)
        kernel, seen = numkern.c_einsum, []

        def spy(form, x, y):
            seen.append((x.dtype, y.dtype, y.flags.c_contiguous))
            return kernel(form, x, y)

        with pytest.MonkeyPatch.context() as mp:
            # The k-loop case is what a numpy whose einsum fails the probe runs.
            mp.setattr(numkern, "_EINSUM_K_ORDERED", einsum and _KERNEL_K_ORDERED)
            mp.setattr(numkern, "c_einsum", spy)
            out = numkern.matmul(a, b)
            rows = [numkern.matmul(a[i : i + 1], b) for i in range(a.shape[0])]
        expected = triple_loop_matmul(a, b)
        assert out.dtype == expected.dtype and out.shape == expected.shape
        assert out.flags.c_contiguous
        assert out.tobytes() == expected.tobytes()
        assert np.concatenate(rows).tobytes() == out.tobytes()
        # The kernel sees only what the probe covers: one dtype, a C-ordered b.
        assert all(dtype_x == dtype_y and c_ordered for dtype_x, dtype_y, c_ordered in seen)

    def test_single_element_takes_the_loop_and_matches_oracle(self, monkeypatch):
        """A 1×1 output is the one shape einsum would sum out of order; a
        one-column output of several rows still goes through einsum."""
        calls = []
        monkeypatch.setattr(
            numkern, "_einsum", lambda a, b: calls.append(1) or numkern._k_loop(a, b)
        )
        a = rng_mat((1, 300), seed=12)
        b = rng_mat((300, 1), seed=13)
        assert numkern.matmul(a, b).tobytes() == triple_loop_matmul(a, b).tobytes()
        assert not calls
        numkern.matmul(rng_mat((2, 300), seed=14), b)
        assert calls

    def test_probe_repeats_and_accepts_the_k_loop(self):
        """The import-time decision is reproducible, and the reference passes
        in place of the einsum form."""
        assert numkern._einsum_is_k_ordered() is numkern._EINSUM_K_ORDERED
        assert numkern._einsum_is_k_ordered(numkern._k_loop)

    @pytest.mark.parametrize(
        "wrong_for",
        [
            lambda a: True,
            lambda a: a.flags.f_contiguous and not a.flags.c_contiguous,
            lambda a: not (a.flags.c_contiguous or a.flags.f_contiguous),
            lambda a: a.dtype == np.float32,
        ],
        ids=["every_a", "f_ordered_a", "strided_a", "float32"],
    )
    def test_probe_checks_the_direct_form(self, wrong_for):
        """A form wrong for one kind of first operand only fails the probe."""

        def form(a, b):
            out = numkern._k_loop(a, b)
            return np.nextafter(out, np.inf) if wrong_for(a) else out

        assert not numkern._einsum_is_k_ordered(form)

    def test_probe_checks_the_transposed_orientation(self):
        """A product right in ``a·b`` but wrong in ``(bᵀ·aᵀ)ᵀ`` fails the probe."""

        def wrong_when_transposed(a, b):
            out = numkern._k_loop(a, b)
            if not a.flags.c_contiguous:  # called as (bᵀ·aᵀ): bᵀ is a view
                out = np.nextafter(out, np.inf)
            return out

        assert not numkern._einsum_is_k_ordered(wrong_when_transposed)

    def test_probe_checks_the_transposed_call(self):
        """A form wrong only when its second operand is a view, as ``aᵀ`` is
        in ``(bᵀ·aᵀ)ᵀ`` and ``b`` never is in ``a·b``, fails the probe."""

        def wrong_for_a_view_b(a, b):
            out = numkern._k_loop(a, b)
            return out if b.flags.c_contiguous else np.nextafter(out, np.inf)

        assert not numkern._einsum_is_k_ordered(wrong_for_a_view_b)

    def test_probe_rejects_blas(self):
        assert not numkern._einsum_is_k_ordered(lambda a, b: a @ b)

    def test_probe_rejects_fused_multiply_add(self):
        assert not numkern._einsum_is_k_ordered(_fma_matmul)

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError, match=r"\(2, 3\) x \(2, 3\)"):
            numkern.matmul(np.zeros((2, 3)), np.zeros((2, 3)))

    def test_non_2d_rejected(self):
        with pytest.raises(DimensionError):
            numkern.matmul(np.zeros(3), np.zeros((3, 2)))

    def test_nonfinite_output_passes_through(self):
        """The kernel does not check finiteness; stage boundaries do."""
        with np.errstate(over="ignore"):
            out = numkern.matmul(np.full((1, 1), 1e308), np.full((1, 1), 1e308))
        assert out[0, 0] == np.inf


class TestSoftmax:
    def test_symmetry(self):
        assert np.allclose(numkern.softmax(np.zeros(3)), [1 / 3] * 3, atol=1e-15)

    def test_stability_no_overflow(self):
        out = numkern.softmax(np.array([1000.0, 0.0]))
        assert np.isfinite(out).all()
        assert out[0] > 1 - 1e-12 and out[1] < 1e-12

    def test_direct_formula_oracle(self):
        v = np.array([1.0, 2.0, 3.0])
        direct = np.exp(v) / np.exp(v).sum()
        assert np.allclose(numkern.softmax(v), direct, atol=1e-12)

    def test_sums_to_one(self):
        v = rng_mat((1, 9), seed=7)[0] * 10
        assert abs(numkern.softmax(v).sum() - 1.0) < 1e-12

    def test_shift_invariance(self):
        v = rng_mat((1, 5), seed=8)[0]
        assert np.allclose(numkern.softmax(v), numkern.softmax(v + 7.25), atol=1e-12)

    def test_batch_equals_rows_bitwise(self):
        m = rng_mat((6, 4), seed=9) * 3
        batched = numkern.softmax(m)
        for i in range(m.shape[0]):
            assert np.array_equal(batched[i], numkern.softmax(m[i]))

    def test_empty_rejected(self):
        with pytest.raises(DimensionError):
            numkern.softmax(np.array([]))

    def test_nonfinite_rejected(self):
        with pytest.raises(NumericError):
            numkern.softmax(np.array([1.0, np.nan]))


class TestTopkMask:
    def test_argmax_survives(self):
        out = numkern.topk_mask(np.array([0.1, 0.7, 0.2]), 1)
        assert np.array_equal(out, [0.0, 0.7, 0.0])

    def test_tie_break_lowest_index(self):
        out = numkern.topk_mask(np.array([0.25, 0.25, 0.25, 0.25]), 2)
        assert np.array_equal(out, [0.25, 0.25, 0.0, 0.0])

    def test_k_equals_n_identity(self):
        v = np.array([0.5, 0.1, 0.4])
        assert np.array_equal(numkern.topk_mask(v, 3), v)

    def test_survivors_unchanged_and_count(self):
        v = rng_mat((1, 12), seed=10)[0]
        out = numkern.topk_mask(v, 5)
        kept = out != 0
        assert kept.sum() == 5
        assert np.array_equal(out[kept], v[kept])
        assert sorted(v[kept]) == sorted(sorted(v, reverse=True)[:5])

    def test_out_of_range_k(self):
        with pytest.raises(ParameterError):
            numkern.topk_mask(np.array([1.0, 2.0]), 0)
        with pytest.raises(ParameterError):
            numkern.topk_mask(np.array([1.0, 2.0]), 3)

    def test_batch_equals_rows(self):
        m = rng_mat((5, 6), seed=11)
        batched = numkern.topk_mask(m, 2)
        for i in range(m.shape[0]):
            assert np.array_equal(batched[i], numkern.topk_mask(m[i], 2))

    @pytest.mark.parametrize("special", [np.nan, -np.nan, -np.inf], ids=["nan", "minus_nan", "minus_inf"])
    @pytest.mark.parametrize("shape", [(3,), (2, 3)], ids=["1d", "2d"])
    def test_nan_and_minus_inf_refused(self, special, shape):
        """Softmax never emits NaN or −inf, and a −inf mark could not rank
        below them, so top-k refuses them instead of picking wrongly."""
        arr = np.full(shape, 0.25)
        arr.reshape(-1)[-1] = special
        with pytest.raises(NumericError, match="topk_mask"):
            numkern.topk_mask(arr, 1)

    def test_non_float_rejected(self):
        with pytest.raises(ParameterError, match="floats"):
            numkern.topk_mask(np.array([3, 1, 2]), 1)

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        rows=st.integers(1, 2048),
        n=st.integers(1, 9),
        k_frac=st.floats(0.0, 1.0),
        dtype=st.sampled_from(["float64", "float32", "float16"]),
        special=st.sampled_from([0.0, 0.2, 0.6, 1.0]),
    )
    @example(seed=0, rows=1, n=2, k_frac=1.0, dtype="float64", special=1.0)
    @example(seed=1, rows=2048, n=8, k_frac=0.2, dtype="float64", special=0.0)
    @example(seed=2, rows=2048, n=8, k_frac=0.2, dtype="float32", special=0.6)
    def test_matches_the_stable_argsort(self, seed, rows, n, k_frac, dtype, special):
        """Every k from 1 to N over rows of ties, ±0.0 and +inf (a share
        ``special`` of the entries; the rest are softmax-like draws), C- or
        F-ordered: the bytes of the stable argsort's selection, and batch ==
        stacked rows."""
        g = np.random.default_rng(seed)
        specials = np.array([np.inf, 0.0, -0.0, 0.25, 0.25, 1.0])
        arr = np.where(
            g.random((rows, n)) < special,
            g.choice(specials, (rows, n)),
            g.choice([0.125, 0.5, 1.0 / 3.0], (rows, n)) if seed % 2 else g.random((rows, n)),
        ).astype(dtype)
        if seed % 3 == 0:
            arr = np.asfortranarray(arr)
        k = 1 + min(n - 1, int(k_frac * n))
        out = numkern.topk_mask(arr, k)
        assert out.dtype == arr.dtype
        assert out.tobytes() == argsort_topk_mask(arr, k).tobytes()
        stacked = [numkern.topk_mask(arr[i], k) for i in range(min(rows, 9))]
        assert np.stack(stacked).tobytes() == out[:9].tobytes()


class TestBernoulliMask:
    def test_p_zero_all_zeros(self):
        m = numkern.bernoulli_mask(0.0, 5, 7, numkern.RngStream(1, 2))
        assert np.array_equal(m, np.zeros((5, 7)))

    def test_p_one_all_ones(self):
        m = numkern.bernoulli_mask(1.0, 5, 7, numkern.RngStream(1, 2))
        assert np.array_equal(m, np.ones((5, 7)))

    def test_binomial_concentration(self):
        m = numkern.bernoulli_mask(0.5, 100, 100, numkern.RngStream(42, 0))
        assert 0.45 <= m.mean() <= 0.55
        assert set(np.unique(m)) <= {0.0, 1.0}

    def test_p_out_of_range(self):
        with pytest.raises(ParameterError):
            numkern.bernoulli_mask(1.5, 2, 2, numkern.RngStream(0, 0))

    def test_deterministic_given_stream(self):
        a = numkern.bernoulli_mask(0.3, 8, 8, numkern.RngStream(7, 9))
        b = numkern.bernoulli_mask(0.3, 8, 8, numkern.RngStream(7, 9))
        assert np.array_equal(a, b)


class TestSampleUniqueIndices:
    def test_exhaustive(self):
        out = numkern.sample_unique_indices(10, 10, numkern.RngStream(0, 0))
        assert np.array_equal(out, np.arange(10))

    def test_empty(self):
        out = numkern.sample_unique_indices(10, 0, numkern.RngStream(0, 0))
        assert out.size == 0

    def test_distinct_sorted_set_oracle(self):
        out = numkern.sample_unique_indices(1000, 100, numkern.RngStream(3, 4))
        assert len(set(out.tolist())) == 100
        assert np.all(np.diff(out) > 0)
        assert out.min() >= 0 and out.max() < 1000

    def test_keep_exceeds_total(self):
        with pytest.raises(ParameterError):
            numkern.sample_unique_indices(5, 6, numkern.RngStream(0, 0))


class TestRngReproducibility:
    def test_same_key_same_draws(self):
        a = numkern.RngStream(123, 456).generator.random(16)
        b = numkern.RngStream(123, 456).generator.random(16)
        assert np.array_equal(a, b)

    def test_different_streams_differ(self):
        a = numkern.RngStream(123, 1).generator.random(16)
        b = numkern.RngStream(123, 2).generator.random(16)
        assert not np.array_equal(a, b)

    def test_cross_process_bit_reproducible(self):
        code = (
            "from ders import numkern\n"
            "m = numkern.bernoulli_mask(0.4, 4, 4, numkern.RngStream(11, 22))\n"
            "i = numkern.sample_unique_indices(50, 9, numkern.RngStream(11, 23))\n"
            "print(m.tobytes().hex(), i.tobytes().hex())\n"
        )
        runs = [
            subprocess.run(
                [sys.executable, "-c", code], capture_output=True, text=True, check=True
            ).stdout
            for _ in range(2)
        ]
        assert runs[0] == runs[1]
        m = numkern.bernoulli_mask(0.4, 4, 4, numkern.RngStream(11, 22))
        i = numkern.sample_unique_indices(50, 9, numkern.RngStream(11, 23))
        assert runs[0].split()[0] == m.tobytes().hex()
        assert runs[0].split()[1] == i.tobytes().hex()

    def test_derive_stream_id_structured(self):
        a = numkern.derive_stream_id("delta", 0, "w_in", 1)
        b = numkern.derive_stream_id("delta", 0, "w_in", 2)
        c = numkern.derive_stream_id("delta", 0, "w_out", 1)
        assert len({a, b, c}) == 3
        assert a == numkern.derive_stream_id("delta", 0, "w_in", 1)
        assert 0 <= a < 2**64


def test_dtype_bits():
    assert numkern.dtype_bits(np.float64) == 64
    assert numkern.dtype_bits(np.float32) == 32
