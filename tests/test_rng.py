"""Tests for the deterministic random streams."""

import math
import sys
import tracemalloc

import numpy as np
import pytest

from mubeve.errors import (
    DependentColumnsError,
    DimensionTooLargeError,
    MubeveError,
    OutOfRangeError,
)
from mubeve.linalg import MAX_TOTAL_DIM
from mubeve.rng import (
    _DRAW_CHUNK,
    GOLDEN,
    MASK64,
    SplitMix64,
    _gaussians_at,
    basis_amplitudes,
    gram_schmidt_unitary,
    mix,
    mix64,
    random_isometry,
    random_unitary,
)

# Frozen vectors from the reference implementation of SplitMix64.
REFERENCE_STREAMS = {
    0: [
        16294208416658607535,
        7960286522194355700,
        487617019471545679,
        17909611376780542444,
        1961750202426094747,
    ],
    42: [
        13679457532755275413,
        2949826092126892291,
        5139283748462763858,
        6349198060258255764,
        701532786141963250,
    ],
    0x123456789ABCDEF0: [
        1592342178222199016,
        12499191764280245088,
        3819614628928595213,
        4718850641434784223,
        11074192720443766454,
    ],
}

# the state passes through 0 at step 24690, the second uniform of a pair
WRAP_SEED = (-24690 * GOLDEN) & MASK64


def scalar_gaussian_matrix(stream, rows, cols):
    """Row-major complex Gaussians, one ``next_gaussian_pair`` per entry."""
    inv_sqrt2 = 1.0 / math.sqrt(2.0)
    out = np.empty((rows, cols), dtype=complex)
    for r in range(rows):
        for c in range(cols):
            z0, z1 = stream.next_gaussian_pair()
            out[r, c] = complex(z0, z1) * inv_sqrt2
    return out


def mgs_unitary(a):
    """Modified Gram-Schmidt with one re-orthogonalization pass."""
    a = np.array(a, dtype=complex)
    q = np.zeros_like(a)
    for k in range(a.shape[0]):
        v = a[:, k].copy()
        for _ in range(2):
            if k:
                v -= q[:, :k] @ (q[:, :k].conj().T @ v)
        q[:, k] = v / np.linalg.norm(v)
    return q


class TestSplitMix64:
    def test_reference_vectors(self):
        for seed, expected in REFERENCE_STREAMS.items():
            stream = SplitMix64(seed)
            assert [stream.next_u64() for _ in range(5)] == expected

    def test_doubles_in_unit_interval(self):
        stream = SplitMix64(123)
        values = [stream.next_double() for _ in range(2000)]
        assert all(0.0 <= v < 1.0 for v in values)
        # crude uniformity sanity check
        assert 0.4 < np.mean(values) < 0.6

    def test_gaussian_pairs_reasonable(self):
        stream = SplitMix64(5)
        draws = []
        for _ in range(4000):
            z0, z1 = stream.next_gaussian_pair()
            draws.extend((z0, z1))
        draws = np.asarray(draws)
        assert abs(draws.mean()) < 0.05
        assert abs(draws.std() - 1.0) < 0.05

    def test_gaussian_matrix_deterministic(self):
        m1 = SplitMix64(99).gaussian_matrix(3, 4)
        m2 = SplitMix64(99).gaussian_matrix(3, 4)
        assert np.array_equal(m1, m2)
        assert m1.shape == (3, 4)

    @pytest.mark.parametrize("seed", [0, MASK64, WRAP_SEED])
    def test_gaussian_matrix_bit_identical_to_scalar_pairs(self, seed):
        got = SplitMix64(seed).gaussian_matrix(256, 256)
        want = scalar_gaussian_matrix(SplitMix64(seed), 256, 256)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_draws_of_every_length_equal_the_flat_draw(self):
        # lengths 1..33 cover every tail a vector kernel can leave, and
        # drawn one after another they also start at every offset
        lengths = range(1, 34)
        flat = SplitMix64(WRAP_SEED).gaussian_matrix(1, sum(lengths))[0]
        stream, start = SplitMix64(WRAP_SEED), 0
        for length in lengths:
            fresh = SplitMix64(WRAP_SEED).gaussian_matrix(1, length)[0]
            assert np.array_equal(fresh.view(np.uint64), flat[:length].view(np.uint64))
            got = stream.gaussian_matrix(1, length)[0]
            want = flat[start:start + length]
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
            start += length
        scalar = scalar_gaussian_matrix(SplitMix64(WRAP_SEED), 1, flat.size)[0]
        assert np.array_equal(flat.view(np.uint64), scalar.view(np.uint64))

    def test_strided_pairs_equal_the_flat_draw(self):
        # random_isometry draws the leading columns, a strided set of pairs;
        # the second set spans more than one pass of the draw
        for stop, step in ((600, 13), (3 * _DRAW_CHUNK, 2)):
            flat = SplitMix64(WRAP_SEED).gaussian_matrix(1, stop)[0]
            pairs = np.arange(7, stop, step, dtype=np.uint64)
            got = _gaussians_at(WRAP_SEED, pairs)
            want = np.ascontiguousarray(flat[7::step])
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_gaussian_matrix_advances_state_by_two_steps_per_entry(self):
        vector, scalar = SplitMix64(WRAP_SEED), SplitMix64(WRAP_SEED)
        vector.gaussian_matrix(3, 5)
        scalar_gaussian_matrix(scalar, 3, 5)
        assert vector.next_u64() == scalar.next_u64()

    def test_stacked_draw_equals_consecutive_draws(self):
        stream = SplitMix64(17)
        parts = [stream.gaussian_matrix(4, 4) for _ in range(3)]
        assert np.array_equal(SplitMix64(17).gaussian_matrix(12, 4), np.vstack(parts))

    def test_mix64_matches_stream_finalizer(self):
        # one stream step is state += GOLDEN then the finalizer
        seed = 777
        assert SplitMix64(seed).next_u64() == mix64((seed + GOLDEN) & MASK64)


class TestMix:
    def test_deterministic(self):
        assert mix(1, 2, 3) == mix(1, 2, 3)

    def test_parts_matter(self):
        seen = {mix(9, n, d, k) for n in (1, 2) for d in (1, 2, 4) for k in range(50)}
        assert len(seen) == 2 * 3 * 50

    def test_order_matters(self):
        assert mix(0, 1, 2) != mix(0, 2, 1)


class TestSeedRule:
    """A stream starts only from an integer seed in [0, 2**64 - 1]; any
    other value would be truncated or wrapped onto a seed in that range."""

    @pytest.mark.parametrize("seed", [2.5, -1.0, "7", "x", -1, 2**64])
    def test_rejected_where_a_stream_starts(self, seed):
        for start in (SplitMix64, lambda s: mix(s, 1), lambda s: random_isometry(4, 2, s)):
            with pytest.raises(OutOfRangeError, match="seed"):
                start(seed)

    def test_limits_and_numpy_integers_accepted(self):
        assert SplitMix64(np.uint64(MASK64)).next_u64() == SplitMix64(MASK64).next_u64()
        assert mix(np.int64(5), 1) == mix(5, 1)
        assert np.array_equal(random_isometry(4, 2, 0), random_isometry(4, 2, np.int8(0)))



class TestMix64Rule:
    """``mix64`` takes an integer in [0, 2**64 - 1], checked like a seed, or
    a ``uint64`` array; nothing is wrapped, truncated or read as an integer."""

    @pytest.mark.parametrize("z, message", [
        (-1, "mix64 input -1 outside [0, 18446744073709551615]"),
        (2**64, "mix64 input 18446744073709551616 outside [0, 18446744073709551615]"),
        (True, "mix64 input True is not an integer"),
        (7.0, "mix64 input 7.0 is not an integer"),
        (np.arange(3, dtype=np.int64), "mix64 input array has dtype int64, not uint64"),
        (np.ones(3), "mix64 input array has dtype float64, not uint64"),
    ])
    def test_rejected(self, z, message):
        with pytest.raises(OutOfRangeError) as err:
            mix64(z)
        assert str(err.value) == message

    def test_numpy_integers_and_limits_accepted(self):
        # a numpy uint64 scalar is finalized without an overflow warning
        assert mix64(np.uint64(7)) == mix64(7) == mix64(np.int8(7))
        assert mix64(0) == 0
        assert mix64(MASK64) == int(mix64(np.array([MASK64], dtype=np.uint64))[0])

    def test_array_is_elementwise_and_left_unchanged(self):
        z = np.array([0, 7, 2**63, MASK64], dtype=np.uint64)
        before = z.copy()
        out = mix64(z)
        assert np.array_equal(z, before)
        assert out.dtype == np.uint64
        assert [int(v) for v in out] == [mix64(int(v)) for v in before]


class TestGramSchmidt:
    def test_unitary_output(self):
        for seed in range(5):
            m = SplitMix64(seed).gaussian_matrix(16, 16)
            q = gram_schmidt_unitary(m)
            residual = np.max(np.abs(q.conj().T @ q - np.eye(16)))
            assert residual < 1e-12

    def test_preserves_column_span_order(self):
        # first column is just the normalized first input column
        m = SplitMix64(4).gaussian_matrix(6, 6)
        q = gram_schmidt_unitary(m)
        first = m[:, 0] / np.linalg.norm(m[:, 0])
        assert np.allclose(q[:, 0], first)

    def test_rejects_non_square(self):
        from mubeve.errors import DimensionMismatchError

        with pytest.raises(DimensionMismatchError):
            gram_schmidt_unitary(np.ones((3, 4)))

    def test_tall_matrix_gives_leading_columns(self):
        m = SplitMix64(8).gaussian_matrix(12, 12)
        q = gram_schmidt_unitary(m[:, :5])
        assert q.shape == (12, 5)
        assert np.max(np.abs(q - gram_schmidt_unitary(m)[:, :5])) <= 1e-12

    @pytest.mark.parametrize("d", [8, 64, 512])
    def test_matches_mgs_oracle(self, d):
        m = SplitMix64(d).gaussian_matrix(d, d)
        assert np.max(np.abs(gram_schmidt_unitary(m) - mgs_unitary(m))) <= 1e-12

    def test_stacked_equals_per_matrix(self):
        stack = SplitMix64(3).gaussian_matrix(5 * 16, 16).reshape(5, 16, 16)
        q = gram_schmidt_unitary(stack)
        for k in range(5):
            assert np.array_equal(q[k], gram_schmidt_unitary(stack[k]))

    def test_dependent_columns_named_error(self):
        m = SplitMix64(6).gaussian_matrix(4, 4)
        m[:, 2] = 2.0 * m[:, 0]
        with pytest.raises(DependentColumnsError) as info:
            gram_schmidt_unitary(m)
        assert isinstance(info.value, MubeveError)
        assert isinstance(info.value, ValueError)

    def test_one_dependent_matrix_in_stack(self):
        stack = SplitMix64(6).gaussian_matrix(3 * 4, 4).reshape(3, 4, 4)
        stack[1, :, 3] = 0.0
        with pytest.raises(DependentColumnsError):
            gram_schmidt_unitary(stack)


class TestBasisAmplitudes:
    @pytest.mark.parametrize("d, count", [(8, 4), (64, 16), (16, 16), (4, 9)])
    def test_moduli_match_the_formed_basis(self, d, count):
        stack = SplitMix64(d).gaussian_matrix(3 * d, d).reshape(3, d, d)
        rows = SplitMix64(count).gaussian_matrix(count, d)
        got = basis_amplitudes(stack, rows)
        want = rows @ gram_schmidt_unitary(stack).conj()
        assert got.shape == want.shape == (3, count, d)
        assert np.max(np.abs(np.abs(got) - np.abs(want))) <= 1e-12

    def test_one_dependent_matrix_in_stack(self):
        # the appended rows are independent; the draw itself is not
        stack = SplitMix64(6).gaussian_matrix(3 * 8, 8).reshape(3, 8, 8)
        stack[1, :, 5] = 3.0 * stack[1, :, 2]
        with pytest.raises(DependentColumnsError):
            basis_amplitudes(stack, SplitMix64(7).gaussian_matrix(2, 8))


class TestRandomUnitary:
    def test_deterministic(self):
        u1 = random_unitary(8, 2024)
        u2 = random_unitary(8, 2024)
        assert np.array_equal(u1, u2)

    def test_unitarity(self):
        for seed in (0, 1, 42):
            u = random_unitary(12, seed)
            assert np.max(np.abs(u.conj().T @ u - np.eye(12))) < 1e-12

    def test_seed_changes_output(self):
        assert not np.allclose(random_unitary(4, 1), random_unitary(4, 2))

    def test_unitary_is_the_square_isometry(self):
        assert np.array_equal(random_unitary(6, 3), random_isometry(6, 6, 3))

    def test_isometry_columns(self):
        v = random_isometry(16, 4, 12)
        assert v.shape == (16, 4)
        assert np.max(np.abs(v.conj().T @ v - np.eye(4))) < 1e-12
        assert np.max(np.abs(v - random_unitary(16, 12)[:, :4])) <= 1e-12

    @pytest.mark.parametrize("rows, cols, error, message", [
        # 2**40 rows would ask numpy for 16 TiB, 10**5000 for more than it can count
        (2**40, 1, DimensionTooLargeError, f"row count {2**40} exceeds 512"),
        (10**5000, 1, DimensionTooLargeError, "row count of over 4300 digits exceeds 512"),
        (MAX_TOTAL_DIM + 1, 1, DimensionTooLargeError, "row count 513 exceeds 512"),
        (4, 2**40, OutOfRangeError, rf"column count {2**40} outside \[1, 4\]"),
    ], ids=["2**40-rows", "10**5000-rows", "limit+1-rows", "2**40-cols"])
    def test_sizes_checked_before_allocation(self, rows, cols, error, message):
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4300)  # the default, which the message quotes
        tracemalloc.start()
        try:
            with pytest.raises(error, match=message):
                random_isometry(rows, cols, 0)
            assert tracemalloc.get_traced_memory()[1] < 1 << 20
        finally:
            tracemalloc.stop()
            sys.set_int_max_str_digits(limit)


@pytest.mark.slow
def test_gaussian_draw_bit_exact_over_a_million_pairs():
    """2**20 pairs of the block draw against the same count of scalar
    next_gaussian_pair calls, both through numpy's log, cos and sin.  Run
    with pytest -m slow."""
    rows = cols = 1 << 10
    got = SplitMix64(WRAP_SEED).gaussian_matrix(rows, cols)
    want = scalar_gaussian_matrix(SplitMix64(WRAP_SEED), rows, cols)
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
