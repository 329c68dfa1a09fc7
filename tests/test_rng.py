"""Tests for the deterministic random streams."""

import math

import numpy as np
import pytest

from mubeve.errors import DependentColumnsError, MubeveError
from mubeve.rng import (
    GOLDEN,
    MASK64,
    SplitMix64,
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


@pytest.mark.slow
def test_gaussian_draw_bit_exact_over_a_million_pairs():
    """2**20 pairs of the vectorized draw (cmath.exp for cos and sin)
    against the scalar math.cos/math.sin pairs.  Run with pytest -m slow."""
    rows = cols = 1 << 10
    got = SplitMix64(WRAP_SEED).gaussian_matrix(rows, cols)
    want = scalar_gaussian_matrix(SplitMix64(WRAP_SEED), rows, cols)
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
