"""Tests for the dense linear-algebra core."""

import sys

import numpy as np
import pytest

from mubeve.errors import (
    DimensionMismatchError,
    DimensionTooLargeError,
    EigensolverError,
    InvalidArrayError,
    InvalidStateError,
    NotADistributionError,
    NotHermitianError,
    OutOfRangeError,
)
import mubeve.linalg as linalg
from mubeve.linalg import (
    MAX_TOTAL_DIM,
    N_MAX,
    DensityMatrix,
    as_index,
    density_spectra,
    hermitian_eigendecomposition,
    mixture_spectra,
    mub_transform,
    partial_trace,
    sign_grid,
    spectral_entropies,
    tensor_product,
    walsh,
    xor_grid,
    xor_regroup,
)
from mubeve.bounds import audit_attack
from mubeve.channel import AttackChannel, ErrorDistribution, from_unitary
from mubeve.rng import SplitMix64, mix, random_isometry, random_unitary
from mubeve.zoo import AttackSpec, check_cell, random_attack
import reference
from oracle import bit_dot


def hermitian_eigenvalues(a):
    """Eigenvalues, descending, of a matrix that passes the package's
    Hermitian check, from the package's eigensolver ``_eigh``."""
    return linalg._eigh(linalg._check_hermitian(a), want_vectors=False)[0][::-1]


def von_neumann_entropy(rho):
    """``spectral_entropies`` of the checked eigenvalues of one matrix."""
    return float(spectral_entropies(hermitian_eigenvalues(linalg._matrix_of(rho))))


def shannon_entropies(p):
    """The package's probability rule on each row of ``p``
    (NotADistributionError), then its entropy core ``_entropy_bits``."""
    p = np.asarray(p, dtype=float)
    linalg._check_probabilities(p, NotADistributionError)
    return linalg._entropy_bits(p)


def shannon_entropy(p):
    """The one-row case of ``shannon_entropies``."""
    return float(shannon_entropies(np.reshape(p, (1, -1)))[0])


def random_hermitian(rng, d):
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return a + a.conj().T


def random_density(rng, d):
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    m = a @ a.conj().T
    return m / np.trace(m).real


class TestBitOps:
    def test_dot(self):
        assert bit_dot(3, 3) == 0  # 1*1 + 1*1 = 0 mod 2
        assert bit_dot(1, 3) == 1
        assert bit_dot(5, 2) == 0

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_xor_grid(self, n):
        d = 1 << n
        xors = [[i ^ j for j in range(d)] for i in range(d)]
        assert np.array_equal(xor_grid(n), xors)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_xor_regroup(self, n):
        d = 1 << n
        a = np.arange(d * d * 3).reshape(d, d, 3)
        expected = [[a[i, i ^ c] for i in range(d)] for c in range(d)]
        assert np.array_equal(xor_regroup(a), expected)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_sign_grid(self, n):
        d = 1 << n
        signs = [[(-1) ** bit_dot(i, j) for j in range(d)] for i in range(d)]
        assert np.array_equal(sign_grid(n), signs)

    @pytest.mark.parametrize("grid", [sign_grid, xor_grid])
    def test_grids_built_once_and_read_only(self, grid):
        first = grid(3)
        assert grid(3) is first
        assert not first.flags.writeable
        with pytest.raises(ValueError):
            first[0, 0] = 7


class TestWalsh:
    @staticmethod
    def table(rng, n, eve_dim):
        d = 1 << n
        shape = (d, d, eve_dim)
        return rng.normal(size=shape) + 1j * rng.normal(size=shape)

    @pytest.mark.parametrize("eve_dim", [1, 3])
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_matches_explicit_sum(self, n, eve_dim):
        a = self.table(np.random.default_rng(10 * n + eve_dim), n, eve_dim)
        d = 1 << n
        signs = [[(-1) ** bit_dot(x, b) for b in range(d)] for x in range(d)]
        over_first = [sum(signs[x][b] * a[b] for b in range(d)) for x in range(d)]
        over_second = [[sum(signs[x][b] * a[i, b] for b in range(d)) for x in range(d)]
                       for i in range(d)]
        assert np.allclose(walsh(a, 0), over_first, rtol=0, atol=1e-12)
        assert np.allclose(walsh(a, 1), over_second, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("axis", [0, 1])
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_involution_up_to_scale(self, n, axis):
        a = self.table(np.random.default_rng(n), n, 3)
        twice = walsh(walsh(a, axis), axis)
        assert np.max(np.abs(twice - (1 << n) * a)) <= 1e-12


class TestTensorProduct:
    def test_identity_case(self):
        assert np.array_equal(
            tensor_product(np.eye(2), np.eye(2)), np.eye(4)
        )

    def test_basis_projector_case(self):
        p0 = np.diag([1.0, 0.0])
        p1 = np.diag([0.0, 1.0])
        expected = np.zeros((4, 4))
        expected[1, 1] = 1.0  # left factor owns the most significant bit
        assert np.array_equal(tensor_product(p0, p1), expected)

    def test_left_factor_most_significant(self):
        out = tensor_product(np.diag([0.0, 1.0]), np.eye(2))
        assert np.array_equal(out, np.diag([0.0, 0.0, 1.0, 1.0]))

    def test_mixed_product_identity(self):
        rng = np.random.default_rng(11)
        for _ in range(5):
            a, b, c, d = (
                rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
                for _ in range(4)
            )
            lhs = tensor_product(a, b) @ tensor_product(c, d)
            rhs = tensor_product(a @ c, b @ d)
            assert np.max(np.abs(lhs - rhs)) < 1e-12


class TestEigendecomposition:
    def test_already_diagonal(self):
        spec = hermitian_eigendecomposition(np.diag([3.0, 1.0]))
        assert np.allclose(spec.eigenvalues, [3.0, 1.0])

    def test_pauli_x_spectrum(self):
        spec = hermitian_eigendecomposition(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert np.allclose(spec.eigenvalues, [1.0, -1.0])

    def test_not_hermitian_raises(self):
        with pytest.raises(NotHermitianError):
            hermitian_eigendecomposition(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_non_square_raises(self):
        with pytest.raises(DimensionMismatchError) as err:
            hermitian_eigendecomposition(np.ones((2, 3)))
        assert str(err.value) == "expected a square matrix"

    def test_trace_identity(self):
        rng = np.random.default_rng(0)
        a = random_hermitian(rng, 8)
        w = linalg._eigh(a, want_vectors=False)[0]
        assert abs(w.sum() - np.trace(a).real) < 1e-10

    def test_reconstruction_and_orthonormality_ensemble(self):
        # at least 100 seeded matrices across all supported test sizes
        sizes = {2: 30, 4: 30, 8: 20, 16: 16, 64: 8}
        assert sum(sizes.values()) >= 100
        rng = np.random.default_rng(2024)
        for d, count in sizes.items():
            for _ in range(count):
                a = random_hermitian(rng, d)
                spec = hermitian_eigendecomposition(a)
                v, w = spec.eigenvectors, spec.eigenvalues
                assert np.all(np.diff(w) <= 0)
                rec = v @ np.diag(w) @ v.conj().T
                assert np.max(np.abs(rec - a)) <= 1e-10
                assert np.max(np.abs(v.conj().T @ v - np.eye(d))) <= 1e-10

    def test_deterministic_for_identical_bits(self):
        rng = np.random.default_rng(5)
        a = random_hermitian(rng, 6)
        s1 = hermitian_eigendecomposition(a.copy())
        s2 = hermitian_eigendecomposition(a.copy())
        assert np.array_equal(s1.eigenvalues, s2.eigenvalues)
        assert np.array_equal(s1.eigenvectors, s2.eigenvectors)

    def test_one_by_one(self):
        spec = hermitian_eigendecomposition(np.array([[2.5]]))
        assert spec.eigenvalues[0] == 2.5

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_entries_raise(self, bad):
        a = np.array([[bad, 0.0], [0.0, 1.0]])
        with pytest.raises(EigensolverError):
            linalg._eigh(a, want_vectors=False)
        with pytest.raises(EigensolverError):
            hermitian_eigendecomposition(a)

    def test_lapack_failure_is_named(self, monkeypatch):
        def fail(a):
            raise np.linalg.LinAlgError("did not converge")

        monkeypatch.setattr(np.linalg, "eigvalsh", fail)
        with pytest.raises(EigensolverError):
            linalg._eigh(np.eye(2), want_vectors=False)


class TestDensityMatrix:
    def test_valid(self):
        dm = DensityMatrix(np.eye(2) / 2)
        assert dm.dim == 2
        assert not dm.matrix.flags.writeable

    def test_pure(self):
        dm = DensityMatrix.pure(np.array([1.0, 1.0]) / np.sqrt(2))
        assert abs(np.trace(dm.matrix) - 1.0) < 1e-12

    def test_not_hermitian(self):
        with pytest.raises(NotHermitianError):
            DensityMatrix(np.array([[0.5, 0.5], [0.0, 0.5]]))

    def test_bad_trace(self):
        with pytest.raises(InvalidStateError):
            DensityMatrix(np.eye(2))

    def test_non_finite_rejected(self):
        # Cholesky returns NaN here instead of failing
        with pytest.raises(EigensolverError):
            DensityMatrix(np.array([[np.nan, 0.0], [0.0, 1.0]]))

    def test_negative_eigenvalue(self):
        with pytest.raises(InvalidStateError):
            DensityMatrix(np.diag([1.5, -0.5]))

    @pytest.mark.parametrize("build, what", [
        (lambda: DensityMatrix([["a"]]), "density matrix"),
        (lambda: DensityMatrix([[0.5, 0.0], [0.5]]), "density matrix"),
        (lambda: DensityMatrix.pure(["a", 1.0]), "amplitude vector"),
        # numeric text, which numpy read as numbers ("1" as 1)
        (lambda: DensityMatrix([["1"]]), "density matrix"),
        (lambda: DensityMatrix(np.array([["1"]])), "density matrix"),
        (lambda: DensityMatrix.pure(["1", "0"]), "amplitude vector"),
    ], ids=["string", "ragged", "pure-string", "numeric-text", "numeric-text-array",
            "pure-numeric-text"])
    def test_unreadable_arrays_are_named(self, build, what):
        # numpy raised a bare ValueError for each of these
        with pytest.raises(InvalidArrayError) as err:
            build()
        assert str(err.value) == f"{what} is not a rectangular array of numbers"


class TestPartialTrace:
    def test_product_state_recovery(self):
        rng = np.random.default_rng(1)
        for dl, dr in ((2, 2), (2, 4), (4, 2)):
            ra = random_density(rng, dl)
            rb = random_density(rng, dr)
            joint = tensor_product(ra, rb)
            left = partial_trace(joint, dl, dr, keep="left")
            right = partial_trace(joint, dl, dr, keep="right")
            assert np.max(np.abs(left.matrix - ra)) <= 1e-12
            assert np.max(np.abs(right.matrix - rb)) <= 1e-12

    def test_bell_state(self):
        bell = np.zeros(4, dtype=complex)
        bell[0] = bell[3] = 1.0 / np.sqrt(2.0)
        reduced = partial_trace(DensityMatrix.pure(bell), 2, 2, keep="left")
        assert np.max(np.abs(reduced.matrix - np.eye(2) / 2)) < 1e-12

    def test_trace_preserved(self):
        rng = np.random.default_rng(2)
        rho = random_density(rng, 8)
        out = partial_trace(rho, 2, 4, keep="right")
        assert abs(np.trace(out.matrix).real - 1.0) <= 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            partial_trace(np.eye(6) / 6, 2, 4, keep="left")

    def test_bad_keep(self):
        with pytest.raises(OutOfRangeError, match="'middle'"):
            partial_trace(np.eye(4) / 4, 2, 2, keep="middle")


class TestEntropies:
    def test_pure_state_zero(self):
        assert von_neumann_entropy(DensityMatrix.pure([1.0, 0.0])) == 0.0

    def test_maximally_mixed(self):
        assert von_neumann_entropy(np.eye(2) / 2) == pytest.approx(1.0, abs=1e-12)
        assert von_neumann_entropy(np.eye(4) / 4) == pytest.approx(2.0, abs=1e-12)

    def test_unitary_invariance(self):
        rng = np.random.default_rng(3)
        rho = random_density(rng, 8)
        for seed in (0, 1, 2):
            u = random_unitary(8, seed)
            rotated = u @ rho @ u.conj().T
            assert abs(
                von_neumann_entropy(rho) - von_neumann_entropy(rotated)
            ) <= 1e-9

    @pytest.mark.parametrize("value", [1 + 1e-16, 1 - 2**-52, 1 + 2**-51])
    def test_one_by_one_state_zero(self, value):
        assert von_neumann_entropy(np.array([[value]])) == 0.0

    def test_trace_rounding_is_not_entropy(self):
        rho = np.diag([0.5, 0.5]) * (1 - 2**-50)
        assert von_neumann_entropy(rho) == 1.0

    def test_shannon_basics(self):
        assert shannon_entropy([0.5, 0.5]) == pytest.approx(1.0, abs=1e-15)
        assert shannon_entropy([1.0, 0.0]) == 0.0
        assert shannon_entropy([0.25] * 4) == pytest.approx(2.0, abs=1e-15)

    def test_shannon_clips_tiny_negatives(self):
        assert shannon_entropy([1.0, -1e-11, 1e-11]) == pytest.approx(0.0, abs=1e-9)

    def test_shannon_rejects_bad_sum(self):
        with pytest.raises(NotADistributionError):
            shannon_entropy([0.5, 0.6])

    @pytest.mark.parametrize("p", [[float("nan"), 1.0], [0.5, float("nan"), 0.5]])
    def test_shannon_rejects_non_finite(self, p):
        with pytest.raises(NotADistributionError):
            shannon_entropy(p)

    def test_shannon_rejects_big_negative(self):
        with pytest.raises(NotADistributionError):
            shannon_entropy([1.1, -0.1])

    @pytest.mark.parametrize("small", [1e-14, 1e-10, 1e-6])
    def test_small_entries_count(self, small):
        # every term -p log2 p counts, however small p is: a floor on p that
        # moves each entropy by less than 1e-12 still moves it by a share
        p = [1.0 - small, small]
        want = reference._h(p)
        assert shannon_entropy(p) == pytest.approx(want, rel=1e-12, abs=0.0)
        assert von_neumann_entropy(np.diag(p)) == pytest.approx(want, rel=1e-12, abs=0.0)

    def test_shannon_rows_match_one_row_calls(self):
        table = [[0.5, 0.5, 0.0], [0.25, 0.25, 0.5], [1.0, -1e-11, 1e-11]]
        got = shannon_entropies(table)
        assert got.shape == (3,)
        assert list(got) == [shannon_entropy(row) for row in table]

    @pytest.mark.parametrize(
        "bad_row", [[0.5, float("nan"), 0.5], [0.5, 0.6, 0.0], [1.1, -0.1, 0.0]]
    )
    def test_shannon_rows_reject_one_bad_row(self, bad_row):
        table = np.array([[0.5, 0.5, 0.0], bad_row, [0.25, 0.25, 0.5]])
        with pytest.raises(NotADistributionError):
            shannon_entropies(table)

    def test_spectral_rows_match_one_matrix_calls(self):
        rng = np.random.default_rng(8)
        states = [random_density(rng, 5) for _ in range(4)]
        w = np.stack([hermitian_eigenvalues(s) for s in states])
        rows = spectral_entropies(w)
        assert rows.shape == (4,)
        for h, s in zip(rows, states):
            assert h == von_neumann_entropy(s)

    def test_spectral_drops_non_positive_part(self):
        rows = spectral_entropies([[0.5, 0.5, 0.0, -1e-17], [0.0, 0.0, 0.0, 0.0]])
        assert rows[0] == 1.0
        assert rows[1] == 0.0

    def test_von_neumann_propagates_hermitian_check(self):
        with pytest.raises(NotHermitianError):
            von_neumann_entropy(np.array([[0.5, 1.0], [0.0, 0.5]]))


def unit_trace_vectors(rng, *shape):
    """Complex vectors of shape ``shape`` whose sum over the last two axes
    of |v|^2 is 1 per leading index, so each stack is a unit-trace state."""
    v = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    return v / np.sqrt(np.sum(np.abs(v) ** 2, axis=(-2, -1), keepdims=True))


INF, NAN = float("inf"), float("nan")
# (entries, message after the rows' name): one case per way to fail the
# probability rule, in the order the rule names them
BAD_PROBABILITIES = [
    ([NAN, 1.0], "non-finite entries"),
    ([INF, 0.0], "non-finite entries"),
    ([-INF, 1.0], "non-finite entries"),
    ([INF, -INF], "non-finite entries"),
    ([1.5, -0.5], "entry -5.000e-01 below -1e-10"),
    ([0.5, 0.4], "sum deviates from 1 by 1.000e-01, beyond 1e-09"),
]


class TestProbabilityRule:
    """``_check_probabilities``, reached through a distribution and through
    density spectra: each failure keeps its class and message, and none
    raises a RuntimeWarning on the way (``filterwarnings = error``)."""

    @pytest.mark.parametrize("p, message", BAD_PROBABILITIES)
    def test_error_distribution(self, p, message):
        with pytest.raises(NotADistributionError) as err:
            ErrorDistribution(1, p)
        assert str(err.value) == f"error probabilities: {message}"

    def test_error_distribution_empty(self):
        with pytest.raises(DimensionMismatchError) as err:
            ErrorDistribution(1, [])
        assert str(err.value) == "distribution has 0 entries, expected 2**n for qubit count 1"

    def test_error_distribution_at_the_tolerances(self):
        p = [1.0 + 5e-10, -linalg.TAU_PSD]
        assert list(ErrorDistribution(1, p).probs) == p

    @pytest.mark.parametrize("p, message", BAD_PROBABILITIES)
    def test_density_spectra_of_a_matrix(self, p, message):
        m = np.diag(p).astype(complex)
        if message == "non-finite entries":
            # a non-finite matrix never reaches its spectrum
            with pytest.raises(EigensolverError, match="^matrix has non-finite entries$"):
                density_spectra(m)
            return
        # one state, and a stack of 1 x 1 blocks read as one state
        for stack, union in ((m, False), (m.diagonal().reshape(-1, 1, 1), True)):
            with pytest.raises(InvalidStateError) as err:
                density_spectra(stack, union)
            assert str(err.value) == f"spectrum: {message}"

    @pytest.mark.parametrize("p, message", BAD_PROBABILITIES)
    def test_density_spectra_of_a_spectrum(self, monkeypatch, p, message):
        # the eigensolver's output itself, non-finite ones included
        monkeypatch.setattr(linalg, "_eigh", lambda m, want_vectors: (np.array(p[::-1]), None))
        with pytest.raises(InvalidStateError) as err:
            density_spectra(np.eye(2))
        assert str(err.value) == f"spectrum: {message}"

    @pytest.mark.parametrize("shape, union", [
        ((0, 0), False), ((0, 0), True), ((3, 0, 0), False), ((3, 0, 0), True), ((0, 2, 2), True),
    ])
    def test_density_spectra_empty_spectrum(self, shape, union):
        # an empty spectrum sums to 0, not 1
        with pytest.raises(InvalidStateError) as err:
            density_spectra(np.zeros(shape, dtype=complex), union)
        assert str(err.value) == "spectrum: sum deviates from 1 by 1.000e+00, beyond 1e-09"

    def test_density_spectra_of_no_states(self):
        assert density_spectra(np.zeros((0, 2, 2), dtype=complex)).shape == (0, 2)


class TestMixtureSpectra:
    def dense(self, v):
        return np.einsum("...rd,...re->...de", v, v.conj())

    def eigensolved(self, monkeypatch, v):
        """Spectra of ``v`` and the matrices handed to the eigensolver."""
        seen = []
        original = linalg._eigh

        def spy(a, want_vectors):
            seen.append(a)
            return original(a, want_vectors)

        monkeypatch.setattr(linalg, "_eigh", spy)
        w = mixture_spectra(v)
        assert len(seen) == 1  # one batched eigensolve for the whole stack
        return w, seen[0]

    @pytest.mark.parametrize("rows, dim", [(2, 5), (3, 8), (5, 2), (8, 3)])
    def test_matches_dense_spectra(self, rows, dim):
        v = unit_trace_vectors(np.random.default_rng(rows * dim), 4, rows, dim)
        w = mixture_spectra(v)
        assert w.shape == (4, min(rows, dim))
        for vi, wi in zip(v, w):
            dense = np.linalg.eigvalsh(self.dense(vi))[::-1]
            assert np.max(np.abs(wi - dense[: wi.size])) <= 1e-12
            assert np.max(np.abs(dense[wi.size:]), initial=0.0) <= 1e-12
            assert np.all(np.diff(wi) <= 0)

    def test_gram_side_when_rows_fewer(self, monkeypatch):
        v = unit_trace_vectors(np.random.default_rng(1), 3, 2, 6)
        w, m = self.eigensolved(monkeypatch, v)
        assert m.shape == (3, 2, 2)
        assert np.allclose(m, v @ v.conj().swapaxes(-1, -2), atol=1e-15)
        assert w.shape == (3, 2)

    def test_dense_side_when_dim_smaller(self, monkeypatch):
        v = unit_trace_vectors(np.random.default_rng(2), 3, 6, 2)
        w, m = self.eigensolved(monkeypatch, v)
        assert m.shape == (3, 2, 2)
        assert np.allclose(m, self.dense(v), atol=1e-15)

    def test_tie_takes_dense_side(self, monkeypatch):
        v = unit_trace_vectors(np.random.default_rng(3), 2, 4, 4)
        gram = v @ v.conj().swapaxes(-1, -2)
        _, m = self.eigensolved(monkeypatch, v)
        assert np.allclose(m, self.dense(v), atol=1e-15)
        assert not np.allclose(m, gram, atol=1e-3)

    def test_non_finite_stack_raises(self):
        v = unit_trace_vectors(np.random.default_rng(4), 3, 2, 4)
        v[1, 0, 2] = np.nan
        with pytest.raises(EigensolverError):
            mixture_spectra(v)

    def test_lapack_failure_is_named(self, monkeypatch):
        def fail(a):
            raise np.linalg.LinAlgError("did not converge")

        monkeypatch.setattr(np.linalg, "eigvalsh", fail)
        with pytest.raises(EigensolverError):
            mixture_spectra(unit_trace_vectors(np.random.default_rng(5), 2, 2, 3))

    @pytest.mark.parametrize("scale", [0.9, 1.1])
    def test_bad_trace_in_stack_raises(self, scale):
        v = unit_trace_vectors(np.random.default_rng(6), 3, 2, 4)
        v[2] *= np.sqrt(scale)
        with pytest.raises(InvalidStateError):
            mixture_spectra(v)

    def test_union_checks_the_stack_as_one_state(self):
        # blocks of one block-diagonal state: only their union has unit trace
        v = unit_trace_vectors(np.random.default_rng(7), 1, 6, 4).reshape(3, 2, 4)
        w = mixture_spectra(v, union=True)
        assert abs(w.sum() - 1.0) <= 1e-12
        with pytest.raises(InvalidStateError):
            mixture_spectra(v)
        with pytest.raises(InvalidStateError):
            mixture_spectra(np.sqrt(1.1) * v, union=True)

    def test_union_keeps_the_positivity_check(self):
        blocks = np.array([[[1.2]], [[-0.2]]], dtype=complex)
        with pytest.raises(InvalidStateError):
            density_spectra(blocks, union=True)


class TestMubTransform:
    def test_single_qubit_matrix(self):
        expected = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
        assert np.max(np.abs(mub_transform(1) - expected)) < 1e-15

    def test_involution(self):
        for n in range(1, 5):
            m = mub_transform(n)
            assert np.max(np.abs(m @ m - np.eye(1 << n))) <= 1e-12

    def test_entry_three_three(self):
        # i = k = 3 at n = 2: bit dot 1*1 + 1*1 = 0 mod 2, so +1/2
        assert mub_transform(2)[3, 3] == pytest.approx(0.5, abs=1e-16)

    def test_unbiasedness(self):
        for n in range(1, 5):
            m = mub_transform(n)
            assert np.max(np.abs(np.abs(m) ** 2 - 2.0 ** (-n))) < 1e-15

    def test_too_large(self):
        with pytest.raises(DimensionTooLargeError):
            mub_transform(N_MAX + 1)

    def test_too_small(self):
        with pytest.raises(OutOfRangeError):
            mub_transform(0)

    def test_not_an_integer(self):
        with pytest.raises(OutOfRangeError, match="not an integer"):
            mub_transform(2.5)
        assert np.array_equal(mub_transform(np.int64(2)), mub_transform(2))


@pytest.mark.parametrize("call", [
    lambda: ErrorDistribution(2.5, [1.0, 0.0]),
    lambda: ErrorDistribution(-1, [1.0]),
    lambda: random_unitary(2.5, 1),
    lambda: random_unitary(-1, 1),
    lambda: random_isometry(4.0, 2, 1),
    lambda: partial_trace(np.eye(4) / 4, 2.0, 2.0),
    lambda: partial_trace(np.eye(4) / 4, -2, -2),
    lambda: mix(3, "a"),
    lambda: mix(3, 2.5),
    lambda: mix(3, -1),
    lambda: mix(3, 2**64),
], ids=["distribution-float-n", "distribution-negative-n", "unitary-float-dim",
        "unitary-negative-dim", "isometry-float-rows", "partial-trace-float-dims",
        "partial-trace-negative-dims", "mix-string-part", "mix-float-part",
        "mix-negative-part", "mix-65-bit-part"])
def test_public_sizes_and_stream_parts_raise_named_errors(call):
    # each would reach 1 << n, np.arange or int() unchecked: a raw TypeError,
    # ValueError or OverflowError, or (mix(3, 2.5)) a silent mix(3, 2)
    with pytest.raises(OutOfRangeError):
        call()


def _identity_kraus():
    kraus = np.zeros((2, 2, 1), dtype=complex)
    kraus[0, 0, 0] = kraus[1, 1, 0] = 1.0
    return kraus


@pytest.mark.parametrize("call", [
    lambda: random_attack(True, True, False),
    lambda: AttackSpec("random_unitary", 1, eve_dim=2, seed=False),
    lambda: AttackSpec("probe_overlap", 1, params=(True,)),
    lambda: AttackSpec("identity", 1, eve_dim=True),  # equals the default 1
    lambda: AttackChannel(True, 1, _identity_kraus()),
    lambda: audit_attack(AttackChannel(1, 1, _identity_kraus()), True, False),
    lambda: SplitMix64(True),
    lambda: mix(True, 0),
], ids=["random-attack", "spec-seed", "spec-param", "spec-unread-eve-dim", "channel-n",
        "audit-samples", "stream-seed", "mix-seed"])
def test_booleans_are_not_numbers(call):
    # one number rule for documents and the Python API: True is not 1, so
    # no label reads seed=False and no probe angle is 1.0
    with pytest.raises(OutOfRangeError):
        call()


@pytest.mark.parametrize("call, error, message", [
    (lambda big: AttackSpec("probe_overlap", 1, params=(big,)), OutOfRangeError,
     "params[0] of over 4300 digits is not a finite real number"),
    (lambda big: AttackSpec("random_unitary", 1, eve_dim=big), DimensionTooLargeError,
     f"total dimension of over 4300 digits exceeds {MAX_TOTAL_DIM}"),
    (lambda big: random_attack(1, big, 0), DimensionTooLargeError,
     f"total dimension of over 4300 digits exceeds {MAX_TOTAL_DIM}"),
    (lambda big: SplitMix64(big), OutOfRangeError,
     "seed of over 4300 digits outside [0, 18446744073709551615]"),
    (lambda big: mix(0, big), OutOfRangeError,
     "mix part of over 4300 digits outside [0, 18446744073709551615]"),
    (lambda big: check_cell(big, 1), OutOfRangeError,
     f"qubit count of over 4300 digits outside [1, {N_MAX}]"),
    (lambda big: mub_transform(big), DimensionTooLargeError,
     f"qubit count of over 4300 digits exceeds {N_MAX}"),
    # sizes compared with the array's own shape, never shifted as 1 << n
    (lambda big: AttackChannel(big, 1, _identity_kraus()), DimensionMismatchError,
     "kraus table is (2, 2, 1), expected (2**n, 2**n, eve_dim) "
     "for qubit count of over 4300 digits and eve_dim 1"),
    (lambda big: ErrorDistribution(big, [1.0]), DimensionMismatchError,
     "distribution has 1 entries, expected 2**n for qubit count of over 4300 digits"),
    (lambda big: from_unitary(np.eye(4), [1.0, 0.0], big), DimensionMismatchError,
     "unitary dimension 4 is not a multiple of 2**n for qubit count of over 4300 digits"),
    (lambda big: partial_trace(np.eye(1), big, 1), DimensionMismatchError,
     "matrix is (1, 1), expected a square of side of over 4300 digits, "
     "the product of dimensions of over 4300 digits and 1"),
], ids=["spec-param", "spec-eve-dim", "random-attack", "stream-seed", "mix-part",
        "check-cell", "mub-transform", "channel-n", "distribution-n", "from-unitary-n",
        "partial-trace-dims"])
def test_integers_too_long_to_print(call, error, message):
    # Python prints no int of over sys.get_int_max_str_digits() digits, so
    # the message gives that limit in place of the digits
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)  # the default, which the messages quote
    try:
        with pytest.raises(error) as err:
            call(10**5000)
    finally:
        sys.set_int_max_str_digits(limit)
    assert str(err.value) == message


def test_index_range_without_forming_two_to_the_n():
    # 2**n is needed only for an index of more than n bits
    assert as_index(0, 10**5000) == 0
    assert as_index(2**64, 10**5000) == 2**64
    with pytest.raises(OutOfRangeError, match=r"index 4 outside \[0, 3\]"):
        as_index(4, 2)
