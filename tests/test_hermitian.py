"""Hermitian core: inertia, Stein solves, Schur complements, submatrix picks."""

import numpy as np
import pytest

from negsquares import (
    DEFAULT_TOL,
    HermitianMatrix,
    NumericsError,
    SteinData,
    TolerancePolicy,
    ValidationError,
    equilibrated_inertia,
    inertia,
    max_nonsingular_principal_submatrix,
    schur_complement,
    solve_stein,
    stein_series_sum,
)


def herm(entries) -> HermitianMatrix:
    return HermitianMatrix(np.array(entries, dtype=complex))


def rand_hermitian(rng, n, scale=1.0):
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return HermitianMatrix(scale * (a + a.conj().T) / 2)


class TestInertia:
    def test_identity(self):
        assert inertia(herm(np.eye(3))).as_tuple() == (0, 0, 3)

    def test_explicit_diagonal(self):
        assert inertia(herm(np.diag([1.0, -1.0]))).as_tuple() == (1, 0, 1)

    def test_rank_two_jump_block(self):
        # eigenvalues (1 +- sqrt(5))/2: exactly one negative
        assert inertia(herm([[1, 1], [1, 0]])).as_tuple() == (1, 0, 1)

    def test_zero_matrix(self):
        assert inertia(herm(np.zeros((4, 4)))).as_tuple() == (0, 4, 0)

    def test_absolute_policy(self):
        m = herm(np.diag([1e-6, -1e-6, 1.0]))
        assert inertia(m, TolerancePolicy.absolute(1e-3)).as_tuple() == (0, 2, 1)
        assert inertia(m, TolerancePolicy.absolute(1e-9)).as_tuple() == (1, 0, 2)

    def test_deterministic(self, rng):
        m = rand_hermitian(rng, 6)
        assert inertia(m) == inertia(m)

    def test_counts_sum_to_dim(self, rng):
        for n in (1, 3, 5, 8):
            m = rand_hermitian(rng, n)
            assert inertia(m).dim == n

    def test_sylvester_congruence(self, rng):
        for _ in range(20):
            n = int(rng.integers(2, 7))
            m = rand_hermitian(rng, n)
            w = np.linalg.eigvalsh(m.entries)
            tau = DEFAULT_TOL.threshold(w)
            if np.min(np.abs(w)) < 10 * tau:
                continue  # keep eigenvalues away from the classification boundary
            x = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            x += n * np.eye(n)  # comfortably invertible
            congruent = HermitianMatrix(x @ m.entries @ x.conj().T)
            assert inertia(congruent).as_tuple() == inertia(m).as_tuple()

    def test_principal_submatrix_monotonicity(self, rng):
        for _ in range(20):
            n = int(rng.integers(2, 7))
            m = rand_hermitian(rng, n)
            full = inertia(m).n_neg
            k = int(rng.integers(1, n))
            idx = rng.choice(n, size=k, replace=False)
            assert inertia(m.submatrix(idx)).n_neg <= full

    def test_limit_semicontinuity(self):
        # family M_t = diag(t, 1) - offdiag coupling -> M_0 with n_neg <= 1 throughout
        base = np.array([[0.0, 1.0], [1.0, 1.0]])
        limit = herm(base)
        for t in (1e-1, 1e-2, 1e-4, 1e-8):
            m = herm(base + np.diag([-t, 0.0]))
            assert inertia(m).n_neg <= 1
        assert inertia(limit).n_neg <= 1

    def test_equilibrated_matches_plain_counts(self, rng):
        for _ in range(20):
            m = rand_hermitian(rng, int(rng.integers(1, 7)))
            w = np.linalg.eigvalsh(m.entries)
            if np.min(np.abs(w)) < 10 * DEFAULT_TOL.threshold(w):
                continue
            assert equilibrated_inertia(m).as_tuple() == inertia(m).as_tuple()

    def test_equilibrated_rescues_scale_split(self):
        # a tiny genuine negative living beside a huge positive block
        m = herm(np.diag([1e12, 1.0, -1e-3]))
        assert equilibrated_inertia(m).as_tuple() == (1, 0, 2)


class TestHermitianMatrix:
    def test_symmetrization_records_residual(self):
        a = np.array([[1.0, 1.0 + 1e-10j], [1.0, 2.0]], dtype=complex)
        m = HermitianMatrix(a)
        assert m.asymmetry > 0
        assert np.allclose(m.entries, m.entries.conj().T)

    def test_rejects_gross_asymmetry(self):
        with pytest.raises(ValidationError):
            HermitianMatrix(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_rejects_nonsquare(self):
        with pytest.raises(ValidationError):
            HermitianMatrix(np.zeros((2, 3)))


class TestSolveStein:
    def test_scalar_geometric(self):
        k = solve_stein(SteinData(np.array([[0.5]]), herm([[1.0]])))
        assert abs(k.entries[0, 0] - 4.0 / 3.0) < 1e-12

    def test_nilpotent_jordan_block(self):
        a = np.array([[0.0, 0.0], [1.0, 0.0]])
        e = np.array([1.0, 0.0])
        k = solve_stein(SteinData(a, herm(np.outer(e, e))))
        assert np.allclose(k.entries, np.eye(2), atol=1e-13)

    def test_diagonal_closed_form(self):
        w = np.array([0.3 + 0.2j, -0.5 + 0.1j])
        a = np.diag(w)
        k = solve_stein(SteinData(a, herm(np.ones((2, 2)))))
        want = 1.0 / (1.0 - np.outer(w, w.conj()))
        assert np.max(np.abs(k.entries - want)) < 1e-12
        series = stein_series_sum(a, np.ones((2, 2)))
        assert np.max(np.abs(k.entries - series)) < 1e-12

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the powers of A overflow
    @pytest.mark.parametrize("a", [np.eye(2), 2.0 * np.eye(2), [[1.5, 1.5], [0.0, 1.5]]])
    def test_series_diverges_with_typed_error(self, a):
        with pytest.raises(NumericsError, match="64 squarings"):
            stein_series_sum(np.array(a), np.eye(2))

    def test_residual_contract(self, rng):
        for _ in range(10):
            n = int(rng.integers(1, 7))
            a = 0.8 * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(n) / 2
            rhs = rand_hermitian(rng, n)
            data = SteinData(a, rhs)
            k = solve_stein(data)
            resid = np.max(np.abs(k.entries - a @ k.entries @ a.conj().T - rhs.entries))
            assert resid <= 1e-11 * (1 + np.max(np.abs(rhs.entries)))

    def test_hermitian_and_positive_for_observable_pair(self):
        # lower Jordan block at 0.4 with leading unit vector: observable pair
        a = np.array([[0.4, 0.0], [1.0, 0.4]], dtype=complex)
        e = np.array([1.0, 0.0])
        k = solve_stein(SteinData(a, herm(np.outer(e, e.conj()))))
        assert np.max(np.abs(k.entries - k.entries.conj().T)) == 0.0
        assert np.min(np.linalg.eigvalsh(k.entries)) > 0

    def test_spectral_radius_precondition(self):
        with pytest.raises(ValidationError):
            SteinData(np.array([[1.0]]), herm([[1.0]]))


class TestSchurComplement:
    def test_two_by_two(self):
        comp, combined = schur_complement(herm([[1, 1], [1, 0]]), 1)
        assert np.allclose(comp.entries, [[-1.0]])
        assert combined.as_tuple() == (1, 0, 1)

    def test_entire_matrix_block(self):
        m = herm([[1, 1], [1, 0]])
        comp, combined = schur_complement(m, 2)
        assert comp.dim == 0
        assert combined.as_tuple() == inertia(m).as_tuple()

    def test_additivity_random(self, rng):
        hits = 0
        while hits < 10:
            m = rand_hermitian(rng, 6)
            try:
                _, combined = schur_complement(m, 3)
            except ValidationError:
                continue
            hits += 1
            assert combined.as_tuple() == inertia(m).as_tuple()

    def test_singular_block_rejected(self):
        m = herm(np.diag([0.0, 1.0]))
        with pytest.raises(ValidationError, match="principal submatrix"):
            schur_complement(m, 1)


class TestMaxNonsingularPrincipalSubmatrix:
    def test_rank_one_diagonal(self):
        assert max_nonsingular_principal_submatrix(herm(np.diag([1.0, 0.0]))) == [0]

    def test_rank_one_ones(self):
        idx = max_nonsingular_principal_submatrix(herm(np.ones((2, 2))))
        assert idx in ([0], [1])

    def test_jump_structure_rank_two(self):
        # ones in first row/column, zeros elsewhere: rank 2
        n = 4
        m = np.zeros((n, n))
        m[0, :] = 1.0
        m[:, 0] = 1.0
        idx = max_nonsingular_principal_submatrix(herm(m))
        assert len(idx) == 2 and 0 in idx
        sub = herm(m).submatrix(idx)
        assert np.allclose(sub.entries, [[1, 1], [1, 0]])

    def test_zero_matrix(self):
        assert max_nonsingular_principal_submatrix(herm(np.zeros((3, 3)))) == []

    def test_zero_diagonal_needs_pair(self):
        m = herm([[0, 1], [1, 0]])
        assert max_nonsingular_principal_submatrix(m) == [0, 1]

    def test_preserves_negative_count(self, rng):
        for _ in range(20):
            n = int(rng.integers(2, 7))
            r = int(rng.integers(1, n + 1))
            basis = rng.standard_normal((n, r)) + 1j * rng.standard_normal((n, r))
            signs = np.diag(rng.choice([-1.0, 1.0], size=r))
            m = HermitianMatrix(basis @ signs @ basis.conj().T)
            idx = max_nonsingular_principal_submatrix(m)
            full = inertia(m)
            assert len(idx) == full.rank
            sub = inertia(m.submatrix(idx))
            assert sub.n_neg == full.n_neg
            assert sub.n_zero == 0
