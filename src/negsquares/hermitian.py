"""Dense complex Hermitian matrix services.

Inertia (signature) computation under an explicit tolerance policy,
Stein equation solving, Schur complements and nonsingular principal
submatrix extraction.  Everything downstream (Pick matrices, witness
verification, state-space realizations) sits on top of this module.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "NegSquaresError",
    "ValidationError",
    "NumericsError",
    "EigenSolverError",
    "TolerancePolicy",
    "DEFAULT_TOL",
    "HermitianMatrix",
    "Inertia",
    "SteinData",
    "inertia",
    "equilibrated_inertia",
    "solve_stein",
    "stein_series_sum",
    "schur_complement",
    "max_nonsingular_principal_submatrix",
]


class NegSquaresError(Exception):
    """Base class for all library errors."""


class ValidationError(NegSquaresError):
    """Input violates a documented precondition or invariant."""


class NumericsError(NegSquaresError):
    """A numerical contract (residual bound, certified inequality) was breached."""


class EigenSolverError(NumericsError):
    """Eigenvalue solver failed to converge; carries dimension diagnostics."""

    def __init__(self, dim: int, detail: str = ""):
        self.dim = dim
        super().__init__(f"eigenvalue solver failed on {dim}x{dim} Hermitian matrix {detail}")


# ---------------------------------------------------------------------------
# tolerance policy


@dataclass(frozen=True)
class TolerancePolicy:
    """Zero-classification threshold for eigenvalues of a Hermitian matrix.

    ``relative`` policies scale with the spectral norm of the matrix at
    hand (largest eigenvalue magnitude), ``absolute`` ones do not.
    The default is relative 1e-9: Pick matrices of rank-deficient kernels
    carry exact zero eigenvalues that must classify as zero, not negative.
    """

    kind: str  # "relative" | "absolute"
    value: float

    def __post_init__(self):
        if self.kind not in ("relative", "absolute"):
            raise ValidationError(f"unknown tolerance kind {self.kind!r}")
        if not (self.value >= 0.0 and np.isfinite(self.value)):
            raise ValidationError(f"tolerance value must be finite and >= 0, got {self.value}")

    @classmethod
    def relative(cls, value: float = 1e-9) -> "TolerancePolicy":
        return cls("relative", value)

    @classmethod
    def absolute(cls, value: float) -> "TolerancePolicy":
        return cls("absolute", value)

    def threshold(self, eigenvalues: np.ndarray):
        """Realized absolute threshold tau for a spectrum, or one per row of a stack of spectra."""
        if eigenvalues.ndim > 1 and self.kind == "absolute":
            return np.full(eigenvalues.shape[:-1], self.value)
        if eigenvalues.ndim > 1:
            return self.value * np.max(np.abs(eigenvalues), axis=-1, initial=0.0)
        if self.kind == "absolute":
            return self.value
        scale = float(np.max(np.abs(eigenvalues))) if len(eigenvalues) else 0.0
        return self.value * scale


DEFAULT_TOL = TolerancePolicy.relative(1e-9)


# ---------------------------------------------------------------------------
# domain types


@dataclass(frozen=True)
class HermitianMatrix:
    """Square complex matrix with entry(i,j) == conj(entry(j,i)) enforced.

    Construction averages the input with its adjoint and records the
    asymmetry residual max|A - A*|/2 for diagnostics.  Residuals above
    1e-8 * max|A| are rejected: that is roundoff no more.
    """

    entries: np.ndarray
    asymmetry: float = field(default=0.0, compare=False)

    def __post_init__(self):
        a = np.array(self.entries, dtype=complex)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValidationError(f"expected a square matrix, got shape {a.shape}")
        scale = float(np.max(np.abs(a))) if a.size else 0.0
        resid = float(np.max(np.abs(a - a.conj().T)) / 2.0) if a.size else 0.0
        # the absolute floor keeps noise-level matrices (scale ~ machine eps)
        # from tripping a relative comparison between two roundoff artifacts
        if resid > 1e-8 * scale + 1e-14:
            raise ValidationError(
                f"asymmetry residual {resid:.3e} exceeds 1e-8 * scale ({scale:.3e}); "
                "input is not Hermitian up to roundoff"
            )
        sym = (a + a.conj().T) / 2.0
        sym.flags.writeable = False
        object.__setattr__(self, "entries", sym)
        object.__setattr__(self, "asymmetry", resid)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    def submatrix(self, indices) -> "HermitianMatrix":
        idx = np.asarray(list(indices), dtype=int)
        return HermitianMatrix(self.entries[np.ix_(idx, idx)])

    def norm_max(self) -> float:
        return float(np.max(np.abs(self.entries))) if self.entries.size else 0.0


@dataclass(frozen=True)
class Inertia:
    """Eigenvalue counts (negative, zero, positive) under a realized threshold."""

    n_neg: int
    n_zero: int
    n_pos: int
    tol_used: float = field(default=0.0, compare=False)

    def __post_init__(self):
        if min(self.n_neg, self.n_zero, self.n_pos) < 0:
            raise ValidationError("inertia counts must be nonnegative")

    @property
    def dim(self) -> int:
        return self.n_neg + self.n_zero + self.n_pos

    @property
    def rank(self) -> int:
        return self.n_neg + self.n_pos

    @classmethod
    def from_spectrum(cls, w: np.ndarray, tau: float) -> "Inertia":
        """Counts of eigenvalues below -tau, within [-tau, tau], above tau."""
        return cls(
            int(np.sum(w < -tau)),
            int(np.sum(np.abs(w) <= tau)),
            int(np.sum(w > tau)),
            tau,
        )

    def as_tuple(self) -> tuple[int, int, int]:
        return (self.n_neg, self.n_zero, self.n_pos)

    def __add__(self, other: "Inertia") -> "Inertia":
        return Inertia(
            self.n_neg + other.n_neg,
            self.n_zero + other.n_zero,
            self.n_pos + other.n_pos,
            max(self.tol_used, other.tol_used),
        )


@dataclass(frozen=True)
class SteinData:
    """Data (A, RHS) of the Stein equation K - A K A* = RHS.

    The state matrix must have spectral radius strictly below one,
    checked via eigenvalue moduli <= 1 - 1e-12.
    """

    a: np.ndarray
    rhs: HermitianMatrix

    def __post_init__(self):
        a = np.array(self.a, dtype=complex)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValidationError(f"state matrix must be square, got shape {a.shape}")
        if a.shape[0] != self.rhs.dim:
            raise ValidationError(
                f"dimension mismatch: state {a.shape[0]}, right-hand side {self.rhs.dim}"
            )
        rho = float(np.max(np.abs(np.linalg.eigvals(a)))) if a.size else 0.0
        if rho > 1.0 - 1e-12:
            raise ValidationError(
                f"spectral radius {rho:.15f} of the state matrix is not strictly below 1"
            )
        a.flags.writeable = False
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "spectral_radius", rho)

    spectral_radius: float = field(default=0.0, compare=False)


# ---------------------------------------------------------------------------
# operations


def _spectrum(entries: np.ndarray, tol: TolerancePolicy = DEFAULT_TOL) -> tuple[np.ndarray, float]:
    """Ascending eigenvalues of a Hermitian array and the realized threshold tau.

    The one eigensolve of the package: every count, rank and spectral
    bound goes through here, so a solver failure is always typed.  A stack
    (B, n, n) gives B spectra and one tau per matrix, each equal bit for
    bit to the solve of that matrix alone.
    """
    try:
        w = np.linalg.eigvalsh(entries)
    except np.linalg.LinAlgError as exc:
        raise EigenSolverError(entries.shape[-1], f"({exc})") from exc
    return w, tol.threshold(w)


def inertia(matrix: HermitianMatrix, tol: TolerancePolicy = DEFAULT_TOL) -> Inertia:
    """Counts of eigenvalues below -tau, within [-tau, tau], above tau.

    Deterministic for fixed input; the realized tau is recorded on the
    result.  Eigenvalue based; this is the reference path against which
    any faster factorization would have to agree.
    """
    return Inertia.from_spectrum(*_spectrum(matrix.entries, tol))


def equilibrated_inertia(matrix: HermitianMatrix, tol: TolerancePolicy = DEFAULT_TOL) -> Inertia:
    """Inertia of D M D for the Jacobi scaling D = diag(1/sqrt(max(|m_ii|, 1))).

    The counts equal those of M exactly (congruence), but the scaled matrix
    compresses diagonal blocks living on wildly different magnitudes, so a
    relative threshold no longer swallows the small blocks.  Used for Pick
    matrices whose nodes cluster near poles of different multiplicities.
    """
    d = 1.0 / np.sqrt(np.maximum(np.abs(np.diag(matrix.entries)), 1.0))
    scaled = matrix.entries * np.outer(d, d)
    return Inertia.from_spectrum(*_spectrum((scaled + scaled.conj().T) / 2.0, tol))


def solve_stein(data: SteinData) -> HermitianMatrix:
    """Unique solution K of K - A K A* = RHS.

    Solved as the dense linear system (I - conj(A) (x) A) vec(K) = vec(RHS)
    in column-major vectorization.  The method is free; the contract is the
    residual bound max|K - A K A* - RHS| <= 1e-11 * (1 + max|RHS|).
    """
    a = data.a
    n = a.shape[0]
    rhs = data.rhs.entries
    if n == 0:
        return HermitianMatrix(np.zeros((0, 0)))
    system = np.eye(n * n, dtype=complex) - np.kron(a.conj(), a)
    vec = np.linalg.solve(system, rhs.flatten(order="F"))
    k = vec.reshape((n, n), order="F")
    k = (k + k.conj().T) / 2.0
    resid = float(np.max(np.abs(k - a @ k @ a.conj().T - rhs)))
    bound = 1e-11 * (1.0 + float(np.max(np.abs(rhs))))
    if resid > bound:
        raise NumericsError(
            f"Stein solve residual {resid:.3e} exceeds contract {bound:.3e} "
            f"(dim {n}, spectral radius {data.spectral_radius:.6f})"
        )
    return HermitianMatrix(k)


def stein_series_sum(
    a: np.ndarray,
    rhs: np.ndarray,
    tol: float = 1e-14,
    max_terms: int = 100_000,
) -> np.ndarray:
    """Truncated series sum_j A^j RHS (A*)^j, an independent slow oracle."""
    a = np.asarray(a, dtype=complex)
    term = np.asarray(rhs, dtype=complex)
    total = term.copy()
    scale = max(float(np.max(np.abs(rhs))), 1.0)
    for _ in range(max_terms):
        term = a @ term @ a.conj().T
        total += term
        if np.max(np.abs(term)) < tol * scale:
            return total
    raise NumericsError(f"Stein series did not converge within {max_terms} terms")


def schur_complement(
    matrix: HermitianMatrix,
    head: int,
    tol: TolerancePolicy = DEFAULT_TOL,
) -> tuple[HermitianMatrix, Inertia]:
    """Schur complement of the leading principal block of size ``head``.

    For the partition [[B, C*], [C, D]] returns (D - C B^-1 C*,
    inertia(B) + inertia(complement)); the sum reproduces the inertia of
    the whole matrix (congruence additivity).  The leading block must be
    invertible: its smallest singular value has to clear the realized
    threshold.
    """
    n = matrix.dim
    if not 0 <= head <= n:
        raise ValidationError(f"block size {head} out of range for dimension {n}")
    if head == 0:
        return matrix, inertia(matrix, tol)
    _, tau = _spectrum(matrix.entries, tol)
    b = matrix.entries[:head, :head]
    smin = float(np.min(np.linalg.svd(b, compute_uv=False)))
    if smin <= tau:
        raise ValidationError(
            f"leading {head}x{head} block is numerically singular "
            f"(smallest singular value {smin:.3e} <= tau {tau:.3e}); "
            "select a nonsingular principal submatrix first "
            "(max_nonsingular_principal_submatrix)"
        )
    head_inertia = inertia(HermitianMatrix(b), tol)
    if head == n:
        return HermitianMatrix(np.zeros((0, 0))), head_inertia
    c = matrix.entries[head:, :head]
    d = matrix.entries[head:, head:]
    comp = HermitianMatrix(d - c @ np.linalg.solve(b, c.conj().T))
    return comp, head_inertia + inertia(comp, tol)


def max_nonsingular_principal_submatrix(
    matrix: HermitianMatrix,
    tol: TolerancePolicy = DEFAULT_TOL,
) -> list[int]:
    """Indices of an invertible principal submatrix of size rank(matrix).

    Greedy pivoting on successive Schur complements with 1x1 pivots where a
    usable diagonal entry exists and 2x2 pivots otherwise (a Hermitian matrix
    of nonzero rank may have an all-zero diagonal).  The selected submatrix
    carries the same negative eigenvalue count as the whole matrix: the
    complementary Schur complement vanishes at full rank.
    """
    n = matrix.dim
    if n == 0:
        return []
    w, tau = _spectrum(matrix.entries, tol)
    target = Inertia.from_spectrum(w, tau).rank
    chosen: list[int] = []
    remaining = list(range(n))
    work = np.array(matrix.entries, dtype=complex)

    def eliminate(block_idx: list[int]):
        nonlocal work, remaining
        local = [remaining.index(i) for i in block_idx]
        rest = [j for j in range(len(remaining)) if j not in local]
        b = work[np.ix_(local, local)]
        c = work[np.ix_(rest, local)]
        d = work[np.ix_(rest, rest)]
        work = d - c @ np.linalg.solve(b, c.conj().T)
        remaining = [remaining[j] for j in rest]

    while len(chosen) < target and remaining:
        diag = np.abs(np.diag(work))
        j = int(np.argmax(diag))
        if diag[j] > tau:
            idx = remaining[j]
            chosen.append(idx)
            eliminate([idx])
            continue
        # all diagonal entries are numerically zero: pick the largest
        # off-diagonal pair, whose 2x2 principal minor is -|m_ij|^2 != 0
        m = len(remaining)
        if m < 2:
            break
        off = np.abs(work - np.diag(np.diag(work)))
        i, j = np.unravel_index(int(np.argmax(off)), off.shape)
        if off[i, j] <= tau:
            break  # remainder is numerically zero
        pair = [remaining[int(i)], remaining[int(j)]]
        chosen.extend(pair)
        eliminate(pair)

    chosen.sort()
    return chosen
