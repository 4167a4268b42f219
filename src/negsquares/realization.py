"""State-space machinery around Pick matrices.

A node set with invertible Pick matrix P, node diagonal T and data rows
(1, f(z_i)) satisfies the Stein identity P - T P T* = F J F* for the
signature J = diag(1, -1).  Out of that data comes the rational 2x2 matrix

    Theta(z) = I - (1 - z) F* (I - z T*)^-1 P^-1 (I - T)^-1 F J,

which is J-unitary on the circle and reproduces the kernel through

    J - Theta(z) J Theta(w)* = (1 - z conj(w)) F* (I - z T*)^-1 P^-1 (I - conj(w) T)^-1 F.

The linear-fractional transform with coefficient matrix Theta links f to a
Schur parameter sigma and back.  Blaschke products get the analogous
one-sided realization from a cascade of unitary degree-one sections, whose
Gram matrix is the identity.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .functions import BlaschkeProduct, PointConfig, StandardFunction, UnitDiskPoint
from .hermitian import (
    DEFAULT_TOL,
    HermitianMatrix,
    NumericsError,
    TolerancePolicy,
    ValidationError,
    _spectrum,
)
from .pick import _STACK_ENTRIES, build_pick

__all__ = [
    "SIGNATURE_J",
    "SingularPickError",
    "ExtensionPoleError",
    "ThetaRealization",
    "build_theta",
    "theta_kernel_residual",
    "extract_sigma",
    "reconstruct_f",
    "BlaschkeRealization",
    "realize_blaschke",
]

SIGNATURE_J = np.diag([1.0, -1.0])
SIGNATURE_J.flags.writeable = False


def _resolvent_solve(m: np.ndarray, z: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """(I - z M)^-1 rhs, n x k, at each z of a 1-d array, solved in stacks under
    _STACK_ENTRIES entries; each is bit for bit its one-point solve.  ``rhs[None]``
    stays a matrix, not a stack of vectors, under every numpy version."""
    n = len(m)
    rows = max(1, (_STACK_ENTRIES - 1) // n**2)
    return np.concatenate([np.linalg.solve(np.eye(n) - z[i:i + rows, None, None] * m, rhs[None])
                           for i in range(0, len(z) or 1, rows)])


class SingularPickError(ValidationError):
    """Pick matrix at the requested nodes is numerically singular."""


class ExtensionPoleError(NumericsError):
    """The reconstructed extension has a pole at the requested point."""


@dataclass(frozen=True)
class ThetaRealization:
    """Node-relative realization data (T, P, F, J) with a verified Stein identity."""

    nodes: PointConfig
    t: np.ndarray
    p: HermitianMatrix
    f_data: np.ndarray
    stein_residual: float = field(default=0.0, compare=False)

    def __post_init__(self):
        n = len(self.nodes)
        t = np.asarray(self.t, dtype=complex)
        fd = np.asarray(self.f_data, dtype=complex)
        if t.shape != (n, n) or fd.shape != (n, 2):
            raise ValidationError(
                f"shape mismatch: T {t.shape}, data {fd.shape} for {n} nodes"
            )
        p = self.p.entries
        resid = float(np.max(np.abs(p - t @ p @ t.conj().T - fd @ SIGNATURE_J @ fd.conj().T)))
        bound = 1e-11 * (1.0 + float(np.max(np.abs(p))))
        if resid > bound:
            raise NumericsError(
                f"Stein identity residual {resid:.3e} exceeds contract {bound:.3e}"
            )
        eigs = np.abs(_spectrum(p)[0])
        if float(np.min(eigs)) <= 1e-10 * float(np.max(eigs)):
            raise SingularPickError(
                "Pick matrix is numerically singular; reduce the node set with "
                "max_nonsingular_principal_submatrix before building the realization"
            )
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "f_data", fd)
        object.__setattr__(self, "stein_residual", resid)

    @property
    def dim(self) -> int:
        return len(self.nodes)

    def left_chain(self, z) -> np.ndarray:
        """F* (I - z T*)^-1 as a 2 x n matrix, one per entry of an array z."""
        z = np.asarray(z, dtype=complex)
        # the transposed system: (I - z T*)^T = I - z conj(T)
        chain = _resolvent_solve(self.t.conj(), z.ravel(), self.f_data.conj())
        return chain.swapaxes(-1, -2).reshape(z.shape + (2, self.dim))

    def eval(self, z) -> np.ndarray:
        """Theta(z) as a 2x2 array, one per entry of an array z."""
        z = np.asarray(z, dtype=complex)
        n = self.dim
        right = np.linalg.solve(self.p.entries, np.linalg.solve(np.eye(n) - self.t, self.f_data))
        return np.eye(2) - (1.0 - z)[..., None, None] * self.left_chain(z) @ right @ SIGNATURE_J

    def eval_inverse(self, z) -> np.ndarray:
        """Theta(z)^-1 by the symmetry principle, valid off the node set."""
        z = complex(z)
        n = self.dim
        left = np.linalg.solve((np.eye(n) - self.t.conj().T).T, self.f_data.conj()).T
        right = np.linalg.solve(
            self.p.entries, np.linalg.solve(z * np.eye(n) - self.t, self.f_data)
        )
        return np.eye(2) + (1.0 - z) * left @ right @ SIGNATURE_J


def build_theta(
    f: StandardFunction,
    nodes: PointConfig,
    tol: TolerancePolicy = DEFAULT_TOL,
) -> ThetaRealization:
    """Realization from the Pick data of ``f`` at ``nodes``.

    The Pick matrix must be invertible; singular node sets raise with a
    pointer to the principal-submatrix reduction.
    """
    result = build_pick(f, nodes, tol)
    z = nodes.values()
    t = np.diag(z)
    fd = np.column_stack([np.ones(len(z), dtype=complex), f.eval_many(z)])
    return ThetaRealization(nodes, t, result.matrix, fd)


def theta_kernel_residual(theta: ThetaRealization, z, w):
    """max-entry gap between J - Theta(z) J Theta(w)* and its resolvent form.

    A float for scalar z and w, else the table of shape z.shape + w.shape."""
    z, w = np.asarray(z, dtype=complex), np.asarray(w, dtype=complex)
    zs, ws = z.ravel(), w.ravel()
    thw = theta.eval(ws).conj().swapaxes(-1, -2)
    lhs = SIGNATURE_J - theta.eval(zs)[:, None] @ SIGNATURE_J @ thw
    rightc = theta.left_chain(ws).conj().swapaxes(-1, -2)  # (I - conj(w) T)^-1 F
    scale = (1.0 - np.multiply.outer(zs, ws.conj()))[..., None, None]
    rhs = scale * (theta.left_chain(zs)[:, None] @ np.linalg.solve(theta.p.entries, rightc))
    gap = np.max(np.abs(lhs - rhs), axis=(-2, -1)).reshape(z.shape + w.shape)
    return float(gap) if gap.ndim == 0 else gap


def extract_sigma(theta: ThetaRealization, f: StandardFunction, z) -> complex:
    """Schur parameter sigma(z) = (t12 - f t22) / (t21 f - t11).

    The denominator is nonzero off the node set; values this close to zero
    mean the point is effectively a node or the realization broke down.
    The result is certified against the unit bound.
    """
    z = complex(z)
    fv = f.eval(z)
    th = theta.eval(z)
    d = th[1, 0] * fv - th[0, 0]
    if abs(d) <= 1e-12:
        raise NumericsError(
            f"linear-fractional denominator {abs(d):.3e} at {z}; "
            "the point is numerically at a realization node"
        )
    sigma = (th[0, 1] - fv * th[1, 1]) / d
    if abs(sigma) > 1.0 + 1e-9:
        raise NumericsError(
            f"extracted parameter has modulus {abs(sigma):.12g} > 1 + 1e-9 at {z}; "
            "the realization nodes do not attain the negative-square count"
        )
    return complex(sigma)


def reconstruct_f(theta: ThetaRealization, sigma_value: complex, z) -> complex:
    """Meromorphic representative (t11 sigma + t12) / (t21 sigma + t22) at z."""
    z = complex(z)
    th = theta.eval(z)
    s = complex(sigma_value)
    denom = th[1, 0] * s + th[1, 1]
    if abs(denom) <= 1e-12:
        raise ExtensionPoleError(f"reconstructed extension has a pole at {z}")
    return complex((th[0, 0] * s + th[0, 1]) / denom)


# ---------------------------------------------------------------------------
# Blaschke realizations


@dataclass(frozen=True)
class BlaschkeRealization:
    """One-sided realization of a normalized finite Blaschke product.

    The Gram matrix K solves K - A K A* = E E*; observability of the pair
    makes it positive definite.  Evaluation reproduces the product
    normalized to take the value 1 at 1.  ``realize_blaschke`` builds the
    orthonormal (Takenaka-Malmquist) coordinates, in which K is the identity.
    """

    zeros: tuple[tuple[UnitDiskPoint, int], ...]
    a: np.ndarray
    e: np.ndarray
    k: HermitianMatrix

    def __post_init__(self):
        a = np.asarray(self.a, dtype=complex)
        e = np.asarray(self.e, dtype=complex).reshape(-1)
        n = a.shape[0]
        if e.shape != (n,) or self.k.dim != n:
            raise ValidationError("realization dimensions are inconsistent")
        eigs, _ = _spectrum(self.k.entries)
        if float(np.min(eigs)) <= 0.0:
            raise NumericsError("Gram matrix of the realization is not positive definite")
        obs = np.zeros((n, n), dtype=complex)
        row = e.conj().copy()
        for i in range(n):
            obs[i] = row
            row = row @ a.conj().T
        if np.linalg.matrix_rank(obs) < n:
            raise NumericsError("realization pair is not observable")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "e", e)

    @property
    def degree(self) -> int:
        return self.a.shape[0]

    def eval(self, z):
        """b(z) = 1 + (z - 1) E* (I - z A*)^-1 K^-1 (I - A)^-1 E, entrywise on an array z."""
        z = np.asarray(z, dtype=complex)
        n = self.degree
        right = np.linalg.solve(self.k.entries, np.linalg.solve(np.eye(n) - self.a, self.e))
        chain = _resolvent_solve(self.a.conj().T, z.ravel(), right[:, None])
        b = 1.0 + (z - 1.0) * (self.e.conj() @ chain).reshape(z.shape)
        return complex(b) if b.ndim == 0 else b

    def kernel_residual(self, z, w):
        """Gap in 1 - b(z) conj(b(w)) = (1 - z conj(w)) E* (I-zA*)^-1 K^-1 (I-conj(w)A)^-1 E.

        A float for scalar z and w, else the table of shape z.shape + w.shape."""
        z, w = np.asarray(z, dtype=complex), np.asarray(w, dtype=complex)
        lhs = 1.0 - np.multiply.outer(self.eval(z), np.conj(self.eval(w)))
        # rows E* (I - z A*)^-1 by the transposed systems, columns K^-1 (I - conj(w) A)^-1 E
        rows = _resolvent_solve(self.a.conj(), z.ravel(), self.e.conj()[:, None])
        cols = _resolvent_solve(self.a, w.conj().ravel(), self.e[:, None])
        cols = np.linalg.solve(self.k.entries, cols)
        dots = (rows.swapaxes(-1, -2)[:, None] @ cols).reshape(lhs.shape)
        gap = np.abs(lhs - (1.0 - np.multiply.outer(z, w.conj())) * dots)
        return float(gap) if gap.ndim == 0 else gap


def realize_blaschke(zeros) -> BlaschkeRealization:
    """Realize the value-1-at-1 Blaschke product with the given zeros.

    ``zeros`` is an iterable of (point, multiplicity).  Each zero w, counted
    with multiplicity, contributes the unitary section [[conj(w), s], [s, -w]]
    with s = sqrt(1 - |w|^2), and the sections are connected in series (the
    Takenaka-Malmquist basis).  The cascade's colligation, with state matrix
    A_c and output row C_c, is unitary, so A = A_c*, E = conj(C_c) and K = I
    satisfy K - A K A* = E E* exactly: no Stein equation is solved.
    """
    product = BlaschkeProduct(tuple(zeros), 1.0)  # merges duplicates, validates
    if product.degree == 0:
        raise ValidationError("realization needs at least one zero")
    ws = [w.value for w, mult in product.zeros for _ in range(mult)]
    n = len(ws)
    a_c = np.zeros((n, n), dtype=complex)
    c_c = np.zeros(n, dtype=complex)
    for i, w in enumerate(ws):
        # section i takes the output of sections 0..i-1 as its input
        s = np.sqrt(1.0 - abs(w) ** 2)
        a_c[i, :i] = s * c_c[:i]
        a_c[i, i] = np.conj(w)
        c_c[:i] *= -w
        c_c[i] = s
    k = HermitianMatrix(np.eye(n, dtype=complex))
    return BlaschkeRealization(product.zeros, a_c.conj().T, c_c.conj(), k)
