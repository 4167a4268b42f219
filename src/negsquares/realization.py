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
from .pick import build_pick

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

    def left_chain(self, z: complex) -> np.ndarray:
        """F* (I - z T*)^-1 as a 2 x n matrix."""
        n = self.dim
        return np.linalg.solve(
            (np.eye(n) - z * self.t.conj().T).T, self.f_data.conj()
        ).T

    def eval(self, z) -> np.ndarray:
        """Theta(z) as a 2x2 array."""
        z = complex(z)
        n = self.dim
        left = self.left_chain(z)
        right = np.linalg.solve(self.p.entries, np.linalg.solve(np.eye(n) - self.t, self.f_data))
        return np.eye(2) - (1.0 - z) * left @ right @ SIGNATURE_J

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


def theta_kernel_residual(theta: ThetaRealization, z, w) -> float:
    """max-entry gap between J - Theta(z) J Theta(w)* and its resolvent form."""
    z, w = complex(z), complex(w)
    lhs = SIGNATURE_J - theta.eval(z) @ SIGNATURE_J @ theta.eval(w).conj().T
    left = theta.left_chain(z)
    rightc = theta.left_chain(w).conj().T  # (I - conj(w) T)^-1 F
    rhs = (1.0 - z * np.conj(w)) * left @ np.linalg.solve(theta.p.entries, rightc)
    return float(np.max(np.abs(lhs - rhs)))


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

    def eval(self, z) -> complex:
        """b(z) = 1 + (z - 1) E* (I - z A*)^-1 K^-1 (I - A)^-1 E."""
        z = complex(z)
        n = self.degree
        right = np.linalg.solve(
            self.k.entries, np.linalg.solve(np.eye(n) - self.a, self.e)
        )
        chain = np.linalg.solve(np.eye(n) - z * self.a.conj().T, right)
        return complex(1.0 + (z - 1.0) * (self.e.conj() @ chain))

    def kernel_residual(self, z, w) -> float:
        """Gap in 1 - b(z) conj(b(w)) = (1 - z conj(w)) E* (I-zA*)^-1 K^-1 (I-conj(w)A)^-1 E."""
        z, w = complex(z), complex(w)
        n = self.degree
        lhs = 1.0 - self.eval(z) * np.conj(self.eval(w))
        rv = np.linalg.solve(self.k.entries, np.linalg.solve(np.eye(n) - np.conj(w) * self.a, self.e))
        chain = np.linalg.solve(np.eye(n) - z * self.a.conj().T, rv)
        return float(abs(lhs - (1.0 - z * np.conj(w)) * (self.e.conj() @ chain)))


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
