"""Shared corpus builders for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from negsquares import (
    BlaschkeProduct,
    SchurBlaschke,
    SchurConstant,
    SchurPolynomial,
    SchurProduct,
    SchurScaled,
    StandardFunction,
    UnitDiskPoint,
    krein_langer_quotient,
)


def jump_function(value: complex, at: complex = 0.0) -> StandardFunction:
    """Constant one modified at a single point."""
    return StandardFunction.build(
        SchurConstant(1.0),
        BlaschkeProduct.identity(),
        jumps=((UnitDiskPoint(complex(at)), complex(value)),),
    )


def schur_only(part) -> StandardFunction:
    return StandardFunction.build(part, BlaschkeProduct.identity())


def quotient(part, zeros) -> StandardFunction:
    return krein_langer_quotient(part, BlaschkeProduct(tuple(zeros), 1.0))


def random_zeros(n: int, radius: float, seed: int):
    """n simple zeros drawn uniformly from the disk of the given radius."""
    rng = np.random.default_rng(seed)
    pts = radius * np.sqrt(rng.random(n)) * np.exp(2j * np.pi * rng.random(n))
    return tuple((UnitDiskPoint(complex(w)), 1) for w in pts)


def example_sharp(n: int) -> StandardFunction:
    """Monomial of degree n over the Blaschke factor at one half."""
    coeffs = [0.0] * n + [1.0]
    return quotient(SchurPolynomial(tuple(coeffs)), [(UnitDiskPoint(0.5), 1)])


def random_schur_part(rng: np.random.Generator):
    """Certified Schur part drawn from the grammar."""
    kind = rng.integers(5)
    if kind == 0:
        r = 0.95 * np.sqrt(rng.random())
        return SchurConstant(r * np.exp(2j * np.pi * rng.random()))
    if kind == 1:
        deg = int(rng.integers(1, 4))
        raw = rng.standard_normal(deg + 1) + 1j * rng.standard_normal(deg + 1)
        raw /= np.sum(np.abs(raw)) * (1.0 + 0.05 * rng.random())
        return SchurPolynomial(tuple(raw))
    if kind == 2:
        deg = int(rng.integers(1, 3))
        zeros = tuple(
            (UnitDiskPoint(0.6 * np.sqrt(rng.random()) * np.exp(2j * np.pi * rng.random())), 1)
            for _ in range(deg)
        )
        return SchurBlaschke(BlaschkeProduct(zeros, np.exp(2j * np.pi * rng.random())))
    if kind == 3:
        return SchurProduct((random_schur_part(rng), random_schur_part(rng)))
    return SchurScaled(float(rng.random()), random_schur_part(rng))


def nonvanishing_schur_part(rng: np.random.Generator):
    """Certified Schur part with no zeros in the disk (affine with far root)."""
    a = 0.45 * rng.random() * np.exp(2j * np.pi * rng.random())
    scale = 0.9 + 0.1 * rng.random()
    return SchurPolynomial((scale / (1 + abs(a)), scale * a / (1 + abs(a))))


def random_blaschke_zeros(rng: np.random.Generator, degree: int, max_radius: float = 0.6):
    """Distinct well-separated zeros totalling the requested degree."""
    while True:
        pts = max_radius * np.sqrt(rng.random(degree)) * np.exp(2j * np.pi * rng.random(degree))
        if degree == 1 or np.min(
            np.abs(pts[:, None] - pts[None, :])[np.triu_indices(degree, 1)]
        ) > 0.15:
            return tuple((UnitDiskPoint(p), 1) for p in pts)


@pytest.fixture
def rng():
    return np.random.default_rng(20260809)
