"""Function models on the unit disk.

Schur parts built from a closed, certifiable grammar (constants, certified
polynomials, Blaschke products, products, scalings), finite Blaschke
products with explicit normalization, and standard functions: meromorphic
quotients S/B modified at finitely many jump points.  Zero sets and
boundedness are always checked by evaluation, never assumed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .hermitian import NegSquaresError, ValidationError

__all__ = [
    "UndefinedAtPole",
    "UnitDiskPoint",
    "PointConfig",
    "BlaschkeProduct",
    "SchurPart",
    "SchurConstant",
    "SchurPolynomial",
    "SchurBlaschke",
    "SchurProduct",
    "SchurScaled",
    "StandardFunction",
    "classify_counts",
    "krein_langer_quotient",
    "function_to_document",
    "function_from_document",
    "dump_function",
    "load_function",
    "disk_samples",
]

_BOUNDARY_MARGIN = 1e-14
_MIN_SEPARATION = 1e-12
_SCHUR_SLACK = 1e-12


class UndefinedAtPole(NegSquaresError):
    """Evaluation requested at a pole where the function is not defined."""

    def __init__(self, at: complex):
        self.at = complex(at)
        super().__init__(f"function undefined at pole {self.at}")


# ---------------------------------------------------------------------------
# points


@dataclass(frozen=True)
class UnitDiskPoint:
    """A point strictly inside the open unit disk."""

    value: complex

    def __post_init__(self):
        v = complex(self.value)
        if not np.isfinite(v.real) or not np.isfinite(v.imag):
            raise ValidationError(f"point must be finite, got {v}")
        if abs(v) >= 1.0 - _BOUNDARY_MARGIN:
            raise ValidationError(f"|{v}| = {abs(v):.17g} is not strictly inside the unit disk")
        object.__setattr__(self, "value", v)

    def __complex__(self) -> complex:
        return self.value


def _as_complex(z) -> complex:
    return complex(z.value) if isinstance(z, UnitDiskPoint) else complex(z)


@dataclass(frozen=True)
class PointConfig:
    """Ordered tuple of pairwise distinct disk points (evaluation nodes)."""

    points: tuple[UnitDiskPoint, ...]
    min_separation: float = field(default=float("inf"), compare=False)

    def __post_init__(self):
        pts = tuple(
            p if isinstance(p, UnitDiskPoint) else UnitDiskPoint(complex(p)) for p in self.points
        )
        sep = float("inf")
        vals = np.array([p.value for p in pts], dtype=complex)
        if len(pts) > 1:
            diffs = np.abs(vals[:, None] - vals[None, :])
            sep = float(np.min(diffs[np.triu_indices(len(pts), 1)]))
            if sep < _MIN_SEPARATION:
                raise ValidationError(
                    f"nodes are not distinct: minimum pairwise distance {sep:.3e} < 1e-12"
                )
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "min_separation", sep)

    @classmethod
    def from_complex(cls, values) -> "PointConfig":
        return cls(tuple(UnitDiskPoint(complex(v)) for v in values))

    def values(self) -> np.ndarray:
        return np.array([p.value for p in self.points], dtype=complex)

    def __len__(self) -> int:
        return len(self.points)

    def __iter__(self):
        return iter(self.points)


def disk_samples(count: int, radius: float = 0.999, center: complex = 0.0) -> np.ndarray:
    """Low-discrepancy disk samples (golden-angle spiral), deterministic."""
    i = np.arange(count)
    r = radius * np.sqrt((i + 0.5) / count)
    theta = i * (np.pi * (3.0 - np.sqrt(5.0)))
    return center + r * np.exp(1j * theta)


# ---------------------------------------------------------------------------
# Blaschke products


@dataclass(frozen=True)
class BlaschkeProduct:
    """Finite Blaschke product phase * prod ((z - w)/(1 - z conj(w)))^mult.

    Unimodular on the circle; degree = sum of multiplicities; degree zero
    means the constant ``phase``.  The default normalization keeps
    phase = 1; use :meth:`normalized` for the value-1-at-1 convention.
    """

    zeros: tuple[tuple[UnitDiskPoint, int], ...] = ()
    phase: complex = 1.0 + 0.0j

    def __post_init__(self):
        merged: dict[complex, int] = {}
        order: list[complex] = []
        for w, mult in self.zeros:
            w = w if isinstance(w, UnitDiskPoint) else UnitDiskPoint(complex(w))
            try:
                m = int(mult)
            except (TypeError, ValueError, OverflowError) as exc:
                raise ValidationError(f"multiplicity must be an integer, got {mult!r}") from exc
            if m != mult:
                raise ValidationError(f"multiplicity must be an integer, got {mult!r}")
            if m < 1:
                raise ValidationError(f"multiplicity must be >= 1, got {m} at {w.value}")
            if w.value not in merged:
                order.append(w.value)
                merged[w.value] = 0
            merged[w.value] += m
        zeros = tuple((UnitDiskPoint(v), merged[v]) for v in order)
        phase = complex(self.phase)
        if not np.isfinite(phase) or abs(abs(phase) - 1.0) > 1e-12:
            raise ValidationError(f"phase must be unimodular, got |{phase}| = {abs(phase):.17g}")
        object.__setattr__(self, "zeros", zeros)
        object.__setattr__(self, "phase", phase)
        # sampled circle check: each factor has unit modulus on |z| = 1
        if zeros:
            circle = np.exp(2j * np.pi * np.arange(16) / 16)
            mods = np.abs(self.eval(circle))
            if np.max(np.abs(mods - 1.0)) > 1e-12:
                raise ValidationError("product is not unimodular on the sampled circle")

    @classmethod
    def identity(cls) -> "BlaschkeProduct":
        return cls((), 1.0)

    @classmethod
    def normalized(cls, zeros) -> "BlaschkeProduct":
        """Phase chosen so the product takes the value 1 at z = 1."""
        pre = cls(tuple(zeros), 1.0)
        val = 1.0 + 0.0j
        for w, m in pre.zeros:
            val *= ((1.0 - w.value) / (1.0 - np.conj(w.value))) ** m
        return cls(pre.zeros, 1.0 / val)

    @property
    def degree(self) -> int:
        return sum(m for _, m in self.zeros)

    def eval(self, z):
        z = np.asarray(z, dtype=complex)
        out = np.full(z.shape, self.phase, dtype=complex)
        for w, m in self.zeros:
            out = out * ((z - w.value) / (1.0 - z * np.conj(w.value))) ** m
        return out if out.shape else complex(out)

    def zero_points(self) -> list[complex]:
        return [w.value for w, _ in self.zeros]


# ---------------------------------------------------------------------------
# Schur part grammar


def _check_schur_samples(part: "SchurPart"):
    vals = np.abs(part.eval(disk_samples(1000)))
    worst = float(np.max(vals)) if vals.size else 0.0
    if worst > 1.0 + _SCHUR_SLACK:
        raise ValidationError(
            f"certified bound violated on disk samples: max modulus {worst:.17g} > 1 + 1e-12"
        )


class SchurPart:
    """Base of the closed grammar of certifiable disk-to-disk functions."""

    def eval(self, z):  # pragma: no cover - interface
        raise NotImplementedError

    def to_node(self) -> dict:  # pragma: no cover - interface
        raise NotImplementedError


@dataclass(frozen=True)
class SchurConstant(SchurPart):
    value: complex

    def __post_init__(self):
        v = complex(self.value)
        if not np.isfinite(v):
            raise ValidationError(f"constant must be finite, got {v}")
        if abs(v) > 1.0 + _SCHUR_SLACK:
            raise ValidationError(f"constant modulus {abs(v):.17g} exceeds 1")
        object.__setattr__(self, "value", v)

    def eval(self, z):
        z = np.asarray(z, dtype=complex)
        out = np.full(z.shape, self.value, dtype=complex)
        return out if out.shape else complex(out)

    def to_node(self) -> dict:
        return {"kind": "constant", "value": _c(self.value)}


@dataclass(frozen=True)
class SchurPolynomial(SchurPart):
    """Polynomial with a supremum-norm-on-the-disk certificate.

    The certificate is the smaller of the coefficient-sum bound and a
    circle-grid maximum inflated by the Bernstein factor 1/(1 - pi d / N);
    construction requires it to stay at most 1.
    """

    coeffs: tuple[complex, ...]
    certificate: float = field(default=0.0, compare=False)

    _GRID = 4096

    def __post_init__(self):
        coeffs = tuple(complex(c) for c in self.coeffs)
        if not coeffs:
            coeffs = (0.0 + 0.0j,)
        if not np.all(np.isfinite(coeffs)):
            raise ValidationError(f"polynomial coefficients must be finite, got {coeffs}")
        object.__setattr__(self, "coeffs", coeffs)
        degree = len(coeffs) - 1
        coeff_sum = float(np.sum(np.abs(coeffs)))
        grid = np.exp(2j * np.pi * np.arange(self._GRID) / self._GRID)
        grid_max = float(np.max(np.abs(np.polyval(list(reversed(coeffs)), grid))))
        bern = np.pi * degree / self._GRID
        circle_bound = grid_max / (1.0 - bern) if bern < 0.5 else float("inf")
        cert = min(coeff_sum, circle_bound)
        if cert > 1.0 + _SCHUR_SLACK:
            raise ValidationError(
                f"polynomial is not certified Schur: certificate {cert:.17g} > 1 "
                f"(coefficient sum {coeff_sum:.17g}, circle bound {circle_bound:.17g})"
            )
        object.__setattr__(self, "certificate", cert)
        _check_schur_samples(self)

    def eval(self, z):
        z = np.asarray(z, dtype=complex)
        out = np.asarray(np.polyval(list(reversed(self.coeffs)), z))
        return out if out.shape else complex(out)

    def to_node(self) -> dict:
        return {"kind": "poly", "coeffs": [_c(c) for c in self.coeffs]}


@dataclass(frozen=True)
class SchurBlaschke(SchurPart):
    product: BlaschkeProduct

    def eval(self, z):
        return self.product.eval(z)

    def to_node(self) -> dict:
        return {
            "kind": "blaschke",
            "zeros": [{"zero": _c(w.value), "mult": m} for w, m in self.product.zeros],
            "phase": _c(self.product.phase),
        }


@dataclass(frozen=True)
class SchurProduct(SchurPart):
    factors: tuple[SchurPart, ...]

    def __post_init__(self):
        if not self.factors:
            raise ValidationError("product needs at least one factor")
        object.__setattr__(self, "factors", tuple(self.factors))
        _check_schur_samples(self)

    def eval(self, z):
        z = np.asarray(z, dtype=complex)
        out = np.ones(z.shape, dtype=complex)
        for part in self.factors:
            out = out * part.eval(z)
        return out if out.shape else complex(out)

    def to_node(self) -> dict:
        return {"kind": "product", "factors": [p.to_node() for p in self.factors]}


@dataclass(frozen=True)
class SchurScaled(SchurPart):
    factor: float
    inner: SchurPart

    def __post_init__(self):
        r = float(self.factor)
        if not 0.0 <= r <= 1.0:
            raise ValidationError(f"scale factor must lie in [0, 1], got {r}")
        object.__setattr__(self, "factor", r)

    def eval(self, z):
        z = np.asarray(z, dtype=complex)
        out = np.asarray(self.factor * np.asarray(self.inner.eval(z), dtype=complex))
        return out if out.shape else complex(out)

    def to_node(self) -> dict:
        return {"kind": "scale", "factor": self.factor, "inner": self.inner.to_node()}


# ---------------------------------------------------------------------------
# standard functions


@dataclass(frozen=True)
class StandardFunction:
    """Quotient of a Schur part by a Blaschke product, modified at jumps.

    Values: the assigned jump value at a jump point, undefined at the
    retained poles, the quotient everywhere else.  The three construction
    rules mirror the definition of the model:

    1. jump points and undefined poles are pairwise distinct and disjoint;
    2. undefined poles are zeros of the denominator, every denominator zero
       is either an undefined pole or a jump point, and numerator and
       denominator share no zero (checked by evaluation);
    3. at a jump point that is not a denominator zero, the assigned value
       genuinely differs from the quotient there.
    """

    schur: SchurPart
    blaschke: BlaschkeProduct
    jumps: tuple[tuple[UnitDiskPoint, complex], ...] = ()
    undefined_poles: tuple[UnitDiskPoint, ...] = ()

    def __post_init__(self):
        jumps = tuple(
            (z if isinstance(z, UnitDiskPoint) else UnitDiskPoint(complex(z)), complex(g))
            for z, g in self.jumps
        )
        poles = tuple(
            w if isinstance(w, UnitDiskPoint) else UnitDiskPoint(complex(w))
            for w in self.undefined_poles
        )
        object.__setattr__(self, "jumps", jumps)
        object.__setattr__(self, "undefined_poles", poles)

        jump_pts = [z.value for z, _ in jumps]
        pole_pts = [w.value for w in poles]
        # rule 1: distinctness and disjointness
        if len(set(jump_pts)) != len(jump_pts):
            raise ValidationError("standard-function rule 1: jump points must be distinct")
        if len(set(pole_pts)) != len(pole_pts):
            raise ValidationError("standard-function rule 1: undefined poles must be distinct")
        if set(jump_pts) & set(pole_pts):
            raise ValidationError(
                "standard-function rule 1: jump points and undefined poles must be disjoint"
            )
        # rule 2: pole bookkeeping and no common zeros
        denom_zeros = set(self.blaschke.zero_points())
        for w in pole_pts:
            if w not in denom_zeros:
                raise ValidationError(
                    f"standard-function rule 2: undefined pole {w} is not a denominator zero"
                )
        for w in denom_zeros:
            if w not in set(pole_pts) | set(jump_pts):
                raise ValidationError(
                    f"standard-function rule 2: denominator zero {w} is neither an "
                    "undefined pole nor a jump point"
                )
            if abs(complex(self.schur.eval(w))) <= 1e-10:
                raise ValidationError(
                    f"standard-function rule 2: numerator and denominator share the zero {w}"
                )
        # rule 3: genuine jumps away from denominator zeros
        for z, gamma in jumps:
            if z.value in denom_zeros:
                continue
            limit = complex(self.schur.eval(z.value)) / complex(self.blaschke.eval(z.value))
            if abs(gamma - limit) <= 1e-12:
                raise ValidationError(
                    f"standard-function rule 3: assigned value at {z.value} equals the "
                    "quotient limit there (no genuine jump)"
                )

    @classmethod
    def build(cls, schur: SchurPart, blaschke: BlaschkeProduct, jumps=()) -> "StandardFunction":
        """Construct with undefined poles defaulted to the non-jump denominator zeros."""
        jump_pts = {
            (z.value if isinstance(z, UnitDiskPoint) else complex(z)) for z, _ in jumps
        }
        poles = tuple(
            UnitDiskPoint(w) for w in blaschke.zero_points() if w not in jump_pts
        )
        return cls(schur, blaschke, tuple(jumps), poles)

    @property
    def pole_count(self) -> int:
        """Number of poles counted with multiplicity (denominator degree)."""
        return self.blaschke.degree

    @property
    def jump_count(self) -> int:
        return len(self.jumps)

    def counts(self) -> tuple[int, int, int]:
        q, ell = self.pole_count, self.jump_count
        return q, ell, q + ell

    def jump_points(self) -> list[complex]:
        return [z.value for z, _ in self.jumps]

    def pole_points(self) -> list[tuple[complex, int]]:
        """Distinct denominator zeros with multiplicities."""
        return [(w.value, m) for w, m in self.blaschke.zeros]

    def is_defined_at(self, z) -> bool:
        return _as_complex(z) not in {w.value for w in self.undefined_poles}

    def eval(self, z) -> complex:
        """Value at one point; jump matching is exact identity of the stored node."""
        zv = _as_complex(z)
        for zj, gamma in self.jumps:
            if zv == zj.value:
                return gamma
        for w in self.undefined_poles:
            if zv == w.value:
                raise UndefinedAtPole(zv)
        denom = complex(self.blaschke.eval(zv))
        if abs(denom) < 1e-300:
            raise NegSquaresError(f"denominator underflow at {zv} (not a retained pole)")
        return complex(self.schur.eval(zv)) / denom

    def eval_many(self, z: np.ndarray) -> np.ndarray:
        """Vectorized eval; every entry must be in the domain."""
        z = np.asarray(z, dtype=complex)
        for w in self.undefined_poles:
            if np.any(z == w.value):
                raise UndefinedAtPole(w.value)
        denom = np.asarray(self.blaschke.eval(z), dtype=complex)
        tiny = np.abs(denom) < 1e-300
        if np.any(tiny):
            jump_mask = np.zeros(z.shape, dtype=bool)
            for zj, _ in self.jumps:
                jump_mask |= z == zj.value
            if np.any(tiny & ~jump_mask):
                bad = z[tiny & ~jump_mask][0]
                raise NegSquaresError(f"denominator underflow at {bad} (not a retained pole)")
            denom = np.where(tiny, 1.0, denom)
        out = np.asarray(self.schur.eval(z), dtype=complex) / denom
        for zj, gamma in self.jumps:
            out = np.where(z == zj.value, gamma, out)
        return out


def classify_counts(f: StandardFunction) -> tuple[int, int, int]:
    """(pole count q, jump count l, q + l)."""
    return f.counts()


def krein_langer_quotient(schur: SchurPart, blaschke: BlaschkeProduct) -> StandardFunction:
    """Jump-free quotient S/B, undefined at the denominator zeros.

    Rejects numerator/denominator pairs sharing a zero, detected by
    evaluating the numerator at each denominator zero.
    """
    for w in blaschke.zero_points():
        if abs(complex(schur.eval(w))) <= 1e-10:
            raise ValidationError(f"numerator vanishes at denominator zero {w}")
    return StandardFunction.build(schur, blaschke, ())


# ---------------------------------------------------------------------------
# document (de)serialization

SPEC_VERSION = 1


def _c(value: complex) -> list[float]:
    value = complex(value)
    return [float(value.real), float(value.imag)]


def _fromc(pair, what: str) -> complex:
    if not (isinstance(pair, (list, tuple)) and len(pair) == 2):
        raise ValidationError(f"{what}: complex values must be [re, im] pairs, got {pair!r}")
    value = complex(float(pair[0]), float(pair[1]))
    if not np.isfinite(value):
        raise ValidationError(f"{what}: complex values must be finite, got {pair!r}")
    return value


def _schur_from_node(node: dict) -> SchurPart:
    if not isinstance(node, dict) or "kind" not in node:
        raise ValidationError(f"schur node must be an object with a 'kind', got {node!r}")
    kind = node["kind"]
    if kind == "constant":
        return SchurConstant(_fromc(node["value"], "constant"))
    if kind == "poly":
        return SchurPolynomial(tuple(_fromc(c, "poly coefficient") for c in node["coeffs"]))
    if kind == "blaschke":
        zeros = tuple(
            (UnitDiskPoint(_fromc(item["zero"], "blaschke zero")), item["mult"])
            for item in node["zeros"]
        )
        phase = _fromc(node.get("phase", [1.0, 0.0]), "blaschke phase")
        return SchurBlaschke(BlaschkeProduct(zeros, phase))
    if kind == "product":
        return SchurProduct(tuple(_schur_from_node(n) for n in node["factors"]))
    if kind == "scale":
        return SchurScaled(float(node["factor"]), _schur_from_node(node["inner"]))
    raise ValidationError(f"unknown schur node kind {kind!r}")


def function_to_document(f: StandardFunction) -> dict:
    doc = {
        "spec_version": SPEC_VERSION,
        "schur": f.schur.to_node(),
        "blaschke": [{"zero": _c(w.value), "mult": m} for w, m in f.blaschke.zeros],
        "jumps": [{"at": _c(z.value), "value": _c(g)} for z, g in f.jumps],
        "undefined_poles": [_c(w.value) for w in f.undefined_poles],
    }
    if f.blaschke.phase != 1.0 + 0.0j:
        doc["blaschke_phase"] = _c(f.blaschke.phase)
    return doc


def function_from_document(doc: dict) -> StandardFunction:
    if not isinstance(doc, dict):
        raise ValidationError("function document must be an object")
    if doc.get("spec_version") != SPEC_VERSION:
        raise ValidationError(
            f"unsupported spec_version {doc.get('spec_version')!r}, expected {SPEC_VERSION}"
        )
    # a missing key or a value of the wrong type is a malformed document, not a crash
    try:
        schur = _schur_from_node(doc.get("schur", {"kind": "constant", "value": [1.0, 0.0]}))
        zeros = tuple(
            (UnitDiskPoint(_fromc(item["zero"], "denominator zero")), item["mult"])
            for item in doc.get("blaschke", [])
        )
        phase = _fromc(doc.get("blaschke_phase", [1.0, 0.0]), "denominator phase")
        blaschke = BlaschkeProduct(zeros, phase)
        jumps = tuple(
            (UnitDiskPoint(_fromc(item["at"], "jump point")), _fromc(item["value"], "jump value"))
            for item in doc.get("jumps", [])
        )
        poles = None
        if "undefined_poles" in doc:
            poles = tuple(
                UnitDiskPoint(_fromc(p, "undefined pole")) for p in doc["undefined_poles"]
            )
    except KeyError as exc:
        raise ValidationError(f"function document lacks the key {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"malformed function document: {exc}") from exc
    if poles is not None:
        return StandardFunction(schur, blaschke, jumps, poles)
    return StandardFunction.build(schur, blaschke, jumps)


def dump_function(f: StandardFunction) -> str:
    return json.dumps(function_to_document(f), indent=2, sort_keys=True)


def load_function(text: str) -> StandardFunction:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"function document is not valid JSON: {exc}") from exc
    return function_from_document(doc)
