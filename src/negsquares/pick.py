"""Pick matrix assembly and negative-square profiling.

A Pick matrix over nodes z_1..z_n has entries
(1 - f(z_i) conj(f(z_j))) / (1 - z_i conj(z_j)).  The profiler searches
node configurations of each size for the largest negative eigenvalue
count, which is reported as a certified lower bound together with the
maximizing witness; matching upper bounds come from the classification
theory, so equality is testable.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass

import numpy as np

from .functions import PointConfig, StandardFunction, UndefinedAtPole
from .hermitian import (
    DEFAULT_TOL,
    HermitianMatrix,
    Inertia,
    NumericsError,
    TolerancePolicy,
    ValidationError,
    _spectrum,
)

__all__ = [
    "Region",
    "SearchBudget",
    "PickMatrixResult",
    "ProfileRow",
    "ProfileResult",
    "pick_entries",
    "build_pick",
    "kn_profile",
    "profile_to_csv",
    "profile_to_document",
]

_MIN_BLASCHKE_MAGNITUDE = 1e-8  # admissibility floor for unstructured nodes near poles
_RANDOM_SEPARATION = 1e-8
_PLACEMENT_SCALES = (1e-1, 3e-2, 1e-2, 3e-3, 1e-3)  # epsilons of the structured candidates


# ---------------------------------------------------------------------------
# regions


@dataclass(frozen=True)
class Region:
    """Open subset of the unit disk: the whole disk, a disk, or an annulus sector.

    The closure must stay inside the open unit disk.  Angles are radians;
    the sector spans theta_min..theta_max counterclockwise (width <= 2 pi).
    """

    kind: str
    center: complex = 0.0 + 0.0j
    radius: float = 0.0
    r_min: float = 0.0
    r_max: float = 0.0
    theta_min: float = 0.0
    theta_max: float = 0.0

    _SAMPLE_CAP = 0.999  # random draws stay inside this radius for the whole disk

    def __post_init__(self):
        if self.kind == "whole-disk":
            return
        if self.kind == "disk":
            if self.radius <= 0:
                raise ValidationError(f"disk radius must be positive, got {self.radius}")
            if abs(self.center) + self.radius >= 1.0 - 1e-12:
                raise ValidationError(
                    f"disk closure sticks out of the unit disk: |{self.center}| + {self.radius} >= 1"
                )
            return
        if self.kind == "annulus-sector":
            if not 0.0 <= self.r_min < self.r_max:
                raise ValidationError(f"need 0 <= r_min < r_max, got {self.r_min}, {self.r_max}")
            if self.r_max >= 1.0 - 1e-12:
                raise ValidationError(f"outer radius {self.r_max} must stay below 1")
            width = self.theta_max - self.theta_min
            if not 0.0 < width <= 2.0 * np.pi + 1e-12:
                raise ValidationError(f"sector width {width} must lie in (0, 2 pi]")
            return
        raise ValidationError(f"unknown region kind {self.kind!r}")

    @classmethod
    def whole_disk(cls) -> "Region":
        return cls("whole-disk")

    @classmethod
    def disk(cls, center, radius: float) -> "Region":
        return cls("disk", center=complex(center), radius=float(radius))

    @classmethod
    def annulus_sector(cls, r_min: float, r_max: float, theta_min: float, theta_max: float) -> "Region":
        return cls(
            "annulus-sector",
            r_min=float(r_min),
            r_max=float(r_max),
            theta_min=float(theta_min),
            theta_max=float(theta_max),
        )

    def contains(self, z) -> bool:
        z = complex(z)
        if self.kind == "whole-disk":
            return abs(z) < 1.0 - 1e-14
        if self.kind == "disk":
            return abs(z - self.center) < self.radius
        r = abs(z)
        if not self.r_min < r < self.r_max:
            return False
        width = self.theta_max - self.theta_min
        angle = (np.angle(z) - self.theta_min) % (2.0 * np.pi)
        return angle < width

    def sample(self, rng: np.random.Generator, count: int) -> np.ndarray:
        u = rng.random(count)
        theta = rng.random(count)
        if self.kind == "whole-disk":
            return self._SAMPLE_CAP * np.sqrt(u) * np.exp(2j * np.pi * theta)
        if self.kind == "disk":
            return self.center + self.radius * np.sqrt(u) * np.exp(2j * np.pi * theta)
        r = np.sqrt(self.r_min**2 + u * (self.r_max**2 - self.r_min**2))
        ang = self.theta_min + theta * (self.theta_max - self.theta_min)
        return r * np.exp(1j * ang)

    def to_document(self) -> dict:
        if self.kind == "whole-disk":
            return {"kind": self.kind}
        if self.kind == "disk":
            return {
                "kind": self.kind,
                "center": [self.center.real, self.center.imag],
                "radius": self.radius,
            }
        return {
            "kind": self.kind,
            "r_min": self.r_min,
            "r_max": self.r_max,
            "theta_min": self.theta_min,
            "theta_max": self.theta_max,
        }


@dataclass(frozen=True)
class SearchBudget:
    """(configurations examined per size, refinement rounds per configuration)."""

    configurations: int = 200
    refine_rounds: int = 40

    def __post_init__(self):
        if self.configurations < 1 or self.refine_rounds < 0:
            raise ValidationError(f"budget out of range: {self}")


# ---------------------------------------------------------------------------
# assembly


@dataclass(frozen=True)
class PickMatrixResult:
    matrix: HermitianMatrix
    nodes: PointConfig
    inertia: Inertia
    condition_estimate: float


def pick_entries(values: np.ndarray, nodes: np.ndarray) -> np.ndarray:
    """Pick matrix from precomputed function values, exactly Hermitian.

    Returns (P + P*)/2 of the raw kernel matrix P, so roundoff asymmetry
    never reaches an eigensolve; symmetrizing again leaves every bit as is.
    """
    f = np.asarray(values, dtype=complex)
    z = np.asarray(nodes, dtype=complex)
    p = (1.0 - np.outer(f, f.conj())) / (1.0 - np.outer(z, z.conj()))
    return (p + p.conj().T) / 2.0


def build_pick(
    f: StandardFunction,
    nodes: PointConfig,
    tol: TolerancePolicy = DEFAULT_TOL,
) -> PickMatrixResult:
    """Assemble the Pick matrix of ``f`` over ``nodes`` and compute its inertia.

    Nodes must avoid the retained poles; distinctness is enforced by the
    node configuration itself.
    """
    for p in nodes:
        if not f.is_defined_at(p):
            raise UndefinedAtPole(p.value)
    z = nodes.values()
    vals = f.eval_many(z)
    matrix = HermitianMatrix(pick_entries(vals, z))
    w, tau = _spectrum(matrix.entries, tol)
    ine = Inertia.from_spectrum(w, tau)
    w = np.abs(w)
    if matrix.dim and float(np.min(w)) > 0.0:
        cond = float(np.max(w) / np.min(w))
    else:
        cond = float("inf") if matrix.dim and float(np.max(w, initial=0.0)) > 0 else 1.0
    return PickMatrixResult(matrix, nodes, ine, cond)


# ---------------------------------------------------------------------------
# profiling


@dataclass(frozen=True)
class ProfileRow:
    n: int
    best_count: int
    witness: PointConfig
    samples_used: int


@dataclass(frozen=True)
class ProfileResult:
    rows: tuple[ProfileRow, ...]
    plateau: tuple[int, int] | None = None  # (value, first n)
    exhausted: bool = False  # budget ran out before n_max

    def best(self, n: int) -> int:
        for row in self.rows:
            if row.n == n:
                return row.best_count
        raise KeyError(n)


class _Searcher:
    """Per-function search state: admissibility, scoring, refinement."""

    def __init__(self, f: StandardFunction, region: Region, tol: TolerancePolicy, kappa_cap: int):
        self.f = f
        self.region = region
        self.tol = tol
        self.kappa_cap = kappa_cap
        self.jump_values = {z.value for z, _ in f.jumps}

    def admissible(self, z: complex, structured: bool) -> bool:
        if abs(z) >= 1.0 - 1e-14 or not self.region.contains(z):
            return False
        if not self.f.is_defined_at(z):
            return False
        if z in self.jump_values:
            return True
        if structured:
            return True
        return abs(complex(self.f.blaschke.eval(z))) >= _MIN_BLASCHKE_MAGNITUDE

    def usable(self, config: np.ndarray) -> bool:
        n = len(config)
        if n > 1:
            d = np.abs(config[:, None] - config[None, :])[np.triu_indices(n, 1)]
            if float(np.min(d)) < _RANDOM_SEPARATION:
                return False
        return True

    def score(self, config: np.ndarray) -> tuple[int, float]:
        """(negative count, tie-break) - larger is better on both coordinates.

        The tie-break favors configurations whose smallest count+1
        eigenvalues sum lowest, i.e. closest to gaining one more negative.
        """
        w, tau = _spectrum(pick_entries(self.f.eval_many(config), config), self.tol)
        count = int(np.sum(w < -tau))
        if count > self.kappa_cap:
            raise NumericsError(
                f"computed {count} negative eigenvalues, above the certified bound "
                f"{self.kappa_cap}; this indicates an assembly bug"
            )
        tie = -float(np.sum(w[: count + 1])) if len(w) else 0.0
        return count, tie

    def refine(self, config: np.ndarray, rounds: int) -> tuple[np.ndarray, tuple[int, float], int]:
        """Coordinatewise hill climb; step halves after a sweep without gain."""
        best = config.copy()
        best_score = self.score(best)
        used = 1
        step = 1e-2
        for _ in range(rounds):
            if best_score[0] >= self.kappa_cap:
                break  # count is maximal; the tie-break alone is not worth budget
            improved = False
            for i in range(len(best)):
                for d in (step, -step, 1j * step, -1j * step):
                    cand = best.copy()
                    cand[i] = best[i] + d
                    if not self.admissible(cand[i], structured=False):
                        continue
                    if not self.usable(cand):
                        continue
                    used += 1
                    s = self.score(cand)
                    if s > best_score:
                        best, best_score = cand, s
                        improved = True
            if not improved:
                step /= 2.0
                if step < 1e-9:
                    break
        return best, best_score, used


def _witness_key(config: np.ndarray) -> tuple:
    flat = sorted((float(z.real), float(z.imag)) for z in config)
    return tuple(x for pair in flat for x in pair)


def _placement(f: StandardFunction, eps: float, rng: np.random.Generator, jumps):
    """Companions and pole rings at scale ``eps`` around the singularities of ``f``.

    One companion on the circle of radius eps/2 around each of ``jumps``,
    then for each distinct pole of multiplicity r one point on each radius
    eps/2 * (1, 1/2, ..., 1/r), all at fresh angles drawn in that order.
    Returns (companions, ((pole, ring points), ...)).
    """
    companions = tuple(z + 0.5 * eps * np.exp(2j * np.pi * rng.random()) for z in jumps)
    rings = tuple(
        (w, tuple(w + 0.5 * eps / i * np.exp(2j * np.pi * rng.random()) for i in range(1, r + 1)))
        for w, r in f.pole_points()
    )
    return companions, rings


def _orderings(jumps: list, rings: list, companions: list) -> tuple[list, ...]:
    """Orderings of structured points whose prefixes make witness candidates."""
    return (
        jumps + rings + companions,
        rings + jumps + companions,
        jumps + companions + rings,
        rings + companions + jumps,
    )


def _pad_to_n(base: list[complex], n: int, region: Region, rng: np.random.Generator, searcher) -> np.ndarray | None:
    pts = list(base[:n])
    guard = 0
    while len(pts) < n and guard < 200:
        guard += 1
        z = complex(region.sample(rng, 1)[0])
        if searcher.admissible(z, structured=False):
            pts.append(z)
    if len(pts) < n:
        return None
    config = np.array(pts, dtype=complex)
    return config if searcher.usable(config) else None


def kn_profile(
    f: StandardFunction,
    n_max: int,
    region: Region | None = None,
    budget: SearchBudget = SearchBudget(),
    seed: int = 0,
    tol: TolerancePolicy = DEFAULT_TOL,
) -> ProfileResult:
    """Lower-bound profile of the maximal negative count per matrix size.

    Search strategy per size n: structured candidates placed at the jumps
    and poles of ``f`` intersecting the region, the previous witness carried
    forward with one appended node (so the profile is monotone), quasi-random
    configurations, then coordinatewise hill climbing on the leaders.
    Deterministic for a fixed seed.  A plateau is recorded at the first n
    whose count survives three further size increments.
    """
    if n_max < 1:
        raise ValidationError(f"n_max must be >= 1, got {n_max}")
    region = region or Region.whole_disk()
    q, ell, kappa = f.counts()
    searcher = _Searcher(f, region, tol, kappa)
    jumps = [z for z in f.jump_points() if searcher.admissible(z, structured=True)]
    rows: list[ProfileRow] = []
    prev_witness: np.ndarray | None = None
    prev_best = 0
    exhausted = False

    for n in range(1, n_max + 1):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(n,)))
        candidates: list[np.ndarray] = []

        # every ring is drawn before any padding draw: the draw order fixes the witnesses
        pools = [_placement(f, eps, rng, jumps) for eps in _PLACEMENT_SCALES]
        for companions, rings in pools:
            companions = [c for c in companions if searcher.admissible(c, structured=True)]
            rings = [c for _, ring in rings for c in ring]
            rings = [c for c in rings if searcher.admissible(c, structured=True)]
            for base in _orderings(jumps, rings, companions)[:3]:
                cfg = _pad_to_n(base, n, region, rng, searcher)
                if cfg is not None:
                    candidates.append(cfg)

        if prev_witness is not None:
            for _ in range(4):
                cfg = _pad_to_n(list(prev_witness), n, region, rng, searcher)
                if cfg is not None:
                    candidates.append(cfg)

        tried = 0
        while len(candidates) < budget.configurations and tried < 20 * budget.configurations:
            tried += 1
            cfg = _pad_to_n([], n, region, rng, searcher)
            if cfg is not None:
                candidates.append(cfg)
        if len(candidates) < budget.configurations:
            exhausted = True

        if not candidates:
            raise NumericsError(
                f"no admissible {n}-node configuration found in the region; "
                "the region may not intersect the domain"
            )

        scored: list[tuple[tuple[int, float], np.ndarray]] = []
        samples = 0
        for cfg in candidates:
            samples += 1
            scored.append((searcher.score(cfg), cfg))
        scored.sort(key=lambda item: (item[0], [-x for x in _witness_key(item[1])]), reverse=True)

        leaders = scored[:3]
        best_score, best_cfg = leaders[0]
        for _, cfg in leaders:
            refined, r_score, used = searcher.refine(cfg, budget.refine_rounds)
            samples += used
            if r_score > best_score or (
                r_score == best_score and _witness_key(refined) < _witness_key(best_cfg)
            ):
                best_score, best_cfg = r_score, refined

        best_count = best_score[0]
        if best_count < prev_best and prev_witness is not None:
            # Appending a node to the previous witness keeps its negatives
            # (eigenvalue interlacing); a drop can only be the zero threshold
            # reclassifying a borderline eigenvalue, so carry the count.
            for _ in range(20):
                cfg = _pad_to_n(list(prev_witness), n, region, rng, searcher)
                if cfg is None:
                    continue
                samples += 1
                s = searcher.score(cfg)
                best_cfg = cfg
                if s[0] >= prev_best:
                    best_count = s[0]
                    break
            best_count = max(best_count, prev_best)
        rows.append(
            ProfileRow(
                n=n,
                best_count=best_count,
                witness=PointConfig.from_complex(best_cfg),
                samples_used=samples,
            )
        )
        prev_witness, prev_best = best_cfg, best_count

    plateau = None
    for row in rows:
        n = row.n
        if n + 3 <= n_max and row.best_count == rows[n + 3 - 1].best_count:
            plateau = (row.best_count, n)
            break
    return ProfileResult(tuple(rows), plateau, exhausted)


# ---------------------------------------------------------------------------
# emission


def _fmt_complex(z: complex) -> str:
    return f"{z.real:.17g}{z.imag:+.17g}i"


def profile_to_csv(result: ProfileResult) -> str:
    """CSV rows: n, best_count, witness nodes flattened as re+imi literals."""
    buf = io.StringIO()
    width = max((len(r.witness) for r in result.rows), default=0)
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["n", "best_count"] + [f"witness_{i + 1}" for i in range(width)])
    for row in result.rows:
        cells = [str(row.n), str(row.best_count)]
        cells += [_fmt_complex(p.value) for p in row.witness]
        cells += [""] * (width - len(row.witness))
        writer.writerow(cells)
    return buf.getvalue()


def profile_to_document(result: ProfileResult) -> dict:
    return {
        "rows": [
            {
                "n": row.n,
                "best_count": row.best_count,
                "witness": [[p.value.real, p.value.imag] for p in row.witness],
                "samples_used": row.samples_used,
            }
            for row in result.rows
        ],
        "plateau": (
            {"value": result.plateau[0], "first_n": result.plateau[1]}
            if result.plateau
            else None
        ),
        "exhausted": result.exhausted,
    }
