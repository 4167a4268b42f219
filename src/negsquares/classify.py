"""Classification procedures on standard functions.

Witness-point placement around jumps and poles, shrink-and-verify loops
for the certified negative-square count, plateau classification of the
membership class, the minimal witness-size search and the triple
positivity (Hindmarsh-style) sampling test.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .functions import PointConfig, StandardFunction
from .hermitian import (
    DEFAULT_TOL,
    EigenSolverError,
    HermitianMatrix,
    Inertia,
    NumericsError,
    TolerancePolicy,
    ValidationError,
    _spectrum,
    equilibrated_inertia,
    inertia,  # unused here; perfbench's tracer self-test patches this binding site
)
from .pick import (
    Region,
    SearchBudget,
    _orderings,
    _placement,
    kn_profile,
    pick_entries,
    profile_to_document,
)

__all__ = [
    "WitnessPlan",
    "witness_plan",
    "WitnessReport",
    "verify_witness",
    "ClassificationReport",
    "plateau_classify",
    "NSearchReport",
    "find_N",
    "HindmarshReport",
    "hindmarsh_test",
]


# ---------------------------------------------------------------------------
# witness plans


@dataclass(frozen=True)
class WitnessPlan:
    """Point placement that forces the full negative-square count.

    The plan keeps every jump point itself, adds one companion within
    epsilon of each jump, and for each distinct pole of multiplicity r
    places r points at positive distance below epsilon, pairwise distinct.
    Total size q + 2 l.
    """

    epsilon: float
    seed: int
    jump_nodes: tuple[complex, ...]
    jump_companions: tuple[complex, ...]
    pole_clusters: tuple[tuple[complex, tuple[complex, ...]], ...]

    def _point_orderings(self) -> tuple[list[complex], ...]:
        rings = [c for _, ring in self.pole_clusters for c in ring]
        return _orderings(list(self.jump_nodes), rings, list(self.jump_companions))

    def points(self) -> PointConfig:
        """Jumps, then the pole rings, then the companions."""
        return PointConfig.from_complex(self._point_orderings()[0])

    @property
    def size(self) -> int:
        return (
            len(self.jump_nodes)
            + len(self.jump_companions)
            + sum(len(c) for _, c in self.pole_clusters)
        )


def _max_admissible_epsilon(f: StandardFunction) -> float:
    """min(pairwise singularity distances, distances to the circle) / 4.

    A pole and a jump may share a location; only distances between distinct
    anchor locations constrain the cluster radius.
    """
    anchors = list(dict.fromkeys([w for w, _ in f.pole_points()] + f.jump_points()))
    if not anchors:
        return float("inf")
    dists = [1.0 - abs(a) for a in anchors]
    for i in range(len(anchors)):
        for j in range(i + 1, len(anchors)):
            dists.append(abs(anchors[i] - anchors[j]))
    return min(dists) / 4.0


def witness_plan(
    f: StandardFunction,
    epsilon: float | None = None,
    seed: int = 0,
) -> WitnessPlan:
    """Seeded placement meeting the three witness conditions.

    Companions sit on circles of radius epsilon/2 around the jumps; each
    pole cluster uses radii epsilon/2 * (1, 1/2, ..., 1/r) with fresh
    angles, which keeps coincident jump-and-pole clusters distinct.
    By default epsilon is the largest admissible value capped at 0.1:
    wide clusters keep the matrix scales benign, and verification shrinks
    from there when the count needs it.
    """
    bound = _max_admissible_epsilon(f)
    if epsilon is None:
        epsilon = min(0.1, 0.999 * bound)
    if epsilon <= 0.0 or epsilon >= bound:
        raise ValidationError(
            f"epsilon {epsilon} inadmissible; largest admissible value is {bound:.6g}"
        )
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(17,)))
    jumps = tuple(f.jump_points())
    for _ in range(32):
        companions, rings = _placement(f, epsilon, rng, jumps)
        try:
            plan = WitnessPlan(epsilon, seed, jumps, companions, rings)
            cfg = plan.points()
        except ValidationError:
            continue  # angle collision, re-randomize
        if all(f.is_defined_at(p) for p in cfg):
            return plan
    raise NumericsError("could not realize a distinct witness placement in 32 attempts")


def _witness_inertia(
    f: StandardFunction, cfg: PointConfig, bound: int, tol: TolerancePolicy
) -> Inertia:
    """Equilibrated inertia of the Pick matrix at ``cfg``, checked against ``bound``.

    A count above the certified bound q + l can only be an assembly bug.
    """
    z = cfg.values()
    ine = equilibrated_inertia(HermitianMatrix(pick_entries(f.eval_many(z), z)), tol)
    if ine.n_neg > bound:
        raise NumericsError(f"witness count {ine.n_neg} exceeds the certified bound {bound}")
    return ine


@dataclass(frozen=True)
class WitnessReport:
    success: bool
    achieved_epsilon: float
    inertia: Inertia
    target: int
    trajectory: tuple[tuple[float, tuple[int, int, int]], ...]
    witness: PointConfig | None = field(default=None, compare=False)


def verify_witness(
    f: StandardFunction,
    plan: WitnessPlan,
    shrink_rounds: int = 6,
    tol: TolerancePolicy = DEFAULT_TOL,
) -> WitnessReport:
    """Shrink-and-verify loop for the planned negative-square count.

    Builds the Pick matrix at the plan points and counts negatives through
    the diagonally equilibrated congruence (same counts, stable across the
    magnitude spread that pole clusters of different multiplicities create).
    On a miss the radius shrinks tenfold with re-randomized angles.  The
    count can never exceed the target; observing more is an assembly bug.
    """
    q, ell, _ = f.counts()
    target = q + ell
    trajectory: list[tuple[float, tuple[int, int, int]]] = []
    eps = plan.epsilon
    for round_idx in range(shrink_rounds + 1):
        current = plan if round_idx == 0 else witness_plan(f, eps, plan.seed + 1000 + round_idx)
        cfg = current.points()
        ine = _witness_inertia(f, cfg, target, tol)
        trajectory.append((eps, ine.as_tuple()))
        if ine.n_neg == target:
            return WitnessReport(True, eps, ine, target, tuple(trajectory), cfg)
        eps /= 10.0
    last = trajectory[-1]
    return WitnessReport(
        False,
        last[0],
        Inertia(*last[1], 0.0),
        target,
        tuple(trajectory),
        None,
    )


# ---------------------------------------------------------------------------
# plateau classification


@dataclass(frozen=True)
class ClassificationReport:
    """Plateau value with its onset, witness-size estimate and bound checks."""

    kappa_hat: int | None
    n_first: int | None
    n_attained: int | None  # minimal n seen with the plateau count
    poles: int
    jumps: int
    jumps_in_region: int
    expected: int
    subscript_check: bool | None  # best(2 kappa) == kappa
    bound_check: str  # "ok" | "violated" | "n/a"
    inconclusive: bool
    profile: object = field(compare=False, default=None)
    minimal_witness: NSearchReport | None = field(compare=False, default=None)  # whole disk only

    def to_document(self) -> dict:
        return {
            "kappa_hat": self.kappa_hat,
            "n_first": self.n_first,
            "n_attained": self.n_attained,
            "poles": self.poles,
            "jumps": self.jumps,
            "jumps_in_region": self.jumps_in_region,
            "expected": self.expected,
            "subscript_check": self.subscript_check,
            "bound_check": self.bound_check,
            "inconclusive": self.inconclusive,
            "profile": profile_to_document(self.profile) if self.profile else None,
        }

    def to_table(self) -> str:
        lines = [
            f"class estimate     : {'inconclusive' if self.inconclusive else self.kappa_hat}",
            f"plateau onset      : {self.n_first}",
            f"first attained at  : {self.n_attained}",
            f"poles / jumps      : {self.poles} / {self.jumps} (in region: {self.jumps_in_region})",
            f"expected plateau   : {self.expected}",
            f"doubled-size check : {self.subscript_check}",
            f"witness-size bound : {self.bound_check}",
        ]
        return "\n".join(lines)


def plateau_classify(
    f: StandardFunction,
    region: Region | None = None,
    budget: SearchBudget = SearchBudget(),
    seed: int = 0,
    tol: TolerancePolicy = DEFAULT_TOL,
) -> ClassificationReport:
    """Classify by the stabilized profile value.

    Profiles up to n = 2 * expected + 3 where the expected plateau is the
    pole count plus the jumps inside the region.  The class estimate is the
    final profile value provided the last four sizes agree (a width-3
    plateau).  A profile still rising there is extended by four sizes
    once; anything still rising then is reported inconclusive rather than
    guessed.  Cross-checks that the doubled size already attains the value.
    On the whole disk the profile also serves ``find_N``, whose report is
    kept as ``minimal_witness``.
    """
    region = region or Region.whole_disk()
    q, ell, _ = f.counts()
    ell_region = sum(1 for z in f.jump_points() if region.contains(z))
    expected = q + ell_region
    # rows depend only on their size, so the longer profile extends the shorter
    for n_max in (2 * expected + 3, 2 * expected + 7):
        profile = kn_profile(f, n_max, region, budget, seed, tol)
        counts = {row.n: row.best_count for row in profile.rows}
        counts[0] = 0
        tail = [counts[n] for n in range(n_max - 3, n_max + 1)]
        if len(set(tail)) == 1:
            break

    if len(set(tail)) != 1:
        return ClassificationReport(
            None, None, None, q, ell, ell_region, expected, None,
            "n/a", True, profile,
        )
    kappa_hat = tail[0]
    n_first = min(n for n in range(0, n_max + 1) if counts.get(n) == kappa_hat)
    n_attained = n_first
    subscript = counts.get(2 * kappa_hat) == kappa_hat if 2 * kappa_hat <= n_max else None
    # every jump lies in the whole disk, so the profile reaches 2 (q + l) + 3 >= q + 2 l
    n_report = _minimal_witness(f, profile, seed, tol) if region.kind == "whole-disk" else None
    if region.kind == "whole-disk" and kappa_hat == q + ell:
        # the witness search attains the count at n_hat even where the profile's onset is later
        n_seen = min(n_attained, n_report.n_hat)
        small_enough = n_seen <= q + 2 * ell
        large_enough = n_seen >= q + ell or kappa_hat == 0
        bound = "ok" if (small_enough and large_enough) else "violated"
    else:
        bound = "n/a"
    return ClassificationReport(
        kappa_hat, n_first, n_attained, q, ell, ell_region, expected,
        subscript, bound, False, profile, n_report,
    )


# ---------------------------------------------------------------------------
# minimal witness size


@dataclass(frozen=True)
class NSearchReport:
    n_hat: int
    kappa: int
    certified_exact: bool
    witness: PointConfig | None = field(default=None, compare=False)

    def to_document(self) -> dict:
        return {
            "n_hat": self.n_hat,
            "kappa": self.kappa,
            "certified_exact": self.certified_exact,
            "witness": (
                [[p.value.real, p.value.imag] for p in self.witness]
                if self.witness is not None
                else None
            ),
        }


def find_N(
    f: StandardFunction,
    budget: SearchBudget = SearchBudget(),
    seed: int = 0,
    tol: TolerancePolicy = DEFAULT_TOL,
) -> NSearchReport:
    """Smallest witness size found to attain the full count.

    Scans sizes from the count itself up to q + 2 l; structured subsets of
    the witness plan (jumps, then pole clusters, then companions) are tried
    across shrinking radii before the generic profile search.  The result
    is an upper bound on the true minimal size, certified exact when it
    meets the theoretical lower bound q + l.  If no size up to q + 2 l
    attains the count, the full plan is redrawn at the widest radius up to
    32 times; ``NumericsError`` is raised when every draw misses.
    """
    q, ell, kappa = f.counts()
    profile = kn_profile(f, q + 2 * ell, None, budget, seed, tol) if kappa else None
    return _minimal_witness(f, profile, seed, tol)


def _minimal_witness(
    f: StandardFunction, profile, seed: int, tol: TolerancePolicy
) -> NSearchReport:
    """``find_N`` on a whole-disk profile of ``f`` reaching at least q + 2 l.

    A profile row depends only on its size and on the seed, budget and
    tolerance, so the rows of a longer profile serve unchanged.
    """
    q, ell, kappa = f.counts()
    if kappa == 0:
        return NSearchReport(0, 0, True, PointConfig(()))
    top = q + 2 * ell
    counts = {row.n: row for row in profile.rows}

    eps0 = min(0.1, 0.999 * _max_admissible_epsilon(f))
    for n in range(max(kappa, 1), top + 1):
        # structured subsets, widest radius first
        for round_idx in range(4):
            eps = eps0 / 10**round_idx
            try:
                plan = witness_plan(f, eps, seed + 31 * round_idx)
            except ValidationError:
                continue
            if plan.size < n:
                continue
            # distinct length-n prefixes, in ordering order
            for prefix in dict.fromkeys(tuple(b[:n]) for b in plan._point_orderings()):
                cfg = PointConfig.from_complex(prefix)
                if _witness_inertia(f, cfg, kappa, tol).n_neg == kappa:
                    return NSearchReport(n, kappa, n == q + ell, cfg)
        row = counts.get(n)
        if row is not None and row.best_count == kappa:
            return NSearchReport(n, kappa, n == q + ell, row.witness)
    # The full plan attains the count at a wide radius, but its kappa-th
    # negative eigenvalue decays like eps^3 as the radius shrinks: redraw
    # the angles at the widest radius instead of shrinking it.
    for attempt in range(32):
        cfg = witness_plan(f, eps0, seed + 1000 + attempt).points()
        if _witness_inertia(f, cfg, kappa, tol).n_neg == kappa:
            return NSearchReport(top, kappa, top == q + ell, cfg)
    raise NumericsError(f"no {top}-point witness placement attained the count {kappa} in 32 draws")


# ---------------------------------------------------------------------------
# triple positivity scan


@dataclass(frozen=True)
class HindmarshReport:
    consistent: bool
    triples_tested: int
    violation: PointConfig | None = field(default=None, compare=False)
    most_negative: float | None = None


def _certified_positive(mats: np.ndarray) -> np.ndarray:
    """Flags of the matrices of a (B, 3, 3) Hermitian stack that are finite with positive LDL* pivots."""
    m = mats.transpose(1, 2, 0)  # the lower triangle, as eigvalsh reads it
    with np.errstate(all="ignore"):
        d1 = m[0, 0].real
        d2 = m[1, 1].real - abs(m[1, 0]) ** 2 / d1
        d3 = m[2, 2].real - abs(m[2, 0]) ** 2 / d1 - abs(m[2, 1] - m[2, 0] * m[1, 0].conj() / d1) ** 2 / d2
    return (d1 > 0) & (d2 > 0) & (d3 > 0) & np.isfinite(mats).all(axis=(1, 2))


def hindmarsh_test(
    f,
    region: Region | None = None,
    triples: int = 10_000,
    seed: int = 0,
    tol: TolerancePolicy = DEFAULT_TOL,
) -> HindmarshReport:
    """Sampled positivity of all 3-node Pick matrices over a region.

    Consistency over the sample is evidence, not proof, of extendability
    to a bounded analytic function; a violating triple with a negative
    eigenvalue is a certificate of non-membership.  The sample pool mixes
    region-uniform draws with the structural points of a standard function
    (jump points and pole-adjacent rings), since violations concentrate
    there.  ``f`` may be a standard function or a plain callable; triples
    whose evaluation raises or gives a non-finite value are skipped, and
    after ``triples`` such skips the scan raises ``NumericsError`` instead
    of running on.  Triples with two nodes within 1e-12 of each other are
    dropped unscored, and after ``triples`` drops the scan raises
    ``ValidationError``: the region is too small to separate three nodes.
    Each node is evaluated once, in the block that first uses it: a
    standard function by one ``eval_many`` call over the block's new nodes
    (node by node if that call raises), a callable node by node.  Blocks
    stay far below the 16,384 entries at which ``eval_many`` starts to
    round differently, so every value has the bits of a one-point
    ``eval_many`` call.  Under a relative policy of at least 1e-12, only
    matrices that ``_certified_positive`` leaves undecided are solved.

    Removing a discrete point set from the region changes nothing: a
    function that passes every triple on the thinned region extends
    analytically across the removed points, so pools that skip finitely
    many inadmissible points lose no detection power.
    """
    region = region or Region.whole_disk()
    certify = tol.kind == "relative" and tol.value >= 1e-12  # tau far above Cholesky's error
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(3,)))

    structural: list[complex] = []
    many = f.eval_many if isinstance(f, StandardFunction) else None
    evaluate = f if many is None else lambda z: many(z[None])[0]
    if many is not None:
        structural = [z for z in f.jump_points() if region.contains(z) and f.is_defined_at(z)]
        for w, mult in f.pole_points():
            for radius in (1e-2, 1e-3, 1e-4):
                for _ in range(mult + 1):
                    c = w + radius * np.exp(2j * np.pi * rng.random())
                    if region.contains(c) and f.is_defined_at(c):
                        structural.append(c)

    pool = region.sample(rng, max(64, min(triples, 4096)))
    nodes = np.concatenate([pool, np.array(structural, dtype=complex)])
    if len(nodes) < 3:
        raise ValidationError("need at least 3 admissible sample points in the region")
    # triples are rows of node indices, structural ones first: violations concentrate there
    s = np.arange(len(structural))
    opening = np.column_stack([len(pool) + s, 2 * s % len(pool), (2 * s + 1) % len(pool)])

    def draw(k: int) -> np.ndarray:
        nonlocal opening
        if not structural:  # the stream is rng.integers alone: one block call draws the same
            return rng.integers(len(pool), size=3 * k).reshape(k, 3)
        rows, opening = opening[:k], opening[k:]
        k -= len(rows)
        picks = [len(pool) + int(rng.integers(len(structural))) if rng.random() < 0.25
                 else int(rng.integers(len(pool))) for _ in range(3 * k)]
        return np.concatenate([rows, np.array(picks, dtype=int).reshape(k, 3)])

    def first_violation(mats: np.ndarray, offset: int = 0):
        rows = np.flatnonzero(~_certified_positive(mats)) if certify else np.arange(len(mats))
        if not len(rows):
            return None
        w, tau = _spectrum(mats[rows], tol)
        neg = np.flatnonzero(np.any(w < -tau[:, None], axis=1))
        return (offset + int(rows[neg[0]]), float(w[neg[0], 0])) if len(neg) else None

    vals = np.zeros(len(nodes), dtype=complex)
    seen, bad = np.zeros((2, len(nodes)), dtype=bool)
    errors: dict[int, Exception] = {}
    tested, failed, dropped, size = 0, 0, 0, 1
    while tested < triples:
        rows = draw(min(size, triples - tested))
        size = min(2 * size, 455)  # a stack of 455 3x3 matrices stays within 4096 entries
        z = nodes[rows]
        rows = rows[np.min(np.abs(z[:, [0, 0, 1]] - z[:, [1, 2, 2]]), axis=1) >= 1e-12]
        dropped += len(z) - len(rows)  # counted apart from failed evaluations
        if dropped >= triples:
            raise ValidationError(
                f"region {region.to_document()} is too small to separate three nodes")
        new = list(dict.fromkeys(rows[~seen[rows]].tolist()))  # each node once, at first use
        seen[new] = True
        if many is not None and new:
            try:  # a raise sends the block node by node
                vals[new], new = many(nodes[new]), []
            except Exception:
                pass
        for i in new:
            try:
                v = complex(evaluate(nodes[i]))
                if not np.isfinite(v):
                    raise NumericsError(f"non-finite value {v} at {complex(nodes[i])}")
                vals[i] = v
            except Exception as exc:  # f may be undefined on a thin set: skip its triples
                bad[i], errors[i] = True, exc
        if bad[rows].any():  # count failed triples in stream order; the triples-th ends the scan
            kept = []
            for r, row in enumerate(rows):
                if not bad[row].any():
                    kept.append(r)
                elif (failed := failed + 1) >= triples:
                    stop = errors[row[bad[row]][0]]
                    break
            rows = rows[kept]
        z = nodes[rows]
        mats = pick_entries(vals[rows], z)
        try:
            hit = first_violation(mats)
        except EigenSolverError:  # LAPACK failed on one matrix: solve one at a time up to it
            hit = next(filter(None, map(first_violation, mats[:, None], range(len(mats)))), None)
        if hit is not None:
            r, lowest = hit
            return HindmarshReport(False, tested + r + 1, PointConfig.from_complex(z[r]), lowest)
        tested += len(rows)
        if failed >= triples:
            raise NumericsError(f"{failed} evaluations failed, last: {stop!r}") from stop
    return HindmarshReport(True, tested, None, None)
