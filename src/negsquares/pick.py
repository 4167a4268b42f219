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

from .functions import PointConfig, StandardFunction
from .hermitian import (
    DEFAULT_TOL,
    HermitianMatrix,
    Inertia,
    NumericsError,
    TolerancePolicy,
    ValidationError,
    _spectrum,
    equilibrated_inertia,
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
# complex entries per stacked temporary: under the 16384 at which numpy's rounding
# changes, and small enough to leave peak memory as it was
_STACK_ENTRIES = 4096


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
            if not (np.isfinite(self.center) and np.isfinite(self.radius)):
                raise ValidationError(f"disk center and radius must be finite, got {self.center}, {self.radius}")
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

    def contains(self, z):
        """Whether ``z`` lies in the region: a ``bool``, or an array of flags for an array."""
        z = np.asarray(z, dtype=complex)
        r = np.abs(z)
        if self.kind == "whole-disk":
            inside = r < 1.0 - 1e-14
        elif self.kind == "disk":
            inside = np.abs(z - self.center) < self.radius
        else:
            angle = (np.angle(z) - self.theta_min) % (2.0 * np.pi)
            inside = (self.r_min < r) & (r < self.r_max) & (angle < self.theta_max - self.theta_min)
        return inside if np.ndim(inside) else bool(inside)

    def sample(self, rng: np.random.Generator, count: int) -> np.ndarray:
        return self._points(rng.random(count), rng.random(count))

    def _points(self, u: np.ndarray, theta: np.ndarray) -> np.ndarray:
        """Points of the region at uniform draws ``u`` (radial) and ``theta`` (angular)."""
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
    Values and nodes of shape (..., n) give a stack of shape (..., n, n).
    """
    f = np.asarray(values, dtype=complex)
    z = np.asarray(nodes, dtype=complex)
    fc, zc = f.conj(), z.conj()
    p = (1.0 - f[..., :, None] * fc[..., None, :]) / (1.0 - z[..., :, None] * zc[..., None, :])
    return (p + p.conj().mT) / 2.0


def build_pick(
    f: StandardFunction,
    nodes: PointConfig,
    tol: TolerancePolicy = DEFAULT_TOL,
) -> PickMatrixResult:
    """Assemble the Pick matrix of ``f`` over ``nodes`` and compute its inertia.

    Nodes must avoid the retained poles; distinctness is enforced by the
    node configuration itself.
    """
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

    def admissible(self, z, structured: bool = False):
        """Flags of the entries of ``z`` usable as nodes.

        A node lies in the region and is not a retained pole; unless it is
        structured or a jump, it also keeps |B(z)| >= _MIN_BLASCHKE_MAGNITUDE.
        Every region lies inside |z| < 1 - 1e-14, so the disk needs no test of
        its own, and the |B| floor already rejects a retained pole, a zero of B.
        """
        z = np.asarray(z, dtype=complex)
        ok = self.region.contains(z)
        if structured:
            return ok & (z[..., None] != [w.value for w in self.f.undefined_poles]).all(-1)
        with np.errstate(all="ignore"):  # B may blow up outside the disk; those entries drop
            b = np.abs(self.f.blaschke.eval(z))
        return ok & ((b >= _MIN_BLASCHKE_MAGNITUDE) | (z[..., None] == self.f.jump_points()).any(-1))

    def usable(self, config: np.ndarray):
        """No two nodes closer than the separation floor; a (B, n) stack gives B flags."""
        close = np.abs(config[..., :, None] - config[..., None, :]) < _RANDOM_SEPARATION
        return np.count_nonzero(close, axis=(-2, -1)) <= config.shape[-1]  # the diagonal only

    def score_many(self, configs: np.ndarray) -> list[tuple[int, float]]:
        """Scores of the rows of a (B, n) stack, unchecked against the bound.

        A score is (negative count, tie-break), larger better on both: the
        tie-break favors rows whose smallest count+1 eigenvalues sum lowest,
        i.e. closest to gaining one more negative.  Each equals the score of
        that row alone bit for bit: the stack is cut so no complex temporary
        reaches _STACK_ENTRIES entries.
        """
        rows = max(1, (_STACK_ENTRIES - 1) // configs.shape[1] ** 2)
        out = []
        for start in range(0, len(configs), rows):
            chunk = configs[start:start + rows]
            counts, w = self._spectra(pick_entries(self.f.eval_many(chunk), chunk))
            out += [_score(c, v) for v, c in zip(w, counts)]
        return out

    def _spectra(self, mats: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Negative counts and ascending spectra of a stack of Pick matrices."""
        w, tau = _spectrum(mats, self.tol)
        return np.count_nonzero(w < -tau[:, None], axis=1), w

    def checked(self, score: tuple[int, float]) -> tuple[int, float]:
        if score[0] > self.kappa_cap:
            raise NumericsError(
                f"computed {score[0]} negative eigenvalues, above the certified bound "
                f"{self.kappa_cap}; this indicates an assembly bug"
            )
        return score

    def refine(self, configs: np.ndarray, rounds: int) -> list[tuple[np.ndarray, tuple[int, float], int]]:
        """Coordinatewise hill climbs of the rows of a (L, n) stack, run side by side.

        Each returns (climbed configuration, its score, moves scored).  A
        sweep moves each node in turn by +-step and +-i step, keeping every
        move that beats the best so far; the step halves after a sweep
        without gain, and ``used`` counts the moves scored, as a
        one-at-a-time climb scores them.  Each climb runs ahead: the moves of
        the sweeps that follow if none gains (the rest of this sweep, then
        whole sweeps at halved steps) are filtered and solved as one stack
        with the other climbs', and the moves behind its first gain are then
        rebuilt around the new best.  A move changes one row and column of
        the Pick matrix, so its matrix is the best one with that row and
        column reassembled (``_moved``), bit for bit what ``score_many`` gives.
        """
        best = configs.copy()
        n = best.shape[1]
        values = self.f.eval_many(best)
        base = pick_entries(values, best)
        counts, w = self._spectra(base)
        scores = [self.checked(_score(c, v)) for c, v in zip(counts, w)]
        used = [1] * len(best)
        spare = self._spare(best)
        block = max(1, (_STACK_ENTRIES - 1) // n**2)
        # per climb: the sweep under way (index, step, next move, gained in it
        # yet) and the moves to run ahead, doubled while none gains
        sweeps = [(0, 1e-2, 0, False)] * len(best)
        ahead = [4 * n] * len(best)
        while True:
            plans = []
            for c, sweep in enumerate(sweeps):
                plan, moves = [], 0
                while sweep is not None and sweep[0] < rounds and moves < ahead[c]:
                    if not sweep[3] and scores[c][0] >= self.kappa_cap:
                        break  # count is maximal; the tie-break alone is not worth budget
                    plan.append((c,) + sweep)
                    moves += 4 * n - sweep[2]
                    sweep = _next_sweep(sweep)
                plans += plan
                sweeps[c] = sweep if plan else None
            if not plans:
                break
            ks = [np.arange(k0, 4 * n) for _, _, _, k0, _ in plans]
            leg = np.repeat(np.arange(len(plans)), [len(k) for k in ks])
            k = np.concatenate(ks)
            owner, node = np.array([p[0] for p in plans])[leg], k // 4
            z = best[owner, node] + np.concatenate(
                [np.array([h, -h, 1j * h, -1j * h])[kk % 4] for (_, _, h, _, _), kk in zip(plans, ks)]
            )
            gaps = np.abs(z[:, None] - best[owner])
            gaps[np.arange(len(k)), node] = np.inf  # the node's old place
            new = np.count_nonzero(gaps < _RANDOM_SEPARATION, axis=1)
            keep = np.flatnonzero(self.admissible(z) & (2 * new <= spare[owner, node]))
            parts = []
            for start in range(0, len(keep), block):
                rows = keep[start:start + block]
                fz = self.f.eval_many(z[rows])
                mats = _moved(base[owner[rows]], values[owner[rows]], best[owner[rows]],
                              node[rows], z[rows], fz)
                counts, w = self._spectra(mats)
                bc, bt = (x[owner[rows]] for x in np.array(scores).T)
                gain = counts > bc
                for count in set(counts[counts == bc].tolist()):
                    tied = np.flatnonzero((counts == bc) & (bc == count))
                    gain[tied] = -np.add.reduce(w[tied, : count + 1], axis=1) > bt[tied]
                parts.append((gain, fz, mats, counts, w))
            gain, fz, mats, counts, w = (
                (np.concatenate(x) for x in zip(*parts)) if parts else ([],) * 5
            )
            for c in dict.fromkeys(p[0] for p in plans):
                mine = np.flatnonzero(owner[keep] == c)
                hits = mine[gain[mine]] if len(mine) else mine
                if not len(hits):
                    used[c] += len(mine)
                    ahead[c] = min(2 * ahead[c], _STACK_ENTRIES // n)
                    continue
                j = hits[0]
                used[c] += int(j - mine[0]) + 1
                scores[c] = self.checked(_score(counts[j], w[j]))
                i = keep[j]
                best[c, node[i]], values[c, node[i]], base[c] = z[i], fz[j], mats[j]
                spare[c] = 0  # the climbed row is usable: its only close pairs are (i, i)
                _, index, step, _, _ = plans[leg[i]]
                sweeps[c], ahead[c] = (index, step, int(k[i]) + 1, True), 4 * n
        return [(best[c], scores[c], used[c]) for c in range(len(best))]

    @staticmethod
    def _spare(configs: np.ndarray) -> np.ndarray:
        """Per row and node of a (L, n) stack, twice the close pairs a move of the
        node may bring without making the row unusable: the moved row's close
        pairs are the row's away from the node plus twice the node's new ones."""
        close = np.abs(configs[:, :, None] - configs[:, None, :]) < _RANDOM_SEPARATION
        total = np.count_nonzero(close, axis=(1, 2))[:, None]
        return configs.shape[1] - 2 - total + 2 * np.count_nonzero(close, axis=2)


def _next_sweep(sweep: tuple) -> tuple | None:
    """The sweep after ``sweep`` if no move in what is left of it gains; None if the climb stops."""
    index, step, _, gained = sweep
    if not gained:
        step /= 2.0
        if step < 1e-9:
            return None
    return index + 1, step, 0, False


def _score(count, spectrum: np.ndarray) -> tuple[int, float]:
    # np.add.reduce is np.sum without its dispatch overhead
    return int(count), -float(np.add.reduce(spectrum[: count + 1]))


def _moved(mats: np.ndarray, values: np.ndarray, nodes: np.ndarray, m: np.ndarray,
           z: np.ndarray, fz: np.ndarray) -> np.ndarray:
    """Pick matrices of the rows of ``nodes`` with node m[b] of row b moved to
    z[b], where f is fz[b], written into ``mats``.

    ``mats`` holds ``pick_entries(values, nodes)``; row and column m[b] are
    assembled as ``pick_entries`` does, with the same operands in the same
    order, so every entry has its bits.
    """
    b = np.arange(len(m))
    row = (1.0 - fz[:, None] * values.conj()) / (1.0 - z[:, None] * nodes.conj())
    col = (1.0 - values * fz.conj()[:, None]) / (1.0 - nodes * z.conj()[:, None])
    row[b, m] = col[b, m] = (1.0 - fz * fz.conj()) / (1.0 - z * z.conj())
    mats[b, :, m] = (col + row.conj()) / 2.0
    mats[b, m, :] = (row + col.conj()) / 2.0
    return mats


def _ranking(scores: list[tuple[int, float]], configs: np.ndarray) -> np.ndarray:
    """Rows of ``configs`` best first, by one lexsort.

    Larger count first, then larger tie-break; equal scores put first the
    row whose nodes, sorted by (re, im), are lexicographically smallest,
    and a full tie the earlier row.
    """
    nodes = np.sort(configs, axis=1)  # complex sort orders by (re, im)
    coords = np.stack([nodes.real, nodes.imag], axis=2).reshape(len(configs), -1)
    count, tie = np.array(scores, dtype=float).T
    return np.lexsort((*coords.T[::-1], -tie, -count))


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
    """``base`` cut or padded to ``n`` nodes with admissible region draws, at most 200.

    Draws come in blocks of as many as are still missing, one u and one theta
    each, so the stream is consumed exactly as by one-point draws.
    """
    pts = list(base[:n])
    guard = 0
    while len(pts) < n and guard < 200:
        k = min(n - len(pts), 200 - guard)
        guard += k
        r = rng.random(2 * k)
        z = region._points(r[0::2], r[1::2])
        pts += list(z[searcher.admissible(z)])
    if len(pts) < n:
        return None
    config = np.array(pts, dtype=complex)
    return config if searcher.usable(config) else None


def _random_configs(
    count: int, n: int, calls: int, region: Region, rng: np.random.Generator, searcher
) -> list[np.ndarray]:
    """What ``_pad_to_n([], n, ...)`` gives, called until ``count`` succeed or ``calls`` are spent.

    One block of draws serves many calls.  The calls are read off its
    admissible draws, then the stream is rewound to the end of the last call
    used, so it stands where one call at a time would leave it.
    """
    found: list[np.ndarray] = []
    while len(found) < count and calls > 0:
        state = rng.bit_generator.state
        # enough draws for every missing configuration; one call takes at most 200
        k = max(min(count - len(found), _STACK_ENTRIES // n**2) * n, 200)
        r = rng.random(2 * k)
        z = region._points(r[0::2], r[1::2])
        hits = np.flatnonzero(searcher.admissible(z))
        ends, picks, pos = [], [], 0
        while len(ends) < calls:
            j = int(np.searchsorted(hits, pos))
            if j + n <= len(hits) and hits[j + n - 1] < pos + 200:
                picks.append(hits[j:j + n])
                pos = int(hits[j + n - 1]) + 1
            elif pos + 200 <= k:
                picks.append(None)
                pos += 200  # fewer than n admissible draws in 200: the call fails
            else:
                break  # the block ends inside this call
            ends.append(pos)
        drawn = [p for p in picks if p is not None]
        usable = iter(searcher.usable(z[np.array(drawn)]) if drawn else ())
        pos = 0
        for end, p in zip(ends, picks):
            calls -= 1
            pos = end
            if p is not None and next(usable):
                found.append(z[p])
                if len(found) == count:
                    break
        rng.bit_generator.state = state
        rng.bit_generator.advance(2 * pos)
    return found


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
    forward with one appended node (so the profile is monotone) and random
    configurations are scored in one stack, every score checked against
    kappa = q + l.  The three best, ranked by score and then by their
    sorted nodes, are hill climbed, and the best climb is the witness.  A
    count below the previous size's is carried over from padded copies of
    the previous witness.  On the whole disk, a size n >= q + 2 l still
    short of q + l recounts its structured candidates after Jacobi
    equilibration.
    Deterministic for a fixed seed.  A plateau is recorded at the first n
    whose count survives three further size increments.
    """
    if n_max < 1:
        raise ValidationError(f"n_max must be >= 1, got {n_max}")
    region = region or Region.whole_disk()
    q, ell, kappa = f.counts()
    searcher = _Searcher(f, region, tol, kappa)
    jumps = f.jump_points()
    jumps = [z for z, ok in zip(jumps, searcher.admissible(jumps, structured=True)) if ok]
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
            rings = [c for _, ring in rings for c in ring]
            companions = [c for c, ok in zip(companions, searcher.admissible(companions, structured=True)) if ok]
            rings = [c for c, ok in zip(rings, searcher.admissible(rings, structured=True)) if ok]
            for base in _orderings(jumps, rings, companions)[:3]:
                cfg = _pad_to_n(base, n, region, rng, searcher)
                if cfg is not None:
                    candidates.append(cfg)

        structured = len(candidates)
        if prev_witness is not None:
            for _ in range(4):
                cfg = _pad_to_n(list(prev_witness), n, region, rng, searcher)
                if cfg is not None:
                    candidates.append(cfg)

        missing = budget.configurations - len(candidates)
        candidates += _random_configs(missing, n, 20 * budget.configurations, region, rng, searcher)
        if len(candidates) < budget.configurations:
            exhausted = True

        if not candidates:
            raise NumericsError(
                f"no admissible {n}-node configuration found in the region; "
                "the region may not intersect the domain"
            )

        configs = np.array(candidates)
        scores = [searcher.checked(s) for s in searcher.score_many(configs)]
        samples = len(scores)
        refined = searcher.refine(configs[_ranking(scores, configs)[:3]], budget.refine_rounds)
        samples += sum(used for _, _, used in refined)
        best = _ranking([s for _, s, _ in refined], np.array([c for c, _, _ in refined]))[0]
        best_cfg, (best_count, _), _ = refined[best]
        if best_count < prev_best and prev_witness is not None:
            # Appending a node to the previous witness keeps its negatives
            # (eigenvalue interlacing); a drop can only be the zero threshold
            # reclassifying a borderline eigenvalue, so carry the count.
            for _ in range(20):
                cfg = _pad_to_n(list(prev_witness), n, region, rng, searcher)
                if cfg is None:
                    continue
                samples += 1
                s = searcher.checked(searcher.score_many(cfg[None])[0])
                best_cfg = cfg
                if s[0] >= prev_best:
                    best_count = s[0]
                    break
            best_count = max(best_count, prev_best)
        if best_count < kappa and n >= q + 2 * ell and region.kind == "whole-disk":
            # q + 2l nodes of the disk attain kappa.  Where the plain count
            # misses, pole clusters have pushed a negative eigenvalue under the
            # relative threshold: count the structured candidates after the
            # Jacobi equilibration that witness verification uses.
            for cfg in candidates[:structured]:
                samples += 1
                matrix = HermitianMatrix(pick_entries(f.eval_many(cfg), cfg))
                if equilibrated_inertia(matrix, tol).n_neg == kappa:
                    best_count, best_cfg = kappa, cfg
                    break
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
