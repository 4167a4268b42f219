"""Pick assembly and the negative-square profiler."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from negsquares import (
    PointConfig,
    Region,
    SchurConstant,
    SearchBudget,
    NumericsError,
    UndefinedAtPole,
    ValidationError,
    build_pick,
    kn_profile,
    profile_to_csv,
    profile_to_document,
)
from negsquares.hermitian import DEFAULT_TOL, TolerancePolicy, _spectrum
from negsquares.pick import _random_configs, _ranking, _Searcher, pick_entries
from conftest import example_sharp, jump_function, quotient, schur_only


class TestBuildPick:
    def test_zero_function_szego_gram(self, rng):
        f = schur_only(SchurConstant(0.0))
        pts = 0.8 * np.sqrt(rng.random(5)) * np.exp(2j * np.pi * rng.random(5))
        nodes = PointConfig.from_complex(pts)
        result = build_pick(f, nodes)
        want = 1.0 / (1.0 - np.outer(pts, pts.conj()))
        assert np.max(np.abs(result.matrix.entries - want)) < 1e-14
        assert result.inertia.as_tuple() == (0, 0, 5)

    def test_jump_function_block(self):
        result = build_pick(jump_function(0.0), PointConfig.from_complex([0.0, 0.3]))
        assert np.allclose(result.matrix.entries, [[1, 1], [1, 0]])
        assert result.inertia.as_tuple() == (1, 0, 1)

    def test_reciprocal_single_node(self):
        # numerator one over the plain coordinate factor: P_1 = -1/|z|^2
        from negsquares import BlaschkeProduct, UnitDiskPoint, krein_langer_quotient

        f = krein_langer_quotient(SchurConstant(1.0), BlaschkeProduct(((UnitDiskPoint(0.0), 1),)))
        z = 0.5 + 0.1j
        result = build_pick(f, PointConfig.from_complex([z]))
        assert abs(result.matrix.entries[0, 0] + 1.0 / abs(z) ** 2) < 1e-12
        assert result.inertia.as_tuple() == (1, 0, 0)

    def test_pole_node_rejected(self):
        f = example_sharp(1)
        with pytest.raises(UndefinedAtPole):
            build_pick(f, PointConfig.from_complex([0.5, 0.1]))

    def test_kernel_entries_spot_check(self, rng):
        f = example_sharp(2)
        pts = np.array([0.1 + 0.2j, -0.3, 0.4j])
        result = build_pick(f, PointConfig.from_complex(pts))
        vals = np.array([f.eval(z) for z in pts])
        for i in range(3):
            for j in range(3):
                want = (1 - vals[i] * np.conj(vals[j])) / (1 - pts[i] * np.conj(pts[j]))
                got = result.matrix.entries[i, j]
                assert abs(got - want) <= 1e-13 * max(1.0, abs(want))

    def test_hermitian_exact(self, rng):
        f = jump_function(2.0)
        pts = 0.9 * np.sqrt(rng.random(6)) * np.exp(2j * np.pi * rng.random(6))
        result = build_pick(f, PointConfig.from_complex(pts))
        assert result.matrix.asymmetry <= 1e-12 * max(result.matrix.norm_max(), 1.0)

    def test_permutation_invariance(self, rng):
        f = jump_function(0.5)
        pts = [0.0, 0.2, -0.4 + 0.1j, 0.3j]
        base = build_pick(f, PointConfig.from_complex(pts)).inertia
        for _ in range(4):
            perm = rng.permutation(4)
            shuffled = build_pick(
                f, PointConfig.from_complex([pts[i] for i in perm])
            ).inertia
            assert shuffled.as_tuple() == base.as_tuple()


class TestRegion:
    def test_whole_disk_contains(self):
        assert Region.whole_disk().contains(0.99)
        assert not Region.whole_disk().contains(1.0)

    def test_disk_validation(self):
        with pytest.raises(ValidationError):
            Region.disk(0.8, 0.3)

    def test_disk_membership_and_sampling(self, rng):
        region = Region.disk(-0.5, 0.3)
        pts = region.sample(rng, 200)
        assert np.all(np.abs(pts + 0.5) < 0.3)
        assert region.contains(-0.5) and not region.contains(0.0)

    def test_annulus_sector(self, rng):
        region = Region.annulus_sector(0.3, 0.6, 0.0, np.pi / 2)
        pts = region.sample(rng, 200)
        assert np.all((np.abs(pts) > 0.3) & (np.abs(pts) < 0.6))
        assert np.all((np.angle(pts) >= 0) & (np.angle(pts) <= np.pi / 2))
        assert region.contains(0.4 + 0.2j)
        assert not region.contains(-0.4)

    @pytest.mark.parametrize(
        "region",
        [
            Region.whole_disk(),
            Region.disk(0.3 + 0.2j, 0.2),
            Region.annulus_sector(0.1, 0.5, 0.0, np.pi),
            Region.annulus_sector(0.2, 0.7, 3.0, 4.0),  # across the angle wrap at pi
            Region.annulus_sector(0.2, 0.7, -np.pi, np.pi),  # the whole ring
        ],
        ids=["whole-disk", "disk", "half-ring", "wrapped-sector", "ring"],
    )
    def test_contains_on_arrays_matches_scalar_calls(self, region, rng):
        d = np.array([-1e-15, -1e-16, 0.0, 1e-16, 1e-15])  # on and next to a boundary
        turn = np.exp(2j * np.pi * rng.random(16))
        if region.kind == "whole-disk":
            z = np.outer(1.0 - 1e-14 + d, turn)
        elif region.kind == "disk":
            z = region.center + np.outer(region.radius + d, turn)
        else:
            width = region.theta_max - region.theta_min
            inside = np.exp(1j * (region.theta_min + width * rng.random(16)))
            edges = [region.theta_min, region.theta_max, np.pi, -np.pi]
            z = np.concatenate([
                np.outer([region.r_min, region.r_max], 1.0 + d).ravel()[:, None] * inside,
                0.4 * np.exp(1j * np.add.outer(edges, d)),
            ], axis=None)
        drawn = region.sample(rng, 100)
        z = np.concatenate([np.ravel(z), [complex(-0.4, 0.0), complex(-0.4, -0.0)], drawn])
        got = region.contains(z)
        assert got.dtype == bool and got.shape == z.shape
        assert np.array_equal(region.contains(z.reshape(-1, 2)), got.reshape(-1, 2))
        want = [region.contains(p) for p in z]
        assert all(type(w) is bool for w in want)
        assert list(got) == want
        assert 0 < np.count_nonzero(got) < len(z)
        # off the boundary the one-point formula agrees; on it, Python's abs
        # and numpy's may round a modulus apart in the last bit
        assert want[-len(drawn):] == [_scalar_contains(region, p) for p in drawn]


class TestProfile:
    def test_schur_function_flat_zero(self):
        f = schur_only(SchurConstant(0.3))
        result = kn_profile(f, 4, seed=11)
        assert [row.best_count for row in result.rows] == [0, 0, 0, 0]
        assert result.plateau == (0, 1)

    def test_large_jump_single_node(self):
        # modulus above one at the jump: one negative already at size one
        f = jump_function(2.0)
        result = kn_profile(f, 4, seed=3)
        assert result.rows[0].best_count == 1
        assert all(row.best_count == 1 for row in result.rows)

    def test_unimodular_jump_needs_two_nodes(self):
        f = jump_function(0.0)
        result = kn_profile(f, 5, seed=5)
        counts = [row.best_count for row in result.rows]
        assert counts[0] == 0
        assert counts[1:] == [1, 1, 1, 1]
        assert result.plateau == (1, 2)

    def test_monotone_and_bounded(self, rng):
        f = quotient(SchurConstant(0.9), [(0.3 + 0.2j, 1), (-0.4, 1)])
        result = kn_profile(f, 6, seed=2, budget=SearchBudget(100, 10))
        counts = [row.best_count for row in result.rows]
        assert all(b >= a for a, b in zip(counts, counts[1:]))
        assert max(counts) <= 2
        assert counts[-1] == 2

    def test_witness_certifies_count(self):
        f = jump_function(0.0)
        result = kn_profile(f, 3, seed=9)
        row = result.rows[2]
        check = build_pick(f, row.witness)
        assert check.inertia.n_neg == row.best_count

    def test_deterministic_for_seed(self):
        f = jump_function(3.0)
        a = kn_profile(f, 4, seed=42, budget=SearchBudget(60, 5))
        b = kn_profile(f, 4, seed=42, budget=SearchBudget(60, 5))
        assert [r.best_count for r in a.rows] == [r.best_count for r in b.rows]
        assert [tuple(r.witness.values()) for r in a.rows] == [
            tuple(r.witness.values()) for r in b.rows
        ]

    def test_structured_draw_order_pinned(self):
        # the pole rings of every scale are drawn before any padding node;
        # drawing them interleaved moves the n = 3 witness by about 1e-3
        f = quotient(SchurConstant(0.5), [(0.3 + 0.2j, 2)])
        result = kn_profile(f, 3, budget=SearchBudget(10, 2), seed=5)
        pinned = {
            2: [0.2995165956835929 + 0.2001277507999154j, 0.3001800198305495 + 0.19982652706087423j],
            3: [
                0.30027414174106687 + 0.19958185372678355j,
                0.29978723491094633 + 0.1998687330320302j,
                0.16906873898099462 + 0.6439060159267839j,
            ],
        }
        for n, want in pinned.items():
            assert np.allclose(result.rows[n - 1].witness.values(), want, rtol=0.0, atol=1e-12)

    def test_region_restriction_avoids_jump(self):
        # away from the jump the function is a unimodular constant: flat zero
        f = jump_function(0.0)
        region = Region.disk(0.5, 0.2)
        result = kn_profile(f, 4, region=region, seed=1)
        assert all(row.best_count == 0 for row in result.rows)
        for row in result.rows:
            assert all(region.contains(p.value) for p in row.witness)

    def test_region_hides_pole_until_extra_node(self):
        # inside a small disk around the origin the cubic-over-factor function
        # looks bounded to three nodes; the fourth reveals the pole
        f = example_sharp(3)
        region = Region.disk(0.0, 0.12)
        result = kn_profile(f, 4, region=region, budget=SearchBudget(300, 40), seed=21)
        assert [r.best_count for r in result.rows] == [0, 0, 0, 1]

    def test_region_monotonicity(self):
        f = example_sharp(1)
        small = Region.disk(-0.5, 0.15)
        large = Region.disk(-0.5, 0.45)
        budget = SearchBudget(150, 15)
        small_counts = [r.best_count for r in kn_profile(f, 3, small, budget, seed=8).rows]
        large_counts = [r.best_count for r in kn_profile(f, 3, large, budget, seed=8).rows]
        assert all(s <= l for s, l in zip(small_counts, large_counts))


_disk_points = st.builds(
    lambda r, t: complex(r * np.exp(2j * np.pi * t)), st.floats(0.05, 0.85), st.floats(0.0, 1.0)
)


@st.composite
def _small_standard_functions(draw):
    """S/B with a constant S and jumps, q + l <= 3, its nodes 0.05 or more apart."""
    from negsquares import BlaschkeProduct, StandardFunction, UnitDiskPoint

    mults = draw(st.lists(st.integers(1, 2), max_size=2).filter(lambda m: sum(m) <= 3))
    ell = draw(st.integers(0, 3 - sum(mults)))
    points = draw(st.lists(_disk_points, min_size=len(mults) + ell, max_size=len(mults) + ell))
    gaps = [abs(a - b) for i, a in enumerate(points) for b in points[i + 1:]]
    assume(min(gaps, default=1.0) >= 0.05)
    c = draw(st.floats(0.1, 1.0)) * np.exp(2j * np.pi * draw(st.floats(0.0, 1.0)))
    jumps = tuple((UnitDiskPoint(z), draw(st.complex_numbers(max_magnitude=2.0)))
                  for z in points[len(mults):])
    poles = tuple((UnitDiskPoint(w), m) for w, m in zip(points, mults))
    return StandardFunction.build(SchurConstant(c), BlaschkeProduct(poles, 1.0), jumps=jumps)


class TestProfileProperties:
    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(f=_small_standard_functions(), whole=st.booleans(), seed=st.integers(0, 2**16))
    def test_counts_rise_with_n_and_stay_within_kappa(self, f, whole, seed):
        q, ell, kappa = f.counts()
        region = Region.whole_disk() if whole else Region.disk(0.2 - 0.1j, 0.5)
        try:
            result = kn_profile(f, q + 2 * ell + 1, region, SearchBudget(30, 0), seed=seed)
        except NumericsError:
            # known defect: off the jumps, the Pick matrix of a unimodular
            # constant is rounding noise, which the relative threshold counts
            # as negative; the bound check turns that into this typed error
            assert abs(abs(f.schur.value) - 1.0) <= 1e-12
            return
        counts = [row.best_count for row in result.rows]
        assert all(a <= b for a, b in zip(counts, counts[1:]))
        assert counts[-1] <= kappa
        for row in result.rows:
            assert len(row.witness) == row.n


class TestEmission:
    def test_csv_shape(self):
        f = jump_function(0.0)
        result = kn_profile(f, 3, seed=7)
        text = profile_to_csv(result)
        lines = text.strip().split("\n")
        assert lines[0].startswith("n,best_count,witness_1")
        assert len(lines) == 4
        first = lines[1].split(",")
        assert first[0] == "1" and first[1] == "0"
        # complex literal formatting: re+imi with sign
        assert first[2].endswith("i") and ("+" in first[2] or "-" in first[2])

    def test_document_shape(self):
        f = jump_function(0.0)
        doc = profile_to_document(kn_profile(f, 5, seed=7))
        assert len(doc["rows"]) == 5
        assert doc["plateau"] == {"value": 1, "first_n": 2}
        assert doc["exhausted"] is False


def _stack_functions():
    """A pole pair, a jump, and a jump sitting on a double pole."""
    from negsquares import BlaschkeProduct, StandardFunction, UnitDiskPoint

    on_pole = StandardFunction.build(
        SchurConstant(0.7),
        BlaschkeProduct(((UnitDiskPoint(0.3 + 0.2j), 2), (UnitDiskPoint(-0.4), 1))),
        jumps=((UnitDiskPoint(0.3 + 0.2j), 0.5),),
    )
    return (
        quotient(SchurConstant(0.9), [(0.3 + 0.2j, 1), (-0.4, 1)]),
        jump_function(0.0, at=0.1 - 0.2j),
        on_pole,
    )


def _stack_configs(f, n: int, count: int, rng) -> np.ndarray:
    """Region draws with nodes clustered around the singularities of ``f``."""
    anchors = [w for w, _ in f.pole_points()] + f.jump_points()
    out = Region.whole_disk().sample(rng, count * n).reshape(count, n)
    for row in out[: count // 2]:
        for i, a in enumerate(anchors[:n]):
            row[i] = a + 10.0 ** -rng.integers(1, 5) * np.exp(2j * np.pi * rng.random())
    return out


def _sequential_refine(searcher, config, rounds):
    """The one-move-at-a-time hill climb the stacked ``refine`` must reproduce."""

    def score(cfg):
        return searcher.checked(searcher.score_many(cfg[None])[0])

    best = config.copy()
    best_score = score(best)
    used = 1
    step = 1e-2
    for _ in range(rounds):
        if best_score[0] >= searcher.kappa_cap:
            break
        improved = False
        for i in range(len(best)):
            for d in (step, -step, 1j * step, -1j * step):
                cand = best.copy()
                cand[i] = best[i] + d
                if not searcher.admissible(cand[i], structured=False):
                    continue
                d2 = np.abs(cand[:, None] - cand[None, :])[np.triu_indices(len(cand), 1)]
                if len(cand) > 1 and float(np.min(d2)) < 1e-8:
                    continue
                used += 1
                s = score(cand)
                if s > best_score:
                    best, best_score = cand, s
                    improved = True
        if not improved:
            step /= 2.0
            if step < 1e-9:
                break
    return best, best_score, used


def _scalar_contains(region, z) -> bool:
    """``Region.contains`` as a one-point formula, the reference for the array test."""
    z = complex(z)
    if region.kind == "whole-disk":
        return abs(z) < 1.0 - 1e-14
    if region.kind == "disk":
        return abs(z - region.center) < region.radius
    if not region.r_min < abs(z) < region.r_max:
        return False
    return (np.angle(z) - region.theta_min) % (2.0 * np.pi) < region.theta_max - region.theta_min


def _scalar_admissible(searcher, z, structured) -> bool:
    """Node admissibility one point at a time, the reference for ``_Searcher.admissible``."""
    f = searcher.f
    if abs(z) >= 1.0 - 1e-14 or not _scalar_contains(searcher.region, z):
        return False
    if not f.is_defined_at(z):
        return False
    if z in set(f.jump_points()) or structured:
        return True
    return abs(complex(f.blaschke.eval(z))) >= 1e-8


def _witness_key(config):
    flat = sorted((float(z.real), float(z.imag)) for z in config)
    return tuple(x for pair in flat for x in pair)


def _sorted_order(scores, configs) -> list[int]:
    """Rows in the order of the profile's former tuple sort: best score, then smallest sorted nodes."""
    order = list(range(len(configs)))
    order.sort(key=lambda i: (scores[i], [-x for x in _witness_key(configs[i])]), reverse=True)
    return order


def _tied_stack(rng, count: int, n: int):
    """Scores and configs full of ties: nodes on a 0.1 grid (signed zeros included),
    few distinct scores, and rows repeated with their nodes permuted."""
    configs = np.round(rng.uniform(-0.6, 0.6, (count, n)), 1) + 1j * np.round(
        rng.uniform(-0.6, 0.6, (count, n)), 1
    )
    configs[rng.random((count, n)) < 0.2] *= -1.0  # -0.0 and 0.0 compare equal, as in a tuple
    scores = [(int(c), float(t)) for c, t in zip(rng.integers(0, 3, count),
                                                   rng.choice([0.0, -0.0, 0.25, 1.5], count))]
    for i, j in zip(rng.integers(0, count, count // 3), rng.integers(0, count, count // 3)):
        configs[j] = rng.permutation(configs[i])
        if rng.random() < 0.5:
            scores[j] = scores[i]
    return scores, configs


class TestStackedScoring:
    def test_pick_entries_stack_matches_outer_form(self, rng):
        f = _stack_functions()[2]
        for n in (1, 3, 13):
            z = _stack_configs(f, n, 90, rng)
            vals = f.eval_many(z)
            stack = pick_entries(vals, z)
            for v, row, got in zip(vals, z, stack):
                p = (1.0 - np.outer(v, v.conj())) / (1.0 - np.outer(row, row.conj()))
                assert np.array_equal(got, (p + p.conj().T) / 2.0)
                assert np.array_equal(got, pick_entries(v, row))

    def test_spectrum_stack_matches_single_solves(self, rng):
        f = _stack_functions()[0]
        z = _stack_configs(f, 7, 60, rng)
        for tol in (TolerancePolicy.relative(1e-9), TolerancePolicy.absolute(1e-6)):
            w, tau = _spectrum(pick_entries(f.eval_many(z), z), tol)
            assert w.shape == (60, 7) and tau.shape == (60,)
            for row, w_row, tau_row in zip(z, w, tau):
                w1, tau1 = _spectrum(pick_entries(f.eval_many(row), row), tol)
                assert np.array_equal(w_row, w1) and tau_row == tau1

    @pytest.mark.parametrize("which", range(3))
    def test_score_many_matches_scalar_score(self, which, rng):
        f = _stack_functions()[which]
        searcher = _Searcher(f, Region.whole_disk(), DEFAULT_TOL, f.counts()[2])
        for n in (1, 2, 5, 13):
            configs = _stack_configs(f, n, 150, rng)  # 150 * 13^2 crosses the chunk size
            for cfg, got in zip(configs, searcher.score_many(configs)):
                w = np.linalg.eigvalsh(pick_entries(f.eval_many(cfg), cfg))
                count = int(np.sum(w < -DEFAULT_TOL.threshold(w)))
                assert got == (count, -float(np.sum(w[: count + 1])))
                assert type(got[0]) is int and type(got[1]) is float

    @pytest.mark.parametrize("which", range(3))
    def test_refine_matches_sequential_climb(self, which, rng):
        f = _stack_functions()[which]
        for region in (Region.whole_disk(), Region.disk(0.3 + 0.2j, 0.2)):
            searcher = _Searcher(f, region, DEFAULT_TOL, f.counts()[2])
            for n in (2, 3, 5):
                configs = _stack_configs(f, n, 6, rng)
                inside = np.vectorize(region.contains)(configs)
                configs = np.where(inside, configs, region.sample(rng, 6 * n).reshape(6, n))
                wants = [_sequential_refine(searcher, cfg, 12) for cfg in configs]
                # one climb alone, and all six side by side
                for got, want in zip([searcher.refine(configs[:1], 12)[0]], wants):
                    assert np.array_equal(got[0], want[0]) and got[1:] == want[1:]
                for got, want in zip(searcher.refine(configs, 12), wants):
                    assert np.array_equal(got[0], want[0]) and got[1:] == want[1:]

    def test_refine_rebuilds_moves_filtered_before_an_acceptance(self):
        # two nodes 1e-8 apart next to a pole, from a disk-region profile: a
        # move rejected as too close to the old best is usable after the
        # other node moves, and the one-at-a-time climb scores it
        f = quotient(SchurConstant(0.9), [(-0.49686051211399057 + 0.027914148154737996j, 1)])
        region = Region.disk(-0.49686051211399057 + 0.027914148154737996j, 0.15)
        searcher = _Searcher(f, region, DEFAULT_TOL, 2)
        rng = np.random.default_rng(4)
        anchor = -0.49686051211399057 + 0.027914148154737996j
        configs = anchor + 1e-8 * np.exp(2j * np.pi * rng.random((20, 2))) * (1 + rng.random((20, 2)))
        for got, cfg in zip(searcher.refine(configs, 40), configs):
            want = _sequential_refine(searcher, cfg, 40)
            assert np.array_equal(got[0], want[0]) and got[1:] == want[1:]

    def test_refine_keeps_moves_of_other_nodes_filtered_while_a_pair_is_close(self):
        # nodes 0 and 1 start 1e-9 apart: until one of them moves away, no
        # move of another node gives a usable configuration
        f = _stack_functions()[0]
        searcher = _Searcher(f, Region.whole_disk(), DEFAULT_TOL, 4)  # above q + l: every climb runs
        rng = np.random.default_rng(9)
        configs = Region.whole_disk().sample(rng, 8 * 4).reshape(8, 4)
        configs[:, 1] = configs[:, 0] + 1e-9 * np.exp(2j * np.pi * rng.random(8))
        configs[::2] = configs[::2, ::-1]  # the close pair last in every other row
        for got, cfg in zip(searcher.refine(configs, 12), configs):
            want = _sequential_refine(searcher, cfg, 12)
            assert np.array_equal(got[0], want[0]) and got[1:] == want[1:]

    @pytest.mark.parametrize("seed", range(6))
    def test_ranking_matches_tuple_sort_with_ties(self, seed):
        rng = np.random.default_rng(seed)
        for count, n in ((1, 1), (1, 5), (2, 2), (40, 1), (60, 2), (60, 4), (25, 13)):
            scores, configs = _tied_stack(rng, count, n)
            assert list(_ranking(scores, configs)) == _sorted_order(scores, configs)

    @pytest.mark.parametrize("which", range(3))
    def test_ranking_matches_tuple_sort_on_scored_stacks(self, which, rng):
        f = _stack_functions()[which]
        searcher = _Searcher(f, Region.whole_disk(), DEFAULT_TOL, f.counts()[2])
        for n in (1, 3, 6):
            configs = _stack_configs(f, n, 80, rng)
            configs = np.concatenate([configs, [rng.permutation(row) for row in configs[:20]]])
            scores = searcher.score_many(configs)
            assert list(_ranking(scores, configs)) == _sorted_order(scores, configs)

    def test_checked_rejects_a_count_above_kappa(self):
        f = jump_function(0.0)
        searcher = _Searcher(f, Region.whole_disk(), DEFAULT_TOL, f.counts()[2])
        assert searcher.checked((1, 0.5)) == (1, 0.5)
        with pytest.raises(NumericsError, match="above the certified bound 1"):
            searcher.checked((2, 0.5))

    @pytest.mark.parametrize("region", [Region.whole_disk(), Region.disk(0.1, 0.3)])
    def test_profile_raises_on_a_score_above_kappa(self, region, monkeypatch):
        # the bound check is the only guard on profile scores: a count above
        # q + l must end the search with the typed error, never be reported
        score_many = _Searcher.score_many
        monkeypatch.setattr(
            _Searcher, "score_many", lambda self, c: [(k + 2, t) for k, t in score_many(self, c)]
        )
        with pytest.raises(NumericsError, match="above the certified bound 1"):
            kn_profile(jump_function(0.0), 3, region, SearchBudget(20, 0), seed=1)

    def test_blocked_padding_draws_match_one_point_draws(self):
        for region in (Region.whole_disk(), Region.disk(-0.5, 0.3)):
            a, b = np.random.default_rng(11), np.random.default_rng(11)
            r = a.random(2 * 5000)
            blocked = region._points(r[0::2], r[1::2])
            single = np.array([region.sample(b, 1)[0] for _ in range(5000)])
            assert np.array_equal(blocked, single)
            assert a.random() == b.random()

    def test_admissible_many_matches_scalar_path(self, rng):
        f = _stack_functions()[2]
        for region in (Region.whole_disk(), Region.disk(0.3 + 0.2j, 0.2),
                       Region.annulus_sector(0.1, 0.5, 0.0, np.pi)):
            searcher = _Searcher(f, region, DEFAULT_TOL, 4)
            z = np.concatenate([
                1.2 * region.sample(rng, 400) if region.kind == "whole-disk" else region.sample(rng, 400),
                _stack_configs(f, 4, 50, rng).ravel(),
                [0.3 + 0.2j, -0.4, 0.3 + 0.2j + 1e-9],
            ])
            z = np.concatenate([z, f.jump_points(), [w for w, _ in f.pole_points()]])
            for structured in (False, True):
                got = searcher.admissible(z, structured)
                assert got.shape == z.shape
                assert list(got) == [_scalar_admissible(searcher, complex(p), structured) for p in z]
                assert [bool(searcher.admissible(p, structured)) for p in z] == list(got)

    @pytest.mark.parametrize("keep", [1.0, 0.4, -0.9])  # share of the disk by real part
    def test_random_configs_match_one_call_at_a_time(self, keep):
        f = _stack_functions()[0]
        for region in (Region.whole_disk(), Region.disk(-0.2, 0.5)):
            searcher = _Searcher(f, region, DEFAULT_TOL, 2)
            searcher.admissible = lambda z, structured=False: np.asarray(z).real < keep
            for n, count, calls in ((1, 120, 400), (4, 37, 400), (13, 60, 90), (13, 50, 7), (250, 3, 5)):
                a, b = np.random.default_rng(n), np.random.default_rng(n)
                want, tried = [], 0
                while len(want) < count and tried < calls:
                    tried += 1
                    pts = []
                    for _ in range(200):  # one-point draws, as the profiler once made them
                        if len(pts) == n:
                            break
                        z = complex(region.sample(a, 1)[0])
                        if searcher.admissible(z, structured=False):
                            pts.append(z)
                    cfg = np.array(pts, dtype=complex)
                    if len(pts) == n and searcher.usable(cfg):
                        want.append(cfg)
                got = _random_configs(count, n, calls, region, b, searcher)
                assert len(got) == len(want)
                assert all(np.array_equal(x, y) for x, y in zip(got, want))
                assert a.random() == b.random()
