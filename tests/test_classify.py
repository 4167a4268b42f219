"""Witness plans, plateau classification, minimal witness size, triple scan."""

import threading

import numpy as np
import pytest

from negsquares import (
    BlaschkeProduct,
    NumericsError,
    Region,
    SchurConstant,
    SearchBudget,
    StandardFunction,
    UnitDiskPoint,
    ValidationError,
    find_N,
    hindmarsh_test,
    kn_profile,
    plateau_classify,
    verify_witness,
    witness_plan,
)
from negsquares.classify import HindmarshReport
from negsquares.functions import PointConfig
from negsquares.hermitian import DEFAULT_TOL, HermitianMatrix, _spectrum, inertia
from negsquares.pick import pick_entries
from conftest import (
    example_sharp,
    jump_function,
    nonvanishing_schur_part,
    quotient,
    schur_only,
)


class TestWitnessPlan:
    def test_single_jump_plan(self):
        f = jump_function(0.0)
        plan = witness_plan(f, 1e-2, seed=4)
        assert plan.size == 2
        assert plan.jump_nodes == (0.0,)
        assert len(plan.jump_companions) == 1
        assert abs(plan.jump_companions[0]) == pytest.approx(5e-3)

    def test_double_pole_plan(self):
        f = quotient(SchurConstant(1.0), [(0.5, 2)])
        plan = witness_plan(f, 1e-2, seed=4)
        assert plan.size == 2
        (w, cluster), = plan.pole_clusters
        assert w == 0.5
        assert len(cluster) == 2
        radii = sorted(abs(c - 0.5) for c in cluster)
        assert radii[0] == pytest.approx(2.5e-3)
        assert radii[1] == pytest.approx(5e-3)

    def test_disjoint_pole_and_jump(self):
        f = StandardFunction.build(
            SchurConstant(0.9),
            BlaschkeProduct(((UnitDiskPoint(0.5), 1),)),
            jumps=((UnitDiskPoint(-0.5), 0.2),),
        )
        plan = witness_plan(f, 1e-2, seed=0)
        assert plan.size == 3  # one pole + jump + companion

    def test_epsilon_too_large(self):
        f = quotient(SchurConstant(1.0), [(0.5, 1)])
        with pytest.raises(ValidationError, match="admissible"):
            witness_plan(f, 0.2, seed=0)  # bound is (1 - 0.5)/4 = 0.125

    def test_default_epsilon_capped(self):
        f = quotient(SchurConstant(1.0), [(0.5, 1)])
        plan = witness_plan(f, seed=0)
        assert plan.epsilon <= 0.125

    def test_points_in_domain(self):
        f = example_sharp(2)
        plan = witness_plan(f, seed=9)
        cfg = plan.points()
        assert all(f.is_defined_at(p) for p in cfg)


class TestVerifyWitness:
    def test_jump_function_first_epsilon(self):
        f = jump_function(0.0)
        report = verify_witness(f, witness_plan(f, 1e-2, seed=1))
        assert report.success
        assert report.inertia.n_neg == 1
        assert report.achieved_epsilon == pytest.approx(1e-2)

    def test_schur_function_vacuous(self):
        f = schur_only(SchurConstant(0.5))
        report = verify_witness(f, witness_plan(f, seed=2))
        assert report.success and report.target == 0

    def test_single_pole(self):
        f = example_sharp(3)
        report = verify_witness(f, witness_plan(f, seed=3))
        assert report.success and report.inertia.n_neg == 1

    def test_coincident_pole_jump(self):
        f = StandardFunction.build(
            SchurConstant(0.8),
            BlaschkeProduct(((UnitDiskPoint(0.3), 1),)),
            jumps=((UnitDiskPoint(0.3), 0.5),),
        )
        report = verify_witness(f, witness_plan(f, seed=5))
        assert report.success and report.inertia.n_neg == 2

    def test_multiplicity_two_pole_with_jump(self):
        f = StandardFunction.build(
            SchurConstant(0.9),
            BlaschkeProduct(((UnitDiskPoint(0.5), 2),)),
            jumps=((UnitDiskPoint(-0.4), 2.0),),
        )
        report = verify_witness(f, witness_plan(f, seed=6))
        assert report.success and report.inertia.n_neg == 3

    def test_never_exceeds_bound(self, rng):
        f = StandardFunction.build(
            SchurConstant(0.9),
            BlaschkeProduct(((UnitDiskPoint(0.5), 2),)),
            jumps=((UnitDiskPoint(-0.4), 2.0),),
        )
        for seed in range(5):
            report = verify_witness(f, witness_plan(f, seed=seed))
            assert report.inertia.n_neg <= 3

    def test_trajectory_recorded(self):
        f = jump_function(0.0)
        report = verify_witness(f, witness_plan(f, 1e-2, seed=1))
        assert len(report.trajectory) >= 1
        assert report.trajectory[0][0] == pytest.approx(1e-2)


class TestPlateauClassify:
    def test_schur_function(self):
        report = plateau_classify(schur_only(SchurConstant(0.4)), seed=1)
        assert not report.inconclusive
        assert report.kappa_hat == 0
        assert report.n_first == 0
        assert report.subscript_check is True
        assert report.bound_check == "ok"

    def test_unimodular_jump(self):
        report = plateau_classify(jump_function(0.0), seed=1)
        assert report.kappa_hat == 1
        assert report.n_attained == 2
        assert report.subscript_check is True  # best(2) == 1
        assert report.bound_check == "ok"

    def test_sharp_subscript(self):
        # the doubled size is sharp: one fewer node misses the count
        report = plateau_classify(jump_function(0.5), seed=1)
        assert report.kappa_hat == 1
        assert report.profile.best(1) == 0

    def test_large_jump(self):
        report = plateau_classify(jump_function(2.0), seed=1)
        assert report.kappa_hat == 1
        assert report.n_attained == 1

    def test_quotient_kappa_two(self):
        f = quotient(SchurConstant(0.9), [(0.3 + 0.2j, 1), (-0.4, 1)])
        report = plateau_classify(f, seed=2, budget=SearchBudget(150, 20))
        assert report.kappa_hat == 2
        assert report.bound_check == "ok"

    def test_region_restricted(self):
        # away from the jump the function is unimodular constant: class zero
        f = jump_function(0.0)
        report = plateau_classify(f, region=Region.disk(0.5, 0.2), seed=3)
        assert report.kappa_hat == 0
        assert report.jumps_in_region == 0
        assert report.bound_check == "n/a"

    def test_region_avoiding_pole_still_counts_it(self):
        # reciprocal of a Blaschke factor exceeds modulus one on the whole
        # disk, so even a region far from the pole reaches plateau q = 1
        f = quotient(SchurConstant(1.0), [(0.5, 1)])
        report = plateau_classify(f, region=Region.disk(-0.5, 0.2), seed=4)
        assert report.kappa_hat == 1
        assert max(r.best_count for r in report.profile.rows) == 1

    def test_report_serialization(self):
        report = plateau_classify(jump_function(0.0), seed=1)
        doc = report.to_document()
        assert doc["kappa_hat"] == 1
        assert doc["profile"]["rows"][0]["best_count"] == 0
        table = report.to_table()
        assert "class estimate" in table and ": 1" in table


class TestFindN:
    def test_schur_zero(self):
        report = find_N(schur_only(SchurConstant(0.2)), seed=1)
        assert report.n_hat == 0 and report.certified_exact

    def test_large_jump_single_node(self):
        report = find_N(jump_function(2.0), seed=1)
        assert report.n_hat == 1
        assert report.certified_exact
        assert len(report.witness) == 1

    def test_unimodular_jump_needs_two(self):
        report = find_N(jump_function(0.0), seed=1, budget=SearchBudget(400, 10))
        assert report.n_hat == 2
        assert not report.certified_exact  # upper bound q + 2l, above q + l

    def test_reciprocal_coordinate(self):
        f = quotient(SchurConstant(1.0), [(0.0, 1)])
        report = find_N(f, seed=1)
        assert report.n_hat == 1 and report.certified_exact

    def test_bounds_attained_both_ends(self):
        low = find_N(jump_function(2.0), seed=2)
        high = find_N(jump_function(0.0), seed=2)
        assert low.n_hat == max(low.kappa, 1)
        assert high.n_hat == high.kappa + high.kappa  # q + 2l with q=0, l=1


def _finite_value(evaluate, z):
    v = complex(evaluate(z))
    if not np.isfinite(v):
        raise NumericsError(f"non-finite value {v} at {complex(z)}")
    return v


def _sequential_hindmarsh(f, region=None, triples=10_000, seed=0, tol=DEFAULT_TOL, evaluate=None):
    """The one-triple-at-a-time scan the blocked ``hindmarsh_test`` must reproduce.

    A standard function's node is evaluated by ``evaluate``, by default a
    one-point ``eval_many`` call.
    """
    region = region or Region.whole_disk()
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(3,)))

    structural = []
    if isinstance(f, StandardFunction):
        evaluate = evaluate or (lambda z: f.eval_many(np.array([z]))[0])
        for z in f.jump_points():
            if region.contains(z) and f.is_defined_at(z):
                structural.append(z)
        for w, mult in f.pole_points():
            for radius in (1e-2, 1e-3, 1e-4):
                for _ in range(mult + 1):
                    c = w + radius * np.exp(2j * np.pi * rng.random())
                    if region.contains(c) and f.is_defined_at(c):
                        structural.append(c)
    else:
        evaluate = f

    pool = list(region.sample(rng, max(64, min(triples, 4096))))

    def triple_stream():
        for i, s in enumerate(structural):
            yield [s, pool[(2 * i) % len(pool)], pool[(2 * i + 1) % len(pool)]]
        while True:
            picks = []
            while len(picks) < 3:
                if structural and rng.random() < 0.25:
                    picks.append(structural[int(rng.integers(len(structural)))])
                else:
                    picks.append(pool[int(rng.integers(len(pool)))])
            yield picks

    tested = failed = 0
    for picks in triple_stream():
        if tested >= triples:
            break
        cfg = np.array(picks, dtype=complex)
        d = np.abs(cfg[:, None] - cfg[None, :])[np.triu_indices(3, 1)]
        if float(np.min(d)) < 1e-12:
            continue
        try:
            vals = np.array([_finite_value(evaluate, z) for z in cfg])
        except Exception as exc:
            failed += 1
            if failed >= triples:
                raise NumericsError(f"{failed} evaluations failed, last: {exc!r}") from exc
            continue
        tested += 1
        matrix = HermitianMatrix(pick_entries(vals, cfg))
        if inertia(matrix, tol).n_neg > 0:
            w, _ = _spectrum(matrix.entries, tol)
            return HindmarshReport(False, tested, PointConfig.from_complex(cfg), float(w[0]))
    return HindmarshReport(True, tested, None, None)


def _scan_outcome(scan, f, **kwargs):
    """Every field of a scan report, floats as hex, or the type and message it raised."""
    try:
        rep = scan(f, **kwargs)
    except NumericsError as exc:
        return ("raised", type(exc).__name__, str(exc), repr(exc.__cause__))
    points = None if rep.violation is None else [p.value for p in rep.violation]
    lowest = None if rep.most_negative is None else rep.most_negative.hex()
    return (rep.consistent, type(rep.triples_tested), rep.triples_tested, points, lowest)


def _raises_on_right_half(z):
    if z.real > 0:
        raise ValueError(f"undefined at {complex(z)}")
    return 1.5 if abs(z + 0.5) < 0.2 else 0.5 * z  # a few triples violate, most fail


def _infinite_on_right(z):
    if z.real > 0.3:
        return complex("inf") if z.imag > 0 else float("nan")  # failed evaluations
    return 3.0 if z.real < -0.3 and z.imag > 0.3 else 0.0


def _overflowing_on_right(z):
    if z.real > 0.3:
        return 1e200  # finite, but the Pick assembly overflows and the eigensolver fails
    return 3.0 if z.real < -0.3 and z.imag > 0.3 else 0.0


def _raises_near_circle(z):
    if abs(z) > 0.95:
        raise ZeroDivisionError("outside the disk of radius 0.95")
    return 0.3 * z * z


_REFERENCE_CASES = {
    "bounded": (lambda: schur_only(SchurConstant(0.7)), {"triples": 1500}),
    "jump": (lambda: jump_function(0.0), {"triples": 2000}),
    "mild-jump": (  # violating triples need a pool point near the jump: a late exit
        lambda: StandardFunction.build(
            SchurConstant(0.0), BlaschkeProduct.identity(), jumps=((UnitDiskPoint(0.7), 0.3),)
        ),
        {"triples": 2000},
    ),
    "simple-pole": (lambda: example_sharp(1), {"triples": 2000}),
    "double-pole": (lambda: quotient(SchurConstant(1.0), [(0.5, 2)]), {"triples": 2000}),
    "pole-near-circle": (lambda: quotient(SchurConstant(0.05), [(0.95, 1)]), {"triples": 2000}),
    "jump-on-pole": (
        lambda: StandardFunction.build(
            SchurConstant(0.8),
            BlaschkeProduct(((UnitDiskPoint(0.3), 1),)),
            jumps=((UnitDiskPoint(0.3), 0.5),),
        ),
        {"triples": 2000},
    ),
    "disk-around-nothing": (
        lambda: jump_function(0.0), {"region": Region.disk(0.5, 0.2), "triples": 600}
    ),
    "annulus-reciprocal": (
        lambda: quotient(SchurConstant(1.0), [(0.0, 1)]),
        {"region": Region.annulus_sector(0.2, 0.8, 0.0, 2 * np.pi), "triples": 500},
    ),
    "callable-raising": (lambda: _raises_near_circle, {"triples": 700}),
}

_STANDARD_CASES = sorted(
    c for c, (make, _) in _REFERENCE_CASES.items() if isinstance(make(), StandardFunction)
)


class TestHindmarsh:
    def test_schur_consistent(self, rng):
        part = nonvanishing_schur_part(rng)
        report = hindmarsh_test(schur_only(part), triples=2000, seed=5)
        assert report.consistent
        assert report.triples_tested == 2000

    def test_jump_violation_found_fast(self):
        report = hindmarsh_test(jump_function(0.0), triples=2000, seed=5)
        assert not report.consistent
        assert report.most_negative < 0
        assert any(p.value == 0.0 for p in report.violation)

    def test_pole_violation(self):
        f = example_sharp(1)
        report = hindmarsh_test(f, triples=2000, seed=5)
        assert not report.consistent

    def test_reciprocal_on_annulus(self):
        f = quotient(SchurConstant(1.0), [(0.0, 1)])
        region = Region.annulus_sector(0.2, 0.8, 0.0, 2 * np.pi)
        report = hindmarsh_test(f, region=region, triples=500, seed=6)
        assert not report.consistent
        assert report.triples_tested == 1  # single diagonal entry already negative

    def test_region_without_structure_consistent(self):
        f = jump_function(0.0)
        report = hindmarsh_test(f, region=Region.disk(0.5, 0.2), triples=1000, seed=7)
        assert report.consistent

    def test_callable_interface(self):
        report = hindmarsh_test(lambda z: 0.5 * z, triples=500, seed=8)
        assert report.consistent

    @pytest.mark.parametrize("seed", [3, 8])
    @pytest.mark.parametrize("case", sorted(_REFERENCE_CASES))
    def test_matches_sequential_scan(self, case, seed):
        make, kwargs = _REFERENCE_CASES[case]
        f = make()
        got = _scan_outcome(hindmarsh_test, f, seed=seed, **kwargs)
        assert got == _scan_outcome(_sequential_hindmarsh, f, seed=seed, **kwargs)
        assert got[1] is int

    @pytest.mark.parametrize("size", [64, 1000, 4096])
    def test_block_draws_equal_scalar_draws(self, size):
        blocks = [1, 2, 4, 8, 16, 32, 64, 128, 256, 455, 455, 3, 455, 1, 100]
        block_rng, scalar_rng = np.random.default_rng(size), np.random.default_rng(size)
        for k in blocks:
            got = block_rng.integers(size, size=3 * k)
            want = [int(scalar_rng.integers(size)) for _ in range(3 * k)]
            assert got.tolist() == want
        assert block_rng.bit_generator.state == scalar_rng.bit_generator.state

    @pytest.mark.parametrize("seed", range(8))
    def test_failures_counted_in_stream_order(self, seed):
        got = _scan_outcome(hindmarsh_test, _raises_on_right_half, triples=50, seed=seed)
        want = _scan_outcome(_sequential_hindmarsh, _raises_on_right_half, triples=50, seed=seed)
        assert got == want
        if got[0] == "raised":
            assert got[2].startswith("50 evaluations failed, last: ValueError")

    @pytest.mark.parametrize("seed", range(6))
    def test_non_finite_values_count_as_failures(self, seed):
        got = _scan_outcome(hindmarsh_test, _infinite_on_right, triples=20, seed=seed)
        assert got == _scan_outcome(_sequential_hindmarsh, _infinite_on_right, triples=20, seed=seed)
        if got[0] == "raised":
            assert got[2].startswith("20 evaluations failed, last: NumericsError('non-finite value")

    def test_nan_callable_raises_numerics_error(self):
        with pytest.raises(NumericsError, match=r"1000 evaluations failed, last: .*non-finite"):
            hindmarsh_test(lambda z: float("nan"), triples=1000, seed=1)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # overflow in the Pick assembly
    @pytest.mark.parametrize("seed", [0, 12, 48])
    def test_eigensolver_failure_stops_in_stream_order(self, seed):
        # seeds 12 and 48 violate on a triple scored in a block before one that LAPACK rejects
        got = _scan_outcome(hindmarsh_test, _overflowing_on_right, triples=20, seed=seed)
        assert got == _scan_outcome(_sequential_hindmarsh, _overflowing_on_right, triples=20, seed=seed)
        assert got[0] == "raised" if seed == 0 else got[0] is False

    @pytest.mark.parametrize("case", _STANDARD_CASES)
    def test_block_values_equal_one_point_values(self, case):
        make, kwargs = _REFERENCE_CASES[case]
        f = make()
        region = kwargs.get("region") or Region.whole_disk()
        z = np.concatenate([region.sample(np.random.default_rng(5), 4096), f.jump_points()])
        z = z[[f.is_defined_at(p) for p in z]]
        one_point = np.array([f.eval_many(z[i : i + 1])[0] for i in range(len(z))])
        for k in (1, 2, 455, 1365, len(z)):  # a block's new nodes number at most 3 * 455
            assert f.eval_many(z[:k]).tobytes() == one_point[:k].tobytes()

    @pytest.mark.parametrize("seed", [3, 8])
    @pytest.mark.parametrize("case", _STANDARD_CASES)
    def test_matches_scalar_eval_scan(self, case, seed):
        # the scan before block evaluation: only the last bits of most_negative may move
        make, kwargs = _REFERENCE_CASES[case]
        f = make()
        got = hindmarsh_test(f, seed=seed, **kwargs)
        want = _sequential_hindmarsh(f, seed=seed, evaluate=f.eval, **kwargs)
        assert (got.consistent, got.triples_tested) == (want.consistent, want.triples_tested)
        assert got.violation == want.violation
        if want.most_negative is None:
            assert got.most_negative is None
        else:
            assert got.most_negative == pytest.approx(want.most_negative, rel=1e-14, abs=0.0)

    def test_raising_block_falls_back_node_by_node(self, monkeypatch):
        f, kwargs = schur_only(SchurConstant(0.7)), {"triples": 1500, "seed": 3}
        blocks = []
        real = StandardFunction.eval_many
        monkeypatch.setattr(StandardFunction, "eval_many", lambda g, z: blocks.append(z) or real(g, z))
        hindmarsh_test(f, **kwargs)
        chosen = blocks[6][len(blocks[6]) // 2]  # one node in the middle of a block
        calls = []

        def flaky(g, z):
            calls.append(len(z))
            if np.any(z == chosen):
                raise UndefinedAtPole(complex(chosen))
            return real(g, z)

        monkeypatch.setattr(StandardFunction, "eval_many", flaky)
        got = _scan_outcome(hindmarsh_test, f, **kwargs)
        assert calls[6] == len(blocks[6]) and calls[7 : 7 + calls[6]] == [1] * calls[6]
        assert got == _scan_outcome(_sequential_hindmarsh, f, **kwargs)
        assert got[:3] == (True, int, 1500)  # the chosen node's triples are skipped, not tested

    def test_always_failing_callable_raises(self):
        def broken(z):
            raise ZeroDivisionError("no value here")

        outcome = []

        def scan():
            try:
                hindmarsh_test(broken, triples=10, seed=8)
            except NumericsError as exc:
                outcome.append(exc)

        # in a daemon thread, so a scan that never ends fails the test instead of hanging it
        worker = threading.Thread(target=scan, daemon=True)
        worker.start()
        worker.join(timeout=5.0)
        assert not worker.is_alive()
        assert len(outcome) == 1 and "ZeroDivisionError" in str(outcome[0])

    @pytest.mark.parametrize(
        "region",
        [Region.disk(0.3 + 0.1j, 1e-13), Region.annulus_sector(0.5, 0.5000000000001, 0.0, 1e-13)],
        ids=["disk", "annulus"],
    )
    def test_region_too_small_for_three_nodes_raises(self, region):
        # every sampled pair lies within 1e-12, so no triple is ever kept
        outcome = []

        def scan():
            try:
                hindmarsh_test(schur_only(SchurConstant(0.5)), region=region, triples=1000, seed=1)
            except ValidationError as exc:
                outcome.append(exc)

        # in a daemon thread, so a scan that never ends fails the test instead of hanging it
        worker = threading.Thread(target=scan, daemon=True)
        worker.start()
        worker.join(timeout=5.0)
        assert not worker.is_alive()
        assert len(outcome) == 1 and "too small to separate three nodes" in str(outcome[0])
        assert repr(region.to_document()) in str(outcome[0])


class TestExtensionMonotonicity:
    def test_added_jumps_shift_counts_by_at_most_k(self, rng):
        # adding k artificial jump points moves each profile value up by at
        # most k and never down
        base = schur_only(SchurConstant(0.6))
        k = 2
        modified = StandardFunction.build(
            SchurConstant(0.6),
            BlaschkeProduct.identity(),
            jumps=((UnitDiskPoint(0.1), 2.0), (UnitDiskPoint(-0.3j), 1.5)),
        )
        budget = SearchBudget(150, 10)
        base_counts = [r.best_count for r in kn_profile(base, 5, seed=3, budget=budget).rows]
        mod_counts = [r.best_count for r in kn_profile(modified, 5, seed=3, budget=budget).rows]
        for b, m in zip(base_counts, mod_counts):
            assert b <= m <= b + k
