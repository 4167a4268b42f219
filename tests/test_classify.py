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
