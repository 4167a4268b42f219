"""Function models: disk points, Blaschke products, Schur grammar, standard functions."""

import numpy as np
import pytest

from negsquares import (
    BlaschkeProduct,
    PointConfig,
    SchurBlaschke,
    SchurConstant,
    SchurPolynomial,
    SchurProduct,
    SchurScaled,
    StandardFunction,
    UndefinedAtPole,
    UnitDiskPoint,
    ValidationError,
    classify_counts,
    disk_samples,
    dump_function,
    function_from_document,
    function_to_document,
    krein_langer_quotient,
    load_function,
)
from conftest import example_sharp, jump_function, random_schur_part, schur_only


class TestPoints:
    def test_accepts_interior(self):
        assert complex(UnitDiskPoint(0.5 + 0.1j)) == 0.5 + 0.1j

    @pytest.mark.parametrize("bad", [1.0, -1.0, 1.0 + 0j, 0.8 + 0.7j, 1 - 1e-15])
    def test_rejects_boundary_and_outside(self, bad):
        with pytest.raises(ValidationError):
            UnitDiskPoint(bad)

    def test_config_tracks_separation(self):
        cfg = PointConfig.from_complex([0.0, 0.5, 0.5j])
        assert abs(cfg.min_separation - 0.5) < 1e-15

    def test_config_rejects_collision(self):
        with pytest.raises(ValidationError):
            PointConfig.from_complex([0.1, 0.1 + 1e-13])


class TestBlaschke:
    def test_degree_zero_is_phase(self):
        b = BlaschkeProduct.identity()
        assert b.degree == 0
        assert b.eval(0.3) == 1.0

    def test_single_factor_value(self):
        b = BlaschkeProduct(((UnitDiskPoint(0.5), 1),), 1.0)
        assert abs(complex(b.eval(0.0)) + 0.5) < 1e-15  # (0-0.5)/(1-0) = -0.5

    def test_normalized_at_one(self):
        zeros = ((UnitDiskPoint(0.3 + 0.4j), 2), (UnitDiskPoint(-0.2), 1))
        b = BlaschkeProduct.normalized(zeros)
        assert abs(complex(b.eval(1.0 - 1e-13)) - 1.0) < 1e-9

    def test_unimodular_on_circle(self, rng):
        zeros = ((UnitDiskPoint(0.6j), 1), (UnitDiskPoint(0.2 - 0.3j), 2))
        b = BlaschkeProduct(zeros, np.exp(0.7j))
        circle = np.exp(2j * np.pi * rng.random(100))
        assert np.max(np.abs(np.abs(b.eval(circle)) - 1.0)) < 1e-12

    def test_contractive_inside(self, rng):
        b = BlaschkeProduct(((UnitDiskPoint(0.4), 1),), 1.0)
        zs = disk_samples(500, radius=0.99)
        assert np.max(np.abs(b.eval(zs))) < 1.0

    def test_merges_repeated_zeros(self):
        b = BlaschkeProduct(((UnitDiskPoint(0.5), 1), (UnitDiskPoint(0.5), 2)), 1.0)
        assert b.zeros == ((UnitDiskPoint(0.5), 3),)
        assert b.degree == 3

    def test_rejects_nonunimodular_phase(self):
        with pytest.raises(ValidationError):
            BlaschkeProduct((), 0.5)

    def test_rejects_nan_phase(self):
        with pytest.raises(ValidationError):
            BlaschkeProduct((), float("nan"))

    def test_rejects_fractional_multiplicity(self):
        with pytest.raises(ValidationError, match="integer"):
            BlaschkeProduct(((UnitDiskPoint(0.5), 1.5),))
        assert BlaschkeProduct(((UnitDiskPoint(0.5), 2.0),)).degree == 2


class TestSchurGrammar:
    def test_constant_bound(self):
        with pytest.raises(ValidationError):
            SchurConstant(1.2)

    def test_constant_must_be_finite(self):
        with pytest.raises(ValidationError):
            SchurConstant(float("nan"))

    def test_polynomial_coefficients_must_be_finite(self):
        with pytest.raises(ValidationError, match="finite"):
            SchurPolynomial((float("nan"),))

    def test_polynomial_certificate(self):
        SchurPolynomial((0.5, 0.5))  # coefficient sum 1
        with pytest.raises(ValidationError):
            SchurPolynomial((0.9, 0.4))

    def test_monomial_certified(self):
        p = SchurPolynomial((0, 0, 0, 1))
        assert abs(complex(p.eval(0.5)) - 0.125) < 1e-15

    def test_product_and_scale(self):
        part = SchurScaled(0.5, SchurProduct((SchurConstant(1.0), SchurPolynomial((0, 1)))))
        assert abs(complex(part.eval(0.4)) - 0.2) < 1e-15

    def test_sampled_bound_holds(self, rng):
        zs = disk_samples(10_000, radius=0.999)
        for _ in range(10):
            part = random_schur_part(rng)
            assert np.max(np.abs(part.eval(zs))) <= 1 + 1e-12


class TestStandardFunction:
    def test_jump_eval(self):
        f = jump_function(0.0)
        assert f.eval(0.0) == 0.0
        assert f.eval(0.5) == 1.0
        assert classify_counts(f) == (0, 1, 1)

    def test_identity_schur_part(self):
        f = schur_only(SchurPolynomial((0, 1)))
        assert abs(f.eval(0.3) - 0.3) < 1e-15
        assert classify_counts(f) == (0, 0, 0)

    def test_reciprocal_blaschke(self):
        b = BlaschkeProduct.normalized(((UnitDiskPoint(0.5), 1),))
        f = krein_langer_quotient(SchurConstant(1.0), b)
        want = 1.0 / complex(b.eval(0.0))
        assert abs(f.eval(0.0) - want) < 1e-13
        assert classify_counts(f) == (1, 0, 1)

    def test_pole_undefined(self):
        f = krein_langer_quotient(SchurConstant(1.0), BlaschkeProduct(((UnitDiskPoint(0.5), 1),)))
        with pytest.raises(UndefinedAtPole):
            f.eval(0.5)
        assert not f.is_defined_at(0.5)

    def test_sharp_example_matches_rational_form(self):
        # monomial over the one-half factor equals z^n (2 - z) / (2z - 1)
        for n in (1, 3):
            f = example_sharp(n)
            assert classify_counts(f) == (1, 0, 1)
            for z in (0.1, -0.3 + 0.2j, 0.7j):
                want = z**n * (2 - z) / (2 * z - 1)
                assert abs(f.eval(z) - want) < 1e-13

    def test_quotient_agrees_pointwise(self, rng):
        part = random_schur_part(rng)
        b = BlaschkeProduct(((UnitDiskPoint(0.45 + 0.2j), 1),))
        if abs(complex(part.eval(0.45 + 0.2j))) <= 1e-10:
            pytest.skip("random part vanishes at the pole")
        f = krein_langer_quotient(part, b)
        for z in disk_samples(50, radius=0.9):
            if abs(complex(b.eval(z))) < 1e-6:
                continue
            want = complex(part.eval(z)) / complex(b.eval(z))
            assert abs(f.eval(z) - want) <= 1e-13 * max(1.0, abs(want))

    def test_common_zero_rejected(self):
        with pytest.raises(ValidationError, match="vanishes"):
            krein_langer_quotient(
                SchurPolynomial((-0.25, 0.5)),  # 0.5 (z - 0.5)
                BlaschkeProduct(((UnitDiskPoint(0.5), 1),)),
            )

    def test_fake_jump_rejected(self):
        with pytest.raises(ValidationError, match="rule 3"):
            StandardFunction.build(
                SchurConstant(1.0),
                BlaschkeProduct.identity(),
                jumps=((UnitDiskPoint(0.0), 1.0),),
            )

    def test_pole_jump_coincidence(self):
        # denominator zero turned into a jump: defined there, one pole, one jump
        f = StandardFunction.build(
            SchurConstant(0.8),
            BlaschkeProduct(((UnitDiskPoint(0.3), 1),)),
            jumps=((UnitDiskPoint(0.3), 0.5),),
        )
        assert f.eval(0.3) == 0.5
        assert f.undefined_poles == ()
        assert classify_counts(f) == (1, 1, 2)


class TestDocuments:
    def test_round_trip_jump_function(self):
        f = jump_function(0.0)
        again = load_function(dump_function(f))
        assert again == f

    def test_round_trip_full(self, rng):
        f = StandardFunction.build(
            SchurScaled(0.7, SchurBlaschke(BlaschkeProduct(((UnitDiskPoint(0.2), 1),)))),
            BlaschkeProduct.normalized(((UnitDiskPoint(0.5), 2), (UnitDiskPoint(-0.4j), 1))),
            jumps=((UnitDiskPoint(0.1 + 0.1j), 3.0),),
        )
        again = load_function(dump_function(f))
        assert again == f
        for z in disk_samples(20, radius=0.8):
            if not f.is_defined_at(z):
                continue
            assert abs(f.eval(z) - again.eval(z)) < 1e-14

    def test_rejects_fake_jump_document(self):
        doc = {
            "spec_version": 1,
            "schur": {"kind": "constant", "value": [1.0, 0.0]},
            "blaschke": [],
            "jumps": [{"at": [0.0, 0.0], "value": [1.0, 0.0]}],
        }
        with pytest.raises(ValidationError, match="rule 3"):
            function_from_document(doc)

    def test_rejects_shared_zero_document(self):
        doc = {
            "spec_version": 1,
            "schur": {"kind": "poly", "coeffs": [[-0.25, 0.0], [0.5, 0.0]]},
            "blaschke": [{"zero": [0.5, 0.0], "mult": 1}],
            "jumps": [],
        }
        with pytest.raises(ValidationError, match="rule 2"):
            function_from_document(doc)

    def test_rejects_wrong_version(self):
        with pytest.raises(ValidationError, match="spec_version"):
            function_from_document({"spec_version": 2})

    def test_document_shape(self):
        doc = function_to_document(jump_function(2.0))
        assert doc["spec_version"] == 1
        assert doc["jumps"] == [{"at": [0.0, 0.0], "value": [2.0, 0.0]}]
        assert doc["blaschke"] == []
        assert doc["undefined_poles"] == []
