"""J-unitary realizations, the Schur-parameter transform, Blaschke state space."""

import copy
import tracemalloc

import numpy as np
import pytest

from negsquares import (
    TolerancePolicy,
    SIGNATURE_J,
    BlaschkeProduct,
    BlaschkeRealization,
    HermitianMatrix,
    PointConfig,
    SchurConstant,
    SchurPolynomial,
    SingularPickError,
    UnitDiskPoint,
    build_pick,
    build_theta,
    disk_samples,
    extract_sigma,
    inertia,
    pick_entries,
    realize_blaschke,
    reconstruct_f,
    stein_series_sum,
    theta_kernel_residual,
)
from conftest import jump_function, random_zeros, schur_only


def theta_zero_at_origin():
    """One node at the origin for the zero function: closed-form diag(z, 1)."""
    f = schur_only(SchurConstant(0.0))
    return f, build_theta(f, PointConfig.from_complex([0.0]))


class TestThetaRealization:
    def test_closed_form_single_node(self):
        _, theta = theta_zero_at_origin()
        for z in (0.0, 0.5, -0.3 + 0.4j):
            assert np.allclose(theta.eval(z), np.diag([z, 1.0]), atol=1e-14)

    def test_value_one_is_identity(self, rng):
        f = schur_only(SchurPolynomial((0, 0.8)))
        nodes = PointConfig.from_complex([0.1, -0.3 + 0.2j, 0.5j])
        theta = build_theta(f, nodes)
        assert np.allclose(theta.eval(1.0), np.eye(2), atol=1e-12)

    def test_j_unitary_on_circle(self):
        # the jump function has a rank-two kernel, so two nodes is the
        # largest invertible realization for it
        cases = [
            (jump_function(2.0), PointConfig.from_complex([0.0, 0.3])),
            (
                schur_only(SchurPolynomial((0.1, 0.7))),
                PointConfig.from_complex([0.0, 0.3, -0.2 + 0.4j]),
            ),
        ]
        for f, nodes in cases:
            theta = build_theta(f, nodes)
            for k in range(32):
                z = np.exp(2j * np.pi * k / 32)
                th = theta.eval(z)
                assert np.max(np.abs(th @ SIGNATURE_J @ th.conj().T - SIGNATURE_J)) <= 1e-10

    def test_kernel_identity_closed_form_origin(self):
        _, theta = theta_zero_at_origin()
        assert theta_kernel_residual(theta, 0.0, 0.0) <= 1e-13

    def test_kernel_identity_random(self, rng):
        f = schur_only(SchurPolynomial((0.1, 0.6)))
        nodes = PointConfig.from_complex([0.2, -0.4, 0.1 + 0.5j, -0.3j])
        theta = build_theta(f, nodes)
        pinv = 1.0 / np.min(np.abs(np.linalg.eigvalsh(theta.p.entries)))
        for _ in range(20):
            z, w = 0.9 * (rng.random(2) * 2 - 1) + 0.9j * (rng.random(2) * 2 - 1)
            if abs(z) >= 1 or abs(w) >= 1:
                continue
            assert theta_kernel_residual(theta, z, w) <= 1e-10 * (1 + pinv)

    def test_kernel_identity_near_boundary(self):
        _, theta = theta_zero_at_origin()
        z = 0.999
        assert theta_kernel_residual(theta, z, z) <= 1e-10 / (1 - abs(z) ** 2)

    def test_symmetry_principle_inverse(self, rng):
        f = schur_only(SchurPolynomial((0.2, 0.5)))
        nodes = PointConfig.from_complex([0.15, -0.25 + 0.3j])
        theta = build_theta(f, nodes)
        for z in disk_samples(100, radius=0.95):
            if min(abs(z - p.value) for p in nodes) < 1e-2:
                continue
            direct = np.linalg.inv(theta.eval(z))
            assert np.max(np.abs(theta.eval_inverse(z) - direct)) <= 1e-9

    def test_singular_pick_rejected(self):
        # unimodular constant: identically zero kernel
        f = schur_only(SchurConstant(1.0))
        with pytest.raises(SingularPickError, match="principal"):
            build_theta(f, PointConfig.from_complex([0.1, -0.2]))

    def test_stein_identity_residual(self):
        f = jump_function(0.0)
        nodes = PointConfig.from_complex([0.0, 0.3])
        theta = build_theta(f, nodes)
        assert theta.stein_residual <= 1e-11 * (1 + theta.p.norm_max())


class TestSigmaTransform:
    def test_zero_function_sigma_zero(self):
        f, theta = theta_zero_at_origin()
        for z in (0.3, -0.5j, 0.2 + 0.2j):
            assert abs(extract_sigma(theta, f, z)) <= 1e-13

    def test_sigma_is_contractive_schur_case(self, rng):
        f = schur_only(SchurPolynomial((0.3, 0.4)))
        nodes = PointConfig.from_complex([0.1, -0.2 + 0.1j])
        theta = build_theta(f, nodes)
        for z in disk_samples(1000, radius=0.97):
            if min(abs(z - p.value) for p in nodes) < 1e-3:
                continue
            assert abs(extract_sigma(theta, f, z)) <= 1 + 1e-9

    def test_sigma_schur_triples(self, rng):
        f = jump_function(2.0)  # class-one function, node set attains the count
        nodes = PointConfig.from_complex([0.0, 0.3])
        assert build_pick(f, nodes).inertia.n_neg == 1
        theta = build_theta(f, nodes)
        pool = disk_samples(60, radius=0.9)
        pool = np.array(
            [z for z in pool if min(abs(z - p.value) for p in nodes) > 1e-2]
        )
        for _ in range(200):
            triple = rng.choice(pool, size=3, replace=False)
            svals = np.array([extract_sigma(theta, f, z) for z in triple])
            p3 = HermitianMatrix(pick_entries(svals, triple))
            # unimodular-constant parameters make this kernel vanish, so the
            # zero band needs an absolute floor above entry roundoff
            assert inertia(p3, TolerancePolicy.absolute(1e-10)).n_neg == 0

    def test_roundtrip_through_sigma(self, rng):
        f = jump_function(2.0)
        nodes = PointConfig.from_complex([0.0, 0.3])
        theta = build_theta(f, nodes)
        for z in disk_samples(100, radius=0.9):
            if min(abs(z - p.value) for p in nodes) < 1e-2 or z in (0.0,):
                continue
            sigma = extract_sigma(theta, f, z)
            back = reconstruct_f(theta, sigma, z)
            fv = f.eval(z)
            assert abs(back - fv) <= 1e-10 * max(1.0, abs(fv))

    def test_extension_differs_at_jump(self):
        # the reconstructed meromorphic part takes the limit value, not the jump
        f = jump_function(0.0)
        theta = build_theta(f, PointConfig.from_complex([0.0, 0.3]))
        sigma = extract_sigma(theta, f, 0.7)
        assert abs(reconstruct_f(theta, sigma, 0.7) - 1.0) <= 1e-10

    def test_constant_sigma_reconstruction(self):
        _, theta = theta_zero_at_origin()
        assert abs(reconstruct_f(theta, 0.0, 0.4)) <= 1e-14

    def test_schur_complement_factorization(self, rng):
        # complement of P in an extended Pick matrix equals the conjugated
        # kernel of the extracted parameter
        f = jump_function(2.0)
        nodes = PointConfig.from_complex([0.0, 0.3])
        theta = build_theta(f, nodes)
        zeta = np.array([0.5 + 0.1j, -0.2 + 0.4j, 0.1 - 0.6j])
        fz = np.array([f.eval(z) for z in zeta])
        rows = []
        for z, fv in zip(zeta, fz):
            chain = theta.left_chain(z)  # F*(I - z T*)^-1
            rows.append(np.array([1.0, -fv]) @ chain)
        psi = np.array(rows)
        p_r = pick_entries(fz, zeta)
        comp = p_r - psi @ np.linalg.solve(theta.p.entries, psi.conj().T)

        svals, dvals = [], []
        for z, fv in zip(zeta, fz):
            th = theta.eval(z)
            d = th[1, 0] * fv - th[0, 0]
            svals.append((th[0, 1] - fv * th[1, 1]) / d)
            dvals.append(d)
        svals, dvals = np.array(svals), np.array(dvals)
        sigma_kernel = pick_entries(svals, zeta)
        predicted = np.outer(dvals, dvals.conj()) * sigma_kernel
        assert np.max(np.abs(comp - predicted)) <= 1e-9

        # inertia additivity across the extension
        big = build_pick(f, PointConfig.from_complex(list(nodes.values()) + list(zeta)))
        small = build_pick(f, nodes)
        comp_count = inertia(HermitianMatrix(comp)).n_neg
        assert big.inertia.n_neg == small.inertia.n_neg + comp_count


class TestBlaschkeRealization:
    def test_coordinate_factor(self):
        real = realize_blaschke(((UnitDiskPoint(0.0), 1),))
        assert np.allclose(real.a, [[0.0]])
        assert np.allclose(real.k.entries, [[1.0]])
        for z in (0.2, -0.7j, 0.5 + 0.3j):
            assert abs(real.eval(z) - z) < 1e-14

    def test_half_factor_normalization(self):
        # orthonormal cascade coordinates: the Gram matrix is exactly I
        real = realize_blaschke(((UnitDiskPoint(0.5), 1),))
        assert np.array_equal(real.k.entries, np.eye(1))
        assert abs(real.eval(1.0) - 1.0) < 1e-12

    def test_double_zero_matches_product(self):
        real = realize_blaschke(((UnitDiskPoint(0.5), 2),))
        ref = BlaschkeProduct.normalized(((UnitDiskPoint(0.5), 2),))
        for z in disk_samples(200, radius=0.95):
            want = complex(ref.eval(z))
            assert abs(real.eval(z) - want) <= 1e-11 * max(1.0, abs(want))

    def test_kernel_identity(self, rng):
        real = realize_blaschke(((UnitDiskPoint(0.3 + 0.2j), 1), (UnitDiskPoint(-0.4), 2)))
        for _ in range(30):
            z, w = 0.9 * np.sqrt(rng.random(2)) * np.exp(2j * np.pi * rng.random(2))
            assert real.kernel_residual(z, w) <= 1e-10

    def test_gram_matches_series(self):
        real = realize_blaschke(((UnitDiskPoint(0.4j), 2), (UnitDiskPoint(0.1), 1)))
        series = stein_series_sum(real.a, np.outer(real.e, real.e.conj()))
        assert np.max(np.abs(series - real.k.entries)) <= 1e-11

    @pytest.mark.parametrize(
        "zeros",
        [
            pytest.param(random_zeros(8, 0.7, 81), id="random-8"),
            pytest.param(random_zeros(16, 0.7, 161), id="random-16"),
            pytest.param(random_zeros(24, 0.7, 241), id="random-24"),
            pytest.param(random_zeros(100, 0.7, 1001), id="random-100"),
            pytest.param(
                tuple((UnitDiskPoint(0.9 * np.exp(2j * np.pi * (k + 0.3) / 48)), 1) for k in range(48)),
                id="ring-48",
            ),
            pytest.param(
                ((UnitDiskPoint(0.6 - 0.2j), 3),) + random_zeros(9, 0.7, 93),
                id="triple-and-random-9",
            ),
        ],
    )
    def test_accuracy_at_high_degree(self, zeros):
        # the thresholds of the verify-blaschke command, plus the Stein identity itself
        real = realize_blaschke(zeros)
        samples = disk_samples(200, radius=0.95)
        ref = np.asarray(BlaschkeProduct.normalized(zeros).eval(samples))
        agree = max(
            abs(real.eval(z) - want) / max(1.0, abs(want)) for z, want in zip(samples, ref)
        )
        assert agree <= 1e-10
        kernel = max(real.kernel_residual(z, w) for z in samples[:10] for w in samples[10:20])
        assert kernel <= 1e-10
        gram = np.outer(real.e, real.e.conj())
        series = stein_series_sum(real.a, gram)
        assert np.max(np.abs(series - real.k.entries)) <= 1e-11
        k = real.k.entries
        assert np.max(np.abs(k - real.a @ k @ real.a.conj().T - gram)) <= 1e-13

    def test_degree_by_winding(self):
        # argument-principle zero count on a near-boundary circle
        real = realize_blaschke(((UnitDiskPoint(0.3), 2), (UnitDiskPoint(-0.2 + 0.4j), 1)))
        thetas = np.linspace(0, 2 * np.pi, 4096, endpoint=False)
        vals = np.array([real.eval(0.999 * np.exp(1j * t)) for t in thetas])
        winding = np.sum(np.angle(np.roll(vals, -1) / vals)) / (2 * np.pi)
        assert round(float(winding.real)) == 3


def ring_realization(degree: int) -> BlaschkeRealization:
    zeros = tuple(
        (UnitDiskPoint(0.9 * np.exp(2j * np.pi * (k + 0.3) / degree)), 1) for k in range(degree)
    )
    return realize_blaschke(zeros)


def _one_point_theta(theta, z) -> np.ndarray:
    """Theta(z) by the one-point formula, solved at z alone: the bit reference of the array path."""
    z = complex(z)
    n = theta.dim
    left = np.linalg.solve((np.eye(n) - z * theta.t.conj().T).T, theta.f_data.conj()).T
    right = np.linalg.solve(theta.p.entries, np.linalg.solve(np.eye(n) - theta.t, theta.f_data))
    return np.eye(2) - (1.0 - z) * left @ right @ SIGNATURE_J


def _one_point_left_chain(theta, z) -> np.ndarray:
    n = theta.dim
    return np.linalg.solve((np.eye(n) - complex(z) * theta.t.conj().T).T, theta.f_data.conj()).T


THETA_CASES = [
    pytest.param(jump_function(2.0), [0.0, 0.3], id="jump-2-nodes"),
    pytest.param(
        schur_only(SchurPolynomial((0.1, 0.6))),
        [0.2, -0.4, 0.1 + 0.5j, -0.3j, 0.6, -0.5 - 0.4j, 0.35 + 0.1j, -0.1 + 0.7j],
        id="polynomial-8-nodes",
    ),
]


class TestArrayEvaluation:
    """Arrays of points map entrywise, solved in blocks of stacked resolvents."""

    # at degree 16 a block holds 15 points and at degree 48 one, so 40 points cross block edges
    @pytest.mark.parametrize("degree", [16, 48])
    def test_blaschke_eval_equals_per_point_calls(self, degree):
        real = ring_realization(degree)
        zs = disk_samples(40, radius=0.95)
        values = real.eval(zs)
        assert np.array_equal(values, [real.eval(z) for z in zs])
        assert np.array_equal(real.eval(zs.reshape(5, 8)), values.reshape(5, 8))

    @pytest.mark.parametrize("degree", [16, 48])
    def test_blaschke_kernel_table_equals_per_point_calls(self, degree):
        real = ring_realization(degree)
        zs, ws = disk_samples(40, radius=0.95)[:17], disk_samples(40, radius=0.95)[17:]
        # with E scaled the identity fails by O(1), so a transposed or shuffled table shows
        wrong = BlaschkeRealization(real.zeros, real.a, 1.1 * real.e, real.k)
        for r, atol in ((real, 1e-15), (wrong, 1e-12)):
            table = r.kernel_residual(zs, ws)
            per_point = [[r.kernel_residual(z, w) for w in ws] for z in zs]
            assert table.shape == (17, 23)
            assert np.allclose(table, per_point, rtol=1e-12, atol=atol)
        assert np.max(real.kernel_residual(zs, ws)) <= 1e-10
        assert np.min(wrong.kernel_residual(zs, ws)) > 1e-3

    @pytest.mark.parametrize("f, nodes", THETA_CASES)
    def test_theta_equals_one_point_formula_bit_for_bit(self, f, nodes):
        theta = build_theta(f, PointConfig.from_complex(nodes))
        # more points than one block holds at either node count (1,023 and 63)
        zs = np.concatenate([np.exp(2j * np.pi * np.arange(64) / 64), disk_samples(1100, radius=0.95)])
        assert np.array_equal(theta.eval(zs), [_one_point_theta(theta, z) for z in zs])
        assert np.array_equal(theta.left_chain(zs), [_one_point_left_chain(theta, z) for z in zs])
        assert np.array_equal(theta.eval(zs[70]), _one_point_theta(theta, zs[70]))

    @pytest.mark.parametrize("f, nodes", THETA_CASES)
    def test_theta_kernel_table_equals_per_point_calls(self, f, nodes):
        theta = build_theta(f, PointConfig.from_complex(nodes))
        # a column of F scaled breaks the Stein identity, so the kernel gaps are O(1)
        wrong = copy.copy(theta)
        object.__setattr__(wrong, "f_data", theta.f_data * [1.0, 1.1])
        zs, ws = disk_samples(20, radius=0.9)[:7], disk_samples(20, radius=0.9)[7:]
        for th, atol in ((theta, 1e-14), (wrong, 1e-12)):
            table = theta_kernel_residual(th, zs, ws)
            per_point = [[theta_kernel_residual(th, z, w) for w in ws] for z in zs]
            assert table.shape == (7, 13)
            assert np.allclose(table, per_point, rtol=1e-12, atol=atol)
        assert np.min(theta_kernel_residual(wrong, zs, ws)) > 1e-3

    def test_scalars_keep_their_types(self):
        real = ring_realization(16)
        f, nodes = THETA_CASES[1].values
        theta = build_theta(f, PointConfig.from_complex(nodes))
        for z in (0.3, 0.2 - 0.1j, np.complex128(0.4j), np.array(-0.5)):
            assert type(real.eval(z)) is complex
            assert type(real.kernel_residual(z, 0.1)) is float
            assert type(theta_kernel_residual(theta, z, 0.1)) is float
            assert isinstance(theta.eval(z), np.ndarray) and theta.eval(z).shape == (2, 2)
            assert theta.left_chain(z).shape == (2, 8)

    @pytest.mark.parametrize("shape", [(), (6,), (2, 3)])
    def test_array_inputs_keep_their_shapes(self, shape):
        real = ring_realization(16)
        f, nodes = THETA_CASES[1].values
        theta = build_theta(f, PointConfig.from_complex(nodes))
        zs = disk_samples(6, radius=0.9)[: int(np.prod(shape))].reshape(shape)
        ws = disk_samples(4, radius=0.5).reshape(2, 2)
        assert np.shape(real.eval(zs)) == shape
        assert np.shape(real.kernel_residual(zs, ws)) == shape + (2, 2)
        assert np.shape(real.kernel_residual(ws, zs)) == (2, 2) + shape
        assert theta.eval(zs).shape == shape + (2, 2)
        assert theta.left_chain(zs).shape == shape + (2, 8)
        assert np.shape(theta_kernel_residual(theta, zs, ws)) == shape + (2, 2)

    def test_blaschke_eval_peak_memory_is_blocked(self):
        real = ring_realization(48)
        zs = disk_samples(1000, radius=0.95)
        tracemalloc.start()
        try:
            real.eval(zs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # one unblocked stack of 1,000 48 x 48 complex matrices alone takes 36.9 MB
        assert peak < 4e6
