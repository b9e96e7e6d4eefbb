"""Mixture analytics, splitting library and unscented moments.

Oracles: adaptive quadrature (scipy.integrate.quad) for the L2/overlap
integrals, extended-precision direct formulas for densities, direct
moment summation for split consistency, and seeded Monte-Carlo for the
nonlinear-map mean.
"""

import math
import os
import subprocess
import sys
from pathlib import Path

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad

import orbuq
from orbuq.gmm import (
    DEFAULT_LIBRARY,
    GaussianKernel,
    GaussianMixture,
    SplitLibrary,
    gaussian_pdf,
    generate_split_library,
    l2_distance,
    l2_library_residual,
    lam,
    lam_dmm,
    marginal_mixture,
    reconstruct_moments,
    regular_dims,
    spectral_factors,
    split_kernel,
    ut_sigma,
)

STD_NORMAL_1D = GaussianMixture((GaussianKernel(1.0, np.zeros(1), np.eye(1)),))

# paper-grade reference solution for L = 3, lambda = 1e-3
TABLE_WEIGHTS = (0.2252246852539708, 0.5495506294920584, 0.2252246852539708)
TABLE_MEANS = (-1.0575150485760967, 0.0, 1.0575150485760967)
TABLE_SIGMA = 0.6715664864669252


@pytest.fixture(scope="module")
def table_library():
    return SplitLibrary(3, TABLE_WEIGHTS, TABLE_MEANS, TABLE_SIGMA, 1e-3)


@pytest.fixture(scope="module")
def optimized_library():
    return generate_split_library(3, 1e-3)


def random_1d_mixture(rng, n_kernels):
    w = rng.uniform(0.2, 1.0, n_kernels)
    w /= w.sum()
    return GaussianMixture(
        tuple(
            GaussianKernel(wi, rng.uniform(-2, 2, 1), np.array([[rng.uniform(0.3, 2.0) ** 2]]))
            for wi in w
        )
    )


class TestGaussianPdf:
    def test_peak_of_standard_normal(self):
        k = GaussianKernel(1.0, np.zeros(1), np.eye(1))
        assert gaussian_pdf(np.zeros(1), k) == pytest.approx(1.0 / math.sqrt(2 * math.pi), abs=1e-12)

    def test_one_sigma_point(self):
        k = GaussianKernel(1.0, np.zeros(1), np.eye(1))
        assert gaussian_pdf(np.ones(1), k) == pytest.approx(
            math.exp(-0.5) / math.sqrt(2 * math.pi), abs=1e-12
        )

    def test_matches_extended_precision_formula(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            a = rng.uniform(-1, 1, (3, 3))
            cov = a @ a.T + 0.5 * np.eye(3)
            mu = rng.uniform(-2, 2, 3)
            x = rng.uniform(-2, 2, 3)
            k = GaussianKernel(1.0, mu, cov)
            with mpmath.workdps(50):
                m_cov = mpmath.matrix(cov.tolist())
                d = mpmath.matrix((x - mu).tolist())
                inv = m_cov**-1
                maha = (d.T * inv * d)[0, 0]
                det = mpmath.det(2 * mpmath.pi * m_cov)
                ref = float(mpmath.exp(-maha / 2) / mpmath.sqrt(det))
            assert gaussian_pdf(x, k) == pytest.approx(ref, rel=1e-12)

    def test_singular_covariance_raises(self):
        k = GaussianKernel(1.0, np.zeros(2), np.diag([1.0, 0.0]))
        with pytest.raises(np.linalg.LinAlgError):
            gaussian_pdf(np.zeros(2), k)


class TestL2Distance:
    def test_identical_mixtures(self):
        assert l2_distance(STD_NORMAL_1D, STD_NORMAL_1D) == pytest.approx(0.0, abs=1e-12)

    def test_two_unit_gaussians_hand_formula(self):
        delta = 2.0
        shifted = GaussianMixture((GaussianKernel(1.0, np.array([delta]), np.eye(1)),))
        expected = (1.0 / math.sqrt(4 * math.pi)) * 2.0 * (1.0 - math.exp(-(delta**2) / 4.0))
        assert l2_distance(STD_NORMAL_1D, shifted) == pytest.approx(expected, rel=1e-12)

    def test_matches_adaptive_quadrature(self):
        rng = np.random.default_rng(10)
        for _ in range(8):
            p1 = random_1d_mixture(rng, 2)
            p2 = random_1d_mixture(rng, 3)
            ref, err = quad(
                lambda x: (p1.pdf(np.array([x])) - p2.pdf(np.array([x]))) ** 2,
                -15, 15, limit=200,
            )
            assert l2_distance(p1, p2) == pytest.approx(ref, rel=1e-8)

    def test_dimension_mismatch(self):
        p2 = GaussianMixture((GaussianKernel(1.0, np.zeros(2), np.eye(2)),))
        with pytest.raises(ValueError):
            l2_distance(STD_NORMAL_1D, p2)


class TestLibraryResidual:
    def test_degenerate_identity_library(self):
        lib = SplitLibrary(1, (1.0,), (0.0,), 1.0)
        assert l2_library_residual(lib) == pytest.approx(0.0, abs=1e-14)

    def test_closed_form_matches_generic(self, table_library):
        generic = l2_distance(STD_NORMAL_1D, table_library.as_mixture())
        assert l2_library_residual(table_library) == pytest.approx(generic, abs=1e-12)

    def test_sigma_perturbation_raises_objective(self, table_library):
        lam_pen = 1e-3

        def J(sig):
            lib = SplitLibrary(3, TABLE_WEIGHTS, TABLE_MEANS, sig, lam_pen)
            return l2_library_residual(lib) + lam_pen * sig**2

        j0 = J(TABLE_SIGMA)
        assert J(TABLE_SIGMA + 0.01) > j0
        assert J(TABLE_SIGMA - 0.01) > j0


class TestGenerateLibrary:
    def test_matches_reference_coefficients(self, optimized_library):
        lib = optimized_library
        for got, ref in zip(lib.weights, TABLE_WEIGHTS):
            assert abs(got - ref) < 1e-4
        for got, ref in zip(lib.means, TABLE_MEANS):
            assert abs(got - ref) < 1e-4
        assert abs(lib.sigma - TABLE_SIGMA) < 1e-4
        assert sum(lib.weights) == pytest.approx(1.0, abs=1e-10)

    def test_identity_library_for_single_component(self):
        lib = generate_split_library(1, 1e-3)
        assert lib.weights == (1.0,) and lib.means == (0.0,) and lib.sigma == 1.0

    def test_larger_penalty_shrinks_sigma(self, optimized_library):
        heavy = generate_split_library(3, 10.0, restarts=20)
        assert heavy.sigma < optimized_library.sigma

    def test_beats_random_feasible_probes(self, optimized_library):
        lib = optimized_library
        lam_pen = lib.lam_penalty
        j_opt = lib.residual_l2 + lam_pen * lib.sigma**2
        rng = np.random.default_rng(77)
        for _ in range(200):
            a1 = rng.uniform(0.01, 0.49)
            mu1 = rng.uniform(0.05, 2.5)
            sig = rng.uniform(0.05, 0.99)
            probe = SplitLibrary(
                3, (a1, 1 - 2 * a1, a1), (-mu1, 0.0, mu1), sig, lam_pen
            )
            j_probe = l2_library_residual(probe) + lam_pen * sig**2
            assert j_opt <= j_probe + 1e-12

    def test_invalid_penalty(self):
        with pytest.raises(ValueError):
            generate_split_library(3, 0.0)


class TestDefaultLibrary:
    def test_generator_reproduces_literal(self, optimized_library):
        # The objective is flat at its optimum: the smallest eigenvalue of its
        # Hessian in (weight, mean, sigma) is 0.0149, and its rounding noise
        # there is 3.7e-16, so it cannot tell apart parameters within
        # sqrt(2 * 3.7e-16 / 0.0149) = 2.2e-7 of each other (restarts from
        # other seeds land 0.8e-8 to 2.7e-8 away).  A numpy or scipy build
        # whose exp or simplex steps round differently may land anywhere in
        # that flat bottom; with numpy 2.4 and scipy 1.17 the bits are equal.
        lib = optimized_library
        assert lib.L == DEFAULT_LIBRARY.L
        assert lib.lam_penalty == DEFAULT_LIBRARY.lam_penalty
        np.testing.assert_allclose(lib.weights, DEFAULT_LIBRARY.weights, rtol=0, atol=5e-7)
        np.testing.assert_allclose(lib.means, DEFAULT_LIBRARY.means, rtol=0, atol=5e-7)
        assert lib.sigma == pytest.approx(DEFAULT_LIBRARY.sigma, rel=0, abs=5e-7)
        j_lit = DEFAULT_LIBRARY.residual_l2 + 1e-3 * DEFAULT_LIBRARY.sigma**2
        j_opt = lib.residual_l2 + 1e-3 * lib.sigma**2
        assert j_opt == pytest.approx(j_lit, rel=0, abs=1e-15)
        assert l2_library_residual(DEFAULT_LIBRARY) == DEFAULT_LIBRARY.residual_l2

    def test_run_path_does_not_import_the_optimizer(self):
        src = str(Path(orbuq.__file__).resolve().parents[1])
        code = ("import sys, orbuq.config, orbuq.cli; "
                "print('scipy.optimize' in sys.modules)")
        out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                             text=True, check=True, env={**os.environ, "PYTHONPATH": src})
        assert out.stdout.strip() == "False"


class TestSplitKernel:
    def test_standard_normal_children(self, table_library):
        parent = GaussianKernel(1.0, np.zeros(3), np.eye(3))
        kids = split_kernel(parent, 0, table_library, spectral_factors(parent.cov))
        assert len(kids) == 3
        means = sorted(k.mean[0] for k in kids)
        assert means[0] == pytest.approx(-1.0575150485760967, abs=1e-12)
        assert means[1] == pytest.approx(0.0, abs=1e-12)
        assert means[2] == pytest.approx(1.0575150485760967, abs=1e-12)
        for k in kids:
            np.testing.assert_allclose(
                np.diag(k.cov), [TABLE_SIGMA**2, 1.0, 1.0], atol=1e-12
            )

    def test_weight_and_mean_preservation(self, table_library):
        rng = np.random.default_rng(3)
        a = rng.uniform(-1, 1, (4, 4))
        parent = GaussianKernel(0.7, rng.uniform(-1, 1, 4), a @ a.T + np.eye(4))
        kids = split_kernel(parent, 2, table_library, spectral_factors(parent.cov))
        assert sum(k.weight for k in kids) == pytest.approx(parent.weight, abs=1e-14)
        mix_mean = sum(k.weight * k.mean for k in kids) / parent.weight
        np.testing.assert_allclose(mix_mean, parent.mean, atol=1e-13)

    def test_mixture_covariance_defect_matches_direct_summation(self, table_library):
        # direct second-moment accumulation over children along the split axis
        parent = GaussianKernel(1.0, np.zeros(2), np.eye(2))
        kids = split_kernel(parent, 1, table_library, spectral_factors(parent.cov))
        second = np.zeros((2, 2))
        for k in kids:
            second += k.weight * (np.outer(k.mean, k.mean) + k.cov)
        expected_axis = TABLE_SIGMA**2 + 2 * TABLE_WEIGHTS[0] * TABLE_MEANS[2] ** 2
        assert second[1, 1] == pytest.approx(expected_axis, abs=1e-12)
        assert second[0, 0] == pytest.approx(1.0, abs=1e-12)

    def test_pdf_reconstruction_l2_equals_library_residual(self, table_library):
        # 1D quadrature of (parent - children-mixture)^2 along the split line
        parent = GaussianKernel(1.0, np.zeros(1), np.eye(1))
        kids = split_kernel(parent, 0, table_library, spectral_factors(parent.cov))
        mix = GaussianMixture(tuple(kids))

        def integrand(x):
            return (gaussian_pdf(np.array([x]), parent) - mix.pdf(np.array([x]))) ** 2

        ref, _ = quad(integrand, -12, 12, limit=200)
        assert ref == pytest.approx(l2_library_residual(table_library), rel=1e-7)

    def test_zero_eigenvalue_direction_refused(self, table_library):
        parent = GaussianKernel(1.0, np.zeros(2), np.diag([1.0, 0.0]))
        lamv = np.array([1.0, 0.0])
        vec = np.eye(2)
        with pytest.raises(ValueError):
            split_kernel(parent, 1, table_library, basis=(lamv, vec))


class TestUnscented:
    def test_textbook_1d(self):
        s = ut_sigma(GaussianKernel(1.0, np.zeros(1), np.eye(1)), kappa=2.0)
        np.testing.assert_allclose(
            sorted(s.points.ravel()), [-math.sqrt(3), 0.0, math.sqrt(3)], atol=1e-14
        )
        np.testing.assert_allclose(sorted(s.weights), [1 / 6, 1 / 6, 2 / 3], atol=1e-14)

    @pytest.mark.parametrize("n,kappa", [(1, 2.0), (3, 0.0), (6, -3.0)])
    def test_reconstruction_identity(self, n, kappa):
        rng = np.random.default_rng(n)
        a = rng.uniform(-1, 1, (n, n))
        cov = a @ a.T + 0.1 * np.eye(n)
        mu = rng.uniform(-1, 1, n)
        s = ut_sigma(GaussianKernel(1.0, mu, cov), kappa)
        mean, p = reconstruct_moments(s.points, s.weights)
        np.testing.assert_allclose(mean, mu, atol=1e-12)
        np.testing.assert_allclose(p, cov, atol=1e-12)

    def test_semidefinite_covariance_supported(self):
        # exact zero-variance directions fall back to the eigen square root
        cov = np.diag([1.0, 0.0, 4.0])
        s = ut_sigma(GaussianKernel(1.0, np.zeros(3), cov), kappa=0.0)
        mean, p = reconstruct_moments(s.points, s.weights)
        np.testing.assert_allclose(p, cov, atol=1e-12)
        assert np.all(s.points[:, 1] == 0.0)

    def test_invalid_kappa(self):
        with pytest.raises(ValueError):
            ut_sigma(GaussianKernel(1.0, np.zeros(2), np.eye(2)), kappa=-2.0)


class TestReconstructMoments:
    def test_constant_samples(self):
        v = np.array([1.0, -2.0, 3.0])
        mean, cov = reconstruct_moments(np.tile(v, (5, 1)))
        np.testing.assert_allclose(mean, v, atol=1e-15)
        np.testing.assert_allclose(cov, np.zeros((3, 3)), atol=1e-15)

    def test_linear_map_exactness(self):
        rng = np.random.default_rng(9)
        n = 3
        a = rng.uniform(-1, 1, (n, n))
        cov = a @ a.T + 0.3 * np.eye(n)
        mu = rng.uniform(-1, 1, n)
        lin = rng.uniform(-2, 2, (n, n))
        s = ut_sigma(GaussianKernel(1.0, mu, cov), kappa=0.0)
        mean, p = reconstruct_moments(s.points @ lin.T, s.weights)
        np.testing.assert_allclose(mean, lin @ mu, atol=1e-10)
        np.testing.assert_allclose(p, lin @ cov @ lin.T, atol=1e-10)

    def test_quadratic_mean_against_mc_oracle(self):
        # E[x + x^2/2] over N(0,1) is 1/2; UT reproduces it exactly,
        # the MC oracle confirms within 3 standard errors
        s = ut_sigma(GaussianKernel(1.0, np.zeros(1), np.eye(1)), kappa=2.0)
        y = s.points + 0.5 * s.points**2
        mean, _ = reconstruct_moments(y, s.weights)
        assert mean[0] == pytest.approx(0.5, abs=1e-12)

        rng = np.random.default_rng(123)
        x = rng.standard_normal(1_000_000)
        ymc = x + 0.5 * x**2
        se = ymc.std(ddof=1) / math.sqrt(ymc.size)
        assert abs(mean[0] - ymc.mean()) < 3 * se

    def test_too_few_mc_samples(self):
        with pytest.raises(ValueError):
            reconstruct_moments(np.array([[1.0, 2.0]]))


class TestLam:
    def test_self_overlap_closed_form(self):
        assert lam(STD_NORMAL_1D, STD_NORMAL_1D) == pytest.approx(
            1.0 / (2.0 * math.sqrt(math.pi)), abs=1e-12
        )

    def test_far_separation_vanishes(self):
        far = GaussianMixture((GaussianKernel(1.0, np.array([10.0]), np.eye(1)),))
        expected = math.exp(-25.0) / (2.0 * math.sqrt(math.pi))
        assert lam(STD_NORMAL_1D, far) == pytest.approx(expected, rel=1e-9)

    def test_matches_quadrature(self):
        rng = np.random.default_rng(4)
        for _ in range(8):
            p = random_1d_mixture(rng, 2)
            q = random_1d_mixture(rng, 2)
            ref, _ = quad(
                lambda x: p.pdf(np.array([x])) * q.pdf(np.array([x])), -15, 15, limit=200
            )
            assert lam(p, q) == pytest.approx(ref, rel=1e-8)


class TestLamDmm:
    def test_single_sample_at_kernel_mean(self):
        q = GaussianMixture((GaussianKernel(1.0, np.array([2.0]), np.eye(1)),))
        got = lam_dmm(np.array([[2.0]]), q)
        assert got == pytest.approx(1.0 / math.sqrt(2 * math.pi), abs=1e-12)

    def test_self_consistency_large_sample(self):
        rng = np.random.default_rng(17)
        q = random_1d_mixture(rng, 2)
        n = 100_000
        comps = rng.choice(len(q.kernels), size=n, p=[k.weight for k in q.kernels])
        samples = np.concatenate(
            [
                rng.normal(q.kernels[c].mean[0], math.sqrt(q.kernels[c].cov[0, 0]), 1)
                for c in comps
            ]
        ).reshape(-1, 1)
        got = lam_dmm(samples, q)
        ref = lam(q, q)
        # sample standard error of the mean of q(x) under x~q
        vals = np.array([q.pdf(s) for s in samples[:5000]])
        se = vals.std(ddof=1) / math.sqrt(n)
        assert abs(got - ref) < 3 * se * math.sqrt(5000 / n) * math.sqrt(n / 5000)

    def test_disjoint_clusters_near_zero(self):
        q = GaussianMixture((GaussianKernel(1.0, np.array([100.0]), np.eye(1)),))
        samples = np.zeros((10, 1))
        assert lam_dmm(samples, q) < 1e-300

    def test_empty_samples(self):
        with pytest.raises(ValueError):
            lam_dmm(np.empty((0, 1)), STD_NORMAL_1D)


class TestMarginal:
    def test_block_extraction(self):
        k = GaussianKernel(1.0, np.array([1.0, 2.0, 3.0]), np.diag([1.0, 4.0, 9.0]))
        m = marginal_mixture(GaussianMixture((k,)), [0, 2])
        np.testing.assert_allclose(m.kernels[0].mean, [1.0, 3.0])
        np.testing.assert_allclose(m.kernels[0].cov, np.diag([1.0, 9.0]))


class TestRegularDims:
    def test_variance_only_rule(self):
        # coordinate 1: roundoff variance, spread means; coordinate 2: exact zero
        kernels = tuple(
            GaussianKernel(0.5, np.array([0.0, m, 0.0]), np.diag([1.0, 1e-20, 0.0]))
            for m in (-2.6e-3, 2.6e-3)
        )
        assert regular_dims(GaussianMixture(kernels)) == [0]

    def test_keeps_any_kernel_with_variance(self):
        kernels = (
            GaussianKernel(0.5, np.zeros(2), np.diag([1.0, 0.0])),
            GaussianKernel(0.5, np.zeros(2), np.diag([1.0, 1e-12])),
        )
        assert regular_dims(GaussianMixture(kernels)) == [0, 1]


def test_split_sequence_preserves_total_weight(table_library):
    rng = np.random.default_rng(31)
    kernels = [GaussianKernel(1.0, np.zeros(3), np.eye(3))]
    for _ in range(4):
        k = kernels.pop(0)
        kernels.extend(split_kernel(k, rng.integers(0, 3), table_library,
                                    spectral_factors(k.cov)))
    assert sum(k.weight for k in kernels) == pytest.approx(1.0, abs=1e-12)


def test_library_json_roundtrip(tmp_path, table_library):
    path = tmp_path / "lib.json"
    table_library.save(path)
    back = SplitLibrary.load(path)
    assert back.weights == table_library.weights
    assert back.sigma == table_library.sigma
