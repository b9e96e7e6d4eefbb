"""Nonlinearity index, split direction selection and the adaptive split loop."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from orbuq.gmm import GaussianKernel, GaussianMixture, gaussian_pdf, generate_split_library
from orbuq.loads import (
    LoadsConfig,
    SplitStats,
    directional_nli,
    initial_domain,
    loads,
    loads_gmm,
    map_stacked,
    nli,
    raw_jacobian,
    scaled_jacobian,
    split_direction,
    split_domain,
)
from orbuq.ta import AlgebraContext, DAVector

TABLE_WEIGHTS = (0.2252246852539708, 0.5495506294920584, 0.2252246852539708)
TABLE_MEANS = (-1.0575150485760967, 0.0, 1.0575150485760967)
TABLE_SIGMA = 0.6715664864669252


@pytest.fixture(scope="module")
def lib3():
    from orbuq.gmm import SplitLibrary

    return SplitLibrary(3, TABLE_WEIGHTS, TABLE_MEANS, TABLE_SIGMA, 1e-3)


class TestInitialDomain:
    def test_inert_coordinates_stay_exact_beside_dense_block(self):
        # exactly-zero rows/columns 3 and 4 next to a dense live block: a full
        # eigendecomposition leaks roundoff into them, the root must not
        a = np.random.default_rng(0).standard_normal((4, 4))
        live = [0, 1, 2, 5]
        cov = np.zeros((6, 6))
        cov[np.ix_(live, live)] = a @ a.T
        mean = np.arange(1.0, 7.0)
        d = initial_domain(mean, cov, ci=3.0)
        for j in (3, 4):
            assert d.state[j].const == mean[j]
            assert not np.any(d.state[j].c[1:])
            (col,) = np.flatnonzero(d.eigvecs[j])
            assert d.eigvecs[j, col] == 1.0
            assert np.count_nonzero(d.eigvecs[:, col]) == 1
            assert d.eigvals[col] == 0.0
        assert np.count_nonzero(d.eigvals) == 4


class TestScaledJacobian:
    def test_identity_map_unit_eigvals(self):
        d = initial_domain(np.zeros(3), np.eye(3), ci=1.0)
        jac = scaled_jacobian(d.state, d.eigvals, ci=1.0)
        for i in range(3):
            for j in range(3):
                expected = 1.0 if i == j else 0.0
                assert jac[i][j].const == pytest.approx(expected, abs=1e-14)
                assert jac[i][j].bound_linear() == 0.0

    def test_scalar_linear_map(self):
        # f(x) = 2x with lambda = 4, ci = 3: entry is 2 / (3*2) * (1/(3*2)) ...
        # the physical Jacobian 2 divided by the CI amplitude 3*sqrt(4) = 1/3
        d = initial_domain([0.0], np.array([[4.0]]), ci=3.0)
        y = DAVector([2.0 * d.state[0]])
        jac = scaled_jacobian(y, d.eigvals, ci=3.0)
        assert jac[0][0].const == pytest.approx(2.0 / 6.0, abs=1e-14)

    def test_quadratic_hand_expansion(self):
        # y = x + x^2/2 about 0 with amplitude beta = ci*sqrt(lambda):
        # scaled entry must equal (1 + beta*dx) / beta coefficient-wise
        lam_val, ci = 0.49, 3.0
        beta = ci * math.sqrt(lam_val)
        d = initial_domain([0.0], np.array([[lam_val]]), ci=ci)
        x = d.state[0]
        y = DAVector([x + 0.5 * x * x])
        entry = scaled_jacobian(y, d.eigvals, ci)[0][0]
        assert entry.const == pytest.approx(1.0 / beta, rel=1e-13)
        assert entry.coeffs()[(1,)] == pytest.approx(1.0, rel=1e-13)

    def test_zero_eigenvalue_column_zeroed(self):
        d = initial_domain(np.zeros(2), np.diag([0.0, 1.0]), ci=3.0)
        y = DAVector([d.state[0] + d.state[1], d.state[1] * d.state[1] + d.state[1]])
        jac = scaled_jacobian(y, d.eigvals, 3.0)
        assert jac[0][0].is_zero() and jac[1][0].is_zero()

    def test_negative_eigenvalue_rejected(self):
        ctx = AlgebraContext(2, 1)
        y = DAVector([ctx.variable(1)])
        with pytest.raises(ValueError):
            scaled_jacobian(y, [-1.0], 3.0)


class TestNli:
    def test_linear_map_zero(self):
        rng = np.random.default_rng(1)
        ctx = AlgebraContext(2, 3)
        for _ in range(5):
            a = rng.uniform(-2, 2, (3, 3))
            vs = [ctx.variable(j + 1) for j in range(3)]
            y = DAVector(
                [a[i, 0] * vs[0] + a[i, 1] * vs[1] + a[i, 2] * vs[2] + 1.0 for i in range(3)]
            )
            assert nli(raw_jacobian(y)) < 1e-14

    def test_single_entry(self):
        ctx = AlgebraContext(2, 1)
        x = ctx.variable(1)
        y = DAVector([x + 0.25 * x * x])  # J = 1 + 0.5 dx
        assert nli(raw_jacobian(y)) == pytest.approx(0.5, abs=1e-14)

    def test_matches_independent_formula(self):
        # independent recomputation straight from the coefficient dictionaries
        from orbuq.ta import TaylorPoly

        rng = np.random.default_rng(2)
        ctx = AlgebraContext(2, 2)
        for _ in range(10):
            y = DAVector(
                [TaylorPoly(ctx, rng.uniform(-1, 1, ctx.size)) for _ in range(2)]
            )
            jac = raw_jacobian(y)
            num = den = 0.0
            for row in jac:
                for entry in row:
                    table = entry.coeffs()
                    den += abs(table.get((0, 0), 0.0))
                    num += sum(abs(v) for e, v in table.items() if sum(e) > 0)
            assert nli(jac) == pytest.approx(num / den, rel=1e-13)

    def test_zero_constant_part_errors(self):
        ctx = AlgebraContext(2, 1)
        x = ctx.variable(1)
        y = DAVector([x * x])
        with pytest.raises(ValueError):
            nli(raw_jacobian(y))


class TestDirectionalNli:
    def test_two_direction_entries(self):
        ctx = AlgebraContext(2, 2)
        x1, x2 = ctx.variable(1), ctx.variable(2)
        # J = [1 + 0.5 dx1 + 0.2 dx2] built as the Jacobian of its integral
        y = DAVector([x1 + 0.25 * x1 * x1 + 0.2 * x2 * x1])
        jac = [[y[0].partial(1)]]
        assert directional_nli(jac, 1) == pytest.approx(0.5, abs=1e-14)
        assert directional_nli(jac, 2) == pytest.approx(0.2, abs=1e-14)

    def test_linear_map_all_zero(self):
        ctx = AlgebraContext(2, 2)
        y = DAVector([ctx.variable(1) + 2.0 * ctx.variable(2) + 3.0])
        jac = raw_jacobian(y)
        assert directional_nli(jac, 1) == 0.0
        assert directional_nli(jac, 2) == 0.0

    def test_masking_oracle(self):
        from orbuq.ta import TaylorPoly

        rng = np.random.default_rng(3)
        ctx = AlgebraContext(2, 3)
        for _ in range(10):
            y = DAVector([TaylorPoly(ctx, rng.uniform(-1, 1, ctx.size)) for _ in range(2)])
            jac = raw_jacobian(y)
            for e in range(1, 4):
                masked_num = 0.0
                den = 0.0
                for row in jac:
                    for entry in row:
                        for exps, v in entry.coeffs().items():
                            deg = sum(exps)
                            if deg == 0:
                                den += abs(v)
                            elif deg == exps[e - 1]:
                                masked_num += abs(v)
                assert directional_nli(jac, e) == pytest.approx(
                    masked_num / den, rel=1e-12
                )

    def test_directional_bounded_by_full(self):
        from orbuq.ta import TaylorPoly

        rng = np.random.default_rng(4)
        ctx = AlgebraContext(2, 3)
        y = DAVector([TaylorPoly(ctx, rng.uniform(-1, 1, ctx.size)) for _ in range(3)])
        jac = raw_jacobian(y)
        full = nli(jac)
        for e in range(1, 4):
            assert directional_nli(jac, e) <= full + 1e-12

    def test_out_of_range(self):
        ctx = AlgebraContext(2, 2)
        jac = raw_jacobian(ctx.identity_vector())
        with pytest.raises(IndexError):
            directional_nli(jac, 3)


class TestSplitDirection:
    def test_picks_max(self):
        ctx = AlgebraContext(2, 2)
        x1, x2 = ctx.variable(1), ctx.variable(2)
        y = DAVector([x1 + 0.25 * x1 * x1 + 0.1 * x2 * x2])
        assert split_direction(raw_jacobian(y)) == 1

    def test_tie_break_low_index(self):
        ctx = AlgebraContext(2, 2)
        x1, x2 = ctx.variable(1), ctx.variable(2)
        y = DAVector([x1 + x2 + 0.1 * x1 * x1 + 0.1 * x2 * x2])
        assert split_direction(raw_jacobian(y)) == 1

    def test_exhaustive_dominance(self):
        from orbuq.ta import TaylorPoly

        rng = np.random.default_rng(5)
        ctx = AlgebraContext(2, 4)
        for _ in range(20):
            y = DAVector([TaylorPoly(ctx, rng.uniform(-1, 1, ctx.size)) for _ in range(3)])
            jac = raw_jacobian(y)
            k = split_direction(jac)
            vk = directional_nli(jac, k)
            for e in range(1, 5):
                assert vk >= directional_nli(jac, e) - 1e-15

    def test_all_zero_errors(self):
        ctx = AlgebraContext(2, 2)
        with pytest.raises(ValueError):
            split_direction(raw_jacobian(ctx.identity_vector()))


class TestSplitDomain:
    def test_center_child_state_scaling(self, lib3):
        d = initial_domain(np.zeros(2), np.eye(2), ci=3.0)
        kids = split_domain(d, 1, lib3, ci=3.0)
        center = kids[1]
        # center child: dx1 coefficient scaled by sigma, constant unchanged
        c = center.state[0].coeffs()
        base = d.state[0].coeffs()
        assert c[(1, 0)] == pytest.approx(base[(1, 0)] * TABLE_SIGMA, rel=1e-13)
        assert (0, 0) not in c or c[(0, 0)] == pytest.approx(0.0, abs=1e-13)

    def test_child_weights(self, lib3):
        d = initial_domain(np.zeros(2), np.eye(2), ci=3.0)
        kids = split_domain(d, 2, lib3, ci=3.0)
        got = tuple(k.weight for k in kids)
        for g, ref in zip(got, TABLE_WEIGHTS):
            assert g == pytest.approx(ref, abs=1e-15)
        assert sum(got) == pytest.approx(1.0, abs=1e-14)

    def test_state_kernel_affine_consistency(self, lib3):
        # child box must still map onto the child kernel's CI ellipsoid
        rng = np.random.default_rng(11)
        a = rng.uniform(-1, 1, (3, 3))
        cov = a @ a.T + 0.5 * np.eye(3)
        d = initial_domain(rng.uniform(-1, 1, 3), cov, ci=3.0)
        kids = split_domain(d, 2, lib3, ci=3.0)
        for kid in kids:
            np.testing.assert_allclose(
                kid.state.constant_part(), kid.kernel.mean, atol=1e-12
            )
            amp = np.array(
                [
                    [kid.state[i].coeffs().get(tuple(np.eye(3, dtype=int)[j]), 0.0)
                     for j in range(3)]
                    for i in range(3)
                ]
            )
            expected = kid.eigvecs * (3.0 * np.sqrt(kid.eigvals))
            np.testing.assert_allclose(amp, expected, atol=1e-12)

    def test_pdf_reconstruction_quadrature(self, lib3):
        # children mixture vs parent along the split eigline: L2 defect equals
        # the library residual (unit-variance direction)
        from orbuq.gmm import l2_library_residual

        d = initial_domain(np.zeros(1), np.eye(1), ci=3.0)
        kids = split_domain(d, 1, lib3, ci=3.0)
        mix = GaussianMixture(tuple(k.kernel for k in kids))
        parent = d.kernel

        def integrand(x):
            return (gaussian_pdf(np.array([x]), parent) - mix.pdf(np.array([x]))) ** 2

        ref, _ = quad(integrand, -10, 10, limit=200)
        assert ref == pytest.approx(l2_library_residual(lib3), rel=1e-7)

    def test_zero_direction_refused(self, lib3):
        d = initial_domain(np.zeros(2), np.diag([1.0, 0.0]), ci=3.0)
        degenerate_axis = 1 + int(np.argmin(d.eigvals))
        with pytest.raises(ValueError):
            split_domain(d, degenerate_axis, lib3, ci=3.0)


def quadratic_scalar_map(state):
    x = state[0]
    return DAVector([x + 0.5 * x * x])


class TestLoads:
    def test_linear_map_single_domain(self, lib3):
        cfg = LoadsConfig(eps_nu=0.01, library=lib3)
        d = initial_domain(np.zeros(2), np.eye(2), ci=3.0)
        m_in, m_out = loads(lambda s: DAVector([s[0] + s[1], s[1] - s[0]]), d, cfg)
        assert len(m_in) == 1 and len(m_out) == 1
        assert m_in[0].nsplits == 0

    def test_single_generation_split(self, lib3):
        # For y = x + x^2/2 on [x] = beta dx the raw index is exactly beta and
        # each child's index is ~ beta*sigma/(1 + center shift).  beta =
        # 1.4*eps therefore forces exactly one generation with the Table-1
        # library (any multiplier in (1, 1/sigma) does).
        eps = 0.01
        ci = 3.0
        beta = 1.4 * eps
        sigma0 = beta / ci
        cfg = LoadsConfig(eps_nu=eps, library=lib3, ci=ci)
        d = initial_domain([0.0], np.array([[sigma0**2]]), ci=ci)
        jac = raw_jacobian(quadratic_scalar_map(d.state))
        assert nli(jac) == pytest.approx(beta, rel=1e-12)
        m_in, m_out = loads(quadratic_scalar_map, d, cfg)
        assert len(m_in) == 3
        for dom in m_in:
            assert dom.nsplits == 1
            assert dom.nli is not None and dom.nli < eps

    def test_nmax_zero_returns_root(self, lib3):
        cfg = LoadsConfig(eps_nu=1e-9, library=lib3, n_max=0)
        d = initial_domain([0.0], np.array([[1.0]]), ci=3.0)
        m_in, _ = loads(quadratic_scalar_map, d, cfg)
        assert len(m_in) == 1 and m_in[0].nsplits == 0


def sqrt_map(state):
    return DAVector([p.sqrt() for p in state])


class TestMapStacked:
    @staticmethod
    def states(consts):
        ctx = AlgebraContext(2, 2)
        return [DAVector([ctx.constant(c) + 0.1 * ctx.variable(1), ctx.constant(2.0 * c)
                          + 0.2 * ctx.variable(2)]) for c in consts]

    def test_one_call_per_chunk_in_order(self):
        states = self.states(np.linspace(1.0, 2.0, 130))
        widths = []

        def f(state):
            widths.append(state[0].c.shape[1:])
            return sqrt_map(state)

        stats = SplitStats()
        images = list(map_stacked(f, states, stats))
        assert widths == [(64,), (64,), (2,)]
        assert (stats.target_evals, stats.batch_fallbacks) == (130, 0)
        for got, state in zip(images, states):
            for p, q in zip(got, sqrt_map(state)):
                np.testing.assert_array_equal(p.c, q.c)
        assert list(map_stacked(f, states[:1], stats))[0][0].c.ndim == 1

    def test_failing_stack_is_redone_member_by_member(self):
        # the members disagree at sqrt's sign check, so the chunk is redone
        # alone: two images, then the lone error of the third member
        states = self.states([1.0, 2.0, -1.0, 3.0])
        stats = SplitStats()
        images = []
        with pytest.raises(ValueError, match="positive constant part"):
            for y in map_stacked(sqrt_map, states, stats):
                images.append(y)
        assert len(images) == 2 and stats.batch_fallbacks == 1
        assert stats.target_evals == 4 + 3
        for got, state in zip(images, states):
            for p, q in zip(got, sqrt_map(state)):
                np.testing.assert_array_equal(p.c, q.c)


class TestLoadsGmm:
    def test_linear_map_one_component(self, lib3):
        cfg = LoadsConfig(eps_nu=0.01, library=lib3, alpha_min=1e-8)
        d = initial_domain(np.zeros(3), np.diag([1.0, 2.0, 3.0]), ci=3.0)
        m_in, _ = loads_gmm(lambda s: DAVector(list(s)), d, cfg)
        assert len(m_in) == 1
        assert m_in[0].weight == 1.0

    def test_alpha_min_one_allows_single_generation(self, lib3):
        eps = 0.01
        beta = 1.4 * eps
        cfg = LoadsConfig(eps_nu=eps, library=lib3, alpha_min=1.0, ci=3.0)
        d = initial_domain([0.0], np.array([[(beta / 3.0) ** 2]]), ci=3.0)
        m_in, _ = loads_gmm(quadratic_scalar_map, d, cfg)
        # root (weight 1) is evaluated and split; children all fall below
        # alpha_min and are emitted unsplit without index evaluation
        assert len(m_in) == 3
        assert all(dom.nli is None for dom in m_in)

    def test_two_generation_tree(self, lib3):
        eps = 0.01
        beta = 1.8 * eps
        cfg = LoadsConfig(eps_nu=eps, library=lib3, alpha_min=1e-12, ci=3.0)
        d = initial_domain([0.0], np.array([[(beta / 3.0) ** 2]]), ci=3.0)
        m_in, m_out = loads_gmm(quadratic_scalar_map, d, cfg)
        assert len(m_in) == 9
        weights = sorted(dom.weight for dom in m_in)
        expected = sorted(
            TABLE_WEIGHTS[i] * TABLE_WEIGHTS[j] for i in range(3) for j in range(3)
        )
        np.testing.assert_allclose(weights, expected, atol=1e-14)
        assert sum(weights) == pytest.approx(1.0, abs=1e-14)

    def test_weight_conservation_random_maps(self, lib3):
        rng = np.random.default_rng(6)
        for trial in range(5):

            def f(state):
                x, ycomp = state
                return DAVector(
                    [x + 0.3 * x * x + 0.1 * x * ycomp, ycomp + 0.2 * ycomp * ycomp]
                )

            cov = np.diag(rng.uniform(0.02, 0.08, 2) ** 2)
            d = initial_domain(rng.uniform(-0.1, 0.1, 2), cov, ci=3.0)
            cfg = LoadsConfig(eps_nu=rng.uniform(0.05, 0.5), library=lib3, alpha_min=1e-6)
            m_in, m_out = loads_gmm(f, d, cfg)
            assert m_in.total_weight() == pytest.approx(1.0, abs=1e-12)
            assert len(m_in) == len(m_out)

    def test_leaf_count_monotone_in_eps(self, lib3):
        def f(state):
            x, ycomp = state
            return DAVector([x + 0.5 * x * x + 0.2 * ycomp * ycomp, ycomp + 0.3 * x * ycomp])

        counts = []
        for eps in [0.06, 0.1, 0.15, 0.25, 0.5]:
            d = initial_domain(np.zeros(2), np.diag([0.0025, 0.0025]), ci=3.0)
            cfg = LoadsConfig(eps_nu=eps, library=lib3, alpha_min=1e-10)
            m_in, _ = loads_gmm(f, d, cfg)
            counts.append(len(m_in))
        assert counts == sorted(counts, reverse=True)
        assert counts[0] > counts[-1]  # the grid actually exercises splitting

    def test_exit_condition_postcondition(self, lib3):
        def f(state):
            x, ycomp = state
            return DAVector([x + 0.5 * x * x, ycomp + 0.4 * ycomp * ycomp])

        eps = 0.05
        cfg = LoadsConfig(eps_nu=eps, library=lib3, n_max=3, alpha_min=1e-3)
        d = initial_domain(np.zeros(2), np.diag([0.09, 0.09]), ci=3.0)
        m_in, _ = loads_gmm(f, d, cfg)
        for dom in m_in:
            ok = (
                (dom.nli is not None and dom.nli < eps)
                or dom.nsplits >= cfg.n_max
                or dom.weight < cfg.alpha_min
            )
            assert ok

    def test_degenerate_directions_never_split(self, lib3):
        def f(state):
            x, ycomp = state
            return DAVector([x + 0.5 * x * x, ycomp])

        d = initial_domain(np.zeros(2), np.diag([0.04, 0.0]), ci=3.0)
        cfg = LoadsConfig(eps_nu=0.05, library=lib3, alpha_min=1e-6, n_max=6)
        m_in, _ = loads_gmm(f, d, cfg)
        degenerate_axis = int(np.argmin(d.eigvals))
        for dom in m_in:
            for k, _i in dom.history:
                assert k - 1 != degenerate_axis


def test_manifold_json_roundtrip(tmp_path, lib3):
    d = initial_domain(np.zeros(2), 0.01 * np.eye(2), ci=3.0)
    cfg = LoadsConfig(eps_nu=0.05, library=lib3)
    m_in, _ = loads_gmm(quadratic_scalar_map_2d, d, cfg)
    path = tmp_path / "manifold.json"
    m_in.save(path)
    import json

    obj = json.loads(path.read_text())
    assert isinstance(obj, list) and len(obj) == len(m_in)
    assert abs(sum(rec["weight"] for rec in obj) - 1.0) < 1e-12


def quadratic_scalar_map_2d(state):
    x, y = state
    return DAVector([x + 0.5 * x * x, y])
