"""Element conversions and Kepler solvers."""

import math

import numpy as np
import pytest

from orbuq.elements import (
    ALTERNATE_L,
    ALTERNATE_LAM,
    CARTESIAN,
    ElementSet,
    EQUINOCTIAL_L,
    EQUINOCTIAL_LAM,
    FastVar,
    KEPLERIAN,
    MEE_L,
    MEE_LAM,
    convert_values,
    kepler_equinoctial_solve,
    kepler_solve,
    rebranch_near,
)
from orbuq import sgp4
from orbuq.generic import cons, cos, each, is_poly, newton_lift, sin
from orbuq.loads import LoadsConfig, initial_domain
from orbuq.ta import AlgebraContext, DAVector

MU = 398600.4355

ALL_NONCART = [
    KEPLERIAN, EQUINOCTIAL_L, EQUINOCTIAL_LAM, MEE_L, MEE_LAM,
    ALTERNATE_L, ALTERNATE_LAM,
]


def random_elliptic_kepler(rng):
    return [
        rng.uniform(6800.0, 45000.0),
        rng.uniform(0.001, 0.7),
        rng.uniform(0.01, math.pi - 0.3),
        rng.uniform(0.0, 2 * math.pi),
        rng.uniform(0.0, 2 * math.pi),
        rng.uniform(0.0, 2 * math.pi),
    ]


class TestKeplerSolve:
    def test_zero_mean_anomaly(self):
        assert kepler_solve(0.0, 0.3) == 0.0

    def test_circular(self):
        assert kepler_solve(1.234, 0.0) == pytest.approx(1.234, abs=1e-15)

    def test_residual_and_bisection_oracle(self):
        m, e = 1.0, 0.2
        big_e = kepler_solve(m, e)
        assert abs(big_e - e * math.sin(big_e) - m) < 1e-13
        lo, hi = 0.0, 2 * math.pi
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if mid - e * math.sin(mid) - m > 0:
                hi = mid
            else:
                lo = mid
        assert big_e == pytest.approx(0.5 * (lo + hi), abs=1e-12)

    def test_polynomial_identity(self):
        ctx = AlgebraContext(2, 2)
        m = 1.1 + 0.05 * ctx.variable(1)
        e = 0.25 + 0.02 * ctx.variable(2)
        big_e = kepler_solve(m, e)
        resid = big_e - e * big_e.sin() - m
        assert np.abs(resid.c).max() < 1e-12

    def test_bad_eccentricity(self):
        with pytest.raises(ValueError):
            kepler_solve(1.0, 1.2)

    def test_equinoctial_form(self):
        lam, f, g = 2.0, 0.1, -0.2
        big_f = kepler_equinoctial_solve(lam, f, g)
        assert abs(big_f + g * math.cos(big_f) - f * math.sin(big_f) - lam) < 1e-13


# The polynomial Newton loops that the three Kepler solvers ran inline before
# generic.newton_lift, kept as oracles: each lifts the float root on the
# constant parts with its own pass count and update expression.

def _oracle_kepler(M, e):
    ctx = next(a.ctx for a in (M, e) if is_poly(a))
    mbar, ebar = cons(M), cons(e)
    ep = e if is_poly(e) else ctx.constant(ebar)
    mp = M if is_poly(M) else ctx.constant(mbar)
    ee = ctx.constant(kepler_solve(mbar, ebar))
    for _ in range(max(2, math.ceil(math.log2(ctx.order + 1)) + 1)):
        ee = ee - (ee - ep * sin(ee) - mp) / (1.0 - ep * cos(ee))
    return ee


def _oracle_kepler_equinoctial(lam, f, g):
    ctx = next(a.ctx for a in (lam, f, g) if is_poly(a))
    fbar, gbar, lbar = cons(f), cons(g), cons(lam)
    fp = f if is_poly(f) else ctx.constant(fbar)
    gp = g if is_poly(g) else ctx.constant(gbar)
    lp = lam if is_poly(lam) else ctx.constant(lbar)
    ff = ctx.constant(kepler_equinoctial_solve(lbar, fbar, gbar))
    for _ in range(max(2, math.ceil(math.log2(ctx.order + 1)) + 1)):
        ff = ff - (ff + gp * cos(ff) - fp * sin(ff) - lp) / (
            1.0 - gp * sin(ff) - fp * cos(ff)
        )
    return ff


def _oracle_sgp4_kepler(u, axnl, aynl):
    ctx = next(q.ctx for q in (u, axnl, aynl) if is_poly(q))
    ubar, axbar, aybar = cons(u), cons(axnl), cons(aynl)
    ee = ctx.constant(each(sgp4._kepler_constant, ubar, axbar, aybar))
    up = u if is_poly(u) else ctx.constant(ubar)
    ax = axnl if is_poly(axnl) else ctx.constant(axbar)
    ay = aynl if is_poly(aynl) else ctx.constant(aybar)
    for _ in range(max(2, ctx.order.bit_length() + 1)):
        se, ce = sin(ee), cos(ee)
        ee = ee + (up - ay * ce + ax * se - ee) / (1.0 - ce * ax - se * ay)
    return ee


def _sgp4_kepler(u, axnl, aynl):
    """The solve in Sgp4.propagate: Vallado's float root, lifted."""
    eo1 = each(sgp4._kepler_constant, cons(u), cons(axnl), cons(aynl))
    return newton_lift(eo1, sgp4._kepler_step, u, axnl, aynl)


_SOLVERS = {
    "kepler": (kepler_solve, _oracle_kepler,
               [[1.1, 2.5, -0.4], [0.25, 0.6, 0.05]]),
    "equinoctial": (kepler_equinoctial_solve, _oracle_kepler_equinoctial,
                    [[2.0, -1.0, 4.0], [0.1, 0.3, -0.02], [-0.2, 0.05, 0.4]]),
    "sgp4": (_sgp4_kepler, _oracle_sgp4_kepler,
             [[0.5, 3.0, 5.9], [0.01, 0.003, -0.02], [-0.004, 0.02, 0.001]]),
}


def _lift_args(order, shape, consts):
    """Solver arguments at the given per-member constants.

    ``lone`` and ``stack`` make every argument a polynomial (member 0 alone,
    or all members stacked); ``mixed-lone`` and ``mixed-stack`` keep only the
    first one a polynomial and pass the rest as floats or float columns.
    """
    ctx = AlgebraContext(order, len(consts))
    x = [ctx.variable(j + 1) for j in range(len(consts))]
    out = []
    for j, c in enumerate(consts):
        c = np.array(c) if shape.endswith("stack") else c[0]
        if j and shape.startswith("mixed"):
            out.append(c)
        else:
            dev = 0.01 * (j + 1) * x[j] + 0.002 * x[0] * x[j]
            out.append(ctx.constant(c) + dev if shape.endswith("stack") else c + dev)
    return out


class TestNewtonLift:
    @pytest.mark.parametrize("shape", ["lone", "stack", "mixed-lone", "mixed-stack"])
    @pytest.mark.parametrize("order", [1, 2, 3, 4])
    @pytest.mark.parametrize("solver", sorted(_SOLVERS))
    def test_bitwise_equal_to_inline_loop(self, solver, order, shape):
        solve, oracle, consts = _SOLVERS[solver]
        args = _lift_args(order, shape, consts)
        got, want = solve(*args), oracle(*args)
        assert got.c.shape == want.c.shape
        assert np.array_equal(got.c.view(np.int64), want.c.view(np.int64))

    def test_floats_pass_through(self):
        root = np.array([0.5, 1.5])
        assert newton_lift(root, None, np.array([1.0, 2.0]), 0.3) is root


class TestRebranchNear:
    def test_float_column_to_reference(self):
        angles = np.array([0.1, 0.1 + 2 * math.pi, 0.1 - 4 * math.pi])
        np.testing.assert_allclose(rebranch_near(angles, 0.0), [0.1, 0.1, 0.1], atol=1e-12)
        # one reference per row: each row as it is alone
        refs = np.array([6 * math.pi, -2 * math.pi, 0.0])
        got = rebranch_near(angles, refs)
        assert got.tolist() == [rebranch_near(float(a), float(r)) for a, r in zip(angles, refs)]
        np.testing.assert_allclose(got, refs + 0.1, atol=1e-12)


class TestConversions:
    def test_circular_equatorial_to_equinoctial(self):
        rv = [7000.0, 0.0, 0.0, 0.0, math.sqrt(MU / 7000.0), 0.0]
        vals, _ = convert_values(rv, CARTESIAN, EQUINOCTIAL_L, MU)
        a, f, g, h, k, big_l = vals
        assert a == pytest.approx(7000.0, rel=1e-12)
        for q in (f, g, h, k, big_l):
            assert abs(q) < 1e-12

    def test_heo_keplerian_to_equinoctial_direct_substitution(self):
        kep = [35000.0, 0.2, 0.0, 0.0, 0.0, 0.0]
        vals, _ = convert_values(kep, KEPLERIAN, EQUINOCTIAL_LAM, MU)
        assert vals[0] == pytest.approx(35000.0, rel=1e-12)
        assert vals[1] == pytest.approx(0.2, abs=1e-12)   # f = e cos(w + raan)
        assert abs(vals[2]) < 1e-12                       # g
        assert abs(vals[3]) < 1e-12 and abs(vals[4]) < 1e-12
        assert abs(vals[5]) < 1e-12                       # lam = raan + w + M

    def test_mee_definitions_from_keplerian(self):
        kep = [12000.0, 0.2, 0.4, 0.1, 0.2, 0.3]
        a, e, _, raan, argp, _ = kep
        vals, flags = convert_values(kep, KEPLERIAN, MEE_L, MU)
        assert flags == ()
        assert vals[0] == pytest.approx(a * (1 - e * e), rel=1e-12)   # p
        assert vals[1] == pytest.approx(e * math.cos(argp + raan), abs=1e-12)
        assert vals[2] == pytest.approx(e * math.sin(argp + raan), abs=1e-12)

    def test_equinoctial_definitions_from_keplerian(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            kep = random_elliptic_kepler(rng)
            a, e, i, raan, argp, man = kep
            vals, _ = convert_values(kep, KEPLERIAN, EQUINOCTIAL_LAM, MU)
            assert vals[1] == pytest.approx(e * math.cos(argp + raan), abs=1e-12)
            assert vals[2] == pytest.approx(e * math.sin(argp + raan), abs=1e-12)
            assert vals[3] == pytest.approx(math.tan(i / 2) * math.cos(raan), abs=1e-12)
            assert vals[4] == pytest.approx(math.tan(i / 2) * math.sin(raan), abs=1e-12)
            lam_err = math.remainder(vals[5] - (raan + argp + man), 2 * math.pi)
            assert lam_err == pytest.approx(0.0, abs=1e-10)

    @pytest.mark.parametrize("target", ALL_NONCART, ids=lambda s: s.label())
    def test_roundtrip_1000_random_orbits(self, target):
        rng = np.random.default_rng(hash(target.label()) % 2**31)
        worst = 0.0
        for _ in range(1000):
            kep = random_elliptic_kepler(rng)
            rv, _ = convert_values(kep, KEPLERIAN, CARTESIAN, MU)
            mid, _ = convert_values(rv, CARTESIAN, target, MU)
            back, _ = convert_values(mid, target, CARTESIAN, MU)
            err = np.abs(np.array(back[:3]) - np.array(rv[:3])).max()
            worst = max(worst, err)
        assert worst < 1e-6

    @pytest.mark.parametrize("source", ALL_NONCART, ids=lambda s: s.label())
    def test_whole_columns_match_rows(self, source):
        # one call on (N,) columns gives the row-by-row values up to the
        # roundoff by which numpy's array functions may differ from math's
        rng = np.random.default_rng(7)
        rows = []
        for _ in range(200):
            rv, _ = convert_values(random_elliptic_kepler(rng), KEPLERIAN, CARTESIAN, MU)
            rows.append(convert_values(rv, CARTESIAN, source, MU)[0])
        rows = np.array(rows)
        by_row = np.array([convert_values(list(r), source, CARTESIAN, MU)[0] for r in rows])
        cols, _ = convert_values(list(rows.T), source, CARTESIAN, MU)
        by_col = np.column_stack(cols)
        assert np.all(np.abs(by_col - by_row) <= 1e-14 * np.abs(by_row).max(axis=0))

    @pytest.mark.parametrize("target", ALL_NONCART, ids=lambda s: s.label())
    def test_whole_columns_from_cartesian_match_rows(self, target):
        # the cartesian-to-set direction of the test above
        rng = np.random.default_rng(8)
        rows = np.array([convert_values(random_elliptic_kepler(rng), KEPLERIAN, CARTESIAN, MU)[0]
                         for _ in range(200)])
        by_row = np.array([convert_values(list(r), CARTESIAN, target, MU)[0] for r in rows])
        cols, _ = convert_values(list(rows.T), CARTESIAN, target, MU)
        by_col = np.column_stack(cols)
        assert np.all(np.abs(by_col - by_row) <= 1e-14 * np.abs(by_row).max(axis=0))

    def test_vis_viva_consistency(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            kep = random_elliptic_kepler(rng)
            rv, _ = convert_values(kep, KEPLERIAN, CARTESIAN, MU)
            r = np.linalg.norm(rv[:3])
            v2 = np.dot(rv[3:], rv[3:])
            assert v2 == pytest.approx(MU * (2.0 / r - 1.0 / kep[0]), rel=1e-12)

    def test_mean_motion_semimajor_identity(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            kep = random_elliptic_kepler(rng)
            rv, _ = convert_values(kep, KEPLERIAN, CARTESIAN, MU)
            alt, _ = convert_values(rv, CARTESIAN, ALTERNATE_LAM, MU)
            eqx, _ = convert_values(alt, ALTERNATE_LAM, EQUINOCTIAL_LAM, MU)
            assert alt[0] ** 2 * eqx[0] ** 3 == pytest.approx(MU, rel=1e-12)

    def test_lambda_L_roundtrip(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            kep = random_elliptic_kepler(rng)
            lamset, _ = convert_values(kep, KEPLERIAN, EQUINOCTIAL_LAM, MU)
            lset, _ = convert_values(lamset, EQUINOCTIAL_LAM, EQUINOCTIAL_L, MU)
            back, _ = convert_values(lset, EQUINOCTIAL_L, EQUINOCTIAL_LAM, MU)
            assert back[5] == pytest.approx(lamset[5], abs=1e-12)
            np.testing.assert_allclose(back[:5], lamset[:5], rtol=0, atol=1e-13)

    def test_degenerate_circular_inclined(self):
        # the MEO regime: e exactly 0, i = 56 deg
        kep = [29600.135, 0.0, math.radians(56.0), 0.0, 0.0, 0.0]
        rv, _ = convert_values(kep, KEPLERIAN, CARTESIAN, MU)
        for target in ALL_NONCART:
            mid, flags = convert_values(rv, CARTESIAN, target, MU)
            back, _ = convert_values(mid, target, CARTESIAN, MU)
            np.testing.assert_allclose(back[:3], rv[:3], atol=1e-8)
        kep_back, flags = convert_values(rv, CARTESIAN, KEPLERIAN, MU)
        assert "circular_convention" in flags
        assert kep_back[1] < 1e-12 and kep_back[4] == 0.0

    def test_degenerate_equatorial_eccentric(self):
        # the HEO regime: i exactly 0, e = 0.2
        kep = [35000.0, 0.2, 0.0, 0.0, 0.0, 1.0]
        rv, _ = convert_values(kep, KEPLERIAN, CARTESIAN, MU)
        for target in ALL_NONCART:
            mid, flags = convert_values(rv, CARTESIAN, target, MU)
            back, _ = convert_values(mid, target, CARTESIAN, MU)
            np.testing.assert_allclose(back[:3], rv[:3], atol=1e-8)
        kep_back, flags = convert_values(rv, CARTESIAN, KEPLERIAN, MU)
        assert "equatorial_convention" in flags
        assert kep_back[3] == 0.0

    def test_da_roundtrip_identity_coefficients(self):
        ctx = AlgebraContext(2, 6)
        kep = [12000.0, 0.15, 0.6, 0.5, 1.0, 0.7]
        rv, _ = convert_values(kep, KEPLERIAN, CARTESIAN, MU)
        amp = np.diag([1.0, 1.0, 1.0, 1e-3, 1e-3, 1e-3])
        state = DAVector.affine(ctx, rv, amp)
        mid, _ = convert_values(list(state), CARTESIAN, EQUINOCTIAL_L, MU)
        back, _ = convert_values(mid, EQUINOCTIAL_L, CARTESIAN, MU)
        for i in range(6):
            diff = back[i] - state[i]
            scale = max(1.0, abs(rv[i]))
            assert np.abs(diff.c).max() / scale < 1e-8

    def test_retrograde_equatorial_rejected(self):
        kep = [9000.0, 0.1, math.pi, 0.1, 0.2, 0.3]
        rv, _ = convert_values(kep, KEPLERIAN, CARTESIAN, MU)
        with pytest.raises(ValueError):
            convert_values(rv, CARTESIAN, EQUINOCTIAL_L, MU)


class TestElementSet:
    def test_set_validation(self):
        with pytest.raises(ValueError):
            ElementSet.parse("cartesian", "L")
        with pytest.raises(ValueError):
            ElementSet.parse("mee")
        assert ElementSet.parse("equinoctial", "L") == EQUINOCTIAL_L
        assert ElementSet.parse("equinoctial", "lambda") == EQUINOCTIAL_LAM
        for fast in ("l", "true", "banana"):
            with pytest.raises(ValueError, match=repr(fast)):
                ElementSet.parse("equinoctial", fast)


class TestConvertDaWithLoads:
    @pytest.fixture(scope="class")
    def lib3(self):
        from orbuq.gmm import SplitLibrary

        return SplitLibrary(
            3,
            (0.2252246852539708, 0.5495506294920584, 0.2252246852539708),
            (-1.0575150485760967, 0.0, 1.0575150485760967),
            0.6715664864669252,
            1e-3,
        )

    def test_identity_conversion_single_kernel(self, lib3):
        from orbuq.loads import loads_gmm

        kep = [35000.0, 0.2, 0.0, 0.0, 0.0, 0.0]
        rv, _ = convert_values(kep, KEPLERIAN, CARTESIAN, MU)
        cov = np.diag([1.0, 1.0, 0.0, 1e-6, 1e-6, 0.0])
        dom = initial_domain(rv, cov, ci=3.0)
        cfg = LoadsConfig(eps_nu=0.01, library=lib3, alpha_min=1e-8)
        m_in, m_out = loads_gmm(lambda s: DAVector(list(s)), [dom], cfg)
        assert len(m_in) == 1 and m_in[0].nli == pytest.approx(0.0, abs=1e-14)

    def test_heo_cartesian_to_equinoctial_single_kernel(self, lib3):
        from orbuq.loads import loads_gmm

        kep = [35000.0, 0.2, 0.0, 0.0, 0.0, 0.0]
        rv, _ = convert_values(kep, KEPLERIAN, CARTESIAN, MU)
        cov = np.diag([1.0, 1.0, 0.0, 1e-6, 1e-6, 0.0])  # Table-4-style sigmas
        dom = initial_domain(rv, cov, ci=3.0)
        cfg = LoadsConfig(eps_nu=0.01, library=lib3, alpha_min=1e-8)

        def conv_map(state):
            out, _ = convert_values(list(state), CARTESIAN, EQUINOCTIAL_LAM, MU)
            return DAVector(out)

        m_in, m_out = loads_gmm(conv_map, [dom], cfg)
        assert len(m_in) == 1

    def test_inflated_sigmas_trigger_split(self, lib3):
        from orbuq.loads import loads_gmm

        kep = [35000.0, 0.2, 0.0, 0.0, 0.0, 0.0]
        rv, _ = convert_values(kep, KEPLERIAN, CARTESIAN, MU)
        cov = np.diag([100.0**2, 100.0**2, 0.0, 1e-2, 1e-2, 0.0])
        dom = initial_domain(rv, cov, ci=3.0)
        # one generation is enough to show the root splits: capped at n_max = 1
        cfg = LoadsConfig(eps_nu=0.01, library=lib3, alpha_min=1e-4, n_max=1)

        def conv_map(state):
            out, _ = convert_values(list(state), CARTESIAN, EQUINOCTIAL_LAM, MU)
            return DAVector(out)

        m_in, _ = loads_gmm(conv_map, [dom], cfg)
        assert m_in.stats.domains_per_generation == [1, 3]
        assert len(m_in) == 3 and all(d.nsplits == 1 for d in m_in)
