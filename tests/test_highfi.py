"""Force models, integrator behavior and the two propagation formulations."""

import math
import tracemalloc

import numpy as np
import pytest

from orbuq import forces
from orbuq.elements import CARTESIAN, KEPLERIAN, MEE_L, convert_values
from orbuq.forces import (
    ForceConfig,
    SpacecraftParams,
    acceleration,
    harris_priester_density,
    load_gravity_field,
    moon_position,
    shadow_factor,
    sun_position,
)
from orbuq.generic import norm3, sqrt
from orbuq.highfi import (
    gauss_equations_mee,
    make_cartesian_rhs,
    mean_motion_rate,
    propagate_hf,
    propagate_hf_mee,
)
from orbuq.integrate import IntegratorConfig, integrate_batch, integrate_fixed
from orbuq.ta import AlgebraContext, DAVector
from orbuq.timeutil import jday_from_iso, seconds_since_j2000

MU = 398600.4355
SC = SpacecraftParams()
TWO_BODY = ForceConfig.two_body(MU)
J2_ONLY = ForceConfig(degree=2, order=0, third_body_sun=False,
                      third_body_moon=False, drag=False, srp=False)
EPOCH_2021 = seconds_since_j2000(jday_from_iso("2021-01-01T00:00:00"))


def period(a):
    return 2 * math.pi * math.sqrt(a**3 / MU)


def energy_two_body(y):
    return 0.5 * np.dot(y[3:], y[3:]) - MU / np.linalg.norm(y[:3])


class TestSpacecraftAndConfig:
    def test_defaults_match_reference_parameters(self):
        assert (SC.mass, SC.area, SC.cd, SC.cr) == (500.0, 1.0, 2.0, 1.5)

    def test_positivity_enforced(self):
        with pytest.raises(ValueError):
            SpacecraftParams(mass=-1.0)

    def test_degree_order_validation(self):
        with pytest.raises(ValueError):
            ForceConfig(degree=2, order=3)


class TestAcceleration:
    def test_two_body_value(self):
        a = acceleration(0.0, [7000.0, 0.0, 0.0], [0.0, 7.5, 0.0], TWO_BODY, SC)
        assert a[0] == pytest.approx(-MU / 7000.0**2, rel=1e-14)
        assert a[1] == 0.0 and a[2] == 0.0

    def test_j2_matches_closed_form(self):
        fld = load_gravity_field()
        j2 = -fld.c[2, 0]
        rng = np.random.default_rng(1)
        for _ in range(10):
            r = rng.uniform(-1, 1, 3)
            r = r / np.linalg.norm(r) * rng.uniform(7000.0, 30000.0)
            got = np.array(acceleration(0.0, list(r), [0.0, 0.0, 0.0], J2_ONLY, SC))
            rm = np.linalg.norm(r)
            z2r2 = (r[2] / rm) ** 2
            central = -MU * r / rm**3
            fac = -1.5 * j2 * MU * J2_ONLY.re_km**2 / rm**5
            ref = central + fac * r * np.array(
                [1 - 5 * z2r2, 1 - 5 * z2r2, 3 - 5 * z2r2]
            )
            assert np.abs((got - ref) / np.abs(ref).max()).max() < 1e-12

    def test_inside_earth_rejected(self):
        with pytest.raises(ValueError):
            acceleration(0.0, [6000.0, 0.0, 0.0], [0.0, 7.5, 0.0], TWO_BODY, SC)

    def test_batched_matches_scalar_rows(self):
        cfg = ForceConfig(drag=True, srp=True)
        rng = np.random.default_rng(2)
        y = np.tile([6678.0, 0, 0, 0, 7.7, 0], (5, 1)) + rng.normal(0, 1, (5, 6)) * 0.1
        t = np.full(5, EPOCH_2021)
        rhs = make_cartesian_rhs(cfg, SC)
        batch = rhs(t, y)
        for i in range(5):
            row = rhs(np.array([EPOCH_2021]), y[i][None, :])[0]
            np.testing.assert_array_equal(batch[i], row)

    def test_one_sun_position_per_call(self, monkeypatch):
        # the Sun serves the third body, the drag bulge and SRP: computed once,
        # with the same sums as when each term computed its own at t
        cfg = ForceConfig(drag=True, srp=True)
        rng = np.random.default_rng(4)
        n = 7
        r = np.tile([6678.0, 0.0, 0.0], (n, 1)) + rng.normal(0, 50.0, (n, 3))
        v = np.tile([0.0, 7.7, 0.1], (n, 1)) + rng.normal(0, 0.01, (n, 3))
        t = EPOCH_2021 + rng.uniform(0.0, 86400.0, n)
        r3, v3 = list(r.T), list(v.T)
        own = [forces.gravity_acceleration(r3, cfg, t),
               forces.third_body_acceleration(r3, sun_position(t), forces.MU_SUN),
               forces.third_body_acceleration(r3, moon_position(t), forces.MU_MOON),
               forces.drag_acceleration(sun_position(t), r3, v3, cfg, SC),
               forces.srp_acceleration(sun_position(t), r3, cfg, SC)]
        ref = own[0]
        for a in own[1:]:
            ref = [ref[j] + a[j] for j in range(3)]

        calls = []

        def counted(t_s):
            calls.append(t_s)
            return sun_position(t_s)

        monkeypatch.setattr(forces, "sun_position", counted)
        got = acceleration(t, r3, v3, cfg, SC)
        assert len(calls) == 1
        np.testing.assert_array_equal(np.array(got), np.array(ref))


def _oracle_gravity(r3, cfg, t_s):
    """The component-wise Cunningham recursion that the array form replaced."""
    if cfg.degree == 0:
        rmag = norm3(r3)
        fac = -cfg.mu / (rmag * rmag * rmag)
        return [fac * r3[0], fac * r3[1], fac * r3[2]]

    theta = forces.gmst_angle(t_s)
    ct, st = np.cos(theta), np.sin(theta)
    xe = ct * r3[0] + st * r3[1]
    ye = -st * r3[0] + ct * r3[1]
    ze = r3[2]

    fld = forces._field_for(cfg)
    nmax = cfg.degree
    re = cfg.re_km
    r2 = xe * xe + ye * ye + ze * ze
    rho = re * re / r2
    x0 = re * xe / r2
    y0 = re * ye / r2
    z0 = re * ze / r2

    nv = nmax + 1
    V = [[None] * (nv + 1) for _ in range(nv + 1)]
    W = [[None] * (nv + 1) for _ in range(nv + 1)]
    V[0][0] = re / sqrt(r2)
    W[0][0] = 0.0
    for m in range(0, nv + 1):
        if m > 0:
            V[m][m] = (2 * m - 1) * (x0 * V[m - 1][m - 1] - y0 * W[m - 1][m - 1])
            W[m][m] = (2 * m - 1) * (x0 * W[m - 1][m - 1] + y0 * V[m - 1][m - 1])
        for n in range(m + 1, nv + 1):
            vprev2 = V[n - 2][m] if n - 2 >= m else 0.0
            wprev2 = W[n - 2][m] if n - 2 >= m else 0.0
            V[n][m] = ((2 * n - 1) * z0 * V[n - 1][m] - (n + m - 1) * rho * vprev2) / (n - m)
            W[n][m] = ((2 * n - 1) * z0 * W[n - 1][m] - (n + m - 1) * rho * wprev2) / (n - m)

    gmr2 = cfg.mu / (re * re)
    ax = 0.0
    ay = 0.0
    az = 0.0
    C, S = fld.c, fld.s
    for n in range(0, nmax + 1):
        for m in range(0, n + 1):
            cnm, snm = C[n, m], S[n, m]
            if cnm == 0.0 and snm == 0.0:
                continue
            if m == 0:
                ax = ax + gmr2 * (-cnm * V[n + 1][1])
                ay = ay + gmr2 * (-cnm * W[n + 1][1])
            else:
                fac = 0.5 * (n - m + 2) * (n - m + 1)
                ax = ax + gmr2 * 0.5 * (-cnm * V[n + 1][m + 1] - snm * W[n + 1][m + 1]) \
                    + gmr2 * fac * (cnm * V[n + 1][m - 1] + snm * W[n + 1][m - 1])
                ay = ay + gmr2 * 0.5 * (-cnm * W[n + 1][m + 1] + snm * V[n + 1][m + 1]) \
                    + gmr2 * fac * (-cnm * W[n + 1][m - 1] + snm * V[n + 1][m - 1])
            az = az + gmr2 * (n - m + 1) * (-cnm * V[n + 1][m] - snm * W[n + 1][m])

    return [ct * ax - st * ay, st * ax + ct * ay, az]


GRAVITY_CASES = {
    "degree 0": ForceConfig(degree=0, order=0),
    "degree 2 order 0": ForceConfig(degree=2, order=0),
    "8x8": ForceConfig(),
    "6x3 truncated": ForceConfig(degree=6, order=3),
}


def _positions(width, seed):
    """Columns of positions between LEO and GEO radii, and their epochs."""
    rng = np.random.default_rng(seed)
    r = rng.normal(size=(3, width))
    r *= rng.uniform(6600.0, 42500.0, width) / np.linalg.norm(r, axis=0)
    return list(r), EPOCH_2021 + rng.uniform(0.0, 86400.0, width)


def _assert_rows_close(got, ref, rtol=1e-14):
    """Each row (column of the (3, N) arrays) within rtol of its largest component."""
    got, ref = np.array(got, ndmin=2), np.array(ref, ndmin=2)
    scale = np.abs(ref).max(axis=0)
    assert np.all(np.abs(got - ref) <= rtol * scale)


class TestGravityRecursion:
    """The array-form V/W table against the component-wise recursion."""

    @pytest.mark.parametrize("name", list(GRAVITY_CASES))
    def test_floats_match_oracle(self, name):
        cfg = GRAVITY_CASES[name]
        r3, t = _positions(20, 11)
        for i in range(20):
            row = [float(c[i]) for c in r3]
            _assert_rows_close(forces.gravity_acceleration(row, cfg, float(t[i])),
                               _oracle_gravity(row, cfg, float(t[i])))

    @pytest.mark.parametrize("name", list(GRAVITY_CASES))
    @pytest.mark.parametrize("width", [2, 3, 243, 4096])
    def test_columns_match_oracle(self, name, width):
        cfg = GRAVITY_CASES[name]
        r3, t = _positions(width, width)
        _assert_rows_close(forces.gravity_acceleration(r3, cfg, t),
                           _oracle_gravity(r3, cfg, t))

    @pytest.mark.parametrize("name", list(GRAVITY_CASES))
    def test_polynomials_match_oracle(self, name):
        # coefficient by coefficient, relative to the largest of the three
        # components' coefficients of that monomial
        cfg = GRAVITY_CASES[name]
        ctx = AlgebraContext(2, 6)
        r3, t = _positions(3, 5)
        for i in range(3):
            y0 = [c[i] for c in r3] + [0.1, 7.5, 0.2]
            state = DAVector.affine(ctx, y0, np.diag([1.0, 1.0, 1.0, 1e-3, 1e-3, 1e-3]))
            pos = list(state)[:3]
            got = forces.gravity_acceleration(pos, cfg, float(t[i]))
            ref = _oracle_gravity(pos, cfg, float(t[i]))
            _assert_rows_close([p.c for p in got], [p.c for p in ref])

    def test_row_bits_do_not_depend_on_batch_width(self):
        for cfg in (ForceConfig(), ForceConfig(degree=6, order=3)):
            r3, t = _positions(4096, 7)
            whole = np.array(forces.gravity_acceleration(r3, cfg, t))
            for width in (2, 3, 243, 1025):
                part = np.array(forces.gravity_acceleration([c[:width] for c in r3], cfg,
                                                            t[:width]))
                np.testing.assert_array_equal(part, whole[:, :width])
            for i in (0, 1, 1024, 4095):
                alone = forces.gravity_acceleration([float(c[i]) for c in r3], cfg, float(t[i]))
                np.testing.assert_array_equal(np.array(alone), whole[:, i])

    def test_da_constant_part_equals_float_evaluation(self):
        # the first three positions at EPOCH_2021 have an Earth-fixed r^2
        # whose pow(r^2, 0.5) rounds differently from sqrt(r^2)
        ctx = AlgebraContext(2, 6)
        r3, t = _positions(20, 9)
        cases = [([3962.434, 11321.566, 22639.885], EPOCH_2021),
                 ([-14115.103, 20283.483, -16587.968], EPOCH_2021),
                 ([383.967, 22345.402, 3495.422], EPOCH_2021)]
        cases += [([c[i] for c in r3], float(t[i])) for i in range(20)]
        for cfg in (ForceConfig(), ForceConfig(degree=2, order=0)):
            for pos, epoch in cases:
                y0 = list(pos) + [0.0, 0.0, 0.0]
                state = DAVector.affine(ctx, y0, np.diag([1.0, 1.0, 1.0, 1e-3, 1e-3, 1e-3]))
                got = forces.gravity_acceleration(list(state)[:3], cfg, epoch)
                ref = forces.gravity_acceleration(pos, cfg, epoch)
                assert [p.const for p in got] == [float(a) for a in ref]

    def test_work_set_at_4096_rows_no_larger_than_oracle(self):
        cfg = ForceConfig()
        r3, t = _positions(4096, 3)
        peaks = []
        for fn in (_oracle_gravity, forces.gravity_acceleration):
            fn(r3, cfg, t)
            tracemalloc.start()
            try:
                fn(r3, cfg, t)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= peaks[0]


class TestThirdBodies:
    def test_sun_distance_and_direction(self):
        s = sun_position(EPOCH_2021)
        dist_au = np.linalg.norm(s) / 1.495978707e8
        assert 0.98 < dist_au < 0.985  # a few days before perihelion

    def test_moon_distance_range(self):
        for days in range(0, 28, 4):
            m = moon_position(EPOCH_2021 + days * 86400.0)
            d = np.linalg.norm(m)
            assert 356000.0 < d < 407000.0

    def test_third_body_tidal_form(self):
        # acceleration vanishes at the Earth's center by construction
        cfg = ForceConfig(degree=0, order=0, third_body_sun=True,
                          third_body_moon=False, drag=False, srp=False)
        a_with = np.array(
            acceleration(EPOCH_2021, [7000.0, 0, 0], [0, 7.5, 0], cfg, SC)
        )
        a_wo = np.array(
            acceleration(EPOCH_2021, [7000.0, 0, 0], [0, 7.5, 0], TWO_BODY, SC)
        )
        diff = np.linalg.norm(a_with - a_wo)
        assert 0.0 < diff < 1e-9  # solar tide at LEO is ~1e-12 km/s^2 scale


class TestShadow:
    def test_deep_umbra_zero(self):
        sun = sun_position(EPOCH_2021)
        r_anti = -sun / np.linalg.norm(sun) * 7000.0
        nu = shadow_factor([r_anti[0], r_anti[1], r_anti[2]], sun, 6378.1363)
        assert nu == 0.0

    def test_sun_side_full(self):
        sun = sun_position(EPOCH_2021)
        r_sun_side = sun / np.linalg.norm(sun) * 7000.0
        nu = shadow_factor([r_sun_side[0], r_sun_side[1], r_sun_side[2]], sun, 6378.1363)
        assert nu == 1.0

    def test_srp_zero_in_umbra(self):
        cfg = ForceConfig(degree=0, order=0, third_body_sun=False,
                          third_body_moon=False, drag=False, srp=True)
        sun = sun_position(EPOCH_2021)
        r_anti = -sun / np.linalg.norm(sun) * 7000.0
        a = np.array(
            acceleration(EPOCH_2021, list(r_anti), [0, 7.5, 0], cfg, SC)
        ) - np.array(
            acceleration(EPOCH_2021, list(r_anti), [0, 7.5, 0], TWO_BODY, SC)
        )
        assert np.linalg.norm(a) == 0.0


class TestHarrisPriester:
    def test_table_bounds(self):
        with pytest.raises(ValueError):
            harris_priester_density(90.0, 1.0, 2.0)
        with pytest.raises(ValueError):
            harris_priester_density(1100.0, 1.0, 2.0)

    def test_density_between_min_max(self):
        rho_night = harris_priester_density(300.0, 0.0, 2.0)
        rho_day = harris_priester_density(300.0, 1.0, 2.0)
        assert rho_night == pytest.approx(17.08e-12, rel=1e-12)
        assert rho_day == pytest.approx(35.26e-12, rel=1e-12)

    def test_exponential_interpolation_monotone(self):
        rhos = [harris_priester_density(h, 0.5, 2.0) for h in (305.0, 310.0, 315.0)]
        assert rhos[0] > rhos[1] > rhos[2]

    def test_drag_decays_leo_orbit(self):
        cfg = ForceConfig(degree=0, order=0, third_body_sun=False,
                          third_body_moon=False, drag=True, srp=False)
        y0 = np.array([6678.0, 0, 0, 0, math.sqrt(MU / 6678.0), 0])
        y1 = propagate_hf(y0, EPOCH_2021, EPOCH_2021 + 2 * period(6678.0), cfg)
        assert energy_two_body(y1) < energy_two_body(y0)


class TestPropagateHf:
    def test_two_body_energy_drift(self):
        y0 = np.array([7000.0, 0, 0, 0, math.sqrt(MU / 7000.0), 0])
        y1 = propagate_hf(y0, 0.0, 2 * period(7000.0), TWO_BODY)
        drift = abs(energy_two_body(y1) - energy_two_body(y0)) / abs(energy_two_body(y0))
        assert drift < 1e-12

    def test_two_body_period_closure(self):
        y0 = np.array([7000.0, 0, 0, 0, math.sqrt(MU / 7000.0), 0])
        y1 = propagate_hf(y0, 0.0, period(7000.0), TWO_BODY)
        assert np.abs(y1 - y0).max() < 1e-7  # dominated by along-track phase

    def test_j2_invariants(self):
        fld = load_gravity_field()
        j2 = -fld.c[2, 0]
        re = J2_ONLY.re_km

        def energy_j2(y):
            r = np.linalg.norm(y[:3])
            u = -MU / r * (1 - j2 * (re / r) ** 2 * (1.5 * (y[2] / r) ** 2 - 0.5))
            return 0.5 * np.dot(y[3:], y[3:]) + u

        kep = [7000.0, 0.05, 0.8, 0.3, 0.2, 0.1]
        rv, _ = convert_values(kep, KEPLERIAN, CARTESIAN, MU)
        y0 = np.array(rv)
        y1 = propagate_hf(y0, 0.0, 2 * period(7000.0), J2_ONLY)
        de = abs(energy_j2(y1) - energy_j2(y0)) / abs(energy_j2(y0))
        hz0 = y0[0] * y0[4] - y0[1] * y0[3]
        hz1 = y1[0] * y1[4] - y1[1] * y1[3]
        assert de < 1e-10
        assert abs(hz1 - hz0) / abs(hz0) < 1e-10

    def test_backward_propagation_inverts(self):
        y0 = np.array([8000.0, 100.0, -200.0, 0.1, math.sqrt(MU / 8000.0), 0.3])
        yf = propagate_hf(y0, 0.0, 3000.0, J2_ONLY)
        back = propagate_hf(yf, 3000.0, 0.0, J2_ONLY)
        np.testing.assert_allclose(back, y0, atol=1e-8)

    def test_dp8_fixed_step_order_slope(self):
        y0 = np.array([7000.0, 0, 0, 0, math.sqrt(MU / 7000.0), 0])
        rhs = make_cartesian_rhs(TWO_BODY, SC)
        t_end = period(7000.0)
        ref = integrate_fixed(rhs, 0.0, y0, t_end, 3000, "dp8")
        ns = [16, 20, 26, 34, 44]
        errs = [
            np.linalg.norm(integrate_fixed(rhs, 0.0, y0, t_end, n, "dp8")[:3] - ref[:3])
            for n in ns
        ]
        slope = -np.polyfit(np.log(ns), np.log(errs), 1)[0]
        assert 7.5 < slope < 8.5

    def test_da_constant_part_matches_scalar(self):
        # the DA constant part, the 1-D state and the one-row batch are one
        # float stream: J2 over a period, and the full force model (gravity
        # 8x8, Sun, Moon, drag, SRP) over 0.2 LEO periods
        full = ForceConfig(drag=True, srp=True)
        y0 = np.array([6800.0, 0.0, 100.0, 0.0, math.sqrt(MU / 6800.0), 0.2])
        ctx = AlgebraContext(2, 6)
        state = DAVector.affine(ctx, y0, np.diag([1, 1, 1, 1e-3, 1e-3, 1e-3]))
        for cfg, t0, span in ((J2_ONLY, 0.0, period(6800.0)),
                              (full, EPOCH_2021, 0.2 * period(6800.0))):
            scalar_end = propagate_hf(y0, t0, t0 + span, cfg)
            row_end = propagate_hf(y0[None, :], t0, t0 + span, cfg)
            da_end = propagate_hf(state, t0, t0 + span, cfg)
            np.testing.assert_array_equal(row_end[0], scalar_end)
            np.testing.assert_array_equal(da_end.constant_part(), scalar_end)

    def test_mixed_polynomial_and_float_state(self):
        # float entries act as constant polynomials: the result equals the
        # all-polynomial state's, whose constant part is the float run
        y0 = [7000.0, 0.0, 0.0, 0.0, 7.546, 0.0]
        ctx = AlgebraContext(2, 1)
        x = ctx.variable(1)
        mixed = propagate_hf([x + 7000.0] + y0[1:], 0.0, 2000.0, TWO_BODY)
        lifted = propagate_hf([x + 7000.0] + [ctx.constant(v) for v in y0[1:]], 0.0, 2000.0,
                              TWO_BODY)
        for p, q in zip(mixed, lifted):
            np.testing.assert_array_equal(p.c, q.c)
        np.testing.assert_array_equal([p.const for p in mixed],
                                      propagate_hf(np.array(y0), 0.0, 2000.0, TWO_BODY))

    def test_da_first_order_matches_finite_differences(self):
        y0 = np.array([7000.0, 0, 0, 0, math.sqrt(MU / 7000.0), 0])
        t_end = 2000.0
        ctx = AlgebraContext(2, 1)
        amp = np.zeros((6, 1))
        amp[0, 0] = 1.0  # expand in the initial x only
        state = DAVector.affine(ctx, y0, amp)
        da_end = propagate_hf(state, 0.0, t_end, TWO_BODY)
        h = 1e-4
        up = propagate_hf(y0 + np.array([h, 0, 0, 0, 0, 0]), 0.0, t_end, TWO_BODY)
        dn = propagate_hf(y0 - np.array([h, 0, 0, 0, 0, 0]), 0.0, t_end, TWO_BODY)
        fd = (up - dn) / (2 * h)
        da = np.array([p.coeffs().get((1,), 0.0) for p in da_end])
        assert np.abs(da - fd).max() / np.abs(fd).max() < 1e-6

    def test_batch_determinism_and_chunk_agreement(self):
        # reruns are bit-identical; re-chunking only moves samples between
        # SIMD lanes, so trajectories agree to ulp-seeded integration noise
        cfg = ForceConfig(drag=True, srp=True)
        rng = np.random.default_rng(3)
        base = np.array([6678.0, 0, 0, 0, math.sqrt(MU / 6678.0), 0])
        batch = np.tile(base, (6, 1))
        batch[:, 0] += rng.normal(0, 1.0, 6)
        batch[:, 4] += rng.normal(0, 1e-3, 6)
        t_end = EPOCH_2021 + 1500.0
        whole = propagate_hf(batch, EPOCH_2021, t_end, cfg)
        again = propagate_hf(batch, EPOCH_2021, t_end, cfg)
        np.testing.assert_array_equal(whole, again)
        parts = np.vstack(
            [propagate_hf(batch[i : i + 2], EPOCH_2021, t_end, cfg) for i in (0, 2, 4)]
        )
        np.testing.assert_allclose(parts, whole, rtol=0, atol=5e-4)
        rows = np.vstack([propagate_hf(batch[i : i + 1], EPOCH_2021, t_end, cfg)
                          for i in range(6)])
        np.testing.assert_allclose(rows, whole, rtol=0, atol=5e-4)

    def test_last_active_row_matches_row_alone(self):
        # the 6700 km row needs more steps than the 7300 km one, so it ends
        # the batch alone and the right-hand side sees one-row calls; the
        # batch still agrees with each row propagated by itself to
        # integration noise (about 2e-6 km over this period)
        cfg = ForceConfig(drag=True, srp=True)
        batch = np.array([[6700.0, 0, 100.0, 0, math.sqrt(MU / 6700.0), 0.2],
                          [7300.0, 0, 0, 0, 0, math.sqrt(MU / 7300.0)]])
        span = period(6700.0)
        base = make_cartesian_rhs(cfg, SC)
        rows_seen = []

        def rhs(tau, y):
            rows_seen.append(y.shape[0])
            return base(EPOCH_2021 + tau, y)

        whole = integrate_batch(rhs, 0.0, batch, span)
        assert 1 in rows_seen and 2 in rows_seen
        alone = np.vstack([propagate_hf(row, EPOCH_2021, EPOCH_2021 + span, cfg)
                           for row in batch])
        np.testing.assert_allclose(whole, alone, rtol=0, atol=1e-5)

    def test_zero_duration(self):
        y0 = np.array([7000.0, 0, 0, 0, 7.5, 0])
        np.testing.assert_array_equal(propagate_hf(y0, 5.0, 5.0, TWO_BODY), y0)

    def test_step_underflow_raises(self):
        # forcing a hopeless tolerance triggers the underflow guard
        y0 = np.array([7000.0, 0, 0, 0, math.sqrt(MU / 7000.0), 0])
        with pytest.raises((RuntimeError, ValueError)):
            propagate_hf(
                y0, 0.0, period(7000.0), TWO_BODY,
                IntegratorConfig(abs_tol=1e-300, rel_tol=1e-300, min_step=1.0),
            )


class TestMeeFormulation:
    def test_keplerian_limit_rates(self):
        mee = [8000.0, 0.01, -0.02, 0.1, 0.05, 1.2]
        rates = gauss_equations_mee(mee, [0.0, 0.0, 0.0], MU)
        p, f, g, h, k, big_l = mee
        w = 1.0 + f * math.cos(big_l) + g * math.sin(big_l)
        assert rates[:5] == [0.0] * 5
        assert rates[5] == pytest.approx(math.sqrt(MU * p) * (w / p) ** 2, rel=1e-14)

    def test_geometry_violation(self):
        # w <= 0 requires a hyperbolic state beyond the asymptote
        with pytest.raises(ValueError):
            gauss_equations_mee([8000.0, 1.2, 0.0, 0, 0, math.pi], [0, 0, 0], MU)

    def test_mean_motion_rate_unperturbed_zero(self):
        mee = [8000.0, 0.01, -0.02, 0.1, 0.05, 1.2]
        rates = gauss_equations_mee(mee, [0.0, 0.0, 0.0], MU)
        assert mean_motion_rate(mee, rates, MU) == 0.0

    def test_mean_motion_rate_chain_rule_against_fd(self):
        mee = [8000.0, 0.01, -0.02, 0.1, 0.05, 1.2]
        a_rsw = [1e-7, -2e-7, 5e-8]
        rates = gauss_equations_mee(mee, a_rsw, MU)
        got = mean_motion_rate(mee, rates, MU)
        dt = 1.0

        def n_of(vals):
            a = vals[0] / (1 - vals[1] ** 2 - vals[2] ** 2)
            return math.sqrt(MU / a**3)

        stepped = [m + r * dt for m, r in zip(mee, rates)]
        fd = (n_of(stepped) - n_of(mee)) / dt
        assert got == pytest.approx(fd, rel=1e-4)

    def test_cross_formulation_j2_one_period(self):
        kep = [6800.0, 0.02, 0.5, 0.3, 0.2, 0.1]
        rv, _ = convert_values(kep, KEPLERIAN, CARTESIAN, MU)
        t_end = period(6800.0)
        cart_end = propagate_hf(np.array(rv), 0.0, t_end, J2_ONLY)
        mee0, _ = convert_values(rv, CARTESIAN, MEE_L, MU)
        mee_end = propagate_hf_mee(mee0, 0.0, t_end, J2_ONLY, mu=MU)
        cart_from_mee, _ = convert_values(list(mee_end), MEE_L, CARTESIAN, MU)
        err = np.abs(np.array(cart_from_mee[:3]) - cart_end[:3]).max()
        assert err < 1e-6
