"""Element conversions, Kepler solvers and frame transforms."""

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
    FrameModel,
    KEPLERIAN,
    MEE_L,
    MEE_LAM,
    OrbitState,
    convert,
    convert_values,
    frame_transform,
    kepler_equinoctial_solve,
    kepler_solve,
    wrap_angle,
)
from orbuq.generic import cons
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
            assert wrap_angle(vals[5]) == pytest.approx(
                wrap_angle(raan + argp + man), abs=1e-10
            )

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


class TestOrbitState:
    def test_convert_preserves_epoch_and_mu(self):
        kep = [12000.0, 0.2, 0.4, 0.1, 0.2, 0.3]
        s = OrbitState(KEPLERIAN, 123.0, kep, MU)
        out = convert(s, MEE_L)
        assert out.epoch == 123.0 and out.mu == MU
        assert out.elements == MEE_L

    def test_serialization_wraps_angles(self):
        s = OrbitState(EQUINOCTIAL_LAM, 0.0, [7000, 0.1, 0.0, 0.0, 0.0, -1.0], MU)
        obj = s.to_json_obj()
        assert 0.0 <= obj["values"][5] < 2 * math.pi
        assert obj["set"] == "equinoctial"
        assert obj["fast_variable"] == "lambda"

    def test_set_validation(self):
        with pytest.raises(ValueError):
            ElementSet.parse("cartesian", "L")
        with pytest.raises(ValueError):
            ElementSet.parse("mee")


class TestFrameTransform:
    def test_identity_model(self):
        s = OrbitState(CARTESIAN, 0.0, [7000, 0, 0, 0, 7.5, 0], MU)
        out = frame_transform(s, "to_teme", FrameModel())
        np.testing.assert_array_equal(out.values, s.values)

    def test_rotation_roundtrip(self):
        th = 0.001
        rot = np.array(
            [
                [math.cos(th), -math.sin(th), 0.0],
                [math.sin(th), math.cos(th), 0.0],
                [0.0, 0.0, 1.0],
            ]
        )
        model = FrameModel(rot, "test_z_rotation")
        s = OrbitState(CARTESIAN, 0.0, [7000.0, 100.0, -50.0, 0.1, 7.5, 0.2], MU)
        there = frame_transform(s, "to_teme", model)
        back = frame_transform(there, "from_teme", model)
        np.testing.assert_allclose(back.values, s.values, atol=1e-14)

    def test_norm_preservation(self):
        rng = np.random.default_rng(8)
        q, _ = np.linalg.qr(rng.uniform(-1, 1, (3, 3)))
        if np.linalg.det(q) < 0:
            q[:, 0] *= -1
        model = FrameModel(q, "random_rotation")
        for _ in range(20):
            rv = rng.uniform(-7000, 7000, 6)
            s = OrbitState(CARTESIAN, 0.0, list(rv), MU)
            out = frame_transform(s, "to_teme", model)
            assert np.linalg.norm(out.values[:3]) == pytest.approx(
                np.linalg.norm(rv[:3]), rel=1e-14
            )
            assert np.linalg.norm(out.values[3:]) == pytest.approx(
                np.linalg.norm(rv[3:]), rel=1e-14
            )

    def test_nonorthonormal_rejected(self):
        with pytest.raises(ValueError):
            FrameModel(np.eye(3) * 1.001)


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
        m_in, m_out = loads_gmm(lambda s: DAVector(list(s)), dom, cfg)
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

        m_in, m_out = loads_gmm(conv_map, dom, cfg)
        assert len(m_in) == 1

    def test_inflated_sigmas_trigger_split(self, lib3):
        from orbuq.loads import loads_gmm

        kep = [35000.0, 0.2, 0.0, 0.0, 0.0, 0.0]
        rv, _ = convert_values(kep, KEPLERIAN, CARTESIAN, MU)
        cov = np.diag([100.0**2, 100.0**2, 0.0, 1e-2, 1e-2, 0.0])
        dom = initial_domain(rv, cov, ci=3.0)
        cfg = LoadsConfig(eps_nu=0.01, library=lib3, alpha_min=1e-4)

        def conv_map(state):
            out, _ = convert_values(list(state), CARTESIAN, EQUINOCTIAL_LAM, MU)
            return DAVector(out)

        m_in, _ = loads_gmm(conv_map, dom, cfg)
        assert len(m_in) > 1
