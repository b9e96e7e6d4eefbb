"""Analytical theories: SGP4 verification, secular rates, inversion, targets."""

import math

import numpy as np
import pytest

from orbuq.config import load_scenario
from orbuq.elements import (
    ALTERNATE_LAM,
    CARTESIAN,
    EQUINOCTIAL_LAM,
    KEPLERIAN,
    convert_values,
)
from orbuq.lowfi import (
    KeplerJ2Theory,
    MeanElements,
    Sgp4Theory,
    lf_target,
    osc_to_mean,
    wrap_residual,
)
from orbuq.loads import initial_domain, split_domain
from orbuq.sgp4 import Sgp4, Sgp4Error, TleRecord, WGS72, format_tle, parse_tle
from orbuq.ta import AlgebraContext, DAVector, TaylorPoly
from orbuq.cli import load_sgp4_reference
from orbuq.timeutil import jday_from_civil, jday_from_iso, seconds_since_j2000

REFERENCE_SATS = load_sgp4_reference()

MU = 398600.4355

CLASSIC_TLE_1 = "1 00005U 58002B   00179.78495062  .00000023  00000-0  28098-4 0  4753"
CLASSIC_TLE_2 = "2 00005  34.2682 348.7242 1859667 331.7664  19.3264 10.82419157413667"


class TestSgp4Verification:
    @pytest.mark.parametrize("name", list(REFERENCE_SATS))
    def test_matches_reference_ephemerides(self, name):
        c = REFERENCE_SATS[name]
        model = Sgp4(
            c["no_kozai"], c["ecco"], c["inclo"], c["nodeo"], c["argpo"],
            c["mo"], bstar=c["bstar"], grav=WGS72,
        )
        for tsince, ref in c["checkpoints"].items():
            got = model.propagate(tsince)
            err_r = np.linalg.norm(np.array(got[:3]) - np.array(ref[:3]))
            err_v = np.linalg.norm(np.array(got[3:]) - np.array(ref[3:]))
            assert err_r < 1e-6, f"{name} at {tsince} min: {err_r} km"
            assert err_v < 1e-9

    def test_classic_tle_parse_and_published_epoch_state(self):
        rec = parse_tle(CLASSIC_TLE_1, CLASSIC_TLE_2)
        assert rec.satnum == 5
        model = rec.to_sgp4()
        r = model.propagate(0.0)[:3]
        # published verification tables, km
        np.testing.assert_allclose(
            r, [7022.46529266, -1400.08296755, 0.03995155], atol=5e-8
        )

    def test_deep_space_rejected(self):
        with pytest.raises(Sgp4Error):
            Sgp4(2 * math.pi / 1440.0, 0.01, 0.1, 0.0, 0.0, 0.0)  # geosync period

    def test_decay_detected(self):
        # heavy drag on a low orbit eventually drops below the surface
        c = REFERENCE_SATS["leo_equatorial"]
        model = Sgp4(
            c["no_kozai"], c["ecco"], c["inclo"], c["nodeo"], c["argpo"],
            c["mo"], bstar=0.1, grav=WGS72,
        )
        with pytest.raises(Sgp4Error):
            for ts in range(0, 200000, 1440):
                model.propagate(float(ts))

    def test_da_constant_part_matches_scalar(self):
        c = REFERENCE_SATS["classic00005"]
        ctx = AlgebraContext(2, 6)
        dx = [ctx.variable(j + 1) for j in range(6)]
        model = Sgp4(
            c["no_kozai"] * (1.0 + 1e-6 * dx[0]),
            c["ecco"] + 1e-4 * dx[1],
            c["inclo"] + 1e-4 * dx[2],
            c["nodeo"] + 1e-4 * dx[3],
            c["argpo"] + 1e-4 * dx[4],
            c["mo"] + 1e-4 * dx[5],
            bstar=c["bstar"],
        )
        scalar = Sgp4(c["no_kozai"], c["ecco"], c["inclo"], c["nodeo"],
                      c["argpo"], c["mo"], bstar=c["bstar"])
        for tsince in (0.0, 360.0):
            da_out = model.propagate(tsince)
            sc_out = scalar.propagate(tsince)
            consts = [p.const for p in da_out]
            np.testing.assert_allclose(consts, sc_out, rtol=0, atol=1e-10)

    def test_da_derivatives_match_finite_differences(self):
        c = REFERENCE_SATS["sunsync"]
        ctx = AlgebraContext(2, 1)
        dx = ctx.variable(1)
        h = 1e-6
        model = Sgp4(c["no_kozai"], c["ecco"] + h * dx, c["inclo"],
                     c["nodeo"], c["argpo"], c["mo"], bstar=c["bstar"])
        up = Sgp4(c["no_kozai"], c["ecco"] + h, c["inclo"], c["nodeo"],
                  c["argpo"], c["mo"], bstar=c["bstar"])
        dn = Sgp4(c["no_kozai"], c["ecco"] - h, c["inclo"], c["nodeo"],
                  c["argpo"], c["mo"], bstar=c["bstar"])
        da_out = model.propagate(720.0)
        up_out = up.propagate(720.0)
        dn_out = dn.propagate(720.0)
        for j in range(3):
            fd = (up_out[j] - dn_out[j]) / 2.0  # d/d(dx) at h-scaled variable
            da = da_out[j].coeffs().get((1,), 0.0)
            assert abs(da - fd) / max(abs(fd), 1e-6) < 1e-5


class TestTleFormat:
    def test_checksum_rejects_corruption(self):
        bad = CLASSIC_TLE_1[:-1] + "9"
        with pytest.raises(ValueError):
            parse_tle(bad, CLASSIC_TLE_2)

    def test_epoch_decoding(self):
        rec = parse_tle(CLASSIC_TLE_1, CLASSIC_TLE_2)
        # 00179.78495062 -> day 179.78495062 of 2000
        expect = jday_from_civil(2000, 1, 1) + (179.78495062 - 1.0)
        assert rec.epoch_jd == pytest.approx(expect, abs=1e-9)

    def test_format_roundtrip(self):
        rec = parse_tle(CLASSIC_TLE_1, CLASSIC_TLE_2)
        l1, l2 = format_tle(rec)
        assert len(l1) == 69 and len(l2) == 69
        back = parse_tle(l1, l2)
        assert back.no_kozai == pytest.approx(rec.no_kozai, rel=1e-9)
        assert back.ecco == pytest.approx(rec.ecco, abs=1e-7)
        assert back.bstar == pytest.approx(rec.bstar, rel=1e-4)
        assert back.epoch_jd == pytest.approx(rec.epoch_jd, abs=1e-8)

    def test_synthetic_record_roundtrip(self):
        rec = TleRecord(
            satnum=90001, epoch_jd=jday_from_iso("2021-01-01T00:00:00"),
            no_kozai=15.9 * 2 * math.pi / 1440.0, ecco=0.01,
            inclo=0.0, nodeo=0.0, argpo=0.0, mo=0.0, bstar=1e-4,
            intl_desig="21001A",
        )
        l1, l2 = format_tle(rec)
        back = parse_tle(l1, l2)
        assert back.satnum == 90001
        assert back.no_kozai == pytest.approx(rec.no_kozai, rel=1e-9)


class TestKeplerJ2Theory:
    def test_pure_kepler_closure(self):
        th = KeplerJ2Theory(mu=MU, j2=0.0)
        kep = [35000.0, 0.2, 0.0, 0.0, 0.0, 0.0]
        cart, _ = convert_values(kep, KEPLERIAN, CARTESIAN, MU)
        eqx, _ = convert_values(cart, CARTESIAN, EQUINOCTIAL_LAM, MU)
        mean = MeanElements(th.name, 0.0, eqx)
        period = 2 * math.pi * math.sqrt(35000.0**3 / MU)
        out = th.propagate_mean(mean, period)
        np.testing.assert_allclose(out[:3], cart[:3], atol=1e-9)

    def test_secular_rates_match_closed_forms_by_finite_difference(self):
        th = KeplerJ2Theory(mu=MU)
        kep = [12000.0, 0.3, math.radians(56.0), 0.7, 0.2, 1.0]
        a, e, i = kep[0], kep[1], kep[2]
        p = a * (1 - e * e)
        n = math.sqrt(MU / a**3)
        raan_ref = -1.5 * th.j2 * n * (th.re_km / p) ** 2 * math.cos(i)
        argp_ref = 0.75 * th.j2 * n * (th.re_km / p) ** 2 * (5 * math.cos(i) ** 2 - 1)
        cart, _ = convert_values(kep, KEPLERIAN, CARTESIAN, MU)
        eqx, _ = convert_values(cart, CARTESIAN, EQUINOCTIAL_LAM, MU)
        day = 86400.0
        out = th.propagate_mean(MeanElements(th.name, 0.0, eqx), day)
        kep_day, _ = convert_values(out, CARTESIAN, KEPLERIAN, MU)
        raan_fd = wrap_residual(kep_day[3] - kep[3]) / day
        argp_fd = wrap_residual(kep_day[4] - kep[4]) / day
        assert abs(raan_fd - raan_ref) / abs(raan_ref) < 1e-6
        assert abs(argp_fd - argp_ref) / abs(argp_ref) < 1e-6

    def test_conserves_shape_elements(self):
        th = KeplerJ2Theory(mu=MU)
        kep = [8000.0, 0.1, 1.0, 0.3, 0.4, 0.5]
        cart, _ = convert_values(kep, KEPLERIAN, CARTESIAN, MU)
        eqx, _ = convert_values(cart, CARTESIAN, EQUINOCTIAL_LAM, MU)
        out = th.propagate_mean(MeanElements(th.name, 0.0, eqx), 5 * 86400.0)
        eqx_out, _ = convert_values(out, CARTESIAN, EQUINOCTIAL_LAM, MU)
        assert eqx_out[0] == pytest.approx(eqx[0], rel=1e-12)       # a
        e_in = math.hypot(eqx[1], eqx[2])
        e_out = math.hypot(eqx_out[1], eqx_out[2])
        assert e_out == pytest.approx(e_in, rel=1e-12)
        i_in = math.hypot(eqx[3], eqx[4])
        i_out = math.hypot(eqx_out[3], eqx_out[4])
        assert i_out == pytest.approx(i_in, rel=1e-12)


class TestOscToMean:
    def test_kepler_j2_identity_single_iteration(self):
        th = KeplerJ2Theory(mu=MU, j2=0.0)
        kep = [9000.0, 0.05, 0.3, 0.1, 0.2, 0.3]
        cart, _ = convert_values(kep, KEPLERIAN, CARTESIAN, MU)
        mean = osc_to_mean(th, 0.0, cart)
        eqx, _ = convert_values(cart, CARTESIAN, EQUINOCTIAL_LAM, MU)
        np.testing.assert_allclose(mean.constant_values(), eqx, atol=1e-14)

    @pytest.mark.parametrize("shape", ["lone", "stacked", "float_column"])
    def test_kepler_j2_inversion_propagates_nothing(self, shape, monkeypatch):
        # the theory's mean elements are its osculating ones: the inverse
        # returns the extracted elements and never propagates
        th = KeplerJ2Theory(mu=MU)
        rows = [convert_values([9000.0 + 500 * b, 0.05 * b, 0.3, 0.1, 0.2, 0.3], KEPLERIAN,
                               CARTESIAN, MU)[0] for b in range(3)]
        ctx = AlgebraContext(2, 6)
        amp = np.diag([1.0, 1.0, 1.0, 1e-3, 1e-3, 1e-3])
        cart = {
            "lone": lambda: list(DAVector.affine(ctx, rows[0], amp)),
            "stacked": lambda: list(DAVector.stack(
                [DAVector.affine(ctx, r, amp) for r in rows])),
            "float_column": lambda: [np.array(c) for c in zip(*rows)],
        }[shape]()

        def refuse(*args):
            raise AssertionError("propagate_mean called")

        monkeypatch.setattr(KeplerJ2Theory, "propagate_mean", refuse)
        mean = osc_to_mean(th, 0.0, cart)
        for got, want in zip(mean.values, th.osc_extract(cart)):
            assert np.array_equal(getattr(got, "c", got), getattr(want, "c", want))

    def test_sgp4_roundtrip_recovers_tle_elements(self):
        rec = parse_tle(CLASSIC_TLE_1, CLASSIC_TLE_2)
        th = Sgp4Theory()
        mean_src = th.from_tle_record(rec, epoch_s=0.0)
        mean_src = MeanElements(th.name, 0.0, mean_src.values, bstar=0.0)
        cart = th.propagate_mean(mean_src, 0.0)
        rec_mean = osc_to_mean(th, 0.0, cart, eps_max=1e-12)
        got = rec_mean.constant_values()
        ref = mean_src.constant_values()
        diff = got - ref
        for j in th.angle_indices:  # extraction may land on another 2*pi branch
            diff[j] = wrap_residual(diff[j])
        diff[0] /= ref[0]
        assert np.abs(diff).max() < 1e-8

    def test_da_constant_part_equals_scalar_inversion(self):
        th = Sgp4Theory()
        vals = [6678.0, 0.01, 0.3, 0.1, 0.2, 0.3]
        cart = th.propagate_mean(MeanElements(th.name, 0.0, vals), 0.0)
        scalar_mean = osc_to_mean(th, 0.0, cart, eps_max=1e-11)
        ctx = AlgebraContext(2, 6)
        amp = np.diag([1.0, 1.0, 1.0, 1e-3, 1e-3, 1e-3])
        da_cart = DAVector.affine(ctx, cart, amp)
        da_mean = osc_to_mean(th, 0.0, list(da_cart), eps_max=1e-11)
        np.testing.assert_allclose(
            da_mean.constant_values(), scalar_mean.constant_values(), atol=1e-10
        )

    def test_nonconvergence_raises(self):
        th = Sgp4Theory()
        vals = [6678.0, 0.01, 0.3, 0.1, 0.2, 0.3]
        cart = th.propagate_mean(MeanElements(th.name, 0.0, vals), 0.0)
        with pytest.raises(RuntimeError):
            osc_to_mean(th, 0.0, cart, eps_max=1e-16, i_max=3)


class TestStackedTheories:
    """Stacked DA states propagate and invert member by member, bit for bit."""

    @staticmethod
    def assert_members_alone(stacked_values, lone_results):
        for b, lone in enumerate(lone_results):
            for p, q in zip(stacked_values, lone):
                assert np.array_equal(p.c[:, b].view(np.int64), q.c.view(np.int64))

    @pytest.mark.parametrize("theory", [Sgp4Theory(), KeplerJ2Theory(mu=MU)],
                             ids=["sgp4", "kepler_j2"])
    def test_propagation_matches_alone(self, theory):
        ctx = AlgebraContext(2, 6)
        var = [ctx.variable(j + 1) for j in range(6)]
        means = []
        for a, e in ((6678.0, 0.01), (7000.0, 0.03), (7200.0, 0.002)):
            mean_set = [a, e, 0.3, 0.1, 0.2, 0.5]
            if theory.name == "kepler_j2":
                cart, _ = convert_values(mean_set, KEPLERIAN, CARTESIAN, MU)
                mean_set, _ = convert_values(cart, CARTESIAN, EQUINOCTIAL_LAM, MU)
            scale = [1.0, 1e-4, 1e-4, 1e-4, 1e-4, 1e-4]
            means.append([v + s * x for v, s, x in zip(mean_set, scale, var)])
        stacked = MeanElements(theory.name, 0.0, [
            TaylorPoly(ctx, np.stack([m[i].c for m in means], axis=1)) for i in range(6)])
        got = theory.propagate_mean(stacked, 5400.0)
        self.assert_members_alone(
            got, [theory.propagate_mean(MeanElements(theory.name, 0.0, m), 5400.0)
                  for m in means])

    def test_sgp4_float_column_matches_rows_alone(self):
        # one row per satellite; np.sin on the column may differ from
        # math.sin on a row in the last bit
        th = Sgp4Theory()
        rows = [[6678.0, 0.01, 0.3, 0.1, 0.2, 0.5], [7000.0, 0.03, 1.2, 2.1, 4.2, 3.5]]
        got = th.propagate_mean(MeanElements(th.name, 0.0, [np.array(c) for c in zip(*rows)]),
                                5400.0)
        for b, row in enumerate(rows):
            alone = th.propagate_mean(MeanElements(th.name, 0.0, row), 5400.0)
            np.testing.assert_allclose([c[b] for c in got], alone, rtol=1e-12, atol=0.0)

    def test_inversion_members_converge_on_their_own(self):
        # these members need 14, 10, 7 and 7 passes alone; each keeps the
        # mean it converged to while the others iterate on
        th = Sgp4Theory()
        ctx = AlgebraContext(2, 6)
        states = []
        for e in (0.005, 0.01, 0.03, 0.05):
            rv, _ = convert_values([7000.0, e, 0.5, 0.3, 0.2, 0.1], KEPLERIAN, CARTESIAN, th.mu)
            states.append(DAVector.affine(ctx, rv, np.diag([1, 1, 1, 1e-3, 1e-3, 1e-3])))
        got = osc_to_mean(th, 0.0, list(DAVector.stack(states)))
        self.assert_members_alone(got.values,
                                  [osc_to_mean(th, 0.0, list(s)).values for s in states])


def converged_reference(theory, epoch_s, cart, extra=15, eps_max=1e-10, i_max=50):
    """Mean elements converged in every coefficient, for polynomial states.

    The fixed point on the whole polynomial state, run ``extra`` passes on
    after the constant part of every member has settled.  Every coefficient
    contracts at the fixed point's rate, so on these LEO states the
    nilpotent part ends converged to roundoff as well.
    """
    target = theory.osc_extract(cart)
    mean = list(target)
    settled_at = None
    for i in range(i_max + extra):
        osc = theory.osc_extract(theory.propagate_mean(MeanElements(theory.name, epoch_s, mean),
                                                       epoch_s))
        delta = [t - c for t, c in zip(target, osc)]
        for j in theory.angle_indices:
            delta[j] = wrap_residual(delta[j])
        if settled_at is None and np.linalg.norm([d.const for d in delta], axis=0).max() < eps_max:
            settled_at = i
        if settled_at is not None and i - settled_at == extra:
            return mean
        mean = [m + d for m, d in zip(mean, delta)]
    raise AssertionError("the reference fixed point did not converge")


@pytest.fixture(scope="module")
def leo_states():
    """The bundled LEO root (equatorial: z and vz are inert) and 9 of its
    depth-2 children as one stack."""
    sc, _ = load_scenario("leo")
    mu0, p0 = sc.initial_cartesian()
    root = initial_domain(mu0, p0, sc.ci)
    k1, k2 = (int(k) + 1 for k in np.argsort(root.eigvals)[::-1][:2])
    leaves = [g for c in split_domain(root, k1, sc.library, sc.ci)
              for g in split_domain(c, k2, sc.library, sc.ci)]
    return sc, root.state, [d.state for d in leaves]


class TestNewtonInversion:
    """Polynomial states invert by chord-Newton, converged in every coefficient."""

    @staticmethod
    def mean_and_reference(leo_states, shape):
        sc, root, leaves = leo_states
        th = Sgp4Theory()
        cart = list(root) if shape == "lone" else list(DAVector.stack(leaves))
        return th, cart, osc_to_mean(th, sc.epoch_s, cart), \
            converged_reference(th, sc.epoch_s, cart)

    @pytest.mark.parametrize("shape", ["lone", "stacked"])
    def test_matches_converged_reference(self, leo_states, shape):
        th, cart, got, ref = self.mean_and_reference(leo_states, shape)
        for p, q in zip(got.values, ref):
            scale = np.abs(q.c).max(axis=0)
            assert np.all(np.abs(p.c - q.c).max(axis=0) <= 1e-10 * scale)
        # i and raan have no non-constant coefficient: they are not inverted,
        # and the mean reproduces them to roundoff
        target = th.osc_extract(cart)
        osc = th.osc_extract(th.propagate_mean(got, leo_states[0].epoch_s))
        inert = [j for j, t in enumerate(target) if not t.c[1:].any()]
        assert inert == [2, 3]
        for j in inert:
            assert not got.values[j].c[1:].any()
            assert np.abs((target[j] - osc[j]).c).max() <= 1e-15

    def test_members_have_their_lone_bits(self, leo_states):
        sc, _, leaves = leo_states
        th = Sgp4Theory()
        got = osc_to_mean(th, sc.epoch_s, list(DAVector.stack(leaves)))
        TestStackedTheories.assert_members_alone(
            got.values, [osc_to_mean(th, sc.epoch_s, list(s)).values for s in leaves])

    def test_one_da_propagation_per_pass(self, leo_states):
        # at order 2: the constant part on floats, one order-1 propagation
        # for the Jacobian and one Newton pass at the map's order
        sc, root, _ = leo_states
        th = Sgp4Theory()
        orders = []
        real = th.propagate_mean

        def counting(mean, t_s):
            p = mean.values[0]
            orders.append(p.ctx.order if isinstance(p, TaylorPoly) else 0)
            return real(mean, t_s)

        th.propagate_mean = counting
        osc_to_mean(th, sc.epoch_s, list(root))
        floats = orders.count(0)
        assert floats >= 1 and orders == [0] * floats + [1, 2]
        assert (th.counts.inversion_float_passes, th.counts.lf_da_propagations) == (floats, 1)

    def test_equatorial_float_columns_invert_row_by_row(self):
        # i and raan come out of an exactly equatorial extraction as scalars
        # beside the columns; each row keeps the bits of its width-1 column
        th = Sgp4Theory()
        rows = [convert_values([a, e, 0.0, 0.0, w, m], KEPLERIAN, CARTESIAN, th.mu)[0]
                for a, e, w, m in ((6678.0, 0.01, 0.0, 0.0), (6690.0, 0.012, 0.5, 1.0),
                                   (6700.0, 0.008, 2.0, 4.0))]
        got = osc_to_mean(th, 0.0, [np.array(c) for c in zip(*rows)])
        for b, row in enumerate(rows):
            alone = osc_to_mean(th, 0.0, [np.array([v]) for v in row])
            for p, q in zip(got.values, alone.values):
                assert p.shape == (3,) and np.array_equal(p[b:b + 1].view(np.int64),
                                                         q.view(np.int64))
            np.testing.assert_allclose(np.array(got.values)[:, b],
                                       osc_to_mean(th, 0.0, list(row)).values,
                                       rtol=1e-12, atol=1e-12)


class TestLfTarget:
    def test_identity_at_t0(self):
        th = Sgp4Theory()
        vals = [6678.0, 0.01, 0.0, 0.0, 0.0, 0.0]
        cart = th.propagate_mean(MeanElements(th.name, 0.0, vals), 0.0)
        f = lf_target(th, 0.0, 0.0, CARTESIAN, MU)
        out = f(list(cart))
        np.testing.assert_allclose(out, cart, atol=1e-9)

    def test_kepler_alternate_lambda_is_linear_drift(self):
        th = KeplerJ2Theory(mu=MU, j2=0.0)
        kep = [35000.0, 0.2, 0.0, 0.0, 0.0, 0.0]
        cart, _ = convert_values(kep, KEPLERIAN, CARTESIAN, MU)
        alt, _ = convert_values(cart, CARTESIAN, ALTERNATE_LAM, MU)
        period = 2 * math.pi * math.sqrt(35000.0**3 / MU)
        f = lf_target(th, 0.0, 2 * period, ALTERNATE_LAM, MU)

        ctx = AlgebraContext(2, 6)
        amp = np.diag([1e-9, 1e-4, 1e-4, 1e-6, 1e-6, 1e-3])
        state = DAVector.affine(ctx, alt, amp)
        out = f(state)
        n = alt[0]
        # n, f, g, h, k polynomials unchanged; lam incremented by n*(t-t0)
        for j in range(5):
            np.testing.assert_allclose(out[j].c, state[j].c, rtol=0, atol=1e-12)
        dlam = out[5] - state[5]
        nil = dlam.c.copy()
        # constant part advances by n*dt modulo full turns; the n-deviation
        # couples in through dt so the dx1 coefficient grows by amp*dt
        drift = nil[0] - n * 2 * period
        assert abs((drift + math.pi) % (2 * math.pi) - math.pi) < 1e-9
        expected_dx1 = 2 * period * amp[0, 0]
        got_dx1 = out[5].coeffs().get((1, 0, 0, 0, 0, 0), 0.0) - alt[0] * 0.0
        assert got_dx1 - state[5].coeffs().get((1, 0, 0, 0, 0, 0), 0.0) == pytest.approx(
            expected_dx1, rel=1e-9
        )

    def test_leo_sgp4_constant_part_matches_pointwise(self):
        th = Sgp4Theory()
        vals = [6678.0, 0.01, 0.0, 0.0, 0.0, 0.0]
        cart = np.array(th.propagate_mean(MeanElements(th.name, 0.0, vals), 0.0))
        period = 2 * math.pi * math.sqrt(6678.0**3 / MU)
        f = lf_target(th, 0.0, 2 * period, CARTESIAN, MU)
        scalar_out = np.array(f(list(cart)))
        ctx = AlgebraContext(2, 6)
        amp = np.diag([1.3, 0.5, 0.0, 2.5e-3, 5e-3, 0.0])
        state = DAVector.affine(ctx, cart, amp)
        da_out = f(state)
        np.testing.assert_allclose(da_out.constant_part(), scalar_out, atol=1e-9)


def test_timeutil_epoch_values():
    assert jday_from_civil(2000, 1, 1, 12, 0, 0.0) == pytest.approx(2451545.0)
    jd = jday_from_iso("2021-01-01T00:00:00")
    assert jd == pytest.approx(2459215.5)
    assert seconds_since_j2000(jd) == pytest.approx((2459215.5 - 2451545.0) * 86400.0)
