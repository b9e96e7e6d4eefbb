"""A one-row force evaluation on Python floats against its row of an array call.

Each force term has a branch for one position given as floats, which the
one-row right-hand side (``highfi.make_cartesian_rhs``) takes.  These tests
hold every branch to the bits of the same row in a column call.
"""

import numpy as np
import pytest

from orbuq import forces, highfi
from orbuq.forces import ForceConfig, SpacecraftParams, acceleration, sun_position
from orbuq.highfi import make_cartesian_rhs
from orbuq.timeutil import jday_from_iso, seconds_since_j2000

EPOCH = seconds_since_j2000(jday_from_iso("2021-01-01T00:00:00"))
SC = SpacecraftParams()
ALL_TERMS = ForceConfig(drag=True, srp=True)


def _floats(cols, i):
    return [float(c[i]) for c in cols]


def _assert_rows_equal(col, one_row, i):
    """The float result of row ``i`` has the bits of column ``i`` of ``col``."""
    np.testing.assert_array_equal(np.array(one_row, dtype=float),
                                  np.array([c[i] for c in col], dtype=float))


def _gravity_positions(n, seed):
    """Positions from LEO to GEO radius, the first 50 polar, the next 50 equatorial."""
    rng = np.random.default_rng(seed)
    r = rng.normal(size=(3, n))
    r *= rng.uniform(6600.0, 42500.0, n) / np.linalg.norm(r, axis=0)
    r[:2, :50] = 0.0
    r[2, 50:100] = 0.0
    return list(r), EPOCH + rng.uniform(0.0, 86400.0, n)


def _leo_states(n, seed, alt_km=(150.0, 950.0)):
    """LEO states at altitudes in ``alt_km`` on near-circular orbits of any plane."""
    rng = np.random.default_rng(seed)
    r = rng.normal(size=(3, n))
    r *= (forces.RE_KM + rng.uniform(*alt_km, n)) / np.linalg.norm(r, axis=0)
    u = rng.normal(size=(3, n))
    u -= (u * r).sum(axis=0) / (r * r).sum(axis=0) * r
    v = u / np.linalg.norm(u, axis=0) * np.sqrt(ALL_TERMS.mu / np.linalg.norm(r, axis=0))
    return list(r), list(v), EPOCH + rng.uniform(0.0, 3 * 86400.0, n)


class TestGravity:
    @pytest.mark.parametrize("cfg", [ForceConfig(), ForceConfig(degree=6, order=3)],
                             ids=["8x8", "6x3"])
    def test_float_rows_equal_column_rows(self, cfg):
        r3, t = _gravity_positions(2048, 21)
        col = forces.gravity_acceleration(r3, cfg, t)
        for i in range(t.size):
            _assert_rows_equal(col, forces.gravity_acceleration(_floats(r3, i), cfg,
                                                                float(t[i])), i)


class TestSun:
    def test_float_times_equal_column_rows(self):
        t = EPOCH + np.random.default_rng(22).uniform(-400.0 * 86400.0, 400.0 * 86400.0, 2000)
        col = sun_position(t)
        for i in range(t.size):
            np.testing.assert_array_equal(sun_position(float(t[i])), col[i])


class TestDrag:
    def test_rows_in_every_layer_equal_column_rows(self):
        # 100 to 1,000 km spans every Harris-Priester layer; the bulge's
        # power must give a float row its array loop's bits
        r3, v3, t = _leo_states(2000, 23, alt_km=(100.5, 999.5))
        sun = sun_position(t)
        col = forces.drag_acceleration(sun, r3, v3, ALL_TERMS, SC)
        alt = np.linalg.norm(np.array(r3), axis=0) - forces.RE_KM
        layers = np.searchsorted(forces._HP_H, alt, side="right")
        assert np.unique(layers).size == forces._HP_H.size - 1
        for i in range(t.size):
            one = forces.drag_acceleration(sun_position(float(t[i])), _floats(r3, i),
                                           _floats(v3, i), ALL_TERMS, SC)
            _assert_rows_equal(col, one, i)

    def test_above_the_table_is_zero(self):
        r3, v3 = [forces.RE_KM + 1000.5, 0.0, 0.0], [0.0, 7.3, 0.5]
        a = forces.drag_acceleration(sun_position(EPOCH), r3, v3, ALL_TERMS, SC)
        assert a == [0.0, 0.0, 0.0] and all(type(x) is float for x in a)

    def test_below_the_table_raises(self):
        r3, v3 = [forces.RE_KM + 99.0, 0.0, 0.0], [0.0, 7.9, 0.0]
        with pytest.raises(ValueError, match="floor"):
            forces.drag_acceleration(sun_position(EPOCH), r3, v3, ALL_TERMS, SC)


class TestSrp:
    def test_sunlit_penumbra_and_umbra_rows(self):
        # a ring of positions at 7,000 km through the Earth's shadow axis
        s = sun_position(EPOCH)
        u = s / np.linalg.norm(s)
        e = np.cross(u, [0.0, 0.0, 1.0])
        e /= np.linalg.norm(e)
        ang = np.linspace(0.0, 1.5, 30001)
        r = 7000.0 * (-np.cos(ang)[:, None] * u + np.sin(ang)[:, None] * e)
        r3 = list(r.T)
        t = np.full(ang.size, EPOCH)
        sun = sun_position(t)
        nu = forces.shadow_factor(r3, sun)
        col = forces.srp_acceleration(sun, r3, ALL_TERMS, SC)
        picks = [np.flatnonzero(nu == 0.0)[-1], np.flatnonzero(nu == 1.0)[0]]
        picks += list(np.flatnonzero((nu > 0.0) & (nu < 1.0)))
        assert len(picks) > 3
        for i in picks:
            row = _floats(r3, i)
            assert forces.shadow_factor(row, sun_position(EPOCH)) == nu[i]
            _assert_rows_equal(col, forces.srp_acceleration(sun_position(EPOCH), row,
                                                            ALL_TERMS, SC), i)


class TestAcceleration:
    def test_one_row_with_drag_and_srp_equals_its_batch_row(self):
        r3, v3, t = _leo_states(4096, 24)
        col = acceleration(t, r3, v3, ALL_TERMS, SC)
        for i in range(2048):
            _assert_rows_equal(col, acceleration(float(t[i]), _floats(r3, i),
                                                 _floats(v3, i), ALL_TERMS, SC), i)

    def test_position_inside_the_earth_raises(self):
        r3, v3 = [5000.0, 3000.0, 1000.0], [0.0, 7.5, 0.0]
        with pytest.raises(ValueError, match="inside the Earth"):
            acceleration(EPOCH, r3, v3, ALL_TERMS, SC)
        with pytest.raises(ValueError, match="inside the Earth"):
            acceleration(np.full(2, EPOCH), [np.array([c, 7000.0]) for c in r3],
                         [np.array([c, c]) for c in v3], ALL_TERMS, SC)

    def test_one_row_rhs_calls_each_traced_term_once(self, monkeypatch):
        # orbbench's tracer wraps these names; a one-row call must still go
        # through each of them, with one Sun position per acceleration
        calls = {}

        def counted(owner, name):
            fn = getattr(owner, name)

            def wrapper(*args, **kwargs):
                calls[name] = calls.get(name, 0) + 1
                return fn(*args, **kwargs)

            monkeypatch.setattr(owner, name, wrapper)

        counted(highfi, "acceleration")
        for name in ("gravity_acceleration", "sun_position", "moon_position",
                     "drag_acceleration", "srp_acceleration"):
            counted(forces, name)
        rhs = make_cartesian_rhs(ALL_TERMS, SC)
        y = np.array([[6678.0, 10.0, 5.0, 0.01, 7.72, 0.3]])
        out = rhs(np.array([EPOCH]), y)
        assert calls == {"acceleration": 1, "gravity_acceleration": 1, "sun_position": 1,
                         "moon_position": 1, "drag_acceleration": 1, "srp_acceleration": 1}
        monkeypatch.undo()
        np.testing.assert_array_equal(out, make_cartesian_rhs(ALL_TERMS, SC)(
            np.array([EPOCH]), y))
