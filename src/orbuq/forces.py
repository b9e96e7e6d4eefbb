"""Perturbing force models for the high-fidelity propagator.

Central gravity with a normalized spherical-harmonics field (Cunningham V/W
recursion, Earth-fixed via a GMST spin), low-precision Sun/Moon third-body
terms, the modified Harris-Priester static atmosphere with a diurnal-bulge
exponent tied to the orbit inclination, and a cannonball SRP model with a
dual-cone umbra/penumbra shadow factor (linear penumbra ramp).  The Sun is
analytical.  The Moon's analytical series is fitted on one-day Chebyshev
granules, each built the first time a time in its day is asked for, and
reproduces the series within 1e-12 of the lunar distance.

Every force takes its position and velocity as three components, each a
plain float, a numpy column of shape (N,) for a sample batch, or a Taylor
polynomial.  The third-body, drag and SRP terms are written component by
component, so floats run them as Python arithmetic.  Gravity fills the
Cunningham table one degree at a time, each order as one array slice, and
sums it with one fixed linear form (``_HarmonicForm``); the table is kept
scaled by per-slot constants that the form absorbs, which takes two scaling
passes out of each degree's step.  A polynomial state goes through that code
as a one-element object column.  One position on floats (the one-row
right-hand side) has its own branch wherever the column code would call
numpy: the table and the form as Python loops, ``bisect`` for the density
layer, ``min``/``max`` for clipping, and numpy's transcendental functions
called on floats.  Each branch repeats the column code's operations in their
order, so a float row has the bits of its row in a batch.  Time is always a
plain float (or float array), measured in seconds since J2000;
value-dependent table lookups and shadow branches act on constant parts for
polynomial states.

``acceleration`` takes |r|, the Sun position, its distance and the
satellite-to-Sun vector and length once per call (``_SunGeometry``) and
hands them to the Sun's third-body term, drag and SRP; called on their own,
those terms build the same geometry from their arguments, with the same
bits.

Units: km, kg, s; accelerations in km/s^2.  Spacecraft area is in m^2.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .generic import cons, cross3, is_poly, norm3, power, sqrt
from .timeutil import DAY_S, julian_centuries

__all__ = [
    "SpacecraftParams", "ForceConfig", "GravityField", "load_gravity_field",
    "acceleration", "sun_position", "moon_position", "shadow_factor",
    "harris_priester_density", "gmst_angle",
]

MU_SUN = 1.32712440018e11     # km^3/s^2
MU_MOON = 4902.800066
R_SUN_KM = 696000.0
AU_KM = 1.495978707e8
RE_KM = 6378.1363             # Earth equatorial radius
SRP_P0 = 4.56e-6              # N/m^2 at 1 AU
OMEGA_EARTH = 7.292115146706979e-5  # rad/s
_ARCSEC = math.pi / (180.0 * 3600.0)
_DEG = math.pi / 180.0
_COS_EPS = math.cos(23.43929111 * _DEG)  # obliquity of the ecliptic
_SIN_EPS = math.sin(23.43929111 * _DEG)


@dataclass(frozen=True)
class SpacecraftParams:
    """Ballistic properties: mass (kg), cross section (m^2), drag/SRP coefficients."""

    mass: float = 500.0
    area: float = 1.0
    cd: float = 2.0
    cr: float = 1.5

    def __post_init__(self):
        for name in ("mass", "area", "cd", "cr"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")


@dataclass(frozen=True)
class ForceConfig:
    """Force-model selection for the numerical propagator."""

    re_km = RE_KM  # a class constant, not a config field
    mu: float = 398600.4355
    degree: int = 8
    order: int = 8
    third_body_sun: bool = True
    third_body_moon: bool = True
    drag: bool = False
    srp: bool = True
    gravity_path: str | None = None           # None: bundled 8x8 field

    def __post_init__(self):
        if self.degree < 0 or self.order < 0 or self.order > self.degree:
            raise ValueError("need degree >= order >= 0")

    @classmethod
    def two_body(cls, mu: float = 398600.4355) -> "ForceConfig":
        return cls(mu=mu, degree=0, order=0, third_body_sun=False,
                   third_body_moon=False, drag=False, srp=False)


class GravityField:
    """Unnormalized C/S coefficient tables ready for the V/W recursion."""

    def __init__(self, cbar: np.ndarray, sbar: np.ndarray, nmax: int):
        self.nmax = nmax
        self.c = np.zeros((nmax + 1, nmax + 1))
        self.s = np.zeros((nmax + 1, nmax + 1))
        self.c[0, 0] = 1.0
        for n in range(2, nmax + 1):
            for m in range(0, n + 1):
                norm = math.sqrt(
                    (2 * n + 1)
                    * (1.0 if m == 0 else 2.0)
                    * math.factorial(n - m)
                    / math.factorial(n + m)
                )
                self.c[n, m] = norm * cbar[n, m]
                self.s[n, m] = norm * sbar[n, m]

    def truncated(self, degree: int, order: int) -> "GravityField":
        out = GravityField.__new__(GravityField)
        out.nmax = degree
        out.c = self.c[: degree + 1, : degree + 1].copy()
        out.s = self.s[: degree + 1, : degree + 1].copy()
        for n in range(degree + 1):
            for m in range(n + 1):
                if m > order:
                    out.c[n, m] = 0.0
                    out.s[n, m] = 0.0
        return out


def load_gravity_field(path: str | Path | None = None, nmax: int = 8) -> GravityField:
    """Read a 'degree order Cbar Sbar' text file; default is the bundled field."""
    if path is None:
        source = resources.files("orbuq.data").joinpath("egm2008_8x8.txt")
        text = source.read_text()
    else:
        text = Path(path).read_text()
    cbar = np.zeros((nmax + 1, nmax + 1))
    sbar = np.zeros((nmax + 1, nmax + 1))
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        n, m = int(parts[0]), int(parts[1])
        if n > nmax:
            continue
        cbar[n, m] = float(parts[2])
        sbar[n, m] = float(parts[3])
    return GravityField(cbar, sbar, nmax)


def gmst_angle(t_s):
    """Greenwich mean sidereal time (rad) from seconds since J2000 (UT1=TDB here)."""
    tut1 = t_s / (DAY_S * 36525.0)
    sec = (
        67310.54841
        + (876600.0 * 3600.0 + 8640184.812866) * tut1
        + 0.093104 * tut1 * tut1
        - 6.2e-6 * tut1 * tut1 * tut1
    )
    return np.mod(sec * (math.pi / 43200.0) / 60.0, 2.0 * math.pi)


class _HarmonicForm:
    """Cunningham V/W table of one field and the linear form of its acceleration.

    ``V[n, m]`` and ``W[n, m]`` (Montenbruck & Gill, *Satellite Orbits*,
    §3.2) obey, below the diagonal,

        V[n, m] = a[n, m] z0 V[n-1, m] - b[n, m] rho V[n-2, m]   (W alike),

    with a = (2n-1)/(n-m) and b = (n+m-1)/(n-m), and on it

        V[n, n] = (2n-1) (x0 V[n-1, n-1] - y0 W[n-1, n-1])
        W[n, n] = (2n-1) (x0 W[n-1, n-1] + y0 V[n-1, n-1]).

    The table holds V/s and W/s, scaled by s[n, m] = a[n, m] s[n-1, m] below
    the diagonal and s[n, n] = (2n-1) s[n-1, n-1] on it (s[0, 0] = 1).  The
    factors a and 2n-1 then drop out, and one degree fills as

        V/s[n, m] = z0 V/s[n-1, m] - bs[n, m] rho V/s[n-2, m],
        bs[n, m] = b[n, m] / (a[n, m] a[n-1, m]) = (n+m-1)(n-m-1) / ((2n-1)(2n-3)),

    every order below the diagonal as one slice, then the diagonal from
    degree n-1's with no factor.  The table is packed by degree: (2, P)
    entries, V then W, degree n at ``n(n+1)/2 + m``.  The Earth-fixed
    acceleration is the fixed linear form ``coef`` (2P, 3) of the flattened
    table, with s folded into it.
    """

    def __init__(self, fld: GravityField, mu: float):
        nmax = fld.nmax
        nv = nmax + 1  # the sums read degree n+1
        at = [n * (n + 1) // 2 for n in range(nv + 2)]
        self.size = at[nv + 1]
        # s as exact integer ratios, rounded once when folded into the form
        num, den = [1] * self.size, [1] * self.size
        bs = np.zeros(self.size)
        for n in range(1, nv + 1):
            for m in range(n):
                num[at[n] + m] = (2 * n - 1) * num[at[n - 1] + m]
                den[at[n] + m] = (n - m) * den[at[n - 1] + m]
                if m <= n - 2:
                    bs[at[n] + m] = (n + m - 1) * (n - m - 1) / ((2 * n - 1) * (2 * n - 3))
            num[at[n] + n] = (2 * n - 1) * num[at[n - 1] + n - 1]
            den[at[n] + n] = den[at[n - 1] + n - 1]
        # per-degree steps for columns, whose slot constants broadcast along
        # the rows, and for one position on Python floats, whose orders 0 ..
        # n-2 are each (slot, slot of degree n-1, slot of degree n-2, bs)
        self.steps, self.float_steps = [], []
        for n in range(1, nv + 1):
            below = slice(at[n], at[n] + n)         # orders 0 .. n-1 of degree n
            prev = slice(at[n - 1], at[n - 1] + n)  # the same orders of degree n-1
            low = slice(at[n], at[n] + n - 1)       # orders that also read degree n-2
            prev2 = slice(at[n - 2], at[n - 2] + n - 1) if n >= 2 else None
            self.steps.append((below, prev, low, prev2, bs[low][:, None], at[n] + n, at[n] - 1))
            self.float_steps.append((
                [(at[n] + m, at[n - 1] + m, at[n - 2] + m, bs[at[n] + m].item())
                 for m in range(n - 1)], at[n] - 1, at[n] + n))

        form = np.zeros((2, self.size, 3))
        v, w = form
        for deg in range(nmax + 1):
            row = at[deg + 1]
            for order in range(deg + 1):
                c, s = fld.c[deg, order], fld.s[deg, order]
                if order == 0:
                    v[row + 1, 0] -= c
                    w[row + 1, 1] -= c
                else:
                    fac = 0.5 * (deg - order + 2) * (deg - order + 1)
                    up, down = row + order + 1, row + order - 1
                    v[up, 0] -= 0.5 * c
                    w[up, 0] -= 0.5 * s
                    v[down, 0] += fac * c
                    w[down, 0] += fac * s
                    w[up, 1] -= 0.5 * c
                    v[up, 1] += 0.5 * s
                    w[down, 1] -= fac * c
                    v[down, 1] += fac * s
                v[row + order, 2] -= (deg - order + 1) * c
                w[row + order, 2] -= (deg - order + 1) * s
        form *= np.array([p / q for p, q in zip(num, den)])[:, None]
        self.coef = form.reshape(-1, 3) * (mu / (RE_KM * RE_KM))
        # the form's nonzero terms per component, in slot order: einsum's sum
        self.terms = [[(j, c) for j, c in enumerate(col) if c != 0.0]
                      for col in self.coef.T.tolist()]

    def __call__(self, xe, ye, ze):
        """Earth-fixed acceleration of one position given as Python floats (a
        list of three), or of float or object columns (shape (3, N))."""
        if isinstance(xe, float):
            return self._floats(xe, ye, ze)
        re = RE_KM
        r2 = xe * xe + ye * ye + ze * ze
        rinv = 1.0 / np.sqrt(r2)
        sr = re * (rinv * rinv)
        x0, y0, z0 = sr * xe, sr * ye, sr * ze
        rho = re * sr
        y0s = np.array([-y0, y0])  # W enters V's diagonal negated
        tab = np.empty((2, self.size) + xe.shape, dtype=np.result_type(x0))
        tab[0, 0] = re * rinv
        tab[1, 0] = 0.0
        for below, prev, low, prev2, bs, diag, last in self.steps:
            np.multiply(z0, tab[:, prev], out=tab[:, below])
            if prev2 is not None:
                u = rho * tab[:, prev2]
                u *= bs
                tab[:, low] -= u
            d = tab[:, diag]
            np.multiply(x0, tab[:, last], out=d)
            d += y0s * tab[::-1, last]
        # without ``optimize`` einsum sums the slots in index order, so a row's
        # bits do not depend on the batch width (BLAS would block the sum)
        return np.einsum("ji,j...->i...", self.coef, tab.reshape(2 * self.size, -1))

    def _floats(self, xe, ye, ze):
        """``__call__`` on one position, with the column path's operations in
        its order, so the result has the bits of that position's row."""
        re = RE_KM
        rinv = 1.0 / math.sqrt(xe * xe + ye * ye + ze * ze)
        sr = re * (rinv * rinv)
        x0, y0, z0 = sr * xe, sr * ye, sr * ze
        rho = re * sr
        v, w = [0.0] * self.size, [0.0] * self.size
        v[0] = re * rinv
        for low, last, diag in self.float_steps:
            for k, k1, k2, bs in low:
                v[k] = z0 * v[k1] - rho * v[k2] * bs
                w[k] = z0 * w[k1] - rho * w[k2] * bs
            a, b = v[last], w[last]
            v[diag - 1], w[diag - 1] = z0 * a, z0 * b
            v[diag], w[diag] = x0 * a - y0 * b, x0 * b + y0 * a
        tab = v + w
        out = []
        for terms in self.terms:
            acc = 0.0
            for j, c in terms:
                acc += c * tab[j]
            out.append(acc)
        return out


_FORM_CACHE: dict[tuple, _HarmonicForm] = {}
_BLOCK = 1024  # most rows per V/W table: bounds the work set of large batches


def _form_for(cfg: ForceConfig) -> _HarmonicForm:
    key = (cfg.gravity_path, cfg.degree, cfg.order, cfg.mu)
    if key not in _FORM_CACHE:
        base = load_gravity_field(cfg.gravity_path, nmax=max(cfg.degree, 1))
        _FORM_CACHE[key] = _HarmonicForm(base.truncated(cfg.degree, cfg.order), cfg.mu)
    return _FORM_CACHE[key]


def gravity_acceleration(r3, cfg: ForceConfig, t_s):
    """Central plus harmonic gravity in the inertial frame.

    Positions rotate into the Earth-fixed frame by the GMST spin (no polar
    motion or nutation), the V/W table of ``_HarmonicForm`` runs up to
    degree+1, and the resulting acceleration rotates back.  Components are
    floats, (N,) columns, or polynomials.  A float position runs on Python
    floats throughout; a polynomial state is evaluated as a one-element
    object column, so that every operation on it stays elementwise.
    Columns longer than ``_BLOCK`` run in even blocks, none of width one.
    """
    if cfg.degree == 0:
        rmag = norm3(r3)
        fac = -cfg.mu / (rmag * rmag * rmag)
        return [fac * r3[0], fac * r3[1], fac * r3[2]]

    form = _form_for(cfg)
    theta = gmst_angle(t_s)
    ct, st = np.cos(theta), np.sin(theta)
    if isinstance(r3[0], float):
        ct, st, (x, y, z) = float(ct), float(st), (float(c) for c in r3)
        ax, ay, az = form(ct * x + st * y, -st * x + ct * y, z)
        return [ct * ax - st * ay, st * ax + ct * ay, az]

    pos = [ct * r3[0] + st * r3[1], -st * r3[0] + ct * r3[1], r3[2]]
    poly = any(is_poly(x) for x in pos)
    if poly:
        pos = [np.array([x], dtype=object) for x in pos]
    blocks = -(-np.size(pos[0]) // _BLOCK)
    if blocks <= 1:
        ax, ay, az = form(*pos)
    else:
        cols = (np.array_split(c, blocks) for c in pos)
        ax, ay, az = np.concatenate([form(*b) for b in zip(*cols)], axis=-1)
    if poly:
        ax, ay, az = ax[0], ay[0], az[0]
    return [ct * ax - st * ay, st * ax + ct * ay, az]


# -- analytical Sun and Moon -------------------------------------------------------


def sun_position(t_s):
    """Low-precision analytical solar position (km, equatorial inertial frame).

    The terms in 2M come from sin M and cos M (sin 2M = 2 sin M cos M,
    cos 2M = 1 - 2 sin^2 M): four sines and cosines per time.
    """
    t = julian_centuries(t_s)
    m = (357.5256 + 35999.049 * t) * _DEG
    sm, cm = np.sin(m), np.cos(m)
    lam = (282.9400) * _DEG + m + (6892.0 * sm + 72.0 * (2.0 * sm * cm)) * _ARCSEC
    r = (149.619 - 2.499 * cm - 0.021 * (1.0 - 2.0 * sm * sm)) * 1.0e6
    x = r * np.cos(lam)
    ry = r * np.sin(lam)
    if isinstance(t_s, float):
        return np.array([x, ry * _COS_EPS, ry * _SIN_EPS])
    return np.stack([x, ry * _COS_EPS, ry * _SIN_EPS], axis=-1)


def _moon_series(t_s):
    """Low-precision analytical lunar position (km, equatorial inertial frame).

    Montenbruck & Gill, *Satellite Orbits*, ch. 3: 37 sines and cosines of
    the mean arguments, for a float or an (N,) float column of times.
    """
    t = julian_centuries(t_s)
    l0 = (218.31617 + 481267.88088 * t) * _DEG
    l = (134.96292 + 477198.86753 * t) * _DEG
    lp = (357.52543 + 35999.04944 * t) * _DEG
    f = (93.27283 + 483202.01873 * t) * _DEG
    d = (297.85027 + 445267.11135 * t) * _DEG

    lam = l0 + _ARCSEC * (
        22640.0 * np.sin(l)
        + 769.0 * np.sin(2 * l)
        - 4586.0 * np.sin(l - 2 * d)
        + 2370.0 * np.sin(2 * d)
        - 668.0 * np.sin(lp)
        - 412.0 * np.sin(2 * f)
        - 212.0 * np.sin(2 * l - 2 * d)
        - 206.0 * np.sin(l + lp - 2 * d)
        + 192.0 * np.sin(l + 2 * d)
        - 165.0 * np.sin(lp - 2 * d)
        + 148.0 * np.sin(l - lp)
        - 125.0 * np.sin(d)
        - 110.0 * np.sin(l + lp)
        - 55.0 * np.sin(2 * f - 2 * d)
    )
    beta = _ARCSEC * (
        18520.0 * np.sin(f + lam - l0 + _ARCSEC * (412.0 * np.sin(2 * f) + 541.0 * np.sin(lp)))
        - 526.0 * np.sin(f - 2 * d)
        + 44.0 * np.sin(l + f - 2 * d)
        - 31.0 * np.sin(-l + f - 2 * d)
        - 25.0 * np.sin(-2 * l + f)
        - 23.0 * np.sin(lp + f - 2 * d)
        + 21.0 * np.sin(-l + f)
        + 11.0 * np.sin(-lp + f - 2 * d)
    )
    r = (
        385000.0
        - 20905.0 * np.cos(l)
        - 3699.0 * np.cos(2 * d - l)
        - 2956.0 * np.cos(2 * d)
        - 570.0 * np.cos(2 * l)
        + 246.0 * np.cos(2 * l - 2 * d)
        - 205.0 * np.cos(lp - 2 * d)
        - 171.0 * np.cos(l + 2 * d)
        - 152.0 * np.cos(l + lp - 2 * d)
    )
    eps = 23.43929111 * _DEG
    ce, se = math.cos(eps), math.sin(eps)
    cb = np.cos(beta)
    xec = r * np.cos(lam) * cb
    yec = r * np.sin(lam) * cb
    zec = r * np.sin(beta)
    return np.stack(
        np.broadcast_arrays(xec, ce * yec - se * zec, se * yec + ce * zec), axis=-1
    )


_MOON_DEGREE = 10  # Chebyshev degree of a one-day granule
_MOON_NODES = 32   # series samples per granule, at the Chebyshev nodes of its day
# whole-day index k -> the granule of [k DAY_S, (k+1) DAY_S): its coefficients
# as a (degree+1, 3, 1) array for columns and as nested lists for float times
_MOON_GRANULES: dict[int, tuple[np.ndarray, list]] = {}


def _moon_granule(k: int):
    """The Chebyshev coefficients of day ``k``, fitted to the series on first use.

    The series is sampled at the ``_MOON_NODES`` Chebyshev nodes of the day;
    by their discrete orthogonality the first ``_MOON_DEGREE + 1``
    coefficients are the least-squares fit on those nodes.
    """
    granule = _MOON_GRANULES.get(k)
    if granule is None:
        ang = (np.arange(_MOON_NODES) + 0.5) * (math.pi / _MOON_NODES)
        t = k * DAY_S + (np.cos(ang) + 1.0) * (0.5 * DAY_S)
        basis = np.cos(np.outer(np.arange(_MOON_DEGREE + 1), ang))
        # einsum without ``optimize`` sums in index order, free of BLAS blocking
        coef = np.einsum("jn,nc->jc", basis, _moon_series(t)) * (2.0 / _MOON_NODES)
        coef[0] *= 0.5
        granule = _MOON_GRANULES[k] = (coef[:, :, None].copy(), coef.tolist())
    return granule


def _clenshaw(x, coef):
    """Chebyshev sum of ``coef`` (degree+1, 3, 1) at the (N,) column ``x``: (3, N)."""
    x2 = x + x
    b1, b2 = coef[-1], 0.0
    for c in coef[-2:0:-1]:
        b = x2 * b1
        b -= b2
        b += c
        b1, b2 = b, b1
    b = x * b1
    b -= b2
    b += coef[0]
    return b


def moon_position(t_s):
    """Lunar position (km, equatorial inertial frame) at a float or an (N,) column of times.

    ``_moon_series`` fitted on one-day Chebyshev granules of degree
    ``_MOON_DEGREE``, built on first use of each day (nothing at import).
    The fit stays within 1e-12 of the series relative to the Moon's
    distance: 5.7e-13 at most over 2021, where the series' own rounding
    dominates, and 1.5e-15 near J2000.

    Each time picks its day ``k = floor(t / DAY_S)`` and maps to
    ``x = (t - k DAY_S) 2 / DAY_S - 1``; the Clenshaw recurrence then takes
    one multiply, subtract and add per term and component.  A float time
    runs that recurrence on Python floats, a column on numpy rows, grouped
    by day, with the same IEEE operations, so a row's bits do not depend on
    its batch.
    """
    if np.ndim(t_s) == 0:
        t = float(t_s)
        k = math.floor(t / DAY_S)
        x = (t - k * DAY_S) * (2.0 / DAY_S) - 1.0
        coef = _moon_granule(k)[1]
        x2 = x + x
        (ax, ay, az), bx, by, bz = coef[-1], 0.0, 0.0, 0.0
        for cx, cy, cz in coef[-2:0:-1]:
            ax, bx = x2 * ax - bx + cx, ax
            ay, by = x2 * ay - by + cy, ay
            az, bz = x2 * az - bz + cz, az
        cx, cy, cz = coef[0]
        return np.array([x * ax - bx + cx, x * ay - by + cy, x * az - bz + cz])
    t = np.asarray(t_s, dtype=np.float64)
    k = np.floor(t / DAY_S)
    x = (t - k * DAY_S) * (2.0 / DAY_S) - 1.0
    if k.min() == k.max():
        return _clenshaw(x, _moon_granule(int(k[0]))[0]).T
    out = np.empty((3,) + t.shape)
    for day in np.unique(k):
        rows = k == day
        out[:, rows] = _clenshaw(x[rows], _moon_granule(int(day))[0])
    return out.T


class _SunGeometry(NamedTuple):
    """What the Sun-dependent terms share within one force evaluation."""

    rmag: object   # |r|
    s: list        # Sun position components
    smag: object   # |s|
    d: list        # satellite -> Sun vector, s - r
    dmag: object   # |d|


def _body_geometry(r3, body_pos):
    """A body's position components and distance, and the satellite -> body vector and length."""
    if body_pos.ndim == 1:  # one float time
        s = body_pos.tolist()
    else:
        s = [body_pos[:, 0], body_pos[:, 1], body_pos[:, 2]]
    d = [s[0] - r3[0], s[1] - r3[1], s[2] - r3[2]]
    return s, norm3(s), d, norm3(d)


def _sun_geometry(r3, sun, rmag=None) -> _SunGeometry:
    return _SunGeometry(norm3(r3) if rmag is None else rmag, *_body_geometry(r3, sun))


def _tidal(mu_body, s, smag, d, dmag):
    d3 = dmag * dmag * dmag
    s3 = smag * smag * smag
    return [mu_body * (d[j] / d3 - s[j] / s3) for j in range(3)]


def third_body_acceleration(r3, body_pos, mu_body):
    """Tidal (direct minus indirect) point-mass acceleration of a third body."""
    return _tidal(mu_body, *_body_geometry(r3, body_pos))


# -- Harris-Priester atmosphere ----------------------------------------------------

# mean solar-activity coefficients: altitude (km), min and max density (g/km^3)
_HP_TABLE = np.array([
    [100.0, 497400.0, 497400.0], [120.0, 24900.0, 24900.0],
    [130.0, 8377.0, 8710.0], [140.0, 3899.0, 4059.0],
    [150.0, 2122.0, 2215.0], [160.0, 1263.0, 1344.0],
    [170.0, 800.8, 875.8], [180.0, 528.3, 601.0],
    [190.0, 361.7, 429.7], [200.0, 255.7, 316.2],
    [210.0, 183.9, 239.6], [220.0, 134.1, 185.3],
    [230.0, 99.49, 145.5], [240.0, 74.88, 115.7],
    [250.0, 57.09, 93.08], [260.0, 44.03, 75.55],
    [270.0, 34.30, 61.82], [280.0, 26.97, 50.95],
    [290.0, 21.39, 42.26], [300.0, 17.08, 35.26],
    [320.0, 10.99, 25.11], [340.0, 7.214, 18.19],
    [360.0, 4.824, 13.37], [380.0, 3.274, 9.955],
    [400.0, 2.249, 7.492], [420.0, 1.558, 5.684],
    [440.0, 1.091, 4.355], [460.0, 0.7701, 3.362],
    [480.0, 0.5474, 2.612], [500.0, 0.3916, 2.042],
    [520.0, 0.2819, 1.605], [540.0, 0.2042, 1.267],
    [560.0, 0.1488, 1.005], [580.0, 0.1092, 0.7997],
    [600.0, 0.0807, 0.639], [620.0, 0.06012, 0.5123],
    [640.0, 0.04519, 0.4121], [660.0, 0.0343, 0.3325],
    [680.0, 0.02632, 0.2691], [700.0, 0.02043, 0.2185],
    [720.0, 0.01607, 0.1779], [740.0, 0.01281, 0.1452],
    [760.0, 0.01036, 0.119], [780.0, 0.008496, 0.09776],
    [800.0, 0.007069, 0.08059], [840.0, 0.00468, 0.05741],
    [880.0, 0.0032, 0.0421], [920.0, 0.00221, 0.0313],
    [960.0, 0.00156, 0.0236], [1000.0, 0.00115, 0.0181],
])


_HP_H, _HP_MIN, _HP_MAX = (np.ascontiguousarray(col) for col in _HP_TABLE.T)
# each layer's scale heights (km) of the min and max density profiles
_HP_HS_MIN = (_HP_H[:-1] - _HP_H[1:]) / np.log(_HP_MIN[1:] / _HP_MIN[:-1])
_HP_HS_MAX = (_HP_H[:-1] - _HP_H[1:]) / np.log(_HP_MAX[1:] / _HP_MAX[:-1])
# the same as Python floats: each layer's base row and scale heights, and the
# altitudes between layers, which pick a float altitude's layer by bisection
_HP_LAYERS = list(zip(*(a.tolist() for a in (_HP_H, _HP_MIN, _HP_MAX, _HP_HS_MIN, _HP_HS_MAX))))
_HP_INNER = _HP_H[1:-1].tolist()
_HP_FLOOR, _HP_TOP = float(_HP_H[0]), float(_HP_H[-1])


def harris_priester_density(h_km, cos_half_psi_sq, bulge_exponent):
    """Density (kg/m^3) from altitude and the diurnal-bulge half-angle cosine.

    Exponential interpolation inside each table layer, with the layers'
    scale heights taken once at import; the bulge factor is
    ``cos^(n)(psi/2)`` expressed through ``cos^2(psi/2)`` so polynomial states
    stay smooth.  Layer choice uses the constant part of the altitude.  Above
    the table's top the model has no atmosphere: the density is 0 there (a
    zero polynomial, or 0 in those rows or members).  Below its floor it
    raises.
    """
    if isinstance(h_km, float) and h_km >= _HP_FLOOR:  # below it the column code raises
        if h_km > _HP_TOP:
            return 0.0
        h, rmin, rmax, hs_min, hs_max = _HP_LAYERS[bisect_right(_HP_INNER, h_km)]
        dh = h - h_km
        rho_min, rho_max = rmin * np.exp(dh / hs_min), rmax * np.exp(dh / hs_max)
        bulge = power(cos_half_psi_sq, bulge_exponent / 2.0)
        return float((rho_min + (rho_max - rho_min) * bulge) * 1.0e-12)
    hc = np.asarray(cons(h_km), dtype=np.float64)
    if np.any(hc < _HP_H[0]):
        raise ValueError(f"altitude {hc} km below the density table's floor {_HP_H[0]} km")
    above = hc > _HP_H[-1]
    idx = np.minimum(np.searchsorted(_HP_H, hc, side="right") - 1, _HP_H.size - 2)
    dh = _HP_H[idx] - h_km
    if is_poly(h_km):
        rho_min = _HP_MIN[idx] * (dh / _HP_HS_MIN[idx]).exp()
        rho_max = _HP_MAX[idx] * (dh / _HP_HS_MAX[idx]).exp()
    else:
        rho_min = _HP_MIN[idx] * np.exp(dh / _HP_HS_MIN[idx])
        rho_max = _HP_MAX[idx] * np.exp(dh / _HP_HS_MAX[idx])
    bulge = power(cos_half_psi_sq, bulge_exponent / 2.0)
    rho = (rho_min + (rho_max - rho_min) * bulge) * 1.0e-12  # g/km^3 -> kg/m^3
    if above.any():
        rho = rho * np.where(above, 0.0, 1.0)
    return rho


_C30, _S30 = math.cos(30.0 * _DEG), math.sin(30.0 * _DEG)


def _bulge_direction(s, smag):
    """Unit vector of the diurnal bulge: the Sun direction turned 30 deg east about z.

    That is the point at the solar right ascension + 30 deg on the solar
    declination, with no inverse trigonometry.
    """
    ux, uy = s[0] / smag, s[1] / smag
    return _C30 * ux - _S30 * uy, _S30 * ux + _C30 * uy, s[2] / smag


def drag_acceleration(sun, r3, v3, cfg: ForceConfig, sc: SpacecraftParams, geo=None):
    """Harris-Priester drag; ``sun`` is the Sun position (km) at the epoch of r3.

    ``geo``, when given, is this call's ``_SunGeometry``, which
    ``acceleration`` shares among the Sun-dependent terms.
    """
    if geo is None:
        geo = _sun_geometry(r3, sun)
    rmag = geo.rmag
    h_km = rmag - cfg.re_km

    bx, by, bz = _bulge_direction(geo.s, geo.smag)
    cos_psi = (r3[0] * bx + r3[1] * by + r3[2] * bz) / rmag
    cos_half_sq = 0.5 * (1.0 + cos_psi)

    # inclination-dependent exponent, 2 (equatorial) to 6 (polar),
    # evaluated per sample so batched trajectories stay independent
    hx, hy, hz = cross3([cons(r3[0]), cons(r3[1]), cons(r3[2])],
                        [cons(v3[0]), cons(v3[1]), cons(v3[2])])
    inc = np.arccos(_clip(hz / sqrt(hx * hx + hy * hy + hz * hz), -1.0, 1.0))
    inc = min(inc, math.pi - inc) if isinstance(inc, float) else np.minimum(inc, math.pi - inc)
    n_exp = 2.0 + 4.0 * inc / (0.5 * math.pi)

    rho = harris_priester_density(h_km, cos_half_sq, n_exp)

    # velocity relative to the co-rotating atmosphere
    vrx = v3[0] + OMEGA_EARTH * r3[1]
    vry = v3[1] - OMEGA_EARTH * r3[0]
    vrz = v3[2]
    vr = sqrt(vrx * vrx + vry * vry + vrz * vrz)
    fac = -500.0 * sc.cd * sc.area / sc.mass * rho * vr   # km/s^2 per km/s
    return [fac * vrx, fac * vry, fac * vrz]


# -- solar radiation pressure ------------------------------------------------------


def _clip(x, lo, hi):
    """``np.clip``; a float takes ``min`` and ``max``, a tenth of numpy's cost on it."""
    return min(max(x, lo), hi) if isinstance(x, float) else np.clip(x, lo, hi)


def shadow_factor(r3, sun_pos, geo=None):
    """Dual-cone illumination factor in [0, 1] with a linear penumbra ramp.

    ``geo`` is as for ``drag_acceleration``.
    """
    if geo is None:
        geo = _sun_geometry(r3, sun_pos)
    rmag, d, dmag = geo.rmag, geo.d, geo.dmag
    # apparent radii and separation of the Sun and Earth disks
    a_sun = np.arcsin(_clip(R_SUN_KM / cons(dmag), -1.0, 1.0))
    b_earth = np.arcsin(_clip(RE_KM / cons(rmag), -1.0, 1.0))
    cosc = cons(
        (-(r3[0]) * d[0] - r3[1] * d[1] - r3[2] * d[2]) / (rmag * dmag)
    )
    c_sep = np.arccos(_clip(cosc, -1.0, 1.0))
    nu = (c_sep - (b_earth - a_sun)) / (2.0 * a_sun)
    return _clip(nu, 0.0, 1.0)


def srp_acceleration(sun, r3, cfg: ForceConfig, sc: SpacecraftParams, geo=None):
    """Cannonball SRP with shadow; ``sun`` is the Sun position (km) at the epoch of r3.

    ``geo`` is as for ``drag_acceleration``.
    """
    if geo is None:
        geo = _sun_geometry(r3, sun)
    d, dmag = geo.d, geo.dmag
    nu = shadow_factor(r3, sun, geo)
    # P0 * Cr * A/m in m/s^2 -> km/s^2, scaled by (AU/d)^2, along -d (away from the Sun)
    push = SRP_P0 * sc.cr * sc.area / sc.mass * 1.0e-3 * (AU_KM**2)
    fac = nu * -push / (dmag * dmag * dmag)
    return [fac * d[0], fac * d[1], fac * d[2]]


# -- total acceleration ------------------------------------------------------------


def acceleration(t_s, r3, v3, cfg: ForceConfig, sc: SpacecraftParams):
    """Total acceleration (ax, ay, az) at time t_s for position r3, velocity v3.

    Components may be floats, (N,) arrays or polynomials; time must be a float
    or an (N,) float array aligned with the batch.  |r| and the Sun geometry
    are taken once and shared by the Sun's third-body term, drag and SRP.
    """
    rmag = norm3(r3)
    inside = cons(rmag) < cfg.re_km
    if inside if isinstance(inside, bool) else inside.any():
        raise ValueError("position inside the Earth")

    acc = gravity_acceleration(r3, cfg, t_s)
    if cfg.third_body_sun or cfg.drag or cfg.srp:
        sun = sun_position(t_s)
        geo = _sun_geometry(r3, sun, rmag)
    if cfg.third_body_sun:
        a = _tidal(MU_SUN, geo.s, geo.smag, geo.d, geo.dmag)
        acc = [acc[j] + a[j] for j in range(3)]
    if cfg.third_body_moon:
        a = third_body_acceleration(r3, moon_position(t_s), MU_MOON)
        acc = [acc[j] + a[j] for j in range(3)]
    if cfg.drag:
        a = drag_acceleration(sun, r3, v3, cfg, sc, geo)
        acc = [acc[j] + a[j] for j in range(3)]
    if cfg.srp:
        a = srp_acceleration(sun, r3, cfg, sc, geo)
        acc = [acc[j] + a[j] for j in range(3)]
    return acc
