"""Perturbing force models for the high-fidelity propagator.

Central gravity with a normalized spherical-harmonics field (Cunningham V/W
recursion, Earth-fixed via a GMST spin), analytical low-precision Sun/Moon
third-body terms, the modified Harris-Priester static atmosphere with a
diurnal-bulge exponent tied to the orbit inclination, and a cannonball SRP
model with a dual-cone umbra/penumbra shadow factor (linear penumbra ramp).

Every force takes its position and velocity as three components, each a
plain float, a numpy column of shape (N,) for a sample batch, or a Taylor
polynomial; one code path serves all three.  The third-body, drag and SRP
terms are written component by component.  Gravity fills the Cunningham
table one degree at a time, each order as one array slice, and sums it with
one fixed linear form (``_HarmonicForm``); a polynomial state goes through
that code as a one-element object column.  Time is always a plain float (or
float array), measured in seconds since J2000; value-dependent table lookups
and shadow branches act on constant parts for polynomial states.

Units: km, kg, s; accelerations in km/s^2.  Spacecraft area is in m^2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

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
SRP_P0 = 4.56e-6              # N/m^2 at 1 AU
OMEGA_EARTH = 7.292115146706979e-5  # rad/s
_ARCSEC = math.pi / (180.0 * 3600.0)
_DEG = math.pi / 180.0


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

    mu: float = 398600.4355
    re_km: float = 6378.1363
    degree: int = 8
    order: int = 8
    third_body_sun: bool = True
    third_body_moon: bool = True
    drag: bool = False
    srp: bool = True
    drag_bulge_exponent: float | None = None  # None: derive from inclination
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


_FIELD_CACHE: dict[tuple, GravityField] = {}


def _field_for(cfg: ForceConfig) -> GravityField:
    key = (cfg.gravity_path, cfg.degree, cfg.order)
    if key not in _FIELD_CACHE:
        base = load_gravity_field(cfg.gravity_path, nmax=max(cfg.degree, 1))
        _FIELD_CACHE[key] = base.truncated(cfg.degree, cfg.order)
    return _FIELD_CACHE[key]


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
    §3.2) fill one degree at a time: every order below the diagonal as one
    slice,

        V[n, m] = a[n, m] z0 V[n-1, m] - b[n, m] rho V[n-2, m]   (W alike),

    with a = (2n-1)/(n-m) and b = (n+m-1)/(n-m), and then the diagonal,

        V[n, n] = (2n-1) (x0 V[n-1, n-1] - y0 W[n-1, n-1])
        W[n, n] = (2n-1) (x0 W[n-1, n-1] + y0 V[n-1, n-1]).

    The table is packed by degree: (2, P) entries, V then W, degree n at
    ``n(n+1)/2 + m``.  The Earth-fixed acceleration is the fixed linear form
    ``coef`` (2P, 3) of the flattened table.
    """

    def __init__(self, fld: GravityField, mu: float, re_km: float):
        nmax = fld.nmax
        nv = nmax + 1  # the sums read degree n+1
        at = [n * (n + 1) // 2 for n in range(nv + 2)]
        self.size = at[nv + 1]
        self.re = re_km
        a = np.zeros(self.size)
        b = np.zeros(self.size)
        for n in range(1, nv + 1):
            for m in range(n):
                a[at[n] + m] = (2 * n - 1) / (n - m)
                b[at[n] + m] = (n + m - 1) / (n - m)
        # one list of per-degree steps for float scalars (ndim 0) and one for
        # columns (ndim 1), whose slot constants broadcast along the rows
        self.steps = []
        for ndim in (0, 1):
            col = (slice(None),) + (None,) * ndim
            steps = []
            for n in range(1, nv + 1):
                below = slice(at[n], at[n] + n)         # orders 0 .. n-1 of degree n
                prev = slice(at[n - 1], at[n - 1] + n)  # the same orders of degree n-1
                low = slice(at[n], at[n] + n - 1)       # orders that also read degree n-2
                prev2 = slice(at[n - 2], at[n - 2] + n - 1) if n >= 2 else None
                steps.append((below, prev, a[below][col], low, prev2, b[low][col],
                              at[n] + n, at[n] - 1, 2.0 * n - 1.0))
            self.steps.append(steps)

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
        self.coef = form.reshape(-1, 3) * (mu / (re_km * re_km))

    def __call__(self, xe, ye, ze):
        """Earth-fixed acceleration of positions given as float scalars, or as
        float or object columns; shape (3,) + the shape of ``xe``."""
        re = self.re
        r2 = xe * xe + ye * ye + ze * ze
        rinv = 1.0 / np.sqrt(r2)
        sr = re * (rinv * rinv)
        x0, y0, z0 = sr * xe, sr * ye, sr * ze
        rho = re * sr
        y0s = np.array([-y0, y0])  # W enters V's diagonal negated
        tab = np.empty((2, self.size) + np.shape(xe), dtype=np.result_type(x0))
        tab[0, 0] = re * rinv
        tab[1, 0] = 0.0
        for below, prev, a, low, prev2, b, diag, last, k in self.steps[np.ndim(xe)]:
            v = tab[:, below]
            np.multiply(z0, tab[:, prev], out=v)
            v *= a
            if prev2 is not None:
                u = rho * tab[:, prev2]
                u *= b
                tab[:, low] -= u
            d = tab[:, diag]
            np.multiply(x0, tab[:, last], out=d)
            d += y0s * tab[::-1, last]
            d *= k
        # without ``optimize`` einsum sums the slots in index order, so a row's
        # bits do not depend on the batch width (BLAS would block the sum)
        return np.einsum("ji,j...->i...", self.coef, tab.reshape((-1,) + np.shape(xe)))


_FORM_CACHE: dict[tuple, _HarmonicForm] = {}
_BLOCK = 1024  # most rows per V/W table: bounds the work set of large batches


def _form_for(cfg: ForceConfig) -> _HarmonicForm:
    key = (cfg.gravity_path, cfg.degree, cfg.order, cfg.mu, cfg.re_km)
    if key not in _FORM_CACHE:
        _FORM_CACHE[key] = _HarmonicForm(_field_for(cfg), cfg.mu, cfg.re_km)
    return _FORM_CACHE[key]


def gravity_acceleration(r3, cfg: ForceConfig, t_s):
    """Central plus harmonic gravity in the inertial frame.

    Positions rotate into the Earth-fixed frame by the GMST spin (no polar
    motion or nutation), the V/W table of ``_HarmonicForm`` runs up to
    degree+1, and the resulting acceleration rotates back.  Components are
    float scalars, (N,) columns, or polynomials; a polynomial state is
    evaluated as a one-element object column, so that every operation on it
    stays elementwise.  Columns longer than ``_BLOCK`` run in even blocks,
    none of width one.
    """
    if cfg.degree == 0:
        rmag = norm3(r3)
        fac = -cfg.mu / (rmag * rmag * rmag)
        return [fac * r3[0], fac * r3[1], fac * r3[2]]

    theta = gmst_angle(t_s)
    ct, st = np.cos(theta), np.sin(theta)
    pos = [ct * r3[0] + st * r3[1], -st * r3[0] + ct * r3[1], r3[2]]
    poly = any(is_poly(x) for x in pos)
    if poly:
        pos = [np.array([x], dtype=object) for x in pos]

    form = _form_for(cfg)
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
    """Low-precision analytical solar position (km, equatorial inertial frame)."""
    t = julian_centuries(t_s)
    m = (357.5256 + 35999.049 * t) * _DEG
    lam = (282.9400) * _DEG + m + (6892.0 * np.sin(m) + 72.0 * np.sin(2 * m)) * _ARCSEC
    r = (149.619 - 2.499 * np.cos(m) - 0.021 * np.cos(2 * m)) * 1.0e6
    eps = 23.43929111 * _DEG
    x = r * np.cos(lam)
    y = r * np.sin(lam) * math.cos(eps)
    z = r * np.sin(lam) * math.sin(eps)
    return np.stack(np.broadcast_arrays(x, y, z), axis=-1)


def moon_position(t_s):
    """Low-precision analytical lunar position (km, equatorial inertial frame)."""
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
    xec = r * np.cos(lam) * np.cos(beta)
    yec = r * np.sin(lam) * np.cos(beta)
    zec = r * np.sin(beta)
    return np.stack(
        np.broadcast_arrays(xec, ce * yec - se * zec, se * yec + ce * zec), axis=-1
    )


def third_body_acceleration(r3, body_pos, mu_body):
    """Tidal (direct minus indirect) point-mass acceleration of a third body."""
    s = [body_pos[..., 0], body_pos[..., 1], body_pos[..., 2]]
    d = [s[0] - r3[0], s[1] - r3[1], s[2] - r3[2]]
    dmag = norm3(d)
    smag = norm3(s)
    d3 = dmag * dmag * dmag
    s3 = smag * smag * smag
    return [mu_body * (d[j] / d3 - s[j] / s3) for j in range(3)]


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


def _hp_bracket(h_const):
    idx = np.searchsorted(_HP_TABLE[:, 0], h_const, side="right") - 1
    return np.clip(idx, 0, _HP_TABLE.shape[0] - 2)


def harris_priester_density(h_km, cos_half_psi_sq, bulge_exponent):
    """Density (kg/m^3) from altitude and the diurnal-bulge half-angle cosine.

    Exponential interpolation inside each table layer; the bulge factor is
    ``cos^(n)(psi/2)`` expressed through ``cos^2(psi/2)`` so polynomial states
    stay smooth.  Layer choice uses the constant part of the altitude.
    """
    hc = np.asarray(cons(h_km), dtype=np.float64)
    if np.any(hc < _HP_TABLE[0, 0]) or np.any(hc > _HP_TABLE[-1, 0]):
        raise ValueError(
            f"altitude {hc} km outside the density table range "
            f"[{_HP_TABLE[0, 0]}, {_HP_TABLE[-1, 0]}]"
        )
    idx = _hp_bracket(hc)
    h_i, rmin_i, rmax_i = (_HP_TABLE[idx, j] for j in range(3))
    h_j, rmin_j, rmax_j = (_HP_TABLE[idx + 1, j] for j in range(3))
    hm_scale = (h_i - h_j) / np.log(rmin_j / rmin_i)
    hmx_scale = (h_i - h_j) / np.log(rmax_j / rmax_i)
    rho_min = rmin_i * np.exp((h_i - h_km) / hm_scale) if not is_poly(h_km) else \
        rmin_i * ((h_i - h_km) / hm_scale).exp()
    rho_max = rmax_i * np.exp((h_i - h_km) / hmx_scale) if not is_poly(h_km) else \
        rmax_i * ((h_i - h_km) / hmx_scale).exp()
    bulge = power(cos_half_psi_sq, bulge_exponent / 2.0)
    rho = rho_min + (rho_max - rho_min) * bulge
    return rho * 1.0e-12  # g/km^3 -> kg/m^3


def drag_acceleration(sun, r3, v3, cfg: ForceConfig, sc: SpacecraftParams):
    """Harris-Priester drag; ``sun`` is the Sun position (km) at the epoch of r3."""
    rmag = norm3(r3)
    h_km = rmag - cfg.re_km

    # diurnal bulge direction: solar RA + 30 deg lag, on the solar declination
    s_u = sun / np.linalg.norm(sun, axis=-1, keepdims=True)
    ra = np.arctan2(s_u[..., 1], s_u[..., 0]) + 30.0 * _DEG
    dec = np.arcsin(s_u[..., 2])
    bx, by, bz = np.cos(dec) * np.cos(ra), np.cos(dec) * np.sin(ra), np.sin(dec)

    cos_psi = (r3[0] * bx + r3[1] * by + r3[2] * bz) / rmag
    cos_half_sq = 0.5 * (1.0 + cos_psi)

    if cfg.drag_bulge_exponent is not None:
        n_exp = cfg.drag_bulge_exponent
    else:
        # inclination-dependent exponent, 2 (equatorial) to 6 (polar),
        # evaluated per sample so batched trajectories stay independent
        hvec = cross3([cons(r3[0]), cons(r3[1]), cons(r3[2])],
                      [cons(v3[0]), cons(v3[1]), cons(v3[2])])
        hnorm = np.sqrt(hvec[0] ** 2 + hvec[1] ** 2 + hvec[2] ** 2)
        inc = np.arccos(np.clip(hvec[2] / hnorm, -1.0, 1.0))
        inc = np.minimum(inc, math.pi - inc)
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


def shadow_factor(r3, sun_pos, re_km: float):
    """Dual-cone illumination factor in [0, 1] with a linear penumbra ramp."""
    d = [sun_pos[..., 0] - r3[0], sun_pos[..., 1] - r3[1], sun_pos[..., 2] - r3[2]]
    dmag = norm3(d)
    rmag = norm3(r3)
    # apparent radii and separation of the Sun and Earth disks
    a_sun = np.arcsin(np.clip(R_SUN_KM / cons(dmag), -1, 1))
    b_earth = np.arcsin(np.clip(re_km / cons(rmag), -1, 1))
    cosc = cons(
        (-(r3[0]) * d[0] - r3[1] * d[1] - r3[2] * d[2]) / (rmag * dmag)
    )
    c_sep = np.arccos(np.clip(cosc, -1.0, 1.0))
    nu = (c_sep - (b_earth - a_sun)) / (2.0 * a_sun)
    return np.clip(nu, 0.0, 1.0)


def srp_acceleration(sun, r3, cfg: ForceConfig, sc: SpacecraftParams):
    """Cannonball SRP with shadow; ``sun`` is the Sun position (km) at the epoch of r3."""
    d = [r3[0] - sun[..., 0], r3[1] - sun[..., 1], r3[2] - sun[..., 2]]
    dmag = norm3(d)
    nu = shadow_factor(r3, sun, cfg.re_km)
    # P0 * Cr * A/m in m/s^2 -> km/s^2, scaled by (AU/d)^2
    fac = nu * SRP_P0 * sc.cr * sc.area / sc.mass * 1.0e-3 * (AU_KM**2) / (dmag * dmag)
    dunit_fac = fac / dmag
    return [dunit_fac * d[0], dunit_fac * d[1], dunit_fac * d[2]]


# -- total acceleration ------------------------------------------------------------


def acceleration(t_s, r3, v3, cfg: ForceConfig, sc: SpacecraftParams):
    """Total acceleration (ax, ay, az) at time t_s for position r3, velocity v3.

    Components may be floats, (N,) arrays or polynomials; time must be a float
    or an (N,) float array aligned with the batch.
    """
    rmag_c = np.asarray(cons(norm3(r3)))
    if np.any(rmag_c < cfg.re_km):
        raise ValueError("position inside the Earth")

    acc = gravity_acceleration(r3, cfg, t_s)
    # one Sun position serves the third body, the drag bulge and SRP
    if cfg.third_body_sun or cfg.drag or cfg.srp:
        sun = sun_position(cons(t_s) if is_poly(t_s) else t_s)
    if cfg.third_body_sun:
        a = third_body_acceleration(r3, sun, MU_SUN)
        acc = [acc[j] + a[j] for j in range(3)]
    if cfg.third_body_moon:
        a = third_body_acceleration(r3, moon_position(t_s), MU_MOON)
        acc = [acc[j] + a[j] for j in range(3)]
    if cfg.drag:
        a = drag_acceleration(sun, r3, v3, cfg, sc)
        acc = [acc[j] + a[j] for j in range(3)]
    if cfg.srp:
        a = srp_acceleration(sun, r3, cfg, sc)
        acc = [acc[j] + a[j] for j in range(3)]
    return acc
