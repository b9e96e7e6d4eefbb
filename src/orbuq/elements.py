"""Orbital element sets and conversions, generic over floats and polynomials.

Sets: cartesian (x, y, z, vx, vy, vz), Keplerian (a, e, i, raan, argp, M),
equinoctial (a, f, g, h, k, fast), modified equinoctial (p, f, g, h, k, fast)
and alternate equinoctial (n, f, g, h, k, fast), where the fast variable is
either the true longitude L or the mean longitude lam.  Units are km, km/s,
rad, s throughout.

Every conversion runs through the cartesian hub and is written against the
:mod:`orbuq.generic` shims, so one code path serves plain numbers, whole float
columns (one row per element) and DA states, lone or stacked.  Decisions on
constant parts go through :func:`~orbuq.generic.branch`: columns or stack
members that disagree raise :class:`~orbuq.generic.MixedBranch`, and the
caller converts them one at a time.  Cartesian extraction of the equinoctial
family avoids materializing singular Keplerian angles: exactly-circular and
exactly-equatorial orbits convert cleanly.  Keplerian extraction falls back
to zero-angle conventions below ``e < 1e-10`` or ``sin(i) < 1e-10`` and
reports the convention in the flags that ``convert_values`` returns.

Angles move through these routines unwrapped (branch restored near the source
value where a revolution count exists); wrap only when serializing.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .generic import atan2, branch, cons, cos, cross3, dot3, each, is_poly, norm3, sin, sqrt

__all__ = [
    "ElemKind", "FastVar", "ElementSet",
    "kepler_solve", "kepler_equinoctial_solve", "convert_values", "rebranch_near",
    "CARTESIAN", "KEPLERIAN", "EQUINOCTIAL_L", "EQUINOCTIAL_LAM",
    "MEE_L", "MEE_LAM", "ALTERNATE_L", "ALTERNATE_LAM",
]

_SINGULAR_E = 1e-10
_SINGULAR_I = 1e-10


class ElemKind(enum.Enum):
    CARTESIAN = "cartesian"
    KEPLERIAN = "keplerian"
    EQUINOCTIAL = "equinoctial"
    MEE = "mee"
    ALTERNATE = "alternate"


class FastVar(enum.Enum):
    TRUE_LONGITUDE = "L"
    MEAN_LONGITUDE = "lambda"


@dataclass(frozen=True)
class ElementSet:
    kind: ElemKind
    fast: FastVar | None = None

    def __post_init__(self):
        needs_fast = self.kind in (ElemKind.EQUINOCTIAL, ElemKind.MEE, ElemKind.ALTERNATE)
        if needs_fast and self.fast is None:
            raise ValueError(f"{self.kind.value} elements need a fast variable")
        if not needs_fast and self.fast is not None:
            raise ValueError(f"{self.kind.value} elements carry no fast variable")

    @classmethod
    def parse(cls, kind: str, fast: str | None = None) -> "ElementSet":
        k = ElemKind(kind.lower())
        return cls(k, None if fast is None else FastVar(fast))

    def label(self) -> str:
        if self.fast is None:
            return self.kind.value
        return f"{self.kind.value}/{self.fast.value}"


CARTESIAN = ElementSet(ElemKind.CARTESIAN)
KEPLERIAN = ElementSet(ElemKind.KEPLERIAN)
EQUINOCTIAL_L = ElementSet(ElemKind.EQUINOCTIAL, FastVar.TRUE_LONGITUDE)
EQUINOCTIAL_LAM = ElementSet(ElemKind.EQUINOCTIAL, FastVar.MEAN_LONGITUDE)
MEE_L = ElementSet(ElemKind.MEE, FastVar.TRUE_LONGITUDE)
MEE_LAM = ElementSet(ElemKind.MEE, FastVar.MEAN_LONGITUDE)
ALTERNATE_L = ElementSet(ElemKind.ALTERNATE, FastVar.TRUE_LONGITUDE)
ALTERNATE_LAM = ElementSet(ElemKind.ALTERNATE, FastVar.MEAN_LONGITUDE)


def rebranch_near(angle, ref):
    """Shift by whole revolutions so the constant part lands nearest ref."""
    shift = 2.0 * math.pi * each(round, (cons(ref) - cons(angle)) / (2.0 * math.pi))
    return angle + shift


# -- Kepler solvers ------------------------------------------------------------


def _poly_args(*args) -> bool:
    return any(is_poly(a) for a in args)


def _newton_iters_for(order: int) -> int:
    # Newton doubles the resolved nilpotent degree each pass
    return max(2, math.ceil(math.log2(order + 1)) + 1)


def _kepler_float(mbar: float, ebar: float, tol: float, max_iter: int) -> float:
    if not 0.0 <= ebar < 1.0:
        raise ValueError(f"eccentricity {ebar} outside [0, 1)")
    sm = math.sin(mbar)
    big_e = mbar if sm == 0.0 else mbar + 0.85 * ebar * math.copysign(1.0, sm)
    for _ in range(max_iter):
        resid = big_e - ebar * math.sin(big_e) - mbar
        if abs(resid) < tol:
            break
        big_e -= resid / (1.0 - ebar * math.cos(big_e))
    else:
        raise RuntimeError(f"Kepler solver stalled: M={mbar}, e={ebar}")
    return big_e


def kepler_solve(M, e, tol: float = 1e-13, max_iter: int = 50):
    """Eccentric anomaly E with E - e*sin(E) = M (elliptic only).

    Scalar Newton on the constant part, element by element for float arrays
    and stacks, then fixed polynomial Newton passes when the inputs carry a
    nilpotent part.
    """
    mbar, ebar = cons(M), cons(e)
    big_e = each(_kepler_float, mbar, ebar, tol, max_iter)
    if not _poly_args(M, e):
        return big_e
    ctx = (M if is_poly(M) else e).ctx
    ep = e if is_poly(e) else ctx.constant(ebar)
    mp = M if is_poly(M) else ctx.constant(mbar)
    ee = ctx.constant(big_e)
    for _ in range(_newton_iters_for(ctx.order)):
        ee = ee - (ee - ep * sin(ee) - mp) / (1.0 - ep * cos(ee))
    return ee


def _kepler_equinoctial_float(lbar: float, fbar: float, gbar: float, tol: float,
                              max_iter: int) -> float:
    if fbar * fbar + gbar * gbar >= 1.0:
        raise ValueError("equinoctial eccentricity magnitude must be < 1")
    big_f = lbar
    for _ in range(max_iter):
        resid = big_f + gbar * math.cos(big_f) - fbar * math.sin(big_f) - lbar
        if abs(resid) < tol:
            break
        big_f -= resid / (1.0 - gbar * math.sin(big_f) - fbar * math.cos(big_f))
    else:
        raise RuntimeError(f"equinoctial Kepler solver stalled: lam={lbar}")
    return big_f


def kepler_equinoctial_solve(lam, f, g, tol: float = 1e-13, max_iter: int = 50):
    """Eccentric longitude F with F + g*cos(F) - f*sin(F) = lam.

    Float arrays and stacks are solved element by element.
    """
    fbar, gbar, lbar = cons(f), cons(g), cons(lam)
    big_f = each(_kepler_equinoctial_float, lbar, fbar, gbar, tol, max_iter)
    if not _poly_args(lam, f, g):
        return big_f
    ctx = next(a.ctx for a in (lam, f, g) if is_poly(a))
    fp = f if is_poly(f) else ctx.constant(fbar)
    gp = g if is_poly(g) else ctx.constant(gbar)
    lp = lam if is_poly(lam) else ctx.constant(lbar)
    ff = ctx.constant(big_f)
    for _ in range(_newton_iters_for(ctx.order)):
        ff = ff - (ff + gp * cos(ff) - fp * sin(ff) - lp) / (
            1.0 - gp * sin(ff) - fp * cos(ff)
        )
    return ff


# -- core cartesian <-> equinoctial machinery -----------------------------------


def _eqx_frame(h, k):
    """Unit in-plane triad of the equinoctial frame for h = tan(i/2)cos(raan),
    k = tan(i/2)sin(raan); the orbit normal is (2k, -2h, 1-h^2-k^2)/s^2."""
    s2 = 1.0 + h * h + k * k
    fhat = [(1.0 + h * h - k * k) / s2, (2.0 * h * k) / s2, (-2.0 * k) / s2]
    ghat = [(2.0 * h * k) / s2, (1.0 - h * h + k * k) / s2, (2.0 * h) / s2]
    return fhat, ghat


def cart_to_eqx_core(rv, mu):
    """(a, f, g, h, k, X, Y, true L) from a cartesian state; no singular angles."""
    r = rv[:3]
    v = rv[3:]
    rmag = norm3(r)
    v2 = dot3(v, v)
    hvec = cross3(r, v)
    hmag = norm3(hvec)
    wz = hvec[2] / hmag
    den = 1.0 + wz
    if branch(cons(den) <= 1e-12):
        raise ValueError("retrograde equatorial geometry (i = pi) is singular")
    hq = -(hvec[1] / hmag) / den
    kq = (hvec[0] / hmag) / den
    a = 1.0 / (2.0 / rmag - v2 / mu)
    rdotv = dot3(r, v)
    evec = [
        ((v2 - mu / rmag) * r[j] - rdotv * v[j]) / mu
        for j in range(3)
    ]
    fhat, ghat = _eqx_frame(hq, kq)
    fq = dot3(evec, fhat)
    gq = dot3(evec, ghat)
    x_pl = dot3(r, fhat)
    y_pl = dot3(r, ghat)
    big_l = atan2(y_pl, x_pl)
    return a, fq, gq, hq, kq, x_pl, y_pl, big_l


def _ecc_longitude_from_plane(a, f, g, x_pl, y_pl):
    """Invert the in-plane position for the eccentric longitude F."""
    e2 = f * f + g * g
    root = sqrt(1.0 - e2)
    b = 1.0 / (1.0 + root)
    m11 = 1.0 - g * g * b
    m12 = f * g * b
    m22 = 1.0 - f * f * b
    det = m11 * m22 - m12 * m12
    rx = x_pl / a + f
    ry = y_pl / a + g
    cosf = (m22 * rx - m12 * ry) / det
    sinf = (m11 * ry - m12 * rx) / det
    return atan2(sinf, cosf)


def cart_to_eqx(rv, mu, fast: FastVar):
    a, fq, gq, hq, kq, x_pl, y_pl, big_l = cart_to_eqx_core(rv, mu)
    if fast is FastVar.TRUE_LONGITUDE:
        return [a, fq, gq, hq, kq, big_l]
    big_f = _ecc_longitude_from_plane(a, fq, gq, x_pl, y_pl)
    lam = big_f + gq * cos(big_f) - fq * sin(big_f)
    lam = rebranch_near(lam, big_l)
    return [a, fq, gq, hq, kq, lam]


def eqx_to_cart(vals, mu, fast: FastVar):
    a, f, g, h, k, fastv = vals
    fhat, ghat = _eqx_frame(h, k)
    if fast is FastVar.TRUE_LONGITUDE:
        big_l = fastv
        p = a * (1.0 - f * f - g * g)
        w = 1.0 + f * cos(big_l) + g * sin(big_l)
        rmag = p / w
        x_pl = rmag * cos(big_l)
        y_pl = rmag * sin(big_l)
        smup = sqrt(mu / p)
        xd = -smup * (g + sin(big_l))
        yd = smup * (f + cos(big_l))
    else:
        big_f = kepler_equinoctial_solve(fastv, f, g)
        e2 = f * f + g * g
        root = sqrt(1.0 - e2)
        b = 1.0 / (1.0 + root)
        n = sqrt(mu / (a * a * a))
        cf, sf = cos(big_f), sin(big_f)
        x_pl = a * ((1.0 - g * g * b) * cf + f * g * b * sf - f)
        y_pl = a * ((1.0 - f * f * b) * sf + f * g * b * cf - g)
        rmag = a * (1.0 - f * cf - g * sf)
        fac = a * a * n / rmag
        xd = fac * (f * g * b * cf - (1.0 - g * g * b) * sf)
        yd = fac * ((1.0 - f * f * b) * cf - f * g * b * sf)
    r = [x_pl * fhat[j] + y_pl * ghat[j] for j in range(3)]
    v = [xd * fhat[j] + yd * ghat[j] for j in range(3)]
    return r + v


# -- Keplerian <-> cartesian -----------------------------------------------------


def kep_to_cart(vals, mu):
    a, e, inc, raan, argp, man = vals
    big_e = kepler_solve(man, e)
    ce, se = cos(big_e), sin(big_e)
    root = sqrt(1.0 - e * e)
    x_pf = a * (ce - e)
    y_pf = a * root * se
    rmag = a * (1.0 - e * ce)
    fac = sqrt(mu * a) / rmag
    vx_pf = -fac * se
    vy_pf = fac * root * ce
    co, so = cos(raan), sin(raan)
    cw, sw = cos(argp), sin(argp)
    ci, si = cos(inc), sin(inc)
    # rows of Rz(-raan) Rx(-i) Rz(-argp)
    r11 = co * cw - so * sw * ci
    r12 = -co * sw - so * cw * ci
    r21 = so * cw + co * sw * ci
    r22 = -so * sw + co * cw * ci
    r31 = sw * si
    r32 = cw * si
    return [
        r11 * x_pf + r12 * y_pf,
        r21 * x_pf + r22 * y_pf,
        r31 * x_pf + r32 * y_pf,
        r11 * vx_pf + r12 * vy_pf,
        r21 * vx_pf + r22 * vy_pf,
        r31 * vx_pf + r32 * vy_pf,
    ]


def cart_to_kep(rv, mu):
    """Classical elements with zero-angle conventions at the singular charts.

    Returns (values, flags).  In the exactly-degenerate planar/circular cases
    the undefined angles collapse to zero and the fast angle absorbs the rest;
    polynomial states on a *nearly* singular chart (zero constant part with
    nonzero deviations) raise, since no smooth Keplerian chart exists there.
    """
    flags: list[str] = []
    r = rv[:3]
    v = rv[3:]
    rmag = norm3(r)
    v2 = dot3(v, v)
    hvec = cross3(r, v)
    a = 1.0 / (2.0 / rmag - v2 / mu)
    rdotv = dot3(r, v)
    evec = [((v2 - mu / rmag) * r[j] - rdotv * v[j]) / mu for j in range(3)]

    hxy2 = hvec[0] * hvec[0] + hvec[1] * hvec[1]
    hmag = norm3(hvec)
    equatorial = branch(np.sqrt(np.maximum(cons(hxy2), 0.0)) < _SINGULAR_I * cons(hmag))
    e2 = dot3(evec, evec)
    circular = branch(np.sqrt(np.maximum(cons(e2), 0.0)) < _SINGULAR_E)

    if equatorial:
        flags.append("equatorial_convention")
        zero = 0.0 * hvec[2] if is_poly(hvec[2]) else 0.0
        raan = zero
        node = [1.0 + zero, zero, zero] if is_poly(hvec[2]) else [1.0, 0.0, 0.0]
        # hxy2 is an exactly-zero polynomial when z and vz are exact constants
        # zero, as they are for inert coordinates of an equatorial state;
        # any residue with a zero constant part is near-singular and raises
        inc = atan2(sqrt(hxy2), hvec[2])
    else:
        inc = atan2(sqrt(hxy2), hvec[2])
        raan = atan2(hvec[0], -hvec[1])
        nmag = sqrt(hxy2)
        node = [-hvec[1] / nmag, hvec[0] / nmag, 0.0 * nmag if is_poly(nmag) else 0.0]

    if circular:
        flags.append("circular_convention")
        ecc = sqrt(e2)  # exact-zero polynomial or scalar ~0
        argp = 0.0 * ecc if is_poly(ecc) else 0.0
        # fast angle: argument of latitude from the node line
        cosu = dot3(node, r)
        sinu = dot3(cross3(node, r), hvec) / hmag
        nu = atan2(sinu, cosu)
    else:
        ecc = sqrt(e2)
        cosw = dot3(node, evec)
        sinw = dot3(cross3(node, evec), hvec) / hmag
        argp = atan2(sinw, cosw)
        cosnu = dot3(evec, r)
        sinnu = dot3(cross3(evec, r), hvec) / hmag
        nu = atan2(sinnu, cosnu)

    # mean anomaly via the eccentric anomaly (smooth for e < 1)
    cnu, snu = cos(nu), sin(nu)
    denom = 1.0 + ecc * cnu
    sin_e = sqrt(1.0 - ecc * ecc) * snu / denom
    cos_e = (ecc + cnu) / denom
    big_e = atan2(sin_e, cos_e)
    big_e = rebranch_near(big_e, nu)
    man = big_e - ecc * sin(big_e)
    return [a, ecc, inc, raan, argp, man], tuple(flags)


# -- public conversion front end -------------------------------------------------


def _to_cart_values(vals, src: ElementSet, mu):
    kind = src.kind
    if kind == ElemKind.CARTESIAN:
        return list(vals)
    if kind == ElemKind.KEPLERIAN:
        return kep_to_cart(vals, mu)
    a_like, f, g, h, k, fast = vals
    return eqx_to_cart([_semimajor_axis(a_like, f, g, kind, mu), f, g, h, k, fast],
                       mu, src.fast)


def _semimajor_axis(a_like, f, g, kind: ElemKind, mu):
    """Semimajor axis from the first element of an equinoctial-family set:
    ``a`` (equinoctial), ``p`` (MEE) or the mean motion ``n`` (alternate)."""
    if kind == ElemKind.MEE:
        return a_like / (1.0 - f * f - g * g)
    if kind == ElemKind.ALTERNATE:
        return (mu / (a_like * a_like)) ** (1.0 / 3.0)
    return a_like


def _from_cart_values(rv, dst: ElementSet, mu):
    kind = dst.kind
    flags: tuple[str, ...] = ()
    if kind == ElemKind.CARTESIAN:
        return list(rv), flags
    if kind == ElemKind.KEPLERIAN:
        return cart_to_kep(rv, mu)
    vals = cart_to_eqx(rv, mu, dst.fast)
    a, f, g, h, k, fast = vals
    if kind == ElemKind.EQUINOCTIAL:
        return [a, f, g, h, k, fast], flags
    if kind == ElemKind.MEE:
        return [a * (1.0 - f * f - g * g), f, g, h, k, fast], flags
    n = sqrt(mu / (a * a * a))
    return [n, f, g, h, k, fast], flags


def _swap_fast_variable(vals, kind: ElemKind, src_fast: FastVar, dst_fast: FastVar, mu):
    """lam <-> L within one equinoctial-family set, without a cartesian round trip."""
    a_like, f, g, h, k, fast = vals
    if src_fast is FastVar.MEAN_LONGITUDE:
        a = _semimajor_axis(a_like, f, g, kind, mu)
        big_f = kepler_equinoctial_solve(fast, f, g)
        cf, sf = cos(big_f), sin(big_f)
        e2 = f * f + g * g
        b = 1.0 / (1.0 + sqrt(1.0 - e2))
        x_pl = a * ((1.0 - g * g * b) * cf + f * g * b * sf - f)
        y_pl = a * ((1.0 - f * f * b) * sf + f * g * b * cf - g)
        big_l = atan2(y_pl, x_pl)
        new_fast = rebranch_near(big_l, fast)
    else:
        # true -> mean: recover in-plane position at unit scale
        p_over_a = 1.0 - f * f - g * g
        w = 1.0 + f * cos(fast) + g * sin(fast)
        rmag_over_a = p_over_a / w
        x_pl = rmag_over_a * cos(fast)
        y_pl = rmag_over_a * sin(fast)
        big_f = _ecc_longitude_from_plane(1.0, f, g, x_pl, y_pl)
        lam = big_f + g * cos(big_f) - f * sin(big_f)
        new_fast = rebranch_near(lam, fast)
    return [a_like, f, g, h, k, new_fast]


def convert_values(vals, src: ElementSet, dst: ElementSet, mu):
    """Convert six element values between sets: returns (values, flags).

    The values may be floats, float columns or polynomials (see the module
    docstring); the flags name any singular-angle convention applied.
    """
    if src == dst:
        return list(vals), ()
    same_family = (
        src.kind == dst.kind
        and src.kind in (ElemKind.EQUINOCTIAL, ElemKind.MEE, ElemKind.ALTERNATE)
    )
    if same_family:
        return _swap_fast_variable(vals, src.kind, src.fast, dst.fast, mu), ()
    rv = _to_cart_values(vals, src, mu)
    return _from_cart_values(rv, dst, mu)
