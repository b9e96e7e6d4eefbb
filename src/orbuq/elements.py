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
caller converts them one at a time.  Both Kepler equations (anomaly and
equinoctial longitude) are solved per member on floats and lifted to the
polynomial by :func:`~orbuq.generic.newton_lift`.

Each in-plane relation is written once and shared by the conversions and the
lam <-> L swap: the state prefix (h, a, e-vector) of a cartesian state, the
position at true longitude L, the position at eccentric longitude F, and lam
from an in-plane position.  Cartesian extraction of the equinoctial family
avoids materializing singular Keplerian angles: exactly-circular and
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

from .generic import (
    atan2, branch, cons, cos, cross3, dot3, each, is_poly, newton_lift, norm3, sin, sqrt,
)

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


def _kepler_step(big_e, M, e):
    """Newton correction of E - e*sin(E) = M at E."""
    return -((big_e - e * sin(big_e) - M) / (1.0 - e * cos(big_e)))


def kepler_solve(M, e, tol: float = 1e-13, max_iter: int = 50):
    """Eccentric anomaly E with E - e*sin(E) = M (elliptic only).

    Scalar Newton on the constant part, element by element for float arrays
    and stacks, then lifted to the polynomial by ``newton_lift`` when the
    inputs carry a nilpotent part.
    """
    big_e = each(_kepler_float, cons(M), cons(e), tol, max_iter)
    return newton_lift(big_e, _kepler_step, M, e)


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


def _kepler_equinoctial_step(big_f, lam, f, g):
    """Newton correction of F + g*cos(F) - f*sin(F) = lam at F."""
    cf, sf = cos(big_f), sin(big_f)
    return -((big_f + g * cf - f * sf - lam) / (1.0 - g * sf - f * cf))


def kepler_equinoctial_solve(lam, f, g, tol: float = 1e-13, max_iter: int = 50):
    """Eccentric longitude F with F + g*cos(F) - f*sin(F) = lam.

    Float arrays and stacks are solved element by element, then lifted like
    ``kepler_solve``.
    """
    big_f = each(_kepler_equinoctial_float, cons(lam), cons(f), cons(g), tol, max_iter)
    return newton_lift(big_f, _kepler_equinoctial_step, lam, f, g)


# -- core cartesian <-> equinoctial machinery -----------------------------------


def _eqx_frame(h, k):
    """Unit in-plane triad of the equinoctial frame for h = tan(i/2)cos(raan),
    k = tan(i/2)sin(raan); the orbit normal is (2k, -2h, 1-h^2-k^2)/s^2."""
    s2 = 1.0 + h * h + k * k
    fhat = [(1.0 + h * h - k * k) / s2, (2.0 * h * k) / s2, (-2.0 * k) / s2]
    ghat = [(2.0 * h * k) / s2, (1.0 - h * h + k * k) / s2, (2.0 * h) / s2]
    return fhat, ghat


def _state_prefix(rv, mu):
    """(r, h, |h|, a, e-vector) of a cartesian state: angular momentum h,
    semimajor axis a and eccentricity vector."""
    r = rv[:3]
    v = rv[3:]
    rmag = norm3(r)
    v2 = dot3(v, v)
    hvec = cross3(r, v)
    hmag = norm3(hvec)
    a = 1.0 / (2.0 / rmag - v2 / mu)
    rdotv = dot3(r, v)
    evec = [((v2 - mu / rmag) * r[j] - rdotv * v[j]) / mu for j in range(3)]
    return r, hvec, hmag, a, evec


def cart_to_eqx_core(rv, mu):
    """(a, f, g, h, k, X, Y, true L) from a cartesian state; no singular angles."""
    r, hvec, hmag, a, evec = _state_prefix(rv, mu)
    wz = hvec[2] / hmag
    den = 1.0 + wz
    if branch(cons(den) <= 1e-12):
        raise ValueError("retrograde equatorial geometry (i = pi) is singular")
    hq = -(hvec[1] / hmag) / den
    kq = (hvec[0] / hmag) / den
    fhat, ghat = _eqx_frame(hq, kq)
    fq = dot3(evec, fhat)
    gq = dot3(evec, ghat)
    x_pl = dot3(r, fhat)
    y_pl = dot3(r, ghat)
    big_l = atan2(y_pl, x_pl)
    return a, fq, gq, hq, kq, x_pl, y_pl, big_l


def _plane_at_true_longitude(a, f, g, big_l):
    """In-plane position (X, Y) at true longitude L, with p = a (1 - f^2 - g^2),
    cos L and sin L."""
    cl, sl = cos(big_l), sin(big_l)
    p = a * (1.0 - f * f - g * g)
    rmag = p / (1.0 + f * cl + g * sl)
    return rmag * cl, rmag * sl, p, cl, sl


def _plane_at_ecc_longitude(a, f, g, big_f):
    """In-plane position (X, Y) at eccentric longitude F, with cos F, sin F and
    b = 1 / (1 + sqrt(1 - f^2 - g^2))."""
    cf, sf = cos(big_f), sin(big_f)
    e2 = f * f + g * g
    b = 1.0 / (1.0 + sqrt(1.0 - e2))
    x_pl = a * ((1.0 - g * g * b) * cf + f * g * b * sf - f)
    y_pl = a * ((1.0 - f * f * b) * sf + f * g * b * cf - g)
    return x_pl, y_pl, cf, sf, b


def _mean_longitude_from_plane(a, f, g, x_pl, y_pl, ref):
    """Mean longitude lam at in-plane position (X, Y), on the branch nearest ref.

    Inverts ``_plane_at_ecc_longitude`` for the eccentric longitude F, then
    takes lam from Kepler's equation.
    """
    e2 = f * f + g * g
    b = 1.0 / (1.0 + sqrt(1.0 - e2))
    m11 = 1.0 - g * g * b
    m12 = f * g * b
    m22 = 1.0 - f * f * b
    det = m11 * m22 - m12 * m12
    rx = x_pl / a + f
    ry = y_pl / a + g
    cosf = (m22 * rx - m12 * ry) / det
    sinf = (m11 * ry - m12 * rx) / det
    big_f = atan2(sinf, cosf)
    lam = big_f + g * cos(big_f) - f * sin(big_f)
    return rebranch_near(lam, ref)


def cart_to_eqx(rv, mu, fast: FastVar):
    a, fq, gq, hq, kq, x_pl, y_pl, big_l = cart_to_eqx_core(rv, mu)
    if fast is FastVar.TRUE_LONGITUDE:
        return [a, fq, gq, hq, kq, big_l]
    return [a, fq, gq, hq, kq, _mean_longitude_from_plane(a, fq, gq, x_pl, y_pl, big_l)]


def eqx_to_cart(vals, mu, fast: FastVar):
    a, f, g, h, k, fastv = vals
    fhat, ghat = _eqx_frame(h, k)
    if fast is FastVar.TRUE_LONGITUDE:
        x_pl, y_pl, p, cl, sl = _plane_at_true_longitude(a, f, g, fastv)
        smup = sqrt(mu / p)
        xd = -smup * (g + sl)
        yd = smup * (f + cl)
    else:
        big_f = kepler_equinoctial_solve(fastv, f, g)
        x_pl, y_pl, cf, sf, b = _plane_at_ecc_longitude(a, f, g, big_f)
        n = sqrt(mu / (a * a * a))
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
    r, hvec, hmag, a, evec = _state_prefix(rv, mu)

    hxy2 = hvec[0] * hvec[0] + hvec[1] * hvec[1]
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
        x_pl, y_pl = _plane_at_ecc_longitude(a, f, g, big_f)[:2]
        new_fast = rebranch_near(atan2(y_pl, x_pl), fast)
    else:
        # true -> mean: the in-plane position at unit scale
        x_pl, y_pl = _plane_at_true_longitude(1.0, f, g, fast)[:2]
        new_fast = _mean_longitude_from_plane(1.0, f, g, x_pl, y_pl, fast)
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
