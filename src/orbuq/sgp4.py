"""Near-Earth SGP4 analytical theory, generic over the algebra, plus TLE text I/O.

The model follows the standard Spacetrack/Vallado formulation (WGS-72
constants by convention).  Mean elements are intrinsic to the theory: feeding
it osculating elements directly produces biased trajectories, which is why the
fixed-point inversion in :mod:`orbuq.lowfi` exists.

Because initialization and evaluation are plain algebraic recurrences, both
accept :class:`~orbuq.ta.TaylorPoly` elements: the result is then the Taylor
expansion of the TEME state with respect to mean-element deviations, or of
one state per member when the elements are stacks.  All value-dependent
branches (perigee regimes, small-eccentricity guards, range errors) decide on
constant parts through :func:`~orbuq.generic.branch`, and the Kepler stop
rule runs on each member's floats.

Deep-space corrections (orbital period >= 225 min) are not implemented; the
initializer rejects such orbits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .generic import absval, atan2, branch, cons, cos, each, is_poly, sin, sqrt
from .timeutil import jday_from_civil

__all__ = ["GravityConstants", "WGS72", "WGS84", "Sgp4", "Sgp4Error",
           "TleRecord", "parse_tle", "format_tle"]

TWOPI = 2.0 * math.pi
X2O3 = 2.0 / 3.0
MIN_PER_DAY = 1440.0


class Sgp4Error(RuntimeError):
    """Theory-domain violation: decayed orbit, eccentricity out of range, ..."""


@dataclass(frozen=True)
class GravityConstants:
    mu: float              # km^3/s^2
    radiusearthkm: float
    xke: float             # sqrt(mu) in earth-radii^1.5 / min
    j2: float
    j3: float
    j4: float

    @property
    def tumin(self) -> float:
        return 1.0 / self.xke

    @property
    def j3oj2(self) -> float:
        return self.j3 / self.j2


WGS72 = GravityConstants(
    mu=398600.8,
    radiusearthkm=6378.135,
    xke=60.0 / math.sqrt(6378.135**3 / 398600.8),
    j2=0.001082616,
    j3=-0.00000253881,
    j4=-0.00000165597,
)

WGS84 = GravityConstants(
    mu=398600.5,
    radiusearthkm=6378.137,
    xke=60.0 / math.sqrt(6378.137**3 / 398600.5),
    j2=0.00108262998905,
    j3=-0.00000253215306,
    j4=-0.00000161098761,
)


def _fmod2p(x):
    """Shift by whole turns so the constant part lies in [0, 2*pi)."""
    return x - TWOPI * each(math.floor, cons(x) / TWOPI)


def _kepler_constant(ubar: float, axbar: float, aybar: float) -> float:
    """Eccentric longitude of Kepler's equation on constant parts (Vallado's stop rule)."""
    eo1 = ubar
    tem5 = 9999.9
    ktr = 1
    while abs(tem5) >= 1.0e-12 and ktr <= 10:
        sineo1 = math.sin(eo1)
        coseo1 = math.cos(eo1)
        tem5 = 1.0 - coseo1 * axbar - sineo1 * aybar
        tem5 = (ubar - aybar * coseo1 + axbar * sineo1 - eo1) / tem5
        if abs(tem5) >= 0.95:
            tem5 = 0.95 if tem5 > 0.0 else -0.95
        eo1 = eo1 + tem5
        ktr += 1
    return eo1


class Sgp4:
    """One initialized near-Earth SGP4 satellite.

    Parameters are the TLE-style mean elements at epoch: Kozai mean motion
    ``no_kozai`` (rad/min), eccentricity, inclination, RAAN, argument of
    perigee, mean anomaly (rad) and the B* drag term (1/earth-radii).  Any of
    the six elements may be a polynomial.
    """

    def __init__(self, no_kozai, ecco, inclo, nodeo, argpo, mo,
                 bstar: float = 0.0, grav: GravityConstants = WGS72):
        g = grav
        self.grav = g
        self.no_kozai = no_kozai
        self.ecco = ecco
        self.inclo = inclo
        self.nodeo = nodeo
        self.argpo = argpo
        self.mo = mo
        self.bstar = bstar

        if branch(cons(ecco) >= 1.0) or branch(cons(ecco) < 0.0):
            raise Sgp4Error(f"mean eccentricity {cons(ecco)} outside [0, 1)")
        if branch(cons(no_kozai) <= 0.0):
            raise Sgp4Error("mean motion must be positive")

        eccsq = ecco * ecco
        omeosq = 1.0 - eccsq
        rteosq = sqrt(omeosq)
        cosio = cos(inclo)
        cosio2 = cosio * cosio

        # un-kozai the mean motion
        ak = (g.xke / no_kozai) ** X2O3
        d1 = 0.75 * g.j2 * (3.0 * cosio2 - 1.0) / (rteosq * omeosq)
        del_ = d1 / (ak * ak)
        adel = ak * (1.0 - del_ * del_ - del_ * (1.0 / 3.0 + 134.0 * del_ * del_ / 81.0))
        del_ = d1 / (adel * adel)
        no_unkozai = no_kozai / (1.0 + del_)

        if branch(TWOPI / cons(no_unkozai) >= 225.0):
            raise Sgp4Error(
                "orbital period >= 225 min needs the deep-space theory, "
                "which this model does not include"
            )

        ao = (g.xke / no_unkozai) ** X2O3
        sinio = sin(inclo)
        po = ao * omeosq
        con42 = 1.0 - 5.0 * cosio2
        self.con41 = -con42 - cosio2 - cosio2
        posq = po * po
        rp = ao * (1.0 - ecco)
        self.no_unkozai = no_unkozai

        ss = 78.0 / g.radiusearthkm + 1.0
        qzms2ttemp = (120.0 - 78.0) / g.radiusearthkm
        qzms2t = qzms2ttemp**4

        self.isimp = 0
        if branch(cons(rp) < 220.0 / g.radiusearthkm + 1.0):
            self.isimp = 1
        sfour = ss
        qzms24 = qzms2t
        perige = (rp - 1.0) * g.radiusearthkm

        if branch(cons(perige) < 156.0):
            sfour = perige - 78.0
            if branch(cons(perige) < 98.0):
                sfour = 20.0
            qzms24temp = (120.0 - sfour) / g.radiusearthkm
            qzms24 = qzms24temp * qzms24temp * qzms24temp * qzms24temp
            sfour = sfour / g.radiusearthkm + 1.0

        pinvsq = 1.0 / posq
        tsi = 1.0 / (ao - sfour)
        self.eta = ao * ecco * tsi
        etasq = self.eta * self.eta
        eeta = ecco * self.eta
        psisq = absval(1.0 - etasq)
        coef = qzms24 * tsi**4
        coef1 = coef / psisq**3.5
        cc2 = coef1 * no_unkozai * (
            ao * (1.0 + 1.5 * etasq + eeta * (4.0 + etasq))
            + 0.375 * g.j2 * tsi / psisq * self.con41
            * (8.0 + 3.0 * etasq * (8.0 + etasq))
        )
        self.cc1 = bstar * cc2
        cc3 = 0.0
        if branch(cons(ecco) > 1.0e-4):
            cc3 = -2.0 * coef * tsi * g.j3oj2 * no_unkozai * sinio / ecco
        self.x1mth2 = 1.0 - cosio2
        self.cc4 = 2.0 * no_unkozai * coef1 * ao * omeosq * (
            self.eta * (2.0 + 0.5 * etasq)
            + ecco * (0.5 + 2.0 * etasq)
            - g.j2 * tsi / (ao * psisq)
            * (
                -3.0 * self.con41 * (1.0 - 2.0 * eeta + etasq * (1.5 - 0.5 * eeta))
                + 0.75 * self.x1mth2 * (2.0 * etasq - eeta * (1.0 + etasq))
                * cos(2.0 * argpo)
            )
        )
        self.cc5 = 2.0 * coef1 * ao * omeosq * (1.0 + 2.75 * (etasq + eeta) + eeta * etasq)
        cosio4 = cosio2 * cosio2
        temp1 = 1.5 * g.j2 * pinvsq * no_unkozai
        temp2 = 0.5 * temp1 * g.j2 * pinvsq
        temp3 = -0.46875 * g.j4 * pinvsq * pinvsq * no_unkozai
        self.mdot = (
            no_unkozai
            + 0.5 * temp1 * rteosq * self.con41
            + 0.0625 * temp2 * rteosq * (13.0 - 78.0 * cosio2 + 137.0 * cosio4)
        )
        self.argpdot = (
            -0.5 * temp1 * con42
            + 0.0625 * temp2 * (7.0 - 114.0 * cosio2 + 395.0 * cosio4)
            + temp3 * (3.0 - 36.0 * cosio2 + 49.0 * cosio4)
        )
        xhdot1 = -temp1 * cosio
        self.nodedot = xhdot1 + (
            0.5 * temp2 * (4.0 - 19.0 * cosio2) + 2.0 * temp3 * (3.0 - 7.0 * cosio2)
        ) * cosio
        self.omgcof = bstar * cc3 * cos(argpo)
        self.xmcof = 0.0
        if branch(cons(ecco) > 1.0e-4):
            self.xmcof = -X2O3 * coef * bstar / eeta
        self.nodecf = 3.5 * omeosq * xhdot1 * self.cc1
        self.t2cof = 1.5 * self.cc1
        if branch(abs(cons(cosio) + 1.0) > 1.5e-12):
            self.xlcof = -0.25 * g.j3oj2 * sinio * (3.0 + 5.0 * cosio) / (1.0 + cosio)
        else:
            self.xlcof = -0.25 * g.j3oj2 * sinio * (3.0 + 5.0 * cosio) / 1.5e-12
        self.aycof = -0.5 * g.j3oj2 * sinio
        delmotemp = 1.0 + self.eta * cos(mo)
        self.delmo = delmotemp * delmotemp * delmotemp
        self.sinmao = sin(mo)
        self.x7thm1 = 7.0 * cosio2 - 1.0

        self.d2 = self.d3 = self.d4 = 0.0
        self.t3cof = self.t4cof = self.t5cof = 0.0
        if self.isimp != 1:
            cc1sq = self.cc1 * self.cc1
            self.d2 = 4.0 * ao * tsi * cc1sq
            temp = self.d2 * tsi * self.cc1 / 3.0
            self.d3 = (17.0 * ao + sfour) * temp
            self.d4 = 0.5 * temp * ao * tsi * (221.0 * ao + 31.0 * sfour) * self.cc1
            self.t3cof = self.d2 + 2.0 * cc1sq
            self.t4cof = 0.25 * (3.0 * self.d3 + self.cc1 * (12.0 * self.d2 + 10.0 * cc1sq))
            self.t5cof = 0.2 * (
                3.0 * self.d4
                + 12.0 * self.cc1 * self.d3
                + 6.0 * self.d2 * self.d2
                + 15.0 * cc1sq * (2.0 * self.d2 + cc1sq)
            )

    # -- propagation ---------------------------------------------------------

    def propagate(self, tsince):
        """TEME state (x, y, z, vx, vy, vz) in km, km/s at tsince minutes."""
        g = self.grav
        vkmpersec = g.radiusearthkm * g.xke / 60.0
        t = tsince

        xmdf = self.mo + self.mdot * t
        argpdf = self.argpo + self.argpdot * t
        nodedf = self.nodeo + self.nodedot * t
        argpm = argpdf
        mm = xmdf
        t2 = t * t
        nodem = nodedf + self.nodecf * t2
        tempa = 1.0 - self.cc1 * t
        tempe = self.bstar * self.cc4 * t
        templ = self.t2cof * t2

        if self.isimp != 1:
            delomg = self.omgcof * t
            delmtemp = 1.0 + self.eta * cos(xmdf)
            delm = self.xmcof * (delmtemp * delmtemp * delmtemp - self.delmo)
            temp = delomg + delm
            mm = xmdf + temp
            argpm = argpdf - temp
            t3 = t2 * t
            t4 = t3 * t
            tempa = tempa - self.d2 * t2 - self.d3 * t3 - self.d4 * t4
            tempe = tempe + self.bstar * self.cc5 * (sin(mm) - self.sinmao)
            templ = templ + self.t3cof * t3 + t4 * (self.t4cof + t * self.t5cof)

        nm = self.no_unkozai
        em = self.ecco
        inclm = self.inclo

        am = (g.xke / nm) ** X2O3 * tempa * tempa
        nm = g.xke / am**1.5
        em = em - tempe

        if branch(cons(em) >= 1.0) or branch(cons(em) < -0.001):
            raise Sgp4Error(f"mean eccentricity {cons(em)} drifted outside [0, 1)")
        if branch(cons(em) < 1.0e-6):
            em = em - cons(em) + 1.0e-6 if is_poly(em) else 1.0e-6
        mm = mm + self.no_unkozai * templ
        xlm = mm + argpm + nodem

        nodem = _fmod2p(nodem)
        argpm = _fmod2p(argpm)
        xlm = _fmod2p(xlm)
        mm = _fmod2p(xlm - argpm - nodem)

        sinim = sin(inclm)
        cosim = cos(inclm)

        ep = em
        xincp = inclm
        argpp = argpm
        nodep = nodem
        mp = mm
        sinip = sinim
        cosip = cosim

        axnl = ep * cos(argpp)
        temp = 1.0 / (am * (1.0 - ep * ep))
        aynl = ep * sin(argpp) + temp * self.aycof
        xl = mp + argpp + nodep + temp * self.xlcof * axnl

        # Kepler's equation on the constant part, then polynomial refinement
        u = _fmod2p(xl - nodep)
        ubar = cons(u)
        axbar, aybar = cons(axnl), cons(aynl)
        eo1 = each(_kepler_constant, ubar, axbar, aybar)
        if is_poly(u) or is_poly(axnl) or is_poly(aynl):
            ctx = next(q.ctx for q in (u, axnl, aynl) if is_poly(q))
            ee = ctx.constant(eo1)
            up = u if is_poly(u) else ctx.constant(ubar)
            ax = axnl if is_poly(axnl) else ctx.constant(axbar)
            ay = aynl if is_poly(aynl) else ctx.constant(aybar)
            for _ in range(max(2, ctx.order.bit_length() + 1)):
                se, ce = sin(ee), cos(ee)
                ee = ee + (up - ay * ce + ax * se - ee) / (1.0 - ce * ax - se * ay)
            eo1 = ee
            sineo1, coseo1 = sin(eo1), cos(eo1)
        else:
            sineo1, coseo1 = math.sin(eo1), math.cos(eo1)

        ecose = axnl * coseo1 + aynl * sineo1
        esine = axnl * sineo1 - aynl * coseo1
        el2 = axnl * axnl + aynl * aynl
        pl = am * (1.0 - el2)
        if branch(cons(pl) < 0.0):
            raise Sgp4Error(f"semilatus rectum {cons(pl)} is negative")

        rl = am * (1.0 - ecose)
        rdotl = sqrt(am) * esine / rl
        rvdotl = sqrt(pl) / rl
        betal = sqrt(1.0 - el2)
        temp = esine / (1.0 + betal)
        sinu = am / rl * (sineo1 - aynl - axnl * temp)
        cosu = am / rl * (coseo1 - axnl + aynl * temp)
        su = atan2(sinu, cosu)
        sin2u = (cosu + cosu) * sinu
        cos2u = 1.0 - 2.0 * sinu * sinu
        temp = 1.0 / pl
        temp1 = 0.5 * g.j2 * temp
        temp2 = temp1 * temp

        mrt = rl * (1.0 - 1.5 * temp2 * betal * self.con41) + 0.5 * temp1 * self.x1mth2 * cos2u
        su = su - 0.25 * temp2 * self.x7thm1 * sin2u
        xnode = nodep + 1.5 * temp2 * cosip * sin2u
        xinc = xincp + 1.5 * temp2 * cosip * sinip * cos2u
        mvt = rdotl - nm * temp1 * self.x1mth2 * sin2u / g.xke
        rvdot = rvdotl + nm * temp1 * (self.x1mth2 * cos2u + 1.5 * self.con41) / g.xke

        sinsu = sin(su)
        cossu = cos(su)
        snod = sin(xnode)
        cnod = cos(xnode)
        sini = sin(xinc)
        cosi = cos(xinc)
        xmx = -snod * cosi
        xmy = cnod * cosi
        ux = xmx * sinsu + cnod * cossu
        uy = xmy * sinsu + snod * cossu
        uz = sini * sinsu
        vx = xmx * cossu - cnod * sinsu
        vy = xmy * cossu - snod * sinsu
        vz = sini * cossu

        if branch(cons(mrt) < 1.0):
            raise Sgp4Error("satellite has decayed (radius below the Earth surface)")

        mr = mrt * g.radiusearthkm
        return [
            mr * ux,
            mr * uy,
            mr * uz,
            (mvt * ux + rvdot * vx) * vkmpersec,
            (mvt * uy + rvdot * vy) * vkmpersec,
            (mvt * uz + rvdot * vz) * vkmpersec,
        ]


# -- TLE text format -------------------------------------------------------------


@dataclass
class TleRecord:
    """Parsed two-line element set (angles in rad, mean motion in rad/min)."""

    satnum: int
    epoch_jd: float
    no_kozai: float
    ecco: float
    inclo: float
    nodeo: float
    argpo: float
    mo: float
    bstar: float
    ndot: float = 0.0
    nddot: float = 0.0
    classification: str = "U"
    intl_desig: str = ""
    elset_num: int = 0
    rev_num: int = 0

    def to_sgp4(self, grav: GravityConstants = WGS72) -> Sgp4:
        return Sgp4(
            self.no_kozai, self.ecco, self.inclo, self.nodeo, self.argpo,
            self.mo, bstar=self.bstar, grav=grav,
        )


def _tle_checksum(line: str) -> int:
    total = 0
    for ch in line[:68]:
        if ch.isdigit():
            total += int(ch)
        elif ch == "-":
            total += 1
    return total % 10


def _parse_exp_field(text: str) -> float:
    """Fields like ' 28098-4' meaning 0.28098e-4."""
    text = text.strip()
    if not text or set(text) <= {"0", "+", "-", " "}:
        return 0.0
    sign = -1.0 if text[0] == "-" else 1.0
    body = text[1:] if text[0] in "+-" else text
    mantissa = body[:-2]
    exponent = body[-2:]
    return sign * float(f"0.{mantissa}") * 10.0 ** int(exponent.replace("+", ""))


def _format_exp_field(value: float) -> str:
    if value == 0.0:
        return " 00000+0"
    sign = "-" if value < 0 else " "
    v = abs(value)
    exp = int(math.floor(math.log10(v))) + 1
    mant = v / 10.0**exp
    mant_digits = round(mant * 1e5)
    if mant_digits == 100000:
        mant_digits = 10000
        exp += 1
    esign = "+" if exp >= 0 else "-"
    return f"{sign}{mant_digits:05d}{esign}{abs(exp)}"


def parse_tle(line1: str, line2: str) -> TleRecord:
    """Parse a checksummed 69-column TLE pair."""
    for ln, line in (("1", line1), ("2", line2)):
        if len(line.rstrip()) < 69:
            raise ValueError(f"TLE line {ln} shorter than 69 columns")
        if line[0] != ln:
            raise ValueError(f"TLE line {ln} has wrong line number {line[0]!r}")
        if int(line[68]) != _tle_checksum(line):
            raise ValueError(f"TLE line {ln} checksum mismatch")
    satnum = int(line1[2:7])
    if int(line2[2:7]) != satnum:
        raise ValueError("TLE lines reference different satellites")

    yy = int(line1[18:20])
    year = yy + (1900 if yy >= 57 else 2000)
    doy = float(line1[20:32])
    epoch_jd = jday_from_civil(year, 1, 1) + (doy - 1.0)

    ndot = float(line1[33:43]) * TWOPI / (MIN_PER_DAY**2)
    nddot = _parse_exp_field(line1[44:52]) * TWOPI / (MIN_PER_DAY**3)
    bstar = _parse_exp_field(line1[53:61])

    deg = math.pi / 180.0
    inclo = float(line2[8:16]) * deg
    nodeo = float(line2[17:25]) * deg
    ecco = float(f"0.{line2[26:33].strip()}")
    argpo = float(line2[34:42]) * deg
    mo = float(line2[43:51]) * deg
    no_kozai = float(line2[52:63]) * TWOPI / MIN_PER_DAY

    return TleRecord(
        satnum=satnum,
        epoch_jd=epoch_jd,
        no_kozai=no_kozai,
        ecco=ecco,
        inclo=inclo,
        nodeo=nodeo,
        argpo=argpo,
        mo=mo,
        bstar=bstar,
        ndot=ndot,
        nddot=nddot,
        classification=line1[7],
        intl_desig=line1[9:17].strip(),
        elset_num=int(line1[64:68].strip() or 0),
        rev_num=int(line2[63:68].strip() or 0),
    )


def format_tle(rec: TleRecord) -> tuple[str, str]:
    """Write a record back to checksummed TLE lines."""
    jd0 = rec.epoch_jd
    # recover civil year by scanning nearby year starts
    year = int((jd0 - 1721013.5) / 365.25)
    while jday_from_civil(year + 1, 1, 1) <= jd0:
        year += 1
    while jday_from_civil(year, 1, 1) > jd0:
        year -= 1
    doy = jd0 - jday_from_civil(year, 1, 1) + 1.0
    yy = year % 100

    ndot_rev = rec.ndot * MIN_PER_DAY**2 / TWOPI
    ndot_str = f"{'-' if ndot_rev < 0 else ' '}.{round(abs(ndot_rev) * 1e8):08d}"
    line1 = (
        f"1 {rec.satnum:05d}{rec.classification} {rec.intl_desig:<8s} "
        f"{yy:02d}{doy:012.8f} {ndot_str} "
        f"{_format_exp_field(rec.nddot * MIN_PER_DAY**3 / TWOPI)} "
        f"{_format_exp_field(rec.bstar)} 0 {rec.elset_num:4d}"
    )
    line1 = line1 + str(_tle_checksum(line1))

    rad2deg = 180.0 / math.pi
    ecc_str = f"{rec.ecco:.7f}"[2:]
    line2 = (
        f"2 {rec.satnum:05d} {rec.inclo * rad2deg:8.4f} {rec.nodeo * rad2deg:8.4f} "
        f"{ecc_str} {rec.argpo * rad2deg:8.4f} {rec.mo * rad2deg:8.4f} "
        f"{rec.no_kozai * MIN_PER_DAY / TWOPI:11.8f}{rec.rev_num:5d}"
    )
    line2 = line2 + str(_tle_checksum(line2))
    return line1, line2
