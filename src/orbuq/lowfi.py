"""Low-fidelity analytical theories and the osculating-to-mean inversion.

A theory owns a mean-element space and a gravitational parameter, and
exposes a single propagation map from mean elements at epoch to
an osculating cartesian state at any requested time.  Two theories ship:

* ``KeplerJ2Theory`` - two-body motion plus first-order J2 secular drift,
  formulated on mean equinoctial elements so exactly-circular and
  exactly-equatorial orbits stay regular.  Mean elements coincide with the
  osculating ones at epoch (the theory carries no short-period terms), so the
  inversion is exact and propagates nothing.  Usable in every regime.

* ``Sgp4Theory`` - the near-Earth SGP4 model on TLE-style mean Keplerian
  elements (see :mod:`orbuq.sgp4`); limited to periods below 225 minutes.

``osc_to_mean`` inverts any other theory.  Floats and float columns go by
fixed point: propagate the mean guess to the target epoch, compare
osculating elements, and add the residual to the guess, each row of a
column until its own residual converges.  A polynomial state, lone or
stacked, converges its constant part the same way on float columns, then
inverts the map by chord-Newton on the nilpotent part with the exact
Jacobian at that point: every coefficient converges, at one propagation per
pass and ``order - 1`` passes.  Each theory object counts its propagations
in ``counts`` (``LfCounts``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .elements import (
    CARTESIAN,
    ElementSet,
    EQUINOCTIAL_LAM,
    KEPLERIAN,
    convert_values,
)
from .config import RE_KM
from .generic import cons, cos, each, sin, sqrt
from .sgp4 import WGS72, GravityConstants, Sgp4
from .ta import AlgebraContext, DAVector, TaylorPoly

__all__ = [
    "KeplerJ2Theory", "Sgp4Theory", "MeanElements", "LfCounts",
    "osc_to_mean", "lf_target", "wrap_residual",
]

_TWOPI = 2.0 * math.pi


@dataclass
class MeanElements:
    """Theory-specific mean element vector pinned to an epoch (s since J2000)."""

    theory: str
    epoch_s: float
    values: list
    bstar: float = 0.0

    def constant_values(self) -> np.ndarray:
        return np.array([cons(v) for v in self.values], dtype=np.float64)


@dataclass
class LfCounts:
    """Propagations one theory object has made.

    ``lf_da_propagations`` counts propagations of polynomial mean elements
    in the map's own algebra: the Newton passes of ``osc_to_mean`` and the
    forward propagations of ``lf_target`` and the TLE shift.  The order-1
    propagation that gives each polynomial inversion its Jacobian is not
    counted.  ``inversion_float_passes`` counts fixed-point passes on floats
    or float columns, one propagation each whatever the column width.
    """

    lf_da_propagations: int = 0
    inversion_float_passes: int = 0


def wrap_residual(delta):
    """Wrap an angle residual into (-pi, pi] by shifting its constant part."""
    return delta - _TWOPI * each(math.ceil, (cons(delta) - math.pi) / _TWOPI)


class KeplerJ2Theory:
    """Kepler motion with J2 secular drift of node, perigee and mean longitude.

    The mean semimajor axis, eccentricity magnitude and inclination are
    constants of the theory; (f, g) and (h, k) rotate at the secular perigee
    and node rates and the mean longitude advances at ``n + secular terms``.
    Setting ``j2 = 0`` reduces it to pure Kepler.
    """

    name = "kepler_j2"
    mean_set: ElementSet = EQUINOCTIAL_LAM
    angle_indices = (5,)
    mean_is_osculating = True  # no short-period terms: the inverse is the identity
    re_km = RE_KM  # equatorial radius that scales J2

    def __init__(self, mu: float = 398600.4355, j2: float = 1.08262668e-3):
        self.mu = mu
        self.j2 = j2
        self.counts = LfCounts()

    def secular_rates(self, a, f, g, h, k):
        """(raan_dot, argp_dot, mean_anomaly_dot) for the mean elements."""
        e2 = f * f + g * g
        ome2 = 1.0 - e2
        p = a * ome2
        n = sqrt(self.mu / (a * a * a))
        hk2 = h * h + k * k
        cosi = (1.0 - hk2) / (1.0 + hk2)
        fac = self.j2 * n * (self.re_km / p) ** 2
        raan_dot = -1.5 * fac * cosi
        argp_dot = 0.75 * fac * (5.0 * cosi * cosi - 1.0)
        m_dot = n + 0.75 * fac * sqrt(ome2) * (3.0 * cosi * cosi - 1.0)
        return raan_dot, argp_dot, m_dot

    def propagate_mean(self, mean: MeanElements, t_s: float):
        """Osculating-equals-mean cartesian state at t_s."""
        a, f, g, h, k, lam = mean.values
        dt = t_s - mean.epoch_s
        raan_dot, argp_dot, m_dot = self.secular_rates(a, f, g, h, k)
        th_fg = (raan_dot + argp_dot) * dt
        th_hk = raan_dot * dt
        cfg, sfg = cos(th_fg), sin(th_fg)
        chk, shk = cos(th_hk), sin(th_hk)
        vals = [
            a,
            f * cfg - g * sfg,
            f * sfg + g * cfg,
            h * chk - k * shk,
            h * shk + k * chk,
            lam + (raan_dot + argp_dot + m_dot) * dt,
        ]
        cart, _ = convert_values(vals, EQUINOCTIAL_LAM, CARTESIAN, self.mu)
        return cart

    def osc_extract(self, cart_values):
        vals, _ = convert_values(cart_values, CARTESIAN, EQUINOCTIAL_LAM, self.mu)
        return vals


class Sgp4Theory:
    """Near-Earth SGP4 behind the common theory interface.

    Mean elements are TLE-style Keplerian ``(a_kozai km, e, i, raan, argp, M)``
    where the Kozai mean motion is recovered as ``xke / (a/Re)^1.5``.  B* is
    the mean elements' own (0.0 unless read from a TLE), held during
    propagation and excluded from the inversion.
    """

    name = "sgp4"
    mean_set: ElementSet = KEPLERIAN
    angle_indices = (3, 4, 5)
    mean_is_osculating = False

    def __init__(self, grav: GravityConstants = WGS72):
        self.grav = grav
        self.mu = grav.mu
        self.counts = LfCounts()

    def propagate_mean(self, mean: MeanElements, t_s: float):
        a, ecc, incl, node, argp, mo = mean.values
        a_er = a / self.grav.radiusearthkm
        no_kozai = self.grav.xke / a_er**1.5
        model = Sgp4(no_kozai, ecc, incl, node, argp, mo, bstar=mean.bstar, grav=self.grav)
        return model.propagate((t_s - mean.epoch_s) / 60.0)

    def from_tle_record(self, rec, epoch_s: float) -> MeanElements:
        a_er = (self.grav.xke / rec.no_kozai) ** (2.0 / 3.0)
        return MeanElements(
            self.name,
            epoch_s,
            [
                a_er * self.grav.radiusearthkm,
                rec.ecco, rec.inclo, rec.nodeo, rec.argpo, rec.mo,
            ],
            bstar=rec.bstar,
        )

    def osc_extract(self, cart_values):
        vals, _ = convert_values(cart_values, CARTESIAN, KEPLERIAN, self.mu)
        return vals


def _residual(theory, epoch_s: float, osc_target, mean: list, rows) -> list:
    """The target's elements minus those of the mean propagated to epoch, on
    the given rows, angles wrapped to (-pi, pi]."""
    osc = theory.osc_extract(theory.propagate_mean(MeanElements(theory.name, epoch_s, mean),
                                                   epoch_s))
    return [wrap_residual(osc_target[j] - osc[j]) if j in theory.angle_indices
            else osc_target[j] - osc[j] for j in rows]


def _residual_norm(parts):
    """Euclidean norm of the residual: a float, or one per row of float columns.

    Rows are normed one at a time, so each gets the bits of its lone norm
    and stops at the pass where it would stop alone.
    """
    if np.ndim(parts[0]) == 0:
        return float(np.linalg.norm(parts))
    return np.array([np.linalg.norm(col) for col in np.array(parts).T])


def _fixed_point(theory, epoch_s: float, osc_target, eps_max: float, i_max: int) -> list:
    """Mean elements of floats or float columns by fixed point.

    Each pass propagates the mean guess to epoch and adds the wrapped
    element residual to it.  Rows of float columns converge one by one:
    each keeps the mean at which its own residual first fell below
    ``eps_max``.  A scalar element beside columns (the inclination and node
    of exactly equatorial columns) is widened to the column width first.
    """
    width = max((np.size(v) for v in osc_target if np.ndim(v)), default=0)
    if width:
        osc_target = [v if np.ndim(v) else np.full(width, v) for v in osc_target]
    mean = list(osc_target)
    history = []
    for _ in range(i_max):
        theory.counts.inversion_float_passes += 1
        delta = _residual(theory, epoch_s, osc_target, mean, range(6))
        resid = _residual_norm(delta)
        history.append(resid)
        settled = resid < eps_max
        if np.all(settled):
            return mean
        mean = [m + d if not width else np.where(settled, m, m + d)
                for m, d in zip(mean, delta)]
    raise RuntimeError(
        f"mean-element inversion did not reach {eps_max:g} in {i_max} iterations "
        f"(residual history tail: {history[-3:]})"
    )


def _apply(jinv, rows):
    """The live rows of J^-1 times a residual, one member's matrix per member.

    ``jinv`` is (n, n) for a lone polynomial and (B, n, n) for a stack; each
    product is summed in row order, so a member gets its lone bits.
    """
    out = []
    for a in range(len(rows)):
        acc = rows[0] * jinv[..., a, 0]
        for b in range(1, len(rows)):
            acc = acc + rows[b] * jinv[..., a, b]
        out.append(acc)
    return out


def _newton(theory, epoch_s: float, osc_target, eps_max: float, i_max: int) -> list:
    """Mean elements of a polynomial state by chord-Newton map inversion.

    The constant part converges by fixed point on float columns: one per
    member of a stack, and one of width 1 for a lone polynomial, so that a
    member has its lone bits.  The exact Jacobian J of ``osc_extract o
    propagate_mean`` at that point comes from one propagation in an order-1
    algebra, restricted to the live elements: the target rows with a nonzero
    non-constant coefficient in some member.  The others (inclination and
    node of an exactly equatorial state) keep their constant mean.  The
    start m* + J^-1 (T - T*) is exact to first order, and each of the
    ``order - 1`` passes m += J^-1 wrap(T - g(m)) resolves one more order
    (Berz, Modern Map Methods in Particle Beam Physics, 1999, ch. 2).  A
    singular live block raises ``numpy.linalg.LinAlgError``.
    """
    ctx = next(v.ctx for v in osc_target if isinstance(v, TaylorPoly))
    lone = all(not isinstance(v, TaylorPoly) or v.c.ndim == 1 for v in osc_target)
    const = [cons(v) for v in osc_target]
    const = _fixed_point(theory, epoch_s, [np.array([c]) for c in const] if lone else const,
                         eps_max, i_max)
    if lone:
        const = [float(v[0]) for v in const]
    live = [j for j, v in enumerate(osc_target)
            if isinstance(v, TaylorPoly) and v.c[1:].any()]
    mean = [ctx.constant(c) for c in const]
    if not live:
        return mean

    jet = AlgebraContext(1, 6)
    seeds = [jet.constant(c) + jet.variable(j + 1) if j in live else jet.constant(c)
             for j, c in enumerate(const)]
    g1 = theory.osc_extract(theory.propagate_mean(
        MeanElements(theory.name, epoch_s, seeds), epoch_s))
    jac = np.array([[g1[i].c[j + 1] for j in live] for i in live])
    jinv = np.linalg.inv(jac if lone else np.moveaxis(jac, -1, 0))

    for j, d in zip(live, _apply(jinv, [osc_target[j].nilpotent() for j in live])):
        mean[j] = mean[j] + d
    for _ in range(ctx.order - 1):
        theory.counts.lf_da_propagations += 1
        for j, d in zip(live, _apply(jinv, _residual(theory, epoch_s, osc_target, mean, live))):
            mean[j] = mean[j] + d
    return mean


def osc_to_mean(theory, epoch_s: float, cart_values, eps_max: float = 1e-10,
                i_max: int = 50) -> MeanElements:
    """Invert a theory: mean elements whose propagation to epoch reproduces
    the osculating cartesian state.

    Residuals are formed element-wise in the theory's mean-element space,
    angle components wrapped to (-pi, pi].  Floats and float columns are
    inverted by fixed point, stopped on the residual norm at ``eps_max``;
    rows of float columns converge one by one, each to the mean it would
    get alone.  A polynomial state, lone or stacked, is inverted by
    chord-Newton on its nilpotent part after the same fixed point on its
    constant part (``_newton``): every coefficient converges, at one
    propagation per pass beyond the first order.  A ``mean_is_osculating``
    theory returns the osculating elements at once.
    """
    osc_target = theory.osc_extract(cart_values)
    if theory.mean_is_osculating:
        return MeanElements(theory.name, epoch_s, list(osc_target))
    solve = _newton if any(isinstance(v, TaylorPoly) for v in osc_target) else _fixed_point
    return MeanElements(theory.name, epoch_s,
                        solve(theory, epoch_s, osc_target, eps_max, i_max))


def lf_target(theory, t0_s: float, t_s: float, element_set: ElementSet, mu: float):
    """Map osculating elements at t0 to osculating elements at t through a theory.

    The returned callable converts to cartesian, inverts to mean elements at
    t0, propagates to t and re-extracts elements.  It accepts a DAVector or a
    plain 6-sequence.
    """

    def target(state):
        cart, _ = convert_values(list(state), element_set, CARTESIAN, mu)
        mean = osc_to_mean(theory, t0_s, cart)
        poly = isinstance(state, DAVector)
        theory.counts.lf_da_propagations += poly
        out, _ = convert_values(theory.propagate_mean(mean, t_s), CARTESIAN, element_set, mu)
        return DAVector(out) if poly else out

    return target
