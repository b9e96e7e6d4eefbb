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

``osc_to_mean`` inverts any other theory by fixed point: propagate the current
mean guess to the target epoch, compare osculating elements, and add the
residual to the guess.  On polynomial states convergence is judged on the
constant part of the residual; the polynomial part contracts at the same
rate.  Stacked states and float columns are judged member by member: a
member that has converged keeps its mean while the others iterate on.
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
from .forces import RE_KM
from .generic import cons, cos, each, sin, sqrt
from .sgp4 import WGS72, GravityConstants, Sgp4
from .ta import DAVector, TaylorPoly

__all__ = [
    "KeplerJ2Theory", "Sgp4Theory", "MeanElements",
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


def _residual_norm(parts):
    """Euclidean norm of the constant parts: a float, or one per member.

    Members are normed one at a time, so each gets the bits of its lone
    norm and stops at the pass where it would stop alone.
    """
    if np.ndim(parts[0]) == 0:
        return float(np.linalg.norm(parts))
    return np.array([np.linalg.norm(col) for col in np.array(parts).T])


def _advance(value, delta, settled):
    """value + delta, except on the members that have settled."""
    new = value + delta
    if np.ndim(settled) == 0:
        return new
    if not isinstance(new, TaylorPoly):
        return np.where(settled, value, new)
    old = value.c if isinstance(value, TaylorPoly) else new.ctx.constant(value).c
    old = np.broadcast_to(old if old.ndim == 2 else old[:, None], new.c.shape)
    return TaylorPoly(new.ctx, np.where(settled, old, new.c), _trust=True)


def osc_to_mean(theory, epoch_s: float, cart_values, eps_max: float = 1e-10,
                i_max: int = 50) -> MeanElements:
    """Invert a theory: mean elements whose propagation to epoch reproduces
    the osculating cartesian state.

    The residual is formed element-wise in the theory's mean-element space,
    angle components wrapped to (-pi, pi], and added directly to the guess.
    Convergence is checked on the constant-part norm; for polynomial states
    the returned mean elements carry the full Taylor expansion.  Members of
    a stack (or rows of float columns) converge one by one: each keeps the
    mean at which its own residual first fell below ``eps_max``, which is the
    mean it would get alone.  A ``mean_is_osculating`` theory returns at once.
    """
    osc_target = theory.osc_extract(cart_values)
    mean = MeanElements(theory.name, epoch_s, list(osc_target))
    if theory.mean_is_osculating:
        return mean
    history = []
    for _ in range(i_max):
        cart_i = theory.propagate_mean(mean, epoch_s)
        osc_i = theory.osc_extract(cart_i)
        delta = [t - c for t, c in zip(osc_target, osc_i)]
        for j in theory.angle_indices:
            delta[j] = wrap_residual(delta[j])
        resid = _residual_norm([cons(d) for d in delta])
        history.append(resid)
        settled = resid < eps_max
        if np.all(settled):
            return mean
        mean = MeanElements(
            theory.name, epoch_s,
            [_advance(m, d, settled) for m, d in zip(mean.values, delta)],
            bstar=mean.bstar,
        )
    raise RuntimeError(
        f"mean-element inversion did not reach {eps_max:g} in {i_max} iterations "
        f"(residual history tail: {history[-3:]})"
    )


def lf_target(theory, t0_s: float, t_s: float, element_set: ElementSet, mu: float):
    """Map osculating elements at t0 to osculating elements at t through a theory.

    The returned callable converts to cartesian, inverts to mean elements at
    t0, propagates to t and re-extracts elements.  It accepts a DAVector or a
    plain 6-sequence.
    """

    def target(state):
        cart, _ = convert_values(list(state), element_set, CARTESIAN, mu)
        mean = osc_to_mean(theory, t0_s, cart)
        out, _ = convert_values(theory.propagate_mean(mean, t_s), CARTESIAN, element_set, mu)
        if isinstance(state, DAVector):
            return DAVector(out)
        return out

    return target
