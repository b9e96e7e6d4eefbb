"""High-fidelity numerical propagation in cartesian and modified equinoctial form.

``propagate_hf`` advances cartesian states: float vectors, (N, 6) sample
batches (per-sample adaptive stepping) or polynomial states (replayed on the
accepted steps of a one-row float shadow, so their nominal is the float
run's).  All of them go through one right-hand side over (N, 6) arrays.
The modified equinoctial route integrates the Gauss variational equations
with the true longitude as fast variable and exists mainly to cross-check the
cartesian formulation; the multifidelity pipeline always corrects kernels in
cartesian space.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .elements import CARTESIAN, MEE_L, convert_values
from .config import ForceConfig, IntegratorConfig, SpacecraftParams
from .forces import acceleration
from .generic import branch, cons, cos, cross3, dot3, is_poly, norm3, sin, sqrt
from .integrate import integrate_batch, integrate_da, integrate_single
from .ta import DAVector

__all__ = [
    "make_cartesian_rhs", "propagate_hf", "gauss_equations_mee",
    "propagate_hf_mee",
]


def make_cartesian_rhs(cfg: ForceConfig, sc: SpacecraftParams):
    """State derivative (r, v) -> (v, a) of (N,) times and (N, 6) states.

    The states are floats, or an object array of polynomials in DA mode.  A
    one-row call is evaluated on that row's scalars, which each force term
    runs on Python floats with the bits of the row in a batch (a polynomial
    row goes through gravity as one-element object columns).  Numpy's
    overhead on (1,) arrays would cost several times the arithmetic.  The
    integrator passes only the active rows, so this also serves the last
    row of a larger batch.
    """

    def rhs(t, y):
        if y.shape[0] == 1:
            row = y[0].tolist()
            acc = acceleration(float(t[0]), row[:3], row[3:], cfg, sc)
            if y.dtype != object:
                return np.array([row[3:] + acc])
        else:
            acc = acceleration(t, [y[:, 0], y[:, 1], y[:, 2]],
                               [y[:, 3], y[:, 4], y[:, 5]], cfg, sc)
        out = np.empty_like(y)
        out[:, 0:3] = y[:, 3:6]
        for j in range(3):
            out[:, 3 + j] = acc[j]
        return out

    return rhs


def propagate_hf(state, t0_s: float, t_s: float,
                 cfg: ForceConfig | None = None,
                 icfg: IntegratorConfig | None = None,
                 sc: SpacecraftParams | None = None):
    """Propagate cartesian state(s) from t0_s to t_s (seconds since J2000).

    ``state`` may be a 6-vector, an (N, 6) batch, a DAVector or a list of six
    polynomials; the return value matches the input container.  Integration
    runs in time relative to t0_s so step arithmetic keeps full precision at
    large absolute epochs; the force models see absolute time.
    """
    cfg = cfg or ForceConfig()
    icfg = icfg or IntegratorConfig()
    sc = sc or SpacecraftParams()
    base = make_cartesian_rhs(cfg, sc)

    def rhs(tau, y):
        return base(t0_s + tau, y)

    span = t_s - t0_s
    if isinstance(state, DAVector):
        return DAVector(integrate_da(rhs, 0.0, list(state), span, icfg))
    if isinstance(state, (list, tuple)) and any(is_poly(v) for v in state):
        # float entries are exact constants of the expansion
        ctx = next(v.ctx for v in state if is_poly(v))
        polys = [v if is_poly(v) else ctx.constant(v) for v in state]
        return integrate_da(rhs, 0.0, polys, span, icfg)
    arr = np.asarray(state, dtype=np.float64)
    if arr.ndim == 1:
        # a single state is the one-row batch that also steers DA propagation
        return integrate_single(rhs, 0.0, arr, span, icfg)
    return integrate_batch(rhs, 0.0, arr, span, icfg)


# -- modified equinoctial formulation ---------------------------------------------


def gauss_equations_mee(mee_values, accel_rsw, mu: float):
    """Variational rates of (p, f, g, h, k, L) under an RSW-frame acceleration.

    ``accel_rsw`` is (radial, transverse, normal) in km/s^2.  With zero
    perturbation every rate vanishes except the true-longitude rate
    ``sqrt(mu p) (w/p)^2``.
    """
    p, f, g, h, k, big_l = mee_values
    a_r, a_t, a_n = accel_rsw
    if branch(cons(p) <= 0.0):
        raise ValueError("semilatus rectum must be positive")
    cl, sl = cos(big_l), sin(big_l)
    w = 1.0 + f * cl + g * sl
    if branch(cons(w) <= 0.0):
        raise ValueError("geometry violation: 1 + f cosL + g sinL <= 0")
    s2 = 1.0 + h * h + k * k
    sqp = sqrt(p / mu)
    hs_ks = h * sl - k * cl
    dp = 2.0 * p / w * sqp * a_t
    df = sqp * (a_r * sl + ((w + 1.0) * cl + f) * a_t / w - g * hs_ks * a_n / w)
    dg = sqp * (-a_r * cl + ((w + 1.0) * sl + g) * a_t / w + f * hs_ks * a_n / w)
    dh = sqp * s2 * a_n * cl / (2.0 * w)
    dk = sqp * s2 * a_n * sl / (2.0 * w)
    dl = sqrt(mu * p) * (w / p) ** 2 + sqp * hs_ks * a_n / w
    return [dp, df, dg, dh, dk, dl]


def make_mee_rhs(cfg: ForceConfig, sc: SpacecraftParams, mu: float):
    """Scalar-mode MEE state derivative (row-wise; used for cross-checks)."""

    def rhs(t, y):
        out = np.empty_like(y)
        for row in range(y.shape[0]):
            mee = [float(v) for v in y[row]]
            cart, _ = convert_values(mee, MEE_L, CARTESIAN, mu)
            r3, v3 = cart[:3], cart[3:]
            acc = acceleration(float(t[row]), r3, v3, cfg, sc)
            rmag = norm3(r3)
            fac = mu / (rmag * rmag * rmag)
            pert = [acc[j] + fac * r3[j] for j in range(3)]
            rhat = [r3[j] / rmag for j in range(3)]
            hvec = cross3(r3, v3)
            hmag = norm3(hvec)
            what = [hvec[j] / hmag for j in range(3)]
            shat = cross3(what, rhat)
            a_rsw = [dot3(pert, rhat), dot3(pert, shat), dot3(pert, what)]
            out[row] = gauss_equations_mee(mee, a_rsw, mu)
        return out

    return rhs


def propagate_hf_mee(mee_state: Sequence[float], t0_s: float, t_s: float,
                     cfg: ForceConfig | None = None,
                     icfg: IntegratorConfig | None = None,
                     sc: SpacecraftParams | None = None,
                     mu: float | None = None) -> np.ndarray:
    """Propagate a single (p, f, g, h, k, L) state through the Gauss equations."""
    cfg = cfg or ForceConfig()
    icfg = icfg or IntegratorConfig()
    sc = sc or SpacecraftParams()
    mu = mu if mu is not None else cfg.mu
    base = make_mee_rhs(cfg, sc, mu)

    def rhs(tau, y):
        return base(t0_s + tau, y)

    return integrate_batch(rhs, 0.0, np.asarray(mee_state, dtype=np.float64),
                           t_s - t0_s, icfg)
