"""Embedded adaptive Runge-Kutta integration for float batches and DA states.

The default pair is the 13-stage Dormand-Prince 8(5,3) scheme with its
combined fifth/third-order error estimate; the classic 5(4) pair is available
as a fallback.  Tableau constants are the published Hairer coefficients.

Three operating modes share the stepping logic:

* batch - states of shape (N, d) advance with *per-sample* time, step size
  and accept/reject decisions.  Every arithmetic stream is element-wise, so a
  sample's trajectory is bit-identical regardless of how the batch is chunked
  (thread-count invariance) and a single state is just N = 1.

* DA - a polynomial state advances alongside a float shadow copy of its
  constant part; the shadow alone drives step control, so the accepted step
  sequence is exactly the one a plain float run of the nominal state produces.
  Polynomial stages are only evaluated on accepted steps.

* fixed-step - no error control, used for order verification.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

__all__ = ["IntegratorConfig", "integrate_batch", "integrate_da",
           "integrate_single", "integrate_fixed"]

_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 10.0
# |error / scale| below _ROOT_MAX / d keeps a d-term sum of squares, times d,
# finite in float64
_ROOT_MAX = 0.5 * math.sqrt(np.finfo(np.float64).max)


class _Dp8:
    """Dormand-Prince 8(5,3): 12 propagating stages + the new-point stage."""

    n_stages = 12
    error_exponent = -1.0 / 8.0

    c = np.array([
        0.0, 0.05260015195876773, 0.0789002279381516, 0.1183503419072274,
        0.2816496580927726, 0.3333333333333333, 0.25, 0.3076923076923077,
        0.6512820512820513, 0.6, 0.8571428571428571, 1.0,
    ])
    a_rows = [
        [],
        [0.05260015195876773],
        [0.0197250569845379, 0.0591751709536137],
        [0.02958758547680685, 0.0, 0.08876275643042054],
        [0.2413651341592667, 0.0, -0.8845494793282861, 0.924834003261792],
        [0.037037037037037035, 0.0, 0.0, 0.17082860872947386, 0.12546768756682242],
        [0.037109375, 0.0, 0.0, 0.17025221101954405, 0.06021653898045596,
         -0.017578125],
        [0.03709200011850479, 0.0, 0.0, 0.17038392571223998, 0.10726203044637328,
         -0.015319437748624402, 0.008273789163814023],
        [0.6241109587160757, 0.0, 0.0, -3.3608926294469414, -0.868219346841726,
         27.59209969944671, 20.154067550477894, -43.48988418106996],
        [0.47766253643826434, 0.0, 0.0, -2.4881146199716677, -0.590290826836843,
         21.230051448181193, 15.279233632882423, -33.28821096898486,
         -0.020331201708508627],
        [-0.9371424300859873, 0.0, 0.0, 5.186372428844064, 1.0914373489967295,
         -8.149787010746927, -18.52006565999696, 22.739487099350505,
         2.4936055526796523, -3.0467644718982196],
        [2.273310147516538, 0.0, 0.0, -10.53449546673725, -2.0008720582248625,
         -17.9589318631188, 27.94888452941996, -2.8589982771350235,
         -8.87285693353063, 12.360567175794303, 0.6433927460157636],
    ]
    b = np.array([
        0.054293734116568765, 0.0, 0.0, 0.0, 0.0, 4.450312892752409,
        1.8915178993145003, -5.801203960010585, 0.3111643669578199,
        -0.1521609496625161, 0.20136540080403034, 0.04471061572777259,
    ])
    e3 = np.array([
        -0.18980075407240762, 0.0, 0.0, 0.0, 0.0, 4.450312892752409,
        1.8915178993145003, -5.801203960010585, -0.4226823213237919,
        -0.1521609496625161, 0.20136540080403034, 0.02265179219836082, 0.0,
    ])
    e5 = np.array([
        0.01312004499419488, 0.0, 0.0, 0.0, 0.0, -1.2251564463762044,
        -0.4957589496572502, 1.6643771824549864, -0.35032884874997366,
        0.3341791187130175, 0.08192320648511571, -0.022355307863886294, 0.0,
    ])

    @classmethod
    def error_norm(cls, big_k, h_abs, scale):
        """Combined 5th/3rd-order estimate, per sample (axes: stage, ..., comp)."""
        err5 = np.tensordot(cls.e5, big_k, axes=(0, 0)) / scale
        err3 = np.tensordot(cls.e3, big_k, axes=(0, 0)) / scale
        e5sq = np.sum(err5 * err5, axis=-1)
        e3sq = np.sum(err3 * err3, axis=-1)
        denom = e5sq + 0.01 * e3sq
        denom = np.where(denom > 0.0, denom, 1.0)
        ncomp = big_k.shape[-1]
        return h_abs * e5sq / np.sqrt(denom * ncomp)


class _Dp5:
    """Classic Dormand-Prince 5(4): 6 propagating stages + the new-point stage."""

    n_stages = 6
    error_exponent = -1.0 / 5.0

    c = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0])
    a_rows = [
        [],
        [1 / 5],
        [3 / 40, 9 / 40],
        [44 / 45, -56 / 15, 32 / 9],
        [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729],
        [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656],
    ]
    b = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84])
    e = np.array([
        71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40,
    ])

    @classmethod
    def error_norm(cls, big_k, h_abs, scale):
        err = np.tensordot(cls.e, big_k, axes=(0, 0)) / scale
        ncomp = big_k.shape[-1]
        return h_abs * np.sqrt(np.sum(err * err, axis=-1) / ncomp)


_TABLEAUS = {"dp8": _Dp8, "dp5": _Dp5}


@dataclass(frozen=True)
class IntegratorConfig:
    tableau: str = "dp8"
    abs_tol: float = 1e-12
    rel_tol: float = 1e-12
    min_step: float = 1e-8     # s
    max_step: float = math.inf

    def __post_init__(self):
        if self.abs_tol <= 0 or self.rel_tol <= 0:
            raise ValueError("tolerances must be positive")
        if self.tableau not in _TABLEAUS:
            raise ValueError(f"unknown tableau {self.tableau!r}")

    @property
    def scheme(self):
        return _TABLEAUS[self.tableau]


def _initial_step(f, t0, y, f0, direction, cfg):
    """Hairer's starting-step heuristic, vectorized per sample."""
    order = 8 if cfg.tableau == "dp8" else 5
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        scale = cfg.abs_tol + cfg.rel_tol * np.abs(y)
        d0 = np.sqrt(np.mean((y / scale) ** 2, axis=-1))
        d1 = np.sqrt(np.mean((f0 / scale) ** 2, axis=-1))
        h0 = np.where((d0 < 1e-5) | (d1 < 1e-5), 1e-6,
                      0.01 * d0 / np.maximum(d1, 1e-300))
        y1 = y + (direction * h0)[:, None] * f0
        f1 = f(t0 + direction * h0, y1)
        d2 = np.sqrt(np.mean(((f1 - f0) / scale) ** 2, axis=-1)) / h0
        dm = np.maximum(d1, d2)
        h1 = np.where(dm <= 1e-15, np.maximum(1e-6, h0 * 1e-3),
                      (0.01 / np.maximum(dm, 1e-300)) ** (1.0 / (order + 1)))
        h = np.minimum(100.0 * h0, np.minimum(h1, cfg.max_step))
    return np.where(np.isfinite(h) & (h > 0.0), h, np.maximum(cfg.min_step, 1e-6))


def integrate_batch(f: Callable, t0: float, y0: np.ndarray, t_end: float,
                    cfg: IntegratorConfig = IntegratorConfig()) -> np.ndarray:
    """Advance an (N, d) batch from t0 to t_end with per-sample step control.

    ``f(t_vec, y)`` must map an (N,) time vector and (N, d) states to (N, d)
    derivatives element-wise per row.
    """
    scheme = cfg.scheme
    y = np.array(y0, dtype=np.float64, copy=True)
    single = y.ndim == 1
    if single:
        y = y[None, :]
    n, d = y.shape
    if t_end == t0:
        return y[0] if single else y
    direction = 1.0 if t_end > t0 else -1.0
    t = np.full(n, float(t0))
    f0 = f(t, y)
    h = _initial_step(f, t0, y, f0, direction, cfg)
    active = np.ones(n, dtype=bool)
    fsal = f0  # first stage of the next step for every sample

    nstage = scheme.n_stages
    a_rows = scheme.a_rows
    b = scheme.b
    c = scheme.c

    while active.any():
        idx = np.nonzero(active)[0]
        ya = y[idx]
        ta = t[idx]
        remaining = np.abs(t_end - ta)
        lands = h[idx] >= remaining
        ha = np.where(lands, remaining, h[idx])
        if np.any(ha < cfg.min_step):
            raise RuntimeError(
                f"step size underflow ({ha.min():.3e} s) at t={ta[ha.argmin()]:.6f}"
            )
        hs = direction * ha

        big_k = np.empty((nstage + 1, idx.size, d))
        big_k[0] = fsal[idx]
        for i in range(1, nstage):
            acc = np.zeros_like(ya)
            row = a_rows[i]
            for j in range(len(row)):
                if row[j] != 0.0:
                    acc = acc + (hs * row[j])[:, None] * big_k[j]
            big_k[i] = f(ta + c[i] * hs, ya + acc)
        acc = np.zeros_like(ya)
        for j in range(nstage):
            if b[j] != 0.0:
                acc = acc + (hs * b[j])[:, None] * big_k[j]
        y_new = ya + acc
        t_new = np.where(lands, t_end, ta + hs)
        big_k[nstage] = f(t_new, y_new)

        scale = cfg.abs_tol + cfg.rel_tol * np.maximum(np.abs(ya), np.abs(y_new))
        err = scheme.error_norm(big_k, ha, scale)
        err = np.where(np.isfinite(err), err, np.inf)

        accept = err <= 1.0
        with np.errstate(divide="ignore"):
            factor = _SAFETY * np.where(err > 0.0, err**scheme.error_exponent, np.inf)
        factor = np.clip(factor, _MIN_FACTOR, _MAX_FACTOR)
        factor = np.where(accept, factor, np.minimum(factor, 1.0))

        acc_idx = idx[accept]
        y[acc_idx] = y_new[accept]
        t[acc_idx] = t_new[accept]
        fsal[acc_idx] = big_k[nstage][accept]
        h[idx] = np.minimum(ha * factor, cfg.max_step)
        active[idx[accept & lands]] = False

    return y[0] if single else y


def _single_error_norm(scheme, big_k, ha, scale, d):
    """Error norm of one step over plain float lists.

    A non-finite error component, or one large enough that the sum of
    squares could overflow, makes the norm infinite (a rejected step)
    without computing the square; below that limit the norm is unchanged.
    """
    root_max = _ROOT_MAX / d
    if scheme is _Dp8:
        e5sq = 0.0
        e3sq = 0.0
        for m in range(d):
            s5 = 0.0
            s3 = 0.0
            for i in range(len(scheme.e5)):
                s5 += scheme.e5[i] * big_k[i][m]
                s3 += scheme.e3[i] * big_k[i][m]
            if not (abs(s5) <= root_max * scale[m] and abs(s3) <= root_max * scale[m]):
                return math.inf
            e5sq += (s5 / scale[m]) ** 2
            e3sq += (s3 / scale[m]) ** 2
        denom = e5sq + 0.01 * e3sq
        if denom <= 0.0:
            return 0.0
        return ha * e5sq / math.sqrt(denom * d)
    acc = 0.0
    for m in range(d):
        s = 0.0
        for i in range(len(scheme.e)):
            s += scheme.e[i] * big_k[i][m]
        if not abs(s) <= root_max * scale[m]:
            return math.inf
        acc += (s / scale[m]) ** 2
    return ha * math.sqrt(acc / d)


def _single_core(f: Callable, t0: float, y0: Sequence[float], t_end: float,
                 cfg: IntegratorConfig, on_accept: Callable | None = None
                 ) -> list[float]:
    """Adaptive loop over plain float lists (the scalar and DA-shadow engine).

    ``on_accept(t, hs)`` fires after each accepted step, before the float
    state advances, so a caller can mirror the step onto another
    representation with the same (t, h) sequence.
    """
    scheme = cfg.scheme
    y = [float(v) for v in y0]
    d = len(y)
    if t_end == t0:
        return y
    direction = 1.0 if t_end > t0 else -1.0
    t = float(t0)
    f0 = [float(v) for v in f(t, y)]

    def f_flat(tv, ym):
        out = np.empty_like(ym)
        for r in range(ym.shape[0]):
            out[r] = f(float(tv[r]), [float(v) for v in ym[r]])
        return out

    h = float(
        _initial_step(f_flat, t0, np.array(y)[None, :], np.array(f0)[None, :],
                      direction, cfg)[0]
    )
    nstage = scheme.n_stages
    a_rows = [list(map(float, row)) for row in scheme.a_rows]
    b = list(map(float, scheme.b))
    c = list(map(float, scheme.c))
    fsal = f0

    finished = False
    while not finished:
        remaining = abs(t_end - t)
        lands = h >= remaining
        ha = remaining if lands else h
        if ha < cfg.min_step or not math.isfinite(ha):
            raise RuntimeError(f"step size underflow ({ha:.3e} s) at t={t:.6f}")
        hs = direction * ha

        big_k = [fsal]
        for i in range(1, nstage):
            row = a_rows[i]
            yi = list(y)
            for j in range(len(row)):
                if row[j] != 0.0:
                    w = hs * row[j]
                    kj = big_k[j]
                    for m in range(d):
                        yi[m] += w * kj[m]
            big_k.append([float(v) for v in f(t + c[i] * hs, yi)])
        y_new = list(y)
        for j in range(nstage):
            if b[j] != 0.0:
                w = hs * b[j]
                kj = big_k[j]
                for m in range(d):
                    y_new[m] += w * kj[m]
        big_k.append([float(v) for v in f(t + hs, y_new)])

        scale = [
            cfg.abs_tol + cfg.rel_tol * max(abs(y[m]), abs(y_new[m]))
            for m in range(d)
        ]
        err = _single_error_norm(scheme, big_k, ha, scale, d)
        if not math.isfinite(err):
            err = math.inf
        accept = err <= 1.0
        factor = _MAX_FACTOR if err == 0.0 else _SAFETY * err**scheme.error_exponent
        factor = min(max(factor, _MIN_FACTOR), _MAX_FACTOR)
        if not accept:
            factor = min(factor, 1.0)

        if accept:
            if on_accept is not None:
                on_accept(t, hs, y_new)
            y = y_new
            fsal = big_k[nstage]
            t = t_end if lands else t + hs
            finished = lands
        h = min(ha * factor, cfg.max_step)
    return y


def integrate_single(f: Callable, t0: float, y0: Sequence[float], t_end: float,
                     cfg: IntegratorConfig = IntegratorConfig()) -> list[float]:
    """Advance one float state; pure-Python arithmetic throughout."""
    return _single_core(f, t0, y0, t_end, cfg)


def integrate_da(f: Callable, t0: float, y0_polys: Sequence, t_end: float,
                 cfg: IntegratorConfig = IntegratorConfig()) -> list:
    """Advance a polynomial state; a float shadow of the constant part drives
    step control, so the accepted (t, h) sequence is exactly the scalar one.

    ``f(t, y_list) -> deriv_list`` must accept both float and polynomial
    component lists.  After every accepted step the polynomial constants are
    pinned to the shadow trajectory, which keeps the nominal bit-identical to
    a plain scalar run while the higher coefficients carry the expansion.
    """
    yp = list(y0_polys)
    if t_end == t0:
        return yp
    scheme = cfg.scheme
    nstage = scheme.n_stages
    a_rows = [list(map(float, row)) for row in scheme.a_rows]
    b = list(map(float, scheme.b))
    c = list(map(float, scheme.c))

    def advance_polys(t, hs, y_new_floats):
        nonlocal yp
        kp = [f(t, yp)]
        for i in range(1, nstage):
            row = a_rows[i]
            acc = None
            for j in range(len(row)):
                if row[j] == 0.0:
                    continue
                term = [(hs * row[j]) * kj for kj in kp[j]]
                acc = term if acc is None else [a + t_ for a, t_ in zip(acc, term)]
            yi = yp if acc is None else [a + t_ for a, t_ in zip(yp, acc)]
            kp.append(f(t + c[i] * hs, yi))
        acc = None
        for j in range(nstage):
            if b[j] == 0.0:
                continue
            term = [(hs * b[j]) * kj for kj in kp[j]]
            acc = term if acc is None else [a + t_ for a, t_ in zip(acc, term)]
        yp = [p + t_ for p, t_ in zip(yp, acc)]
        # pin the constant part to the shadow's float stream
        yp = [p - p.const + float(v) for p, v in zip(yp, y_new_floats)]

    y0c = [p.const for p in yp]
    _single_core(f, t0, y0c, t_end, cfg, on_accept=advance_polys)
    return yp


def integrate_fixed(f: Callable, t0: float, y0: np.ndarray, t_end: float,
                    n_steps: int, tableau: str = "dp8") -> np.ndarray:
    """Constant-step integration (no error control), for convergence studies."""
    scheme = _TABLEAUS[tableau]
    y = np.array(y0, dtype=np.float64, copy=True)
    single = y.ndim == 1
    if single:
        y = y[None, :]
    t = np.full(y.shape[0], float(t0))
    hs = (t_end - t0) / n_steps
    nstage = scheme.n_stages
    for _ in range(n_steps):
        big_k = []
        big_k.append(f(t, y))
        for i in range(1, nstage):
            acc = np.zeros_like(y)
            row = scheme.a_rows[i]
            for j in range(len(row)):
                if row[j] != 0.0:
                    acc = acc + (hs * row[j]) * big_k[j]
            big_k.append(f(t + scheme.c[i] * hs, y + acc))
        acc = np.zeros_like(y)
        for j in range(nstage):
            if scheme.b[j] != 0.0:
                acc = acc + (hs * scheme.b[j]) * big_k[j]
        y = y + acc
        t = t + hs
    return y[0] if single else y
