"""Embedded adaptive Runge-Kutta integration for float batches and DA states.

The scheme is the 13-stage Dormand-Prince 8(5,3) pair with its combined
fifth/third-order error estimate.  Tableau constants are the published Hairer
coefficients.

One stepping core serves every mode.  ``_step`` takes one explicit step of an
(N, d) state array with one step size per row, and every stage is
``_combine``'s ``y + sum_j (h a_ij) k_j``, so the same code advances float
arrays and object arrays of polynomials:

* ``integrate_batch`` - the adaptive loop: (N, d) float states advance with
  per-row time, step size and accept/reject decisions.  A row's arithmetic
  depends on the other rows in one way only: the right-hand side sees just
  the rows still active, so a row that ends a batch alone is evaluated as a
  one-row call on that row's scalars (``highfi.make_cartesian_rhs``), and
  every force term gives such a row the bits it has in a batch of any
  width.  The error estimate sums its stages with ``einsum`` in stage
  order, not with a BLAS call whose rounding may follow the row count.
  Results are deterministic for a fixed partition into batches.
  ``integrate_single`` is the N = 1 call.

* ``integrate_da`` - a one-row float shadow of the constant part runs the
  adaptive loop; each step it accepts is replayed on the polynomial state,
  whose constant part is then pinned to the shadow.  The step sequence and the
  nominal are therefore exactly those of ``integrate_single``.

* ``integrate_fixed`` - constant steps without error control, used for order
  verification.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

__all__ = ["IntegratorConfig", "integrate_batch", "integrate_da",
           "integrate_single", "integrate_fixed"]

_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 10.0


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
        err5 = np.einsum("s,s...->...", cls.e5, big_k) / scale
        err3 = np.einsum("s,s...->...", cls.e3, big_k) / scale
        e5sq = np.sum(err5 * err5, axis=-1)
        e3sq = np.sum(err3 * err3, axis=-1)
        denom = e5sq + 0.01 * e3sq
        denom = np.where(denom > 0.0, denom, 1.0)
        ncomp = big_k.shape[-1]
        return h_abs * e5sq / np.sqrt(denom * ncomp)


@dataclass(frozen=True)
class IntegratorConfig:
    abs_tol: float = 1e-12
    rel_tol: float = 1e-12
    min_step: float = 1e-8     # s

    def __post_init__(self):
        if self.abs_tol <= 0 or self.rel_tol <= 0:
            raise ValueError("tolerances must be positive")


def _initial_step(f, t0, y, f0, direction, cfg):
    """Hairer's starting-step heuristic, vectorized per sample."""
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
        # exponent 1 / (p + 1) for the order p = 8 of the propagating solution
        h1 = np.where(dm <= 1e-15, np.maximum(1e-6, h0 * 1e-3),
                      (0.01 / np.maximum(dm, 1e-300)) ** (1.0 / 9.0))
        h = np.minimum(100.0 * h0, h1)
    return np.where(np.isfinite(h) & (h > 0.0), h, np.maximum(cfg.min_step, 1e-6))


def _combine(y, hs, weights, ks):
    """``y + sum_j (hs * w_j) * k_j`` over the nonzero weights ``w_j``.

    ``hs`` holds one step per row of ``y``.  The sum starts from zero and runs
    in stage order; ``y`` and the ``k_j`` may be float arrays or object arrays
    of polynomials.
    """
    acc = 0.0
    for w, k in zip(weights, ks):
        if w != 0.0:
            acc = acc + (hs * w)[:, None] * k
    return y + acc


def _step(f, t, hs, y, k0):
    """One explicit step from (t, y) whose first stage is ``k0``.

    Returns the stage derivatives and the new state.
    """
    ks = [k0]
    for i in range(1, _Dp8.n_stages):
        ks.append(f(t + _Dp8.c[i] * hs, _combine(y, hs, _Dp8.a_rows[i], ks)))
    return ks, _combine(y, hs, _Dp8.b, ks)


def _adaptive(f: Callable, t0: float, y: np.ndarray, t_end: float,
              cfg: IntegratorConfig, on_accept: Callable | None = None) -> None:
    """Advance (N, d) float states in place from t0 to t_end.

    ``on_accept(t, hs, y_new)`` sees the rows accepted in each step, before
    they advance, so a caller can replay the same (t, h) sequence.
    """
    n = y.shape[0]
    direction = 1.0 if t_end > t0 else -1.0
    t = np.full(n, float(t0))
    f0 = f(t, y)
    h = _initial_step(f, t0, y, f0, direction, cfg)
    active = np.ones(n, dtype=bool)
    fsal = f0  # first stage of the next step for every sample

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

        ks, y_new = _step(f, ta, hs, ya, fsal[idx])
        t_new = np.where(lands, t_end, ta + hs)
        ks.append(f(t_new, y_new))

        scale = cfg.abs_tol + cfg.rel_tol * np.maximum(np.abs(ya), np.abs(y_new))
        # an estimate that overflows is infinite: the step is rejected
        with np.errstate(over="ignore", invalid="ignore"):
            err = _Dp8.error_norm(np.array(ks), ha, scale)
        err = np.where(np.isfinite(err), err, np.inf)

        accept = err <= 1.0
        with np.errstate(divide="ignore"):
            factor = _SAFETY * np.where(err > 0.0, err**_Dp8.error_exponent, np.inf)
        factor = np.clip(factor, _MIN_FACTOR, _MAX_FACTOR)
        factor = np.where(accept, factor, np.minimum(factor, 1.0))

        if on_accept is not None and accept.any():
            on_accept(ta[accept], hs[accept], y_new[accept])
        acc_idx = idx[accept]
        y[acc_idx] = y_new[accept]
        t[acc_idx] = t_new[accept]
        fsal[acc_idx] = ks[-1][accept]
        h[idx] = ha * factor
        active[idx[accept & lands]] = False


def integrate_batch(f: Callable, t0: float, y0: np.ndarray, t_end: float,
                    cfg: IntegratorConfig = IntegratorConfig()) -> np.ndarray:
    """Advance an (N, d) batch, or one d-vector, from t0 to t_end.

    ``f(t_vec, y)`` must map an (N,) time vector and (N, d) states to (N, d)
    derivatives element-wise per row.
    """
    y = np.array(y0, dtype=np.float64, copy=True)
    single = y.ndim == 1
    if single:
        y = y[None, :]
    if t_end != t0:
        _adaptive(f, t0, y, t_end, cfg)
    return y[0] if single else y


def integrate_single(f: Callable, t0: float, y0: Sequence[float], t_end: float,
                     cfg: IntegratorConfig = IntegratorConfig()) -> np.ndarray:
    """Advance one float d-vector: the one-row case of ``integrate_batch``."""
    return integrate_batch(f, t0, np.ravel(y0), t_end, cfg)


def integrate_da(f: Callable, t0: float, y0_polys: Sequence, t_end: float,
                 cfg: IntegratorConfig = IntegratorConfig()) -> list:
    """Advance a polynomial state on the accepted steps of its float shadow.

    The shadow is the constant part as a one-row batch, so the accepted
    (t, h) sequence and the nominal are those of ``integrate_single``.  Each
    accepted step is replayed on a (1, d) object array of the polynomials,
    after which their constant parts are pinned to the shadow's, while the
    higher coefficients carry the expansion.  ``f(t, y)`` must accept (1,)
    times with (1, d) float or object states.
    """
    if t_end == t0:
        return list(y0_polys)
    yp = np.array([list(y0_polys)], dtype=object)

    def replay(t, hs, y_new):
        nonlocal yp
        _, yp = _step(f, t, hs, yp, f(t, yp))
        yp = yp - np.array([[p.const for p in yp[0]]]) + y_new

    _adaptive(f, t0, np.array([[p.const for p in y0_polys]]), t_end, cfg, on_accept=replay)
    return list(yp[0])


def integrate_fixed(f: Callable, t0: float, y0: np.ndarray, t_end: float,
                    n_steps: int) -> np.ndarray:
    """Constant-step Dormand-Prince 8 integration (no error control), for convergence studies."""
    y = np.array(y0, dtype=np.float64, copy=True)
    single = y.ndim == 1
    if single:
        y = y[None, :]
    t = np.full(y.shape[0], float(t0))
    hs = np.full(y.shape[0], (t_end - t0) / n_steps)
    for _ in range(n_steps):
        _, y = _step(f, t, hs, y, f(t, y))
        t = t + hs
    return y[0] if single else y
