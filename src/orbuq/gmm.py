"""Gaussian mixtures, univariate splitting libraries and sigma-point moments.

A mixture component is replaced by ``L`` narrower components along one
eigen-direction of its covariance using a precomputed univariate library: the
optimal homoscedastic, symmetric L-term approximation of the standard normal
under an L2 objective with a variance penalty.  Every run splits with the
L = 3, lambda = 1e-3 library, shipped as the literal ``DEFAULT_LIBRARY``;
``generate_split_library`` solves the small constrained optimization that
produced it, for that or any other size and penalty.

The unscented set, on the covariance's eigen square root, pushes component
statistics through polynomial flow maps; the L2 distance and the likelihood
agreement measure (overlap integral) quantify how well two densities, or a
density and a Monte-Carlo cloud, agree.

A kernel of a split tree is scored from its eigenpairs, not its covariance:
``logpdf_quadratic_forms`` and ``kernel_logpdf_support`` take the weight,
mean, eigenvalues and eigenvectors that the split loop keeps for it.  One
rule, ``is_inert``, says which directions carry no uncertainty: an
eigenvalue of exactly 0.0.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .ta import AlgebraContext

__all__ = [
    "GaussianKernel", "GaussianMixture", "SplitLibrary", "DEFAULT_LIBRARY", "SigmaSet",
    "gaussian_pdf", "l2_distance", "l2_library_residual",
    "generate_split_library", "split_kernel", "ut_sigma",
    "reconstruct_moments", "lam", "lam_dmm", "marginal_mixture",
    "spectral_factors", "is_inert", "kernel_logpdf_support",
    "logpdf_quadratic_forms", "regular_dims",
]

_EIG_CLAMP = -1e-12

# Output side: a mixture coordinate is regular when some kernel's variance
# exceeds this, absolute in that coordinate's squared units.  The question is
# asked of each coordinate alone, whose units (km^2, (km/s)^2, rad^2) make its
# variance incomparable with the others', and an inert input coordinate picks
# up only roundoff through the maps, far below it.
_REGULAR_VARIANCE = 1e-18


def spectral_factors(cov: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Symmetrize, eigendecompose and clamp tiny negative eigenvalues to zero.

    Inert coordinates (row and column exactly zero) stay exact: each gets a
    unit eigenvector with eigenvalue 0, listed first in coordinate order, and
    an exact zero in every other eigenvector.  Only the remaining block is
    passed to ``eigh``, which would otherwise leak roundoff into them.
    """
    sym = 0.5 * (cov + cov.T)
    n = sym.shape[0]
    live_mask = (sym != 0.0).any(axis=0)
    live = np.flatnonzero(live_mask)
    ni = n - live.size
    lam = np.zeros(n)
    vec = np.zeros((n, n))
    vec[np.flatnonzero(~live_mask), np.arange(ni)] = 1.0
    lam[ni:], vec[np.ix_(live, np.arange(ni, n))] = np.linalg.eigh(
        sym[np.ix_(live, live)]
    )
    if lam.min() < _EIG_CLAMP:
        raise ValueError(f"covariance has negative eigenvalue {lam.min():.3e}")
    lam = np.clip(lam, 0.0, None)
    return lam, vec


def is_inert(eigvals):
    """True where an eigenvalue marks an inert direction: exactly 0.0.

    This is the one rule for inert directions.  ``spectral_factors`` makes
    them exact (zero rows and columns, and clamped negative roundoff), and a
    split multiplies one eigenvalue by sigma^2 > 0, so the inert set of a
    split tree is its root's.  Takes a scalar or an array.
    """
    return np.asarray(eigvals) == 0.0


@dataclass(frozen=True)
class GaussianKernel:
    """One weighted Gaussian component: weight in (0, 1], mean, PSD covariance."""

    weight: float
    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "mean", np.asarray(self.mean, dtype=np.float64))
        object.__setattr__(self, "cov", np.asarray(self.cov, dtype=np.float64))
        if not 0.0 < self.weight <= 1.0 + 1e-12:
            raise ValueError(f"kernel weight {self.weight} outside (0, 1]")
        if self.cov.shape != (self.mean.size, self.mean.size):
            raise ValueError("covariance shape does not match mean")
        if np.abs(self.cov - self.cov.T).max() > 1e-12 * max(1.0, np.abs(self.cov).max()):
            raise ValueError("covariance not symmetric")

    @property
    def dim(self) -> int:
        return self.mean.size


@dataclass(frozen=True)
class GaussianMixture:
    """Weighted sum of Gaussian kernels; weights sum to one."""

    kernels: tuple[GaussianKernel, ...]

    def __post_init__(self):
        object.__setattr__(self, "kernels", tuple(self.kernels))
        if not self.kernels:
            raise ValueError("mixture needs at least one kernel")
        total = sum(k.weight for k in self.kernels)
        if abs(total - 1.0) > 1e-12 * len(self.kernels):
            raise ValueError(f"mixture weights sum to {total}, expected 1")

    @property
    def dim(self) -> int:
        return self.kernels[0].dim

    def __len__(self):
        return len(self.kernels)

    def pdf(self, x: np.ndarray) -> float:
        return float(sum(k.weight * gaussian_pdf(x, k) for k in self.kernels))

    def to_json_obj(self) -> list[dict]:
        return [
            {
                "weight": k.weight,
                "mean": k.mean.tolist(),
                "cov": k.cov.tolist(),
            }
            for k in self.kernels
        ]

    @classmethod
    def from_json_obj(cls, obj) -> "GaussianMixture":
        return cls(
            tuple(
                GaussianKernel(d["weight"], np.array(d["mean"]), np.array(d["cov"]))
                for d in obj
            )
        )


def gaussian_pdf(x: np.ndarray, kernel: GaussianKernel) -> float:
    """Multivariate normal density of the kernel at x (weight not applied)."""
    x = np.asarray(x, dtype=np.float64)
    d = x - kernel.mean
    sign, logdet = np.linalg.slogdet(2.0 * np.pi * kernel.cov)
    if sign <= 0:
        raise np.linalg.LinAlgError("singular covariance in gaussian_pdf")
    maha = d @ np.linalg.solve(kernel.cov, d)
    return float(np.exp(-0.5 * (logdet + maha)))


def _overlap_kernel(mu1: np.ndarray, mu2: np.ndarray, psum: np.ndarray) -> float:
    """K(mu1, mu2, P1+P2): the Gaussian product integral."""
    d = mu1 - mu2
    sign, logdet = np.linalg.slogdet(2.0 * np.pi * psum)
    if sign <= 0:
        raise np.linalg.LinAlgError("singular covariance sum in overlap kernel")
    maha = d @ np.linalg.solve(psum, d)
    return float(np.exp(-0.5 * (logdet + maha)))


def _cross_term(p: GaussianMixture, q: GaussianMixture) -> float:
    return sum(
        ki.weight * kj.weight * _overlap_kernel(ki.mean, kj.mean, ki.cov + kj.cov)
        for ki in p.kernels
        for kj in q.kernels
    )


def l2_distance(p1: GaussianMixture, p2: GaussianMixture) -> float:
    """Closed-form integral of (p1 - p2)^2 over R^n."""
    if p1.dim != p2.dim:
        raise ValueError("mixture dimension mismatch")
    return _cross_term(p1, p1) + _cross_term(p2, p2) - 2.0 * _cross_term(p1, p2)


def lam(p: GaussianMixture, q: GaussianMixture) -> float:
    """Likelihood agreement measure: the overlap integral of p*q."""
    if p.dim != q.dim:
        raise ValueError("mixture dimension mismatch")
    return _cross_term(p, q)


def lam_dmm(samples: np.ndarray, q: GaussianMixture) -> float:
    """Overlap of a sample cloud (uniform Dirac mixture) with a Gaussian mixture."""
    samples = np.atleast_2d(np.asarray(samples, dtype=np.float64))
    if samples.shape[0] == 0:
        raise ValueError("empty sample set")
    if samples.shape[1] != q.dim:
        raise ValueError("sample dimension mismatch")
    total = 0.0
    for k in q.kernels:
        lamk, veck = spectral_factors(k.cov)
        if is_inert(lamk).any():
            raise np.linalg.LinAlgError("singular kernel in lam_dmm")
        d = (samples - k.mean) @ veck
        maha = np.sum(d * d / lamk, axis=1)
        lognorm = 0.5 * np.sum(np.log(2.0 * np.pi * lamk))
        total += k.weight * np.exp(-0.5 * maha - lognorm).sum()
    return float(total / samples.shape[0])


def _live_factors(eigvals: np.ndarray, eigvecs: np.ndarray
                  ) -> tuple[np.ndarray, np.ndarray, float]:
    """Eigenvalues, eigenvectors and log normaliser of the live directions."""
    live = ~is_inert(eigvals)
    lk = eigvals[live]
    return lk, eigvecs[:, live], 0.5 * np.sum(np.log(2.0 * np.pi * lk))


def kernel_logpdf_support(weight: float, mean: np.ndarray, eigvals: np.ndarray,
                          eigvecs: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """Log weight plus log density of points on a kernel's live subspace.

    The kernel is given by its weight, mean and eigenpairs (eigenvectors as
    columns).  Inert directions (``is_inert``) are dropped, and with them
    any offset of a point along them; a kernel without live directions
    scores its log weight everywhere.
    """
    xs = np.atleast_2d(np.asarray(xs, dtype=np.float64))
    lk, vk, lognorm = _live_factors(eigvals, eigvecs)
    d = (xs - mean) @ vk
    maha = np.sum(d * d / lk, axis=1)
    return math.log(weight) + (-0.5 * maha - lognorm)


def logpdf_quadratic_forms(weights: np.ndarray, means: np.ndarray, eigvals: np.ndarray,
                           eigvecs: np.ndarray, centre: np.ndarray
                           ) -> tuple[np.ndarray, np.ndarray]:
    """``kernel_logpdf_support`` of every kernel as a quadratic in x - centre.

    The K kernels are given as stacked arrays: ``weights`` (K,), ``means``
    (K, d), ``eigvals`` (K, d) and ``eigvecs`` (K, d, d).  Returns ``(G,
    H)``, each of shape (K, M) over the M monomials of ``AlgebraContext(2,
    d)``: ``monomial_values(x - centre) @ G[k]`` is kernel k's log weight
    plus log density on its live subspace.  ``H`` holds the same
    coefficients built from absolute values, ``|V| diag(1/l) |V|^T`` in
    place of the precision ``V diag(1/l) V^T`` and ``|mean - centre|`` in
    place of ``mean - centre``; ``|F| @ H[k]`` bounds the magnitude of every
    term that either form of the log density sums for a point with monomials
    ``F``, which is what a rounding bound needs.
    """
    centre = np.asarray(centre, dtype=np.float64)
    ctx = AlgebraContext(2, centre.size)
    lin = np.flatnonzero(ctx.degrees == 1)
    quad = np.flatnonzero(ctx.degrees == 2)
    lin_var = ctx.expmat[lin].argmax(axis=1)
    qi = np.array([np.flatnonzero(ctx.expmat[m])[0] for m in quad])
    qj = np.array([np.flatnonzero(ctx.expmat[m])[-1] for m in quad])
    # y_i^2 carries -P_ii / 2; y_i y_j (i < j) carries -P_ij, twice the half
    qfac = np.where(qi == qj, 0.5, 1.0)
    g = np.zeros((len(weights), ctx.size))
    h = np.zeros((len(weights), ctx.size))
    for k, weight in enumerate(weights):
        logw = math.log(weight)
        lk, vk, lognorm = _live_factors(eigvals[k], eigvecs[k])
        prec = (vk / lk) @ vk.T
        prec_abs = (np.abs(vk) / lk) @ np.abs(vk).T
        d = means[k] - centre
        pd = prec @ d
        ad = prec_abs @ np.abs(d)
        g[k, 0] = logw - lognorm - 0.5 * (d @ pd)
        h[k, 0] = abs(logw) + abs(lognorm) + 0.5 * (np.abs(d) @ ad)
        g[k, lin] = pd[lin_var]
        h[k, lin] = ad[lin_var]
        g[k, quad] = -qfac * prec[qi, qj]
        h[k, quad] = qfac * prec_abs[qi, qj]
    return g, h


def regular_dims(mix: GaussianMixture) -> list[int]:
    """Coordinates on which some kernel's variance exceeds ``_REGULAR_VARIANCE``.

    Only kernel variances count; the spread of the kernel means does not.  A
    coordinate that is inert at the input (exactly zero variance) picks up
    at most roundoff-level variance through the maps, far below the cut
    (absolute, in the coordinate's squared units), and is dropped.
    """
    var = np.max([np.diag(k.cov) for k in mix.kernels], axis=0)
    return [j for j in range(mix.dim) if var[j] > _REGULAR_VARIANCE]


def marginal_mixture(mix: GaussianMixture, dims: Sequence[int]) -> GaussianMixture:
    """Marginal of a mixture onto a coordinate subset (Gaussian block extraction)."""
    idx = np.asarray(dims, dtype=np.intp)
    return GaussianMixture(
        tuple(
            GaussianKernel(k.weight, k.mean[idx], k.cov[np.ix_(idx, idx)])
            for k in mix.kernels
        )
    )


# -- univariate splitting library ------------------------------------------------


@dataclass(frozen=True)
class SplitLibrary:
    """Symmetric homoscedastic replacement of the standard normal by L kernels.

    ``weights`` and ``means`` list all L components in increasing-mean order;
    ``sigma`` is the common standard deviation.  ``residual_l2`` stores the
    achieved L2 defect, ``lam_penalty`` the variance-penalty factor used.
    """

    L: int
    weights: tuple[float, ...]
    means: tuple[float, ...]
    sigma: float
    lam_penalty: float = 0.0
    residual_l2: float = 0.0

    def __post_init__(self):
        if self.L < 1 or len(self.weights) != self.L or len(self.means) != self.L:
            raise ValueError("inconsistent library size")
        if abs(sum(self.weights) - 1.0) > 1e-10:
            raise ValueError("library weights must sum to 1")
        if not 0.0 < self.sigma <= 1.0:
            raise ValueError("library sigma must lie in (0, 1]")
        w = np.array(self.weights)
        m = np.array(self.means)
        if np.abs(w - w[::-1]).max() > 1e-9 or np.abs(m + m[::-1]).max() > 1e-9:
            raise ValueError("library must be symmetric about zero")

    def as_mixture(self) -> GaussianMixture:
        return GaussianMixture(
            tuple(
                GaussianKernel(a, np.array([m]), np.array([[self.sigma**2]]))
                for a, m in zip(self.weights, self.means)
            )
        )

    def to_json_obj(self) -> dict:
        return {
            "L": self.L,
            "lambda": self.lam_penalty,
            "weights": list(self.weights),
            "means": list(self.means),
            "sigma": self.sigma,
            "residual_l2": self.residual_l2,
        }

    @classmethod
    def from_json_obj(cls, obj) -> "SplitLibrary":
        return cls(
            L=int(obj["L"]),
            weights=tuple(obj["weights"]),
            means=tuple(obj["means"]),
            sigma=float(obj["sigma"]),
            lam_penalty=float(obj.get("lambda", 0.0)),
            residual_l2=float(obj.get("residual_l2", 0.0)),
        )

    def save(self, path):
        with open(path, "w") as fh:
            json.dump(self.to_json_obj(), fh, indent=2)

    @classmethod
    def load(cls, path) -> "SplitLibrary":
        with open(path) as fh:
            return cls.from_json_obj(json.load(fh))


# The library every run splits with: the full-precision output of
# ``generate_split_library(3, 1e-3)``, shipped so that no run calls the
# optimizer.  Table 1 of Vittaldev & Russell (JGCD 2016) lists a solution of
# the same problem within 1e-7 of it; the objective is too flat at its optimum
# to tell the two apart.
DEFAULT_LIBRARY = SplitLibrary(
    L=3,
    weights=(0.2252246761136891, 0.5495506477726217, 0.2252246761136891),
    means=(-1.0575150004040517, 0.0, 1.0575150004040517),
    sigma=0.6715665400133652,
    lam_penalty=1e-3,
    residual_l2=6.138821768753022e-05,
)


def _half_params(lib: SplitLibrary) -> tuple[float, np.ndarray, np.ndarray]:
    """(alpha0, alpha_i, mu_i) for i = 1..floor(L/2), the symmetric half."""
    l = lib.L // 2
    a = np.array(lib.weights)
    m = np.array(lib.means)
    if lib.L % 2 == 1:
        return float(a[l]), a[l + 1:], m[l + 1:]
    return 0.0, a[l:], m[l:]


def l2_library_residual(lib: SplitLibrary) -> float:
    """Specialized closed form of L2(standard normal, library mixture)."""
    a0, ai, mi = _half_params(lib)
    s2 = lib.sigma**2
    return _l2_sym(a0, ai, mi, s2)


def _l2_sym(a0: float, ai: np.ndarray, mi: np.ndarray, s2: float) -> float:
    sp = math.sqrt(math.pi)
    c1 = 1.0 / (2.0 * sp)
    c2 = 1.0 / math.sqrt(2.0 * math.pi * (1.0 + s2))
    c3 = 1.0 / (2.0 * math.sqrt(math.pi * s2))
    val = c1 - 2.0 * a0 * c2
    val += c3 * (a0 * a0 + 4.0 * a0 * np.sum(ai * np.exp(-(mi**2) / (4.0 * s2))))
    dif = mi[:, None] - mi[None, :]
    add = mi[:, None] + mi[None, :]
    cross = np.exp(-(dif**2) / (4.0 * s2)) + np.exp(-(add**2) / (4.0 * s2))
    val += 2.0 * c3 * float(ai @ cross @ ai)
    val -= 4.0 * c2 * np.sum(ai * np.exp(-(mi**2) / (2.0 * (1.0 + s2))))
    return float(val)


def _unpack(theta: np.ndarray, L: int) -> tuple[float, np.ndarray, np.ndarray, float]:
    """Free vector -> feasible (alpha0, alpha_i, mu_i, sigma2).

    Weights come from positive raw values normalized to the simplex (the
    ordering chain alpha_i > alpha_{i+1} for i >= 1 is built by positive
    decrements), means from cumulated positive increments, sigma from a
    logistic squash into (0, 1).
    """
    l = L // 2
    odd = L % 2 == 1
    tw = theta[:l + (1 if odd else 0)]
    ts = theta[len(tw):len(tw) + l]
    tv = theta[-1]
    raw = np.exp(np.clip(tw, -40, 40))
    if odd:
        w0, winc = raw[0], raw[1:]
    else:
        w0, winc = 0.0, raw
    wi = np.cumsum(winc[::-1])[::-1]  # decreasing chain away from center
    norm = w0 + 2.0 * wi.sum()
    a0 = w0 / norm
    ai = wi / norm
    mi = np.cumsum(np.exp(np.clip(ts, -40, 40)))
    sigma = 1.0 / (1.0 + math.exp(-tv))
    return a0, ai, mi, sigma


def generate_split_library(L: int, lam_penalty: float, *,
                           restarts: int = 50, seed: int = 0) -> SplitLibrary:
    """Solve the penalized L2 fit for the univariate splitting library.

    Minimizes ``L2(N(0,1), mixture) + lam_penalty * sigma^2`` subject to the
    symmetry/normalization/ordering constraints, all enforced by construction
    through the variable transform in ``_unpack``.  Nelder-Mead with seeded
    random restarts; deterministic for fixed inputs.  (3, 1e-3) reproduces
    ``DEFAULT_LIBRARY``; only this function loads scipy's optimizer.
    """
    from scipy.optimize import minimize

    if L < 1:
        raise ValueError("L must be >= 1")
    if lam_penalty <= 0:
        raise ValueError("penalty factor must be positive")
    if L == 1:
        return SplitLibrary(1, (1.0,), (0.0,), 1.0, lam_penalty, 0.0)

    l = L // 2
    odd = L % 2 == 1
    nfree = l + (1 if odd else 0) + l + 1

    def objective(theta):
        a0, ai, mi, sigma = _unpack(theta, L)
        return _l2_sym(a0, ai, mi, sigma**2) + lam_penalty * sigma**2

    rng = np.random.default_rng(seed)
    best_val, best_theta = np.inf, None
    for _ in range(restarts):
        theta0 = rng.uniform(-1.5, 0.8, nfree)
        res = minimize(
            objective, theta0, method="Nelder-Mead",
            options={"xatol": 1e-12, "fatol": 1e-14, "maxiter": 4000},
        )
        if res.fun < best_val:
            best_val, best_theta = res.fun, res.x
    # polish the winner
    res = minimize(
        objective, best_theta, method="Nelder-Mead",
        options={"xatol": 1e-13, "fatol": 1e-15, "maxiter": 8000},
    )
    if res.fun < best_val:
        best_val, best_theta = res.fun, res.x

    a0, ai, mi, sigma = _unpack(best_theta, L)
    if odd:
        weights = tuple(map(float, ai[::-1])) + (float(a0),) + tuple(map(float, ai))
        means = tuple(map(float, -mi[::-1])) + (0.0,) + tuple(map(float, mi))
    else:
        weights = tuple(map(float, ai[::-1])) + tuple(map(float, ai))
        means = tuple(map(float, -mi[::-1])) + tuple(map(float, mi))
    residual = _l2_sym(a0, ai, mi, sigma**2)
    return SplitLibrary(L, weights, means, float(sigma), lam_penalty, residual)


def split_kernel(kernel: GaussianKernel, direction: int, lib: SplitLibrary,
                 basis: tuple[np.ndarray, np.ndarray]) -> list[GaussianKernel]:
    """Split one kernel along an eigen-direction of its covariance.

    ``basis`` is the ``(eigenvalues, eigenvectors)`` pair of the covariance,
    as ``spectral_factors`` gives it or as the split engine tracks it down a
    tree; ``direction`` indexes its columns.
    """
    lamv, vec = basis
    n = kernel.dim
    if not 0 <= direction < n:
        raise IndexError(f"direction {direction} out of range 0..{n - 1}")
    lk = lamv[direction]
    if is_inert(lk):
        raise ValueError(f"zero eigenvalue along direction {direction}: nothing to split")
    vk = vec[:, direction]
    sqlk = math.sqrt(lk)
    children = []
    for a, m in zip(lib.weights, lib.means):
        lam_child = lamv.copy()
        lam_child[direction] = lib.sigma**2 * lk
        cov = (vec * lam_child) @ vec.T
        cov = 0.5 * (cov + cov.T)
        children.append(
            GaussianKernel(a * kernel.weight, kernel.mean + sqlk * m * vk, cov)
        )
    return children


# -- sigma points and moment reconstruction -----------------------------------


@dataclass(frozen=True)
class SigmaSet:
    """Deterministic sample set with weights summing to one."""

    points: np.ndarray   # (N, n)
    weights: np.ndarray  # (N,)

    def __post_init__(self):
        object.__setattr__(self, "points", np.asarray(self.points, dtype=np.float64))
        object.__setattr__(self, "weights", np.asarray(self.weights, dtype=np.float64))
        if self.points.shape[0] != self.weights.size:
            raise ValueError("points/weights size mismatch")
        if abs(self.weights.sum() - 1.0) > 1e-10:
            raise ValueError("sigma weights must sum to 1")


def ut_sigma(kernel: GaussianKernel, kappa: float) -> SigmaSet:
    """Symmetric 2n+1 unscented set on the covariance's eigen square root (any
    root reproduces the first two moments: Julier & Uhlmann, Proc. IEEE 2004)."""
    n = kernel.dim
    if n + kappa <= 0.0:
        raise ValueError(f"n + kappa must be positive, got {n + kappa}")
    lamv, vec = spectral_factors(kernel.cov)
    cols = math.sqrt(n + kappa) * (vec * np.sqrt(lamv)).T
    pts = np.repeat(kernel.mean[None], 2 * n + 1, axis=0)
    pts[1::2] += cols
    pts[2::2] -= cols
    w = np.full(2 * n + 1, 1.0 / (2.0 * (n + kappa)))
    w[0] = kappa / (n + kappa)
    return SigmaSet(pts, w)


def reconstruct_moments(samples: np.ndarray, weights: np.ndarray | None = None
                        ) -> tuple[np.ndarray, np.ndarray]:
    """Weighted (sigma-point) or divisor N-1 (Monte-Carlo) first two moments.

    Covariance deviations are taken about the reconstructed mean of the
    transformed samples.
    """
    y = np.atleast_2d(np.asarray(samples, dtype=np.float64))
    if weights is None:
        if y.shape[0] < 2:
            raise ValueError("at least 2 samples required in Monte-Carlo mode")
        mean = y.mean(axis=0)
        d = y - mean
        cov = d.T @ d / (y.shape[0] - 1)
    else:
        w = np.asarray(weights, dtype=np.float64)
        if w.size != y.shape[0]:
            raise ValueError("weights length mismatch")
        if abs(w.sum() - 1.0) > 1e-10:
            raise ValueError("weights must sum to 1")
        mean = w @ y
        d = y - mean
        cov = (d * w[:, None]).T @ d
    return mean, 0.5 * (cov + cov.T)
