"""Adaptive domain splitting driven by a DA nonlinearity index.

A domain couples a polynomial state (the uncertainty set, always an affine
function of the box variables on input) with its Gaussian kernel and the
spectral factorization of the kernel covariance.  The engine evaluates the
target map on each queued domain, measures nonlinearity from the Taylor
expansion of the map Jacobian, and when the index exceeds the threshold
replaces the domain by library-split children along the worst direction.

Two index flavors are provided: the raw DA Jacobian (derivatives with respect
to the box variables, natural for a standalone split loop) and the scaled
Jacobian (physical derivatives re-normalized by the current kernel's
one-sigma-times-CI amplitudes, used when the split loop tracks a Gaussian
mixture).

The loop runs one generation at a time: the domains of a generation go to the
target in stacks of up to ``_WIDTH`` (one ``DAVector`` of stacked polynomials
per call, see :mod:`orbuq.ta`), and the images come back in the same order.
A stacked call that raises, for instance because its members disagree at a
branch, is redone member by member, which reproduces the lone images and
errors.  Domains are processed in generation order and children are appended
in library order, which is the breadth-first order of a FIFO queue; weights
are conserved exactly, so manifold ordering is reproducible.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Callable, Iterator, Sequence

import numpy as np

from .gmm import GaussianKernel, SplitLibrary, spectral_factors, split_kernel
from .ta import AlgebraContext, DAVector, TaylorPoly

__all__ = [
    "Domain", "Manifold", "SplitStats", "LoadsConfig", "initial_domain", "map_stacked",
    "raw_jacobian", "scaled_jacobian", "nli", "directional_nli",
    "split_direction", "split_domain", "loads", "loads_gmm",
]


@dataclass
class Domain:
    """One uncertainty subset: polynomial state, kernel, spectral bookkeeping."""

    state: DAVector
    kernel: GaussianKernel
    eigvecs: np.ndarray          # fixed eigenbasis shared by the whole tree
    eigvals: np.ndarray          # current kernel eigenvalues, aligned with dx_j
    nsplits: int = 0
    history: list[tuple[int, int]] = field(default_factory=list)
    nli: float | None = None     # set by the engine; None if skipped

    def __post_init__(self):
        if self.nsplits != len(self.history):
            raise ValueError("nsplits must equal history length")

    @property
    def weight(self) -> float:
        return self.kernel.weight


@dataclass
class SplitStats:
    """What a split run evaluated.

    ``target_evals`` counts states, not calls: a stacked call adds its
    members, and a member redone alone counts again.  ``batch_fallbacks``
    counts the stacked calls that were redone member by member.
    """

    domains_per_generation: list[int] = field(default_factory=list)
    target_evals: int = 0
    batch_fallbacks: int = 0

    def add(self, other: "SplitStats"):
        """Fold another run's counts into this one, generation by generation."""
        gens = self.domains_per_generation
        for g, n in enumerate(other.domains_per_generation):
            if g < len(gens):
                gens[g] += n
            else:
                gens.append(n)
        self.target_evals += other.target_evals
        self.batch_fallbacks += other.batch_fallbacks


@dataclass
class Manifold:
    """Ordered list of domains produced by one split run, with its counts."""

    domains: list[Domain]
    stats: SplitStats = field(default_factory=SplitStats)

    def __len__(self):
        return len(self.domains)

    def __iter__(self):
        return iter(self.domains)

    def __getitem__(self, i):
        return self.domains[i]

    def total_weight(self) -> float:
        return float(sum(d.weight for d in self.domains))

    def to_json_obj(self) -> list[dict]:
        out = []
        for d in self.domains:
            out.append(
                {
                    "weight": d.kernel.weight,
                    "mean": d.kernel.mean.tolist(),
                    "cov": [float(v) for v in d.kernel.cov.ravel()],
                    "nsplits": d.nsplits,
                    "history": [[k, i] for k, i in d.history],
                    "nli": d.nli,
                    "state": [
                        [{"e": list(e), "c": c} for e, c in p.coeffs().items()]
                        for p in d.state
                    ],
                }
            )
        return out

    def save(self, path):
        with open(path, "w") as fh:
            json.dump(self.to_json_obj(), fh)


@dataclass(frozen=True)
class LoadsConfig:
    """Split-loop controls: threshold, caps, CI amplitude and the library."""

    eps_nu: float
    library: SplitLibrary
    n_max: int = 20
    alpha_min: float = 0.0
    ci: float = 3.0

    def __post_init__(self):
        if self.eps_nu <= 0:
            raise ValueError("eps_nu must be positive")
        if self.ci <= 0:
            raise ValueError("ci must be positive")
        if self.n_max < 0:
            raise ValueError("n_max must be >= 0")
        if not 0.0 <= self.alpha_min <= 1.0:
            raise ValueError("alpha_min must lie in [0, 1]")


def initial_domain(mean: Sequence[float], cov: np.ndarray, ci: float,
                   order: int = 2, weight: float = 1.0) -> Domain:
    """Root domain: state mu + V {ci * sqrt(lambda) dx} with its kernel.

    Zero-variance eigendirections get zero amplitude: the matching box
    variables are inert (never split, never sampled off the mean).  A
    coordinate with exactly zero variance stays an exact constant of the
    state, since ``spectral_factors`` keeps it out of every live eigenvector.
    """
    mean = np.asarray(mean, dtype=np.float64)
    cov = np.asarray(cov, dtype=np.float64)
    lam, vec = spectral_factors(cov)
    n = mean.size
    ctx = AlgebraContext(order, n)
    amp = vec * (ci * np.sqrt(lam))
    state = DAVector.affine(ctx, mean, amp)
    return Domain(
        state=state,
        kernel=GaussianKernel(weight, mean, cov),
        eigvecs=vec,
        eigvals=lam,
    )


# -- nonlinearity index ---------------------------------------------------------


def raw_jacobian(image: DAVector) -> list[list[TaylorPoly]]:
    """Jacobian of the image polynomials with respect to the box variables."""
    n = image.ctx.nvars
    return [[comp.partial(j + 1) for j in range(n)] for comp in image]


def scaled_jacobian(image: DAVector, eigvals: Sequence[float], ci: float
                    ) -> list[list[TaylorPoly]]:
    """Physical Jacobian normalized column-wise by the kernel amplitudes.

    Column j is the partial with respect to box variable j divided by
    ``(ci * sqrt(lambda_j))**2``: one factor converts the box derivative to a
    physical derivative along eigendirection j, the second rescales it by the
    kernel's CI amplitude.  Degenerate directions (``lambda_j == 0``) carry no
    uncertainty and are zeroed out.
    """
    lam = np.asarray(eigvals, dtype=np.float64)
    if lam.min() < 0:
        raise ValueError(f"negative eigenvalue {lam.min():.3e}")
    if ci <= 0:
        raise ValueError("ci must be positive")
    ctx = image.ctx
    if lam.size != ctx.nvars:
        raise ValueError("eigenvalue count must match the variable count")
    cols = [
        None if lam[j] == 0.0 else 1.0 / (ci * ci * lam[j]) for j in range(ctx.nvars)
    ]
    out = []
    for comp in image:
        row = []
        for j in range(ctx.nvars):
            if cols[j] is None:
                row.append(ctx.zero())
            else:
                row.append(comp.partial(j + 1) * cols[j])
        out.append(row)
    return out


def nli(jac: Sequence[Sequence[TaylorPoly]]) -> float:
    """Ratio of the summed unit-box bounds to the 1-norm of the constant part."""
    num = 0.0
    den = 0.0
    for row in jac:
        for entry in row:
            num += entry.bound_linear()
            den += abs(entry.const)
    if den == 0.0:
        raise ValueError("nonlinearity index undefined: Jacobian constant part is zero")
    return num / den


def directional_nli(jac: Sequence[Sequence[TaylorPoly]], e: int) -> float:
    """Index of the Jacobian restricted to variations along box variable e.

    Equivalent to composing every entry with the vector that zeroes all
    variables but dx_e: only monomials supported exclusively on dx_e survive.
    """
    ctx = jac[0][0].ctx
    if not 1 <= e <= ctx.nvars:
        raise IndexError(f"direction {e} out of range 1..{ctx.nvars}")
    expmat = ctx.expmat
    other = np.delete(np.arange(ctx.nvars), e - 1)
    keep = (expmat[:, other].sum(axis=1) == 0)
    keep[0] = False  # constant entry never contributes to the bound
    num = 0.0
    den = 0.0
    for row in jac:
        for entry in row:
            num += float(np.abs(entry.c[keep]).sum())
            den += abs(entry.const)
    if den == 0.0:
        raise ValueError("nonlinearity index undefined: Jacobian constant part is zero")
    return num / den


def split_direction(jac: Sequence[Sequence[TaylorPoly]]) -> int:
    """Box variable (1-based) with the largest directional index; ties go low."""
    ctx = jac[0][0].ctx
    values = [directional_nli(jac, e) for e in range(1, ctx.nvars + 1)]
    best = max(values)
    if best <= 0.0:
        raise ValueError("no direction carries nonlinearity; split not warranted")
    return 1 + values.index(best)


# -- splitting -----------------------------------------------------------------


def split_domain(domain: Domain, k: int, lib: SplitLibrary, ci: float
                 ) -> list[Domain]:
    """Replace a domain by L children along box variable k (1-based).

    Child i substitutes ``dx_k -> means[i]/ci + sigma*dx_k`` in the state and
    carries the matching spectrally-split kernel, so the box-to-kernel affine
    correspondence is preserved exactly.
    """
    ctx = domain.state.ctx
    if not 1 <= k <= ctx.nvars:
        raise IndexError(f"split direction {k} out of range 1..{ctx.nvars}")
    if domain.eigvals[k - 1] <= 0.0:
        raise ValueError(f"direction {k} carries no uncertainty; refusing split")
    kernels = split_kernel(
        domain.kernel, k - 1, lib, basis=(domain.eigvals, domain.eigvecs)
    )
    identity = ctx.identity_vector()
    children = []
    for i, (mu_t, kern) in enumerate(zip(lib.means, kernels)):
        sub = list(identity.components)
        sub[k - 1] = ctx.variable(k) * lib.sigma + (mu_t / ci)
        child_state = domain.state.compose(sub)
        lam_child = domain.eigvals.copy()
        lam_child[k - 1] *= lib.sigma**2
        children.append(
            Domain(
                state=child_state,
                kernel=kern,
                eigvecs=domain.eigvecs,
                eigvals=lam_child,
                nsplits=domain.nsplits + 1,
                history=domain.history + [(k, i)],
            )
        )
    return children


_WIDTH = 64  # states per stacked call; wider stacks fall out of the cache


def map_stacked(f: Callable[[DAVector], DAVector], states: Sequence[DAVector],
                stats: SplitStats) -> Iterator[DAVector]:
    """``f(state)`` for each state in order, with one call of ``f`` per chunk.

    Chunks of up to ``_WIDTH`` states go to ``f`` as one stacked
    ``DAVector``; a chunk of one goes as the lone state.  A stacked call that
    raises is redone member by member, so each image is the lone image and an
    error is raised where the lone call raises it, after the images before it
    have been yielded.
    """
    for lo in range(0, len(states), _WIDTH):
        chunk = states[lo:lo + _WIDTH]
        if len(chunk) > 1:
            stats.target_evals += len(chunk)
            try:
                images = f(DAVector.stack(chunk)).members(len(chunk))
            except Exception:  # redone member by member below, which re-raises
                stats.batch_fallbacks += 1
            else:
                yield from images
                continue
        for state in chunk:
            stats.target_evals += 1
            yield f(state)


def _split_engine(f: Callable[[DAVector], DAVector], x0: Domain, cfg: LoadsConfig,
                  scaled: bool, honor_alpha: bool) -> tuple[Manifold, Manifold]:
    stats = SplitStats()
    inputs: list[Domain] = []
    images: list[Domain] = []

    def emit(din: Domain, y: DAVector, nu: float | None):
        din.nli = nu
        inputs.append(din)
        images.append(
            Domain(
                state=y,
                kernel=din.kernel,
                eigvecs=din.eigvecs,
                eigvals=din.eigvals,
                nsplits=din.nsplits,
                history=list(din.history),
                nli=nu,
            )
        )

    generation = [x0]
    while generation:
        stats.domains_per_generation.append(len(generation))
        children: list[Domain] = []
        for d, y in zip(generation, map_stacked(f, [g.state for g in generation], stats)):
            if honor_alpha and d.weight < cfg.alpha_min:
                emit(d, y, None)
                continue
            jac = scaled_jacobian(y, d.eigvals, cfg.ci) if scaled else raw_jacobian(y)
            nu = nli(jac)
            if nu < cfg.eps_nu or d.nsplits >= cfg.n_max:
                emit(d, y, nu)
            else:
                k = split_direction(jac)
                children.extend(split_domain(d, k, cfg.library, cfg.ci))
        generation = children
    return Manifold(inputs, stats), Manifold(images, stats)


def loads(f: Callable[[DAVector], DAVector], x0: Domain, cfg: LoadsConfig
          ) -> tuple[Manifold, Manifold]:
    """Split until the raw-Jacobian index of every subdomain clears the threshold.

    Returns index-aligned input and image manifolds.
    """
    return _split_engine(f, x0, cfg, scaled=False, honor_alpha=False)


def loads_gmm(f: Callable[[DAVector], DAVector], x0: Domain, cfg: LoadsConfig
              ) -> tuple[Manifold, Manifold]:
    """Mixture-tracking split loop with the scaled Jacobian and a weight floor.

    Domains lighter than ``alpha_min`` are emitted as-is without evaluating
    their index; emitted weights always sum to the root weight.
    """
    return _split_engine(f, x0, cfg, scaled=True, honor_alpha=True)
