"""Adaptive domain splitting driven by a DA nonlinearity index.

A domain is a Gaussian kernel with the spectral factorization of its
covariance, whose eigenvalue is exactly 0.0 on an inert direction
(``gmm.is_inert``), and a polynomial state: the kernel's affine chart on the
unit box, ``mu + V {ci * sqrt(lambda) dx}``.  Roots and split children alike
build the state from the kernel's mean and eigenpairs with ``DAVector.affine``,
so the state and the kernel agree bit for bit at every depth; a domain's split
count is the length of its split history.  The engine evaluates the target
map on each queued domain, measures nonlinearity from the Taylor expansion of
the map Jacobian, re-normalized by the current kernel's one-sigma-times-CI
amplitudes, and when the index exceeds the threshold replaces the domain by
library-split children along the worst direction.

One loop runs every root domain, one generation at a time: the domains of a
generation, whatever their root, go to the target in stacks of up to
``_WIDTH`` (one ``DAVector`` of stacked polynomials per call, see
:mod:`orbuq.ta`), and the images come back in the same order.  A stacked call
that raises, for instance because its members disagree at a branch, is redone
member by member, which reproduces the lone images and errors.  Domains are
processed in generation order and children are appended in library order,
which is each root's breadth-first order; the leaves are returned grouped by
root in root order, and weights are conserved exactly, so manifold ordering
is reproducible.  The loop returns the leaves and, index-aligned, their
images under the target.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Callable, Iterator, Sequence

import numpy as np

from .gmm import GaussianKernel, SplitLibrary, is_inert, spectral_factors, split_kernel
from .ta import AlgebraContext, DAVector, TaylorPoly

__all__ = [
    "Domain", "Manifold", "SplitStats", "LoadsConfig", "initial_domain", "map_stacked",
    "raw_jacobian", "scaled_jacobian", "nli", "directional_nli",
    "split_direction", "split_domain", "loads_gmm",
]


@dataclass
class Domain:
    """One uncertainty subset: kernel, its eigenpairs and its polynomial state.

    ``eigvecs`` and ``eigvals`` are the kernel's eigenpairs, the only
    factorization of its covariance that is read after a split; ``eigvals``
    is exactly 0.0 on inert directions.  ``state`` is the kernel's affine
    chart, ``DAVector.affine(ctx, kernel.mean, eigvecs * (ci * sqrt(eigvals)))``
    bit for bit, and ``nsplits`` is ``len(history)``.
    """

    state: DAVector
    kernel: GaussianKernel
    eigvecs: np.ndarray          # fixed eigenbasis shared by the whole tree
    eigvals: np.ndarray          # current kernel eigenvalues, aligned with dx_j
    history: list[tuple[int, int]] = field(default_factory=list)
    nli: float | None = None     # set by the engine; None if skipped

    @property
    def nsplits(self) -> int:
        return len(self.history)

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
                   weight: float = 1.0) -> Domain:
    """Root domain: second-order state mu + V {ci * sqrt(lambda) dx} with its kernel.

    Zero-variance eigendirections get zero amplitude: the matching box
    variables are inert (never split, never sampled off the mean).  A
    coordinate with exactly zero variance stays an exact constant of the
    state, since ``spectral_factors`` keeps it out of every live eigenvector.
    """
    mean = np.asarray(mean, dtype=np.float64)
    cov = np.asarray(cov, dtype=np.float64)
    lam, vec = spectral_factors(cov)
    return Domain(
        state=DAVector.affine(AlgebraContext(2, mean.size), mean, vec * (ci * np.sqrt(lam))),
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
    kernel's CI amplitude.  Inert directions (``is_inert``) carry no
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
    inert = is_inert(lam)
    cols = [None if inert[j] else 1.0 / (ci * ci * lam[j]) for j in range(ctx.nvars)]
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

    Child i carries the i-th spectrally-split kernel, whose eigenvalue along
    k is the parent's times sigma^2, and a state built from that kernel as
    ``initial_domain`` builds a root's, so the box-to-kernel correspondence
    holds exactly at every depth.
    """
    ctx = domain.state.ctx
    if not 1 <= k <= ctx.nvars:
        raise IndexError(f"split direction {k} out of range 1..{ctx.nvars}")
    if is_inert(domain.eigvals[k - 1]):
        raise ValueError(f"direction {k} carries no uncertainty; refusing split")
    kernels = split_kernel(domain.kernel, k - 1, lib, (domain.eigvals, domain.eigvecs))
    lam_child = domain.eigvals.copy()
    lam_child[k - 1] *= lib.sigma**2
    amp = domain.eigvecs * (ci * np.sqrt(lam_child))
    return [
        Domain(
            state=DAVector.affine(ctx, kern.mean, amp),
            kernel=kern,
            eigvecs=domain.eigvecs,
            eigvals=lam_child,
            history=domain.history + [(k, i)],
        )
        for i, kern in enumerate(kernels)
    ]


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


def loads_gmm(f: Callable[[DAVector], DAVector], roots: Sequence[Domain],
              cfg: LoadsConfig) -> tuple[Manifold, list[DAVector]]:
    """Split every root until each subdomain's scaled-Jacobian index clears the threshold.

    Returns the leaves as a manifold and, index-aligned, their images under
    ``f``.  The leaves are grouped by root in root order, each root's in its
    breadth-first order.  Domains lighter than ``alpha_min`` are emitted
    as-is without evaluating their index; emitted weights always sum to the
    roots' weights.  A failure of the target, the index or the split
    direction is re-raised as a ``RuntimeError`` naming the root and the
    split history of the domain.
    """
    stats = SplitStats()
    leaves: list[list[tuple[Domain, DAVector]]] = [[] for _ in roots]

    def emit(r: int, d: Domain, y: DAVector, nu: float | None):
        d.nli = nu
        leaves[r].append((d, y))

    generation = list(enumerate(roots))
    while generation:
        stats.domains_per_generation.append(len(generation))
        children: list[tuple[int, Domain]] = []
        ys = map_stacked(f, [d.state for _, d in generation], stats)
        for r, d in generation:
            try:
                y = next(ys)
                if d.weight < cfg.alpha_min:
                    emit(r, d, y, None)
                    continue
                jac = scaled_jacobian(y, d.eigvals, cfg.ci)
                nu = nli(jac)
                if nu < cfg.eps_nu or d.nsplits >= cfg.n_max:
                    emit(r, d, y, nu)
                    continue
                k = split_direction(jac)
            except (ArithmeticError, ValueError, RuntimeError) as exc:
                raise RuntimeError(
                    f"split loop failed on root {r}, split history {d.history}: {exc}"
                ) from exc
            children.extend((r, c) for c in split_domain(d, k, cfg.library, cfg.ci))
        generation = children
    flat = [leaf for group in leaves for leaf in group]
    return Manifold([d for d, _ in flat], stats), [y for _, y in flat]
