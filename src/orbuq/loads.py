"""Adaptive domain splitting driven by a DA nonlinearity index.

One loop splits every root :class:`Domain` (a Gaussian kernel, its eigenpairs
and a polynomial state, its affine chart on the unit box) a generation at a
time.  The domains of a generation go to the target in stacks of up to
``_WIDTH`` (a failing stack is redone member by member, which reproduces the
lone images and errors), and each stack is scored in one call on the
target's stacked image: its CI-scaled Jacobians form one float array, from
which the index nu and the directional index along every box variable of
each domain are summed with the bits of its lone index.  A domain whose nu
clears the threshold is a leaf; any other is replaced by library-split
children along its worst direction.  The leaves come back grouped by root in
root order, each root's in its breadth-first order, with their images and
exactly conserved weights.
"""

from __future__ import annotations

import json
import math
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Iterator, Sequence

import numpy as np

from .gmm import GaussianKernel, SplitLibrary, is_inert, spectral_factors, split_kernel
from .ta import AlgebraContext, DAVector

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
    nli: float | None = None     # set by the engine; None below alpha_min

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
    ``split_directions`` counts each generation's splits by box variable, 1 first.
    """

    domains_per_generation: list[int] = field(default_factory=list)
    target_evals: int = 0
    batch_fallbacks: int = 0
    split_directions: list[list[int]] = field(default_factory=list)


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


def raw_jacobian(image: DAVector) -> np.ndarray:
    """Jacobian of the image with respect to the box variables, as one float array.

    Entry ``[..., i, j]`` of the ``(..., n_out, nvars, size)`` array holds the
    coefficients of d y_i / d dx_j; a stacked image's members come first.
    """
    ctx = image.ctx
    coeffs = np.stack(np.broadcast_arrays(*(p.c.T for p in image)), axis=-2)
    jac = np.zeros(coeffs.shape[:-1] + (ctx.nvars, ctx.size))
    for j, (src, dst, fac) in enumerate(ctx._dtabs):
        jac[..., j, dst] = coeffs[..., src] * fac
    return jac


def scaled_jacobian(image: DAVector, eigvals: Sequence[float], ci: float) -> np.ndarray:
    """Physical Jacobian normalized column-wise by the kernel amplitudes.

    Column j is the partial with respect to box variable j divided by
    ``(ci * sqrt(lambda_j))**2``: one factor converts the box derivative to a
    physical derivative along eigendirection j, the second rescales it by the
    kernel's CI amplitude.  Inert directions (``is_inert``) carry no
    uncertainty and are zeroed out.  ``eigvals`` of shape ``(B, nvars)``
    gives each member of a stacked image its own kernel.
    """
    lam = np.asarray(eigvals, dtype=np.float64)
    if lam.min() < 0:
        raise ValueError(f"negative eigenvalue {lam.min():.3e}")
    if ci <= 0:
        raise ValueError("ci must be positive")
    if lam.shape[-1] != image.ctx.nvars:
        raise ValueError("eigenvalue count must match the variable count")
    live = ~is_inert(lam)[..., None, :, None]
    scale = np.divide(1.0, ci * ci * lam[..., None, :, None], out=np.zeros(live.shape), where=live)
    return np.where(live, raw_jacobian(image) * scale, 0.0)


def _index_sums(jac: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Numerators of nu and of each directional index (nu's first), and the denominator.

    An entry's |coefficients| are summed over its non-constant terms and over
    the powers of each box variable alone; these and its |constant part| add up
    entry by entry in row-major order, so a stack member has its lone bits.
    """
    nvars, size = jac.shape[-2:]
    order = next(o for o in range(size) if math.comb(o + nvars, nvars) >= size)
    exps = AlgebraContext(order, nvars).expmat[1:]
    pure = 1 + np.array([np.flatnonzero(exps[:, e] == exps.sum(axis=1)) for e in range(nvars)])
    terms = np.concatenate([np.abs(jac[..., :1]),
                            np.abs(jac[..., 1:]).sum(axis=-1, keepdims=True),
                            np.abs(jac[..., pure]).sum(axis=-1)], axis=-1)
    sums = np.cumsum(terms.reshape(terms.shape[:-3] + (-1, terms.shape[-1])), axis=-2)[..., -1, :]
    return sums[..., 1:], sums[..., 0]


def _ratio(num, den):
    """``num / den``, a float for a lone index; refuses a zero denominator."""
    if np.any(den == 0.0):
        raise ValueError("nonlinearity index undefined: Jacobian constant part is zero")
    r = num / den
    return float(r) if np.ndim(r) == 0 else r


def _direction(values: np.ndarray):
    """Box variable (1-based) of the largest index on the last axis; ties go low."""
    if np.any(values.max(axis=-1) <= 0.0):
        raise ValueError("no direction carries nonlinearity; split not warranted")
    k = 1 + np.argmax(values, axis=-1)
    return int(k) if k.ndim == 0 else k


def nli(jac: np.ndarray):
    """Ratio of the summed unit-box bounds (|non-constant coefficients|) to |constant parts|."""
    num, den = _index_sums(jac)
    return _ratio(num[..., 0], den)


def directional_nli(jac: np.ndarray, e: int):
    """Index of the Jacobian restricted to variations along box variable e.

    Equivalent to composing every entry with the vector that zeroes all
    variables but dx_e: only monomials supported exclusively on dx_e survive.
    """
    if not 1 <= e <= jac.shape[-2]:
        raise IndexError(f"direction {e} out of range 1..{jac.shape[-2]}")
    num, den = _index_sums(jac)
    return _ratio(num[..., e], den)


def split_direction(jac: np.ndarray):
    """Box variable (1-based) with the largest directional index; ties go low."""
    num, den = _index_sums(jac)
    return _direction(_ratio(num[..., 1:], den[..., None]))


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


def _stacked_chunks(f: Callable[[DAVector], DAVector], states: Sequence[DAVector],
                    stats: SplitStats) -> Iterator[tuple[DAVector | None, Iterator[DAVector]]]:
    """Per chunk of up to ``_WIDTH`` states: its stacked image and its members' images.

    The stacked image is None where the chunk went to ``f`` member by member:
    a chunk of one, or a stacked call that raised.  Those members' images
    are then computed as they are drawn, so a lone call's error surfaces at
    its own member.
    """
    for lo in range(0, len(states), _WIDTH):
        chunk = states[lo:lo + _WIDTH]
        if len(chunk) > 1:
            stats.target_evals += len(chunk)
            try:
                stack = f(DAVector.stack(chunk))
                images = stack.members(len(chunk))
            except Exception:  # redone member by member below, which re-raises
                stats.batch_fallbacks += 1
            else:
                yield stack, iter(images)
                continue
        yield None, _one_by_one(f, chunk, stats)


def _one_by_one(f, chunk, stats):
    """The lone images of a chunk, each computed when it is drawn."""
    for state in chunk:
        stats.target_evals += 1
        yield f(state)


def map_stacked(f: Callable[[DAVector], DAVector], states: Sequence[DAVector],
                stats: SplitStats) -> Iterator[DAVector]:
    """``f(state)`` for each state in order, with one call of ``f`` per chunk.

    Chunks of up to ``_WIDTH`` states go to ``f`` as one stacked
    ``DAVector``; a chunk of one goes as the lone state.  A stacked call that
    raises is redone member by member, so each image is the lone image and an
    error is raised where the lone call raises it, after the images before it
    have been yielded.
    """
    for _, images in _stacked_chunks(f, states, stats):
        yield from images


@contextmanager
def _blame(r: int, history: list[tuple[int, int]]):
    """Re-raise a failure as a ``RuntimeError`` naming the domain's root and split history."""
    try:
        yield
    except (ArithmeticError, ValueError, RuntimeError) as e:
        raise RuntimeError(f"split loop failed on root {r}, split history {history}: {e}") from e


def loads_gmm(f: Callable[[DAVector], DAVector], roots: Sequence[Domain],
              cfg: LoadsConfig) -> tuple[Manifold, list[DAVector]]:
    """Split every root until each subdomain's scaled-Jacobian index clears the threshold.

    Returns the leaves as a manifold and, index-aligned, their images under
    ``f``.  The leaves are grouped by root in root order, each root's in its
    breadth-first order.  Domains lighter than ``alpha_min`` are emitted
    as-is, with no index; emitted weights always sum to the roots' weights.
    A failure of the target, the index or the split direction is re-raised
    as a ``RuntimeError`` naming the root and the split history of the
    domain; within a stack, the target's failures come first.
    """
    stats = SplitStats()
    leaves: list[list[tuple[Domain, DAVector]]] = [[] for _ in roots]
    generation = list(enumerate(roots))
    while generation:
        stats.domains_per_generation.append(len(generation))
        children: list[tuple[int, Domain]] = []
        splits = [0] * roots[0].state.ctx.nvars
        chunks = _stacked_chunks(f, [d.state for _, d in generation], stats)
        for lo in range(0, len(generation), _WIDTH):
            chunk = generation[lo:lo + _WIDTH]
            stack, ys = next(chunks)
            images = []
            for r, d in chunk:
                with _blame(r, d.history):
                    images.append(next(ys))
            # the target's own stack, restacked only where it ran member by member
            if stack is None:
                stack = DAVector.stack(images)
            jac = scaled_jacobian(stack, [d.eigvals for _, d in chunk], cfg.ci)
            num, den = _index_sums(jac)
            for b, ((r, d), y) in enumerate(zip(chunk, images)):
                with _blame(r, d.history):
                    d.nli = None if d.weight < cfg.alpha_min else _ratio(num[b, 0], den[b])
                    if d.nli is None or d.nli < cfg.eps_nu or d.nsplits >= cfg.n_max:
                        leaves[r].append((d, y))
                        continue
                    k = _direction(_ratio(num[b, 1:], den[b]))
                splits[k - 1] += 1
                children.extend((r, c) for c in split_domain(d, k, cfg.library, cfg.ci))
        stats.split_directions.append(splits)
        generation = children
    flat = [leaf for group in leaves for leaf in group]
    return Manifold([d for d, _ in flat], stats), [y for _, y in flat]
