"""End-to-end multifidelity uncertainty propagation.

The flow for one scenario:

1. Build the initial cartesian Gaussian from the Keplerian nominal and the
   diagonal sigma vector, and initialize the affine DA state over the
   CI-scaled eigenbasis.
2. For non-cartesian element sets, push that Gaussian through the coordinate
   transformation under split control (threshold 0.01); each resulting kernel
   is re-initialized affinely from its transformed moments and becomes a root
   for the propagation stage.  The transformed kernels double as the initial
   mixture that Monte-Carlo sampling and map evaluation use.
3. Run the mixture-tracking split loop with the low-fidelity theory map over
   the propagation span, giving per-kernel second-order Taylor maps.  The
   loop evaluates the map on stacks of domains (see ``orbuq.loads``); its
   first image, the dominant root's, is the one that gives ``nu_single``.
4. Propagate every kernel mean pointwise through the high-fidelity force
   model (fixed-size chunks, optional threads) and replace each map's
   constant part - directly in osculating element space, or through the
   theory's mean-element space when the TLE-shift mode is selected, which
   shifts stacks of kernels.
5. Push each kernel's unscented set through its map and rebuild moments; the
   split weights are untouched by propagation.

Low-fidelity (uncorrected) maps and moments are retained alongside the
corrected ones so accuracy comparisons need no second run.
"""

from __future__ import annotations

import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field
from functools import cached_property
from typing import Sequence

import numpy as np

from .elements import (
    CARTESIAN,
    ElementSet,
    ElemKind,
    FrameModel,
    KEPLERIAN,
    convert_values,
    rebranch_near,
)
from .forces import ForceConfig, SpacecraftParams
from .gmm import (
    GaussianKernel,
    GaussianMixture,
    SplitLibrary,
    generate_split_library,
    kernel_logpdf_support,
    lam_dmm,
    logpdf_quadratic_forms,
    marginal_mixture,
    regular_dims,
    reconstruct_moments,
    spectral_factors,
    ut_sigma,
)
from .highfi import propagate_hf
from .integrate import IntegratorConfig
from .generic import MixedBranch
from .loads import (
    Domain,
    LoadsConfig,
    Manifold,
    SplitStats,
    initial_domain,
    loads_gmm,
    map_stacked,
    nli,
    scaled_jacobian,
)
from .lowfi import KeplerJ2Theory, MeanElements, Sgp4Theory, lf_target, osc_to_mean
from .sgp4 import WGS72
from .ta import AlgebraContext, DAVector
from .timeutil import jday_from_iso, seconds_since_j2000

__all__ = [
    "Scenario", "MfResult", "LfStage", "lf_stage", "mf_propagate",
    "mc_reference", "mf_sample_eval", "rmse", "normalized_lam",
    "runtime_report", "shift_tle", "make_theory", "align_angles",
    "batch_propagate_chunked",
]

_DEG = math.pi / 180.0
_CHUNK = 4096  # fixed batch partition: results never depend on thread count
_BLOCK_ENTRIES = 2**16  # cap on the entries of each mf_sample_eval work array
# Rounding bound of a stacked score, in units of eps * (|F| @ H.T) (see
# logpdf_quadratic_forms).  To first order the score GEMM and its inputs err
# by at most (28 + 1 + 2 + 20) u: the 28-term dot product, the rounded
# monomials, the rounded centring of point and mean, and the precision and
# constant entries; the per-kernel loop of kernel_logpdf_support errs by at
# most 23 u (7-term projections squared, a 6-term sum, two final additions).
# With u = eps / 2 the difference of the two is below 37 eps; 64 leaves margin.
_SCORE_ROUNDING = 64 * np.finfo(np.float64).eps


@dataclass(frozen=True)
class Scenario:
    """One uncertainty-propagation case: orbit, sigmas, models and controls."""

    name: str
    ic_kepler: tuple[float, ...]          # a (km), e, i, raan, argp, M (deg)
    sigma_cartesian: tuple[float, ...]    # 1-sigma x, y, z (km), vx, vy, vz (km/s)
    epoch_utc: str = "2021-01-01T00:00:00"
    periods: float = 2.0
    element_set: ElementSet = CARTESIAN
    eps_nu: float = 0.01
    ci: float = 3.0
    n_max: int = 20
    alpha_min: float = 1e-8
    library_size: int = 3
    library_lambda: float = 1e-3
    conversion_eps_nu: float = 0.01
    lf_theory: str = "sgp4"
    lf_j2: float | None = None     # kepler_j2 theory only; None keeps the default
    shift_mode: str = "osculating"
    seed: int = 42
    force: ForceConfig = field(default_factory=ForceConfig)
    integrator: IntegratorConfig = field(default_factory=IntegratorConfig)
    spacecraft: SpacecraftParams = field(default_factory=SpacecraftParams)
    ut_kappa: float | None = None         # None: 3 - n
    library: SplitLibrary | None = None   # None: generate from (size, lambda)

    def __post_init__(self):
        if len(self.ic_kepler) != 6 or len(self.sigma_cartesian) != 6:
            raise ValueError("ic_kepler and sigma_cartesian need 6 entries")
        if any(s < 0 for s in self.sigma_cartesian):
            raise ValueError("sigmas must be nonnegative")
        if self.eps_nu <= 0:
            raise ValueError("eps_nu must be positive")
        if self.shift_mode not in ("osculating", "tle"):
            raise ValueError(f"unknown shift mode {self.shift_mode!r}")
        if self.lf_theory not in ("sgp4", "kepler_j2"):
            raise ValueError(f"unknown LF theory {self.lf_theory!r}")

    @property
    def mu(self) -> float:
        return self.force.mu

    @property
    def epoch_s(self) -> float:
        return seconds_since_j2000(jday_from_iso(self.epoch_utc))

    @property
    def period_s(self) -> float:
        return 2.0 * math.pi * math.sqrt(self.ic_kepler[0] ** 3 / self.mu)

    @property
    def duration_s(self) -> float:
        return self.periods * self.period_s

    def initial_cartesian(self) -> tuple[np.ndarray, np.ndarray]:
        a, e, i, raan, argp, m = self.ic_kepler
        kep = [a, e, i * _DEG, raan * _DEG, argp * _DEG, m * _DEG]
        rv, _ = convert_values(kep, KEPLERIAN, CARTESIAN, self.mu)
        cov = np.diag(np.asarray(self.sigma_cartesian, dtype=np.float64) ** 2)
        return np.array(rv), cov

    def split_library(self) -> SplitLibrary:
        if self.library is not None:
            return self.library
        return generate_split_library(self.library_size, self.library_lambda)


def make_theory(scenario: Scenario):
    if scenario.lf_theory == "sgp4":
        return Sgp4Theory(grav=WGS72, frame=FrameModel())
    if scenario.lf_j2 is not None:
        return KeplerJ2Theory(mu=scenario.mu, j2=scenario.lf_j2, frame=FrameModel())
    return KeplerJ2Theory(mu=scenario.mu, frame=FrameModel())


@dataclass(frozen=True)
class MfResult:
    """Maps, mixtures and diagnostics of one multifidelity run.

    Frozen, because ``stacked`` caches a view of ``inputs`` and the maps;
    the lists they hold must not be changed in place either.
    """

    scenario: Scenario
    element_set: ElementSet
    inputs: Manifold
    maps_lf: list[DAVector]
    maps_mf: list[DAVector]
    initial_mixture: GaussianMixture
    mixture_lf: GaussianMixture
    mixture_mf: GaussianMixture
    nu_single: float
    kappa_fallback: list[int]
    timings: dict
    stats: SplitStats = field(default_factory=SplitStats)

    @property
    def n_kernels(self) -> int:
        return len(self.inputs)

    @property
    def weights(self) -> np.ndarray:
        return np.array([d.weight for d in self.inputs])

    def fast_angle_index(self) -> int | None:
        return 5 if self.element_set.fast is not None else None

    @cached_property
    def stacked(self) -> "StackedKernels":
        """Whole-array view of the kernels, built on first use."""
        return StackedKernels.build(self.inputs, self.maps_lf, self.maps_mf, self.scenario.ci)

    def metrics_obj(self) -> dict:
        return {
            "scenario": self.scenario.name,
            "element_set": self.element_set.label(),
            "n_kernels": self.n_kernels,
            "nu_single": self.nu_single,
            "weight_sum": float(self.weights.sum()),
            "kappa_fallback_kernels": self.kappa_fallback,
            "timings": self.timings,
            "counters": asdict(self.stats),
        }


@dataclass(frozen=True)
class StackedKernels:
    """The kernels of one manifold as stacked arrays, for ``mf_sample_eval``.

    ``score`` and ``score_abs`` are the ``(G, H)`` pair of
    ``logpdf_quadratic_forms`` about ``centre``, the weighted mean of the
    kernel means; the rest holds, per kernel, the mean, the eigenbasis and
    the CI amplitudes of its box chart, and the coefficients of its LF and
    MF maps (monomial by output component).
    """

    centre: np.ndarray       # (d,)
    score: np.ndarray        # (K, 28)
    score_abs: np.ndarray    # (K, 28)
    means: np.ndarray        # (K, d)
    eigvecs: np.ndarray      # (K, d, d)
    amp: np.ndarray          # (K, d); zero on inert directions
    coeffs_lf: np.ndarray    # (K, M, d)
    coeffs_mf: np.ndarray    # (K, M, d)

    @classmethod
    def build(cls, inputs: Manifold, maps_lf: Sequence[DAVector],
              maps_mf: Sequence[DAVector], ci: float) -> "StackedKernels":
        kernels = [dom.kernel for dom in inputs]
        weights = np.array([k.weight for k in kernels])
        means = np.array([k.mean for k in kernels])
        centre = weights @ means / weights.sum()
        score, score_abs = logpdf_quadratic_forms(kernels, centre)

        def coeffs(maps):
            return np.array([np.stack([p.c for p in mp], axis=1) for mp in maps])

        return cls(
            centre=centre, score=score, score_abs=score_abs, means=means,
            eigvecs=np.array([dom.eigvecs for dom in inputs]),
            amp=np.array([ci * np.sqrt(dom.eigvals) for dom in inputs]),
            coeffs_lf=coeffs(maps_lf), coeffs_mf=coeffs(maps_mf),
        )


def batch_propagate_chunked(states: np.ndarray, t0_s: float, t1_s: float,
                            cfg: ForceConfig, icfg: IntegratorConfig,
                            sc: SpacecraftParams, threads: int = 1,
                            chunk: int = _CHUNK) -> np.ndarray:
    """Pointwise propagation in fixed-size chunks; threads never change results."""
    states = np.atleast_2d(states)
    pieces = [states[i : i + chunk] for i in range(0, states.shape[0], chunk)]
    if threads <= 1 or len(pieces) == 1:
        outs = [propagate_hf(p, t0_s, t1_s, cfg, icfg, sc) for p in pieces]
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            outs = list(
                pool.map(lambda p: propagate_hf(p, t0_s, t1_s, cfg, icfg, sc), pieces)
            )
    return np.vstack([np.atleast_2d(o) for o in outs])


def _rows_to_cartesian(rows: np.ndarray, eset: ElementSet, mu: float) -> np.ndarray:
    """(N, 6) element-set rows -> cartesian rows, converted as whole columns."""
    if eset.kind == ElemKind.CARTESIAN:
        return rows
    cols, _ = convert_values(list(rows.T), eset, CARTESIAN, mu)
    return np.column_stack(cols)


def _rows_from_cartesian(rows: np.ndarray, eset: ElementSet, mu: float,
                         angle_ref=None) -> np.ndarray:
    """(N, 6) cartesian rows -> element-set rows, converted as whole columns.

    Rows that take different branches of the conversion (``MixedBranch``)
    are converted one at a time.  Column 5 is moved to the branch nearest
    ``angle_ref`` when one is given (a float, or one reference per row).
    """
    if eset.kind == ElemKind.CARTESIAN:
        return rows
    try:
        cols, _ = convert_values(list(rows.T), CARTESIAN, eset, mu)
        out = np.column_stack([np.broadcast_to(c, rows.shape[:1]) for c in cols])
    except MixedBranch:
        out = np.array([convert_values(list(r), CARTESIAN, eset, mu)[0] for r in rows])
    if angle_ref is not None:
        out[:, 5] = rebranch_near(out[:, 5], angle_ref)
    return out


def _box_coordinates(points: np.ndarray, mean: np.ndarray, eigvecs: np.ndarray,
                     amp: np.ndarray) -> np.ndarray:
    """Physical points -> unit-box coordinates of an affine chart.

    ``amp`` holds the chart's CI amplitudes; inert directions (zero
    amplitude) get coordinate zero.
    """
    d = (points - mean) @ eigvecs
    return np.divide(d, amp, out=np.zeros_like(d), where=amp > 0.0)


def _kernel_moments(domain: Domain, mapped: DAVector, kappa: float, ci: float):
    """Unscented moments of one kernel pushed through its Taylor map.

    A covariance that is not PSD is recomputed with kappa = 0; the result is
    then clamped PSD and symmetrised.  Returns (mean, cov, fell_back).
    """
    def through_map(kap):
        sigma = ut_sigma(domain.kernel, kap)
        boxes = _box_coordinates(sigma.points, domain.kernel.mean, domain.eigvecs,
                                 ci * np.sqrt(domain.eigvals))
        return reconstruct_moments(mapped.eval_many(boxes), sigma.weights)

    mean, cov = through_map(kappa)
    lam = np.linalg.eigvalsh(0.5 * (cov + cov.T))
    fell_back = not lam.min() >= -1e-12 * max(lam.max(), 1.0)
    if fell_back:
        mean, cov = through_map(0.0)
    lam, vec = spectral_factors(cov)  # clamps the tiny negative residue
    cov = (vec * lam) @ vec.T
    return mean, 0.5 * (cov + cov.T), fell_back


def _mixture_from_maps(inputs: Manifold, maps: Sequence[DAVector], ci: float,
                       kappa_default: float) -> tuple[GaussianMixture, list[int]]:
    kernels = []
    fallback = []
    for i, (dom, mp) in enumerate(zip(inputs, maps)):
        mean, cov, fell_back = _kernel_moments(dom, mp, kappa_default, ci)
        if fell_back:
            fallback.append(i)
        kernels.append(GaussianKernel(dom.weight, mean, cov))
    return GaussianMixture(tuple(kernels)), fallback


def _replace_constant(mapped: DAVector, new_const: np.ndarray) -> DAVector:
    comps = []
    for p, c in zip(mapped, new_const):
        comps.append(p - p.const + float(c))
    return DAVector(comps)


def shift_tle(theory, t1_s: float, mu_hf_set: np.ndarray, lf_map_set: DAVector,
              element_set: ElementSet, mu: float,
              eps_max: float = 1e-10, i_max: int = 50) -> DAVector:
    """Constant-part replacement routed through the theory's mean-element space.

    Both the high-fidelity mean and the low-fidelity polynomial transform to
    the theory frame, invert to mean elements at the final epoch, recombine
    (high-fidelity constants, low-fidelity deviations), and map back through a
    zero-length theory propagation.  A stacked map takes ``mu_hf_set`` as
    (6, B) columns, one per member.
    """
    frame = theory.frame
    cart_map, _ = convert_values(list(lf_map_set), element_set, CARTESIAN, mu)
    mean_map = osc_to_mean(theory, t1_s, frame.to_theory(cart_map), eps_max=eps_max,
                           i_max=i_max)
    mu_cart, _ = convert_values(list(mu_hf_set), element_set, CARTESIAN, mu)
    mean_hf = osc_to_mean(theory, t1_s, frame.to_theory(mu_cart), eps_max=eps_max,
                          i_max=i_max)

    shifted_mean = MeanElements(
        theory.name, t1_s,
        [p - p.const + c for p, c in zip(mean_map.values, mean_hf.constant_values())],
        bstar=mean_map.bstar,
    )
    teme = theory.propagate_mean(shifted_mean, t1_s)
    out, _ = convert_values(frame.to_theory(teme, inverse=True), CARTESIAN, element_set, mu)
    return DAVector(out)


def _conversion_stage(scenario: Scenario, root: Domain, lib: SplitLibrary):
    """Map the cartesian root into the scenario's element set (split-checked)."""
    eset = scenario.element_set
    mu = scenario.mu

    def conv_map(state):
        out, _ = convert_values(list(state), CARTESIAN, eset, mu)
        return DAVector(out)

    cfg = LoadsConfig(
        eps_nu=scenario.conversion_eps_nu, library=lib,
        n_max=scenario.n_max, alpha_min=scenario.alpha_min, ci=scenario.ci,
    )
    m_in, m_out = loads_gmm(conv_map, root, cfg)
    kappa = scenario.ut_kappa if scenario.ut_kappa is not None else 3.0 - 6.0
    roots = []
    kernels = []
    for dom, img in zip(m_in, m_out):
        mean, cov, _ = _kernel_moments(dom, img.state, kappa, scenario.ci)
        roots.append(initial_domain(mean, cov, scenario.ci, weight=dom.weight))
        kernels.append(GaussianKernel(dom.weight, mean, cov))
    return roots, GaussianMixture(tuple(kernels)), m_in.stats.batch_fallbacks


@dataclass
class LfStage:
    """Output of the low-fidelity half of the pipeline (no HF correction).

    ``stats`` counts the low-fidelity split loop, summed over the roots, plus
    the stacked calls the conversion stage redid member by member.
    """

    inputs: Manifold
    maps: list[DAVector]
    initial_mixture: GaussianMixture
    nu_single: float
    timings: dict
    stats: SplitStats = field(default_factory=SplitStats)

    @property
    def n_kernels(self) -> int:
        return len(self.inputs)


def lf_stage(scenario: Scenario) -> LfStage:
    """Split-controlled low-fidelity propagation: manifold, maps and nu_s only."""
    timings: dict = {}
    lib = scenario.split_library()
    eset = scenario.element_set
    mu = scenario.mu
    t0_s = scenario.epoch_s
    t1_s = t0_s + scenario.duration_s
    theory = make_theory(scenario)

    mu0, p0 = scenario.initial_cartesian()
    root_cart = initial_domain(mu0, p0, scenario.ci)

    stats = SplitStats()
    if eset.kind == ElemKind.CARTESIAN:
        roots = [root_cart]
        initial_mixture = GaussianMixture((GaussianKernel(1.0, mu0, p0),))
    else:
        roots, initial_mixture, stats.batch_fallbacks = _conversion_stage(
            scenario, root_cart, lib)

    target = lf_target(theory, t0_s, t1_s, eset, mu)

    # single-domain index of the dominant root
    tic = time.perf_counter()
    lead = max(range(len(roots)), key=lambda i: roots[i].weight)
    lead_state = roots[lead].state
    y_lead = target(lead_state)
    timings["t_da_lf_s"] = time.perf_counter() - tic
    nu_single = nli(scaled_jacobian(y_lead, roots[lead].eigvals, scenario.ci))

    def split_target(state):
        # the split loop starts from the lead root, whose image is known
        return y_lead if state is lead_state else target(state)

    cfg = LoadsConfig(
        eps_nu=scenario.eps_nu, library=lib, n_max=scenario.n_max,
        alpha_min=scenario.alpha_min, ci=scenario.ci,
    )
    tic = time.perf_counter()
    all_inputs: list[Domain] = []
    all_maps: list[DAVector] = []
    for root in roots:
        m_in, m_out = loads_gmm(split_target, root, cfg)
        all_inputs.extend(m_in.domains)
        all_maps.extend(d.state for d in m_out)
        stats.add(m_in.stats)
    timings["t_loads_s"] = time.perf_counter() - tic

    # keep every kernel's fast angle on the branch of the nominal image
    angle_idx = 5 if eset.fast is not None else None
    if angle_idx is not None:
        ref_angle = y_lead[angle_idx].const
        all_maps = [
            DAVector(
                list(m)[:angle_idx]
                + [rebranch_near(m[angle_idx], ref_angle)]
                + list(m)[angle_idx + 1:]
            )
            for m in all_maps
        ]

    inputs = Manifold(all_inputs, stats)
    if abs(inputs.total_weight() - 1.0) > 1e-12:
        raise RuntimeError(f"split weights drifted: {inputs.total_weight()}")
    return LfStage(inputs, all_maps, initial_mixture, nu_single, timings, stats)


def mf_propagate(scenario: Scenario, threads: int = 1,
                 stage: LfStage | None = None) -> MfResult:
    """Run the full multifidelity pipeline for one scenario.

    A precomputed ``lf_stage`` result may be supplied to skip the split loop.
    """
    t_wall = time.perf_counter()
    eset = scenario.element_set
    mu = scenario.mu
    t0_s = scenario.epoch_s
    t1_s = t0_s + scenario.duration_s
    theory = make_theory(scenario)
    if stage is None:
        stage = lf_stage(scenario)
    timings = dict(stage.timings)
    inputs = stage.inputs
    all_maps = stage.maps
    initial_mixture = stage.initial_mixture
    nu_single = stage.nu_single
    angle_idx = 5 if eset.fast is not None else None

    # pointwise high-fidelity correction of every kernel mean
    tic = time.perf_counter()
    means_cart = _rows_to_cartesian(np.array([d.kernel.mean for d in inputs]), eset, mu)
    prop_cart = batch_propagate_chunked(
        means_cart, t0_s, t1_s, scenario.force, scenario.integrator,
        scenario.spacecraft, threads=threads,
    )
    angle_refs = None
    if angle_idx is not None:
        angle_refs = np.array([mp[angle_idx].const for mp in all_maps])
    mu_hf_set = _rows_from_cartesian(prop_cart, eset, mu, angle_refs)
    timings["t_hf_correction_s"] = time.perf_counter() - tic

    # constant-part substitution per the configured shift mode
    tic = time.perf_counter()
    stats = SplitStats()
    stats.add(stage.stats)
    if scenario.shift_mode == "osculating":
        maps_mf = [_replace_constant(mp, mh) for mp, mh in zip(all_maps, mu_hf_set)]
    else:
        def shift(vec):
            # vec: the LF map, then the HF mean as six constant components
            return shift_tle(theory, t1_s, vec.constant_part()[6:], DAVector(vec[:6]),
                             eset, mu)

        ctx = all_maps[0].ctx
        packed = [DAVector(list(mp) + [ctx.constant(v) for v in mh])
                  for mp, mh in zip(all_maps, mu_hf_set)]
        shift_stats = SplitStats()
        maps_mf = []
        for mp, shifted in zip(all_maps, map_stacked(shift, packed, shift_stats)):
            if angle_idx is not None:
                shifted = DAVector(
                    list(shifted)[:angle_idx]
                    + [rebranch_near(shifted[angle_idx], mp[angle_idx].const)]
                    + list(shifted)[angle_idx + 1:]
                )
            maps_mf.append(shifted)
        stats.batch_fallbacks += shift_stats.batch_fallbacks
    timings["t_shift_s"] = time.perf_counter() - tic

    kappa = scenario.ut_kappa if scenario.ut_kappa is not None else 3.0 - 6.0
    tic = time.perf_counter()
    mixture_lf, fb_lf = _mixture_from_maps(inputs, all_maps, scenario.ci, kappa)
    mixture_mf, fb_mf = _mixture_from_maps(inputs, maps_mf, scenario.ci, kappa)
    timings["t_moments_s"] = time.perf_counter() - tic
    timings["t_total_s"] = time.perf_counter() - t_wall

    return MfResult(
        scenario=scenario,
        element_set=eset,
        inputs=inputs,
        maps_lf=all_maps,
        maps_mf=maps_mf,
        initial_mixture=initial_mixture,
        mixture_lf=mixture_lf,
        mixture_mf=mixture_mf,
        nu_single=nu_single,
        kappa_fallback=sorted(set(fb_lf) | set(fb_mf)),
        timings=timings,
        stats=stats,
    )


# -- Monte-Carlo reference and metrics ---------------------------------------------


def sample_initial(scenario: Scenario, mixture: GaussianMixture, n: int,
                   seed: int | None = None) -> np.ndarray:
    """Draw n element-space samples from the initial mixture (seeded)."""
    rng = np.random.default_rng(scenario.seed if seed is None else seed)
    weights = np.array([k.weight for k in mixture.kernels])
    choice = rng.choice(len(weights), size=n, p=weights / weights.sum())
    out = np.empty((n, mixture.dim))
    for i, k in enumerate(mixture.kernels):
        rows = np.nonzero(choice == i)[0]
        if rows.size == 0:
            continue
        lam, vec = spectral_factors(k.cov)
        amp = vec * np.sqrt(lam)  # zero columns pin degenerate directions
        z = rng.standard_normal((rows.size, mixture.dim))
        out[rows] = k.mean + z @ amp.T
    return out


def mc_reference(scenario: Scenario, n: int, seed: int | None = None,
                 initial_mixture: GaussianMixture | None = None,
                 threads: int = 1,
                 angle_ref: float | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Seeded samples of the initial mixture propagated pointwise in high fidelity.

    Returns (initial samples, propagated samples), both in the scenario's
    element set.  Deterministic for a fixed seed.
    """
    if n < 1:
        raise ValueError("need at least one sample")
    eset = scenario.element_set
    mu = scenario.mu
    if initial_mixture is None:
        mu0, p0 = scenario.initial_cartesian()
        if eset.kind != ElemKind.CARTESIAN:
            raise ValueError("non-cartesian scenarios need the pipeline's "
                             "initial mixture for consistent sampling")
        initial_mixture = GaussianMixture((GaussianKernel(1.0, mu0, p0),))
    x0 = sample_initial(scenario, initial_mixture, n, seed)
    cart0 = _rows_to_cartesian(x0, eset, mu)
    t0_s = scenario.epoch_s
    cart1 = batch_propagate_chunked(
        cart0, t0_s, t0_s + scenario.duration_s, scenario.force,
        scenario.integrator, scenario.spacecraft, threads=threads,
    )
    return x0, _rows_from_cartesian(cart1, eset, mu, angle_ref)


def _exact_assignment(inputs: Manifold, row: np.ndarray, kernels) -> int:
    """Kernel of highest ``log weight + kernel_logpdf_support`` among ``kernels``.

    Scans in index order and replaces only on a strictly greater score, so
    ties go to the lowest index; kernel 0 when no score exceeds -inf.
    """
    best, pick = -np.inf, 0
    for j in kernels:
        dom = inputs[j]
        lr = math.log(dom.weight) + kernel_logpdf_support(dom.kernel, row)[0]
        if lr > best:
            best, pick = lr, int(j)
    return pick


def _assign_samples(result: MfResult, xs: np.ndarray) -> np.ndarray:
    """Kernel of highest posterior responsibility for every sample.

    One matrix product scores a block of samples against all kernels; a
    sample whose best score is not clear of every other score by the
    rounding bound is re-scored exactly, so the assignment equals the
    per-kernel scan.
    """
    n = xs.shape[0]
    assign = np.zeros(n, dtype=np.intp)
    if len(result.inputs) == 1:
        return assign
    view = result.stacked
    g, h = view.score, view.score_abs
    ctx = AlgebraContext(2, xs.shape[1])
    rows = max(1, _BLOCK_ENTRIES // max(g.shape[0], ctx.size))
    score_buf = np.empty((min(rows, n), g.shape[0]))
    bound_buf = np.empty_like(score_buf)
    for a in range(0, n, rows):
        feats = ctx.monomial_values(xs[a:a + rows] - view.centre)
        m = feats.shape[0]
        score = np.matmul(feats, g.T, out=score_buf[:m])
        bound = np.matmul(np.abs(feats, out=feats), h.T, out=bound_buf[:m])
        bound *= _SCORE_ROUNDING
        best = score.argmax(axis=1)
        at = np.arange(best.size)
        floor = score[at, best] - bound[at, best]
        score += bound
        cand = score >= floor[:, None]
        assign[a:a + rows] = best
        # non-finite scores (points off the float range) take the full scan
        unsure = ~np.isfinite(floor)
        cand[unsure] = True
        for i in np.flatnonzero(unsure | (np.count_nonzero(cand, axis=1) > 1)):
            assign[a + i] = _exact_assignment(result.inputs, xs[a + i], np.flatnonzero(cand[i]))
    return assign


def mf_sample_eval(result: MfResult, initial_samples: np.ndarray,
                   use_lf: bool = False) -> np.ndarray:
    """Evaluate initial samples through the per-kernel maps.

    Each sample goes to the kernel with the highest posterior responsibility
    ``weight * N(sample; mean, cov)`` of the initial mixture, scored as
    ``log weight + kernel_logpdf_support``; ties go to the lowest kernel
    index.  It then goes through that kernel's polynomial -- no extra
    propagation involved.  The work runs on ``result.stacked``, a view of
    all kernels built once per result: one matrix product scores a block of
    samples against every kernel, a sample whose best score is within the rounding
    bound of another is re-scored exactly, kernel by kernel, and samples
    sorted by kernel go through one map product per kernel.  No work array
    holds more than 2**16 entries (or one sample's row, if that is longer).
    """
    xs = np.atleast_2d(np.asarray(initial_samples, dtype=np.float64))
    assign = _assign_samples(result, xs)
    view = result.stacked
    coeffs = view.coeffs_lf if use_lf else view.coeffs_mf
    ctx = (result.maps_lf if use_lf else result.maps_mf)[0].ctx
    order = np.argsort(assign, kind="stable")
    out = np.empty_like(xs)
    rows = max(1, _BLOCK_ENTRIES // ctx.size)
    for a in range(0, order.size, rows):
        idx = order[a:a + rows]
        pts = xs[idx]
        ks = assign[idx]
        cuts = [0, *(np.flatnonzero(ks[1:] != ks[:-1]) + 1), idx.size]
        segments = [(ks[lo], lo, hi) for lo, hi in zip(cuts[:-1], cuts[1:])]
        boxes = np.empty_like(pts)
        for k, lo, hi in segments:
            boxes[lo:hi] = _box_coordinates(pts[lo:hi], view.means[k], view.eigvecs[k],
                                            view.amp[k])
        mono = ctx.monomial_values(boxes)
        for k, lo, hi in segments:
            pts[lo:hi] = mono[lo:hi] @ coeffs[k]
        out[idx] = pts
    return out


def rmse(expected: np.ndarray, actual: np.ndarray) -> np.ndarray:
    """Element-wise root-mean-square difference of two equally long sample sets."""
    a = np.atleast_2d(np.asarray(expected, dtype=np.float64))
    b = np.atleast_2d(np.asarray(actual, dtype=np.float64))
    if a.shape != b.shape:
        raise ValueError(f"sample shape mismatch: {a.shape} vs {b.shape}")
    return np.sqrt(np.mean((a - b) ** 2, axis=0))


def align_angles(samples: np.ndarray, reference: float, idx: int) -> np.ndarray:
    """Shift one angle column by whole turns to the branch nearest a reference."""
    out = np.array(samples, copy=True)
    out[:, idx] -= 2 * math.pi * np.round((out[:, idx] - reference) / (2 * math.pi))
    return out


def lam_vs_samples(result: MfResult, propagated_samples: np.ndarray,
                   use_lf: bool = False) -> float:
    """Sample-cloud overlap with the final mixture on its regular subspace."""
    mix = result.mixture_lf if use_lf else result.mixture_mf
    dims = regular_dims(mix)
    return lam_dmm(propagated_samples[:, dims], marginal_mixture(mix, dims))


def normalized_lam(results: dict[float, MfResult], propagated_samples: np.ndarray,
                   reference_alpha: float = 1e-8) -> dict[float, float]:
    """Overlap of each alpha_min solution, normalized by the reference run."""
    if reference_alpha not in results:
        raise ValueError(f"grid must include the reference alpha {reference_alpha}")
    ref = lam_vs_samples(results[reference_alpha], propagated_samples)
    return {
        alpha: lam_vs_samples(res, propagated_samples) / ref
        for alpha, res in results.items()
    }


def runtime_report(result: MfResult, t_da_hf_s: float | None = None,
                   measure_da_hf: bool = False) -> dict:
    """Per-kernel timing model and the multifidelity speedup estimate.

    ``t_pw_hf_s`` is measured here: one float high-fidelity propagation of
    kernel 0's cartesian mean over the scenario span.
    """
    scenario = result.scenario
    t0_s = scenario.epoch_s
    t1_s = t0_s + scenario.duration_s
    mean0 = _rows_to_cartesian(np.atleast_2d(result.inputs[0].kernel.mean),
                               result.element_set, scenario.mu)[0]
    tic = time.perf_counter()
    propagate_hf(mean0, t0_s, t1_s, scenario.force, scenario.integrator, scenario.spacecraft)
    t_pw_hf = time.perf_counter() - tic
    if measure_da_hf and t_da_hf_s is None:
        mu0, p0 = scenario.initial_cartesian()
        dom = initial_domain(mu0, p0, scenario.ci)
        tic = time.perf_counter()
        propagate_hf(dom.state, t0_s, t1_s,
                     scenario.force, scenario.integrator, scenario.spacecraft)
        t_da_hf_s = time.perf_counter() - tic
    t_da_lf = result.timings["t_da_lf_s"]
    t_mf = t_da_lf + t_pw_hf
    report = {
        "n_kernels": result.n_kernels,
        "t_da_lf_s": t_da_lf,
        "t_pw_hf_s": t_pw_hf,
        "t_mf_per_kernel_s": t_mf,
        "t_mf_total_est_s": result.n_kernels * t_mf,
        "t_hf_batch_actual_s": result.timings["t_hf_correction_s"],
    }
    if t_da_hf_s is not None:
        report["t_da_hf_s"] = t_da_hf_s
        report["t_hf_total_est_s"] = result.n_kernels * t_da_hf_s
        report["speedup"] = t_da_hf_s / t_mf
    return report
