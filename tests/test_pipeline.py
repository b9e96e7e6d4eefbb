"""Multifidelity pipeline: correction semantics, sampling, shifts and metrics."""

import math
from dataclasses import replace
from types import SimpleNamespace

import mpmath
import numpy as np
import pytest

from orbuq.config import load_scenario
from orbuq.elements import (
    ALTERNATE_LAM,
    CARTESIAN,
    EQUINOCTIAL_L,
    EQUINOCTIAL_LAM,
    KEPLERIAN,
    convert_values,
)
from orbuq.forces import ForceConfig
from orbuq import gmm, pipeline
from orbuq.gmm import (
    DEFAULT_LIBRARY,
    GaussianKernel,
    GaussianMixture,
    kernel_logpdf_support,
    lam_dmm,
    marginal_mixture,
)
from orbuq.integrate import IntegratorConfig
from orbuq.loads import Manifold, initial_domain
from orbuq.lowfi import KeplerJ2Theory, lf_target
from orbuq.pipeline import (
    Scenario,
    batch_propagate_chunked,
    lam_vs_samples,
    lf_stage,
    make_theory,
    mc_reference,
    mf_propagate,
    mf_sample_eval,
    rmse,
    runtime_report,
    sample_initial,
    shift_tle,
)
from orbuq.ta import DAVector, TaylorPoly


def kepler_identity_scenario(**kw):
    """LF and HF are the same pure two-body model."""
    defaults = dict(
        name="kepler-identity",
        ic_kepler=(7000.0, 0.01, 10.0, 0.0, 0.0, 0.0),
        sigma_cartesian=(0.1, 0.1, 0.1, 1e-4, 1e-4, 1e-4),
        element_set=CARTESIAN,
        eps_nu=0.5,
        lf_theory="kepler_j2",
        lf_j2=0.0,
        force=ForceConfig.two_body(),
        periods=1.0,
    )
    defaults.update(kw)
    return Scenario(**defaults)


@pytest.fixture(scope="module")
def identity_result():
    return mf_propagate(kepler_identity_scenario())


class TestScenario:
    def test_validation(self):
        with pytest.raises(ValueError):
            kepler_identity_scenario(sigma_cartesian=(1.0, -1.0, 0, 0, 0, 0))
        with pytest.raises(ValueError):
            kepler_identity_scenario(shift_mode="sideways")

    def test_duration_from_periods(self):
        s = kepler_identity_scenario(periods=2.0)
        expected = 2.0 * 2 * math.pi * math.sqrt(7000.0**3 / s.mu)
        assert s.duration_s == pytest.approx(expected, rel=1e-12)

    def test_epoch_seconds(self):
        s = kepler_identity_scenario()
        assert s.epoch_s == pytest.approx((2459215.5 - 2451545.0) * 86400.0)

    def test_lf_stage_splits_without_the_optimizer(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("generate_split_library called on the run path")

        monkeypatch.setattr(gmm, "generate_split_library", refuse)
        stage = lf_stage(kepler_identity_scenario(eps_nu=0.002))
        # one split of the root, with the shipped library's weights
        assert [d.weight for d in stage.inputs] == list(DEFAULT_LIBRARY.weights)


class TestMfPropagate:
    def test_identical_models_mf_is_noop(self, identity_result):
        res = identity_result
        # constant substitution replaces the LF nominal with an HF nominal
        # that matches it to integrator tolerance
        for klf, kmf in zip(res.mixture_lf.kernels, res.mixture_mf.kernels):
            assert np.abs(kmf.mean - klf.mean).max() < 1e-7
            assert np.abs(kmf.cov - klf.cov).max() < 1e-9

    def test_weight_invariance(self, identity_result):
        res = identity_result
        w_final = np.array([k.weight for k in res.mixture_mf.kernels])
        np.testing.assert_array_equal(w_final, res.weights)
        assert res.weights.sum() == pytest.approx(1.0, abs=1e-12)

    def test_zero_duration_identity_flow(self):
        res = mf_propagate(kepler_identity_scenario(periods=0.0))
        mu0, p0 = kepler_identity_scenario().initial_cartesian()
        k = res.mixture_mf.kernels[0]
        assert np.abs(k.mean - mu0).max() < 1e-9
        assert np.abs(k.cov - p0).max() / np.abs(p0).max() < 1e-8

    def test_heo_alternate_lambda_single_kernel(self):
        # quasi-linear representation: one kernel carries the whole PDF
        sc = Scenario(
            name="heo-alt",
            ic_kepler=(35000.0, 0.2, 0.0, 0.0, 0.0, 0.0),
            sigma_cartesian=(1.0, 1.0, 0.0, 1e-3, 1e-3, 0.0),
            element_set=ALTERNATE_LAM,
            eps_nu=0.003,
            lf_theory="kepler_j2",
            force=ForceConfig(degree=2, order=0, third_body_sun=False,
                              third_body_moon=False, drag=False, srp=False),
        )
        res = mf_propagate(sc)
        assert res.n_kernels == 1
        assert res.nu_single < sc.eps_nu

    def test_more_kernels_for_cartesian_than_alternate(self):
        base = dict(
            ic_kepler=(7000.0, 0.05, 0.0, 0.0, 0.0, 0.0),
            sigma_cartesian=(1.0, 1.0, 0.0, 2e-3, 2e-3, 0.0),
            lf_theory="kepler_j2",
            force=ForceConfig.two_body(),
            periods=2.0,
        )
        cart = mf_propagate(Scenario(name="c", element_set=CARTESIAN,
                                     eps_nu=0.02, **base))
        alt = mf_propagate(Scenario(name="a", element_set=ALTERNATE_LAM,
                                    eps_nu=0.02, **base))
        assert cart.n_kernels > alt.n_kernels

    @pytest.mark.parametrize("eset", [EQUINOCTIAL_L, ALTERNATE_LAM],
                             ids=lambda e: e.label())
    def test_equatorial_leo_non_cartesian_completes(self, eset):
        # z / vz are inert for the equatorial LEO orbit: the converted roots
        # must keep h and k exact constants through the SGP4 target
        leo, _ = load_scenario("leo")
        stage = lf_stage(replace(leo, element_set=eset, periods=0.05))
        assert stage.n_kernels >= 1
        assert stage.inputs.total_weight() == pytest.approx(1.0, abs=1e-12)

    def test_timings_recorded(self, identity_result):
        for key in ("t_da_lf_s", "t_loads_s", "t_hf_correction_s", "t_total_s"):
            assert identity_result.timings[key] >= 0.0
        # the single-kernel HF time is measured by runtime_report, on request
        assert "t_pw_hf_s" not in identity_result.timings

    def test_counters_count_each_domain_once(self, monkeypatch):
        # the dominant root is evaluated once: for nu_single and t_da_lf_s,
        # and its image starts the split loop
        calls = []
        real = pipeline.lf_target

        def counting_target(*args, **kwargs):
            f = real(*args, **kwargs)

            def g(state):
                calls.append(state[0].c.shape[1:] or (1,))
                return f(state)
            return g

        monkeypatch.setattr(pipeline, "lf_target", counting_target)
        sc = kepler_identity_scenario(eps_nu=1e-3, lf_j2=None, n_max=2)
        stage = lf_stage(sc)
        stats = stage.stats
        assert stats.domains_per_generation == [1, 3, 9]
        assert stats.target_evals == 13 == sum(n for (n,) in calls)
        assert [n for (n,) in calls] == [1, 3, 9]
        assert stats.batch_fallbacks == 0

    def test_roots_share_one_split_loop(self, monkeypatch):
        # LEO in equinoctial/L converts into 9 roots that each split once:
        # after the lone call for nu_single, one stack per generation
        calls = []
        real = pipeline.lf_target

        def counting_target(*args, **kwargs):
            f = real(*args, **kwargs)

            def g(state):
                calls.append(state[0].c.shape[1:] or (1,))
                return f(state)
            return g

        monkeypatch.setattr(pipeline, "lf_target", counting_target)
        leo, _ = load_scenario("leo", ["elements.set=equinoctial", "elements.fast_var=L",
                                       "periods=1.0", "loads.eps_nu=0.01"])
        stage = lf_stage(leo)
        assert [n for (n,) in calls] == [1, 9, 27]
        assert stage.stats.domains_per_generation == [9, 27]
        assert stage.stats.target_evals == 36 and stage.stats.batch_fallbacks == 0

    def test_one_propagation_per_chunk(self, monkeypatch):
        # the kernel means are corrected in _CHUNK-row batches and nothing
        # else is propagated
        calls = []
        propagate_hf = pipeline.propagate_hf

        def counted(state, *args, **kwargs):
            calls.append(np.shape(state))
            return propagate_hf(state, *args, **kwargs)

        monkeypatch.setattr(pipeline, "propagate_hf", counted)
        res = mf_propagate(kepler_identity_scenario(periods=0.2))
        assert len(calls) == math.ceil(res.n_kernels / pipeline._CHUNK)
        assert sum(shape[0] for shape in calls) == res.n_kernels


class TestShiftTle:
    def test_sgp4_shift_runs_stacked(self):
        # the kernels' shifts under SGP4 run as one stack: the HF means
        # reach SGP4 as float columns
        sc = kepler_identity_scenario(
            lf_theory="sgp4", lf_j2=None, shift_mode="tle", eps_nu=1e-4, n_max=1,
            periods=0.5, sigma_cartesian=(1.0, 1.0, 1.0, 1e-3, 1e-3, 1e-3))
        res = mf_propagate(sc)
        assert res.n_kernels == 3
        assert res.stats.batch_fallbacks == 0

    def test_zero_shift_returns_input_map(self):
        mu = 398600.4355
        th = KeplerJ2Theory(mu=mu, j2=0.0)
        sc = kepler_identity_scenario()
        mu0, p0 = sc.initial_cartesian()
        dom = initial_domain(mu0, p0, ci=3.0)
        t1 = sc.epoch_s + sc.duration_s
        f = lf_target(th, sc.epoch_s, t1, CARTESIAN, mu)
        lf_map = f(dom.state)
        shifted = shift_tle(th, t1, lf_map.constant_part(), lf_map, CARTESIAN, mu)
        for a, b in zip(shifted, lf_map):
            assert np.abs(a.c - b.c).max() < 1e-9 * max(1.0, abs(b.const))

    def test_small_along_track_shift_hits_target(self):
        mu = 398600.4355
        th = KeplerJ2Theory(mu=mu, j2=0.0)
        sc = kepler_identity_scenario()
        mu0, p0 = sc.initial_cartesian()
        dom = initial_domain(mu0, p0, ci=3.0)
        t1 = sc.epoch_s + sc.duration_s
        f = lf_target(th, sc.epoch_s, t1, CARTESIAN, mu)
        lf_map = f(dom.state)
        nominal = lf_map.constant_part()
        vhat = nominal[3:] / np.linalg.norm(nominal[3:])
        target = nominal.copy()
        target[:3] += 1e-3 * vhat  # one meter along track
        shifted = shift_tle(th, t1, target, lf_map, CARTESIAN, mu)
        assert np.abs(shifted.constant_part()[:3] - target[:3]).max() < 1e-9


class TestMcReference:
    def test_determinism(self):
        sc = kepler_identity_scenario(periods=0.2)
        x0a, x1a = mc_reference(sc, 20)
        x0b, x1b = mc_reference(sc, 20)
        np.testing.assert_array_equal(x0a, x0b)
        np.testing.assert_array_equal(x1a, x1b)

    def test_single_sample_degenerate_sigma_is_nominal(self):
        sc = kepler_identity_scenario(
            sigma_cartesian=(0.0,) * 6, periods=0.3, eps_nu=1e9
        )
        mu0, _ = sc.initial_cartesian()
        x0, x1 = mc_reference(sc, 1)
        np.testing.assert_allclose(x0[0], mu0, atol=1e-15)
        from orbuq.highfi import propagate_hf

        ref = propagate_hf(mu0, sc.epoch_s, sc.epoch_s + sc.duration_s, sc.force)
        np.testing.assert_allclose(x1[0], ref, atol=1e-12)

    def test_sample_mean_near_nominal(self):
        sc = kepler_identity_scenario(periods=0.0)
        mu0, p0 = sc.initial_cartesian()
        x0, _ = mc_reference(sc, 4000)
        sig = np.sqrt(np.diag(p0))
        err = np.abs(x0.mean(axis=0) - mu0)
        assert np.all(err <= 5 * sig / math.sqrt(4000) + 1e-15)

    def test_zero_variance_directions_pinned(self):
        sc = kepler_identity_scenario(
            sigma_cartesian=(0.1, 0.1, 0.0, 1e-4, 1e-4, 0.0), periods=0.0
        )
        mu0, _ = sc.initial_cartesian()
        x0, _ = mc_reference(sc, 50)
        np.testing.assert_array_equal(x0[:, 2], np.full(50, mu0[2]))
        np.testing.assert_array_equal(x0[:, 5], np.full(50, mu0[5]))

    def test_batch_chunking_thread_invariance(self):
        sc = kepler_identity_scenario(periods=0.1)
        mu0, p0 = sc.initial_cartesian()
        rng = np.random.default_rng(0)
        states = mu0 + rng.normal(0, 1, (8, 6)) * np.sqrt(np.diag(p0))
        seq = batch_propagate_chunked(
            states, sc.epoch_s, sc.epoch_s + sc.duration_s, sc.force,
            sc.integrator, sc.spacecraft, threads=1, chunk=3,
        )
        par = batch_propagate_chunked(
            states, sc.epoch_s, sc.epoch_s + sc.duration_s, sc.force,
            sc.integrator, sc.spacecraft, threads=4, chunk=3,
        )
        np.testing.assert_array_equal(seq, par)


class TestRowsFromCartesian:
    def test_mixed_branches_convert_row_by_row(self):
        # an equatorial row among inclined ones takes the other Keplerian
        # chart, so the rows are converted one at a time, exactly
        mu = 398600.4355
        rows = np.array([
            convert_values([7000.0 + 100 * i, 0.01, inc, 0.3, 0.2, 0.1 * i], KEPLERIAN,
                           CARTESIAN, mu)[0]
            for i, inc in enumerate([0.5, 0.0, 0.9])
        ])
        got = pipeline._rows_from_cartesian(rows, KEPLERIAN, mu, angle_ref=np.full(3, 20.0))
        want = np.array([convert_values(list(r), CARTESIAN, KEPLERIAN, mu)[0] for r in rows])
        want[:, 5] += 6 * math.pi
        np.testing.assert_array_equal(got, want)


class TestMfSampleEval:
    def test_identity_dynamics_reproduces_samples(self):
        res = mf_propagate(kepler_identity_scenario(periods=0.0))
        x0, _ = mc_reference(res.scenario, 30)
        pred = mf_sample_eval(res, x0)
        # zero-duration target is inversion + zero-length forward propagation
        np.testing.assert_allclose(pred, x0, atol=1e-8)

    def test_single_kernel_is_plain_evaluation(self, identity_result):
        res = identity_result
        assert res.n_kernels == 1
        x0 = sample_initial(res.scenario, res.initial_mixture, 10)
        pred = mf_sample_eval(res, x0)
        dom = res.inputs[0]
        amp = res.scenario.ci * np.sqrt(dom.eigvals)
        boxes = np.where(amp > 0, (x0 - dom.kernel.mean) @ dom.eigvecs / np.where(amp > 0, amp, 1.0), 0.0)
        direct = res.maps_mf[0].eval_many(boxes)
        np.testing.assert_allclose(pred, direct, atol=1e-14)

    def test_multi_kernel_assignment_covers_all_samples(self):
        sc = kepler_identity_scenario(eps_nu=2e-3, periods=1.0)
        res = mf_propagate(sc)
        assert res.n_kernels > 1
        x0, x1 = mc_reference(sc, 200)
        pred = mf_sample_eval(res, x0)
        assert np.all(np.isfinite(pred))
        # predictions from second-order maps track the truth closely
        err = rmse(x1, pred)
        assert err[:3].max() < 1e-4


def loop_sample_eval(result, xs, use_lf=False):
    """Reference evaluator: the per-kernel scan with a streaming strict argmax."""
    maps = result.maps_lf if use_lf else result.maps_mf
    best = np.full(xs.shape[0], -np.inf)
    assign = np.zeros(xs.shape[0], dtype=np.intp)
    for j, dom in enumerate(result.inputs):
        lr = kernel_logpdf_support(dom.weight, dom.kernel.mean, dom.eigvals, dom.eigvecs, xs)
        better = lr > best
        best[better] = lr[better]
        assign[better] = j
    out = np.empty_like(xs)
    for j in np.unique(assign):
        rows = np.flatnonzero(assign == j)
        dom = result.inputs[j]
        amp = result.scenario.ci * np.sqrt(dom.eigvals)
        d = (xs[rows] - dom.kernel.mean) @ dom.eigvecs
        out[rows] = maps[j].eval_many(np.where(amp > 0, d / np.where(amp > 0, amp, 1.0), 0.0))
    return out, assign


def with_domains(result, picks, kernels=None, maps_shift=None):
    """A result whose kernels are ``result``'s at indices ``picks``.

    ``kernels`` replaces some of the picked kernels ({position: kernel});
    ``maps_shift`` adds constants to some picked maps ({position: offset}),
    so a test can tell which copy of a duplicated kernel a sample went to.
    """
    kernels = kernels or {}
    maps_shift = maps_shift or {}
    doms = [result.inputs[j] for j in picks]
    doms = [replace(d, kernel=kernels[i]) if i in kernels else d for i, d in enumerate(doms)]

    def maps(src):
        out = [src[j] for j in picks]
        return [DAVector([p + maps_shift[i] for p in m]) if i in maps_shift else m
                for i, m in enumerate(out)]

    return replace(result, inputs=Manifold(doms), maps_lf=maps(result.maps_lf),
                   maps_mf=maps(result.maps_mf))


def assert_matches_loop(result, xs, use_lf=False):
    ref, ref_assign = loop_sample_eval(result, xs, use_lf)
    got = mf_sample_eval(result, xs, use_lf=use_lf)
    np.testing.assert_array_equal(pipeline._assign_samples(result, xs), ref_assign)
    scale = np.abs(ref).max(axis=0)
    assert np.all(np.abs(got - ref) <= 1e-14 * scale)
    return ref_assign


@pytest.fixture(scope="module")
def multi_result():
    res = mf_propagate(kepler_identity_scenario(eps_nu=2e-3, periods=1.0))
    assert res.n_kernels == 3
    return res


def spread_samples(result, n, seed):
    """Samples of the initial mixture plus a wider cloud that reaches every kernel."""
    x0 = sample_initial(result.scenario, result.initial_mixture, n, seed=seed)
    mean = result.initial_mixture.kernels[0].mean
    return np.vstack([x0, mean + 2.0 * (x0 - mean)])


class TestStackedSampleEval:
    @pytest.mark.parametrize("use_lf", [False, True])
    def test_matches_per_kernel_loop(self, multi_result, use_lf):
        xs = spread_samples(multi_result, 400, seed=11)
        assign = assert_matches_loop(multi_result, xs, use_lf)
        assert np.unique(assign).size == multi_result.n_kernels

    def test_exact_tie_goes_to_lowest_index(self, multi_result, monkeypatch):
        # kernel 1 twice: equal scores, the first copy wins; the second copy's
        # maps are shifted so any sample it took would show
        res = with_domains(multi_result, [0, 1, 1, 2], maps_shift={2: 1.0})
        xs = spread_samples(multi_result, 200, seed=12)
        rescored = []
        monkeypatch.setattr(pipeline, "kernel_logpdf_support",
                            lambda *a: rescored.append(1) or kernel_logpdf_support(*a))
        assign = assert_matches_loop(res, xs)
        assert np.any(assign == 1) and not np.any(assign == 2)
        assert rescored  # ties run the exact re-check

    def test_near_tie_runs_exact_recheck(self, multi_result, monkeypatch):
        # a copy of kernel 1 with a weight larger by 1e-13 relative: the score
        # gap is below the rounding bound, so both copies are candidates, and
        # far above the rounding of the exact scores, so the copy must win
        k1 = multi_result.inputs[1].kernel
        heavier = GaussianKernel(k1.weight * (1.0 + 1e-13), k1.mean, k1.cov)
        res = with_domains(multi_result, [0, 1, 1, 2], kernels={2: heavier},
                           maps_shift={2: 1.0})
        xs = spread_samples(multi_result, 200, seed=13)
        rescored = []
        monkeypatch.setattr(pipeline, "kernel_logpdf_support",
                            lambda *a: rescored.append(1) or kernel_logpdf_support(*a))
        assign = assert_matches_loop(res, xs)
        assert np.any(assign == 2) and not np.any(assign == 1)
        assert len(rescored) >= 2 * np.count_nonzero(assign == 2)

    def test_inert_directions(self, multi_result):
        # z and vz exactly inert in every kernel: scored on the live
        # directions, zero box coordinates along the inert ones
        kernels = {}
        for i, dom in enumerate(multi_result.inputs):
            cov = dom.kernel.cov.copy()
            cov[[2, 5], :] = 0.0
            cov[:, [2, 5]] = 0.0
            kernels[i] = GaussianKernel(dom.weight, dom.kernel.mean, cov)
        res = with_domains(multi_result, [0, 1, 2], kernels=kernels)
        inert = [replace(initial_domain(k.mean, k.cov, res.scenario.ci, weight=k.weight),
                         state=d.state) for d, k in zip(res.inputs, kernels.values())]
        res = replace(res, inputs=Manifold(inert))
        assert all(np.count_nonzero(d.eigvals == 0.0) == 2 for d in res.inputs)
        xs = spread_samples(multi_result, 300, seed=14)
        for use_lf in (False, True):
            assign = assert_matches_loop(res, xs, use_lf)
        assert np.unique(assign).size == 3

    def test_blocks_not_dividing_sample_count(self, multi_result, monkeypatch):
        # blocks of 3 samples (100 entries // 28 monomials) over 82 samples
        monkeypatch.setattr(pipeline, "_BLOCK_ENTRIES", 100)
        res = replace(multi_result)  # a fresh result: the view is rebuilt
        xs = spread_samples(multi_result, 41, seed=15)
        assert xs.shape[0] % 3 != 0
        for use_lf in (False, True):
            assert_matches_loop(res, xs, use_lf)


def oracle_moments(dom, mapped, ci):
    """Reference: one kernel's unscented moments the way the pipeline took them
    kernel by kernel, sigma points in the kernel's own coordinates mapped to
    its box and evaluated through its map as absolute values."""
    n = dom.kernel.dim

    def through_map(kappa):
        sigma = gmm.ut_sigma(dom.kernel, kappa)
        offsets = (sigma.points - dom.kernel.mean) @ dom.eigvecs
        boxes = pipeline._box_coordinates(offsets, dom.eigvals, ci)
        return gmm.reconstruct_moments(mapped.eval_many(boxes), sigma.weights)

    mean, cov = through_map(3.0 - n)
    lam = np.linalg.eigvalsh(cov)
    fell_back = not lam.min() >= -1e-12 * max(lam.max(), 1.0)
    if fell_back:
        mean, cov = through_map(0.0)
    lam, vec = gmm.spectral_factors(cov)
    cov = (vec * lam) @ vec.T
    return mean, 0.5 * (cov + cov.T), fell_back


def stacked_moments(maps, ci):
    return pipeline._unscented_moments(maps[0].ctx, pipeline._coeff_stack(maps), ci)


def conversion_leaves(name, overrides):
    """The split leaves and images of a scenario's element-set conversion stage."""
    from orbuq.loads import LoadsConfig, loads_gmm

    sc, _ = load_scenario(name, overrides)
    mu0, p0 = sc.initial_cartesian()

    def conv(state):
        return DAVector(convert_values(list(state), CARTESIAN, sc.element_set, sc.mu)[0])

    cfg = LoadsConfig(eps_nu=pipeline._CONVERSION_EPS_NU, library=DEFAULT_LIBRARY, ci=sc.ci)
    inputs, images = loads_gmm(conv, [initial_domain(mu0, p0, sc.ci)], cfg)
    return inputs, images, sc.ci


@pytest.fixture(scope="module")
def leo_split_stage():
    sc, _ = load_scenario("leo", ["periods=1.0", "loads.eps_nu=0.025"])
    stage = lf_stage(sc)
    assert stage.n_kernels == 243
    return stage.inputs, stage.maps, sc.ci


def box_square_map(ctx):
    """y_i = dx_i^2 on every box variable, as (M, n) coefficients."""
    coeffs = np.zeros((ctx.size, ctx.nvars))
    for i in range(ctx.nvars):
        e = [0] * ctx.nvars
        e[i] = 2
        coeffs[ctx.index[tuple(e)], i] = 1.0
    return coeffs


class TestUnscentedMoments:
    """All kernels' moments in one stacked pass on their own eigenbases."""

    @pytest.mark.parametrize("case", ["leo-split", "heo-eq-conversion", "leo-eq-conversion"])
    def test_matches_per_kernel_path(self, case, request):
        if case == "leo-split":
            inputs, maps, ci = request.getfixturevalue("leo_split_stage")
        else:
            name = case.split("-")[0]
            inputs, maps, ci = conversion_leaves(
                name, ["elements.set=equinoctial", "elements.fast_var=L"])
        means, covs, fallback = stacked_moments(maps, ci)
        assert fallback == []
        for dom, mp, mean, cov in zip(inputs, maps, means, covs):
            ref_mean, ref_cov, fell_back = oracle_moments(dom, mp, ci)
            assert not fell_back
            assert np.abs(cov - ref_cov).max() <= 2e-12 * np.abs(ref_cov).max()
            var = np.diag(ref_cov)
            live = var > gmm._REGULAR_VARIANCE
            assert live.any()
            assert np.all(np.abs(mean - ref_mean)[live] <= 1e-10 * np.sqrt(var[live]))

    def test_affine_chart_returns_its_kernel(self):
        # the HEO root (28,000 km from the Earth's centre) through its own
        # chart: the moments are the kernel's, free of the cancellation of
        # sigma images taken as absolute values
        sc, _ = load_scenario("heo", [])
        mu0, p0 = sc.initial_cartesian()
        dom = initial_domain(mu0, p0, sc.ci)
        mix, fallback = pipeline._mixture_from_maps(Manifold([dom]), [dom.state], sc.ci)
        assert fallback == []
        (kernel,) = mix.kernels
        np.testing.assert_array_equal(kernel.mean, mu0)
        assert np.abs(kernel.cov - p0).max() <= 1e-15 * np.abs(p0).max()

    def test_kappa_zero_fallback(self):
        # y_i = dx_i^2 with kappa = 3 - n: variances 2 s^4 and covariances
        # -s^4 (s = 1/ci, the box spread), so one eigenvalue is -3 s^4
        sc, _ = load_scenario("heo", [])
        mu0, p0 = sc.initial_cartesian()
        good = initial_domain(mu0, p0, sc.ci)
        ctx = good.state.ctx
        bad = initial_domain(np.zeros(6), np.diag([1.0, 2.0, 3.0, 4.0, 5.0, 6.0]), sc.ci)
        square = DAVector([TaylorPoly(ctx, c) for c in box_square_map(ctx).T])
        s4 = sc.ci**-4
        means, covs, fallback = stacked_moments([good.state, square, good.state], sc.ci)
        assert fallback == [1]
        ref_mean, ref_cov, fell_back = oracle_moments(bad, square, sc.ci)
        assert fell_back
        np.testing.assert_allclose(means[1], ref_mean, rtol=0, atol=1e-15)
        # both sides are clamped, each through its own eigendecomposition
        assert np.abs(covs[1] - ref_cov).max() <= 1e-14 * np.abs(ref_cov).max()
        assert np.linalg.eigvalsh(covs[1]).min() >= -1e-15 * np.abs(covs[1]).max()
        # kappa = 3 - n gives the indefinite covariance above
        sigma = gmm.ut_sigma(bad.kernel, 3.0 - 6)
        direct = gmm.reconstruct_moments(
            square.eval_many(pipeline._box_coordinates(
                (sigma.points - bad.kernel.mean) @ bad.eigvecs, bad.eigvals, sc.ci)),
            sigma.weights)[1]
        np.testing.assert_allclose(np.diag(direct), 2 * s4, rtol=1e-12)
        np.testing.assert_allclose(direct[0, 1:], -s4, rtol=1e-12)
        assert np.linalg.eigvalsh(direct).min() == pytest.approx(-3 * s4, rel=1e-12)
        # the other kernels of the stack are untouched
        alone = stacked_moments([good.state], sc.ci)
        for k in (0, 2):
            np.testing.assert_array_equal(means[k], alone[0][0])
            np.testing.assert_array_equal(covs[k], alone[1][0])

    def test_inert_box_variables_carry_no_terms(self, leo_split_stage):
        # z and vz are inert: a map has exact zero coefficients on every
        # monomial of an inert box variable, so the sigma points along it
        # image the centre, as a zero box coordinate would
        inputs, maps, _ = leo_split_stage
        inert = np.array([gmm.is_inert(d.eigvals) for d in inputs])
        assert inert.sum(axis=1).min() == 2
        ctx = maps[0].ctx
        terms = inert.astype(np.intp) @ ctx.expmat.T > 0
        assert not np.any(pipeline._coeff_stack(maps)[terms])


class TestRmse:
    def test_identical_sets_zero(self):
        a = np.arange(18.0).reshape(3, 6)
        assert np.all(rmse(a, a) == 0.0)

    def test_constant_offset(self):
        a = np.zeros((5, 6))
        b = a.copy()
        b[:, 2] += 0.25
        out = rmse(a, b)
        assert out[2] == pytest.approx(0.25, abs=1e-15)
        assert np.all(out[[0, 1, 3, 4, 5]] == 0.0)

    def test_matches_extended_precision(self):
        rng = np.random.default_rng(5)
        a = rng.normal(0, 1, (40, 6))
        b = rng.normal(0, 1, (40, 6))
        got = rmse(a, b)
        with mpmath.workdps(50):
            for j in range(6):
                acc = mpmath.mpf(0)
                for i in range(40):
                    acc += (mpmath.mpf(a[i, j]) - mpmath.mpf(b[i, j])) ** 2
                ref = float(mpmath.sqrt(acc / 40))
                assert abs(got[j] - ref) < 1e-15

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            rmse(np.zeros((3, 6)), np.zeros((4, 6)))


class TestRuntimeReport:
    def test_equal_timings_unit_speedup(self, identity_result, monkeypatch):
        # a clock that advances 0.25 s per reading makes the single-kernel
        # HF propagation that runtime_report times take exactly 0.25 s
        ticks = iter(np.arange(0.0, 100.0, 0.25))
        monkeypatch.setattr(pipeline, "time", SimpleNamespace(perf_counter=lambda: next(ticks)))
        t_da_lf = identity_result.timings["t_da_lf_s"]
        rep = runtime_report(identity_result, t_da_hf_s=t_da_lf + 0.25)
        assert rep["t_pw_hf_s"] == 0.25
        assert rep["t_mf_per_kernel_s"] == t_da_lf + 0.25
        assert rep["speedup"] == pytest.approx(1.0, rel=1e-12)

    def test_report_fields(self, identity_result):
        rep = runtime_report(identity_result, t_da_hf_s=1.0)
        for key in ("n_kernels", "t_da_lf_s", "t_pw_hf_s", "speedup",
                    "t_mf_per_kernel_s", "t_hf_total_est_s"):
            assert key in rep


class TestLamVsSamples:
    def test_degenerate_support_marginalization(self):
        # zero-variance z / vz directions: overlap evaluated on the regular dims
        sc = kepler_identity_scenario(
            sigma_cartesian=(0.1, 0.1, 0.0, 1e-4, 1e-4, 0.0), periods=0.5
        )
        res = mf_propagate(sc)
        x0, x1 = mc_reference(sc, 300)
        val = lam_vs_samples(res, x1)
        assert np.isfinite(val) and val > 0.0
        val_lf = lam_vs_samples(res, x1, use_lf=True)
        assert np.isfinite(val_lf) and val_lf > 0.0

    def test_roundoff_variance_with_mean_spread_dropped(self):
        # kernels spread their means along coordinate 2 but carry only
        # roundoff-level variance there: the overlap lives on coordinates 0, 1
        rng = np.random.default_rng(5)
        n = 8
        kernels = tuple(
            GaussianKernel(
                1.0 / n,
                np.array([rng.normal(0.0, 0.5), rng.normal(0.0, 0.5),
                          rng.normal(0.0, 2.6e-3)]),
                np.diag([0.3, 0.2, 1e-20 * rng.uniform(0.1, 1.0)]),
            )
            for _ in range(n)
        )
        mix = GaussianMixture(kernels)
        x1 = np.column_stack([rng.normal(0.0, 0.7, (500, 2)),
                              rng.normal(0.0, 2.6e-3, 500)])
        res = SimpleNamespace(mixture_mf=mix, mixture_lf=mix)
        val = lam_vs_samples(res, x1)
        expected = lam_dmm(x1[:, :2], marginal_mixture(mix, [0, 1]))
        assert np.isfinite(val) and val > 0.0
        assert val == pytest.approx(expected, rel=1e-14)
