"""Sample scoring from the domains' eigenpairs, and the one rule for inert directions.

The reference below is the scoring that eigenpair scoring replaced: an
``eigh`` of each kernel's covariance, keeping the eigendirections above 1e-12
of the largest eigenvalue.  On the benchmark workloads and the golden
scenarios both must assign every sample to the same kernel, and the maps must
then give the same bits.
"""

import math

import numpy as np
import pytest

from orbuq import gmm, pipeline
from orbuq.config import load_scenario
from orbuq.gmm import DEFAULT_LIBRARY, is_inert, kernel_logpdf_support, spectral_factors
from orbuq.loads import initial_domain, scaled_jacobian, split_domain
from orbuq.pipeline import MfResult, lf_stage, sample_initial
from orbuq.ta import AlgebraContext, DAVector

# (bundled scenario, overrides): two benchmark workloads and the golden cases
SCENARIOS = {
    "leo-split": ("leo", ["periods=1.0", "loads.eps_nu=0.025"]),
    "heo-eq": ("heo", ["elements.set=equinoctial", "elements.fast_var=L",
                       "shift.mode=tle", "periods=2.0", "loads.eps_nu=0.01"]),
    "golden-leo-sgp4-cartesian": ("leo", ["periods=1.0", "loads.eps_nu=0.03"]),
    "golden-heo-j2-equinoctial": ("heo", ["elements.set=equinoctial", "elements.fast_var=L",
                                          "periods=2.0", "loads.eps_nu=0.015"]),
    "golden-leo-sgp4-equinoctial": ("leo", ["elements.set=equinoctial", "elements.fast_var=L",
                                            "periods=1.0", "loads.eps_nu=0.01"]),
}
SAMPLES = 10_000

# G differs from the reference by the roundoff of eigh on a covariance rebuilt
# from the split eigenpairs; measured at most 9e-15 of H on these scenarios
G_TOL = 1e-13


def eigh_factors(cov):
    """The replaced rule: eigh, then keep what exceeds 1e-12 of the largest eigenvalue."""
    lam, vec = spectral_factors(cov)
    keep = lam > 1e-12 * lam.max()
    lk = lam[keep]
    return lk, vec[:, keep], 0.5 * np.sum(np.log(2.0 * np.pi * lk))


def eigh_forms(kernels, centre):
    """``logpdf_quadratic_forms`` as it was built from ``eigh_factors``."""
    ctx = AlgebraContext(2, centre.size)
    lin = np.flatnonzero(ctx.degrees == 1)
    quad = np.flatnonzero(ctx.degrees == 2)
    lin_var = ctx.expmat[lin].argmax(axis=1)
    qi = np.array([np.flatnonzero(ctx.expmat[m])[0] for m in quad])
    qj = np.array([np.flatnonzero(ctx.expmat[m])[-1] for m in quad])
    qfac = np.where(qi == qj, 0.5, 1.0)
    g = np.zeros((len(kernels), ctx.size))
    h = np.zeros_like(g)
    for k, kernel in enumerate(kernels):
        logw = math.log(kernel.weight)
        lk, vk, lognorm = eigh_factors(kernel.cov)
        prec = (vk / lk) @ vk.T
        prec_abs = (np.abs(vk) / lk) @ np.abs(vk).T
        d = kernel.mean - centre
        pd = prec @ d
        ad = prec_abs @ np.abs(d)
        g[k, 0] = logw - lognorm - 0.5 * (d @ pd)
        h[k, 0] = abs(logw) + abs(lognorm) + 0.5 * (np.abs(d) @ ad)
        g[k, lin] = pd[lin_var]
        h[k, lin] = ad[lin_var]
        g[k, quad] = -qfac * prec[qi, qj]
        h[k, quad] = qfac * prec_abs[qi, qj]
    return g, h


def eigh_assignment(inputs, xs):
    """Per-kernel scan with the replaced factors; strict argmax, ties go low."""
    best = np.full(xs.shape[0], -np.inf)
    assign = np.zeros(xs.shape[0], dtype=np.intp)
    for j, dom in enumerate(inputs):
        lk, vk, lognorm = eigh_factors(dom.kernel.cov)
        d = (xs - dom.kernel.mean) @ vk
        lr = math.log(dom.weight) + (-0.5 * np.sum(d * d / lk, axis=1) - lognorm)
        better = lr > best
        best[better] = lr[better]
        assign[better] = j
    return assign


def stacked_copy_eval(result, xs, assign):
    """The replaced map evaluation: box charts read from stacked copies of the domains."""
    ci = result.scenario.ci
    means = np.array([d.kernel.mean for d in result.inputs])
    eigvecs = np.array([d.eigvecs for d in result.inputs])
    amp = np.array([ci * np.sqrt(d.eigvals) for d in result.inputs])
    coeffs = np.array([np.stack([p.c for p in mp], axis=1) for mp in result.maps_lf])
    ctx = result.maps_lf[0].ctx
    order = np.argsort(assign, kind="stable")
    out = np.empty_like(xs)
    rows = max(1, pipeline._BLOCK_ENTRIES // ctx.size)
    for a in range(0, order.size, rows):
        idx = order[a:a + rows]
        pts = xs[idx]
        ks = assign[idx]
        cuts = [0, *(np.flatnonzero(ks[1:] != ks[:-1]) + 1), idx.size]
        spans = list(zip(cuts[:-1], cuts[1:]))
        boxes = np.empty_like(pts)
        for lo, hi in spans:
            k = ks[lo]
            d = (pts[lo:hi] - means[k]) @ eigvecs[k]
            boxes[lo:hi] = np.divide(d, amp[k], out=np.zeros_like(d), where=amp[k] > 0.0)
        mono = ctx.monomial_values(boxes)
        for lo, hi in spans:
            pts[lo:hi] = mono[lo:hi] @ coeffs[ks[lo]]
        out[idx] = pts
    return out


def lf_result(scenario):
    """An ``MfResult`` of the low-fidelity stage alone; ``use_lf`` evaluations read it."""
    stage = lf_stage(scenario)
    mix = stage.initial_mixture
    return MfResult(scenario, scenario.element_set, stage.inputs, stage.maps, stage.maps,
                    mix, mix, mix, stage.nu_single, [], stage.timings)


@pytest.mark.parametrize("case", sorted(SCENARIOS))
def test_eigenpair_scoring_matches_eigh_scoring(case):
    scenario, _ = load_scenario(*SCENARIOS[case])
    res = lf_result(scenario)
    inputs = res.inputs
    weights = np.array([d.weight for d in inputs])
    means = np.array([d.kernel.mean for d in inputs])
    centre = weights @ means / weights.sum()
    g, h = gmm.logpdf_quadratic_forms(weights, means, np.array([d.eigvals for d in inputs]),
                                      np.array([d.eigvecs for d in inputs]), centre)
    g_ref, h_ref = eigh_forms([d.kernel for d in inputs], centre)
    assert np.all(np.abs(g - g_ref) <= G_TOL * h_ref)
    assert np.all(np.abs(h - h_ref) <= G_TOL * h_ref)

    # the mixture's own samples, then a cloud twice as wide that reaches more kernels
    x0 = sample_initial(scenario, res.initial_mixture, SAMPLES, seed=7)
    centre0 = res.initial_mixture.kernels[0].mean
    xs = np.vstack([x0, centre0 + 2.0 * (x0 - centre0)])
    assign = pipeline._assign_samples(res, xs)
    np.testing.assert_array_equal(assign, eigh_assignment(inputs, xs))
    got = pipeline.mf_sample_eval(res, xs, use_lf=True)
    want = stacked_copy_eval(res, xs, assign)
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


class TestOneInertRule:
    @staticmethod
    def domain():
        # variance exactly 0 on coordinate 1: one inert eigendirection
        dom = initial_domain([1.0, 2.0, 3.0], np.diag([0.04, 0.0, 0.09]), ci=3.0)
        (zero,) = np.flatnonzero(is_inert(dom.eigvals))
        return dom, int(zero)

    def test_zero_eigenvalue_is_inert_everywhere(self):
        dom, zero = self.domain()
        ctx = dom.state.ctx
        # an image that does depend on the inert box variable
        image = DAVector([p + p * p + ctx.variable(zero + 1) for p in dom.state])
        jac = scaled_jacobian(image, dom.eigvals, 3.0)
        assert not jac[:, zero].any()
        assert all(jac[:, j].any() for j in range(3) if j != zero)
        with pytest.raises(ValueError, match="no uncertainty"):
            split_domain(dom, zero + 1, DEFAULT_LIBRARY, 3.0)

        rng = np.random.default_rng(3)
        pts = dom.kernel.mean + rng.normal(0.0, 0.2, (50, 3)) * [1.0, 0.0, 1.0]
        moved = pts + rng.normal(0.0, 5.0, (50, 1)) * dom.eigvecs[:, zero]
        def boxes(x):
            return pipeline._box_coordinates((x - dom.kernel.mean) @ dom.eigvecs,
                                             dom.eigvals, 3.0)

        assert not boxes(moved)[:, zero].any()
        np.testing.assert_array_equal(boxes(moved), boxes(pts))

        args = (dom.weight, dom.kernel.mean, dom.eigvals, dom.eigvecs)
        np.testing.assert_array_equal(kernel_logpdf_support(*args, moved),
                                      kernel_logpdf_support(*args, pts))
        g, _ = gmm.logpdf_quadratic_forms(np.array([dom.weight]), dom.kernel.mean[None],
                                          dom.eigvals[None], dom.eigvecs[None],
                                          dom.kernel.mean)
        mono = AlgebraContext(2, 3).monomial_values
        np.testing.assert_array_equal(mono(moved - dom.kernel.mean) @ g[0],
                                      mono(pts - dom.kernel.mean) @ g[0])

    def test_tiny_live_eigenvalue_is_scored(self):
        # the HEO equinoctial/lambda conversion root has a live eigenvalue
        # below 1e-12 of its largest, which the eigh rule dropped from scoring
        scenario, _ = load_scenario("heo", ["elements.set=equinoctial",
                                            "elements.fast_var=lambda"])
        mu0, p0 = scenario.initial_cartesian()
        (root,), _, _ = pipeline._conversion_stage(
            scenario, initial_domain(mu0, p0, scenario.ci), scenario.library)
        rel = root.eigvals / root.eigvals.max()
        (tiny,) = np.flatnonzero((rel > 0.0) & (rel < 1e-12))
        assert eigh_factors(root.kernel.cov)[0].size == np.count_nonzero(root.eigvals) - 1
        # one standard deviation along it now costs half a nat
        mean = root.kernel.mean
        step = math.sqrt(root.eigvals[tiny]) * root.eigvecs[:, tiny]
        at_mean, off = kernel_logpdf_support(root.weight, mean, root.eigvals, root.eigvecs,
                                             np.array([mean, mean + step]))
        assert at_mean - off == pytest.approx(0.5, rel=1e-3)
