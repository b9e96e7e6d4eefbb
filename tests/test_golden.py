"""Golden-manifold regression: fast guard for changes to the split loop.

Three reduced low-fidelity stages, one per theory and element set plus one
that starts from several conversion roots, whose kernel count, split
histories and weights are pinned.  The single-root values were read off the
program before the split loop evaluated domains in stacked batches, the
multi-root values before one loop ran the generations of all roots together;
any change to them must be shown to follow from a change of the maps, not of
the loop.  The leaves' nonlinearity indices (a position-weighted checksum)
and the unsplit lead root's ``nu_single`` were read off the program before
the index was computed on whole stacks of Jacobians, and each leaf's index
must still equal, bit for bit, its index computed entry by entry on
polynomial partials.  Every run must also
evaluate every stack of domains in one call, with no member-by-member
fallback, and every domain's state must be its kernel's affine chart, bit
for bit.

One value was read again since: ``heo-j2-equinoctial``'s ``nu_single``,
when the unscented moments came to be taken as offsets from each map's
constant part.  Its conversion root has a live eigenvalue 2e-13 of its
largest, so ``nu_single`` follows the last bits of the root's covariance; the
root moments lost the cancellation of sigma images taken as absolute values
(about 28,000 km), and the value moved by 5.2e-11 relative.

Four were read again when the SGP4 mean-element inversion of a polynomial
state became a chord-Newton map inversion: ``leo-sgp4-cartesian``'s and
``leo-sgp4-equinoctial``'s ``nli`` checksums and ``nu_single``.  The fixed
point before it stopped when the constant part converged and left the
other coefficients of the maps up to 3.8e-5 of their component's largest
from maps converged in every coefficient; the new maps lie within 1.2e-12.
Counts, histories and weights held.  The new values agree within 6e-12
relative with those of an inversion converged in every coefficient (20
fixed-point passes after the constant part settles): 4931.01685969858 and
0.0750731297302036, 50.95768754102 and 0.0108778343882747.
"""

import hashlib
import json
import math

import numpy as np
import pytest

from orbuq.config import load_scenario
from orbuq.pipeline import lf_stage
from orbuq.ta import DAVector

# (bundled scenario, overrides, kernels, histories digest, weight checksum,
#  nli checksum, nu_single)
GOLDEN = {
    # SGP4, cartesian: a full ternary tree, generations 1, 3, 9, 27, 81
    "leo-sgp4-cartesian": ("leo", ["periods=1.0", "loads.eps_nu=0.03"],
                           81, "a48f0e9ac51d2153", 2050.3684688264498,
                           4931.016859694325, 0.07507312973007492),
    # J2 secular theory, equinoctial/L: 18 leaves stop at depth 4, 189 at 5
    "heo-j2-equinoctial": ("heo", ["elements.set=equinoctial", "elements.fast_var=L",
                                   "periods=2.0", "loads.eps_nu=0.015"],
                           207, "0e7e4b35275e47b8", 13683.4030233477,
                           30466.2945727765, 0.07576499263762297),
    # SGP4, equinoctial/L: 9 conversion roots, each split once into 3 leaves
    "leo-sgp4-equinoctial": ("leo", ["elements.set=equinoctial", "elements.fast_var=L",
                                     "periods=1.0", "loads.eps_nu=0.01"],
                             27, "a9748b5ae26dcd23", 236.99089105269138,
                             50.95768754072269, 0.010877834388271827),
}


def histories_digest(inputs) -> str:
    return hashlib.sha256(json.dumps([d.history for d in inputs]).encode()).hexdigest()[:16]


def weight_checksum(inputs) -> float:
    # position-weighted, so a reordering of the manifold changes it too
    return math.fsum((i + 1) ** 2 * d.weight for i, d in enumerate(inputs))


def nli_checksum(inputs) -> float:
    return math.fsum((i + 1) ** 2 * d.nli for i, d in enumerate(inputs))


def reference_nli(image, eigvals, ci) -> float:
    # the index as the split loop computed it before it scored stacks of
    # Jacobian arrays: entry by entry on polynomial partials, row-major,
    # summing each entry's non-constant |coefficients| in one numpy sum
    num = den = 0.0
    for comp in image:
        for j, lam in enumerate(eigvals):
            if lam != 0.0:  # an inert column adds exact zeros
                entry = comp.partial(j + 1) * (1.0 / (ci * ci * lam))
                num += float(np.abs(entry.c[1:]).sum())
                den += abs(entry.const)
    return num / den


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_golden_manifold(case):
    # the scenario's default library: the shipped DEFAULT_LIBRARY literal
    name, overrides, kernels, digest, checksum, nli_sum, nu_single = GOLDEN[case]
    scenario, _ = load_scenario(name, overrides)
    stage = lf_stage(scenario)
    assert stage.n_kernels == kernels
    assert histories_digest(stage.inputs) == digest
    assert weight_checksum(stage.inputs) == pytest.approx(checksum, rel=1e-12)
    assert nli_checksum(stage.inputs) == pytest.approx(nli_sum, rel=1e-12)
    for d, y in zip(stage.inputs, stage.maps):
        assert d.nli == reference_nli(y, d.eigvals, scenario.ci)
    assert stage.nu_single == pytest.approx(nu_single, rel=1e-12)
    # splits per generation and box direction; the last generation splits none
    splits = stage.stats.split_directions
    assert len(splits) == len(stage.stats.domains_per_generation) and not any(splits[-1])
    if case == "heo-j2-equinoctial":
        # every split is along box variable 6, the semimajor-axis eigendirection
        assert splits == [[0, 0, 0, 0, 0, n] for n in (1, 3, 9, 27, 63, 0)]
    # every stacked call of the split loop went through as one stack
    assert stage.stats.batch_fallbacks == 0
    assert stage.stats.target_evals == sum(stage.stats.domains_per_generation)
    # split children build their states as the roots do, from their kernels
    for d in stage.inputs:
        chart = DAVector.affine(d.state.ctx, d.kernel.mean,
                                d.eigvecs * (scenario.ci * np.sqrt(d.eigvals)))
        assert all(np.array_equal(p.c, q.c) for p, q in zip(d.state, chart))
