"""Golden-manifold regression: fast guard for changes to the split loop.

Three reduced low-fidelity stages, one per theory and element set plus one
that starts from several conversion roots, whose kernel count, split
histories and weights are pinned.  The single-root values were read off the
program before the split loop evaluated domains in stacked batches, the
multi-root values before one loop ran the generations of all roots together;
any change to them must be shown to follow from a change of the maps, not of
the loop.  Every run must also evaluate every stack of domains
in one call, with no member-by-member fallback, and every domain's state
must be its kernel's affine chart, bit for bit.
"""

import hashlib
import json
import math

import numpy as np
import pytest

from orbuq.config import load_scenario
from orbuq.pipeline import lf_stage
from orbuq.ta import DAVector

# (bundled scenario, overrides, kernels, histories digest, weight checksum)
GOLDEN = {
    # SGP4, cartesian: a full ternary tree, generations 1, 3, 9, 27, 81
    "leo-sgp4-cartesian": ("leo", ["periods=1.0", "loads.eps_nu=0.03"],
                           81, "a48f0e9ac51d2153", 2050.3684688264498),
    # J2 secular theory, equinoctial/L: 18 leaves stop at depth 4, 189 at 5
    "heo-j2-equinoctial": ("heo", ["elements.set=equinoctial", "elements.fast_var=L",
                                   "periods=2.0", "loads.eps_nu=0.015"],
                           207, "0e7e4b35275e47b8", 13683.4030233477),
    # SGP4, equinoctial/L: 9 conversion roots, each split once into 3 leaves
    "leo-sgp4-equinoctial": ("leo", ["elements.set=equinoctial", "elements.fast_var=L",
                                     "periods=1.0", "loads.eps_nu=0.01"],
                             27, "a9748b5ae26dcd23", 236.99089105269138),
}


def histories_digest(inputs) -> str:
    return hashlib.sha256(json.dumps([d.history for d in inputs]).encode()).hexdigest()[:16]


def weight_checksum(inputs) -> float:
    # position-weighted, so a reordering of the manifold changes it too
    return math.fsum((i + 1) ** 2 * d.weight for i, d in enumerate(inputs))


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_golden_manifold(case):
    # the scenario's default library: the shipped DEFAULT_LIBRARY literal
    name, overrides, kernels, digest, checksum = GOLDEN[case]
    scenario, _ = load_scenario(name, overrides)
    stage = lf_stage(scenario)
    assert stage.n_kernels == kernels
    assert histories_digest(stage.inputs) == digest
    assert weight_checksum(stage.inputs) == pytest.approx(checksum, rel=1e-12)
    # every stacked call of the split loop went through as one stack
    assert stage.stats.batch_fallbacks == 0
    assert stage.stats.target_evals == sum(stage.stats.domains_per_generation)
    # split children build their states as the roots do, from their kernels
    for d in stage.inputs:
        chart = DAVector.affine(d.state.ctx, d.kernel.mean,
                                d.eigvecs * (scenario.ci * np.sqrt(d.eigvals)))
        assert all(np.array_equal(p.c, q.c) for p, q in zip(d.state, chart))
