"""Golden-manifold regression: fast guard for changes to the split loop.

Two reduced low-fidelity stages, one per theory and element set, whose
kernel count, split histories and weights are pinned.  The pinned values
were read off the program before the split loop evaluated domains in stacked
batches; any change to them must be shown to follow from a change of the
maps, not of the loop.  Both runs must also evaluate every stack of domains
in one call, with no member-by-member fallback.
"""

import hashlib
import json
import math
from dataclasses import replace

import pytest

from orbuq.config import load_scenario
from orbuq.gmm import generate_split_library
from orbuq.pipeline import lf_stage

# (bundled scenario, overrides, kernels, histories digest, weight checksum)
GOLDEN = {
    # SGP4, cartesian: a full ternary tree, generations 1, 3, 9, 27, 81
    "leo-sgp4-cartesian": ("leo", ["periods=1.0", "loads.eps_nu=0.03"],
                           81, "a48f0e9ac51d2153", 2050.3684688264498),
    # J2 secular theory, equinoctial/L: 18 leaves stop at depth 4, 189 at 5
    "heo-j2-equinoctial": ("heo", ["elements.set=equinoctial", "elements.fast_var=L",
                                   "periods=2.0", "loads.eps_nu=0.015"],
                           207, "0e7e4b35275e47b8", 13683.4030233477),
}


def histories_digest(inputs) -> str:
    return hashlib.sha256(json.dumps([d.history for d in inputs]).encode()).hexdigest()[:16]


def weight_checksum(inputs) -> float:
    # position-weighted, so a reordering of the manifold changes it too
    return math.fsum((i + 1) ** 2 * d.weight for i, d in enumerate(inputs))


@pytest.fixture(scope="module")
def library():
    return generate_split_library(3, 1e-3)


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_golden_manifold(case, library):
    name, overrides, kernels, digest, checksum = GOLDEN[case]
    scenario, _ = load_scenario(name, overrides)
    stage = lf_stage(replace(scenario, library=library))
    assert stage.n_kernels == kernels
    assert histories_digest(stage.inputs) == digest
    assert weight_checksum(stage.inputs) == pytest.approx(checksum, rel=1e-12)
    # every stacked call of the split loop went through as one stack
    assert stage.stats.batch_fallbacks == 0
    assert stage.stats.target_evals == sum(stage.stats.domains_per_generation)
