"""The benchmark's workloads: bundled scenarios, overrides and sample counts.

Kept free of numpy and orbuq imports so the fresh-process set-up child can
read it without changing what its set-up time measures.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    scenario: str               # bundled scenario name (src/orbuq/data/scenarios)
    overrides: tuple[str, ...]  # dotted-key overrides, as `orbuq run --set`
    kernels: int                # pinned manifold size (README: how to regenerate)
    mc_samples: int             # one mc_reference call per round
    eval_chunk: int             # samples per mf_sample_eval call
    eval_calls: int             # mf_sample_eval calls per round
    pipeline_calls: int = 1     # lf_stage + mf_propagate calls per round


WORKLOADS = {
    "leo-split": Workload(
        scenario="leo",
        overrides=("periods=1.0", "loads.eps_nu=0.025"),
        kernels=243,
        mc_samples=2000,
        eval_chunk=10_000,
        eval_calls=12,
    ),
    "leo-mc": Workload(
        scenario="leo",
        overrides=("periods=1.0", "loads.eps_nu=0.1"),
        kernels=1,
        mc_samples=4096,
        eval_chunk=10_000,
        eval_calls=24,
        pipeline_calls=5,
    ),
    "heo-eq": Workload(
        scenario="heo",
        overrides=("elements.set=equinoctial", "elements.fast_var=L",
                   "shift.mode=tle", "periods=2.0", "loads.eps_nu=0.01"),
        kernels=677,
        mc_samples=2000,
        eval_chunk=4_000,
        eval_calls=20,
    ),
}
