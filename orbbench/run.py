"""End-to-end benchmark of orbuq: one workload, one seed, one JSON line.

    python3 orbbench/run.py --workload leo-split --seed 1 --seconds 20 --trace 0

Run from the root of a source tree; orbuq is imported from its ``src``
directory, single-threaded.  A run first times fresh-process set-ups, then
repeats whole rounds (pipeline, Monte Carlo, sample evaluation) while the
next round is expected to end within ``--seconds``; it always makes one.
Every output is checked outside the timed spans.  The last line of standard
output is the result: ``correct``, ``attempted``, ``failed`` and
``metrics`` -- the end-to-end metrics, or with ``--trace 1`` the per-layer
metrics of one traced round (spans are written under ``orbbench/out``).
See README.md beside this file.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUPS = 3             # fresh-process set-ups per run; setup_s is their median
CHILD_TIMEOUT_S = 120

END_TO_END_UNITS = {
    "setup_s": "s", "pipeline_s": "s", "mc_samples_per_s": "1/s",
    "mf_eval_samples_per_s": "1/s", "peak_rss_mb": "MB", "pos_rmse_mf_km": "km",
}
SINGLE_THREAD = {k: "1" for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                  "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")}


class Accounting:
    """Operations and checks attempted and failed in one run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.correct = True

    def run(self, label, fn, *args, **kwargs):
        """Attempt one operation; a raise counts as a failure and gives None."""
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except Exception:  # a failed operation is counted, and the run goes on
            self.failed += 1
            print(f"[orbbench] {label} failed:\n{traceback.format_exc()}", file=sys.stderr)
            return None

    def skip(self, label):
        """An operation that cannot run because one it needs has failed."""
        self.attempted += 1
        self.failed += 1
        print(f"[orbbench] {label} skipped after a failure", file=sys.stderr)
        return None

    def check(self, label, reasons):
        self.attempted += 1
        reasons = [r for r in (reasons if isinstance(reasons, list) else [reasons]) if r]
        if reasons:
            self.failed += 1
            self.correct = False
            for r in reasons:
                print(f"[orbbench] check {label} failed: {r}", file=sys.stderr)


def parse_args():
    from workloads import WORKLOADS

    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args()


def timed_setup(workload: str) -> tuple[float, dict]:
    """Wall time of one fresh process that sets the scenario up."""
    env = dict(os.environ, PYTHONPATH=str(SRC), **SINGLE_THREAD)
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, str(HERE / "setup_child.py"), workload],
                          env=env, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S, check=True)
    wall = time.perf_counter() - t0
    return wall, json.loads(proc.stdout.strip().splitlines()[-1])


def sample_mixture(mix, n: int, rng) -> "np.ndarray":
    """n seeded draws from a Gaussian mixture: the timed evaluation's inputs.

    Drawn here rather than by the program, so that a change to its sampler
    cannot change what the benchmark measures.
    """
    import numpy as np

    w = np.array([k.weight for k in mix.kernels])
    pick = rng.choice(w.size, size=n, p=w / w.sum())
    out = np.empty((n, mix.dim))
    for j, k in enumerate(mix.kernels):
        rows = np.flatnonzero(pick == j)
        lam, vec = np.linalg.eigh(k.cov)
        amp = vec * np.sqrt(np.clip(lam, 0.0, None))
        out[rows] = k.mean + rng.standard_normal((rows.size, mix.dim)) @ amp.T
    return out


def round_plan(pipeline_calls: int, eval_calls: int) -> list[tuple[str, int]]:
    """Slots of one round, each followed by a share of the evaluation calls.

    The first pipeline opens the round, since the other operations use its
    result; the Monte-Carlo call sits amid the remaining pipeline calls.
    Spreading the operations over the round lets each metric's median span
    the whole run rather than one stretch of it.
    """
    rest = ["pipeline"] * (pipeline_calls - 1)
    rest.insert(len(rest) // 2, "mc")
    slots = ["pipeline"] + rest
    n = len(slots)
    return [(op, eval_calls * (i + 1) // n - eval_calls * i // n)
            for i, op in enumerate(slots)]


def run_round(sc, wk, seeds, acct, pipeline_calls, tracer=None, hf_check=False):
    """One round of timed operations plus its checks; returns its samples."""
    import numpy as np
    from orbuq import pipeline

    import checks

    def timed(op, label, fn, *args, **kwargs):
        if tracer is not None:
            tracer.op = op
        t0 = time.perf_counter()
        got = acct.run(label, fn, *args, **kwargs)
        dt = time.perf_counter() - t0
        if tracer is not None:
            tracer.op = ""
        return got, dt

    def corrected_mixture():
        stage = pipeline.lf_stage(sc)
        return pipeline.mf_propagate(sc, threads=1, stage=stage)

    out = {"pipeline_s": [], "mc_samples_per_s": [], "mf_eval_samples_per_s": [],
           "pos_rmse_mf_km": []}
    res = chunks = None
    for op, n_eval in round_plan(pipeline_calls, wk.eval_calls):
        if op == "pipeline":
            got, dt = timed("pipeline", "pipeline", corrected_mixture)
            if got is not None:
                out["pipeline_s"].append(dt)
                acct.check("manifold", checks.manifold(sc, got, wk.kernels))
                res = got
        elif res is None:
            acct.skip("mc_reference")
        else:
            angle_ref = res.mixture_mf.kernels[0].mean[5] if sc.element_set.fast else None
            mc, dt = timed("mc", "mc_reference", pipeline.mc_reference, sc,
                           wk.mc_samples, seed=seeds[0],
                           initial_mixture=res.initial_mixture, threads=1,
                           angle_ref=angle_ref)
            if mc is not None:
                out["mc_samples_per_s"].append(wk.mc_samples / dt)
                x0, x1 = mc
                if sc.element_set.kind.value != "cartesian":
                    acct.check("conversions", checks.conversions(sc, np.vstack([x0, x1])))
                if hf_check:
                    acct.check("high_fidelity", checks.high_fidelity(sc, x0, x1))
                pred = [acct.run("mf_sample_eval(mc)", pipeline.mf_sample_eval, res, x0,
                                 use_lf=use_lf) for use_lf in (False, True)]
                if pred[0] is not None and pred[1] is not None:
                    rmse = [checks.position_rmse(sc, p, x1) for p in pred]
                    out["pos_rmse_mf_km"].append(rmse[0])
                    acct.check("correction_helps", checks.correction_helps(sc, *rmse, x1))

        if res is None:
            for _ in range(n_eval):
                acct.skip("mf_sample_eval")
            continue
        if chunks is None:
            rng = np.random.default_rng(seeds[1])
            chunks = [sample_mixture(res.initial_mixture, wk.eval_chunk, rng)
                      for _ in range(wk.eval_calls)]
        for _ in range(n_eval):
            xs = chunks.pop()
            ys, dt = timed("eval", "mf_sample_eval", pipeline.mf_sample_eval, res, xs)
            if ys is not None:
                out["mf_eval_samples_per_s"].append(wk.eval_chunk / dt)
                acct.check("sample_eval", checks.sample_eval(res, xs, ys))
    out["result"] = res
    return out


def main() -> int:
    args = parse_args()
    if not (SRC / "orbuq" / "__init__.py").is_file():
        print(f"[orbbench] no orbuq sources under {SRC}; run from a source tree",
              file=sys.stderr)
        return 2
    os.environ.update(SINGLE_THREAD)
    sys.path.insert(0, str(SRC))

    import numpy as np
    import orbuq
    from orbuq import config
    from orbuq.gmm import SplitLibrary

    import checks
    import tracing
    from workloads import WORKLOADS

    if Path(orbuq.__file__).resolve().parent != SRC / "orbuq":
        print(f"[orbbench] imported orbuq from {orbuq.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    wk = WORKLOADS[args.workload]
    acct = Accounting()
    seeds = [int(s) for s in np.random.SeedSequence(
        [args.seed, sorted(WORKLOADS).index(args.workload)]).generate_state(2)]
    micro = tracing.microbenchmarks() if args.trace else {}

    setups, library = [], None
    for _ in range(SETUPS):
        got = acct.run("setup", timed_setup, args.workload)
        if got is not None:
            acct.check("split_library", checks.split_library(got[1]["library"]))
            setups.append(got)
            library = got[1]["library"]
    sc, _ = config.load_scenario(wk.scenario, list(wk.overrides))
    sc = replace(sc, library=SplitLibrary.from_json_obj(library)
                 if library else sc.split_library())
    if sc.lf_theory == "sgp4":
        acct.check("sgp4_reference", checks.sgp4_reference())

    tracer = tracing.Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()
    rounds = []
    start = time.perf_counter()
    longest = 0.0
    while not rounds or time.perf_counter() - start + longest <= args.seconds:
        t0 = time.perf_counter()
        rounds.append(run_round(sc, wk, seeds, acct,
                                1 if tracer else wk.pipeline_calls, tracer,
                                hf_check=not rounds))
        longest = max(longest, time.perf_counter() - t0)
        if tracer is not None:
            break

    if tracer is not None:
        tracer.uninstall()
        result = rounds[0].get("result")
        if result is None or not setups:
            return finish(acct, {})
        import tracemalloc

        tracemalloc.start()
        acct.run("lf_stage(tracemalloc)", orbuq.pipeline.lf_stage, sc)
        lf_alloc_mb = tracemalloc.get_traced_memory()[1] / 2**20
        tracemalloc.stop()
        values = tracing.layer_metrics(tracer, [s[1] for s in setups], micro, result,
                                       lf_alloc_mb)
        summary = {"workload": args.workload, "seed": args.seed,
                   "pipeline_s": rounds[0]["pipeline_s"], "metrics": values}
        tracer.write(HERE / "out" / f"trace-{args.workload}-seed{args.seed}.json",
                     summary)
        return finish(acct, values)

    samples = {"setup_s": [s[0] for s in setups],
               "peak_rss_mb": [resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024]}
    for r in rounds:
        for key, v in r.items():
            if key != "result":
                samples.setdefault(key, []).extend(v)
    return finish(acct, {k: (statistics.median(v), END_TO_END_UNITS[k])
                         for k, v in samples.items() if v})


def finish(acct: Accounting, metrics: dict) -> int:
    print(json.dumps({
        "correct": acct.correct,
        "attempted": acct.attempted,
        "failed": acct.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
