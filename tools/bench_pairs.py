"""Interleaved parent/change pairs of the repository benchmark, one sitting.

    python3 tools/bench_pairs.py --parent HEAD~1 --child HEAD --out BENCH_10.json \
        --workloads leo-split heo-eq leo-mc

Each ref is exported with ``git archive`` into its own temporary directory,
so both sides run their committed files only.  For every workload, ten pairs
(seeds 41 to 50) each run the command of ``BENCHMARK.json`` once on each side
with the same seed (``--workload W --seed S --seconds T --trace 0``, T being
the benchmark's ``run_seconds``); the side that runs first
alternates from pair to pair, parent first in the first pair.  The output
has ``BENCH_8.json``'s layout: per workload the pair count, the side that ran
first in each pair, whether every run was correct, and per end-to-end metric
both sides' values, quartiles, win counts, the median ratio and the parent's
interquartile range.

Standard library only; run it from the root of the repository.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN_TIMEOUT_S = 900
PAIRS = 10
FIRST_SEED = 41


def export(ref: str, dest: Path) -> str:
    """Extract the committed tree of ``ref`` into ``dest``; return its short hash."""
    sha = subprocess.run(["git", "rev-parse", "--short", ref], cwd=ROOT, check=True,
                         capture_output=True, text=True).stdout.strip()
    archive = subprocess.run(["git", "archive", "--format=tar", ref], cwd=ROOT, check=True,
                             capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        # extraction filters came with 3.10.12 / 3.11.4; the archive is the
        # repository's own, so older releases extract it unfiltered
        if hasattr(tarfile, "data_filter"):
            tar.extractall(dest, filter="data")
        else:
            tar.extractall(dest)
    return sha


def run_once(tree: Path, command: list[str], workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run in ``tree``: its result line, or a record of the failure."""
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    try:
        proc = subprocess.run(args, cwd=tree, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"correct": False, "error": f"timed out after {RUN_TIMEOUT_S} s"}
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return {"correct": False,
                "error": f"exit {proc.returncode}: {proc.stderr.strip()[-500:]}"}


def quartiles(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def summarize(metric: dict, parent: list, child: list) -> dict:
    """Both sides' values of one metric over the pairs, with quartiles and wins."""
    lower = metric["better"] == "lower"
    pairs = [(p, c) for p, c in zip(parent, child) if p is not None and c is not None]
    child_wins = sum(c < p if lower else c > p for p, c in pairs)
    ties = sum(c == p for p, c in pairs)
    out = {"better": metric["better"], "parent": parent, "child": child}
    if len(pairs) >= 2:
        pq = quartiles([p for p, _ in pairs])
        cq = quartiles([c for _, c in pairs])
        out.update({
            "parent_quartiles": pq,
            "child_quartiles": cq,
            "child_wins": child_wins,
            "parent_wins": len(pairs) - child_wins - ties,
            "ties": ties,
            "median_ratio_child_over_parent": cq["median"] / pq["median"] if pq["median"] else None,
            "parent_iqr": pq["q3"] - pq["q1"],
        })
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True, help="git ref of the parent side")
    ap.add_argument("--child", required=True, help="git ref of the change")
    ap.add_argument("--out", required=True, help="output file, e.g. BENCH_10.json")
    ap.add_argument("--workloads", nargs="+", required=True)
    ap.add_argument("--host", default=f"{platform.machine()}, {os.cpu_count()} CPUs",
                    help="host description written to the output")
    args = ap.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    command = bench["command"]
    seconds = bench["run_seconds"]
    seeds = [FIRST_SEED + i for i in range(PAIRS)]
    sides = ("parent", "child")

    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        trees = {side: Path(tmp) / side for side in sides}
        shas = {side: export(getattr(args, side), trees[side]) for side in sides}
        report = {
            "what": (f"Interleaved parent/child runs of the benchmark, one sitting: the "
                     f"parent commit {shas['parent']} against commit {shas['child']} of this "
                     "change, whose program files are those committed (git archive of each). "
                     "Pairs alternate which side runs first."),
            "command": " ".join(command) + f" --workload W --seed S --seconds {seconds:g} --trace 0",
            "host": args.host,
            "seeds": seeds,
            "workloads": {},
        }
        for workload in args.workloads:
            runs = {side: [] for side in sides}
            first = []
            for i, seed in enumerate(seeds):
                order = sides if i % 2 == 0 else sides[::-1]
                first.append(order[0])
                for side in order:
                    res = run_once(trees[side], command, workload, seed, seconds)
                    runs[side].append(res)
                    print(f"[bench_pairs] {workload} pair {i + 1}/{PAIRS} {side}: "
                          f"correct={res.get('correct')} failed={res.get('failed')}"
                          + (f" error={res['error']}" if "error" in res else ""),
                          file=sys.stderr, flush=True)
            entry = {
                "pairs": PAIRS,
                "first_side": first,
                "all_correct": all(r.get("correct") is True and r.get("failed", 1) == 0
                                   for side in sides for r in runs[side]),
                "metrics": {},
            }
            for metric in bench["end_to_end"]:
                name = metric["name"]
                values = {side: [r.get("metrics", {}).get(name, {}).get("value")
                                 for r in runs[side]] for side in sides}
                entry["metrics"][name] = summarize(metric, values["parent"], values["child"])
            report["workloads"][workload] = entry
            # written after every workload, so a cut sitting keeps what it measured
            Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
