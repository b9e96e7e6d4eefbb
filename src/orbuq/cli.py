"""Command-line front end.

Subcommands: ``gen-split-lib`` (build a univariate splitting library), ``run``
(execute the multifidelity pipeline for a scenario config), ``mc`` (reference
Monte-Carlo samples), ``compare`` (RMSE/overlap metrics of a result against
samples), ``grid`` (normalized mixture-PDF values on a 2D plane) and
``verify-sgp4`` (check the analytical theory against its frozen reference
ephemerides).

Exit codes: 0 success, 2 configuration/usage error, 3 numerical failure.
Every output file starts with a metadata object (config hash, seed, version).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .config import config_hash, load_scenario, scenario_to_dict
from .gmm import GaussianMixture, generate_split_library, marginal_mixture
from .pipeline import (
    MfResult,
    Scenario,
    lam_vs_samples,
    mc_reference,
    mf_propagate,
    mf_sample_eval,
    rmse,
    runtime_report,
)

_FMT = "%.17g"


class CliError(Exception):
    def __init__(self, message, code=2):
        super().__init__(message)
        self.code = code


def _meta(seed=None, extra=None, cfg_obj=None):
    meta = {"version": __version__, "generated_by": "orbuq"}
    if seed is not None:
        meta["seed"] = seed
    if cfg_obj is not None:
        meta["config_hash"] = config_hash(cfg_obj)
    if extra:
        meta.update(extra)
    return meta


def _write_json(path: Path, obj):
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2)


def _write_csv(path: Path, header_meta: dict, columns: list[str], rows):
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        fh.write("# " + json.dumps(header_meta) + "\n")
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(_FMT % v for v in row) + "\n")


def _result_to_files(result: MfResult, outdir: Path, cfg_obj: dict, seed: int):
    meta = _meta(seed=seed, cfg_obj=cfg_obj)
    _write_json(
        outdir / "mixture_mf.json",
        {"meta": meta, "kernels": result.mixture_mf.to_json_obj()},
    )
    _write_json(
        outdir / "mixture_lf.json",
        {"meta": meta, "kernels": result.mixture_lf.to_json_obj()},
    )
    _write_json(
        outdir / "mixture_initial.json",
        {"meta": meta, "kernels": result.initial_mixture.to_json_obj()},
    )
    metrics = result.metrics_obj()
    metrics["meta"] = meta
    _write_json(outdir / "metrics.json", metrics)
    rows = [
        (i, d.weight, d.nsplits, d.nli if d.nli is not None else float("nan"))
        for i, d in enumerate(result.inputs)
    ]
    _write_csv(
        outdir / "kernels.csv", meta,
        ["index", "weight", "nsplits", "nli"], rows,
    )
    timing_rows = [tuple(result.timings.values())]
    _write_csv(outdir / "timings.csv", meta, list(result.timings.keys()), timing_rows)


def cmd_gen_split_lib(args):
    if args.penalty <= 0:
        raise CliError("penalty factor must be positive")
    if args.size < 1:
        raise CliError("library size must be >= 1")
    lib = generate_split_library(args.size, args.penalty)
    obj = lib.to_json_obj()
    obj["meta"] = _meta()
    _write_json(Path(args.out), obj)
    j = lib.residual_l2 + lib.lam_penalty * lib.sigma**2
    print(f"split library L={lib.L} lambda={lib.lam_penalty:g}")
    print(f"  weights  = {lib.weights}")
    print(f"  means    = {lib.means}")
    print(f"  sigma    = {lib.sigma!r}")
    print(f"  L2 residual = {lib.residual_l2:.6e}, objective J = {j:.6e}")
    print(f"wrote {args.out}")


def cmd_run(args):
    scenario, cfg_obj = _load_scenario_or_die(args)
    outdir = Path(args.outdir)
    t0 = time.perf_counter()
    try:
        result = mf_propagate(scenario, threads=args.threads)
    except (RuntimeError, ValueError, np.linalg.LinAlgError) as exc:
        raise CliError(f"numerical failure: {exc}", code=3) from exc
    wall = time.perf_counter() - t0
    _result_to_files(result, outdir, cfg_obj, scenario.seed)
    rep = runtime_report(result)
    print(
        f"scenario {scenario.name} [{scenario.element_set.label()}]: "
        f"{result.n_kernels} kernels, nu_s = {result.nu_single:.4g}, "
        f"weights sum = {result.weights.sum():.12f}, wall = {wall:.1f} s"
    )
    print(f"  t_DA,LF = {rep['t_da_lf_s']*1e3:.1f} ms/kernel, "
          f"t_PW,HF = {rep['t_pw_hf_s']*1e3:.1f} ms (single)")
    print(f"wrote {outdir}/mixture_mf.json, metrics.json, kernels.csv, timings.csv")


def cmd_mc(args):
    scenario, cfg_obj = _load_scenario_or_die(args)
    if args.samples < 1:
        raise CliError("need at least one sample")
    seed = args.seed if args.seed is not None else scenario.seed
    try:
        if scenario.element_set.kind.value != "cartesian":
            result = mf_propagate(scenario, threads=args.threads)
            x0, x1 = mc_reference(
                scenario, args.samples, seed=seed,
                initial_mixture=result.initial_mixture, threads=args.threads,
                angle_ref=result.mixture_mf.kernels[0].mean[5],
            )
        else:
            x0, x1 = mc_reference(scenario, args.samples, seed=seed,
                                  threads=args.threads)
    except (RuntimeError, ValueError, np.linalg.LinAlgError) as exc:
        raise CliError(f"numerical failure: {exc}", code=3) from exc
    meta = _meta(seed=seed, cfg_obj=cfg_obj, extra={"n_samples": args.samples})
    cols = [f"x0_{i}" for i in range(6)] + [f"xt_{i}" for i in range(6)]
    _write_csv(Path(args.out), meta, cols, np.hstack([x0, x1]))
    print(f"wrote {args.out} ({args.samples} samples)")


def _load_samples_csv(path) -> tuple[np.ndarray, np.ndarray]:
    rows = np.loadtxt(path, delimiter=",", skiprows=2)
    rows = np.atleast_2d(rows)
    if rows.shape[1] != 12:
        raise CliError(f"sample file {path} must have 12 columns")
    return rows[:, :6], rows[:, 6:]


def cmd_compare(args):
    scenario, cfg_obj = _load_scenario_or_die(args)
    x0, x1 = _load_samples_csv(args.samples)
    try:
        result = mf_propagate(scenario, threads=args.threads)
        pred_mf = mf_sample_eval(result, x0)
        pred_lf = mf_sample_eval(result, x0, use_lf=True)
    except (RuntimeError, ValueError, np.linalg.LinAlgError) as exc:
        raise CliError(f"numerical failure: {exc}", code=3) from exc
    metrics = {
        "meta": _meta(seed=scenario.seed, cfg_obj=cfg_obj),
        "n_samples": int(x0.shape[0]),
        "rmse_mf": list(rmse(x1, pred_mf)),
        "rmse_lf": list(rmse(x1, pred_lf)),
        "lam_mf": lam_vs_samples(result, x1),
        "lam_lf": lam_vs_samples(result, x1, use_lf=True),
    }
    if args.reference_lam is not None:
        metrics["normalized_lam"] = metrics["lam_mf"] / args.reference_lam
    _write_json(Path(args.out), metrics)
    print(f"RMSE (MF): {metrics['rmse_mf']}")
    print(f"RMSE (LF): {metrics['rmse_lf']}")
    print(f"LAM  (MF) = {metrics['lam_mf']:.6e}, LAM (LF) = {metrics['lam_lf']:.6e}")
    print(f"wrote {args.out}")


_PLANES = {"xy": (0, 1), "xz": (0, 2), "vxvy": (3, 4), "vxvz": (3, 5)}


def cmd_grid(args):
    with open(args.mixture) as fh:
        obj = json.load(fh)
    mix = GaussianMixture.from_json_obj(obj["kernels"])
    if args.plane not in _PLANES:
        raise CliError(f"unknown plane {args.plane!r}; pick one of {sorted(_PLANES)}")
    dims = _PLANES[args.plane]
    marg = marginal_mixture(mix, dims)
    if args.bounds is not None:
        lo0, hi0, lo1, hi1 = args.bounds
    else:
        mus = np.array([k.mean for k in marg.kernels])
        sds = np.array([np.sqrt(np.diag(k.cov)) for k in marg.kernels])
        lo0, hi0 = float((mus - 4 * sds)[:, 0].min()), float((mus + 4 * sds)[:, 0].max())
        lo1, hi1 = float((mus - 4 * sds)[:, 1].min()), float((mus + 4 * sds)[:, 1].max())
    n = args.resolution
    g0 = np.linspace(lo0, hi0, n)
    g1 = np.linspace(lo1, hi1, n)
    vals = np.empty((n, n))
    for i, a in enumerate(g0):
        for j, b in enumerate(g1):
            vals[i, j] = marg.pdf(np.array([a, b]))
    peak = vals.max()
    if peak > 0:
        vals = vals / peak
    meta = _meta(extra={"plane": args.plane, "bounds": [lo0, hi0, lo1, hi1],
                        "resolution": n, "peak_density": peak})
    rows = [
        (g0[i], g1[j], vals[i, j]) for i in range(n) for j in range(n)
    ]
    _write_csv(Path(args.out), meta, ["u", "v", "pdf_normalized"], rows)
    print(f"wrote {args.out} ({n}x{n} cells, peak density {peak:.6e})")


def load_sgp4_reference() -> dict:
    """Bundled reference ephemerides for the SGP4 verification set."""
    from importlib import resources

    text = resources.files("orbuq.data").joinpath("sgp4_reference.json").read_text()
    doc = json.loads(text)
    return {
        name: {
            **{k: v for k, v in case.items() if k != "checkpoints"},
            "checkpoints": {float(k): tuple(v) for k, v in case["checkpoints"].items()},
        }
        for name, case in doc["satellites"].items()
    }


def cmd_verify_sgp4(args):
    from .sgp4 import Sgp4, WGS72

    worst = 0.0
    for name, case in load_sgp4_reference().items():
        model = Sgp4(
            case["no_kozai"], case["ecco"], case["inclo"], case["nodeo"],
            case["argpo"], case["mo"], bstar=case["bstar"], grav=WGS72,
        )
        for tsince, ref in case["checkpoints"].items():
            got = model.propagate(tsince)
            err = float(np.linalg.norm(np.array(got[:3]) - np.array(ref[:3])))
            worst = max(worst, err)
            status = "ok" if err < 1e-6 else "FAIL"
            print(f"  {name:>16s} t={tsince:7.1f} min: dr = {err:.3e} km [{status}]")
    print(f"worst position error: {worst:.3e} km (bound 1e-6)")
    if worst >= 1e-6:
        raise CliError("verification failed", code=3)


def _load_scenario_or_die(args):
    try:
        return load_scenario(args.config, args.set or [])
    except FileNotFoundError as exc:
        raise CliError(str(exc)) from exc
    except (KeyError, TypeError, ValueError, json.JSONDecodeError) as exc:
        raise CliError(f"bad configuration: {exc}") from exc


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="orbuq",
        description="multifidelity orbit uncertainty propagation",
    )
    p.add_argument("--version", action="version", version=f"orbuq {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen-split-lib", help="optimize a univariate splitting library")
    g.add_argument("--size", "-L", type=int, default=3)
    g.add_argument("--penalty", "--lambda", dest="penalty", type=float, default=1e-3)
    g.add_argument("--out", default="split_library.json")
    g.set_defaults(func=cmd_gen_split_lib)

    def add_common(sp):
        sp.add_argument("config", help="config file path or bundled name (heo/leo/meo)")
        sp.add_argument("--set", action="append", metavar="KEY=VALUE",
                        help="dotted-key config override (repeatable)")
        sp.add_argument("--threads", type=int, default=1)

    r = sub.add_parser("run", help="run the multifidelity pipeline")
    add_common(r)
    r.add_argument("--outdir", default="out")
    r.set_defaults(func=cmd_run)

    m = sub.add_parser("mc", help="propagate reference Monte-Carlo samples")
    add_common(m)
    m.add_argument("--samples", "-n", type=int, default=1000)
    m.add_argument("--seed", type=int, default=None)
    m.add_argument("--out", default="mc_samples.csv")
    m.set_defaults(func=cmd_mc)

    c = sub.add_parser("compare", help="score a scenario against MC samples")
    add_common(c)
    c.add_argument("--samples", required=True, help="CSV produced by the mc command")
    c.add_argument("--reference-lam", type=float, default=None)
    c.add_argument("--out", default="compare_metrics.json")
    c.set_defaults(func=cmd_compare)

    gr = sub.add_parser("grid", help="normalized mixture PDF on a coordinate plane")
    gr.add_argument("mixture", help="mixture JSON written by the run command")
    gr.add_argument("--plane", default="xy", choices=sorted(_PLANES))
    gr.add_argument("--bounds", type=float, nargs=4, default=None,
                    metavar=("U_LO", "U_HI", "V_LO", "V_HI"))
    gr.add_argument("--resolution", type=int, default=50)
    gr.add_argument("--out", default="grid.csv")
    gr.set_defaults(func=cmd_grid)

    v = sub.add_parser("verify-sgp4", help="check SGP4 against frozen reference states")
    v.set_defaults(func=cmd_verify_sgp4)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    return 0


if __name__ == "__main__":
    sys.exit(main())
