"""CLI subcommands, exit codes and output file formats."""

import json
import math

import numpy as np
import pytest

from orbuq.cli import main
from orbuq.config import apply_overrides, config_hash, load_scenario, scenario_to_dict
from orbuq.gmm import GaussianKernel, GaussianMixture
from orbuq.pipeline import Scenario


@pytest.fixture()
def tiny_config(tmp_path):
    """A fast-running two-body configuration for CLI exercises."""
    obj = {
        "scenario": {"name": "tiny"},
        "ic": {"kepler": [7000.0, 0.01, 10.0, 0.0, 0.0, 0.0]},
        "sigma": {"cartesian": [0.1, 0.1, 0.1, 1e-4, 1e-4, 1e-4]},
        "periods": 0.25,
        "elements": {"set": "cartesian", "fast_var": None},
        "loads": {"eps_nu": 0.5, "ci": 3.0, "n_max": 20, "alpha_min": 1e-8},
        "library": {"L": 3, "lambda": 1e-3},
        "lf": {"theory": "kepler_j2", "j2": 0.0},
        "shift": {"mode": "osculating"},
        "seed": 42,
        "hf": {"degree": 0, "order": 0, "third_body_sun": False,
               "third_body_moon": False, "drag": False, "srp": False},
    }
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps(obj))
    return path


class TestGenSplitLib:
    def test_writes_table_values(self, tmp_path, capsys):
        out = tmp_path / "lib.json"
        code = main(["gen-split-lib", "--size", "3", "--penalty", "1e-3",
                     "--out", str(out)])
        assert code == 0
        obj = json.loads(out.read_text())
        assert abs(obj["weights"][0] - 0.2252246852539708) < 1e-4
        assert abs(obj["means"][2] - 1.0575150485760967) < 1e-4
        assert abs(obj["sigma"] - 0.6715664864669252) < 1e-4
        text = capsys.readouterr().out
        assert "L2 residual" in text and "objective J" in text

    def test_identity_library(self, tmp_path):
        out = tmp_path / "lib1.json"
        assert main(["gen-split-lib", "-L", "1", "--out", str(out)]) == 0
        obj = json.loads(out.read_text())
        assert obj["weights"] == [1.0] and obj["sigma"] == 1.0

    def test_invalid_penalty_exit_code(self, tmp_path, capsys):
        code = main(["gen-split-lib", "--penalty", "-1", "--out",
                     str(tmp_path / "x.json")])
        assert code == 2
        assert "error" in capsys.readouterr().err


class TestRun:
    def test_bundled_leo_config_loads(self):
        scenario, obj = load_scenario("leo")
        assert scenario.name == "leo"
        assert scenario.eps_nu == 0.025
        assert scenario.lf_theory == "sgp4"
        assert scenario.force.drag is True

    def test_run_writes_outputs(self, tiny_config, tmp_path, capsys):
        outdir = tmp_path / "out"
        code = main(["run", str(tiny_config), "--outdir", str(outdir)])
        assert code == 0
        mix = json.loads((outdir / "mixture_mf.json").read_text())
        weights = [k["weight"] for k in mix["kernels"]]
        assert abs(sum(weights) - 1.0) < 1e-12
        metrics = json.loads((outdir / "metrics.json").read_text())
        assert metrics["n_kernels"] == len(weights)
        assert "config_hash" in metrics["meta"]
        counters = metrics["counters"]
        assert counters["batch_fallbacks"] == 0
        assert counters["target_evals"] == sum(counters["domains_per_generation"])
        assert counters["domains_per_generation"][0] == 1
        assert "target_evals" not in (outdir / "timings.csv").read_text()
        assert (outdir / "kernels.csv").exists()

    def test_eps_override_forces_single_kernel(self, tiny_config, tmp_path):
        outdir = tmp_path / "out2"
        code = main(["run", str(tiny_config), "--outdir", str(outdir),
                     "--set", "loads.eps_nu=1e9"])
        assert code == 0
        metrics = json.loads((outdir / "metrics.json").read_text())
        assert metrics["n_kernels"] == 1

    def test_zero_periods_identity(self, tiny_config, tmp_path):
        outdir = tmp_path / "out3"
        code = main(["run", str(tiny_config), "--outdir", str(outdir),
                     "--set", "periods=0.0"])
        assert code == 0
        mix = json.loads((outdir / "mixture_mf.json").read_text())
        scenario, _ = load_scenario(str(tiny_config))
        mu0, _ = scenario.initial_cartesian()
        got = np.array(mix["kernels"][0]["mean"])
        assert np.abs(got - mu0).max() < 1e-9

    def test_missing_config_exit_2(self, capsys):
        assert main(["run", "no-such-config"]) == 2

    def test_malformed_config_exit_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{\"scenario\": {\"name\": \"x\"}}")  # missing ic/sigma
        assert main(["run", str(bad)]) == 2


class TestMcAndCompare:
    def test_mc_then_compare(self, tiny_config, tmp_path, capsys):
        samples = tmp_path / "mc.csv"
        code = main(["mc", str(tiny_config), "-n", "40", "--out", str(samples)])
        assert code == 0
        rows = np.loadtxt(samples, delimiter=",", skiprows=2)
        assert rows.shape == (40, 12)

        metrics_path = tmp_path / "cmp.json"
        code = main(["compare", str(tiny_config), "--samples", str(samples),
                     "--out", str(metrics_path)])
        assert code == 0
        metrics = json.loads(metrics_path.read_text())
        assert len(metrics["rmse_mf"]) == 6
        # identical LF/HF models: the multifidelity maps track truth tightly
        assert max(metrics["rmse_mf"][:3]) < 1e-4
        assert metrics["lam_mf"] > 0

    def test_mc_determinism_bitwise(self, tiny_config, tmp_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["mc", str(tiny_config), "-n", "10", "--out", str(out1)]) == 0
        assert main(["mc", str(tiny_config), "-n", "10", "--out", str(out2)]) == 0
        assert out1.read_text().splitlines()[1:] == out2.read_text().splitlines()[1:]

    def test_compare_length_mismatch_exit_2(self, tiny_config, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("# {}\nc0\n1.0\n")
        assert main(["compare", str(tiny_config), "--samples", str(bad)]) == 2


class TestGrid:
    def _write_mixture(self, tmp_path, kernels):
        mix = GaussianMixture(tuple(kernels))
        path = tmp_path / "mix.json"
        path.write_text(json.dumps({"meta": {}, "kernels": mix.to_json_obj()}))
        return path

    def test_normalization_peak_one_at_mean(self, tmp_path):
        path = self._write_mixture(
            tmp_path, [GaussianKernel(1.0, np.zeros(6), np.eye(6))]
        )
        out = tmp_path / "grid.csv"
        code = main(["grid", str(path), "--plane", "xy", "--resolution", "21",
                     "--bounds", "-3", "3", "-3", "3", "--out", str(out)])
        assert code == 0
        rows = np.loadtxt(out, delimiter=",", skiprows=2)
        assert rows[:, 2].max() == pytest.approx(1.0)
        center = rows[np.argmax(rows[:, 2])]
        assert abs(center[0]) < 1e-12 and abs(center[1]) < 1e-12

    def test_symmetric_kernel_grid_symmetry(self, tmp_path):
        path = self._write_mixture(
            tmp_path, [GaussianKernel(1.0, np.zeros(6), np.eye(6))]
        )
        out = tmp_path / "grid.csv"
        main(["grid", str(path), "--plane", "xy", "--resolution", "11",
              "--bounds", "-2", "2", "-2", "2", "--out", str(out)])
        rows = np.loadtxt(out, delimiter=",", skiprows=2)
        vals = rows[:, 2].reshape(11, 11)
        np.testing.assert_allclose(vals, vals[::-1, :], atol=1e-12)
        np.testing.assert_allclose(vals, vals[:, ::-1], atol=1e-12)

    def test_grid_matches_direct_mixture_pdf(self, tmp_path):
        rng = np.random.default_rng(3)
        kernels = []
        for w in (0.4, 0.6):
            a = rng.normal(0, 1, (6, 6))
            kernels.append(GaussianKernel(w, rng.normal(0, 1, 6), a @ a.T + np.eye(6)))
        path = self._write_mixture(tmp_path, kernels)
        out = tmp_path / "grid.csv"
        main(["grid", str(path), "--plane", "vxvy", "--resolution", "7",
              "--bounds", "-1", "1", "-1", "1", "--out", str(out)])
        rows = np.loadtxt(out, delimiter=",", skiprows=2)
        from orbuq.gmm import marginal_mixture

        marg = marginal_mixture(GaussianMixture(tuple(kernels)), (3, 4))
        direct = np.array([marg.pdf(np.array([u, v])) for u, v, _ in rows])
        np.testing.assert_allclose(rows[:, 2], direct / direct.max(), atol=1e-12)

    def test_unknown_plane_exit_2(self, tmp_path):
        # argparse rejects bad choices with the usage exit code
        path = self._write_mixture(tmp_path, [GaussianKernel(1.0, np.zeros(6), np.eye(6))])
        with pytest.raises(SystemExit) as exc:
            main(["grid", str(path), "--plane", "zz"])
        assert exc.value.code == 2


class TestVerifySgp4:
    def test_runs_clean(self, capsys):
        assert main(["verify-sgp4"]) == 0
        out = capsys.readouterr().out
        assert "worst position error" in out


class TestConfigHelpers:
    def test_overrides_last_wins(self):
        obj = {"a": {"b": 1}}
        out = apply_overrides(obj, ["a.b=2", "a.b=3", "c.d=true"])
        assert out["a"]["b"] == 3 and out["c"]["d"] is True
        assert obj["a"]["b"] == 1  # original untouched

    def test_roundtrip_scenario_dict(self):
        scenario, obj = load_scenario("meo")
        back = scenario_to_dict(scenario)
        assert back["ic"]["kepler"] == obj["ic"]["kepler"]
        assert back["loads"]["eps_nu"] == obj["loads"]["eps_nu"]

    def test_config_hash_stable_and_sensitive(self):
        _, obj = load_scenario("leo")
        h1 = config_hash(obj)
        h2 = config_hash(json.loads(json.dumps(obj)))
        assert h1 == h2
        obj2 = apply_overrides(obj, ["seed=43"])
        assert config_hash(obj2) != h1
