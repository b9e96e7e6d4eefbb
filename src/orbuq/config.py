"""Scenario configuration files and dotted-key overrides.

Configs are JSON with nested sections mirroring dotted key paths
(``loads.eps_nu`` lives at ``{"loads": {"eps_nu": ...}}``).  Angles in
``ic.kepler`` are degrees; sigmas are km and km/s.  Command-line overrides use
``dotted.key=value`` with JSON-parsed values, last one wins.  The keys that
``scenario_to_dict`` writes are the only valid ones; any other key is an error.

``Scenario`` is defined here, so that loading a scenario imports none of the
propagation modules; ``orbuq.pipeline`` re-exports it.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import numpy as np

from .elements import CARTESIAN, KEPLERIAN, ElementSet, convert_values
from .forces import ForceConfig, SpacecraftParams
from .gmm import DEFAULT_LIBRARY, SplitLibrary
from .integrate import IntegratorConfig
from .timeutil import jday_from_iso, seconds_since_j2000

__all__ = ["Scenario", "scenario_from_dict", "scenario_to_dict", "load_scenario",
           "apply_overrides", "config_hash", "bundled_scenario_path"]

_DEG = math.pi / 180.0


@dataclass(frozen=True)
class Scenario:
    """One uncertainty-propagation case: orbit, sigmas, models and controls."""

    name: str
    ic_kepler: tuple[float, ...]          # a (km), e, i, raan, argp, M (deg)
    sigma_cartesian: tuple[float, ...]    # 1-sigma x, y, z (km), vx, vy, vz (km/s)
    epoch_utc: str = "2021-01-01T00:00:00"
    periods: float = 2.0
    element_set: ElementSet = CARTESIAN
    eps_nu: float = 0.01
    ci: float = 3.0
    n_max: int = 20
    alpha_min: float = 1e-8
    lf_theory: str = "sgp4"
    lf_j2: float | None = None     # kepler_j2 theory only; None keeps the default
    shift_mode: str = "osculating"
    seed: int = 42
    force: ForceConfig = field(default_factory=ForceConfig)
    integrator: IntegratorConfig = field(default_factory=IntegratorConfig)
    spacecraft: SpacecraftParams = field(default_factory=SpacecraftParams)
    library: SplitLibrary = DEFAULT_LIBRARY

    def __post_init__(self):
        if len(self.ic_kepler) != 6 or len(self.sigma_cartesian) != 6:
            raise ValueError("ic_kepler and sigma_cartesian need 6 entries")
        if any(s < 0 for s in self.sigma_cartesian):
            raise ValueError("sigmas must be nonnegative")
        if self.eps_nu <= 0:
            raise ValueError("eps_nu must be positive")
        if self.shift_mode not in ("osculating", "tle"):
            raise ValueError(f"unknown shift mode {self.shift_mode!r}")
        if self.lf_theory not in ("sgp4", "kepler_j2"):
            raise ValueError(f"unknown LF theory {self.lf_theory!r}")

    @property
    def mu(self) -> float:
        return self.force.mu

    @property
    def epoch_s(self) -> float:
        return seconds_since_j2000(jday_from_iso(self.epoch_utc))

    @property
    def period_s(self) -> float:
        return 2.0 * math.pi * math.sqrt(self.ic_kepler[0] ** 3 / self.mu)

    @property
    def duration_s(self) -> float:
        return self.periods * self.period_s

    def initial_cartesian(self) -> tuple[np.ndarray, np.ndarray]:
        a, e, i, raan, argp, m = self.ic_kepler
        kep = [a, e, i * _DEG, raan * _DEG, argp * _DEG, m * _DEG]
        rv, _ = convert_values(kep, KEPLERIAN, CARTESIAN, self.mu)
        cov = np.diag(np.asarray(self.sigma_cartesian, dtype=np.float64) ** 2)
        return np.array(rv), cov

    def split_library(self) -> SplitLibrary:
        return self.library


def bundled_scenario_path(name: str) -> Path:
    from importlib import resources

    base = resources.files("orbuq.data").joinpath("scenarios")
    path = Path(str(base.joinpath(f"{name}.json")))
    if not path.exists():
        raise FileNotFoundError(f"no bundled scenario named {name!r}")
    return path


def _get(d: dict, path: str, default=None):
    cur: Any = d
    for part in path.split("."):
        if not isinstance(cur, dict) or part not in cur:
            return default
        cur = cur[part]
    return cur


def _leaf_paths(d: dict, prefix: str = ""):
    for key, value in d.items():
        path = prefix + key
        if isinstance(value, dict):
            yield from _leaf_paths(value, path + ".")
        else:
            yield path


def scenario_from_dict(obj: dict) -> Scenario:
    unknown = sorted(set(_leaf_paths(obj)) - _VALID_KEYS)
    if unknown:
        raise ValueError(f"unknown config key {', '.join(unknown)}")
    eset = ElementSet.parse(
        _get(obj, "elements.set", "cartesian"),
        _get(obj, "elements.fast_var"),
    )
    force = ForceConfig(
        mu=_get(obj, "hf.mu", 398600.4355),
        degree=_get(obj, "hf.degree", 8),
        order=_get(obj, "hf.order", 8),
        third_body_sun=_get(obj, "hf.third_body_sun", True),
        third_body_moon=_get(obj, "hf.third_body_moon", True),
        drag=_get(obj, "hf.drag", False),
        srp=_get(obj, "hf.srp", True),
        gravity_path=_get(obj, "hf.gravity_path"),
    )
    integrator = IntegratorConfig(
        abs_tol=_get(obj, "hf.abs_tol", 1e-12),
        rel_tol=_get(obj, "hf.rel_tol", 1e-12),
    )
    spacecraft = SpacecraftParams(
        mass=_get(obj, "spacecraft.mass", 500.0),
        area=_get(obj, "spacecraft.area", 1.0),
        cd=_get(obj, "spacecraft.cd", 2.0),
        cr=_get(obj, "spacecraft.cr", 1.5),
    )
    return Scenario(
        name=_get(obj, "scenario.name", "unnamed"),
        ic_kepler=tuple(_get(obj, "ic.kepler")),
        sigma_cartesian=tuple(_get(obj, "sigma.cartesian")),
        epoch_utc=_get(obj, "epoch_utc", "2021-01-01T00:00:00"),
        periods=_get(obj, "periods", 2.0),
        element_set=eset,
        eps_nu=_get(obj, "loads.eps_nu", 0.01),
        ci=_get(obj, "loads.ci", 3.0),
        n_max=_get(obj, "loads.n_max", 20),
        alpha_min=_get(obj, "loads.alpha_min", 1e-8),
        lf_theory=_get(obj, "lf.theory", "sgp4"),
        lf_j2=_get(obj, "lf.j2"),
        shift_mode=_get(obj, "shift.mode", "osculating"),
        seed=_get(obj, "seed", 42),
        force=force,
        integrator=integrator,
        spacecraft=spacecraft,
    )


def scenario_to_dict(s: Scenario) -> dict:
    return {
        "scenario": {"name": s.name},
        "ic": {"kepler": list(s.ic_kepler)},
        "sigma": {"cartesian": list(s.sigma_cartesian)},
        "epoch_utc": s.epoch_utc,
        "periods": s.periods,
        "elements": {
            "set": s.element_set.kind.value,
            "fast_var": s.element_set.fast.value if s.element_set.fast else None,
        },
        "loads": {
            "eps_nu": s.eps_nu,
            "ci": s.ci,
            "n_max": s.n_max,
            "alpha_min": s.alpha_min,
        },
        "lf": {"theory": s.lf_theory, "j2": s.lf_j2},
        "shift": {"mode": s.shift_mode},
        "seed": s.seed,
        "hf": {
            "mu": s.force.mu,
            "degree": s.force.degree,
            "order": s.force.order,
            "third_body_sun": s.force.third_body_sun,
            "third_body_moon": s.force.third_body_moon,
            "drag": s.force.drag,
            "srp": s.force.srp,
            "gravity_path": s.force.gravity_path,
            "abs_tol": s.integrator.abs_tol,
            "rel_tol": s.integrator.rel_tol,
        },
        "spacecraft": {
            "mass": s.spacecraft.mass,
            "area": s.spacecraft.area,
            "cd": s.spacecraft.cd,
            "cr": s.spacecraft.cr,
        },
    }


# every leaf path that scenario_to_dict writes, whatever the scenario
_VALID_KEYS = frozenset(
    _leaf_paths(scenario_to_dict(Scenario("", (0.0,) * 6, (0.0,) * 6)))
)


def apply_overrides(obj: dict, overrides: list[str]) -> dict:
    """Apply ``dotted.key=value`` strings (JSON-parsed values, last wins)."""
    out = json.loads(json.dumps(obj))
    for item in overrides:
        if "=" not in item:
            raise ValueError(f"override {item!r} is not of the form key=value")
        key, _, raw = item.partition("=")
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        cur = out
        parts = key.split(".")
        for part in parts[:-1]:
            cur = cur.setdefault(part, {})
            if not isinstance(cur, dict):
                raise ValueError(f"override path {key!r} crosses a non-object")
        cur[parts[-1]] = value
    return out


def load_scenario(path: str | Path, overrides: list[str] | None = None
                  ) -> tuple[Scenario, dict]:
    """Read a config file (or bundled name) and apply overrides."""
    p = Path(path)
    if not p.exists() and not p.suffix:
        p = bundled_scenario_path(str(path))
    with open(p) as fh:
        obj = json.load(fh)
    if overrides:
        obj = apply_overrides(obj, overrides)
    return scenario_from_dict(obj), obj


def config_hash(obj: dict) -> str:
    import hashlib

    canon = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()[:16]
