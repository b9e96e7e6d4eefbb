"""Where the HEO lead root's nonlinearity index comes from, cartesian against equinoctial/L.

    PYTHONPATH=src python3 tools/heo_nu_diagnosis.py

For the bundled HEO scenario (J2-secular low-fidelity theory) in cartesian
and in equinoctial/L, on the lead root before any split, it prints:

- nu, the share of it that each output row carries and the directional index
  along each box direction;
- the DA Jacobian against central differences of the float target (the
  largest difference in a row over that row's largest entry), and the first
  and second derivative of the dominant row along the dominant direction,
  both ways;
- the split depth k at which nu * sigma^k, sigma being the split library's,
  clears the threshold that the acceptance suite asks of the element set.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np

from orbuq import pipeline
from orbuq.config import load_scenario
from orbuq.elements import CARTESIAN, EQUINOCTIAL_L
from orbuq.loads import directional_nli, initial_domain, nli, raw_jacobian, scaled_jacobian
from orbuq.lowfi import lf_target

# the thresholds of tests/test_acceptance.py's EPS_TABLE for HEO
EPS = {CARTESIAN: 0.01, EQUINOCTIAL_L: 0.003}
STEP = 1e-2  # central-difference step, in box units


def lead_root(scenario):
    mu0, p0 = scenario.initial_cartesian()
    root = initial_domain(mu0, p0, scenario.ci)
    if scenario.element_set is CARTESIAN:
        return root
    roots, _, _ = pipeline._conversion_stage(scenario, root, scenario.library)
    return max(roots, key=lambda d: d.weight)


def main():
    base, _ = load_scenario("heo")
    for eset, eps in EPS.items():
        sc = replace(base, element_set=eset, eps_nu=eps)
        root = lead_root(sc)
        t0 = sc.epoch_s
        target = lf_target(pipeline.make_theory(sc), t0, t0 + sc.duration_s, eset, sc.mu)
        image = target(root.state)
        jac = scaled_jacobian(image, root.eigvals, sc.ci)  # (output row, box direction, term)
        nu = nli(jac)
        rows = np.abs(jac[..., 1:]).sum(axis=(1, 2)) / np.abs(jac[..., 0]).sum()
        dirs = np.array([directional_nli(jac, e) for e in range(1, 7)])
        print(f"{eset.label()}: nu = {nu:.4g}, threshold {eps}")
        print("  by output row:   " + " ".join(f"{v:.2g}" for v in rows))
        print("  by box direction: " + " ".join(f"{v:.2g}" for v in dirs))

        amp = root.eigvecs * (sc.ci * np.sqrt(root.eigvals))

        def f(box):
            return np.array(target(list(root.kernel.mean + amp @ box)))

        def wrap(d):
            if eset.fast is not None:  # the fast angle: whole turns do not count
                d[..., 5] = np.remainder(d[..., 5] + math.pi, 2.0 * math.pi) - math.pi
            return d

        f0 = f(np.zeros(6))
        jac_da = raw_jacobian(image)[..., 0]
        jac_cd = np.empty((6, 6))
        second = np.empty((6, 6))
        for j in range(6):
            e = np.zeros(6)
            e[j] = STEP
            up, down = wrap(f(e) - f0), wrap(f(-e) - f0)
            jac_cd[:, j] = (up - down) / (2.0 * STEP)
            second[:, j] = (up + down) / STEP**2
        scale = np.abs(jac_da).max(axis=1)
        live = scale > 0.0
        agree = (np.abs(jac_da - jac_cd).max(axis=1)[live] / scale[live]).max()
        r, k = int(rows.argmax()), int(dirs.argmax())
        d2_da = image[r].partial(k + 1).partial(k + 1).const
        print(f"  DA against central differences: Jacobian within {agree:.2g} of each"
              f" row's largest entry; row {r}, direction {k + 1}:"
              f" d = {jac_da[r, k]:.7g} / {jac_cd[r, k]:.7g},"
              f" d2 = {d2_da:.7g} / {second[r, k]:.7g}")

        sigma = sc.library.sigma
        depth = math.ceil(math.log(eps / nu) / math.log(sigma))
        print(f"  nu * {sigma:.4f}^k < {eps} first at k = {depth}"
              f" ({nu:.4g} * {sigma:.4f}^{depth} = {nu * sigma**depth:.3g},"
              f" k = {depth - 1} gives {nu * sigma**(depth - 1):.3g})")


if __name__ == "__main__":
    main()
