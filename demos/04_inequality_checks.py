"""Correlation and shift inequalities, checked by simulation with error bars.

Every check returns a report carrying lhs, rhs, margin = lhs - rhs, and a
standard error for the margin where Monte Carlo is involved.  A verdict of
"holds" means margin >= 0 beyond noise, "holds_within_noise" means the
margin is negative but within four standard errors, and "violated" (never
expected for a true inequality) means the gap survives the noise test.
"""

import os
import tempfile

import numpy as np

from roughball.gaussian import brownian_model
from roughball.inequalities import (
    canary_violation,
    check_anderson,
    check_borell_shift,
    check_cameron_martin,
    check_sidak,
)
from roughball.paths import CMPath
from roughball.runner import run

model = brownian_model(dim=1)
times = np.linspace(0.0, 1.0, 257)
bump = CMPath(times, (0.3 * np.minimum(times, 0.5))[:, None])

reports = [
    check_anderson(model, alpha=0.4, center=bump, eps=1.5, n=20000, seed=2),
    check_cameron_martin(model, alpha=0.4, h=bump, eps=1.5, n=20000, seed=2),
    check_sidak(np.array([[1.0, 0.6], [0.6, 1.0]]), [1.0, 1.5]),
    check_borell_shift(1, ("half_space", 0.0), lam=1.0, n=50000, seed=2),
    # Deliberately false claim, kept around so "violated" is reachable and the
    # reporting pipeline can be exercised end to end.
    canary_violation(n=50000, seed=2),
]

for r in reports:
    se = "exact" if r.margin_se is None else f"se {r.margin_se:.2e}"
    print(f"{r.name:18s} {r.verdict:20s} margin {r.margin:+.3e}  ({se})")

# The runner writes every artifact; an inequalities config names its checks.
config = {
    "experiment": "inequalities",
    "model": {"kind": "brownian", "d": 1},
    "grid": {"T": 1.0, "N": 256},
    "seed": 2,
    "checks": [
        {"name": "sidak", "cov": [[1.0, 0.6], [0.6, 1.0]], "thresholds": [1.0, 1.5]},
        {"name": "borell_shift", "set": ["half_space", 0.0], "lam": 1.0},
        {"name": "canary_violation", "n": 50000},
    ],
}
with tempfile.TemporaryDirectory() as out:
    run(config, out_dir=out)
    print()
    print("reports.csv as written by the experiment runner:")
    with open(os.path.join(out, "reports.csv"), encoding="utf-8") as fh:
        print(fh.read())
