"""The set-up every CLI call pays, in a fresh interpreter.

Imports roughball, parses each of the workload's configs, builds the model
and the SamplerPlan for the config's grid, then exits.  ``run.py`` times the
whole process, interpreter start-up and exit included.
"""

from __future__ import annotations

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import workloads  # noqa: E402


def main(argv) -> int:
    workload, seed = argv[0], int(argv[1])
    import numpy as np

    import roughball

    for _, raw in workloads.stage_configs(workload, seed, 0):
        config = roughball.parse_config(raw)
        model = config.model()
        grid = config.data["grid"]
        roughball.SamplerPlan(model, np.linspace(0.0, grid["T"], grid["N"] + 1))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
