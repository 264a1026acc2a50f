"""The benchmark's own test: span recorders only observe.

Run from the root of a checkout:

    python3 -m pytest perfbench/test_tracing.py -q

Each workload's configs, shrunk to a few hundred samples, run once untraced
and once with every recorder installed; the two manifests must match byte for
byte.  Uninstalling must restore every rebound name.
"""

from __future__ import annotations

import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import workloads  # noqa: E402
from tracing import TARGETS, Tracer  # noqa: E402

from roughball import runner  # noqa: E402

SMALL = {
    "sbp": {"n_samples": 256},
    "quantize": {"n_train": 64, "n_fresh": 128, "curve_samples": 1000, "n_centers": [4, 8]},
    "empirical": {"n_list": [4, 8], "reps": 1, "m_weights": 100, "test_size": 32,
                  "bootstrap": 2},
}
SMALL_CHECK_N = {"anderson": 256, "cameron_martin": 256, "sidak": 2000, "borell_shift": 2000,
                 "borell_shift_rough": 64}


def small_stages(workload: str) -> list[tuple[str, dict]]:
    stages = workloads.stage_configs(workload, seed=7, round_index=0)
    for _, cfg in stages:
        cfg.update(SMALL.get(cfg["experiment"], {}))
        for check in cfg.get("checks", []):
            check["n"] = SMALL_CHECK_N[check["name"]]
    return stages


def run_stages(stages, out_dir: str) -> list[dict]:
    return [runner.run(cfg, out_dir=os.path.join(out_dir, stage), threads=1)
            for stage, cfg in stages]


@pytest.mark.parametrize("workload", sorted(workloads.STAGES))
def test_traced_run_writes_identical_artifacts(workload, tmp_path):
    stages = small_stages(workload)
    plain = run_stages(stages, str(tmp_path / "plain"))
    with Tracer() as tracer:
        traced = run_stages(stages, str(tmp_path / "traced"))
    assert traced == plain
    names = {span[2] for span in tracer.spans}
    assert {"runner.run", "config.parse_config", "runner.atomic_write"} <= names
    # self times partition the outermost spans' wall time
    roots = sum(end - start for _, parent, _, start, end in tracer.spans if parent is None)
    assert sum(tracer.self_times().values()) == pytest.approx(roots, rel=1e-9)


def test_uninstall_restores_every_name():
    modules = {n: m for n, m in sys.modules.items()
               if n == "roughball" or n.startswith("roughball.")}
    before = {(n, k): v for n, m in modules.items() for k, v in vars(m).items()}
    classes = {}
    for mod_name, attr, _, _ in TARGETS:
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(sys.modules[mod_name], cls_name)
            classes[(cls, meth)] = cls.__dict__[meth]
    tracer = Tracer().install()
    assert runner.run is not before[("roughball.runner", "run")]
    tracer.uninstall()
    after = {(n, k): v for n, m in modules.items() for k, v in vars(m).items()}
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())
    for (cls, meth), raw in classes.items():
        assert cls.__dict__[meth] is raw
