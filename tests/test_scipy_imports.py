"""Which scipy modules the package loads, each case in a fresh interpreter.

Importing roughball, parsing and building every shipped config and planning
its sampler load no scipy, and importing it loads no thread pool
(concurrent.futures).  Neither do a small-ball run, nor a quantize run
followed by an empirical-rate run, whose transport simplex is numpy.  An
inequality run loads scipy.special and scipy.linalg, in the checks that call
them, and no other scipy subpackage.  Two check threads may import those two for the
first time at once, so that run is also compared with its golden digests.
"""

import json
import os
import subprocess
import sys

import pytest
import scipy

import golden

_PRELUDE = """
import json, sys, tempfile
import roughball
from roughball.runner import run

def loaded():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

def bench_config(stage, seed=None):
    with open(f"perfbench/configs/{stage}.json", encoding="utf-8") as fh:
        raw = json.load(fh)
    return raw if seed is None else dict(raw, seed=seed)
"""


def _child(code: str):
    """Run _PRELUDE + code in a fresh interpreter at the repo root and return
    the JSON value it prints."""
    env = dict(os.environ, PYTHONPATH=os.path.join(golden.ROOT, "src"))
    out = subprocess.run([sys.executable, "-c", _PRELUDE + code], cwd=golden.ROOT, env=env,
                         capture_output=True, text=True, check=True, timeout=300)
    return json.loads(out.stdout)


def test_import_parse_and_plan_load_no_scipy():
    assert _child("print(json.dumps('concurrent.futures' in sys.modules))") is False
    code = """
import glob
import numpy as np
from roughball import SamplerPlan, parse_config
for path in sorted(glob.glob("configs/*.json") + glob.glob("perfbench/configs/*.json")):
    config = parse_config(path)
    model = config.model()
    SamplerPlan(model, np.linspace(0.0, model.horizon, config.data["grid"]["N"] + 1))
print(json.dumps(loaded()))
"""
    assert _child(code) == []


def test_small_ball_run_loads_no_scipy():
    code = """
with tempfile.TemporaryDirectory() as out:
    run(bench_config("sbp_fbm_2d"), out_dir=out, threads=2)
print(json.dumps(loaded()))
"""
    assert _child(code) == []


def test_quantize_and_empirical_runs_load_no_scipy():
    code = """
for stage in ("quantize_transport.quantize", "quantize_transport.empirical"):
    with tempfile.TemporaryDirectory() as out:
        run(bench_config(stage), out_dir=out, threads=2)
print(json.dumps(loaded()))
"""
    assert _child(code) == []


def test_inequality_run_loads_only_special_and_linalg():
    code = """
with tempfile.TemporaryDirectory() as out:
    run(bench_config("inequality_battery"), out_dir=out, threads=2)
print(json.dumps(loaded()))
"""
    modules = _child(code)
    subpackages = {m.split(".")[1] for m in modules if "." in m} & set(scipy.__all__)
    assert subpackages == {"special", "linalg"}


@pytest.mark.parametrize("seed", golden.SEEDS)
def test_first_two_thread_inequality_run_matches_golden_digests(seed):
    recorded = golden.load()
    reason = golden.version_mismatch(recorded)
    if reason:
        pytest.skip(reason)
    code = f"""
with tempfile.TemporaryDirectory() as out:
    run(bench_config("inequality_battery", {seed}), out_dir=out, threads=2)
    sys.path.insert(0, "tests")
    import golden
    print(json.dumps(golden.digests(out)))
"""
    key = f"perfbench/configs/inequality_battery.json seed={seed}"
    assert _child(code) == recorded["runs"][key]
