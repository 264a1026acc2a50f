"""Golden artifact digests: the sha256 of every file that fixed runs write.

``golden_manifests.json`` holds, for each run, the sha256 of every file it
writes (``manifest.json`` included), and the numpy and scipy versions that
made them.  The runs, all at one thread:

- the four benchmark stage configs under ``perfbench/configs``, at seeds 1,
  7 and 12345 (only the ``seed`` field is replaced);
- the seven shipped configs under ``configs``, at their own seeds.

The tests rerun them and require identical digests.  An artifact may change
only in a deliberate re-baseline, which regenerates the file with

    PYTHONPATH=src python3 tests/golden.py

Before it rewrites the file, it prints each run whose digests differ from
the committed ones, with the files that changed, so the scope of a
re-baseline shows in one listing.
"""

import hashlib
import json
import os
import sys
import tempfile

import numpy as np
import scipy

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GOLDEN_PATH = os.path.join(ROOT, "tests", "golden_manifests.json")
SEEDS = (1, 7, 12345)
BENCH_STAGES = (
    "inequality_battery",
    "quantize_transport.empirical",
    "quantize_transport.quantize",
    "sbp_fbm_2d",
)


def versions() -> dict:
    return {"numpy": np.__version__, "scipy": scipy.__version__}


def bench_runs() -> list:
    """(key, raw config) for each benchmark stage config at each golden seed."""
    runs = []
    for stage in BENCH_STAGES:
        rel = f"perfbench/configs/{stage}.json"
        with open(os.path.join(ROOT, rel), encoding="utf-8") as fh:
            raw = json.load(fh)
        runs.extend((f"{rel} seed={seed}", dict(raw, seed=seed)) for seed in SEEDS)
    return runs


def shipped_runs() -> list:
    """(key, config path) for each shipped config."""
    names = sorted(n for n in os.listdir(os.path.join(ROOT, "configs")) if n.endswith(".json"))
    return [(f"configs/{n}", os.path.join(ROOT, "configs", n)) for n in names]


def digests(out_dir: str) -> dict:
    """sha256 of every file in a run's output directory, by file name."""
    out = {}
    for name in sorted(os.listdir(out_dir)):
        with open(os.path.join(out_dir, name), "rb") as fh:
            out[name] = hashlib.sha256(fh.read()).hexdigest()
    return out


def load() -> dict:
    with open(GOLDEN_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def version_mismatch(golden: dict) -> str | None:
    """Why the golden digests cannot apply here, or None when they do."""
    if {k: golden[k] for k in ("numpy", "scipy")} == versions():
        return None
    return (f"golden digests were made with numpy {golden['numpy']} and scipy "
            f"{golden['scipy']}; this is numpy {np.__version__} and scipy "
            f"{scipy.__version__}")


def changed_files(old: dict, new: dict) -> list:
    """(run key, changed file names) for each run whose digests differ."""
    out = []
    for key in sorted(old.keys() | new.keys()):
        before, after = old.get(key, {}), new.get(key, {})
        names = sorted(n for n in before.keys() | after.keys() if before.get(n) != after.get(n))
        if names:
            out.append((key, names))
    return out


def main() -> None:
    from roughball.runner import run

    runs = {}
    with tempfile.TemporaryDirectory() as tmp:
        for i, (key, config) in enumerate(bench_runs() + shipped_runs()):
            out = os.path.join(tmp, str(i))
            run(config, out_dir=out, threads=1)
            runs[key] = digests(out)
            print(key, file=sys.stderr)
    committed = load()["runs"] if os.path.exists(GOLDEN_PATH) else {}
    changes = changed_files(committed, runs)
    print(f"{len(changes)} of {len(runs)} runs changed")
    for key, names in changes:
        print(f"{key}: {', '.join(names)}")
    with open(GOLDEN_PATH, "w", encoding="utf-8") as fh:
        json.dump({**versions(), "runs": runs}, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
