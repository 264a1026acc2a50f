"""The benchmark's workloads: their configs, seeds and science checks.

Each workload owns copies of its configs under ``perfbench/configs``; the
benchmark seed only replaces the configs' ``seed`` field.  The checks read the
artifacts a run left on disk and return a list of failure messages, empty
when the run is correct.  This module imports nothing from ``roughball``, so
``run.py`` can use it without paying the library's import cost.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os

CONFIG_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "configs")

# workload -> its pipeline stages, run in order by one workload run
STAGES = {
    "sbp_fbm_2d": ("sbp_fbm_2d",),
    "inequality_battery": ("inequality_battery",),
    "quantize_transport": ("quantize_transport.quantize", "quantize_transport.empirical"),
}


def derive_seed(seed: int, *tags) -> int:
    """31-bit config seed for one stage of one round, from the benchmark seed."""
    text = ":".join(str(t) for t in (seed,) + tags)
    return int.from_bytes(hashlib.sha256(text.encode("utf-8")).digest()[:4], "big") >> 1


def stage_configs(workload: str, seed: int, round_index: int) -> list[tuple[str, dict]]:
    """(stage name, raw config dict) for each stage, seeded for this round."""
    out = []
    for stage in STAGES[workload]:
        with open(os.path.join(CONFIG_DIR, stage + ".json"), encoding="utf-8") as fh:
            cfg = json.load(fh)
        cfg["seed"] = derive_seed(seed, stage, round_index)
        out.append((stage, cfg))
    return out


def input_sizes(workload: str) -> dict:
    """The size parameters of each stage's config, for the run record."""
    keys = ("n_samples", "n_train", "n_fresh", "curve_samples", "n_centers", "n_list",
            "reps", "m_weights", "test_size", "bootstrap")
    sizes = {}
    for stage, cfg in stage_configs(workload, 0, 0):
        entry = {"experiment": cfg["experiment"], "N": cfg["grid"]["N"],
                 "d": cfg["model"]["d"], "model": cfg["model"]["kind"]}
        entry.update({k: cfg[k] for k in keys if k in cfg})
        if "checks" in cfg:
            entry["checks_n"] = [[c["name"], c.get("n")] for c in cfg["checks"]]
        sizes[stage] = entry
    return sizes


# ---------------------------------------------------------------------------
# Checks on a run's artifacts
# ---------------------------------------------------------------------------


def _sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def read_manifest(out_dir: str) -> dict:
    with open(os.path.join(out_dir, "manifest.json"), encoding="utf-8") as fh:
        return json.load(fh)


def check_manifest(out_dir: str) -> list[str]:
    """Every file the manifest lists is on disk with the recorded sha256."""
    errors = []
    manifest = read_manifest(out_dir)
    for name, meta in manifest["files"].items():
        path = os.path.join(out_dir, name)
        if not os.path.exists(path):
            errors.append(f"{name}: listed in the manifest but missing")
        elif _sha256(path) != meta["sha256"]:
            errors.append(f"{name}: sha256 differs from the manifest")
    return errors


def _csv_rows(path: str) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        lines = [line for line in fh if not line.startswith("#")]
    return list(csv.DictReader(lines))


def _load_json(out_dir: str, name: str) -> dict:
    with open(os.path.join(out_dir, name), encoding="utf-8") as fh:
        return json.load(fh)


def _check_sbp(out_dir: str) -> list[str]:
    errors = []
    p_hat = [float(row["p_hat"]) for row in _csv_rows(os.path.join(out_dir, "curve.csv"))]
    if any(b < a for a, b in zip(p_hat, p_hat[1:])):
        errors.append(f"curve is not monotone in eps: {p_hat}")
    inner = sum(1 for p in p_hat if 0.0 < p < 1.0)
    if inner < 4:
        errors.append(f"curve has {inner} points with 0 < p_hat < 1, need 4")
    index = _load_json(out_dir, "fit.json").get("index")
    if not isinstance(index, (int, float)) or not math.isfinite(index):
        errors.append(f"fit reports no index: {index!r}")
    return errors


def _check_inequalities(out_dir: str, n_checks: int) -> list[str]:
    reports = _load_json(out_dir, "reports.json")["reports"]
    errors = []
    if len(reports) != n_checks:
        errors.append(f"{len(reports)} reports for {n_checks} checks")
    errors += [f"{r['name']}: verdict violated (margin {r['margin']!r})"
               for r in reports if r["verdict"] == "violated"]
    return errors


def _check_quantize(out_dir: str) -> list[str]:
    rows = _csv_rows(os.path.join(out_dir, "quantize.csv"))
    errors = [f"n={r['n']}: E_hat below the small-ball lower bound beyond slack"
              for r in rows if r["holds_within_slack"] != "True"]
    e_hat = [(int(r["n"]), float(r["E_hat"])) for r in sorted(rows, key=lambda r: int(r["n"]))]
    for (n0, e0), (n1, e1) in zip(e_hat, e_hat[1:]):
        if e1 > e0:
            errors.append(f"E_hat increases from n={n0} ({e0!r}) to n={n1} ({e1!r})")
    return errors


def _check_empirical(out_dir: str) -> list[str]:
    summary = _load_json(out_dir, "summary.json")
    return [f"n={d['n']} rep={d['rep']}: weighted measure not dominating within noise"
            for d in summary["domination"] if not d["dominates_within_noise"]]


def science_check(stage: str, cfg: dict, out_dir: str) -> list[str]:
    """The stage's science checks on the artifacts in out_dir."""
    kind = cfg["experiment"]
    if kind == "sbp":
        return _check_sbp(out_dir)
    if kind == "inequalities":
        return _check_inequalities(out_dir, len(cfg["checks"]))
    if kind == "quantize":
        return _check_quantize(out_dir)
    if kind == "empirical":
        return _check_empirical(out_dir)
    raise ValueError(f"{stage}: no science check for experiment {kind!r}")
