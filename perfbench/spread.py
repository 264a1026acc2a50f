"""Run-to-run spread of the end-to-end metrics, as the acceptance rule takes it.

Usage, from the root of a checkout:

    python3 perfbench/spread.py --seeds 1-10 [--workload NAME ...] [--label NAME]

Runs ``run.py --trace 0`` once per workload and seed, one after another, and
prints for each metric the median and the distance between the first and
third quartiles (``statistics.quantiles(values, n=4)``) as a share of the
median, next to a third of the metric's bound from BENCHMARK.json.  The
values are kept in ``.perfbench_out/spread-<label>.json`` so two sets can be
compared with ``--compare LABEL_A LABEL_B``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def collect(spec: dict, names: list[str], seeds: list[int]) -> dict:
    values = {w: {m["name"]: [] for m in spec["end_to_end"]} for w in names}
    for w in names:
        for seed in seeds:
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", w, "--seed", str(seed),
                 "--seconds", str(spec["run_seconds"]), "--trace", "0"],
                capture_output=True, text=True, timeout=200, check=True)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if not result["correct"]:
                print(f"{w} seed {seed}: incorrect run\n{proc.stderr}", file=sys.stderr)
            for name, metric in result["metrics"].items():
                values[w][name].append(metric["value"])
            print(f"{w} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()), flush=True)
    return values


def report(spec: dict, values: dict) -> None:
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    for w, metrics in values.items():
        for name, vals in metrics.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            share = (q3 - q1) / statistics.median(vals)
            flag = "ok" if share < bounds[name] / 3 else "WIDE"
            print(f"{w:20s} {name:12s} median={statistics.median(vals):.4g} "
                  f"iqr/median={share:.4f} bound/3={bounds[name] / 3:.4f} {flag}")


def compare(spec: dict, a: dict, b: dict) -> None:
    for m in spec["end_to_end"]:
        for w in a:
            ma, mb = statistics.median(a[w][m["name"]]), statistics.median(b[w][m["name"]])
            shift = (mb - ma) / ma
            flag = "ok" if shift <= m["bound"] else "WORSE"
            print(f"{w:20s} {m['name']:12s} {ma:.4g} -> {mb:.4g} shift={shift:+.4f} "
                  f"bound={m['bound']} {flag}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workload", action="append")
    parser.add_argument("--label", default="latest")
    parser.add_argument("--compare", nargs=2, metavar="LABEL")
    args = parser.parse_args(argv)
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    out_dir = ".perfbench_out"
    if args.compare:
        sets = []
        for label in args.compare:
            with open(os.path.join(out_dir, f"spread-{label}.json"), encoding="utf-8") as fh:
                sets.append(json.load(fh))
        compare(spec, *sets)
        return 0
    names = args.workload or [w["name"] for w in spec["workloads"]]
    values = collect(spec, names, _seeds(args.seeds))
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, f"spread-{args.label}.json"), "w", encoding="utf-8") as fh:
        json.dump(values, fh, indent=1)
    report(spec, values)
    return 0


if __name__ == "__main__":
    sys.exit(main())
