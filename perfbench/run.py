"""roughball benchmark: one command, one workload, every metric by name.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload sbp_fbm_2d --seed 1 --seconds 20 --trace 0

The workload runs in a child process (``child.py``) with BLAS/OpenMP pinned to
one thread, so the only threads are the ``--threads`` workers of the runner.
``--trace 0`` reports the end-to-end metrics of BENCHMARK.json: median wall
seconds of a workload run at two threads (``run_s``) and at one
(``run_s_1t``), the median of several fresh-interpreter set-ups
(``setup_s``), and the child's peak resident memory.  ``--trace 1`` repeats
the untraced runs, adds a traced one-thread run per round, and reports the
per-layer metrics.  Every run is checked for correctness; a failed run counts
in ``failed`` and makes ``correct`` false.  The last line of standard output
is the result as one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads  # noqa: E402

# Set-up is timed this many times per run; the median is reported.
SETUP_REPEATS = 3
# Every process the benchmark starts must end before this many seconds.
DEADLINE_S = 170.0
PINNED_THREADS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                  "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def child_env(root: str) -> dict:
    env = dict(os.environ)
    env.update({name: "1" for name in PINNED_THREADS})
    env.pop("ROUGHBALL_THREADS", None)
    env["PYTHONPATH"] = os.path.join(root, "src")
    return env


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError:
        return ""


def environment(workload: str, env: dict, child: dict) -> dict:
    """Hardware, library versions and input sizes recorded beside each result."""
    cpu_model = next((line.split(":", 1)[1].strip()
                      for line in _read("/proc/cpuinfo").splitlines()
                      if line.startswith("model name")), platform.processor())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "l3_cache": _read("/sys/devices/system/cpu/cpu0/cache/index3/size").strip() or None,
        "python": platform.python_version(),
        "numpy": child["versions"]["numpy"],
        "scipy": child["versions"]["scipy"],
        "pinned_threads": {name: env[name] for name in PINNED_THREADS},
        "inputs": workloads.input_sizes(workload),
    }


def time_setup(workload: str, seed: int, env: dict, timeout: float) -> float:
    t0 = time.perf_counter()
    subprocess.run([sys.executable, os.path.join(HERE, "setup_probe.py"), workload, str(seed)],
                   env=env, check=True, timeout=timeout)
    return time.perf_counter() - t0


def end_to_end(child: dict, setup: list[float]) -> dict:
    wall = child["wall"]
    return {
        "run_s": statistics.median(wall["t2"]),
        "run_s_1t": statistics.median(wall["t1"]),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": child["peak_rss_kb"] / 1024.0,
    }


def per_layer(child: dict) -> dict:
    wall, cpu = child["wall"], child["cpu"]
    run_s = statistics.median(wall["t2"])
    run_s_1t = statistics.median(wall["t1"])
    metrics = dict(child["layers"])
    metrics["runner.cpu_util"] = statistics.median(
        c / (w * 2) for c, w in zip(cpu["t2"], wall["t2"]))
    metrics["runner.speedup_2t"] = run_s_1t / run_s
    metrics["runner.trace_overhead_s"] = statistics.median(wall["traced"]) - run_s_1t
    metrics["error_rate"] = child["failed"] / child["attempted"]
    return metrics


def main(argv=None) -> int:
    t_start = time.perf_counter()
    root = os.getcwd()
    spec_path = os.path.join(root, "BENCHMARK.json")
    if not os.path.isfile(os.path.join(root, "src", "roughball", "__init__.py")):
        print("run from the root of a roughball checkout: src/roughball is missing",
              file=sys.stderr)
        return 2
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)

    parser = argparse.ArgumentParser(description="roughball benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.STAGES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    env = child_env(root)
    out_dir = os.path.join(root, ".perfbench_out", f"{args.workload}-seed{args.seed}"
                                                   f"-trace{args.trace}")
    os.makedirs(out_dir, exist_ok=True)
    result_path = os.path.join(out_dir, "child.json")
    if os.path.exists(result_path):
        os.unlink(result_path)

    # The child runs first so that the set-up probes find compiled bytecode,
    # as an installed package would have it.
    remaining = DEADLINE_S - (time.perf_counter() - t_start)
    reserve = 0.0 if args.trace else 30.0
    subprocess.run(
        [sys.executable, os.path.join(HERE, "child.py"), "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", str(args.seconds),
         "--trace", str(args.trace), "--work-dir", os.path.join(out_dir, "work"),
         "--result", result_path, "--spans", os.path.join(out_dir, "spans.jsonl")],
        env=env, check=True, timeout=remaining - reserve)
    with open(result_path, encoding="utf-8") as fh:
        child = json.load(fh)
    for err in child["errors"]:
        print(f"failed: {err}", file=sys.stderr)
    record = {"environment": environment(args.workload, env, child)}

    if args.trace:
        values = per_layer(child)
        wanted = spec["per_layer"]
    else:
        setup = []
        for _ in range(SETUP_REPEATS):
            remaining = DEADLINE_S - (time.perf_counter() - t_start)
            setup.append(time_setup(args.workload, args.seed, env, remaining))
        values = end_to_end(child, setup)
        wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}

    record.update({"args": vars(args), "rounds": child["rounds"], "errors": child["errors"],
                   "metrics": metrics})
    with open(os.path.join(out_dir, "result.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2)
    print(json.dumps({"environment": record["environment"]}))
    print(json.dumps({
        "correct": child["failed"] == 0,
        "attempted": child["attempted"],
        "failed": child["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
