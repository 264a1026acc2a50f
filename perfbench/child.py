"""One workload's measured runs, in a process of their own.

Started by ``run.py`` with BLAS/OpenMP pinned to one thread and ``src`` on
the import path.  It repeats rounds until ``--seconds`` have passed after a
warm-up round.  A round runs the workload at ``--threads 1`` and at
``--threads 2`` (alternating which goes first) and, with ``--trace 1``, once
more at one thread with span recorders installed.  Each round draws fresh
config seeds from the benchmark seed.  Every run is checked: its manifest
against the files on disk, its artifacts against the workload's science
checks, and its manifest hashes against the round's one-thread run.  The
measurements go to ``--result`` as JSON and the spans to ``--spans``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time

import numpy
import scipy

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import workloads  # noqa: E402
from tracing import TARGETS, Tracer  # noqa: E402

from roughball import runner  # noqa: E402

# spans whose self time is reported under an explicit *_self_s name; every
# other span's self time is reported as <span>_s
_SELF_NAMES = {
    "runner.run": "runner.run_self_s",
    "smallball.sample_dyadic_level_maxima": "smallball.sample_dyadic_level_maxima_self_s",
    "quantize.lloyd_codebook": "quantize.lloyd_codebook_self_s",
    "quantize.quantization_error": "quantize.quantization_error_self_s",
    "quantize.empirical_rate_experiment": "quantize.empirical_rate_experiment_self_s",
}
_COUNTS = ("paths.batch_prefix_bytes", "paths.pair_increments_elems", "algebra.norm_evals",
           "quantize.pairwise_pairs", "quantize.lloyd_iters", "runner.artifact_bytes",
           "gaussian.draw_increments_calls", "gaussian.plan_calls")


def run_workload(stages, threads: int, out_dir: str, tracer: Tracer | None = None) -> dict:
    """Every stage through runner.run; wall and process CPU seconds of the whole."""
    try:
        if tracer is not None:
            tracer.install()
        cpu0 = time.process_time()
        t0 = time.perf_counter()
        for stage, cfg in stages:
            runner.run(cfg, out_dir=os.path.join(out_dir, stage), threads=threads)
        wall = time.perf_counter() - t0
        cpu = time.process_time() - cpu0
    finally:
        if tracer is not None:
            tracer.uninstall()
    return {"wall": wall, "cpu": cpu}


def check_run(stages, out_dir: str, reference_dir: str | None) -> list[str]:
    """Manifest, science and (against reference_dir) byte-identity checks."""
    errors = []
    for stage, cfg in stages:
        stage_dir = os.path.join(out_dir, stage)
        errors += [f"{stage}: {e}" for e in workloads.check_manifest(stage_dir)]
        errors += [f"{stage}: {e}" for e in workloads.science_check(stage, cfg, stage_dir)]
        if reference_dir is not None:
            ref = workloads.read_manifest(os.path.join(reference_dir, stage))
            if workloads.read_manifest(stage_dir) != ref:
                errors.append(f"{stage}: manifest hashes differ from the one-thread run")
    return errors


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer figures of one traced run, keyed by BENCHMARK.json names."""
    self_s = tracer.self_times()
    out = {_SELF_NAMES.get(span, span + "_s"): self_s.get(span, 0.0)
           for _, _, span, _ in TARGETS}
    out.update({name: tracer.counts[name] for name in _COUNTS})
    plans = tracer.counts["gaussian.plan_calls"]
    out["gaussian.plans_per_grid"] = plans / len(tracer.plan_keys) if plans else 0.0
    out["quantize.lp_solves"] = tracer.counts["quantize.wasserstein_calls"]
    out["runner.self_time_sum_s"] = sum(self_s.values())
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.STAGES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--work-dir", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--spans", required=True)
    args = parser.parse_args(argv)

    attempted = 0
    failed_runs = set()
    errors = []
    walls = {"t1": [], "t2": [], "traced": []}
    cpus = {"t1": [], "t2": [], "traced": []}
    tracers = []
    start = None
    round_index = 0
    while start is None or time.perf_counter() - start < args.seconds:
        stages = workloads.stage_configs(args.workload, args.seed, round_index)
        round_dir = os.path.join(args.work_dir, f"round{round_index}")
        labels = ["t1", "t2"] if round_index % 2 == 0 else ["t2", "t1"]
        if args.trace:
            labels.append("traced")
        tracer = Tracer() if args.trace else None
        timings = {}
        for label in labels:
            attempted += 1
            try:
                timings[label] = run_workload(
                    stages, 2 if label == "t2" else 1, os.path.join(round_dir, label),
                    tracer if label == "traced" else None)
            except Exception as exc:  # a failed run counts against error_rate
                failed_runs.add((round_index, label))
                errors.append(f"round {round_index} {label}: {type(exc).__name__}: {exc}")
        reference = os.path.join(round_dir, "t1") if "t1" in timings else None
        for label in list(timings):
            run_errors = check_run(stages, os.path.join(round_dir, label),
                                   None if label == "t1" else reference)
            if label != "t1" and reference is None:
                run_errors.append("no one-thread run to compare against")
            if run_errors:
                del timings[label]
                failed_runs.add((round_index, label))
                errors += [f"round {round_index} {label}: {e}" for e in run_errors]
        shutil.rmtree(round_dir, ignore_errors=True)

        if start is None:  # round 0 warms caches and lazy imports; untimed
            start = time.perf_counter()
        else:
            for label, t in timings.items():
                walls[label].append(t["wall"])
                cpus[label].append(t["cpu"])
            if "traced" in timings:
                tracers.append(tracer)
        round_index += 1

    result = {
        "attempted": attempted,
        "failed": len(failed_runs),
        "errors": errors,
        "rounds": round_index,
        "wall": walls,
        "cpu": cpus,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "versions": {"numpy": numpy.__version__, "scipy": scipy.__version__},
    }
    if tracers:
        per_run = [layer_metrics(tr) for tr in tracers]
        result["layers"] = {k: statistics.median(d[k] for d in per_run) for k in per_run[0]}
    with open(args.spans, "w", encoding="utf-8") as fh:
        for i, tr in enumerate(tracers):
            tr.write_spans(fh, i)
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    shutil.rmtree(args.work_dir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
