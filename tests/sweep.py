"""Science checks of one benchmark workload over many seeds and rounds.

For each benchmark seed and round, every stage config of the workload runs
with the config seed the benchmark derives for that round
(``perfbench/workloads.stage_configs``), at one thread, from the ``src/`` of
the source tree given; ``workloads.science_check`` then judges its
artifacts.  The script prints every failing (seed, round, stage, message),
then the number of failing rounds per seed and of failures per stage:

    python3 tests/sweep.py --tree . --workload quantize_transport \\
        --seeds 7 103 81 --rounds 0 200

With ``--against TREE`` (a copy of the parent, made with ``git archive``)
the same (seed, round) set runs on both trees, each in a process of its
own, and the report lists the failing rounds the two trees share apart from
those that fail on one tree only.  Pytest does not collect it.
"""

from __future__ import annotations

import argparse
import collections
import os
import shutil
import subprocess
import sys
import tempfile


def sweep(tree: str, workload: str, seeds, rounds) -> None:
    """Run the rounds on one tree in this process and print the report."""
    sys.path[:0] = [os.path.join(tree, "src"), os.path.join(tree, "perfbench")]
    import workloads
    from roughball.runner import run

    failing = collections.Counter()
    by_stage = collections.Counter()
    with tempfile.TemporaryDirectory() as tmp:
        for seed in seeds:
            for round_index in rounds:
                bad = False
                for stage, cfg in workloads.stage_configs(workload, seed, round_index):
                    out = os.path.join(tmp, f"{seed}-{round_index}-{stage}")
                    run(cfg, out_dir=out, threads=1)
                    for message in workloads.science_check(stage, cfg, out):
                        print(f"seed {seed} round {round_index} {stage} "
                              f"(config seed {cfg['seed']}): {message}", flush=True)
                        by_stage[stage] += 1
                        bad = True
                    shutil.rmtree(out)
                failing[seed] += bad
    print(f"tree {tree}, workload {workload}, rounds {rounds.start}-{rounds.stop - 1}")
    for seed in seeds:
        print(f"seed {seed}: {failing[seed]} of {len(rounds)} rounds fail")
    for stage, _ in workloads.stage_configs(workload, 0, 0):
        print(f"{stage}: {by_stage[stage]} failures")


def compare(trees, argv) -> None:
    """Run the same rounds on each tree in a child process and list the
    failing (seed, round) pairs both share, then those of one tree only."""
    children = [subprocess.Popen([sys.executable, os.path.abspath(__file__), "--tree", tree,
                                  *argv], stdout=subprocess.PIPE, text=True)
                for tree in trees]
    failed = []
    for tree, child in zip(trees, children):
        out, _ = child.communicate()
        if child.returncode:
            raise SystemExit(f"sweep of {tree} exited {child.returncode}")
        print(out, end="")
        lines = [line.split() for line in out.splitlines() if line.startswith("seed ")]
        failed.append({(int(w[1]), int(w[3])) for w in lines if w[2] == "round"})
    both = sorted(failed[0] & failed[1])
    print(f"failing rounds (seed, round) on both trees: {both or 'none'}")
    for tree, mine, other in ((trees[0], failed[0], failed[1]), (trees[1], failed[1], failed[0])):
        print(f"failing on {tree} only: {sorted(mine - other) or 'none'}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--tree", default=os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), help="source tree to run (default: this checkout)")
    parser.add_argument("--against", help="a second source tree to run the same rounds on")
    parser.add_argument("--workload", default="quantize_transport")
    parser.add_argument("--seeds", type=int, nargs="+", default=[7, 103, 81])
    parser.add_argument("--rounds", type=int, nargs=2, default=[0, 200],
                        metavar=("FIRST", "STOP"), help="rounds FIRST .. STOP-1")
    args = parser.parse_args()
    if args.against:
        compare([os.path.abspath(args.tree), os.path.abspath(args.against)],
                ["--workload", args.workload, "--seeds", *map(str, args.seeds),
                 "--rounds", *map(str, args.rounds)])
    else:
        sweep(os.path.abspath(args.tree), args.workload, args.seeds, range(*args.rounds))


if __name__ == "__main__":
    main()
