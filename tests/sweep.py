"""Science checks of one benchmark workload over many seeds and rounds.

For each benchmark seed and round, every stage config of the workload runs
with the config seed the benchmark derives for that round
(``perfbench/workloads.stage_configs``), at one thread, from the ``src/`` of
the source tree given; ``workloads.science_check`` then judges its
artifacts.  The script prints every failing (seed, round, stage, message),
then the number of failing rounds per seed and of failures per stage:

    python3 tests/sweep.py --tree . --workload quantize_transport \\
        --seeds 7 103 81 --rounds 0 200

Run it on a re-baseline and on a copy of its parent (``git archive``) to
tell the failures the two share from new ones.  Pytest does not collect it.
"""

from __future__ import annotations

import argparse
import collections
import os
import shutil
import sys
import tempfile


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--tree", default=os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), help="source tree to run (default: this checkout)")
    parser.add_argument("--workload", default="quantize_transport")
    parser.add_argument("--seeds", type=int, nargs="+", default=[7, 103, 81])
    parser.add_argument("--rounds", type=int, nargs=2, default=[0, 200],
                        metavar=("FIRST", "STOP"), help="rounds FIRST .. STOP-1")
    args = parser.parse_args()
    tree = os.path.abspath(args.tree)
    sys.path[:0] = [os.path.join(tree, "src"), os.path.join(tree, "perfbench")]
    import workloads
    from roughball.runner import run

    failing = collections.Counter()
    by_stage = collections.Counter()
    rounds = range(*args.rounds)
    with tempfile.TemporaryDirectory() as tmp:
        for seed in args.seeds:
            for round_index in rounds:
                bad = False
                for stage, cfg in workloads.stage_configs(args.workload, seed, round_index):
                    out = os.path.join(tmp, f"{seed}-{round_index}-{stage}")
                    run(cfg, out_dir=out, threads=1)
                    for message in workloads.science_check(stage, cfg, out):
                        print(f"seed {seed} round {round_index} {stage} "
                              f"(config seed {cfg['seed']}): {message}", flush=True)
                        by_stage[stage] += 1
                        bad = True
                    shutil.rmtree(out)
                failing[seed] += bad
    print(f"tree {tree}, workload {args.workload}, rounds {args.rounds[0]}-"
          f"{args.rounds[1] - 1}")
    for seed in args.seeds:
        print(f"seed {seed}: {failing[seed]} of {len(rounds)} rounds fail")
    for stage, _ in workloads.stage_configs(args.workload, 0, 0):
        print(f"{stage}: {by_stage[stage]} failures")


if __name__ == "__main__":
    main()
