"""Command line entry point.

One binary, one subcommand per experiment kind; each run reads a JSON config,
executes the matching pipeline, and writes hashed artifacts.  Exit codes:
0 success, 1 strict-mode assertion (a 'violated' inequality verdict),
2 config error, 3 runtime or numerical error.
"""

from __future__ import annotations

import argparse
import sys

from .config import EXPERIMENTS, ConfigError, parse_config
from .runner import StrictViolationError, run


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="roughball",
        description="Monte-Carlo laboratory for lifted Gaussian paths: small-ball "
                    "curves, correlation inequalities, entropy and quantization "
                    "experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    help_lines = {
        "sbp": "estimate a small-ball probability curve and fit its index",
        "entropy": "entropy bounds from a small-ball curve plus a greedy cover",
        "quantize": "train codebooks and compare distortion with the curve bound",
        "empirical": "weighted vs uniform empirical-measure convergence rates",
        "inequalities": "run the configured correlation-inequality checks",
        "audit": "covariance regularity audits and sample dumps",
    }
    for kind in EXPERIMENTS:
        p = sub.add_parser(kind, help=help_lines[kind])
        p.add_argument("--config", required=True, help="path to a JSON config file")
        p.add_argument("--out", default=None, help="output directory (overrides config)")
        p.add_argument("--threads", type=int, default=None,
                       help="worker threads (fallback: ROUGHBALL_THREADS, then 1)")
        p.add_argument("--strict", action="store_true",
                       help="exit 1 if any inequality verdict is 'violated'")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = parse_config(args.config)
        if config.experiment != args.command:
            raise ConfigError(
                f"experiment: config declares {config.experiment!r} but the "
                f"{args.command!r} subcommand was invoked"
            )
        manifest = run(config, out_dir=args.out, threads=args.threads,
                       strict=args.strict)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except StrictViolationError as exc:
        print(f"strict mode: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # runtime/numerical failures
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    n_files = len(manifest["files"]) + 1  # + manifest.json itself
    print(f"{args.command}: wrote {n_files} files (config {manifest['config_hash'][:12]})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
