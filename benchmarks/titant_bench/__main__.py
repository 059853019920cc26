"""Command line of the reference benchmark.

``python -m benchmarks.titant_bench --workload NAME --seed N --seconds S --trace 0|1``
runs one workload in this process and prints the contract's JSON object as
the last line; ``--all`` runs every workload, one process each, prints every
metric as ``workload/name value unit`` and writes ``results.json``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Optional

PACKAGE_DIR = Path(__file__).resolve().parent
REPO_ROOT = PACKAGE_DIR.parents[1]


def _bootstrap_path() -> None:
    """Make ``repro`` (under ``src/``) and ``benchmarks`` importable."""
    for entry in (str(REPO_ROOT / "src"), str(REPO_ROOT)):
        if entry not in sys.path:
            sys.path.insert(0, entry)


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.titant_bench", description=__doc__)
    target = parser.add_mutually_exclusive_group(required=True)
    target.add_argument("--workload", help="run one workload in this process")
    target.add_argument("--all", action="store_true", help="run every workload, one process each")
    parser.add_argument("--seed", type=int, default=19)
    parser.add_argument("--seconds", type=float, default=10.0, help="time measured per run")
    parser.add_argument(
        "--trace",
        nargs="?",
        type=int,
        const=1,
        default=0,
        choices=(0, 1),
        help="1: report the per-layer metrics from a traced run (with --all: both passes)",
    )
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, two rounds (tests)")
    parser.add_argument("--out", type=Path, default=None, help="directory for traces and results")
    return parser


def _run_one(args: argparse.Namespace) -> int:
    from benchmarks.titant_bench.runner import run_workload

    result = run_workload(
        args.workload,
        seed=args.seed,
        seconds=args.seconds,
        trace=bool(args.trace),
        smoke=args.smoke,
        out_dir=args.out,
    )
    for line in result.lines():
        print(line)
    print(json.dumps(result.contract_json()))
    return 0


def _run_all(args: argparse.Namespace) -> int:
    from benchmarks.titant_bench.inputs import WORKLOADS
    from benchmarks.titant_bench.runner import OUT_DIR

    out_dir: Path = args.out or OUT_DIR
    out_dir.mkdir(parents=True, exist_ok=True)
    results: Dict[str, Dict[str, object]] = {}
    exit_code = 0
    for workload in WORKLOADS:
        merged: Dict[str, object] = {"metrics": {}, "correct": True}
        for trace in (0, 1) if args.trace else (0,):
            command: List[str] = [
                sys.executable, "-m", "benchmarks.titant_bench",
                "--workload", workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(trace),
                "--out", str(out_dir),
            ]  # fmt: skip
            if args.smoke:
                command.append("--smoke")
            completed = subprocess.run(
                command, cwd=REPO_ROOT, capture_output=True, text=True, check=False
            )
            lines = completed.stdout.strip().splitlines()
            if completed.returncode != 0 or not lines:
                sys.stderr.write(completed.stderr)
                print(f"{workload}: run failed with exit code {completed.returncode}")
                exit_code = 1
                merged["correct"] = False
                continue
            print("\n".join(lines[:-1]))
            report = json.loads(lines[-1])
            merged["metrics"].update(report["metrics"])
            merged["correct"] = merged["correct"] and report["correct"]
            merged["checksum"] = lines[0].split("checksum=")[1].split()[0]
            merged.setdefault("attempted", report["attempted"])
            merged.setdefault("failed", report["failed"])
            if not report["correct"]:
                exit_code = 1
        results[workload] = merged
    payload = {"seed": args.seed, "seconds": args.seconds, "claim": None, "workloads": results}
    (out_dir / "results.json").write_text(json.dumps(payload, indent=2) + "\n")
    print(f"results written to {out_dir / 'results.json'}")
    return exit_code


def main(argv: Optional[List[str]] = None) -> int:
    args = _parser().parse_args(argv)
    _bootstrap_path()
    return _run_all(args) if args.all else _run_one(args)


if __name__ == "__main__":
    sys.exit(main())
