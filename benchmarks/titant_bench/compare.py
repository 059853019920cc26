"""Compare two ``results.json`` sets against the bounds in ``BENCHMARK.json``.

``python -m benchmarks.titant_bench.compare A.json B.json`` prints one row
per workload × end-to-end metric with both values and the ratio B/A (base A),
applying each metric's direction and bound.  A pair is *unresolved* when
either set's own ``e2e.round_spread`` exceeds the bound — the run did not
confirm its best round well enough to resolve a difference that small.
Exits non-zero when any resolved pair differs by more than its bound, in
either direction: two sets of the same code must agree.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict, List, Optional, Tuple

BENCHMARK_JSON = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def worsening(a: float, b: float, better: str) -> float:
    """How much worse B is than A, as a share of A (negative: B is better)."""
    return (b - a) / a if better == "lower" else (a - b) / a


def verdict(a: float, b: float, better: str, bound: float, spread: Optional[float]) -> str:
    if spread is not None and spread > bound:
        return "unresolved"
    change = worsening(a, b, better)
    if change > bound:
        return "B worse"
    if change < -bound:
        return "B better"
    return "agree"


def compare(a: Dict[str, object], b: Dict[str, object], contract: Dict[str, object]) -> Tuple[List[str], int, int]:
    """Rows to print, the number of disagreements and of unresolved pairs."""
    rows: List[str] = []
    disagreements = unresolved = 0
    for workload in (entry["name"] for entry in contract["workloads"]):
        run_a, run_b = a["workloads"][workload], b["workloads"][workload]
        spreads = [
            run["metrics"]["e2e.round_spread"]["value"]
            for run in (run_a, run_b)
            if "e2e.round_spread" in run["metrics"]
        ]
        spread = max(spreads) if spreads else None
        for metric in contract["end_to_end"]:
            name, better, bound = metric["name"], metric["better"], metric["bound"]
            value_a = run_a["metrics"][name]["value"]
            value_b = run_b["metrics"][name]["value"]
            # Set-up time and memory are not round estimates; spread does not apply.
            gated = name not in ("setup_s", "peak_rss_mb")
            outcome = verdict(value_a, value_b, better, bound, spread if gated else None)
            disagreements += outcome in ("B worse", "B better")
            unresolved += outcome == "unresolved"
            rows.append(
                f"{workload:<24} {name:<18} A={value_a:<14.6g} B={value_b:<14.6g} "
                f"B/A={value_b / value_a:.4f} (base A) {better}-is-better "
                f"bound={bound:.2f} {outcome}"
            )
        # failed_fraction has an absolute bound of zero on both sets.
        for label, run in (("A", run_a), ("B", run_b)):
            if run["failed"] or not run["correct"]:
                disagreements += 1
                rows.append(
                    f"{workload:<24} failed_fraction     {label}: {run['failed']} of "
                    f"{run['attempted']} failed — must be 0"
                )
        if run_a.get("checksum") != run_b.get("checksum") and a.get("seed") == b.get("seed"):
            disagreements += 1
            rows.append(f"{workload:<24} decision checksums differ for the same seed")
    return rows, disagreements, unresolved


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.titant_bench.compare", description=__doc__)
    parser.add_argument("a", type=Path)
    parser.add_argument("b", type=Path)
    args = parser.parse_args(argv)
    contract = json.loads(BENCHMARK_JSON.read_text())
    rows, disagreements, unresolved = compare(
        json.loads(args.a.read_text()), json.loads(args.b.read_text()), contract
    )
    print("\n".join(rows))
    print(f"{disagreements} disagreement(s), {unresolved} unresolved pair(s)")
    return 1 if disagreements else 0


if __name__ == "__main__":
    sys.exit(main())
