"""Figure 9 — recall of the top 1 % most suspicious transactions per detector.

Paper shape: IF is far below the rest (outliers are usually not fraud),
rule-based ID3/C5.0 land in the middle, LR and GBDT are best with GBDT
slightly ahead.
"""

from __future__ import annotations

from benchmarks.conftest import run_once
from benchmarks.paper.table1 import run_recall_at_top


def test_fig9_recall_at_top_1_percent(benchmark, bench_runner):
    results = run_once(benchmark, lambda: run_recall_at_top(bench_runner))

    print("\nFigure 9 — rec@top 1% per detection method (synthetic world)")
    for name in ("if", "id3", "c50", "lr", "gbdt"):
        print(f"  {name.upper():>5}: {results[name]:.2%}")

    assert set(results) == {"if", "id3", "c50", "lr", "gbdt"}
    assert all(0.0 <= value <= 1.0 for value in results.values())
    # IF should not beat the best classifier on ranking the most suspicious cases.
    assert results["if"] <= max(results["gbdt"], results["lr"]) + 1e-9
