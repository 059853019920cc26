"""Table 1 — F1 of the eleven detector × feature-set configurations.

Paper shape to reproduce: IF ≪ ID3 < C5.0 < LR < GBDT on basic features;
adding node embeddings (S2V or DW) improves LR and GBDT; DW is at least as
good as S2V; DW+S2V brings no further gain over DW alone.
"""

from __future__ import annotations

from benchmarks.conftest import run_once
from benchmarks.paper.table1 import format_table1, run_table1


def test_table1_configurations(benchmark, bench_runner):
    results = run_once(benchmark, lambda: run_table1(bench_runner))

    print("\nTable 1 — F1 per configuration and day (synthetic world)")
    print(format_table1(results))

    by_label = {r.label: r.mean_f1 for r in results}
    # Headline orderings of the paper (checked on the mean over days).
    assert by_label["Basic Features+IF"] <= min(
        by_label["Basic Features+ID3"],
        by_label["Basic Features+C5.0"],
        by_label["Basic Features+LR"],
        by_label["Basic Features+GBDT"],
    ), "Isolation Forest should be the weakest detector"
    assert by_label["Basic Features+GBDT"] >= by_label["Basic Features+LR"] - 0.05
    # Aggregated (embedding) features help the strongest classifier.
    assert (
        max(by_label["Basic Features+DW+GBDT"], by_label["Basic Features+S2V+GBDT"])
        >= by_label["Basic Features+GBDT"] - 0.02
    ), "adding node embeddings should not hurt GBDT"
