"""Figure 11 — F1 versus the dimension of the learned user node embeddings.

The paper sweeps 8/16/32/64 dimensions for S2V / DW / DW+S2V with GBDT and
finds 32 to be the best: too few dimensions cannot hold the topological
information, too many overfit.  On the synthetic world the exact optimum can
shift by one grid point, so the assertion is only that the middle dimensions
are not dominated by both extremes.
"""

from __future__ import annotations

from benchmarks.conftest import run_once
from benchmarks.paper.sweeps import dimension_sweep
from repro.core.config import FeatureSetName


DIMENSIONS = (8, 16, 32, 64)


def test_fig11_embedding_dimension_sweep(benchmark, bench_runner):
    def _run():
        return dimension_sweep(
            bench_runner,
            DIMENSIONS,
            feature_sets=(FeatureSetName.BASIC_S2V, FeatureSetName.BASIC_DW),
        )

    results = run_once(benchmark, _run)

    print("\nFigure 11 — F1 vs embedding dimension (GBDT classifier)")
    header = "  " + f"{'feature set':<16}" + "".join(f"{d:>8}" for d in DIMENSIONS)
    print(header)
    for feature_set, by_dim in results.items():
        row = "  " + f"{feature_set:<16}" + "".join(f"{by_dim[d]:>8.2%}" for d in DIMENSIONS)
        print(row)

    for by_dim in results.values():
        assert set(by_dim) == set(DIMENSIONS)
        assert all(0.0 <= value <= 1.0 for value in by_dim.values())
        # The mid-range dimensions should be competitive with the extremes.
        assert max(by_dim[16], by_dim[32]) >= min(by_dim[8], by_dim[64]) - 0.05
