"""Table 2 — F1 versus the DeepWalk number of node samplings.

The paper varies the number of walks started per node (25/50/100/200) and
finds the performance saturates around 100: more walks barely help but double
the embedding-learning time.  On the reduced synthetic world we sweep a scaled
grid and assert the saturation behaviour: the largest sampling budget does not
meaningfully beat the second largest.
"""

from __future__ import annotations

from benchmarks.conftest import BENCH_SCALE, run_once
from benchmarks.paper.sweeps import node_sampling_sweep

SAMPLING_COUNTS = (25, 50, 100, 200) if BENCH_SCALE == "paper" else (4, 8, 15, 30)


def test_table2_node_sampling_sweep(benchmark, bench_runner):
    def _run():
        return node_sampling_sweep(bench_runner, SAMPLING_COUNTS)

    results = run_once(benchmark, _run)

    print("\nTable 2 — F1 vs number of node samplings (Basic+DW+GBDT)")
    print("  " + "".join(f"{c:>8}" for c in SAMPLING_COUNTS))
    print("  " + "".join(f"{results[c]:>8.2%}" for c in SAMPLING_COUNTS))

    assert set(results) == set(SAMPLING_COUNTS)
    assert all(0.0 <= value <= 1.0 for value in results.values())
    # Saturation: doubling the sampling budget beyond the second-largest value
    # should not be required to stay within a few points of the best F1.
    best = max(results.values())
    assert results[SAMPLING_COUNTS[-2]] >= best - 0.10
