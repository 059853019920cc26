"""Tests of the invariant linter (tools/analysis + scripts/lint_repo.py)
and of the doc / workflow reference checker (scripts/check_docs.py).

Each rule gets known-bad and known-good fixture snippets; the
JSON reporter's schema is pinned; the layering checker's import graph is
inspected directly; and the CLI is exercised end to end — including the
acceptance requirement that a violation of any invariant class exits non-zero
with ``rule id`` + ``file:line`` in the output.
"""

from __future__ import annotations

import importlib.util
import json
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from tools.analysis import (
    Finding,
    all_rule_ids,
    default_checkers,
    render_json,
    run_analysis,
)
from tools.analysis.checkers.layering import LayeringChecker
from tools.analysis.checkers.unreached import ENTRY_POINTS

REPO_ROOT = Path(__file__).resolve().parent.parent


def analyze(tmp_path: Path, files: dict, *, rules=None, checkers=None):
    """Write ``{relpath: source}`` under ``tmp/src`` and run the linter."""
    src = tmp_path / "src"
    for rel, source in files.items():
        path = src / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source))
    return run_analysis(
        src,
        repo_root=tmp_path,
        src_root=src,
        checkers=checkers if checkers is not None else default_checkers(rules),
    )


def rules_of(report):
    return sorted({f.rule for f in report.findings})


# ---------------------------------------------------------------------------
# Rule 1: rng-discipline
# ---------------------------------------------------------------------------


class TestRngDiscipline:
    def test_flags_global_state_numpy_calls(self, tmp_path):
        report = analyze(
            tmp_path,
            {
                "repro/models/bad.py": """
                import numpy as np
                x = np.random.rand(3)
                np.random.seed(4)
                """
            },
            rules=["rng-discipline"],
        )
        assert len(report.findings) == 2
        assert all(f.rule == "rng-discipline" for f in report.findings)
        assert report.findings[0].line == 3

    def test_flags_unseeded_and_stray_default_rng(self, tmp_path):
        report = analyze(
            tmp_path,
            {
                "repro/models/bad.py": """
                import numpy as np
                from numpy.random import default_rng
                a = np.random.default_rng()
                b = default_rng(7)
                """
            },
            rules=["rng-discipline"],
        )
        messages = [f.message for f in sorted(report.findings)]
        assert len(messages) == 2
        assert "unseeded" in messages[0]
        assert "ensure_rng" in messages[1]

    def test_flags_stdlib_random_import(self, tmp_path):
        report = analyze(
            tmp_path,
            {"repro/datagen/bad.py": "import random\nrandom.shuffle([1, 2])\n"},
            rules=["rng-discipline"],
        )
        assert any("stdlib random" in f.message for f in report.findings)

    def test_repro_rng_module_is_exempt(self, tmp_path):
        report = analyze(
            tmp_path,
            {
                "repro/rng.py": """
                import numpy as np
                def ensure_rng(seed=None):
                    return np.random.default_rng(seed)
                """
            },
            rules=["rng-discipline"],
        )
        assert report.findings == []

    def test_seeded_generator_usage_is_clean(self, tmp_path):
        report = analyze(
            tmp_path,
            {
                "repro/models/good.py": """
                from repro.rng import ensure_rng
                def draw(seed):
                    rng = ensure_rng(seed)
                    return rng.normal(size=4)
                """
            },
            rules=["rng-discipline"],
        )
        assert report.findings == []


# ---------------------------------------------------------------------------
# Rule 2: clock-discipline
# ---------------------------------------------------------------------------


class TestClockDiscipline:
    def test_flags_wall_clock_reads_and_sleeps(self, tmp_path):
        report = analyze(
            tmp_path,
            {
                "repro/serving/bad.py": """
                import time
                from datetime import datetime
                def handle(request):
                    start = time.time()
                    time.sleep(0.1)
                    stamp = datetime.now()
                    return start, stamp
                """
            },
            rules=["clock-discipline"],
        )
        assert len(report.findings) == 3
        assert {f.line for f in report.findings} == {5, 6, 7}

    def test_wall_clock_allowlist_modules_are_exempt(self, tmp_path):
        report = analyze(
            tmp_path,
            {
                "repro/serving/async_server.py": "import time\nnow = time.monotonic()\n",
                "repro/logging_utils.py": "import time\nstart = time.perf_counter()\n",
            },
            rules=["clock-discipline"],
        )
        assert report.findings == []

    def test_explicit_now_argument_is_clean(self, tmp_path):
        report = analyze(
            tmp_path,
            {
                "repro/serving/good.py": """
                def admit(request, *, now_ms: float) -> bool:
                    return now_ms >= 0
                """
            },
            rules=["clock-discipline"],
        )
        assert report.findings == []


# ---------------------------------------------------------------------------
# Rule 3: shm-lifecycle
# ---------------------------------------------------------------------------


class TestShmLifecycle:
    def test_flags_unguarded_allocation(self, tmp_path):
        report = analyze(
            tmp_path,
            {
                "repro/kunpeng/bad.py": """
                from multiprocessing import shared_memory
                def leak(n):
                    segment = shared_memory.SharedMemory(create=True, size=n)
                    return n
                """
            },
            rules=["shm-lifecycle"],
        )
        assert len(report.findings) == 1
        assert report.findings[0].rule == "shm-lifecycle"
        assert report.findings[0].line == 4

    def test_try_finally_and_with_are_guarded(self, tmp_path):
        report = analyze(
            tmp_path,
            {
                "repro/kunpeng/good.py": """
                from multiprocessing import shared_memory
                def scoped(n):
                    segment = shared_memory.SharedMemory(create=True, size=n)
                    try:
                        return segment.size
                    finally:
                        segment.close()
                        segment.unlink()
                def managed(manager, n):
                    with manager:
                        view = manager.allocate("k", (n,))
                    return None
                """
            },
            rules=["shm-lifecycle"],
        )
        assert report.findings == []

    def test_ownership_transfer_by_return_is_guarded(self, tmp_path):
        report = analyze(
            tmp_path,
            {
                "repro/kunpeng/good.py": """
                from multiprocessing import shared_memory
                def attach(name):
                    segment = shared_memory.SharedMemory(name=name)
                    return segment
                """
            },
            rules=["shm-lifecycle"],
        )
        assert report.findings == []

    def test_atexit_registered_cleanup_class_is_guarded(self, tmp_path):
        report = analyze(
            tmp_path,
            {
                "repro/kunpeng/good.py": """
                import atexit
                from multiprocessing import shared_memory
                class Manager:
                    def __init__(self):
                        self._segments = {}
                        atexit.register(self.close)
                    def allocate(self, key, size):
                        segment = shared_memory.SharedMemory(create=True, size=size)
                        self._segments[key] = segment
                        return segment
                    def close(self):
                        for segment in self._segments.values():
                            segment.close()
                            segment.unlink()
                """
            },
            rules=["shm-lifecycle"],
        )
        assert report.findings == []

    def test_class_without_cleanup_is_flagged(self, tmp_path):
        report = analyze(
            tmp_path,
            {
                "repro/kunpeng/bad.py": """
                from multiprocessing import shared_memory
                class Leaky:
                    def __init__(self):
                        self._segments = {}
                    def allocate(self, key, size):
                        self._segments[key] = shared_memory.SharedMemory(
                            create=True, size=size
                        )
                """
            },
            rules=["shm-lifecycle"],
        )
        assert len(report.findings) == 1

    def test_real_parallel_module_is_clean(self):
        report = run_analysis(
            REPO_ROOT / "src" / "repro" / "kunpeng" / "parallel.py",
            repo_root=REPO_ROOT,
            src_root=REPO_ROOT / "src",
            checkers=default_checkers(["shm-lifecycle"]),
        )
        assert report.findings == []


# ---------------------------------------------------------------------------
# Rule 4: layering
# ---------------------------------------------------------------------------


class TestLayering:
    def test_offline_layers_must_not_import_serving(self, tmp_path):
        report = analyze(
            tmp_path,
            {
                "repro/datagen/bad.py": "from repro.serving.router import ServingRouter\n",
                "repro/features/bad.py": "import repro.serving.coalescer\n",
            },
            rules=["layering"],
        )
        assert len(report.findings) == 2
        assert all("must not import 'repro.serving'" in f.message for f in report.findings)

    def test_serving_must_not_import_maxcompute(self, tmp_path):
        report = analyze(
            tmp_path,
            {"repro/serving/bad.py": "from repro.maxcompute.client import MaxComputeClient\n"},
            rules=["layering"],
        )
        assert len(report.findings) == 1
        assert "'repro.maxcompute'" in report.findings[0].message

    def test_the_store_must_not_import_its_decoders(self, tmp_path):
        report = analyze(
            tmp_path,
            {
                "repro/hbase/bad.py": "from repro.features.basic import profile_cells\n"
                "import repro.serving.feature_source\n"
            },
            rules=["layering"],
        )
        assert sorted(f.message.split("'")[3] for f in report.findings) == [
            "repro.features",
            "repro.serving",
        ]

    def test_relative_imports_are_resolved(self, tmp_path):
        report = analyze(
            tmp_path,
            {
                "repro/__init__.py": "",
                "repro/features/__init__.py": "",
                "repro/features/bad.py": "from ..serving import router\n",
            },
            rules=["layering"],
        )
        assert len(report.findings) == 1
        assert report.findings[0].path == "src/repro/features/bad.py"

    def test_nothing_imports_benchmarks_or_tests(self, tmp_path):
        report = analyze(
            tmp_path,
            {"repro/core/bad.py": "import benchmarks.bench_fig10_scalability\nimport tests.conftest\n"},
            rules=["layering"],
        )
        assert len(report.findings) == 2

    def test_nothing_imports_the_tooling_tree(self, tmp_path):
        """The linter lives in ``tools/``, beside the system, not in it."""
        report = analyze(
            tmp_path,
            {"repro/core/bad.py": "from tools.analysis import run_analysis\n"},
            rules=["layering"],
        )
        assert len(report.findings) == 1
        assert "must not import 'tools'" in report.findings[0].message

    def test_allowed_direction_is_clean(self, tmp_path):
        report = analyze(
            tmp_path,
            {
                "repro/serving/good.py": "from repro.features.plan import FeaturePlan\n",
                "repro/core/good.py": "from repro.maxcompute.client import MaxComputeClient\n",
            },
            rules=["layering"],
        )
        assert report.findings == []

    def test_import_graph_construction(self, tmp_path):
        checker = LayeringChecker()
        analyze(
            tmp_path,
            {
                "repro/features/__init__.py": "",
                "repro/features/plan.py": "from repro.rng import ensure_rng\nimport numpy as np\n",
                "repro/features/other.py": "from .plan import thing\n",
            },
            checkers=[checker],
        )
        assert checker.graph["repro.features.plan"] == {"repro.rng", "numpy"}
        assert checker.graph["repro.features.other"] == {"repro.features.plan"}

    def test_real_tree_has_no_layering_violations(self):
        report = run_analysis(
            REPO_ROOT / "src" / "repro",
            repo_root=REPO_ROOT,
            src_root=REPO_ROOT / "src",
            checkers=default_checkers(["layering"]),
        )
        assert report.findings == []


# ---------------------------------------------------------------------------
# Rule 5: iteration-order
# ---------------------------------------------------------------------------


class TestIterationOrder:
    def test_flags_iteration_over_set_expressions(self, tmp_path):
        report = analyze(
            tmp_path,
            {
                "repro/datagen/bad.py": """
                def emit(accounts):
                    out = []
                    for account in set(accounts):
                        out.append(account)
                    doubled = [a for a in {1, 2, 3}]
                    return out, doubled
                """
            },
            rules=["iteration-order"],
        )
        assert len(report.findings) == 2
        assert all("PYTHONHASHSEED" in f.message for f in report.findings)

    def test_flags_set_bound_names_and_dict_view_algebra(self, tmp_path):
        report = analyze(
            tmp_path,
            {
                "repro/serving/bad.py": """
                def sweep(published, rows):
                    stale = published - rows.keys()
                    for user_id in stale:
                        yield user_id
                    keep = {n for n in rows if n}
                    yield [n for n in keep]
                    yield [key for key in rows.keys() | published]
                    ordered = [n for n in rows]
                    for user_id in ordered:
                        yield user_id
                """
            },
            rules=["iteration-order"],
        )
        assert [f.line for f in report.findings] == [4, 7, 8]

    def test_flags_unsorted_listdir(self, tmp_path):
        report = analyze(
            tmp_path,
            {
                "repro/datagen/bad.py": """
                import os
                def shards(path):
                    return [os.path.join(path, name) for name in os.listdir(path)]
                """
            },
            rules=["iteration-order"],
        )
        assert len(report.findings) == 1
        assert "os.listdir" in report.findings[0].message

    def test_sorted_wrappers_are_clean(self, tmp_path):
        report = analyze(
            tmp_path,
            {
                "repro/datagen/good.py": """
                import os
                def emit(accounts, path):
                    for account in sorted(set(accounts)):
                        yield account
                    for name in sorted(os.listdir(path)):
                        yield name
                    count = len(os.listdir(path))
                    yield count
                """
            },
            rules=["iteration-order"],
        )
        assert report.findings == []

    def test_ignore_comment_suppresses_line(self, tmp_path):
        report = analyze(
            tmp_path,
            {
                "repro/datagen/ok.py": """
                def emit(accounts):
                    for account in set(accounts):  # repro-lint: ignore[iteration-order]
                        yield account
                """
            },
            rules=["iteration-order"],
        )
        assert report.findings == []

    def test_ignore_comment_is_rule_specific(self, tmp_path):
        report = analyze(
            tmp_path,
            {
                "repro/datagen/bad.py": """
                def emit(accounts):
                    for account in set(accounts):  # repro-lint: ignore[clock-discipline]
                        yield account
                """
            },
            rules=["iteration-order"],
        )
        assert len(report.findings) == 1


# ---------------------------------------------------------------------------
# Rule 6: duplicate-definition
# ---------------------------------------------------------------------------


class TestDuplicateDefinition:
    def test_flags_a_copied_body_and_a_respelled_constant(self, tmp_path):
        report = analyze(
            tmp_path,
            {
                "repro/models/gbdt.py": """
                SECONDS_PER_DAY = 86_400
                def sample_weights(labels):
                    \"\"\"The owner.\"\"\"
                    positives = labels.sum()
                    negatives = len(labels) - positives
                    return negatives / positives
                """,
                # the same statements under another docstring; an equal constant
                "repro/models/lr.py": """
                SECONDS_PER_DAY = 24 * 3600
                class LR:
                    def _sample_weights(labels):
                        \"\"\"Reworded, still a copy.\"\"\"
                        positives = labels.sum()
                        negatives = len(labels) - positives
                        return negatives / positives
                """,
            },
            rules=["duplicate-definition"],
        )
        assert [(f.path, f.line) for f in report.findings] == [
            ("src/repro/models/lr.py", 2),
            ("src/repro/models/lr.py", 4),
        ]
        constant, body = report.findings
        assert "SECONDS_PER_DAY" in constant.message
        assert "_sample_weights()" in body.message
        assert "src/repro/models/gbdt.py:3" in body.message  # names the owner

    def test_short_bodies_imports_and_accepted_lines_are_clean(self, tmp_path):
        report = analyze(
            tmp_path,
            {
                "repro/a.py": """
                LIMIT = 3
                ALLOWED = {"repro.a"}
                def close(self):
                    self.cluster.close()
                """,
                "repro/b.py": """
                from repro.a import LIMIT
                ALLOWED = {"repro.b"}  # repro-lint: ignore[duplicate-definition] another list
                def close(self):
                    self.cluster.close()
                """,
            },
            rules=["duplicate-definition"],
        )
        assert report.findings == []


# ---------------------------------------------------------------------------
# Rule 7: unreached-public
# ---------------------------------------------------------------------------


class TestUnreachedPublic:
    def test_flags_a_planted_unreached_function(self, tmp_path):
        report = analyze(
            tmp_path,
            {
                "repro/serving/a.py": """
                class Widget:
                    def spin(self):
                        return _helper()

                    def wobble(self):
                        return 1

                def _helper():
                    return 2

                def orphan():
                    \"\"\"Nothing calls this.\"\"\"
                """,
                "repro/serving/b.py": """
                from repro.serving.a import Widget
                def serve(widget: Widget):
                    return widget.spin()
                """,
            },
            rules=["unreached-public"],
        )
        assert [(f.path, f.line) for f in report.findings] == [
            ("src/repro/serving/a.py", 6),
            ("src/repro/serving/a.py", 12),
            ("src/repro/serving/b.py", 3),
        ]
        assert [f.message.split()[0] for f in report.findings] == [
            "Widget.wobble", "orphan", "serve"
        ]

    def test_an_allow_listed_entry_point_is_not_flagged(self, tmp_path):
        report = analyze(
            tmp_path,
            {
                "repro/hbase/client.py": """
                class HBaseClient:
                    def wal(self):
                        return 1

                    def replay_into(self):
                        return 1
                """,
                "repro/serving/server.py": """
                from repro.hbase.client import HBaseClient
                CLIENT = HBaseClient()
                """,
            },
            rules=["unreached-public"],
        )
        assert "HBaseClient.wal" in ENTRY_POINTS
        assert [f.message.split()[0] for f in report.findings] == ["HBaseClient.replay_into"]
        assert len(ENTRY_POINTS) <= 20 and all(ENTRY_POINTS.values())

    def test_a_package_re_export_is_not_a_use(self, tmp_path):
        report = analyze(
            tmp_path,
            {
                "repro/graph/__init__.py": """
                \"\"\"The graph layer.\"\"\"
                from repro.graph.metrics import two_hop
                __all__ = ["two_hop"]
                """,
                "repro/graph/metrics.py": "def two_hop(network):\n    return network\n",
            },
            rules=["unreached-public"],
        )
        assert [(f.path, f.line) for f in report.findings] == [("src/repro/graph/metrics.py", 1)]

    def test_a_function_only_a_docstring_or_a_comment_names_is_flagged(self, tmp_path):
        report = analyze(
            tmp_path,
            {
                "repro/graph/metrics.py": "def two_hop(network):\n    return network\n",
                "repro/graph/report.py": """
                \"\"\"Summaries built on :func:`repro.graph.metrics.two_hop`.\"\"\"
                LABEL = "two_hop"  # two_hop names the metric
                """,
            },
            rules=["unreached-public"],
        )
        assert [f.message.split()[0] for f in report.findings] == ["two_hop"]

    def test_a_type_checking_import_or_an_attribute_call_counts_as_reached(self, tmp_path):
        report = analyze(
            tmp_path,
            {
                "repro/serving/a.py": """
                class Engine:
                    def spin(self):
                        return 1

                def build():
                    return Engine()
                """,
                "repro/serving/b.py": """
                from typing import TYPE_CHECKING
                if TYPE_CHECKING:
                    from repro.serving.a import build
                SPIN = [lambda engine: engine.spin()]
                """,
            },
            rules=["unreached-public"],
        )
        assert report.findings == []

    def test_a_keyword_or_a_string_naming_a_function_is_not_a_reference(self, tmp_path):
        report = analyze(
            tmp_path,
            {
                "repro/serving/a.py": "def spin():\n    return 1\n\ndef wobble():\n    return 2\n",
                "repro/serving/b.py": """
                import repro.serving.a as a
                SETTINGS = dict(spin=1)
                WOBBLE = getattr(a, "wobble")
                """,
            },
            rules=["unreached-public"],
        )
        assert [f.message.split()[0] for f in report.findings] == ["spin", "wobble"]

    def test_code_in_a_package_init_is_a_use_though_its_imports_are_not(self, tmp_path):
        report = analyze(
            tmp_path,
            {
                "repro/graph/__init__.py": """
                from repro.graph.metrics import default_metric, two_hop
                DEFAULT = default_metric()
                """,
                "repro/graph/metrics.py": """
                def default_metric():
                    return 1

                def two_hop(network):
                    return network
                """,
            },
            rules=["unreached-public"],
        )
        assert [f.message.split()[0] for f in report.findings] == ["two_hop"]

    def test_a_stale_allow_list_entry_is_flagged(self, monkeypatch):
        # One names no definition; the other names a method src code calls.
        monkeypatch.setitem(ENTRY_POINTS, "NoSuchClass.method", "gone")
        monkeypatch.setitem(ENTRY_POINTS, "HBaseClient.put", "reached")
        report = run_analysis(
            REPO_ROOT / "src" / "repro" / "hbase" / "client.py",
            repo_root=REPO_ROOT,
            src_root=REPO_ROOT / "src",
            checkers=default_checkers(["unreached-public"]),
        )
        assert {f.path for f in report.findings} == {"tools/analysis/checkers/unreached.py"}
        assert sorted(f.message.split()[2] for f in report.findings) == [
            "'HBaseClient.put'", "'NoSuchClass.method'"
        ]

    def test_a_name_used_only_in_examples_is_reached(self, tmp_path):
        files = {"repro/models/rules.py": "def high_risk(rules):\n    return rules\n"}
        assert len(analyze(tmp_path, files, rules=["unreached-public"]).findings) == 1
        (tmp_path / "examples").mkdir()
        (tmp_path / "examples" / "demo.py").write_text("print(high_risk([]))\n")
        assert analyze(tmp_path, files, rules=["unreached-public"]).findings == []


    def test_a_parameter_or_local_of_a_methods_name_does_not_reach_it(self, tmp_path):
        report = analyze(
            tmp_path,
            {
                "repro/features/matrix.py": """
                class Matrix:
                    def with_labels(self):
                        return 1
                """,
                "repro/features/build.py": """
                from repro.features.matrix import Matrix
                def _build(values, with_labels):
                    return Matrix(), with_labels

                def _count():
                    with_labels = 2
                    return with_labels
                """,
            },
            rules=["unreached-public"],
        )
        assert [f.message.split()[0] for f in report.findings] == ["Matrix.with_labels"]

    def test_self_in_an_unrelated_class_does_not_reach_a_method(self, tmp_path):
        report = analyze(
            tmp_path,
            {
                "repro/models/tree.py": """
                class Tree:
                    def describe(self):
                        return 1

                    def size(self):
                        return 1

                class Catalog:
                    def describe(self):
                        return 2

                    def _summary(self):
                        return self.describe()

                class Pruned(Tree):
                    def _count(self):
                        return self.size()
                """,
                "repro/models/use.py": "from repro.models.tree import Catalog, Pruned, Tree\n",
            },
            rules=["unreached-public"],
        )
        # ``self.size()`` in a subclass still reaches the base's method.
        assert [f.message.split()[0] for f in report.findings] == ["Tree.describe"]

    def test_another_classs_attribute_does_not_reach_a_method(self, tmp_path):
        report = analyze(
            tmp_path,
            {
                "repro/hbase/store.py": """
                class Table:
                    def column_families(self):
                        return 1

                class Region:
                    @staticmethod
                    def column_families():
                        return 2

                FAMILIES = (Table, Region.column_families())
                """,
            },
            rules=["unreached-public"],
        )
        assert [f.message.split()[0] for f in report.findings] == ["Table.column_families"]

    def test_harness_code_reaches_a_definition_but_its_tests_do_not(self, tmp_path):
        files = {
            "repro/serving/requests.py": """
            class Request:
                def to_transaction(self):
                    return 1

            REQUEST = Request()
            """
        }
        harness = tmp_path / "benchmarks" / "titant_bench"
        (harness / "tests").mkdir(parents=True)
        (harness / "tests" / "test_requests.py").write_text("TXN = request.to_transaction()\n")
        assert len(analyze(tmp_path, files, rules=["unreached-public"]).findings) == 1
        (harness / "serving.py").write_text("TXN = request.to_transaction()\n")
        assert analyze(tmp_path, files, rules=["unreached-public"]).findings == []


# ---------------------------------------------------------------------------
# Rule 8: unused-import
# ---------------------------------------------------------------------------


class TestUnusedImport:
    def test_flags_names_no_code_reads(self, tmp_path):
        report = analyze(
            tmp_path,
            {
                "repro/serving/a.py": """
                \"\"\"Mentions json and Dict in prose only.\"\"\"
                import json
                import numpy as np
                from typing import TYPE_CHECKING, Dict, List
                if TYPE_CHECKING:
                    from repro.hbase.store import Row
                def rows(values: List[int]) -> int:
                    from collections import OrderedDict
                    label = "Dict"  # a string that is not an annotation
                    return len(values)
                """,
            },
            rules=["unused-import"],
        )
        assert [(f.line, f.message.split()[0]) for f in report.findings] == [
            (3, "'json'"),
            (4, "'np'"),
            (5, "'Dict'"),
            (7, "'Row'"),
            (9, "'OrderedDict'"),
        ]

    def test_reexports_future_imports_and_typing_only_uses_are_clean(self, tmp_path):
        report = analyze(
            tmp_path,
            {
                # A package __init__ re-exports what it imports.
                "repro/serving/__init__.py": """
                from repro.serving.a import serve
                import os
                """,
                "repro/serving/a.py": """
                from __future__ import annotations
                import os.path
                from typing import TYPE_CHECKING, Dict, Optional
                from repro.hbase import *
                from repro.hbase.store import EMPTY_ROW, freeze_row
                if TYPE_CHECKING:
                    from repro.hbase.cache import RowCache
                    from repro.hbase.store import Row
                    from repro.serving.b import Fleet
                    Alias = Fleet
                __all__ = ["serve", "freeze_row"]
                cache: "Optional[RowCache]" = None
                def serve(path: Optional["Dict[str, 'Row']"]) -> "Alias":
                    return os.path.join(path, EMPTY_ROW)
                """,
                "repro/serving/b.py": """
                import json  # repro-lint: ignore[unused-import] loaded for its side effect
                """,
            },
            rules=["unused-import"],
        )
        assert report.findings == []


# ---------------------------------------------------------------------------
# Reporters
# ---------------------------------------------------------------------------


class TestReporters:
    def test_json_schema(self):
        findings = [
            Finding(path="b.py", line=2, rule="layering", message="nope"),
            Finding(path="a.py", line=9, rule="rng-discipline", message="bad draw"),
        ]
        payload = json.loads(render_json(findings, tool="lint"))
        assert set(payload) == {"schema_version", "tool", "counts", "findings"}
        assert payload["schema_version"] == 2
        assert payload["tool"] == "lint"
        assert payload["counts"] == {"findings": 2}
        assert [f["path"] for f in payload["findings"]] == ["a.py", "b.py"]
        assert set(payload["findings"][0]) == {"rule", "path", "line", "message"}

    def test_text_format_has_rule_and_location(self):
        finding = Finding(path="src/x.py", line=12, rule="layering", message="bad edge")
        assert finding.format() == "src/x.py:12: [layering] bad edge"

    def test_finding_dict_round_trip(self):
        finding = Finding(path="src/x.py", line=3, rule="shm-lifecycle", message="leak")
        assert Finding.from_dict(finding.to_dict()) == finding


# ---------------------------------------------------------------------------
# CLI (scripts/lint_repo.py)
# ---------------------------------------------------------------------------

#: One known-bad snippet per invariant class, for the acceptance criterion.
VIOLATIONS = {
    "rng-discipline": "import numpy as np\nx = np.random.rand(3)\n",
    "clock-discipline": "import time\nnow = time.time()\n",
    "shm-lifecycle": (
        "from multiprocessing import shared_memory\n"
        "def leak(n):\n"
        "    segment = shared_memory.SharedMemory(create=True, size=n)\n"
        "    return n\n"
    ),
    "layering": "from repro.serving import router\n",
    "iteration-order": "def f(xs):\n    return [x for x in set(xs)]\n",
    "unreached-public": "def orphan():\n    return 1\n",
    "unused-import": "import os\n",
}

#: Layer whose rules make each snippet a violation.
VIOLATION_DIRS = {
    "rng-discipline": "repro/models",
    "clock-discipline": "repro/serving",
    "shm-lifecycle": "repro/kunpeng",
    "layering": "repro/features",
    "iteration-order": "repro/datagen",
    "unreached-public": "repro/serving",
    "unused-import": "repro/serving",
}


def run_cli(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(REPO_ROOT / "scripts" / "lint_repo.py"), *args],
        capture_output=True,
        text=True,
        cwd=REPO_ROOT,
    )


class TestLintRepoCli:
    def test_merged_tree_is_clean(self):
        result = run_cli()
        assert result.returncode == 0, result.stdout + result.stderr

    @pytest.mark.parametrize("rule", sorted(VIOLATIONS))
    def test_each_invariant_class_fails_with_rule_and_location(self, rule, tmp_path):
        bad = tmp_path / "src" / VIOLATION_DIRS[rule] / "bad.py"
        bad.parent.mkdir(parents=True)
        bad.write_text(VIOLATIONS[rule])
        result = run_cli(str(bad))
        assert result.returncode == 1, result.stdout + result.stderr
        assert f"[{rule}]" in result.stdout
        # file:line anchor present
        assert any(
            line.startswith(bad.as_posix()) and ":" in line
            for line in result.stdout.splitlines()
        ), result.stdout

    def test_a_clean_module_linted_alone_has_no_unreached_public_finding(self):
        # Its callers live in other modules, which the one-file run does not lint.
        result = run_cli("src/repro/hbase/client.py")
        assert result.returncode == 0, result.stdout + result.stderr

    def test_json_output_parses(self):
        result = run_cli("--json")
        assert result.returncode == 0
        payload = json.loads(result.stdout)
        assert payload["schema_version"] == 2

    def test_unknown_rule_errors(self):
        result = run_cli("--rules", "not-a-rule")
        assert result.returncode != 0

    def test_list_rules_names_all_five(self):
        result = run_cli("--list-rules")
        assert result.returncode == 0
        for rule in VIOLATIONS:
            assert rule in result.stdout

    def test_registry_exposes_exactly_the_bundled_rules(self):
        # duplicate-definition needs two modules, so it has no one-file
        # snippet in VIOLATIONS; TestDuplicateDefinition plants its tree.
        assert all_rule_ids() == sorted([*VIOLATIONS, "duplicate-definition"])


# ---------------------------------------------------------------------------
# scripts/check_docs.py: docs, the CI workflow and the verify skill
# ---------------------------------------------------------------------------


def _load_check_docs():
    spec = importlib.util.spec_from_file_location(
        "check_docs", REPO_ROOT / "scripts" / "check_docs.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestCheckDocs:
    def test_every_reference_in_the_repo_resolves(self):
        assert _load_check_docs().main([]) == 0

    def test_workflow_step_naming_a_deleted_file_is_flagged(self):
        check_docs = _load_check_docs()
        workflow = (REPO_ROOT / ".github" / "workflows" / "ci.yml").read_text()
        assert check_docs.check_commands(workflow, "ci.yml") == []
        stale = workflow + (
            "      - run: python scripts/retired_tool.py\n"
            "      - run: PYTHONPATH=src python -m benchmarks.bench_retired --smoke\n"
        )
        findings = check_docs.check_commands(stale, "ci.yml")
        assert [(f.rule, f.line) for f in findings] == [
            ("command-file-ref", stale.count("\n") - 1),
            ("command-module-ref", stale.count("\n")),
        ]
