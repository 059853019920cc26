#!/usr/bin/env python
"""Execution probe: list the ``src/repro`` functions that nothing the project runs executes.

The static ``unreached-public`` lint rule asks whether any code *names* a
definition; this probe asks whether any run *executes* it.  It traces four
runs with a profile hook (``sys.setprofile`` and ``threading.setprofile``)
that a generated ``sitecustomize`` module installs at interpreter start-up.
The module's directory is put on ``PYTHONPATH``, so every Python subprocess a
run starts is traced too: the harness's per-workload processes, the lint-CLI
tests' subprocesses and the forked parameter-server shards (a forked process
ends through ``os._exit``, which the hook wraps to record first).

1. tier-1: ``python -m pytest -q``;
2. the reference benchmark's CI smoke: ``python -m benchmarks.titant_bench --all --trace --smoke``;
3. the examples, as CI runs them;
4. the paper-result checks: ``python -m pytest`` over :data:`PAPER_CHECKS`, then
   ``python -m benchmarks.bench_typology_recall``.

Two kinds of process are not traced, and what only they run is reported as
never run: a process killed by a signal it cannot catch (a shard that
``ProcessShardRuntime.kill_shard`` or the runtime's shutdown fallback
SIGKILLs) writes no record, and a subprocess started with an environment of
its own, without the inherited ``PYTHONPATH``, never loads the hook.

After the runs it prints every function or method defined in ``src/repro`` (nested ones
included) whose code ran under none of them.  A stub that cannot run is not
listed: one whose body is only a docstring, ``...`` or ``pass`` and that is
an ``abstractmethod`` or sits in a class with a ``Protocol`` base.

Usage::

    python scripts/executed.py

Exits 1 when a definition other than such a stub never ran or when a run
fails (what a failed run executed still counts toward the listing), and 0
otherwise; CI runs the paper-result checks only here.  Under the hook the
runs take about twice their usual time (about 25 minutes on a 2-vCPU host).
"""

from __future__ import annotations

import ast
import os
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Iterator, List, NamedTuple, Set, Tuple

REPO_ROOT = Path(__file__).resolve().parent.parent
SOURCE = REPO_ROOT / "src" / "repro"

#: The pytest checks of the paper's tables and figures, run with the per-typology
#: recall bench (Figure 10 has its own smoke job); CI runs them only here.
PAPER_CHECKS = (
    "benchmarks/bench_table1_configurations.py",
    "benchmarks/bench_fig8_dataset_slicing.py",
    "benchmarks/bench_fig9_recall_top1.py",
    "benchmarks/bench_fig11_embedding_dim.py",
    "benchmarks/bench_fig12_gbdt_trees.py",
    "benchmarks/bench_table2_node_sampling.py",
)

#: Installed in every traced interpreter: records ``file:first line`` of each code object called.
HOOK = '''\
import atexit
import os
import sys
import threading

_RECORDS = os.environ["EXECUTED_RECORDS"]
_SOURCE = os.environ["EXECUTED_SOURCE"]
_called = set()


def _profile(frame, event, arg, _add=_called.add):
    if event == "call":
        _add(frame.f_code)


def _dump():
    sys.setprofile(None)
    threading.setprofile(None)
    lines = set()
    for code in list(_called):
        path = os.path.realpath(code.co_filename)
        if path.startswith(_SOURCE):
            lines.add(f"{path}:{code.co_firstlineno}")
    with open(os.path.join(_RECORDS, f"{os.getpid()}.txt"), "a") as out:
        out.write("".join(line + "\\n" for line in lines))


def _exit(status, _real_exit=os._exit):
    _dump()
    _real_exit(status)


os._exit = _exit
atexit.register(_dump)
threading.setprofile(_profile)
sys.setprofile(_profile)
'''


class Definition(NamedTuple):
    """One ``def`` in ``src/repro``: where it starts, how long it is, whether it can run."""

    path: Path
    first_line: int  # its first decorator's line, as the code object's co_firstlineno
    qualified: str
    lines: int
    can_run: bool  # False for an abstract or Protocol stub


def definitions() -> Iterator[Definition]:
    """Every function and method of ``src/repro``, nested definitions included."""
    for path in sorted(SOURCE.rglob("*.py")):
        yield from _walk(path, ast.parse(path.read_text()).body, "", protocol=False)


def _walk(
    path: Path, body: List[ast.stmt], prefix: str, *, protocol: bool
) -> Iterator[Definition]:
    for node in body:
        if isinstance(node, ast.ClassDef):
            is_protocol = any(_name(base) == "Protocol" for base in node.bases)
            yield from _walk(path, node.body, f"{prefix}{node.name}.", protocol=is_protocol)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            first = min([node.lineno, *(d.lineno for d in node.decorator_list)])
            qualified = prefix + node.name
            abstract = any(_name(d) == "abstractmethod" for d in node.decorator_list)
            can_run = not (_is_stub(node) and (abstract or protocol))
            yield Definition(path, first, qualified, node.end_lineno - first + 1, can_run)
            yield from _walk(path, node.body, f"{qualified}.", protocol=False)
        else:
            for field in ("body", "orelse", "finalbody", "handlers"):
                yield from _walk(path, getattr(node, field, []), prefix, protocol=protocol)


def _name(node: ast.expr) -> str:
    """The last name of ``Name`` or ``a.b.Name``; empty for any other expression."""
    if isinstance(node, ast.Attribute):
        return node.attr
    return node.id if isinstance(node, ast.Name) else ""


def _is_stub(node: ast.AST) -> bool:
    """Whether a function's body is only a docstring, ``...`` or ``pass``."""
    return all(
        isinstance(statement, ast.Pass)
        or (isinstance(statement, ast.Expr) and isinstance(statement.value, ast.Constant))
        for statement in node.body
    )


def runs(out_dir: Path) -> List[Tuple[str, List[List[str]]]]:
    """``(name, commands)`` of the four traced runs."""
    python = sys.executable
    return [
        ("tier-1", [[python, "-m", "pytest", "-q", "-p", "no:cacheprovider"]]),
        (
            "titant_bench smoke",
            [
                [python, "-m", "benchmarks.titant_bench", "--all", "--trace", "--smoke"]
                + ["--out", str(out_dir)]
            ],
        ),
        (
            "examples",
            [
                [python, "examples/quickstart.py"],
                [python, "examples/online_serving.py"],
                [python, "-m", "examples.fraud_ring_analysis"],
            ],
        ),
        (
            "paper results",
            [
                [python, "-m", "pytest", "-q", "-p", "no:cacheprovider", *PAPER_CHECKS],
                [python, "-m", "benchmarks.bench_typology_recall"],
            ],
        ),
    ]


def executed(records: Path) -> Set[Tuple[Path, int]]:
    """``(file, first line)`` of every ``src/repro`` code object any traced process called."""
    seen: Set[Tuple[Path, int]] = set()
    for record in records.glob("*.txt"):
        for line in record.read_text().splitlines():
            path, first_line = line.rsplit(":", 1)
            seen.add((Path(path), int(first_line)))
    return seen


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="executed-") as scratch:
        hook_dir, records, out_dir = (Path(scratch) / name for name in ("hook", "records", "out"))
        for directory in (hook_dir, records, out_dir):
            directory.mkdir()
        (hook_dir / "sitecustomize.py").write_text(HOOK)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(hook_dir), str(REPO_ROOT / "src"), *filter(None, [env.get("PYTHONPATH")])]
        )
        env["EXECUTED_RECORDS"] = str(records)
        env["EXECUTED_SOURCE"] = os.path.realpath(SOURCE)
        failed: List[str] = []
        for name, commands in runs(out_dir):
            for command in commands:
                print(f"== {name}: {' '.join(command[1:])}", flush=True)
                completed = subprocess.run(command, cwd=REPO_ROOT, env=env, check=False)
                if completed.returncode != 0:
                    failed.append(f"{' '.join(command[1:])} (exit {completed.returncode})")
        seen = executed(records)

    every = [d for d in definitions() if d.can_run]
    unexecuted = [d for d in every if (d.path.resolve(), d.first_line) not in seen]
    for definition in unexecuted:
        print(
            f"{definition.path.relative_to(REPO_ROOT)}:{definition.first_line}: "
            f"{definition.qualified} never ran ({definition.lines} lines)"
        )
    for run in failed:
        print(f"failed run: {run}")
    print(
        f"{len(every) - len(unexecuted)} of {len(every)} src/repro definitions that can run "
        f"ran; {len(unexecuted)} never did ({sum(d.lines for d in unexecuted)} lines); "
        f"{len(failed)} failed runs"
    )
    return 1 if unexecuted or failed else 0


if __name__ == "__main__":
    sys.exit(main())
