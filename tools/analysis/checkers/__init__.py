"""The seven repo-specific invariant rules.

Importing this package registers every bundled checker with the framework
registry (see :func:`tools.analysis.framework.register`):

* ``rng-discipline`` — all randomness flows through seeded Generators
  handed out by :mod:`repro.rng`,
* ``clock-discipline`` — simulated-clock code never reads the wall clock,
* ``shm-lifecycle`` — every shared-memory allocation has a reachable
  release,
* ``layering`` — the import DAG between subsystems holds,
* ``iteration-order`` — no hash-order-dependent iteration feeds
  deterministic output,
* ``duplicate-definition`` — a function body or a module constant has one
  defining site,
* ``unreached-public`` — every public definition of ``src/repro`` is
  mentioned by another part of ``src/repro`` or by an example.
"""

from tools.analysis.checkers import clock  # noqa: F401
from tools.analysis.checkers import duplicates  # noqa: F401
from tools.analysis.checkers import iteration  # noqa: F401
from tools.analysis.checkers import layering  # noqa: F401
from tools.analysis.checkers import rng  # noqa: F401
from tools.analysis.checkers import shm  # noqa: F401
from tools.analysis.checkers import unreached  # noqa: F401
