"""Thread-pool sizing shared by every executor in the repo.

Historically the engine-family backends advertised (and the engine
materialized) pools of ``max(32, os.cpu_count())`` threads —
i.e. *at least* 32 threads even on a 2-core machine, where 32 waiters
fighting over 2 cores only add scheduler pressure and memory.  The
intended semantics was a *cap*: generous enough that sharded solves
never starve, proportional to the machine, and never above 32.
"""

from __future__ import annotations

import os

__all__ = ["EXECUTOR_HARD_CAP", "EXECUTOR_PER_CPU", "executor_cap"]

#: Absolute ceiling on any engine/backend thread pool.
EXECUTOR_HARD_CAP = 32

#: Threads allowed per CPU before the cap kicks in — batch shards are
#: numpy-heavy (GIL-releasing), so modest oversubscription still helps
#: hide stage imbalance between shards.
EXECUTOR_PER_CPU = 4


def executor_cap(cpu_count: int | None = None) -> int:
    """Largest thread-pool size worth creating on this machine.

    ``min(32, 4 * cpus)``, floored at 2 so multi-worker negotiation
    (``Capabilities.max_workers > 1``) stays alive even on single-core
    hosts — two threads there cost nothing and keep the sharded code
    paths exercised.
    """
    cpus = cpu_count if cpu_count is not None else (os.cpu_count() or 1)
    return min(EXECUTOR_HARD_CAP, max(2, EXECUTOR_PER_CPU * cpus))
