"""The default backend: the PR-1 plan-caching, workspace-pooling engine.

Wraps the process-wide :class:`~repro.engine.engine.ExecutionEngine`
behind the :class:`~repro.backends.base.Backend` protocol.  ``execute``
hands the request straight to :meth:`ExecutionEngine.run
<repro.engine.engine.ExecutionEngine.run>` — the engine's one
entrypoint answers plans from its LRU cache, serves repeat
coefficients (and prepared handles) through the factorization cache,
and runs against pooled workspaces.  ``workers > 1`` requests land
here too: the bound session splits the batch into row shards on the
engine's thread pool, bitwise independent of the shard count.
"""

from __future__ import annotations

from repro.backends.base import BackendBase, Capabilities
from repro.backends.request import SolveOutcome, SolveRequest
from repro.engine import ExecutionEngine, default_engine
from repro.util.pools import executor_cap

__all__ = ["EngineBackend"]


class EngineBackend(BackendBase):
    """Registry adapter over the solve-plan execution engine (default)."""

    name = "engine"
    priority = 100

    def __init__(self, engine: ExecutionEngine | None = None):
        super().__init__()
        self._engine = engine

    @property
    def engine(self) -> ExecutionEngine:
        """The wrapped engine (the process-wide one unless injected)."""
        return self._engine if self._engine is not None else default_engine()

    def capabilities(self) -> Capabilities:
        # memoized: Capabilities is frozen and this sits on every
        # dispatch (and router admissibility) hot path
        caps = getattr(self, "_caps", None)
        if caps is None:
            # max_workers is the accepted limit, not the core count —
            # sharding stays functional (and bitwise-safe) on any
            # machine — but it is a *cap*, proportional to the host:
            # the old max(32, cpus) floor pinned >= 32 threads onto
            # 2-core machines.
            caps = self._caps = Capabilities(
                max_workers=executor_cap(),
                prepared=True,
                systems=("tridiagonal", "pentadiagonal", "block"),
                description=(
                    "plan-caching + workspace-pooling engine — warm solves "
                    "allocate only their result, repeat coefficients hit the "
                    "factorization cache, workers= shards the batch "
                    "(default)"
                ),
            )
        return caps

    def execute(self, request: SolveRequest) -> SolveOutcome:
        outcome = self.engine.run(request)
        self._set_trace(outcome.trace)
        return outcome

    def bind(self, request: SolveRequest):
        """Native session: the engine's bind/execute split.

        Returns a :class:`~repro.engine.session.BoundSolve` — plan,
        factorization, workspaces and shard geometry resolved once,
        allocation-free ``step`` per right-hand side.
        """
        return self.engine.bind(request)
