"""Per-solve instrumentation: :class:`SolveTrace` and the trace store.

Every solve that routes through the backend registry leaves behind one
:class:`SolveTrace` — which backend ran, the frozen transition ``k``,
whether the plan came out of a cache, and per-stage wall time (with the
gpusim backend's *predicted* device time side by side where one
exists).  The most recent trace is queryable process-wide via
:func:`repro.last_trace`; the CLI's ``--trace`` flag prints it.

Traces are stored per thread so concurrent solves (e.g. on a service
dispatch thread, or a user's own thread pool) never see each other's
instrumentation.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

__all__ = [
    "RouteDecision",
    "StageTiming",
    "SolveTrace",
    "last_trace",
    "record_trace",
    "clear_last_trace",
]


@dataclass
class StageTiming:
    """One pipeline stage: measured wall time, optionally a predicted one.

    ``predicted_us`` is filled by the gpusim backend only: the analytic
    device-model time for the same stage, so measured NumPy time and
    simulated GTX480 time sit side by side in one report.
    """

    name: str
    seconds: float
    predicted_us: float | None = None


@dataclass
class RouteDecision:
    """Why a solve ran where it ran: the router's provenance record.

    Filled at negotiation time (``BackendRegistry.resolve``) and copied
    onto the resulting :class:`SolveTrace` by ``solve_via`` — so every
    registry-dispatched trace says not just *what* executed but *which
    policy chose it and from what alternatives*.

    Attributes
    ----------
    router:
        The policy that routed: ``"static"`` (the Table-III-shaped
        default :class:`~repro.backends.registry.Router`),
        ``"adaptive"`` (:class:`~repro.autotune.AdaptiveRouter`), or
        ``"explicit"`` (the caller named the backend — no policy ran).
    chosen:
        Registry name of the selected backend.
    candidates:
        Capability-filtered backend names that were considered
        (just the chosen one for explicit dispatch).
    cell:
        The performance-model cell key consulted (``""`` when no model
        was involved).
    model:
        ``"hit"`` (a calibrated route was applied), ``"cold"`` (cell
        had no usable data — static fallback), or ``"n/a"`` (no model).
    explore:
        True when this pick was an epsilon-exploration sample rather
        than the believed-best route.
    route:
        The knobs the policy applied (``{"backend", "k", "ranks",
        "fingerprint"}``); empty when nothing was overridden.
    reason:
        One-line human rationale.
    """

    router: str = "static"
    chosen: str = ""
    candidates: tuple = ()
    cell: str = ""
    model: str = "n/a"
    explore: bool = False
    route: dict = field(default_factory=dict)
    reason: str = ""

    def describe(self) -> dict:
        """Flat summary dict (mirrors :meth:`SolveTrace.describe`)."""
        return {
            "router": self.router,
            "chosen": self.chosen,
            "candidates": list(self.candidates),
            "cell": self.cell,
            "model": self.model,
            "explore": self.explore,
            "route": dict(self.route),
            "reason": self.reason,
        }


@dataclass
class SolveTrace:
    """What one registry-dispatched solve actually did.

    Attributes
    ----------
    backend:
        Registry name of the backend that executed (``"engine"``,
        ``"numpy"``, ``"gpusim"``, ``"distributed"``, an adapter label
        such as ``"prepared"``, or ``"direct:<algorithm>"`` for the
        classic non-hybrid paths).
    m, n, dtype:
        Batch signature the solve ran under.
    k, k_source:
        The frozen transition decision and where it came from
        (``"fixed"`` / ``"analytic"`` / ``"heuristic"``).  For
        ``ranks > 1`` ``k`` names the route knob, always ``0`` with
        ``"fixed"``: each slab interior picks its own ``k`` from
        :data:`~repro.distributed.partition.SLAB_HEURISTIC` (see the
        session's ``describe()``), and routes are recorded and learned
        on this ``k``.
    fuse, n_windows:
        Remaining plan knobs.
    ranks:
        N-axis partition count the solve ran under (1 = not
        distributed; ``> 1`` only for the distributed tier and the
        gpusim simulated-distributed route).
    plan_cache:
        ``"hit"`` / ``"miss"`` for plan-caching backends, ``"n/a"``
        otherwise.
    factorization:
        What the coefficient-fingerprint cache did: ``"hit"`` (stored
        factorization served the solve), ``"factored"`` (built this
        call), ``"miss"`` (first sighting, solved unprepared),
        ``"handle"`` (explicit :class:`~repro.engine.prepared.PreparedPlan`),
        ``"off"`` (fingerprinting disabled), or ``"n/a"`` (backend or
        plan not eligible).
    rhs_only:
        True when the solve skipped elimination entirely and ran the
        stored factorization's RHS-only sweep.
    periodic:
        True when the trace describes a *cyclic* (Sherman–Morrison)
        solve — the whole correction pipeline, not the inner q-solve.
    system:
        The system kind the solve carried (``"tridiagonal"`` /
        ``"pentadiagonal"`` / ``"block"``) — one vocabulary across
        every stencil the spine dispatches.
    decision:
        The :class:`RouteDecision` negotiation provenance (``None`` for
        solves that bypassed the registry: direct algorithm paths,
        engine-direct adapters, prepared handles).
    stages:
        Per-stage :class:`StageTiming` in execution order.
    predicted_total_us:
        The gpusim backend's total device-model prediction (``None``
        for purely measured backends).
    """

    backend: str
    m: int = 0
    n: int = 0
    dtype: str = "float64"
    k: int = 0
    k_source: str = "heuristic"
    fuse: bool = False
    n_windows: int = 1
    ranks: int = 1
    plan_cache: str = "n/a"
    factorization: str = "n/a"
    rhs_only: bool = False
    periodic: bool = False
    system: str = "tridiagonal"
    decision: RouteDecision | None = None
    stages: list = field(default_factory=list)
    predicted_total_us: float | None = None

    @property
    def total_s(self) -> float:
        """Measured wall time summed over the recorded stages."""
        return sum(s.seconds for s in self.stages)

    def stage(self, name_fragment: str) -> StageTiming:
        """Look up a stage by name fragment."""
        for s in self.stages:
            if name_fragment in s.name:
                return s
        raise KeyError(f"no stage matching {name_fragment!r}")

    def describe(self) -> dict:
        """Flat summary dict (used by reports and the CLI)."""
        return {
            "backend": self.backend,
            "m": self.m,
            "n": self.n,
            "dtype": self.dtype,
            "k": self.k,
            "k_source": self.k_source,
            "fuse": self.fuse,
            "n_windows": self.n_windows,
            "ranks": self.ranks,
            "plan_cache": self.plan_cache,
            "factorization": self.factorization,
            "rhs_only": self.rhs_only,
            "periodic": self.periodic,
            "system": self.system,
            "decision": (
                self.decision.describe() if self.decision is not None else None
            ),
            "total_ms": self.total_s * 1e3,
            "predicted_total_us": self.predicted_total_us,
            "stages": [
                {
                    "name": s.name,
                    "ms": s.seconds * 1e3,
                    "predicted_us": s.predicted_us,
                }
                for s in self.stages
            ],
        }


_local = threading.local()


def record_trace(trace: SolveTrace) -> SolveTrace:
    """Store ``trace`` as this thread's most recent solve trace."""
    _local.trace = trace
    return trace


def last_trace() -> SolveTrace | None:
    """The most recent :class:`SolveTrace` on this thread (or ``None``)."""
    return getattr(_local, "trace", None)


def clear_last_trace() -> None:
    """Forget this thread's recorded trace (mainly for tests)."""
    _local.trace = None
