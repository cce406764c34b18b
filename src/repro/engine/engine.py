"""The solve-plan execution engine: plan once, execute many times.

:class:`ExecutionEngine` is the stateful front door for repeated
batch solves.  It keeps

* an **LRU plan cache** — ``(M, N, dtype, k, fuse)`` signatures map to
  frozen :class:`~repro.engine.plan.SolvePlan` objects, so the
  transition choice (Table III) and the host's window schedule are
  computed once per shape;
* a **workspace pool per plan** — ring buffers, p-Thomas state and
  transpose scratch are checked out for the duration of one execution
  and returned, so warm solves allocate only their result;
* a **factorization cache** keyed on a coefficient fingerprint, so a
  repeated matrix runs the RHS-only sweep.

The engine starts no threads: every solve runs on its caller's thread,
and the paper's parallel axis — the batch's ``M`` (or, above the
transition, ``2^k·M``) independent lanes — is what each NumPy call
vectorizes over.  Callers that share one engine across threads (the
service's dispatch threads) each borrow their own pooled workspace.

The engine's results are bitwise identical to
:class:`~repro.core.hybrid.HybridSolver` for every signature, at any of
the reference's window counts and sub-tile scales; the difference is
purely where the time goes (no re-planning, no buffer churn).  A
module-level :func:`default_engine` instance backs
``repro.solve_batch(..., algorithm="auto")``.
"""

from __future__ import annotations

import os
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from repro.core.hybrid import HybridReport
from repro.engine.plan import SolvePlan, build_plan
from repro.engine.prepared import (
    PreparedPlan,
    build_cyclic_factorization,
    build_factorization,
    coefficient_fingerprint,
)
from repro.engine.workspace import PlanWorkspace, PreparedWorkspace

__all__ = ["EngineStats", "ExecutionEngine", "default_engine"]


@dataclass
class EngineStats:
    """Ledger of what the engine has done since creation / reset."""

    plan_requests: int = 0
    plan_hits: int = 0
    plans_built: int = 0
    plan_evictions: int = 0
    workspaces_built: int = 0
    workspaces_reused: int = 0
    solves: int = 0
    workspace_bytes: int = 0  #: bytes currently held by pooled workspaces
    fingerprint_hits: int = 0  #: coefficient digests answered from cache
    fingerprint_misses: int = 0  #: digests with no cached factorization
    factorizations_built: int = 0
    factorization_evictions: int = 0
    rhs_only_solves: int = 0  #: solves served by a stored factorization
    factorization_bytes: int = 0  #: bytes held by cached factorizations

    @property
    def hit_rate(self) -> float:
        """Fraction of plan requests answered from cache."""
        if self.plan_requests == 0:
            return 0.0
        return self.plan_hits / self.plan_requests


class ExecutionEngine:
    """Plan-caching, workspace-pooling batch solver (see module docs).

    Parameters
    ----------
    max_plans:
        LRU capacity of the plan cache.  Evicting a plan also drops its
        pooled workspaces (in-flight workspaces are unaffected — they
        are simply not returned to a pool that no longer exists).
    pool_size:
        Workspaces retained per plan.  ``1`` suffices for serial use;
        threads solving one plan at once each borrow one, so the
        default covers four in flight without re-allocation.
    cache_dir:
        Optional directory enabling the factorization spill tier: built
        factorizations are written as digest-named ``.npz`` files, and
        a memory-cache miss consults the directory before re-factoring
        (see :mod:`repro.engine.diskcache`).  Engines — and processes —
        sharing one directory share the spilled eliminations.
    disk_cache_bytes:
        Size cap for the spill directory (oldest-modified files are
        evicted past it); default
        :data:`~repro.engine.diskcache.DEFAULT_MAX_BYTES`.
    """

    def __init__(
        self,
        max_plans: int = 32,
        pool_size: int = 4,
        max_factorizations: int = 8,
        cache_dir=None,
        disk_cache_bytes: int | None = None,
    ):
        if max_plans < 1:
            raise ValueError(f"max_plans must be >= 1, got {max_plans}")
        if pool_size < 1:
            raise ValueError(f"pool_size must be >= 1, got {pool_size}")
        if max_factorizations < 1:
            raise ValueError(
                f"max_factorizations must be >= 1, got {max_factorizations}"
            )
        self.max_plans = max_plans
        self.pool_size = pool_size
        self.max_factorizations = max_factorizations
        self.disk_cache = None
        if cache_dir is not None:
            from repro.engine.diskcache import (
                DEFAULT_MAX_BYTES,
                FactorizationDiskCache,
            )

            self.disk_cache = FactorizationDiskCache(
                cache_dir,
                max_bytes=(
                    disk_cache_bytes
                    if disk_cache_bytes is not None
                    else DEFAULT_MAX_BYTES
                ),
            )
        self.stats = EngineStats()
        self.last_report: HybridReport | None = None
        self._lock = threading.Lock()
        self._plans: OrderedDict = OrderedDict()  # signature -> SolvePlan
        # (workspace class, plan signature) -> list of pooled workspaces
        self._pools: dict = {}
        self._facts: OrderedDict = OrderedDict()  # fact key -> factorization
        self._fp_seen: OrderedDict = OrderedDict()  # fact key sighting ledger
        self._fp_seen_cap = 64
        # request-coordinate -> resolved plan memo: skips re-running the
        # transition heuristic + plan construction on warm repeat shapes
        # (the dominant per-call dispatch cost for tiny batches)
        self._plan_memo: OrderedDict = OrderedDict()
        self._plan_memo_cap = 4 * max_plans

    @property
    def router_model_path(self) -> str | None:
        """Where this engine's adaptive-router model persists.

        The autotune :class:`~repro.autotune.PerformanceModel` lives as
        a versioned JSON file next to the factorization spill tier —
        one ``cache_dir`` holds both kinds of cross-process calibration
        state.  ``None`` when the engine has no ``cache_dir``.
        """
        if self.disk_cache is None:
            return None
        return os.path.join(self.disk_cache.directory, "router_model.json")

    # ---- planning --------------------------------------------------------
    def plan_for(
        self,
        m: int,
        n: int,
        dtype,
        *,
        k: int | None = None,
        fuse: bool = False,
        info: dict | None = None,
        system: str = "",
    ) -> SolvePlan:
        """Return the cached plan for this signature, building on miss.

        The cache key is the *resolved* ``k``, so an unset ``k`` and the
        Table III ``k`` it resolves to share an entry.  ``info``, if
        given, receives ``info["cache"] = "hit" | "miss"`` — the
        instrumentation hook the backend layer's traces are built on.

        Warm repeats skip even the transition resolution: a bounded
        memo maps raw request coordinates (``k`` unresolved) to their
        resolved plan, so steady-state dispatch does one dict probe
        instead of re-running ``choose_transition`` + plan
        construction each call.
        """
        memo_key = (m, n, np.dtype(dtype).str, k, bool(fuse), system)
        with self._lock:
            memoized = self._plan_memo.get(memo_key)
            if memoized is not None and memoized.signature() in self._plans:
                self._plans.move_to_end(memoized.signature())
                self._plan_memo.move_to_end(memo_key)
                self.stats.plan_requests += 1
                self.stats.plan_hits += 1
                if info is not None:
                    info["cache"] = "hit"
                return memoized
        plan = build_plan(m, n, dtype, k=k, fuse=fuse, system=system)
        sig = plan.signature()
        with self._lock:
            self.stats.plan_requests += 1
            cached = self._plans.get(sig)
            # memoize the canonical (cached) object so identity checks
            # downstream keep seeing one plan per signature
            self._plan_memo[memo_key] = cached if cached is not None else plan
            self._plan_memo.move_to_end(memo_key)
            while len(self._plan_memo) > self._plan_memo_cap:
                self._plan_memo.popitem(last=False)
            if cached is not None:
                self._plans.move_to_end(sig)
                self.stats.plan_hits += 1
                if info is not None:
                    info["cache"] = "hit"
                return cached
            if info is not None:
                info["cache"] = "miss"
            self._plans[sig] = plan
            self.stats.plans_built += 1
            while len(self._plans) > self.max_plans:
                old_sig, _ = self._plans.popitem(last=False)
                for cls in (PlanWorkspace, PreparedWorkspace):
                    for ws in self._pools.pop((cls, old_sig), ()):
                        self.stats.workspace_bytes -= ws.nbytes
                self.stats.plan_evictions += 1
        return plan

    # ---- workspace pooling -------------------------------------------
    def _checkout(self, plan: SolvePlan, cls=PlanWorkspace):
        """Borrow a pooled ``cls`` workspace (a :class:`PlanWorkspace`
        for the full plan, a :class:`PreparedWorkspace` for RHS-only
        sweeps) for ``plan``; build one when the pool is empty."""
        key = (cls, plan.signature())
        with self._lock:
            pool = self._pools.get(key)
            if pool:
                ws = pool.pop()
                self.stats.workspace_bytes -= ws.nbytes
                self.stats.workspaces_reused += 1
                return ws
        ws = cls(plan)
        with self._lock:
            self.stats.workspaces_built += 1
        return ws

    def _checkin(self, plan: SolvePlan, ws) -> None:
        """Return a borrowed workspace to ``plan``'s pool of its class."""
        sig = plan.signature()
        with self._lock:
            if sig not in self._plans:
                return  # plan evicted while executing; let ws be collected
            pool = self._pools.setdefault((type(ws), sig), [])
            if len(pool) < self.pool_size:
                pool.append(ws)
                self.stats.workspace_bytes += ws.nbytes

    # ---- factorization cache -----------------------------------------
    @staticmethod
    def _fact_key(plan: SolvePlan, digest: str, periodic: bool = False) -> tuple:
        # Factorizations depend only on (m, n, dtype, k) + the system
        # descriptor + content — fuse and the window schedule change
        # scheduling, not elimination math.  The system tag keeps
        # penta/block/tri entries apart even when their (m, n, dtype,
        # k) prefixes agree, and cyclic factorizations carry corner
        # state a plain one lacks, so the periodic flag keys them
        # separately: the same coefficient digest means different
        # matrices under the two conventions.
        return plan.signature()[:4] + (plan.system, periodic, digest)

    def _store_factorization(self, key: tuple, fact, built: bool = True) -> None:
        with self._lock:
            # two threads may build one key; the ledger holds the survivor
            replaced = self._facts.get(key)
            if replaced is not None:
                self.stats.factorization_bytes -= replaced.nbytes
            self._facts[key] = fact
            self._facts.move_to_end(key)
            if built:
                self.stats.factorizations_built += 1
            self.stats.factorization_bytes += fact.nbytes
            while len(self._facts) > self.max_factorizations:
                _, old = self._facts.popitem(last=False)
                self.stats.factorization_bytes -= old.nbytes
                self.stats.factorization_evictions += 1

    def _factorization_for(
        self,
        plan: SolvePlan,
        digest: str,
        a,
        b,
        c,
        *,
        force: bool,
        periodic: bool = False,
        check: bool = True,
        stage_times: list | None = None,
        builder=None,
    ):
        """Look up / build the factorization for fingerprinted inputs.

        Returns ``(factorization | None, state)`` where ``state`` is
        the trace's factorization field: ``"hit"`` (served from
        cache), ``"factored"`` (built now — ``force=True`` handles and
        digests on their second sighting), or ``"miss"`` (first
        sighting under auto mode: recorded in the ledger, solved
        normally — one-shot batches never pay for a factorization).

        ``periodic=True`` builds/looks up a cyclic (Sherman–Morrison)
        factorization instead — same lifecycle, separate cache keyspace.
        ``builder`` overrides the construction step (the banded penta /
        block paths build their own factorization kinds) while keeping
        the LRU / disk-tier / two-sighting lifecycle identical.
        """
        key = self._fact_key(plan, digest, periodic)
        with self._lock:
            fact = self._facts.get(key)
            if fact is not None:
                self._facts.move_to_end(key)
                self.stats.fingerprint_hits += 1
                return fact, "hit"
        if self.disk_cache is not None:
            # spill tier: a sibling engine (or an earlier run sharing
            # the cache dir) may have factored this coefficient set
            fact = self.disk_cache.load(key)
            if fact is not None:
                with self._lock:
                    self.stats.fingerprint_hits += 1
                self._store_factorization(key, fact, built=False)
                return fact, "hit"
        with self._lock:
            self.stats.fingerprint_misses += 1
            if not force:
                seen = key in self._fp_seen
                self._fp_seen[key] = True
                self._fp_seen.move_to_end(key)
                while len(self._fp_seen) > self._fp_seen_cap:
                    self._fp_seen.popitem(last=False)
                if not seen:
                    return None, "miss"
        t0 = time.perf_counter()
        if builder is not None:
            fact = builder()
        elif periodic:
            fact = build_cyclic_factorization(self, plan, a, b, c, check=check)
        else:
            fact = build_factorization(plan, a, b, c)
        if stage_times is not None:
            stage_times.append(("factorize", time.perf_counter() - t0))
        self._store_factorization(key, fact)
        if self.disk_cache is not None:
            try:
                self.disk_cache.store(key, fact)
            except OSError:
                pass  # a full or read-only disk never fails the solve
        return fact, "factored"

    def factorization_for(
        self,
        plan: SolvePlan,
        digest: str,
        a,
        b,
        c,
        *,
        periodic: bool = False,
        check: bool = True,
    ):
        """Fetch-or-build the factorization for a digested coefficient set.

        The public seam over the engine's factorization cache for
        callers that already know their digest (the service tier's
        shared-factorization path).  Always factors on miss
        (``force=True`` semantics — the caller has declared the
        coefficients are worth keeping), consults the memory LRU and
        the disk spill tier in order, and returns ``(factorization,
        state)`` with ``state`` one of ``"hit"`` / ``"factored"``.
        """
        return self._factorization_for(
            plan, digest, a, b, c,
            force=True, periodic=periodic, check=check,
        )

    def prepare(
        self,
        a,
        b,
        c,
        *,
        k: int | None = None,
        fuse: bool = False,
        periodic: bool = False,
        check: bool = True,
    ) -> PreparedPlan:
        """Factor a coefficient set into an explicit solve handle.

        The raw coefficients are validated by
        :meth:`SolveRequest.build
        <repro.backends.request.SolveRequest.build>` like any solve's
        (``check`` selects checking or mere coercion; the dtype is
        kept).  The handle's factorization is also seeded into the
        engine's fingerprint cache, so plain ``solve_batch`` calls with
        the same coefficients hit it too (``k = 0`` plans; see
        :mod:`repro.engine.prepared` for the bitwise rationale).

        ``periodic=True`` prepares the cyclic (Sherman–Morrison)
        pipeline: the stored state is the core ``A'`` factorization plus
        the solved correction vector ``q`` and precomputed
        ``1/(1 + vᵀq)`` scale, and ``handle.solve`` runs one RHS-only
        sweep plus a rank-one update.  The caller supplies cyclic
        diagonals (corners in ``a[:, 0]`` / ``c[:, -1]``) — they are
        *not* zeroed here.  ``check`` governs the singular-correction
        guard (see :func:`repro.core.periodic.correction_scale`).
        """
        from repro.backends.request import SolveRequest

        opts = dict(k=k, fuse=fuse)
        # b stands in for the right-hand side: same shape, same dtype
        request = SolveRequest.build(
            a, b, c, b, periodic=periodic, check=check, **opts
        )
        a, b, c = request.a, request.b, request.c
        plan = self.plan_for(request.m, request.n, b.dtype, **opts)
        digest = coefficient_fingerprint(a, b, c)
        fact, _ = self._factorization_for(
            plan, digest, a, b, c, force=True, periodic=periodic, check=check
        )
        return PreparedPlan(self, plan, fact, digest, periodic=periodic)

    # ---- execution ---------------------------------------------------
    def bind(self, request, *, transient: bool = False):
        """Bind a ``SolveRequest`` into a reusable :class:`BoundSolve`.

        The bind phase runs once: plan resolution, the
        fingerprint/factorization lifecycle, workspace binding, and the
        trace template.  The returned session's
        :meth:`~repro.engine.session.BoundSolve.step` is the
        allocation-free per-step hot loop;
        :meth:`~repro.engine.session.BoundSolve.step_once` is one
        fully-instrumented execution (exact single-call semantics).

        ``transient=True`` keeps the classic one-shot lifecycle (the
        two-sighting fingerprint ledger); a persistent bind forces the
        factorization whenever the fingerprint gate admits the plan, so
        the first step already runs RHS-only.
        """
        from repro.engine.session import BoundSolve

        return BoundSolve(self, request, transient=transient)

    def run(self, request) -> "object":
        """The one engine entrypoint: execute a ``SolveRequest``.

        Composes the orthogonal stages every solve flavour shares —
        **plan** (cached, or frozen in the request), **factorize or
        cache** (the ``fingerprint`` tri-state, or the handle the
        request carries), **execute** (RHS-only sweep or pooled plan;
        cyclic requests corner-reduce and correct around the same
        core), **trace** — and returns a
        :class:`~repro.backends.request.SolveOutcome`.

        Since the bind/execute split, this is literally a transient
        bind followed by one instrumented step — the session module
        owns the whole spine, and the single-call path exercises the
        same code a thousand-step session does.

        Every public path (``solve_batch``, ``PreparedPlan.solve``,
        and the engine-family backends) is a thin adapter that builds
        a request and calls this method.
        ``request.label`` overrides the trace's backend name so
        adapters keep their identity (``"prepared"``).
        """
        return self.bind(request, transient=True).step_once()

    # ---- thin request-building adapters ------------------------------
    def solve_batch(self, a, b, c, d, *, check: bool = True, out=None, **opts):
        """Solve an ``(M, N)`` batch through a cached plan.

        A thin adapter over :meth:`run`: the raw arrays and options go
        to :meth:`SolveRequest.build
        <repro.backends.request.SolveRequest.build>` (the one
        validator; unknown options are a ``TypeError``), the outcome's
        trace is recorded for :func:`repro.last_trace`, and the
        solution is returned.  ``periodic=True`` solves cyclic systems
        (corners in ``a[:, 0]`` / ``c[:, -1]``).  ``ranks > 1`` is a
        ``ValueError``: N-partitioning is the distributed backend's.

        ``fingerprint`` controls the factorization fast path: ``None``
        (default) hashes the coefficients and — for ``k = 0`` plans —
        serves repeat sightings from the factorization cache; ``True``
        additionally engages the hybrid factorization for ``k > 0``
        plans and factors on first sight; ``False`` disables
        fingerprinting entirely.  Every RHS-only sweep keeps the
        one-shot's bits; ``k > 0`` waits for ``True`` or an ``rtol``
        because its factorization holds ``2k + 3`` ``(N, M)`` arrays
        (an intent and cost gate, not a bits gate).  ``rtol`` widens
        the auto tier to ``k > 0`` plans (see
        :func:`repro.engine.prepared.rtol_permits_hybrid_reuse`).
        ``k`` and ``fuse`` are :class:`~repro.core.hybrid.HybridSolver`'s;
        the window schedule is the plan's (:func:`~repro.engine.plan.build_plan`).
        """
        from repro.backends.request import SolveRequest
        from repro.backends.trace import record_trace

        request = SolveRequest.build(a, b, c, d, check=check, out=out, **opts)
        if request.ranks is not None and request.ranks > 1:
            raise ValueError(
                f"ranks={request.ranks}: the engine solves on one rank; "
                "N-partitioned solves go through the distributed backend"
            )
        outcome = self.run(request)
        record_trace(outcome.trace)
        return outcome.x

    def solve(self, a, b, c, d, **opts) -> np.ndarray:
        """Solve a single system (treated as an ``M = 1`` batch)."""
        a, b, c, d = (np.asarray(v)[None] for v in (a, b, c, d))
        return self.solve_batch(a, b, c, d, **opts)[0]

    # ---- lifecycle -----------------------------------------------------
    def clear(self) -> None:
        """Drop every cached plan, workspace and factorization
        (stats persist)."""
        with self._lock:
            self._plans.clear()
            self._plan_memo.clear()
            self._pools.clear()
            self._facts.clear()
            self._fp_seen.clear()
            self.stats.workspace_bytes = 0
            self.stats.factorization_bytes = 0

    def reset_stats(self) -> None:
        """Zero the ledger (cached plans and workspaces are kept)."""
        self.stats = EngineStats(
            workspace_bytes=self.stats.workspace_bytes,
            factorization_bytes=self.stats.factorization_bytes,
        )


_default_engine: ExecutionEngine | None = None
_default_lock = threading.Lock()


def default_engine() -> ExecutionEngine:
    """The process-wide engine behind ``repro.solve_batch``."""
    global _default_engine
    if _default_engine is None:
        with _default_lock:
            if _default_engine is None:
                _default_engine = ExecutionEngine()
    return _default_engine
