"""The solve-plan execution engine: plan once, execute many times.

:class:`ExecutionEngine` is the stateful front door for repeated
batch solves.  It keeps

* an **LRU plan cache** — ``(M, N, dtype, k, fuse, n_windows,
  subtile_scale)`` signatures map to frozen
  :class:`~repro.engine.plan.SolvePlan` objects, so the transition
  choice and window schedule are computed once per shape;
* a **workspace pool per plan** — ring buffers, p-Thomas state and
  transpose scratch are checked out for the duration of one execution
  and returned, so warm solves allocate only their result;
* an optional **shard executor** — ``workers=W`` splits the batch axis
  across a persistent thread pool, each worker running the same plan
  on its contiguous row shard and writing into one shared output.
  Results are bitwise independent of ``workers`` because every solver
  operation is elementwise along the batch axis and the transition
  ``k`` is frozen from the *full* batch before sharding.

The engine's results are bitwise identical to
:class:`~repro.core.hybrid.HybridSolver` for every signature; the
difference is purely where the time goes (no re-planning, no buffer
churn).  A module-level :func:`default_engine` instance backs
``repro.solve_batch(..., algorithm="auto")``.
"""

from __future__ import annotations

import os
import threading
import time
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from repro.core.hybrid import HybridReport
from repro.core.tiled_pcr import TilingCounters
from repro.core.transition import GTX480_HEURISTIC, TransitionHeuristic
from repro.core.validation import check_batch_arrays, coerce_batch_arrays
from repro.engine.executor import execute_plan, shard_bounds
from repro.engine.plan import SolvePlan, build_plan
from repro.engine.prepared import (
    PreparedPlan,
    build_cyclic_factorization,
    build_factorization,
    coefficient_fingerprint,
)
from repro.engine.workspace import PlanWorkspace, PreparedWorkspace
from repro.util.pools import executor_cap

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
    sharded_solves: int = 0
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
        sharded solves pool one per shard sub-plan, so the default
        covers ``workers`` up to ``pool_size`` without re-allocation.
    heuristic:
        Default Table-III-style transition table for plans that do not
        fix ``k`` explicitly.
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
        heuristic: TransitionHeuristic = GTX480_HEURISTIC,
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
        self.heuristic = heuristic
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
        self._pools: dict = {}  # signature -> list[PlanWorkspace]
        self._prepared_pools: dict = {}  # signature -> list[PreparedWorkspace]
        self._facts: OrderedDict = OrderedDict()  # fact key -> factorization
        self._fp_seen: OrderedDict = OrderedDict()  # fact key sighting ledger
        self._fp_seen_cap = 64
        # request-coordinate -> resolved plan memo: skips re-running the
        # transition heuristic + plan construction on warm repeat shapes
        # (the dominant per-call dispatch cost for tiny batches)
        self._plan_memo: OrderedDict = OrderedDict()
        self._plan_memo_cap = 4 * max_plans
        self._executor: ThreadPoolExecutor | None = None
        self._executor_workers = 0
        # pools replaced by growth stay alive here until shutdown():
        # a concurrent sharded solve may still be submitting to one,
        # and ThreadPoolExecutor raises on submit-after-shutdown
        self._retired_executors: list = []

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
        n_windows: int = 1,
        subtile_scale: int = 1,
        parallelism: int | None = None,
        heuristic: TransitionHeuristic | None = None,
        info: dict | None = None,
        system: str = "",
    ) -> SolvePlan:
        """Return the cached plan for this signature, building on miss.

        ``heuristic`` overrides the engine default for this call; the
        cache key is the *resolved* ``k``, so plans from different
        heuristics that agree on ``k`` share an entry.  ``info``, if
        given, receives ``info["cache"] = "hit" | "miss"`` — the
        instrumentation hook the backend layer's traces are built on.

        Warm repeats skip even the transition resolution: a bounded
        memo maps raw request coordinates (pre-heuristic) to their
        resolved plan, so steady-state dispatch does one dict probe
        instead of re-running ``choose_transition`` + plan
        construction each call.
        """
        heur = heuristic if heuristic is not None else self.heuristic
        memo_key = (
            m, n, np.dtype(dtype).str, k, bool(fuse),
            n_windows, subtile_scale, parallelism, heur, system,
        )
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
        plan = build_plan(
            m,
            n,
            dtype,
            k=k,
            fuse=fuse,
            n_windows=n_windows,
            subtile_scale=subtile_scale,
            heuristic=heur,
            parallelism=parallelism,
            system=system,
        )
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
                for ws in self._pools.pop(old_sig, ()):
                    self.stats.workspace_bytes -= ws.nbytes
                for ws in self._prepared_pools.pop(old_sig, ()):
                    self.stats.workspace_bytes -= ws.nbytes
                self.stats.plan_evictions += 1
        return plan

    # ---- workspace pooling -------------------------------------------
    def checkout(self, plan: SolvePlan) -> PlanWorkspace:
        """Borrow a pooled workspace for ``plan`` (build one on miss)."""
        return self._checkout(plan)

    def checkin(self, plan: SolvePlan, ws: PlanWorkspace) -> None:
        """Return a borrowed workspace to ``plan``'s pool."""
        self._checkin(plan, ws)

    def _checkout(self, plan: SolvePlan) -> PlanWorkspace:
        sig = plan.signature()
        with self._lock:
            pool = self._pools.get(sig)
            if pool:
                ws = pool.pop()
                self.stats.workspace_bytes -= ws.nbytes
                self.stats.workspaces_reused += 1
                return ws
        ws = PlanWorkspace(plan)
        with self._lock:
            self.stats.workspaces_built += 1
        return ws

    def _checkin(self, plan: SolvePlan, ws: PlanWorkspace) -> None:
        sig = plan.signature()
        with self._lock:
            if sig not in self._plans:
                return  # plan evicted while executing; let ws be collected
            pool = self._pools.setdefault(sig, [])
            if len(pool) < self.pool_size:
                pool.append(ws)
                self.stats.workspace_bytes += ws.nbytes

    def checkout_prepared(self, plan: SolvePlan) -> PreparedWorkspace:
        """Borrow a pooled RHS-only workspace for ``plan``."""
        sig = plan.signature()
        with self._lock:
            pool = self._prepared_pools.get(sig)
            if pool:
                ws = pool.pop()
                self.stats.workspace_bytes -= ws.nbytes
                self.stats.workspaces_reused += 1
                return ws
        ws = PreparedWorkspace(plan)
        with self._lock:
            self.stats.workspaces_built += 1
        return ws

    def checkin_prepared(self, plan: SolvePlan, ws: PreparedWorkspace) -> None:
        """Return a borrowed RHS-only workspace to ``plan``'s pool."""
        sig = plan.signature()
        with self._lock:
            if sig not in self._plans:
                return
            pool = self._prepared_pools.setdefault(sig, [])
            if len(pool) < self.pool_size:
                pool.append(ws)
                self.stats.workspace_bytes += ws.nbytes

    # ---- factorization cache -----------------------------------------
    @staticmethod
    def _fact_key(plan: SolvePlan, digest: str, periodic: bool = False) -> tuple:
        # Factorizations depend only on (m, n, dtype, k) + the system
        # descriptor + content — fuse / window choices change
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
        workers: int | None = None,
        k: int | None = None,
        fuse: bool = False,
        n_windows: int = 1,
        subtile_scale: int = 1,
        parallelism: int | None = None,
        heuristic: TransitionHeuristic | None = None,
        periodic: bool = False,
        check: bool = True,
    ) -> PreparedPlan:
        """Factor a coefficient set into an explicit solve handle.

        The handle's factorization is also seeded into the engine's
        fingerprint cache, so plain ``solve_batch`` calls with the same
        coefficients hit it too (``k = 0`` plans; see
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
        d0 = np.zeros_like(np.asarray(b))
        if periodic:
            from repro.core.validation import coerce_cyclic_batch_arrays

            a, b, c, _ = coerce_cyclic_batch_arrays(a, b, c, d0)
        else:
            a, b, c, _ = coerce_batch_arrays(a, b, c, d0)
        m, n = b.shape
        plan = self.plan_for(
            m,
            n,
            b.dtype,
            k=k,
            fuse=fuse,
            n_windows=n_windows,
            subtile_scale=subtile_scale,
            parallelism=parallelism,
            heuristic=heuristic,
        )
        digest = coefficient_fingerprint(a, b, c)
        fact, _ = self._factorization_for(
            plan, digest, a, b, c, force=True, periodic=periodic, check=check
        )
        return PreparedPlan(
            self, plan, fact, digest, workers=workers, periodic=periodic
        )

    # ---- execution ---------------------------------------------------
    def execute_pooled(
        self,
        plan: SolvePlan,
        a,
        b,
        c,
        d,
        *,
        counters: TilingCounters | None = None,
        out: np.ndarray | None = None,
        stage_times: list | None = None,
    ) -> np.ndarray:
        """Execute a prepared plan against a pooled workspace.

        This is the unsharded hot path — also the execution seam the
        backend layer (:mod:`repro.backends.engine_backend`) calls
        after planning through :meth:`plan_for`.  Counts one solve.
        """
        ws = self._checkout(plan)
        try:
            x = execute_plan(
                plan, ws, a, b, c, d,
                counters=counters, out=out, stage_times=stage_times,
            )
        finally:
            self._checkin(plan, ws)
        with self._lock:
            self.stats.solves += 1
        return x

    def solve_sharded(
        self,
        plan: SolvePlan,
        workers: int,
        a,
        b,
        c,
        d,
        *,
        counters: TilingCounters | None = None,
        out: np.ndarray | None = None,
        stage_times: list | None = None,
    ) -> np.ndarray:
        """Execute a plan split along the batch axis across threads.

        The sharded orchestration itself lives in
        :func:`repro.backends.threaded.execute_sharded` (the backend
        layer owns parallel composition); this method supplies the
        engine's pooled workspaces, thread pool, and stats ledger.
        Falls back to :meth:`execute_pooled` when one shard suffices.
        """
        m = b.shape[0]
        shards = shard_bounds(m, workers)
        if len(shards) <= 1:
            return self.execute_pooled(
                plan, a, b, c, d,
                counters=counters, out=out, stage_times=stage_times,
            )
        from repro.backends.threaded import execute_sharded

        t0 = time.perf_counter()
        x = execute_sharded(
            self, plan, shards, a, b, c, d,
            counters=counters, out=out, stage_times=stage_times,
        )
        if stage_times is not None:
            stage_times.append(
                (f"sharded-execute[{len(shards)}]", time.perf_counter() - t0)
            )
        with self._lock:
            self.stats.solves += 1
            self.stats.sharded_solves += 1
        return x

    def bind(self, request, *, transient: bool = False):
        """Bind a ``SolveRequest`` into a reusable :class:`BoundSolve`.

        The bind phase runs once: plan resolution, the
        fingerprint/factorization lifecycle, shard geometry, and the
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
        request carries), **execute** (RHS-only sweep, pooled plan, or
        sharded plan; cyclic requests corner-reduce and correct around
        the same core), **trace** — and returns a
        :class:`~repro.backends.request.SolveOutcome`.

        Since the bind/execute split, this is literally a transient
        bind followed by one instrumented step — the session module
        owns the whole spine, and the single-call path exercises the
        same code a thousand-step session does.

        Every public path (``solve_batch``, ``solve_periodic``,
        ``PreparedPlan.solve``, and the engine-family backends) is a
        thin adapter that builds a request and calls this method.
        ``request.label`` overrides the trace's backend name so
        adapters keep their identity (``"threaded"``, ``"prepared"``).
        """
        return self.bind(request, transient=True).step_once()

    # ---- thin request-building adapters ------------------------------
    def solve_batch(
        self,
        a,
        b,
        c,
        d,
        *,
        check: bool = True,
        workers: int | None = None,
        k: int | None = None,
        fuse: bool = False,
        n_windows: int = 1,
        subtile_scale: int = 1,
        parallelism: int | None = None,
        heuristic: TransitionHeuristic | None = None,
        fingerprint: bool | None = None,
        rtol: float | None = None,
        out: np.ndarray | None = None,
        info: dict | None = None,
        stage_times: list | None = None,
    ) -> np.ndarray:
        """Solve an ``(M, N)`` batch through a cached plan.

        A thin adapter over :meth:`run`: validates, builds a
        :class:`~repro.backends.request.SolveRequest`, and unpacks the
        outcome.  ``workers=W`` (opt-in) shards the batch axis across a
        thread pool; results are bitwise independent of ``W``.
        ``info`` and ``stage_times`` are instrumentation hooks
        (populated from the outcome's trace).  Remaining keywords
        mirror :class:`~repro.core.hybrid.HybridSolver`.

        ``fingerprint`` controls the factorization fast path: ``None``
        (default) hashes the coefficients and — for ``k = 0`` plans,
        whose RHS-only sweep is bitwise identical — serves repeat
        sightings from the factorization cache; ``True`` additionally
        engages the (allclose-grade) hybrid factorization for
        ``k > 0`` plans and factors on first sight; ``False`` disables
        fingerprinting entirely.  ``rtol`` is the accuracy contract
        that widens the auto tier to ``k > 0`` plans (see
        :func:`repro.engine.prepared.rtol_permits_hybrid_reuse`).
        """
        if check:
            a, b, c, d = check_batch_arrays(a, b, c, d)
        else:
            a, b, c, d = coerce_batch_arrays(a, b, c, d)
        from repro.backends.request import SolveRequest

        m, n = b.shape
        outcome = self.run(
            SolveRequest(
                a=a, b=b, c=c, d=d,
                m=m, n=n, dtype=np.dtype(b.dtype).name,
                workers=workers,
                k=k,
                fuse=fuse,
                n_windows=n_windows,
                subtile_scale=subtile_scale,
                parallelism=parallelism,
                heuristic=heuristic,
                fingerprint=fingerprint,
                rtol=rtol,
                check=check,
                out=out,
            )
        )
        self._fill_hooks(outcome, info, stage_times)
        return outcome.x

    def solve_periodic(
        self,
        a,
        b,
        c,
        d,
        *,
        check: bool = True,
        workers: int | None = None,
        k: int | None = None,
        fuse: bool = False,
        n_windows: int = 1,
        subtile_scale: int = 1,
        parallelism: int | None = None,
        heuristic: TransitionHeuristic | None = None,
        fingerprint: bool | None = None,
        rtol: float | None = None,
        out: np.ndarray | None = None,
        info: dict | None = None,
        stage_times: list | None = None,
    ) -> np.ndarray:
        """Solve a cyclic ``(M, N)`` batch through the engine.

        A thin adapter over :meth:`run` with ``periodic=True``.  Arrays
        must already be coerced cyclic diagonals (corners in
        ``a[:, 0]`` / ``c[:, -1]``; see
        :func:`repro.core.validation.coerce_cyclic_batch_arrays`) — the
        public entry points validate before calling in.  The
        ``fingerprint`` tri-state mirrors :meth:`solve_batch` (the
        cyclic cache semantics live in the session's bind phase —
        :class:`~repro.engine.session.BoundSolve`).
        """
        from repro.backends.request import SolveRequest

        m, n = b.shape
        outcome = self.run(
            SolveRequest(
                a=a, b=b, c=c, d=d,
                m=m, n=n, dtype=np.dtype(b.dtype).name,
                periodic=True,
                workers=workers,
                k=k,
                fuse=fuse,
                n_windows=n_windows,
                subtile_scale=subtile_scale,
                parallelism=parallelism,
                heuristic=heuristic,
                fingerprint=fingerprint,
                rtol=rtol,
                check=check,
                out=out,
            )
        )
        self._fill_hooks(outcome, info, stage_times)
        return outcome.x

    @staticmethod
    def _fill_hooks(outcome, info: dict | None, stage_times: list | None):
        """Populate the legacy ``info=`` / ``stage_times=`` hooks."""
        trace = outcome.trace
        if info is not None:
            info["cache"] = trace.plan_cache
            info["plan"] = outcome.plan
            info["factorization"] = trace.factorization
            info["rhs_only"] = trace.rhs_only
            if trace.periodic:
                info["periodic"] = True
        if stage_times is not None:
            stage_times.extend((s.name, s.seconds) for s in trace.stages)

    def solve(self, a, b, c, d, *, check: bool = True, **kwargs) -> np.ndarray:
        """Solve a single system (treated as an ``M = 1`` batch)."""
        a, b, c, d = (np.asarray(v) for v in (a, b, c, d))
        x = self.solve_batch(
            a[None, :], b[None, :], c[None, :], d[None, :],
            check=check, **kwargs,
        )
        return x[0]

    def thread_pool(self, workers: int) -> ThreadPoolExecutor:
        """The engine's persistent pool, grown to ≥ ``workers`` threads."""
        return self._thread_pool(workers)

    def _thread_pool(self, workers: int) -> ThreadPoolExecutor:
        # cap the materialized pool at a machine-proportional size;
        # oversized shard counts still complete (excess shards queue),
        # and shard *results* are independent of the thread count, so
        # clamping is bitwise-safe
        workers = min(workers, executor_cap())
        with self._lock:
            if self._executor is None or self._executor_workers < workers:
                # never shut the old pool down here: another thread may
                # hold a reference from a racing thread_pool() call and
                # still be submitting shards to it.  Retire it instead;
                # shutdown() drains the graveyard.
                if self._executor is not None:
                    self._retired_executors.append(self._executor)
                self._executor = ThreadPoolExecutor(
                    max_workers=workers, thread_name_prefix="repro-engine"
                )
                self._executor_workers = workers
            return self._executor

    # ---- lifecycle -----------------------------------------------------
    def clear(self) -> None:
        """Drop every cached plan, workspace and factorization
        (stats persist)."""
        with self._lock:
            self._plans.clear()
            self._plan_memo.clear()
            self._pools.clear()
            self._prepared_pools.clear()
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

    def shutdown(self) -> None:
        """Release the thread pool (the engine remains usable; a later
        sharded solve lazily builds a fresh pool)."""
        with self._lock:
            executor, self._executor = self._executor, None
            retired, self._retired_executors = self._retired_executors, []
            self._executor_workers = 0
        for old in retired:
            old.shutdown(wait=True)
        if executor is not None:
            executor.shutdown(wait=True)


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
