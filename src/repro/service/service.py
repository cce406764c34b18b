"""Solve-as-a-service: coalesce small requests into the large-M regime.

Every benchmark in this repo agrees with the paper's Table III: the
large-M ``k = 0`` route is the fastest thing the engine does, yet real
PDE traffic (ADI sweeps, spline fits, per-frame physics) arrives as
*many small* compatible batches.  :class:`SolveService` is the front
door that turns one traffic shape into the other:

``submit`` → **coalesce window** → **one engine dispatch** → **scatter**

Concurrent ``submit`` calls are validated into per-fragment
:class:`~repro.backends.request.SolveRequest` objects, grouped by
compatibility (same ``N``/dtype/system descriptor/periodic flag and the
same plan-shaping options), and concatenated along the batch (``M``)
axis into **one** request per group — flushed when the group reaches
``max_batch_rows`` or when the oldest fragment has waited
``max_wait_us``.  The coalesced request dispatches through the backend
registry exactly like ``repro.solve_batch`` (the adaptive router's
``observe`` hook sees the *aggregate* route), and each caller receives
its row slice of the result.

**Bitwise contract.**  Grouped requests that leave ``k`` unset are
pinned to ``k = 0`` — the large-M fast path — *before* dispatch, so the
frozen transition never depends on how traffic happened to coalesce:
any partition of a workload into service submissions returns bits
identical to the monolithic ``k = 0`` solve (every solver operation is
elementwise along the batch axis, so a row's bits never depend on
which rows share its call).  Callers that pin ``k`` (or any
hybrid plan option) group among themselves under those exact options.
Requests whose auto-``k`` would be ambiguous under coalescing (unset
``k`` with hybrid-only options like ``fuse=True``) are passed through
solo, never grouped.

**Shared factorizations.**  ``fingerprint=True`` submissions are
digest-grouped: fragments carrying the *same coefficient digest* (a
time-stepping ensemble solving one matrix) skip concatenating their
coefficients entirely — the service fetches the fragment-level
``k = 0`` factorization from the engine's cache once, tiles it along
the batch axis, and **binds a session** for the aggregate RHS-only
shape.  Repeat windows of the same digest group (the steady state of a
time-stepping ensemble) re-enter the bound session: per dispatch the
service concatenates the right-hand sides and calls ``step_once`` —
no request rebuild, no registry negotiation, no factorization-cache
round trip.  The sweep's operations are elementwise along ``M``, so
the tiled sweep is bitwise identical to each caller's solo prepared
solve.

**Admission control.**  The service bounds *admitted-but-undelivered
rows* (``max_pending_rows``); past the bound, ``submit`` sheds the
request immediately with :class:`ServiceOverloaded` instead of growing
an unbounded queue — callers see a typed, retryable error while the
backlog drains.
"""

from __future__ import annotations

import asyncio
import threading
import time
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from repro.backends.base import bind_backend
from repro.backends.registry import BackendRegistry, default_registry
from repro.backends.request import SolveRequest
from repro.backends.trace import record_trace
from repro.engine.prepared import ThomasRhsFactorization, coefficient_fingerprint
from repro.service.stats import ServiceStats

__all__ = ["ServiceConfig", "ServiceOverloaded", "SolveService"]


class ServiceOverloaded(RuntimeError):
    """The service shed a request: the pending-row bound is full.

    Raised *synchronously* by ``submit`` — the request was never
    queued, so the caller may retry after backing off.  Carries
    ``pending_rows`` / ``max_pending_rows`` for logging.
    """

    def __init__(self, pending_rows: int, max_pending_rows: int, rows: int):
        self.pending_rows = pending_rows
        self.max_pending_rows = max_pending_rows
        self.rows = rows
        super().__init__(
            f"service overloaded: {pending_rows} rows pending "
            f"(+{rows} requested) exceeds max_pending_rows="
            f"{max_pending_rows}; retry after backoff"
        )


@dataclass(frozen=True)
class ServiceConfig:
    """Tuning knobs for :class:`SolveService`.

    Attributes
    ----------
    max_batch_rows:
        Flush a group as soon as its pending fragments reach this many
        batch rows — the ceiling on coalesced ``M``.
    max_wait_us:
        The coalesce window: a group flushes at latest this long after
        its *first* fragment arrived.  The latency cost of batching is
        bounded by this plus one dispatch.
    max_pending_rows:
        Admission bound on rows admitted but not yet delivered; beyond
        it ``submit`` raises :class:`ServiceOverloaded`.
    backend:
        Registry backend name every coalesced request dispatches to
        (``"auto"`` = let the router choose, the default).
    dispatch_workers:
        Threads executing coalesced batches, so the event loop never
        blocks on NumPy sweeps and independent groups overlap.
    tile_cache:
        LRU entries for the bound sessions serving repeat digest
        windows (one per digest-window shape actually seen); each
        session holds its own tiled factorization.
    """

    max_batch_rows: int = 2048
    max_wait_us: float = 500.0
    max_pending_rows: int = 65536
    backend: str = "auto"
    dispatch_workers: int = 2
    tile_cache: int = 16

    def __post_init__(self):
        if self.max_batch_rows < 1:
            raise ValueError(
                f"max_batch_rows must be >= 1, got {self.max_batch_rows}"
            )
        if self.max_wait_us < 0.0:
            raise ValueError(
                f"max_wait_us must be >= 0, got {self.max_wait_us}"
            )
        if self.max_pending_rows < 1:
            raise ValueError(
                f"max_pending_rows must be >= 1, got {self.max_pending_rows}"
            )
        if self.dispatch_workers < 1:
            raise ValueError(
                f"dispatch_workers must be >= 1, got {self.dispatch_workers}"
            )
        if self.tile_cache < 1:
            raise ValueError(
                f"tile_cache must be >= 1, got {self.tile_cache}"
            )


class _Pending:
    """One admitted fragment awaiting its slice of a coalesced result."""

    __slots__ = ("request", "future", "tenant", "t_submit")

    def __init__(self, request, future, tenant, t_submit):
        self.request = request
        self.future = future
        self.tenant = tenant
        self.t_submit = t_submit


class _Bucket:
    """The pending fragments of one compatibility group."""

    __slots__ = ("key", "items", "rows", "timer", "digest", "solo")

    def __init__(self, key, digest, solo):
        self.key = key
        self.items: list = []
        self.rows = 0
        self.timer = None
        self.digest = digest
        self.solo = solo


#: group-key sentinel counter for solo (never-coalesced) requests
_solo_counter = iter(range(1, 1 << 62)).__next__


class SolveService:
    """Async batch-aggregation front end over the solve spine.

    Create one per event loop (it binds to the running loop on first
    use) and share it across tasks::

        service = SolveService()
        x = await service.submit(a, b, c, d)          # (M, N) fragment
        await service.close()

    Synchronous callers use
    :class:`~repro.service.sync.SyncSolveClient`, which owns a
    background event loop and forwards into ``submit``.

    Parameters
    ----------
    config:
        A :class:`ServiceConfig` (defaults are sized for small-request
        traffic against the process-wide engine).
    registry:
        Backend registry coalesced requests dispatch through (default:
        the process-wide one).  The router's ``observe`` hook is fed
        the aggregate request/trace after every dispatch, so the
        adaptive model calibrates on what actually executed.
    engine:
        Engine used for the shared-factorization (digest) path; default
        is the registry's ``"engine"`` backend's engine, so cache state
        is shared with direct ``solve_batch`` callers.
    """

    def __init__(
        self,
        config: ServiceConfig | None = None,
        *,
        registry: BackendRegistry | None = None,
        engine=None,
    ):
        self.config = config if config is not None else ServiceConfig()
        self._registry = registry if registry is not None else default_registry()
        self._engine = engine
        self.stats = ServiceStats()
        self._loop: asyncio.AbstractEventLoop | None = None
        self._buckets: dict = {}
        self._pending_rows = 0
        self._inflight: set = set()
        self._closed = False
        self._executor: ThreadPoolExecutor | None = None
        self._executor_lock = threading.Lock()
        # (digest, reps, m_frag, n, dtype, check) -> bound session
        self._sessions: OrderedDict = OrderedDict()
        self._sessions_lock = threading.Lock()

    # ---- submission ---------------------------------------------------
    async def submit(self, a, b, c, d, *, tenant: str = "default", **opts):
        """Solve one ``(M, N)`` fragment through the coalescing window.

        Arguments are :meth:`SolveRequest.build
        <repro.backends.request.SolveRequest.build>`'s (the keywords of
        ``repro.solve_batch`` plus the banded ``e``/``f``/``system``
        extensions); ``tenant`` attributes the request in
        :attr:`stats`.  Returns the fragment's solution — bitwise
        identical to the monolithic ``k = 0`` solve of any batch this
        fragment coalesced into.  Raises :class:`ServiceOverloaded`
        when admission control sheds the request.
        """
        return await self.submit_nowait(a, b, c, d, tenant=tenant, **opts)

    def submit_nowait(
        self, a, b, c, d, *, tenant: str = "default", **opts
    ) -> asyncio.Future:
        """Admit a fragment and return the future of its result.

        Must be called on the service's event loop (``submit`` is the
        awaitable veneer; :class:`~repro.service.sync.SyncSolveClient`
        is the cross-thread one).  Validation and admission happen
        synchronously, so shape errors and
        :class:`ServiceOverloaded` raise here, not inside the future.
        """
        if self._closed:
            raise RuntimeError("service is closed")
        loop = asyncio.get_running_loop()
        if self._loop is None:
            self._loop = loop
        elif loop is not self._loop:
            raise RuntimeError(
                "SolveService is bound to another event loop; create one "
                "service per loop"
            )
        request = SolveRequest.build(a, b, c, d, **opts)
        rows = request.m
        if self._pending_rows + rows > self.config.max_pending_rows:
            self.stats.record_shed(tenant)
            raise ServiceOverloaded(
                self._pending_rows, self.config.max_pending_rows, rows
            )
        digest, key, solo = self._classify(request)
        self.stats.record_admitted(tenant, rows)
        self._pending_rows += rows
        future = loop.create_future()
        pending = _Pending(request, future, tenant, time.perf_counter())

        bucket = self._buckets.get(key)
        if bucket is None:
            bucket = _Bucket(key, digest, solo)
            self._buckets[key] = bucket
        bucket.items.append(pending)
        bucket.rows += rows
        if solo or bucket.rows >= self.config.max_batch_rows:
            self._flush(bucket, cause="size" if not solo else "solo")
        elif bucket.timer is None:
            bucket.timer = loop.call_later(
                self.config.max_wait_us * 1e-6, self._flush_timer, bucket
            )
        return future

    def _classify(self, request: SolveRequest):
        """``(digest, group key, solo)`` for one fragment.

        Two fragments may coalesce only when every axis that shapes the
        frozen plan — and therefore the bits of the answer — agrees.
        ``fingerprint=True`` fragments additionally group by coefficient
        digest, unlocking the shared-factorization dispatch.  Fragments
        whose unset ``k`` cannot be pinned to 0 unambiguously (hybrid
        plan options present) go solo.
        """
        hybrid_opts = (
            request.fuse
            or request.n_windows != 1
            or request.subtile_scale not in (None, 1)
            or request.parallelism is not None
            or request.heuristic is not None
        )
        if request.k is None and hybrid_opts:
            return None, ("solo", _solo_counter()), True
        digest = None
        if request.fingerprint is True:
            coeffs = (
                (request.e, request.a, request.b, request.c, request.f)
                if request.system.kind == "pentadiagonal"
                else (request.a, request.b, request.c)
            )
            digest = coefficient_fingerprint(*coeffs)
        key = (
            request.n,
            request.dtype,
            request.system,
            request.periodic,
            request.k,
            request.fuse,
            request.n_windows,
            request.subtile_scale,
            request.parallelism,
            id(request.heuristic) if request.heuristic is not None else None,
            request.ranks,
            request.fingerprint,
            request.rtol,
            request.check,
            digest,
        )
        return digest, key, False

    # ---- flushing -----------------------------------------------------
    def _flush_timer(self, bucket: _Bucket) -> None:
        bucket.timer = None
        if self._buckets.get(bucket.key) is bucket:
            self._flush(bucket, cause="timer")

    def _flush(self, bucket: _Bucket, *, cause: str) -> None:
        """Detach ``bucket`` and hand its fragments to the executor."""
        self._buckets.pop(bucket.key, None)
        if bucket.timer is not None:
            bucket.timer.cancel()
            bucket.timer = None
        if not bucket.items:
            return
        loop = self._loop
        fut = loop.run_in_executor(
            self._dispatch_executor(), self._dispatch, bucket, cause
        )
        self._inflight.add(fut)
        fut.add_done_callback(self._inflight.discard)

    def _dispatch_executor(self) -> ThreadPoolExecutor:
        with self._executor_lock:
            if self._executor is None:
                self._executor = ThreadPoolExecutor(
                    max_workers=self.config.dispatch_workers,
                    thread_name_prefix="repro-service",
                )
            return self._executor

    # ---- dispatch (executor threads) ---------------------------------
    def _dispatch(self, bucket: _Bucket, cause: str) -> None:
        items = bucket.items
        try:
            bound = self._shared_session(bucket)
            if bound is not None:
                session, d = bound
                outcome = self._execute_session(session, d)
                rows, shared = session.request.m, True
            else:
                request, shared = self._coalesced_request(bucket)
                outcome = self._execute(request)
                rows = request.m
            self.stats.record_dispatch(
                {p.tenant for p in items},
                rows,
                outcome.trace,
                cause=cause,
                shared=shared,
            )
            self._loop.call_soon_threadsafe(
                self._deliver, items, outcome.x, None
            )
        except BaseException as exc:  # delivered, not swallowed
            for p in items:
                self.stats.record_failed(p.tenant)
            self._loop.call_soon_threadsafe(self._deliver, items, None, exc)

    def _coalesced_request(self, bucket: _Bucket):
        """Build the one request this bucket executes as.

        Returns ``(request, shared)``; the digest-tiled RHS-only path
        lives in :meth:`_shared_session` and is tried first by
        ``_dispatch``, so ``shared`` is always ``False`` here.  Unset
        ``k`` on groupable fragments is pinned to 0 — the bitwise
        anchor of the whole tier.
        """
        items = bucket.items
        first = items[0].request
        pin_k = first.k is None and not bucket.solo
        if len(items) == 1:
            request = first.replace(k=0) if pin_k else first
            return request, False
        # every other field — the group key agrees on all that shape the
        # answer — rides over from the first fragment unchanged
        cat = {
            name: np.concatenate([getattr(p.request, name) for p in items])
            for name in ("e", "a", "b", "c", "f", "d")
            if getattr(first, name) is not None
        }
        request = first.replace(
            **cat, m=bucket.rows, k=0 if pin_k else first.k, out=None
        )
        return request, False

    @staticmethod
    def _shared_eligible(first: SolveRequest, pin_k: bool) -> bool:
        """May this digest group run the tiled RHS-only dispatch?

        Plain tridiagonal ``k = 0`` only: that is where the stored
        :class:`ThomasRhsFactorization` is bitwise-identical to the
        cold solve, and tiling it along the batch axis is a pure
        column-block repeat.  Periodic and banded digest groups fall
        back to plain concatenation (the engine's own fingerprint cache
        still serves them at the aggregate shape), and so do
        ``ranks > 1`` groups, which the engine does not serve.
        """
        k_eff = 0 if pin_k else first.k
        return (
            first.system.kind == "tridiagonal"
            and not first.periodic
            and k_eff == 0
            and (first.ranks or 1) == 1
        )

    def _shared_session(self, bucket: _Bucket):
        """Digest path: a bound session over the tiled factorization.

        All fragments in a digest bucket carry *identical* coefficient
        arrays (the digest hashes shape + content), so the coalesced
        elimination state is the fragment's ``(N, m)`` factorization
        repeated along the batch axis — fetched from (or built into)
        the engine's factorization cache once, tiled once, and **bound
        once**: the session holding the tiled factorization, frozen
        aggregate plan, and pinned route is LRU-cached, so every later
        window of the same digest group concatenates its right-hand
        sides and steps the existing session.  Returns ``(session, d)``
        or ``None`` when the bucket is ineligible (falls back to plain
        concatenation).
        """
        items = bucket.items
        if bucket.digest is None:
            return None
        first = items[0].request
        pin_k = first.k is None and not bucket.solo
        if not self._shared_eligible(first, pin_k):
            return None
        m_frag = first.m
        if any(p.request.m != m_frag for p in items):
            return None
        reps = len(items)
        key = (
            bucket.digest, reps, m_frag, first.n, first.dtype, first.check,
        )
        with self._sessions_lock:
            session = self._sessions.get(key)
            if session is not None:
                self._sessions.move_to_end(key)
        if session is None:
            session = self._bind_shared(bucket, first, m_frag, reps)
            if session is None:
                return None
            with self._sessions_lock:
                raced = self._sessions.get(key)
                if raced is not None:
                    # another dispatch thread bound the same window
                    # shape first; keep the incumbent
                    session.close()
                    session = raced
                    self._sessions.move_to_end(key)
                else:
                    self._sessions[key] = session
                    while len(self._sessions) > self.config.tile_cache:
                        _, old = self._sessions.popitem(last=False)
                        old.close()
        d = (
            first.d
            if reps == 1
            else np.concatenate([p.request.d for p in items], axis=0)
        )
        return session, d

    def _bind_shared(self, bucket: _Bucket, first, m_frag: int, reps: int):
        """Build the bound session behind one digest-window shape.

        The RHS-only template request (no ``d`` — each window supplies
        its own) resolves through the registry like any coalesced
        dispatch, so the route decision is pinned at bind time and the
        adaptive router still sees the aggregate shape; backends
        without a native ``bind`` get the generic per-step-dispatch
        session.
        """
        engine = self._shared_engine()
        if engine is None:
            return None
        plan_frag = engine.plan_for(m_frag, first.n, np.dtype(first.dtype), k=0)
        fact, _ = engine.factorization_for(
            plan_frag, bucket.digest, first.a, first.b, first.c
        )
        if not isinstance(fact, ThomasRhsFactorization):
            return None
        tiled = self._tiled_factorization(fact, reps)
        rows = m_frag * reps
        plan = engine.plan_for(rows, first.n, np.dtype(first.dtype), k=0)
        template = SolveRequest(
            a=None,
            b=None,
            c=None,
            d=None,
            m=rows,
            n=first.n,
            dtype=first.dtype,
            rhs_only=True,
            fingerprint=True,
            factorization=tiled,
            plan=plan,
            check=first.check,
        )
        return bind_backend(
            self._registry.resolve(self.config.backend, template), template
        )

    def _execute_session(self, session, d):
        """One window through a bound session (solve_via shape).

        The session's ``step_once`` replays the engine's one-shot
        instrumentation; the service adds what ``_execute`` adds for
        cold dispatches — decision stamp, thread-local trace, and the
        router's ``observe`` hook on the aggregate shape.
        """
        outcome = session.step_once(d)
        trace = outcome.trace
        if trace.decision is None:
            trace.decision = session.request.decision
        record_trace(trace)
        observe = getattr(self._registry.router, "observe", None)
        if observe is not None:
            observe(session.request, trace)
        return outcome

    def _shared_engine(self):
        """The engine whose factorization cache backs the digest path."""
        if self._engine is not None:
            return self._engine
        try:
            backend = self._registry.get("engine")
        except Exception:
            return None
        engine = getattr(backend, "engine", None)
        if engine is None or not hasattr(engine, "factorization_for"):
            return None
        self._engine = engine
        return engine

    @staticmethod
    def _tiled_factorization(fact, reps: int):
        """``fact`` repeated ``reps`` × along the batch axis.

        ``np.tile(arr, (1, reps))`` on the ``(N, m)`` state repeats the
        fragment's columns block-by-block — exactly the column layout
        of ``reps`` concatenated fragments.  Not cached: it runs only
        when binding a session, and the session keeps the result.
        """
        if reps == 1:
            return fact
        return ThomasRhsFactorization(
            ta=np.tile(fact.ta, (1, reps)),
            cp=np.tile(fact.cp, (1, reps)),
            denom=np.tile(fact.denom, (1, reps)),
        )

    def _execute(self, request: SolveRequest):
        """Registry dispatch of one coalesced request (solve_via shape).

        Mirrors :func:`repro.backends.registry.solve_via` — resolve,
        execute, stamp the decision, record the trace, and feed the
        router's ``observe`` hook with the *aggregate* request/trace so
        the adaptive model calibrates on coalesced shapes.
        """
        chosen = self._registry.resolve(self.config.backend, request)
        outcome = chosen.execute(request)
        trace = outcome.trace
        if trace.decision is None:
            trace.decision = request.decision
        record_trace(trace)
        observe = getattr(self._registry.router, "observe", None)
        if observe is not None:
            observe(request, trace)
        return outcome

    # ---- delivery (event loop) ---------------------------------------
    def _deliver(self, items, x, exc) -> None:
        now = time.perf_counter()
        lo = 0
        for p in items:
            rows = p.request.m
            self._pending_rows -= rows
            if exc is None:
                frag = x[lo : lo + rows]
                lo += rows
                dest = p.request.out
                if dest is not None:
                    if frag is not dest and frag.base is not dest:
                        np.copyto(dest, frag)
                    frag = dest
                elif frag.base is not None:
                    frag = frag.copy()  # detach from the coalesced block
                if not p.future.done():
                    p.future.set_result(frag)
                self.stats.record_delivered(p.tenant, now - p.t_submit)
            else:
                if not p.future.done():
                    p.future.set_exception(exc)

    # ---- observability ------------------------------------------------
    def last_trace(self, tenant: str = "default"):
        """The aggregate :class:`~repro.backends.trace.SolveTrace` of
        the most recent coalesced batch this tenant rode in on (the
        service-tier sibling of :func:`repro.last_trace`)."""
        return self.stats.tenant(tenant).last_trace

    def describe(self) -> dict:
        """Service + per-tenant summary (the ``serve-stats`` payload)."""
        desc = self.stats.describe()
        desc["config"] = {
            "max_batch_rows": self.config.max_batch_rows,
            "max_wait_us": self.config.max_wait_us,
            "max_pending_rows": self.config.max_pending_rows,
            "backend": self.config.backend,
            "dispatch_workers": self.config.dispatch_workers,
        }
        desc["pending_rows"] = self._pending_rows
        with self._sessions_lock:
            desc["bound_sessions"] = len(self._sessions)
        return desc

    @property
    def pending_rows(self) -> int:
        """Rows admitted but not yet delivered (the backpressure gauge)."""
        return self._pending_rows

    # ---- lifecycle ----------------------------------------------------
    async def drain(self) -> None:
        """Flush every open window and wait for in-flight dispatches."""
        for bucket in list(self._buckets.values()):
            self._flush(bucket, cause="close")
        while self._inflight:
            await asyncio.gather(*list(self._inflight), return_exceptions=True)

    async def close(self) -> None:
        """Drain, then release the dispatch executor.

        Idempotent; afterwards ``submit`` raises ``RuntimeError``.
        """
        if self._closed:
            return
        self._closed = True
        await self.drain()
        with self._executor_lock:
            executor, self._executor = self._executor, None
        if executor is not None:
            executor.shutdown(wait=True)
        with self._sessions_lock:
            sessions, self._sessions = self._sessions, OrderedDict()
        for session in sessions.values():
            session.close()

    async def __aenter__(self) -> "SolveService":
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.close()
