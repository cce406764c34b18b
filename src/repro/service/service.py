"""Solve-as-a-service: coalesce small requests into the large-M regime.

Every benchmark in this repo agrees with the paper's Table III: the
large-M ``k = 0`` route is the fastest thing the engine does, yet real
PDE traffic (ADI sweeps, spline fits, per-frame physics) arrives as
*many small* compatible batches.  :class:`SolveService` is the front
door that turns one traffic shape into the other:

``submit`` → **coalesce window** → **one engine dispatch** → **scatter**

Concurrent ``submit`` calls are admitted into per-fragment
:class:`~repro.backends.request.SolveRequest` objects, grouped by
compatibility (same ``N``/dtype/system descriptor/periodic flag and the
same plan-shaping options), and concatenated along the batch (``M``)
axis into **one** request per group.  A group flushes at once when it
reaches ``max_batch_rows`` (a *full* window), and otherwise when its
oldest fragment has waited ``max_wait_us`` (a *partial* window) — but
at most one partial window is in flight, Nagle's rule (RFC 896) for
windows.  A group whose timer fires while a partial window runs stays
open, keeps admitting compatible fragments, and dispatches when that
window finishes (oldest held group first): the callers it just answered
resubmit into the open groups before the next one leaves, so the
service's concurrency becomes ``M`` instead of a queue of small
windows.  Full windows, solo requests and ``drain()`` never wait.  The
coalesced request dispatches through the backend registry exactly like
``repro.solve_batch`` (the adaptive router's ``observe`` hook sees the
*aggregate* route), and each caller receives its row slice of the
result.

**Bitwise contract.**  Grouped requests that leave ``k`` unset are
pinned to ``k = 0`` — the large-M fast path — *before* dispatch, so the
frozen transition never depends on how traffic happened to coalesce:
any partition of a workload into service submissions returns bits
identical to the monolithic ``k = 0`` solve (every solver operation is
elementwise along the batch axis, so a row's bits never depend on
which rows share its call).  Callers that pin ``k`` (or ``fuse``)
group among themselves under those exact options.  Requests whose
auto-``k`` would be ambiguous under coalescing (unset ``k`` with the
hybrid-only ``fuse=True``) are passed through solo, never grouped.

**The loop admits, the window validates.**  On the event loop a
submit pays only what its group key needs: :meth:`SolveRequest.build
<repro.backends.request.SolveRequest.build>`'s coercion plus its O(1)
shape, dtype and option checks (``check=False``'s half), and the
admission bound.  The content checks a ``check=True`` solve makes —
finiteness, pads, pivots (:meth:`SolveRequest.checked
<repro.backends.request.SolveRequest.checked>`) — run on the dispatch
thread, once over each window's concatenated arrays.  A window
that fails its check re-checks fragment by fragment: each bad
fragment's future gets its own ``ValueError`` (the message a direct
solve raises), the rest of the window solves with unchanged bits, and
the ``repro.service`` logger records the window's rows and how many
fragments it refused.  Shape, dtype and option errors and
:class:`ServiceOverloaded` raise from ``submit_nowait`` itself.

**Shared factorizations.**  ``fingerprint=True`` submissions group by
compatibility like any other.  Their window digests each distinct
coefficient triple once, on the dispatch thread, from the checked
arrays it is about to factor, and splits itself by digest: fragments
carrying the *same coefficient digest* (a time-stepping ensemble
solving one matrix) skip concatenating their coefficients entirely —
the service fetches the fragment-level ``k = 0`` factorization from the
engine's cache once, tiles it along the batch axis (a uniform
fragment's one-column factorization serves the window as it is), and
**binds a session** for the aggregate RHS-only shape.  Repeat windows
of the same digest (the steady state of a time-stepping ensemble)
re-enter the bound session: per dispatch the service concatenates the
right-hand sides and calls ``step_once`` — no request rebuild, no
registry negotiation, no factorization-cache round trip.  The sweep's
operations are elementwise along ``M``, so the tiled sweep is bitwise
identical to each caller's solo prepared solve.  Because the digest is
taken where the factorization is, a caller that edits its coefficients
in place between submit and dispatch gets the factorization of what it
sent last, under that content's digest.  A ``fingerprint=True`` window
that path does not serve (periodic, banded, pinned ``k > 0``,
``ranks > 1``) splits by digest too, and each matrix's fragments
dispatch as one concatenated request, which the engine's own
fingerprint cache serves at that matrix's aggregate shape.

**Admission control.**  The service bounds *admitted-but-undelivered
rows* (``max_pending_rows``); past the bound, ``submit`` sheds the
request immediately with :class:`ServiceOverloaded` instead of growing
an unbounded queue — callers see a typed, retryable error while the
backlog drains.
"""

from __future__ import annotations

import asyncio
import logging
import threading
import time
from collections import OrderedDict, deque
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

_log = logging.getLogger("repro.service")


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
        The coalesce window: a group flushes this long after its
        *first* fragment arrived, or — when a partial (timer-flushed)
        window is still running then — as soon as that window
        finishes.  An idle service waits exactly this long; under
        load the latency cost of batching is bounded by this plus the
        dispatch of the partial window in flight.
    max_pending_rows:
        Admission bound on rows admitted but not yet delivered; beyond
        it ``submit`` raises :class:`ServiceOverloaded`.
    backend:
        Registry backend name every coalesced request dispatches to
        (``"auto"`` = let the router choose, the default).
    dispatch_workers:
        Threads executing coalesced batches, so the event loop never
        blocks on NumPy sweeps.  At most one partial window runs at a
        time; full windows (``max_batch_rows``, solo requests,
        ``drain()``) dispatch at once on a free thread, so only they
        overlap — with each other and with the partial window.
    tile_cache:
        LRU entries for the bound sessions serving repeat digest
        windows (one per digest-window shape actually seen); each
        session holds its own tiled factorization (one column, untiled,
        for a uniform fragment).
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
    """The pending fragments of one compatibility group.

    ``held`` marks a group whose timer fired while a partial window was
    in flight: it stays open, is not re-timed, and waits in
    ``SolveService._held`` for that window to finish.
    """

    __slots__ = ("key", "items", "rows", "timer", "solo", "held")

    def __init__(self, key, solo):
        self.key = key
        self.items: list = []
        self.rows = 0
        self.timer = None
        self.solo = solo
        self.held = False


#: group-key sentinel counter for solo (never-coalesced) requests
_solo_counter = iter(range(1, 1 << 62)).__next__


def _stacked(arrays: list) -> np.ndarray:
    """``arrays`` concatenated along the batch axis; one array as it is."""
    return arrays[0] if len(arrays) == 1 else np.concatenate(arrays)


def _coefficients(request: SolveRequest) -> tuple:
    """The coefficient arrays of ``request`` a digest hashes."""
    return tuple(
        arr
        for arr in (request.e, request.a, request.b, request.c, request.f)
        if arr is not None
    )


def _by_matrix(items) -> list:
    """``items`` grouped by the identity of their coefficient arrays, in
    arrival order: a caller that resends its arrays sends one matrix."""
    groups: dict = {}
    for p in items:
        groups.setdefault(tuple(map(id, _coefficients(p.request))), []).append(p)
    return list(groups.values())


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
        # the partial (timer-flushed) window in flight, if any, and the
        # groups whose timers fired while it ran, oldest first
        self._partial: asyncio.Future | None = None
        self._held: deque = deque()
        self._closed = False
        self._executor: ThreadPoolExecutor | None = None
        self._executor_lock = threading.Lock()
        # (digest, fragments, check) -> bound session
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
        when admission control sheds the request, and shape, dtype and
        option errors at once (see :meth:`submit_nowait`); a content
        error — a non-finite value or a zero pivot under
        ``check=True`` — raises the ``ValueError`` a direct solve
        would, from the await.
        """
        return await self.submit_nowait(a, b, c, d, tenant=tenant, **opts)

    def submit_nowait(
        self, a, b, c, d, *, tenant: str = "default", **opts
    ) -> asyncio.Future:
        """Admit a fragment and return the future of its result.

        Must be called on the service's event loop (``submit`` is the
        awaitable veneer; :class:`~repro.service.sync.SyncSolveClient`
        is the cross-thread one).  Admission is synchronous and O(1)
        per array beyond coercion: shape, dtype and option errors and
        :class:`ServiceOverloaded` raise here.  The content checks of
        ``check=True`` (finiteness, pads, pivots) run on the dispatch
        thread over the whole window, so their ``ValueError`` arrives
        through this fragment's future, and no other fragment's.
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
        # the shape half only: the window runs the content half
        check = opts.pop("check", True)
        request = SolveRequest.build(a, b, c, d, check=False, **opts)
        request.check = check
        rows = request.m
        if self._pending_rows + rows > self.config.max_pending_rows:
            self.stats.record_shed(tenant)
            raise ServiceOverloaded(
                self._pending_rows, self.config.max_pending_rows, rows
            )
        key, solo = self._classify(request)
        self.stats.record_admitted(tenant, rows)
        self._pending_rows += rows
        future = loop.create_future()
        pending = _Pending(request, future, tenant, time.perf_counter())

        bucket = self._buckets.get(key)
        if bucket is None:
            bucket = _Bucket(key, solo)
            self._buckets[key] = bucket
        bucket.items.append(pending)
        bucket.rows += rows
        if solo or bucket.rows >= self.config.max_batch_rows:
            self._flush(bucket, cause="size" if not solo else "solo")
        elif bucket.timer is None and not bucket.held:
            bucket.timer = loop.call_later(
                self.config.max_wait_us * 1e-6, self._flush_timer, bucket
            )
        return future

    @staticmethod
    def _classify(request: SolveRequest):
        """``(group key, solo)`` for one fragment.

        Two fragments may coalesce only when every axis that shapes the
        frozen plan — and therefore the bits of the answer — agrees.
        The key reads no array: ``fingerprint=True`` fragments of
        different matrices share a window, which splits itself by
        digest on the dispatch thread (:meth:`_parts`).
        Fragments whose unset ``k`` cannot be pinned to 0 unambiguously
        (``fuse=True``, a hybrid plan option) go solo.
        """
        if request.k is None and request.fuse:
            return ("solo", _solo_counter()), True
        key = (
            request.n,
            request.dtype,
            request.system,
            request.periodic,
            request.k,
            request.fuse,
            request.ranks,
            request.fingerprint,
            request.rtol,
            request.check,
        )
        return key, False

    # ---- flushing -----------------------------------------------------
    def _flush_timer(self, bucket: _Bucket) -> None:
        """A group's wait is up: flush it, unless a partial window is in
        flight — then hold it open until that window finishes."""
        bucket.timer = None
        if self._buckets.get(bucket.key) is not bucket:
            return
        if self._partial is not None:
            bucket.held = True
            self._held.append(bucket)
        else:
            self._flush(bucket, cause="timer")

    def _partial_done(self, fut) -> None:
        """The partial window finished: flush the oldest held group that
        is still open (a held group may have size-flushed or drained).

        Runs as the window's done-callback, which the loop schedules
        after ``_deliver`` has woken the window's callers — so they
        have resubmitted into the open groups by now, and ride along.
        """
        self._partial = None
        while self._held:
            bucket = self._held.popleft()
            if self._buckets.get(bucket.key) is bucket:
                self.stats.record_held()
                self._flush(bucket, cause="timer")
                return

    def _flush(self, bucket: _Bucket, *, cause: str) -> None:
        """Detach ``bucket`` and hand its fragments to the executor.

        A ``"timer"`` window becomes the partial window in flight.
        """
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
        if cause == "timer":
            self._partial = fut
            fut.add_done_callback(self._partial_done)

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
        """One window, on a dispatch thread: check it, split it, solve.

        :meth:`_parts` runs the window's content checks and digests; a
        window that fails its check re-checks its fragments one by one
        (:meth:`_refuse`), and the fragments that pass solve as the
        window would have.
        """
        items = bucket.items
        self.stats.record_flush(cause)
        try:
            verify = items[0].request.check
            try:
                parts = self._parts(bucket, items, verify)
            except ValueError:
                if not verify:
                    raise
                items, refused = self._refuse(items)
                for p, exc in refused:
                    self._fail([p], exc)
                parts = self._parts(bucket, items, False) if items else []
        except BaseException as exc:  # delivered, not swallowed
            self._fail(items, exc)
            return
        for part in parts:
            self._solve(*part)

    def _solve(self, items, request, digest, d) -> None:
        """Solve one part of a window and deliver its rows: a digest
        part (:meth:`_digest_parts`) steps the bound session of its
        digest, any other part dispatches its request."""
        try:
            if digest is None:
                outcome = self._execute(request)
                rows, shared = request.m, False
            else:
                session = self._shared_session(digest, request, len(items))
                outcome = self._execute_session(session, d)
                rows, shared = session.request.m, True
            self.stats.record_dispatch(
                {p.tenant for p in items}, rows, outcome.trace, shared=shared
            )
            self._loop.call_soon_threadsafe(
                self._deliver, items, outcome.x, None
            )
        except BaseException as exc:  # delivered, not swallowed
            self._fail(items, exc)

    def _fail(self, items, exc) -> None:
        for p in items:
            self.stats.record_failed(p.tenant)
        self._loop.call_soon_threadsafe(self._deliver, items, None, exc)

    def _parts(self, bucket: _Bucket, items, verify: bool) -> list:
        """The window as ``(items, request, digest, d)`` parts to solve,
        content-checked when ``verify``.

        A ``fingerprint=True`` window splits by coefficient digest: into
        shared-path parts (:meth:`_digest_parts`) where that path serves
        it, into one concatenated request per matrix otherwise
        (:meth:`_by_digest`).  Every other window is one part: its
        concatenated request, checked once.
        """
        first = items[0].request
        pin_k = first.k is None and not bucket.solo
        if first.fingerprint is not True:
            groups = [items]
        elif self._shared_eligible(first, pin_k):
            return self._digest_parts(items, verify)
        else:
            groups = self._by_digest(items)
        parts = []
        for group in groups:
            request = self._coalesced_request(group, pin_k)
            if verify:
                request = request.checked()
            parts.append((group, request, None, None))
        return parts

    @staticmethod
    def _digest_parts(items, verify: bool) -> list:
        """One ``(items, request, digest, d)`` part per coefficient digest.

        Each matrix (:func:`_by_matrix`) is checked with the right-hand
        sides it carries and digested once, from the checked arrays the
        shared path factors; matrices with equal digests — one matrix in
        different arrays — share a part.  ``request`` is the part's
        first fragment with the checked coefficients; ``d`` stacks the
        part's right-hand sides in ``items`` order.
        """
        parts: dict = {}
        for members in _by_matrix(items):
            request = members[0].request.replace(
                d=_stacked([p.request.d for p in members])
            )
            if verify:
                request = request.checked()
            digest = coefficient_fingerprint(*_coefficients(request))
            part = parts.get(digest)
            if part is None:
                parts[digest] = (request, members, [request.d])
            else:
                part[1].extend(members)
                part[2].append(request.d)
        return [
            (members, request, digest, _stacked(ds))
            for digest, (request, members, ds) in parts.items()
        ]

    @staticmethod
    def _by_digest(items) -> list:
        """A ``fingerprint=True`` window the shared path does not serve
        (periodic, banded, pinned ``k > 0``, ``ranks > 1``), split into
        one group of fragments per coefficient digest.

        Each matrix's fragments then concatenate on their own, so the
        engine's fingerprint cache meets one matrix's aggregate shape,
        and hits whenever that matrix's fragment count repeats.  The
        digest here only groups: it is taken before the content check,
        and the engine digests the arrays it factors.
        """
        groups: dict = {}
        for members in _by_matrix(items):
            digest = coefficient_fingerprint(*_coefficients(members[0].request))
            groups.setdefault(digest, []).extend(members)
        return list(groups.values())

    @staticmethod
    def _refuse(items) -> tuple:
        """Check a window's fragments one by one: ``(good, refused)``,
        the good fragments with checked requests, each refused one with
        its own ``ValueError``."""
        good, refused = [], []
        for p in items:
            try:
                p.request = p.request.checked()
            except ValueError as exc:
                refused.append((p, exc))
            else:
                good.append(p)
        _log.warning(
            "window of %d rows failed its content check: %d of %d "
            "fragments refused",
            sum(p.request.m for p in items), len(refused), len(items),
        )
        return good, refused

    @staticmethod
    def _coalesced_request(items, pin_k: bool) -> SolveRequest:
        """The one request a window of ``items`` executes as.

        Unset ``k`` on groupable fragments is pinned to 0 — the bitwise
        anchor of the whole tier.
        """
        first = items[0].request
        if len(items) == 1:
            return first.replace(k=0) if pin_k else first
        # every other field — the group key agrees on all that shape the
        # answer — rides over from the first fragment unchanged
        cat = {
            name: np.concatenate([getattr(p.request, name) for p in items])
            for name in ("e", "a", "b", "c", "f", "d")
            if getattr(first, name) is not None
        }
        return first.replace(
            **cat, m=len(cat["d"]), k=0 if pin_k else first.k, out=None
        )

    def _shared_eligible(self, first: SolveRequest, pin_k: bool) -> bool:
        """May this ``fingerprint=True`` window run the tiled RHS-only
        dispatch?

        Plain tridiagonal ``k = 0`` only, with an engine to factor on:
        that is where the stored :class:`ThomasRhsFactorization` is
        bitwise-identical to the cold solve, and tiling it along the
        batch axis is a pure column-block repeat.  Periodic and banded
        windows concatenate each matrix's fragments instead
        (:meth:`_by_digest`; the engine's own fingerprint cache serves
        them at that aggregate shape), and so do ``ranks > 1`` windows,
        which the engine does not serve.
        """
        k_eff = 0 if pin_k else first.k
        return (
            first.system.kind == "tridiagonal"
            and not first.periodic
            and k_eff == 0
            and (first.ranks or 1) == 1
            and self._shared_engine() is not None
        )

    def _shared_session(self, digest: str, first: SolveRequest, reps: int):
        """Digest path: a bound session over the tiled factorization.

        The ``reps`` fragments of a digest part carry one matrix (the
        digest hashes shape + content), so the coalesced elimination
        state is ``first``'s ``(N, m)`` factorization repeated along
        the batch axis — fetched from (or built into) the engine's
        factorization cache once, tiled once, and **bound once**: the
        session holding the tiled factorization, frozen aggregate plan,
        and pinned route is LRU-cached, so every later window of the
        same digest and fragment count steps the existing session.
        """
        key = (digest, reps, first.check)
        with self._sessions_lock:
            session = self._sessions.get(key)
            if session is not None:
                self._sessions.move_to_end(key)
        if session is None:
            session = self._bind_shared(digest, first, reps)
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
        return session

    def _bind_shared(self, digest: str, first: SolveRequest, reps: int):
        """Build the bound session behind one digest-window shape.

        The RHS-only template request (no ``d`` — each window supplies
        its own) resolves through the registry like any coalesced
        dispatch, so the route decision is pinned at bind time and the
        adaptive router still sees the aggregate shape; backends
        without a native ``bind`` get the generic per-step-dispatch
        session.
        """
        engine = self._shared_engine()
        m_frag = first.m
        plan_frag = engine.plan_for(m_frag, first.n, np.dtype(first.dtype), k=0)
        # a k = 0 plan factors into a ThomasRhsFactorization
        fact, _ = engine.factorization_for(
            plan_frag, digest, first.a, first.b, first.c
        )
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
        of ``reps`` concatenated fragments.  Width-1 state (a uniform
        fragment's, or a one-row fragment's) already serves every batch
        width and passes through untiled.  Not cached: it runs only
        when binding a session, and the session keeps the result.
        """
        if reps == 1 or fact.m == 1:
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
            "tile_cache": self.config.tile_cache,
        }
        desc["pending_rows"] = self._pending_rows
        with self._sessions_lock:
            desc["bound_sessions"] = len(self._sessions)
            desc["bound_session_bytes"] = sum(
                s.request.factorization.nbytes for s in self._sessions.values()
            )
        return desc

    @property
    def pending_rows(self) -> int:
        """Rows admitted but not yet delivered (the backpressure gauge)."""
        return self._pending_rows

    # ---- lifecycle ----------------------------------------------------
    async def drain(self) -> None:
        """Flush every open window, held ones included, and wait for
        in-flight dispatches."""
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
