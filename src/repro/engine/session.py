"""Bound solve sessions: bind once, step many times.

The engine's classic entrypoint, :meth:`ExecutionEngine.run
<repro.engine.engine.ExecutionEngine.run>`, pays its full dispatch cost
on every call — plan lookup, fingerprint phase, stage-list and trace
construction, stats lock traffic.  For one-shot solves that cost is
noise; for a time-stepping loop issuing thousands of right-hand sides
against one fixed matrix it is the dominant overhead (the motivating
workloads — ADI, Crank–Nicolson — are exactly this shape).

:class:`Session` is the one session contract every backend's session
shares — :class:`BoundSolve` here, the distributed tier's
:class:`~repro.distributed.backend.DistributedBoundSolve`, the
generic :class:`~repro.backends.base.PerStepSession` and the bound
Sherman–Morrison :class:`~repro.backends.base.CyclicSession`.  It owns
the input scan (one dtype, C order, the bound shape; a mismatch is a
``ValueError`` naming both shapes), the same check of a caller's
``out``/``out_t`` (the bound shape and dtype, any layout), the closed
check, the session-owned ``out``/``out_t`` buffers, the ``step_t``
staging fallback, the common :meth:`~Session.describe` keys, an idempotent
``close()`` and the context manager.  A subclass supplies only how one
right-hand side runs, its instrumented ``step_once``, its extra
``describe()`` keys and what ``close()`` releases.

:class:`BoundSolve` splits the engine's spine into **bind** and
**execute**:

* ``engine.bind(request)`` performs validation-independent setup once —
  plan resolution, the fingerprint/factorization phase (or, on the
  full cyclic path, the corner reduction and correction column),
  workspace binding, trace-template capture — and returns a session.
* :meth:`Session.step` is the allocation-free per-step hot loop: a
  canonical-input scan, a direct factorization sweep into session-owned
  buffers, no stats, no trace, no stage lists.
* :meth:`BoundSolve.step_once` is the fully-instrumented execution —
  stats, stages, :class:`~repro.backends.trace.SolveTrace` — and is how
  the single-call path is expressed: ``ExecutionEngine.run`` is
  literally ``bind(request, transient=True).step_once()``, so every
  pre-existing dispatch route flows through this module bitwise
  unchanged.  It borrows a pooled workspace per call and never touches
  the session-held one, so threads may share one session's
  ``step_once``.

``transient=True`` reproduces the one-shot lifecycle exactly (the
fingerprint two-sighting ledger, ``force`` only on explicit
``fingerprint=True``).  A persistent bind declares reuse intent: when
the fingerprint gate admits the plan at all, the factorization is
forced at bind time so the first step already runs RHS-only.  Plans the
gate rejects (``k > 0`` without an ``rtol``/``fingerprint=True``
license) execute the full plan every step — the bitwise contract is
never traded for session speed.
"""

from __future__ import annotations

import functools
import time

import numpy as np

from repro.core.blocktridiag import BlockThomasFactorization
from repro.core.hybrid import HybridReport
from repro.core.pentadiag import PentaFactorization
from repro.core.periodic import (
    apply_cyclic_correction,
    correction_denominator,
    correction_scale,
    cyclic_reduce,
    refuse_singular,
)
from repro.core.tiled_pcr import TilingCounters
from repro.core.validation import check_out
from repro.engine.executor import execute_plan
from repro.engine.prepared import (
    coefficient_fingerprint,
    rtol_permits_hybrid_reuse,
)
from repro.engine.workspace import PreparedWorkspace

__all__ = ["BoundSolve", "Session"]


class Session:
    """The bound-session contract: bind once, step many times.

    A session is bound for one request's right-hand-side shape —
    ``(M, N)``, or ``(M, N, B)`` for block systems — taken from the
    request's ``m``/``n``/block size, never from its ``d`` (RHS-only
    templates carry none).  This base owns everything that does not
    depend on how a right-hand side runs (see the module docs); a
    subclass implements

    * ``_step(d, out)`` — solve the canonical right-hand side ``d``
      into ``out``;
    * optionally ``_step_t(dt, out_t)`` — a native ``(N, M)`` path
      (the default stages through ``_step`` with explicit transposes);
    * ``step_once(d=None, out=None)`` — the instrumented step, which
      must stay reentrant: it may run on several threads at once, so
      it never uses the session-held buffers or workspaces;
    * ``_release()`` — what :meth:`close` gives back.
    """

    mode = "session"

    def __init__(self, request):
        self.request = request
        self.steps = 0
        self.closed = False
        self._dtype = np.dtype(request.dtype)
        self._dshape = (request.m, request.n)
        if request.system.kind == "block":
            self._dshape += (request.system.block_size,)
        self._out = None
        self._out_t = None

    @property
    def m(self) -> int:
        return self.request.m

    @property
    def n(self) -> int:
        return self.request.n

    @property
    def dtype(self) -> np.dtype:
        return self._dtype

    def _canon(self, d, shape, name="d"):
        """The per-step input scan: canonical arrays pass untouched."""
        if not (
            type(d) is np.ndarray
            and d.dtype == self._dtype
            and d.flags.c_contiguous
        ):
            d = np.ascontiguousarray(d, dtype=self._dtype)
        if d.shape != shape:
            raise ValueError(
                f"{name} has shape {d.shape}, session bound for {shape}"
            )
        return d

    def _once_args(self, d, out):
        """``step_once``'s ``(d, out)``: the bound request's arrays by
        default (``SolveRequest.build`` checked them), a passed ``d``
        or ``out`` scanned like a step's."""
        request = self.request
        d = request.d if d is None else self._canon(d, self._dshape)
        if out is None:
            return d, request.out
        return d, check_out(out, self._dshape, self._dtype)

    def _buffer(self):
        """The session-owned ``(M, N[, B])`` output, reused across steps."""
        if self._out is None:
            self._out = np.empty(self._dshape, dtype=self._dtype)
        return self._out

    def step(self, d, out=None):
        """The per-step hot loop: one right-hand side, no instrumentation.

        ``d`` is scanned (one dtype, C order, the bound shape) and
        solved into ``out`` — a caller's array of the bound shape and
        dtype, or by default a session-owned buffer reused across
        steps (copy it if you keep references).  No
        stats, no stages, no trace: instrumentation belongs to
        ``step_once``.
        """
        if self.closed:
            raise RuntimeError("session is closed")
        d = self._canon(d, self._dshape)
        if out is None:
            out = self._buffer()
        else:
            check_out(out, self._dshape, self._dtype)
        self._step(d, out)
        self.steps += 1
        return out

    def step_t(self, dt, out_t=None):
        """Transposed-layout hot step: ``(N, M)`` in, ``(N, M)`` out.

        Bitwise ``step(dtᵀ)ᵀ``.  A session with a native transposed
        path reads ``dt`` in place; every other one stages through
        :meth:`step`'s path with explicit transposes (one step either
        way).  ``out_t`` defaults to a session-owned buffer reused
        across steps — copy it if you keep references.
        """
        if self.closed:
            raise RuntimeError("session is closed")
        if len(self._dshape) != 2:
            raise ValueError(
                "step_t is defined for (M, N) sessions, not block systems"
            )
        m, n = self._dshape
        dt = self._canon(dt, (n, m), "dt")
        if out_t is None:
            out_t = self._out_t
            if out_t is None:
                out_t = self._out_t = np.empty((n, m), dtype=self._dtype)
        else:
            check_out(out_t, (n, m), self._dtype, "out_t")
        self._step_t(dt, out_t)
        self.steps += 1
        return out_t

    def _step(self, d, out) -> None:
        """Solve the canonical right-hand side ``d`` into ``out``."""
        raise NotImplementedError

    def _step_t(self, dt, out_t) -> None:
        """The staging fallback: transposes around :meth:`_step`."""
        x = self._buffer()
        self._step(np.ascontiguousarray(dt.T), x)
        out_t[:] = x.T

    def describe(self) -> dict:
        """Session summary: bound path, shape, dtype and step count."""
        return {
            "mode": self.mode,
            "m": self.request.m,
            "n": self.request.n,
            "dtype": self._dtype.name,
            "steps": self.steps,
        }

    def close(self) -> None:
        """Release what the session holds and drop its buffers
        (idempotent)."""
        if self.closed:
            return
        self.closed = True
        self._release()
        self._out = None
        self._out_t = None

    def _release(self) -> None:
        """What :meth:`close` gives back beyond the buffers."""

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class BoundSolve(Session):
    """One bound solve session: frozen plan + factorization + buffers.

    Produced by :meth:`ExecutionEngine.bind
    <repro.engine.engine.ExecutionEngine.bind>`; see the module docs
    for the bind/execute contract.  Sessions are cheap enough to be
    built per call (the transient path) and rich enough to drive a
    multi-thousand-step simulation (the persistent path).

    Bind fixes one of two execution paths:

    **factored**
        A stored factorization — an explicit prepared handle, a
        fingerprint-cache entry, or the sweep a banded bind builds for
        itself — runs its ``solve_shard`` over the whole batch.  Every
        kind in :data:`~repro.engine.prepared.FACTORIZATION_KINDS`
        rides this one path.
    **full**
        No factorization is licensed or cached: the full hybrid plan
        runs every step.  A periodic system corner-reduces and solves
        its correction column ``A' q = u`` once, at bind; each step
        solves ``A' y = d`` and applies the rank-one correction.

    ``mode`` labels the bound path for :meth:`describe`: ``"rhs"``,
    ``"cyclic"`` or ``"banded"`` (factored), ``"full"`` or
    ``"full-cyclic"``.
    """

    def __init__(self, engine, request, *, transient: bool = False):
        super().__init__(request)
        self.engine = engine
        self.transient = transient
        self.bind_stages: list = []
        self._ws = None
        self._cyc = None
        self._bind(request)
        if self.fact is None and request.periodic:
            self._bind_cyclic()
        sweep = "rhs-only" if self._served else "sweep"
        self._stage = f"{sweep} {self._label}"

    # ---- bind phase --------------------------------------------------
    def _bind(self, request) -> None:
        """Plan, fingerprint and factorization phase; fixes the path."""
        system = request.system
        info: dict = {}
        t0 = time.perf_counter()
        if request.plan is not None:
            plan, cache = request.plan, "hit"
        else:
            plan = self.engine.plan_for(
                request.m,
                request.n,
                np.dtype(request.dtype),
                k=request.k,
                fuse=request.fuse,
                n_windows=request.n_windows,
                subtile_scale=request.subtile_scale,
                parallelism=request.parallelism,
                heuristic=request.heuristic,
                info=info,
                system=system.tag,
            )
            cache = info.get("cache", "miss")
        self.bind_stages.append(("prepare", time.perf_counter() - t0))
        self.plan = plan
        self.cache = cache

        # banded kinds always sweep a factorization: the builder makes
        # one when the fingerprint cache does not serve it
        coeffs = (request.a, request.b, request.c)
        builder = None
        if system.kind == "pentadiagonal":
            coeffs = (request.e, *coeffs, request.f)
            builder = functools.partial(PentaFactorization.factor, *coeffs)
        elif system.kind == "block":
            builder = functools.partial(BlockThomasFactorization.factor, *coeffs)

        fingerprint = request.fingerprint
        if request.rhs_only:
            # prepared handle: the factorization rode in on the request
            fact, fp_state = request.factorization, "handle"
        else:
            fact = None
            fp_state = "off" if fingerprint is False else "n/a"
            licensed = fingerprint is not False and (
                plan.uses_thomas
                or fingerprint
                or rtol_permits_hybrid_reuse(request.rtol, plan.dtype)
            )
            if licensed:
                t_fp = time.perf_counter()
                digest = coefficient_fingerprint(*coeffs)
                self.bind_stages.append(
                    ("fingerprint", time.perf_counter() - t_fp)
                )
                # a persistent bind declares reuse intent, so the
                # factorization is forced whenever the gate admits the
                # plan at all; transient binds keep the classic
                # two-sighting auto lifecycle
                fact, fp_state = self.engine._factorization_for(
                    plan, digest, request.a, request.b, request.c,
                    force=not self.transient or fingerprint is True,
                    periodic=request.periodic,
                    check=request.check,
                    stage_times=self.bind_stages,
                    builder=builder,
                )
        self._served = fact is not None
        if fact is None and builder is not None:
            t_b = time.perf_counter()
            fact = builder()
            self.bind_stages.append(("factorize", time.perf_counter() - t_b))
        if request.periodic and request.check and fact is not None:
            refuse_singular(fact.singular)
        self.fact = fact
        self.fp_state = fp_state
        # banded sweeps allocate their own scratch: no pooled workspace
        self._pooled = builder is None
        self._label = system.tag or ("thomas" if plan.uses_thomas else "hybrid")
        self.count_solves = not request.rhs_only
        # a plain batch request publishes engine.last_report
        self._report_plain = not (
            request.rhs_only or request.periodic or builder is not None
        )
        if builder is not None:
            self.mode = "banded"
        elif request.periodic:
            self.mode = "cyclic" if fact is not None else "full-cyclic"
        else:
            self.mode = "rhs" if fact is not None else "full"

    def _bind_cyclic(self) -> None:
        """The full cyclic path's coefficient-only state, built once.

        ``cyclic_reduce``, the correction column ``A' q = u`` and the
        correction scale depend only on the bound coefficients, so the
        hot and the instrumented steps share them; the reduction and
        the q-solve are bind stages, and a singular correction raises
        here under ``check``.
        """
        request = self.request
        t0 = time.perf_counter()
        ap, bp, cp, u, w = cyclic_reduce(
            request.a, request.b, request.c, check=request.check
        )
        self.bind_stages.append(("cyclic-reduce", time.perf_counter() - t0))
        q = self._solve_plan(ap, bp, cp, u, stage_times=self.bind_stages)
        scale = correction_scale(
            correction_denominator(q, w), request.n, check=request.check
        )
        self._cyc = (ap, bp, cp, w, q, scale)

    # ---- instrumented execution --------------------------------------
    def step_once(self, d=None, out=None):
        """One fully-instrumented execution: stats + stages + trace.

        The single-call semantics of the classic ``ExecutionEngine.run``
        — every stat the one-shot path increments, every stage it
        records (bind stages included), the exact
        :class:`~repro.backends.trace.SolveTrace` schema — returned as
        a :class:`~repro.backends.request.SolveOutcome`.  ``d`` / ``out``
        default to the bound request's arrays.
        """
        from repro.backends.request import SolveOutcome
        from repro.backends.trace import SolveTrace, StageTiming

        engine = self.engine
        request = self.request
        plan = self.plan
        d, out = self._once_args(d, out)
        stage_times = list(self.bind_stages)
        counters = TilingCounters()
        if self.fact is None:
            x = self._solve_full(d, out, stage_times, counters)
        else:
            x = self._solve_factored(d, out, stage_times)
            with engine._lock:
                if self.count_solves:
                    engine.stats.solves += 1
                if self._served:
                    engine.stats.rhs_only_solves += 1
        if self._report_plain:
            engine.last_report = HybridReport(
                m=request.m,
                n=request.n,
                k=plan.k,
                k_source=plan.k_source,
                subsystems=request.m * plan.g,
                fused=plan.fuse,
                n_windows=plan.n_windows,
                tiling=counters,
            )

        trace = SolveTrace(
            backend=request.label or "engine",
            m=request.m,
            n=request.n,
            dtype=request.dtype,
            k=plan.k,
            k_source=plan.k_source,
            fuse=plan.fuse,
            n_windows=plan.n_windows,
            plan_cache=self.cache,
            factorization=self.fp_state,
            rhs_only=self._served,
            periodic=request.periodic,
            system=request.system.kind,
            stages=[StageTiming(n_, s) for n_, s in stage_times],
        )
        trace.decision = request.decision
        self.steps += 1
        return SolveOutcome(x=x, trace=trace)

    def _solve_factored(self, d, out, stage_times):
        """The instrumented factored sweep, on a workspace borrowed from
        the engine pool for this call alone: ``step_once`` is reentrant,
        so it never uses the session-held one."""
        if out is None:
            out = np.empty(self._dshape, dtype=self._dtype)
        fact = self.fact
        ws = (
            self.engine._checkout(self.plan, PreparedWorkspace)
            if self._pooled
            else None
        )
        try:
            t0 = time.perf_counter()
            core = getattr(fact, "core", None)
            if core is None:
                fact.solve_shard(ws, d, out)
                stage_times.append((self._stage, time.perf_counter() - t0))
            else:
                # a wrapped core is timed apart from its correction:
                # gpusim pairs both stages with its predictions by position
                y = ws.cyclic_y()
                core.solve_shard(ws, d, y)
                t1 = time.perf_counter()
                stage_times.append((self._stage, t1 - t0))
                fact.correct(y, out)
                stage_times.append(
                    ("cyclic-correction", time.perf_counter() - t1)
                )
        finally:
            if ws is not None:
                self.engine._checkin(self.plan, ws)
        return out

    def _solve_full(self, d, out, stage_times=None, counters=None):
        """The full plan; a periodic system solves ``A' y = d`` against
        the corner-reduced coefficients of :meth:`_bind_cyclic` and
        applies the rank-one correction."""
        request = self.request
        if self._cyc is None:
            return self._solve_plan(
                request.a, request.b, request.c, d,
                out=out, counters=counters, stage_times=stage_times,
            )
        ap, bp, cp, w, q, scale = self._cyc
        y = self._solve_plan(ap, bp, cp, d, stage_times=stage_times)
        t0 = time.perf_counter()
        x = apply_cyclic_correction(y, q, w, scale, out=out)
        if stage_times is not None:
            stage_times.append(("cyclic-correction", time.perf_counter() - t0))
        return x

    def _solve_plan(self, a, b, c, d, *, out=None, counters=None,
                    stage_times=None):
        """One execution of the bound plan on a pooled workspace; an
        instrumented call (``stage_times`` given) counts one solve."""
        if out is None:
            out = np.empty(self._dshape, dtype=self._dtype)
        engine = self.engine
        plan = self.plan
        ws = engine._checkout(plan)
        try:
            execute_plan(
                plan, ws, a, b, c, d,
                counters=counters, out=out, stage_times=stage_times,
            )
        finally:
            engine._checkin(plan, ws)
        if stage_times is not None:
            with engine._lock:
                engine.stats.solves += 1
        return out

    # ---- hot loop ----------------------------------------------------
    def _workspace(self):
        """The session-held RHS-only workspace (``None`` for banded)."""
        if self._ws is None and self._pooled:
            self._ws = self.engine._checkout(self.plan, PreparedWorkspace)
        return self._ws

    def _step(self, d, out) -> None:
        """A direct factorization sweep, or the full plan.

        Bitwise identical to an independent one-shot solve of the same
        system wherever the one-shot path makes that promise (every
        ``k = 0`` route, all banded routes).
        """
        if self.fact is None:
            self._solve_full(d, out)
        else:
            self.fact.solve_shard(self._workspace(), d, out)

    def _step_t(self, dt, out_t) -> None:
        """A factorization with a transposed sweep (``solve_shard_t`` —
        :class:`~repro.engine.prepared.ThomasRhsFactorization`) reads
        the caller's ``(N, M)`` right-hand side in place, skipping both
        staging transposes (only copies are elided, never arithmetic);
        every other session stages through :meth:`_step`."""
        solve_shard_t = getattr(self.fact, "solve_shard_t", None)
        if solve_shard_t is None:
            super()._step_t(dt, out_t)
        else:
            solve_shard_t(self._workspace(), dt, out_t)

    # ---- lifecycle ---------------------------------------------------
    def describe(self) -> dict:
        """Session summary: mode, plan, factorization state, step count."""
        return {
            **super().describe(),
            "transient": self.transient,
            "k": self.plan.k,
            "plan_cache": self.cache,
            "factorization": self.fp_state,
        }

    def _release(self) -> None:
        """Return the held workspace to the engine pool."""
        if self._ws is not None:
            self.engine._checkin(self.plan, self._ws)
            self._ws = None
