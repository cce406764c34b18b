"""Bound solve sessions: bind once, step many times.

The engine's classic entrypoint, :meth:`ExecutionEngine.run
<repro.engine.engine.ExecutionEngine.run>`, pays its full dispatch cost
on every call — plan lookup, fingerprint phase, stage-list and trace
construction, stats lock traffic.  For one-shot solves that cost is
noise; for a time-stepping loop issuing thousands of right-hand sides
against one fixed matrix it is the dominant overhead (the motivating
workloads — ADI, Crank–Nicolson — are exactly this shape).

:class:`BoundSolve` splits the spine into **bind** and **execute**:

* ``engine.bind(request)`` performs validation-independent setup once —
  plan resolution, the fingerprint/factorization phase, workspace and
  shard-geometry binding, trace-template capture — and returns a
  session.
* :meth:`BoundSolve.step` is the allocation-free per-step hot loop: a
  canonical-input scan, a direct factorization sweep into session-owned
  buffers, no stats, no trace, no stage lists.
* :meth:`BoundSolve.step_once` is the fully-instrumented execution —
  stats, stages, :class:`~repro.backends.trace.SolveTrace` — and is how
  the single-call path is expressed: ``ExecutionEngine.run`` is
  literally ``bind(request, transient=True).step_once()``, so every
  pre-existing dispatch route flows through this module bitwise
  unchanged.

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
from repro.engine.executor import shard_bounds
from repro.engine.prepared import (
    coefficient_fingerprint,
    rtol_permits_hybrid_reuse,
)

__all__ = ["BoundSolve"]


class BoundSolve:
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
        itself — runs its ``solve_shard`` over the bound batch shards.
        Every kind in :data:`~repro.engine.prepared.FACTORIZATION_KINDS`
        rides this one path.
    **full**
        No factorization is licensed or cached: the full hybrid plan
        runs every step (periodic systems corner-reduce and correct
        around two inner solves).

    ``mode`` labels the bound path for :meth:`describe`: ``"rhs"``,
    ``"cyclic"`` or ``"banded"`` (factored), ``"full"`` or
    ``"full-cyclic"``.
    """

    def __init__(self, engine, request, *, transient: bool = False):
        self.engine = engine
        self.request = request
        self.transient = transient
        self.steps = 0
        self.closed = False
        self.bind_stages: list = []
        self._ws = None
        self._out = None
        self._out_t = None
        self._cyc = None
        system = request.system
        self._bind(request)
        workers = request.workers
        shards = (
            shard_bounds(request.m, workers)
            if workers is not None and workers > 1
            else [(0, request.m)]
        )
        self._shards = shards if len(shards) > 1 else None
        self._dtype = self.plan.dtype
        if system.kind == "block":
            self._dshape = (request.m, request.n, system.block_size)
        else:
            self._dshape = (request.m, request.n)
        sweep = "rhs-only" if self._served else "sweep"
        shard_note = f" [{len(shards)} shards]" if len(shards) > 1 else ""
        self._stage = f"{sweep} {self._label}{shard_note}"

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
        if d is None:
            d = request.d
        if out is None:
            out = request.out
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
                if self._shards is not None:
                    engine.stats.sharded_solves += 1
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

        workers = request.workers
        trace = SolveTrace(
            backend=request.label or "engine",
            m=request.m,
            n=request.n,
            dtype=request.dtype,
            k=plan.k,
            k_source=plan.k_source,
            fuse=plan.fuse,
            n_windows=plan.n_windows,
            workers=workers if workers is not None else 1,
            plan_cache=self.cache,
            factorization=self.fp_state,
            rhs_only=self._served,
            periodic=request.periodic,
            system=request.system.kind,
            stages=[StageTiming(n_, s) for n_, s in stage_times],
        )
        trace.decision = request.decision
        self.steps += 1
        kept = self.fact if self._served else None
        return SolveOutcome(x=x, trace=trace, factorization=kept, plan=plan)

    def _solve_factored(self, d, out, stage_times):
        """The instrumented factored sweep, on a pooled workspace that is
        back in the pool before this returns (transient sessions are
        never closed)."""
        if out is None:
            out = np.empty(self._dshape, dtype=self._dtype)
        fact = self.fact
        ws = self.engine.checkout_prepared(self.plan) if self._pooled else None
        try:
            t0 = time.perf_counter()
            core = getattr(fact, "core", None)
            if core is None:
                self._run_shards(fact.solve_shard, ws, d, out)
                stage_times.append((self._stage, time.perf_counter() - t0))
            else:
                # a wrapped core is timed apart from its correction:
                # gpusim pairs both stages with its predictions by position
                y = self._run_shards(core.solve_shard, ws, d, ws.cyclic_y())
                t1 = time.perf_counter()
                stage_times.append((self._stage, t1 - t0))
                fact.correct(y, out, 0, self.request.m)
                stage_times.append(
                    ("cyclic-correction", time.perf_counter() - t1)
                )
        finally:
            if ws is not None:
                self.engine.checkin_prepared(self.plan, ws)
        return out

    def _solve_full(self, d, out, stage_times=None, counters=None):
        """The full plan; periodic systems corner-reduce, solve
        ``A' y = d`` and ``A' q = u``, and apply the rank-one correction.

        The hot loop (``stage_times=None``) reuses the coefficient-only
        cyclic state; an instrumented step recomputes it, so its stages
        and stats match a one-shot solve.
        """
        request = self.request
        if not request.periodic:
            return self._solve_plan(
                request.a, request.b, request.c, d,
                out=out, counters=counters, stage_times=stage_times,
            )
        if stage_times is None:
            ap, bp, cp, w, q, scale = self._cyclic_state()
            y = self._solve_plan(ap, bp, cp, d)
            return apply_cyclic_correction(y, q, w, scale, out=out)
        t0 = time.perf_counter()
        ap, bp, cp, u, w = cyclic_reduce(
            request.a, request.b, request.c, check=request.check
        )
        stage_times.append(("cyclic-reduce", time.perf_counter() - t0))
        y = self._solve_plan(ap, bp, cp, d, stage_times=stage_times)
        q = self._solve_plan(ap, bp, cp, u, stage_times=stage_times)
        t1 = time.perf_counter()
        scale = correction_scale(
            correction_denominator(q, w), request.n, check=request.check
        )
        x = apply_cyclic_correction(y, q, w, scale, out=out)
        stage_times.append(("cyclic-correction", time.perf_counter() - t1))
        return x

    def _solve_plan(self, a, b, c, d, *, out=None, counters=None,
                    stage_times=None):
        """One execution of the bound plan, sharded when ``workers > 1``."""
        workers = self.request.workers
        if workers is not None and workers > 1:
            return self.engine.solve_sharded(
                self.plan, workers, a, b, c, d,
                counters=counters, out=out, stage_times=stage_times,
            )
        return self.engine.execute_pooled(
            self.plan, a, b, c, d,
            counters=counters, out=out, stage_times=stage_times,
        )

    def _cyclic_state(self):
        """Reduced cyclic state, computed once per session.

        ``cyclic_reduce`` and the correction column depend only on the
        bound coefficients, so recomputing them per step would produce
        the same bits — caching is free of bitwise risk.
        """
        if self._cyc is None:
            request = self.request
            ap, bp, cp, u, w = cyclic_reduce(
                request.a, request.b, request.c, check=request.check
            )
            q = self._solve_plan(ap, bp, cp, u)
            scale = correction_scale(
                correction_denominator(q, w), request.n, check=request.check
            )
            self._cyc = (ap, bp, cp, w, q, scale)
        return self._cyc

    # ---- hot loop ----------------------------------------------------
    def _canon_d(self, d):
        """The per-step input scan: canonical arrays pass untouched."""
        if not (
            type(d) is np.ndarray
            and d.dtype == self._dtype
            and d.flags.c_contiguous
        ):
            d = np.ascontiguousarray(d, dtype=self._dtype)
        if d.shape != self._dshape:
            raise ValueError(
                f"d has shape {d.shape}, session bound for {self._dshape}"
            )
        return d

    def _workspace(self):
        """The session-held RHS-only workspace (``None`` for banded)."""
        if self._ws is None and self._pooled:
            self._ws = self.engine.checkout_prepared(self.plan)
        return self._ws

    def _run_shards(self, solve_shard, ws, d, out):
        """``solve_shard(ws, d, out, lo, hi)`` over the bound shards."""
        shards = self._shards
        if shards is None:
            solve_shard(ws, d, out, 0, self.request.m)
        else:
            pool = self.engine.thread_pool(len(shards))
            list(pool.map(lambda s: solve_shard(ws, d, out, *s), shards))
        return out

    def step(self, d, out=None):
        """The allocation-free per-step hot loop.

        Canonical-input scan, direct factorization sweep, session-owned
        output buffer when ``out`` is omitted (reused across steps —
        copy it if you keep references).  No stats, no stages, no trace:
        instrumentation belongs to :meth:`step_once`.  Bitwise identical
        to an independent one-shot solve of the same system wherever the
        one-shot path makes that promise (every ``k = 0`` route, all
        banded routes).
        """
        if self.closed:
            raise RuntimeError("session is closed")
        d = self._canon_d(d)
        if out is None:
            out = self._out
            if out is None:
                out = self._out = np.empty(self._dshape, dtype=self._dtype)
        if self.fact is None:
            self._solve_full(d, out)
        else:
            self._run_shards(self.fact.solve_shard, self._workspace(), d, out)
        self.steps += 1
        return out

    def step_t(self, dt, out_t=None):
        """Transposed-layout hot step: ``(N, M)`` in, ``(N, M)`` out.

        A factorization with a transposed sweep (``solve_shard_t`` —
        :class:`~repro.engine.prepared.ThomasRhsFactorization`) reads
        the right-hand side straight from the caller's ``(N, M)``
        array, so a session whose caller already holds it in that
        orientation — the natural one of an alternating-direction
        sweep — skips both staging transposes of :meth:`step` (bitwise
        identical to :meth:`step` on the transposed arrays: only copies
        are elided, never arithmetic).  Every other session
        canonicalizes through :meth:`step` with explicit transposes.
        ``out_t`` defaults to a session-owned buffer reused across
        steps — copy it if you keep references.
        """
        if self.closed:
            raise RuntimeError("session is closed")
        if len(self._dshape) != 2:
            raise ValueError(
                "step_t is defined for (M, N) sessions, not block systems"
            )
        m, n = self._dshape
        if not (
            type(dt) is np.ndarray
            and dt.dtype == self._dtype
            and dt.flags.c_contiguous
        ):
            dt = np.ascontiguousarray(dt, dtype=self._dtype)
        if dt.shape != (n, m):
            raise ValueError(
                f"dt has shape {dt.shape}, session bound for {(n, m)}"
            )
        if out_t is None:
            out_t = self._out_t
            if out_t is None:
                out_t = self._out_t = np.empty((n, m), dtype=self._dtype)
        solve_shard_t = getattr(self.fact, "solve_shard_t", None)
        if solve_shard_t is None:
            x = self.step(np.ascontiguousarray(dt.T))
            out_t[:] = x.T
            return out_t
        self._run_shards(solve_shard_t, self._workspace(), dt, out_t)
        self.steps += 1
        return out_t

    # ---- lifecycle ---------------------------------------------------
    @property
    def m(self) -> int:
        return self.request.m

    @property
    def n(self) -> int:
        return self.request.n

    @property
    def dtype(self) -> np.dtype:
        return self._dtype

    def describe(self) -> dict:
        """Session summary: mode, plan, factorization state, step count."""
        return {
            "mode": self.mode,
            "transient": self.transient,
            "m": self.request.m,
            "n": self.request.n,
            "dtype": np.dtype(self._dtype).name,
            "k": self.plan.k,
            "plan_cache": self.cache,
            "factorization": self.fp_state,
            "workers": self.request.workers,
            "steps": self.steps,
        }

    def close(self) -> None:
        """Return held workspaces to the engine pool; drop buffers."""
        if self.closed:
            return
        self.closed = True
        if self._ws is not None:
            self.engine.checkin_prepared(self.plan, self._ws)
            self._ws = None
        self._out = None
        self._out_t = None

    def __enter__(self) -> "BoundSolve":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
