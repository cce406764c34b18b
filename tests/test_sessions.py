"""Bound sessions: bind once, step many — bitwise against one-shot.

The bind/execute split promises that a :class:`BoundSolve` (or any of
its siblings: the generic ``PerStepSession``, the distributed session)
is *pure orchestration*: stepping a sequence of right-hand sides
through one bound session produces, step for step, the **bitwise**
result of independent one-shot solves wherever the one-shot path makes
that promise (every ``k = 0`` route, all banded routes).  These tests
pin that contract across the four system kinds, both session paths
(factored and full), and the backend surface — the engine, the generic per-step fallback, the
service's shared-window sessions, and the distributed pipeline — plus
the transposed-layout ``step_t`` fast path and the session lifecycle.
Every session kind keeps the one ``Session`` contract (input scan,
session-owned buffers, ``step_t``, ``describe``, ``close``), and
``step_once`` stays reentrant across threads.
"""

from __future__ import annotations

import asyncio
import multiprocessing
import re
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.backends import bind_via, solve_via
from repro.backends.base import PerStepSession
from repro.backends.request import SolveRequest
from repro.engine import ExecutionEngine
from repro.engine.session import BoundSolve, Session
from repro.workloads.generators import (
    random_batch,
    random_block_batch,
    random_penta_batch,
)

from .conftest import BACKEND_ROWS

KINDS = ("plain", "cyclic", "penta", "block")


def _cyclic_batch(m, n, seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((m, n))
    c = rng.standard_normal((m, n))
    b = 4.0 + np.abs(a) + np.abs(c)
    d = rng.standard_normal((m, n))
    return a, b, c, d


def _make(kind, seed, backend="engine", fingerprint=None, **opts):
    """(session, one_shot(d), fresh_d()) for one system kind.

    ``opts`` ride on the bind only: the one-shot reference is the
    plain solve.
    """
    rng = np.random.default_rng(seed + 1000)
    if fingerprint is None:
        # fingerprinting negotiates only against prepared-capable
        # backends; bindless ones take the per-step-dispatch session
        fingerprint = backend == "engine"
    if kind == "plain":
        a, b, c, d = random_batch(4, 40, seed=seed)
        session = bind_via(
            a, b, c, d, backend=backend, k=0, fingerprint=fingerprint, **opts
        )
        one = lambda dd: solve_via(a, b, c, dd, backend=backend, k=0)[0]
        fresh = lambda: rng.standard_normal(d.shape)
    elif kind == "cyclic":
        a, b, c, d = _cyclic_batch(4, 40, seed)
        session = bind_via(
            a, b, c, d,
            backend=backend, periodic=True, k=0, fingerprint=fingerprint,
            **opts,
        )
        one = lambda dd: solve_via(
            a, b, c, dd, backend=backend, periodic=True, k=0
        )[0]
        fresh = lambda: rng.standard_normal(d.shape)
    elif kind == "penta":
        e, a, b, c, f, d = random_penta_batch(4, 40, seed=seed)
        session = bind_via(
            a, b, c, d, e=e, f=f, backend=backend, fingerprint=fingerprint,
            **opts,
        )
        one = lambda dd: solve_via(
            a, b, c, dd, e=e, f=f, backend=backend
        )[0]
        fresh = lambda: rng.standard_normal(d.shape)
    else:  # block
        A, B, C, d = random_block_batch(3, 12, block_size=2, seed=seed)
        session = bind_via(
            A, B, C, d, backend=backend, fingerprint=fingerprint, **opts
        )
        one = lambda dd: solve_via(A, B, C, dd, backend=backend)[0]
        fresh = lambda: rng.standard_normal(d.shape)
    return session, one, fresh


# ---------------------------------------------------------------------------
# the contract: step sequences == one-shot solves, bitwise
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("kind", KINDS)
@settings(max_examples=8, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    fingerprint=st.booleans(),
)
def test_step_sequence_matches_one_shot_bitwise(kind, seed, fingerprint):
    # fingerprint=False binds plain and cyclic systems on the full path
    # (banded kinds always sweep a factorization)
    session, one_shot, fresh_d = _make(kind, seed, fingerprint=fingerprint)
    with session:
        assert isinstance(session, BoundSolve)
        full = not fingerprint and kind in ("plain", "cyclic")
        assert (session.fact is None) == full
        for step in range(3):
            d = fresh_d()
            x = session.step(d)
            assert np.array_equal(x, one_shot(d)), (kind, seed, step)
        d = fresh_d()
        assert np.array_equal(session.step_once(d).x, one_shot(d))
        steps = 4
        if kind != "block":  # step_t is defined for (M, N) sessions
            d = fresh_d()
            xt = session.step_t(np.ascontiguousarray(d.T))
            assert np.array_equal(xt, one_shot(d).T)
            steps += 1
        assert session.steps == steps


@pytest.mark.parametrize("kind", ("plain", "cyclic"))
@pytest.mark.parametrize("fingerprint", (True, False), ids=("factored", "full"))
def test_step_leaves_engine_stats_alone_on_both_paths(kind, fingerprint):
    # step() is the uninstrumented hot loop: a session counts no solve
    # and resolves no plan per step (its plan binds once)
    engine = ExecutionEngine()
    if kind == "plain":
        a, b, c, d = random_batch(4, 40, seed=71)
    else:
        a, b, c, d = _cyclic_batch(4, 40, seed=71)
    request = SolveRequest.build(
        a, b, c, d, periodic=(kind == "cyclic"), k=0,
        fingerprint=fingerprint,
    )
    fields = ("solves", "plan_requests", "plans_built")
    rng = np.random.default_rng(71)
    with engine.bind(request) as session:
        assert (session.fact is None) == (not fingerprint)
        before = {f: getattr(engine.stats, f) for f in fields}
        for _ in range(3):
            session.step(rng.standard_normal(d.shape))
        assert {f: getattr(engine.stats, f) for f in fields} == before


@pytest.mark.parametrize("row", tuple(BACKEND_ROWS))
def test_plain_sessions_match_one_shot_on_every_backend(row):
    backend, opts = BACKEND_ROWS[row]
    session, one_shot, fresh_d = _make(
        "plain", seed=17, backend=backend, **opts
    )
    with session:
        for _ in range(3):
            d = fresh_d()
            assert np.array_equal(session.step(d), one_shot(d))


def test_session_modes_and_buffer_ownership():
    # the k=0 fingerprinted bind lands on the RHS-only fast path…
    session, _, fresh_d = _make("plain", seed=3)
    assert session.describe()["mode"] == "rhs"
    x1 = session.step(fresh_d())
    assert session.step(fresh_d()) is x1  # session-owned buffer, reused
    out = np.empty_like(x1)
    assert session.step(fresh_d(), out=out) is out
    session.close()
    with pytest.raises(RuntimeError, match="closed"):
        session.step(fresh_d())
    session.close()  # idempotent

    # …and an unlicensed bind (fingerprinting off) steps the full plan,
    # still bitwise on the k=0 route
    a, b, c, d = random_batch(4, 40, seed=3)
    with bind_via(
        a, b, c, d, backend="engine", k=0, fingerprint=False
    ) as full:
        assert full.describe()["mode"] == "full"
        dd = np.random.default_rng(9).standard_normal(d.shape)
        assert np.array_equal(
            full.step(dd), solve_via(a, b, c, dd, backend="engine", k=0)[0]
        )


# ---------------------------------------------------------------------------
# step_t: the transposed-layout hot path
# ---------------------------------------------------------------------------


def test_step_t_fast_path_matches_step_bitwise():
    session, one_shot, fresh_d = _make("plain", seed=29)
    with session:
        assert session.plan.uses_thomas and session.mode == "rhs"
        for _ in range(3):
            d = fresh_d()
            x = one_shot(d)
            xt = session.step_t(np.ascontiguousarray(d.T))
            assert np.array_equal(xt, x.T)
        # out_t is honored, and may alias the input (the forward sweep
        # consumes dt before the backward sweep writes out_t)
        d = fresh_d()
        dt = np.ascontiguousarray(d.T)
        x = one_shot(d)
        assert session.step_t(dt, out_t=dt) is dt
        assert np.array_equal(dt, x.T)
        assert session.steps == 4


def test_step_t_fallback_modes_match_step():
    # cyclic sessions have no transposed sweep: step_t canonicalizes
    # through step() and must agree bitwise
    session, one_shot, fresh_d = _make("cyclic", seed=31)
    with session:
        d = fresh_d()
        x = one_shot(d)
        assert np.array_equal(session.step_t(np.ascontiguousarray(d.T)), x.T)
        assert session.steps == 1  # the fallback counts once, not twice


def test_step_t_rejects_block_sessions_and_bad_shapes():
    session, _, fresh_d = _make("block", seed=5)
    with session:
        with pytest.raises(ValueError, match="block"):
            session.step_t(np.zeros((2, 2)))
    session, _, _ = _make("plain", seed=5)
    with session:
        with pytest.raises(ValueError, match="shape"):
            session.step_t(np.zeros((3, 3)))


# ---------------------------------------------------------------------------
# bind_via routing + the generic per-step fallback
# ---------------------------------------------------------------------------


def test_bind_via_returns_native_sessions_with_pinned_provenance():
    a, b, c, d = random_batch(4, 40, seed=41)
    with bind_via(a, b, c, d, backend="engine") as session:
        assert isinstance(session, BoundSolve)
        decision = session.request.decision
        assert decision is not None and decision.router == "explicit"
        assert decision.chosen == "engine"
        # every instrumented step carries the bind-time decision
        outcome = session.step_once(d)
        assert outcome.trace.decision is decision

    with bind_via(a, b, c, d, backend="auto") as routed:
        decision = routed.request.decision
        assert decision is not None and decision.router == "static"
        assert len(decision.candidates) > 1


def test_per_step_fallback_session_for_bindless_backends():
    a, b, c, d = random_batch(4, 40, seed=43)
    session = bind_via(a, b, c, d, backend="numpy")
    assert isinstance(session, PerStepSession)
    desc = session.describe()
    assert desc["mode"] == "dispatch" and desc["backend"] == "numpy"
    rng = np.random.default_rng(43)
    for _ in range(2):
        dd = rng.standard_normal(d.shape)
        assert np.array_equal(
            session.step(dd), solve_via(a, b, c, dd, backend="numpy")[0]
        )
        assert np.array_equal(
            session.step_t(np.ascontiguousarray(dd.T)),
            solve_via(a, b, c, dd, backend="numpy")[0].T,
        )
    assert session.steps == 4
    session.close()
    with pytest.raises(RuntimeError, match="closed"):
        session.step(d)


# ---------------------------------------------------------------------------
# the one session contract, on every session kind
# ---------------------------------------------------------------------------

M, N = 4, 64

#: every session ``bind_via`` or a handle returns, by the mode it reports
CONTRACT_MODES = {
    "engine-rhs": "rhs",
    "engine-full": "full",
    "engine-cyclic": "cyclic",
    "engine-full-cyclic": "full-cyclic",
    "engine-penta": "banded",
    "engine-block": "banded",
    "prepared": "rhs",
    "distributed-plain": "distributed",
    "distributed-periodic": "cyclic",
    "numpy": "dispatch",
    "gpusim": "dispatch",
}


def _contract_session(row):
    """A fresh session of one kind, bound at ``(M, N)`` (block: B = 2)."""
    if row == "engine-penta":
        e, a, b, c, f, d = random_penta_batch(M, N, seed=83)
        return bind_via(a, b, c, d, e=e, f=f, backend="engine")
    if row == "engine-block":
        A, B, C, d = random_block_batch(M, N, block_size=2, seed=83)
        return bind_via(A, B, C, d, backend="engine")
    periodic = row.endswith(("cyclic", "periodic"))
    a, b, c, d = _cyclic_batch(M, N, 83) if periodic else random_batch(M, N, seed=83)
    if row == "prepared":
        return repro.prepare(a, b, c, k=0).bind()
    backend, opts = {
        "engine-rhs": ("engine", {"k": 0}),
        "engine-full": ("engine", {"k": 6, "fingerprint": False}),
        "engine-cyclic": ("engine", {"k": 0}),
        "engine-full-cyclic": ("engine", {"k": 0, "fingerprint": False}),
        "distributed-plain": ("distributed", {"ranks": 2}),
        "distributed-periodic": ("distributed", {"ranks": 2}),
        "numpy": ("numpy", {}),
        "gpusim": ("gpusim", {}),
    }[row]
    return bind_via(a, b, c, d, backend=backend, periodic=periodic, **opts)


@pytest.mark.parametrize("row", tuple(CONTRACT_MODES))
def test_every_session_kind_keeps_the_contract(row):
    shape = (M, N, 2) if row == "engine-block" else (M, N)
    rng = np.random.default_rng(89)
    fresh = lambda: rng.standard_normal(shape)
    with _contract_session(row) as session:
        assert isinstance(session, Session)
        desc = session.describe()
        assert desc["mode"] == CONTRACT_MODES[row]
        assert (desc["m"], desc["n"], desc["dtype"], desc["steps"]) == (
            M, N, "float64", 0
        )
        assert (session.m, session.n, session.dtype) == (M, N, np.float64)

        # 1-D, wrong-M and wrong-N right-hand sides name the bound shape
        for bad in ((N,), (M + 1, *shape[1:]), (M, N + 1, *shape[2:])):
            with pytest.raises(ValueError, match=re.escape(str(shape))):
                session.step(np.ones(bad))

        # step reuses one session-owned buffer, or writes the caller's out
        x = session.step(fresh())
        assert session.step(fresh()) is x
        out = np.empty(shape)
        assert session.step(fresh(), out=out) is out

        if row == "engine-block":
            with pytest.raises(ValueError, match="block"):
                session.step_t(np.ones((N, M)))
        else:
            with pytest.raises(ValueError, match=re.escape(str((N, M)))):
                session.step_t(np.ones(shape))
            d = fresh()
            ref = session.step(d).copy()
            dt = np.ascontiguousarray(d.T)
            xt = session.step_t(dt)
            assert np.array_equal(xt, ref.T)
            assert session.step_t(dt) is xt
            out_t = np.empty((N, M))
            assert session.step_t(dt, out_t=out_t) is out_t
            assert np.array_equal(out_t, ref.T)
        assert session.describe()["steps"] == session.steps > 0
    assert session.closed
    with pytest.raises(RuntimeError, match="closed"):
        session.step(fresh())
    session.close()  # a second close is a no-op


@pytest.mark.parametrize(
    "row", ("engine-rhs", "engine-full", "prepared", "distributed-plain")
)
def test_step_once_is_reentrant(row):
    # the service's two dispatch threads may step one session at once,
    # and threads may share one prepared handle: step_once borrows its
    # workspace per call (the ranks pipeline holds the pool's lock), so
    # every thread gets the serial bits
    if row == "prepared":
        a, b, c, _ = random_batch(M, N, seed=83)
        handle = repro.prepare(a, b, c, k=0)
        solve, close = handle.solve, handle.close
    else:
        session = _contract_session(row)
        solve, close = (lambda d: session.step_once(d).x), session.close
    rng = np.random.default_rng(97)
    ds = [rng.standard_normal((M, N)) for _ in range(6)]
    threads = 4
    barrier = threading.Barrier(threads)

    def worker(t):
        barrier.wait(timeout=60)
        order = [(t + i) % len(ds) for i in range(2 * len(ds))]
        return [(i, solve(ds[i])) for i in order]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        serial = [solve(d).copy() for d in ds]
        with ThreadPoolExecutor(threads) as pool:
            futures = [pool.submit(worker, t) for t in range(threads)]
            results = [f.result(timeout=120) for f in futures]
    finally:
        sys.setswitchinterval(interval)
        close()
    for pairs in results:
        for i, x in pairs:
            assert np.array_equal(x, serial[i]), (row, i)


# ---------------------------------------------------------------------------
# PreparedPlan rides the same sessions
# ---------------------------------------------------------------------------


def test_prepared_handle_bind_exposes_the_cached_session():
    a, b, c, d = random_batch(4, 48, seed=47)
    handle = repro.prepare(a, b, c, k=0)
    session = handle.bind()
    assert isinstance(session, BoundSolve)
    assert handle.bind() is session  # cached per configuration
    rng = np.random.default_rng(47)
    dd = rng.standard_normal(d.shape)
    assert np.array_equal(session.step(dd).copy(), handle.solve(dd))
    handle.close()
    assert session.closed
    # the handle remains usable: the next solve binds afresh
    assert np.array_equal(handle.solve(dd), handle.bind().step(dd))
    handle.close()


# ---------------------------------------------------------------------------
# the service's shared-window sessions
# ---------------------------------------------------------------------------


def test_service_reuses_bound_sessions_across_windows():
    from repro.service import ServiceConfig, SolveService

    a, b, c, _ = random_batch(3, 32, seed=53)
    rng = np.random.default_rng(53)

    async def main():
        async with SolveService(ServiceConfig(max_wait_us=500.0)) as svc:
            rounds = []
            for _ in range(3):
                d = rng.standard_normal((3, 32))
                xs = await asyncio.gather(
                    *(
                        svc.submit(a, b, c, d, fingerprint=True)
                        for _ in range(2)
                    )
                )
                rounds.append((d, xs))
            return rounds, svc.describe()

    rounds, desc = asyncio.run(asyncio.wait_for(main(), 120.0))
    for d, xs in rounds:
        ref = solve_via(a, b, c, d, backend="numpy")[0]
        for x in xs:
            np.testing.assert_allclose(x, ref, rtol=1e-10, atol=1e-12)
    # identical windows land on one cached bound session
    assert desc["bound_sessions"] >= 1


# ---------------------------------------------------------------------------
# the distributed session
# ---------------------------------------------------------------------------


@pytest.fixture
def factor_calls(monkeypatch):
    """Counts slab factorizations across the workers of a fresh pool.

    The workers fork from this process after the pool module's
    ``factor_slab`` name is patched, so every rank bumps one shared
    counter each time it runs the bind half.
    """
    from repro.distributed import pool, shutdown_pools

    calls = multiprocessing.Value("i", 0)
    real = pool.factor_slab

    def counting(*args):
        with calls.get_lock():
            calls.value += 1
        return real(*args)

    shutdown_pools()
    monkeypatch.setattr(pool, "factor_slab", counting)
    try:
        yield calls
    finally:
        shutdown_pools()


def test_distributed_session_steps_match_one_shot_and_survive_epochs(
    factor_calls,
):
    from repro.backends.request import SolveRequest
    from repro.distributed import partitioned_solve_reference
    from repro.distributed.backend import (
        DistributedBackend,
        DistributedBoundSolve,
    )
    from repro.distributed.partition import slab_interior_k

    a, b, c, d = random_batch(3, 64, seed=59)
    backend = DistributedBackend(timeout_s=60.0)
    session = backend.bind(SolveRequest.build(a, b, c, d, ranks=2))
    assert isinstance(session, DistributedBoundSolve)
    desc = session.describe()
    assert desc["mode"] == "distributed"
    assert desc["slab_k"] == [slab_interior_k(3, 32)] * 2
    assert desc["slab_k"][0] > 0  # M = 3 interiors run the hybrid
    rng = np.random.default_rng(59)
    try:
        # the ranks factor on the first step and never again
        for _ in range(5):
            d1 = rng.standard_normal(d.shape)
            x1 = session.step(d1)
            assert np.array_equal(
                x1, partitioned_solve_reference(a, b, c, d1, 2)
            )
        assert factor_calls.value == 2

        # another solve scatters different coefficients into the shared
        # arenas (the epoch moves; that one-shot factors too); the
        # session must re-ship and re-factor, not trust stale slabs
        a2, b2, c2, d2 = random_batch(3, 64, seed=61)
        backend.solve_batch(a2, b2, c2, d2, ranks=2)
        assert factor_calls.value == 4

        d3 = rng.standard_normal(d.shape)
        x3 = session.step(d3)
        assert np.array_equal(x3, partitioned_solve_reference(a, b, c, d3, 2))

        # transposed-layout step agrees with the straight step
        d4 = rng.standard_normal(d.shape)
        xt = session.step_t(np.ascontiguousarray(d4.T))
        assert np.array_equal(
            xt.T, partitioned_solve_reference(a, b, c, d4, 2)
        )
        assert factor_calls.value == 6  # exactly once more per rank
        assert session.steps == 7
    finally:
        session.close()
    with pytest.raises(RuntimeError, match="closed"):
        session.step(d)


def test_distributed_session_recovers_from_a_rank_crash(factor_calls):
    from repro.backends.request import SolveRequest
    from repro.distributed import (
        DistributedWorkerError,
        get_pool,
        partitioned_solve_reference,
    )
    from repro.distributed.backend import DistributedBackend

    a, b, c, d = random_batch(3, 64, seed=71)
    rng = np.random.default_rng(71)
    backend = DistributedBackend(timeout_s=30.0)
    with backend.bind(SolveRequest.build(a, b, c, d, ranks=2)) as session:
        d1 = rng.standard_normal(d.shape)
        assert np.array_equal(
            session.step(d1), partitioned_solve_reference(a, b, c, d1, 2)
        )
        assert factor_calls.value == 2

        pool = get_pool(2)
        pool._procs[0].kill()
        pool._procs[0].join(timeout=10.0)
        with pytest.raises(DistributedWorkerError):
            session.step(rng.standard_normal(d.shape))

        # the next step rebuilds the pool, re-factors, keeps the bits
        d3 = rng.standard_normal(d.shape)
        assert np.array_equal(
            session.step(d3), partitioned_solve_reference(a, b, c, d3, 2)
        )
        assert get_pool(2) is not pool
        assert factor_calls.value == 4


def test_distributed_periodic_session_solves_q_once_and_factors_once(
    factor_calls, monkeypatch
):
    from repro.backends.base import CyclicSession
    from repro.distributed.backend import DistributedBoundSolve

    pipelines = []
    real = DistributedBoundSolve._pipeline

    def counting(self, *args):
        pipelines.append(self)
        return real(self, *args)

    monkeypatch.setattr(DistributedBoundSolve, "_pipeline", counting)
    a, b, c, d = _cyclic_batch(3, 64, 73)
    rng = np.random.default_rng(73)
    ds = [rng.standard_normal(d.shape) for _ in range(5)]
    with bind_via(
        a, b, c, d, backend="distributed", ranks=2, periodic=True
    ) as session:
        assert isinstance(session, CyclicSession)
        desc = session.describe()
        assert (desc["mode"], desc["inner"]) == ("cyclic", "distributed")
        # the bind solved A' q = u: one pipeline, each rank factored
        assert len(pipelines) == 1 and factor_calls.value == 2
        xs = [
            session.step(dd).copy() if i % 2 == 0
            else session.step_t(np.ascontiguousarray(dd.T)).T.copy()
            for i, dd in enumerate(ds)
        ]
        # one RHS-only pipeline per step, on the one inner session
        assert len(pipelines) == 6 and set(pipelines) == {session.inner}
        assert factor_calls.value == 2

        refs = [
            repro.solve_periodic_batch(
                a, b, c, dd, backend="distributed", ranks=2
            )
            for dd in ds
        ]
        for x, ref in zip(xs, refs):
            assert np.array_equal(x, ref)

        # those one-shots scattered foreign coefficients: the next step
        # re-ships A' and the ranks re-factor it once, bits unchanged
        factored = factor_calls.value
        assert np.array_equal(session.step(ds[0]), refs[0])
        assert np.array_equal(session.step(ds[1]), refs[1])
        assert factor_calls.value == factored + 2
    assert session.inner.closed


def test_distributed_bind_at_one_rank_is_the_engine_anchor():
    from repro.backends.request import SolveRequest
    from repro.distributed.backend import DistributedBackend

    a, b, c, d = random_batch(3, 24, seed=67)
    backend = DistributedBackend()
    with backend.bind(SolveRequest.build(a, b, c, d, ranks=1)) as session:
        assert isinstance(session, BoundSolve)
        x = session.step(d)
        assert np.array_equal(
            x, repro.solve_batch(a, b, c, d, backend="engine", k=0)
        )
