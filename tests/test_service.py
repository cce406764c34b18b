"""Service tier: coalescing, bitwise scatter, stats, backpressure.

No pytest-asyncio in the environment: every async test runs through
``asyncio.run(asyncio.wait_for(...))`` with a hard timeout so an
event-loop hang fails the test instead of wedging the suite.
"""

from __future__ import annotations

import asyncio
import logging
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
import repro.service.service as service_module
from repro.backends import solve_via
from repro.distributed import partitioned_solve_reference
from repro.service import (
    ServiceConfig,
    ServiceOverloaded,
    SolveService,
    SyncSolveClient,
)
from repro.workloads import (
    adi_row_coefficients,
    huge_system_batch,
    random_batch,
    random_block_batch,
    random_penta_batch,
    shared_matrix_traffic,
    small_request_traffic,
)

TIMEOUT = 120.0


def run(coro):
    """Drive a coroutine with a hang guard."""
    return asyncio.run(asyncio.wait_for(coro, TIMEOUT))


def fragments_of(arrays, bounds):
    """Split each (M, ...) array at ``bounds`` row offsets."""
    edges = [0, *bounds, arrays[0].shape[0]]
    return [
        tuple(arr[lo:hi] for arr in arrays)
        for lo, hi in zip(edges[:-1], edges[1:])
    ]


# ---------------------------------------------------------------------------
# coalescing + bitwise identity
# ---------------------------------------------------------------------------


def test_compatible_fragments_coalesce_into_one_dispatch():
    frags = small_request_traffic(16, 4, 128, seed=0)
    a = np.concatenate([f[1][0] for f in frags], axis=0)
    b = np.concatenate([f[1][1] for f in frags], axis=0)
    c = np.concatenate([f[1][2] for f in frags], axis=0)
    d = np.concatenate([f[1][3] for f in frags], axis=0)
    ref = repro.solve_batch(a, b, c, d, k=0)

    async def main():
        async with SolveService(ServiceConfig(max_wait_us=500.0)) as svc:
            xs = await asyncio.gather(*[
                svc.submit(fa, fb, fc, fd, tenant=t)
                for t, (fa, fb, fc, fd) in frags
            ])
            return xs, svc.stats.describe()

    xs, stats = run(main())
    assert stats["dispatches"] == 1
    assert stats["dispatched_rows"] == 64
    for i, x in enumerate(xs):
        assert np.array_equal(x, ref[4 * i : 4 * (i + 1)])


def test_size_flush_splits_at_max_batch_rows():
    frags = small_request_traffic(8, 4, 64, seed=1)

    async def main():
        config = ServiceConfig(max_batch_rows=16, max_wait_us=500.0)
        async with SolveService(config) as svc:
            await asyncio.gather(*[
                svc.submit(*f[1]) for f in frags
            ])
            return svc.stats.describe()

    stats = run(main())
    assert stats["dispatches"] == 2
    assert stats["flushes"]["size"] == 2
    assert stats["max_batch_rows"] <= 16


def test_incompatible_shapes_group_separately():
    a1 = random_batch(4, 64, seed=2)
    a2 = random_batch(4, 128, seed=3)

    async def main():
        async with SolveService(ServiceConfig(max_wait_us=500.0)) as svc:
            x1, x2 = await asyncio.gather(
                svc.submit(*a1), svc.submit(*a2)
            )
            return x1, x2, svc.stats.describe()

    x1, x2, stats = run(main())
    assert stats["dispatches"] == 2
    assert np.array_equal(x1, repro.solve_batch(*a1, k=0))
    assert np.array_equal(x2, repro.solve_batch(*a2, k=0))


def test_pinned_k_group_keeps_callers_k():
    frags = small_request_traffic(4, 8, 256, seed=4)

    async def main():
        async with SolveService(ServiceConfig(max_wait_us=500.0)) as svc:
            xs = await asyncio.gather(*[
                svc.submit(*f[1], k=2) for f in frags
            ])
            return xs, svc.stats.describe()

    xs, stats = run(main())
    assert stats["dispatches"] == 1
    a = np.concatenate([f[1][0] for f in frags], axis=0)
    b = np.concatenate([f[1][1] for f in frags], axis=0)
    c = np.concatenate([f[1][2] for f in frags], axis=0)
    d = np.concatenate([f[1][3] for f in frags], axis=0)
    ref = repro.solve_batch(a, b, c, d, k=2)
    for i, x in enumerate(xs):
        assert np.array_equal(x, ref[8 * i : 8 * (i + 1)])


def test_hybrid_options_pass_through_solo():
    a, b, c, d = random_batch(8, 256, seed=5)

    async def main():
        async with SolveService(ServiceConfig(max_wait_us=500.0)) as svc:
            x = await svc.submit(a, b, c, d, fuse=True)
            return x, svc.stats.describe()

    x, stats = run(main())
    assert stats["flushes"]["solo"] == 1
    assert np.array_equal(x, repro.solve_batch(a, b, c, d, fuse=True))


def test_periodic_fragments_coalesce_bitwise():
    rng = np.random.default_rng(6)
    m, n = 12, 64
    a = rng.standard_normal((m, n))
    c = rng.standard_normal((m, n))
    b = 3.0 + np.abs(a) + np.abs(c)
    d = rng.standard_normal((m, n))
    ref = repro.solve_periodic_batch(a, b, c, d, k=0)

    async def main():
        async with SolveService(ServiceConfig(max_wait_us=500.0)) as svc:
            xs = await asyncio.gather(*[
                svc.submit(a[i : i + 4], b[i : i + 4], c[i : i + 4],
                           d[i : i + 4], periodic=True)
                for i in range(0, m, 4)
            ])
            return xs, svc.stats.describe()

    xs, stats = run(main())
    assert stats["dispatches"] == 1
    for i, x in enumerate(xs):
        assert np.array_equal(x, ref[4 * i : 4 * (i + 1)])


def test_out_argument_receives_fragment():
    a, b, c, d = random_batch(4, 64, seed=7)
    out = np.empty_like(d)

    async def main():
        async with SolveService(ServiceConfig(max_wait_us=500.0)) as svc:
            other = random_batch(4, 64, seed=8)
            x, _ = await asyncio.gather(
                svc.submit(a, b, c, d, out=out),
                svc.submit(*other),
            )
            return x

    x = run(main())
    assert x is out
    assert np.array_equal(out, repro.solve_batch(a, b, c, d, k=0))


# ---------------------------------------------------------------------------
# shared-factorization digest path
# ---------------------------------------------------------------------------


def test_shared_matrix_requests_share_one_factorization():
    (a, b, c), ds = shared_matrix_traffic(8, 4, 128, seed=9)
    ref = [repro.solve_batch(a, b, c, d, k=0, fingerprint=False)
           for _, d in ds]

    async def main():
        async with SolveService(ServiceConfig(max_wait_us=500.0)) as svc:
            xs = await asyncio.gather(*[
                svc.submit(a, b, c, d, tenant=t, fingerprint=True)
                for t, d in ds
            ])
            return xs, svc.stats.describe(), svc.last_trace("tenant-0")

    xs, stats, trace = run(main())
    assert stats["dispatches"] == 1
    assert stats["shared_factorizations"] == 1
    assert trace is not None and trace.rhs_only
    for x, r in zip(xs, ref):
        assert np.array_equal(x, r)


def test_uniform_fragments_share_one_untiled_column():
    # an ADI matrix factors into one (N, 1) column, which serves the
    # 48-row window as it is: tiling it six times would misshape it
    a, b, c = adi_row_coefficients(8, 256, 0.3)
    rng = np.random.default_rng(24)
    ds = [rng.standard_normal((8, 256)) for _ in range(6)]
    ref = [repro.solve_batch(a, b, c, d, k=0, fingerprint=False) for d in ds]

    async def main():
        async with SolveService(ServiceConfig(max_wait_us=500.0)) as svc:
            xs = await asyncio.gather(*[
                svc.submit(a, b, c, d, fingerprint=True) for d in ds
            ])
            return xs, svc.describe()

    xs, desc = run(main())
    assert desc["dispatches"] == 1
    assert desc["shared_factorizations"] == 1
    assert desc["bound_session_bytes"] == 3 * 256 * 8
    for x, r in zip(xs, ref):
        assert x.tobytes() == r.tobytes()


# ---------------------------------------------------------------------------
# flush rule: at most one partial (timer-flushed) window in flight
# ---------------------------------------------------------------------------

#: comfortably past ``WAIT_US``, so a window's timer has fired
PAST_WAIT_S = 0.05
WAIT_US = 1000.0


def _block_first_dispatch(svc):
    """Make the service's first registry dispatch wait for the returned
    event (later dispatches run straight through)."""
    release = threading.Event()
    execute = svc._execute
    calls = []

    def execute_blocked(request):
        calls.append(request.m)
        if len(calls) == 1:
            release.wait(TIMEOUT)
        return execute(request)

    svc._execute = execute_blocked
    return release


async def _partial_window_in_flight(svc, batch):
    """Submit ``batch`` and let its timer flush it: it becomes the
    partial window in flight (blocked by :func:`_block_first_dispatch`)."""
    future = svc.submit_nowait(*batch)
    await asyncio.sleep(PAST_WAIT_S)
    assert not future.done()
    return future


@pytest.mark.parametrize("fingerprint", (False, True), ids=("plain", "digest"))
def test_timer_window_waits_for_the_partial_window_in_flight(fingerprint):
    # B's timer fires while A's window runs: B stays open, C joins it,
    # and B + C leave as one window when A's finishes
    first = random_batch(4, 128, seed=60)
    if fingerprint:
        (a, b, c), ds = shared_matrix_traffic(2, 4, 128, seed=61)
        batches = [(a, b, c, d) for _, d in ds]
    else:
        batches = [random_batch(4, 128, seed=seed) for seed in (62, 63)]
    opts = {"fingerprint": True} if fingerprint else {}

    async def main():
        async with SolveService(ServiceConfig(max_wait_us=WAIT_US)) as svc:
            release = _block_first_dispatch(svc)
            try:
                fa = await _partial_window_in_flight(svc, first)
                fb = svc.submit_nowait(*batches[0], **opts)
                await asyncio.sleep(PAST_WAIT_S)  # B's timer fires: held
                fc = svc.submit_nowait(*batches[1], **opts)
                assert not fb.done()
            finally:
                release.set()
            xs = await asyncio.gather(fa, fb, fc)
            return xs, svc.describe()

    xs, desc = run(main())
    assert desc["dispatches"] == 2
    assert desc["held_windows"] == 1
    assert desc["flushes"]["timer"] == 2
    assert desc["shared_factorizations"] == int(fingerprint)
    for x, batch in zip(xs, [first, *batches]):
        assert x.tobytes() == repro.solve_batch(*batch, k=0).tobytes()


def test_size_flush_is_not_held_behind_a_partial_window():
    # B is held behind A; C fills B's window to max_batch_rows, so it
    # dispatches at once on the free thread while A is still running
    first, b, c = (random_batch(4, 128, seed=seed) for seed in (64, 65, 66))

    async def main():
        config = ServiceConfig(max_batch_rows=8, max_wait_us=WAIT_US)
        async with SolveService(config) as svc:
            release = _block_first_dispatch(svc)
            try:
                fa = await _partial_window_in_flight(svc, first)
                fb = svc.submit_nowait(*b)
                await asyncio.sleep(PAST_WAIT_S)  # B's timer fires: held
                fc = svc.submit_nowait(*c)  # 8 rows: a full window
                xb, xc = await asyncio.gather(fb, fc)
                assert not fa.done()
            finally:
                release.set()
            await fa
            return fa.result(), xb, xc, svc.describe()

    xa, xb, xc, desc = run(main())
    assert desc["dispatches"] == 2
    assert desc["flushes"]["size"] == 1
    assert desc["held_windows"] == 0  # B left as a size flush, not held
    for x, batch in zip((xa, xb, xc), (first, b, c)):
        assert x.tobytes() == repro.solve_batch(*batch, k=0).tobytes()


@pytest.mark.parametrize("how", ("drain", "close"))
def test_drain_and_close_deliver_a_held_window(how):
    first, b = (random_batch(4, 128, seed=seed) for seed in (67, 68))

    async def main():
        svc = SolveService(ServiceConfig(max_wait_us=WAIT_US))
        release = _block_first_dispatch(svc)
        try:
            fa = await _partial_window_in_flight(svc, first)
            fb = svc.submit_nowait(*b)
            await asyncio.sleep(PAST_WAIT_S)  # B's timer fires: held
            stopping = asyncio.ensure_future(getattr(svc, how)())
            xb = await fb  # flushed at once, while A still runs
            assert not fa.done()
        finally:
            release.set()
        await stopping
        await svc.close()
        return fa.result(), xb, svc.describe()

    xa, xb, desc = run(main())
    assert desc["dispatches"] == 2
    assert desc["flushes"]["close"] == 1
    assert desc["held_windows"] == 0
    for x, batch in zip((xa, xb), (first, b)):
        assert x.tobytes() == repro.solve_batch(*batch, k=0).tobytes()


# ---------------------------------------------------------------------------
# stats, traces, backpressure
# ---------------------------------------------------------------------------


def test_per_tenant_stats_and_last_trace():
    frags = small_request_traffic(8, 4, 64, tenants=2, seed=10)

    async def main():
        async with SolveService(ServiceConfig(max_wait_us=500.0)) as svc:
            await asyncio.gather(*[
                svc.submit(*batch, tenant=t) for t, batch in frags
            ])
            return svc.stats.describe(), svc.last_trace("tenant-1")

    stats, trace = run(main())
    tenants = {t["tenant"]: t for t in stats["tenants"]}
    assert set(tenants) == {"tenant-0", "tenant-1"}
    for t in tenants.values():
        assert t["submitted"] == t["delivered"] == 4
        assert t["rows"] == 16
        assert t["latency_ms"]["p99"] >= t["latency_ms"]["p50"] >= 0.0
    assert trace is not None
    assert trace.m == 32  # the tenant's trace is the aggregate dispatch


def test_admission_control_sheds_past_max_pending_rows():
    frags = small_request_traffic(3, 8, 64, seed=11)

    async def main():
        config = ServiceConfig(max_pending_rows=16, max_wait_us=50_000.0)
        async with SolveService(config) as svc:
            f0 = svc.submit_nowait(*frags[0][1])
            f1 = svc.submit_nowait(*frags[1][1])
            with pytest.raises(ServiceOverloaded) as exc:
                svc.submit_nowait(*frags[2][1])
            assert exc.value.pending_rows == 16
            assert exc.value.rows == 8
            await asyncio.gather(f0, f1)
            return svc.stats.describe()

    stats = run(main())
    shed = sum(t["shed"] for t in stats["tenants"])
    assert shed == 1
    delivered = sum(t["delivered"] for t in stats["tenants"])
    assert delivered == 2


def test_submit_after_close_raises():
    a, b, c, d = random_batch(2, 32, seed=12)

    async def main():
        svc = SolveService(ServiceConfig(max_wait_us=500.0))
        async with svc:
            await svc.submit(a, b, c, d)
        with pytest.raises(RuntimeError):
            svc.submit_nowait(a, b, c, d)

    run(main())


def test_close_flushes_pending_buckets():
    a, b, c, d = random_batch(4, 64, seed=13)

    async def main():
        svc = SolveService(ServiceConfig(max_wait_us=60_000_000.0))
        async with svc:
            fut = svc.submit_nowait(a, b, c, d)
            # the window is an hour; close() must drain it now
        assert fut.done()
        return fut.result(), svc.stats.describe()

    x, stats = run(main())
    assert stats["flushes"]["close"] == 1
    assert np.array_equal(x, repro.solve_batch(a, b, c, d, k=0))


def test_invalid_input_raises_at_submit_not_in_future():
    async def main():
        async with SolveService(ServiceConfig(max_wait_us=500.0)) as svc:
            with pytest.raises(ValueError):
                svc.submit_nowait(
                    np.ones((2, 8)), np.ones((2, 8)),
                    np.ones((2, 8)), np.ones((3, 8)),
                )

    run(main())


# ---------------------------------------------------------------------------
# the loop admits, the window validates
# ---------------------------------------------------------------------------


def test_shape_dtype_and_option_errors_raise_at_submit():
    a, b, c, d = random_batch(2, 8, seed=70)
    bad = [
        ((a, b, c[:, :-1], d), {}, ValueError),
        ((a, b, c, d), {"out": np.empty((2, 8), np.float32)}, ValueError),
        ((a, b, c, d), {"tile": 4}, TypeError),
        ((a, b, c, d), {"rtol": -1.0}, ValueError),
        ((a, b, c, d), {"ranks": 0}, ValueError),
    ]

    async def main():
        async with SolveService(ServiceConfig(max_wait_us=500.0)) as svc:
            for arrays, opts, error in bad:
                with pytest.raises(error):
                    svc.submit_nowait(*arrays, **opts)
            return svc.stats.describe()

    assert run(main())["tenants"] == []


@pytest.mark.parametrize("fingerprint", (None, True), ids=("plain", "digest"))
def test_content_errors_reach_only_their_own_fragment(fingerprint, caplog):
    # a NaN and a zero pivot are admitted; each fails its own future
    # with the error a direct solve raises, and the other fragments of
    # the window still solve as one dispatch with their solo bits
    (a, b, c), ds = shared_matrix_traffic(6, 4, 128, seed=71)
    frags = [(a, b, c, d) for _, d in ds]
    nan_d = frags[1][3].copy()
    nan_d[2, 5] = np.nan
    frags[1] = (a, b, c, nan_d)
    zero_b = b.copy()
    zero_b[3, 7] = 0.0
    frags[4] = (a, zero_b, c, frags[4][3])
    errors = {}
    for i in (1, 4):
        with pytest.raises(ValueError) as exc:
            repro.solve_batch(*frags[i])
        errors[i] = str(exc.value)
    refs = {
        i: repro.solve_batch(*f, k=0, fingerprint=False)
        for i, f in enumerate(frags) if i not in errors
    }

    async def main():
        async with SolveService(ServiceConfig(max_wait_us=500.0)) as svc:
            futures = [svc.submit_nowait(*f, fingerprint=fingerprint) for f in frags]
            xs = await asyncio.gather(*futures, return_exceptions=True)
            return xs, svc.describe()

    with caplog.at_level(logging.WARNING, logger="repro.service"):
        xs, desc = run(main())
    for i, x in enumerate(xs):
        if i in errors:
            assert type(x) is ValueError and str(x) == errors[i]
        else:
            assert x.tobytes() == refs[i].tobytes()
    assert desc["dispatches"] == 1 and desc["flushes"]["timer"] == 1
    assert desc["shared_factorizations"] == (1 if fingerprint else 0)
    (tenant,) = desc["tenants"]
    assert (tenant["delivered"], tenant["failed"]) == (4, 2)
    (record,) = [r for r in caplog.records if r.name == "repro.service"]
    assert record.levelno == logging.WARNING
    assert "window of 24 rows" in record.getMessage()
    assert "2 of 6 fragments refused" in record.getMessage()


@pytest.mark.parametrize("kind", ("tridiagonal", "pentadiagonal"))
def test_a_window_zeroes_pads_without_writing_the_callers_memory(kind):
    frags = []
    for seed in range(80, 85):
        if kind == "pentadiagonal":
            e, a, b, c, f, d = random_penta_batch(4, 64, seed=seed)
            e[:, :2], f[:, -2:] = 2.0, -1.0
            frags.append(((a, b, c, d), {"e": e, "f": f}))
        else:
            a, b, c, d = random_batch(4, 64, seed=seed)
            frags.append(((a, b, c, d), {}))
        a[:, 0], c[:, -1] = 5.0, -3.0
    sent = [
        [v.copy() for v in (*arrays, *extra.values())] for arrays, extra in frags
    ]
    # a direct solve zeroes the pads in a copy
    refs = [repro.solve_batch(*arrays, k=0, **extra) for arrays, extra in frags]

    async def main():
        async with SolveService(ServiceConfig(max_wait_us=500.0)) as svc:
            xs = await asyncio.gather(*[
                svc.submit(*arrays, **extra) for arrays, extra in frags
            ])
            return xs, svc.describe()

    xs, desc = run(main())
    assert desc["dispatches"] == 1
    for x, ref in zip(xs, refs):
        assert x.tobytes() == ref.tobytes()
    for (arrays, extra), before in zip(frags, sent):
        for now, then in zip((*arrays, *extra.values()), before):
            assert now.tobytes() == then.tobytes()


def test_an_unchecked_window_reads_no_content():
    # check=False solves a NaN fragment as a direct unchecked solve does
    frags = [random_batch(4, 64, seed=s) for s in range(86, 89)]
    frags[1][3][0, 3] = np.nan
    refs = [repro.solve_batch(*f, k=0, check=False) for f in frags]

    async def main():
        async with SolveService(ServiceConfig(max_wait_us=500.0)) as svc:
            return await asyncio.gather(*[svc.submit(*f, check=False) for f in frags])

    for x, ref in zip(run(main()), refs):
        assert x.tobytes() == ref.tobytes()
    assert np.isnan(refs[1]).any()


def test_an_edit_between_submit_and_dispatch_never_serves_a_stale_factorization():
    # A's window factors what A's arrays hold when it leaves; B, who
    # later sends A's original matrix in fresh arrays, gets its solo bits
    (a, b, c), ((_, da), (_, db)) = shared_matrix_traffic(2, 4, 256, seed=90)
    original = [v.copy() for v in (a, b, c)]

    async def main():
        async with SolveService(ServiceConfig(max_wait_us=500.0)) as svc:
            fa = svc.submit_nowait(a, b, c, da, fingerprint=True)
            np.multiply(b, 2.0, out=b)  # before A's window leaves
            xa = await fa
            xb = await svc.submit(
                *(v.copy() for v in original), db, fingerprint=True
            )
            return xa, xb

    xa, xb = run(main())
    ref_b = repro.solve_batch(*original, db, k=0, fingerprint=False)
    assert xb.tobytes() == ref_b.tobytes()
    ref_a = repro.solve_batch(a, b, c, da, k=0, fingerprint=False)
    assert xa.tobytes() == ref_a.tobytes()


def test_a_window_digests_its_shared_matrix_once_off_the_loop(monkeypatch):
    calls = []
    digest = service_module.coefficient_fingerprint

    def counted(*arrays):
        calls.append(threading.current_thread())
        return digest(*arrays)

    monkeypatch.setattr(service_module, "coefficient_fingerprint", counted)
    (a, b, c), ds = shared_matrix_traffic(8, 4, 128, seed=91)
    refs = [repro.solve_batch(a, b, c, d, k=0, fingerprint=False) for _, d in ds]

    async def main():
        async with SolveService(ServiceConfig(max_wait_us=500.0)) as svc:
            xs = await asyncio.gather(*[
                svc.submit(a, b, c, d, fingerprint=True) for _, d in ds
            ])
            return xs, svc.describe(), threading.current_thread()

    xs, desc, loop_thread = run(main())
    assert desc["dispatches"] == 1 and desc["shared_factorizations"] == 1
    assert len(calls) == 1 and calls[0] is not loop_thread
    for x, ref in zip(xs, refs):
        assert x.tobytes() == ref.tobytes()


@pytest.mark.parametrize(
    "opts", ({"periodic": True}, {"k": 2}), ids=("periodic", "pinned-k")
)
def test_a_window_the_shared_path_does_not_serve_dispatches_each_matrix_alone(opts):
    # two matrices' fingerprint=True fragments share a window, which
    # dispatches each matrix's fragments as one request; the engine's
    # cache then hits on a later window of the same per-matrix counts,
    # whatever order the fragments arrive in
    mats = {t: random_batch(4, 64, seed=seed)[:3] for t, seed in (("A", 92), ("B", 93))}
    rng = np.random.default_rng(94)
    rounds = [
        [(t, rng.standard_normal((4, 64))) for t in order]
        for order in ("ABABA", "BBAAA")
    ]
    solve = repro.solve_periodic_batch if "periodic" in opts else repro.solve_batch
    k = opts.get("k", 0)

    async def main():
        async with SolveService(ServiceConfig(max_wait_us=500.0)) as svc:
            seen = []
            for fragments in rounds:
                xs = await asyncio.gather(*[
                    svc.submit(*mats[t], d, tenant=t, fingerprint=True, **opts)
                    for t, d in fragments
                ])
                outcomes = {t: svc.last_trace(t).factorization for t in mats}
                seen.append((xs, outcomes, svc.describe()["dispatches"]))
            return seen

    seen = run(main())
    assert [(outcomes, dispatches) for _, outcomes, dispatches in seen] == [
        ({"A": "factored", "B": "factored"}, 2),
        ({"A": "hit", "B": "hit"}, 4),
    ]
    for fragments, (xs, _, _) in zip(rounds, seen):
        for (t, d), x in zip(fragments, xs):
            ref = solve(*mats[t], d, k=k, fingerprint=False)
            assert x.tobytes() == ref.tobytes()


# ---------------------------------------------------------------------------
# sync adapter
# ---------------------------------------------------------------------------


def test_sync_client_from_worker_threads():
    frags = small_request_traffic(8, 4, 64, seed=14)
    results: dict = {}

    with SyncSolveClient(ServiceConfig(max_wait_us=2000.0)) as client:
        def worker(i, batch):
            results[i] = client.solve(*batch, timeout=TIMEOUT)

        threads = [
            threading.Thread(target=worker, args=(i, batch))
            for i, (_, batch) in enumerate(frags)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(TIMEOUT)
        stats = client.describe()

    assert len(results) == 8
    for i, (_, (a, b, c, d)) in enumerate(frags):
        assert np.array_equal(results[i], repro.solve_batch(a, b, c, d, k=0))
    assert stats["dispatches"] >= 1


def test_ranks_fragments_keep_their_route_when_coalesced():
    # ranks is part of the group key: the two ranks=2 fragments share a
    # window and run on the distributed tier, while the plain fragment
    # submitted alongside them runs the engine's k = 0 route; a
    # fingerprinted ranks=2 fragment is routed as it is solo, never
    # served by the single-rank digest path
    frags = [random_batch(4, 512, seed=seed) for seed in (40, 41, 42, 43)]

    async def main():
        async with SolveService(ServiceConfig(max_wait_us=200_000.0)) as service:
            return await asyncio.gather(
                service.submit(*frags[0], ranks=2),
                service.submit(*frags[1], ranks=2),
                service.submit(*frags[2]),
                service.submit(*frags[3], ranks=2, fingerprint=True),
            )

    xs = run(main())
    for x, batch in zip(xs[:2], frags):
        assert np.array_equal(x, solve_via(*batch, ranks=2)[0])
    assert np.array_equal(xs[2], repro.solve_batch(*frags[2], k=0))
    solo = solve_via(*frags[3], ranks=2, fingerprint=True)[0]
    assert np.array_equal(xs[3], solo)


def test_concurrent_ranks_groups_of_different_n_keep_their_bits():
    # two ranks=2 groups of different N size-flush together and dispatch
    # on the service's two threads at once; each distributed pipeline
    # holds the shared pool from attach to gather, so neither rebuilds
    # the arenas (or scatters) under the other
    systems = [huge_system_batch(n, m=4, seed=n) for n in (4096, 6144)]
    rng = np.random.default_rng(57)
    rounds = [
        [rng.standard_normal(s[3].shape) for s in systems] for _ in range(10)
    ]

    async def main():
        # each fragment fills its window (4 rows), so both dispatch at
        # once: only full windows overlap, partial ones run one at a time
        config = ServiceConfig(
            max_batch_rows=4, max_wait_us=0.0, dispatch_workers=2
        )
        async with SolveService(config) as service:
            return [
                await asyncio.gather(
                    *(
                        service.submit(a, b, c, d, ranks=2)
                        for (a, b, c, _), d in zip(systems, ds)
                    )
                )
                for ds in rounds
            ]

    for ds, xs in zip(rounds, run(main())):
        for (a, b, c, _), d, x in zip(systems, ds, xs):
            assert np.array_equal(x, partitioned_solve_reference(a, b, c, d, 2))


def test_sync_client_close_is_idempotent():
    client = SyncSolveClient(ServiceConfig(max_wait_us=500.0))
    a, b, c, d = random_batch(2, 32, seed=15)
    x = client.solve(a, b, c, d, timeout=TIMEOUT)
    assert np.array_equal(x, repro.solve_batch(a, b, c, d, k=0))
    client.close()
    client.close()


# ---------------------------------------------------------------------------
# property: any partition scatter-gathers bitwise-identically
# ---------------------------------------------------------------------------


@settings(max_examples=12, deadline=None)
@given(
    kind=st.sampled_from(["plain", "periodic", "penta", "block"]),
    cuts=st.lists(st.integers(min_value=1, max_value=11),
                  max_size=3, unique=True),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_any_partition_matches_monolithic_solve(kind, cuts, seed):
    m, n = 12, 32
    bounds = sorted(cuts)
    if kind == "plain":
        arrays = random_batch(m, n, seed=seed)
        ref = repro.solve_batch(*arrays, k=0)
        submit_args = [
            (frag, {}) for frag in fragments_of(arrays, bounds)
        ]
    elif kind == "periodic":
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((m, n))
        c = rng.standard_normal((m, n))
        b = 3.0 + np.abs(a) + np.abs(c)
        d = rng.standard_normal((m, n))
        ref = repro.solve_periodic_batch(a, b, c, d, k=0)
        submit_args = [
            (frag, {"periodic": True})
            for frag in fragments_of((a, b, c, d), bounds)
        ]
    elif kind == "penta":
        e, a, b, c, f, d = random_penta_batch(m, n, seed=seed)
        ref, _ = solve_via(a, b, c, d, e=e, f=f)
        submit_args = [
            ((fa, fb, fc, fd), {"e": fe, "f": ff})
            for fe, fa, fb, fc, ff, fd
            in fragments_of((e, a, b, c, f, d), bounds)
        ]
    else:
        A, B, C, d = random_block_batch(m, n, block_size=2, seed=seed)
        ref, _ = solve_via(A, B, C, d)
        submit_args = [
            (frag, {}) for frag in fragments_of((A, B, C, d), bounds)
        ]

    async def main():
        async with SolveService(ServiceConfig(max_wait_us=500.0)) as svc:
            return await asyncio.gather(*[
                svc.submit(*args, **kwargs) for args, kwargs in submit_args
            ])

    xs = run(main())
    assert np.array_equal(np.concatenate(xs, axis=0), ref)
