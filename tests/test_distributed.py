"""Distributed N-partition backend: slab math, pool, registry, bugfix
regressions.

Covers the tentpole pipeline (partition → local eliminate → reduced
interface solve → backsub) at three levels — the in-process reference,
the multiprocess backend (bitwise identical to the reference by
construction: same functions, same values), and the registry/router
negotiation — plus the satellite regressions this PR ships:

* concurrent solves on the process-wide pool (each pipeline holds the
  pool's lock from attach to gather)
* executor oversubscription floor (``max(32, cpus)`` → proportional cap)
* disk-cache LRU determinism on coarse-mtime filesystems
* the generic cyclic fallback's merged inner-solve stage timings
"""

from __future__ import annotations

import os
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.backends.registry import bind_via, default_registry, reject_reason
from repro.backends.request import SolveRequest
from repro.core.transition import TransitionHeuristic
from repro.distributed import (
    DistributedWorkerError,
    effective_ranks,
    get_pool,
    partition,
    partitioned_solve_reference,
    slab_bounds,
)
from repro.distributed.backend import DistributedBackend
from repro.distributed.partition import (
    eliminate_slab,
    factor_slab,
    slab_interior_k,
)
from repro.workloads.generators import huge_system_batch, random_batch


def _engine_reference(a, b, c, d):
    """The k=0 engine solve every distributed result is compared to."""
    return repro.solve_batch(a, b, c, d, backend="engine", k=0)


# ------------------------------------------------------------ partition


def test_slab_bounds_cover_and_chain():
    for n, p in [(8, 1), (8, 4), (17, 3), (100, 7), (9, 4)]:
        bounds = slab_bounds(n, p)
        assert bounds[0][0] == 0 and bounds[-1][1] == n
        for (lo, hi), (lo2, _) in zip(bounds, bounds[1:]):
            assert hi == lo2
        assert all(hi - lo >= 2 for lo, hi in bounds)


def test_effective_ranks_clamps_to_slab_minimum():
    assert effective_ranks(8, 4) == 4
    assert effective_ranks(7, 4) == 3  # 7 rows can hold 3 slabs of >= 2
    assert effective_ranks(3, 4) == 1
    assert effective_ranks(10 ** 6, 2) == 2


def test_reference_matches_engine_all_ranks():
    a, b, c, d = random_batch(5, 257, seed=3)
    ref = _engine_reference(a, b, c, d)
    for p in (1, 2, 3, 4, 8):
        x = partitioned_solve_reference(a, b, c, d, p)
        assert np.allclose(x, ref, rtol=1e-10, atol=1e-12), p
    # slabs of 2 and 3 rows (no interior, a one-row interior) beside
    # hybrid-route interiors
    bounds = [(0, 2), (2, 5), (5, 130), (130, 133), (133, 257)]
    x = partitioned_solve_reference(a, b, c, d, 5, bounds=bounds)
    assert np.allclose(x, ref, rtol=1e-10, atol=1e-12)


def _fused_eliminate_slab(a, b, c, d):
    """The two-sweep modified-Thomas elimination before the bind/step
    split: the oracle ``k = 0`` slab interiors must match bit for bit."""
    L, M = b.shape
    rep = np.empty((3, L, M), dtype=b.dtype)
    ar, cr, dr = rep[0], rep[1], rep[2]
    ar[1] = a[1] / b[1]
    cr[1] = c[1] / b[1]
    dr[1] = d[1] / b[1]
    for i in range(2, L):
        r = b[i] - a[i] * cr[i - 1]
        ar[i] = -(a[i] * ar[i - 1]) / r
        cr[i] = c[i] / r
        dr[i] = (d[i] - a[i] * dr[i - 1]) / r
    subl = ar[L - 1].copy()
    supl = cr[L - 1].copy()
    rhsl = dr[L - 1].copy()
    for i in range(L - 3, 0, -1):
        ar[i] = ar[i] - cr[i] * ar[i + 1]
        dr[i] = dr[i] - cr[i] * dr[i + 1]
        cr[i] = -(cr[i] * cr[i + 1])
    if L == 2:
        den = b[0]
        sub0 = a[0] / den
        sup0 = c[0] / den
        rhs0 = d[0] / den
    else:
        den = b[0] - c[0] * ar[1]
        sub0 = a[0] / den
        sup0 = -(c[0] * cr[1]) / den
        rhs0 = (d[0] - c[0] * dr[1]) / den
    return rep, np.stack([sub0, sup0, rhs0, subl, supl, rhsl])


@pytest.mark.parametrize("m", [3, 64])
@pytest.mark.parametrize("rows", [2, 3, 4, 257])
def test_slab_split_matches_fused_elimination(rows, m, monkeypatch):
    rng = np.random.default_rng(rows * 100 + m)
    a, c, d = rng.standard_normal((3, rows, m))
    b = 4.0 + np.abs(a) + np.abs(c)
    rep0, reduced0 = _fused_eliminate_slab(a, b, c, d)
    interior = slice(1, rows - 1)

    def split():
        rep, reduced = eliminate_slab(factor_slab(a, b, c), d)
        return np.stack(rep)[:, interior], reduced

    rep, reduced = split()
    if slab_interior_k(m, rows) == 0:
        assert rep.tobytes() == rep0[:, interior].tobytes()
        assert reduced.tobytes() == reduced0.tobytes()
    else:  # the hybrid interior agrees to rounding
        assert np.allclose(rep, rep0[:, interior], rtol=1e-10, atol=1e-13)
        assert np.allclose(reduced, reduced0, rtol=1e-10, atol=1e-13)

    # pinned to the Thomas route, every shape keeps the bits
    monkeypatch.setattr(partition, "SLAB_HEURISTIC", TransitionHeuristic())
    rep, reduced = split()
    assert rep.tobytes() == rep0[:, interior].tobytes()
    assert reduced.tobytes() == reduced0.tobytes()


@pytest.mark.parametrize("m", [1, 4, 64])
def test_factor_slab_leaves_the_slab_untouched(m):
    """Workers factor straight from the shared arena, so the bind half
    must not write to it — at ``M = 1`` a transposed row view of the
    slab is contiguous, the case a view-vs-copy slip would miss."""
    rng = np.random.default_rng(m)
    a, c = rng.standard_normal((2, 40, m))
    b = 4.0 + np.abs(a) + np.abs(c)
    before = [v.copy() for v in (a, b, c)]
    factor_slab(a, b, c)
    for v, w in zip((a, b, c), before):
        assert v.tobytes() == w.tobytes()


@settings(max_examples=30, deadline=None)
@given(
    ranks=st.integers(min_value=1, max_value=4),
    n=st.integers(min_value=8, max_value=200),
    seed=st.integers(min_value=0, max_value=10_000),
    data=st.data(),
)
def test_partition_placement_invariance(ranks, n, seed, data):
    """Any valid slab placement yields the same solution (cross-rank
    determinism): the reduced interface system is exact, so where the
    cuts land must not matter beyond roundoff."""
    a, b, c, d = random_batch(3, n, seed=seed)
    ref = _engine_reference(a, b, c, d)

    # random interior boundaries with every slab >= 2 rows
    cuts = sorted(
        data.draw(
            st.lists(
                st.integers(min_value=2, max_value=n - 2),
                min_size=ranks - 1,
                max_size=ranks - 1,
                unique=True,
            )
        )
    )
    edges = [0] + cuts + [n]
    if any(hi - lo < 2 for lo, hi in zip(edges, edges[1:])):
        edges = None  # fall back to the canonical near-equal split

    bounds = (
        list(zip(edges, edges[1:])) if edges is not None else None
    )
    x = partitioned_solve_reference(a, b, c, d, ranks, bounds=bounds)
    assert np.allclose(x, ref, rtol=1e-9, atol=1e-11)
    # the canonical split agrees with itself bit for bit on repeat
    x2 = partitioned_solve_reference(a, b, c, d, ranks, bounds=bounds)
    assert np.array_equal(x, x2)


# -------------------------------------------------------------- backend


def test_backend_bitwise_matches_reference():
    # M = 4 slabs factor through the hybrid, M = 64 through Thomas
    for m in (4, 64):
        assert (slab_interior_k(m, 513 // 4) > 0) == (m < 32)
        a, b, c, d = huge_system_batch(513, m=m, seed=11)
        for p in (2, 3, 4):
            x = repro.solve_batch(a, b, c, d, backend="distributed", ranks=p)
            ref = partitioned_solve_reference(a, b, c, d, p)
            assert np.array_equal(x, ref), f"M={m} ranks={p} not bitwise"


def test_backend_elementwise_close_to_engine():
    a, b, c, d = huge_system_batch(1024, m=3, seed=1)
    ref = _engine_reference(a, b, c, d)
    for p in (2, 4):
        x = repro.solve_batch(a, b, c, d, backend="distributed", ranks=p)
        assert np.allclose(x, ref, rtol=1e-10, atol=1e-12)


def test_single_rank_delegates_bitwise_to_engine():
    a, b, c, d = random_batch(4, 128, seed=2)
    ref = _engine_reference(a, b, c, d)
    x = repro.solve_batch(a, b, c, d, backend="distributed", ranks=1)
    assert np.array_equal(x, ref)
    assert repro.last_trace().ranks == 1


def test_backend_honors_out():
    a, b, c, d = random_batch(3, 96, seed=5)
    out = np.empty_like(d)
    x = repro.solve_batch(
        a, b, c, d, backend="distributed", ranks=2, out=out
    )
    assert x is out
    assert np.array_equal(out, partitioned_solve_reference(a, b, c, d, 2))


def test_trace_carries_ranks_and_stages():
    a, b, c, d = random_batch(3, 200, seed=8)
    repro.solve_batch(a, b, c, d, backend="distributed", ranks=3)
    tr = repro.last_trace()
    assert tr.backend == "distributed"
    assert tr.ranks == 3
    names = [s.name for s in tr.stages]
    for want in (
        "partition",
        "local-eliminate [3 ranks]",
        "reduced-solve",
        "backsub [3 ranks]",
        "comms",
    ):
        assert want in names, names


def test_periodic_via_fallback():
    rng = np.random.default_rng(4)
    m, n = 3, 128
    a = rng.standard_normal((m, n))
    c = rng.standard_normal((m, n))
    b = 4.0 + np.abs(a) + np.abs(c)
    d = rng.standard_normal((m, n))
    ref = repro.solve_periodic_batch(a, b, c, d, backend="engine")
    x = repro.solve_periodic_batch(
        a, b, c, d, backend="distributed", ranks=2
    )
    assert np.allclose(x, ref, rtol=1e-9, atol=1e-11)
    tr = repro.last_trace()
    assert tr.periodic
    assert any(s.name.startswith("cyclic-y:") for s in tr.stages)


def test_float32_supported():
    a, b, c, d = random_batch(3, 256, dtype=np.float32, seed=6)
    ref = _engine_reference(a, b, c, d)
    x = repro.solve_batch(a, b, c, d, backend="distributed", ranks=2)
    assert x.dtype == np.float32
    assert np.allclose(x, ref, rtol=1e-4, atol=1e-5)


# ----------------------------------------------------- registry / router


def test_registry_negotiation():
    names = [name for name, _ in repro.list_backends()]
    assert "distributed" in names

    a, b, c, d = random_batch(4, 64, seed=0)
    req = SolveRequest.build(a, b, c, d, ranks=2)
    engine = default_registry().get("engine")
    dist = default_registry().get("distributed")
    assert reject_reason(engine.capabilities(), req) is not None
    assert reject_reason(dist.capabilities(), req) is None


def test_auto_routes_ranks_to_distributed():
    a, b, c, d = random_batch(4, 96, seed=0)
    repro.solve_batch(a, b, c, d, ranks=2)
    tr = repro.last_trace()
    assert tr.backend == "distributed"
    assert tr.decision is not None and tr.decision.chosen == "distributed"


def test_plain_auto_never_picks_distributed():
    a, b, c, d = random_batch(4, 96, seed=0)
    repro.solve_batch(a, b, c, d)
    assert repro.last_trace().backend == "engine"


def test_gpusim_prices_ranks():
    a, b, c, d = random_batch(4, 256, seed=9)
    x = repro.solve_batch(a, b, c, d, backend="gpusim", ranks=4)
    tr = repro.last_trace()
    assert tr.ranks == 4
    assert tr.predicted_total_us is not None and tr.predicted_total_us > 0
    assert np.array_equal(x, partitioned_solve_reference(a, b, c, d, 4))


def test_slab_ledgers_price_a_step_and_stage_the_bind_half():
    from repro.kernels.comm_kernel import (
        distributed_plan,
        slab_eliminate_counters,
        staging_counters,
    )

    # a step streams only right-hand sides: the k = 0 interior's two d
    # sweeps move 7 values per row, the boundary rows 18 per system
    m, rows = 64, 4096
    ledger = slab_eliminate_counters(m, rows, 8)
    assert ledger.traffic.useful_bytes == (7 * (rows - 2) + 18) * m * 8
    # the one-time staging stage carries the ranks' bind half
    plan = dict(distributed_plan(4, 16384, 2, 8, include_staging=True))
    link_only = staging_counters(2, 4, 16384, 8).time_us()
    assert plan["staging (one-time)"] > link_only


# -------------------------------------------------------------- the pool


def test_worker_crash_raises_typed_error_and_recovers():
    a, b, c, d = random_batch(3, 64, seed=7)
    backend = DistributedBackend(timeout_s=30.0)
    # warm solve so the pool exists
    x = backend.solve_batch(a, b, c, d, ranks=2)
    assert np.array_equal(x, partitioned_solve_reference(a, b, c, d, 2))

    pool = get_pool(2)
    pool._procs[0].kill()
    with pytest.raises(DistributedWorkerError):
        backend.solve_batch(a, b, c, d, ranks=2)
    assert pool.broken

    # the next request rebuilds the pool and succeeds
    x = backend.solve_batch(a, b, c, d, ranks=2)
    assert np.array_equal(x, partitioned_solve_reference(a, b, c, d, 2))
    assert get_pool(2) is not pool


def test_concurrent_solves_on_one_pool_keep_their_bits():
    # one-shots and a bound session on different systems share the
    # process-wide ranks=2 pool from three threads; the N = 6144 system
    # rebuilds the arenas whenever it takes the pool.  Each pipeline
    # holds the pool from attach to gather, so every result keeps the
    # reference bits instead of another thread's scatter
    systems = [
        huge_system_batch(4096, m=4, seed=31),
        huge_system_batch(4096, m=4, seed=32),
        huge_system_batch(6144, m=4, seed=33),
    ]
    steps = 6
    rhs = [
        [np.random.default_rng(100 * t + i).standard_normal(s[3].shape)
         for i in range(steps)]
        for t, s in enumerate(systems)
    ]
    results = [[] for _ in systems]
    errors = []
    barrier = threading.Barrier(len(systems))

    def one_shots(t):
        a, b, c, _ = systems[t]
        barrier.wait(timeout=60)
        for d in rhs[t]:
            results[t].append(
                repro.solve_batch(a, b, c, d, backend="distributed", ranks=2)
            )

    def session(t):
        a, b, c, d0 = systems[t]
        with bind_via(a, b, c, d0, backend="distributed", ranks=2) as s:
            barrier.wait(timeout=60)
            for d in rhs[t]:
                results[t].append(s.step(d).copy())

    def guarded(fn, t):
        try:
            fn(t)
        except BaseException as exc:  # reported below, not swallowed
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        workers = [
            threading.Thread(target=guarded, args=(fn, t))
            for t, fn in enumerate((one_shots, session, one_shots))
        ]
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=240)
    finally:
        sys.setswitchinterval(interval)
    assert not any(w.is_alive() for w in workers)
    assert not errors, errors
    for t, (a, b, c, _) in enumerate(systems):
        assert len(results[t]) == steps
        for d, x in zip(rhs[t], results[t]):
            ref = partitioned_solve_reference(a, b, c, d, 2)
            assert np.array_equal(x, ref), t


# --------------------------------------- satellite: disk-cache recency


def test_diskcache_lru_deterministic_on_coarse_mtime(tmp_path):
    from repro.engine.diskcache import FactorizationDiskCache

    cache = FactorizationDiskCache(tmp_path, max_bytes=1)
    # simulate a coarse-mtime filesystem: every file lands on the same
    # whole-second stamp...
    paths = []
    for i in range(4):
        p = tmp_path / f"f{i}.npz"
        p.write_bytes(b"x" * 10)
        os.utime(p, ns=(1_000_000_000, 1_000_000_000))
        paths.append(str(p))
    # ...ties break on path, so the order is deterministic
    assert cache.files() == sorted(paths)

    # freshening always advances: repeated touches within one tick
    # must still produce strictly increasing stamps
    stamps = []
    for _ in range(3):
        cache._freshen(paths[0])
        stamps.append(os.stat(paths[0]).st_mtime_ns)
    assert stamps == sorted(set(stamps))
    # the freshened file is now the newest — evicted last
    assert cache.files()[-1] == paths[0]


# --------------------------------- satellite: cyclic fallback timings


def test_periodic_fallback_merges_stages_and_honors_out():
    from repro.backends.registry import default_registry

    rng = np.random.default_rng(12)
    m, n = 3, 64
    a = rng.standard_normal((m, n))
    c = rng.standard_normal((m, n))
    b = 4.0 + np.abs(a) + np.abs(c)
    d = rng.standard_normal((m, n))

    numpy_backend = default_registry().get("numpy")
    out = np.empty_like(d)
    x = numpy_backend.solve_batch(a, b, c, d, periodic=True, out=out)
    assert x is out

    ref = repro.solve_periodic_batch(a, b, c, d, backend="engine")
    assert np.allclose(out, ref, rtol=1e-9, atol=1e-11)

    trace = numpy_backend.instrument()
    names = [s.name for s in trace.stages]
    assert names[0] == "cyclic-reduce" and names[-1] == "cyclic-correction"
    # both inner solves' stage breakdowns survive, prefixed
    assert any(nm.startswith("cyclic-y:") for nm in names)
    assert any(nm.startswith("cyclic-q:") for nm in names)
