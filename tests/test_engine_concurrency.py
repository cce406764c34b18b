"""Thread-safety stress: one engine hammered from many threads.

The service tier runs ``ExecutionEngine.run()`` concurrently from its
dispatch executor while direct callers keep using the same default
engine from their own threads.  These tests drive the shared mutable
state — the plan/factorization LRUs, the workspace pools, and the disk
spill tier's mtime-LRU eviction — hard enough that a missing lock
surfaces as an exception or a wrong answer.
"""

from __future__ import annotations

import threading

import numpy as np

import repro
from repro.engine import ExecutionEngine
from repro.workloads import random_batch

THREADS = 8
ITERS = 12


def hammer(worker, threads=THREADS):
    """Run ``worker(i)`` on N threads; re-raise the first failure."""
    errors: list = []

    def wrap(i):
        try:
            worker(i)
        except BaseException as exc:  # noqa: BLE001 - surfaced below
            errors.append(exc)

    ts = [threading.Thread(target=wrap, args=(i,)) for i in range(threads)]
    for t in ts:
        t.start()
    for t in ts:
        t.join(120.0)
    assert not any(t.is_alive() for t in ts), "stress worker hung"
    if errors:
        raise errors[0]


def test_concurrent_solves_share_plan_and_workspace_pools():
    engine = ExecutionEngine(pool_size=2)
    batches = [random_batch(8, 128, seed=s) for s in range(4)]
    refs = [repro.solve_batch(*bt, k=0) for bt in batches]

    def worker(i):
        for j in range(ITERS):
            which = (i + j) % len(batches)
            x = engine.solve_batch(*batches[which], k=0)
            assert np.array_equal(x, refs[which])

    hammer(worker)


def test_concurrent_fingerprint_reuse_under_tiny_lru():
    # max_factorizations=2 with 4 rotating coefficient sets: every
    # thread keeps evicting the factorizations the others just built
    engine = ExecutionEngine(max_factorizations=2)
    batches = [random_batch(4, 64, seed=100 + s) for s in range(4)]
    refs = [repro.solve_batch(*bt, k=0) for bt in batches]

    def worker(i):
        for j in range(ITERS):
            which = (i + j) % len(batches)
            a, b, c, d = batches[which]
            x = engine.solve_batch(a, b, c, d, k=0, fingerprint=True)
            assert np.array_equal(x, refs[which])

    hammer(worker)


def test_concurrent_engines_share_disk_cache_with_eviction_churn(tmp_path):
    # two engines, one spill directory, a cap small enough that every
    # store evicts someone else's file: loads must survive files
    # vanishing between listing and np.load (torn/missing-file path)
    batches = [random_batch(4, 64, seed=200 + s) for s in range(6)]
    refs = [repro.solve_batch(*bt, k=0) for bt in batches]
    probe = ExecutionEngine(cache_dir=tmp_path)
    pa, pb, pc, pd = batches[0]
    probe.solve_batch(pa, pb, pc, pd, k=0, fingerprint=True)
    assert probe.disk_cache is not None
    one_file = max(probe.disk_cache.nbytes(), 1)

    engines = [
        ExecutionEngine(
            max_factorizations=1,
            cache_dir=tmp_path,
            disk_cache_bytes=2 * one_file,
        )
        for _ in range(2)
    ]

    def worker(i):
        engine = engines[i % len(engines)]
        for j in range(ITERS):
            which = (i + j) % len(batches)
            a, b, c, d = batches[which]
            x = engine.solve_batch(a, b, c, d, k=0, fingerprint=True)
            assert np.array_equal(x, refs[which])

    hammer(worker)
    evictions = sum(e.disk_cache.evictions for e in engines)
    assert evictions > 0, "cap never forced an eviction; stress is vacuous"


def test_service_and_direct_callers_share_default_engine():
    # the deployment shape: a SyncSolveClient coalescing in its own
    # loop thread while other threads call repro.solve_batch directly
    from repro.service import ServiceConfig, SyncSolveClient

    frags = [random_batch(4, 64, seed=400 + s) for s in range(THREADS)]
    refs = [repro.solve_batch(*bt, k=0) for bt in frags]

    with SyncSolveClient(ServiceConfig(max_wait_us=1000.0)) as client:
        def worker(i):
            for j in range(ITERS // 2):
                if (i + j) % 2:
                    x = client.solve(*frags[i], timeout=120.0)
                else:
                    x = repro.solve_batch(*frags[i], k=0)
                assert np.array_equal(x, refs[i])

        hammer(worker)


def test_concurrent_builds_of_one_key_count_its_bytes_once(monkeypatch):
    # two threads miss the same key, both build, both store: the ledger
    # must hold the bytes of the one surviving entry, not of both builds
    from repro.engine import engine as engine_module

    barrier = threading.Barrier(2, timeout=60.0)
    build = engine_module.build_factorization

    def held_build(*args):
        barrier.wait()  # both threads are building before either stores
        return build(*args)

    monkeypatch.setattr(engine_module, "build_factorization", held_build)
    engine = ExecutionEngine()
    a, b, c, d = random_batch(8, 128, seed=77)
    hammer(
        lambda i: engine.solve_batch(a, b, c, d, k=0, fingerprint=True),
        threads=2,
    )
    assert engine.stats.factorizations_built == 2
    held = sum(fact.nbytes for fact in engine._facts.values())
    assert len(engine._facts) == 1
    assert engine.stats.factorization_bytes == held
