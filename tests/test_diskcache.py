"""Factorization spill-to-disk tier: round-trips, sharing, eviction."""

import numpy as np
import pytest

import repro
from repro.backends.request import SolveRequest
from repro.engine import ExecutionEngine, FactorizationDiskCache
from repro.engine.diskcache import _key_filename
from repro.workloads.generators import random_block_batch, random_penta_batch


def _batch(m=16, n=64, seed=0, cyclic=False, dtype=np.float64):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((m, n)).astype(dtype)
    c = rng.standard_normal((m, n)).astype(dtype)
    b = (4.0 + np.abs(a) + np.abs(c)).astype(dtype)
    d = rng.standard_normal((m, n)).astype(dtype)
    if not cyclic:
        a[:, 0] = 0.0
        c[:, -1] = 0.0
    return a, b, c, d


def test_spilled_factorization_is_shared_across_engines(tmp_path):
    a, b, c, d = _batch(seed=1)
    eng1 = ExecutionEngine(cache_dir=tmp_path)
    eng1.solve_batch(a, b, c, d, k=0, fingerprint=True)
    assert repro.last_trace().factorization == "factored"
    ref = eng1.solve_batch(a, b, c, d, k=0, fingerprint=True)
    assert eng1.disk_cache.stores == 1
    assert len(eng1.disk_cache.files()) == 1

    # a fresh engine (empty memory cache) answers from the directory:
    # no re-elimination, identical bits
    eng2 = ExecutionEngine(cache_dir=tmp_path)
    x = eng2.solve_batch(a, b, c, d, k=0, fingerprint=True)
    trace = repro.last_trace()
    assert trace.factorization == "hit"
    assert trace.rhs_only is True
    assert eng2.stats.factorizations_built == 0
    assert eng2.disk_cache.hits == 1
    assert np.array_equal(x, ref)


def _round_trip_request(kind):
    """One fingerprint=True request per factorization kind the engine spills."""
    if kind == "penta":
        e, a, b, c, f, d = random_penta_batch(8, 96, seed=9)
        return SolveRequest.build(a, b, c, d, e=e, f=f, fingerprint=True)
    if kind == "block":
        return SolveRequest.build(
            *random_block_batch(4, 24, block_size=3, seed=10), fingerprint=True
        )
    periodic = kind.startswith("cyclic")
    a, b, c, d = _batch(m=8, n=256, seed=2, cyclic=periodic)
    k = 3 if kind.endswith("hybrid") else 0
    return SolveRequest.build(
        a, b, c, d, periodic=periodic, k=k, fingerprint=True
    )


@pytest.mark.parametrize(
    "kind",
    ["thomas", "hybrid", "cyclic-thomas", "cyclic-hybrid", "penta", "block"],
)
def test_every_factorization_kind_round_trips(tmp_path, kind):
    request = _round_trip_request(kind)
    eng1 = ExecutionEngine(cache_dir=tmp_path)
    ref = eng1.run(request)
    assert ref.trace.factorization == "factored"
    assert eng1.disk_cache.stores == 1

    # a fresh engine on the same directory builds nothing: the reloaded
    # factorization serves the identical bits
    eng2 = ExecutionEngine(cache_dir=tmp_path)
    out = eng2.run(request)
    assert out.trace.factorization == "hit" and out.trace.rhs_only
    assert eng2.stats.factorizations_built == 0
    assert np.array_equal(out.x, ref.x)
    (built,) = eng1._facts.values()
    (loaded,) = eng2._facts.values()
    assert loaded.kind == built.kind
    assert loaded.nbytes == built.nbytes


def test_disk_cache_is_off_by_default():
    assert ExecutionEngine().disk_cache is None


def test_size_cap_evicts_oldest_files(tmp_path):
    a, b, c, d = _batch(m=32, n=128, seed=4)
    eng = ExecutionEngine(cache_dir=tmp_path)
    eng.solve_batch(a, b, c, d, k=0, fingerprint=True)
    one_file_bytes = eng.disk_cache.nbytes()
    assert one_file_bytes > 0

    # cap at ~2.5 files: the third spill must evict the oldest
    capped = ExecutionEngine(
        cache_dir=tmp_path, disk_cache_bytes=int(2.5 * one_file_bytes)
    )
    cache = capped.disk_cache
    for seed in (5, 6, 7):
        ai, bi, ci, di = _batch(m=32, n=128, seed=seed)
        capped.solve_batch(ai, bi, ci, di, k=0, fingerprint=True)
    assert cache.evictions >= 1
    assert cache.nbytes() <= cache.max_bytes
    assert len(cache.files()) < 4  # seed-4's file was oldest → gone first


def test_torn_cache_file_is_dropped_not_fatal(tmp_path):
    a, b, c, d = _batch(seed=8)
    eng1 = ExecutionEngine(cache_dir=tmp_path)
    eng1.solve_batch(a, b, c, d, k=0, fingerprint=True)
    path = eng1.disk_cache.files()[0]
    with open(path, "rb") as fh:
        good = fh.read()
    flipped = bytearray(good)
    flipped[len(good) // 2] ^= 0xFF  # inside an array: bad CRC
    damaged = {
        "garbage": b"not an npz",
        "truncated": good[: len(good) // 2],
        "byte-flipped": bytes(flipped),
    }
    for label, raw in damaged.items():
        with open(path, "wb") as fh:
            fh.write(raw)
        eng2 = ExecutionEngine(cache_dir=tmp_path)
        x = eng2.solve_batch(a, b, c, d, k=0, fingerprint=True)
        # torn file: re-factored, file replaced by a good one
        assert repro.last_trace().factorization == "factored", label
        assert eng2.stats.factorizations_built == 1, label
        assert np.isfinite(x).all(), label
        eng3 = ExecutionEngine(cache_dir=tmp_path)
        eng3.solve_batch(a, b, c, d, k=0, fingerprint=True)
        assert eng3.stats.factorizations_built == 0, label


def test_cache_filenames_are_digest_named():
    key = (16, 64, "<f8", 0, "", True, "ab" * 16)
    name = _key_filename(key)
    assert name.startswith("ab" * 16)
    assert "16x64" in name and "float64" in name and "cyclic" in name
    assert name.endswith(".npz")


def test_disk_cache_rejects_bad_cap(tmp_path):
    with pytest.raises(ValueError, match="max_bytes"):
        FactorizationDiskCache(tmp_path, max_bytes=0)
