"""Factorization spill-to-disk tier: round-trips, sharing, eviction."""

import numpy as np
import pytest

import repro
from repro.backends.request import SolveRequest
from repro.engine import ExecutionEngine, FactorizationDiskCache
from repro.engine.diskcache import _key_filename
from repro.engine.prepared import ThomasRhsFactorization, factorization_arrays
from repro.workloads.generators import random_block_batch, random_penta_batch
from repro.workloads.pde import adi_row_coefficients


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


def _row_major_hybrid_arrays(fact, prefix=""):
    """A hybrid entry in the retired row-major layout: ``(M, N)`` level
    factors under ``lvl{i}_k1``/``lvl{i}_k2`` and the identity-padded
    ``(M·2^k, L)`` reduced Thomas factors under ``red_a``, ``red_cp`` and
    ``red_inv_denom`` (placeholder values: only names and shapes count)."""
    n, m = fact.reduced.ta.shape
    g = 1 << fact.k
    padded = np.ones((m * g, -(-n // g)))
    arrays = {"kind": np.array("hybrid"), "k": np.array(fact.k)}
    for i, (k1, k2) in enumerate(fact.level_factors):
        arrays[f"lvl{i}_k1"], arrays[f"lvl{i}_k2"] = k1.T, k2.T
    arrays.update(red_a=padded, red_cp=padded, red_inv_denom=padded)
    return {prefix + name: arr for name, arr in arrays.items()}


@pytest.mark.parametrize("kind", ["hybrid", "cyclic-hybrid"])
def test_row_major_hybrid_spill_files_are_refactored(tmp_path, kind):
    # M = N: a row-major file has the very shapes of the transposed
    # layout, so only its names keep it from loading with transposed
    # meaning; rebuilding it must fail and the torn-file path re-factor
    periodic = kind == "cyclic-hybrid"
    a, b, c, d = _batch(m=64, n=64, seed=11, cyclic=periodic)
    opts = dict(periodic=periodic, k=3, fingerprint=True)
    ref = ExecutionEngine().solve_batch(a, b, c, d, periodic=periodic, k=3,
                                        fingerprint=False)
    eng1 = ExecutionEngine(cache_dir=tmp_path)
    eng1.solve_batch(a, b, c, d, **opts)
    (path,) = eng1.disk_cache.files()
    (fact,) = eng1._facts.values()
    if periodic:
        old = {name: getattr(fact, name) for name in ("q", "w", "scale", "singular")}
        old.update(_row_major_hybrid_arrays(fact.core, prefix="core_"))
        old["kind"] = np.array("cyclic")
    else:
        old = _row_major_hybrid_arrays(fact)
    with open(path, "wb") as fh:
        np.savez(fh, **old)

    eng2 = ExecutionEngine(cache_dir=tmp_path)
    x = eng2.solve_batch(a, b, c, d, **opts)
    assert repro.last_trace().factorization == "factored"
    assert eng2.stats.factorizations_built == 1
    assert x.tobytes() == ref.tobytes()
    # the file was replaced by one in the current layout
    eng3 = ExecutionEngine(cache_dir=tmp_path)
    assert eng3.solve_batch(a, b, c, d, **opts).tobytes() == ref.tobytes()
    assert eng3.stats.factorizations_built == 0


def test_thomas_spill_layout_is_unchanged(tmp_path):
    # k = 0 files keep their (N, M) names and meaning: a file written
    # in this layout by an older version still loads and keeps the bits
    a, b, c, d = _batch(m=16, n=64, seed=12)
    ref = ExecutionEngine().solve_batch(a, b, c, d, k=0, fingerprint=False)
    eng1 = ExecutionEngine(cache_dir=tmp_path)
    eng1.solve_batch(a, b, c, d, k=0, fingerprint=True)
    (path,) = eng1.disk_cache.files()
    with np.load(path) as data:
        assert sorted(data.files) == ["cp", "denom", "kind", "ta"]
        assert data["ta"].shape == (64, 16)
    eng2 = ExecutionEngine(cache_dir=tmp_path)
    assert eng2.solve_batch(a, b, c, d, k=0, fingerprint=True).tobytes() == ref.tobytes()
    assert eng2.stats.factorizations_built == 0


def test_a_uniform_thomas_entry_spills_its_one_column(tmp_path):
    # a uniform batch's k = 0 entry is three (N, 1) columns under the
    # same names, and it reloads with the one-shot's bits
    a, b, c = adi_row_coefficients(16, 64, 0.3)
    d = np.random.default_rng(13).standard_normal((16, 64))
    ref = ExecutionEngine().solve_batch(a, b, c, d, k=0, fingerprint=False)
    eng1 = ExecutionEngine(cache_dir=tmp_path)
    eng1.solve_batch(a, b, c, d, k=0, fingerprint=True)
    (path,) = eng1.disk_cache.files()
    with np.load(path) as data:
        assert sorted(data.files) == ["cp", "denom", "kind", "ta"]
        assert {data[name].shape for name in ("ta", "cp", "denom")} == {(64, 1)}
    eng2 = ExecutionEngine(cache_dir=tmp_path)
    assert eng2.solve_batch(a, b, c, d, k=0, fingerprint=True).tobytes() == ref.tobytes()
    assert eng2.stats.factorizations_built == 0
    (loaded,) = eng2._facts.values()
    assert loaded.m == 1 and loaded.nbytes == 3 * 64 * 8


def test_a_full_width_file_of_a_uniform_batch_loads_as_written(tmp_path):
    # older versions spilled a uniform batch at full width: that file
    # still loads unconverted and sweeps with the same bits
    a, b, c = adi_row_coefficients(16, 64, 0.3)
    d = np.random.default_rng(14).standard_normal((16, 64))
    ref = ExecutionEngine().solve_batch(a, b, c, d, k=0, fingerprint=False)
    eng1 = ExecutionEngine(cache_dir=tmp_path)
    eng1.solve_batch(a, b, c, d, k=0, fingerprint=True)
    (path,) = eng1.disk_cache.files()
    full = ThomasRhsFactorization.factor_t(
        *(np.ascontiguousarray(v.T) for v in (a, b, c))
    )
    with open(path, "wb") as fh:
        np.savez(fh, **factorization_arrays(full))
    eng2 = ExecutionEngine(cache_dir=tmp_path)
    assert eng2.solve_batch(a, b, c, d, k=0, fingerprint=True).tobytes() == ref.tobytes()
    assert repro.last_trace().factorization == "hit"
    assert eng2.stats.factorizations_built == 0
    (loaded,) = eng2._facts.values()
    assert loaded.m == 16 and loaded.nbytes == 3 * a.nbytes
