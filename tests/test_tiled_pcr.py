"""Tiled PCR: exact equivalence with the monolithic sweep, counters,
redundancy accounting, emit streaming, the naive-tiling strawman."""

import numpy as np
import pytest

from repro.core.cost_model import f_redundant_loads
from repro.core.pcr import pcr_sweep
from repro.core.tiled_pcr import (
    TiledPCR,
    TilingCounters,
    naive_tiled_pcr_sweep,
    tiled_pcr_sweep,
)

from .conftest import make_batch


@pytest.mark.parametrize("n", [16, 48, 100, 257, 1000])
@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_equivalent_to_monolithic_sweep(n, k):
    if (1 << k) > n // 2:
        pytest.skip("k too large for n")
    a, b, c, d = make_batch(2, n, seed=n + k)
    ref = pcr_sweep(a, b, c, d, k)
    out = tiled_pcr_sweep(a, b, c, d, k)
    for x, y in zip(out, ref):
        assert np.allclose(x, y, rtol=1e-13, atol=1e-15)


@pytest.mark.parametrize("n_windows", [1, 2, 3, 5, 8])
def test_multi_window_equivalence(n_windows):
    n, k = 200, 3
    a, b, c, d = make_batch(2, n, seed=n_windows)
    ref = pcr_sweep(a, b, c, d, k)
    out = tiled_pcr_sweep(a, b, c, d, k, n_windows=n_windows)
    for x, y in zip(out, ref):
        assert np.allclose(x, y, rtol=1e-13, atol=1e-15)


@pytest.mark.parametrize("c", [1, 2, 4])
def test_subtile_scale_equivalence(c):
    n, k = 150, 3
    a, b, c_, d = make_batch(1, n, seed=c)
    ref = pcr_sweep(a, b, c_, d, k)
    out = tiled_pcr_sweep(a, b, c_, d, k, subtile_scale=c)
    for x, y in zip(out, ref):
        assert np.allclose(x, y, rtol=1e-13, atol=1e-15)


def test_k_zero_passthrough():
    a, b, c, d = make_batch(2, 32, seed=0)
    out = tiled_pcr_sweep(a, b, c, d, 0)
    for orig, new in zip((a, b, c, d), out):
        assert np.array_equal(orig, new)


def test_single_window_loads_each_row_once():
    n, k = 512, 4
    a, b, c, d = make_batch(1, n, seed=1)
    cnt = TilingCounters()
    tiled_pcr_sweep(a, b, c, d, k, counters=cnt)
    assert cnt.rows_loaded == n
    assert cnt.rows_loaded_redundant == 0


@pytest.mark.parametrize("n_windows", [2, 3, 4])
def test_multi_window_redundancy_is_2fk_per_boundary(n_windows):
    """Fig. 11(b)'s tradeoff: each internal region boundary re-loads
    f(k) lead-in rows (next region) plus f(k) look-ahead rows (previous
    region) — 2·f(k) redundant loads per boundary, and no more."""
    n, k = 400, 3
    a, b, c, d = make_batch(1, n, seed=2)
    cnt = TilingCounters()
    tiled_pcr_sweep(a, b, c, d, k, n_windows=n_windows, counters=cnt)
    expected_extra = (n_windows - 1) * 2 * f_redundant_loads(k)
    assert cnt.rows_loaded == n + expected_extra
    assert cnt.rows_loaded_redundant == expected_extra


@pytest.mark.parametrize("c", [1, 4, 16])
def test_eliminations_close_to_k_times_n(c):
    """Cached tiling does ~k·N eliminations (plus lead-in warm-up only)."""
    n, k = 1024, 4
    a, b, cc, d = make_batch(1, n, seed=3)
    cnt = TilingCounters()
    tiled_pcr_sweep(a, b, cc, d, k, subtile_scale=c, counters=cnt)
    assert cnt.eliminations >= k * n
    # overhead bounded by the window's lead-in, not proportional to tiles
    assert cnt.eliminations <= k * n + 4 * k * f_redundant_loads(k) + 4 * k * (1 << k)
    # each level stops at the dependency cone, so the sub-tile size
    # moves no elimination
    ref = TilingCounters()
    tiled_pcr_sweep(a, b, cc, d, k, counters=ref)
    assert cnt.eliminations == ref.eliminations


def test_naive_tiling_matches_but_costs_more():
    n, k, tile = 512, 3, 32
    a, b, c, d = make_batch(1, n, seed=4)
    ref = pcr_sweep(a, b, c, d, k)
    cached_cnt = TilingCounters()
    naive_cnt = TilingCounters()
    out_c = tiled_pcr_sweep(a, b, c, d, k, counters=cached_cnt)
    out_n = naive_tiled_pcr_sweep(a, b, c, d, k, tile=tile, counters=naive_cnt)
    for x, y in zip(out_n, ref):
        assert np.allclose(x, y, rtol=1e-13, atol=1e-15)
    for x, y in zip(out_c, ref):
        assert np.allclose(x, y, rtol=1e-13, atol=1e-15)
    # the strawman re-loads f(k) halo rows per internal boundary side:
    # every tile fetches tile + 2 f(k) rows, clipped at the two outer ends
    n_tiles = n // tile
    fk = f_redundant_loads(k)
    assert naive_cnt.rows_loaded == n + 2 * fk * n_tiles - 2 * fk
    assert naive_cnt.rows_loaded > cached_cnt.rows_loaded
    assert naive_cnt.eliminations > cached_cnt.eliminations


@pytest.mark.parametrize("tile", [-4, 0])
def test_naive_tiling_rejects_tile_below_one(tile):
    # with no whole tile to fetch, the sweep would hand back its
    # outputs unwritten (or fail inside range()), so it names the bad tile
    a, b, c, d = make_batch(1, 64, seed=4)
    with pytest.raises(ValueError, match="tile"):
        naive_tiled_pcr_sweep(a, b, c, d, 3, tile=tile)


def test_emit_streams_cover_all_rows_in_order():
    n, k = 300, 3
    a, b, c, d = make_batch(1, n, seed=5)
    seen = []

    def emit(e0, e1, quad):
        seen.append((e0, e1))
        assert quad[0].shape == (1, e1 - e0)

    tp = TiledPCR(k=k)
    ret = tp.sweep(a, b, c, d, emit=emit)
    assert ret is None
    # ascending, non-overlapping, covering [0, n)
    assert seen[0][0] == 0
    assert seen[-1][1] == n
    for (a0, a1), (b0, b1) in zip(seen, seen[1:]):
        assert a1 == b0


def test_emit_content_matches_sweep():
    n, k = 128, 2
    a, b, c, d = make_batch(2, n, seed=6)
    ref = pcr_sweep(a, b, c, d, k)
    got = [np.zeros((2, n)) for _ in range(4)]

    def emit(e0, e1, quad):
        for dst, src in zip(got, quad):
            dst[:, e0:e1] = src

    TiledPCR(k=k).sweep(a, b, c, d, emit=emit)
    for x, y in zip(got, ref):
        assert np.allclose(x, y, rtol=1e-13, atol=1e-15)


def test_counters_merge():
    c1 = TilingCounters(rows_loaded=10, eliminations=5, subtiles=2, windows=1)
    c2 = TilingCounters(rows_loaded=3, rows_loaded_redundant=1, eliminations=2)
    c1.merge(c2)
    assert c1.rows_loaded == 13
    assert c1.rows_loaded_redundant == 1
    assert c1.eliminations == 7
    assert c1.subtiles == 2


def test_invalid_parameters():
    with pytest.raises(ValueError):
        TiledPCR(k=-1)
    with pytest.raises(ValueError):
        TiledPCR(k=2, c=0)
    with pytest.raises(ValueError):
        TiledPCR(k=2, n_windows=0)


def test_cache_rows_is_two_fk():
    for k in range(1, 9):
        assert TiledPCR(k=k).cache_rows() == 2 * f_redundant_loads(k)


def test_float32_equivalence():
    n, k = 128, 3
    a, b, c, d = make_batch(1, n, dtype=np.float32, seed=7)
    ref = pcr_sweep(a, b, c, d, k)
    out = tiled_pcr_sweep(a, b, c, d, k)
    for x, y in zip(out, ref):
        assert x.dtype == np.float32
        assert np.allclose(x, y, rtol=1e-5, atol=1e-6)


def test_windows_exceeding_rows_still_correct():
    """More windows than sensible regions must not break correctness."""
    n, k = 40, 2
    a, b, c, d = make_batch(1, n, seed=8)
    ref = pcr_sweep(a, b, c, d, k)
    out = tiled_pcr_sweep(a, b, c, d, k, n_windows=16)
    for x, y in zip(out, ref):
        assert np.allclose(x, y, rtol=1e-13, atol=1e-15)
