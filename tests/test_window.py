"""BufferedSlidingWindow: Table I properties and resource accounting."""

import pytest

from repro.core.window import BufferedSlidingWindow


@pytest.mark.parametrize("k", range(1, 9))
def test_table1_per_k(k):
    w = BufferedSlidingWindow(k=k)
    assert w.subtile == 2**k
    assert w.threads_per_block == 2**k
    assert w.cache_capacity == 3 * (2**k - 1)
    assert w.cache_capacity <= 3 * 2**k        # Table I bound
    assert w.min_cache_capacity == 2 * (2**k - 1)
    assert w.elim_steps_per_thread == k
    assert w.elim_steps_per_subtile == k * 2**k


@pytest.mark.parametrize("c", [1, 2, 4])
def test_table1_with_c(c):
    w = BufferedSlidingWindow(k=3, c=c)
    assert w.subtile == c * 8
    assert w.elim_steps_per_thread == c * 3
    assert w.elim_steps_per_subtile == c * 3 * 8
    assert w.threads_per_block == 8  # independent of c


def test_buffer_geometry_fig9():
    """top = S, middle = 2S, bottom = S -> 4S total."""
    w = BufferedSlidingWindow(k=4, c=2)
    s = w.subtile
    assert w.top_rows == s
    assert w.middle_rows == 2 * s
    assert w.bottom_rows == s
    assert w.total_rows == 4 * s


def test_smem_bytes():
    w = BufferedSlidingWindow(k=4, dtype_bytes=8)
    assert w.smem_bytes() == 4 * 16 * 4 * 8  # 4S rows x 4 values x 8 B
    w32 = BufferedSlidingWindow(k=4, dtype_bytes=4)
    assert w32.smem_bytes() == w.smem_bytes() // 2


def test_round_cost():
    w = BufferedSlidingWindow(k=3)
    rc = w.round_cost()
    assert rc.global_rows_loaded == 8
    assert rc.eliminations == 3 * 8
    assert rc.barriers == 4  # k + 1
    assert rc.smem_rows_copied == w.top_rows + w.middle_rows


def test_rounds_for_includes_lead_in():
    w = BufferedSlidingWindow(k=3)  # S = 8, f(k) = 7
    assert w.rounds_for(0) == 1     # lead-in alone needs a round
    assert w.rounds_for(8) == 2     # 8 + 7 = 15 -> 2 rounds
    assert w.rounds_for(100) == -(-107 // 8)


def test_rounds_for_rejects_negative():
    with pytest.raises(ValueError):
        BufferedSlidingWindow(k=2).rounds_for(-1)


def test_validation():
    with pytest.raises(ValueError):
        BufferedSlidingWindow(k=-1)
    with pytest.raises(ValueError):
        BufferedSlidingWindow(k=2, c=0)
    with pytest.raises(ValueError):
        BufferedSlidingWindow(k=2, dtype_bytes=2)


def test_table_one_dict_consistency():
    w = BufferedSlidingWindow(k=5, c=2)
    t = w.table_one()
    assert t["subtile_size"] == w.subtile
    assert t["threads_per_block"] == w.threads_per_block
    assert t["cache_capacity"] == w.cache_capacity
    assert t["elim_steps_per_subtile"] == w.elim_steps_per_subtile


def test_matches_streaming_implementation_cache():
    """The streaming TiledPCR holds 2·f(k) rows — the paper's minimum,
    within the window's 3·f(k) shipped capacity."""
    from repro.core.tiled_pcr import TiledPCR

    for k in range(1, 9):
        w = BufferedSlidingWindow(k=k)
        tp = TiledPCR(k=k)
        assert tp.cache_rows() == w.min_cache_capacity
        assert tp.cache_rows() <= w.cache_capacity
