"""p-Thomas on interleaved subsystems: equivalence, masking, lengths."""

import numpy as np
import pytest

from repro.core.pcr import pcr_sweep
from repro.core.pthomas import _FusedPThomas, pthomas_solve_interleaved, subsystem_lengths
from repro.core.thomas import thomas_solve

from .conftest import make_batch, max_err, reference_solve


@pytest.mark.parametrize("n,k", [(16, 1), (16, 2), (64, 3), (100, 2), (37, 3), (129, 4)])
def test_solves_after_pcr(n, k):
    a, b, c, d = make_batch(3, n, seed=n * k)
    x_ref = reference_solve(a, b, c, d)
    ra, rb, rc, rd = pcr_sweep(a, b, c, d, k)
    x = pthomas_solve_interleaved(ra, rb, rc, rd, k)
    assert max_err(x, x_ref) < 1e-10


def test_k_zero_is_plain_thomas():
    from repro.core.thomas import thomas_solve_batch

    a, b, c, d = make_batch(4, 50, seed=1)
    x = pthomas_solve_interleaved(a, b, c, d, 0)
    assert np.array_equal(x, thomas_solve_batch(a, b, c, d, check=False))


def test_matches_per_subsystem_thomas():
    """Each interleaved subsystem solved independently gives the same."""
    n, k = 40, 2
    a, b, c, d = make_batch(1, n, seed=9)
    ra, rb, rc, rd = pcr_sweep(a, b, c, d, k)
    x = pthomas_solve_interleaved(ra, rb, rc, rd, k)
    g = 1 << k
    for j in range(g):
        aa = ra[0, j::g].copy()
        aa[0] = 0.0
        cc = rc[0, j::g].copy()
        cc[-1] = 0.0
        xs = thomas_solve(aa, rb[0, j::g], cc, rd[0, j::g], check=False)
        assert np.allclose(xs, x[0, j::g], atol=1e-12)


def test_g_at_least_n_divides_rows():
    """When 2^k >= n each row is its own system: x = d / b."""
    a, b, c, d = make_batch(2, 8, seed=3)
    ra, rb, rc, rd = pcr_sweep(a, b, c, d, 3)  # g = 8 = n
    x = pthomas_solve_interleaved(ra, rb, rc, rd, 3)
    assert np.allclose(x, rd / rb)
    assert max_err(x, reference_solve(a, b, c, d)) < 1e-10


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("k", [1, 4, 8])
def test_rows_no_solve_reads_change_no_bit(k, dtype):
    # a[:, :2^k] and c[:, N - 2^k:] couple to rows outside the system;
    # PCR leaves zeros there whose sign depends on the route that
    # eliminated them, and p-Thomas must not read them.
    n = 1003  # ragged: 2^k never divides N
    a, b, c, d = pcr_sweep(*make_batch(5, n, dtype=dtype, seed=k), k)
    clean = pthomas_solve_interleaved(a, b, c, d, k)
    g = 1 << k
    a, c = a.copy(), c.copy()
    a[:, :g] = np.nan
    c[:, n - g:] = np.nan
    assert pthomas_solve_interleaved(a, b, c, d, k).tobytes() == clean.tobytes()


@pytest.mark.parametrize("k", [0, 1, 3, 5])
def test_any_slab_split_keeps_the_one_shot_bits(k):
    # the one-shot is the fused forward fed one whole-system slab, so
    # the window's slabs, cut anywhere, give the same bits
    n = 333
    red = pcr_sweep(*make_batch(4, n, seed=k), k)
    ref = pthomas_solve_interleaved(*red, k)
    rng = np.random.default_rng(k)
    for _ in range(5):
        cuts = [0, *np.sort(rng.choice(np.arange(1, n), size=7, replace=False)), n]
        fused = _FusedPThomas(4, n, k, np.float64)
        for e0, e1 in zip(cuts, cuts[1:]):
            fused.consume(e0, e1, tuple(v[:, e0:e1] for v in red))
        assert fused.backward().tobytes() == ref.tobytes()


def test_subsystem_lengths_cover_all_rows():
    for n in (16, 17, 100, 255):
        for k in (1, 2, 3, 4):
            lens = subsystem_lengths(n, k)
            assert lens.sum() == n
            assert lens.max() - lens.min() <= 1


def test_subsystem_lengths_values():
    assert list(subsystem_lengths(10, 2)) == [3, 3, 2, 2]
    assert list(subsystem_lengths(8, 2)) == [2, 2, 2, 2]


@pytest.mark.parametrize("n", [15, 17, 31, 33])  # non-divisible sizes
def test_non_divisible_sizes(n):
    k = 3
    a, b, c, d = make_batch(2, n, seed=n)
    ra, rb, rc, rd = pcr_sweep(a, b, c, d, k)
    x = pthomas_solve_interleaved(ra, rb, rc, rd, k)
    assert max_err(x, reference_solve(a, b, c, d)) < 1e-10


def test_float32_dtype_preserved():
    a, b, c, d = make_batch(2, 32, dtype=np.float32, seed=5)
    ra, rb, rc, rd = pcr_sweep(a, b, c, d, 2)
    x = pthomas_solve_interleaved(ra, rb, rc, rd, 2)
    assert x.dtype == np.float32
