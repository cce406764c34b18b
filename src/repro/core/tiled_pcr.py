"""Tiled PCR with the buffered sliding window — Section III-A of the paper.

The problem
-----------
A k-step PCR sweep over a system too large for shared memory must be
*tiled*.  Naive tiling re-loads ``f(k) = 2^k − 1`` halo rows and re-runs
``g(k)`` eliminations per tile boundary (Eqs. 8-9, Fig. 7) — exponential
in ``k``.  The paper's fix (Fig. 8b): process sub-tiles **sequentially**
inside each tile and *cache* every intermediate value that a later
sub-tile will need, so nothing is ever loaded or eliminated twice.

The cache invariant
-------------------
Write ``F_l`` for the number of level-``l`` rows finalized so far
(level 0 = raw input, level ``l`` = after ``l`` PCR steps).  A level-
``l+1`` value at row ``i`` needs level-``l`` rows ``i − 2^l, i, i + 2^l``,
so the frontiers obey ``F_{l+1} = F_l − 2^l`` and hence
``F_k = F_0 − f(k)``: outputs lag raw input by exactly ``f(k)`` rows —
the "lead-in" of Fig. 10.  Advancing level ``l+1`` by a sub-tile of
``S`` rows consumes level-``l`` rows from ``F_l^{old} − 2^{l+1}``
onwards, so the per-level trailing cache must retain ``2^{l+1}`` rows;
summing over levels gives total state ``Σ 2^{l+1} = 2·f(k)`` — the
paper's minimum cache capacity (the shipped layout allocates ``3·f(k)``
for alignment margins; see :mod:`repro.core.window`).

The ring-buffer realization
---------------------------
Each per-level cache lives in a **fixed-capacity ring buffer**
(:class:`repro.core.ringbuf.RingRows`): producers write new rows in
place through ``append`` views, the trim is an offset advance, and the
compaction copy of the retained rows (once per round: a ring holds its
retention budget plus one sub-tile) is the paper's per-round cache-
management copy.  A sweep therefore performs *zero* per-sub-tile
allocations — the buffers are owned by a :class:`TiledWorkspace` that
the solve-plan engine (:mod:`repro.engine`) reuses across repeated
solves, exactly as the GPU kernel reuses its shared-memory block across
rounds.  Passing no workspace allocates one per sweep.

Every buffer the window writes — the ring buffers, the level-``k``
staging slab and the elimination scratch — is column-major: the batch
axis is contiguous, so the ``(M, w)`` operand of each ``out=`` kernel is
one unit-stride block rather than ``M`` short strided runs.  The input
transpose rides the per-round raw fetch (a copy the window makes
anyway), and every slab handed to ``emit`` is column-major too.

Multi-window regions (Fig. 11b)
-------------------------------
A system may also be cut into ``W`` regions processed by independent
windows (more parallelism).  Region ``[r0, r1)`` must lead in from raw
row ``r0 − f(k)`` and read ahead to ``r1 + f(k)``: the dependency cone
of outputs ``r0`` and ``r1 − 1`` reaches exactly that far, so each
internal boundary re-loads ``2·f(k)`` halo rows — the paper's stated
tradeoff for variant (b).  ``W = 1`` does zero redundant work.

Everything here is numerically exact: the emitted ``b`` and ``d`` are
bitwise the rows a whole-system :func:`repro.core.pcr.pcr_sweep` would
produce (same operands, same operation order per row), and ``a`` and
``c`` equal its values.  Their bits can differ only in the sign of a
zero, in the rows where they are zero by construction: ``a[:, :2^k]``
and ``c[:, N − 2^k:]``.  ``pcr_step`` masks each level's boundary
factors ``k1[:, :s]`` and ``k2[:, N − s:]`` to ``+0``, where the window
divides the level's own zeros there by the identity rows' ``b = 1``,
which keeps their signs.  No solve reads those rows: p-Thomas reads
``a`` from row ``2^k`` on and ``c`` below row ``N − 2^k``.

:func:`_pcr_local_into` is the one PCR level kernel on the host: the
window, the naive strawman, :func:`repro.core.streaming.pcr_levels` and
:meth:`repro.core.factorize.HybridFactorization.factor` (over
identity-padded whole arrays, without the ``d`` channel) all eliminate
through it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.cost_model import f_redundant_loads
from repro.core.ringbuf import RingRows
from repro.core.validation import check_batch_arrays

__all__ = [
    "TiledPCR",
    "TiledWorkspace",
    "TilingCounters",
    "tiled_pcr_sweep",
    "naive_tiled_pcr_sweep",
]


@dataclass
class TilingCounters:
    """Work/traffic ledger for one tiled-PCR sweep.

    ``rows_loaded`` counts raw rows fetched from "global memory"
    (one row = one ``(a, b, c, d)`` quadruple); ``rows_loaded_redundant``
    is the subset fetched more than once (region lead-ins).
    ``eliminations`` counts PCR row-reductions actually performed;
    ``eliminations_redundant`` those performed for rows outside the
    emitting region (lead-in warm-up).  ``subtiles`` counts sliding-window
    advances (each is one shared-memory-resident processing round).
    """

    rows_loaded: int = 0
    rows_loaded_redundant: int = 0
    eliminations: int = 0
    eliminations_redundant: int = 0
    subtiles: int = 0
    windows: int = 0

    def merge(self, other: "TilingCounters") -> None:
        """Accumulate another ledger into this one."""
        self.rows_loaded += other.rows_loaded
        self.rows_loaded_redundant += other.rows_loaded_redundant
        self.eliminations += other.eliminations
        self.eliminations_redundant += other.eliminations_redundant
        self.subtiles += other.subtiles
        self.windows += other.windows


def _fill_identity(views: tuple) -> None:
    """Write identity rows (``a = c = d = 0, b = 1``, inert under PCR)
    into preallocated ``(a, b, c[, d])`` views."""
    for v, value in zip(views, (0.0, 1.0, 0.0, 0.0)):
        v[...] = value


def _pcr_local_into(q: tuple, s: int, out: tuple, k1, k2, tmp) -> None:
    """One PCR step of stride ``s`` on a local row window, written into
    preallocated ``out`` views — the one PCR level kernel.

    ``q`` holds ``w + 2s`` consecutive level-``l`` rows of ``(a, b, c)``
    or ``(a, b, c, d)``; ``out`` receives the ``w`` level-``l+1`` rows
    of the centre slice, with a ``d`` channel when ``q`` has one.
    Out-of-system rows must be identity rows: ``a = 0`` / ``c = 0``
    then make the masks of :func:`repro.core.pcr.pcr_step` implicit.
    ``k1``, ``k2``, ``tmp`` are ``(M, w)`` scratch views; on return
    ``k1`` and ``k2`` hold the level's reduction factors
    ``a / b_{−s}`` and ``c / b_{+s}``.  ``a'`` and ``c'`` are formed as
    ``−(x·y)``, which equals ``pcr_step``'s ``(−x)·y`` bitwise because
    IEEE-754 negation is exact.
    """
    a, b, c = q[:3]
    w = a.shape[1] - 2 * s
    a_m, b_m, c_m = (x[:, :w] for x in (a, b, c))
    a_c, b_c, c_c = (x[:, s : s + w] for x in (a, b, c))
    a_p, b_p, c_p = (x[:, 2 * s : 2 * s + w] for x in (a, b, c))
    oa, ob, oc = out[:3]
    np.divide(a_c, b_m, out=k1)
    np.divide(c_c, b_p, out=k2)
    # a' = -a_m * k1
    np.multiply(a_m, k1, out=oa)
    np.negative(oa, out=oa)
    # b' = b_c - c_m*k1 - a_p*k2
    np.multiply(c_m, k1, out=tmp)
    np.subtract(b_c, tmp, out=ob)
    np.multiply(a_p, k2, out=tmp)
    np.subtract(ob, tmp, out=ob)
    # c' = -c_p * k2
    np.multiply(c_p, k2, out=oc)
    np.negative(oc, out=oc)
    if len(q) == 4:
        # d' = d_c - d_m*k1 - d_p*k2
        d, od = q[3], out[3]
        np.multiply(d[:, :w], k1, out=tmp)
        np.subtract(d[:, s : s + w], tmp, out=od)
        np.multiply(d[:, 2 * s : 2 * s + w], k2, out=tmp)
        np.subtract(od, tmp, out=od)


class _RawProvider:
    """Streams raw rows of a batch, padding out-of-range rows with identity.

    Also keeps the load ledger: every in-range row fetched is counted, and
    rows outside the caller's emitting region count as redundant.
    """

    def __init__(self, quads: tuple, counters: TilingCounters):
        self.quads = quads
        self.n = quads[0].shape[1]
        self.m = quads[0].shape[0]
        self.counters = counters

    def _count(self, lo: int, hi: int, region: tuple) -> None:
        """Ledger update for a fetch of global rows ``[lo, hi)``.

        Counts ``(a, b, c, d)`` quadruples: a fetch of ``w`` row indices
        on an ``M``-system batch loads ``w · M`` quadruples.
        """
        r0, r1 = region
        in_lo, in_hi = max(lo, 0), min(hi, self.n)
        real = max(0, in_hi - in_lo)
        self.counters.rows_loaded += real * self.m
        if real:
            red_lo, red_hi = max(in_lo, r0), min(in_hi, r1)
            inside = max(0, red_hi - red_lo)
            self.counters.rows_loaded_redundant += (real - inside) * self.m

    def fetch_into(self, lo: int, hi: int, region: tuple, views: tuple) -> None:
        """Rows ``[lo, hi)`` in global coordinates into preallocated
        ``(M, hi − lo)`` views, identity rows outside ``[0, n)``.

        The views are column-major window memory, so for row-major
        inputs this copy is also the transpose into the window layout.
        """
        self._count(lo, hi, region)
        in_lo, in_hi = max(lo, 0), min(hi, self.n)
        if in_lo >= in_hi:
            _fill_identity(views)
            return
        j0, j1 = in_lo - lo, in_hi - lo
        if j0 > 0:
            _fill_identity(tuple(v[:, :j0] for v in views))
        for dst, src in zip(views, self.quads):
            dst[:, j0:j1] = src[:, in_lo:in_hi]
        if j1 < hi - lo:
            _fill_identity(tuple(v[:, j1:] for v in views))


class TiledWorkspace:
    """Preallocated ring buffers and scratch for one sliding-window sweep.

    Owns everything a :meth:`TiledPCR.sweep` call writes besides its
    output: the per-level trailing caches, the level-``k`` staging slab
    the finished rows are emitted from, and the ``k1/k2`` scratch of the
    PCR elimination, all column-major.  Level ``l``'s ring holds
    ``2^{l+1} + S`` rows — its retention budget plus one sub-tile
    append — so it compacts once per round, and each compaction copies
    only the ``2^{l+1}`` retained rows (the paper's per-round cache-
    management copy).  Reusable across sweeps of the same shape; the
    solve-plan engine (:mod:`repro.engine`) pools these per plan.
    """

    def __init__(self, m: int, k: int, subtile: int, dtype):
        dtype = np.dtype(dtype)
        self.m = m
        self.k = k
        self.subtile = subtile
        self.dtype = dtype
        S = subtile
        self.rings = [
            RingRows(m, 2 ** (l + 1) + S, dtype, channels=4)
            for l in range(k)
        ]
        self.stage = tuple(
            np.empty((m, S), dtype=dtype, order="F") for _ in range(4)
        )
        self.k1 = np.empty((m, S), dtype=dtype, order="F")
        self.k2 = np.empty((m, S), dtype=dtype, order="F")
        self.tmp = np.empty((m, S), dtype=dtype, order="F")

    def compatible(self, m: int, k: int, subtile: int, dtype) -> bool:
        """True if this workspace fits a sweep of the given shape."""
        return (
            self.m == m
            and self.k == k
            and self.subtile == subtile
            and self.dtype == np.dtype(dtype)
        )


@dataclass
class TiledPCR:
    """Streaming k-step tiled PCR with dependency caching.

    Parameters
    ----------
    k:
        Number of PCR steps (thread-block width is ``2^k`` on the GPU).
    c:
        Sub-tile scale: the sliding window advances ``c · 2^k`` rows per
        round (Table I, ``c ≥ 1``).
    n_windows:
        Number of concurrently processed regions per system (Fig. 11b).
        ``1`` = single window, zero redundancy.

    Examples
    --------
    >>> import numpy as np
    >>> from repro.core.tiled_pcr import TiledPCR
    >>> from repro.core.pcr import pcr_sweep
    >>> rng = np.random.default_rng(0)
    >>> n = 64
    >>> a = rng.standard_normal((1, n)); a[:, 0] = 0
    >>> c = rng.standard_normal((1, n)); c[:, -1] = 0
    >>> b = 4 + np.abs(a) + np.abs(c)
    >>> d = rng.standard_normal((1, n))
    >>> tp = TiledPCR(k=3)
    >>> out = tp.sweep(a, b, c, d)
    >>> ref = pcr_sweep(a, b, c, d, 3)
    >>> all(np.allclose(x, y) for x, y in zip(out, ref))
    True
    """

    k: int
    c: int = 1
    n_windows: int = 1
    counters: TilingCounters = field(default_factory=TilingCounters)

    def __post_init__(self) -> None:
        if self.k < 0:
            raise ValueError(f"k must be >= 0, got {self.k}")
        if self.c < 1:
            raise ValueError(f"c must be >= 1, got {self.c}")
        if self.n_windows < 1:
            raise ValueError(f"n_windows must be >= 1, got {self.n_windows}")

    @property
    def subtile(self) -> int:
        """Rows the window advances per round (``c · 2^k``, Table I)."""
        return self.c * (1 << self.k)

    def make_workspace(self, m: int, dtype) -> TiledWorkspace:
        """Allocate a reusable workspace for ``(M, ·)`` sweeps."""
        return TiledWorkspace(m, self.k, self.subtile, dtype)

    def sweep(
        self, a, b, c, d, *, check: bool = True, emit=None, workspace=None
    ) -> tuple | None:
        """Run the k-step sweep over an ``(M, N)`` batch.

        Returns the reduced ``(a, b, c, d)`` — equal to
        ``pcr_sweep(a, b, c, d, k)``, bitwise up to the sign of the
        zeros in ``a[:, :2^k]`` and ``c[:, N − 2^k:]`` (see the module
        docs).

        If ``emit`` is given it is called as ``emit(e0, e1, quad)`` with
        each finished slab of level-k rows (global row range ``[e0, e1)``,
        ascending, non-overlapping, covering ``[0, N)``) *instead of*
        materializing output arrays, and ``None`` is returned.  This is
        the hook kernel fusion uses to feed p-Thomas forward reduction
        progressively (Section III-C).  The slabs are column-major views
        only valid during the call — consumers must copy what they keep.

        ``workspace`` is an optional :class:`TiledWorkspace` (from
        :meth:`make_workspace`) reused across sweeps of the same shape;
        omitted, one is allocated for this sweep.
        """
        if check:
            a, b, c, d = check_batch_arrays(a, b, c, d)
        else:
            a, b, c, d = (np.asarray(v) for v in (a, b, c, d))
        quads = (a, b, c, d)
        m, n = b.shape
        if self.k == 0:
            # Degenerate: no PCR steps; pass-through (still "loads" rows).
            self.counters.rows_loaded += n * m
            self.counters.windows += self.n_windows
            if emit is not None:
                emit(0, n, tuple(x.copy(order="F") for x in quads))
                return None
            return tuple(x.copy() for x in quads)

        if emit is None:
            out = tuple(np.empty((m, n), dtype=b.dtype) for _ in range(4))

            def emit_to_out(e0, e1, quad):
                for o, sarr in zip(out, quad):
                    o[:, e0:e1] = sarr

            sink = emit_to_out
        else:
            out = None
            sink = emit
        if workspace is None:
            workspace = self.make_workspace(m, b.dtype)
        elif not workspace.compatible(m, self.k, self.subtile, b.dtype):
            raise ValueError(
                f"workspace (m={workspace.m}, k={workspace.k}, "
                f"subtile={workspace.subtile}, dtype={workspace.dtype}) does "
                f"not fit sweep (m={m}, k={self.k}, subtile={self.subtile}, "
                f"dtype={b.dtype})"
            )
        provider = _RawProvider(quads, self.counters)
        bounds = np.linspace(0, n, self.n_windows + 1).astype(int)
        for w in range(self.n_windows):
            r0, r1 = int(bounds[w]), int(bounds[w + 1])
            if r0 == r1:
                continue
            self._stream_region(provider, sink, r0, r1, workspace)
            self.counters.windows += 1
        return out

    # ------------------------------------------------------------------
    def _stream_region(
        self, provider: _RawProvider, sink, r0: int, r1: int, ws: TiledWorkspace
    ) -> None:
        """Emit exact level-k rows ``[r0, r1)`` via one sliding window.

        Level ``l`` stops at the region's dependency cone: row
        ``r1 + f(k) − f(l)`` is the first level-``l`` row no output in
        ``[r0, r1)`` reads (level 0 stops at ``r1 + f(k)``).  Rows past
        the cone are neither fetched nor eliminated, so the last round
        does no extra work and the elimination ledger is the same at
        every sub-tile size.
        """
        k, S = self.k, self.subtile
        m = provider.m
        fk = f_redundant_loads(k)
        ext0 = r0 - fk  # raw stream start (lead-in)
        cone = [r1 + fk - f_redundant_loads(l) for l in range(k + 1)]
        region = (r0, r1)

        # Per-level trailing caches in the workspace's ring buffers:
        # level l retains its last 2^(l+1) rows.  Before the stream
        # begins every cache is "rows before ext0" — identity, and
        # provably outside every emitted row's dependency cone.
        rings = ws.rings
        for l in range(k):
            rings[l].reset()
            _fill_identity(rings[l].append(2 ** (l + 1)))
        frontiers = [ext0] * (k + 1)  # F_l for l = 0..k

        while frontiers[k] < r1:
            # 1. load one raw sub-tile into the bottom of the window
            lo = frontiers[0]
            hi = min(lo + S, cone[0])
            provider.fetch_into(lo, hi, region, rings[0].append(hi - lo))
            frontiers[0] = hi

            # 2. advance each level as far as its input frontier and
            # the cone allow
            for l in range(k):
                s = 1 << l
                new_f = min(frontiers[l] - s, cone[l + 1])
                old_f = frontiers[l + 1]
                w = new_f - old_f
                if w <= 0:
                    continue
                # level-l rows [old_f - s, new_f + s) feed the update
                buf_lo = frontiers[l] - rings[l].width
                i0 = (old_f - s) - buf_lo
                i1 = (new_f + s) - buf_lo
                if l + 1 < k:
                    produced = rings[l + 1].append(w)
                else:
                    produced = tuple(sb[:, :w] for sb in ws.stage)
                _pcr_local_into(
                    rings[l].view(i0, i1),
                    s,
                    produced,
                    ws.k1[:, :w],
                    ws.k2[:, :w],
                    ws.tmp[:, :w],
                )
                self.counters.eliminations += w * m
                inside = max(0, min(new_f, r1) - max(old_f, r0))
                self.counters.eliminations_redundant += (w - inside) * m
                frontiers[l + 1] = new_f
                if l + 1 == k:
                    # 3. emit finished level-k rows that fall in the region
                    e0, e1 = max(old_f, r0), min(new_f, r1)
                    if e0 < e1:
                        sink(
                            e0,
                            e1,
                            tuple(
                                v[:, e0 - old_f : e1 - old_f] for v in produced
                            ),
                        )

            # 4. slide: trim every cache back to its row budget (2^(l+1)
            # in steady state; never below what the next level-(l+1)
            # advance will read, i.e. rows from F_{l+1} - 2^l onward)
            for l in range(k):
                needed_from = frontiers[l + 1] - (1 << l)
                keep = max(2 ** (l + 1), frontiers[l] - needed_from)
                rings[l].trim_to(keep)
            self.counters.subtiles += 1

    def cache_rows(self) -> int:
        """Total cached rows held across levels (the ``2·f(k)`` of §III-A)."""
        return sum(2 ** (l + 1) for l in range(self.k))


def tiled_pcr_sweep(
    a,
    b,
    c,
    d,
    k: int,
    *,
    subtile_scale: int = 1,
    n_windows: int = 1,
    counters: TilingCounters | None = None,
    check: bool = True,
) -> tuple:
    """Functional wrapper around :class:`TiledPCR` (see its docs)."""
    tp = TiledPCR(k=k, c=subtile_scale, n_windows=n_windows)
    if counters is not None:
        tp.counters = counters
    return tp.sweep(a, b, c, d, check=check)


def naive_tiled_pcr_sweep(
    a,
    b,
    c,
    d,
    k: int,
    tile: int,
    *,
    counters: TilingCounters | None = None,
    check: bool = True,
) -> tuple:
    """Cache-less tiled PCR — the strawman of Fig. 7.

    Each tile of ``tile`` output rows independently loads its ``f(k)``-row
    halos on both sides and re-runs every intermediate elimination inside
    the halo.  Produces the same (exact) result as the cached window but
    with ``2·f(k)`` redundant loads and ``g(k)``-class redundant
    eliminations per boundary; the ablation benchmark quantifies the gap.
    Each tile's rows are fetched into column-major arrays and every level
    is eliminated by the window's kernel into outputs allocated here.
    """
    if tile < 1:
        raise ValueError(f"tile must be >= 1, got {tile}")
    if check:
        a, b, c, d = check_batch_arrays(a, b, c, d)
    else:
        a, b, c, d = (np.asarray(v) for v in (a, b, c, d))
    if counters is None:
        counters = TilingCounters()
    quads = (a, b, c, d)
    m, n = b.shape
    if k == 0:
        counters.rows_loaded += n * m
        return tuple(x.copy() for x in quads)
    fk = f_redundant_loads(k)
    out = tuple(np.empty((m, n), dtype=b.dtype) for _ in range(4))

    def rows(w: int, count: int = 4) -> tuple:
        return tuple(np.empty((m, w), dtype=b.dtype, order="F") for _ in range(count))

    k1, k2, tmp = rows(min(tile, n) + 2 * fk, 3)
    provider = _RawProvider(quads, counters)
    for t0 in range(0, n, tile):
        t1 = min(t0 + tile, n)
        # load body + halos; everything outside [t0, t1) is redundant
        q = rows(t1 - t0 + 2 * fk)
        provider.fetch_into(t0 - fk, t1 + fk, (t0, t1), q)
        for l in range(k):
            s = 1 << l
            w = q[0].shape[1] - 2 * s
            inside = min(t1, t0 + w) - t0  # rows that end up emitted
            counters.eliminations += w * m
            counters.eliminations_redundant += (w - max(0, inside)) * m
            nxt = rows(w)
            _pcr_local_into(q, s, nxt, k1[:, :w], k2[:, :w], tmp[:, :w])
            q = nxt
        for o, sarr in zip(out, q):
            o[:, t0:t1] = sarr
        counters.subtiles += 1
    counters.windows += 1
    return out
