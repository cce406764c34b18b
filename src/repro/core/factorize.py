"""Factorization reuse: factor once, solve many right-hand sides.

Time-stepping applications (Crank–Nicolson, ADI, multigrid smoothing —
exactly the paper's motivating workloads) solve the *same* tridiagonal
matrix against a new right-hand side every step.  The paper's hybrid
splits cleanly into a coefficient-only phase and an RHS-dependent
phase:

* each PCR level's reduction factors ``k1 = a/b_{−s}`` and
  ``k2 = c/b_{+s}`` depend only on coefficients; applying a level to a
  right-hand side is ``d' = d − k1·d_{−s} − k2·d_{+s}``;
* p-Thomas over the reduced interleaved system (§III-B) is plain
  Thomas at stride ``g = 2^k``: its forward *denominators*
  ``b − c'_{−g}·a`` and multipliers ``c' = c / denom`` depend only on
  coefficients, and a solve is one forward and one backward sweep over
  ``d``.

:class:`ThomasRhsFactorization` is that stride-``g`` Thomas, stored in
the transposed ``(N, M)`` layout the engine sweeps in: row ``i`` holds
position ``i`` of all ``M`` systems, so a level slab of ``g`` rows is
one contiguous block (at ``g = 1``, one row).  Its RHS sweep runs
p-Thomas's operations in p-Thomas's order — multiply, subtract, divide
by the stored denominator — so every factored solve gives the bits of
the one-shot it replaces: ``g = 1`` is the engine's ``k = 0`` Thomas
(whose one-shot is this factor plus this sweep),
:class:`HybridFactorization` wraps it at ``g = 2^k`` behind its stored
PCR levels.  Both accept one ``(M, N)`` right-hand side or a stack of
them, ``(M, N, R)``, vectorizing over the trailing axis.

A *uniform* batch — every row of ``a``, ``b`` and ``c`` bytewise equal
to row 0, as in every ADI or Crank–Nicolson sweep, where the ``M``
systems are one matrix — factors at ``g = 1`` into one ``(N, 1)``
column per array, and that column serves a batch of any width.  A
broadcast batch (``np.broadcast_to(row, (M, N))``, batch-axis stride 0)
is uniform without a comparison, so it factors in O(N) from input to
stored column.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import repeat

import numpy as np

from repro.core.layout import transpose_into
from repro.core.tiled_pcr import _fill_identity, _pcr_local_into
from repro.core.transition import GTX480_HEURISTIC, clamp_k
from repro.core.validation import check_batch_arrays, is_broadcast_batch

__all__ = ["HybridFactorization", "RhsWorkspace", "ThomasRhsFactorization"]


def _slabs(arr: np.ndarray, g: int):
    """``arr`` cut into ``g``-row level slabs from the top, the last one
    short when ``g`` does not divide its rows.  At ``g = 1`` this is
    ``arr`` itself: a zip walks its rows as views, the cheapest walk
    when the sweep is ufunc-call bound."""
    if g == 1:
        return arr
    return [arr[lo:lo + g] for lo in range(0, len(arr), g)]


def _slabs_up(arr: np.ndarray, g: int):
    """``arr`` cut into ``g``-row level slabs from the bottom, bottom
    first (the backward sweep's order); at ``g = 1``, its rows reversed."""
    if g == 1:
        return arr[::-1]
    return [arr[max(hi - g, 0):hi] for hi in range(len(arr), 0, -g)]


def _uniform_rows(*arrays) -> bool:
    """Is every row of each ``(M, N)`` array bytewise equal to its row 0?

    Rows are compared as unsigned integers of the itemsize, so ``+0.0``
    and ``−0.0`` differ and NaN payloads count: a row that passes is the
    same bits as row 0.  A broadcast batch (batch-axis stride 0) is one
    row by construction and is not read.  Row 1 is compared first, so
    an ordinary batch is rejected in O(N), before any full pass.
    """
    words = []
    for arr in arrays:
        if arr.itemsize not in (1, 2, 4, 8):
            return False
        if not is_broadcast_batch(arr):
            words.append(arr.view(f"u{arr.itemsize}"))
    if len(arrays[0]) < 2:
        return len(arrays[0]) == 1
    return all(np.array_equal(w[1], w[0]) for w in words) and all(
        bool((w[2:] == w[0]).all()) for w in words
    )


def _eliminate_column(ta, tb, tc) -> None:
    """:meth:`ThomasRhsFactorization.factor_t` at ``g = 1`` on one
    ``(N, 1)`` column whose row 0 is done, filling the rows that repeat.

    Row ``i`` computes ``denom_i = b_i − cp_{i−1}·a_i`` and
    ``cp_i = c_i / denom_i``.  When row ``i``'s ``(a, b, c)`` bits equal
    row ``i − 1``'s and ``cp_{i−1}`` equals ``cp_{i−2}``, both operations
    repeat row ``i − 1``'s on the same bits, and so on for every later
    row of that coefficient run: the run takes row ``i − 1``'s ``denom``
    and ``cp`` in one copy each.  Bits are compared as unsigned integers,
    as :func:`_uniform_rows` does, so the fill is the row loop's bytes.
    An ADI column reaches that fixed point within a few dozen rows and
    skips the rest of its ``N``.
    """
    n = len(tb)
    words = [v.view(f"u{v.itemsize}")[:, 0] for v in (ta, tb, tc)]
    # repeats[i]: row i's coefficients are row i-1's (read before tb and
    # tc turn into denom and cp)
    repeats = np.zeros(n, dtype=bool)
    repeats[1:] = np.logical_and.reduce([w[1:] == w[:-1] for w in words])
    run_ends = np.append(np.flatnonzero(~repeats), n)
    repeats = repeats.tolist()
    cp = words[2]  # tc's words turn into cp's as the loop passes them
    t = np.empty(1, dtype=tb.dtype)
    i = 1
    while i < n:
        if i > 1 and repeats[i] and cp[i - 1] == cp[i - 2]:
            end = run_ends[np.searchsorted(run_ends, i)]
            tb[i:end] = tb[i - 1]
            tc[i:end] = tc[i - 1]
            i = end
            continue
        np.multiply(tc[i - 1], ta[i], t)
        np.subtract(tb[i], t, tb[i])
        np.divide(tc[i], tb[i], tc[i])
        i += 1


def _scratch(t: np.ndarray, slabs, g: int):
    """One ``t`` view per slab, matching its row count (``t`` itself,
    row by row, at ``g = 1``)."""
    if g == 1:
        return repeat(t[0])
    return [t[:len(s)] for s in slabs]


class RhsWorkspace:
    """Buffers of one RHS-only sweep over ``(N, M[, R])`` right-hand sides.

    ``dp`` holds the forward sweep's ``d'`` and ``t`` one level slab of
    products.  A ``k > 0`` sweep also applies its PCR levels through
    ``dq`` and ``dp`` (the last level lands in ``dq``, which the reduced
    sweep then reads) and forms their products in ``tm``.  The pair
    that stages a row-major batch in and out of the transposed layout
    is allocated by :meth:`staging` on first use, so a workspace that
    only ever sweeps the transposed layout in place never holds it.
    """

    def __init__(self, shape, k: int, dtype):
        self.dp = np.empty(shape, dtype=dtype)
        self.t = np.empty((min(1 << k, shape[0]), *shape[1:]), dtype=dtype)
        self.nbytes = self.dp.nbytes + self.t.nbytes
        self._staging = None
        if k:
            self.dq, self.tm = (np.empty(shape, dtype=dtype) for _ in range(2))
            self.nbytes += 2 * self.dp.nbytes

    def staging(self) -> tuple:
        """The ``(td, xt)`` staging pair, allocated (and counted in
        ``nbytes``) on first use and kept for the workspace's life."""
        if self._staging is None:
            self._staging = (np.empty_like(self.dp), np.empty_like(self.dp))
            self.nbytes += 2 * self.dp.nbytes
        return self._staging


class ThomasRhsFactorization:
    """Factored Thomas at stride ``g`` in the transposed ``(N, M)`` layout.

    Stores the sub-diagonal ``ta``, the modified super-diagonal ``cp``
    and the forward-elimination *denominators* as ``(N, M)`` arrays.
    Row ``i`` couples to rows ``i ± g``: ``g = 1`` is plain Thomas,
    ``g = 2^k`` the reduced system ``k`` PCR levels leave behind, whose
    ``M · g`` interleaved subsystems p-Thomas solves (§III-B).  The RHS
    sweep divides by the stored denominators in p-Thomas's order, so a
    solve gives the bits of the engine's one-shot at the same ``k``.

    State of width 1 — what :meth:`factor` stores for a uniform batch —
    serves a right-hand side of any width: every system of the batch
    reads the one column.  ``m`` reports the stored width, so it is 1
    there whatever the batch width.
    """

    __slots__ = ("ta", "cp", "denom", "g", "nbytes")
    kind = "thomas"

    def __init__(self, ta, cp, denom, g: int = 1):
        self.ta = ta
        self.cp = cp
        self.denom = denom
        self.g = g
        self.nbytes = ta.nbytes + cp.nbytes + denom.nbytes

    def arrays(self) -> dict:
        """Every stored array by name (the spill-file layout)."""
        return {"ta": self.ta, "cp": self.cp, "denom": self.denom}

    @classmethod
    def from_arrays(cls, arrays, g: int = 1) -> "ThomasRhsFactorization":
        """Rebuild from :meth:`arrays`' layout."""
        return cls(ta=arrays["ta"], cp=arrays["cp"], denom=arrays["denom"], g=g)

    @property
    def m(self) -> int:
        return self.ta.shape[1]

    @property
    def n(self) -> int:
        return self.ta.shape[0]

    @classmethod
    def factor(cls, a, b, c, g: int = 1) -> "ThomasRhsFactorization":
        """Factor ``(M, N)`` diagonals: :meth:`factor_t` on staged
        transposes.

        At ``g = 1`` a uniform batch (every row of ``a``, ``b`` and
        ``c`` bytewise equal to row 0) stages and factors row 0 alone:
        the state is three ``(N, 1)`` columns, factored in O(N), and
        every system of the batch sweeps them with the same operations
        in the same order, so no bit changes.

        >>> import numpy as np, repro
        >>> from repro.workloads.pde import adi_row_coefficients
        >>> a, b, c = adi_row_coefficients(64, 256, 0.3)
        >>> fact = ThomasRhsFactorization.factor(a, b, c)
        >>> fact.cp.shape, fact.nbytes == 3 * 256 * 8
        ((256, 1), True)
        >>> d = np.random.default_rng(0).random((64, 256))
        >>> x = np.empty_like(d)
        >>> fact.solve_shard(RhsWorkspace((256, 64), 0, d.dtype), d, x)
        >>> ref = repro.solve_batch(a, b, c, d, k=0, fingerprint=False)
        >>> x.tobytes() == ref.tobytes()
        True
        """
        if g == 1 and _uniform_rows(a, b, c):
            a, b, c = a[:1], b[:1], c[:1]
        m, n = b.shape
        staged = [transpose_into(v, np.empty((n, m), dtype=b.dtype)) for v in (a, b, c)]
        return cls.factor_t(*staged, g=g)

    @classmethod
    def factor_t(cls, ta, tb, tc, g: int = 1) -> "ThomasRhsFactorization":
        """Forward elimination over ``(N, M)`` diagonals the caller has
        staged for it, in place: ``tb`` becomes the denominators and
        ``tc`` the ``c'``; ``ta`` is kept as the sub-diagonal.

        Level by level as p-Thomas runs it: the first ``g`` rows keep
        ``denom = b`` and take ``c' = c / b``; every later row takes
        ``denom = b − c'_{i−g}·a`` (that multiply-then-subtract order)
        and ``c' = c / denom``.  One column at ``g = 1`` (a uniform
        batch's) stops walking rows that repeat (:func:`_eliminate_column`).
        """
        h = min(g, len(tb))
        np.divide(tc[:h], tb[:h], out=tc[:h])
        if g == 1 and tb.shape[1] == 1:
            _eliminate_column(ta, tb, tc)
            return cls(ta=ta, cp=tc, denom=tb, g=g)
        cur = _slabs(tb[g:], g)
        t = np.empty((h, *tb.shape[1:]), dtype=tb.dtype)
        for cprev, ai, bi, ci, ti in zip(
            _slabs(tc[:-g], g), _slabs(ta[g:], g), cur, _slabs(tc[g:], g),
            _scratch(t, cur, g),
        ):
            np.multiply(cprev, ai, ti)
            np.subtract(bi, ti, bi)
            np.divide(ci, bi, ci)
        return cls(ta=ta, cp=tc, denom=tb, g=g)

    def solve_shard(self, ws, d, out) -> None:
        """RHS-only sweep of the ``(M, N)`` batch ``d`` into ``out``:
        :meth:`solve_shard_t` between two staging copies of the
        workspace (copies never change bits)."""
        td, xt = ws.staging()
        self.solve_shard_t(ws, transpose_into(d, td), xt)
        transpose_into(xt, out)

    def solve_shard_t(self, ws, dt, out_t) -> None:
        """Transposed-layout RHS sweep: ``(N, M[, R])`` in and out.

        Reads the right-hand side straight from the caller's ``dt`` and
        writes the solution into the caller's ``out_t`` — no staging
        copies — using ``ws.dp`` and ``ws.t``.  This is the ADI fast
        path: alternating sweep directions hand each solve its input in
        exactly this orientation.  Forward, level by level:
        ``d' = (d − d'_{i−g}·a) / denom``; backward from the bottom:
        ``x = d' − c'·x_{i+g}``, where the last ``g`` rows (each
        subsystem's last row) keep ``x = d'``.

        Width-1 state is read through a broadcast view of ``dt``'s
        shape, built here: its rows have stride 0 and ``dt``'s row
        shape, which NumPy's trivial loop takes at a full row's cost,
        where a ``(1,)`` row would go through the broadcasting iterator.
        """
        ta, cp, denom, g = self.ta, self.cp, self.denom, self.g
        if dt.ndim == 3:
            ta, cp, denom = ta[..., None], cp[..., None], denom[..., None]
        if ta.shape[1] != dt.shape[1]:
            ta, cp, denom = (np.broadcast_to(v, dt.shape) for v in (ta, cp, denom))
        n = len(dt)
        h = min(g, n)
        dp, t = ws.dp, ws.t
        np.divide(dt[:h], denom[:h], out=dp[:h])
        cur = _slabs(dp[g:], g)
        for dprev, ai, di, ri, dpi, ti in zip(
            _slabs(dp[:-g], g), _slabs(ta[g:], g), _slabs(dt[g:], g),
            _slabs(denom[g:], g), cur, _scratch(t, cur, g),
        ):
            np.multiply(dprev, ai, ti)
            np.subtract(di, ti, ti)
            np.divide(ti, ri, dpi)
        out_t[n - h:] = dp[n - h:]
        up = _slabs_up(out_t[:-g], g)
        for ci, xnext, dpi, xi, ti in zip(
            _slabs_up(cp[:-g], g), _slabs_up(out_t[g:], g),
            _slabs_up(dp[:-g], g), up, _scratch(t, up, g),
        ):
            np.multiply(ci, xnext, ti)
            np.subtract(dpi, ti, xi)


@dataclass
class HybridFactorization:
    """Factored k-step PCR + p-Thomas hybrid.

    ``factor`` runs the PCR sweep once on the coefficients — the sliding
    window's own level kernel
    (:func:`repro.core.tiled_pcr._pcr_local_into`, without the ``d``
    channel) over identity-padded whole arrays — storing each level's
    ``(k1, k2)`` reduction factors, and factors the reduced
    interleaved system as a :class:`ThomasRhsFactorization` at stride
    ``2^k`` — everything in the transposed ``(N, M)`` layout.  ``solve``
    then applies the stored level factors to the RHS (O(kN)) and runs
    the reduced sweep (O(N)) — no eliminations are ever repeated, and
    the result has the bits of the engine's one-shot at the same ``k``.
    ``k = 0`` is plain factor-once Thomas.
    """

    k: int
    level_factors: list = field(default_factory=list)  # [(k1, k2), ...]
    reduced: ThomasRhsFactorization | None = None

    kind = "hybrid"

    @property
    def nbytes(self) -> int:
        """Bytes of stored elimination state."""
        return (
            sum(k1.nbytes + k2.nbytes for k1, k2 in self.level_factors)
            + self.reduced.nbytes
        )

    def arrays(self) -> dict:
        """Every stored array by name (the spill-file layout).

        The names differ from the row-major layout's (``lvl{i}_k1``,
        ``red_cp``, …), so a file in that layout never loads as this
        one: rebuilding it raises ``KeyError`` and the spill tier
        re-factors.
        """
        named = {"k": np.array(self.k)}
        for i, (k1, k2) in enumerate(self.level_factors):
            named[f"level{i}_k1"] = k1
            named[f"level{i}_k2"] = k2
        for name, arr in self.reduced.arrays().items():
            named[f"reduced_{name}"] = arr
        return named

    @classmethod
    def from_arrays(cls, arrays) -> "HybridFactorization":
        """Rebuild from :meth:`arrays`' layout."""
        k = int(arrays["k"])
        return cls(
            k=k,
            level_factors=[
                (arrays[f"level{i}_k1"], arrays[f"level{i}_k2"]) for i in range(k)
            ],
            reduced=ThomasRhsFactorization.from_arrays(
                {name: arrays[f"reduced_{name}"] for name in ("ta", "cp", "denom")},
                g=1 << k,
            ),
        )

    @classmethod
    def factor(
        cls, a, b, c, *, k: int | None = None, check: bool = True
    ) -> "HybridFactorization":
        """Factor an ``(M, N)`` batch; ``k`` defaults to the Table III
        heuristic."""
        if check:
            a, b, c, _ = check_batch_arrays(a, b, c, np.zeros_like(np.asarray(b)))
        else:
            a, b, c = (np.asarray(v) for v in (a, b, c))
        m, n = b.shape
        if k is None:
            k = GTX480_HEURISTIC.k_for(m, n)
        k = clamp_k(k, n)
        dtype = b.dtype

        # Level l reads rows [-2^l, n + 2^l): ``pad`` identity rows on
        # each side cover the widest level.  Two padded sets take turns
        # as a level's input and output; the last level lands in three
        # (n, m) arrays the reduced factorization then owns.
        pad = (1 << k) >> 1

        def padded() -> tuple:
            arrays = tuple(np.empty((n + 2 * pad, m), dtype=dtype) for _ in range(3))
            _fill_identity(tuple(v[:pad] for v in arrays))
            _fill_identity(tuple(v[pad + n:] for v in arrays))
            return arrays

        level = padded()
        for src, dst in zip((a, b, c), level):
            transpose_into(src, dst[pad : pad + n])
        spare = padded() if k > 1 else None
        tmp = np.empty((n, m), dtype=dtype)
        fact = cls(k=k)
        s = 1
        for lvl in range(k):
            k1, k2 = np.empty((n, m), dtype=dtype), np.empty((n, m), dtype=dtype)
            if lvl + 1 < k:
                out, rows = spare, slice(pad, pad + n)
            else:
                out, rows = tuple(np.empty((n, m), dtype=dtype) for _ in range(3)), slice(None)
            # the window's kernel on transposed views: (m, ·) column-major
            _pcr_local_into(
                tuple(v[pad - s : pad + n + s].T for v in level),
                s,
                tuple(v[rows].T for v in out),
                k1.T,
                k2.T,
                tmp.T,
            )
            # rows no sweep reads, kept at the +0 of pcr_step's masks
            k1[:s] = 0.0
            k2[n - s :] = 0.0
            fact.level_factors.append((k1, k2))
            level, spare = out, level
            s *= 2
        fact.reduced = ThomasRhsFactorization.factor_t(*level, g=1 << k)
        return fact

    @property
    def dtype(self) -> np.dtype:
        """Dtype the factorization was built in (solves run in it too)."""
        if self.reduced is None:
            raise RuntimeError("factorization not initialized; use factor()")
        return self.reduced.cp.dtype

    def solve_shard(self, ws, d, out) -> None:
        """RHS-only sweep of the ``(M, N)`` batch ``d`` into ``out``:
        :meth:`solve_shard_t` between two staging copies of the
        workspace (copies never change bits)."""
        td, xt = ws.staging()
        self.solve_shard_t(ws, transpose_into(d, td), xt)
        transpose_into(xt, out)

    def solve_shard_t(self, ws, dt, out_t) -> None:
        """Transposed-layout sweep, ``(N, M[, R])`` in and out.

        Applies the stored PCR levels to ``dt`` (never mutated) through
        ``ws.dp``/``ws.dq``, one strided apply per level on the interior
        rows — the boundary rows carry ``k1``/``k2 == 0`` (set at factor
        time), so skipping them is bitwise identical (``x − 0.0·y == x``
        for every finite ``x`` and for ``−0.0``) — then runs the reduced
        system's sweep from ``ws.dq`` into ``out_t``.
        """
        cur = dt
        n = len(dt)
        s = 1
        for lvl, (k1, k2) in enumerate(self.level_factors):
            if dt.ndim == 3:
                k1, k2 = k1[..., None], k2[..., None]
            # alternate so the last level lands in dq
            nxt = ws.dq if (self.k - lvl) & 1 else ws.dp
            tm = ws.tm[: n - s]
            np.multiply(k1[s:], cur[: n - s], out=nxt[s:])
            np.subtract(cur[s:], nxt[s:], out=nxt[s:])
            nxt[:s] = cur[:s]
            np.multiply(k2[: n - s], cur[s:], out=tm)
            np.subtract(nxt[: n - s], tm, out=nxt[: n - s])
            cur = nxt
            s *= 2
        self.reduced.solve_shard_t(ws, cur, out_t)

    def solve(self, d, *, out=None, scratch=None) -> np.ndarray:
        """Solve for ``d`` of shape ``(M, N)`` or ``(M, N, R)``.

        ``scratch`` is an optional dict the solve keeps its
        :class:`RhsWorkspace` in — pass the same dict every time step
        and the warm RHS-only path allocates nothing.  ``out`` (``d``'s
        shape and the factorization's dtype) receives the solution.  The
        input is never mutated, and the solve runs in the
        factorization's dtype.
        """
        dtype = self.dtype
        d = np.asarray(d, dtype=dtype)
        n, m = self.reduced.ta.shape
        if d.ndim not in (2, 3) or d.shape[:2] != (m, n):
            raise ValueError(f"d has leading shape {d.shape[:2]}, expected {(m, n)}")
        if out is None:
            out = np.empty(d.shape, dtype=dtype)
        elif out.shape != d.shape or out.dtype != dtype:
            raise ValueError(
                f"out has shape {out.shape} dtype {out.dtype}, "
                f"expected {d.shape} {dtype}"
            )
        shape = (n, m, *d.shape[2:])
        ws = None if scratch is None else scratch.get(shape)
        if ws is None:
            ws = RhsWorkspace(shape, self.k, dtype)
            if scratch is not None:
                scratch[shape] = ws
        self.solve_shard(ws, d, out)
        return out
