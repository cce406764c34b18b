"""Thread-level parallel Thomas (p-Thomas) — Section III-B of the paper.

After ``k`` PCR steps, each original system of size ``N`` has become
``2^k`` independent systems whose elements sit *interleaved* in memory:
subsystem ``j`` occupies positions ``j, j + 2^k, j + 2·2^k, …``.  p-Thomas
assigns one thread per subsystem and runs the plain Thomas recurrence.

The interleaving is the point: at Thomas step ``l``, thread ``j`` touches
global position ``l·2^k + j`` — consecutive threads touch consecutive
addresses, so every access is fully coalesced (the paper: "PCR naturally
produces interleaved results which is [a] perfect match with p-Thomas").

The CPU realization below keeps each system's rows in their interleaved
order and vectorizes the per-step work across the ``(M, 2^k)`` thread
grid: Thomas level ``l`` is the row slab ``[l·2^k, (l+1)·2^k)`` of all
``M`` systems.  The host walks that grid column-major — the state
(:class:`PThomasWorkspace`) stores the batch axis contiguously, so each
level is one unit-stride block of ``M · 2^k`` values instead of ``M``
short strided runs.  That is the host's version of coalescing, not the
device's: the GPU model (:mod:`repro.kernels.pthomas_kernel`) still
counts the paper's per-system interleaved layout, where consecutive
threads of one system touch consecutive addresses.

Every slab update is written with explicit ``out=`` kernels into
preallocated state — the modified coefficients ``c'``/``d'`` and two
thread-wide scratch rows — and the backward substitution overwrites
``d'`` with the solution in place, so a solve allocates nothing beyond
its result.  The state can be owned externally (pooled per plan by
:mod:`repro.engine`) and reused across repeated solves; the result is
always copied out of it into row-major memory.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "PThomasWorkspace",
    "pthomas_solve_interleaved",
    "subsystem_lengths",
]


def subsystem_lengths(n: int, k: int) -> np.ndarray:
    """Lengths of the ``2^k`` interleaved subsystems of an ``n``-row system.

    Subsystem ``j`` holds rows ``j, j + 2^k, …`` so its length is
    ``ceil((n − j) / 2^k)``.
    """
    g = 1 << k
    j = np.arange(g)
    return -(-(n - j) // g)


class PThomasWorkspace:
    """Preallocated p-Thomas state for ``(M, N)`` solves after ``k`` steps.

    Holds the modified coefficients ``cp``/``dp`` (fully overwritten by
    every forward pass; the backward pass leaves the solution in ``dp``)
    and two ``(M, 2^k)`` scratch rows for the ``out=`` kernels, all
    column-major.  Reusable across solves of the same shape.
    """

    def __init__(self, m: int, n: int, k: int, dtype):
        dtype = np.dtype(dtype)
        self.m, self.n, self.k, self.dtype = m, n, k, dtype
        g = min(1 << k, n)
        self.cp = np.empty((m, n), dtype=dtype, order="F")
        self.dp = np.empty((m, n), dtype=dtype, order="F")
        self.t1 = np.empty((m, g), dtype=dtype, order="F")
        self.t2 = np.empty((m, g), dtype=dtype, order="F")

    def compatible(self, m: int, n: int, k: int, dtype) -> bool:
        """True if this workspace fits a solve of the given shape."""
        return (
            self.m == m
            and self.n == n
            and self.k == k
            and self.dtype == np.dtype(dtype)
        )


def _backward_in_place(cp, dp, g: int, t1) -> None:
    """Backward substitution over level slabs, overwriting ``dp`` with x.

    ``x_i = d'_i − c'_i · x_{i+g}`` level by level from the bottom; a
    thread whose subsystem ends at a level keeps ``x = d'``, which is
    already in place.  ``t1`` is ``(M, ≥ min(g, N))`` scratch.
    """
    n = dp.shape[1]
    L = -(-n // g)
    for l in range(L - 2, -1, -1):
        lo = l * g
        hi = lo + g
        w = min(hi + g, n) - hi  # threads that have a later row
        t = t1[:, :w]
        np.multiply(cp[:, lo : lo + w], dp[:, hi : hi + w], out=t)
        np.subtract(dp[:, lo : lo + w], t, out=dp[:, lo : lo + w])


def _deliver(x, out, pooled: bool) -> np.ndarray:
    """Hand the solution ``x`` (p-Thomas state) to the caller, row-major.

    Writes into ``out`` if given.  Otherwise returns a row-major array
    that never aliases pooled state: ``.copy`` rather than
    ``ascontiguousarray``, because a column-major ``(1, N)`` array is
    also C-contiguous and would come back as a view.
    """
    if out is not None:
        out[...] = x
        return out
    return x.copy(order="C") if pooled else np.ascontiguousarray(x)


def _check_out(out, m: int, n: int, dtype) -> None:
    """Reject an ``out`` that does not fit an ``(m, n)`` solve in ``dtype``."""
    if out is not None and (out.shape != (m, n) or out.dtype != dtype):
        raise ValueError(
            f"out (shape {out.shape}, dtype {out.dtype}) does not fit "
            f"solve (shape ({m}, {n}), dtype {np.dtype(dtype)})"
        )


class _FusedPThomas:
    """The p-Thomas forward reduction, fed slab by slab, and its backward.

    Kernel fusion (Section III-C) feeds it each slab of level-``k`` rows
    the sliding window emits; :func:`pthomas_solve_interleaved` feeds it
    the whole reduced system as one slab.  Either way every Thomas level
    runs the same operations in the same order.  It maintains per-thread
    running ``(c', d')`` state in "registers" (the trailing ``2^k`` rows)
    while storing the full modified coefficients for the later backward
    pass — exactly the register-tiling scheme of Section III-C: "the
    updated partial result is stored in the same registers ... while the
    previous results are written to global memory".

    State lives in a column-major :class:`PThomasWorkspace` (supplied by
    the caller for reuse across solves), matching the column-major slabs
    the sliding window emits, or is allocated here in ``order``
    (column-major unless the caller asks otherwise); every slab fold
    runs through ``out=`` kernels, so consuming a sweep allocates
    nothing.
    """

    def __init__(self, m: int, n: int, k: int, dtype, workspace=None, order="F"):
        self.m, self.n, self.g = m, n, 1 << k
        self._pooled = workspace is not None
        if workspace is None:
            g = min(self.g, n)
            state = (np.empty((m, w), dtype=dtype, order=order) for w in (n, n, g, g))
        elif not workspace.compatible(m, n, k, dtype):
            raise ValueError(
                f"workspace (m={workspace.m}, n={workspace.n}, "
                f"k={workspace.k}, dtype={workspace.dtype}) does not fit "
                f"solve (m={m}, n={n}, k={k}, dtype={np.dtype(dtype)})"
            )
        else:
            state = (workspace.cp, workspace.dp, workspace.t1, workspace.t2)
        self.cp, self.dp, self._t1, self._t2 = state
        self._next = 0  # forward-reduction frontier (global row index)
        self._solved = False  # backward pass done: dp holds x

    def consume(self, e0: int, e1: int, quad: tuple) -> None:
        """Fold slab ``[e0, e1)`` of level-k rows into the forward pass.

        Level ``l`` of subsystem ``j`` is global row ``l·g + j``, so the
        slab is folded one level boundary (a multiple of ``g``) at a time.
        """
        if e0 != self._next:
            raise RuntimeError(
                f"slab [{e0}, {e1}) out of order; expected start {self._next}"
            )
        a, b, c, d = quad
        g = self.g
        cp, dp = self.cp, self.dp
        lo = e0
        while lo < e1:
            # advance to the next level boundary (multiple of g)
            hi = min(e1, (lo // g + 1) * g)
            w = hi - lo
            sl = slice(lo, hi)
            src = slice(lo - e0, hi - e0)
            if lo < g:
                np.divide(c[:, src], b[:, src], out=cp[:, sl])
                np.divide(d[:, src], b[:, src], out=dp[:, sl])
            else:
                prev = slice(lo - g, lo - g + w)
                t1, t2 = self._t1[:, :w], self._t2[:, :w]
                # denom = b - cp_prev * a
                np.multiply(cp[:, prev], a[:, src], out=t1)
                np.subtract(b[:, src], t1, out=t1)
                np.divide(c[:, src], t1, out=cp[:, sl])
                # dp = (d - dp_prev * a) / denom
                np.multiply(dp[:, prev], a[:, src], out=t2)
                np.subtract(d[:, src], t2, out=t2)
                np.divide(t2, t1, out=dp[:, sl])
            lo = hi
        self._next = e1

    def backward(self, out=None) -> np.ndarray:
        """Run the backward substitution once every row has been consumed.

        The solution overwrites ``dp`` in place and is then copied out
        row-major: into ``out`` if given (must match shape and dtype),
        else into a fresh array.  Repeat calls return the same solution.
        """
        if self._next != self.n:
            raise RuntimeError(
                f"forward pass incomplete: {self._next} of {self.n} rows"
            )
        _check_out(out, self.m, self.n, self.dp.dtype)
        if not self._solved:
            _backward_in_place(self.cp, self.dp, self.g, self._t1)
            self._solved = True
        return _deliver(self.dp, out, self._pooled)


def pthomas_solve_interleaved(
    a, b, c, d, k: int, *, workspace=None, out=None
) -> np.ndarray:
    """Solve the ``2^k`` interleaved subsystems of each batch row.

    Parameters
    ----------
    a, b, c, d:
        ``(M, N)`` diagonals *after* a ``k``-step PCR sweep: row ``i``
        couples only to rows ``i ± 2^k``.
    k:
        Number of PCR steps that produced the input.  ``k = 0`` reduces to
        plain batched Thomas.
    workspace:
        Optional :class:`PThomasWorkspace` reused across same-shape
        solves; omitted, state is allocated for this call in the
        inputs' memory order (row-major callers keep a row-major walk).
    out:
        Optional ``(M, N)`` destination for the solution (e.g. a
        caller's preallocated buffer).  Must match shape and dtype.

    Returns
    -------
    numpy.ndarray
        ``(M, N)`` solutions in the original row order (``out`` if
        given, else freshly allocated — the workspace never aliases the
        result).

    Notes
    -----
    The sweep walks Thomas "levels" ``l = 0 … L−1`` where level ``l`` is
    the contiguous slab of rows ``[l·2^k, (l+1)·2^k)``; each level update
    is one vectorized operation over all ``M · 2^k`` threads.  Short
    subsystems (when ``2^k`` does not divide ``N``) are handled by
    masking: a thread whose subsystem has already ended keeps its state.
    The forward pass is the one kernel fusion runs slab by slab
    (:class:`_FusedPThomas`), here fed the whole system as one slab, so
    fused and unfused solves share their bits by construction.
    """
    a, b, c, d = (np.asarray(v) for v in (a, b, c, d))
    m, n = b.shape
    _check_out(out, m, n, b.dtype)
    # Unpooled state in the inputs' memory order.
    order = "F" if b.strides[0] < b.strides[1] else "C"
    solve = _FusedPThomas(m, n, k, b.dtype, workspace=workspace, order=order)
    solve.consume(0, n, (a, b, c, d))
    return solve.backward(out=out)
