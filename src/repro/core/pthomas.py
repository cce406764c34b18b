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
        Optional ``(M, N)`` destination for the solution (e.g. a shard
        slice of a larger batch).  Must match shape and dtype.

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
    """
    a = np.asarray(a)
    b = np.asarray(b)
    c = np.asarray(c)
    d = np.asarray(d)
    m, n = b.shape
    g = 1 << k
    if out is not None and (out.shape != (m, n) or out.dtype != b.dtype):
        raise ValueError(
            f"out (shape {out.shape}, dtype {out.dtype}) does not fit "
            f"solve (shape ({m}, {n}), dtype {b.dtype})"
        )
    dtype = b.dtype
    if g >= n:
        # Every subsystem is a single row: rows are already decoupled
        # (c_i refers past the end; PCR guarantees it is 0).
        x = out if out is not None else np.empty((m, n), dtype=dtype)
        np.divide(d, b, out=x)
        return x
    L = -(-n // g)  # number of Thomas levels (longest subsystem length)

    pooled = workspace is not None
    if workspace is None:
        # Unpooled state in the inputs' memory order.
        order = "F" if b.strides[0] < b.strides[1] else "C"
        cp, dp, t1, t2 = (
            np.empty((m, w), dtype=dtype, order=order)
            for w in (n, n, g, g)
        )
    elif not workspace.compatible(m, n, k, dtype):
        raise ValueError(
            f"workspace (m={workspace.m}, n={workspace.n}, k={workspace.k}, "
            f"dtype={workspace.dtype}) does not fit solve "
            f"(m={m}, n={n}, k={k}, dtype={dtype})"
        )
    else:
        cp, dp = workspace.cp, workspace.dp
        t1, t2 = workspace.t1, workspace.t2

    # Forward reduction, level by level.  Level l of subsystem j is global
    # row l*g + j; the slab [l*g, min((l+1)*g, n)) is contiguous.
    lo, hi = 0, min(g, n)
    np.divide(c[:, lo:hi], b[:, lo:hi], out=cp[:, lo:hi])
    np.divide(d[:, lo:hi], b[:, lo:hi], out=dp[:, lo:hi])
    for l in range(1, L):
        lo = l * g
        hi = min(lo + g, n)
        w = hi - lo
        prev = slice(lo - g, lo - g + w)
        cur = slice(lo, hi)
        s1, s2 = t1[:, :w], t2[:, :w]
        # denom = b - cp_prev * a
        np.multiply(cp[:, prev], a[:, cur], out=s1)
        np.subtract(b[:, cur], s1, out=s1)
        np.divide(c[:, cur], s1, out=cp[:, cur])
        # dp = (d - dp_prev * a) / denom
        np.multiply(dp[:, prev], a[:, cur], out=s2)
        np.subtract(d[:, cur], s2, out=s2)
        np.divide(s2, s1, out=dp[:, cur])

    _backward_in_place(cp, dp, g, t1)
    return _deliver(dp, out, pooled)
