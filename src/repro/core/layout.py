"""Memory-layout transforms — the "desired memory layout" of Section I.

A GPU tridiagonal solver lives and dies by coalescing, and coalescing is
a property of *layout*.  Two layouts matter here:

* ``CONTIGUOUS`` — system ``j`` occupies rows ``[j·L, (j+1)·L)`` of a flat
  array.  Thomas threads walking their own systems then touch addresses
  ``j·L + step`` — stride ``L`` apart: every warp access is a separate
  memory transaction.
* ``INTERLEAVED`` — element ``l`` of system ``j`` sits at ``l·G + j``
  (``G`` systems interleaved).  Thomas threads touch ``l·G + j`` —
  consecutive addresses: one transaction per warp.

The paper's observation (Section III-B): a k-step PCR sweep leaves its
``2^k`` subsystems *already* in interleaved order, so the p-Thomas stage
gets the coalesced layout for free and no solver regroups between the
two.  :class:`Layout` names them for the device models that price both
access patterns.  :func:`transpose_into` is the blocked ``(M, N)`` ↔
``(N, M)`` copy the engine stages its transposed Thomas layout with.
"""

from __future__ import annotations

import enum

import numpy as np

__all__ = [
    "Layout",
    "TRANSPOSE_BLOCK",
    "transpose_into",
]

#: Source rows per block of :func:`transpose_into`.  A block's reads are
#: whole rows and its writes short contiguous runs, so both sides stay
#: within a few cache lines per output row.
TRANSPOSE_BLOCK = 64


class Layout(enum.Enum):
    """How a group of equal-size systems is arranged in linear memory."""

    CONTIGUOUS = "contiguous"
    INTERLEAVED = "interleaved"


def transpose_into(src: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``out[...] = src`` with its first two axes swapped; returns ``out``.

    A plain strided copy of a large batch walks each column of ``src``
    across every row, a new cache line (and often a new page) per
    element.  This copies :data:`TRANSPOSE_BLOCK` rows of ``src`` at a
    time, so each output row is written in short contiguous runs from a
    handful of lines.  A source with rows shorter than a block is copied
    in one pass: its column walk already stays within a few lines.  A
    copy never changes bits; this is how the ``(M, N)`` ↔ ``(N, M)``
    staging of the transposed Thomas layout is done.
    """
    if src.shape[1] < TRANSPOSE_BLOCK:
        out[...] = src.swapaxes(0, 1)
        return out
    for lo in range(0, src.shape[0], TRANSPOSE_BLOCK):
        out[:, lo:lo + TRANSPOSE_BLOCK] = src[lo:lo + TRANSPOSE_BLOCK].swapaxes(0, 1)
    return out
