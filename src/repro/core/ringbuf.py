"""Fixed-capacity sliding row caches — the paper's ring-buffer window.

The buffered sliding window of Section III-A keeps each level's trailing
rows in a *fixed* shared-memory allocation and manages it "with an
offset instead of a rotate" (the reason Table I ships ``3·f(k)`` cache
capacity when the dependency math only needs ``2·f(k)``; see
:mod:`repro.core.window`).  The seed CPU realization lost that property:
every sub-tile round re-built each level cache with ``np.concatenate``,
churning fresh allocations proportional to the whole sweep.

:class:`RingRows` restores the paper's discipline.  It owns one
fixed-capacity ``(M, C)`` backing array per channel and exposes the
*logical* window — a contiguous run of rows — through three operations:

* :meth:`append` — reserve ``w`` new trailing rows and hand back
  writable views (producers write in place; nothing is copied in);
* :meth:`trim_to` — drop leading rows down to a retention budget by
  advancing the start offset (free);
* :meth:`view` — read a contiguous row range of the current window.

When an append would run past the physical capacity the retained rows
are compacted back to column 0 — the analogue of the paper's once-per-
round "cache management copy of the top+middle contents"
(:meth:`repro.core.window.BufferedSlidingWindow.round_cost`).  Because
the logical window always occupies one contiguous column range, callers
slice it exactly like a plain array: no wrap-around split, no modular
arithmetic, and ``out=`` kernels can write straight into it.

The backing arrays are column-major (batch axis contiguous), so a row
range ``[i0, i1)`` over all ``M`` systems is one contiguous block and
every ``out=`` kernel on a window view is a single unit-stride pass —
the host counterpart of the coalesced per-row access the paper's
interleaved layout buys on the GPU.

Used by :class:`repro.core.tiled_pcr.TiledPCR` (per-level PCR caches),
:class:`repro.core.streaming.StreamingPipeline` (generic level caches),
and owned across calls by :mod:`repro.engine` plan workspaces.
"""

from __future__ import annotations

import numpy as np

__all__ = ["RingRows"]


class RingRows:
    """A multi-channel sliding cache of matrix rows with fixed capacity.

    Parameters
    ----------
    m:
        Batch size — every channel array has shape ``(m, capacity)``,
        stored column-major.
    capacity:
        Physical columns per channel.  Must cover the caller's retention
        budget plus the largest single append (asserted at append time).
    dtype:
        Element dtype of every channel, or a sequence of dtypes (one per
        channel) when channels differ.
    channels:
        Number of per-row values (4 for an ``(a, b, c, d)`` quadruple).
    """

    __slots__ = ("data", "capacity", "off", "width", "compactions")

    def __init__(self, m: int, capacity: int, dtype, channels: int = 4):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        if channels < 1:
            raise ValueError(f"channels must be >= 1, got {channels}")
        dtypes = (
            list(dtype)
            if isinstance(dtype, (list, tuple))
            else [dtype] * channels
        )
        if len(dtypes) != channels:
            raise ValueError(
                f"got {len(dtypes)} dtypes for {channels} channels"
            )
        self.data = tuple(
            np.empty((m, capacity), dtype=dt, order="F") for dt in dtypes
        )
        self.capacity = capacity
        self.off = 0  #: physical column where the logical window starts
        self.width = 0  #: logical rows currently held
        self.compactions = 0  #: ledger: compaction copies performed

    def reset(self) -> None:
        """Empty the window (backing storage is retained for reuse)."""
        self.off = 0
        self.width = 0

    def append(self, w: int) -> tuple:
        """Reserve ``w`` trailing rows; return writable per-channel views.

        The views are only valid until the next :meth:`append` /
        :meth:`reset` (a compaction may move the window).
        """
        if w < 0:
            raise ValueError(f"append width must be >= 0, got {w}")
        if self.width + w > self.capacity:
            raise ValueError(
                f"append of {w} rows overflows capacity {self.capacity} "
                f"(window already holds {self.width})"
            )
        if self.off + self.width + w > self.capacity:
            # Compact: slide the retained rows back to column 0.  NumPy
            # buffers the overlapping copy internally; the cost is the
            # paper's per-round cache-management copy.
            for ch in self.data:
                ch[:, : self.width] = ch[:, self.off : self.off + self.width]
            self.off = 0
            self.compactions += 1
        j0 = self.off + self.width
        self.width += w
        return tuple(ch[:, j0 : j0 + w] for ch in self.data)

    def view(self, i0: int, i1: int) -> tuple:
        """Per-channel views of logical rows ``[i0, i1)`` of the window."""
        if not 0 <= i0 <= i1 <= self.width:
            raise IndexError(
                f"view [{i0}, {i1}) outside window of width {self.width}"
            )
        return tuple(
            ch[:, self.off + i0 : self.off + i1] for ch in self.data
        )

    def trim_to(self, keep: int) -> None:
        """Drop leading rows so at most ``keep`` remain (offset advance)."""
        if keep < 0:
            raise ValueError(f"keep must be >= 0, got {keep}")
        if self.width > keep:
            self.off += self.width - keep
            self.width = keep
