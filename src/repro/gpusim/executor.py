"""Functional SIMT executor: run block programs, measure what they do.

The analytic ledgers in :mod:`repro.kernels` are *closed forms*; this
module provides the instrument to check them: a small CUDA-like
execution environment in which a kernel is a Python function over a
:class:`BlockContext` that

* allocates **shared memory** explicitly (``ctx.shared``),
* performs **global loads/stores with explicit per-lane indices**
  (``ctx.load_global`` / ``ctx.store_global``) — the executor derives
  memory transactions from the *actual addresses*, warp by warp, using
  the same 128-byte segment rule as the hardware,
* synchronizes with ``ctx.barrier()``,
* computes with vectorized NumPy over the thread axis (lockstep SIMT —
  all lanes execute the same operation, which is exactly the execution
  model the paper's kernels are written for).

Blocks of a grid run sequentially (this is a measurement tool, not a
parallel runtime); the :class:`ExecutionStats` ledger accumulates
transactions, useful bytes, shared traffic and barriers across the
grid, in the same units as :class:`~repro.gpusim.counters.KernelCounters`
so the two can be compared 1:1.

:mod:`repro.kernels.exec_kernels` implements the paper's kernels on
this executor — including the literal Fig. 9/10 buffered sliding window
with its top/middle/bottom segments in one shared array.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.gpusim.device import DeviceSpec, GTX480
from repro.gpusim.memory import SEGMENT_BYTES, transactions_for_warp

__all__ = ["ExecutionStats", "BlockContext", "launch"]


@dataclass
class ExecutionStats:
    """Measured ledger of one kernel launch (all blocks)."""

    load_transactions: int = 0
    store_transactions: int = 0
    load_bytes_useful: int = 0
    store_bytes_useful: int = 0
    smem_reads: int = 0
    smem_writes: int = 0
    smem_conflict_cycles: int = 0
    barriers: int = 0
    blocks: int = 0

    @property
    def bus_bytes(self) -> int:
        """Bytes the simulated bus moved."""
        return (self.load_transactions + self.store_transactions) * SEGMENT_BYTES

    @property
    def useful_bytes(self) -> int:
        """Payload bytes the kernel asked for."""
        return self.load_bytes_useful + self.store_bytes_useful

    @property
    def coalescing_efficiency(self) -> float:
        """useful / bus, 1.0 = perfectly coalesced."""
        bus = self.bus_bytes
        return self.useful_bytes / bus if bus else 1.0


class BlockContext:
    """Execution context of one thread block (lockstep SIMT over lanes).

    ``tid`` is the vector of thread indices ``0 … threads−1``; kernels
    index their data with NumPy expressions over it.
    """

    def __init__(self, block_id: int, threads: int, device: DeviceSpec,
                 stats: ExecutionStats):
        self.block_id = block_id
        self.threads = threads
        self.device = device
        self.stats = stats
        self.tid = np.arange(threads)
        self._smem_allocated = 0

    # ---- shared memory -------------------------------------------------
    def shared(self, shape, dtype=np.float64) -> np.ndarray:
        """Allocate a shared-memory array (counted against the device cap)."""
        arr = np.zeros(shape, dtype=dtype)
        self._smem_allocated += arr.nbytes
        if self._smem_allocated > self.device.max_shared_mem_per_block:
            raise MemoryError(
                f"block requested {self._smem_allocated} B shared memory "
                f"(> {self.device.max_shared_mem_per_block} B)"
            )
        return arr

    def smem_read(self, count: int = 1) -> None:
        """Record ``count`` per-thread shared reads (one warp access each)."""
        self.stats.smem_reads += count

    def smem_write(self, count: int = 1) -> None:
        """Record ``count`` per-thread shared writes."""
        self.stats.smem_writes += count

    def smem_access_measured(self, word_addrs, write: bool = False) -> None:
        """Record a warp shared access with *measured* bank conflicts.

        ``word_addrs`` is one 32-bit-word address per active lane; the
        serialized cycle count of each warp is the maximum number of
        lanes hitting the same bank (distinct words in one bank
        serialize; identical words broadcast).
        """
        addrs = np.asarray(word_addrs, dtype=np.int64)
        ws = self.device.warp_size
        cycles = 0
        for w0 in range(0, addrs.shape[0], ws):
            lane = addrs[w0 : w0 + ws]
            banks = lane % ws
            degree = 1
            for bank in np.unique(banks):
                words = np.unique(lane[banks == bank])
                degree = max(degree, len(words))
            cycles += degree
            if write:
                self.stats.smem_writes += 1
            else:
                self.stats.smem_reads += 1
        self.stats.smem_conflict_cycles += cycles

    # ---- global memory ---------------------------------------------------
    def load_global(self, array: np.ndarray, idx, mask=None) -> np.ndarray:
        """Gather ``array.flat[idx]`` per lane, counting real transactions.

        ``idx`` is one flat index per active lane; ``mask`` deactivates
        lanes (their result is 0).  Transactions are derived from the
        byte addresses, warp by warp — exactly the hardware rule, so a
        strided gather *measures* uncoalesced.
        """
        idx = np.asarray(idx, dtype=np.int64)
        if mask is None:
            mask = np.ones(idx.shape, dtype=bool)
        else:
            mask = np.asarray(mask, dtype=bool)
        flat = array.reshape(-1)
        out = np.zeros(idx.shape, dtype=array.dtype)
        act = np.where(mask)[0]
        if act.size:
            out[act] = flat[idx[act]]
        self._count(idx, mask, array.dtype.itemsize, load=True)
        return out

    def store_global(self, array: np.ndarray, idx, values, mask=None) -> None:
        """Scatter ``values`` to ``array.flat[idx]``, counting transactions."""
        idx = np.asarray(idx, dtype=np.int64)
        values = np.asarray(values)
        if mask is None:
            mask = np.ones(idx.shape, dtype=bool)
        else:
            mask = np.asarray(mask, dtype=bool)
        flat = array.reshape(-1)
        act = np.where(mask)[0]
        if act.size:
            flat[idx[act]] = values[act]
        self._count(idx, mask, array.dtype.itemsize, load=False)

    def _count(self, idx, mask, itemsize, load: bool) -> None:
        ws = self.device.warp_size
        n = idx.shape[0]
        tx = 0
        active = 0
        for w0 in range(0, n, ws):
            lane_idx = idx[w0 : w0 + ws]
            lane_mask = mask[w0 : w0 + ws]
            addrs = lane_idx[lane_mask] * itemsize
            if addrs.size == 0:
                continue
            tx += transactions_for_warp(addrs)
            active += int(lane_mask.sum())
        if load:
            self.stats.load_transactions += tx
            self.stats.load_bytes_useful += active * itemsize
        else:
            self.stats.store_transactions += tx
            self.stats.store_bytes_useful += active * itemsize

    # ---- synchronization ----------------------------------------------------
    def barrier(self) -> None:
        """``__syncthreads`` — a pure counter in lockstep execution."""
        self.stats.barriers += 1


def launch(kernel, grid: int, threads: int, args: tuple,
           device: DeviceSpec = GTX480) -> ExecutionStats:
    """Run ``kernel(ctx, *args)`` for every block of the grid.

    Returns the accumulated :class:`ExecutionStats`.  ``kernel`` must be
    a function of a :class:`BlockContext` followed by ``args``.
    """
    if grid < 1 or threads < 1:
        raise ValueError(f"need grid, threads >= 1, got {grid}, {threads}")
    if threads > device.max_threads_per_block:
        raise ValueError(
            f"{threads} threads per block exceeds device limit "
            f"{device.max_threads_per_block}"
        )
    stats = ExecutionStats()
    for block_id in range(grid):
        ctx = BlockContext(block_id, threads, device, stats)
        kernel(ctx, *args)
        stats.blocks += 1
    return stats
