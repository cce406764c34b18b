"""Persistent multiprocessing workers behind the distributed backend.

One :class:`WorkerPool` owns ``P`` long-lived worker processes plus one
:class:`multiprocessing.shared_memory.SharedMemory` arena per rank.
All bulk data — the four transposed ``(L, M)`` slab diagonals, the
``(L, M)`` solution slab, the ``(6, M)`` reduced boundary equations
and the ``(2, M)`` scattered boundary values — lives in those arenas;
the :class:`~multiprocessing.connection.Connection` pipes carry only
tiny command tuples, so nothing numeric is ever pickled.

Workers are phase-driven: an ``eliminate`` command runs
:func:`repro.distributed.partition.eliminate_slab` — the RHS-only step
half — over the arena and leaves the interior representation in
worker-local memory; a later ``backsub`` command consumes it together
with the scattered boundary values.  The bind half
(:func:`~repro.distributed.partition.factor_slab`) runs inside
``eliminate`` whenever the command's :attr:`WorkerPool.epoch` differs
from the one the worker last factored at (or it has not factored since
``attach``): every arena rebuild and coefficient scatter bumps the
epoch and an RHS-only scatter does not, so a bound session's steady
state never re-factors and a foreign scatter always forces it.  Every
phase runs the *same functions* the in-process reference
(:func:`~repro.distributed.partition.partitioned_solve_reference`)
runs, so the multiprocess result is bitwise identical to it.

A worker that dies (or stops answering within the command deadline)
surfaces as a typed :class:`DistributedWorkerError` — never a hang —
and the pool marks itself broken; the next solve builds a fresh pool.
"""

from __future__ import annotations

import atexit
import multiprocessing
import os
import threading
import time
import traceback

import numpy as np

from repro.distributed.partition import backsub_slab, eliminate_slab, factor_slab

__all__ = [
    "DistributedWorkerError",
    "WorkerPool",
    "get_pool",
    "shutdown_pools",
]

#: Per-command deadline (seconds); a stuck worker fails fast instead of
#: stalling the caller (and CI).  Override with
#: ``REPRO_DISTRIBUTED_TIMEOUT_S``.
DEFAULT_TIMEOUT_S = float(os.environ.get("REPRO_DISTRIBUTED_TIMEOUT_S", "120"))

_POLL_S = 0.05


class DistributedWorkerError(RuntimeError):
    """A distributed worker crashed, misbehaved, or timed out."""


def _arena_layout(slab_rows: int, m: int, itemsize: int):
    """Offsets of every array in one rank's shared-memory arena."""
    layout = {}
    offset = 0
    for name, shape in (
        ("a", (slab_rows, m)),
        ("b", (slab_rows, m)),
        ("c", (slab_rows, m)),
        ("d", (slab_rows, m)),
        ("x", (slab_rows, m)),
        ("reduced", (6, m)),
        ("boundary", (2, m)),
    ):
        layout[name] = (offset, shape)
        offset += int(np.prod(shape)) * itemsize
    return layout, offset


def _arena_views(buf, slab_rows: int, m: int, dtype):
    """NumPy views into one arena buffer, keyed by array name."""
    itemsize = np.dtype(dtype).itemsize
    layout, _ = _arena_layout(slab_rows, m, itemsize)
    return {
        name: np.ndarray(shape, dtype=dtype, buffer=buf, offset=offset)
        for name, (offset, shape) in layout.items()
    }


def worker_main(conn) -> None:
    """Worker process entry point (module-level for spawn contexts)."""
    from multiprocessing import shared_memory

    shm = None
    views = None
    fact = None  # the slab's bind half, built at epoch fact_epoch
    fact_epoch = None
    rep = None
    try:
        while True:
            try:
                cmd = conn.recv()
            except (EOFError, OSError):
                break
            op = cmd[0]
            try:
                if op == "attach":
                    _, name, slab_rows, m, dtype_str = cmd
                    if shm is not None:
                        shm.close()
                    # under the default fork context the resource
                    # tracker is shared with the parent, so this
                    # attach-side registration is idempotent and the
                    # parent's unlink() retires the segment cleanly
                    shm = shared_memory.SharedMemory(name=name)
                    views = _arena_views(shm.buf, slab_rows, m, dtype_str)
                    fact = None
                    rep = None
                elif op == "eliminate":
                    _, epoch = cmd
                    if fact is None or fact_epoch != epoch:
                        # free the stale factorization (and the rep
                        # holding its spikes) first, so the two never
                        # coexist at the rank's peak memory
                        fact = rep = None
                        fact = factor_slab(views["a"], views["b"], views["c"])
                        fact_epoch = epoch
                    rep, reduced = eliminate_slab(fact, views["d"])
                    views["reduced"][:] = reduced
                elif op == "backsub":
                    if rep is None:
                        raise RuntimeError("backsub before eliminate")
                    boundary = views["boundary"]
                    backsub_slab(rep, boundary[0], boundary[1], views["x"])
                elif op == "exit":
                    conn.send(("ok",))
                    break
                else:
                    raise RuntimeError(f"unknown command {op!r}")
                conn.send(("ok",))
            except Exception:
                conn.send(("err", traceback.format_exc()))
    finally:
        if shm is not None:
            shm.close()
        conn.close()


class WorkerPool:
    """``P`` persistent workers + their shared-memory arenas."""

    def __init__(self, ranks: int, *, timeout_s: float | None = None):
        if ranks < 2:
            raise ValueError(f"a worker pool needs ranks >= 2, got {ranks}")
        self.ranks = int(ranks)
        self.timeout_s = DEFAULT_TIMEOUT_S if timeout_s is None else timeout_s
        self.broken = False
        #: bumped whenever arena *contents other than the RHS* may have
        #: changed (arena rebuilds, full slab scatters).  Bound sessions
        #: record the epoch after scattering their coefficients and
        #: re-scatter when it moves — the interleave detector that lets
        #: a session skip the coefficient scatter in the steady state —
        #: and workers re-factor their slab when it moves.
        self.epoch = 0
        self._lock = threading.Lock()
        self._geometry = None  # (slab_row_counts, m, dtype_str)
        self._shms = []
        self._views = []
        try:
            ctx = multiprocessing.get_context("fork")
        except ValueError:  # pragma: no cover - non-POSIX hosts
            ctx = multiprocessing.get_context("spawn")
        try:
            # start the resource tracker *before* forking so every
            # worker inherits the same tracker; attach-side shm
            # registrations then dedupe against the parent's and the
            # parent's unlink() retires each segment exactly once
            from multiprocessing import resource_tracker

            resource_tracker.ensure_running()
        except Exception:  # pragma: no cover - tracker internals moved
            pass
        self._procs = []
        self._conns = []
        for _ in range(self.ranks):
            parent, child = ctx.Pipe()
            proc = ctx.Process(
                target=worker_main, args=(child,), daemon=True
            )
            proc.start()
            child.close()
            self._procs.append(proc)
            self._conns.append(parent)

    # -- command plumbing ---------------------------------------------
    def _send(self, rank: int, cmd) -> None:
        try:
            self._conns[rank].send(cmd)
        except (OSError, ValueError) as exc:
            self.broken = True
            raise DistributedWorkerError(
                f"rank {rank} pipe closed ({exc}); worker "
                f"{'dead' if not self._procs[rank].is_alive() else 'alive'}"
            ) from exc

    def _await(self, rank: int):
        conn = self._conns[rank]
        proc = self._procs[rank]
        deadline = time.monotonic() + self.timeout_s
        while True:
            try:
                if conn.poll(_POLL_S):
                    reply = conn.recv()
                    break
            except (EOFError, OSError) as exc:
                self.broken = True
                raise DistributedWorkerError(
                    f"rank {rank} died mid-command (exitcode "
                    f"{proc.exitcode})"
                ) from exc
            if not proc.is_alive():
                self.broken = True
                raise DistributedWorkerError(
                    f"rank {rank} worker died (exitcode {proc.exitcode})"
                )
            if time.monotonic() > deadline:
                self.broken = True
                raise DistributedWorkerError(
                    f"rank {rank} timed out after {self.timeout_s:.0f}s"
                )
        if reply[0] != "ok":
            self.broken = True
            raise DistributedWorkerError(
                f"rank {rank} failed:\n{reply[1]}"
            )
        return reply

    def _broadcast(self, cmd) -> None:
        """Send one command to every rank, then await every reply."""
        for rank in range(self.ranks):
            self._send(rank, cmd)
        for rank in range(self.ranks):
            self._await(rank)

    # -- arenas --------------------------------------------------------
    def attach(self, bounds, m: int, dtype) -> None:
        """(Re)build the arenas for one partition geometry.

        Arenas are reused while the slab shapes and dtype are stable —
        the common case for repeated solves of one problem shape.
        """
        from multiprocessing import shared_memory

        dtype = np.dtype(dtype)
        slab_rows = tuple(hi - lo for lo, hi in bounds)
        geometry = (slab_rows, int(m), dtype.str)
        if geometry == self._geometry:
            return
        self.epoch += 1
        self._release_arenas()
        views = []
        for rank, rows in enumerate(slab_rows):
            _, nbytes = _arena_layout(rows, m, dtype.itemsize)
            shm = shared_memory.SharedMemory(create=True, size=nbytes)
            self._shms.append(shm)
            views.append(_arena_views(shm.buf, rows, m, dtype))
            self._send(rank, ("attach", shm.name, rows, m, dtype.str))
        for rank in range(self.ranks):
            self._await(rank)
        self._views = views
        self._geometry = geometry

    def _release_arenas(self) -> None:
        self._views = []
        self._geometry = None
        shms, self._shms = self._shms, []
        for shm in shms:
            try:
                shm.close()
                shm.unlink()
            except OSError:
                pass

    # -- the four pipeline phases -------------------------------------
    def scatter_slabs(self, at, bt, ct, dt, bounds) -> None:
        """Copy the transposed ``(N, M)`` diagonals into the arenas."""
        self.epoch += 1
        for rank, (lo, hi) in enumerate(bounds):
            views = self._views[rank]
            views["a"][:] = at[lo:hi]
            views["b"][:] = bt[lo:hi]
            views["c"][:] = ct[lo:hi]
            views["d"][:] = dt[lo:hi]

    def scatter_rhs(self, dt, bounds) -> None:
        """Copy only the transposed ``(N, M)`` right-hand side.

        The per-step scatter of a bound session: the coefficient slabs
        already live in the arenas (no phase mutates them), so a new
        RHS against the same matrix ships one array instead of four.
        ``dt`` may be a strided transpose view — the arena assignment
        is the only copy.  Does **not** bump :attr:`epoch`: the
        coefficient contents are untouched, so the workers keep their
        slab factorizations.
        """
        for rank, (lo, hi) in enumerate(bounds):
            self._views[rank]["d"][:] = dt[lo:hi]

    def eliminate(self) -> None:
        """All ranks run the step half of their slab elimination.

        The command carries :attr:`epoch`; a rank whose slab
        factorization is from another epoch runs the bind half first.
        """
        self._broadcast(("eliminate", self.epoch))

    def gather_reduced(self) -> list:
        """Collect every rank's ``(6, M)`` boundary equations."""
        return [views["reduced"].copy() for views in self._views]

    def scatter_boundary(self, xb) -> None:
        """Ship each rank its solved ``(x_first, x_last)`` pair."""
        for rank, views in enumerate(self._views):
            views["boundary"][0] = xb[:, 2 * rank]
            views["boundary"][1] = xb[:, 2 * rank + 1]

    def backsub(self) -> None:
        """All ranks back-substitute their interior rows."""
        self._broadcast(("backsub",))

    def gather_solution(self, xt, bounds) -> None:
        """Copy the per-rank ``(L, M)`` solutions into ``xt``."""
        for rank, (lo, hi) in enumerate(bounds):
            xt[lo:hi] = self._views[rank]["x"]

    # -- lifecycle -----------------------------------------------------
    def shutdown(self) -> None:
        """Stop the workers and free every arena (idempotent)."""
        for rank, conn in enumerate(self._conns):
            try:
                conn.send(("exit",))
            except (OSError, ValueError):
                pass
        for proc in self._procs:
            proc.join(timeout=2.0)
            if proc.is_alive():  # pragma: no cover - stuck worker
                proc.terminate()
                proc.join(timeout=2.0)
        for conn in self._conns:
            try:
                conn.close()
            except OSError:
                pass
        self._release_arenas()
        self.broken = True


_pools: dict = {}
_pools_lock = threading.Lock()


def get_pool(ranks: int, *, timeout_s: float | None = None) -> WorkerPool:
    """The process-wide pool for ``ranks`` workers (rebuilt if broken)."""
    with _pools_lock:
        pool = _pools.get(ranks)
        if pool is not None and pool.broken:
            pool.shutdown()
            pool = None
        if pool is None:
            pool = WorkerPool(ranks, timeout_s=timeout_s)
            _pools[ranks] = pool
        return pool


def shutdown_pools() -> None:
    """Stop every cached pool (used by tests and atexit)."""
    with _pools_lock:
        pools = list(_pools.values())
        _pools.clear()
    for pool in pools:
        pool.shutdown()


atexit.register(shutdown_pools)
