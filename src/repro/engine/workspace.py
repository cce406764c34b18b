"""Per-plan preallocated execution state.

A :class:`PlanWorkspace` owns every array one in-flight execution of a
:class:`~repro.engine.plan.SolvePlan` writes besides its output.  The
engine keeps a small pool of these per plan, so repeated solves of one
problem shape allocate nothing but their result — the CPU analogue of
the paper's fixed shared-memory budget (Table I): buffer sizes are a
function of the plan alone, decided once, reused every launch.

Two shapes of state exist:

* ``k = 0`` plans (pure Thomas): transposed ``(N, M)`` copies of the
  four diagonals plus modified-coefficient and solution buffers.  The
  Thomas recurrence walks rows sequentially; in the natural ``(M, N)``
  layout each step strides across cache lines, so the executor copies
  the batch into column-major-equivalent buffers once and streams
  contiguous memory for all ``2N`` passes.  The arithmetic is
  elementwise per system, so results stay bitwise identical to
  :func:`repro.core.thomas.thomas_solve_batch`.
* ``k > 0`` plans (hybrid): the sliding-window ring buffers
  (:class:`~repro.core.tiled_pcr.TiledWorkspace`), the p-Thomas
  modified-coefficient state
  (:class:`~repro.core.pthomas.PThomasWorkspace`), and — for unfused
  plans — the four reduced-system arrays the sweep emits into.  All of
  them are column-major ``(M, ·)`` arrays, the same move as the ``k = 0``
  transposed buffers: every window and p-Thomas kernel works on a row
  range of all ``M`` systems, which this layout makes one contiguous
  block.  The input is transposed by the sweep's per-round raw fetch
  and the output by the final copy into the caller's row-major result.
"""

from __future__ import annotations

import numpy as np

from repro.core.pthomas import PThomasWorkspace
from repro.core.tiled_pcr import TiledWorkspace

__all__ = ["PlanWorkspace", "PreparedWorkspace"]


class PlanWorkspace:
    """All scratch one execution of ``plan`` needs, allocated up front."""

    def __init__(self, plan):
        self.plan = plan
        m, n, dtype = plan.m, plan.n, plan.dtype
        self.nbytes = 0
        if plan.uses_thomas:
            # Transposed layout: rows of the Thomas recurrence become
            # contiguous (N, M) rows.
            self.ta = np.empty((n, m), dtype=dtype)
            self.tb = np.empty((n, m), dtype=dtype)
            self.tc = np.empty((n, m), dtype=dtype)
            self.td = np.empty((n, m), dtype=dtype)
            self.cp = np.empty((n, m), dtype=dtype)
            self.dp = np.empty((n, m), dtype=dtype)
            self.xt = np.empty((n, m), dtype=dtype)
            self.t1 = np.empty(m, dtype=dtype)
            self.t2 = np.empty(m, dtype=dtype)
            self.nbytes = sum(
                v.nbytes
                for v in (
                    self.ta, self.tb, self.tc, self.td,
                    self.cp, self.dp, self.xt, self.t1, self.t2,
                )
            )
        else:
            self.tiled = TiledWorkspace(m, plan.k, plan.subtile, dtype)
            self.pthomas = PThomasWorkspace(m, n, plan.k, dtype)
            self.nbytes += sum(
                ch.nbytes for ring in self.tiled.rings for ch in ring.data
            )
            self.nbytes += sum(s.nbytes for s in self.tiled.stage)
            self.nbytes += (
                self.tiled.k1.nbytes
                + self.tiled.k2.nbytes
                + self.tiled.tmp.nbytes
            )
            self.nbytes += (
                self.pthomas.cp.nbytes
                + self.pthomas.dp.nbytes
                + self.pthomas.t1.nbytes
                + self.pthomas.t2.nbytes
            )
            if plan.fuse:
                self.reduced = None
            else:
                self.reduced = tuple(
                    np.empty((m, n), dtype=dtype, order="F")
                    for _ in range(4)
                )
                self.nbytes += sum(r.nbytes for r in self.reduced)

    def fits(self, plan) -> bool:
        """True if this workspace serves exactly ``plan``'s signature."""
        return self.plan.signature() == plan.signature()


class PreparedWorkspace:
    """Scratch for one in-flight RHS-only prepared solve.

    The prepared path never touches coefficients, so this is the slim
    sibling of :class:`PlanWorkspace`: for ``k = 0`` plans just the
    transposed RHS / modified-RHS / solution buffers (the coefficient
    triple lives in the factorization); for ``k > 0`` plans a family of
    named-buffer dicts that
    :meth:`HybridFactorization.solve <repro.core.factorize.HybridFactorization.solve>`
    keys its ping-pong and regroup buffers into — one dict per shard,
    so sharded solves share one workspace without aliasing.
    """

    def __init__(self, plan):
        self.plan = plan
        m, n, dtype = plan.m, plan.n, plan.dtype
        self._cyclic_y = None
        if plan.uses_thomas:
            self.td = np.empty((n, m), dtype=dtype)
            self.dp = np.empty((n, m), dtype=dtype)
            self.xt = np.empty((n, m), dtype=dtype)
            self.t1 = np.empty(m, dtype=dtype)
            self.t2 = np.empty(m, dtype=dtype)
            self._scratch = None
        else:
            self._scratch = {}

    def scratch_for(self, lo: int, hi: int) -> dict:
        """The named-buffer dict for rows ``[lo, hi)`` (``k > 0`` plans only)."""
        return self._scratch.setdefault((lo, hi), {})

    def cyclic_y(self) -> np.ndarray:
        """The intermediate ``A' y = d`` buffer for prepared cyclic solves.

        Allocated on first use (plain prepared solves never pay for it)
        and kept for the workspace's pooled lifetime — a prepared cyclic
        sweep allocates nothing but its output, same as the plain path.
        """
        if self._cyclic_y is None:
            self._cyclic_y = np.empty(
                (self.plan.m, self.plan.n), dtype=self.plan.dtype
            )
        return self._cyclic_y

    @property
    def nbytes(self) -> int:
        """Bytes currently held (hybrid dicts fill lazily)."""
        extra = 0 if self._cyclic_y is None else self._cyclic_y.nbytes
        if self._scratch is None:
            return extra + sum(
                v.nbytes
                for v in (self.td, self.dp, self.xt, self.t1, self.t2)
            )
        return extra + sum(
            arr.nbytes
            for bufs in self._scratch.values()
            for arr in bufs.values()
        )

    def fits(self, plan) -> bool:
        """True if this workspace serves exactly ``plan``'s signature."""
        return self.plan.signature() == plan.signature()
