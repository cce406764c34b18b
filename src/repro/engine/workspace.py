"""Per-plan preallocated execution state.

A :class:`PlanWorkspace` owns every array one in-flight execution of a
:class:`~repro.engine.plan.SolvePlan` writes besides its output.  The
engine keeps a small pool of these per plan, so repeated solves of one
problem shape allocate nothing but their result — the CPU analogue of
the paper's fixed shared-memory budget (Table I): buffer sizes are a
function of the plan alone, decided once, reused every launch.

Two shapes of state exist:

* ``k = 0`` plans (pure Thomas): transposed ``(N, M)`` copies of the
  three coefficient diagonals, which the one-shot factors in place
  (``tb`` becomes the denominators, ``tc`` the ``c'``), plus the
  :class:`~repro.core.factorize.RhsWorkspace` its RHS sweep runs in —
  six ``(N, M)`` buffers in all.  The Thomas recurrence walks rows
  sequentially; in the natural ``(M, N)`` layout each step strides
  across cache lines, so the executor copies the batch into
  column-major-equivalent buffers once and streams contiguous memory
  for all ``2N`` passes.  The arithmetic is elementwise per system, so
  results stay bitwise identical to
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

A :class:`PreparedWorkspace` serves RHS-only sweeps: the plan's
:class:`~repro.core.factorize.RhsWorkspace` at its ``k`` — the ``d'``
and level-slab buffers every factored sweep uses, plus the PCR level
buffers of a hybrid factorization, allocated up front, and the staging
pair allocated by the first sweep that stages (a ``step_t`` session or
a ranks slab interior sweeps the transposed layout in place and never
does).
"""

from __future__ import annotations

import numpy as np

from repro.core.factorize import RhsWorkspace
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
            # Transposed layout: the one-shot factors these staged
            # (N, M) coefficient copies in place (tb becomes the
            # denominators, tc the c'), then sweeps the staged RHS
            # through the RHS-only buffers.
            self.ta = np.empty((n, m), dtype=dtype)
            self.tb = np.empty((n, m), dtype=dtype)
            self.tc = np.empty((n, m), dtype=dtype)
            self.rhs = RhsWorkspace((n, m), 0, dtype)
            self.rhs.staging()  # the one-shot stages on every call
            self.nbytes = 3 * self.ta.nbytes + self.rhs.nbytes
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
        """True if this workspace's buffers serve ``plan``: its signature
        and its sub-tile (a plan variant of another ``c`` shares the
        signature but not the window buffers).  ``k_source`` sizes
        nothing, so a pinned-``k`` plan and the Table III plan it
        resolves to share one pool."""
        return (
            self.plan.signature() == plan.signature()
            and self.plan.subtile_scale == plan.subtile_scale
        )


class PreparedWorkspace(RhsWorkspace):
    """Scratch for one in-flight RHS-only prepared solve.

    The prepared path never touches coefficients, so this is the slim
    sibling of :class:`PlanWorkspace`: the
    :class:`~repro.core.factorize.RhsWorkspace` of the plan's
    ``(N, M)`` sweep at its ``k`` — the ``d'`` and slab buffers every
    factorization sweep uses, plus the PCR level buffers at ``k > 0``,
    allocated up front; the staging pair comes with the first
    ``solve_shard`` (:meth:`~repro.core.factorize.RhsWorkspace.staging`),
    and ``nbytes`` grows by it then.
    """

    def __init__(self, plan):
        super().__init__((plan.n, plan.m), plan.k, plan.dtype)
        self.plan = plan
        self._cyclic_y = None

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
            self.nbytes += self._cyclic_y.nbytes
        return self._cyclic_y

    def fits(self, plan) -> bool:
        """True if this workspace serves exactly ``plan``'s signature."""
        return self.plan.signature() == plan.signature()
