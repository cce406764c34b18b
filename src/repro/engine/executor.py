"""Plan execution: zero-allocation kernels behind a frozen plan.

:func:`execute_plan` runs one ``(M, N)`` batch through a
:class:`~repro.engine.plan.SolvePlan` using a matching
:class:`~repro.engine.workspace.PlanWorkspace`.  All intermediate state
lives in the workspace; the only allocation per call is the result
array (and even that can be supplied via ``out=``, which is how a
session writes straight into a caller's or its own buffer).

Every path is held **bitwise identical** to the reference
:class:`~repro.core.hybrid.HybridSolver`:

* ``k > 0`` plans run the same :class:`~repro.core.tiled_pcr.TiledPCR`
  sweep and p-Thomas back-end, just against plan-owned workspaces.
  Those workspaces are column-major (batch axis contiguous), so every
  window and p-Thomas kernel streams one contiguous block per row
  range; the sweep's raw fetch transposes the input on the way in and
  p-Thomas's final copy into ``out`` transposes the solution back.
* ``k = 0`` plans run the Thomas recurrence in a *transposed* layout:
  the diagonals are copied once into ``(N, M)`` buffers so the
  sequential row loop streams contiguous memory instead of striding
  across the batch (each of the ``2N`` recurrence steps touches one
  contiguous ``M``-vector).  The one-shot is a transient
  :class:`~repro.core.factorize.ThomasRhsFactorization` — factor, then
  its RHS sweep — so there is one ``k = 0`` recurrence, shared with
  every prepared solve.  The arithmetic per system is unchanged —
  identical operations in identical order, just a different memory
  walk — so results match :func:`repro.core.thomas.thomas_solve_batch`
  bit for bit.

Every factored route at ``k > 0`` (a prepared handle, a fingerprinted
session, a rank's slab interior) runs the same
:class:`~repro.core.factorize.ThomasRhsFactorization` sweep at stride
``2^k`` over the stored reduced system, in p-Thomas's operation order,
so it too gives this module's one-shot bits.
"""

from __future__ import annotations

import time

import numpy as np

from repro.core.factorize import ThomasRhsFactorization
from repro.core.layout import transpose_into
from repro.core.pthomas import _FusedPThomas, pthomas_solve_interleaved
from repro.core.tiled_pcr import TiledPCR, TilingCounters

__all__ = ["execute_plan"]


def _thomas_transposed(ws, a, b, c, d, out=None) -> np.ndarray:
    """Batched ``k = 0`` Thomas one-shot on pooled ``(N, M)`` buffers.

    Stages the four diagonals into the workspace, factors the staged
    coefficients in place (:meth:`ThomasRhsFactorization.factor_t
    <repro.core.factorize.ThomasRhsFactorization.factor_t>`) and runs
    the RHS sweep — the same sweep a stored ``k = 0`` factorization
    runs, so prepared and one-shot solves share their bits by
    construction.  The transient factorization is neither cached nor
    counted.
    """
    td, xt = ws.rhs.staging()
    for src, dst in zip((a, b, c, d), (ws.ta, ws.tb, ws.tc, td)):
        transpose_into(src, dst)
    fact = ThomasRhsFactorization.factor_t(ws.ta, ws.tb, ws.tc)
    fact.solve_shard_t(ws.rhs, td, xt)
    if out is None:
        out = np.empty(d.shape, dtype=xt.dtype)
    return transpose_into(xt, out)


def execute_plan(
    plan,
    ws,
    a,
    b,
    c,
    d,
    *,
    counters: TilingCounters | None = None,
    out: np.ndarray | None = None,
    stage_times: list | None = None,
) -> np.ndarray:
    """Execute ``plan`` on coerced ``(M, N)`` diagonals using ``ws``.

    Inputs must already be arrays of ``plan.dtype`` and shape
    ``(plan.m, plan.n)``, contiguous or stride-0 broadcasts of one row
    (the engine guarantees this); they are only read.  ``counters``, if
    given, accumulates the sweep's :class:`TilingCounters`.  ``out``, if
    given, receives the solution.  ``stage_times``, if
    given, receives ``(stage name, seconds)`` pairs — the per-stage
    wall-time hook behind :class:`~repro.backends.trace.SolveTrace`.
    """
    if not ws.fits(plan):
        raise ValueError("workspace was built for a different plan")
    if plan.uses_thomas:
        t0 = time.perf_counter()
        x = _thomas_transposed(ws, a, b, c, d, out=out)
        if stage_times is not None:
            stage_times.append(
                ("thomas (transposed)", time.perf_counter() - t0)
            )
        return x

    tiler = TiledPCR(k=plan.k, c=plan.subtile_scale)
    if counters is not None:
        tiler.counters = counters
    if plan.fuse:
        fused = _FusedPThomas(
            plan.m, plan.n, plan.k, plan.dtype, workspace=ws.pthomas
        )
        t0 = time.perf_counter()
        tiler.sweep(
            a, b, c, d, check=False, emit=fused.consume, workspace=ws.tiled
        )
        t1 = time.perf_counter()
        x = fused.backward(out=out)
        if stage_times is not None:
            stage_times.append(("tiled-pcr + fused forward", t1 - t0))
            stage_times.append(
                ("p-thomas backward", time.perf_counter() - t1)
            )
        return x

    red = ws.reduced

    def emit_into_reduced(e0, e1, quad):
        for o, sarr in zip(red, quad):
            o[:, e0:e1] = sarr

    t0 = time.perf_counter()
    tiler.sweep(
        a, b, c, d, check=False, emit=emit_into_reduced, workspace=ws.tiled
    )
    t1 = time.perf_counter()
    x = pthomas_solve_interleaved(
        red[0], red[1], red[2], red[3], plan.k,
        workspace=ws.pthomas, out=out,
    )
    if stage_times is not None:
        stage_times.append(("tiled-pcr sweep", t1 - t0))
        stage_times.append(("p-thomas", time.perf_counter() - t1))
    return x
