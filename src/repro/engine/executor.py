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
  contiguous ``M``-vector).  The arithmetic per system is unchanged —
  identical operations in identical order, just a different memory
  walk — so results match :func:`repro.core.thomas.thomas_solve_batch`
  bit for bit.
"""

from __future__ import annotations

import time

import numpy as np

from repro.core.hybrid import _FusedPThomas
from repro.core.pthomas import pthomas_solve_interleaved
from repro.core.tiled_pcr import TiledPCR, TilingCounters

__all__ = ["execute_plan"]


def _thomas_transposed(ws, a, b, c, d, out=None) -> np.ndarray:
    """Batched Thomas over transposed ``(N, M)`` workspace buffers.

    Same recurrence, same operation order as
    :func:`repro.core.thomas.thomas_solve_batch`; the transpose only
    changes which axis is contiguous during the sequential row loop.
    """
    n = ws.tb.shape[0]
    ta, tb, tc, td = ws.ta, ws.tb, ws.tc, ws.td
    ta[...] = a.T
    tb[...] = b.T
    tc[...] = c.T
    td[...] = d.T
    cp, dp, xt = ws.cp, ws.dp, ws.xt
    t1, t2 = ws.t1, ws.t2
    # Forward reduction (Eqs. 2-3): denom = b_i - cp_{i-1} * a_i,
    # cp_i = c_i / denom, dp_i = (d_i - dp_{i-1} * a_i) / denom.
    np.divide(tc[0], tb[0], out=cp[0])
    np.divide(td[0], tb[0], out=dp[0])
    for i in range(1, n):
        np.multiply(cp[i - 1], ta[i], out=t1)
        np.subtract(tb[i], t1, out=t1)
        np.divide(tc[i], t1, out=cp[i])
        np.multiply(dp[i - 1], ta[i], out=t2)
        np.subtract(td[i], t2, out=t2)
        np.divide(t2, t1, out=dp[i])
    # Backward substitution (Eq. 4): x_i = dp_i - cp_i * x_{i+1}.
    xt[n - 1] = dp[n - 1]
    for i in range(n - 2, -1, -1):
        np.multiply(cp[i], xt[i + 1], out=t1)
        np.subtract(dp[i], t1, out=xt[i])
    if out is not None:
        out[...] = xt.T
        return out
    # .copy() (not ascontiguousarray) — for m == 1 the transpose is
    # already contiguous and ascontiguousarray would return a view into
    # the pooled workspace, which the next same-plan solve overwrites.
    return xt.T.copy()


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

    Inputs must already be contiguous arrays of ``plan.dtype`` and shape
    ``(plan.m, plan.n)`` (the engine guarantees this).  ``counters``, if
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

    tiler = TiledPCR(
        k=plan.k, c=plan.subtile_scale, n_windows=plan.n_windows
    )
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
