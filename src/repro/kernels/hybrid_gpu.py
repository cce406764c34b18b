"""The end-to-end simulated GPU solver: numbers + predicted time.

:class:`GpuHybridSolver` is what the figure benchmarks run.  It

1. plans the launch like the paper's runtime does — ``k`` from the
   Table III heuristic, and for small ``M`` a window count (Fig. 11b)
   that manufactures enough thread blocks to occupy the device;
2. (optionally) *solves* the batch numerically with the core hybrid so
   every benchmark point is backed by a real solution;
3. builds the stage ledgers (:mod:`repro.kernels`) and prices them on
   the device model, producing a :class:`GpuSolveReport` with the stage
   breakdown — including the tiled-PCR share of runtime that the paper
   quotes (6.25 % at M=256, 36.2 % at M=16, ≈55 % at M=1).

``predict`` prices a problem shape without touching data, which is how
the benchmarks sweep to ``N = 8M`` rows cheaply; correctness at those
shapes is covered by scaled-down numeric tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.layout import Layout
from repro.core.transition import GTX480_HEURISTIC, TransitionHeuristic
from repro.gpusim.device import DeviceSpec, GTX480
from repro.gpusim.timing import GpuTimingModel
from repro.kernels.fused_kernel import fused_hybrid_counters
from repro.kernels.pthomas_kernel import pthomas_counters
from repro.kernels.tiled_pcr_kernel import tiled_pcr_counters

__all__ = ["GpuHybridSolver", "GpuSolveReport"]


@dataclass
class GpuSolveReport:
    """Plan, ledgers and predicted timing of one (simulated) GPU solve."""

    m: int
    n: int
    k: int
    dtype_bytes: int
    n_windows: int
    fused: bool
    stages: list = field(default_factory=list)  # (name, KernelCounters, StageTime)

    @property
    def total_s(self) -> float:
        """Predicted wall-clock of the kernel sequence."""
        return sum(t.total_s for _, _, t in self.stages)

    @property
    def total_us(self) -> float:
        """Predicted wall-clock in microseconds (the paper's unit)."""
        return self.total_s * 1e6

    @property
    def pcr_seconds(self) -> float:
        """Time attributed to the tiled-PCR front-end."""
        return sum(t.total_s for name, _, t in self.stages if "PCR" in name)

    @property
    def pcr_fraction(self) -> float:
        """Tiled-PCR share of total runtime (Section IV's percentages)."""
        total = self.total_s
        return self.pcr_seconds / total if total else 0.0

    def stage(self, name_fragment: str) -> tuple:
        """Look up a stage by name fragment → (counters, time)."""
        for name, counters, time in self.stages:
            if name_fragment in name:
                return counters, time
        raise KeyError(f"no stage matching {name_fragment!r}")

    def trace_stages(self) -> list:
        """``(kernel name, predicted µs)`` pairs for solve traces.

        The hook :class:`~repro.backends.gpusim_backend.GpuSimBackend`
        uses to put the device model's per-stage prediction next to the
        measured wall time in one
        :class:`~repro.backends.trace.SolveTrace`.
        """
        return [(name, t.total_s * 1e6) for name, _, t in self.stages]


@dataclass
class GpuHybridSolver:
    """Simulated-GPU hybrid solver (tiled PCR + p-Thomas on a device model).

    Parameters
    ----------
    device:
        Simulated GPU (default: the paper's GTX480).
    heuristic:
        Table III transition table.
    fuse:
        Use the fused kernel (Section III-C).
    subtile_scale:
        Table I's ``c``.
    target_blocks_per_sm:
        How many blocks the window planner tries to put on each SM when
        ``M`` alone cannot fill the device (Fig. 11b).
    windows_per_block:
        Windows multiplexed onto one thread block (Fig. 11c) — trades
        shared-memory occupancy for more in-flight loads per block.
        Numerically a no-op; affects the predicted timing only.
    """

    device: DeviceSpec = GTX480
    heuristic: TransitionHeuristic = GTX480_HEURISTIC
    fuse: bool = False
    subtile_scale: int = 1
    target_blocks_per_sm: int = 4
    windows_per_block: int = 1
    last_report: GpuSolveReport | None = field(default=None, compare=False)

    # ------------------------------------------------------------------
    def plan_windows(self, m: int, n: int, k: int) -> int:
        """Windows per system (Fig. 11b) to reach the block target.

        With ``M`` systems and one window each, the grid has ``M``
        blocks; if that undershoots ``SMs × target_blocks_per_sm``, split
        each system into more windows — but never so many that a window
        advances fewer than four sub-tiles (the lead-in would dominate).
        """
        if k == 0:
            return 1
        target_blocks = self.device.sm_count * self.target_blocks_per_sm
        want = -(-target_blocks // m)
        subtile = self.subtile_scale * (1 << k)
        max_windows = max(1, n // (4 * subtile))
        return int(max(1, min(want, max_windows)))

    def plan(self, m: int, n: int, dtype_bytes: int = 8) -> tuple:
        """(k, n_windows) for a problem shape.

        The heuristic's k is additionally capped by the device's
        shared-memory capacity (the window must fit a block) — the
        portability knob of Sections III-A/VI.
        """
        from repro.core.window import max_k_for_shared_memory

        k = self.heuristic.k_for(m, n)
        k = min(
            k,
            max_k_for_shared_memory(
                self.device.max_shared_mem_per_block,
                dtype_bytes=dtype_bytes,
                c=self.subtile_scale,
            ),
        )
        return k, self.plan_windows(m, n, k)

    # ------------------------------------------------------------------
    def predict(
        self,
        m: int,
        n: int,
        dtype_bytes: int = 8,
        *,
        k: int | None = None,
        n_windows: int | None = None,
        fuse: bool | None = None,
    ) -> GpuSolveReport:
        """Price a problem shape on the device model (no numerics).

        ``k`` / ``n_windows`` / ``fuse`` override the planner and the
        solver's own ``fuse`` (the backend layer passes a request's
        fixed transition and kernel choice through so prediction and
        execution price the same launch).
        """
        planned_k, planned_w = self.plan(m, n, dtype_bytes)
        if k is None:
            k = planned_k
        if n_windows is None:
            n_windows = planned_w if k == planned_k else self.plan_windows(m, n, k)
        if fuse is None:
            fuse = self.fuse
        model = GpuTimingModel(self.device)
        report = GpuSolveReport(
            m=m, n=n, k=k, dtype_bytes=dtype_bytes,
            n_windows=n_windows, fused=fuse and k > 0,
        )
        g = 1 << k
        length = -(-n // g)
        if k == 0:
            counters = pthomas_counters(
                m, n, dtype_bytes, device=self.device, layout=Layout.INTERLEAVED
            )
            report.stages.append(
                (counters.name, counters, model.time(counters, dtype_bytes))
            )
        elif fuse:
            counters = fused_hybrid_counters(
                m, n, k, dtype_bytes,
                device=self.device, c=self.subtile_scale, n_windows=n_windows,
                windows_per_block=self.windows_per_block,
            )
            report.stages.append(
                (counters.name, counters, model.time(counters, dtype_bytes))
            )
        else:
            pcr = tiled_pcr_counters(
                m, n, k, dtype_bytes,
                device=self.device, c=self.subtile_scale, n_windows=n_windows,
                windows_per_block=self.windows_per_block,
            )
            thomas = pthomas_counters(
                m * g, length, dtype_bytes,
                device=self.device, layout=Layout.INTERLEAVED,
            )
            report.stages.append((pcr.name, pcr, model.time(pcr, dtype_bytes)))
            report.stages.append(
                (thomas.name, thomas, model.time(thomas, dtype_bytes))
            )
        self.last_report = report
        return report

    # ------------------------------------------------------------------
    def solve_batch(
        self, a, b, c, d, *, check: bool = True, k: int | None = None
    ) -> np.ndarray:
        """Numerically solve the batch *and* predict its GPU timing.

        The numerics run through the solve-plan engine at the device
        plan's ``k`` (capped by shared memory), on the host's window
        schedule — bitwise what the reference hybrid produces for the
        device plan, whose Fig. 11b window count and ``c`` move no bit;
        the prediction of the device launch lands in
        :attr:`last_report`.  ``k`` overrides the device planner's
        transition (the windows are re-planned around it).
        """
        from repro.engine import default_engine

        b_arr = np.asarray(b)
        m, n = b_arr.shape
        dtype_bytes = b_arr.dtype.itemsize if b_arr.dtype.itemsize in (4, 8) else 8
        if k is None:
            k, n_windows = self.plan(m, n, dtype_bytes)
        else:
            n_windows = self.plan_windows(m, n, k)
        x = default_engine().solve_batch(
            a, b, c, d, check=check, k=k, fuse=self.fuse
        )
        self.predict(m, n, dtype_bytes, k=k, n_windows=n_windows)
        return x

    def solve(self, a, b, c, d, *, check: bool = True) -> np.ndarray:
        """Single-system convenience wrapper."""
        a, b, c, d = (np.asarray(v) for v in (a, b, c, d))
        return self.solve_batch(
            a[None, :], b[None, :], c[None, :], d[None, :], check=check
        )[0]
