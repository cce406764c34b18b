"""The hybrid solver: k-step tiled PCR + p-Thomas — Section III.

Divide and conquer:

1. **Front-end** — :class:`~repro.core.tiled_pcr.TiledPCR` runs ``k`` PCR
   steps through the buffered sliding window, turning each input system
   into ``2^k`` independent interleaved systems ("parallelism
   excavation").
2. **Back-end** — :func:`~repro.core.pthomas.pthomas_solve_interleaved`
   solves the ``M · 2^k`` systems, one thread each, with coalesced
   accesses thanks to the interleaving PCR left behind.
3. **Transition** — ``k`` comes from Table III (default) or from the
   Table II cost model (:func:`~repro.core.transition.select_k_analytic`)
   when a machine-parallelism estimate is supplied.

**Kernel fusion** (Section III-C, ``fuse=True``): the p-Thomas forward
reduction consumes each slab of PCR output the moment the sliding window
emits it, instead of waiting for the full sweep — the PCR results never
round-trip through global memory ("register tiling").  Numerically the
fused and unfused paths are identical; the saved traffic shows up in the
GPU timing model (:mod:`repro.kernels.fused_kernel`).

For repeated solves of one problem shape, prefer routing through the
solve-plan engine (:mod:`repro.engine`): it freezes the transition
choice and owns the sliding-window / p-Thomas workspaces across calls,
so only the first solve pays planning and allocation cost.  This class
remains the single-call reference implementation the engine is held
bitwise-equal to.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from repro.core.pthomas import (
    _FusedPThomas,
    pthomas_solve_interleaved,
    subsystem_lengths,
)
from repro.core.thomas import thomas_solve_batch
from repro.core.tiled_pcr import TiledPCR, TilingCounters
from repro.core.transition import (
    GTX480_HEURISTIC,
    TransitionHeuristic,
    clamp_k,
    select_k_analytic,
)
from repro.core.validation import check_batch_arrays

__all__ = ["HybridSolver", "HybridReport", "choose_transition"]


def choose_transition(
    m: int,
    n: int,
    *,
    k: int | None = None,
    heuristic: TransitionHeuristic = GTX480_HEURISTIC,
    parallelism: int | None = None,
) -> tuple:
    """Pick the PCR step count for an ``M × N`` problem.

    Returns ``(k, source)`` where source is ``"fixed"``, ``"analytic"``
    or ``"heuristic"``.  Shared by :class:`HybridSolver` and the plan
    engine so both freeze the identical transition.
    """
    if k is not None:
        return clamp_k(k, n), "fixed"
    if parallelism is not None:
        n_log2 = max(0, int(np.ceil(np.log2(n))))
        k_sel = select_k_analytic(n_log2, m, parallelism)
        return clamp_k(k_sel, n), "analytic"
    return heuristic.k_for(m, n), "heuristic"


@dataclass
class HybridReport:
    """What the last :meth:`HybridSolver.solve_batch` call actually did."""

    m: int = 0
    n: int = 0
    k: int = 0
    k_source: str = "heuristic"
    subsystems: int = 0
    fused: bool = False
    n_windows: int = 1
    tiling: TilingCounters = field(default_factory=TilingCounters)

    @property
    def pcr_eliminations(self) -> int:
        """Eliminations spent in the tiled-PCR front-end."""
        return self.tiling.eliminations

    @cached_property
    def thomas_eliminations(self) -> int:
        """Eliminations spent in the p-Thomas back-end (``2·L − 1`` per
        subsystem, ``L`` the subsystem length).

        Computed vectorized from :func:`subsystem_lengths` and cached on
        first access (the report's shape fields are written once, at
        solve time).
        """
        lengths = subsystem_lengths(self.n, self.k)
        lengths = lengths[lengths > 0]
        return int(self.m * np.sum(2 * lengths - 1))


@dataclass
class HybridSolver:
    """Tiled-PCR + p-Thomas hybrid tridiagonal solver (the paper's method).

    Parameters
    ----------
    k:
        Fixed PCR step count; ``None`` (default) selects it per call.
    heuristic:
        Table-III-style ``M → k`` table used when ``k is None`` and
        ``parallelism is None``.
    parallelism:
        If given (hardware thread capacity ``P``), ``k`` is chosen by
        minimizing the Table II cost model instead of the lookup table.
    subtile_scale:
        Table I's ``c`` — outputs per thread per sliding-window round.
    n_windows:
        Concurrent windows per system (Fig. 11b); ``1`` = no redundancy.
    fuse:
        Fuse p-Thomas forward reduction into the PCR sweep (Section III-C).

    Examples
    --------
    >>> import numpy as np
    >>> from repro.core.hybrid import HybridSolver
    >>> rng = np.random.default_rng(1)
    >>> m, n = 4, 128
    >>> a = rng.standard_normal((m, n)); a[:, 0] = 0
    >>> c = rng.standard_normal((m, n)); c[:, -1] = 0
    >>> b = 4 + np.abs(a) + np.abs(c)
    >>> d = rng.standard_normal((m, n))
    >>> x = HybridSolver().solve_batch(a, b, c, d)
    >>> r = b * x - d
    >>> r[:, 1:] += a[:, 1:] * x[:, :-1]
    >>> r[:, :-1] += c[:, :-1] * x[:, 1:]
    >>> bool(np.abs(r).max() < 1e-10)
    True
    """

    k: int | None = None
    heuristic: TransitionHeuristic = GTX480_HEURISTIC
    parallelism: int | None = None
    subtile_scale: int = 1
    n_windows: int = 1
    fuse: bool = False
    last_report: HybridReport | None = field(default=None, compare=False)

    def choose_k(self, m: int, n: int) -> tuple:
        """Pick the PCR step count for an ``M × N`` problem.

        Returns ``(k, source)`` where source is ``"fixed"``,
        ``"analytic"`` or ``"heuristic"``.
        """
        return choose_transition(
            m,
            n,
            k=self.k,
            heuristic=self.heuristic,
            parallelism=self.parallelism,
        )

    def solve_batch(self, a, b, c, d, *, check: bool = True) -> np.ndarray:
        """Solve an ``(M, N)`` batch; fills :attr:`last_report`."""
        if check:
            a, b, c, d = check_batch_arrays(a, b, c, d)
        m, n = np.asarray(b).shape
        k, source = self.choose_k(m, n)
        report = HybridReport(
            m=m,
            n=n,
            k=k,
            k_source=source,
            subsystems=m * (1 << k),
            fused=self.fuse,
            n_windows=self.n_windows,
        )
        self.last_report = report

        if k == 0:
            x = thomas_solve_batch(a, b, c, d, check=False)
            return x

        tiler = TiledPCR(k=k, c=self.subtile_scale, n_windows=self.n_windows)
        report.tiling = tiler.counters
        if self.fuse:
            fused = _FusedPThomas(m, n, k, np.asarray(b).dtype)
            tiler.sweep(a, b, c, d, check=False, emit=fused.consume)
            return fused.backward()
        ra, rb, rc, rd = tiler.sweep(a, b, c, d, check=False)
        return pthomas_solve_interleaved(ra, rb, rc, rd, k)

    def solve(self, a, b, c, d, *, check: bool = True) -> np.ndarray:
        """Solve a single system (treated as an ``M = 1`` batch)."""
        a, b, c, d = (np.asarray(v) for v in (a, b, c, d))
        x = self.solve_batch(
            a[None, :], b[None, :], c[None, :], d[None, :], check=check
        )
        return x[0]
