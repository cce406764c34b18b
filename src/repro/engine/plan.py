"""Solve plans: the frozen decisions behind one problem shape.

The paper's method makes three decisions before any arithmetic happens:
the transition point ``k`` (Table III / the Table II cost model), the
sliding-window schedule (sub-tile size ``c·2^k``, window regions,
lead-in), and the buffer layout (per-level cache capacities, Table I).
On the GPU those are compile/launch-time constants; the seed CPU
realization recomputed all of them — and reallocated every buffer —
on *every* ``solve_batch`` call.

A :class:`SolvePlan` freezes those decisions once per ``(M, N, dtype,
k, fuse)`` signature.  Where the caller leaves ``k`` unset the plan
takes it from the transition table (Table III).  The window schedule is
the plan's own: one window per system (Fig. 11b's regions pay off on a
GPU's spare multiprocessors, not on one host thread) and Table I's
sub-tile ``c`` from :func:`host_subtile_scale`, sized for this host
rather than for a GPU's shared memory.  Every window and ``c`` schedule
gives the same bits.  Plans are immutable, hashable, and cheap; the
heavy state they imply (ring buffers, modified-coefficient arrays,
transpose scratch) lives in :class:`~repro.engine.workspace.PlanWorkspace`
objects the engine pools per plan.  Executing the same plan twice is
bitwise deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.cost_model import f_redundant_loads
from repro.core.hybrid import choose_transition

__all__ = [
    "HOST_BLOCK_ELEMENTS",
    "SolvePlan",
    "build_plan",
    "host_subtile_scale",
    "plan_key",
]

#: Elements per ``(M, c·2^k)`` ufunc block the host sub-tile grows to.
#: Below it a window round's ~14 ufunc calls per level are dominated by
#: their fixed per-call cost; fitted on a shape grid (powers of two from
#: 2^13 to 2^15) by geometric-mean solve time, see docs/ALGORITHMS.md.
HOST_BLOCK_ELEMENTS = 1 << 14


@dataclass(frozen=True)
class SolvePlan:
    """Frozen execution recipe for an ``(M, N)`` batch solve.

    Attributes
    ----------
    m, n:
        Batch shape the plan is specialized to.
    dtype:
        Element dtype (plans never mix precisions).
    k:
        Frozen PCR step count — the transition decision.
    k_source:
        Where ``k`` came from: ``"fixed"``, ``"heuristic"`` (Table III)
        or ``"banded"``.
    fuse:
        Whether the p-Thomas forward reduction is fused into the sweep
        (Section III-C).
    subtile_scale:
        Table I's ``c`` — rows per thread per sliding-window round;
        :func:`build_plan` sizes it for the host with
        :func:`host_subtile_scale`.  It is derived from the signature,
        so it is not part of it.
    system:
        System-descriptor tag (``""`` for tridiagonal, ``"penta"`` /
        ``"block<B>"`` otherwise) — keeps plan-cache and
        factorization-cache entries of different stencils from ever
        colliding on one ``(m, n, dtype, k)`` signature.
    """

    m: int
    n: int
    dtype: np.dtype
    k: int
    k_source: str
    fuse: bool = False
    subtile_scale: int = 1
    system: str = ""

    # ---- derived schedule ------------------------------------------------
    @property
    def g(self) -> int:
        """Interleave stride / thread-block width: ``2^k``."""
        return 1 << self.k

    @property
    def subtile(self) -> int:
        """Rows the sliding window advances per round: ``c · 2^k``."""
        return self.subtile_scale * self.g

    @property
    def uses_thomas(self) -> bool:
        """``k = 0``: the plan degenerates to pure batched Thomas."""
        return self.k == 0

    @property
    def lead_in(self) -> int:
        """Rows each window lags raw input by: ``f(k) = 2^k − 1``."""
        return f_redundant_loads(self.k)

    def rounds(self) -> int:
        """Total sliding-window rounds one execution performs.

        The window streams raw rows from ``−f(k)`` until level ``k``
        reaches ``N``, i.e. ``N + 2·f(k)`` rows, ``subtile`` per round —
        the ``subtiles`` count of the sweep's
        :class:`~repro.core.tiled_pcr.TilingCounters`.
        """
        if self.uses_thomas:
            return 0
        return -(-(self.n + 2 * self.lead_in) // self.subtile)

    def signature(self) -> tuple:
        """The hashable cache key this plan answers to."""
        return plan_key(
            self.m,
            self.n,
            self.dtype,
            self.k,
            self.fuse,
            self.system,
        )

    def describe(self) -> dict:
        """Human-readable plan summary (used by reports and benchmarks)."""
        return {
            "m": self.m,
            "n": self.n,
            "dtype": str(self.dtype),
            "k": self.k,
            "k_source": self.k_source,
            "backend": "thomas" if self.uses_thomas else (
                "tiled-pcr+p-thomas (fused)" if self.fuse
                else "tiled-pcr+p-thomas"
            ),
            "subsystems": self.m * self.g,
            "subtile": self.subtile,
            "rounds": self.rounds(),
        }


def plan_key(
    m: int,
    n: int,
    dtype,
    k: int,
    fuse: bool,
    system: str = "",
) -> tuple:
    """Canonical cache key for a plan signature.

    ``system`` is the descriptor tag; it rides at the end so every
    consumer of the ``(m, n, dtype, k)`` prefix (the factorization
    cache's keys, and with them the spill files) keeps working.
    """
    return (m, n, np.dtype(dtype).str, k, bool(fuse), system)


def host_subtile_scale(
    m: int, n: int, k: int, *, budget: int = HOST_BLOCK_ELEMENTS
) -> int:
    """Table I's ``c`` for this host: the sliding window's sub-tile size.

    The paper sizes the ``c·2^k``-row sub-tile for the GPU's on-chip
    memory.  On a NumPy host every window round issues a fixed number of
    ufunc calls per level over ``(M, c·2^k)`` blocks, so the sub-tile
    should grow until a block is wide enough that the per-call overhead
    no longer dominates: the largest power of two ``c ≥ 1`` with
    ``M·c·2^k ≤ budget`` (default :data:`HOST_BLOCK_ELEMENTS`) and
    ``c·2^k ≤ max(2^k, N/2)`` (so short systems keep several rounds).
    ``k = 0`` plans run no window: 1.

    The choice changes no bits — every row sees the same operands in
    the same order at any ``c`` — only how many rows a call covers.
    """
    if k == 0:
        return 1
    g = 1 << k
    cap = max(g, n // 2)
    c = 1
    while m * 2 * c * g <= budget and 2 * c * g <= cap:
        c *= 2
    return c


def build_plan(
    m: int,
    n: int,
    dtype,
    *,
    k: int | None = None,
    fuse: bool = False,
    system: str = "",
) -> SolvePlan:
    """Resolve the transition and sub-tile and freeze a :class:`SolvePlan`.

    Uses the identical :func:`~repro.core.hybrid.choose_transition`
    logic as :class:`~repro.core.hybrid.HybridSolver` under Table III,
    so a plan always encodes exactly the ``k`` the default reference
    solver would have chosen.  The plan runs one window, with Table I's
    ``c`` sized for the host by :func:`host_subtile_scale` from the
    resolved ``k``; the results are bitwise those of
    ``HybridSolver(k=plan.k, fuse=fuse)`` at any window count and ``c``.
    """
    if m < 1 or n < 1:
        raise ValueError(f"need m, n >= 1, got ({m}, {n})")
    if system:
        # banded (penta/block) plans have no PCR front-end: the schedule
        # is always the Thomas-style k = 0 sweep of that stencil.
        if k not in (None, 0):
            raise ValueError(
                f"banded ({system!r}) plans are k = 0 only, got k={k}"
            )
        kk, source = 0, "banded"
    else:
        kk, source = choose_transition(m, n, k=k)
    return SolvePlan(
        m=m,
        n=n,
        dtype=np.dtype(dtype),
        k=kk,
        k_source=source,
        fuse=bool(fuse),
        subtile_scale=host_subtile_scale(m, n, kk),
        system=system,
    )
