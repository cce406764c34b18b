"""Distributed-solve ledgers — slab kernels plus inter-rank traffic.

The distributed backend (:mod:`repro.distributed`) splits one batch of
``N``-row systems into ``P`` contiguous row slabs, eliminates each slab
interior onto its two boundary unknowns, solves the ``2P``-row reduced
interface system on rank 0, and back-substitutes the interiors.  This
module prices that pipeline in the device-model vocabulary so a
:class:`~repro.backends.trace.SolveTrace` can carry predicted
device/link times next to the measured host times:

* **slab kernels** (:func:`slab_eliminate_counters`,
  :func:`slab_backsub_counters`, :func:`reduced_solve_counters`) are
  :class:`~repro.gpusim.counters.KernelCounters` ledgers, priced by the
  usual :class:`~repro.gpusim.timing.GpuTimingModel`.  Each rank
  factors its slab once per coefficient set (the bind half,
  :func:`slab_factor_counters`, priced into the one-time ``staging``
  stage), so a step streams only right-hand sides: the interior's
  RHS-only solve on its
  :data:`~repro.distributed.partition.SLAB_HEURISTIC` route (for
  ``k = 0`` the two ``d`` sweeps, 7 values/row: read ``a``, the pivot
  and ``d``, write ``y``; read ``c'`` and ``y``, write ``y``; for
  ``k > 0`` the stored-level applies plus the reduced p-Thomas), the
  two boundary rows, and the back-substitution's 4 values/row (read
  ``p, q, y``, write ``x``).  At ``k = 0`` that is 11 values per slab
  row against the 7 of a single-device RHS-only Thomas sweep; the
  premium is paid *per rank over 1/P of the rows*, so per-device
  traffic is ``11·N/P`` values: already below the baseline's ``7·N``
  at ``P = 2`` and shrinking with ``P``.
* **link transfers** (:class:`CommCounters` over a :class:`LinkSpec`)
  price what moves between ranks: the reduced-system gather ships six
  ``M``-vectors per non-root rank, the boundary scatter two — both
  ``O(M)``, *independent of N*.  A crossover system size therefore
  exists: beyond it the per-rank row savings outgrow the constant
  interface exchange (``benchmarks/bench_distributed.py`` locates it).

:func:`distributed_plan` assembles the full stage list — parallel ranks
contribute their slowest member, transfers serialize on the link — with
names matching the distributed backend's measured stages so the gpusim
route can pair them positionally.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.distributed.partition import slab_interior_k
from repro.gpusim.counters import KernelCounters
from repro.gpusim.device import DeviceSpec, GTX480
from repro.gpusim.memory import MemoryTraffic, warp_transactions_strided
from repro.gpusim.timing import GpuTimingModel
from repro.kernels.hybrid_gpu import GpuHybridSolver
from repro.kernels.rhs_kernel import rhs_only_counters

__all__ = [
    "PCIE_LINK",
    "CommCounters",
    "LinkSpec",
    "distributed_plan",
    "reduced_solve_counters",
    "slab_backsub_counters",
    "slab_eliminate_counters",
    "slab_factor_counters",
    "slab_rows_for",
]


@dataclass(frozen=True)
class LinkSpec:
    """An inter-rank interconnect priced as latency + bandwidth.

    The α–β model: each message pays a fixed per-message latency
    (``alpha``), payload streams at the link's sustained bandwidth
    (``beta`` = 1/bandwidth).  Good enough to rank transfer stages and
    locate crossovers; not a congestion model.
    """

    name: str = "pcie3"
    bandwidth_gbs: float = 12.0
    latency_us: float = 5.0

    def time_us(self, payload_bytes: int, messages: int = 1) -> float:
        """Transfer time of ``payload_bytes`` split over ``messages``."""
        if payload_bytes < 0 or messages < 0:
            raise ValueError(
                f"need payload_bytes, messages >= 0, got "
                f"{payload_bytes}, {messages}"
            )
        stream_us = payload_bytes / (self.bandwidth_gbs * 1e3)
        return messages * self.latency_us + stream_us


#: default interconnect: PCIe-3-x16-class sustained bandwidth with a
#: small-message latency floor (pinned-memory DMA setup)
PCIE_LINK = LinkSpec()


@dataclass
class CommCounters:
    """What one transfer stage moves between ranks.

    The link-side sibling of :class:`~repro.gpusim.counters
    .KernelCounters`: a named ledger of messages and payload bytes,
    priced by :meth:`time_us` against a :class:`LinkSpec`.
    """

    name: str = "transfer"
    messages: int = 0
    payload_bytes: int = 0
    notes: dict = field(default_factory=dict)

    def add(self, payload_bytes: int, messages: int = 1) -> None:
        self.messages += messages
        self.payload_bytes += payload_bytes

    def time_us(self, link: LinkSpec = PCIE_LINK) -> float:
        return link.time_us(self.payload_bytes, self.messages)


def slab_rows_for(n: int, ranks: int) -> int:
    """Rows of the largest slab when ``n`` splits over ``ranks``.

    Mirrors :func:`repro.distributed.partition.slab_bounds` (near-equal
    contiguous split): the critical-path rank owns ``ceil(n / ranks)``
    rows.
    """
    if n < 1 or ranks < 1:
        raise ValueError(f"need n, ranks >= 1, got {n}, {ranks}")
    return -(-n // ranks)


def _warp_tx(device: DeviceSpec, n_systems: int, dtype_bytes: int) -> int:
    """Transactions for one unit-stride warp access over ``n_systems``."""
    warp = device.warp_size
    tx = warp_transactions_strided(warp, 1, dtype_bytes)
    full_warps, rem = divmod(n_systems, warp)
    rem_tx = (
        warp_transactions_strided(warp, 1, dtype_bytes, active_lanes=rem)
        if rem
        else 0
    )
    return full_warps * tx + rem_tx


def _boundary_rows_counters(
    n_systems: int,
    loads: int,
    stores: int,
    dtype_bytes: int,
    device: DeviceSpec,
    threads_per_block: int,
) -> KernelCounters:
    """Ledger for the two boundary rows of one slab: one thread per
    system, ``loads``/``stores`` coalesced ``M``-vectors."""
    tx = _warp_tx(device, n_systems, dtype_bytes)
    traffic = MemoryTraffic()
    traffic.add_load(loads * n_systems * dtype_bytes, loads * tx)
    traffic.add_store(stores * n_systems * dtype_bytes, stores * tx)
    return KernelCounters(
        name="slab boundary rows",
        eliminations=2 * n_systems,
        traffic=traffic,
        launches=1,
        dependent_steps=1,
        threads=n_systems,
        threads_per_block=min(
            threads_per_block, max(device.warp_size, n_systems)
        ),
        smem_per_block=0,
        regs_per_thread=20,
        mlp=4.0,
    )


def _slab_ledger(name: str, stages: list) -> KernelCounters:
    """``stages`` run back to back, merged into one named ledger."""
    ledger = stages[0]
    for stage in stages[1:]:
        ledger.merge_sequential(stage)
    ledger.name = name
    return ledger


def _check_slab(n_systems: int, slab_rows: int, dtype_bytes: int) -> None:
    if n_systems < 1 or slab_rows < 2:
        raise ValueError(
            f"need n_systems >= 1 and slab_rows >= 2, got "
            f"{n_systems}, {slab_rows}"
        )
    if dtype_bytes not in (4, 8):
        raise ValueError(f"dtype_bytes must be 4 or 8, got {dtype_bytes}")


def slab_eliminate_counters(
    n_systems: int,
    slab_rows: int,
    dtype_bytes: int,
    device: DeviceSpec = GTX480,
    threads_per_block: int = 128,
) -> KernelCounters:
    """Ledger for the step half of one slab's elimination.

    The slab is already factored (:func:`slab_factor_counters`), so a
    step solves the ``L - 2``-row interior RHS-only on the route
    :func:`~repro.distributed.partition.slab_interior_k` picks — the
    :func:`~repro.kernels.rhs_kernel.rhs_only_counters` stages, for
    ``k = 0`` the two ``d`` sweeps — and then forms the two boundary
    right-hand sides: each row reads ``d``, its coupling, the
    neighbouring ``y`` and its pivot and writes its ``rhs``, and the
    four stored coefficient halves are copied into the ``(6, M)``
    reduced rows.  The stages run back to back and are merged into one
    ledger.
    """
    _check_slab(n_systems, slab_rows, dtype_bytes)
    boundary = _boundary_rows_counters(
        n_systems, 2 * 4 + 4, 6, dtype_bytes, device, threads_per_block
    )
    k = slab_interior_k(n_systems, slab_rows)
    interior = []
    if slab_rows > 2:
        interior = rhs_only_counters(
            n_systems, slab_rows - 2, k, dtype_bytes, device=device
        )
    return _slab_ledger(
        f"slab eliminate (RHS-only, k={k})", interior + [boundary]
    )


def slab_factor_counters(
    n_systems: int,
    slab_rows: int,
    dtype_bytes: int,
    device: DeviceSpec = GTX480,
    threads_per_block: int = 128,
) -> KernelCounters:
    """Ledger for the bind half of one slab, run once per coefficient set.

    Factoring the ``L - 2``-row interior costs one unprepared solve on
    its route (the coefficient eliminations, with the first spike
    column as the streamed right-hand side: p-Thomas at ``k = 0``,
    tiled PCR + p-Thomas above) plus an RHS-only solve for the second
    spike column; the two boundary rows then read ``a, b, c`` and the
    spike ends and write their pivots and four coefficient halves.
    """
    _check_slab(n_systems, slab_rows, dtype_bytes)
    boundary = _boundary_rows_counters(
        n_systems, 2 * 5, 6, dtype_bytes, device, threads_per_block
    )
    k = slab_interior_k(n_systems, slab_rows)
    interior = []
    if slab_rows > 2:
        n = slab_rows - 2
        report = GpuHybridSolver(device=device).predict(
            n_systems, n, dtype_bytes, k=k
        )
        interior = [counters for _, counters, _ in report.stages]
        interior += rhs_only_counters(n_systems, n, k, dtype_bytes, device=device)
    return _slab_ledger(f"slab factor (k={k})", interior + [boundary])


def slab_backsub_counters(
    n_systems: int,
    slab_rows: int,
    dtype_bytes: int,
    device: DeviceSpec = GTX480,
    threads_per_block: int = 128,
) -> KernelCounters:
    """Ledger for the interior back-substitution of one slab.

    Once the slab's two boundary values are known, every interior row
    is ``x_i = y_i − p_i·x_first − q_i·x_last`` — fully elementwise
    (no recurrence), reading the three stored streams and the broadcast
    boundary pair, writing ``x`` (4 streamed values/row).
    """
    _check_slab(n_systems, slab_rows, dtype_bytes)

    tx_per_row = _warp_tx(device, n_systems, dtype_bytes)

    def bulk(values_per_row: int, rows: int) -> tuple:
        useful = values_per_row * rows * n_systems * dtype_bytes
        return useful, values_per_row * rows * tx_per_row

    traffic = MemoryTraffic()
    # per interior row: read p, q, y; write x (boundary pair is a
    # register broadcast)
    traffic.add_load(*bulk(3, slab_rows))
    traffic.add_store(*bulk(1, slab_rows))
    # boundary pair: one coalesced load per system
    traffic.add_load(
        2 * n_systems * dtype_bytes, 2 * tx_per_row
    )

    rows_total = n_systems * slab_rows
    return KernelCounters(
        name="slab backsub",
        eliminations=rows_total,
        traffic=traffic,
        launches=1,
        dependent_steps=1,
        threads=rows_total,
        threads_per_block=min(
            threads_per_block, max(device.warp_size, rows_total)
        ),
        smem_per_block=0,
        regs_per_thread=20,
        mlp=8.0,
    )


def reduced_solve_counters(
    n_systems: int,
    ranks: int,
    dtype_bytes: int,
    device: DeviceSpec = GTX480,
) -> KernelCounters:
    """Ledger for the ``2P``-row reduced interface solve on rank 0.

    The interface system is scalar tridiagonal with unit diagonal —
    a plain Thomas sweep over ``M`` interleaved systems of ``2P`` rows.
    Tiny next to the slab work (``O(M·P)`` vs ``O(M·N/P)``) but fully
    serial across ranks: every rank idles while rank 0 runs it.
    """
    from repro.core.layout import Layout
    from repro.kernels.pthomas_kernel import pthomas_counters

    if ranks < 1:
        raise ValueError(f"need ranks >= 1, got {ranks}")
    counters = pthomas_counters(
        n_systems,
        2 * ranks,
        dtype_bytes,
        device=device,
        layout=Layout.INTERLEAVED,
    )
    counters.name = "reduced interface solve"
    return counters


def interface_gather_counters(
    ranks: int, n_systems: int, dtype_bytes: int
) -> CommCounters:
    """Reduced-system gather: six ``M``-vectors from each non-root rank.

    Each slab contributes two boundary equations of three coefficients
    (sub, sup, rhs) per system; rank 0's own rows never cross the link.
    """
    comm = CommCounters(name="interface gather")
    remote = max(0, ranks - 1)
    comm.add(remote * 6 * n_systems * dtype_bytes, messages=remote)
    return comm


def boundary_scatter_counters(
    ranks: int, n_systems: int, dtype_bytes: int
) -> CommCounters:
    """Boundary scatter: the slab-edge solution pair back to each rank."""
    comm = CommCounters(name="boundary scatter")
    remote = max(0, ranks - 1)
    comm.add(remote * 2 * n_systems * dtype_bytes, messages=remote)
    return comm


def staging_counters(
    ranks: int, n_systems: int, n: int, dtype_bytes: int
) -> CommCounters:
    """One-time staging: ship slab coefficients out, solution back.

    Four input diagonals per slab row outbound plus the solved interior
    inbound — ``5·M·N/P`` values per non-root rank.  In a resident
    workload (time-stepping on device-held data) this is amortized
    across many solves, so :func:`distributed_plan` reports it — with
    each rank's bind half (:func:`slab_factor_counters`) — as a
    separate stage rather than folding it into the steady-state total.
    """
    comm = CommCounters(name="staging")
    remote = max(0, ranks - 1)
    rows = slab_rows_for(n, ranks)
    comm.add(remote * 5 * n_systems * rows * dtype_bytes, messages=2 * remote)
    return comm


def distributed_plan(
    m: int,
    n: int,
    ranks: int,
    dtype_bytes: int,
    device: DeviceSpec = GTX480,
    link: LinkSpec = PCIE_LINK,
    include_staging: bool = False,
) -> list:
    """Predicted stage times of a ``P``-rank distributed solve.

    Returns ``(name, predicted_us)`` pairs whose names match the
    distributed backend's measured stages (``partition``,
    ``local-eliminate [P ranks]``, ``reduced-solve``,
    ``backsub [P ranks]``, ``comms``) so the two ledgers pair
    positionally in a trace.  Ranks are modelled as identical devices
    running concurrently — a parallel stage costs its largest slab —
    while every transfer serializes on the shared link.  The five
    stages price one step of factored slabs; ``include_staging`` adds
    the one-time coefficient shipping and bind half.
    """
    if m < 1 or n < 2 * ranks or ranks < 1:
        raise ValueError(
            f"need m >= 1, ranks >= 1, n >= 2*ranks, got "
            f"({m}, {n}, {ranks})"
        )
    model = GpuTimingModel(device)
    rows = slab_rows_for(n, ranks)

    def kernel_us(counters: KernelCounters) -> float:
        return model.time(counters, dtype_bytes).total_s * 1e6

    eliminate_us = kernel_us(
        slab_eliminate_counters(m, rows, dtype_bytes, device=device)
    )
    reduced_us = kernel_us(
        reduced_solve_counters(m, ranks, dtype_bytes, device=device)
    )
    backsub_us = kernel_us(
        slab_backsub_counters(m, rows, dtype_bytes, device=device)
    )
    comms_us = (
        interface_gather_counters(ranks, m, dtype_bytes).time_us(link)
        + boundary_scatter_counters(ranks, m, dtype_bytes).time_us(link)
    )

    plan = [
        ("partition", 0.0),
        (f"local-eliminate [{ranks} ranks]", eliminate_us),
        ("reduced-solve", reduced_us),
        (f"backsub [{ranks} ranks]", backsub_us),
        ("comms", comms_us),
    ]
    if include_staging:
        plan.append(
            (
                "staging (one-time)",
                staging_counters(ranks, m, n, dtype_bytes).time_us(link)
                + kernel_us(
                    slab_factor_counters(m, rows, dtype_bytes, device=device)
                ),
            )
        )
    return plan
