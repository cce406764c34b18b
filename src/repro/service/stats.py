"""Service-tier observability: per-tenant counters, latency, traces.

Every request admitted by :class:`~repro.service.service.SolveService`
is attributed to a *tenant* (an arbitrary caller-chosen string, default
``"default"``).  The service records, per tenant and in aggregate:

* admission counters — submitted / delivered / shed requests and rows;
* end-to-end latency (submit → result delivered) in a bounded ring
  reservoir, so p50/p99 stay O(1)-memory under sustained traffic;
* the most recent aggregate :class:`~repro.backends.trace.SolveTrace`
  each tenant's requests rode in on — the service-tier sibling of
  :func:`repro.last_trace`, reachable via
  :meth:`SolveService.last_trace <repro.service.service.SolveService.last_trace>`;
* which backends executed the coalesced batches, how large those
  batches were, what flushed them, and how many timer windows were
  held open behind the partial window in flight.

``repro serve-stats`` renders :meth:`ServiceStats.describe` as a table.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field

__all__ = ["LatencyReservoir", "ServiceStats", "TenantStats"]


class LatencyReservoir:
    """Bounded ring of latency samples with percentile queries.

    Keeps the most recent ``cap`` samples (overwriting the oldest), plus
    running count/total/max over *all* samples ever added — percentiles
    reflect recent behaviour, throughput totals reflect everything.
    """

    __slots__ = ("cap", "samples", "count", "total", "peak")

    def __init__(self, cap: int = 4096):
        if cap < 1:
            raise ValueError(f"reservoir cap must be >= 1, got {cap}")
        self.cap = cap
        self.samples: list = []
        self.count = 0
        self.total = 0.0
        self.peak = 0.0

    def add(self, seconds: float) -> None:
        """Record one end-to-end latency sample."""
        if len(self.samples) < self.cap:
            self.samples.append(seconds)
        else:
            self.samples[self.count % self.cap] = seconds
        self.count += 1
        self.total += seconds
        if seconds > self.peak:
            self.peak = seconds

    def percentile(self, q: float) -> float:
        """The ``q``-th percentile (0–100) over the retained window."""
        if not self.samples:
            return 0.0
        ordered = sorted(self.samples)
        rank = (q / 100.0) * (len(ordered) - 1)
        lo = math.floor(rank)
        hi = math.ceil(rank)
        if lo == hi:
            return ordered[lo]
        frac = rank - lo
        return ordered[lo] * (1.0 - frac) + ordered[hi] * frac

    @property
    def mean(self) -> float:
        """Mean over all samples ever added."""
        return self.total / self.count if self.count else 0.0


@dataclass
class TenantStats:
    """One tenant's ledger (also used for the all-tenants aggregate)."""

    tenant: str = "default"
    submitted: int = 0        #: requests admitted past the queue bound
    delivered: int = 0        #: requests whose result reached the caller
    shed: int = 0             #: requests rejected with ServiceOverloaded
    failed: int = 0           #: requests that raised during dispatch
    rows: int = 0             #: batch rows (M) admitted
    batches: int = 0          #: coalesced dispatches participated in
    latency: LatencyReservoir = field(default_factory=LatencyReservoir)
    backends: dict = field(default_factory=dict)  #: backend name -> count
    last_trace: object = None  #: aggregate SolveTrace of the last batch

    def describe(self) -> dict:
        """Flat summary dict (the ``serve-stats`` row for this tenant)."""
        return {
            "tenant": self.tenant,
            "submitted": self.submitted,
            "delivered": self.delivered,
            "shed": self.shed,
            "failed": self.failed,
            "rows": self.rows,
            "batches": self.batches,
            "latency_ms": {
                "p50": self.latency.percentile(50.0) * 1e3,
                "p99": self.latency.percentile(99.0) * 1e3,
                "mean": self.latency.mean * 1e3,
                "max": self.latency.peak * 1e3,
            },
            "backends": dict(self.backends),
            "last_trace": (
                self.last_trace.describe()
                if self.last_trace is not None
                else None
            ),
        }


class ServiceStats:
    """Thread-safe service-wide ledger: per-tenant + dispatch counters.

    Mutated from the event loop (admission, delivery) *and* the dispatch
    executor threads (batch completion), so every update takes the lock.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._tenants: dict = {}
        self.dispatches = 0        #: coalesced batches executed
        self.dispatched_rows = 0   #: total rows across those batches
        self.max_batch_rows = 0    #: largest coalesced batch seen
        self.size_flushes = 0      #: flushes triggered by the batch cap
        self.timer_flushes = 0     #: flushes triggered by the wait window
        self.solo_flushes = 0      #: ungroupable requests passed through
        self.close_flushes = 0     #: flushes triggered by close()/drain()
        self.held_windows = 0      #: timer windows that waited for a partial one
        self.shared_factorizations = 0  #: digest-tiled RHS-only dispatches

    def tenant(self, name: str) -> TenantStats:
        """The (created-on-demand) ledger for ``name``."""
        with self._lock:
            stats = self._tenants.get(name)
            if stats is None:
                stats = self._tenants[name] = TenantStats(tenant=name)
            return stats

    def tenants(self) -> list:
        """Tenant ledgers, sorted by name."""
        with self._lock:
            return [self._tenants[k] for k in sorted(self._tenants)]

    # -- recording (all called with concrete deltas, lock inside) ------
    def record_admitted(self, tenant: str, rows: int) -> None:
        with self._lock:
            t = self._tenant_locked(tenant)
            t.submitted += 1
            t.rows += rows

    def record_shed(self, tenant: str) -> None:
        with self._lock:
            self._tenant_locked(tenant).shed += 1

    def record_held(self) -> None:
        with self._lock:
            self.held_windows += 1

    def record_failed(self, tenant: str) -> None:
        with self._lock:
            self._tenant_locked(tenant).failed += 1

    def record_delivered(self, tenant: str, seconds: float) -> None:
        with self._lock:
            t = self._tenant_locked(tenant)
            t.delivered += 1
            t.latency.add(seconds)

    def record_flush(self, cause: str) -> None:
        """Count one window leaving its group, by what flushed it."""
        with self._lock:
            if cause == "size":
                self.size_flushes += 1
            elif cause == "timer":
                self.timer_flushes += 1
            elif cause == "solo":
                self.solo_flushes += 1
            else:
                self.close_flushes += 1

    def record_dispatch(
        self,
        tenants,
        rows: int,
        trace,
        *,
        shared: bool = False,
    ) -> None:
        """Account one coalesced dispatch to every participating tenant
        (a window split by digest makes one dispatch per part)."""
        backend = getattr(trace, "backend", None)
        with self._lock:
            self.dispatches += 1
            self.dispatched_rows += rows
            if rows > self.max_batch_rows:
                self.max_batch_rows = rows
            if shared:
                self.shared_factorizations += 1
            for name in tenants:
                t = self._tenant_locked(name)
                t.batches += 1
                t.last_trace = trace
                if backend is not None:
                    t.backends[backend] = t.backends.get(backend, 0) + 1

    def _tenant_locked(self, name: str) -> TenantStats:
        stats = self._tenants.get(name)
        if stats is None:
            stats = self._tenants[name] = TenantStats(tenant=name)
        return stats

    # -- reporting ------------------------------------------------------
    @property
    def mean_batch_rows(self) -> float:
        """Average coalesced batch size (rows per dispatch)."""
        return (
            self.dispatched_rows / self.dispatches if self.dispatches else 0.0
        )

    def describe(self) -> dict:
        """Service-wide summary: dispatch counters + per-tenant rows."""
        with self._lock:
            tenants = [self._tenants[k] for k in sorted(self._tenants)]
            return {
                "dispatches": self.dispatches,
                "dispatched_rows": self.dispatched_rows,
                "mean_batch_rows": self.mean_batch_rows,
                "max_batch_rows": self.max_batch_rows,
                "flushes": {
                    "size": self.size_flushes,
                    "timer": self.timer_flushes,
                    "solo": self.solo_flushes,
                    "close": self.close_flushes,
                },
                "held_windows": self.held_windows,
                "shared_factorizations": self.shared_factorizations,
                "tenants": [t.describe() for t in tenants],
            }
