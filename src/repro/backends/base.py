"""The :class:`Backend` protocol and the vocabulary it speaks.

A *backend* is one way of executing a tridiagonal batch solve.  The
repo grew them organically — the single-call reference solver, the
plan-caching engine, the simulated-GPU solver, and the N-partitioned
distributed solver — and for a while each solve flavour (plain,
prepared, periodic) had its own protocol method.  The protocol is now
two methods around one request shape:

``capabilities()``
    What the backend can negotiate: dtypes, periodic systems, rank
    counts, prepared execution, system kinds, whether its timing is
    simulated.
``execute(request)``
    Run one :class:`~repro.backends.request.SolveRequest` — plain,
    prepared (``rhs_only``), or cyclic (``periodic``) — and return a
    :class:`~repro.backends.request.SolveOutcome` carrying the
    solution and its :class:`~repro.backends.trace.SolveTrace`.

``instrument()`` (supplied by :class:`BackendBase`) still exposes the
most recent trace per thread for callers that hold a backend directly.

The registry (:mod:`repro.backends.registry`) negotiates capabilities
against a request and routes; adding another backend (numba,
cupy…) means implementing this protocol and registering it — no new
dispatch code anywhere else.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Protocol, runtime_checkable

from repro.backends.request import SolveOutcome, SolveRequest
from repro.backends.trace import SolveTrace, StageTiming, record_trace
from repro.core.periodic import (
    apply_cyclic_correction,
    correction_denominator,
    correction_scale,
    cyclic_reduce,
)
from repro.engine.session import Session

__all__ = [
    "Backend",
    "BackendBase",
    "Capabilities",
    "CyclicSession",
    "PerStepSession",
    "SolveOutcome",
    "SolveRequest",
    "bind_backend",
]

#: dtype names every NumPy-backed solver in this repo accepts.
FLOAT_DTYPES = ("float32", "float64")


@dataclass(frozen=True)
class Capabilities:
    """What one backend supports — the registry negotiates against this.

    Attributes
    ----------
    dtypes:
        Canonical dtype names (``"float64"``…) the backend accepts.
    periodic:
        Whether the backend may serve cyclic (Sherman–Morrison)
        requests.
    max_ranks:
        Largest useful ``ranks=`` value — the N-axis partition count of
        the distributed tier (1 = cannot partition; requests with
        ``ranks > 1`` negotiate only against multi-rank backends).
    simulated:
        True when the backend's timing report is a device-model
        prediction rather than a measurement.
    prepared:
        Whether the backend serves prepared (fingerprinted /
        factorization-cached, RHS-only) solves.  Requests with
        ``fingerprint=True`` or ``rhs_only=True`` negotiate only
        against prepared-capable backends.
    systems:
        System kinds the backend can execute — entries of
        :data:`~repro.backends.request.SYSTEM_KINDS`.  Defaults to
        tridiagonal only, so backends ignorant of the descriptor axis
        are automatically rejected for penta/block requests instead of
        mis-executing them.
    description:
        One-line summary for ``repro backends`` listings.
    """

    dtypes: tuple = FLOAT_DTYPES
    periodic: bool = True
    max_ranks: int = 1
    simulated: bool = False
    prepared: bool = False
    systems: tuple = ("tridiagonal",)
    description: str = ""


@runtime_checkable
class Backend(Protocol):
    """The one dispatch seam every execution strategy stands behind."""

    name: str
    priority: int

    def capabilities(self) -> Capabilities:
        """Static description of what this backend can negotiate."""
        ...

    def execute(self, request: SolveRequest) -> SolveOutcome:
        """Run one request (plain / prepared / periodic) end to end."""
        ...


class PerStepSession(Session):
    """Generic bound-solve session: full dispatch on every step.

    The fallback ``bind()`` result for backends with no native session
    support (the numpy reference and gpusim, periodic requests
    included): the request is frozen once, and each step re-dispatches
    it through the backend's ``execute`` with a fresh right-hand side.
    No per-step work is saved — the value is *API parity*: it keeps
    the whole :class:`~repro.engine.session.Session` contract (the
    input scan and its ``ValueError`` on a wrongly shaped ``d``,
    session-owned ``out``/``out_t`` buffers reused across steps,
    ``m``/``n``/``dtype``), so callers write one time-stepping loop
    against any backend.
    """

    mode = "dispatch"

    def __init__(self, backend, request: SolveRequest):
        super().__init__(request)
        self.backend = backend

    def _dispatch(self, d, out) -> SolveOutcome:
        request = self.request.replace(d=d, out=out)
        outcome = self.backend.execute(request)
        if outcome.trace is not None and outcome.trace.decision is None:
            # bind-time provenance rides on every step's trace
            outcome.trace.decision = request.decision
        return outcome

    def step_once(self, d=None, out=None) -> SolveOutcome:
        """One full instrumented dispatch (stats, trace, outcome)."""
        if self.closed:
            raise RuntimeError("session is closed")
        outcome = self._dispatch(*self._once_args(d, out))
        self.steps += 1
        return outcome

    def _step(self, d, out) -> None:
        x = self._dispatch(d, out).x
        if x is not out:
            out[...] = x

    def describe(self) -> dict:
        """Session summary: the common keys and the backend."""
        return {
            **super().describe(),
            "backend": getattr(self.backend, "name", "?"),
        }


def _prefixed(prefix: str, stages) -> list:
    """Copies of ``stages`` renamed ``prefix + name``, predictions kept."""
    return [StageTiming(prefix + s.name, s.seconds, s.predicted_us) for s in stages]


class CyclicSession(Session):
    """Bound Sherman–Morrison session over a backend's plain session.

    The cyclic route of backends with no native one (numpy, the
    distributed ranks, gpusim's ranks pricing).  Bind corner-reduces
    the coefficients once (:func:`~repro.core.periodic.cyclic_reduce`),
    binds the strictly tridiagonal ``A'`` on the same backend through
    :func:`bind_backend` and solves the correction column ``A' q = u``
    there once, so a singular correction raises
    :class:`~repro.core.periodic.CyclicSingularError` at bind under
    ``check``.  Each step is then one inner step ``A' y = d`` plus the
    rank-one correction: a ranks session ships and factors ``A'`` once.
    A one-shot periodic ``execute`` is a transient ``CyclicSession``
    and one :meth:`step_once`, as ``ExecutionEngine.run`` is for the
    engine.
    """

    mode = "cyclic"

    def __init__(self, backend, request: SolveRequest):
        super().__init__(request)
        self.backend = backend
        t0 = time.perf_counter()
        ap, bp, cp, u, self._w = cyclic_reduce(
            request.a, request.b, request.c, check=request.check
        )
        reduce = StageTiming("cyclic-reduce", time.perf_counter() - t0)
        self.inner = bind_backend(
            backend,
            request.replace(
                a=ap, b=bp, c=cp, periodic=False, fingerprint=False, out=None
            ),
        )
        q_solve = self.inner.step_once(u)
        self._q = q_solve.x
        self._scale = correction_scale(
            correction_denominator(self._q, self._w),
            request.n,
            check=request.check,
        )
        self._bind_stages = [reduce, *_prefixed("cyclic-q:", q_solve.trace.stages)]

    def _correct(self, y, out):
        return apply_cyclic_correction(y, self._q, self._w, self._scale, out=out)

    def step_once(self, d=None, out=None) -> SolveOutcome:
        """One instrumented step: the inner y-step's trace, marked
        periodic, behind the bind's reduction and q-solve stages."""
        if self.closed:
            raise RuntimeError("session is closed")
        d, out = self._once_args(d, out)
        y = self.inner.step_once(d)
        t0 = time.perf_counter()
        x = self._correct(y.x, out)
        correction = StageTiming("cyclic-correction", time.perf_counter() - t0)
        trace = y.trace
        trace.periodic = True
        trace.stages = [
            *self._bind_stages, *_prefixed("cyclic-y:", trace.stages), correction
        ]
        self.steps += 1
        return SolveOutcome(x=x, trace=trace)

    def _step(self, d, out) -> None:
        self._correct(self.inner.step(d), out)

    def _step_t(self, dt, out_t) -> None:
        """Through the inner ``step_t`` (transposed-native on the
        ranks); the row-wise correction reads transpose views."""
        self._correct(self.inner.step_t(dt).T, out_t.T)

    def describe(self) -> dict:
        """Session summary: the common keys, backend and inner mode."""
        return {
            **super().describe(),
            "backend": getattr(self.backend, "name", "?"),
            "inner": self.inner.describe()["mode"],
        }

    def _release(self) -> None:
        """Close the inner ``A'`` session."""
        self.inner.close()


def bind_backend(backend, request: SolveRequest):
    """``backend``'s native session for ``request``, else the generic
    :class:`PerStepSession` (``bind`` is optional on the protocol)."""
    binder = getattr(backend, "bind", None)
    if binder is not None:
        return binder(request)
    return PerStepSession(backend, request)


class BackendBase:
    """Shared plumbing for concrete backends.

    Subclasses implement :meth:`capabilities` and :meth:`execute`, and
    store their trace with :meth:`_set_trace`; this base supplies
    thread-local trace storage, the :meth:`instrument` accessor, the
    generic per-step :meth:`bind` (the engine and the distributed ranks
    override it with native sessions), and the :meth:`solve_batch`
    convenience wrapper (validate → build request → execute → record
    trace) used by standalone callers such as benchmarks.  Backends
    with no native cyclic pipeline serve periodic requests through a
    transient :class:`CyclicSession`.

    ``bind`` is deliberately **not** part of the
    :class:`Backend` protocol — the protocol is runtime-checkable and
    third-party backends implementing just ``capabilities``/``execute``
    must keep passing ``isinstance`` checks.  Callers go through
    :func:`bind_backend`, which falls back to :class:`PerStepSession`.
    """

    name = "base"
    priority = 0

    def __init__(self):
        self._traces = threading.local()

    # -- instrumentation ----------------------------------------------
    def _set_trace(self, trace: SolveTrace) -> SolveTrace:
        self._traces.trace = trace
        return trace

    def instrument(self) -> SolveTrace:
        trace = getattr(self._traces, "trace", None)
        if trace is None:
            raise RuntimeError(
                f"backend {self.name!r} has not executed on this thread yet"
            )
        return trace

    # -- bind/execute split --------------------------------------------
    def bind(self, request: SolveRequest) -> PerStepSession:
        """Bind ``request`` into a reusable per-step session.

        The generic fallback re-dispatches the full ``execute`` every
        step; backends with real bind-time savings (plan resolution,
        factorization fetch, workspace binding) override this to return
        a native session.
        """
        return PerStepSession(self, request)

    # -- convenience entry point --------------------------------------
    def solve_batch(self, a, b, c, d, *, check: bool = True, out=None, **opts):
        """One-call solve through this backend (bypasses the router)."""
        request = SolveRequest.build(
            a, b, c, d, check=check, out=out, **opts
        )
        outcome = self.execute(request)
        record_trace(outcome.trace)
        return outcome.x
