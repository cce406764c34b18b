"""Backend registry, capability negotiation, and the routing policy.

The paper's runtime picks an execution strategy per problem shape
(Table III); :class:`Router` generalizes that idea one level up — a
deterministic, pluggable policy choosing *which backend* serves a
:class:`~repro.backends.request.SolveRequest`, after the registry has
filtered the candidates by capability (dtype, periodic, system
kind, ranks, prepared).

Resolution is fully deterministic:

1. An explicit ``backend="name"`` must support the request or a
   :class:`BackendError` explains exactly why it cannot.
2. ``backend="auto"`` filters registered backends by capability, then
   asks the router.  The default policy routes ``ranks > 1`` solves to
   the multi-rank tier and everything else to the highest-priority
   capable backend (ties broken by name) — so the plan-caching engine
   wins unless something better registers itself.

:func:`solve_via` is the single dispatch seam every public entry path
(``repro.solve_batch``, ``solve_periodic_batch``, ``api.gtsv*``, the
CLI, the examples) goes through: build the request (the one
validation) → negotiate → ``execute(request)`` → trace.  Cyclic solves
are the same seam with ``periodic=True`` — there is no separate
periodic protocol anymore.
"""

from __future__ import annotations

import threading
import time

import numpy as np

from repro.backends.base import Backend, Capabilities, bind_backend
from repro.backends.request import SolveRequest
from repro.backends.trace import (
    RouteDecision,
    SolveTrace,
    StageTiming,
    record_trace,
)

__all__ = [
    "BackendError",
    "BackendRegistry",
    "Router",
    "bind_via",
    "default_registry",
    "get_backend",
    "list_backends",
    "register_backend",
    "solve_via",
]


class BackendError(ValueError):
    """A backend could not be resolved for a solve request."""


def reject_reason(caps: Capabilities, request: SolveRequest) -> str | None:
    """Why ``caps`` cannot serve ``request`` (``None`` = it can)."""
    if request.dtype not in caps.dtypes:
        return (
            f"dtype {request.dtype} unsupported (supports: "
            f"{', '.join(caps.dtypes)})"
        )
    if request.periodic and not caps.periodic:
        return "periodic systems unsupported"
    kind = request.system.kind
    if kind not in caps.systems:
        return (
            f"{kind} systems unsupported (supports: "
            f"{', '.join(caps.systems)})"
        )
    if (
        request.ranks is not None
        and request.ranks > 1
        and caps.max_ranks <= 1
    ):
        return f"ranks={request.ranks} unsupported (single-rank backend)"
    if (request.fingerprint is True or request.rhs_only) and not caps.prepared:
        return "prepared (fingerprinted) execution unsupported"
    return None


class Router:
    """Deterministic backend-selection policy (pluggable).

    ``rules`` is an ordered tuple of callables ``rule(request) ->
    str | None``; the first rule naming a *capable* backend wins.  When
    no rule fires, the capable backend with the highest ``priority``
    (ties broken alphabetically) is chosen — the same
    piecewise-deterministic shape as the paper's Table III, lifted from
    "which k" to "which backend".

    ``select`` also stamps :class:`~repro.backends.trace.RouteDecision`
    provenance onto the request (which policy chose, from what
    candidates, and why); subclasses — notably
    :class:`repro.autotune.AdaptiveRouter` — may additionally refine
    request knobs the caller left unset (``k``, ``ranks``,
    ``fingerprint``) before execution.
    """

    #: provenance tag recorded in :class:`RouteDecision.router`
    kind = "static"

    def __init__(self, rules: tuple = ()):
        self.rules = tuple(rules) if rules else (self.route_ranks,)

    @staticmethod
    def route_ranks(request: SolveRequest) -> str | None:
        """N-partitioning requested → the distributed tier."""
        if request.ranks is not None and request.ranks > 1:
            return "distributed"
        return None

    def select(self, request: SolveRequest, candidates: list) -> Backend:
        """Pick one backend from capability-filtered ``candidates``."""
        if not candidates:
            raise BackendError("no candidate backends")
        by_name = {b.name: b for b in candidates}
        names = tuple(b.name for b in candidates)
        for rule in self.rules:
            name = rule(request)
            if name is not None and name in by_name:
                request.decision = RouteDecision(
                    router=self.kind,
                    chosen=name,
                    candidates=names,
                    reason=f"rule {getattr(rule, '__name__', 'rule')}",
                )
                return by_name[name]
        chosen = max(candidates, key=lambda b: (b.priority, b.name))
        request.decision = RouteDecision(
            router=self.kind,
            chosen=chosen.name,
            candidates=names,
            reason="highest-priority capable backend",
        )
        return chosen


class BackendRegistry:
    """Named backends + the router that arbitrates between them."""

    def __init__(self, router: Router | None = None):
        self._lock = threading.Lock()
        self._backends: dict = {}
        self.router = router if router is not None else Router()

    # -- registration --------------------------------------------------
    def register(self, backend: Backend, *, replace: bool = False) -> Backend:
        """Add ``backend`` under ``backend.name``."""
        name = backend.name
        with self._lock:
            if name in self._backends and not replace:
                raise BackendError(
                    f"backend {name!r} already registered "
                    "(pass replace=True to override)"
                )
            self._backends[name] = backend
        return backend

    def unregister(self, name: str) -> None:
        """Remove a backend (missing names are ignored)."""
        with self._lock:
            self._backends.pop(name, None)

    def get(self, name: str) -> Backend:
        """Look up a backend by name."""
        with self._lock:
            backend = self._backends.get(name)
        if backend is None:
            raise BackendError(
                f"unknown backend {name!r}; registered: {self.names()}"
            )
        return backend

    def names(self) -> list:
        """Registered names, sorted."""
        with self._lock:
            return sorted(self._backends)

    def backends(self) -> list:
        """Registered backends, highest priority first (stable order)."""
        with self._lock:
            values = list(self._backends.values())
        return sorted(values, key=lambda b: (-b.priority, b.name))

    # -- negotiation ----------------------------------------------------
    def capable(self, request: SolveRequest) -> list:
        """Backends whose capabilities cover ``request`` (priority order)."""
        return [
            b for b in self.backends()
            if reject_reason(b.capabilities(), request) is None
        ]

    def resolve(self, name: str, request: SolveRequest) -> Backend:
        """Resolve ``"auto"`` or an explicit name against ``request``."""
        if name != "auto":
            backend = self.get(name)
            reason = reject_reason(backend.capabilities(), request)
            if reason is not None:
                raise BackendError(
                    f"backend {name!r} cannot solve this problem: {reason}"
                )
            request.decision = RouteDecision(
                router="explicit",
                chosen=name,
                candidates=(name,),
                reason="caller named the backend",
            )
            return backend
        candidates = self.capable(request)
        if not candidates:
            reasons = "; ".join(
                f"{b.name}: {reject_reason(b.capabilities(), request)}"
                for b in self.backends()
            )
            raise BackendError(
                f"no registered backend supports this solve ({reasons})"
            )
        return self.router.select(request, candidates)


_default_registry: BackendRegistry | None = None
_registry_lock = threading.Lock()


def default_registry() -> BackendRegistry:
    """The process-wide registry, populated with the stock backends."""
    global _default_registry
    if _default_registry is None:
        with _registry_lock:
            if _default_registry is None:
                reg = BackendRegistry()
                _populate(reg)
                _default_registry = reg
    return _default_registry


def _populate(reg: BackendRegistry) -> None:
    from repro.backends.engine_backend import EngineBackend
    from repro.backends.gpusim_backend import GpuSimBackend
    from repro.backends.numpy_ref import NumpyReferenceBackend
    from repro.distributed.backend import DistributedBackend

    reg.register(EngineBackend())
    reg.register(NumpyReferenceBackend())
    reg.register(GpuSimBackend())
    reg.register(DistributedBackend())


def register_backend(backend: Backend, *, replace: bool = False) -> Backend:
    """Register ``backend`` with the process-wide registry."""
    return default_registry().register(backend, replace=replace)


def get_backend(name: str) -> Backend:
    """Fetch a backend from the process-wide registry by name."""
    return default_registry().get(name)


def list_backends() -> list:
    """``(name, Capabilities)`` pairs, highest priority first."""
    return [(b.name, b.capabilities()) for b in default_registry().backends()]


def solve_via(
    a,
    b,
    c,
    d,
    *,
    backend: str = "auto",
    periodic: bool = False,
    check: bool = True,
    out=None,
    registry: BackendRegistry | None = None,
    **opts,
):
    """Dispatch one batch solve (plain or cyclic) through the registry.

    Returns ``(x, trace)``.  Inputs are raw: :meth:`SolveRequest.build`
    checks them (``check=True``) or merely coerces them, and the
    trace's ``validate`` stage times that.  ``periodic=True`` makes
    this a cyclic solve: the request carries corners in ``a[:, 0]`` /
    ``c[:, -1]``, negotiation actually exercises
    ``Capabilities.periodic``, and the chosen backend runs the whole
    Sherman–Morrison pipeline inside its one ``execute``.  Remaining
    keywords are the :data:`~repro.backends.request.OPTION_NAMES`
    options (``k``, ``fuse``, ``n_windows``, ``subtile_scale``,
    ``parallelism``, ``heuristic``, ``fingerprint``, ``rtol``,
    ``ranks``).
    """
    reg = registry if registry is not None else default_registry()
    t0 = time.perf_counter()
    request = SolveRequest.build(
        a, b, c, d,
        periodic=periodic, check=check, out=out, **opts
    )
    t_validate = time.perf_counter() - t0

    chosen = reg.resolve(backend, request)
    outcome = chosen.execute(request)

    trace = outcome.trace
    if trace.decision is None:
        trace.decision = request.decision
    trace.stages = [StageTiming("validate", t_validate), *trace.stages]
    record_trace(trace)
    observe = getattr(reg.router, "observe", None)
    if observe is not None:
        observe(request, trace)
    return outcome.x, trace


def bind_via(
    a,
    b,
    c,
    d,
    *,
    backend: str = "auto",
    periodic: bool = False,
    check: bool = True,
    registry: BackendRegistry | None = None,
    **opts,
):
    """Bind one solve into a reusable session through the registry.

    The session-tier sibling of :func:`solve_via`: build (and
    validate) the request → negotiate (the router's
    :class:`~repro.backends.trace.RouteDecision` is pinned on the
    request, so every step the session takes carries the same
    provenance) → ``bind``.  Backends with a native bind return their
    own session (the engine a :class:`~repro.engine.session.BoundSolve`,
    the distributed ranks a
    :class:`~repro.distributed.backend.DistributedBoundSolve`, or a
    :class:`~repro.backends.base.CyclicSession` around one for periodic
    systems); others fall back to a generic
    :class:`~repro.backends.base.PerStepSession`.  ``d`` is the
    template right-hand side — it fixes the shape/dtype the session is
    bound for (and is the default argument of ``step_once()``).

    Time-stepping loops then run ``session.step(d)`` per right-hand
    side — allocation-free on native sessions — and ``close()`` when
    done.
    """
    reg = registry if registry is not None else default_registry()
    request = SolveRequest.build(a, b, c, d, periodic=periodic, check=check, **opts)
    return bind_backend(reg.resolve(backend, request), request)


def record_direct_trace(algorithm: str, b, seconds: float) -> SolveTrace:
    """Record a trace for the classic non-hybrid algorithm paths.

    The direct Thomas/CR/PCR/RD paths bypass the registry (they have
    no plan to negotiate), but instrumentation still covers them so
    ``repro.last_trace()`` reflects *every* solve.
    """
    b = np.asarray(b)
    m, n = b.shape
    return record_trace(
        SolveTrace(
            backend=f"direct:{algorithm}",
            m=m,
            n=n,
            dtype=np.dtype(b.dtype).name,
            k=0,
            k_source="n/a",
            stages=[StageTiming("execute", seconds)],
        )
    )
