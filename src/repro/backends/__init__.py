"""Unified backend dispatch: one protocol behind every execution path.

The repo's four execution strategies — the single-call reference
solver, the plan-caching engine, the simulated-GPU solver, and the
N-partitioned distributed solver — stand behind one two-method
:class:`Backend` protocol (``capabilities()`` + ``execute(request)``)
and one registry that negotiates a :class:`SolveRequest` against
capabilities — plain, prepared, and periodic solves are all the same
request shape:

>>> import numpy as np
>>> import repro
>>> from repro.backends import list_backends
>>> sorted(name for name, _ in list_backends())
['distributed', 'engine', 'gpusim', 'numpy']
>>> rng = np.random.default_rng(0)
>>> a = rng.standard_normal((4, 64)); a[:, 0] = 0
>>> c = rng.standard_normal((4, 64)); c[:, -1] = 0
>>> b = 4 + np.abs(a) + np.abs(c); d = rng.standard_normal((4, 64))
>>> x = repro.solve_batch(a, b, c, d, backend="auto")
>>> repro.last_trace().backend
'engine'

Every solve that passes through the registry records a
:class:`SolveTrace` (chosen backend, frozen ``k``, plan-cache hit/miss,
per-stage wall time — with the gpusim backend's predicted device time
side by side); the most recent one is ``repro.last_trace()``.

Layering: ``workloads → api / solver → registry (+ router) → backends
→ core / engine / gpusim`` — see ``docs/ARCHITECTURE.md``.  New
execution strategies (numba, cupy, distributed…) implement the
protocol and call :func:`register_backend`; no other layer changes.
"""

from repro.backends.base import (
    Backend,
    BackendBase,
    Capabilities,
    CyclicSession,
    PerStepSession,
)
from repro.backends.engine_backend import EngineBackend
from repro.backends.gpusim_backend import GpuSimBackend
from repro.backends.numpy_ref import NumpyReferenceBackend, reference_solver
from repro.backends.registry import (
    BackendError,
    BackendRegistry,
    Router,
    bind_via,
    default_registry,
    get_backend,
    list_backends,
    register_backend,
    solve_via,
)
from repro.backends.request import (
    OPTION_NAMES,
    SYSTEM_KINDS,
    SolveOutcome,
    SolveRequest,
    SystemDescriptor,
    block_system,
)
from repro.backends.trace import (
    RouteDecision,
    SolveTrace,
    StageTiming,
    clear_last_trace,
    last_trace,
    record_trace,
)

__all__ = [
    "Backend",
    "BackendBase",
    "BackendError",
    "BackendRegistry",
    "Capabilities",
    "CyclicSession",
    "EngineBackend",
    "GpuSimBackend",
    "NumpyReferenceBackend",
    "OPTION_NAMES",
    "PerStepSession",
    "RouteDecision",
    "Router",
    "bind_via",
    "SYSTEM_KINDS",
    "SolveOutcome",
    "SolveRequest",
    "SolveTrace",
    "StageTiming",
    "SystemDescriptor",
    "block_system",
    "clear_last_trace",
    "default_registry",
    "get_backend",
    "last_trace",
    "list_backends",
    "record_trace",
    "reference_solver",
    "register_backend",
    "solve_via",
]
