"""Spans around calls into each layer, recorded from outside the library.

The suite never edits ``src/``.  :class:`Tracer` swaps a timing wrapper
onto each callable in :data:`WRAPPED` — class attributes and module
globals that the library looks up on every call — records one span per
call on a per-thread stack, and restores the originals on exit.

A span's *self time* is its duration minus the time its child spans
cover; it is charged to the span's layer.  The suite opens a root span
around every measured op (:meth:`Tracer.op`), so on the op's thread the
self times of all layers add up to the op's wall time.  Spans that start
with no open root (the service's dispatch threads, its event loop) are
charged under the ``"background"`` kind.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import threading
import time
from collections import defaultdict

__all__ = ["LAYERS", "WRAPPED", "Tracer", "span_label"]

#: ``(module, attribute, layer)``.  ``"Class.method"`` patches a class
#: attribute; a bare name patches a module global where it is called.
#: Private names appear only where the library has no public seam at
#: that boundary (the engine's transposed Thomas kernel, the service's
#: per-window dispatch).
WRAPPED = (
    ("repro.backends.request", "SolveRequest.build", "backends.validate"),
    ("repro.backends.engine_backend", "EngineBackend.execute", "backends.dispatch"),
    ("repro.engine.engine", "ExecutionEngine.run", "backends.dispatch"),
    ("repro.backends.engine_backend", "EngineBackend.bind", "engine.bind"),
    ("repro.engine.engine", "ExecutionEngine.bind", "engine.bind"),
    ("repro.distributed.backend", "DistributedBackend.bind", "engine.bind"),
    ("repro.engine.engine", "ExecutionEngine.plan_for", "engine.prepare"),
    ("repro.engine.session", "coefficient_fingerprint", "engine.fingerprint"),
    ("repro.service.service", "coefficient_fingerprint", "engine.fingerprint"),
    ("repro.engine.engine", "build_factorization", "engine.factorize"),
    ("repro.engine.session", "BoundSolve.step", "session.step"),
    ("repro.engine.session", "BoundSolve.step_t", "session.step"),
    ("repro.engine.session", "BoundSolve.step_once", "session.step"),
    ("repro.distributed.backend", "DistributedBoundSolve.step", "session.step"),
    ("repro.engine.prepared", "PreparedPlan.solve", "prepared.solve"),
    ("repro.core.tiled_pcr", "TiledPCR.sweep", "core.tiled_pcr"),
    ("repro.engine.executor", "pthomas_solve_interleaved", "core.pthomas"),
    ("repro.engine.executor", "_thomas_transposed", "core.thomas"),
    ("repro.engine.prepared", "ThomasRhsFactorization.solve_shard", "core.thomas"),
    ("repro.engine.prepared", "ThomasRhsFactorization.solve_shard_t", "core.thomas"),
    ("repro.service.service", "SolveService._dispatch", "service.dispatch"),
    ("repro.distributed.pool", "WorkerPool.__init__", "distributed.spawn"),
    ("repro.distributed.pool", "WorkerPool.attach", "distributed.comms"),
    ("repro.distributed.pool", "WorkerPool.scatter_slabs", "distributed.comms"),
    ("repro.distributed.pool", "WorkerPool.scatter_rhs", "distributed.comms"),
    ("repro.distributed.pool", "WorkerPool.gather_reduced", "distributed.comms"),
    ("repro.distributed.pool", "WorkerPool.scatter_boundary", "distributed.comms"),
    ("repro.distributed.pool", "WorkerPool.gather_solution", "distributed.comms"),
    ("repro.distributed.pool", "WorkerPool.eliminate", "distributed.local_eliminate"),
    ("repro.distributed.pool", "WorkerPool.backsub", "distributed.backsub"),
    ("repro.distributed.backend", "assemble_reduced", "distributed.reduced_solve"),
    ("repro.distributed.backend", "solve_reduced", "distributed.reduced_solve"),
)

#: Layers whose op-window share is a per-layer metric (``<layer>_pct``).
LAYERS = (
    "core.tiled_pcr",
    "core.pthomas",
    "core.thomas",
    "backends.validate",
    "backends.dispatch",
    "engine.prepare",
    "engine.fingerprint",
    "engine.factorize",
    "engine.bind",
    "session.step",
    "prepared.solve",
    "workloads.rhs",
    "service.dispatch",
    "distributed.local_eliminate",
    "distributed.reduced_solve",
    "distributed.backsub",
    "distributed.comms",
)


def span_label(module: str, attr: str) -> str:
    return f"{module.rsplit('.', 1)[-1]}.{attr}"


class Tracer:
    """In-memory span recorder; ``with tracer:`` installs the wrappers.

    ``busy[(kind, layer)]`` accumulates self seconds, ``roots[(kind,
    layer)]`` the wall time of root spans, and ``calls[label]`` how often
    each wrapped callable fired (``label`` is ``"<module>.<attribute>"``).
    """

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._saved: list = []
        self.busy: dict = defaultdict(float)
        self.roots: dict = defaultdict(float)
        self.calls: dict = defaultdict(int)

    # ---- installation -------------------------------------------------
    def __enter__(self) -> "Tracer":
        for module_name, attr, layer in WRAPPED:
            owner = importlib.import_module(module_name)
            *path, name = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = inspect.getattr_static(owner, name)
            setattr(owner, name, self._wrap(original, layer, span_label(module_name, attr)))
            self._saved.append((owner, name, original))
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)

    def _wrap(self, original, layer: str, label: str):
        if isinstance(original, classmethod):
            return classmethod(self._wrap(original.__func__, layer, label))
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            frame = tracer._push(layer, None)
            t0 = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                tracer._pop(frame, time.perf_counter() - t0, label)

        return traced

    # ---- spans ------------------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _push(self, layer: str, kind: str | None) -> list:
        stack = self._stack()
        if kind is None:
            kind = stack[-1][1] if stack else "background"
        frame = [layer, kind, 0.0]  # layer, kind, seconds covered by children
        stack.append(frame)
        return frame

    def _pop(self, frame: list, seconds: float, label: str | None) -> None:
        stack = self._stack()
        stack.pop()
        layer, kind, covered = frame
        with self._lock:
            self.busy[(kind, layer)] += seconds - covered
            if label is not None:
                self.calls[label] += 1
            if not stack:
                self.roots[(kind, layer)] += seconds
        if stack:
            stack[-1][2] += seconds

    def op(self, kind: str, layer: str):
        """Root span around one measured op; its remainder goes to ``layer``."""
        return _Root(self, kind, layer)

    def leaf(self, kind: str, layer: str, seconds: float, parent: str) -> None:
        """Move ``seconds`` of ``parent``'s self time to ``layer``.

        For a stage a solve trace reports but no wrapper covers (the
        direct Thomas path records its sweep only as a trace stage).
        """
        with self._lock:
            self.busy[(kind, layer)] += seconds
            self.busy[(kind, parent)] -= seconds

    # ---- readout ------------------------------------------------------------
    def layer_seconds(self, kinds=None) -> dict:
        """Self seconds per layer, summed over ``kinds`` (default: all)."""
        out: dict = defaultdict(float)
        with self._lock:
            for (kind, layer), secs in self.busy.items():
                if kinds is None or kind in kinds:
                    out[layer] += secs
        return out

    def reset(self) -> None:
        """Forget every recorded span (wrappers stay installed)."""
        with self._lock:
            self.busy.clear()
            self.roots.clear()


class _Root:
    __slots__ = ("tracer", "kind", "layer", "frame", "t0")

    def __init__(self, tracer: Tracer, kind: str, layer: str):
        self.tracer, self.kind, self.layer = tracer, kind, layer

    def __enter__(self) -> None:
        self.frame = self.tracer._push(self.layer, self.kind)
        self.t0 = time.perf_counter()

    def __exit__(self, *exc) -> None:
        self.tracer._pop(self.frame, time.perf_counter() - self.t0, None)
