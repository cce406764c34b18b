"""Trace-driven autotuning: measured calibration over Table III.

The paper fixes its algorithm selection at publication time (Table III,
tuned on a GTX480).  This package closes the loop on the actual host:

* :mod:`repro.autotune.model` — :class:`PerformanceModel` folds the
  :class:`~repro.backends.trace.SolveTrace` of every registry dispatch
  into per-(shape-bucket, route) running cost estimates, persisted as
  a versioned, atomically-written JSON file;
* :mod:`repro.autotune.router` — :class:`AdaptiveRouter`, a drop-in
  :class:`~repro.backends.registry.Router` that exploits the model
  (backend, hybrid ``k``, fingerprint tier, ranks), explores on a
  deterministic epsilon schedule, and degrades to the static heuristic
  on cold cells or a corrupt model file;
* :mod:`repro.autotune.calibrate` — systematic offline calibration
  (the ``repro tune`` CLI): measure every candidate route per shape,
  fill the model, persist it.

Quick start::

    import repro
    from repro.autotune import enable_adaptive_routing

    router = enable_adaptive_routing("router_model.json")
    ...                      # solves now calibrate + route adaptively
    router.save()
"""

from repro.autotune.calibrate import DEFAULT_SHAPES, calibrate
from repro.autotune.model import (
    MODEL_VERSION,
    ModelLoadError,
    PerformanceModel,
    RouteStats,
    cell_key,
    cell_key_for,
    cost_from,
    effective_fingerprint_tier,
    route_from,
    route_key,
)
from repro.autotune.router import (
    AdaptiveRouter,
    disable_adaptive_routing,
    enable_adaptive_routing,
)

__all__ = [
    "AdaptiveRouter",
    "DEFAULT_SHAPES",
    "MODEL_VERSION",
    "ModelLoadError",
    "PerformanceModel",
    "RouteStats",
    "calibrate",
    "cell_key",
    "cell_key_for",
    "cost_from",
    "disable_adaptive_routing",
    "effective_fingerprint_tier",
    "enable_adaptive_routing",
    "route_from",
    "route_key",
]
