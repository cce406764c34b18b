"""Offline calibration: measure every candidate route, fill the model.

Online epsilon-exploration converges slowly (one extra sample every
``1/epsilon`` solves per cell); a new host wants its Table III
replaced *now*.  :func:`calibrate` is the systematic version — the
engine behind ``repro tune`` and ``benchmarks/bench_autotune.py``:

for each shape in the sweep, enumerate the candidate routes
(:func:`~repro.autotune.router.candidate_routes` — measured backends ×
candidate ``k`` × licensed fingerprint tiers, plus rank counts), then run
*interleaved rounds* over them: every route solves once per round, so
CPU frequency drift (thermal throttling penalizes whoever runs last in
a sequential design) spreads evenly across routes instead of biasing
one.  The first ``warmup_rounds`` rounds are unobserved — they pay the
one-time costs (plan build, fingerprint ledger sightings,
factorization) so the model records steady-state route cost, which is
what routing decides on.

Costs come from the solve's own :class:`~repro.backends.trace.
SolveTrace` (validation excluded), so calibration measures exactly
what the router will later predict.
"""

from __future__ import annotations

import numpy as np

from repro.autotune.model import (
    PerformanceModel,
    cell_key,
    cost_from,
)
from repro.autotune.router import candidate_routes

__all__ = ["DEFAULT_SHAPES", "calibrate", "calibration_batch"]

#: default sweep: both Table-III regimes (small-M hybrid, large-M
#: Thomas) plus the boundary region where a mistuned table hurts most
DEFAULT_SHAPES = (
    (8, 1024),
    (32, 1024),
    (128, 1024),
    (512, 512),
    (1024, 1024),
)


def calibration_batch(
    m: int, n: int, dtype="float64", *, seed: int = 0, periodic: bool = False
):
    """A reproducible diagonally-dominant batch for measurement.

    ``periodic=True`` keeps the corner entries (``a[:, 0]`` /
    ``c[:, -1]``) as cyclic couplings instead of zero pads.
    """
    rng = np.random.default_rng(seed + 7919 * m + n)
    dtype = np.dtype(dtype)
    a = rng.standard_normal((m, n)).astype(dtype)
    c = rng.standard_normal((m, n)).astype(dtype)
    if not periodic:
        a[:, 0] = 0.0
        c[:, -1] = 0.0
    b = (4.0 + np.abs(a) + np.abs(c)).astype(dtype)
    d = rng.standard_normal((m, n)).astype(dtype)
    return a, b, c, d


def _route_kwargs(route: dict, rtol) -> dict:
    """solve_via keyword arguments that pin one route."""
    kwargs = {
        "backend": route["backend"],
        "k": route["k"],
    }
    if route.get("ranks", 1) > 1:
        kwargs["ranks"] = route["ranks"]
    tier = route.get("fingerprint", "auto")
    if tier == "forced":
        kwargs["fingerprint"] = True
    elif tier == "off":
        kwargs["fingerprint"] = False
    if rtol is not None:
        kwargs["rtol"] = rtol
    return kwargs


def calibrate(
    shapes=DEFAULT_SHAPES,
    *,
    model: PerformanceModel | None = None,
    repeats: int = 3,
    warmup_rounds: int = 2,
    dtype="float64",
    periodic: bool = False,
    rtol: float | None = None,
    registry=None,
    seed: int = 0,
    progress=None,
) -> PerformanceModel:
    """Measure every candidate route over ``shapes`` into a model.

    Parameters
    ----------
    shapes:
        Iterable of ``(M, N)`` problem shapes to sweep.
    model:
        Model to extend (a fresh one is built when omitted).
    repeats:
        Observed rounds per route (each contributes one sample).
    warmup_rounds:
        Unobserved leading rounds — absorb plan builds, fingerprint
        ledger sightings and factorization so samples are steady-state.
    dtype, periodic, rtol:
        Request coordinates for the sweep; ``rtol`` both rides on the
        solve requests and licenses ``forced``-fingerprint routes on
        hybrid ``k > 0`` plans.
    registry:
        Backend registry to dispatch through (default process-wide).
        Calibration uses *explicit* backend names, so the registry's
        installed router — adaptive or static — is never consulted.
    progress:
        Optional ``callable(str)`` for per-shape progress lines.

    Returns the (extended) :class:`PerformanceModel`.
    """
    from repro.backends.registry import default_registry, solve_via
    from repro.backends.request import SolveRequest

    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats}")
    if warmup_rounds < 0:
        raise ValueError(f"warmup_rounds must be >= 0, got {warmup_rounds}")
    reg = registry if registry is not None else default_registry()
    if model is None:
        model = PerformanceModel()
    for m, n in shapes:
        a, b, c, d = calibration_batch(
            m, n, dtype, seed=seed, periodic=periodic
        )
        probe = SolveRequest.build(
            a, b, c, d, periodic=periodic,
            **({"rtol": rtol} if rtol is not None else {}),
        )
        routes = candidate_routes(probe, reg.capable(probe))
        cell = cell_key(m, n, dtype, periodic)
        if progress is not None:
            progress(
                f"calibrating M={m} N={n} ({cell}): "
                f"{len(routes)} routes x {repeats} rounds"
            )
        for rnd in range(warmup_rounds + repeats):
            for route in routes:
                _, trace = solve_via(
                    a, b, c, d,
                    periodic=periodic,
                    registry=reg,
                    **_route_kwargs(route, rtol),
                )
                if rnd >= warmup_rounds:
                    model.observe(cell, route, cost_from(trace))
    return model
