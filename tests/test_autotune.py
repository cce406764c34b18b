"""Trace-driven adaptive routing: model, router, calibration, safety.

The contracts under test:

* the :class:`PerformanceModel` folds traces into per-(cell, route)
  running means and persists bitwise (save -> load -> save);
* corrupt / foreign-version model files degrade to an empty model —
  the router falls back to the static heuristic, never raises;
* :class:`AdaptiveRouter` is *safe by construction*: it never selects
  a backend outside the capability-filtered candidates, never
  overrides caller-pinned knobs, and never applies a forced
  fingerprint tier without a numeric license;
* cold start and ``epsilon=0`` replay are fully deterministic and
  bitwise-identical to the static :class:`Router`;
* the ``rtol=`` contract auto-engages hybrid factorization reuse with
  the documented miss -> factored -> hit trace progression.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.autotune import (
    MODEL_VERSION,
    AdaptiveRouter,
    ModelLoadError,
    PerformanceModel,
    calibrate,
    cell_key,
    cell_key_for,
    effective_fingerprint_tier,
    enable_adaptive_routing,
    disable_adaptive_routing,
    route_key,
)
from repro.autotune.calibrate import _route_kwargs, calibration_batch
from repro.autotune.model import route_from
from repro.autotune.router import candidate_routes
from repro.backends.registry import (
    BackendRegistry,
    Router,
    default_registry,
    reject_reason,
    solve_via,
)
from repro.backends.request import SolveRequest
from repro.core.transition import GTX480_HEURISTIC, candidate_ks


def _request(m=8, n=64, *, seed=0, dtype="float64", **opts):
    a, b, c, d = calibration_batch(m, n, dtype, seed=seed)
    return SolveRequest.build(a, b, c, d, **opts)


# ---------------------------------------------------------------------------
# PerformanceModel


def test_model_running_mean_and_best():
    model = PerformanceModel(min_samples=2)
    cell = "c"
    fast = {"backend": "engine", "k": 3, "fingerprint": "auto", "ranks": 1}
    slow = {"backend": "numpy", "k": 0, "fingerprint": "auto", "ranks": 1}
    model.observe(cell, fast, 1.0)
    assert model.best(cell) is None  # one sample is below min_samples
    model.observe(cell, fast, 3.0)
    model.observe(cell, slow, 5.0)
    model.observe(cell, slow, 5.0)
    route, stats = model.best(cell)
    assert route == fast
    assert stats.count == 2
    assert stats.mean_s == pytest.approx(2.0)
    assert model.observations(cell) == 4


def test_model_best_admissibility_filter():
    model = PerformanceModel(min_samples=1)
    cell = "c"
    model.observe(cell, {"backend": "a", "k": 0, "fingerprint": "auto"}, 1.0)
    model.observe(cell, {"backend": "b", "k": 0, "fingerprint": "auto"}, 2.0)
    route, _ = model.best(cell, admissible=lambda r: r["backend"] == "b")
    assert route["backend"] == "b"
    assert model.best(cell, admissible=lambda r: False) is None


def test_model_best_returns_copy():
    model = PerformanceModel(min_samples=1)
    model.observe("c", {"backend": "a", "k": 0, "fingerprint": "auto"}, 1.0)
    route, _ = model.best("c")
    route["backend"] = "mutated"
    route2, _ = model.best("c")
    assert route2["backend"] == "a"


def test_cell_key_bucketing():
    assert cell_key(8, 1024, "float64", False) == "M2^3|N2^10|float64|plain"
    assert cell_key(9, 1024, "float64", False) == "M2^3|N2^10|float64|plain"
    assert cell_key(16, 1024, "float64", False) == "M2^4|N2^10|float64|plain"
    assert cell_key(8, 1024, "float32", True) == "M2^3|N2^10|float32|cyclic"
    req = _request(m=12, n=100)
    assert cell_key_for(req) == "M2^3|N2^6|float64|plain"


def test_effective_fingerprint_tier_partitions_behaviour():
    assert effective_fingerprint_tier(True, None, "float64", 3) == "forced"
    assert effective_fingerprint_tier(False, 1e-8, "float64", 3) == "off"
    assert effective_fingerprint_tier(None, None, "float64", 3) == "auto"
    assert effective_fingerprint_tier(None, 1e-8, "float64", 3) == "auto+rtol"
    # at k = 0 the rtol contract changes nothing: both collapse to auto
    assert effective_fingerprint_tier(None, 1e-8, "float64", 0) == "auto"
    # below the dtype floor the license does not engage
    assert effective_fingerprint_tier(None, 1e-20, "float64", 3) == "auto"


# ---------------------------------------------------------------------------
# persistence


def test_model_roundtrip_bitwise(tmp_path):
    model = PerformanceModel(min_samples=3)
    for i, cell in enumerate(("c1", "c2")):
        for j in range(4):
            model.observe(
                cell,
                {"backend": "engine", "k": j, "fingerprint": "auto"},
                0.001 * (i + 1) * (j + 1) / 3.0,  # non-trivial floats
            )
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    model.save(p1)
    loaded = PerformanceModel.load(p1)
    assert loaded.min_samples == 3
    assert loaded.cells() == model.cells()
    loaded.save(p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_model_load_missing_corrupt_and_foreign(tmp_path):
    # missing file: fresh model, no note
    model, note = PerformanceModel.load_or_new(tmp_path / "absent.json")
    assert model.cells() == [] and note is None

    # corrupt file: fresh model plus a note; strict load raises
    bad = tmp_path / "bad.json"
    bad.write_text("{this is not json")
    with pytest.raises(ModelLoadError):
        PerformanceModel.load(bad)
    model, note = PerformanceModel.load_or_new(bad)
    assert model.cells() == [] and note

    # foreign version: same degradation
    stale = tmp_path / "stale.json"
    stale.write_text(json.dumps({
        "kind": "repro-autotune-model", "version": MODEL_VERSION + 1,
        "cells": {},
    }))
    with pytest.raises(ModelLoadError, match="version"):
        PerformanceModel.load(stale)
    model, note = PerformanceModel.load_or_new(stale)
    assert model.cells() == [] and "version" in note

    # v2 files hold routes of the retired threaded backend
    v2 = tmp_path / "v2.json"
    rkey = route_key({
        "backend": "threaded", "k": 0, "fingerprint": "auto", "ranks": 1,
    })
    v2.write_text(json.dumps({
        "kind": "repro-autotune-model", "version": 2, "min_samples": 2,
        "cells": {"M2^6|N2^8|float64|plain": {
            rkey: {"count": 3, "mean_s": 1e-3},
        }},
    }))
    assert MODEL_VERSION == 4
    model, note = PerformanceModel.load_or_new(v2)
    assert model.cells() == [] and "version 2" in note
    assert AdaptiveRouter(model_path=v2).load_note == note

    # wrong kind
    alien = tmp_path / "alien.json"
    alien.write_text(json.dumps({"kind": "something-else", "version": 1}))
    model, note = PerformanceModel.load_or_new(alien)
    assert model.cells() == [] and "kind" in note


def test_v3_model_with_workers_routes_loads_empty(tmp_path):
    # v3 routes carried a workers axis; its costs were measured on
    # sharded routes that no longer exist, so the file is discarded
    v3 = tmp_path / "v3.json"
    rkey = json.dumps({
        "backend": "engine", "fingerprint": "auto", "k": 0, "ranks": 1,
        "workers": 4,
    }, sort_keys=True)
    v3.write_text(json.dumps({
        "kind": "repro-autotune-model", "version": 3, "min_samples": 2,
        "cells": {"M2^6|N2^8|float64|plain": {
            rkey: {"count": 3, "mean_s": 1e-3},
        }},
    }))
    with pytest.raises(ModelLoadError, match="version 3"):
        PerformanceModel.load(v3)
    model, note = PerformanceModel.load_or_new(v3)
    assert model.cells() == [] and "version 3" in note
    router = AdaptiveRouter(model_path=v3)
    assert router.load_note == note and router.model.cells() == []


def test_adaptive_router_degrades_on_corrupt_model(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("not even close to json")
    router = AdaptiveRouter(model_path=str(bad))
    assert router.load_note  # problem surfaced, not raised
    # behaves exactly like the static router (cold everywhere)
    req = _request()
    candidates = default_registry().capable(req)
    chosen = router.select(req, list(candidates))
    static = Router().select(_request(), list(candidates))
    assert chosen.name == static.name
    assert req.decision.model == "cold"


# ---------------------------------------------------------------------------
# selection policy


def _calibrated(shapes=((8, 64),), **kwargs):
    model = PerformanceModel()
    calibrate(shapes, model=model, repeats=2, warmup_rounds=1, **kwargs)
    return model


def test_cold_start_is_bitwise_identical_to_static():
    reg = default_registry()
    a, b, c, d = calibration_batch(16, 128, seed=3)
    adaptive = AdaptiveRouter(PerformanceModel(), epsilon=0.5)
    try:
        reg.router = adaptive
        x_adaptive, trace = solve_via(a, b, c, d, registry=reg)
        assert trace.decision.router == "adaptive"
        assert trace.decision.model == "cold"
        reg.router = Router()
        x_static, trace_s = solve_via(a, b, c, d, registry=reg)
    finally:
        reg.router = Router()
    assert trace.backend == trace_s.backend
    assert trace.k == trace_s.k
    np.testing.assert_array_equal(x_adaptive, x_static)


def test_epsilon_zero_replay_is_deterministic():
    model = _calibrated()
    reg = default_registry()
    candidates = reg.capable(_request())

    def replay():
        router = AdaptiveRouter(model, epsilon=0.0)
        picks = []
        for _ in range(6):
            req = _request()
            router.select(req, list(candidates))
            picks.append((req.decision.chosen, dict(req.decision.route),
                          req.decision.explore))
        return picks

    first, second = replay(), replay()
    assert first == second
    assert not any(explore for _, _, explore in first)


def test_exploration_schedule_is_deterministic_counter():
    model = _calibrated()
    router = AdaptiveRouter(model, epsilon=0.5)
    reg = default_registry()
    candidates = reg.capable(_request())
    flags = []
    for _ in range(8):
        req = _request()
        router.select(req, list(candidates))
        flags.append(req.decision.explore)
    assert any(flags), "epsilon=0.5 never explored in 8 picks"
    # replay matches exactly (no PRNG anywhere)
    router2 = AdaptiveRouter(model, epsilon=0.5)
    flags2 = []
    for _ in range(8):
        req = _request()
        router2.select(req, list(candidates))
        flags2.append(req.decision.explore)
    assert flags == flags2


def test_exploit_applies_measured_best_and_stamps_decision():
    model = _calibrated(rtol=1e-9)
    cell = cell_key(8, 64, "float64", False)
    best_route, best_stats = model.best(cell)
    router = AdaptiveRouter(model, epsilon=0.0)
    req = _request(rtol=1e-9)
    backend = router.select(req, list(default_registry().capable(req)))
    assert backend.name == best_route["backend"]
    d = req.decision
    assert d.router == "adaptive" and d.model == "hit" and not d.explore
    assert d.cell == cell
    assert d.route["backend"] == best_route["backend"]
    assert f"{best_stats.count} samples" in d.reason


def test_router_never_overrides_pinned_knobs():
    model = _calibrated(rtol=1e-9)
    router = AdaptiveRouter(model, epsilon=0.0)
    reg = default_registry()
    # pin k: selection must keep it even though the model prefers another
    req = _request(k=0, rtol=1e-9)
    router.select(req, list(reg.capable(req)))
    assert req.k == 0
    # pin fingerprint off: must not be flipped on
    req = _request(fingerprint=False, rtol=1e-9)
    router.select(req, list(reg.capable(req)))
    assert req.fingerprint is False


def test_forced_tier_needs_license():
    """A k>0 forced-fingerprint route needs an rtol license to apply."""
    model = _calibrated(rtol=1e-9)
    cell = cell_key(8, 64, "float64", False)
    assert any(
        json.loads(rk).get("fingerprint") in ("forced", "auto+rtol")
        and json.loads(rk).get("k", 0) != 0
        for rk in model.routes(cell)
    ), "calibration produced no licensed hybrid-reuse routes"
    router = AdaptiveRouter(model, epsilon=0.0)
    req = _request()  # no rtol
    router.select(req, list(default_registry().capable(req)))
    applied = req.decision.route
    if applied.get("fingerprint") == "forced":
        assert applied.get("k", 0) == 0
    # with the license, reuse tiers are in play
    req2 = _request(rtol=1e-9)
    router.select(req2, list(default_registry().capable(req2)))
    assert req2.decision.model == "hit"


@settings(max_examples=30, deadline=None)
@given(
    m=st.integers(min_value=1, max_value=64),
    n=st.integers(min_value=4, max_value=256),
    dtype=st.sampled_from(["float64", "float32"]),
    epsilon=st.sampled_from([0.0, 0.3, 1.0]),
    rtol=st.sampled_from([None, 1e-3, 1e-9]),
    periodic=st.booleans(),
)
def test_adaptive_never_selects_incapable_backend(
    m, n, dtype, epsilon, rtol, periodic
):
    """Whatever the model says, selection respects capabilities."""
    reg = default_registry()
    # a model polluted with backends/routes that do not exist or are
    # wrong for most requests — selection must stay admissible
    model = PerformanceModel(min_samples=1)
    for cell_m in (1, 8, 32, 64):
        for cell_n in (4, 64, 256):
            cell = cell_key(cell_m, cell_n, dtype, periodic)
            model.observe(cell, {"backend": "nonexistent", "k": 1,
                                 "fingerprint": "auto"}, 1e-9)
            model.observe(cell, {"backend": "numpy", "k": 2,
                                 "fingerprint": "forced"}, 1e-9)
            model.observe(cell, {"backend": "engine", "k": 2,
                                 "fingerprint": "forced"}, 1e-8)
    router = AdaptiveRouter(model, epsilon=epsilon)
    opts = {} if rtol is None else {"rtol": rtol}
    req = _request(m=m, n=n, dtype=dtype, periodic=periodic, **opts)
    candidates = reg.capable(req)
    chosen = router.select(req, list(candidates))
    assert chosen.name in {b.name for b in candidates}
    # and the refined request still passes the chosen backend's filter
    assert reject_reason(chosen.capabilities(), req) is None


# ---------------------------------------------------------------------------
# candidate routes / calibration


def test_candidate_ks_brackets_the_table():
    ks = candidate_ks(8, 1024)
    table_k = GTX480_HEURISTIC.k_for(8, 1024)
    assert 0 in ks
    assert table_k in ks
    assert ks == tuple(sorted(set(ks)))


def test_candidate_routes_respect_contracts():
    reg = default_registry()
    req = _request(m=8, n=64)
    routes = candidate_routes(req, reg.capable(req))
    assert routes, "no candidate routes for a plain request"
    names = {r["backend"] for r in routes}
    assert "gpusim" not in names  # simulated backends are never measured
    # no rtol: hybrid (k>0) routes must not carry reuse tiers
    for r in routes:
        if r["k"] != 0:
            assert r["fingerprint"] == "auto"
    # pinned k stays pinned
    req_k = _request(m=8, n=64, k=2)
    assert {r["k"] for r in candidate_routes(req_k, reg.capable(req_k))} == {2}
    # rtol license adds reuse tiers on k>0
    req_rtol = _request(m=8, n=64, rtol=1e-9)
    tiers = {
        (r["k"] != 0, r["fingerprint"])
        for r in candidate_routes(req_rtol, reg.capable(req_rtol))
    }
    assert (True, "auto+rtol") in tiers
    assert (True, "forced") in tiers


SHAPES_AROUND_RANKS = [(64, 256), (8, 4096)]  # below / at the ranks axis


@pytest.mark.parametrize("m,n", SHAPES_AROUND_RANKS)
def test_calibrated_routes_run_as_the_routes_they_record(m, n):
    # calibrate() pins each candidate through _route_kwargs; the solve
    # must then run exactly that route, or its time lands on another key
    reg = default_registry()
    a, b, c, d = calibration_batch(m, n)
    probe = SolveRequest.build(a, b, c, d)
    routes = candidate_routes(probe, reg.capable(probe))
    assert {r["ranks"] for r in routes} == ({1, 2, 4} if n >= 4096 else {1})
    for route in routes:
        kwargs = _route_kwargs(route, None)
        backend = kwargs.pop("backend")
        request = SolveRequest.build(a, b, c, d, **kwargs)
        _, trace = solve_via(
            a, b, c, d, backend=backend, registry=reg, **kwargs
        )
        assert route_from(request, trace) == route


@pytest.mark.parametrize("m,n", SHAPES_AROUND_RANKS)
def test_exploration_records_every_candidate_under_its_own_key(m, n):
    reg = BackendRegistry(router=AdaptiveRouter(PerformanceModel(), epsilon=1.0))
    for backend in default_registry().backends():
        reg.register(backend)
    a, b, c, d = calibration_batch(m, n)
    probe = SolveRequest.build(a, b, c, d)
    routes = candidate_routes(probe, reg.capable(probe))
    # the first pick is cold (the static route); every later one
    # explores the least-sampled candidate
    for _ in range(len(routes) + 1):
        solve_via(a, b, c, d, registry=reg)
    recorded = reg.router.model.routes(cell_key(m, n, "float64", False))
    assert set(recorded) == {route_key(r) for r in routes}


def test_calibrate_fills_the_model_and_routes_from_it():
    model = _calibrated(shapes=((8, 64),), rtol=1e-9)
    cell = cell_key(8, 64, "float64", False)
    assert model.cells() == [cell]
    assert model.observations(cell) >= 2 * len(model.routes(cell)) > 0
    assert model.best(cell) is not None


def test_enable_disable_adaptive_routing(tmp_path):
    reg = default_registry()
    try:
        router = enable_adaptive_routing(
            str(tmp_path / "m.json"), epsilon=0.0, registry=reg
        )
        assert reg.router is router
        a, b, c, d = calibration_batch(8, 64, seed=11)
        _, trace = solve_via(a, b, c, d, registry=reg)
        assert trace.decision.router == "adaptive"
        # observe() hook fed the dispatch back into the model
        assert router.model.observations(cell_key(8, 64, "float64", False)) == 1
        router.save()
        assert (tmp_path / "m.json").exists()
    finally:
        static = disable_adaptive_routing(registry=reg)
        assert reg.router is static


def test_engine_router_model_path(tmp_path):
    from repro.engine import ExecutionEngine

    assert ExecutionEngine().router_model_path is None
    eng = ExecutionEngine(cache_dir=str(tmp_path))
    path = eng.router_model_path
    assert path is not None and path.endswith("router_model.json")
    assert str(tmp_path) in path


# ---------------------------------------------------------------------------
# rtol contract on the engine


def test_rtol_auto_engages_hybrid_reuse_progression():
    """miss -> factored -> hit across repeated rtol solves at k > 0."""
    a, b, c, d = calibration_batch(8, 128, seed=23)
    states = []
    for _ in range(3):
        _, trace = solve_via(a, b, c, d, backend="engine", k=3, rtol=1e-9)
        states.append((trace.factorization, trace.rhs_only))
    assert states[0] == ("miss", False)
    # the factoring solve already reuses its fresh factorization for
    # the RHS pass, so rhs_only flips on one solve early
    assert states[1] == ("factored", True)
    assert states[2] == ("hit", True)
    # the reused answer keeps a fresh solve's bits
    x_reused, _ = solve_via(a, b, c, d, backend="engine", k=3, rtol=1e-9)
    x_fresh, _ = solve_via(a, b, c, d, backend="engine", k=3, fingerprint=False)
    assert x_reused.tobytes() == x_fresh.tobytes()


def test_rtol_below_floor_does_not_engage():
    a, b, c, d = calibration_batch(8, 128, seed=29)
    for _ in range(3):
        _, trace = solve_via(a, b, c, d, backend="engine", k=3, rtol=1e-16)
        assert trace.rhs_only is False


def test_rtol_validation():
    with pytest.raises(ValueError, match="rtol"):
        _request(rtol=-1.0)
    with pytest.raises(ValueError, match="rtol"):
        _request(rtol=float("nan"))


def test_route_key_is_stable():
    r1 = {"backend": "engine", "k": 1, "fingerprint": "auto", "ranks": 1}
    r2 = {"ranks": 1, "fingerprint": "auto", "k": 1, "backend": "engine"}
    assert route_key(r1) == route_key(r2)
