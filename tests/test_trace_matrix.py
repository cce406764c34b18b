"""Trace uniformity: every route × backend fills the same vocabulary.

The SolveRequest → SolveOutcome spine promises that *one* trace schema
describes every dispatch: plain, prepared (fingerprinted), and periodic
solves all populate backend, k, plan-cache state, factorization state,
``periodic`` and ``rhs_only`` — no backend leaves a field at a
misleading default.  This matrix pins that promise.
"""

import numpy as np
import pytest

from repro.backends import BackendError, last_trace, solve_via

from .conftest import BACKEND_ROWS

_PLAN_CACHE_STATES = {"hit", "miss", "n/a"}
_FACTORIZATION_STATES = {"hit", "factored", "miss", "off", "handle", "n/a"}

ROUTES = ("plain", "prepared", "periodic")
BACKENDS = tuple(BACKEND_ROWS)


def _batch(route: str, backend: str, m=8, n=64):
    # distinct coefficients per (route, backend) cell so the shared
    # default engine's fingerprint ledger never couples two cells
    seed = sum(map(ord, route + ":" + backend))
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((m, n))
    c = rng.standard_normal((m, n))
    b = 4.0 + np.abs(a) + np.abs(c)
    d = rng.standard_normal((m, n))
    if route != "periodic":
        a[:, 0] = 0.0
        c[:, -1] = 0.0
    return a, b, c, d


@pytest.mark.parametrize("row", BACKENDS)
@pytest.mark.parametrize("route", ROUTES)
def test_every_route_populates_the_full_trace(route, row):
    backend, opts = BACKEND_ROWS[row]
    a, b, c, d = _batch(route, row)

    if route == "prepared":
        if backend == "numpy":
            with pytest.raises(BackendError, match="prepared"):
                solve_via(a, b, c, d, backend=backend, fingerprint=True)
            return
        solve_via(a, b, c, d, backend=backend, fingerprint=True, **opts)
        x, trace = solve_via(
            a, b, c, d, backend=backend, fingerprint=True, **opts
        )
        assert trace.factorization == "hit"
        assert trace.rhs_only is True
    elif route == "periodic":
        x, trace = solve_via(
            a, b, c, d, backend=backend, periodic=True, **opts
        )
        assert trace.periodic is True
    else:
        x, trace = solve_via(a, b, c, d, backend=backend, **opts)
        assert trace.periodic is False

    # one schema, uniformly populated
    assert trace.backend == backend
    assert trace.m == 8 and trace.n == 64
    assert trace.dtype == "float64"
    assert isinstance(trace.k, int) and trace.k >= 0
    assert trace.k_source
    assert trace.workers == opts.get("workers", 1)
    assert trace.plan_cache in _PLAN_CACHE_STATES
    assert trace.factorization in _FACTORIZATION_STATES
    assert isinstance(trace.rhs_only, bool)
    assert isinstance(trace.periodic, bool)

    # stages: validate first, every timing finite and non-negative
    assert trace.stages, "no stage timings recorded"
    assert trace.stages[0].name == "validate"
    assert all(s.seconds >= 0.0 for s in trace.stages)

    # the trace is also the thread's queryable last_trace
    assert last_trace() is trace

    # decision provenance: explicit dispatch is recorded as such
    assert trace.decision is not None
    assert trace.decision.router == "explicit"
    assert trace.decision.chosen == backend
    assert trace.decision.candidates == (backend,)
    assert trace.decision.reason
    info = trace.describe()["decision"]
    assert info["router"] == "explicit" and info["chosen"] == backend

    # and the route actually solved the system
    ref, _ = solve_via(
        a, b, c, d, backend="numpy", periodic=(route == "periodic")
    )
    np.testing.assert_allclose(x, ref, rtol=1e-10, atol=1e-12)


@pytest.mark.parametrize("periodic", [False, True])
def test_routed_dispatch_stamps_static_decision(periodic):
    a, b, c, d = _batch("periodic" if periodic else "plain", "auto")
    _, trace = solve_via(a, b, c, d, periodic=periodic)
    assert trace.decision is not None
    assert trace.decision.router == "static"
    assert trace.decision.chosen == trace.backend
    assert trace.backend in trace.decision.candidates
    assert len(trace.decision.candidates) > 1
    assert trace.decision.reason


def test_workers_decision_is_the_priority_fallback():
    # workers is a negotiated axis, not a routing rule: the engine
    # serves a sharded request by priority
    a, b, c, d = _batch("plain", "workers-rule")
    _, trace = solve_via(a, b, c, d, workers=2)
    assert trace.decision.router == "static"
    assert trace.decision.chosen == "engine"
    assert trace.decision.reason == "highest-priority capable backend"
    assert trace.workers == 2


def _penta_batch(backend: str, m=8, n=64):
    from repro.workloads.generators import random_penta_batch

    seed = sum(map(ord, "penta:" + backend))
    return random_penta_batch(m, n, seed=seed)


def _block_batch(backend: str, m=6, n=16, bs=2):
    from repro.workloads.generators import random_block_batch

    seed = sum(map(ord, "block:" + backend))
    return random_block_batch(m, n, block_size=bs, seed=seed)


@pytest.mark.parametrize("row", BACKENDS)
@pytest.mark.parametrize("system", ("pentadiagonal", "block"))
def test_banded_routes_populate_the_same_trace_schema(system, row):
    """Penta and block dispatch fill the *identical* vocabulary the
    tridiagonal routes do, plus the ``system`` stamp."""
    backend, opts = BACKEND_ROWS[row]
    if system == "pentadiagonal":
        e, a, b, c, f, d = _penta_batch(row)
        x, trace = solve_via(a, b, c, d, e=e, f=f, backend=backend, **opts)
        m, n = 8, 64
    else:
        A, B, C, d = _block_batch(row)
        x, trace = solve_via(A, B, C, d, backend=backend, **opts)
        m, n = 6, 16

    assert trace.system == system
    assert trace.backend == backend
    assert trace.m == m and trace.n == n
    assert trace.dtype == "float64"
    assert trace.k == 0 and trace.k_source == "banded"
    assert trace.workers == opts.get("workers", 1)
    assert trace.plan_cache in _PLAN_CACHE_STATES
    assert trace.factorization in _FACTORIZATION_STATES
    assert isinstance(trace.rhs_only, bool)
    assert trace.periodic is False
    assert trace.stages
    assert trace.stages[0].name == "validate"
    assert all(s.seconds >= 0.0 for s in trace.stages)
    assert last_trace() is trace
    assert trace.decision is not None
    assert trace.decision.router == "explicit"
    assert trace.decision.chosen == backend
    info = trace.describe()
    assert info["system"] == system

    # the route actually solved the system (numpy = dense oracle)
    if system == "pentadiagonal":
        ref, _ = solve_via(a, b, c, d, e=e, f=f, backend="numpy")
    else:
        ref, _ = solve_via(A, B, C, d, backend="numpy")
    np.testing.assert_allclose(x, ref, rtol=1e-9, atol=1e-12)


def test_prepared_penta_trace_reports_rhs_only():
    e, a, b, c, f, d = _penta_batch("prep-engine")
    solve_via(a, b, c, d, e=e, f=f, backend="engine", fingerprint=True)
    x, trace = solve_via(
        a, b, c, d, e=e, f=f, backend="engine", fingerprint=True
    )
    assert trace.system == "pentadiagonal"
    assert trace.factorization in {"hit", "factored"}
    assert trace.rhs_only is True
    cold, _ = solve_via(
        a, b, c, d, e=e, f=f, backend="engine", fingerprint=False
    )
    assert np.array_equal(x, cold)


def test_tridiagonal_routes_stamp_default_system():
    a, b, c, d = _batch("plain", "engine")
    _, trace = solve_via(a, b, c, d, backend="engine")
    assert trace.system == "tridiagonal"
    assert "system" in trace.describe()


@pytest.mark.parametrize("row", BACKENDS)
@pytest.mark.parametrize("route", ROUTES)
def test_session_step_once_populates_the_full_trace(route, row):
    """The session rows of the matrix: ``bind(...)`` + ``step_once()``
    fills the identical trace vocabulary the one-shot dispatch does —
    the bind/execute split changes when the work happens, never what
    the trace says about it."""
    from repro.backends import bind_via

    backend, opts = BACKEND_ROWS[row]
    a, b, c, d = _batch(route, row)
    opts = dict(opts)
    if route == "prepared":
        if backend == "numpy":
            with pytest.raises(BackendError, match="prepared"):
                bind_via(a, b, c, d, backend=backend, fingerprint=True)
            return
        opts["fingerprint"] = True

    with bind_via(
        a, b, c, d, backend=backend,
        periodic=(route == "periodic"), **opts
    ) as session:
        outcome = session.step_once(d)
        trace = outcome.trace
        x = outcome.x

    assert trace.backend == backend
    assert trace.m == 8 and trace.n == 64
    assert trace.dtype == "float64"
    assert isinstance(trace.k, int) and trace.k >= 0
    assert trace.workers == opts.get("workers", 1)
    assert trace.plan_cache in _PLAN_CACHE_STATES
    assert trace.factorization in _FACTORIZATION_STATES
    assert isinstance(trace.rhs_only, bool)
    assert trace.periodic is (route == "periodic")
    if route == "prepared":
        # a persistent fingerprinted bind forces the factorization at
        # bind time, so the very first step already runs RHS-only
        assert trace.rhs_only is True
        assert trace.factorization in {"hit", "factored"}
    assert trace.stages
    assert all(s.seconds >= 0.0 for s in trace.stages)

    # bind-time provenance rides on every step's trace
    assert trace.decision is not None
    assert trace.decision.router == "explicit"
    assert trace.decision.chosen == backend

    ref, _ = solve_via(
        a, b, c, d, backend="numpy", periodic=(route == "periodic")
    )
    np.testing.assert_allclose(x, ref, rtol=1e-10, atol=1e-12)


def test_prepared_handle_traces_use_the_same_schema():
    import repro

    a, b, c, d = _batch("handle", "prepared", n=32)
    handle = repro.prepare(a, b, c, k=0)
    x = handle.solve(d)
    trace = last_trace()
    assert trace is not None
    assert trace.backend == "prepared"
    assert trace.factorization == "handle"
    assert trace.rhs_only is True
    assert trace.periodic is False
    assert trace.plan_cache in _PLAN_CACHE_STATES
    assert trace.stages
    np.testing.assert_allclose(
        x, solve_via(a, b, c, d, backend="numpy")[0], rtol=1e-10, atol=1e-12
    )
