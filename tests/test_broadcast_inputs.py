"""Broadcast batches: one matrix for many systems, bound in O(N).

``np.broadcast_to(row, (M, N))`` returns a batch whose rows are one row
in memory (batch-axis stride 0).  The validators keep it that way, the
fingerprint hashes its one row, a ``k = 0`` factorization stores its
``(N, 1)`` column, and every route gives the bits of the materialized
batch.  Broadcast views are read-only, so a route that wrote into a
request array would raise here instead of passing.
"""

from __future__ import annotations

import asyncio
import tracemalloc

import numpy as np
import pytest

import repro
from repro.backends import bind_via, solve_via
from repro.backends.request import SolveRequest
from repro.distributed import partitioned_solve_reference
from repro.engine import ExecutionEngine, coefficient_fingerprint
from repro.service import ServiceConfig, SolveService
from repro.workloads.generators import random_block_batch, random_penta_batch
from repro.workloads.pde import periodic_heat_coefficients
from repro.workloads.timestepping import (
    ADIDiffusion2D,
    ADIDiffusion3D,
    CrankNicolsonCubic,
)

DTYPES = [np.float64, np.float32]


def _row(n, dtype, seed):
    """One random dominant matrix as ``(1, N)`` diagonals ``(a, b, c)``."""
    rng = np.random.default_rng(seed)
    a, c = rng.standard_normal((2, 1, n)).astype(dtype)
    a[:, 0] = 0.0
    c[:, -1] = 0.0
    b = (4.0 + np.abs(a) + np.abs(c)).astype(dtype)
    return a, b, c


def _broadcast(m, arrays):
    """Read-only stride-0 ``(m, N)`` views of ``(1, N)`` rows."""
    return tuple(np.broadcast_to(v, (m, v.shape[-1])) for v in arrays)


def _materialized(arrays):
    return tuple(np.ascontiguousarray(v) for v in arrays)


def _rhs(m, n, dtype, seed):
    return np.random.default_rng(seed).standard_normal((m, n)).astype(dtype)


def _zero(m, n, dtype):
    return np.broadcast_to(np.zeros(n, dtype=dtype), (m, n))


# ------------------------------------------------------------ validators


@pytest.mark.parametrize("periodic", [False, True])
@pytest.mark.parametrize("check", [True, False])
@pytest.mark.parametrize("dtype", DTYPES)
def test_the_validators_keep_a_broadcast_batch_one_row(dtype, check, periodic):
    m, n = 64, 40
    row = _row(n, dtype, seed=0)
    raw = [v.tobytes() for v in row]
    request = SolveRequest.build(
        *_broadcast(m, row), _zero(m, n, dtype), check=check, periodic=periodic
    )
    for v in (request.a, request.b, request.c, request.d):
        assert v.shape == (m, n) and v.dtype == dtype
        assert v.strides == (0, v.itemsize) and not v.flags.writeable
    assert [v.tobytes() for v in row] == raw


CASES = [
    ("nan in a", False),
    ("nan in a", True),
    ("inf in d", False),
    ("inf in d", True),
    ("zero pivot", False),
]


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("bad, periodic", CASES)
def test_a_bad_row_raises_the_materialized_batchs_error(bad, periodic, dtype):
    m, n = 32, 24
    a, b, c = (v.copy() for v in _row(n, dtype, seed=1))
    d = np.zeros((1, n), dtype=dtype)
    if bad == "nan in a":
        a[0, 5] = np.nan
    elif bad == "inf in d":
        d[0, 7] = np.inf
    else:
        b[0, 9] = 0.0
    arrays = _broadcast(m, (a, b, c, d))
    with pytest.raises(ValueError) as full:
        SolveRequest.build(*_materialized(arrays), periodic=periodic)
    with pytest.raises(ValueError) as row:
        SolveRequest.build(*arrays, periodic=periodic)
    assert str(row.value) == str(full.value)


@pytest.mark.parametrize("check", [True, False])
@pytest.mark.parametrize("dtype", DTYPES)
def test_a_nonzero_pad_is_zeroed_in_a_copy_of_the_row(dtype, check):
    # check=False coerces only: the pads ride through as given
    m, n = 16, 32
    a, b, c = _row(n, dtype, seed=2)
    a[0, 0], c[0, -1] = 7.0, -3.0
    raw = (a.tobytes(), c.tobytes())
    arrays = _broadcast(m, (a, b, c))
    request = SolveRequest.build(*arrays, _zero(m, n, dtype), check=check)
    assert request.a.strides[0] == request.c.strides[0] == 0
    assert bool(request.a[:, 0].any()) is not check
    assert bool(request.c[:, -1].any()) is not check
    assert np.array_equal(request.a[0, 1:], a[0, 1:])
    assert np.array_equal(request.c[0, :-1], c[0, :-1])
    assert (a.tobytes(), c.tobytes()) == raw
    d = _rhs(m, n, dtype, seed=3)
    full = _materialized(arrays)
    ref = repro.solve_batch(*full, d, k=0, fingerprint=False, check=check)
    x = repro.solve_batch(*arrays, d, k=0, fingerprint=False, check=check)
    assert x.tobytes() == ref.tobytes()


@pytest.mark.parametrize("check", [True, False])
def test_a_float32_row_with_a_float64_rhs_is_cast_and_broadcast_again(check):
    m, n = 32, 48
    row = _row(n, np.float32, seed=4)
    arrays = _broadcast(m, row)
    d = _rhs(m, n, np.float64, seed=5)
    request = SolveRequest.build(*arrays, d, check=check)
    for v, r in zip((request.a, request.b, request.c), row):
        assert v.dtype == np.float64 and v.strides == (0, 8)
        assert np.array_equal(v[0], r[0].astype(np.float64))
    full = [np.ascontiguousarray(v, dtype=np.float64) for v in arrays]
    ref = repro.solve_batch(*full, d, k=0, fingerprint=False, check=check)
    x = repro.solve_batch(*arrays, d, k=0, fingerprint=False, check=check)
    assert x.tobytes() == ref.tobytes()


def test_a_broadcast_penta_batch_stays_one_row_and_a_block_batch_is_copied():
    # PentaFactorization factors transposed copies and its sweep reads d,
    # so a penta batch keeps stride 0; block stacks are 4-D and are made
    # contiguous like any other layout
    m, n = 24, 40
    e, a, b, c, f, _ = random_penta_batch(1, n, seed=6)
    bands = _broadcast(m, (e, a, b, c, f))
    d = _rhs(m, n, np.float64, seed=7)
    be, ba, bb, bc, bf = bands
    request = SolveRequest.build(ba, bb, bc, d, e=be, f=bf)
    assert all(
        v.strides[0] == 0
        for v in (request.e, request.a, request.b, request.c, request.f)
    )
    fe, fa, fb, fc, ff = _materialized(bands)
    for backend in ("engine", "numpy", "gpusim"):
        x, _ = solve_via(ba, bb, bc, d, e=be, f=bf, backend=backend)
        ref, _ = solve_via(fa, fb, fc, d, e=fe, f=ff, backend=backend)
        assert x.tobytes() == ref.tobytes()

    A, B, C, dd = random_block_batch(1, n, block_size=2, seed=8)
    blocks = [np.broadcast_to(v, (m, *v.shape[1:])) for v in (A, B, C)]
    dd = np.random.default_rng(9).standard_normal((m, n, 2))
    request = SolveRequest.build(*blocks, dd)
    assert all(v.flags.c_contiguous for v in (request.a, request.b, request.c))
    x, _ = solve_via(*blocks, dd, backend="engine")
    ref, _ = solve_via(*_materialized(blocks), dd, backend="engine")
    assert x.tobytes() == ref.tobytes()


# ----------------------------------------------------------- fingerprint


def test_a_broadcast_batch_is_digested_from_its_row():
    m, n = 1024, 1024
    row = _row(n, np.float64, seed=10)
    arrays = _broadcast(m, row)
    coefficient_fingerprint(*arrays)
    tracemalloc.start()
    try:
        digest = coefficient_fingerprint(*arrays)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    # equal row and shape: one digest, whatever the row's object
    assert coefficient_fingerprint(*_broadcast(m, [v.copy() for v in row])) == digest
    # one changed element, or another M: another digest
    edited = [v.copy() for v in row]
    edited[1][0, 500] = np.nextafter(edited[1][0, 500], 10.0)
    assert coefficient_fingerprint(*_broadcast(m, edited)) != digest
    assert coefficient_fingerprint(*_broadcast(m - 1, row)) != digest
    # the two forms never share a cache entry
    assert coefficient_fingerprint(*_materialized(arrays)) != digest


def test_binding_one_matrix_for_a_large_batch_holds_one_row_of_memory():
    # validation, the digest and the k = 0 factorization each read the
    # row: a (1024, 1024) bind allocates O(N), not four (M, N) arrays
    m, n = 1024, 1024
    zero = _zero(m, n, np.float64)
    opts = dict(backend="engine", k=0, fingerprint=True)
    bind_via(*_broadcast(m, _row(n, np.float64, seed=20)), zero, **opts).close()
    arrays = _broadcast(m, _row(n, np.float64, seed=21))
    tracemalloc.start()
    try:
        session = bind_via(*arrays, zero, **opts)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    with session:
        assert session.describe()["factorization"] == "factored"
        assert session.describe()["factorization_bytes"] == 3 * n * 8
    assert peak < 1 << 20


# ------------------------------------------------------------------ bits


@pytest.mark.parametrize("k", [0, 3])
@pytest.mark.parametrize("dtype", DTYPES)
def test_a_broadcast_session_steps_the_materialized_bits(dtype, k):
    m, n = 64, 200
    arrays = _broadcast(m, _row(n, dtype, seed=11))
    zero = _zero(m, n, dtype)
    opts = dict(backend="engine", k=k, fingerprint=True)
    with bind_via(*arrays, zero, **opts) as s, bind_via(
        *_materialized(arrays), np.zeros((m, n), dtype=dtype), **opts
    ) as ref:
        assert s.describe()["mode"] == "rhs"
        if k == 0:
            assert s.describe()["factorization_bytes"] == 3 * n * zero.itemsize
        for seed in range(2):
            d = _rhs(m, n, dtype, seed=seed)
            dt = np.ascontiguousarray(d.T)
            assert s.step(d).tobytes() == ref.step(d).tobytes()
            assert s.step_t(dt).tobytes() == ref.step_t(dt).tobytes()
            assert s.step_once(d).x.tobytes() == ref.step_once(d).x.tobytes()
        assert s.step_once().x.tobytes() == ref.step_once().x.tobytes()


@pytest.mark.parametrize("k", [0, 3])
@pytest.mark.parametrize("dtype", DTYPES)
def test_broadcast_one_shots_and_handles_give_the_materialized_bits(dtype, k):
    m, n = 48, 160
    arrays = _broadcast(m, _row(n, dtype, seed=12))
    full = _materialized(arrays)
    d = _rhs(m, n, dtype, seed=13)
    ref = repro.solve_batch(*full, d, k=k, fingerprint=False)
    assert repro.solve_batch(*arrays, d, k=k, fingerprint=False).tobytes() == ref.tobytes()
    engine = ExecutionEngine()
    # the auto tier: a miss, then a factored sighting, then a hit
    for _ in range(3):
        x = engine.solve_batch(*arrays, d, k=k, fingerprint=True if k else None)
        assert x.tobytes() == ref.tobytes()
    assert repro.prepare(*arrays, k=k, engine=engine).solve(d).tobytes() == ref.tobytes()


@pytest.mark.parametrize("dtype", DTYPES)
def test_broadcast_periodic_solves_give_the_materialized_bits(dtype):
    m, n = 32, 96
    arrays = _broadcast(m, periodic_heat_coefficients(1, n, 1.0, 0.5, 1.0, dtype=dtype))
    full = _materialized(arrays)
    d = _rhs(m, n, dtype, seed=14)
    ref = repro.solve_batch(*full, d, periodic=True, k=0, fingerprint=False)
    x = repro.solve_batch(*arrays, d, periodic=True, k=0, fingerprint=False)
    assert x.tobytes() == ref.tobytes()
    for fingerprint, mode in ((True, "cyclic"), (False, "full-cyclic")):
        with bind_via(
            *arrays, _zero(m, n, dtype), backend="engine", periodic=True, k=0,
            fingerprint=fingerprint,
        ) as s:
            assert s.describe()["mode"] == mode
            assert s.step(d).tobytes() == ref.tobytes()


def test_a_broadcast_ranks_session_keeps_the_reference_bits():
    m, n = 64, 512
    arrays = _broadcast(m, _row(n, np.float64, seed=15))
    full = _materialized(arrays)
    with bind_via(*arrays, _zero(m, n, np.float64), backend="distributed", ranks=2) as s:
        for seed in range(2):
            d = _rhs(m, n, np.float64, seed=seed)
            ref = partitioned_solve_reference(*full, d, 2)
            assert s.step(d).tobytes() == ref.tobytes()


@pytest.mark.parametrize("backend", ["numpy", "gpusim"])
def test_the_reference_backends_give_broadcast_inputs_the_materialized_bits(backend):
    m, n = 16, 128
    arrays = _broadcast(m, _row(n, np.float64, seed=16))
    full = _materialized(arrays)
    d = _rhs(m, n, np.float64, seed=17)
    x, _ = solve_via(*arrays, d, backend=backend)
    ref, _ = solve_via(*full, d, backend=backend)
    assert x.tobytes() == ref.tobytes()
    with bind_via(*arrays, _zero(m, n, np.float64), backend=backend) as s:
        assert s.step(d).tobytes() == ref.tobytes()


@pytest.mark.parametrize("fingerprint", [True, None])
def test_the_service_gives_broadcast_fragments_the_solo_bits(fingerprint):
    # fingerprint=True groups by digest and binds the shared column;
    # None coalesces by concatenation
    m, n = 8, 256
    arrays = _broadcast(m, _row(n, np.float64, seed=18))
    full = _materialized(arrays)
    ds = [_rhs(m, n, np.float64, seed=s) for s in range(6)]
    refs = [repro.solve_batch(*full, d, k=0, fingerprint=False) for d in ds]

    async def main():
        async with SolveService(ServiceConfig(max_wait_us=500.0)) as svc:
            xs = await asyncio.gather(*[
                svc.submit(*arrays, d, fingerprint=fingerprint) for d in ds
            ])
            return xs, svc.describe()

    xs, desc = asyncio.run(asyncio.wait_for(main(), 120.0))
    assert desc["dispatches"] == 1
    if fingerprint:
        assert desc["shared_factorizations"] == 1
        assert desc["bound_session_bytes"] == 3 * n * 8
    for x, r in zip(xs, refs):
        assert x.tobytes() == r.tobytes()


# ------------------------------------------------------------ simulators


SIMULATORS = {
    "adi2d": lambda u: ADIDiffusion2D(u((1024, 48)), 0.2, 0.5),
    "adi3d": lambda u: ADIDiffusion3D(u((32, 32, 32)), 0.2, 0.5),
    "cn": lambda u: CrankNicolsonCubic(u((16, 64)), 0.1, 0.05),
    "cn-periodic": lambda u: CrankNicolsonCubic(u((16, 64)), 0.1, 0.05, periodic=True),
}


def _sessions(sim):
    names = ("_row", "_col", "_sx", "_sy", "_sz", "_session")
    return [getattr(sim, name) for name in names if hasattr(sim, name)]


@pytest.mark.parametrize("name", sorted(SIMULATORS))
def test_every_simulator_session_holds_broadcast_requests(name):
    rng = np.random.default_rng(19)
    with SIMULATORS[name](rng.random) as sim:
        sessions = _sessions(sim)
        assert sessions
        for s in sessions:
            request = s.request
            held = [
                v for v in (request.a, request.b, request.c, request.d)
                if v is not None
            ]
            assert held and all(v.strides[0] == 0 for v in held)
            desc = s.describe()
            if desc["k"] == 0 and desc["mode"] == "rhs":
                assert desc["factorization_bytes"] == 3 * s.n * 8
        sim.step()
        assert np.all(np.isfinite(sim.u))
