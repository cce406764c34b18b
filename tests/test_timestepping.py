"""Session-driven simulators: LOD layouts, physics, and ownership.

:class:`~repro.workloads.timestepping.ADIDiffusion3D` keeps its field
in C order ``[z, y, x]`` and runs the x sweep through ``step``, the y
and z sweeps through ``step_t``.  These tests pin what that must not
change: every step bitwise equal to the per-call
``PreparedPlan.solve`` loop (on the ``k = 0`` Thomas sweeps and on the
``k > 0`` fallback), agreement with the dense ``reference_step``, the
exact decay of a separable eigenmode and conservation of mass, an
allocation budget for the warm step, and that no simulator ever steps
the caller's initial array.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

import repro
from repro.workloads import (
    ADIDiffusion2D,
    ADIDiffusion3D,
    CrankNicolsonCubic,
    mirror_laplacian,
)
from repro.workloads.pde import adi_row_coefficients

ALPHA, DT = 0.2, 0.5


def _prepared_step(handles, u, beta):
    """One LOD step written as a per-call ``PreparedPlan.solve`` loop."""

    def sweep(handle, v):
        d = v + beta * mirror_laplacian(v)
        shape = v.shape
        return handle.solve(d.reshape(shape[0] * shape[1], shape[2])).reshape(shape)

    u = sweep(handles[0], u)
    ut = np.ascontiguousarray(u.transpose(0, 2, 1))
    ut = sweep(handles[1], ut)
    u = ut.transpose(0, 2, 1)
    ut = np.ascontiguousarray(u.transpose(1, 2, 0))
    ut = sweep(handles[2], ut)
    return np.ascontiguousarray(ut.transpose(2, 0, 1))


def neumann_mode(n: int) -> tuple[np.ndarray, float]:
    """Lowest cosine eigenmode of the mirrored Laplacian and its eigenvalue."""
    phi = np.cos(np.pi * (np.arange(n) + 0.5) / n)
    return phi, -4.0 * np.sin(np.pi / (2 * n)) ** 2


# (32, 36, 40) runs all three sweeps on k = 0 Thomas (step_t proper);
# (6, 7, 9) runs them on k > 0, where step_t falls back to step
@pytest.mark.parametrize("shape, thomas", [((32, 36, 40), True), ((6, 7, 9), False)])
@pytest.mark.parametrize("workers", [None, 3])
def test_lod_step_is_bitwise_the_per_call_loop(shape, thomas, workers):
    nz, ny, nx = shape
    u0 = np.random.default_rng(sum(shape)).random(shape)
    sim = ADIDiffusion3D(u0, ALPHA, DT, workers=workers)
    beta = sim.beta
    handles = [
        repro.prepare(*adi_row_coefficients(m, n, beta))
        for m, n in ((nz * ny, nx), (nz * nx, ny), (ny * nx, nz))
    ]
    try:
        ks = {s.describe()["k"] for s in (sim._sx, sim._sy, sim._sz)}
        assert ks == {0} if thomas else 0 not in ks, ks
        u = u0
        for step in range(5):
            u = _prepared_step(handles, u, beta)
            assert np.array_equal(sim.step(), u), step
    finally:
        sim.close()
        for handle in handles:
            handle.close()


@pytest.mark.parametrize(
    "cls, shape",
    [
        (ADIDiffusion3D, (7, 9, 11)),
        (ADIDiffusion3D, (5, 2, 6)),
        (ADIDiffusion2D, (2, 9)),
    ],
    ids=["3d", "3d-two-point-axis", "2d-two-point-axis"],
)
def test_step_matches_dense_reference(cls, shape):
    with cls(np.random.default_rng(11).random(shape), ALPHA, DT) as sim:
        ref = sim.u.copy()
        for _ in range(5):
            ref = sim.reference_step(ref)
        sim.run(5)
        assert np.abs(sim.u - ref).max() < 1e-12


def test_lod_separable_mode_decays_exactly_and_mass_is_conserved():
    shape = (32, 36, 40)
    modes = [neumann_mode(n) for n in shape]
    mode = np.einsum("i,j,k->ijk", *(phi for phi, _ in modes))
    amp0, steps = 0.3, 20
    with ADIDiffusion3D(1.0 + amp0 * mode, ALPHA, DT) as sim:
        beta = sim.beta
        gain = np.prod([(1.0 + beta * lam) / (1.0 - beta * lam) for _, lam in modes])
        mass0 = sim.u.sum()
        sim.run(steps)
        amp = (sim.u - 1.0).ravel() @ mode.ravel() / (mode**2).sum()
        assert abs(amp - amp0 * gain**steps) < 1e-12
        assert abs(sim.u.sum() - mass0) / mass0 < 1e-12


def test_warm_lod_step_allocates_under_one_field_and_reuses_the_field():
    with ADIDiffusion3D(np.random.default_rng(3).random((32, 32, 32)), ALPHA, DT) as sim:
        assert {s.describe()["k"] for s in (sim._sx, sim._sy, sim._sz)} == {0}
        field = sim.u
        sim.step()
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            out = sim.step()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < field.nbytes, peak / field.nbytes
        assert out is field and sim.step() is field and sim.u is field


@pytest.mark.parametrize(
    "cls, shape, kw",
    [
        (ADIDiffusion2D, (8, 10), dict(alpha=ALPHA, dt=DT)),
        (ADIDiffusion3D, (6, 8, 10), dict(alpha=ALPHA, dt=DT)),
        (CrankNicolsonCubic, (6, 64), dict(alpha=0.1, dt=0.02)),
        (CrankNicolsonCubic, (6, 64), dict(alpha=0.1, dt=0.02, periodic=True)),
    ],
    ids=["adi2d", "adi3d", "cn", "cn-periodic"],
)
def test_simulators_never_step_the_callers_array(cls, shape, kw):
    u0 = np.random.default_rng(5).random(shape)  # C-ordered float64
    before = u0.copy()
    with cls(u0, **kw) as sim:
        sim.run(3)
        assert not np.array_equal(sim.u, before)
    assert np.array_equal(u0, before)


@pytest.mark.parametrize(
    "cls, shape, axis",
    [
        (ADIDiffusion2D, (1, 8), "ny"),
        (ADIDiffusion2D, (8, 1), "nx"),
        (ADIDiffusion3D, (1, 6, 8), "nz"),
        (ADIDiffusion3D, (4, 1, 8), "ny"),
        (ADIDiffusion3D, (4, 6, 0), "nx"),
    ],
    ids=["2d-ny", "2d-nx", "3d-nz", "3d-ny", "3d-nx"],
)
def test_adi_rejects_an_axis_shorter_than_two_points(cls, shape, axis):
    with pytest.raises(ValueError, match=f"axis {axis} "):
        cls(np.ones(shape), ALPHA, DT)
