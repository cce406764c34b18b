#!/usr/bin/env python
"""2-D and 3-D ADI diffusion driven by bound solve sessions.

Alternating-direction-implicit time stepping is the canonical
bind/execute workload: the two sweep matrices are fixed for the whole
simulation while a fresh right-hand side arrives every half-step.
:class:`repro.workloads.ADIDiffusion2D` therefore binds one
:class:`~repro.engine.session.BoundSolve` per sweep direction at
construction and runs an allocation-free ``step`` loop — no per-step
validation, plan lookup, factorization fetch, or trace construction.

The script verifies physics, not just algebra: with the mirrored
boundary closure, the separable mode cos(pi(i+1/2)/n) is an exact
eigenvector of the discrete scheme, so its amplitude must follow the
Peaceman-Rachford amplification factor exactly; total mass must not
drift at all.  A short dense-reference run cross-checks the session
path against independent linear algebra.  The 3-D section runs the
same checks on :class:`repro.workloads.ADIDiffusion3D`, whose LOD
splitting damps the separable mode by the product of three
per-axis Crank-Nicolson factors.

Run:  python examples/adi_sessions.py
"""

import numpy as np

import repro
from repro.workloads import ADIDiffusion2D, ADIDiffusion3D, CrankNicolsonCubic


def neumann_mode(n: int) -> tuple[np.ndarray, float]:
    """Lowest cosine eigenmode of the mirrored discrete Laplacian."""
    phi = np.cos(np.pi * (np.arange(n) + 0.5) / n)
    lam = -4.0 * np.sin(np.pi / (2 * n)) ** 2
    return phi, lam


def main() -> None:
    ny, nx = 192, 240
    alpha, dt = 0.2, 0.8
    steps = 200

    # initial condition: uniform background + one separable cosine mode
    phi_x, lam_x = neumann_mode(nx)
    phi_y, lam_y = neumann_mode(ny)
    mode = np.outer(phi_y, phi_x)
    amp0 = 0.3
    u0 = 1.0 + amp0 * mode

    sim = ADIDiffusion2D(u0, alpha, dt)
    bx, by = sim.beta_x, sim.beta_y
    # exact per-step amplification of the Peaceman-Rachford splitting
    gain = ((1.0 + bx * lam_x) * (1.0 + by * lam_y)) / (
        (1.0 - bx * lam_x) * (1.0 - by * lam_y)
    )
    print(f"{ny} x {nx} grid, {steps} ADI steps of dt={dt}")
    print(f"analytic mode decay over the run: {gain ** steps:.6f}")

    mass0 = sim.u.sum()
    sim.run(steps)
    row, col = sim._row.describe(), sim._col.describe()
    stats = repro.default_engine().stats
    print(
        f"sessions: row {row['mode']} x{row['steps']} steps, "
        f"col {col['mode']} x{col['steps']} steps "
        f"(engine built {stats.factorizations_built} factorization(s) at bind, "
        f"{stats.plans_built} plan(s))"
    )

    # the cosine mode is an exact eigenvector: projection must match
    measured = (sim.u - 1.0).ravel() @ mode.ravel() / (mode ** 2).sum()
    expected = amp0 * gain**steps
    err = abs(measured - expected)
    drift = abs(sim.u.sum() - mass0) / abs(mass0)
    print(f"measured mode amplitude: {measured:.8f} (expected {expected:.8f})")
    print(f"max |measured - analytic| = {err:.2e}, relative mass drift = {drift:.2e}")
    sim.close()
    if err > 1e-8 or drift > 1e-12:
        raise SystemExit("ADI sessions example FAILED its physics check")

    # cross-check the session path against dense linear algebra
    rng = np.random.default_rng(7)
    small = ADIDiffusion2D(rng.random((40, 32)), alpha, dt)
    ref = small.u.copy()
    for _ in range(5):
        ref = small.reference_step(ref)
    small.run(5)
    dense_err = np.abs(small.u - ref).max()
    small.close()
    print(f"dense-reference cross-check (40x32, 5 steps): {dense_err:.2e}")
    if dense_err > 1e-11:
        raise SystemExit("ADI sessions example FAILED its reference check")

    # 3-D: locally one-dimensional splitting, three Crank-Nicolson sweeps
    # per step; each axis damps the separable mode by (1+b*lam)/(1-b*lam)
    shape = (32, 36, 40)
    modes = [neumann_mode(n) for n in shape]
    mode3 = np.einsum("i,j,k->ijk", *(phi for phi, _ in modes))
    with ADIDiffusion3D(1.0 + amp0 * mode3, alpha, dt=0.5) as lod:
        b = lod.beta
        gain3 = np.prod([(1.0 + b * lam) / (1.0 - b * lam) for _, lam in modes])
        mass3 = lod.u.sum()
        lod.run(20)
        measured3 = (lod.u - 1.0).ravel() @ mode3.ravel() / (mode3**2).sum()
        err3 = abs(measured3 - amp0 * gain3**20)
        drift3 = abs(lod.u.sum() - mass3) / abs(mass3)
    print(
        f"3-D LOD {shape}, 20 steps: mode amplitude error {err3:.2e}, "
        f"relative mass drift {drift3:.2e}"
    )
    if err3 > 1e-12 or drift3 > 1e-12:
        raise SystemExit("ADI sessions example FAILED its 3-D physics check")

    # coda: the same session machinery serves IMEX reaction-diffusion —
    # a periodic Allen-Cahn run rides the cyclic session path and must
    # stay inside the stable band [-1, 1]
    x = np.linspace(0.0, 2.0 * np.pi, 256, endpoint=False)
    fields = 0.4 * np.sin(x)[None, :] * np.linspace(0.5, 1.5, 8)[:, None]
    cn = CrankNicolsonCubic(fields, alpha=0.05, dt=0.05, periodic=True)
    cn.run(400)
    bound = np.abs(cn.u).max()
    mode_name = cn._session.describe()["mode"]
    print(f"Allen-Cahn coda: {mode_name} session, max |u| = {bound:.6f}")
    cn.close()
    if bound > 1.0 + 1e-9:
        raise SystemExit("ADI sessions example FAILED its Allen-Cahn check")
    print("ADI sessions example PASSED")


if __name__ == "__main__":
    main()
