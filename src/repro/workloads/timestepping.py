"""Time-stepping applications driving the bind/execute spine.

The motivating workloads of the session tier — ADI diffusion and
IMEX Crank–Nicolson — solve the *same matrix* against thousands of
right-hand sides.  Each simulator here binds one
:class:`~repro.engine.session.BoundSolve` per sweep direction at
construction (:func:`repro.backends.registry.bind_via`), then runs an
allocation-light ``step`` loop: explicit operators are applied in
place into reused buffers, and every implicit sweep is a session
``step`` or ``step_t`` — no per-step validation, plan lookup,
factorization fetch, or trace construction.  ``step`` advances the
simulator's own copy of the initial field in place.

* :class:`ADIDiffusion2D` — Peaceman–Rachford alternating-direction
  implicit diffusion on an ``(ny, nx)`` grid: two half-steps, one
  session per sweep direction (the row sweep solves the grid as an
  ``(ny, nx)`` batch, the column sweep its transpose).
* :class:`ADIDiffusion3D` — Yanenko's locally-one-dimensional (LOD)
  splitting on an ``(nz, ny, nx)`` grid: three Crank–Nicolson sweeps
  per step on a field that stays in C order ``[z, y, x]``.  The x
  sweep is a session ``step`` on the contiguous x rows, the y sweep a
  ``step_t`` on a ``[y, z, x]`` row-block copy, and the z sweep a
  ``step_t`` straight on the field's ``(nz, ny·nx)`` view.
* :class:`CrankNicolsonCubic` — 1-D IMEX reaction–diffusion
  ``u_t = α·u_xx + ε·u − γ·u³`` (the real Ginzburg–Landau / Allen–Cahn
  shape): Crank–Nicolson diffusion implicit, cubic source explicit,
  with a ``periodic=True`` variant riding the cyclic session path.

Every simulator exposes ``reference_step`` — the same operators
evaluated through dense linear algebra — so tests and
``benchmarks/bench_applications.py`` can measure accuracy against an
independent implementation on small grids.

The implicit matrices come from :mod:`repro.workloads.pde`
(:func:`~repro.workloads.pde.adi_row_coefficients`,
:func:`~repro.workloads.pde.crank_nicolson_coefficients`,
:func:`~repro.workloads.pde.periodic_heat_coefficients`), so the
boundary closures match the rest of the workload suite: mirrored
missing neighbours for ADI, Dirichlet identity rows for plain CN,
cyclic corners for the periodic variant.  Every sweep solves one matrix
for all its lines, so each is built as one ``(1, N)`` row and bound as
a broadcast of it (:func:`_bind_one_matrix`): binding costs O(N).
"""

from __future__ import annotations

import numpy as np

from repro.backends.registry import bind_via
from repro.core.layout import transpose_into
from repro.workloads.pde import (
    adi_row_coefficients,
    crank_nicolson_coefficients,
    crank_nicolson_rhs,
    periodic_heat_coefficients,
    periodic_heat_rhs,
)

__all__ = [
    "ADIDiffusion2D",
    "ADIDiffusion3D",
    "CrankNicolsonCubic",
    "mirror_laplacian",
]


def mirror_laplacian(u: np.ndarray, axis: int = -1, out=None) -> np.ndarray:
    """Second difference along ``axis`` with mirrored missing neighbours.

    The explicit counterpart of the implicit closure in
    :func:`~repro.workloads.pde.adi_row_coefficients` (``b`` carries
    ``1 + β`` at the ends): at each boundary the out-of-grid neighbour
    mirrors the boundary point, so the operator's row sums vanish and
    diffusion conserves the field's total mass.
    """
    if out is None:
        out = np.empty_like(u)
    # native-axis slicing (no transposed views): the interior update is
    # three in-place ufunc passes evaluating (u_prev - 2*u_mid) + u_next
    pre = (slice(None),) * (axis % u.ndim)
    mid = pre + (slice(1, -1),)
    lo2, hi2 = pre + (slice(None, -2),), pre + (slice(2, None),)
    np.multiply(u[mid], 2.0, out=out[mid])
    np.subtract(u[lo2], out[mid], out=out[mid])
    np.add(out[mid], u[hi2], out=out[mid])
    np.subtract(u[pre + (1,)], u[pre + (0,)], out=out[pre + (0,)])
    np.subtract(u[pre + (-2,)], u[pre + (-1,)], out=out[pre + (-1,)])
    return out


def _own_field(u0, names: tuple, min_points: int = 0) -> np.ndarray:
    """A private C-ordered float64 copy of ``u0``, checked axis by axis.

    The simulators step their field in place, so the copy is what
    keeps the caller's array untouched.  ADI grids pass
    ``min_points=2``: the mirror closure couples each boundary point
    to its neighbour.
    """
    u = np.array(u0, dtype=np.float64, order="C")
    if u.ndim != len(names):
        raise ValueError(f"u0 must be ({', '.join(names)}), got {u.ndim}-D")
    for name, size in zip(names, u.shape):
        if size < min_points:
            raise ValueError(
                f"u0 axis {name} has {size} point(s); the ADI sweeps "
                f"need at least {min_points} along every axis"
            )
    return u


def _bind_one_matrix(m: int, row, **kw):
    """Bind ``m`` systems of one matrix given as ``(1, N)`` diagonals.

    The request holds broadcast views of the row and of a zero
    right-hand side (batch-axis stride 0), so validation, the
    fingerprint and a ``k = 0`` factorization each read one row: the
    bind costs O(N) time and memory where ``(m, N)`` copies would cost
    O(m·N), with the same bits.
    """
    a, b, c = (np.broadcast_to(v, (m, v.shape[-1])) for v in row)
    zero = np.broadcast_to(np.zeros_like(row[1]), b.shape)
    return bind_via(a, b, c, zero, **kw)


def _sweep_matrix(n: int, beta: float, dtype) -> np.ndarray:
    """Dense ``(I − β·L)`` with the mirror closure, for references."""
    A = np.zeros((n, n), dtype=dtype)
    idx = np.arange(n)
    A[idx, idx] = 1.0 + 2.0 * beta
    A[idx[:-1], idx[:-1] + 1] = -beta
    A[idx[1:], idx[1:] - 1] = -beta
    A[0, 0] = 1.0 + beta
    A[n - 1, n - 1] = 1.0 + beta
    return A


class ADIDiffusion2D:
    """Peaceman–Rachford ADI diffusion on an ``(ny, nx)`` grid.

    Each step is two half-steps: implicit in x / explicit in y, then
    implicit in y / explicit in x, both with parameter
    ``β = α·Δt / (2·Δ²)`` per direction.  The two sweep matrices are
    fixed for the whole simulation, so construction binds one session
    per direction and ``step`` touches only right-hand sides.

    Parameters
    ----------
    u0:
        Initial ``(ny, nx)`` field, copied (the caller's array is never
        stepped); both axes need at least 2 points.
    alpha, dt:
        Diffusivity and time step.
    dx, dy:
        Grid spacings (``dy`` defaults to ``dx``).
    backend, check:
        Forwarded to :func:`~repro.backends.registry.bind_via` for both
        sessions.
    """

    def __init__(
        self,
        u0,
        alpha: float,
        dt: float,
        dx: float = 1.0,
        dy: float | None = None,
        *,
        backend: str = "auto",
        check: bool = True,
    ):
        self.u = _own_field(u0, ("ny", "nx"), min_points=2)
        self.ny, self.nx = self.u.shape
        dy = dx if dy is None else dy
        self.beta_x = alpha * dt / (2.0 * dx * dx)
        self.beta_y = alpha * dt / (2.0 * dy * dy)
        self.dt = dt
        self.t = 0.0
        self.steps = 0
        # fingerprint=True declares the many-RHS reuse intent: the bind
        # licenses a stored factorization at any batch size, so every
        # step runs the RHS-only fast path
        kw = dict(backend=backend, check=check, fingerprint=True)
        self._row = _bind_one_matrix(
            self.ny, adi_row_coefficients(1, self.nx, self.beta_x), **kw
        )
        self._col = _bind_one_matrix(
            self.nx, adi_row_coefficients(1, self.ny, self.beta_y), **kw
        )
        # the whole step runs in the sweeps' native transposed layout:
        # tmp/lap are (ny, nx) scratch, d1t/tmp_t stage the (nx, ny)
        # row-sweep RHS, d2 the (ny, nx) column-sweep RHS
        self._lap = np.empty_like(self.u)
        self._tmp = np.empty_like(self.u)
        self._d1t = np.empty((self.nx, self.ny))
        self._tmp_t = np.empty((self.nx, self.ny))
        self._d2 = np.empty_like(self.u)

    def step(self) -> np.ndarray:
        """Advance one Δt in place; returns ``self.u`` (the same array every call).

        Both implicit sweeps run through the sessions' transposed-layout
        ``step_t`` — each solve reads/writes the ``(N, M)`` orientation
        the Thomas sweep uses internally, so no staging transposes are
        paid inside the solves.  The second half-step's explicit
        operator uses the Peaceman–Rachford identity
        ``(I + βx·Lx)·u* = 2·u* − d1`` (exact: ``u*`` solved
        ``(I − βx·Lx)·u* = d1``), which avoids re-applying the stencil.
        """
        u, lap, tmp = self.u, self._lap, self._tmp
        # half-step 1: d1 = (I + βy·Ly)·u, staged into the row sweep's
        # (nx, ny) layout; implicit x along the rows
        mirror_laplacian(u, axis=0, out=lap)
        np.multiply(lap, self.beta_y, out=tmp)
        np.add(tmp, u, out=tmp)
        transpose_into(tmp, self._d1t)
        ustar_t = self._row.step_t(self._d1t)  # (nx, ny) session buffer
        # half-step 2: d2 = 2·u* − d1, already in (nx, ny); transpose
        # into the column sweep's (ny, nx) layout and solve in place
        np.multiply(ustar_t, 2.0, out=self._tmp_t)
        np.subtract(self._tmp_t, self._d1t, out=self._tmp_t)
        transpose_into(self._tmp_t, self._d2)
        self._col.step_t(self._d2, out_t=self.u)
        self.t += self.dt
        self.steps += 1
        return self.u

    def run(self, n_steps: int) -> np.ndarray:
        """Advance ``n_steps`` and return the field."""
        for _ in range(n_steps):
            self.step()
        return self.u

    def reference_step(self, u: np.ndarray) -> np.ndarray:
        """The same Peaceman–Rachford step through dense solves."""
        u = np.asarray(u, dtype=np.float64)
        Ax = _sweep_matrix(self.nx, self.beta_x, u.dtype)
        Ay = _sweep_matrix(self.ny, self.beta_y, u.dtype)
        d1 = u + self.beta_y * mirror_laplacian(u, axis=0)
        ustar = np.linalg.solve(Ax, d1.T).T
        d2 = 2.0 * ustar - d1  # the same (I + βx·Lx)·u* identity
        return np.linalg.solve(Ay, d2)

    def close(self) -> None:
        """Release both sweep sessions."""
        self._row.close()
        self._col.close()

    def __enter__(self) -> "ADIDiffusion2D":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class ADIDiffusion3D:
    """LOD (locally one-dimensional) implicit diffusion on ``(nz, ny, nx)``.

    Yanenko's locally one-dimensional splitting: each step runs three
    Crank–Nicolson sweeps — x, then y, then z — each implicit only
    along its own axis with ``β = α·Δt / (2·Δ²)`` and served by its own
    bound session.  The field stays in its C order ``[z, y, x]`` and
    each sweep takes the session entry that fits where its axis lies:

    * **x** — the lines are contiguous rows (batch row ``z·ny + y``),
      so the sweep is a plain ``step`` on the ``(nz·ny, nx)`` view; its
      staging transposes inside the solve are the step's only two
      elementwise transposes.
    * **y** — the field is copied to ``[y, z, x]`` and back, which
      moves whole contiguous x rows; the ``(ny, nz·nx)`` view of that
      copy is the ``step_t`` layout of batch rows ``z·nx + x``.
    * **z** — ``[z, y, x]`` already is the ``(nz, ny·nx)`` ``step_t``
      layout of batch rows ``y·nx + x``; the sweep writes straight
      into the field.

    Each sweep's explicit half folds in place into one scratch buffer
    (``d = w + β·L(w)``), so a warm step allocates nothing
    field-sized.  Every axis needs at least 2 points.
    """

    def __init__(
        self,
        u0,
        alpha: float,
        dt: float,
        dx: float = 1.0,
        *,
        backend: str = "auto",
        check: bool = True,
    ):
        self.u = _own_field(u0, ("nz", "ny", "nx"), min_points=2)
        self.nz, self.ny, self.nx = self.u.shape
        self.beta = alpha * dt / (2.0 * dx * dx)
        self.dt = dt
        self.t = 0.0
        self.steps = 0
        kw = dict(backend=backend, check=check, fingerprint=True)
        nz, ny, nx = self.nz, self.ny, self.nx
        self._sx, self._sy, self._sz = (
            _bind_one_matrix(m, adi_row_coefficients(1, n, self.beta), **kw)
            for m, n in ((nz * ny, nx), (nz * nx, ny), (ny * nx, nz))
        )
        # _d holds each sweep's right-hand side, _t the field in the y
        # sweep's [y, z, x] order
        self._d = np.empty_like(self.u)
        self._t = np.empty((ny, nz, nx))

    def _fold(self, w: np.ndarray, axis: int, out: np.ndarray) -> np.ndarray:
        """``out = w + β·L(w)`` along ``axis``: one buffer, no temporaries."""
        mirror_laplacian(w, axis=axis, out=out)
        np.multiply(out, self.beta, out=out)
        np.add(out, w, out=out)
        return out

    def step(self) -> np.ndarray:
        """Advance one Δt in place; returns ``self.u`` (the same array every call)."""
        u, t = self.u, self._t
        nz, ny, nx = self.nz, self.ny, self.nx
        # x: contiguous lines, one staging-transpose pair inside step
        d = self._fold(u, 2, self._d)
        self._sx.step(d.reshape(nz * ny, nx), out=u.reshape(nz * ny, nx))
        # y: x rows moved to [y, z, x] and back around step_t
        t[:] = u.transpose(1, 0, 2)
        d = self._fold(t, 0, self._d.reshape(ny, nz, nx))
        self._sy.step_t(d.reshape(ny, nz * nx), out_t=t.reshape(ny, nz * nx))
        u[:] = t.transpose(1, 0, 2)
        # z: [z, y, x] is already the step_t layout
        d = self._fold(u, 0, self._d)
        self._sz.step_t(d.reshape(nz, ny * nx), out_t=u.reshape(nz, ny * nx))
        self.t += self.dt
        self.steps += 1
        return u

    def run(self, n_steps: int) -> np.ndarray:
        """Advance ``n_steps`` and return the field."""
        for _ in range(n_steps):
            self.step()
        return self.u

    def reference_step(self, u: np.ndarray) -> np.ndarray:
        """The same three LOD sweeps through dense solves."""
        u = np.asarray(u, dtype=np.float64)

        def dense_sweep(v):
            A = _sweep_matrix(v.shape[-1], self.beta, v.dtype)
            d = v + self.beta * mirror_laplacian(v)
            flat = d.reshape(-1, v.shape[-1])
            return np.linalg.solve(A, flat.T).T.reshape(v.shape)

        u = dense_sweep(u)
        u = dense_sweep(u.transpose(0, 2, 1)).transpose(0, 2, 1)
        u = dense_sweep(u.transpose(1, 2, 0)).transpose(2, 0, 1)
        return u

    def close(self) -> None:
        """Release all three sweep sessions."""
        self._sx.close()
        self._sy.close()
        self._sz.close()

    def __enter__(self) -> "ADIDiffusion3D":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class CrankNicolsonCubic:
    """IMEX Crank–Nicolson for ``u_t = α·u_xx + ε·u − γ·u³``.

    The real Ginzburg–Landau / Allen–Cahn shape: diffusion is treated
    implicitly (Crank–Nicolson, unconditionally stable) and the cubic
    reaction explicitly, so the step matrix stays linear and fixed —
    one bound session serves the whole simulation.  ``periodic=True``
    closes the domain into a ring: the cyclic-convention matrix of
    :func:`~repro.workloads.pde.periodic_heat_coefficients` binds a
    cyclic session, and the explicit stencil wraps via ``np.roll``.
    With ``periodic=False`` the Dirichlet identity rows hold the
    boundary values fixed (the reaction is not applied there).

    ``u0`` is ``(M, N)`` — ``M`` independent 1-D fields stepped as one
    batch, the library's native workload shape.  It is copied: ``step``
    writes the simulator's own field in place.
    """

    def __init__(
        self,
        u0,
        alpha: float,
        dt: float,
        dx: float = 1.0,
        *,
        eps: float = 1.0,
        gamma: float = 1.0,
        periodic: bool = False,
        backend: str = "auto",
        check: bool = True,
    ):
        self.u = _own_field(u0, ("M", "N"))
        m, n = self.u.shape
        self.alpha, self.dt, self.dx = alpha, dt, dx
        self.eps, self.gamma = eps, gamma
        self.periodic = periodic
        self.t = 0.0
        self.steps = 0
        coefficients = (
            periodic_heat_coefficients if periodic else crank_nicolson_coefficients
        )
        self._session = _bind_one_matrix(
            m, coefficients(1, n, alpha, dt, dx),
            backend=backend, periodic=periodic,
            check=check, fingerprint=True,
        )
        self._r = alpha * dt / (2.0 * dx * dx)
        self._d = np.empty_like(self.u)
        self._react = np.empty_like(self.u)
        self._scratch = np.empty_like(self.u)

    def _reaction(self, u: np.ndarray, out: np.ndarray) -> np.ndarray:
        """``Δt·(ε·u − γ·u³)`` evaluated in place into ``out``."""
        np.multiply(u, u, out=out)
        out *= u                       # u³
        out *= -self.gamma
        out += self.eps * u
        out *= self.dt
        return out

    def _rhs(self, u: np.ndarray) -> np.ndarray:
        """The explicit half, in place into ``self._d``.

        Operation-for-operation the spec functions
        :func:`~repro.workloads.pde.crank_nicolson_rhs` /
        :func:`~repro.workloads.pde.periodic_heat_rhs`, evaluated
        through reused scratch instead of fresh allocations — the
        values are bitwise identical (same ufuncs, same order).
        """
        r, d, s = self._r, self._d, self._scratch
        if self.periodic:
            d[:, 0] = u[:, -1]           # np.roll(u, 1, axis=1)
            d[:, 1:] = u[:, :-1]
            d *= r
            np.multiply(u, 1.0 - 2.0 * r, out=s)
            np.add(d, s, out=d)
            s[:, :-1] = u[:, 1:]         # np.roll(u, -1, axis=1)
            s[:, -1] = u[:, 0]
            s *= r
            np.add(d, s, out=d)
        else:
            di, si = d[:, 1:-1], s[:, 1:-1]
            np.multiply(u[:, :-2], r, out=di)
            np.multiply(u[:, 1:-1], 1.0 - 2.0 * r, out=si)
            np.add(di, si, out=di)
            np.multiply(u[:, 2:], r, out=si)
            np.add(di, si, out=di)
            d[:, 0] = u[:, 0]
            d[:, -1] = u[:, -1]
        return d

    def step(self) -> np.ndarray:
        """Advance one Δt in place; returns ``self.u`` (the same array every call)."""
        u = self.u
        d = self._rhs(u)
        if self.periodic:
            d += self._reaction(u, self._react)
        else:
            react = self._reaction(u, self._react)
            d[:, 1:-1] += react[:, 1:-1]  # Dirichlet rows stay pinned
        # the sweep stages d before writing its output, and u is not a
        # sweep input — solving straight into the field is safe
        self._session.step(d, out=self.u)
        self.t += self.dt
        self.steps += 1
        return self.u

    def run(self, n_steps: int) -> np.ndarray:
        """Advance ``n_steps`` and return the field."""
        for _ in range(n_steps):
            self.step()
        return self.u

    def reference_step(self, u: np.ndarray) -> np.ndarray:
        """The same IMEX step through a dense solve."""
        u = np.asarray(u, dtype=np.float64)
        m, n = u.shape
        r = self.alpha * self.dt / (2.0 * self.dx * self.dx)
        react = self.dt * (self.eps * u - self.gamma * u**3)
        if self.periodic:
            A = np.zeros((n, n))
            idx = np.arange(n)
            A[idx, idx] = 1.0 + 2.0 * r
            A[idx, (idx + 1) % n] = -r
            A[idx, (idx - 1) % n] = -r
            d = periodic_heat_rhs(u, self.alpha, self.dt, self.dx) + react
        else:
            A = np.zeros((n, n))
            idx = np.arange(1, n - 1)
            A[idx, idx] = 1.0 + 2.0 * r
            A[idx, idx + 1] = -r
            A[idx, idx - 1] = -r
            A[0, 0] = 1.0
            A[n - 1, n - 1] = 1.0
            d = crank_nicolson_rhs(u, self.alpha, self.dt, self.dx)
            d[:, 1:-1] += react[:, 1:-1]
        return np.linalg.solve(A, d.T).T

    def close(self) -> None:
        """Release the bound session."""
        self._session.close()

    def __enter__(self) -> "CrankNicolsonCubic":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
