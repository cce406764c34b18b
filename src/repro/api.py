"""Vendor-style entry points: familiar signatures for porting users.

Production users arrive from cuSPARSE (``gtsv2StridedBatch``,
``gtsv2_nopivot``) or LAPACK (``dgtsv``); this module offers the same
call shapes on top of the hybrid solver so a port is a one-line change.

All functions are thin adapters: they reshape/convert the vendor layout
to the library's padded ``(M, N)`` convention, call
:func:`repro.solve_batch`, and return results in the vendor's layout.
Inputs may use any memory layout — Fortran-ordered, transposed, or
otherwise strided arrays are handled by value (contiguous copies are
made where the solver needs them, never a silent reinterpretation).
Each adapter accepts ``backend=`` and forwards it to the backend
registry (:mod:`repro.backends`), so vendor-shaped calls get the same
dispatch and :class:`~repro.backends.trace.SolveTrace` instrumentation
as native ones — including the coefficient-fingerprint factorization
cache: a time-stepping loop calling ``gtsv_strided_batch`` with fixed
diagonals stops re-eliminating after its second step (``fingerprint=``
forwards the tri-state; see :func:`repro.solve_batch`).
"""

from __future__ import annotations

import numpy as np

from repro.core.solver import solve_batch

__all__ = [
    "gpsv_batch",
    "gtsv",
    "gtsv_block_batch",
    "gtsv_cyclic",
    "gtsv_nopivot",
    "gtsv_strided_batch",
]

_FLOATS = (np.dtype(np.float32), np.dtype(np.float64))


def _solve_dtype(*arrays) -> np.dtype:
    """The dtype a solve of these inputs produces (mirrors validation)."""
    dtype = np.result_type(*arrays)
    return dtype if dtype in _FLOATS else np.dtype(np.float64)


def gtsv(
    dl,
    d,
    du,
    B,
    *,
    backend: str = "auto",
    fingerprint: bool | None = None,
    rtol: float | None = None,
):
    """LAPACK ``?gtsv``-style: one system, possibly many RHS columns.

    Parameters
    ----------
    dl:
        Sub-diagonal, length ``n − 1`` (LAPACK convention: no padding).
        For ``n == 1`` this is the empty array.
    d:
        Main diagonal, length ``n >= 1``.
    du:
        Super-diagonal, length ``n − 1`` (empty for ``n == 1``).
    B:
        Right-hand sides: ``(n,)`` or ``(n, nrhs)``.  Any layout —
        C-ordered, Fortran-ordered, transposed, or strided views all
        give the same result.
    backend:
        Backend registry selection forwarded to
        :func:`repro.solve_batch` (``"auto"`` or a registered name).
    fingerprint:
        Factorization-cache tri-state forwarded to
        :func:`repro.solve_batch`.
    rtol:
        Accuracy contract forwarded to :func:`repro.solve_batch` —
        tolerances above the dtype floor let fingerprinting
        auto-engage on hybrid ``k > 0`` plans too.

    Returns
    -------
    numpy.ndarray
        ``X`` with the same shape as ``B`` (C-contiguous).
    """
    dl = np.asarray(dl)
    d = np.asarray(d)
    du = np.asarray(du)
    B = np.asarray(B)
    if d.ndim != 1 or d.shape[0] == 0:
        raise ValueError(
            f"d must be a non-empty 1-D main diagonal, got shape {d.shape}"
        )
    n = d.shape[0]
    if dl.shape != (n - 1,) or du.shape != (n - 1,):
        raise ValueError(
            f"dl/du must have length n-1 = {n - 1} for n = {n}, "
            f"got dl shape {dl.shape} and du shape {du.shape}"
        )
    if B.ndim not in (1, 2) or B.shape[0] != n:
        raise ValueError(
            f"B must be (n,) or (n, nrhs) with n = {n}, got shape {B.shape}"
        )
    if n == 1:
        # 1×1 system: dl/du are empty and there is nothing to eliminate.
        # Answer directly (keeping the pivot-free zero-diagonal error);
        # the batched solvers are never entered.
        if d[0] == 0.0:
            raise ValueError(
                "zero on the main diagonal (pivot-free solvers need d != 0)"
            )
        return np.ascontiguousarray(
            (B / d[0]).astype(_solve_dtype(d, B), copy=False)
        )
    a = np.zeros(n, dtype=d.dtype)
    c = np.zeros(n, dtype=d.dtype)
    a[1:] = dl
    c[:-1] = du
    if B.ndim == 1:
        x = solve_batch(
            a[None], d[None], c[None], B[None],
            backend=backend, fingerprint=fingerprint, rtol=rtol,
        )
        return x[0]
    # one matrix for every column: stride-0 broadcasts, never copies
    shape = (B.shape[1], n)
    aa, bb, cc = (np.broadcast_to(v, shape) for v in (a, d, c))
    # B.T is evaluated by value, so Fortran-ordered / strided B is fine.
    x = solve_batch(
        aa, bb, cc, np.ascontiguousarray(B.T),
        backend=backend, fingerprint=fingerprint, rtol=rtol,
    )
    return np.ascontiguousarray(x.T)


def gtsv_nopivot(
    dl,
    d,
    du,
    B,
    *,
    backend: str = "auto",
    fingerprint: bool | None = None,
    rtol: float | None = None,
):
    """cuSPARSE ``gtsv2_nopivot``-style alias (the library never pivots)."""
    return gtsv(
        dl, d, du, B, backend=backend, fingerprint=fingerprint, rtol=rtol
    )


def gtsv_cyclic(
    dl,
    d,
    du,
    B,
    *,
    backend: str = "auto",
    check: bool = True,
    fingerprint: bool | None = None,
    rtol: float | None = None,
):
    """cuSPARSE ``gtsv2cyclic``-style: one *periodic* tridiagonal system.

    The vendor convention stores full-length diagonals whose wrap
    entries carry the corners: ``dl[0]`` couples row 0 to row ``n−1``
    and ``du[n−1]`` couples row ``n−1`` to row 0 — exactly the cyclic
    convention of :func:`repro.solve_periodic`, so this adapter is a
    layout-only shim.

    Parameters
    ----------
    dl, d, du:
        Length-``n`` diagonals (``n ≥ 3``), corners in ``dl[0]`` /
        ``du[-1]``.
    B:
        Right-hand sides: ``(n,)`` or ``(n, nrhs)``.  Multi-RHS calls
        solve one fixed cyclic matrix against every column — the shape
        the engine's cyclic factorization cache is built for, so they
        are dispatched as a batch with fingerprinting on.
    backend:
        Backend registry selection (``Capabilities.periodic`` is
        negotiated).
    check:
        Raise :class:`~repro.core.periodic.CyclicSingularError` on a
        singular Sherman–Morrison correction; ``check=False`` warns
        and emits NaN for the singular systems instead.
    fingerprint:
        Factorization-cache tri-state forwarded to the cyclic solve.
    rtol:
        Accuracy contract forwarded to the cyclic solve (see
        :func:`gtsv`).

    Returns
    -------
    numpy.ndarray
        ``X`` with the same shape as ``B`` (C-contiguous).
    """
    from repro.core.periodic import solve_periodic_batch

    dl = np.asarray(dl)
    d = np.asarray(d)
    du = np.asarray(du)
    B = np.asarray(B)
    if d.ndim != 1 or d.shape[0] < 3:
        raise ValueError(
            f"d must be a 1-D main diagonal with n >= 3, got shape {d.shape}"
        )
    n = d.shape[0]
    if dl.shape != (n,) or du.shape != (n,):
        raise ValueError(
            f"cyclic dl/du must have full length n = {n}, "
            f"got dl shape {dl.shape} and du shape {du.shape}"
        )
    if B.ndim not in (1, 2) or B.shape[0] != n:
        raise ValueError(
            f"B must be (n,) or (n, nrhs) with n = {n}, got shape {B.shape}"
        )
    if B.ndim == 1:
        x = solve_periodic_batch(
            dl[None], d[None], du[None], B[None],
            backend=backend, check=check, fingerprint=fingerprint,
            rtol=rtol,
        )
        return x[0]
    shape = (B.shape[1], n)
    aa, bb, cc = (np.broadcast_to(v, shape) for v in (dl, d, du))
    x = solve_periodic_batch(
        aa, bb, cc, np.ascontiguousarray(B.T),
        backend=backend, check=check, fingerprint=fingerprint, rtol=rtol,
    )
    return np.ascontiguousarray(x.T)


def gpsv_batch(
    ds,
    dl,
    d,
    du,
    dw,
    B,
    *,
    backend: str = "auto",
    check: bool = True,
    fingerprint: bool | None = None,
):
    """cuSPARSE ``gpsvInterleavedBatch``-style: batched pentadiagonal solve.

    Parameters
    ----------
    ds, dl, d, du, dw:
        ``(M, N)`` diagonals in offset order −2, −1, 0, +1, +2 — the
        vendor's five-diagonal vocabulary on this library's padded
        batch convention (out-of-matrix pads ``ds[:, :2]``,
        ``dl[:, 0]``, ``du[:, -1]``, ``dw[:, -2:]`` are ignored).
    B:
        ``(M, N)`` right-hand sides.
    backend:
        Backend registry selection; pentadiagonal requests negotiate
        against ``Capabilities.systems``.
    check:
        Validate shapes/dtype/finiteness (skip inside hot loops).
    fingerprint:
        Factorization-cache tri-state — fixed diagonals across
        repeated calls serve the stored LU's RHS-only sweep, which is
        bitwise identical to the cold path.

    Returns
    -------
    numpy.ndarray
        ``(M, N)`` solutions (C-contiguous).
    """
    from repro.backends import solve_via

    x, _ = solve_via(
        dl, d, du, B, e=ds, f=dw,
        backend=backend, check=check, fingerprint=fingerprint,
    )
    return x


def gtsv_block_batch(
    dl,
    d,
    du,
    B,
    *,
    backend: str = "auto",
    check: bool = True,
    fingerprint: bool | None = None,
):
    """Batched block-tridiagonal solve (``gtsv``-style, dense blocks).

    Parameters
    ----------
    dl, d, du:
        ``(M, N, B, B)`` sub-/main-/super-diagonal block stacks
        (``dl[:, 0]`` and ``du[:, -1]`` are ignored).
    B:
        ``(M, N, B)`` right-hand sides.
    backend:
        Backend registry selection; block requests negotiate against
        ``Capabilities.systems``.
    check:
        Validate shapes/dtype/finiteness (skip inside hot loops).
    fingerprint:
        Factorization-cache tri-state — repeated coefficient blocks
        serve the stored block elimination's RHS-only sweep (bitwise
        identical to the cold path).

    Returns
    -------
    numpy.ndarray
        ``(M, N, B)`` solutions (C-contiguous).
    """
    from repro.backends import solve_via

    x, _ = solve_via(
        dl, d, du, B,
        backend=backend, check=check, fingerprint=fingerprint,
    )
    return x


def gtsv_strided_batch(
    dl,
    d,
    du,
    x,
    batch_count: int,
    batch_stride: int,
    *,
    backend: str = "auto",
    fingerprint: bool | None = None,
    rtol: float | None = None,
):
    """cuSPARSE ``gtsv2StridedBatch``-style: flat strided system batch.

    Parameters
    ----------
    dl, d, du:
        Flat arrays; system ``i`` occupies elements
        ``[i·batch_stride, i·batch_stride + n)`` where
        ``n = batch_stride`` (cuSPARSE requires stride ≥ n; equal here).
        ``dl[i·stride]`` and ``du[i·stride + n − 1]`` are ignored, as in
        cuSPARSE.
    x:
        Flat right-hand sides in the same layout; **overwritten** with
        the solution (cuSPARSE semantics).  Must therefore be a
        writeable floating-point :class:`numpy.ndarray` — a list or an
        integer array cannot hold the solution in place and is
        rejected rather than silently returned unchanged.
    batch_count, batch_stride:
        Number of systems and their stride.
    backend:
        Backend registry selection forwarded to
        :func:`repro.solve_batch`.
    fingerprint:
        Factorization-cache tri-state forwarded to
        :func:`repro.solve_batch` — fixed diagonals across repeated
        calls hit the stored factorization automatically.
    rtol:
        Accuracy contract forwarded to :func:`repro.solve_batch` (see
        :func:`gtsv`).

    Returns
    -------
    numpy.ndarray
        The same ``x`` array, now holding the solutions.
    """
    if batch_count < 1 or batch_stride < 1:
        raise ValueError("batch_count and batch_stride must be >= 1")
    if not isinstance(x, np.ndarray):
        raise TypeError(
            "x must be a numpy.ndarray: it is overwritten in place "
            f"(cuSPARSE semantics), got {type(x).__name__}"
        )
    if x.dtype not in _FLOATS:
        raise TypeError(
            "x must be float32/float64 to receive the solution in place, "
            f"got dtype {x.dtype}"
        )
    if not x.flags.writeable:
        raise ValueError("x is read-only; it is overwritten in place")
    needed = batch_count * batch_stride
    for name, arr in (("dl", dl), ("d", d), ("du", du), ("x", x)):
        arr = np.asarray(arr)
        if arr.ndim != 1:
            raise ValueError(f"{name} must be a flat 1-D array, got {arr.ndim}-D")
        if arr.shape[0] < needed:
            raise ValueError(
                f"{name} has {arr.shape[0]} elements, needs {needed}"
            )
    n = batch_stride
    shape = (batch_count, n)
    a2 = np.asarray(dl)[:needed].reshape(shape).copy()
    b2 = np.asarray(d)[:needed].reshape(shape)
    c2 = np.asarray(du)[:needed].reshape(shape).copy()
    d2 = x[:needed].reshape(shape)
    a2[:, 0] = 0.0
    c2[:, -1] = 0.0
    if n == 1:
        # Degenerate stride-1 batch: every system is 1×1.
        if np.any(b2 == 0.0):
            raise ValueError(
                "zero on the main diagonal (pivot-free solvers need d != 0)"
            )
        sol = d2 / np.asarray(b2, dtype=x.dtype)
    else:
        sol = solve_batch(
            a2, b2, c2, d2, backend=backend, fingerprint=fingerprint,
            rtol=rtol,
        )
    x[:needed] = sol.reshape(-1)
    return x
