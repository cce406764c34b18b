"""Periodic (cyclic) tridiagonal systems via Sherman–Morrison.

Periodic boundary conditions produce *almost* tridiagonal systems with
two corner entries: row 0 couples to row ``n−1`` through ``a_0`` and row
``n−1`` couples to row 0 through ``c_{n−1}``.  Spectral/finite-difference
Poisson solvers on periodic domains (the paper's ref [6] family) hit
this constantly.

The classic reduction: write the cyclic matrix as ``A' + u vᵀ`` with
``A'`` strictly tridiagonal.  Choosing

.. math::

    u = (γ, 0, …, 0, c_{n-1})ᵀ, \\qquad v = (1, 0, …, 0, a_0 / γ)ᵀ

and subtracting ``u vᵀ`` from the corners modifies only ``b_0`` and
``b_{n−1}``.  Sherman–Morrison then needs two solves with ``A'``
(against ``d`` and against ``u``) — both of which this library does
batched, with whichever backend algorithm is requested:

.. math::

    x = y − \\frac{vᵀ y}{1 + vᵀ q}\\, q, \\qquad A' y = d,\\; A' q = u.

``γ = −b_0`` keeps ``A'`` comfortably nonsingular for dominant inputs.

The helpers here (:func:`cyclic_reduce`,
:func:`correction_denominator`, :func:`correction_scale`,
:func:`apply_cyclic_correction`) are the *single* implementation of the
corner algebra — the direct algorithm paths, the engine's full and
prepared cyclic paths, and
:class:`~repro.backends.base.CyclicSession` (the bound correction the
numpy, distributed and gpusim-ranks routes run around their plain
solves) all call them, so every backend runs the identical elementwise
operation sequence (the cross-backend bitwise contract of
``tests/test_backends.py`` extends to periodic solves).

Singularity: the correction divides by ``1 + vᵀ q``.  A singular cyclic
matrix (e.g. the periodic Laplacian, whose null space is the constant
vector) drives that denominator to zero even when ``A'`` itself is
fine, and the division would silently return ``±inf``.
:func:`correction_scale` guards it with a dtype-scaled threshold:
``check=True`` raises :class:`CyclicSingularError` naming the offending
batch rows; ``check=False`` warns and emits NaN for exactly those rows,
leaving the rest of the batch intact.
"""

from __future__ import annotations

import warnings

import numpy as np

from repro.core.solver import solve_batch
from repro.core.validation import (
    check_cyclic_batch_arrays,
    check_out,
    coerce_cyclic_batch_arrays,
)

__all__ = [
    "CyclicSingularError",
    "apply_cyclic_correction",
    "correction_denominator",
    "correction_scale",
    "cyclic_reduce",
    "refuse_singular",
    "singular_rows",
    "solve_periodic",
    "solve_periodic_batch",
]

#: Threshold multiplier for the singular-correction guard.  The
#: computed denominator of an exactly singular cyclic matrix lands
#: within a few ulps of zero (forward error of the inner ``A' q = u``
#: solve), so ``64·√n·eps`` catches it with orders-of-magnitude margin
#: while staying far below the O(1) denominators of well-posed systems.
_SINGULAR_TOL = 64.0


class CyclicSingularError(ValueError):
    """The Sherman–Morrison correction denominator ``1 + vᵀq`` vanished.

    Raised (under ``check=True``) when the cyclic matrix is singular or
    numerically so — the corrected solve would otherwise divide by ~0
    and return ``±inf`` with no diagnostic.
    """


def cyclic_reduce(a, b, c, *, check: bool = False):
    """Corner elimination: split the cyclic matrix into ``A' + u vᵀ``.

    Parameters are the ``(M, N)`` cyclic diagonals (corners live in
    ``a[:, 0]`` and ``c[:, -1]``).  Returns ``(ap, bp, cp, u, w)``:
    the strictly tridiagonal ``A'`` diagonals, the rank-one column
    ``u = (γ, 0, …, 0, c_{n−1})`` as an ``(M, N)`` batch of right-hand
    sides, and the weight ``w = a_0 / γ`` so that
    ``vᵀx = x_0 + w·x_{n−1}``.

    ``check=True`` additionally rejects a zero diagonal in ``A'``
    (pivot-free inner solves need ``b' != 0``).
    """
    m, n = b.shape
    dtype = b.dtype
    alpha = a[:, 0].copy()   # corner: row 0 <- row n-1
    beta = c[:, -1].copy()   # corner: row n-1 <- row 0
    gamma = -b[:, 0].copy()
    # avoid a zero gamma for pathological b_0
    gamma = np.where(gamma == 0, dtype.type(1), gamma)

    # strictly tridiagonal A': corners removed, b_0 and b_{n-1} adjusted
    bp = b.copy()
    bp[:, 0] = b[:, 0] - gamma
    bp[:, -1] = b[:, -1] - alpha * beta / gamma
    ap = a.copy()
    ap[:, 0] = 0.0
    cp = c.copy()
    cp[:, -1] = 0.0
    if check and np.any(bp == 0.0):
        raise ValueError(
            "zero on the main diagonal of the reduced system A' "
            "(pivot-free solvers need b != 0)"
        )

    # u vector per system: (gamma, 0, ..., 0, beta)
    u = np.zeros((m, n), dtype=dtype)
    u[:, 0] = gamma
    u[:, -1] = beta
    return ap, bp, cp, u, np.asarray(alpha / gamma)


def correction_denominator(q, w) -> np.ndarray:
    """``1 + vᵀq`` per batch row, with ``vᵀq = q_0 + w·q_{n−1}``."""
    return 1.0 + (q[:, 0] + w * q[:, -1])


def singular_rows(denom, n: int) -> np.ndarray:
    """Batch rows whose correction denominator is numerically zero.

    The threshold is dtype-scaled — ``64·√n·eps·(1 + |vᵀq|)`` — wide
    enough to catch an exactly singular cyclic matrix whose computed
    denominator is a few ulps from zero, narrow enough never to flag
    the O(1) denominators of diagonally dominant systems.
    """
    eps = np.finfo(denom.dtype).eps
    tol = eps * _SINGULAR_TOL * np.sqrt(float(n)) * (
        1.0 + np.abs(denom - 1.0)
    )
    return np.flatnonzero(np.abs(denom) <= tol)


def _describe_rows(bad: np.ndarray) -> str:
    rows = ", ".join(str(i) for i in bad[:8])
    more = "" if bad.size <= 8 else f" (+{bad.size - 8} more)"
    return f"[{rows}]{more}"


def refuse_singular(rows: np.ndarray) -> None:
    """Raise :class:`CyclicSingularError` if ``rows`` names any batch row.

    A factorization built with ``check=False`` keeps NaN scales for its
    singular rows; solving it under ``check=True`` must refuse instead.
    """
    if rows.size:
        raise CyclicSingularError(
            "singular Sherman–Morrison correction in batch row(s) "
            f"{_describe_rows(rows)} — re-factor with "
            "check=False for NaN output"
        )


def correction_scale(denom, n: int, *, check: bool = True) -> np.ndarray:
    """``1 / (1 + vᵀq)`` with the singular-correction guard applied.

    ``check=True``: raise :class:`CyclicSingularError` naming the
    offending batch rows.  ``check=False``: warn once and return NaN
    scales for exactly those rows (the corrected solutions come out
    all-NaN instead of ``±inf``); healthy rows are untouched.
    """
    bad = singular_rows(denom, n)
    if bad.size:
        where = _describe_rows(bad)
        if check:
            raise CyclicSingularError(
                f"singular Sherman–Morrison correction: |1 + v·q| is "
                f"below the {denom.dtype.name} threshold in batch "
                f"row(s) {where} — the cyclic matrix has no unique "
                "solution (pass check=False for NaN output instead)"
            )
        warnings.warn(
            f"singular Sherman–Morrison correction in batch row(s) "
            f"{where}; emitting NaN for those systems",
            RuntimeWarning,
            stacklevel=3,
        )
        scale = np.empty_like(denom)
        good = np.ones(denom.shape, dtype=bool)
        good[bad] = False
        np.divide(1.0, denom, out=scale, where=good)
        scale[bad] = np.nan
        return scale
    return 1.0 / denom


def apply_cyclic_correction(y, q, w, scale, out=None) -> np.ndarray:
    """``x = y − (vᵀy · scale) q`` — the rank-one solution update.

    ``out``, if given, must not alias ``y`` or ``q``.  The operation
    sequence (multiply, then subtract) is identical with and without
    ``out``, so the two spellings are bitwise interchangeable.
    """
    vy = y[:, 0] + w * y[:, -1]
    factor = vy * scale
    if out is None:
        return y - factor[:, None] * q
    np.multiply(factor[:, None], q, out=out)
    np.subtract(y, out, out=out)
    return out


def solve_periodic_batch(
    a,
    b,
    c,
    d,
    *,
    algorithm: str = "auto",
    backend: str = "auto",
    check: bool = True,
    out=None,
    **kwargs,
) -> np.ndarray:
    """Solve ``M`` cyclic tridiagonal systems given as ``(M, N)`` diagonals.

    Parameters
    ----------
    a, b, c, d:
        Diagonals with the cyclic convention: ``a[:, 0]`` couples row 0
        to row ``N−1``; ``c[:, -1]`` couples row ``N−1`` to row 0 (no
        padding zeros — the corners are *used*).  All four must share
        one ``(M, N)`` shape.
    algorithm:
        ``"auto"``/``"hybrid"`` route the cyclic solve through the
        backend dispatch layer (``Capabilities.periodic`` is
        negotiated; repeated coefficients engage the engine's cyclic
        factorization cache and run an RHS-only sweep).  The direct
        algorithms (``"thomas"``, ``"cr"``, ``"pcr"``, ``"rd"``) run
        the classic two-inner-solve reduction in-process.
    backend:
        Registry backend name (``"auto"`` or e.g. ``"engine"``,
        ``"numpy"``, ``"gpusim"``).  Only available
        with ``algorithm="auto"``/``"hybrid"``.
    check:
        Validate inputs and raise :class:`CyclicSingularError` when the
        Sherman–Morrison denominator vanishes.  ``check=False`` skips
        finiteness validation and instead warns + emits NaN for
        singular batch rows.  Diagonal *shapes* and ``N >= 3`` are
        validated in both modes (a mismatch is never meaningful for a
        cyclic system).  The auto/hybrid algorithms leave this to
        :meth:`SolveRequest.build
        <repro.backends.request.SolveRequest.build>`; the direct
        algorithms validate here.
    out:
        Optional ``(M, N)`` output array of the solve's dtype (any
        layout); anything else is a ``ValueError`` on every algorithm.
    **kwargs:
        Solve options (``k``, ``fuse``, ``fingerprint``, ``ranks``,
        …) forwarded to the dispatch layer / inner solves.

    Returns
    -------
    numpy.ndarray
        ``(M, N)`` solutions of the cyclic systems.

    Notes
    -----
    Requires ``N ≥ 3`` (a 2-cycle degenerates: both "corners" collide
    with the ordinary couplings).  After the call,
    ``repro.last_trace()`` describes the *cyclic* solve
    (``periodic=True``) rather than the inner q-solve.
    """
    if algorithm in ("auto", "hybrid"):
        from repro.backends.registry import solve_via

        x, _ = solve_via(
            a, b, c, d,
            backend=backend, periodic=True, check=check, out=out, **kwargs,
        )
        return x

    if backend != "auto":
        raise TypeError(
            f"backend= selection requires algorithm='auto' or 'hybrid'; "
            f"algorithm={algorithm!r} runs its fixed direct path"
        )

    # classic direct path: corner-reduce, two inner solves, correction
    validate = check_cyclic_batch_arrays if check else coerce_cyclic_batch_arrays
    a, b, c, d = validate(a, b, c, d)
    if out is not None:
        check_out(out, d.shape, d.dtype)
    n = b.shape[1]
    ap, bp, cp, u, w = cyclic_reduce(a, b, c)
    y = solve_batch(ap, bp, cp, d, algorithm=algorithm, check=check, **kwargs)
    q = solve_batch(ap, bp, cp, u, algorithm=algorithm, check=check, **kwargs)
    scale = correction_scale(correction_denominator(q, w), n, check=check)
    x = apply_cyclic_correction(y, q, w, scale, out=out)

    # the inner q-solve recorded a direct:<algorithm> trace; mark it as
    # the cyclic solve so last_trace() reflects what the caller asked for
    from repro.backends.trace import last_trace

    trace = last_trace()
    if trace is not None:
        trace.periodic = True
    return x


def solve_periodic(a, b, c, d, **kwargs) -> np.ndarray:
    """Single cyclic system convenience wrapper (1-D diagonals)."""
    a, b, c, d = (np.asarray(v) for v in (a, b, c, d))
    x = solve_periodic_batch(a[None], b[None], c[None], d[None], **kwargs)
    return x[0]
