"""Parallel cyclic reduction (PCR) — Section II-A.3 of the paper.

One PCR step with stride ``s`` eliminates, for *every* row ``i``, the
couplings to rows ``i − s`` and ``i + s`` (Eqs. 5-6):

.. math::

    k_1 = a_i / b_{i-s}, \\qquad k_2 = c_i / b_{i+s}

    a'_i = -a_{i-s} k_1, \\quad
    b'_i = b_i - c_{i-s} k_1 - a_{i+s} k_2, \\quad
    c'_i = -c_{i+s} k_2

    d'_i = d_i - d_{i-s} k_1 - d_{i+s} k_2

After the step, row ``i`` couples only to rows ``i ± 2s``: a step with
stride ``s`` splits every tridiagonal system into two independent
interleaved systems of half the size.  ``k`` steps with strides
``1, 2, …, 2^{k−1}`` therefore split an ``N``-row system into ``2^k``
independent systems — subsystem ``j`` is the set of rows
``{i : i ≡ j (mod 2^k)}`` — each of size ``≈ N / 2^k``.  This is exactly
the "parallelism excavation" the hybrid solver's front-end performs.

Complexity: ``O(n log n)`` work, ``log n + 1`` elimination steps
(Table II row 2).

Boundary convention: out-of-range neighbours contribute nothing.  The
implementation realizes that by zero-filling shifted ``a, c, d`` and
one-filling shifted ``b`` (so the ``k`` factors are well defined), then
masking ``k1`` to zero for ``i < s`` and ``k2`` to zero for ``i ≥ n − s``.
"""

from __future__ import annotations

import numpy as np

from repro.core.thomas import thomas_solve_batch
from repro.core.validation import check_batch_arrays, check_system_arrays

__all__ = [
    "pcr_step",
    "pcr_sweep",
    "pcr_solve",
    "pcr_solve_batch",
]


def _shift(arr: np.ndarray, offset: int, fill: float) -> np.ndarray:
    """Return ``out`` with ``out[..., i] = arr[..., i + offset]``.

    Out-of-range positions take ``fill``.  ``offset`` may be negative
    (look *behind*) or positive (look *ahead*).
    """
    out = np.full_like(arr, fill)
    n = arr.shape[-1]
    if offset == 0:
        out[...] = arr
    elif offset > 0:
        if offset < n:
            out[..., : n - offset] = arr[..., offset:]
    else:
        k = -offset
        if k < n:
            out[..., k:] = arr[..., : n - k]
    return out


def pcr_step(a, b, c, d, s: int):
    """Apply one PCR step with stride ``s`` to an ``(M, N)`` batch.

    Returns new ``(a, b, c, d)`` arrays (inputs are not modified).  Every
    row is reduced — this is PCR, not CR, so no rows are discarded.
    """
    n = b.shape[-1]
    one = b.dtype.type(1)
    a_m = _shift(a, -s, 0.0)
    b_m = _shift(b, -s, one)
    c_m = _shift(c, -s, 0.0)
    d_m = _shift(d, -s, 0.0)
    a_p = _shift(a, +s, 0.0)
    b_p = _shift(b, +s, one)
    c_p = _shift(c, +s, 0.0)
    d_p = _shift(d, +s, 0.0)

    k1 = a / b_m
    k2 = c / b_p
    if s < n:
        k1[..., :s] = 0.0
        k2[..., n - s :] = 0.0
    else:
        k1[...] = 0.0
        k2[...] = 0.0

    a_new = -a_m * k1
    b_new = b - c_m * k1 - a_p * k2
    c_new = -c_p * k2
    d_new = d - d_m * k1 - d_p * k2
    return a_new, b_new, c_new, d_new


def pcr_sweep(a, b, c, d, steps: int):
    """Apply ``steps`` PCR steps with the doubling stride schedule 1, 2, 4, …

    After the sweep the batch consists (logically) of ``2^steps``
    independent interleaved systems per input system.  Returns new arrays.
    """
    if steps < 0:
        raise ValueError(f"steps must be >= 0, got {steps}")
    s = 1
    for _ in range(steps):
        a, b, c, d = pcr_step(a, b, c, d, s)
        s *= 2
    return a, b, c, d


def pcr_solve_batch(a, b, c, d, *, check: bool = True) -> np.ndarray:
    """Solve an ``(M, N)`` batch by complete PCR.

    Strides double until they exceed ``N``; at that point every row is a
    1×1 system and ``x = d / b``.
    """
    if check:
        a, b, c, d = check_batch_arrays(a, b, c, d)
    else:
        a, b, c, d = (np.asarray(v) for v in (a, b, c, d))
    n = b.shape[-1]
    s = 1
    while s < n:
        a, b, c, d = pcr_step(a, b, c, d, s)
        s *= 2
    return d / b


def pcr_solve(a, b, c, d, *, check: bool = True) -> np.ndarray:
    """Solve one system by complete PCR (see :func:`pcr_solve_batch`)."""
    if check:
        a, b, c, d = check_system_arrays(a, b, c, d)
    x = pcr_solve_batch(
        a[None, :], b[None, :], c[None, :], d[None, :], check=False
    )
    return x[0]


def pcr_then_thomas_batch(a, b, c, d, k: int, *, check: bool = True) -> np.ndarray:
    """Reference (untiled) hybrid: ``k`` PCR steps then batched Thomas.

    This is the *whole-system-in-memory* hybrid of Sakharnykh / Zhang et
    al. that the paper generalizes; the production path is
    :class:`repro.core.hybrid.HybridSolver`, which replaces the monolithic
    sweep with the tiled sliding-window front-end.  Kept as an oracle for
    equivalence tests.
    """
    from repro.core.pthomas import pthomas_solve_interleaved

    if check:
        a, b, c, d = check_batch_arrays(a, b, c, d)
    if k == 0:
        return thomas_solve_batch(a, b, c, d, check=False)
    a, b, c, d = pcr_sweep(a, b, c, d, k)
    return pthomas_solve_interleaved(a, b, c, d, k)
