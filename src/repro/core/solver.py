"""Top-level public API: ``solve`` and ``solve_batch``.

These are the two functions a downstream user needs:

>>> import numpy as np
>>> from repro import solve
>>> n = 1000
>>> rng = np.random.default_rng(0)
>>> a = rng.standard_normal(n); a[0] = 0
>>> c = rng.standard_normal(n); c[-1] = 0
>>> b = 4 + np.abs(a) + np.abs(c)
>>> d = rng.standard_normal(n)
>>> x = solve(a, b, c, d)
>>> bool(np.allclose(b * x + np.r_[0, a[1:] * x[:-1]] + np.r_[c[:-1] * x[1:], 0], d))
True

``algorithm="auto"`` picks the hybrid with the paper's Table III
transition; explicit names select a specific algorithm (useful for
comparisons and education).

``auto``/``hybrid`` solves build a
:class:`~repro.backends.request.SolveRequest` and dispatch it through
the **backend registry** (:mod:`repro.backends`): capability
negotiation against the request picks an execution backend (the
plan-caching engine by default; ``backend="name"`` forces one), and
every solve records a :class:`~repro.backends.trace.SolveTrace`
queryable via :func:`repro.last_trace`.  Every solve runs on the
calling thread, and results are bitwise identical across the engine
and numpy-reference backends.
"""

from __future__ import annotations

import time

import numpy as np

from repro.core.cr import cr_solve_batch
from repro.core.pcr import pcr_solve_batch
from repro.core.rd import rd_solve_batch
from repro.core.thomas import thomas_solve_batch
from repro.core.validation import check_batch_arrays, coerce_batch_arrays

__all__ = ["solve", "solve_batch", "ALGORITHMS"]

#: Algorithms accepted by :func:`solve` / :func:`solve_batch`.
ALGORITHMS = ("auto", "hybrid", "thomas", "cr", "pcr", "rd")

_DIRECT = {
    "thomas": thomas_solve_batch,
    "cr": cr_solve_batch,
    "pcr": pcr_solve_batch,
    "rd": rd_solve_batch,
}


def solve_batch(
    a,
    b,
    c,
    d,
    *,
    algorithm: str = "auto",
    backend: str = "auto",
    check: bool = True,
    **kwargs,
) -> np.ndarray:
    """Solve ``M`` tridiagonal systems given as ``(M, N)`` diagonals.

    Parameters
    ----------
    a, b, c, d:
        Padded diagonals (``a[:, 0] == c[:, -1] == 0``); each batch row is
        one system.
    algorithm:
        One of ``"auto"`` (hybrid with Table III transition), ``"hybrid"``,
        ``"thomas"``, ``"cr"``, ``"pcr"``, ``"rd"``.
    backend:
        Registry backend for the hybrid/auto algorithms: ``"auto"``
        (capability negotiation + router) or a registered name —
        ``"engine"``, ``"numpy"``, ``"gpusim"``, ``"distributed"``…  See
        :mod:`repro.backends`.
    check:
        Validate inputs (recommended; disable only in hot loops).
        Inputs are *coerced* (lists → arrays, uniform float dtype)
        unconditionally; ``check=False`` only skips the validation.
        The hybrid/auto algorithms hand the raw arrays to
        :meth:`SolveRequest.build
        <repro.backends.request.SolveRequest.build>`, the one validator
        every dispatched solve shares (``periodic=True`` selects its
        cyclic rules: corners kept, ``N >= 3``); the direct algorithms
        validate here.
    **kwargs:
        For the hybrid/auto algorithms: the solve-request options
        (``k``, ``fuse``, ``n_windows``, ``subtile_scale``,
        ``heuristic``, ``parallelism``, ``periodic``, ``rtol``,
        ``ranks``) plus ``fingerprint`` to control the
        factorization cache — ``None`` (default) auto-detects repeated
        coefficients where the RHS-only path is bitwise identical
        (``k = 0``), ``True`` forces prepared execution (``k > 0``
        agrees to rounding), ``False`` disables fingerprinting.  For
        coefficients known to be fixed, :func:`repro.prepare` returns
        an explicit handle that skips the hashing too.

    Returns
    -------
    numpy.ndarray
        ``(M, N)`` solutions.
    """
    if algorithm not in ALGORITHMS:
        raise ValueError(f"unknown algorithm {algorithm!r}; pick from {ALGORITHMS}")
    if algorithm in ("auto", "hybrid"):
        from repro.backends import solve_via

        x, _ = solve_via(a, b, c, d, backend=backend, check=check, **kwargs)
        return x
    if backend != "auto":
        raise TypeError(
            f"algorithm {algorithm!r} runs directly; backend= applies to "
            "the hybrid/auto algorithms only"
        )
    if kwargs:
        raise TypeError(
            f"algorithm {algorithm!r} accepts no extra options, got {sorted(kwargs)}"
        )
    from repro.backends.registry import record_direct_trace

    validate = check_batch_arrays if check else coerce_batch_arrays
    a, b, c, d = validate(a, b, c, d)
    t0 = time.perf_counter()
    x = _DIRECT[algorithm](a, b, c, d, check=False)
    record_direct_trace(algorithm, b, time.perf_counter() - t0)
    return x


def solve(
    a,
    b,
    c,
    d,
    *,
    algorithm: str = "auto",
    backend: str = "auto",
    check: bool = True,
    **kwargs,
):
    """Solve one tridiagonal system given as 1-D padded diagonals.

    See :func:`solve_batch` for the parameters; this is the ``M = 1``
    convenience wrapper.
    """
    a, b, c, d = (np.asarray(v)[None] for v in (a, b, c, d))
    x = solve_batch(
        a, b, c, d, algorithm=algorithm, backend=backend, check=check, **kwargs
    )
    return x[0]
