"""Input validation shared by every solver entry point.

Solvers accept "padded" diagonals (``a[0] == c[-1] == 0``; see
:mod:`repro.util.tridiag`).  Each batch validator is two halves:

* the *shape half* (``coerce_*_batch_arrays``) normalizes dtype and
  enforces shape agreement — O(1) per array beyond the coercion;
* the *content half* (``check_*_content``) checks finiteness, zeroes the
  out-of-matrix pads and checks the pivots — a pass over the data.

``check_*_batch_arrays`` composes the two, with no extra pass.
``check=False`` runs the shape half alone.

A batch of one repeated row — batch-axis stride 0, what
``np.broadcast_to(row, (M, N))`` returns (:func:`is_broadcast_batch`) —
stays one: coercion makes its row contiguous in the solve dtype and
broadcasts it again, finiteness and pivots are checked on that row, and
a nonzero pad is zeroed in a copy of the row.  Binding ``M`` systems of
one matrix then costs O(N), and no validator ever writes into the
caller's memory.  A stride-0 right-hand side is kept the same way; every
route only reads request arrays.

>>> import numpy as np, repro
>>> from repro.backends.request import SolveRequest
>>> from repro.workloads.pde import adi_row_coefficients
>>> row = adi_row_coefficients(1, 512, 0.3)
>>> a, b, c = (np.broadcast_to(v, (256, 512)) for v in row)
>>> request = SolveRequest.build(a, b, c, np.zeros((256, 512)))
>>> [v.strides[0] for v in (request.a, request.b, request.c)]
[0, 0, 0]
>>> d = np.random.default_rng(0).random((256, 512))
>>> x = repro.solve_batch(a, b, c, d)
>>> full = [np.ascontiguousarray(v) for v in (a, b, c)]
>>> x.tobytes() == repro.solve_batch(*full, d).tobytes()
True
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "coerce_batch_arrays",
    "coerce_cyclic_batch_arrays",
    "check_system_arrays",
    "check_batch_arrays",
    "check_batch_content",
    "check_cyclic_batch_arrays",
    "check_cyclic_content",
    "coerce_penta_batch_arrays",
    "check_penta_batch_arrays",
    "check_penta_content",
    "coerce_block_batch_arrays",
    "check_block_batch_arrays",
    "check_block_content",
    "check_out",
    "is_broadcast_batch",
    "require_power_of_two",
    "is_power_of_two",
]

_ALLOWED = (np.dtype(np.float32), np.dtype(np.float64))

#: ``np.result_type`` over mixed dtype tuples is surprisingly costly on
#: the small-batch hot path; the handful of dtype combinations a
#: workload actually mixes is memoized here.
_result_dtype_cache: dict = {}


def _already_canonical(arrays) -> bool:
    """Are these already contiguous same-float-dtype ``ndarray``s?

    The tiny-batch fast path: a steady-state caller (the engine's warm
    loop, the service tier's fragments) passes arrays that are already
    in canonical form, and the per-call ``asarray`` → ``result_type`` →
    ``ascontiguousarray`` chain costs more than the solve's own
    dispatch at small ``M``.  One cheap all-attribute scan skips it.
    """
    first = arrays[0]
    if type(first) is not np.ndarray:
        return False
    dtype = first.dtype
    if dtype not in _ALLOWED:
        return False
    for arr in arrays:
        if (
            type(arr) is not np.ndarray
            or arr.dtype is not dtype
            or not arr.flags.c_contiguous
        ):
            return False
    return True


def is_broadcast_batch(arr) -> bool:
    """Is ``arr`` an ``(M, N)`` batch of one repeated row?

    True for a batch axis of stride 0 over more than one row, which is
    what ``np.broadcast_to(row, (M, N))`` returns: every row is the same
    memory, so a check or a hash of row 0 covers the whole batch.
    """
    return arr.ndim == 2 and arr.strides[0] == 0 and arr.shape[0] > 1


def _rows(arr: np.ndarray) -> np.ndarray:
    """The rows of ``arr`` a check must read: row 0 alone of a broadcast
    batch, every row otherwise.  Each validator computes them once per
    array and hands them to the finiteness, pad and pivot checks."""
    return arr[:1] if is_broadcast_batch(arr) else arr


def _contiguous(arr: np.ndarray, dtype) -> np.ndarray:
    """``arr`` contiguous in ``dtype``; a broadcast batch's row is made
    contiguous and broadcast again, in O(N)."""
    if is_broadcast_batch(arr):
        row = np.ascontiguousarray(arr[0], dtype=dtype)
        return np.broadcast_to(row, arr.shape)
    return np.ascontiguousarray(arr, dtype=dtype)


def _zero_pad(arr: np.ndarray, rows: np.ndarray, cols) -> np.ndarray:
    """``arr`` with its pad ``arr[:, cols]`` zeroed, in a copy when the
    pad is nonzero, so a caller's memory is never written.  ``rows`` is
    :func:`_rows` of ``arr``; a broadcast batch copies its one row and
    broadcasts it again."""
    if not np.any(rows[:, cols] != 0.0):
        return arr
    if rows is arr:
        arr = arr.copy()
        arr[:, cols] = 0.0
        return arr
    row = rows[0].copy()
    row[cols] = 0.0
    return np.broadcast_to(row, arr.shape)


def _check_finite(names, rows) -> None:
    """``rows`` holds :func:`_rows` of each named array."""
    for name, arr in zip(names, rows):
        if not np.all(np.isfinite(arr)):
            raise ValueError(f"{name!r} contains non-finite values")


def _check_pivots(b_rows: np.ndarray) -> None:
    if np.any(b_rows == 0.0):
        raise ValueError("zero on the main diagonal (pivot-free solvers need b != 0)")


def _uniform_float(arrays):
    """Coerce a sequence to one contiguous allowed float dtype (a
    broadcast batch to a broadcast of one contiguous row)."""
    if _already_canonical(arrays):
        return list(arrays)
    arrays = [np.asarray(v) for v in arrays]
    key = tuple(arr.dtype for arr in arrays)
    dtype = _result_dtype_cache.get(key)
    if dtype is None:
        dtype = np.result_type(*arrays)
        if dtype not in _ALLOWED:
            dtype = np.dtype(np.float64)
        if len(_result_dtype_cache) > 64:
            _result_dtype_cache.clear()
        _result_dtype_cache[key] = dtype
    return [_contiguous(v, dtype) for v in arrays]


def _shapes(arrays, ndim: int):
    """Coerce ``a, b, c, d`` (:func:`_uniform_float`) and check that
    they are ``ndim``-D, share one shape and are not empty."""
    arrays = _uniform_float(arrays)
    shape = arrays[0].shape
    for name, arr in zip("abcd", arrays):
        if arr.ndim != ndim:
            raise ValueError(f"{name!r} must be {ndim}-D, got {arr.ndim}-D")
        if arr.shape != shape:
            raise ValueError(f"{name!r} has shape {arr.shape}, expected {shape}")
    if any(s == 0 for s in shape):
        raise ValueError("empty system")
    return arrays


def coerce_batch_arrays(a, b, c, d):
    """The shape half of :func:`check_batch_arrays`: coercion plus shape
    agreement, without reading the data.

    Lists and scalars become arrays, mixed precisions promote via
    ``np.result_type``, and anything that is not float32/float64 (e.g.
    integer lists) is promoted to float64 — otherwise a ``check=False``
    solve would silently truncate float results into integer storage.
    The four arrays must be non-empty ``(M, N)`` batches of one shape.
    Pad zeroing, finiteness and pivots are :func:`check_batch_content`'s
    job.  A broadcast batch stays one (see the module docs).
    """
    return tuple(_shapes((a, b, c, d), ndim=2))


def check_system_arrays(a, b, c, d):
    """Validate one system's diagonals; returns normalized copies-if-needed."""
    a, b, c, d = _shapes((a, b, c, d), ndim=1)
    _check_finite("abcd", (a, b, c, d))
    if a[0] != 0.0:
        a = a.copy()
        a[0] = 0.0
    if c[-1] != 0.0:
        c = c.copy()
        c[-1] = 0.0
    if np.any(b == 0.0):
        raise ValueError("zero on the main diagonal (pivot-free solvers need b != 0)")
    return a, b, c, d


def check_batch_content(a, b, c, d):
    """The content half of :func:`check_batch_arrays`: finiteness, pads
    and pivots of coerced ``(M, N)`` arrays (:func:`coerce_batch_arrays`).

    The pads ``a[:, 0]`` and ``c[:, -1]`` are zeroed in a copy.  Only
    the values are read, so ``d`` may hold other rows than the
    coefficients.
    """
    a_rows, b_rows, c_rows, d_rows = (_rows(arr) for arr in (a, b, c, d))
    _check_finite("abcd", (a_rows, b_rows, c_rows, d_rows))
    a = _zero_pad(a, a_rows, 0)
    c = _zero_pad(c, c_rows, -1)
    _check_pivots(b_rows)
    return a, b, c, d


def check_batch_arrays(a, b, c, d):
    """Validate an ``(M, N)`` batch's diagonals: both halves.

    A broadcast batch is checked on its one row and returned as a
    stride-0 view (see the module docs).
    """
    return check_batch_content(*coerce_batch_arrays(a, b, c, d))


def coerce_cyclic_batch_arrays(a, b, c, d):
    """Coerce + shape-validate a *cyclic* ``(M, N)`` batch.

    Cyclic (periodic) systems use the corner entries ``a[:, 0]`` and
    ``c[:, -1]`` as real matrix couplings, so unlike
    :func:`check_batch_arrays` the pads are **never zeroed**.  Shape
    agreement is enforced unconditionally — a mismatched diagonal in a
    Sherman–Morrison solve would otherwise surface as an opaque
    broadcasting error two layers down.  1-D inputs are promoted to a
    single-system batch.  ``N >= 3`` is required: in a 2-cycle both
    "corners" collide with the ordinary couplings.  A broadcast batch
    stays one (see the module docs).
    """
    arrays = (a, b, c, d)
    if _already_canonical(arrays) and all(arr.ndim == 2 for arr in arrays):
        arrays = list(arrays)
    else:
        arrays = _uniform_float(
            [np.atleast_2d(np.asarray(v)) for v in arrays]
        )
    shape = arrays[1].shape
    for name, arr in zip("abcd", arrays):
        if arr.ndim != 2:
            raise ValueError(
                f"cyclic diagonals must all be (M, N) batches: "
                f"{name!r} is {arr.ndim}-D"
            )
        if arr.shape != shape:
            raise ValueError(
                f"cyclic diagonals must all share one (M, N) shape: "
                f"{name!r} has shape {arr.shape}, expected {shape}"
            )
    if any(s == 0 for s in shape):
        raise ValueError("empty system")
    if shape[1] < 3:
        raise ValueError(f"cyclic solver needs N >= 3, got {shape[1]}")
    return tuple(arrays)


def check_cyclic_content(a, b, c, d):
    """The content half of :func:`check_cyclic_batch_arrays`: finiteness
    only.  The corners are couplings, so there is no pad to zero."""
    _check_finite("abcd", [_rows(arr) for arr in (a, b, c, d)])
    return a, b, c, d


def check_cyclic_batch_arrays(a, b, c, d):
    """Validate a cyclic ``(M, N)`` batch (corners kept, finiteness on)."""
    return check_cyclic_content(*coerce_cyclic_batch_arrays(a, b, c, d))


def coerce_penta_batch_arrays(e, a, b, c, f, d):
    """Coerce + shape-validate a pentadiagonal ``(M, N)`` batch.

    Diagonal order follows offset: ``e`` (second sub-diagonal, offset
    −2), ``a`` (−1), ``b`` (main), ``c`` (+1), ``f`` (+2).  All six
    arrays share one ``(M, N)`` shape; the out-of-matrix pads are
    ``e[:, :2]``, ``a[:, 0]``, ``c[:, -1]`` and ``f[:, -2:]``.

    Canonical inputs (contiguous, one allowed float dtype, agreeing
    2-D shapes) early-exit before any list building or per-name scan —
    the same steady-state fast path the plain and cyclic coercers run
    (see :func:`_already_canonical`).
    """
    arrays = (e, a, b, c, f, d)
    if _already_canonical(arrays):
        shape = b.shape
        if (
            len(shape) == 2
            and e.shape == shape
            and a.shape == shape
            and c.shape == shape
            and f.shape == shape
            and d.shape == shape
            and 0 not in shape
        ):
            return arrays
    arrays = _uniform_float(arrays)
    shape = arrays[2].shape
    for name, arr in zip("eabcfd", arrays):
        if arr.ndim != 2:
            raise ValueError(f"{name!r} must be 2-D (M, N), got {arr.ndim}-D")
        if arr.shape != shape:
            raise ValueError(f"{name!r} has shape {arr.shape}, expected {shape}")
    if any(s == 0 for s in shape):
        raise ValueError("empty system")
    return tuple(arrays)


def check_penta_content(e, a, b, c, f, d):
    """The content half of :func:`check_penta_batch_arrays`: finiteness,
    the pads ``e[:, :2]``, ``a[:, 0]``, ``c[:, -1]``, ``f[:, -2:]``
    (zeroed in a copy) and the pivots."""
    rows = [_rows(arr) for arr in (e, a, b, c, f, d)]
    _check_finite("eabcfd", rows)
    e_rows, a_rows, b_rows, c_rows, f_rows, _ = rows
    n = b.shape[1]
    e = _zero_pad(e, e_rows, slice(0, min(2, n)))
    a = _zero_pad(a, a_rows, 0)
    c = _zero_pad(c, c_rows, -1)
    f = _zero_pad(f, f_rows, slice(max(0, n - 2), None))
    _check_pivots(b_rows)
    return e, a, b, c, f, d


def check_penta_batch_arrays(e, a, b, c, f, d):
    """Validate a pentadiagonal batch: pads zeroed, finiteness, pivots.

    A broadcast batch stays one, as in :func:`check_batch_arrays`:
    :class:`~repro.core.pentadiag.PentaFactorization` only reads its
    inputs (it factors transposed copies).
    """
    return check_penta_content(*coerce_penta_batch_arrays(e, a, b, c, f, d))


def coerce_block_batch_arrays(A, B, C, d):
    """Coerce + shape-validate a block-tridiagonal batch.

    ``A``, ``B``, ``C`` are ``(M, N, B, B)`` stacks of sub-, main- and
    super-diagonal blocks; ``d`` is the ``(M, N, B)`` right-hand side.

    Canonical inputs (contiguous, one allowed float dtype, agreeing
    block shapes) early-exit before any coercion work — the
    steady-state fast path for per-step block solves.
    """
    if _already_canonical((A, B, C, d)) and B.ndim == 4:
        m, n, bs, bs2 = B.shape
        if (
            bs == bs2
            and A.shape == B.shape
            and C.shape == B.shape
            and d.shape == (m, n, bs)
            and 0 not in (m, n, bs)
        ):
            return A, B, C, d
    A, B, C, d = _uniform_float((A, B, C, d))
    if B.ndim != 4:
        raise ValueError(f"block diagonals must be (M, N, B, B), got {B.ndim}-D")
    m, n, bs, bs2 = B.shape
    if bs != bs2:
        raise ValueError(f"blocks must be square, got {bs}x{bs2}")
    for name, arr in zip("ABC", (A, B, C)):
        if arr.shape != B.shape:
            raise ValueError(
                f"{name!r} has shape {arr.shape}, expected {B.shape}"
            )
    if d.shape != (m, n, bs):
        raise ValueError(f"d has shape {d.shape}, expected {(m, n, bs)}")
    if 0 in (m, n, bs):
        raise ValueError("empty system")
    return A, B, C, d


def check_block_content(A, B, C, d):
    """The content half of :func:`check_block_batch_arrays`: finiteness
    and the pad blocks ``A[:, 0]``, ``C[:, -1]`` (zeroed in a copy)."""
    # a block stack is never a broadcast batch: every row is checked
    _check_finite(("A", "B", "C", "d"), (A, B, C, d))
    A = _zero_pad(A, A, 0)
    C = _zero_pad(C, C, -1)
    return A, B, C, d


def check_block_batch_arrays(A, B, C, d):
    """Validate a block-tridiagonal batch: pads zeroed, finiteness.

    Block stacks are 4-D, so a broadcast block batch is made contiguous
    like any other layout.
    """
    return check_block_content(*coerce_block_batch_arrays(A, B, C, d))


def check_out(out, shape: tuple, dtype, name: str = "out"):
    """A caller's output array: an ``ndarray`` of ``shape`` and ``dtype``.

    Any memory layout is legal; anything else is a ``ValueError``
    naming both shapes, never a partly written or silently downcast
    result.
    """
    if not (
        isinstance(out, np.ndarray) and out.shape == shape and out.dtype == dtype
    ):
        raise ValueError(
            f"{name} has shape {np.shape(out)} and dtype "
            f"{getattr(out, 'dtype', type(out).__name__)}; the solve "
            f"writes shape {shape} and dtype {np.dtype(dtype)}"
        )
    return out


def is_power_of_two(x: int) -> bool:
    """True iff ``x`` is a positive power of two."""
    return x > 0 and (x & (x - 1)) == 0


def require_power_of_two(x: int, what: str) -> int:
    """Raise ``ValueError`` unless ``x`` is a positive power of two."""
    if not is_power_of_two(x):
        raise ValueError(f"{what} must be a positive power of two, got {x}")
    return x
