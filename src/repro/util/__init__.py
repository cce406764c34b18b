"""Utility layer: tridiagonal system containers, numeric helpers.

This subpackage holds the data-structure vocabulary shared by every other
part of the library:

* :class:`~repro.util.tridiag.TridiagonalSystem` — a single ``Ax = d``
  system stored as four 1-D diagonal arrays.
* :class:`~repro.util.tridiag.BatchTridiagonal` — ``M`` independent systems
  in structure-of-arrays layout (each diagonal is an ``(M, N)`` array).
* residual / condition helpers in :mod:`~repro.util.numerics`.
"""

from repro.util.tridiag import (
    BatchTridiagonal,
    TridiagonalSystem,
    as_batch,
    dense_from_diagonals,
)
from repro.util.numerics import (
    diagonal_dominance_margin,
    is_diagonally_dominant,
    max_relative_error,
    residual_norm,
)

__all__ = [
    "BatchTridiagonal",
    "TridiagonalSystem",
    "as_batch",
    "dense_from_diagonals",
    "diagonal_dominance_margin",
    "is_diagonally_dominant",
    "max_relative_error",
    "residual_norm",
]
