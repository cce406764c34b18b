"""Block-tridiagonal systems (small dense blocks) via block-Thomas.

Coupled PDE systems — compressible flow lines, multi-species reaction
diffusion, the implicit stages of systems of conservation laws —
produce block-tridiagonal matrices whose entries are small ``B × B``
dense blocks.  Block-Thomas is the scalar algorithm with scalar
division replaced by small-matrix solves:

.. math::

    C'_i = (B_i - A_i C'_{i-1})^{-1} C_i, \\qquad
    d'_i = (B_i - A_i C'_{i-1})^{-1} (d_i - A_i d'_{i-1})

    x_i = d'_i - C'_i x_{i+1}

All block operations vectorize over the batch axis via NumPy's stacked
``matmul`` / ``linalg.solve``; the row recurrence stays sequential like
scalar Thomas — the batched ``M`` axis is again the parallel axis.

Like the scalar spine, the elimination splits into a coefficient-only
:class:`BlockThomasFactorization` (the solved super-diagonal blocks
``C'`` plus the raw pivot blocks) and an RHS-only sweep;
:func:`block_thomas_solve_batch` is literally ``factor`` + ``solve``,
so prepared solves are bitwise identical to the cold path.  ``B = 1``
blocks take a scalar fast path whose operation sequence matches
:func:`repro.core.thomas.thomas_solve_batch` exactly (bitwise).

Stability: block diagonal dominance (each ``B_i`` dominating its
neighbour blocks in norm) is the standard sufficient condition; the
implementation solves (never inverts) the running pivot blocks.
"""

from __future__ import annotations

import numpy as np

from repro.core.validation import check_block_batch_arrays

__all__ = [
    "BlockThomasFactorization",
    "block_factor",
    "block_thomas_solve_batch",
    "block_residual",
    "block_to_dense",
]


class BlockThomasFactorization:
    """Coefficient-only block elimination, RHS sweep split off.

    Stores the sub-diagonal blocks ``A`` (needed by the forward sweep),
    the solved super-diagonal blocks ``Cp`` and the raw pivot blocks
    ``piv`` — pivots are re-solved (never inverted) in the sweep, so
    the sweep repeats the cold path's exact LAPACK calls.
    """

    __slots__ = ("A", "Cp", "piv", "nbytes")
    kind = "blockthomas"

    def __init__(self, A, Cp, piv):
        self.A = A
        self.Cp = Cp
        self.piv = piv
        self.nbytes = A.nbytes + Cp.nbytes + piv.nbytes

    @property
    def m(self) -> int:
        return self.piv.shape[0]

    @property
    def n(self) -> int:
        return self.piv.shape[1]

    @property
    def block_size(self) -> int:
        return self.piv.shape[2]

    @property
    def dtype(self):
        return self.piv.dtype

    def arrays(self) -> dict:
        """Every stored array by name (the spill-file layout)."""
        return {"A": self.A, "Cp": self.Cp, "piv": self.piv}

    @classmethod
    def from_arrays(cls, arrays) -> "BlockThomasFactorization":
        """Rebuild from :meth:`arrays`' layout."""
        return cls(arrays["A"], arrays["Cp"], arrays["piv"])

    @classmethod
    def factor(cls, A, B, C) -> "BlockThomasFactorization":
        """Eliminate the coefficients of an ``(M, N, B, B)`` batch."""
        A = np.ascontiguousarray(A)
        B = np.ascontiguousarray(B)
        C = np.ascontiguousarray(C)
        m, n, bs, _ = B.shape
        Cp = np.empty((m, n, bs, bs), dtype=B.dtype)
        piv = np.empty((m, n, bs, bs), dtype=B.dtype)
        if bs == 1:
            # scalar fast path: same op sequence as thomas_solve_batch
            a, b, c = A[..., 0, 0], B[..., 0, 0], C[..., 0, 0]
            sp, scp = piv[..., 0, 0], Cp[..., 0, 0]
            sp[:, 0] = b[:, 0]
            scp[:, 0] = c[:, 0] / b[:, 0]
            for i in range(1, n):
                sp[:, i] = b[:, i] - scp[:, i - 1] * a[:, i]
                scp[:, i] = c[:, i] / sp[:, i]
            scp[:, n - 1] = 0.0
            return cls(A, Cp, piv)
        piv[:, 0] = B[:, 0]
        Cp[:, 0] = np.linalg.solve(piv[:, 0], C[:, 0])
        for i in range(1, n):
            piv[:, i] = B[:, i] - A[:, i] @ Cp[:, i - 1]
            if i < n - 1:
                Cp[:, i] = np.linalg.solve(piv[:, i], C[:, i])
        Cp[:, n - 1] = 0.0
        return cls(A, Cp, piv)

    def solve(self, d, *, out=None) -> np.ndarray:
        """RHS-only sweep: solve for the full ``(M, N, B)`` batch."""
        d = np.asarray(d)
        if d.shape != (self.m, self.n, self.block_size):
            raise ValueError(
                f"d must be {(self.m, self.n, self.block_size)}, "
                f"got {d.shape}"
            )
        if out is None:
            out = np.empty_like(d)
        self.solve_shard(None, d, out)
        return out

    def solve_shard(self, ws, d, out) -> None:
        """Sweep the ``(M, N, B)`` batch ``d`` into ``out``.

        The sweep allocates its own scratch; ``ws`` is unused.
        """
        n = self.n
        A, Cp, piv = self.A, self.Cp, self.piv
        if self.block_size == 1:
            a = A[:, :, 0, 0]
            sp, scp = piv[:, :, 0, 0], Cp[:, :, 0, 0]
            dv, xv = d[:, :, 0], out[:, :, 0]
            dp = np.empty_like(dv)
            dp[:, 0] = dv[:, 0] / sp[:, 0]
            for i in range(1, n):
                dp[:, i] = (dv[:, i] - dp[:, i - 1] * a[:, i]) / sp[:, i]
            xv[:, n - 1] = dp[:, n - 1]
            for i in range(n - 2, -1, -1):
                xv[:, i] = dp[:, i] - scp[:, i] * xv[:, i + 1]
            return
        dp = np.empty(d.shape, dtype=d.dtype)
        dp[:, 0] = np.linalg.solve(piv[:, 0], d[:, 0][..., None])[..., 0]
        for i in range(1, n):
            rhs = d[:, i] - (A[:, i] @ dp[:, i - 1][..., None])[..., 0]
            dp[:, i] = np.linalg.solve(piv[:, i], rhs[..., None])[..., 0]
        out[:, n - 1] = dp[:, n - 1]
        for i in range(n - 2, -1, -1):
            out[:, i] = dp[:, i] - (Cp[:, i] @ out[:, i + 1][..., None])[..., 0]


def block_factor(A, B, C, *, check: bool = True) -> BlockThomasFactorization:
    """Validate (optionally) and factor a block-tridiagonal batch."""
    if check:
        B_arr = np.asarray(B)
        if B_arr.ndim != 4:
            raise ValueError(
                f"block diagonals must be (M, N, B, B), got {B_arr.ndim}-D"
            )
        A, B, C, _ = check_block_batch_arrays(
            A, B, C, np.zeros(B_arr.shape[:3], dtype=B_arr.dtype)
        )
    return BlockThomasFactorization.factor(A, B, C)


def block_thomas_solve_batch(A, B, C, d, *, check: bool = True) -> np.ndarray:
    """Solve ``M`` block-tridiagonal systems.

    Parameters
    ----------
    A, B, C:
        ``(M, N, B, B)`` sub-/main-/super-diagonal blocks
        (``A[:, 0]`` and ``C[:, -1]`` are ignored).
    d:
        ``(M, N, B)`` right-hand sides.
    check:
        Validate shapes/dtype/finiteness (skip inside hot loops).

    Returns
    -------
    numpy.ndarray
        ``(M, N, B)`` solutions, in the inputs' (preserved) dtype.

    Notes
    -----
    Implemented literally as :meth:`BlockThomasFactorization.factor`
    followed by the RHS sweep, so a prepared solve of the same
    coefficients is bitwise identical to this cold path.
    """
    if check:
        A, B, C, d = check_block_batch_arrays(A, B, C, d)
    else:
        A, B, C, d = (np.asarray(v) for v in (A, B, C, d))
    return BlockThomasFactorization.factor(A, B, C).solve(d)


def block_to_dense(A, B, C) -> np.ndarray:
    """Assemble the ``(M, N·B, N·B)`` dense stack of a block batch."""
    A, B, C = (np.asarray(v) for v in (A, B, C))
    m, n, bs, _ = B.shape
    dense = np.zeros((m, n * bs, n * bs), dtype=B.dtype)
    for i in range(n):
        r = slice(i * bs, (i + 1) * bs)
        dense[:, r, r] = B[:, i]
        if i > 0:
            dense[:, r, (i - 1) * bs : i * bs] = A[:, i]
        if i < n - 1:
            dense[:, r, (i + 1) * bs : (i + 2) * bs] = C[:, i]
    return dense


def block_residual(A, B, C, d, x) -> np.ndarray:
    """Residual ``A_blk x − d`` of a batch solution, shape ``(M, N, B)``."""
    A, B, C, d = check_block_batch_arrays(A, B, C, d)
    x = np.asarray(x, dtype=d.dtype)
    r = (B @ x[..., None])[..., 0] - d
    r[:, 1:] += (A[:, 1:] @ x[:, :-1][..., None])[..., 0]
    r[:, :-1] += (C[:, :-1] @ x[:, 1:][..., None])[..., 0]
    return r
