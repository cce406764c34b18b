"""Batched pentadiagonal elimination (Thomas-style LU, no pivoting).

The interleaved-batch layout that makes the paper's tridiagonal solves
fast carries over unchanged to five-diagonal systems (Gloster et al.,
arXiv 1909.04539 — cuPentBatch): the row recurrence is sequential, the
batch axis is the parallel axis, and every row step is one vectorized
operation across all ``M`` systems.

Diagonals follow offset order: ``e`` (second sub-diagonal, −2), ``a``
(−1), ``b`` (main), ``c`` (+1), ``f`` (+2), each ``(M, N)`` with the
out-of-matrix pads zeroed (``e[:, :2]``, ``a[:, 0]``, ``c[:, -1]``,
``f[:, -2:]``).

The elimination is the LU factorization ``A = L·U`` with

* ``L``: second sub-diagonal ``e`` (unchanged), sub-diagonal ``β``,
  diagonal ``α``;
* ``U``: unit diagonal, super-diagonal ``γ``, second super ``δ``;

giving the recurrences (``γ``/``δ`` at negative indices are zero)::

    β_i = a_i − e_i·γ_{i−2}
    α_i = b_i − e_i·δ_{i−2} − β_i·γ_{i−1}
    γ_i = (c_i − β_i·δ_{i−1}) / α_i
    δ_i = f_i / α_i

Like :class:`~repro.engine.prepared.ThomasRhsFactorization`, the
factorization stores the **denominators** ``α`` (not reciprocals) and
divides in the sweep, and :func:`pentadiag_solve_batch` is literally
``factor`` + ``solve`` — so a prepared (RHS-only) solve is bitwise
identical to the cold path by construction.
"""

from __future__ import annotations

import numpy as np

from repro.core.validation import check_penta_batch_arrays

__all__ = [
    "PentaFactorization",
    "penta_factor",
    "pentadiag_solve_batch",
    "penta_to_dense",
]


class PentaFactorization:
    """Coefficient-only LU of a pentadiagonal batch, RHS sweep split off.

    Arrays live transposed ``(N, M)`` so each row step of the sweep is
    a contiguous vector operation across the batch — the same layout
    trick as :class:`~repro.engine.prepared.ThomasRhsFactorization`.
    """

    __slots__ = ("te", "beta", "alpha", "gamma", "delta", "nbytes")
    kind = "penta"

    def __init__(self, te, beta, alpha, gamma, delta):
        self.te = te
        self.beta = beta
        self.alpha = alpha
        self.gamma = gamma
        self.delta = delta
        self.nbytes = sum(
            arr.nbytes for arr in (te, beta, alpha, gamma, delta)
        )

    @property
    def m(self) -> int:
        return self.alpha.shape[1]

    @property
    def n(self) -> int:
        return self.alpha.shape[0]

    @property
    def dtype(self):
        return self.alpha.dtype

    def arrays(self) -> dict:
        """Every stored array by name (the spill-file layout)."""
        return {
            "te": self.te, "beta": self.beta, "alpha": self.alpha,
            "gamma": self.gamma, "delta": self.delta,
        }

    @classmethod
    def from_arrays(cls, arrays) -> "PentaFactorization":
        """Rebuild from :meth:`arrays`' layout."""
        return cls(
            arrays["te"], arrays["beta"], arrays["alpha"],
            arrays["gamma"], arrays["delta"],
        )

    @classmethod
    def factor(cls, e, a, b, c, f) -> "PentaFactorization":
        """Eliminate the coefficients of an ``(M, N)`` penta batch."""
        te = np.ascontiguousarray(np.asarray(e).T)
        ta = np.ascontiguousarray(np.asarray(a).T)
        tb = np.ascontiguousarray(np.asarray(b).T)
        tc = np.ascontiguousarray(np.asarray(c).T)
        tf = np.ascontiguousarray(np.asarray(f).T)
        n, m = tb.shape
        dtype = tb.dtype
        beta = np.empty((n, m), dtype=dtype)
        alpha = np.empty((n, m), dtype=dtype)
        gamma = np.empty((n, m), dtype=dtype)
        delta = np.empty((n, m), dtype=dtype)
        beta[0] = ta[0]  # pad: a[:, 0] == 0
        alpha[0] = tb[0]
        np.divide(tc[0], alpha[0], out=gamma[0])
        np.divide(tf[0], alpha[0], out=delta[0])
        t1 = np.empty(m, dtype=dtype)
        if n > 1:
            beta[1] = ta[1]  # pad: e[:, 1] == 0
            np.multiply(beta[1], gamma[0], out=t1)
            np.subtract(tb[1], t1, out=alpha[1])
            np.multiply(beta[1], delta[0], out=t1)
            np.subtract(tc[1], t1, out=gamma[1])
            np.divide(gamma[1], alpha[1], out=gamma[1])
            np.divide(tf[1], alpha[1], out=delta[1])
        for i in range(2, n):
            np.multiply(te[i], gamma[i - 2], out=t1)
            np.subtract(ta[i], t1, out=beta[i])
            np.multiply(te[i], delta[i - 2], out=t1)
            np.subtract(tb[i], t1, out=alpha[i])
            np.multiply(beta[i], gamma[i - 1], out=t1)
            np.subtract(alpha[i], t1, out=alpha[i])
            np.multiply(beta[i], delta[i - 1], out=t1)
            np.subtract(tc[i], t1, out=gamma[i])
            np.divide(gamma[i], alpha[i], out=gamma[i])
            np.divide(tf[i], alpha[i], out=delta[i])
        return cls(te, beta, alpha, gamma, delta)

    def solve(self, d, *, out=None) -> np.ndarray:
        """RHS-only sweep: solve ``A x = d`` for the full ``(M, N)`` batch."""
        d = np.asarray(d)
        if d.ndim != 2 or d.shape != (self.m, self.n):
            raise ValueError(
                f"d must be ({self.m}, {self.n}), got {d.shape}"
            )
        if out is None:
            out = np.empty_like(d)
        self.solve_shard(None, d, out)
        return out

    def solve_shard(self, ws, d, out) -> None:
        """Sweep the ``(M, N)`` batch ``d`` into ``out``.

        The sweep allocates its own scratch; ``ws`` is unused.
        """
        n, m = self.n, self.m
        dtype = self.alpha.dtype
        z = np.empty((n, m), dtype=dtype)
        t1 = np.empty(m, dtype=dtype)
        te, beta, alpha = self.te, self.beta, self.alpha
        gamma, delta = self.gamma, self.delta
        # forward: L z = d
        z[0] = d[:, 0]
        np.divide(z[0], alpha[0], out=z[0])
        if n > 1:
            np.multiply(beta[1], z[0], out=t1)
            np.subtract(d[:, 1], t1, out=z[1])
            np.divide(z[1], alpha[1], out=z[1])
        for i in range(2, n):
            np.multiply(te[i], z[i - 2], out=t1)
            np.subtract(d[:, i], t1, out=z[i])
            np.multiply(beta[i], z[i - 1], out=t1)
            np.subtract(z[i], t1, out=z[i])
            np.divide(z[i], alpha[i], out=z[i])
        # backward: U x = z (reuse z as x, bottom-up)
        if n > 1:
            np.multiply(gamma[n - 2], z[n - 1], out=t1)
            np.subtract(z[n - 2], t1, out=z[n - 2])
        for i in range(n - 3, -1, -1):
            np.multiply(gamma[i], z[i + 1], out=t1)
            np.subtract(z[i], t1, out=z[i])
            np.multiply(delta[i], z[i + 2], out=t1)
            np.subtract(z[i], t1, out=z[i])
        out[...] = z.T


def penta_factor(e, a, b, c, f, *, check: bool = True) -> PentaFactorization:
    """Validate (optionally) and factor a pentadiagonal batch."""
    if check:
        b_arr = np.asarray(b)
        e, a, b, c, f, _ = check_penta_batch_arrays(
            e, a, b, c, f, np.zeros(b_arr.shape, dtype=b_arr.dtype)
        )
    return PentaFactorization.factor(e, a, b, c, f)


def pentadiag_solve_batch(e, a, b, c, f, d, *, check: bool = True):
    """Solve ``M`` pentadiagonal systems, vectorized over the batch axis.

    Implemented literally as :meth:`PentaFactorization.factor` followed
    by the RHS sweep, so a prepared solve of the same coefficients is
    bitwise identical to this cold path.
    """
    if check:
        e, a, b, c, f, d = check_penta_batch_arrays(e, a, b, c, f, d)
    else:
        e, a, b, c, f, d = (np.asarray(v) for v in (e, a, b, c, f, d))
    return PentaFactorization.factor(e, a, b, c, f).solve(d)


def penta_to_dense(e, a, b, c, f) -> np.ndarray:
    """Assemble the ``(M, N, N)`` dense stack of a penta batch (tests/refs)."""
    e, a, b, c, f = (np.asarray(v) for v in (e, a, b, c, f))
    m, n = b.shape
    dense = np.zeros((m, n, n), dtype=b.dtype)
    idx = np.arange(n)
    dense[:, idx, idx] = b
    dense[:, idx[1:], idx[:-1]] = a[:, 1:]
    dense[:, idx[:-1], idx[1:]] = c[:, :-1]
    if n > 2:
        dense[:, idx[2:], idx[:-2]] = e[:, 2:]
        dense[:, idx[:-2], idx[2:]] = f[:, : n - 2]
    return dense
