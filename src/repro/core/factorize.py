"""Factorization reuse: factor once, solve many right-hand sides.

Time-stepping applications (Crank–Nicolson, ADI, multigrid smoothing —
exactly the paper's motivating workloads) solve the *same* tridiagonal
matrix against a new right-hand side every step.  Both algorithm
families split cleanly into a coefficient-only phase and an
RHS-dependent phase:

* **Thomas**: the forward-elimination multipliers ``c'_i`` and pivots
  depend only on ``(a, b, c)``; a solve is then one forward and one
  backward O(n) sweep over ``d``.
* **k-step PCR + p-Thomas**: each PCR level's reduction factors
  ``k1 = a/b_{−s}`` and ``k2 = c/b_{+s}`` depend only on coefficients;
  applying a level to a right-hand side is
  ``d' = d − k1·d_{−s} − k2·d_{+s}``.  Storing the ``(k1, k2)`` of all
  ``k`` levels plus a Thomas factorization of the reduced interleaved
  system gives an O(kN + N) solve per RHS with zero re-elimination.

Both factorizations accept multiple right-hand sides at once
(``d`` of shape ``(M, N)`` or ``(M, N, R)``), vectorizing over the
trailing RHS axis.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.transition import GTX480_HEURISTIC, clamp_k
from repro.core.validation import check_batch_arrays

__all__ = ["HybridFactorization", "ThomasFactorization"]


def _shift_rhs(d: np.ndarray, offset: int) -> np.ndarray:
    """Shift along axis 1 with zero fill: ``out[:, i] = d[:, i + offset]``."""
    out = np.zeros_like(d)
    n = d.shape[1]
    if offset > 0:
        if offset < n:
            out[:, : n - offset] = d[:, offset:]
    elif offset < 0:
        k = -offset
        if k < n:
            out[:, k:] = d[:, : n - k]
    else:
        out[...] = d
    return out


def _match_buffer(buf, d: np.ndarray, squeeze: bool) -> np.ndarray:
    """Adapt a caller-owned buffer to ``d``'s expanded ``(M, N, R)`` shape.

    Accepts the buffer in either the caller's original shape (``(M, N)``
    when ``squeeze``) or already-expanded form; allocates when ``buf`` is
    ``None``.
    """
    if buf is None:
        return np.empty_like(d)
    if squeeze and buf.ndim == 2:
        buf = buf[..., None]
    if buf.shape != d.shape or buf.dtype != d.dtype:
        raise ValueError(
            f"buffer has shape {buf.shape} dtype {buf.dtype}, "
            f"expected {d.shape} {d.dtype}"
        )
    return buf


@dataclass
class ThomasFactorization:
    """LU-without-pivoting of a batch of tridiagonal matrices.

    Stores the forward multipliers so each subsequent solve is two O(n)
    sweeps over the right-hand side only.

    Examples
    --------
    >>> import numpy as np
    >>> from repro.core.factorize import ThomasFactorization
    >>> from repro.workloads.generators import random_batch
    >>> a, b, c, d = random_batch(4, 64, seed=0)
    >>> fact = ThomasFactorization.factor(a, b, c)
    >>> x = fact.solve(d)             # first RHS
    >>> x2 = fact.solve(d * 2.0)      # reuse: no re-elimination
    >>> bool(np.allclose(x2, 2.0 * x))
    True
    """

    a: np.ndarray  # sub-diagonal (needed in the d-forward sweep)
    cp: np.ndarray  # modified super-diagonal c'_i
    inv_denom: np.ndarray  # 1 / (b_i - a_i c'_{i-1})

    @classmethod
    def factor(cls, a, b, c, *, check: bool = True) -> "ThomasFactorization":
        """Run the coefficient-only part of the forward elimination."""
        if check:
            d0 = np.zeros_like(np.asarray(b))
            a, b, c, _ = check_batch_arrays(a, b, c, d0)
        else:
            a, b, c = (np.asarray(v) for v in (a, b, c))
        m, n = b.shape
        cp = np.empty((m, n), dtype=b.dtype)
        inv = np.empty((m, n), dtype=b.dtype)
        inv[:, 0] = 1.0 / b[:, 0]
        cp[:, 0] = c[:, 0] * inv[:, 0]
        for i in range(1, n):
            denom = b[:, i] - cp[:, i - 1] * a[:, i]
            inv[:, i] = 1.0 / denom
            cp[:, i] = c[:, i] * inv[:, i]
        return cls(a=a.copy(), cp=cp, inv_denom=inv)

    @property
    def m(self) -> int:
        """Number of factored systems."""
        return self.cp.shape[0]

    @property
    def n(self) -> int:
        """System size."""
        return self.cp.shape[1]

    def solve(self, d, *, out=None, scratch=None) -> np.ndarray:
        """Solve for one RHS set: ``d`` is ``(M, N)`` or ``(M, N, R)``.

        ``out`` receives the solution (same shape as ``d``); ``scratch``
        is an optional caller-owned buffer of ``d``'s shape for the
        modified RHS, so a warm RHS-only solve allocates nothing.  The
        solve runs in the factorization's dtype (a float32
        factorization keeps float32 right-hand sides in float32).
        """
        d = np.asarray(d, dtype=self.cp.dtype)
        squeeze = d.ndim == 2
        if squeeze:
            d = d[..., None]
        if d.shape[:2] != self.cp.shape:
            raise ValueError(
                f"d has leading shape {d.shape[:2]}, expected {self.cp.shape}"
            )
        m, n, r = d.shape
        a = self.a[..., None]
        inv = self.inv_denom[..., None]
        cp = self.cp[..., None]
        dp = _match_buffer(scratch, d, squeeze)
        x = _match_buffer(out, d, squeeze)
        dp[:, 0] = d[:, 0] * inv[:, 0]
        for i in range(1, n):
            dp[:, i] = (d[:, i] - dp[:, i - 1] * a[:, i]) * inv[:, i]
        x[:, n - 1] = dp[:, n - 1]
        for i in range(n - 2, -1, -1):
            x[:, i] = dp[:, i] - cp[:, i] * x[:, i + 1]
        if out is not None:
            return out
        return x[..., 0] if squeeze else x


@dataclass
class HybridFactorization:
    """Factored k-step PCR + p-Thomas hybrid.

    ``factor`` runs the PCR sweep once on the coefficients, storing each
    level's ``(k1, k2)`` reduction factors, and Thomas-factorizes the
    reduced interleaved system.  ``solve`` then applies the stored level
    factors to the RHS (O(kN)) and back-substitutes through the stored
    Thomas factors (O(N)) — no eliminations are ever repeated.
    """

    k: int
    level_factors: list = field(default_factory=list)  # [(k1, k2), ...]
    reduced: ThomasFactorization | None = None

    kind = "hybrid"

    @property
    def nbytes(self) -> int:
        """Bytes of stored elimination state."""
        red = self.reduced
        return (
            sum(k1.nbytes + k2.nbytes for k1, k2 in self.level_factors)
            + red.a.nbytes + red.cp.nbytes + red.inv_denom.nbytes
        )

    def arrays(self) -> dict:
        """Every stored array by name (the spill-file layout)."""
        named = {"k": np.array(self.k)}
        for i, (k1, k2) in enumerate(self.level_factors):
            named[f"lvl{i}_k1"] = k1
            named[f"lvl{i}_k2"] = k2
        red = self.reduced
        named.update(red_a=red.a, red_cp=red.cp, red_inv_denom=red.inv_denom)
        return named

    @classmethod
    def from_arrays(cls, arrays) -> "HybridFactorization":
        """Rebuild from :meth:`arrays`' layout."""
        k = int(arrays["k"])
        return cls(
            k=k,
            level_factors=[
                (arrays[f"lvl{i}_k1"], arrays[f"lvl{i}_k2"]) for i in range(k)
            ],
            reduced=ThomasFactorization(
                a=arrays["red_a"],
                cp=arrays["red_cp"],
                inv_denom=arrays["red_inv_denom"],
            ),
        )

    def solve_shard(self, ws, d, out, lo: int, hi: int) -> None:
        """RHS-only solve of batch rows ``[lo, hi)`` into ``out``.

        Runs on a zero-copy row view: level factors slice along the
        batch axis, and the reduced interleaved rows of batch row ``i``
        are ``[i·g, (i+1)·g)``.  Elementwise along ``M`` throughout, so
        a shard produces the exact bits the whole-batch solve would.
        ``ws.scratch_for(lo, hi)`` supplies the shard's buffers.
        """
        g = 1 << self.k
        red = self.reduced
        rows = HybridFactorization(
            k=self.k,
            level_factors=[(k1[lo:hi], k2[lo:hi]) for k1, k2 in self.level_factors],
            reduced=ThomasFactorization(
                a=red.a[lo * g : hi * g],
                cp=red.cp[lo * g : hi * g],
                inv_denom=red.inv_denom[lo * g : hi * g],
            ),
        )
        rows.solve(d[lo:hi], out=out[lo:hi], scratch=ws.scratch_for(lo, hi))

    @classmethod
    def factor(
        cls, a, b, c, *, k: int | None = None, check: bool = True
    ) -> "HybridFactorization":
        """Factor a batch; ``k`` defaults to the Table III heuristic."""
        d0 = np.zeros_like(np.asarray(b))
        if check:
            a, b, c, _ = check_batch_arrays(a, b, c, d0)
        else:
            a, b, c = (np.asarray(v) for v in (a, b, c))
        m, n = b.shape
        if k is None:
            k = GTX480_HEURISTIC.k_for(m, n)
        k = clamp_k(k, n)

        fact = cls(k=k)
        one = b.dtype.type(1)
        s = 1
        for _ in range(k):
            b_m = _shift_rhs(b, -s)
            b_m[:, :s] = one
            b_p = _shift_rhs(b, +s)
            b_p[:, n - s :] = one
            k1 = a / b_m
            k2 = c / b_p
            if s < n:
                k1[:, :s] = 0.0
                k2[:, n - s :] = 0.0
            else:
                k1[...] = 0.0
                k2[...] = 0.0
            a_new = -_shift_rhs(a, -s) * k1
            b_new = b - _shift_rhs(c, -s) * k1 - _shift_rhs(a, +s) * k2
            c_new = -_shift_rhs(c, +s) * k2
            fact.level_factors.append((k1, k2))
            a, b, c = a_new, b_new, c_new
            s *= 2

        # Thomas-factor the reduced system subsystem-wise: regroup the
        # interleaved rows into (M * 2^k, L) with identity padding.
        g = 1 << k
        if g == 1:
            fact.reduced = ThomasFactorization.factor(a, b, c, check=False)
            return fact
        L = -(-n // g)
        ra = np.zeros((m * g, L), dtype=b.dtype)
        rb = np.ones((m * g, L), dtype=b.dtype)
        rc = np.zeros((m * g, L), dtype=b.dtype)
        for j in range(g):
            cols = slice(j, n, g)
            w = len(range(j, n, g))
            ra[j::g, :w] = a[:, cols]
            rb[j::g, :w] = b[:, cols]
            rc[j::g, :w] = c[:, cols]
        ra[:, 0] = 0.0
        rc[:, -1] = 0.0
        fact.reduced = ThomasFactorization.factor(ra, rb, rc, check=False)
        return fact

    @property
    def dtype(self) -> np.dtype:
        """Dtype the factorization was built in (solves run in it too)."""
        if self.level_factors:
            return self.level_factors[0][0].dtype
        if self.reduced is None:
            raise RuntimeError("factorization not initialized; use factor()")
        return self.reduced.cp.dtype

    def _scratch(self, scratch, name: str, shape, dtype) -> np.ndarray:
        """Fetch-or-allocate a named buffer from the scratch dict."""
        if scratch is None:
            return np.empty(shape, dtype=dtype)
        arr = scratch.get(name)
        if arr is None or arr.shape != shape or arr.dtype != dtype:
            arr = np.empty(shape, dtype=dtype)
            scratch[name] = arr
        return arr

    def solve(self, d, *, out=None, scratch=None) -> np.ndarray:
        """Solve for ``d`` of shape ``(M, N)`` or ``(M, N, R)``.

        ``scratch`` is an optional dict the solve keys its intermediate
        buffers into — pass the same dict every time step and the warm
        RHS-only path allocates nothing.  ``out`` receives the solution.
        The input is never mutated, and the solve runs in the
        factorization's dtype.
        """
        if self.reduced is None:
            raise RuntimeError("factorization not initialized; use factor()")
        d = np.asarray(d, dtype=self.dtype)
        squeeze = d.ndim == 2
        if squeeze:
            d = d[..., None]
        m, n, r = d.shape
        g = 1 << self.k

        # Apply the stored PCR level factors to the RHS, ping-ponging
        # between two scratch buffers (the input is left untouched).
        # Each level is one strided apply on the interior slices — the
        # zero-filled shift buffers the loop used to materialize are
        # gone; the boundary rows they zeroed carry k1/k2 == 0 (set at
        # factor time), so skipping them is bitwise identical
        # (x - 0.0*y == x for every finite x and for -0.0).
        cur = d
        if self.level_factors:
            work = (
                self._scratch(scratch, "lvl0", d.shape, d.dtype),
                self._scratch(scratch, "lvl1", d.shape, d.dtype),
            )
            tm = self._scratch(scratch, "shift", d.shape, d.dtype)
            s = 1
            for lvl, (k1, k2) in enumerate(self.level_factors):
                nxt = work[lvl & 1]
                if s < n:
                    np.multiply(k1[:, s:, None], cur[:, : n - s],
                                out=nxt[:, s:])
                    np.subtract(cur[:, s:], nxt[:, s:], out=nxt[:, s:])
                    nxt[:, :s] = cur[:, :s]
                    np.multiply(k2[:, : n - s, None], cur[:, s:],
                                out=tm[:, : n - s])
                    np.subtract(nxt[:, : n - s], tm[:, : n - s],
                                out=nxt[:, : n - s])
                else:  # stride exceeds N: this level is the identity
                    nxt[...] = cur
                cur = nxt
                s *= 2

        if g == 1:
            dp = self._scratch(scratch, "dp", cur.shape, cur.dtype)
            x = _match_buffer(out, cur, squeeze)
            self.reduced.solve(cur, out=x, scratch=dp)
            if out is not None:
                return out
            return x[..., 0] if squeeze else x

        # regroup into subsystems, back-substitute, regroup back
        L = self.reduced.n
        rshape = (m * g, L, r)
        rd = self._scratch(scratch, "rd", rshape, cur.dtype)
        rdp = self._scratch(scratch, "rdp", rshape, cur.dtype)
        rx = self._scratch(scratch, "rx", rshape, cur.dtype)
        for j in range(g):
            w = len(range(j, n, g))
            rd[j::g, :w] = cur[:, j::g]
            if w < L:  # identity-padded tail rows: re-zero reused buffers
                rd[j::g, w:] = 0.0
        self.reduced.solve(rd, out=rx, scratch=rdp)
        x = _match_buffer(out, cur, squeeze)
        for j in range(g):
            w = len(range(j, n, g))
            x[:, j::g] = rx[j::g, :w]
        if out is not None:
            return out
        return x[..., 0] if squeeze else x
