"""N-partition math for the distributed backend.

The spine of the distributed tier is Wang's partition method as used by
DistD2 (Akkurt et al., arXiv 2411.13532): split one length-``N``
tridiagonal system into ``P`` contiguous slabs, eliminate each slab's
interior onto its first and last unknown, and what remains is a
``2P``-row *reduced interface system* coupling only those two unknowns
of every slab.  Solve that small system once, scatter the
boundary values back, and every interior unknown follows from one
vectorized substitution.

All slab kernels here work on **transposed** ``(L, M)`` arrays — row
``i`` holds position ``i`` of all ``M`` systems — so each recurrence
step is one contiguous M-wide vector operation, exactly like the
engine's interleaved ``k = 0`` Thomas layout.

The functions in this module are the *single* implementation of the
math: the multiprocessing workers (:mod:`repro.distributed.pool`) call
:func:`factor_slab` / :func:`eliminate_slab` / :func:`backsub_slab` on
shared-memory views, and :func:`partitioned_solve_reference` calls them
in-process on the same values — so the worker path is bitwise
identical to the reference by construction.

Derivation (per slab, rows ``0..L-1``; ``x[-1]``/``x[L]`` are the
neighbouring slabs' boundary unknowns, carried by the padded ``a[0]``
and ``c[L-1]`` coefficients).  The interior rows ``1..L-2`` form a
tridiagonal system ``T`` coupled to the slab's own boundary unknowns
``x0`` and ``xl = x_{L-1}`` only through ``a_1`` and ``c_{L-2}``, so
every interior unknown is

    ``x_i = y_i - p_i x0 - q_i xl``,  ``T y = d``,
    ``T p = a_1 e_1``,  ``T q = c_{L-2} e_{L-2}``

(``p``/``q`` are SPIKE's spike columns).  Substituting rows ``1`` and
``L-2`` into the two boundary rows leaves the slab's two boundary
equations:

* row ``0``: ``x0 + sub0 x_{-1} + sup0 xl = rhs0`` with
  ``den0 = b_0 - c_0 p_1``, ``sub0 = a_0/den0``,
  ``sup0 = -(c_0 q_1)/den0``, ``rhs0 = (d_0 - c_0 y_1)/den0``;
* row ``L-1``: ``xl + subl x0 + supl x_L = rhsl`` with pivot
  ``r = b_{L-1} - a_{L-1} q_{L-2}``, ``subl = -(a_{L-1} p_{L-2})/r``,
  ``supl = c_{L-1}/r``, ``rhsl = (d_{L-1} - a_{L-1} y_{L-2})/r``.

Only ``y`` and the two ``rhs`` values depend on ``d``, so the
elimination splits in two.  The **bind half** (:func:`factor_slab`)
runs once per coefficient set: it factors ``T``, solves ``p`` and
``q`` and fixes every coefficient above.  The **step half**
(:func:`eliminate_slab`) solves ``T y = d`` RHS-only and forms the two
right-hand sides.  ``T`` is factored by the engine's
:func:`~repro.engine.prepared.build_factorization` at the ``k``
:data:`SLAB_HEURISTIC` picks: for ``M < 32`` a
:class:`~repro.core.factorize.HybridFactorization` (the paper's tiled
PCR + p-Thomas, Table III's small-``M`` rows), otherwise a
:class:`~repro.core.factorize.ThomasRhsFactorization`; both sweep
the ``(L, M)`` slab rows in place.  The Thomas
sweeps run the operations of Akkurt et al.'s fused modified-Thomas
elimination (forward sweep tracking the coupling to ``x0``, backward
sweep onto ``(x0, xl)``) in its order, so ``k = 0`` slabs keep its
bits — up to the sign of a zero: where a spike entry underflows, a
zero in the spikes, the reduced rows or (for a zero right-hand side
stretch) the solution may carry the other sign.

In the interleaved ordering ``(x0^0, xl^0, x0^1, xl^1, ...)`` the
``2P`` boundary equations form a scalar **tridiagonal** system with
unit diagonal — solved via
:class:`~repro.core.blocktridiag.BlockThomasFactorization`'s ``B = 1``
fast path.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.factorize import HybridFactorization, ThomasRhsFactorization
from repro.core.transition import TransitionHeuristic
from repro.engine.plan import build_plan
from repro.engine.prepared import build_factorization
from repro.engine.workspace import PreparedWorkspace

__all__ = [
    "MIN_SLAB_ROWS",
    "SLAB_HEURISTIC",
    "SlabFactorization",
    "slab_bounds",
    "slab_interior_k",
    "effective_ranks",
    "factor_slab",
    "eliminate_slab",
    "backsub_slab",
    "assemble_reduced",
    "solve_reduced",
    "partitioned_solve_reference",
]

#: A slab must contain at least its two boundary rows.
MIN_SLAB_ROWS = 2

#: Route of a slab interior: Table III's two small-``M`` rows, ``k = 0``
#: (Thomas) above them.  Measured once on a 2-vCPU host, the RHS-only
#: hybrid step beat the Thomas step at ``M <= 32`` (4.1 vs 15.0 ms per
#: 4096-row slab at ``M = 16``, k = 7) and lost from ``M = 64`` up
#: (37.7 vs 31.3 ms at k = 6).  Table III's rows are kept as they are,
#: so ``M = 32`` goes to ``k = 0``, the side that probe measured slower
#: (15.5 vs 9.5 ms at k = 6); no benchmark workload covers ``M >= 32``
#: yet, so the cut is not tuned further.
SLAB_HEURISTIC = TransitionHeuristic(
    thresholds=(16, 32), ks=(8, 7, 0), name="slab interiors"
)


def effective_ranks(n: int, ranks: int) -> int:
    """Clamp a requested rank count to what ``n`` rows can feed."""
    if ranks < 1:
        raise ValueError(f"ranks must be >= 1, got {ranks}")
    return max(1, min(int(ranks), n // MIN_SLAB_ROWS))


def slab_bounds(n: int, ranks: int) -> list[tuple[int, int]]:
    """Contiguous near-equal ``[lo, hi)`` slabs, each >= 2 rows."""
    p = effective_ranks(n, ranks)
    base, extra = divmod(n, p)
    bounds = []
    lo = 0
    for r in range(p):
        hi = lo + base + (1 if r < extra else 0)
        bounds.append((lo, hi))
        lo = hi
    return bounds


def slab_interior_k(m: int, slab_rows: int) -> int:
    """The ``k`` a slab's interior is factored at (0 = Thomas)."""
    interior = slab_rows - MIN_SLAB_ROWS
    return SLAB_HEURISTIC.k_for(m, interior) if interior > 0 else 0


def _solve_interior(fact, ws, d, y) -> None:
    """``T y = d`` over slab rows ``1..L-2`` of ``(L, M)`` arrays: the
    factorization's transposed sweep reads and writes them in place."""
    fact.solve_shard_t(ws, d[1:-1], y[1:-1])


@dataclass(slots=True)
class SlabFactorization:
    """The bind half of one ``(L, M)`` slab: everything but ``d``.

    ``fact`` is the engine factorization of the interior system ``T``
    (rows ``1..L-2``) and ``ws`` its RHS-only scratch; ``p``/``q`` are
    ``(L, M)`` spike columns (rows ``1..L-2`` valid); ``reduced`` holds
    the four coefficient rows of the slab's ``(6, M)`` boundary
    equations, its two right-hand-side rows unset; ``c0``, ``den0``,
    ``al`` and ``pivl`` are what the step needs to form those two
    right-hand sides.  A slab of two rows has no interior (``fact``,
    ``ws``, ``c0`` and ``al`` are ``None``).
    """

    fact: ThomasRhsFactorization | HybridFactorization | None
    ws: PreparedWorkspace | None
    p: np.ndarray
    q: np.ndarray
    reduced: np.ndarray
    c0: np.ndarray | None
    den0: np.ndarray
    al: np.ndarray | None
    pivl: np.ndarray

    @property
    def shape(self) -> tuple:
        """The ``(L, M)`` slab shape this factorization serves."""
        return self.p.shape


def factor_slab(a, b, c) -> SlabFactorization:
    """Bind half of one ``(L, M)`` slab's elimination.

    Factors the interior at :func:`slab_interior_k` through
    :func:`~repro.engine.prepared.build_factorization`, solves the spike
    columns ``p = T^-1 a_1 e_1`` and ``q = T^-1 c_{L-2} e_{L-2}`` once
    through its RHS-only sweep and fixes the coefficient halves of both
    boundary equations (see the module derivation).  The slab arrays
    are not mutated: the interior factorization holds staged copies
    (one ``(L - 2, 1)`` column per array when every system of the
    slab is one matrix), so it must be rebuilt whenever the slab's
    coefficients change.
    """
    L, M = b.shape
    if L < MIN_SLAB_ROWS:
        raise ValueError(f"slab needs >= {MIN_SLAB_ROWS} rows, got {L}")
    p = np.empty_like(b)
    q = np.empty_like(b)
    reduced = np.empty((6, M), dtype=b.dtype)
    if L == MIN_SLAB_ROWS:
        # no interior: row 0 couples (x_{-1}, x0, xl) and row 1
        # (x0, xl, x_L) directly
        den0, pivl = b[0].copy(), b[1].copy()
        np.divide(a[0], den0, out=reduced[0])
        np.divide(c[0], den0, out=reduced[1])
        np.divide(a[1], pivl, out=reduced[3])
        np.divide(c[1], pivl, out=reduced[4])
        return SlabFactorization(
            None, None, p, q, reduced, None, den0, None, pivl
        )

    plan = build_plan(M, L - 2, b.dtype, k=slab_interior_k(M, L))
    # T is the interior rows as they stand: its couplings to x0 and xl
    # (a_1, c_{L-2}) sit in the a[:, 0] / c[:, -1] corners, which both
    # routes ignore
    fact = build_factorization(plan, *(v[1:L - 1].T for v in (a, b, c)))
    ws = PreparedWorkspace(plan)
    e = np.zeros_like(b)
    e[1] = a[1]
    _solve_interior(fact, ws, e, p)
    e[1] = 0.0
    e[L - 2] = c[L - 2]
    _solve_interior(fact, ws, e, q)
    den0 = b[0] - c[0] * p[1]
    reduced[0] = a[0] / den0
    reduced[1] = -(c[0] * q[1]) / den0
    pivl = b[L - 1] - a[L - 1] * q[L - 2]
    reduced[3] = -(a[L - 1] * p[L - 2]) / pivl
    reduced[4] = c[L - 1] / pivl
    return SlabFactorization(
        fact, ws, p, q, reduced, c[0].copy(), den0, a[L - 1].copy(), pivl
    )


def eliminate_slab(fact: SlabFactorization, d):
    """Step half of one ``(L, M)`` slab's elimination: reads only ``d``.

    Returns ``(rep, reduced)``:

    * ``rep`` — the triple ``(p, q, y)`` of ``(L, M)`` arrays whose rows
      ``1..L-2`` hold the interior representation
      ``x_i = y_i - p_i*x0 - q_i*xl``; ``p``/``q`` belong to ``fact``
      and ``y`` is this step's interior solve.  Rows ``0`` and ``L-1``
      are scratch.  This stays local to the worker between the
      eliminate and backsub phases.
    * ``reduced`` — a ``(6, M)`` array with the slab's two normalized
      boundary equations, the only data shipped to rank 0:
      ``[sub0, sup0, rhs0]`` for ``x0`` (``sub0`` couples the previous
      slab's last unknown, ``sup0`` couples ``xl``) and
      ``[subl, supl, rhsl]`` for ``xl`` (``subl`` couples ``x0``,
      ``supl`` couples the next slab's first unknown).
    """
    if d.shape != fact.shape:
        raise ValueError(
            f"d has shape {d.shape}, slab factored for {fact.shape}"
        )
    L = d.shape[0]
    y = np.empty_like(fact.p)
    reduced = fact.reduced.copy()
    if fact.fact is None:
        np.divide(d[0], fact.den0, out=reduced[2])
        np.divide(d[1], fact.pivl, out=reduced[5])
    else:
        _solve_interior(fact.fact, fact.ws, d, y)
        reduced[2] = (d[0] - fact.c0 * y[1]) / fact.den0
        reduced[5] = (d[L - 1] - fact.al * y[L - 2]) / fact.pivl
    return (fact.p, fact.q, y), reduced


def backsub_slab(rep, x_first, x_last, out) -> None:
    """Fill one slab's ``(L, M)`` solution from its boundary values.

    ``rep`` is :func:`eliminate_slab`'s ``(p, q, y)`` triple;
    ``x_first``/``x_last`` are ``(M,)`` vectors from the reduced solve;
    every interior row follows in one vectorized substitution.
    """
    L = out.shape[0]
    ar, cr, dr = rep[0], rep[1], rep[2]
    out[0] = x_first
    out[L - 1] = x_last
    if L > 2:
        out[1:L - 1] = (
            dr[1:L - 1] - ar[1:L - 1] * x_first - cr[1:L - 1] * x_last
        )


def assemble_reduced(reduced_rows):
    """Stack per-slab ``(6, M)`` boundary equations into the ``2P``-row
    interface system ``(ra, rb, rc, rd)``, each ``(M, 2P)``.

    Ordering interleaves ``(x0^p, xl^p)`` so the system is scalar
    tridiagonal: row ``2p`` couples the previous slab's last unknown
    (column ``2p-1``) and ``xl^p`` (column ``2p+1``); row ``2p+1``
    couples ``x0^p`` (column ``2p``) and the next slab's first unknown
    (column ``2p+2``).  The padded corners are exactly zero because the
    global ``a[:, 0]`` / ``c[:, -1]`` are.
    """
    p = len(reduced_rows)
    m = reduced_rows[0].shape[1]
    dtype = reduced_rows[0].dtype
    ra = np.empty((m, 2 * p), dtype=dtype)
    rb = np.ones((m, 2 * p), dtype=dtype)
    rc = np.empty((m, 2 * p), dtype=dtype)
    rd = np.empty((m, 2 * p), dtype=dtype)
    for i, rows in enumerate(reduced_rows):
        ra[:, 2 * i] = rows[0]
        rc[:, 2 * i] = rows[1]
        rd[:, 2 * i] = rows[2]
        ra[:, 2 * i + 1] = rows[3]
        rc[:, 2 * i + 1] = rows[4]
        rd[:, 2 * i + 1] = rows[5]
    ra[:, 0] = 0.0
    rc[:, -1] = 0.0
    return ra, rb, rc, rd


def solve_reduced(ra, rb, rc, rd):
    """Solve the ``(M, 2P)`` interface system.

    Runs :class:`~repro.core.blocktridiag.BlockThomasFactorization`'s
    ``B = 1`` scalar fast path (the same op sequence as
    ``thomas_solve_batch``) and returns the boundary values ``(M, 2P)``.
    """
    from repro.core.blocktridiag import BlockThomasFactorization

    fact = BlockThomasFactorization.factor(
        ra[..., None, None], rb[..., None, None], rc[..., None, None]
    )
    return fact.solve(rd[..., None])[..., 0]


def partitioned_solve_reference(a, b, c, d, ranks, *, bounds=None, out=None):
    """In-process reference for the distributed pipeline.

    Runs the exact slab kernels the multiprocessing workers run —
    same functions, same values, same op order — so the worker path is
    bitwise identical to this reference.  ``bounds`` overrides the
    default near-equal partition (each slab must keep >= 2 rows), which
    the cross-rank determinism property test exercises.
    """
    a = np.asarray(a)
    b = np.asarray(b)
    c = np.asarray(c)
    d = np.asarray(d)
    m, n = b.shape
    if bounds is None:
        bounds = slab_bounds(n, ranks)
    else:
        bounds = [(int(lo), int(hi)) for lo, hi in bounds]
        if bounds[0][0] != 0 or bounds[-1][1] != n:
            raise ValueError(f"bounds must cover [0, {n})")
        for (lo, hi), (lo2, _) in zip(bounds, bounds[1:]):
            if hi != lo2:
                raise ValueError("bounds must be contiguous")
        if any(hi - lo < MIN_SLAB_ROWS for lo, hi in bounds):
            raise ValueError(f"every slab needs >= {MIN_SLAB_ROWS} rows")

    at = np.ascontiguousarray(a.T)
    bt = np.ascontiguousarray(b.T)
    ct = np.ascontiguousarray(c.T)
    dt = np.ascontiguousarray(d.T)

    reps = []
    reduced_rows = []
    for lo, hi in bounds:
        fact = factor_slab(at[lo:hi], bt[lo:hi], ct[lo:hi])
        rep, reduced = eliminate_slab(fact, dt[lo:hi])
        reps.append(rep)
        reduced_rows.append(reduced)

    xb = solve_reduced(*assemble_reduced(reduced_rows))

    xt = np.empty((n, m), dtype=b.dtype)
    for i, (lo, hi) in enumerate(bounds):
        backsub_slab(
            reps[i], xb[:, 2 * i], xb[:, 2 * i + 1], xt[lo:hi]
        )

    if out is not None:
        np.copyto(out, xt.T)
        return out
    return np.ascontiguousarray(xt.T)
