"""Prepared solves: factor once, stream right-hand sides.

The paper's motivating workloads (ADI, Crank–Nicolson, multigrid
smoothing) solve the *same* tridiagonal matrix against a fresh
right-hand side every time step.  :mod:`repro.core.factorize` supplies
the factor/solve split; this module wires it through the engine:

* :func:`coefficient_fingerprint` — a cheap content hash over the
  ``(dl, d, du)`` views.  The engine fingerprints incoming
  coefficients (opt-out via ``fingerprint=False``) and keys a
  factorization cache on the digest, so a time-stepping loop written
  as plain repeated ``solve_batch`` calls silently stops
  re-eliminating after its first few steps.
* :class:`ThomasRhsFactorization` — the ``k = 0`` factorization in the
  engine's transposed ``(N, M)`` layout.  Its forward sweep stores the
  *denominator* (not its reciprocal) and the RHS sweep divides by it,
  mirroring :func:`repro.engine.executor._thomas_transposed` operation
  for operation — prepared ``k = 0`` solves are **bitwise identical**
  to unprepared ones.  This is why only ``k = 0`` plans auto-engage
  the fingerprint fast path; ``k > 0`` factorizations
  (:class:`~repro.core.factorize.HybridFactorization`) reuse stored
  reciprocals and are "only" allclose, so they require an explicit
  opt-in (``fingerprint=True`` or a :class:`PreparedPlan` handle).
* :class:`PreparedPlan` — the explicit handle
  (``repro.prepare(a, b, c)``) for callers who know their matrix is
  fixed: holds the plan + factorization, executes RHS-only sweeps into
  pooled :class:`~repro.engine.workspace.PreparedWorkspace` buffers,
  optionally sharded across the engine's thread pool.

Every factorization the engine caches — the two above,
:class:`CyclicRhsFactorization`,
:class:`~repro.core.pentadiag.PentaFactorization` and
:class:`~repro.core.blocktridiag.BlockThomasFactorization` — speaks one
duck-typed protocol: a ``kind`` tag (:data:`FACTORIZATION_KINDS` maps
it back to the class), ``nbytes``, ``arrays()`` / ``from_arrays()``
(the spill-file layout), ``solve_shard(ws, d, out, lo, hi)`` and,
optionally, the transposed-layout ``solve_shard_t``.  Bound sessions
(:mod:`repro.engine.session`) run any of them through one shard loop.

Sharding the RHS-only phase is bitwise-safe for the same reason full
solves are (:mod:`repro.engine.executor`): every operation is
elementwise along the batch axis, and the one global decision — ``k``
— is frozen in the plan before any shard runs.
"""

from __future__ import annotations

import hashlib

import numpy as np

from repro.core.blocktridiag import BlockThomasFactorization
from repro.core.factorize import HybridFactorization
from repro.core.pentadiag import PentaFactorization
from repro.core.periodic import (
    apply_cyclic_correction,
    correction_denominator,
    correction_scale,
    cyclic_reduce,
    singular_rows,
)
from repro.engine.workspace import PreparedWorkspace

__all__ = [
    "CyclicRhsFactorization",
    "FACTORIZATION_KINDS",
    "FINGERPRINT_RTOL_FLOOR",
    "PreparedPlan",
    "ThomasRhsFactorization",
    "build_cyclic_factorization",
    "coefficient_fingerprint",
    "factorization_arrays",
    "factorization_from_arrays",
    "prepare",
    "rtol_permits_hybrid_reuse",
]

#: Per-dtype drift floor for the ``rtol=`` accuracy contract: hybrid
#: (``k > 0``) RHS-only sweeps reuse stored reciprocals and agree with
#: the unprepared solve only to rounding (allclose grade, empirically a
#: few hundred ulps on dominant systems).  A request whose ``rtol`` is
#: at or above this floor has declared it tolerates that drift, so the
#: fingerprint auto tier may engage on ``k > 0`` plans too.
FINGERPRINT_RTOL_FLOOR = {
    "float64": 1e-12,
    "float32": 1e-5,
}


def rtol_permits_hybrid_reuse(rtol, dtype) -> bool:
    """Does this accuracy contract license hybrid factorization reuse?

    ``rtol=None`` means bitwise (never); otherwise the tolerance must
    clear the dtype's :data:`FINGERPRINT_RTOL_FLOOR`.  Unknown dtypes
    are conservative: only an explicit ``fingerprint=True`` engages.
    """
    if rtol is None:
        return False
    floor = FINGERPRINT_RTOL_FLOOR.get(np.dtype(dtype).name)
    return floor is not None and rtol >= floor

#: Elements sampled per array by the fingerprint (plus the chunk-sum
#: checksums); calibrated so fingerprinting a 1024x1024 float64 batch
#: costs ~1 ms against a ~20 ms RHS-only solve.
FINGERPRINT_SAMPLE = 4096

#: Width of the chunk-sum grid the large-array checksum reduces over.
#: Hashing both row sums (contiguous 1024-element chunks) and column
#: sums (stride-1024 element classes) means a sum-preserving edit can
#: only collide if every changed element keeps both its row total and
#: its column total — impossible for any edit that moves value between
#: two distinct positions.
FINGERPRINT_CHUNK = 1024

_sample_idx_cache: dict = {}


def _sample_indices(size: int) -> np.ndarray:
    idx = _sample_idx_cache.get(size)
    if idx is None:
        idx = np.linspace(0, size - 1, FINGERPRINT_SAMPLE).astype(np.intp)
        if len(_sample_idx_cache) > 64:
            _sample_idx_cache.clear()
        _sample_idx_cache[size] = idx
    return idx


def coefficient_fingerprint(*arrays) -> str:
    """Content hash of coefficient arrays (hex, 128-bit blake2b).

    Hashes each array's shape, dtype, and content.  Small arrays are
    hashed in full; large ones contribute an evenly-strided
    :data:`FINGERPRINT_SAMPLE`-element sample plus a two-axis chunk-sum
    checksum: the flat array is viewed as a ``(rows,
    FINGERPRINT_CHUNK)`` grid and both the per-row sums (contiguous
    chunks) and the per-column sums (strided element classes) are
    hashed, along with any ragged tail verbatim.  A position-blind
    single checksum was provably collidable — swapping two off-sample
    elements, or any ``+x``/``−x`` pair of edits, preserved the total
    and silently served a stale factorization.  With the grid, an edit
    escapes detection only if it changes no row sum *and* no column
    sum, which for moved value between distinct positions cannot
    happen (two positions in the same row are in different columns and
    vice versa).  Still two O(N) streaming passes — far below the cost
    of one elimination sweep, which is the comparison that matters.
    Used to detect *unchanged* coefficients across time steps, not to
    authenticate data.
    """
    h = hashlib.blake2b(digest_size=16)
    for arr in arrays:
        arr = np.asarray(arr)
        h.update(str(arr.shape).encode())
        h.update(arr.dtype.str.encode())
        flat = arr.reshape(-1)
        if flat.size <= FINGERPRINT_SAMPLE:
            h.update(np.ascontiguousarray(flat).tobytes())
        else:
            h.update(flat[_sample_indices(flat.size)].tobytes())
            trunc = flat.size - flat.size % FINGERPRINT_CHUNK
            grid = np.ascontiguousarray(flat[:trunc]).reshape(
                -1, FINGERPRINT_CHUNK
            )
            h.update(grid.sum(axis=1, dtype=np.float64).tobytes())
            h.update(grid.sum(axis=0, dtype=np.float64).tobytes())
            h.update(np.ascontiguousarray(flat[trunc:]).tobytes())
    return h.hexdigest()


class ThomasRhsFactorization:
    """``k = 0`` factorization in the engine's transposed layout.

    Stores the sub-diagonal, the modified super-diagonal ``c'`` and the
    forward-elimination *denominators* as ``(N, M)`` arrays.  The RHS
    sweep divides by the stored denominator — the identical operation
    sequence as :func:`~repro.engine.executor._thomas_transposed`, so a
    prepared solve reproduces an unprepared engine solve bit for bit.
    """

    __slots__ = ("ta", "cp", "denom", "nbytes")
    kind = "thomas"

    def __init__(self, ta, cp, denom):
        self.ta = ta
        self.cp = cp
        self.denom = denom
        self.nbytes = ta.nbytes + cp.nbytes + denom.nbytes

    def arrays(self) -> dict:
        """Every stored array by name (the spill-file layout)."""
        return {"ta": self.ta, "cp": self.cp, "denom": self.denom}

    @classmethod
    def from_arrays(cls, arrays) -> "ThomasRhsFactorization":
        """Rebuild from :meth:`arrays`' layout."""
        return cls(ta=arrays["ta"], cp=arrays["cp"], denom=arrays["denom"])

    @property
    def m(self) -> int:
        return self.ta.shape[1]

    @property
    def n(self) -> int:
        return self.ta.shape[0]

    @classmethod
    def factor(cls, a, b, c) -> "ThomasRhsFactorization":
        """Coefficient-only forward elimination over ``(M, N)`` inputs.

        Operation-for-operation the coefficient half of
        ``_thomas_transposed``: ``denom_i = b_i − c'_{i−1} a_i`` (that
        exact multiply-then-subtract order), ``c'_i = c_i / denom_i``.
        """
        m, n = b.shape
        ta = np.ascontiguousarray(a.T)
        tb = np.ascontiguousarray(b.T)
        tc = np.ascontiguousarray(c.T)
        cp = np.empty((n, m), dtype=b.dtype)
        denom = np.empty((n, m), dtype=b.dtype)
        t1 = np.empty(m, dtype=b.dtype)
        denom[0] = tb[0]
        np.divide(tc[0], tb[0], out=cp[0])
        # the loop is ufunc-call bound at small M: zipped row views and
        # positional outputs (cheaper than per-row indexing and out=)
        for cprev, ai, bi, ci, ri, cpi in zip(
            cp[:-1], ta[1:], tb[1:], tc[1:], denom[1:], cp[1:]
        ):
            np.multiply(cprev, ai, t1)
            np.subtract(bi, t1, ri)
            np.divide(ci, ri, cpi)
        return cls(ta=ta, cp=cp, denom=denom)

    def solve_shard(self, ws, d, out, lo: int, hi: int) -> None:
        """RHS-only sweep for batch rows ``[lo, hi)`` into ``out``.

        Shards are column slices of the transposed ``(N, M)`` workspace
        buffers, so concurrent shards share one workspace and write
        disjoint regions.  The sweep is :meth:`solve_shard_t` on the
        staged transpose (copies never change bits).
        """
        s = slice(lo, hi)
        ws.td[:, s] = d[s].T
        self.solve_shard_t(ws, ws.td, ws.xt, lo, hi)
        out[s] = ws.xt[:, s].T

    def solve_shard_t(self, ws, dt, out_t, lo: int, hi: int) -> None:
        """Transposed-layout RHS sweep: ``(N, M)`` in, ``(N, M)`` out.

        The sweep runs in the transposed layout, so this entry point
        reads the right-hand side straight from the caller's ``(N, M)``
        array and writes the solution into the caller's ``(N, M)``
        output — no staging copies at all.  This is the ADI fast path:
        alternating sweep directions hand each solve its input in
        exactly this orientation.  Operation order: multiply, subtract,
        divide by the stored denominator forward; multiply, subtract
        backward.  Like :meth:`factor`'s, the loops walk zipped row
        views with positional outputs.
        """
        n = self.n
        s = slice(lo, hi)
        ta, cp, denom = self.ta[:, s], self.cp[:, s], self.denom[:, s]
        dt, dp, xt = dt[:, s], ws.dp[:, s], out_t[:, s]
        t1, t2 = ws.t1[lo:hi], ws.t2[lo:hi]
        np.divide(dt[0], denom[0], out=dp[0])
        for dprev, ai, di, ri, dpi in zip(
            dp[:-1], ta[1:], dt[1:], denom[1:], dp[1:]
        ):
            np.multiply(dprev, ai, t2)
            np.subtract(di, t2, t2)
            np.divide(t2, ri, dpi)
        xt[n - 1] = dp[n - 1]
        for ci, xnext, dpi, xi in zip(
            cp[-2::-1], xt[:0:-1], dp[-2::-1], xt[-2::-1]
        ):
            np.multiply(ci, xnext, t1)
            np.subtract(dpi, t1, xi)


def build_factorization(plan, a, b, c):
    """Factor coefficients for ``plan``: Thomas at ``k=0``, hybrid above.

    ``a``, ``b``, ``c`` are ``(M, N)`` in any memory layout; each route
    copies them into its own (transposed rows for Thomas, contiguous
    rows for the hybrid) only where they are not already in it.
    """
    if plan.uses_thomas:
        return ThomasRhsFactorization.factor(a, b, c)
    a, b, c = (np.ascontiguousarray(v) for v in (a, b, c))
    return HybridFactorization.factor(a, b, c, k=plan.k, check=False)


class CyclicRhsFactorization:
    """Engine-layer cyclic factorization: a core wrapped with the correction.

    The factor-once cyclic state behind ``repro.prepare(...,
    periodic=True)`` and the engine's fingerprint cache: the core ``A'``
    factorization is an engine RHS-only factorization
    (:class:`ThomasRhsFactorization` at ``k = 0`` — transposed layout,
    stored denominators, bitwise-identical sweeps — or
    :class:`~repro.core.factorize.HybridFactorization` above), and the
    Sherman–Morrison state (``q``, ``w = a_0/γ``, the precomputed
    ``1/(1 + vᵀq)`` scale) is stored alongside.  A cyclic solve against
    a cached instance is **one** core RHS-only sweep plus a vectorized
    rank-one update — versus the two full eliminations the unprepared
    path pays.
    """

    __slots__ = ("core", "q", "w", "scale", "singular", "nbytes")
    kind = "cyclic"

    def __init__(self, core, q, w, scale, singular):
        self.core = core
        self.q = q
        self.w = w
        self.scale = scale
        self.singular = singular
        self.nbytes = core.nbytes + q.nbytes + w.nbytes + scale.nbytes

    def arrays(self) -> dict:
        """Every stored array by name; the core's under ``core_``."""
        core = factorization_arrays(self.core)
        return {
            "q": self.q,
            "w": self.w,
            "scale": self.scale,
            "singular": self.singular,
            **{f"core_{name}": arr for name, arr in core.items()},
        }

    @classmethod
    def from_arrays(cls, arrays) -> "CyclicRhsFactorization":
        """Rebuild from :meth:`arrays`' layout."""
        core = {
            name.removeprefix("core_"): arrays[name]
            for name in arrays
            if name.startswith("core_")
        }
        return cls(
            core=factorization_from_arrays(core),
            q=arrays["q"],
            w=arrays["w"],
            scale=arrays["scale"],
            singular=arrays["singular"],
        )

    def solve_shard(self, ws, d, out, lo: int, hi: int) -> None:
        """Core sweep of rows ``[lo, hi)`` into ``ws.cyclic_y()``, then
        the rank-one correction of those rows into ``out``."""
        y = ws.cyclic_y()
        self.core.solve_shard(ws, d, y, lo, hi)
        self.correct(y, out, lo, hi)

    def correct(self, y, out, lo: int, hi: int) -> None:
        """``out = y − (vᵀy · scale) q`` on rows ``[lo, hi)``.

        The update is row-wise, so correcting shard by shard gives the
        bits of one whole-batch correction.
        """
        s = slice(lo, hi)
        apply_cyclic_correction(
            y[s], self.q[s], self.w[s], self.scale[s], out=out[s]
        )


#: ``kind`` tag → class, for every factorization the engine caches.
FACTORIZATION_KINDS = {
    cls.kind: cls
    for cls in (
        ThomasRhsFactorization,
        HybridFactorization,
        CyclicRhsFactorization,
        PentaFactorization,
        BlockThomasFactorization,
    )
}


def factorization_arrays(fact) -> dict:
    """``fact.arrays()`` plus its ``kind`` tag: the spill-file layout."""
    return {"kind": np.array(fact.kind), **fact.arrays()}


def factorization_from_arrays(arrays):
    """Rebuild a factorization from :func:`factorization_arrays`' layout."""
    return FACTORIZATION_KINDS[str(arrays["kind"])].from_arrays(arrays)


def build_cyclic_factorization(
    engine, plan, a, b, c, *, check: bool = True
) -> CyclicRhsFactorization:
    """Corner-reduce + factor a cyclic coefficient set under ``plan``.

    The correction column ``q`` is solved through the freshly built
    core factorization's own RHS-only sweep, so the stored ``q`` is
    bitwise identical to what an unprepared engine solve of
    ``A' q = u`` would produce — which is what keeps the prepared
    cyclic path bitwise-equal to re-elimination at ``k = 0``.
    ``check`` sets the singular-correction policy (raise vs warn+NaN).
    """
    ap, bp, cp, u, w = cyclic_reduce(a, b, c, check=check)
    core = build_factorization(plan, ap, bp, cp)
    q = np.empty_like(u)
    ws = engine._checkout(plan, PreparedWorkspace)
    try:
        core.solve_shard(ws, u, q, 0, plan.m)
    finally:
        engine._checkin(plan, ws)
    denom = correction_denominator(q, w)
    scale = correction_scale(denom, plan.n, check=check)
    return CyclicRhsFactorization(
        core=core, q=q, w=w, scale=scale,
        singular=singular_rows(denom, plan.n),
    )


class PreparedPlan:
    """A solve handle bound to one factored coefficient set.

    Returned by :func:`prepare` / :meth:`ExecutionEngine.prepare
    <repro.engine.engine.ExecutionEngine.prepare>`.  Each
    :meth:`solve` runs the RHS-only sweep — no re-elimination, pooled
    workspaces, optional batch-axis sharding — and records a
    :class:`~repro.backends.trace.SolveTrace` with
    ``factorization="handle"``.

    ``k = 0`` handles are bitwise identical to unprepared engine
    solves; ``k > 0`` handles agree to rounding (the stored hybrid
    reciprocals differ from the live p-Thomas divisions in the last
    ulp).
    """

    def __init__(
        self, engine, plan, fact, fingerprint: str, workers=None,
        periodic: bool = False,
    ):
        self.engine = engine
        self.plan = plan
        self.factorization = fact
        self.fingerprint = fingerprint
        self.default_workers = workers
        self.periodic = periodic
        self.solves = 0
        # (workers, check) -> BoundSolve: the handle is a thin wrapper
        # over bound sessions since the bind/execute split — one bind
        # per effective configuration, per-call costs amortized away
        self._sessions: dict = {}

    @property
    def m(self) -> int:
        return self.plan.m

    @property
    def n(self) -> int:
        return self.plan.n

    @property
    def k(self) -> int:
        return self.plan.k

    @property
    def dtype(self) -> np.dtype:
        return self.plan.dtype

    @property
    def nbytes(self) -> int:
        """Bytes held by the stored factorization."""
        return self.factorization.nbytes

    def describe(self) -> dict:
        """Plan summary plus factorization provenance."""
        desc = self.plan.describe()
        desc["fingerprint"] = self.fingerprint
        desc["factorization_bytes"] = self.nbytes
        desc["solves"] = self.solves
        desc["periodic"] = self.periodic
        return desc

    def _session(self, workers, check: bool):
        """The bound session for this effective configuration."""
        key = (workers, check)
        session = self._sessions.get(key)
        if session is None:
            from repro.backends.request import SolveRequest

            session = self.engine.bind(
                SolveRequest(
                    a=None,
                    b=None,
                    c=None,
                    d=None,
                    m=self.m,
                    n=self.n,
                    dtype=np.dtype(self.plan.dtype).name,
                    periodic=self.periodic,
                    rhs_only=True,
                    factorization=self.factorization,
                    plan=self.plan,
                    workers=workers,
                    check=check,
                    label="prepared",
                )
            )
            self._sessions[key] = session
        return session

    def bind(self, *, workers: int | None = None, check: bool = True):
        """The handle's :class:`~repro.engine.session.BoundSolve`.

        For callers who want the raw hot loop: ``session.step(d)``
        reuses a session-owned output buffer and skips per-call
        stats/trace entirely.  The session is cached — repeated calls
        with one configuration return the same object.
        """
        if workers is None:
            workers = self.default_workers
        return self._session(workers, check)

    def solve(
        self,
        d,
        *,
        out: np.ndarray | None = None,
        workers: int | None = None,
        check: bool = True,
    ) -> np.ndarray:
        """Solve the prepared system against a fresh ``(M, N)`` RHS.

        A thin wrapper over a cached
        :class:`~repro.engine.session.BoundSolve`: the ``rhs_only``
        request carrying the stored factorization is bound once per
        ``(workers, check)`` configuration and each call runs one
        instrumented session step — identical stats, stages and trace
        to the classic per-call dispatch, without re-resolving the plan
        or rebuilding the request every right-hand side.
        """
        if check and not np.all(np.isfinite(d)):
            raise ValueError("d contains non-finite values")
        if workers is None:
            workers = self.default_workers
        from repro.backends.trace import record_trace

        outcome = self._session(workers, check).step_once(d, out=out)
        self.solves += 1
        record_trace(outcome.trace)
        return outcome.x

    def close(self) -> None:
        """Release the handle's bound sessions (workspaces return to
        the engine pool); the handle itself remains usable — the next
        solve simply binds afresh."""
        sessions, self._sessions = self._sessions, {}
        for session in sessions.values():
            session.close()


def prepare(
    a,
    b,
    c,
    *,
    check: bool = True,
    engine=None,
    periodic: bool = False,
    **opts,
) -> PreparedPlan:
    """Factor a coefficient set once; solve many right-hand sides.

    The module-level convenience over
    :meth:`ExecutionEngine.prepare`.  Keywords mirror ``solve_batch``
    (``k``, ``fuse``, ``n_windows``, ``subtile_scale``,
    ``parallelism``, ``heuristic``, ``workers``).

    ``periodic=True`` prepares a *cyclic* (Sherman–Morrison) system:
    the corner entries ``a[:, 0]`` / ``c[:, -1]`` are real couplings
    (never zeroed by validation), and ``handle.solve(d)`` runs one core
    RHS-only sweep plus the precomputed rank-one correction.

    Examples
    --------
    >>> import numpy as np, repro
    >>> from repro.workloads.generators import random_batch
    >>> a, b, c, d = random_batch(8, 64, seed=0)
    >>> handle = repro.prepare(a, b, c)
    >>> x = handle.solve(d)                  # RHS-only: no re-elimination
    >>> bool(np.allclose(x, repro.solve_batch(a, b, c, d)))
    True
    """
    if engine is None:
        from repro.engine.engine import default_engine

        engine = default_engine()
    return engine.prepare(a, b, c, periodic=periodic, check=check, **opts)
