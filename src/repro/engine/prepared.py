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
* :class:`~repro.core.factorize.ThomasRhsFactorization` (re-exported
  here) — the factored Thomas sweep in the engine's transposed
  ``(N, M)`` layout.  It stores the *denominators* (not their
  reciprocals) and its RHS sweep divides by them: at ``k = 0`` it *is*
  the one-shot (:func:`repro.engine.executor._thomas_transposed`
  factors and sweeps through it), and at stride ``2^k`` it is the
  reduced-system sweep of
  :class:`~repro.core.factorize.HybridFactorization`, in p-Thomas's
  order.  Prepared solves are therefore **bitwise identical** to
  unprepared ones at every ``k``.  Only ``k = 0`` plans auto-engage the
  fingerprint fast path: that gate is about intent and cost, not bits
  — a ``k > 0`` factorization holds ``2k + 3`` ``(N, M)`` arrays, so it
  needs an explicit opt-in (``fingerprint=True``, an ``rtol`` at or
  above :data:`FINGERPRINT_RTOL_FLOOR`, or a :class:`PreparedPlan`
  handle).
* :class:`PreparedPlan` — the explicit handle
  (``repro.prepare(a, b, c)``) for callers who know their matrix is
  fixed: holds the plan + factorization and executes RHS-only sweeps
  into pooled :class:`~repro.engine.workspace.PreparedWorkspace`
  buffers.

Every factorization the engine caches — the two above,
:class:`CyclicRhsFactorization`,
:class:`~repro.core.pentadiag.PentaFactorization` and
:class:`~repro.core.blocktridiag.BlockThomasFactorization` — speaks one
duck-typed protocol: a ``kind`` tag (:data:`FACTORIZATION_KINDS` maps
it back to the class), ``nbytes``, ``arrays()`` / ``from_arrays()``
(the spill-file layout), the whole-batch RHS-only sweep
``solve_shard(ws, d, out)`` and, optionally, the transposed-layout
``solve_shard_t(ws, dt, out_t)``.  Bound sessions
(:mod:`repro.engine.session`) run any of them on one thread; the
batch parallelism is the ``M`` lanes every ufunc call vectorizes over.
"""

from __future__ import annotations

import hashlib

import numpy as np

from repro.core.blocktridiag import BlockThomasFactorization
from repro.core.factorize import HybridFactorization, ThomasRhsFactorization
from repro.core.pentadiag import PentaFactorization
from repro.core.periodic import (
    apply_cyclic_correction,
    correction_denominator,
    correction_scale,
    cyclic_reduce,
    singular_rows,
)
from repro.core.validation import is_broadcast_batch
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

#: Per-dtype floor of the ``rtol=`` accuracy contract at which the
#: fingerprint auto tier may engage on ``k > 0`` plans too.  A hybrid
#: RHS-only sweep keeps the one-shot's bits, so the floor no longer
#: guards accuracy: it is the intent and cost gate that keeps ``2k + 3``
#: stored ``(N, M)`` arrays off callers who did not ask for reuse.  The
#: values are the drift bounds the row-major sweep this replaced needed
#: (a few hundred ulps), kept so existing ``rtol`` callers route as
#: before.
FINGERPRINT_RTOL_FLOOR = {
    "float64": 1e-12,
    "float32": 1e-5,
}


def rtol_permits_hybrid_reuse(rtol, dtype) -> bool:
    """Does this accuracy contract license hybrid factorization reuse?

    ``rtol=None`` means no declared tolerance (never); otherwise the
    tolerance must clear the dtype's :data:`FINGERPRINT_RTOL_FLOOR`.
    Unknown dtypes are conservative: only an explicit
    ``fingerprint=True`` engages.
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

    A broadcast batch (``np.broadcast_to(row, (M, N))``, batch-axis
    stride 0) is hashed as its shape, a form tag and its one row, in
    O(N).  The tag keeps the two forms apart: a broadcast batch and a
    materialized copy of it get different digests, so they never share
    a cache entry (each factors its own ``(N, 1)`` column).
    """
    h = hashlib.blake2b(digest_size=16)
    for arr in arrays:
        arr = np.asarray(arr)
        h.update(str(arr.shape).encode())
        h.update(arr.dtype.str.encode())
        if is_broadcast_batch(arr):
            h.update(b"broadcast-row")
            arr = arr[0]
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


def build_factorization(plan, a, b, c):
    """Factor coefficients for ``plan``: Thomas at ``k=0``, hybrid above.

    ``a``, ``b``, ``c`` are ``(M, N)`` in any memory layout; both routes
    stage them into the transposed ``(N, M)`` layout they sweep in.  At
    ``k = 0`` a uniform batch (every row bytewise equal to row 0)
    stages one row and stores ``(N, 1)`` columns, so every caller that
    factors through here — handles, the fingerprint cache, periodic
    cores, rank slab interiors — holds ``3·N`` elements for it; a
    broadcast batch gets there without reading more than its row.
    """
    if plan.uses_thomas:
        return ThomasRhsFactorization.factor(a, b, c)
    return HybridFactorization.factor(a, b, c, k=plan.k, check=False)


class CyclicRhsFactorization:
    """Engine-layer cyclic factorization: a core wrapped with the correction.

    The factor-once cyclic state behind ``repro.prepare(...,
    periodic=True)`` and the engine's fingerprint cache: the core ``A'``
    factorization is an engine RHS-only factorization
    (:class:`ThomasRhsFactorization` at ``k = 0``,
    :class:`~repro.core.factorize.HybridFactorization` above — both
    transposed, stored denominators, bitwise-identical sweeps), and the
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

    def solve_shard(self, ws, d, out) -> None:
        """Core sweep into ``ws.cyclic_y()``, then the rank-one
        correction into ``out``."""
        y = ws.cyclic_y()
        self.core.solve_shard(ws, d, y)
        self.correct(y, out)

    def correct(self, y, out) -> None:
        """``out = y − (vᵀy · scale) q``, row by row."""
        apply_cyclic_correction(y, self.q, self.w, self.scale, out=out)


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
    cyclic path bitwise-equal to re-elimination at every ``k``.
    ``check`` sets the singular-correction policy (raise vs warn+NaN).
    """
    ap, bp, cp, u, w = cyclic_reduce(a, b, c, check=check)
    core = build_factorization(plan, ap, bp, cp)
    q = np.empty_like(u)
    ws = engine._checkout(plan, PreparedWorkspace)
    try:
        core.solve_shard(ws, u, q)
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
    workspaces — and records a
    :class:`~repro.backends.trace.SolveTrace` with
    ``factorization="handle"``.

    Handles at every ``k`` are bitwise identical to unprepared engine
    solves at the same ``k``: the stored sweep divides by the stored
    denominators in the one-shot's order.
    """

    def __init__(
        self, engine, plan, fact, fingerprint: str, periodic: bool = False,
    ):
        self.engine = engine
        self.plan = plan
        self.factorization = fact
        self.fingerprint = fingerprint
        self.periodic = periodic
        self.solves = 0
        # check -> BoundSolve: the handle is a thin wrapper over bound
        # sessions since the bind/execute split — one bind per check
        # policy, per-call costs amortized away
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

    def _session(self, check: bool):
        """The bound session for this check policy."""
        session = self._sessions.get(check)
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
                    check=check,
                    label="prepared",
                )
            )
            self._sessions[check] = session
        return session

    def bind(self, *, check: bool = True):
        """The handle's :class:`~repro.engine.session.BoundSolve`.

        For callers who want the raw hot loop: ``session.step(d)``
        reuses a session-owned output buffer and skips per-call
        stats/trace entirely.  The session is cached — repeated calls
        with one ``check`` return the same object.
        """
        return self._session(check)

    def solve(
        self,
        d,
        *,
        out: np.ndarray | None = None,
        check: bool = True,
    ) -> np.ndarray:
        """Solve the prepared system against a fresh ``(M, N)`` RHS.

        A thin wrapper over a cached
        :class:`~repro.engine.session.BoundSolve`: the ``rhs_only``
        request carrying the stored factorization is bound once per
        ``check`` policy and each call runs one
        instrumented session step — identical stats, stages and trace
        to the classic per-call dispatch, without re-resolving the plan
        or rebuilding the request every right-hand side.
        """
        if check and not np.all(np.isfinite(d)):
            raise ValueError("d contains non-finite values")
        from repro.backends.trace import record_trace

        outcome = self._session(check).step_once(d, out=out)
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
    :meth:`ExecutionEngine.prepare`.  Keywords mirror ``solve_batch``'s
    plan options (``k``, ``fuse``).

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
