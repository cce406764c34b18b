"""The one request/outcome vocabulary every solve in the repo speaks.

PRs 1–4 grew three parallel solve paths — plain ``solve_batch``, the
prepared RHS-only path, and ``solve_periodic_batch`` — each with its
own engine entrypoint, backend protocol method and trace wiring.  This
module collapses that Cartesian product into two dataclasses:

:class:`SolveRequest`
    Everything one solve needs: the coerced ``(M, N)`` diagonals and
    right-hand side (or a factorization handle plus the RHS alone),
    the negotiation axes (dtype, ``periodic``, ``ranks``,
    ``fingerprint``), the plan options (``k``, ``fuse``, windows…),
    and the execution flags (``rhs_only``, ``check``, ``out``).
    Built by the public adapters (``repro.solve_batch``,
    ``repro.prepare(...).solve``, ``solve_periodic_batch``,
    ``api.gtsv*``, the CLI) and consumed by exactly two seams:
    :meth:`BackendRegistry.resolve
    <repro.backends.registry.BackendRegistry.resolve>` (capability
    negotiation on request attributes) and ``backend.execute(request)``.
:class:`SolveOutcome`
    What came back: the solution and its
    :class:`~repro.backends.trace.SolveTrace`.

One request shape means one negotiation path, one trace path, and one
``execute`` method per backend, whatever the solve's flavour.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, replace

import numpy as np

from repro.core.validation import (
    check_batch_arrays,
    check_block_batch_arrays,
    check_cyclic_batch_arrays,
    check_out,
    check_penta_batch_arrays,
    coerce_batch_arrays,
    coerce_block_batch_arrays,
    coerce_cyclic_batch_arrays,
    coerce_penta_batch_arrays,
)

__all__ = [
    "OPTION_NAMES",
    "SYSTEM_KINDS",
    "PENTADIAGONAL",
    "TRIDIAGONAL",
    "SolveOutcome",
    "SolveRequest",
    "SystemDescriptor",
    "block_system",
]

#: the matrix classes the spine can carry.
SYSTEM_KINDS = ("tridiagonal", "pentadiagonal", "block")


@dataclass(frozen=True)
class SystemDescriptor:
    """What kind of banded system a request carries.

    ``kind`` names the matrix class; ``bandwidth`` is the scalar
    half-bandwidth (1 for tridiagonal, 2 for pentadiagonal);
    ``block_size`` is the dense block edge for block-tridiagonal
    systems (1 otherwise).  The descriptor is frozen and hashable — it
    participates in plan keys, factorization-cache keys and the
    autotune cell vocabulary, so entries of different stencils can
    never collide.
    """

    kind: str = "tridiagonal"
    bandwidth: int = 1
    block_size: int = 1

    def __post_init__(self):
        if self.kind not in SYSTEM_KINDS:
            raise ValueError(
                f"unknown system kind {self.kind!r}; expected one of "
                f"{SYSTEM_KINDS}"
            )
        if self.bandwidth < 1:
            raise ValueError(f"bandwidth must be >= 1, got {self.bandwidth}")
        if self.block_size < 1:
            raise ValueError(f"block_size must be >= 1, got {self.block_size}")

    @property
    def tag(self) -> str:
        """Short cache-key token: ``""`` for tridiagonal (so every
        pre-descriptor key stays byte-identical), ``"penta"`` /
        ``"block<B>"`` otherwise."""
        if self.kind == "tridiagonal":
            return ""
        if self.kind == "pentadiagonal":
            return "penta"
        return f"block{self.block_size}"


#: the default (and pre-descriptor implicit) system: 3 scalar diagonals.
TRIDIAGONAL = SystemDescriptor()
#: five scalar diagonals.
PENTADIAGONAL = SystemDescriptor(kind="pentadiagonal", bandwidth=2)


def block_system(block_size: int) -> SystemDescriptor:
    """Descriptor for a block-tridiagonal system of ``B × B`` blocks."""
    return SystemDescriptor(kind="block", block_size=int(block_size))


def _count(name: str, value):
    """A rank count: an int ``>= 1``, or ``None`` (default)."""
    if value is None:
        return None
    try:
        count = operator.index(value)
    except TypeError:
        count = 0
    if count < 1:
        raise ValueError(f"{name} must be an int >= 1 (or None), got {value!r}")
    return count


#: keyword options accepted by :meth:`SolveRequest.build` /
#: ``solve_batch`` — unknown names are a ``TypeError`` at the dispatch
#: boundary, not deep inside a kernel.
OPTION_NAMES = (
    "k",
    "fuse",
    "n_windows",
    "subtile_scale",
    "parallelism",
    "periodic",
    "heuristic",
    "fingerprint",
    "rtol",
    "ranks",
)


@dataclass
class SolveRequest:
    """One batch solve, fully described.

    Attributes
    ----------
    a, b, c, d:
        Coerced contiguous ``(M, N)`` diagonals and right-hand side.
        For ``rhs_only`` requests the coefficients may be ``None`` —
        the elimination already lives in ``factorization``.
    m, n, dtype:
        Problem shape and canonical dtype name — the negotiation axes
        the registry filters capabilities against.
    periodic:
        Cyclic convention: corners ride in ``a[:, 0]`` / ``c[:, -1]``
        and are couplings, not pads.
    rhs_only:
        The request carries a prebuilt ``factorization`` (and usually a
        frozen ``plan``); execution is the RHS-only sweep.
    fingerprint:
        Factorization-cache tri-state: ``None`` auto-engages where
        bitwise safe (``k = 0``), ``True`` forces prepared execution
        (and restricts negotiation to prepared-capable backends),
        ``False`` disables hashing.
    rtol:
        The caller's accuracy contract: the relative drift (vs the
        unprepared solve) this request tolerates.  ``None`` (default)
        means *bitwise* — fingerprinting auto-engages only where it is
        bit-exact (``k = 0``).  A positive ``rtol`` above the dtype
        floor (:data:`repro.engine.prepared.FINGERPRINT_RTOL_FLOOR`)
        lets the auto tier also reuse hybrid ``k > 0`` factorizations,
        whose RHS-only sweeps are allclose-grade, and licenses the
        adaptive router to select forced-fingerprint routes.
    ranks:
        Requested N-axis partition count for the distributed tier
        (``None`` = not partitioned; ``ranks > 1`` restricts
        negotiation to backends advertising ``Capabilities.max_ranks``
        above 1).  It must be an int ``>= 1`` or ``None``
        (``ValueError`` otherwise).
    k, fuse, n_windows, subtile_scale, parallelism, heuristic:
        Plan options, exactly as ``solve_batch`` takes them.  ``k`` and
        ``subtile_scale`` left ``None`` are resolved by the backend's
        plan: the transition table picks ``k``, and the engine sizes
        Table I's sub-tile ``c`` for the host
        (:func:`~repro.engine.plan.host_subtile_scale`; the numpy
        reference runs ``c = 1``).  An explicit ``subtile_scale`` is
        honoured as given; results are bitwise the same at any ``c``.
    factorization, plan:
        Prebuilt state for ``rhs_only`` requests (prepared handles).
    check:
        Validation / singular-guard policy for execution-time checks.
    out:
        Optional preallocated output of ``d``'s shape and dtype.
    label:
        Trace ``backend`` name override — the prepared adapter runs on
        the engine spine but reports its own name.
    e, f:
        Second sub-/super-diagonals (offset ∓2) for pentadiagonal
        requests; ``None`` otherwise.
    system:
        The :class:`SystemDescriptor` naming the matrix class.  For
        block-tridiagonal systems ``a``/``b``/``c`` are
        ``(M, N, B, B)`` block stacks and ``d`` is ``(M, N, B)``.
    decision:
        :class:`~repro.backends.trace.RouteDecision` provenance, set
        at negotiation time by the registry/router and copied onto the
        final trace by ``solve_via``.
    """

    a: np.ndarray | None
    b: np.ndarray | None
    c: np.ndarray | None
    d: np.ndarray
    m: int
    n: int
    dtype: str = "float64"
    periodic: bool = False
    rhs_only: bool = False
    fingerprint: bool | None = None
    rtol: float | None = None
    ranks: int | None = None
    k: int | None = None
    fuse: bool = False
    n_windows: int = 1
    subtile_scale: int | None = None
    parallelism: int | None = None
    heuristic: object = None
    factorization: object = None
    plan: object = None
    check: bool = True
    out: np.ndarray | None = None
    label: str | None = None
    decision: object = None
    e: np.ndarray | None = None
    f: np.ndarray | None = None
    system: SystemDescriptor = TRIDIAGONAL

    def __post_init__(self):
        # every entry point builds a request, so the count is checked
        # here once: the registry negotiates on it, autotune keys on it
        self.ranks = _count("ranks", self.ranks)

    @classmethod
    def build(
        cls,
        a,
        b,
        c,
        d,
        *,
        periodic: bool = False,
        check: bool = True,
        out=None,
        label: str | None = None,
        e=None,
        f=None,
        system: SystemDescriptor | None = None,
        **opts,
    ) -> "SolveRequest":
        """Validate/coerce a batch and its options into a request.

        The one validator of every solve: the public entry points hand
        their raw arrays here.  Inputs are checked (``check=True``:
        shapes, finiteness, pads, pivots) or merely coerced to one
        contiguous float dtype (``check=False``) — cyclic requests
        through the dedicated cyclic validators, whose corners are
        couplings the plain validator would zero, and which require
        ``N >= 3``.  Unknown options raise ``TypeError`` at this
        boundary.  An ``out`` must be an ``ndarray`` of ``d``'s shape
        and the solve dtype in either mode (any memory layout).

        The system kind is inferred when ``system`` is not given:
        second sub-/super-diagonals ``e``/``f`` mean pentadiagonal, a
        4-D ``(M, N, B, B)`` main diagonal means block-tridiagonal,
        otherwise the request is plain tridiagonal.
        """
        unknown = sorted(set(opts) - set(OPTION_NAMES))
        if unknown:
            raise TypeError(
                f"unknown solve option(s) {unknown}; "
                f"valid options: {sorted(OPTION_NAMES)}"
            )
        rtol = opts.get("rtol")
        if rtol is not None:
            rtol = float(rtol)
            if not np.isfinite(rtol) or rtol < 0.0:
                raise ValueError(
                    f"rtol must be a finite value >= 0 (or None), got {rtol}"
                )
            opts["rtol"] = rtol
        periodic = bool(opts.pop("periodic", periodic))
        if system is None:
            if e is not None or f is not None:
                system = PENTADIAGONAL
            elif np.asarray(b).ndim == 4:
                system = block_system(np.asarray(b).shape[2])
            else:
                system = TRIDIAGONAL
        if system.kind != "tridiagonal":
            if periodic:
                raise ValueError(
                    f"periodic solves are tridiagonal-only; a "
                    f"{system.kind!r} request cannot carry periodic=True"
                )
            if (
                opts.get("fuse")
                or opts.get("n_windows", 1) != 1
                or opts.get("subtile_scale") not in (None, 1)
            ):
                raise ValueError(
                    "fuse/n_windows/subtile_scale are hybrid (tridiagonal) "
                    f"plan options; not applicable to a {system.kind!r} solve"
                )
        if system.kind == "pentadiagonal":
            if e is None or f is None:
                raise ValueError(
                    "pentadiagonal requests need both outer diagonals e "
                    "(offset -2) and f (offset +2)"
                )
            validate = (
                check_penta_batch_arrays if check else coerce_penta_batch_arrays
            )
            e, a, b, c, f, d = validate(e, a, b, c, f, d)
            m, n = b.shape
        elif system.kind == "block":
            validate = (
                check_block_batch_arrays if check else coerce_block_batch_arrays
            )
            a, b, c, d = validate(a, b, c, d)
            if b.ndim != 4:
                raise ValueError(
                    f"block batch must be (M, N, B, B), got {b.ndim}-D"
                )
            if b.shape[2] != system.block_size:
                raise ValueError(
                    f"blocks are {b.shape[2]}x{b.shape[3]} but the "
                    f"descriptor says block_size={system.block_size}"
                )
            m, n = b.shape[:2]
        else:
            if periodic:
                validate = (
                    check_cyclic_batch_arrays
                    if check
                    else coerce_cyclic_batch_arrays
                )
            else:
                validate = check_batch_arrays if check else coerce_batch_arrays
            a, b, c, d = validate(a, b, c, d)
            if b.ndim != 2:
                raise ValueError(f"batch must be 2-D (M, N), got {b.ndim}-D")
            m, n = b.shape
        if out is not None:
            check_out(out, d.shape, d.dtype)
        return cls(
            a=a,
            b=b,
            c=c,
            d=d,
            m=m,
            n=n,
            dtype=np.dtype(b.dtype).name,
            periodic=periodic,
            check=check,
            out=out,
            label=label,
            e=e,
            f=f,
            system=system,
            **opts,
        )

    def replace(self, **changes) -> "SolveRequest":
        """A copy of this request with some fields replaced."""
        return replace(self, **changes)


@dataclass
class SolveOutcome:
    """What one dispatched solve produced.

    ``x`` is the solution batch; ``trace`` the
    :class:`~repro.backends.trace.SolveTrace` describing how it was
    computed (backend, frozen ``k``, cache outcomes, stage timings).
    """

    x: np.ndarray
    trace: object
