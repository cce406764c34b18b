"""The one request/outcome vocabulary every solve in the repo speaks.

PRs 1–4 grew three parallel solve paths — plain ``solve_batch``, the
prepared RHS-only path, and ``solve_periodic_batch`` — each with its
own engine entrypoint, backend protocol method and trace wiring.  This
module collapses that Cartesian product into two dataclasses:

:class:`SolveRequest`
    Everything one solve needs: the coerced ``(M, N)`` diagonals and
    right-hand side (or a factorization handle plus the RHS alone),
    the negotiation axes (dtype, ``periodic``, ``ranks``,
    ``fingerprint``), the plan options (``k``, ``fuse``),
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
    check_batch_content,
    check_block_content,
    check_cyclic_content,
    check_out,
    check_penta_content,
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


def _validator(system: SystemDescriptor, periodic: bool):
    """``(shape half, content half, array fields)`` of one system kind's
    validator (:mod:`repro.core.validation`)."""
    if system.kind == "pentadiagonal":
        return coerce_penta_batch_arrays, check_penta_content, "eabcfd"
    if system.kind == "block":
        return coerce_block_batch_arrays, check_block_content, "abcd"
    if periodic:
        return coerce_cyclic_batch_arrays, check_cyclic_content, "abcd"
    return coerce_batch_arrays, check_batch_content, "abcd"


#: keyword options accepted by :meth:`SolveRequest.build` /
#: ``solve_batch`` — unknown names are a ``TypeError`` at the dispatch
#: boundary, not deep inside a kernel.
OPTION_NAMES = (
    "k",
    "fuse",
    "periodic",
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
        Coerced contiguous ``(M, N)`` diagonals and right-hand side, or
        stride-0 broadcasts of one contiguous row (a batch of one
        matrix; see :mod:`repro.core.validation`).  Routes only read
        them.  For ``rhs_only`` requests, and in a factored session's
        request, the coefficients are ``None`` — the elimination lives
        in ``factorization``.
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
        Factorization-cache tri-state: ``None`` auto-engages at
        ``k = 0``, ``True`` forces prepared execution (and restricts
        negotiation to prepared-capable backends), ``False`` disables
        hashing.  Prepared execution keeps the one-shot's bits at
        every ``k``.
    rtol:
        The caller's accuracy contract: the relative drift (vs the
        unprepared solve) this request tolerates.  ``None`` (default)
        declares none — fingerprinting auto-engages only at ``k = 0``.
        A positive ``rtol`` above the dtype floor
        (:data:`repro.engine.prepared.FINGERPRINT_RTOL_FLOOR`) lets the
        auto tier also reuse hybrid ``k > 0`` factorizations and
        licenses the adaptive router to select forced-fingerprint
        routes (and a different ``k``).  Those sweeps keep the bits, so
        the floor is an intent and cost gate: a ``k > 0``
        factorization holds ``2k + 3`` ``(N, M)`` arrays.
    ranks:
        Requested N-axis partition count for the distributed tier
        (``None`` = not partitioned; ``ranks > 1`` restricts
        negotiation to backends advertising ``Capabilities.max_ranks``
        above 1).  It must be an int ``>= 1`` or ``None``
        (``ValueError`` otherwise).
    k, fuse:
        Plan options, exactly as ``solve_batch`` takes them.  A ``k``
        left ``None`` is picked by the backend's plan from the
        transition table (Table III).  The window schedule is the
        backend's own: the engine runs one window with Table I's
        sub-tile ``c`` sized for the host
        (:func:`~repro.engine.plan.host_subtile_scale`), the numpy
        reference runs the paper's ``c = 1``; the bits are the same.
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
        their raw arrays here.  Every input is coerced to one contiguous
        float dtype (a broadcast batch stays a stride-0 view of one
        contiguous row) and its shapes are checked; ``check=True`` adds
        the content checks — finiteness, pads, pivots (:meth:`checked`).
        Cyclic requests go through the dedicated cyclic validators,
        whose corners are couplings the plain validator would zero, and
        which require ``N >= 3``.  Unknown options raise ``TypeError``
        at this boundary.  An ``out`` must be an ``ndarray`` of ``d``'s
        shape and the solve dtype in either mode (any memory layout).

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
            if opts.get("fuse"):
                raise ValueError(
                    "fuse is a hybrid (tridiagonal) plan option; not "
                    f"applicable to a {system.kind!r} solve"
                )
        if system.kind == "pentadiagonal" and (e is None or f is None):
            raise ValueError(
                "pentadiagonal requests need both outer diagonals e "
                "(offset -2) and f (offset +2)"
            )
        shapes, content, fields = _validator(system, periodic)
        given = {"e": e, "a": a, "b": b, "c": c, "f": f, "d": d}
        arrays = shapes(*(given[name] for name in fields))
        if check:
            arrays = content(*arrays)
        arrays = dict(zip(fields, arrays))
        b = arrays["b"]
        if system.kind == "block" and b.shape[2] != system.block_size:
            raise ValueError(
                f"blocks are {b.shape[2]}x{b.shape[3]} but the "
                f"descriptor says block_size={system.block_size}"
            )
        if out is not None:
            check_out(out, arrays["d"].shape, arrays["d"].dtype)
        return cls(
            **arrays,
            m=b.shape[0],
            n=b.shape[1],
            dtype=np.dtype(b.dtype).name,
            periodic=periodic,
            check=check,
            out=out,
            label=label,
            system=system,
            **opts,
        )

    def checked(self) -> "SolveRequest":
        """This request with its content checked: the content half of
        its kind's validator (finiteness, pads, pivots), which
        :meth:`build` runs under ``check=True``.

        A request built with ``check=False`` and handed here keeps the
        bits and raises the errors of one built with ``check=True``.
        """
        _, content, fields = _validator(self.system, self.periodic)
        arrays = content(*(getattr(self, name) for name in fields))
        return self.replace(**dict(zip(fields, arrays)))

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
