"""Generalized buffered sliding window — the paper's future work, built.

Section VI: "The buffered sliding window approach can also be applied
to other types of divide-and-conquer type algorithms.  Future work
includes further developing the approach into a generalized strategy."

This module is that generalization.  The essential structure of tiled
PCR is not PCR-specific: it is a **pipeline of local levels**, where
level ``l+1`` at position ``i`` reads level ``l`` within a bounded reach
``[i − r_l, i + r_l]``.  Any such pipeline can be streamed through a
bounded cache:

* the level frontiers obey ``F_{l+1} = F_l − r_l``, so outputs lag raw
  input by ``Σ r_l``;
* level ``l`` must retain its trailing ``2·r_l`` rows (the same
  dependency algebra that gives tiled PCR its ``2·f(k)`` cache);
* out-of-domain rows are synthesized by a user-supplied boundary fill,
  exactly like PCR's inert identity rows.

:class:`StreamingPipeline` implements the streaming executor for an
arbitrary :class:`Level` list and verifies itself against the oracle
(applying each level to the whole array).  Two shipped applications:

* :func:`pcr_levels` — k-step PCR expressed as a pipeline (used by the
  tests to cross-check the dedicated :class:`~repro.core.tiled_pcr.TiledPCR`);
* :func:`jacobi_smoother_levels` — a k-sweep weighted-Jacobi stencil
  smoother, the multigrid building block of the paper's refs [9][10],
  streamed with the same cache discipline.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.core.ringbuf import RingRows

__all__ = [
    "Level",
    "StreamingPipeline",
    "StreamCounters",
    "pcr_levels",
    "jacobi_smoother_levels",
]


@dataclass(frozen=True)
class Level:
    """One local-update level of a streaming pipeline.

    Attributes
    ----------
    apply:
        ``apply(window) -> out`` where ``window`` is a tuple of channel
        arrays covering ``w + left + right`` consecutive rows of the
        previous level and ``out`` the ``w`` produced rows (same channel
        count unless ``out_channels`` says otherwise).  Must be a pure
        function of the window (the executor chooses the chunking).
    left, right:
        Dependency reach: output row ``i`` may read input rows
        ``[i − left, i + right]``.
    """

    apply: Callable
    left: int
    right: int

    def __post_init__(self) -> None:
        if self.left < 0 or self.right < 0:
            raise ValueError("level reach must be non-negative")


@dataclass
class StreamCounters:
    """Ledger of a streaming run."""

    rows_loaded: int = 0
    rows_produced: int = 0
    rounds: int = 0
    cache_rows_peak: int = 0


@dataclass
class StreamingPipeline:
    """Streams a level pipeline over a long axis with bounded caches.

    Parameters
    ----------
    levels:
        The pipeline, level 0 applied first.
    boundary_fill:
        ``boundary_fill(m, w, dtype) -> tuple`` producing ``w`` synthetic
        out-of-domain rows per channel such that in-domain results are
        unaffected (PCR: identity rows; stencils: zero/reflection — the
        caller guarantees the algebraic inertness, as the paper's
        identity rows do).
    chunk:
        Raw rows consumed per round (the sub-tile size).
    """

    levels: list
    boundary_fill: Callable
    chunk: int = 64
    counters: StreamCounters = field(default_factory=StreamCounters)

    def __post_init__(self) -> None:
        if not self.levels:
            raise ValueError("need at least one level")
        if self.chunk < 1:
            raise ValueError(f"chunk must be >= 1, got {self.chunk}")

    @property
    def total_lag(self) -> int:
        """Rows by which the final output trails the raw input.

        Only the *trailing* reach delays the frontier: producing row
        ``i`` at level ``l+1`` waits for input row ``i + right_l``, so
        the lag is ``Σ right_l``; the ``left_l`` reaches size the caches.
        """
        return sum(lv.right for lv in self.levels)

    def cache_rows(self) -> int:
        """Dependency-minimum bounded state: ``Σ (left_l + right_l)``.

        The executor's working buffers additionally hold one in-flight
        chunk per level while a round is being processed — the analogue
        of the paper's bottom buffer (see ``counters.cache_rows_peak``).
        """
        return sum(lv.left + lv.right for lv in self.levels)

    # ------------------------------------------------------------------
    def run(self, channels: tuple, emit=None) -> tuple | None:
        """Stream the pipeline over ``channels`` (each ``(M, N)``).

        Returns the final-level arrays (or ``None`` when ``emit`` is
        given; ``emit(e0, e1, out_channels)`` receives ascending,
        non-overlapping slabs covering ``[0, N)``).
        """
        channels = tuple(np.asarray(ch) for ch in channels)
        m, n = channels[0].shape
        dtype = channels[0].dtype
        L = len(self.levels)
        self.counters = StreamCounters()

        out = None
        if emit is None:
            out_holder: dict = {}

            def emit_to_out(e0, e1, ch):
                if "arrays" not in out_holder:
                    out_holder["arrays"] = tuple(
                        np.empty((m, n), dtype=x.dtype) for x in ch
                    )
                for dst, src in zip(out_holder["arrays"], ch):
                    dst[:, e0:e1] = src

            sink = emit_to_out
        else:
            sink = emit

        # Per-level trailing caches (fixed-capacity ring buffers) and
        # frontiers.  Ring ``l`` holds level ``l``'s *input*; it is sized
        # for the retention budget plus append/compaction headroom and
        # never reallocates.  Rings for l > 0 are created on the first
        # rows their producing level emits (fixing channel dtypes then);
        # until that moment the level cannot advance anyway.
        keeps = [lv.left + lv.right for lv in self.levels]
        init_w = [max(1, keeps[l]) for l in range(L)]
        lag0 = sum(lv.right for lv in self.levels)
        start = -sum(lv.left + lv.right for lv in self.levels)  # warm-up zone
        S = self.chunk

        def make_ring(l: int, like: tuple) -> RingRows:
            ring = RingRows(
                m,
                init_w[l] + 2 * S,
                [np.result_type(dtype, x.dtype) for x in like],
                channels=len(like),
            )
            fill = self.boundary_fill(m, init_w[l], dtype)
            for dst, src in zip(ring.append(init_w[l]), fill):
                dst[...] = src
            return ring

        rings: list = [make_ring(0, channels)] + [None] * (L - 1)
        frontiers = [start] * (L + 1)
        pos = start
        peak = 0

        while frontiers[L] < n:
            # 1. fetch one chunk of raw rows (boundary-filled outside)
            lo, hi = pos, pos + S
            in_lo, in_hi = max(lo, 0), min(hi, n)
            views = rings[0].append(S)
            if in_lo >= in_hi:
                # the whole chunk lies outside the domain
                fill = self.boundary_fill(m, hi - lo, dtype)
                for dst, src in zip(views, fill):
                    dst[...] = src
            else:
                if lo < in_lo:
                    fill = self.boundary_fill(m, in_lo - lo, dtype)
                    for dst, src in zip(views, fill):
                        dst[:, : in_lo - lo] = src
                for dst, ch in zip(views, channels):
                    dst[:, in_lo - lo : in_hi - lo] = ch[:, in_lo:in_hi]
                self.counters.rows_loaded += (in_hi - in_lo) * m
                if hi > in_hi:
                    fill = self.boundary_fill(m, hi - in_hi, dtype)
                    for dst, src in zip(views, fill):
                        dst[:, in_hi - lo :] = src
            pos = hi
            frontiers[0] = hi

            # 2. advance each level as far as its input frontier allows
            for l, lv in enumerate(self.levels):
                new_f = frontiers[l] - lv.right
                old_f = frontiers[l + 1]
                w = new_f - old_f
                if w <= 0:
                    continue
                ring = rings[l]
                buf_lo = frontiers[l] - ring.width
                i0 = (old_f - lv.left) - buf_lo
                # the window's upper edge new_f + right == frontiers[l],
                # i.e. exactly the ring's trailing row
                window = ring.view(i0, ring.width)
                produced = lv.apply(window)
                if produced[0].shape[1] != w:
                    raise ValueError(
                        f"level {l} produced {produced[0].shape[1]} rows, "
                        f"expected {w}"
                    )
                frontiers[l + 1] = new_f
                if l + 1 < L:
                    if rings[l + 1] is None:
                        rings[l + 1] = make_ring(l + 1, produced)
                    for dst, src in zip(rings[l + 1].append(w), produced):
                        dst[...] = src
                else:
                    e0, e1 = max(old_f, 0), min(new_f, n)
                    if e0 < e1:
                        sink(
                            e0,
                            e1,
                            tuple(x[:, e0 - old_f : e1 - old_f] for x in produced),
                        )
                        self.counters.rows_produced += (e1 - e0) * m

            # 3. trim caches to their dependency budget (offset advance)
            for l, lv in enumerate(self.levels):
                if rings[l] is None:
                    continue
                needed_from = frontiers[l + 1] - lv.left
                rings[l].trim_to(max(1, frontiers[l] - needed_from))
            peak = max(
                peak, sum(r.width for r in rings if r is not None)
            )
            self.counters.rounds += 1

        self.counters.cache_rows_peak = peak
        if emit is None:
            return out_holder["arrays"]
        return out

    def run_oracle(self, channels: tuple) -> tuple:
        """Apply every level to the whole (boundary-padded) axis at once —
        the non-streaming reference the streamed result must equal."""
        channels = tuple(np.asarray(ch) for ch in channels)
        m, n = channels[0].shape
        dtype = channels[0].dtype
        pad = max(1, sum(lv.left + lv.right for lv in self.levels))
        cur = tuple(
            np.concatenate(
                [
                    self.boundary_fill(m, pad, dtype)[i],
                    ch,
                    self.boundary_fill(m, pad, dtype)[i],
                ],
                axis=1,
            )
            for i, ch in enumerate(channels)
        )
        lo, hi = pad, pad + n
        for lv in self.levels:
            w = cur[0].shape[1] - lv.left - lv.right
            out = lv.apply(cur)
            assert out[0].shape[1] == w
            lo -= lv.left
            cur = out
        return tuple(x[:, lo : lo + n] for x in cur)


# ---------------------------------------------------------------------------
# shipped applications
# ---------------------------------------------------------------------------


def pcr_levels(k: int) -> tuple:
    """k-step PCR as a generic pipeline (level l has reach 2^l each side).

    Returns ``(levels, boundary_fill)`` for a 4-channel ``(a, b, c, d)``
    stream; the result equals :func:`repro.core.pcr.pcr_sweep`.  Each
    level allocates its outputs and eliminates through the window's
    kernel, :func:`repro.core.tiled_pcr._pcr_local_into`.
    """
    from repro.core.tiled_pcr import _fill_identity, _pcr_local_into

    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")

    def make(level):
        s = 1 << level

        def apply(q):
            m, w = q[0].shape[0], q[0].shape[1] - 2 * s
            # four outputs, then the kernel's k1, k2 and tmp scratch
            arrays = [np.empty((m, w), dtype=np.result_type(*q)) for _ in range(7)]
            _pcr_local_into(q, s, arrays[:4], *arrays[4:])
            return tuple(arrays[:4])

        return Level(apply=apply, left=s, right=s)

    def fill(m, w, dtype):
        rows = tuple(np.empty((m, w), dtype=dtype) for _ in range(4))
        _fill_identity(rows)
        return rows

    return [make(l) for l in range(k)], fill


def jacobi_smoother_levels(k: int, omega: float = 2.0 / 3.0) -> tuple:
    """k damped-Jacobi sweeps of the 1-D Poisson stencil as a pipeline.

    Channels are ``(u, f)``: each level replaces ``u`` with one weighted
    Jacobi update ``u ← (1−ω)u + ω(u_{i−1} + u_{i+1} + h²f)/2`` and
    passes ``f`` through.  Boundary semantics are the *zero-extended
    field*: the domain is embedded in an infinite zero field and the
    sweeps act on the extension too (virtual rows are computed once,
    not re-pinned per sweep) — the natural semantics of a streamed
    pipeline, equal to padding the line with ``k`` zeros, sweeping the
    whole array and cropping.  The classic smoother of the paper's
    multigrid references, now streamable over arbitrarily long lines
    with O(k) state.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if not 0.0 < omega <= 1.0:
        raise ValueError(f"omega must be in (0, 1], got {omega}")

    def apply(window):
        u, f = window
        w = u.shape[1] - 2
        centre = u[:, 1 : 1 + w]
        jac = 0.5 * (u[:, :w] + u[:, 2 : 2 + w] + f[:, 1 : 1 + w])
        return ((1.0 - omega) * centre + omega * jac, f[:, 1 : 1 + w])

    def fill(m, w, dtype):
        z = np.zeros((m, w), dtype=dtype)
        return (z, z.copy())

    return [Level(apply=apply, left=1, right=1) for _ in range(k)], fill
