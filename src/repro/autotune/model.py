"""The measured-performance model behind the adaptive router.

Table III is a *prediction*: a fixed ``M → k`` table tuned on one
GTX480.  This module replaces prediction with measurement.  Every
registry-dispatched solve already leaves a
:class:`~repro.backends.trace.SolveTrace` with per-stage wall times;
:class:`PerformanceModel` folds those traces into running cost
estimates keyed by

* a **cell** — the problem-shape bucket ``(⌊log2 M⌋, ⌊log2 N⌋, dtype,
  periodic)``.  Power-of-two bucketing mirrors how every quantity in
  the paper scales (Tables I–III are all stated in powers of two) and
  keeps the model small: a few dozen cells cover any realistic sweep;
* a **route** — the knobs the router controls: backend name, frozen
  transition ``k``, *effective* fingerprint tier (``"auto"`` /
  ``"auto+rtol"`` / ``"forced"`` / ``"off"`` — see
  :func:`effective_fingerprint_tier`) and rank count.

Per (cell, route) the model keeps a running mean of measured solve
seconds (validation excluded — its cost is route-independent) plus a
sample count, so "which route is fastest here?" is one dictionary
scan.

Persistence is a versioned JSON file written atomically (temp file +
``os.replace``, the same discipline as
:class:`~repro.engine.diskcache.FactorizationDiskCache`); the payload
is serialized with sorted keys so save → load → save round-trips
bitwise.  Loading is defensive: a missing, corrupt, or
foreign-version file yields an empty model (the router then degrades
to the static heuristic) — calibration state can never fail a solve.
"""

from __future__ import annotations

import json
import math
import os
import tempfile
from dataclasses import dataclass

import numpy as np

__all__ = [
    "MODEL_VERSION",
    "ModelLoadError",
    "PerformanceModel",
    "RouteStats",
    "cell_key",
    "cell_key_for",
    "cost_from",
    "effective_fingerprint_tier",
    "fingerprint_tier",
    "route_from",
    "route_key",
]

#: schema version of the persisted JSON payload; foreign versions are
#: discarded on load (stale calibration is worthless, not dangerous).
#: v2 added the ``ranks`` route axis (distributed N-partitioning) —
#: v1 files never measured it, so discarding them is the safe reload.
#: v3 retired the ``threaded`` backend: v2 files hold routes no
#: backend serves any more.  v4 retired the ``workers`` route axis
#: (every solve runs on one thread): v3 costs were measured on routes
#: that no longer exist.
MODEL_VERSION = 4

#: the knobs a route pins, in canonical serialization order
ROUTE_FIELDS = ("backend", "k", "fingerprint", "ranks")


class ModelLoadError(ValueError):
    """A persisted performance model could not be parsed."""


def _bucket(v: int) -> int:
    """Power-of-two bucket exponent: ``⌊log2 v⌋`` (v ≥ 1)."""
    return int(math.floor(math.log2(max(int(v), 1))))


def cell_key(m: int, n: int, dtype, periodic: bool, system: str = "") -> str:
    """Canonical cell key for a problem-shape bucket.

    ``system`` is the descriptor tag (``""`` for tridiagonal,
    ``"penta"`` / ``"block<B>"`` otherwise).  Tridiagonal keys keep
    their historical spelling — persisted models calibrated before the
    descriptor axis existed stay valid — and banded cells gain a
    trailing segment so the router never attributes a pentadiagonal or
    block-sweep cost to the tridiagonal stencil (or across block
    sizes).
    """
    kind = "cyclic" if periodic else "plain"
    key = f"M2^{_bucket(m)}|N2^{_bucket(n)}|{np.dtype(dtype).name}|{kind}"
    if system:
        key += f"|{system}"
    return key


def cell_key_for(request) -> str:
    """The cell a :class:`~repro.backends.request.SolveRequest` lands in."""
    return cell_key(
        request.m,
        request.n,
        request.dtype,
        request.periodic,
        request.system.tag,
    )


def fingerprint_tier(fingerprint) -> str:
    """Canonical name of a request's fingerprint tri-state."""
    if fingerprint is True:
        return "forced"
    if fingerprint is False:
        return "off"
    return "auto"


def effective_fingerprint_tier(fingerprint, rtol, dtype, k: int) -> str:
    """The fingerprint behaviour a solve *actually* runs under.

    The route vocabulary must partition behaviour, not just request
    flags: ``fingerprint=None`` with an ``rtol`` contract engages
    factorization reuse on ``k > 0`` plans (tier ``"auto+rtol"``)
    where the same flag without the contract does not (``"auto"``).
    Costs measured under one tier must never be attributed to the
    other.  At ``k = 0`` the contract changes nothing — both collapse
    to ``"auto"``.
    """
    if fingerprint is True:
        return "forced"
    if fingerprint is False:
        return "off"
    if k != 0:
        from repro.engine.prepared import rtol_permits_hybrid_reuse

        if rtol_permits_hybrid_reuse(rtol, dtype):
            return "auto+rtol"
    return "auto"


def route_key(route: dict) -> str:
    """Canonical string key for a route dict (stable field order)."""
    return json.dumps(
        {f: route.get(f) for f in ROUTE_FIELDS}, sort_keys=True
    )


def route_from(request, trace) -> dict:
    """The route one completed solve actually ran.

    Built from the trace (what executed) plus the request (the caller's
    fingerprint tri-state — the trace's ``factorization`` field mixes
    in cache warmth, which is history, not a knob).
    """
    decision = getattr(trace, "decision", None)
    backend = (
        decision.chosen if decision is not None and decision.chosen
        else trace.backend
    )
    return {
        "backend": backend,
        "k": int(trace.k),
        "fingerprint": effective_fingerprint_tier(
            request.fingerprint, request.rtol, request.dtype, int(trace.k)
        ),
        "ranks": int(getattr(trace, "ranks", 1) or 1),
    }


def cost_from(trace) -> float:
    """Measured route cost of one trace: total seconds minus validation.

    Validation cost is identical whatever the router picks, so leaving
    it out keeps route comparisons about the routes.
    """
    return sum(
        s.seconds for s in trace.stages if s.name != "validate"
    )


@dataclass
class RouteStats:
    """Running cost estimate for one (cell, route)."""

    count: int = 0
    mean_s: float = 0.0

    def observe(self, seconds: float) -> None:
        """Fold one measurement into the running mean."""
        self.count += 1
        self.mean_s += (float(seconds) - self.mean_s) / self.count


class PerformanceModel:
    """Per-(cell, route) running cost estimates over observed solves.

    Parameters
    ----------
    min_samples:
        Observations a route needs before :meth:`best` will trust its
        mean — one noisy first sample must not steer routing.
    """

    def __init__(self, min_samples: int = 2):
        if min_samples < 1:
            raise ValueError(f"min_samples must be >= 1, got {min_samples}")
        self.min_samples = min_samples
        # cell key -> route key -> RouteStats
        self._cells: dict = {}
        # route key -> route dict, so best() can return the knobs
        self._routes: dict = {}

    # ---- observation -------------------------------------------------
    def observe(self, cell: str, route: dict, seconds: float) -> None:
        """Fold one measured solve into the model."""
        rkey = route_key(route)
        self._routes.setdefault(rkey, {f: route.get(f) for f in ROUTE_FIELDS})
        stats = self._cells.setdefault(cell, {}).setdefault(rkey, RouteStats())
        stats.observe(seconds)

    def observe_trace(self, request, trace) -> None:
        """Fold one completed (request, trace) pair into the model."""
        self.observe(cell_key_for(request), route_from(request, trace), cost_from(trace))

    # ---- queries -----------------------------------------------------
    def cells(self) -> list:
        """Known cell keys, sorted."""
        return sorted(self._cells)

    def routes(self, cell: str) -> dict:
        """``route_key -> RouteStats`` for one cell (empty when cold)."""
        return dict(self._cells.get(cell, {}))

    def route_dict(self, rkey: str) -> dict:
        """The route knobs behind a route key."""
        route = self._routes.get(rkey)
        if route is None:
            route = json.loads(rkey)
        return dict(route)

    def observations(self, cell: str) -> int:
        """Total samples recorded for one cell."""
        return sum(s.count for s in self._cells.get(cell, {}).values())

    def best(self, cell: str, *, admissible=None):
        """The fastest trusted route for ``cell``.

        Returns ``(route_dict, RouteStats)`` over routes with at least
        ``min_samples`` observations (and passing the optional
        ``admissible(route_dict)`` filter), or ``None`` when the cell
        has no trusted route — the router's cue to fall back to the
        static heuristic.  Ties break on the route key, so selection is
        deterministic.
        """
        entries = self._cells.get(cell)
        if not entries:
            return None
        best = None
        for rkey in sorted(entries):
            stats = entries[rkey]
            if stats.count < self.min_samples:
                continue
            # the stored dict is passed uncopied (admissible must only
            # read it); only the winner is copied on return
            route = self._routes.get(rkey)
            if route is None:
                route = self._routes[rkey] = json.loads(rkey)
            if admissible is not None and not admissible(route):
                continue
            if best is None or stats.mean_s < best[1].mean_s:
                best = (route, stats)
        if best is None:
            return None
        return dict(best[0]), best[1]

    def least_sampled(self, cell: str, candidates: list):
        """The candidate route with the fewest observations in ``cell``.

        ``candidates`` is a list of route dicts; ties break on the
        canonical route key (deterministic exploration order).
        """
        if not candidates:
            return None
        entries = self._cells.get(cell, {})
        keyed = sorted((route_key(r), r) for r in candidates)
        return min(
            keyed, key=lambda kr: (entries.get(kr[0], RouteStats()).count, kr[0])
        )[1]

    # ---- persistence -------------------------------------------------
    def to_payload(self) -> dict:
        """The JSON-serializable persisted form."""
        return {
            "kind": "repro-autotune-model",
            "version": MODEL_VERSION,
            "min_samples": self.min_samples,
            "cells": {
                cell: {
                    rkey: {"count": s.count, "mean_s": s.mean_s}
                    for rkey, s in entries.items()
                }
                for cell, entries in self._cells.items()
            },
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "PerformanceModel":
        """Rebuild a model from :meth:`to_payload` output.

        Raises :class:`ModelLoadError` on anything that is not a
        current-version model payload — including *future* versions,
        whose semantics this code cannot know.
        """
        if not isinstance(payload, dict):
            raise ModelLoadError("model payload is not a JSON object")
        if payload.get("kind") != "repro-autotune-model":
            raise ModelLoadError(
                f"not an autotune model (kind={payload.get('kind')!r})"
            )
        if payload.get("version") != MODEL_VERSION:
            raise ModelLoadError(
                f"model version {payload.get('version')!r} != "
                f"supported version {MODEL_VERSION}"
            )
        model = cls(min_samples=int(payload.get("min_samples", 2)))
        cells = payload.get("cells")
        if not isinstance(cells, dict):
            raise ModelLoadError("model payload has no 'cells' mapping")
        for cell, entries in cells.items():
            if not isinstance(entries, dict):
                raise ModelLoadError(f"cell {cell!r} is not a mapping")
            for rkey, rec in entries.items():
                try:
                    route = json.loads(rkey)
                    count = int(rec["count"])
                    mean_s = float(rec["mean_s"])
                except (KeyError, TypeError, ValueError) as exc:
                    raise ModelLoadError(
                        f"malformed route record under {cell!r}: {exc}"
                    ) from exc
                model._routes.setdefault(rkey, route)
                model._cells.setdefault(cell, {})[rkey] = RouteStats(
                    count=count, mean_s=mean_s
                )
        return model

    def save(self, path) -> str:
        """Atomically write the model (temp file + ``os.replace``).

        Sorted keys + fixed separators make the byte stream a pure
        function of the model state, so persistence round-trips
        bitwise.
        """
        path = os.fspath(path)
        directory = os.path.dirname(path) or "."
        os.makedirs(directory, exist_ok=True)
        data = json.dumps(
            self.to_payload(), indent=2, sort_keys=True
        ) + "\n"
        fd, tmp = tempfile.mkstemp(
            dir=directory, prefix=".autotune-", suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "w") as fh:
                fh.write(data)
            os.replace(tmp, path)
        except OSError:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        return path

    @classmethod
    def load(cls, path) -> "PerformanceModel":
        """Strict load: raises :class:`ModelLoadError` on any problem."""
        try:
            with open(os.fspath(path)) as fh:
                payload = json.load(fh)
        except OSError as exc:
            raise ModelLoadError(f"cannot read model file: {exc}") from exc
        except ValueError as exc:
            raise ModelLoadError(f"model file is not JSON: {exc}") from exc
        return cls.from_payload(payload)

    @classmethod
    def load_or_new(cls, path, *, min_samples: int = 2):
        """Forgiving load: ``(model, note)``; never raises.

        A missing file is a fresh start (``note=None``); a corrupt or
        foreign-version file is *also* a fresh start, with the problem
        described in ``note`` — routing degrades to the static
        heuristic instead of failing the process.
        """
        if path is None or not os.path.exists(os.fspath(path)):
            return cls(min_samples=min_samples), None
        try:
            return cls.load(path), None
        except ModelLoadError as exc:
            return cls(min_samples=min_samples), str(exc)
