"""The adaptive router: measured calibration over the Table-III prior.

:class:`AdaptiveRouter` is a drop-in :class:`~repro.backends.registry.
Router` subclass (``registry.router = AdaptiveRouter(...)`` — or just
:func:`enable_adaptive_routing`).  Selection is a three-way policy,
fully deterministic for a given call sequence:

* **cold** — the request's cell has no trusted measurements: behave
  *exactly* like the static router (same rules, same priority
  fallback), so a fresh process is bitwise-identical to the shipped
  heuristic until data says otherwise;
* **exploit** — the cell has a trusted best route: pick its backend
  and fill in any knobs the caller left unset (``k``, ``ranks``,
  ``fingerprint`` tier).  Routes are admissible only if the backend is
  among the capability-filtered candidates and every caller-pinned
  knob matches — the router refines requests, it never overrides them;
* **explore** — every ``1/epsilon``-th selection per cell (a
  deterministic counter schedule, not a PRNG: ``epsilon=0`` never
  explores and replays identically) runs the least-sampled candidate
  route instead, so non-winning routes keep earning samples and the
  model tracks the host as it changes.

Reuse intent is part of admissibility: a ``forced`` fingerprint tier
is only applied when the route is ``k = 0`` or the request carries an
``rtol=`` contract clearing the dtype floor
(:func:`repro.engine.prepared.rtol_permits_hybrid_reuse`).  RHS-only
reuse keeps the one-shot's bits at every ``k``; the floor keeps a
``k > 0`` factorization's ``2k + 3`` stored arrays off requests that
did not declare it.

The model feeds itself: :meth:`AdaptiveRouter.observe` is called by
``solve_via`` after every registry dispatch (explicit-backend solves
included, so even pinned workloads calibrate their cells).
"""

from __future__ import annotations

import math
import threading

from repro.autotune.model import (
    PerformanceModel,
    cell_key_for,
    fingerprint_tier,
)
from repro.backends.registry import Router
from repro.backends.trace import RouteDecision
from repro.core.transition import candidate_ks

__all__ = [
    "AdaptiveRouter",
    "candidate_routes",
    "disable_adaptive_routing",
    "enable_adaptive_routing",
]

#: ceiling on generated exploration routes per cell — keeps one cell's
#: calibration from dominating a workload even at high epsilon
MAX_CANDIDATE_ROUTES = 24


def _rtol_permits(request) -> bool:
    from repro.engine.prepared import rtol_permits_hybrid_reuse

    return rtol_permits_hybrid_reuse(request.rtol, request.dtype)


def candidate_routes(request, candidates: list) -> list:
    """The deterministic measurement/exploration set for one request.

    One route dict per (measured backend, candidate ``k``, fingerprint
    tier) combination the request's contracts allow:
    caller-pinned knobs stay pinned, simulated backends are skipped
    (their "time" is a model, not this host), and the ``forced``
    fingerprint tier appears only where numerically licensed (``k = 0``
    or an ``rtol=`` contract above the dtype floor).  A multi-rank
    backend appears only on its ``ranks > 1`` routes: unpinned, it runs
    its own default rank count, so a ``ranks=1`` route would time one
    configuration and record another.  Shared by
    :class:`AdaptiveRouter` exploration and offline
    :func:`~repro.autotune.calibrate.calibrate`.
    """
    banded = request.system.kind != "tridiagonal"
    routes = []
    for backend in sorted(candidates, key=lambda b: b.name):
        caps = backend.capabilities()
        if caps.simulated or caps.max_ranks > 1:
            continue  # measured single-rank backends only
        if banded:
            # banded plans have no PCR front-end — k is pinned to the
            # stencil's Thomas-style sweep, never an exploration axis
            ks = (0,)
        elif request.k is not None:
            ks = (request.k,)
        else:
            ks = candidate_ks(request.m, request.n)
        for k in ks:
            if request.fingerprint is not None:
                tiers = (fingerprint_tier(request.fingerprint),)
            else:
                # the baseline tier is what fingerprint=None actually
                # runs under for this (k, rtol) — see
                # :func:`repro.autotune.model.effective_fingerprint_tier`
                if k != 0 and _rtol_permits(request):
                    tiers = ["auto+rtol"]
                else:
                    tiers = ["auto"]
                if caps.prepared and (k == 0 or _rtol_permits(request)):
                    tiers.append("forced")
            for tier in tiers:
                routes.append({
                    "backend": backend.name,
                    "k": int(k),
                    "fingerprint": tier,
                    "ranks": 1,
                })
    # ranks axis: multi-rank backends partition N, so the variants only
    # make sense where the interface exchange can amortize (large N)
    if not banded:
        for backend in sorted(candidates, key=lambda b: b.name):
            caps = backend.capabilities()
            if caps.simulated or caps.max_ranks <= 1:
                continue
            if request.ranks is not None:
                ranks_opts = (
                    (request.ranks,) if request.ranks > 1 else ()
                )
            elif request.n >= 4096:
                ranks_opts = (2, 4)
            else:
                ranks_opts = ()
            for r in ranks_opts:
                routes.append({
                    "backend": backend.name,
                    # the partitioned pipeline picks each slab
                    # interior's k itself (SLAB_HEURISTIC); the route
                    # records its knob as 0 unless pinned
                    "k": int(request.k) if request.k is not None else 0,
                    "fingerprint": "auto",
                    "ranks": int(min(r, caps.max_ranks)),
                })
    return routes[:MAX_CANDIDATE_ROUTES]


class AdaptiveRouter(Router):
    """Trace-calibrated backend/knob selection (see module docs).

    Parameters
    ----------
    model:
        An existing :class:`~repro.autotune.model.PerformanceModel`;
        built (or loaded from ``model_path``) when omitted.
    model_path:
        Versioned JSON persistence location.  Missing, corrupt, or
        foreign-version files degrade to an empty model (note kept in
        :attr:`load_note`) — they never raise.
    epsilon:
        Exploration rate in ``[0, 1]``: fraction of per-cell selections
        spent sampling the least-measured candidate route.  ``0``
        disables exploration entirely (pure exploit-or-static).
    min_samples:
        Trust threshold forwarded to a model built here.
    autosave_every:
        Persist the model every N observations (``0`` = only on
        explicit :meth:`save`).  Requires ``model_path``.
    rules:
        Static fallback rules, exactly as for :class:`Router`.
    """

    kind = "adaptive"

    def __init__(
        self,
        model: PerformanceModel | None = None,
        *,
        model_path=None,
        epsilon: float = 0.1,
        min_samples: int = 2,
        autosave_every: int = 0,
        rules: tuple = (),
    ):
        super().__init__(rules=rules)
        if not 0.0 <= epsilon <= 1.0:
            raise ValueError(f"epsilon must be in [0, 1], got {epsilon}")
        self.epsilon = float(epsilon)
        self.model_path = model_path
        self.autosave_every = int(autosave_every)
        self.load_note: str | None = None
        if model is None:
            model, self.load_note = PerformanceModel.load_or_new(
                model_path, min_samples=min_samples
            )
        self.model = model
        self._lock = threading.Lock()
        self._picks: dict = {}  # cell -> selections made
        self._observed = 0

    # ---- selection ---------------------------------------------------
    def select(self, request, candidates: list):
        """Pick a backend; refine unset request knobs from the model."""
        cell = cell_key_for(request)
        by_name = {b.name: b for b in candidates}
        names = tuple(b.name for b in candidates)
        rtol_ok = _rtol_permits(request)

        def admissible(route: dict) -> bool:
            return self._admissible(route, request, by_name, rtol_ok)

        best = self.model.best(cell, admissible=admissible)
        explore = self._tick_explore(cell)
        if explore:
            routes = self._candidate_routes(request, candidates)
            route = self.model.least_sampled(cell, routes)
            if route is not None:
                return self._apply(
                    request, route, by_name, names, cell,
                    model="hit" if best is not None else "cold",
                    explore=True,
                    reason="epsilon exploration: least-sampled route",
                )
        if best is None:
            chosen = super().select(request, candidates)
            # keep the static decision's reason, annotate the cold cell
            decision = request.decision
            request.decision = RouteDecision(
                router=self.kind,
                chosen=decision.chosen,
                candidates=decision.candidates,
                cell=cell,
                model="cold",
                reason=f"cold cell -> static policy ({decision.reason})",
            )
            return chosen
        route, stats = best
        return self._apply(
            request, route, by_name, names, cell,
            model="hit",
            explore=False,
            reason=(
                f"measured best: {stats.mean_s * 1e3:.3f} ms mean "
                f"over {stats.count} samples"
            ),
        )

    def _tick_explore(self, cell: str) -> bool:
        """Deterministic epsilon schedule: explore when the running
        fraction of exploration picks falls below ``epsilon``."""
        if self.epsilon <= 0.0:
            return False
        with self._lock:
            picks = self._picks.get(cell, 0) + 1
            self._picks[cell] = picks
        # cold cells never explore: the first samples must come from
        # the static route, keeping cold-start behaviour identical
        if self.model.observations(cell) == 0:
            return False
        return math.floor(picks * self.epsilon) > math.floor(
            (picks - 1) * self.epsilon
        )

    def _admissible(
        self, route: dict, request, by_name: dict, rtol_ok: bool
    ) -> bool:
        """May ``route`` serve ``request`` from these candidates?

        ``rtol_ok`` is the request's precomputed hybrid-reuse license
        (hoisted out of the per-route loop).  ``route`` may be the
        model's stored dict — read-only in here.
        """
        backend = by_name.get(route.get("backend"))
        if backend is None:
            return False  # not capability-approved for this request
        caps = backend.capabilities()
        tier = route.get("fingerprint", "auto")
        k = route.get("k", 0) or 0
        if request.fingerprint is not None:
            # caller pinned the tri-state: the route must have been
            # measured under exactly that tier
            if tier != fingerprint_tier(request.fingerprint):
                return False
            if tier == "forced" and not caps.prepared:
                return False
        elif tier == "forced":
            if not caps.prepared:
                return False
            if k != 0 and not rtol_ok:
                return False
        elif tier == "auto+rtol":
            # measured with rtol-licensed hybrid reuse; only a request
            # carrying the same license reproduces that cost
            if k == 0 or not rtol_ok:
                return False
        elif tier == "auto":
            # measured WITHOUT reuse; a licensed request would engage
            # reuse and run a different (cheaper) path — mismatch
            if k != 0 and rtol_ok:
                return False
        elif tier != "off":
            return False  # unknown tier from a foreign model
        ranks = route.get("ranks", 1) or 1
        if ranks > 1 and caps.max_ranks <= 1:
            return False
        # caller-pinned knobs are contracts, not suggestions
        if request.k is not None and route.get("k") != request.k:
            return False
        if request.ranks is not None and ranks != request.ranks:
            return False
        return True

    @staticmethod
    def _rtol_permits(request) -> bool:
        return _rtol_permits(request)

    def _candidate_routes(self, request, candidates: list) -> list:
        """The admissible exploration set for this request."""
        by_name = {b.name: b for b in candidates}
        rtol_ok = _rtol_permits(request)
        return [
            r
            for r in candidate_routes(request, candidates)
            if self._admissible(r, request, by_name, rtol_ok)
        ]

    def _apply(
        self, request, route, by_name, names, cell, *, model, explore, reason
    ):
        """Mutate unset request knobs to ``route`` and stamp provenance."""
        applied = {"backend": route["backend"]}
        if request.k is None and route.get("k") is not None:
            request.k = int(route["k"])
            applied["k"] = request.k
        if request.ranks is None and (route.get("ranks", 1) or 1) > 1:
            request.ranks = int(route["ranks"])
            applied["ranks"] = request.ranks
        if request.fingerprint is None:
            tier = route.get("fingerprint", "auto")
            if tier == "forced":
                request.fingerprint = True
                applied["fingerprint"] = "forced"
            elif tier == "off":
                request.fingerprint = False
                applied["fingerprint"] = "off"
        request.decision = RouteDecision(
            router=self.kind,
            chosen=route["backend"],
            candidates=names,
            cell=cell,
            model=model,
            explore=explore,
            route=applied,
            reason=reason,
        )
        return by_name[route["backend"]]

    # ---- feedback ----------------------------------------------------
    def observe(self, request, trace) -> None:
        """Fold a completed dispatch into the model (solve_via hook)."""
        if trace is None or not trace.stages:
            return
        self.model.observe_trace(request, trace)
        if self.autosave_every > 0 and self.model_path is not None:
            with self._lock:
                self._observed += 1
                due = self._observed % self.autosave_every == 0
            if due:
                try:
                    self.model.save(self.model_path)
                except OSError:
                    pass  # persistence is best-effort, never fails a solve

    # ---- lifecycle ---------------------------------------------------
    def save(self) -> str | None:
        """Persist the model to ``model_path`` (no-op without one)."""
        if self.model_path is None:
            return None
        return self.model.save(self.model_path)

    def reset(self) -> None:
        """Forget all measurements (and the per-cell pick counters)."""
        self.model = PerformanceModel(min_samples=self.model.min_samples)
        with self._lock:
            self._picks.clear()
            self._observed = 0


def enable_adaptive_routing(
    model_path=None,
    *,
    epsilon: float = 0.1,
    registry=None,
    engine=None,
    **kwargs,
) -> AdaptiveRouter:
    """Install an :class:`AdaptiveRouter` on a registry (default: the
    process-wide one) and return it.

    ``engine=`` is a convenience: an
    :class:`~repro.engine.engine.ExecutionEngine` with a ``cache_dir``
    contributes its :attr:`~repro.engine.engine.ExecutionEngine.
    router_model_path`, so the calibration file lives next to the
    factorization disk cache.
    """
    from repro.backends.registry import default_registry

    if registry is None:
        registry = default_registry()
    if model_path is None and engine is not None:
        model_path = engine.router_model_path
    router = AdaptiveRouter(model_path=model_path, epsilon=epsilon, **kwargs)
    registry.router = router
    return router


def disable_adaptive_routing(registry=None) -> Router:
    """Restore the static Table-III-style router (returns it)."""
    from repro.backends.registry import default_registry

    if registry is None:
        registry = default_registry()
    router = Router()
    registry.router = router
    return router
