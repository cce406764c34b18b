"""Thread-queue adapter: the service for synchronous callers.

:class:`SyncSolveClient` owns a private event loop on a daemon thread
and forwards blocking ``solve`` calls (or pipelined ``submit`` futures)
into a :class:`~repro.service.service.SolveService` running there.
Many caller threads sharing one client coalesce with each other exactly
like asyncio tasks do — the service cannot tell the difference::

    with SyncSolveClient() as client:
        x = client.solve(a, b, c, d)             # blocking
        futs = [client.submit(a, b, c, di) for di in ds]
        xs = [f.result() for f in futs]          # pipelined

``close()`` drains open windows, stops the loop, and joins the thread;
the context manager does it on exit.
"""

from __future__ import annotations

import asyncio
import threading
from concurrent.futures import Future

from repro.service.service import ServiceConfig, SolveService

__all__ = ["SyncSolveClient"]


class SyncSolveClient:
    """Blocking facade over a background-loop :class:`SolveService`.

    Parameters mirror :class:`~repro.service.service.SolveService`;
    alternatively pass a prebuilt ``service`` (not yet bound to a
    loop).  ``timeout`` is the default per-call bound for :meth:`solve`
    (``None`` = wait forever).
    """

    def __init__(
        self,
        config: ServiceConfig | None = None,
        *,
        registry=None,
        engine=None,
        service: SolveService | None = None,
        timeout: float | None = None,
    ):
        self.service = (
            service
            if service is not None
            else SolveService(config, registry=registry, engine=engine)
        )
        self.timeout = timeout
        self._loop = asyncio.new_event_loop()
        self._started = threading.Event()
        self._thread = threading.Thread(
            target=self._run, name="repro-service-loop", daemon=True
        )
        self._thread.start()
        self._started.wait()
        self._closed = False

    def _run(self) -> None:
        asyncio.set_event_loop(self._loop)
        self._loop.call_soon(self._started.set)
        self._loop.run_forever()

    # ---- calls --------------------------------------------------------
    def submit(self, a, b, c, d, **opts) -> Future:
        """Enqueue one fragment; returns a ``concurrent.futures.Future``.

        Keywords mirror :meth:`SolveService.submit
        <repro.service.service.SolveService.submit>` (``tenant=``,
        ``periodic=``, solver options...).  Admission errors
        (:class:`~repro.service.service.ServiceOverloaded`, shape
        errors) and content errors (a non-finite value, a zero pivot)
        surface when the future is resolved.
        """
        if self._closed:
            raise RuntimeError("client is closed")
        return asyncio.run_coroutine_threadsafe(
            self.service.submit(a, b, c, d, **opts), self._loop
        )

    def solve(self, a, b, c, d, *, timeout: float | None = None, **opts):
        """Blocking solve through the coalescing window."""
        return self.submit(a, b, c, d, **opts).result(
            timeout if timeout is not None else self.timeout
        )

    # ---- observability -----------------------------------------------
    def last_trace(self, tenant: str = "default"):
        """Forwarded :meth:`SolveService.last_trace`."""
        return self.service.last_trace(tenant)

    def describe(self) -> dict:
        """Forwarded :meth:`SolveService.describe`."""
        return self.service.describe()

    @property
    def stats(self):
        """The underlying :class:`~repro.service.stats.ServiceStats`."""
        return self.service.stats

    # ---- lifecycle ----------------------------------------------------
    def close(self, timeout: float | None = 30.0) -> None:
        """Drain the service, stop the loop, join the thread."""
        if self._closed:
            return
        self._closed = True
        try:
            asyncio.run_coroutine_threadsafe(
                self.service.close(), self._loop
            ).result(timeout)
        finally:
            self._loop.call_soon_threadsafe(self._loop.stop)
            self._thread.join(timeout)
            if not self._thread.is_alive():
                self._loop.close()

    def __enter__(self) -> "SyncSolveClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
