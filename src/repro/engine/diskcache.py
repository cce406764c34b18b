"""Spill-to-disk tier for the engine's factorization cache.

The in-memory factorization cache (:class:`ExecutionEngine
<repro.engine.engine.ExecutionEngine>`, ``max_factorizations``) is
deliberately small — stored eliminations are workspace-sized and the
LRU keeps the hot set resident.  Long-running simulations rotate
through more coefficient sets than that (multi-region time steppers,
parameter sweeps), and every eviction costs a full re-elimination on
the next sighting.

This module adds a second, capacity-bounded tier: factorizations spill
to digest-named ``.npz`` files under a configurable cache directory,
and a memory miss consults the directory before re-factoring.  The
files are written atomically (temp file + ``os.replace``) so
concurrent engines — or separate processes — can share one directory;
the stored arrays are the exact elimination state, so a disk-served
solve reproduces the same bits a memory-served one would.

Enable it per engine::

    engine = ExecutionEngine(cache_dir="/tmp/repro-cache")

Eviction is size-capped (``max_bytes``): after each spill, the oldest
files (by modification time) are removed until the directory fits.
"""

from __future__ import annotations

import os
import tempfile
import threading
import time
import zipfile

import numpy as np

from repro.engine.prepared import factorization_arrays, factorization_from_arrays

__all__ = ["FactorizationDiskCache"]

#: default on-disk budget: enough for dozens of factored PDE-sized
#: batches while staying a rounding error on any modern disk
DEFAULT_MAX_BYTES = 256 * 1024 * 1024

_SUFFIX = ".npz"

#: what ``np.load`` + rebuild raise on a torn, truncated, byte-damaged
#: or stale ``.npz`` (a bad CRC or zip header surfaces as any of these)
_UNREADABLE = (
    OSError,
    EOFError,
    KeyError,
    ValueError,
    NotImplementedError,
    zipfile.BadZipFile,
)


def _key_filename(key: tuple) -> str:
    """Digest-named, human-skim-friendly filename for a cache key.

    ``key`` is the engine's factorization key ``(m, n, dtype_str, k,
    system, periodic, digest)``.  The content digest leads (it is the
    unique part); the shape/plan coordinates follow for debuggability.
    Tridiagonal entries (system tag ``""``) keep the historical
    filename layout byte-for-byte; banded entries append their tag so
    stencils can never alias on disk either.
    """
    m, n, dtype_str, k, system, periodic, digest = key
    dtype = np.dtype(dtype_str).name
    tag = "-cyclic" if periodic else ""
    if system:
        tag = f"-{system}{tag}"
    return f"{digest}-{m}x{n}-{dtype}-k{k}{tag}{_SUFFIX}"


class FactorizationDiskCache:
    """Digest-named ``.npz`` spill tier with a size-capped LRU-by-mtime.

    Parameters
    ----------
    directory:
        Cache directory (created on first use).  Multiple engines — or
        processes — may share one directory; writes are atomic.
    max_bytes:
        Size cap.  After each store, oldest-modified files are evicted
        until the directory's ``.npz`` payload fits.
    """

    def __init__(self, directory, max_bytes: int = DEFAULT_MAX_BYTES):
        if max_bytes < 1:
            raise ValueError(f"max_bytes must be >= 1, got {max_bytes}")
        self.directory = os.fspath(directory)
        self.max_bytes = max_bytes
        self._lock = threading.Lock()
        # monotonic recency clock (ns): freshened mtimes are forced
        # strictly past the last stamp this cache issued, so recency
        # never ties or goes backwards even on coarse-mtime filesystems
        self._clock_ns = 0
        # hit/store/eviction tallies for instrumentation and tests
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.evictions = 0

    def _freshen(self, path: str) -> None:
        """Stamp ``path`` with a strictly increasing recency mtime."""
        with self._lock:
            ns = max(time.time_ns(), self._clock_ns + 1)
            self._clock_ns = ns
        try:
            os.utime(path, ns=(ns, ns))
        except OSError:
            pass

    # -- inventory ------------------------------------------------------
    def _entries(self) -> list:
        """``(path, mtime_ns, size)`` of every cache file, oldest first.

        Ordered by nanosecond mtime with the path as a deterministic
        tiebreak — on 1-second-resolution filesystems, same-second
        writes must not make eviction order arbitrary.
        """
        try:
            names = os.listdir(self.directory)
        except FileNotFoundError:
            return []
        entries = []
        for name in names:
            if not name.endswith(_SUFFIX):
                continue
            path = os.path.join(self.directory, name)
            try:
                st = os.stat(path)
            except OSError:
                continue
            entries.append((path, st.st_mtime_ns, st.st_size))
        entries.sort(key=lambda e: (e[1], e[0]))
        return entries

    def nbytes(self) -> int:
        """Total bytes currently spilled."""
        return sum(size for _, _, size in self._entries())

    def files(self) -> list:
        """Cache file paths, oldest-modified first."""
        return [path for path, _, _ in self._entries()]

    # -- store / load ---------------------------------------------------
    def store(self, key: tuple, fact) -> str:
        """Spill ``fact`` under ``key``; returns the file path written."""
        payload = factorization_arrays(fact)
        path = os.path.join(self.directory, _key_filename(key))
        with self._lock:
            os.makedirs(self.directory, exist_ok=True)
            fd, tmp = tempfile.mkstemp(
                dir=self.directory, suffix=_SUFFIX + ".tmp"
            )
            try:
                with os.fdopen(fd, "wb") as fh:
                    np.savez(fh, **payload)
                os.replace(tmp, path)
            except BaseException:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
                raise
            self.stores += 1
            ns = max(time.time_ns(), self._clock_ns + 1)
            self._clock_ns = ns
            try:
                os.utime(path, ns=(ns, ns))
            except OSError:
                pass
            self._evict_over_cap(keep=path)
        return path

    def load(self, key: tuple):
        """Rebuild the factorization for ``key``, or ``None`` if absent."""
        path = os.path.join(self.directory, _key_filename(key))
        try:
            with np.load(path, allow_pickle=False) as data:
                fact = factorization_from_arrays(data)
        except FileNotFoundError:
            with self._lock:
                self.misses += 1
            return None
        except _UNREADABLE:
            # torn, truncated, corrupt or stale file: drop it and re-factor
            with self._lock:
                self.misses += 1
            try:
                os.unlink(path)
            except OSError:
                pass
            return None
        # freshen the mtime so eviction tracks recency of *use*, with a
        # monotonic stamp so same-second loads keep a strict order
        self._freshen(path)
        with self._lock:
            self.hits += 1
        return fact

    def clear(self) -> None:
        """Remove every cache file (the directory itself stays)."""
        for path in self.files():
            try:
                os.unlink(path)
            except OSError:
                pass

    def _evict_over_cap(self, keep: str | None = None) -> None:
        """Drop oldest-modified files until the payload fits the cap."""
        entries = self._entries()
        total = sum(size for _, _, size in entries)
        for path, _, size in entries:
            if total <= self.max_bytes:
                break
            if path == keep and len(entries) > 1:
                continue  # evict older siblings before the fresh write
            try:
                os.unlink(path)
            except OSError:
                continue
            total -= size
            self.evictions += 1
