"""Small-request traffic shapes for the service tier.

Real solver traffic (per-frame physics lines, ADI sweeps split across
request handlers, ensemble members stepping one matrix) arrives as
*many small compatible batches*, not one large one.  These generators
produce that shape deterministically, for the service benchmark, the
``serve-stats`` CLI burst, and tests:

* :func:`small_request_traffic` — independent diagonally dominant
  fragments, one tuple per request, round-robin across ``tenants``;
* :func:`shared_matrix_traffic` — one coefficient set, many right-hand
  sides (the prepared/fingerprint shape: a time-stepping ensemble).
"""

from __future__ import annotations

import numpy as np

from repro.workloads.generators import random_batch

__all__ = ["shared_matrix_traffic", "small_request_traffic"]


def small_request_traffic(
    requests: int,
    m: int,
    n: int,
    *,
    tenants: int = 1,
    dtype=np.float64,
    seed: int = 0,
):
    """``requests`` independent ``(M, N)`` fragments with tenant labels.

    Returns a list of ``(tenant, (a, b, c, d))`` tuples — every
    fragment diagonally dominant, all sharing one ``(m, n, dtype)``
    signature so a coalescing service can group them.  Tenants are
    assigned round-robin (``"tenant-0" ... "tenant-{tenants-1}"``).
    """
    if requests < 1:
        raise ValueError(f"requests must be >= 1, got {requests}")
    if tenants < 1:
        raise ValueError(f"tenants must be >= 1, got {tenants}")
    out = []
    for i in range(requests):
        batch = random_batch(m, n, dtype=dtype, seed=seed + i)
        out.append((f"tenant-{i % tenants}", batch))
    return out


def shared_matrix_traffic(
    requests: int,
    m: int,
    n: int,
    *,
    tenants: int = 1,
    dtype=np.float64,
    seed: int = 0,
):
    """One coefficient set, ``requests`` fresh right-hand sides.

    The fingerprint-friendly shape: every request solves the *same*
    matrix (the same ``a, b, c`` arrays, so their digests and cache
    keys collide as intended) against its own RHS.  Sharing the objects
    is what the service's digest path keys on: a window digests each
    distinct coefficient triple once, on its dispatch thread, so a
    window of these requests hashes the matrix once, not once per
    request.  Returns ``(a, b, c)`` plus a list of ``(tenant, d)``
    pairs.
    """
    if requests < 1:
        raise ValueError(f"requests must be >= 1, got {requests}")
    if tenants < 1:
        raise ValueError(f"tenants must be >= 1, got {tenants}")
    a, b, c, _ = random_batch(m, n, dtype=dtype, seed=seed)
    rng = np.random.default_rng(seed + 1)
    ds = [
        (f"tenant-{i % tenants}", rng.standard_normal((m, n)).astype(dtype))
        for i in range(requests)
    ]
    return (a, b, c), ds
