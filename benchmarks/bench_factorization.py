"""Extension — factorization reuse amortization.

Time-stepping applications solve the same matrix every step.  This
benchmark measures factor-once/solve-many against solve-from-scratch
and records the break-even point (solves needed to amortize the
factorization) plus the multi-RHS path.
"""

import numpy as np

from repro.core.factorize import HybridFactorization
from repro.core.thomas import thomas_solve_batch

from .conftest import make_batch, verify


def test_thomas_factor_cost(benchmark):
    a, b, c, d = make_batch(64, 1024, seed=1)
    fact = benchmark(HybridFactorization.factor, a, b, c, k=0)
    x = fact.solve(d)
    verify(a, b, c, d, x)
    benchmark.extra_info.update({"suite": "factorization", "phase": "factor"})


def test_thomas_factored_solve_cost(benchmark):
    a, b, c, d = make_batch(64, 1024, seed=1)
    fact = HybridFactorization.factor(a, b, c, k=0)
    x = benchmark(fact.solve, d)
    verify(a, b, c, d, x)
    benchmark.extra_info.update({"suite": "factorization", "phase": "solve"})


def test_thomas_scratch_solve_cost(benchmark):
    a, b, c, d = make_batch(64, 1024, seed=1)
    x = benchmark(thomas_solve_batch, a, b, c, d)
    verify(a, b, c, d, x)
    benchmark.extra_info.update({"suite": "factorization", "phase": "from-scratch"})


def test_multi_rhs_amortization(benchmark):
    """One factored solve with 8 stacked RHS vs 8 separate solves."""
    m, n, r = 32, 512, 8
    a, b, c, _ = make_batch(m, n, seed=2)
    rng = np.random.default_rng(0)
    D = rng.standard_normal((m, n, r))
    fact = HybridFactorization.factor(a, b, c, k=0)

    X = benchmark(fact.solve, D)
    assert X.shape == (m, n, r)
    for j in range(r):
        verify(a, b, c, D[:, :, j], X[:, :, j])
    benchmark.extra_info.update({"suite": "factorization", "phase": "multi-rhs x8"})


def test_hybrid_factor_reuse(benchmark):
    """Hybrid path: the stored-PCR-level solve, timed."""
    m, n, k = 16, 4096, 4
    a, b, c, d = make_batch(m, n, seed=3)
    fact = HybridFactorization.factor(a, b, c, k=k)
    x = benchmark(fact.solve, d)
    verify(a, b, c, d, x)
    benchmark.extra_info.update(
        {"suite": "factorization", "phase": f"hybrid k={k} solve"}
    )
