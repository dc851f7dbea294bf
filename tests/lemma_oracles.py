"""The identities of the paper's proofs, which no run executes.

The cyclic shift A of an n-ring satisfies sum_{r<n} A^r = 1 1^T and A^n = I,
and Lemma 1 bounds tr(cov(sum_i C^i r^i)) by sum_i ||C^i||_F^2 sigma_M^i.
Acceptance 8 and `test_analysis.TestOracles` check both here, and
`shift_matrix` gives the matrix-form replays of the engine their A.

Sequential composition sums the per-step budgets eps_k of `log_per_step`;
acceptance 5 and `test_analysis.TestPrivacyBudget` check that the sum equals
`epsilon_total`'s closed form.
"""
from __future__ import annotations

import math

import numpy as np

from ringsum import Family, ScheduleAggregates


def shift_matrix(n: int, dtype=np.float64) -> np.ndarray:
    """The cyclic-shift matrix A with x(k+1) = A x(k) rotating states forward."""
    a = np.zeros((n, n), dtype=dtype)
    for i in range(n):
        a[i, (i - 1) % n] = 1
    return a


def circulant_identities(n: int) -> tuple[bool, bool]:
    """(sum_{r<n} A^r is the all-ones matrix, A^n = I), in integer arithmetic
    so that the check is exact."""
    a = shift_matrix(n, dtype=np.int64)
    power = np.eye(n, dtype=np.int64)
    total = np.zeros((n, n), dtype=np.int64)
    for _ in range(n):
        total += power
        power = a @ power
    return (np.array_equal(total, np.ones((n, n), dtype=np.int64)),
            np.array_equal(power, np.eye(n, dtype=np.int64)))


def lemma1_trace(matrices, variances, samples: int, seed: int) -> tuple[float, float, float]:
    """Monte Carlo (trace, bound, stderr) of Lemma 1, where each r^i has
    independent zero-mean Gaussian components of the given variances; the
    bound holds when trace <= bound + 3 * stderr."""
    n = matrices[0].shape[0]
    assert len(matrices) == len(variances), "need one variance vector per matrix"
    for c, v in zip(matrices, variances):
        assert c.shape == (n, n) and v.shape == (n,), f"expected ({n},{n}) and ({n},)"
    rng = np.random.default_rng(seed)
    y = np.zeros((samples, n))
    for c, v in zip(matrices, variances):
        r = rng.normal(size=(samples, n)) * np.sqrt(v)
        y += r @ c.T
    var_j = y.var(axis=0, ddof=1)
    bound = math.fsum(float((c**2).sum()) * float(v.max()) for c, v in zip(matrices, variances))
    stderr = float(np.sqrt((2.0 * var_j**2 / (samples - 1)).sum()))
    return float(var_j.sum()), bound, stderr


def log_per_step(agg: ScheduleAggregates, delta: float, K: int) -> np.ndarray:
    """log eps_k for k < K: delta (k + d_M) / c_m harmonic, delta / (c_m phi_m^k)
    geometric, in log space, where the terms themselves overflow."""
    if delta == 0 or agg.c_m == 0:
        return np.full(K, -math.inf if delta == 0 else math.inf)
    ks = np.arange(K, dtype=np.float64)
    log_base = math.log(delta) - math.log(agg.c_m)
    if agg.family is Family.HARMONIC:
        with np.errstate(divide="ignore"):
            return log_base + np.log(ks + agg.d_M)
    return log_base - ks * math.log(agg.phi_m)


def per_step(agg: ScheduleAggregates, delta: float, K: int) -> np.ndarray:
    with np.errstate(over="ignore"):
        return np.exp(log_per_step(agg, delta, K))


def log_composed_total(agg: ScheduleAggregates, delta: float, K: int) -> float:
    """log of sum_k eps_k, summed with compensated accumulation."""
    logs = log_per_step(agg, delta, K)
    m = float(np.max(logs))
    if m == -math.inf:
        return -math.inf
    return m + math.log(math.fsum(np.exp(logs - m)))


def composed_total(agg: ScheduleAggregates, delta: float, K: int) -> float:
    with np.errstate(over="ignore"):
        return float(np.exp(log_composed_total(agg, delta, K)))
