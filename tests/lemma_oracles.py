"""The matrix identities of the paper's proofs, which no run executes.

The cyclic shift A of an n-ring satisfies sum_{r<n} A^r = 1 1^T and A^n = I,
and Lemma 1 bounds tr(cov(sum_i C^i r^i)) by sum_i ||C^i||_F^2 sigma_M^i.
Acceptance 8 and `test_analysis.TestOracles` check both here, and
`shift_matrix` gives the matrix-form replays of the engine their A.
"""
from __future__ import annotations

import math

import numpy as np


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
