"""Closed-form utility/variance bounds, differential-privacy accounting, and
the empirical differential-privacy audit.

Privacy accounting is kept in log space throughout: geometric schedules have
per-step budgets growing like phi**(-k), which overflow float64 long before
the K values the composition identity is checked at.

The empirical DP audit is a view over the engine's kernel: it samples the
masked messages through `engine.simulate`, a slice of trials at a time, into
node-major rows, each round writing its messages straight into the traces,
and runs its K * n per-coordinate reductions on the noise threads. Each
reduction sorts its two rows of the traces in place and reads the pooled
quartiles and the bin counts from the sorted rows, so the audit holds no
copy of a sample beside the two traces.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .model import (
    ConfigError,
    Distribution,
    Family,
    ProtocolConfig,
    RingSumError,
    check_ring,
)
from .engine import simulate
from .noise import run_tasks


class MixedFamilyError(RingSumError, ValueError):
    """Aggregates requested over schedules of different families."""


class UnsupportedDistributionError(RingSumError, ValueError):
    """Privacy guarantee requested for a distribution it is not proven for."""


class InsufficientSamplesError(RingSumError, RuntimeError):
    """Density-ratio audit had no histogram bin with enough mass on both sides."""


class NonFiniteTraceError(RingSumError, ArithmeticError):
    """Density-ratio audit sampled messages whose range is not finite."""


# -- schedule aggregates ----------------------------------------------------


@dataclass(frozen=True)
class ScheduleAggregates:
    family: Family
    c_M: float
    c_m: float
    d_M: float | None = None
    phi_m: float | None = None
    pairs: tuple[tuple[float, float], ...] = ()  # (c_i, phi_i), geometric only
    start_shifted: bool = False  # some member draws its k = 0 noise at d = 1

    @classmethod
    def from_schedules(cls, schedules) -> "ScheduleAggregates":
        schedules = list(schedules)
        if not schedules:
            raise MixedFamilyError("no schedules given")
        families = {s.family for s in schedules}
        if len(families) != 1:
            raise MixedFamilyError(f"mixed schedule families: {families}")
        family = schedules[0].family
        cs = [s.c for s in schedules]
        if family is Family.HARMONIC:
            return cls(family, max(cs), min(cs), d_M=max(s.d for s in schedules),
                       start_shifted=any(s.start_shifted for s in schedules))
        return cls(family, max(cs), min(cs), phi_m=min(s.phi for s in schedules),
                   pairs=tuple((s.c, s.phi) for s in schedules))


def utility_bound(agg: ScheduleAggregates, n: int) -> float:
    """Asymptotic bound on E sum_i |y_i(k) - sum_j s_j|."""
    check_ring(n)
    if agg.family is Family.HARMONIC:
        return agg.c_M * math.pi * n * math.sqrt(n / 6.0)
    return max(c * n * math.sqrt(n / (1.0 - phi**2)) for c, phi in agg.pairs)


def variance_bound(agg: ScheduleAggregates, n: int) -> float:
    """Asymptotic bound on sum_i var(y_i(k)); inf where c**2 overflows."""
    check_ring(n)
    try:
        if agg.family is Family.HARMONIC:
            return agg.c_M**2 * math.pi**2 * n**2 / 3.0
        return max(2.0 * n**2 * c**2 / (1.0 - phi**2) for c, phi in agg.pairs)
    except OverflowError:  # a float's ** raises where its * gives inf
        return math.inf


# -- privacy budget ----------------------------------------------------------


@dataclass(frozen=True)
class PrivacyBudget:
    """The composed budget eps_0 + ... + eps_{K-1}, in closed form.

    `log_total` carries it where `total` overflows. A member with harmonic
    d = 0 draws at d = 1 at k = 0, so `total_start_shifted` takes
    delta * max(d_M, 1) / c_m for the k = 0 term, a bound for every member.
    """

    total: float
    log_total: float
    total_start_shifted: float | None


def epsilon_total(
    agg: ScheduleAggregates, delta: float, K: int, distribution: Distribution
) -> PrivacyBudget:
    """Theorem-level (epsilon, delta, K) budget for K-step execution.

    Only Laplace noise carries the guarantee; anything else is refused rather
    than silently extrapolated.
    """
    if distribution is not Distribution.LAPLACE:
        raise UnsupportedDistributionError(
            f"the differential-privacy guarantee is proven for Laplace noise only, "
            f"got {distribution.value}"
        )
    if not (math.isfinite(delta) and delta >= 0):
        raise ConfigError(f"adjacency radius must be finite and >= 0, got {delta}")
    if K < 1:
        raise ConfigError(f"step count K must be >= 1, got {K}")
    if delta == 0 or agg.c_m == 0:
        # Nothing to hide, or no noise to hide it: every step costs 0, or inf.
        total = 0.0 if delta == 0 else math.inf
        log_total = math.log(total) if total else -math.inf
        shifted = total if agg.start_shifted else None
        return PrivacyBudget(total, log_total, shifted)

    # Where a quotient or product leaves the doubles, its log is a sum of logs.
    base = delta / agg.c_m
    log_base = math.log(base) if 0 < base < math.inf else math.log(delta) - math.log(agg.c_m)
    if agg.family is Family.HARMONIC:
        half_span = (K - 1) / 2.0 + agg.d_M
        total = base * K * half_span
        arg = K * half_span
        log_total = log_base + (math.log(arg) if 0 < arg < math.inf else
                                math.log(K) + math.log(half_span) if arg else -math.inf)
    else:
        phi = agg.phi_m
        log_total = (
            log_base
            + math.log1p(-(phi**K))
            - (K - 1) * math.log(phi)
            - math.log1p(-phi)
        )
        with np.errstate(over="ignore"):
            total = float(np.exp(log_total))
    shifted = total + delta * (max(agg.d_M, 1.0) - agg.d_M) / agg.c_m if agg.start_shifted else None
    return PrivacyBudget(total, log_total, shifted)


# -- empirical DP audit -------------------------------------------------------


@dataclass
class AuditResult:
    observed: float            # sum over steps of the per-step observed max log ratio
    epsilon: float             # closed-form budget for the audited K (start-shifted if applied)
    noise_floor: float         # rough scale of pure estimation noise in `observed`
    bins_used: int
    bins_skipped: int


# Trials per `simulate` call of the audit. Each round then draws one noise
# call of 2^17 * n values, enough to keep the noise source's threads busy,
# while the reused states buffer stays at (K + 1) * 2^17 * n values (16 MiB
# at K = 3, n = 4) instead of growing with the samples. Sampling the second
# trace sets the audit's peak, so this buffer is most of what the audit holds
# beyond the two traces; each draw depends only on its (node, step, trial),
# so the slice moves no bit. The buffer is (K + 1, n, slice), viewed as
# (K + 1, slice, n): the node-major rows make the kernel's subtractions into
# the node-major traces and its adds run over 2^17 contiguous trials instead
# of n - 1 neighbouring nodes.
AUDIT_SLICE = 1 << 17


def _sample_traces(config: ProtocolConfig, K: int, samples: int, trial_offset: int) -> np.ndarray:
    """Adversary-observable messages d_i(k) of trials trial_offset onwards
    over the first K rounds of `config`, shape (K, n, samples)."""
    config = replace(config, steps=K)
    n = len(config.secrets)
    out = np.empty((K, n, samples))
    states = np.empty((K + 1, n, min(samples, AUDIT_SLICE))).swapaxes(1, 2)  # node-major
    for lo in range(0, samples, AUDIT_SLICE):
        hi = min(lo + AUDIT_SLICE, samples)
        # Each round subtracts its messages straight into their trace rows.
        simulate(config, hi - lo, [states[:, : hi - lo]], trial_offset + lo,
                 record=lambda k, _senders: out[k, :, lo:hi].T)
    return out


def _pooled_pair(a: np.ndarray, b: np.ndarray, i: int) -> tuple[float, float]:
    """Order statistics i and i + 1 (from 0) of the sorted samples a and b
    pooled, as sorting the pool would give them."""
    # The i + 1 smallest are the first j of a and the first i + 1 - j of b
    # for the largest j at which a's last taken value is not above the first
    # value of b left over.
    lo, hi = max(0, i + 1 - b.size), min(i + 1, a.size)
    while lo < hi:
        j = (lo + hi + 1) // 2
        if a[j - 1] > b[i + 1 - j]:
            hi = j - 1
        else:
            lo = j
    j, m = lo, i + 1 - lo
    return (max(a[j - 1 : j].tolist() + b[m - 1 : m].tolist()),
            min(a[j : j + 1].tolist() + b[m : m + 1].tolist()))


def _coordinate_log_ratio(a: np.ndarray, b: np.ndarray, min_bin_count: int):
    """Max |log density ratio| between two sorted samples, histogram-estimated."""
    # The ends are the extremes (NaN sorts last, and fmin passes over it).
    lo, hi = float(np.fmin(a[0], b[0])), float(np.maximum(a[-1], b[-1]))
    if not math.isfinite(hi - lo):
        raise NonFiniteTraceError(f"audit traces span [{lo}, {hi}], not a finite range")
    size = a.size + b.size

    def percentile(q):
        # numpy's linear rule on the two order statistics of the pool around
        # the virtual index v: the same operands and the same fraction of a
        # quarter, so the same bits as over the whole pool.
        v = (size - 1) * q / 100
        i = int(v)
        return np.percentile(_pooled_pair(a, b, i), 100 * (v - i))

    q75, q25 = percentile(75), percentile(25)
    iqr = q75 - q25
    if iqr <= 0 or hi <= lo:
        return 0.0, 0.0, 0, 1
    width = 2.0 * iqr * size ** (-1.0 / 3.0)  # Freedman-Diaconis
    nbins = int(np.clip(math.ceil((hi - lo) / width), 1, 2000))
    edges = np.linspace(lo, hi, nbins + 1)

    def counts(x):
        # np.histogram's rule for explicit edges: each bin holds its left
        # edge, the last bin its right edge too.
        return np.diff(np.concatenate([x.searchsorted(edges[:-1]),
                                       x.searchsorted(edges[-1:], "right")]))

    ca, cb = counts(a), counts(b)
    mask = (ca >= min_bin_count) & (cb >= min_bin_count)
    used = int(mask.sum())
    if used == 0:
        return 0.0, 0.0, 0, nbins
    log_ratio = np.log(ca[mask] / len(a)) - np.log(cb[mask] / len(b))
    i = int(np.argmax(np.abs(log_ratio)))
    stderr = math.sqrt(1.0 / ca[mask][i] + 1.0 / cb[mask][i])
    return float(np.abs(log_ratio[i])), stderr, used, nbins - used


def dp_audit(config: ProtocolConfig, delta: float, K: int, samples: int) -> AuditResult:
    """Estimate the worst observable log-likelihood ratio between traces of
    `config`'s secrets and of the same secrets with delta added to the first.

    Per-coordinate histograms (marginals of the K-step trace) are compared
    and per-step maxima summed, mirroring the sequential composition the
    closed-form budget uses. Only small instances are tractable: density
    estimation needs n <= 4 and K <= 3.
    """
    n = len(config.secrets)
    if config.distribution is not Distribution.LAPLACE:
        raise UnsupportedDistributionError("the audit targets the Laplace guarantee")
    if n > 4 or K > 3:
        raise ConfigError("density-ratio audit is limited to n <= 4, K <= 3")
    if config.events:
        raise ConfigError("audit runs on event-free configurations")
    agg = ScheduleAggregates.from_schedules(config.schedules)
    budget = epsilon_total(agg, delta, K, config.distribution)  # checks delta and K
    min_bin_count = max(500, samples // 400)
    if samples < min_bin_count:
        # No bin can then hold min_bin_count samples of each side.
        raise ConfigError(f"audit needs samples >= {min_bin_count}, got {samples}")
    if agg.c_m == 0:
        # Without noise the budget is infinite and no observation could fail it.
        raise ConfigError(f"audit needs noise on every node, got c = {agg.c_m}")

    adjacent = replace(config, secrets=(config.secrets[0] + delta, *config.secrets[1:]))
    tr_a = _sample_traces(config, K, samples, 0)
    tr_b = _sample_traces(adjacent, K, samples, samples)

    def reduce(ki, _):
        # One coordinate per task, sorted in place: nothing reads the traces
        # after their coordinate is reduced.
        a, b = tr_a[ki], tr_b[ki]
        a.sort()
        b.sort()
        return _coordinate_log_ratio(a, b, min_bin_count)

    ratios = run_tasks(reduce, list(np.ndindex(K, n)))
    per_step, floors = [], []
    bins_used, bins_skipped = (sum(r[j] for r in ratios) for j in (2, 3))
    for k in range(K):
        best, best_floor = 0.0, 0.0
        for obs, se, _, _ in ratios[k * n : (k + 1) * n]:
            if obs > best:
                best, best_floor = obs, se
        per_step.append(best)
        floors.append(best_floor)
    if bins_used == 0:
        raise InsufficientSamplesError(
            f"no histogram bin reached {min_bin_count} samples on both sides"
        )
    # The traces were sampled with the k = 0 start shift, so they must meet
    # the budget that includes it.
    epsilon = budget.total if budget.total_start_shifted is None else budget.total_start_shifted
    # Multiple-testing inflation over the qualifying bins, on top of the
    # per-bin standard errors at the argmax.
    z = math.sqrt(2.0 * math.log(max(bins_used, 2)))
    return AuditResult(
        observed=math.fsum(per_step),
        epsilon=epsilon,
        noise_floor=z * math.fsum(floors),
        bins_used=bins_used,
        bins_skipped=bins_skipped,
    )
