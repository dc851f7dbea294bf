"""Weighted utility/accuracy/privacy tradeoff over the noise parameters.

Both families minimise gamma_u U + gamma_a V + gamma_p epsilon, whose terms
scale as c, c^2 and 1/c, so at a fixed harmonic d = 0 or geometric phi the
objective is stationary at the positive root of a cubic a c^3 + b c^2 - e. For
the harmonic family that root is the unique optimum (on the homogeneous line
c_1 = ... = c_n); the geometric one searches phi on its logit for the best.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from . import analysis
from .model import ConfigError, Distribution, Family, RingSumError, check_ring


class DegenerateTradeoffError(RingSumError, ValueError):
    """K < 2 leaves no optimum with c > 0 and phi in (0, 1)."""


@dataclass(frozen=True)
class TradeoffProblem:
    gamma_u: float
    gamma_a: float
    gamma_p: float
    n: int
    delta: float
    K: int

    def __post_init__(self):
        balancers = (self.gamma_u, self.gamma_a, self.gamma_p)
        if not all(0 < g < math.inf for g in balancers):
            raise ConfigError(f"importance balancers must be finite and > 0, got {balancers}")
        check_ring(self.n)
        if not 0 < self.delta < math.inf:
            raise ConfigError(f"adjacency radius must be finite and > 0, got {self.delta}")
        if self.K < 2:  # the harmonic privacy term vanishes; the geometric one is least at phi -> 0
            raise DegenerateTradeoffError(f"the tradeoff needs K >= 2 to have an optimum, got {self.K}")


@dataclass(frozen=True)
class TradeoffSolution:
    c_star: float
    d_star: float       # always 0: the offset enters the objective linearly
    objective_value: float
    residual: float     # |g(c_star)|
    kkt_multiplier: float
    kkt_residual: float


@dataclass(frozen=True)
class GeometricSolution:
    c_star: float
    phi_star: float
    objective_value: float


def _cubic(a: float, b: float, e: float, c: float) -> float:
    # Coefficients multiply first, so no power of c overflows or underflows alone.
    return a * c * c * c + b * c * c - e


def _bracket(a: float, b: float, e: float) -> tuple[float, float]:
    """(lo, hi) with g(lo) < 0 < g(hi): at t/2 each term of g + e is at most
    e/4, at 2t one alone is at least 4e. Logs keep every quotient finite."""
    t = math.exp(min((math.log(e) - math.log(a)) / 3.0, (math.log(e) - math.log(b)) / 2.0))
    return 0.5 * t, 2.0 * t


def _positive_root(a: float, b: float, e: float) -> float:
    """The positive root of g(c) = a c^3 + b c^2 - e, increasing on c > 0."""
    if not all(sys.float_info.min <= x < math.inf for x in (a, b, e)):
        raise ConfigError(f"the tradeoff cubic's coefficients {(a, b, e)} are not normal positive doubles")
    lo, hi = _bracket(a, b, e)
    # A root near the subnormal range has too few bits to reach the relative
    # width, so bisection also stops at two adjacent doubles.
    while (c := 0.5 * (lo + hi)) not in (lo, hi) and hi - lo > 1e-15 * hi:
        lo, hi = (c, hi) if _cubic(a, b, e, c) < 0.0 else (lo, c)
    for _ in range(3):  # Newton polish; g' > 0 everywhere on (0, inf)
        c -= _cubic(a, b, e, c) / (3.0 * a * c * c + 2.0 * b * c)
    if not math.isfinite(c):
        raise ConfigError(f"the tradeoff cubic with coefficients {(a, b, e)} has no resolvable root")
    return c


def _coefficients(p: TradeoffProblem) -> tuple[float, float, float]:
    """(a, b, e) of the harmonic cubic g(theta) = a theta^3 + b theta^2 - e."""
    return (4.0 * p.gamma_a * math.pi**2 * p.n**2,
            math.sqrt(6.0) * p.gamma_u * math.pi * p.n**1.5,
            3.0 * p.gamma_p * p.delta * p.K * (p.K - 1))


def objective_harmonic(p: TradeoffProblem, c: float, d: float) -> float:
    """Scalarized objective on the homogeneous line c_M = c_m = c."""
    # c * c overflows past c = 1.3e154, where gamma_a * c * c may not.
    square = c * c
    accuracy = p.gamma_a * square if math.isfinite(square) else p.gamma_a * c * c
    return (
        p.gamma_u * c * math.pi * p.n * math.sqrt(p.n / 6.0)
        + accuracy * math.pi**2 * p.n**2 / 3.0
        + p.gamma_p * p.delta * p.K * ((p.K - 1) / 2.0 + d) / c
    )


def solve_harmonic(p: TradeoffProblem) -> TradeoffSolution:
    """Unique positive root of the cubic, with stationarity verified."""
    coefficients = _coefficients(p)
    c = _positive_root(*coefficients)

    # Stationarity of the two-variable form at the diagonal point (c, c):
    # the gradient components must agree up to sign with one multiplier.
    mu = (
        2.0 * p.gamma_a * math.pi**2 * p.n**2 * c / 3.0
        + p.gamma_u * math.pi * p.n * math.sqrt(p.n / 6.0)
    )
    privacy_grad = p.gamma_p * p.delta * p.K * (p.K - 1) / (2.0 * c) / c
    kkt_residual = abs(mu - privacy_grad) / max(1.0, abs(mu))
    return TradeoffSolution(
        c_star=c,
        d_star=0.0,
        objective_value=objective_harmonic(p, c, 0.0),
        residual=abs(_cubic(*coefficients, c)),
        kkt_multiplier=mu,
        kkt_residual=kkt_residual,
    )


# -- geometric family ---------------------------------------------------------

# Logit phi from -36 to 36 in steps of 1/2: phi from about 2e-16 to 1 - 2e-16.
_LOGIT_GRID = [0.5 * i for i in range(-72, 73)]
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def _geometric_terms(p: TradeoffProblem, phi: float) -> tuple[float, float, float]:
    """The paper's U, V and epsilon for one geometric schedule at c = 1; they
    scale as c, c^2 and 1/c. epsilon is summed in log space, so it is finite
    or inf near phi = 0 and phi = 1, where the direct quotient divides by 0."""
    agg = analysis.ScheduleAggregates(Family.GEOMETRIC, 1.0, 1.0, phi_m=phi, pairs=((1.0, phi),))
    return (analysis.utility_bound(agg, p.n), analysis.variance_bound(agg, p.n),
            analysis.epsilon_total(agg, p.delta, p.K, Distribution.LAPLACE).total)


def objective_geometric(p: TradeoffProblem, c: float, phi: float) -> float:
    """Loosened scalarized objective for exponentially decaying scales."""
    u, v, eps = _geometric_terms(p, phi)
    return p.gamma_u * c * u + p.gamma_a * v * c * c + p.gamma_p * eps / c


def solve_geometric(p: TradeoffProblem) -> GeometricSolution:
    """The (c, phi) that minimise `objective_geometric`. A phi whose cubic
    has a coefficient past the doubles counts as an infinite objective."""

    def profile(x: float) -> tuple[float, float, float]:
        phi = 1.0 / (1.0 + math.exp(-x))
        u, v, eps = _geometric_terms(p, phi)
        coefficients = (2.0 * p.gamma_a * v, p.gamma_u * u, p.gamma_p * eps)
        if not all(map(math.isfinite, coefficients)):
            return math.inf, phi, math.nan
        c = _positive_root(*coefficients)
        return objective_geometric(p, c, phi), phi, c

    grid = [profile(x) for x in _LOGIT_GRID]
    i = grid.index(min(grid))
    lo, hi = _LOGIT_GRID[max(i - 1, 0)], _LOGIT_GRID[min(i + 1, len(grid) - 1)]
    x1, x2 = hi - _GOLDEN * (hi - lo), lo + _GOLDEN * (hi - lo)
    f1, f2 = profile(x1), profile(x2)
    for _ in range(60):  # the bracket shrinks to about 1e-13
        if f1 < f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - _GOLDEN * (hi - lo)
            f1 = profile(x1)
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + _GOLDEN * (hi - lo)
            f2 = profile(x2)
    value, phi, c = min(grid[i], f1, f2)
    if not math.isfinite(value):
        raise ConfigError(f"the geometric tradeoff has no finite objective for {p}")
    return GeometricSolution(c_star=c, phi_star=phi, objective_value=value)
