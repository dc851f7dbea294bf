"""Weighted utility/accuracy/privacy tradeoff over the noise parameters.

For the harmonic family the scalarized objective has a unique optimum on the
homogeneous line c_1 = ... = c_n with zero offset, characterized by a strictly
increasing cubic; it is solved by bracketed bisection plus a Newton polish
(robust at extreme balancer ratios, no Cardano case analysis). The geometric
family has no closed-form optimum, so only a grid explorer is offered.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .model import ConfigError, RingSumError, check_ring


class DegenerateTradeoffError(RingSumError, ValueError):
    """The privacy term vanishes (K < 2), leaving no positive root."""


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
        if self.K < 1:
            raise ConfigError(f"step count must be >= 1, got {self.K}")


@dataclass(frozen=True)
class TradeoffSolution:
    c_star: float
    d_star: float       # always 0: the offset enters the objective linearly
    objective_value: float
    residual: float     # |g(c_star)|
    kkt_multiplier: float
    kkt_residual: float


def _coefficients(p: TradeoffProblem) -> tuple[float, float, float]:
    """(a, b, e) of the cubic g(theta) = a theta^3 + b theta^2 - e."""
    return (4.0 * p.gamma_a * math.pi**2 * p.n**2,
            math.sqrt(6.0) * p.gamma_u * math.pi * p.n**1.5,
            3.0 * p.gamma_p * p.delta * p.K * (p.K - 1))


def cubic(p: TradeoffProblem, theta: float) -> float:
    """g(theta); its unique positive root is the optimal common magnitude."""
    a, b, e = _coefficients(p)
    return a * theta**3 + b * theta**2 - e


def _cubic_derivative(p: TradeoffProblem, theta: float) -> float:
    return (
        12.0 * p.gamma_a * math.pi**2 * p.n**2 * theta**2
        + 2.0 * math.sqrt(6.0) * p.gamma_u * math.pi * p.n**1.5 * theta
    )


def upper_bracket(p: TradeoffProblem) -> float:
    """An analytic c with g(c) > 0 (cubic term alone already dominates)."""
    a, _, e = _coefficients(p)
    return (e / a) ** (1.0 / 3.0) + 1.0


def objective_harmonic(p: TradeoffProblem, c: float, d: float) -> float:
    """Scalarized objective on the homogeneous line c_M = c_m = c."""
    return (
        p.gamma_u * c * math.pi * p.n * math.sqrt(p.n / 6.0)
        + p.gamma_a * c**2 * math.pi**2 * p.n**2 / 3.0
        + p.gamma_p * p.delta * p.K * ((p.K - 1) / 2.0 + d) / c
    )


def solve_harmonic(p: TradeoffProblem) -> TradeoffSolution:
    """Unique positive root of the cubic, with stationarity verified."""
    if p.K < 2:
        raise DegenerateTradeoffError(
            "K < 2 zeroes the privacy term: g has no positive root and the "
            "objective is minimized only in the c -> 0 limit"
        )
    lo, hi = 0.0, upper_bracket(p)
    if not all(map(math.isfinite, (*_coefficients(p), hi))):
        raise ConfigError(f"the tradeoff cubic's coefficients or bracket overflow a double for {p}")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if cubic(p, mid) < 0.0:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-15 * max(1.0, hi):
            break
    c = 0.5 * (lo + hi)
    for _ in range(3):  # Newton polish; g' > 0 everywhere on (0, inf)
        c -= cubic(p, c) / _cubic_derivative(p, c)
    if not math.isfinite(c):
        raise ConfigError(f"the tradeoff cubic has no finite root for {p}")

    # Stationarity of the two-variable form at the diagonal point (c, c):
    # the gradient components must agree up to sign with one multiplier.
    mu = (
        2.0 * p.gamma_a * math.pi**2 * p.n**2 * c / 3.0
        + p.gamma_u * math.pi * p.n * math.sqrt(p.n / 6.0)
    )
    privacy_grad = p.gamma_p * p.delta * p.K * (p.K - 1) / (2.0 * c**2)
    kkt_residual = abs(mu - privacy_grad) / max(1.0, abs(mu))
    return TradeoffSolution(
        c_star=c,
        d_star=0.0,
        objective_value=objective_harmonic(p, c, 0.0),
        residual=abs(cubic(p, c)),
        kkt_multiplier=mu,
        kkt_residual=kkt_residual,
    )


# -- geometric family ---------------------------------------------------------


def objective_geometric(p: TradeoffProblem, c, phi):
    """Loosened scalarized objective for exponentially decaying scales."""
    c = np.asarray(c, dtype=np.float64)
    phi = np.asarray(phi, dtype=np.float64)
    one_minus = 1.0 - phi**2
    privacy = p.delta * (1.0 - phi**p.K) / (phi ** (p.K - 1) - phi**p.K)
    return (
        p.gamma_u * c * p.n * np.sqrt(p.n / one_minus)
        + p.gamma_a * 2.0 * p.n**2 * c**2 / one_minus
        + p.gamma_p * privacy / c
    )


@dataclass
class GeometricSurface:
    c_values: np.ndarray
    phi_values: np.ndarray
    objective: np.ndarray  # shape (len(c_values), len(phi_values))
    best_c: float
    best_phi: float
    best_value: float


_PHI_EPS = 1e-9


def explore_geometric(p: TradeoffProblem, c_values, phi_values) -> GeometricSurface:
    """Evaluate the objective on a (c, phi) grid; no optimality is claimed."""
    c_values = np.asarray(c_values, dtype=np.float64)
    phi_values = np.asarray(phi_values, dtype=np.float64)
    if np.any(c_values <= 0):
        raise ConfigError("grid must keep c > 0")
    if np.any(phi_values <= 0.0) or np.any(phi_values >= 1.0):
        warnings.warn("phi grid touches the open interval bounds; clipping")
        phi_values = np.clip(phi_values, _PHI_EPS, 1.0 - _PHI_EPS)
    surface = objective_geometric(p, c_values[:, None], phi_values[None, :])
    ci, pi = np.unravel_index(np.argmin(surface), surface.shape)
    return GeometricSurface(
        c_values=c_values,
        phi_values=phi_values,
        objective=surface,
        best_c=float(c_values[ci]),
        best_phi=float(phi_values[pi]),
        best_value=float(surface[ci, pi]),
    )
