"""Iterative privacy-preserving summation on a directed ring.

Simulator for the synchronous masked hand-off protocol and its Poisson-clock
variant, closed-form utility/accuracy/privacy bounds, an empirical
differential-privacy auditor, and the noise-parameter tradeoff solver.
"""

from .model import (
    ConfigError,
    Distribution,
    Family,
    Join,
    Leave,
    MembershipEvent,
    NoiseSchedule,
    ProtocolConfig,
    RingSumError,
)
from .noise import NoiseSource
from .engine import RunResult, run_ai, run_si
from .metrics import (
    ErrorAggregate,
    WindowNotFullError,
    aggregate_trials,
    estimator,
    error_series,
    trial_mean_estimates,
    window_sums,
)
from .analysis import (
    AuditResult,
    InsufficientSamplesError,
    MixedFamilyError,
    NonFiniteTraceError,
    PrivacyBudget,
    ScheduleAggregates,
    UnsupportedDistributionError,
    dp_audit,
    epsilon_total,
    utility_bound,
    variance_bound,
)
from .tradeoff import (
    DegenerateTradeoffError,
    GeometricSurface,
    TradeoffProblem,
    TradeoffSolution,
    explore_geometric,
    objective_geometric,
    objective_harmonic,
    solve_harmonic,
)

__version__ = "0.1.0"
