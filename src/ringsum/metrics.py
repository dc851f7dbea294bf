"""Solution estimator and Monte Carlo error aggregation.

A node's estimate is the sum of its own last n recorded states (n = current
member count). The window sum over states x_i(k-n+1..k) equals the protocol's
forward-looking window starting at k-n+1, so results carry both indices.
Windows reset on every membership change; errors are always measured against
the current-phase member sum.

Monte Carlo trials are simulated together: `engine.simulate` writes all
trials' states into one tensor per phase (trials-major with membership
events, step-major without), and the window sums are formed in place there.
A single run's states are read-only, so its window sums work on a copy.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import ProtocolConfig, RingSumError
from .engine import RunResult, run_si, simulate  # noqa: F401 (run_si stays importable here)


class WindowNotFullError(RingSumError, ValueError):
    """Estimator requested before n consecutive states are available."""


@dataclass
class PhaseWindows:
    """All full-window estimates inside one constant-membership stretch."""

    order: tuple[int, ...]
    target: float
    k_end: np.ndarray  # window end step, per row of y
    y: np.ndarray      # shape (len(k_end), len(order))

    @property
    def k_start(self) -> np.ndarray:
        return self.k_end - (len(self.order) - 1)

    def sum_abs_error(self) -> np.ndarray:
        return np.abs(self.y - self.target).sum(axis=1)


def _windows(stretches) -> list[PhaseWindows]:
    """Full-window estimates of each (start_k, order, target, states) stretch;
    the step-indexed `states` (steps, ..., n) become the window sums in place."""
    out = []
    for start_k, order, target, states in stretches:
        n = len(order)
        if len(states) < n:
            continue
        np.cumsum(states, axis=0, out=states)
        # Descending blocks of at most n rows never overlap their source.
        for hi in range(len(states), n, -n):
            lo = max(n, hi - n)
            states[lo:hi] -= states[lo - n : hi - n]
        k_end = start_k + np.arange(n - 1, len(states))
        out.append(PhaseWindows(order, target, k_end, np.moveaxis(states[n - 1 :], 0, -2)))
    return out


def window_sums(run: RunResult) -> list[PhaseWindows]:
    """Per-phase estimator series of a completed run."""
    return _windows((p.start_k, p.order, p.target, states.copy()) for p, states in run.phases)


def estimator(run: RunResult, node: int, k: int) -> float:
    """Window sum of `node`'s states ending at step k (window length n)."""
    for phase, states in run.phases:
        offset = k - phase.start_k
        if node in phase.order and 0 <= offset < len(states):
            if offset < phase.n - 1:
                raise WindowNotFullError(
                    f"node {node} has only {offset + 1} states at k={k}, needs {phase.n}"
                )
            # Cumulative sums run row by row, so the last window over the
            # states up to k has the same bits as in `window_sums`.
            upto_k = states[: offset + 1].copy()
            (part,) = _windows([(phase.start_k, phase.order, phase.target, upto_k)])
            return float(part.y[-1, phase.order.index(node)])
    raise WindowNotFullError(f"no recorded window for node {node} ending at k={k}")


def error_series(run: RunResult, parts: list[PhaseWindows] | None = None
                 ) -> tuple[np.ndarray, np.ndarray]:
    """(k_end, sum_i |y_i - target|) across all phases of one run; `parts`
    are the run's window sums if already computed."""
    parts = window_sums(run) if parts is None else parts
    if not parts:
        return np.array([], dtype=int), np.array([])
    ks = np.concatenate([p.k_end for p in parts])
    errs = np.concatenate([p.sum_abs_error() for p in parts])
    return ks, errs


# -- Monte Carlo aggregation ------------------------------------------------

# Steps per slice of the Monte Carlo statistics (at least 2): a slice's
# temporaries are (trials, STAT_STEPS, n) values, 2 MB at 100 trials of 10
# members.
STAT_STEPS = 256


@dataclass
class ErrorAggregate:
    """Per-step Monte Carlo error estimates across independent trials."""

    ks: np.ndarray
    mean_abs_error: np.ndarray
    mae_stderr: np.ndarray
    sum_variance: np.ndarray
    sum_variance_stderr: np.ndarray
    trials: int

    def at(self, k: int) -> tuple[float, float, float, float]:
        i = int(np.searchsorted(self.ks, k))
        if i >= len(self.ks) or self.ks[i] != k:
            raise KeyError(f"no aggregate at k={k}")
        return (
            float(self.mean_abs_error[i]),
            float(self.mae_stderr[i]),
            float(self.sum_variance[i]),
            float(self.sum_variance_stderr[i]),
        )


def trial_windows(config: ProtocolConfig, trials: int) -> list[PhaseWindows]:
    """Estimator series stacked across trials: y has shape (trials, steps, n)."""
    if trials < 1:
        raise ValueError("need at least one trial")
    phases = config.phases()
    # The layout decides the bytes of the aggregates: reductions over trials
    # sum a C-ordered (trials, steps, n) tensor sequentially, but a
    # transposed step-major tensor pairwise. Keep the two established paths.
    if config.events:
        states = [np.empty((trials, p.stop_k - p.start_k + 1, p.n)).swapaxes(0, 1) for p in phases]
    else:
        states = [np.empty((config.steps + 1, trials, len(config.secrets)))]
    simulate(config, trials, states)
    return _windows((p.start_k, p.order, p.target, v) for p, v in zip(phases, states))


def aggregate_trials(config: ProtocolConfig, trials: int) -> ErrorAggregate:
    """Mean absolute error and estimator variance per step, with standard errors."""
    if trials < 2:
        raise ValueError("variance estimation needs at least 2 trials")
    parts = trial_windows(config, trials)
    if not parts:  # no phase is long enough to fill a window
        return ErrorAggregate(np.array([], dtype=int), *[np.array([])] * 4, trials=trials)
    ks, maes, mae_ses, sumvars, sv_ses = [], [], [], [], []
    for p in parts:
        ks.append(p.k_end)
        # Slices of steps bound the temporaries; every (step, node) cell is
        # still reduced over the trials of the same memory layout. numpy sums
        # a trials-major slice of one step pairwise, and one of more steps row
        # by row, as the whole phase, so a last single step joins the slice
        # before it.
        bounds = [*range(0, max(len(p.k_end) - 1, 1), STAT_STEPS), len(p.k_end)]
        for lo, hi in zip(bounds, bounds[1:]):
            y = p.y[:, lo:hi]
            dev = y - p.target
            sae = np.abs(dev, out=dev).sum(axis=2)  # (trials, steps)
            del dev  # free it before var() allocates its own temporary
            maes.append(sae.mean(axis=0))
            mae_ses.append(sae.std(axis=0, ddof=1) / math.sqrt(trials))
            var = y.var(axis=0, ddof=1)  # (steps, n)
            sumvars.append(var.sum(axis=1))
            # Gaussian approximation: var(sample variance) ~ 2 sigma^4 / (T - 1).
            sv_ses.append(np.sqrt((2.0 * var**2 / (trials - 1)).sum(axis=1)))
    return ErrorAggregate(
        ks=np.concatenate(ks),
        mean_abs_error=np.concatenate(maes),
        mae_stderr=np.concatenate(mae_ses),
        sum_variance=np.concatenate(sumvars),
        sum_variance_stderr=np.concatenate(sv_ses),
        trials=trials,
    )


def trial_mean_estimates(
    config: ProtocolConfig, trials: int, k_end: int
) -> tuple[tuple[int, ...], np.ndarray, np.ndarray]:
    """(nodes, mean of y_i(k_end) across trials, standard errors)."""
    if trials < 2:
        raise ValueError("a standard error needs at least 2 trials")
    parts = trial_windows(config, trials)
    for p in parts:
        idx = np.flatnonzero(p.k_end == k_end)
        if idx.size:
            y = p.y[:, int(idx[0]), :]
            return p.order, y.mean(axis=0), y.std(axis=0, ddof=1) / math.sqrt(trials)
    raise WindowNotFullError(f"no full window ends at k={k_end}")
