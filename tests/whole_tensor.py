"""The whole-tensor Monte Carlo statistics: the oracle of the streamed ones.

`trial_windows` ran every trial of a config into one state tensor per phase,
trials-major with membership events and step-major without, and formed all
window sums there in place; `oracle_aggregate_trials` and
`oracle_trial_mean_estimates` reduced those tensors over trials in one pass.
They were the package's Monte Carlo path until `metrics` began streaming the
batch through chunk buffers, and are kept here verbatim (only renamed, with
their own copy of the window sums) so that `test_streaming.py` and
`test_invariance.py` can check the streamed statistics against them bit for
bit, whatever the chunk size. `streamed_trial_mean_estimates` reads the
per-node means from the streamed chunks themselves.
"""
from __future__ import annotations

import math

import numpy as np

from ringsum import metrics
from ringsum.engine import simulate
from ringsum.metrics import ErrorAggregate, PhaseWindows
from ringsum.model import ProtocolConfig


class WindowNotFullError(ValueError):
    """No full window ends at the step asked for."""


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


def oracle_aggregate_trials(config: ProtocolConfig, trials: int) -> ErrorAggregate:
    """Mean absolute error and estimator variance per step, with standard errors."""
    if trials < 2:
        raise ValueError("variance estimation needs at least 2 trials")
    parts = trial_windows(config, trials)
    if not parts:  # no phase is long enough to fill a window
        return ErrorAggregate(np.array([], dtype=int), *[np.array([])] * 4, trials=trials)
    ks, maes, mae_ses, sumvars, sv_ses = [], [], [], [], []
    for p in parts:
        dev = p.y - p.target
        sae = np.abs(dev, out=dev).sum(axis=2)  # (trials, steps)
        del dev  # free it before var() allocates its own temporary
        maes.append(sae.mean(axis=0))
        mae_ses.append(sae.std(axis=0, ddof=1) / math.sqrt(trials))
        var = p.y.var(axis=0, ddof=1)  # (steps, n)
        sumvars.append(var.sum(axis=1))
        # Gaussian approximation: var(sample variance) ~ 2 sigma^4 / (T - 1).
        sv_ses.append(np.sqrt((2.0 * var**2 / (trials - 1)).sum(axis=1)))
        ks.append(p.k_end)
    return ErrorAggregate(
        ks=np.concatenate(ks),
        mean_abs_error=np.concatenate(maes),
        mae_stderr=np.concatenate(mae_ses),
        sum_variance=np.concatenate(sumvars),
        sum_variance_stderr=np.concatenate(sv_ses),
        trials=trials,
    )


def oracle_trial_mean_estimates(
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


def streamed_trial_mean_estimates(config: ProtocolConfig, trials: int, k_end: int):
    """oracle_trial_mean_estimates, from the chunks that `metrics._stream` hands on."""
    found = []

    def take(phase, ks, y):
        if not found and (idx := np.flatnonzero(ks == k_end)).size:
            y_k = y[:, int(idx[0]) - len(ks)]
            found.append((phase.order, y_k.mean(axis=0), y_k.std(axis=0, ddof=1) / math.sqrt(trials)))

    metrics._stream(config, trials, take)
    if not found:
        raise WindowNotFullError(f"no full window ends at k={k_end}")
    return found[0]


def bits(values) -> np.ndarray:
    return np.asarray(values, dtype=np.float64).view(np.uint64)


def assert_same_aggregate(got: ErrorAggregate, want: ErrorAggregate) -> None:
    assert np.array_equal(got.ks, want.ks)
    assert got.trials == want.trials
    for name in ("mean_abs_error", "mae_stderr", "sum_variance", "sum_variance_stderr"):
        assert np.array_equal(bits(getattr(got, name)), bits(getattr(want, name))), name
