"""Solution estimator and Monte Carlo error aggregation.

A node's estimate is the sum of its own last n recorded states (n = current
member count). The window sum over states x_i(k-n+1..k) equals the protocol's
forward-looking window starting at k-n+1, so results carry both indices.
Windows reset on every membership change; errors are always measured against
the current-phase member sum.

Monte Carlo trials are simulated together and streamed: `engine.simulate`
writes all trials' states a chunk of rounds at a time into one buffer per
phase (trials-major with membership events, step-major without), the window
sums are formed in place there, carrying the last cumulative sums from chunk
to chunk, and each chunk is reduced over trials before the next overwrites
it. A buffer holds a noise chunk's rounds (but at least n) and the state
before them, so unless n rounds are more than a noise chunk, it is full
where a noise chunk starts, and is reduced while that chunk is drawn.
Memory does not grow with the number of steps. A single run's states are
read-only, so its window sums work on a copy; `window_sums` returns one
series per phase of the run, empty for a phase of fewer than n states.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import engine
from .model import ProtocolConfig, RingSumError
# run_si is imported only because perfbench/smoke.py asserts that the tracer
# rebinds `metrics.run_si` too; the tracer itself checks only `engine`.
from .engine import RunResult, run_si, simulate  # noqa: F401


class WindowNotFullError(RingSumError, ValueError):
    """Estimator requested before n consecutive states are available."""


@dataclass
class PhaseWindows:
    """All full-window estimates inside one constant-membership stretch."""

    order: tuple[int, ...]
    target: float
    k_end: np.ndarray  # window end step, per row of y
    y: np.ndarray      # shape (len(k_end), len(order))

    def sum_abs_error(self) -> np.ndarray:
        return np.abs(self.y - self.target).sum(axis=1)


def _window_rows(rows: np.ndarray, n: int, carry: np.ndarray | None = None) -> np.ndarray:
    """Turn consecutive states `rows` (steps, ..., n) of a phase into their
    window sums in place, wherever n states end at a row.

    `carry` is None at the phase's first state. For rows that go on from a
    chunk before, rows[0] repeats the state that ended it and `carry` holds
    the cumulative sums of the n + 1 states up to that one. Returns the carry
    for the rows after these; only a chunk of at least n + 1 rows is carried
    on (a shorter one ends its phase).
    """
    if carry is not None:
        # Row 1 then gets carry[-1] + state, the addition of one long cumsum.
        rows[0] = carry[-1]
    np.cumsum(rows, axis=0, out=rows)
    after = rows[-(n + 1) :].copy()
    # Descending blocks of at most n rows never overlap their source.
    for hi in range(len(rows), n, -n):
        lo = max(n, hi - n)
        rows[lo:hi] -= rows[lo - n : hi - n]
    if carry is not None:
        rows[:n] -= carry[: len(rows[:n])]
    return after


def window_sums(run: RunResult) -> list[PhaseWindows]:
    """The estimator series of each phase of a completed run, in the order of
    `run.phases`; a phase of fewer than n states has an empty one."""
    out = []
    for phase, states in run.phases:
        n, y = phase.n, states.copy()
        if len(y) >= n:
            _window_rows(y, n)
        out.append(PhaseWindows(phase.order, phase.target,
                                phase.start_k + np.arange(n - 1, len(y)), y[n - 1 :]))
    return out


def estimator(run: RunResult, node: int, k: int) -> float:
    """Window sum of `node`'s states ending at step k (window length n)."""
    for (phase, states), part in zip(run.phases, window_sums(run)):
        offset = k - phase.start_k
        if node in phase.order and 0 <= offset < len(states):
            if offset < phase.n - 1:
                raise WindowNotFullError(
                    f"node {node} has only {offset + 1} states at k={k}, needs {phase.n}"
                )
            return float(part.y[offset - (phase.n - 1), phase.order.index(node)])
    raise WindowNotFullError(f"no recorded window for node {node} ending at k={k}")


def error_series(run: RunResult, parts: list[PhaseWindows] | None = None
                 ) -> tuple[np.ndarray, np.ndarray]:
    """(k_end, sum_i |y_i - target|) across all phases of one run; `parts`
    are the run's window sums if already computed."""
    parts = window_sums(run) if parts is None else parts
    return (np.concatenate([p.k_end for p in parts]),
            np.concatenate([p.sum_abs_error() for p in parts]))


# -- Monte Carlo aggregation ------------------------------------------------

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


def _stream(config: ProtocolConfig, trials: int, take) -> None:
    """Run `trials` trials of `config` together, a chunk of rounds at a time.

    take(phase, k_end, y) receives each chunk's windows that end at k_end, y
    of shape (trials, windows, n), and may overwrite y. After a phase's first
    chunk, y's first window repeats the last one of the chunk before (k_end
    does not list it again), so that no chunk short of its phase holds a
    single window.
    """
    phases = config.phases()

    def buffers():
        for p in phases:
            # A noise block's rounds, but at least n: a chunk short of its
            # phase then ends past the phase's first window.
            rows = min(p.stop_k - p.start_k, max(engine.chunk_rounds(trials, p.n), p.n)) + 1
            # The layout decides the bytes of the aggregates: reductions over
            # trials sum a C-ordered (trials, steps, n) tensor sequentially,
            # but a transposed step-major tensor pairwise. Keep the two
            # established layouts, chunk by chunk.
            if config.events:
                yield np.empty((trials, rows, p.n)).swapaxes(0, 1)
            else:
                yield np.empty((rows, trials, p.n))

    carry = None

    def flush(p, t, rows):
        nonlocal carry
        phase = phases[p]
        carry = _window_rows(rows, phase.n, carry if t else None)
        # After the first chunk, rows[0] repeats the window that ended the one before.
        lo, fresh = (0, 1) if t else (phase.n - 1, phase.n - 1)
        if len(rows) > fresh:
            k_end = phase.start_k + t + np.arange(fresh, len(rows))
            take(phase, k_end, np.moveaxis(rows[lo:], 0, -2))

    simulate(config, trials, buffers(), flush=flush)


def aggregate_trials(config: ProtocolConfig, trials: int) -> ErrorAggregate:
    """Mean absolute error and estimator variance per step, with standard errors."""
    if trials < 2:
        raise ValueError("variance estimation needs at least 2 trials")
    columns = []

    def take(phase, k_end, y):
        # Every (step, node) cell is reduced over the trials of the whole
        # phase's memory layout. numpy sums a trials-major chunk of one
        # window pairwise, and one of more windows row by row, so a chunk
        # reduces the repeated window along with its own.
        var = y.var(axis=0, ddof=1)  # (windows, n)
        # The deviations overwrite the chunk, which the engine refills next:
        # one chunk-sized temporary (var's) instead of two.
        dev = np.subtract(y, phase.target, out=y)
        sae = np.abs(dev, out=dev).sum(axis=2)  # (trials, windows)
        new = slice(y.shape[1] - len(k_end), None)
        columns.append((
            k_end,
            sae.mean(axis=0)[new],
            (sae.std(axis=0, ddof=1) / math.sqrt(trials))[new],
            var.sum(axis=1)[new],
            # Gaussian approximation: var(sample variance) ~ 2 sigma^4 / (T - 1).
            np.sqrt((2.0 * var**2 / (trials - 1)).sum(axis=1))[new],
        ))

    _stream(config, trials, take)
    if not columns:  # no phase is long enough to fill a window
        return ErrorAggregate(np.array([], dtype=int), *[np.array([])] * 4, trials=trials)
    return ErrorAggregate(*map(np.concatenate, zip(*columns)), trials=trials)


def trial_mean_estimates(
    config: ProtocolConfig, trials: int, k_end: int
) -> tuple[tuple[int, ...], np.ndarray, np.ndarray]:
    """(nodes, mean of y_i(k_end) across trials, standard errors)."""
    if trials < 2:
        raise ValueError("a standard error needs at least 2 trials")
    found = []

    def take(phase, ks, y):
        idx = np.flatnonzero(ks == k_end)
        if idx.size and not found:
            y_k = y[:, int(idx[0]) - len(ks)]
            stderr = y_k.std(axis=0, ddof=1) / math.sqrt(trials)
            found.append((phase.order, y_k.mean(axis=0), stderr))

    _stream(config, trials, take)
    if not found:
        raise WindowNotFullError(f"no full window ends at k={k_end}")
    return found[0]
