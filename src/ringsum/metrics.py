"""Window sums (the estimator) and Monte Carlo error aggregation.

A node's estimate is the sum of its own last n recorded states (n = current
member count). The window sum over states x_i(k-n+1..k) equals the protocol's
forward-looking window starting at k-n+1, so results carry both indices.
Windows reset on every membership change; errors are always measured against
the current-phase member sum. For a run's phase p, `window_sums(run)[p].y[i, j]`
is the estimate of node `order[j]` at step `k_end[i]`.

Monte Carlo trials are simulated together and streamed: `engine.run_si`
has all trials' states written a chunk of rounds at a time into one
step-major (rows, trials, n) buffer per phase and keeps trial 0's rows,
which `aggregate_trials` hands back as its `run`.
The window sums are formed in place there, carrying the last cumulative
sums from chunk to chunk, and each chunk is reduced over trials before the
next overwrites it. A buffer holds a noise chunk's rounds (but at least n)
and the state before them. The engine draws that many rounds of noise at a
time, into one buffer per phase, and each full chunk is reduced here while
the noise pool draws the next; memory does not grow with the number of
steps. A single run's states are read-only, so its window sums work on a
copy; `window_sums` returns one series per phase of the run, empty for a
phase of fewer than n states. Each window is cum[k] - cum[k - n] of the
phase's cumulative sums, formed once, in blocks of about NOISE_BLOCK values.

The bytes of the aggregates depend on the order of each sum over trials.
The variance sums every (window, node) cell's trials in trial order. The
mean and spread of the per-trial error sums sum their trials in trial order
with membership events and pairwise without: the two orders the established
artifacts were written with.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import engine
from .engine import RunResult, run_si
from .model import ProtocolConfig
from .noise import NOISE_BLOCK


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
    if len(rows) < rows[0].size:
        # A wide chunk: np.cumsum's own additions, one row at a time, each
        # over contiguous memory instead of one short loop per column.
        for i in range(1, len(rows)):
            np.add(rows[i - 1], rows[i], out=rows[i])
    else:
        np.cumsum(rows, axis=0, out=rows)
    after = rows[-(n + 1) :].copy()
    # Descending blocks of a multiple of n rows, about NOISE_BLOCK values
    # each: a block of more than n rows overlaps its source, so it subtracts
    # a copy of the source rows, taken before it writes any of them.
    step = n * max(1, NOISE_BLOCK // (n * rows[0].size))
    for hi in range(len(rows), n, -step):
        lo = max(n, hi - step)
        source = rows[lo - n : hi - n]
        rows[lo:hi] -= source.copy(order="K") if hi - lo > n else source
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
    run: RunResult | None = None  # trial 0 of the batch, as run_si(config) gives it

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


def _stream(config: ProtocolConfig, trials: int, take) -> RunResult:
    """Run `trials` trials of `config` together, a chunk of rounds at a time;
    returns trial 0, as `run_si(config)` would.

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

    return run_si(config, 0, trials, buffers(), flush)


def aggregate_trials(config: ProtocolConfig, trials: int) -> ErrorAggregate:
    """Mean absolute error and estimator variance per step, with standard
    errors, and trial 0 of the batch as its `run`."""
    if trials < 2:
        raise ValueError("variance estimation needs at least 2 trials")
    columns = []
    # Room for a trials-major copy of about NOISE_BLOCK values of a chunk's
    # windows, and at least of one window, for every chunk.
    scratch = np.empty(max(NOISE_BLOCK, trials * max(p.n for p in config.phases())))

    # Squares of huge estimates overflow to inf, which errors.csv then reads.
    @np.errstate(over="ignore")
    def take(phase, k_end, y):
        # y.var(axis=0, ddof=1) as numpy computes it, step by step and in
        # place, on a C-ordered copy of a block of windows at a time: every
        # (window, node) cell sums its trials in trial order, row by row, as
        # numpy does on the step-major chunk, but over contiguous rows.
        var, width = np.empty(y.shape[1:]), scratch.size // (trials * phase.n)  # (windows, n)
        for w in range(0, y.shape[1], width):
            block = y[:, w : w + width]
            sq = scratch[: block.size].reshape(block.shape)
            np.copyto(sq, block)
            sq -= sq.sum(axis=0, keepdims=True) / trials
            np.square(sq, out=sq)
            var[w : w + width] = sq.sum(axis=0) / (trials - 1)
        # The deviations overwrite the chunk, which the engine refills next.
        dev = np.subtract(y, phase.target, out=y)
        sae = np.abs(dev, out=dev).sum(axis=2)  # (trials, windows), trials-contiguous
        # numpy sums these over trials pairwise. With membership events the
        # established order is trial by trial, which numpy takes on a
        # C-ordered copy of more than one window; a phase's chunks after its
        # first hold more, since they repeat the window before.
        if config.events:
            sae = np.ascontiguousarray(sae)
        new = slice(y.shape[1] - len(k_end), None)
        columns.append((
            k_end,
            sae.mean(axis=0)[new],
            (sae.std(axis=0, ddof=1) / math.sqrt(trials))[new],
            var.sum(axis=1)[new],
            # Gaussian approximation: var(sample variance) ~ 2 sigma^4 / (T - 1).
            np.sqrt((2.0 * var**2 / (trials - 1)).sum(axis=1))[new],
        ))

    run = _stream(config, trials, take)
    if not columns:  # no phase is long enough to fill a window
        return ErrorAggregate(np.array([], dtype=int), *[np.array([])] * 4, trials, run)
    return ErrorAggregate(*map(np.concatenate, zip(*columns)), trials, run)

