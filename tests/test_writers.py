"""The columnar CSV writers against the row-by-row writers they replaced.

The oracle below is the csv.writer implementation the artifacts were first
written with, kept verbatim (it reads a run's phases and their state arrays
where it read segments) so that any byte the columnar writers change shows
up here, on random churn and on values no scenario produces (NaN,
infinities, -0.0, subnormals).
"""
import csv
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
from hypothesis import example, given, settings, strategies as st

from ringsum import (
    Distribution,
    Join,
    Leave,
    NoiseSchedule,
    ProtocolConfig,
    aggregate_trials,
    error_series,
    run_ai,
    run_si,
    window_sums,
)
from ringsum import cli
from ringsum.metrics import ErrorAggregate


# -- the row-by-row oracle ----------------------------------------------------


def _fmt(x) -> str:
    return repr(float(x))


def oracle_trajectories(path, run) -> None:
    parts = window_sums(run)
    lookup = {}
    for p in parts:
        for row, k in enumerate(p.k_end):
            lookup[int(k)] = (p, row)
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["k", "node", "x", "y", "window_start_k", "abs_error"])
        for seg, mat in run.phases:
            for t in range(len(mat)):
                k = seg.start_k + t
                win = lookup.get(k)
                for j, node in enumerate(seg.order):
                    if win is not None and win[0].order == seg.order:
                        p, row = win
                        y = p.y[row, j]
                        w.writerow(
                            [k, node, _fmt(mat[t, j]), _fmt(y),
                             k - seg.n + 1, _fmt(abs(y - seg.target))]
                        )
                    else:
                        w.writerow([k, node, _fmt(mat[t, j]), "", "", ""])


def oracle_errors(path, agg) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["k", "mean_abs_error", "mae_stderr", "sum_variance", "sum_variance_stderr"])
        for i, k in enumerate(agg.ks):
            w.writerow(
                [int(k), _fmt(agg.mean_abs_error[i]), _fmt(agg.mae_stderr[i]),
                 _fmt(agg.sum_variance[i]), _fmt(agg.sum_variance_stderr[i])]
            )


def oracle_single_errors(path, run) -> None:
    ks, errs = error_series(run)
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["k", "sum_abs_error"])
        for k, e in zip(ks, errs):
            w.writerow([int(k), _fmt(e)])


# -- comparison helpers ---------------------------------------------------------


def _bytes(write, *args) -> bytes:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "out.csv"
        write(path, *args)
        return path.read_bytes()


def assert_run_writers_match(run) -> None:
    parts = window_sums(run)
    assert _bytes(cli._write_trajectories, run, parts) == _bytes(oracle_trajectories, run)
    ks, errs = error_series(run, parts)
    assert _bytes(cli._write_single_errors, ks, errs) == _bytes(oracle_single_errors, run)


# -- strategies ---------------------------------------------------------------------


def _schedules():
    return st.one_of(
        st.builds(NoiseSchedule.harmonic, st.floats(0.1, 100.0), st.sampled_from([0.0, 1.0, 2.5])),
        st.builds(NoiseSchedule.geometric, st.floats(0.1, 100.0), st.floats(0.1, 0.95)),
    )


@st.composite
def churn_configs(draw):
    """Random leave/join churn; several joins and a leave may share one time."""
    n = draw(st.integers(3, 6))
    steps = draw(st.integers(1, 30))
    members, gone, fresh, events = list(range(1, n + 1)), [], n + 1, []
    for t in sorted(set(draw(st.lists(st.integers(0, steps - 1), max_size=5)))):
        for _ in range(draw(st.integers(0, 2))):
            if gone and draw(st.booleans()):
                node = gone.pop(draw(st.integers(0, len(gone) - 1)))
            else:
                node, fresh = fresh, fresh + 1
            anchor = draw(st.sampled_from(members))
            members.insert(members.index(anchor) + 1, node)
            events.append(Join(t, node, anchor, draw(st.floats(-100.0, 100.0))))
        if len(members) > 3 and draw(st.booleans()):
            node = draw(st.sampled_from(members))
            members.remove(node)
            gone.append(node)
            events.append(Leave(t, node))
    secrets = draw(st.lists(st.floats(-100.0, 100.0), min_size=n, max_size=n))
    return ProtocolConfig.uniform(
        secrets, draw(_schedules()), draw(st.sampled_from(list(Distribution))), steps,
        draw(st.integers(0, 2**31)), tuple(events),
    )


def _config(n, steps, events):
    secrets = [1.5 * i - 4.0 for i in range(n)]
    return ProtocolConfig.uniform(
        secrets, NoiseSchedule.harmonic(20.0, 1.0), Distribution.GAUSSIAN, steps, 3, events
    )


# Two joins and a leave at one time (two phases of a single step each).
JOINS_AND_LEAVE_AT_ONE_TIME = _config(4, 12, (Join(5, 5, 1, 2.0), Join(5, 6, 5, -1.0), Leave(5, 2)))
# The departure round is the last round, K - 1.
LEAVE_IN_LAST_ROUND = _config(4, 10, (Leave(9, 3),))
# The middle phase (k = 4..6) is shorter than its 6 members: it has no window.
PHASE_SHORTER_THAN_N = _config(5, 12, (Join(4, 6, 1, 3.0), Leave(6, 2)))


# -- tests ------------------------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(config=churn_configs(), trials=st.integers(2, 3))
@example(config=JOINS_AND_LEAVE_AT_ONE_TIME, trials=2)
@example(config=LEAVE_IN_LAST_ROUND, trials=3)
@example(config=PHASE_SHORTER_THAN_N, trials=2)
def test_writers_match_row_by_row_oracle_under_churn(config, trials):
    assert_run_writers_match(run_si(config))
    if any(p.stop_k - p.start_k + 1 >= p.n for p in config.phases()):
        agg = aggregate_trials(config, trials)
        assert _bytes(cli._write_errors, agg) == _bytes(oracle_errors, agg)


@settings(max_examples=25, deadline=None)
@given(
    secrets=st.lists(st.floats(-100.0, 100.0), min_size=3, max_size=5),
    schedule=_schedules(),
    rate=st.floats(0.2, 3.0),
    horizon=st.floats(0.5, 15.0),
    seed=st.integers(0, 2**31),
)
def test_writers_match_row_by_row_oracle_on_poisson_runs(secrets, schedule, rate, horizon, seed):
    config = ProtocolConfig.uniform(secrets, schedule, Distribution.LAPLACE, 1, seed)
    assert_run_writers_match(run_ai(config, rate, horizon))


SPECIAL = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    st.sampled_from([0.0, -0.0, float("nan"), float("inf"), float("-inf"), 5e-324, 1e16, 1e-5]),
)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_writers_match_oracle_on_non_finite_and_signed_zero_values(data):
    run = run_si(PHASE_SHORTER_THAN_N)
    phases = []
    for phase, states in run.phases:
        # A phase's target is the sum of its secrets: let one secret carry it.
        special = replace(phase, secrets=(data.draw(SPECIAL),))
        rows = [data.draw(st.lists(SPECIAL, min_size=phase.n, max_size=phase.n)) for _ in states]
        phases.append((special, np.array(rows)))
    run = replace(run, phases=tuple(phases))
    rows = data.draw(st.integers(0, 6))
    columns = [np.array(data.draw(st.lists(SPECIAL, min_size=rows, max_size=rows))) for _ in range(4)]
    agg = ErrorAggregate(np.arange(3, 3 + rows), *columns, trials=2)
    with np.errstate(all="ignore"):
        assert_run_writers_match(run)
        assert _bytes(cli._write_errors, agg) == _bytes(oracle_errors, agg)
