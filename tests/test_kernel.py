"""The trial-batched synchronous kernel against the round-by-round engine."""
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ringsum import (
    ConfigError,
    Distribution,
    Join,
    Leave,
    NoiseSchedule,
    NoiseSource,
    ProtocolConfig,
    run_si,
    window_sums,
)
from ringsum import engine, metrics
from ringsum.engine import _drift, simulate
from stepping_engine import ProtocolRun, join, kernel_trace, leave, si_step


@st.composite
def churn_configs(draw):
    """A config with random leaves and joins that the member set can take."""
    n = draw(st.integers(4, 7))
    steps = draw(st.integers(2, 50))
    if draw(st.booleans()):
        # d near 0 (but not 0) makes v(0) astronomically large; the drift
        # bound is relative to the member sum, not to the noise scale.
        d = draw(st.one_of(st.just(0.0), st.floats(0.5, 3.0)))
        schedule = NoiseSchedule.harmonic(draw(st.floats(0.1, 100.0)), d)
    else:
        schedule = NoiseSchedule.geometric(draw(st.floats(0.1, 100.0)), draw(st.floats(0.1, 0.95)))
    times = draw(st.lists(st.integers(0, steps - 1), max_size=4, unique=True))
    members, gone, fresh = list(range(1, n + 1)), [], n + 1
    events = []
    for t in sorted(times):
        if len(members) > 3 and draw(st.booleans()):
            node = draw(st.sampled_from(members))
            members.remove(node)
            gone.append(node)
            events.append(Leave(t, node))
        else:
            if gone and draw(st.booleans()):
                node = gone.pop(draw(st.integers(0, len(gone) - 1)))
            else:
                node, fresh = fresh, fresh + 1
            anchor = draw(st.sampled_from(members))
            members.insert(members.index(anchor) + 1, node)
            events.append(Join(t, node, anchor, draw(st.floats(-100.0, 100.0))))
    secrets = draw(st.lists(st.floats(-100.0, 100.0), min_size=n, max_size=n))
    dist = draw(st.sampled_from(list(Distribution)))
    return ProtocolConfig.uniform(
        secrets, schedule, dist, steps, draw(st.integers(0, 2**31)), tuple(events)
    )


def _replay(config, trial):
    """run_si rebuilt from single rounds: the reference for the kernel."""
    nodes = list(range(1, len(config.secrets) + 1))
    run = ProtocolRun(
        nodes,
        secrets=dict(zip(nodes, config.secrets)),
        schedules=dict(zip(nodes, config.schedules)),
        distribution=config.distribution,
        source=NoiseSource(config.rng_seed),
        trial=trial,
    )
    while run.k < config.steps:
        at_k = [e for e in config.events if e.time == run.k]
        for e in at_k:
            if isinstance(e, Join):
                join(run, e.node, e.anchor, e.secret, e.schedule)
        leaves = [e for e in at_k if isinstance(e, Leave)]
        if leaves:
            leave(run, leaves[0].node)
        else:
            si_step(run)
    return run


def bits(values) -> np.ndarray:
    return np.asarray(values, dtype=np.float64).view(np.uint64)


@settings(max_examples=40, deadline=None)
@given(config=churn_configs(), trials=st.integers(1, 4), noise=st.integers(1, 400))
def test_batched_rows_equal_single_trial_runs(config, trials, noise):
    storage = [np.empty((p.stop_k - p.start_k + 1, trials, p.n)) for p in config.phases()]
    simulate(config, trials, storage)
    assert _drift(config.phases(), storage) <= 1e-10
    # The Monte Carlo windows, streamed in chunks of `noise` values' rounds
    # (at least n): each chunk's new windows, per phase.
    streamed = []

    def take(phase, k_end, y):
        if not streamed or streamed[-1][0] is not phase:
            streamed.append((phase, [], []))
        streamed[-1][1].append(k_end)
        streamed[-1][2].append(y[:, y.shape[1] - len(k_end) :].copy())

    with mock.patch.object(engine, "NOISE_CHUNK", noise):
        metrics._stream(config, trials, take)
    for t in range(trials):
        run = run_si(config, trial=t)
        assert run.max_rel_drift <= 1e-10
        # The streamed windows skip the phases that have none.
        singles = [part for part in window_sums(run) if len(part.k_end)]
        assert len(singles) == len(streamed)
        for (phase, k_ends, ys), single in zip(streamed, singles):
            assert phase.order == single.order
            assert np.array_equal(np.concatenate(k_ends), single.k_end)
            assert np.array_equal(bits(np.concatenate(ys, axis=1)[t]), bits(single.y))


@settings(max_examples=40, deadline=None)
@given(config=churn_configs(), trial=st.integers(0, 3))
def test_run_si_equals_round_by_round_replay(config, trial):
    run, ref = run_si(config, trial=trial), _replay(config, trial)
    assert kernel_trace(config, trial) == ref.trace
    assert run.phases[-1][0].order == ref.members
    assert np.array_equal(bits(run.phases[-1][1][-1]), bits(ref.x))
    assert run.max_rel_drift == ref.max_rel_drift
    assert run.k == ref.k
    assert [(p.start_k, p.order, p.target) for p, _ in run.phases] == [
        (s.start_k, s.order, s.target) for s in ref.segments
    ]
    for (phase, states), seg in zip(run.phases, ref.segments, strict=True):
        assert np.array_equal(bits(states), bits(seg.state_matrix()))
        assert phase.stop_k == phase.start_k + len(states) - 1
    # Every member shares one schedule here, so the oracle's flag is exact.
    assert run.start_shift_applied == ref.start_shift_applied


def test_events_at_one_time_and_a_leave_in_the_last_round():
    # Joins apply before the leave at the same time; the strategy above only
    # draws distinct event times.
    config = ProtocolConfig.uniform(
        np.linspace(-50.0, 50.0, 8), NoiseSchedule.harmonic(1000.0, 1.0),
        Distribution.GAUSSIAN, 300, 3,
        events=(Leave(40, 3), Join(90, 3, 8, 7.0), Join(90, 12, 3, -2.0), Leave(90, 8),
                Leave(299, 5)),
    )
    phases = config.phases()
    storage = [np.empty((p.stop_k - p.start_k + 1, 6, p.n)) for p in phases]
    simulate(config, 6, storage)
    assert _drift(phases, storage) <= 1e-10
    for t in (0, 5):
        run, ref = run_si(config, trial=t), _replay(config, t)
        assert kernel_trace(config, t) == ref.trace
        for (_, single), states in zip(run.phases, storage, strict=True):
            assert np.array_equal(single, states[:, t])


@pytest.mark.parametrize("noise", [None, 60], ids=["whole-phases", "chunks-of-two-rounds"])
@pytest.mark.parametrize("config", [
    ProtocolConfig.uniform(np.linspace(-50.0, 50.0, 6), NoiseSchedule.harmonic(100.0, 1.0),
                           Distribution.GAUSSIAN, 120, 9, events=(Leave(30, 6), Join(70, 6, 5, 3.5))),
    ProtocolConfig.uniform([4.0, -1.0, 2.5, 7.0, 0.5], NoiseSchedule.harmonic(2.0, 0.0),
                           Distribution.LAPLACE, 90, 4),
], ids=["leave-and-join", "harmonic-d-zero"])
def test_the_monte_carlo_batch_carries_the_single_run(config, noise):
    # Trial 0's rows are kept from each chunk before the windows overwrite
    # them; noise chunks of 60 values (two rounds of five trials) give chunk
    # buffers of n + 1 rows.
    with mock.patch.object(engine, "NOISE_CHUNK", noise or engine.NOISE_CHUNK):
        got = metrics.aggregate_trials(config, 5).run
    want = run_si(config)
    assert [phase for phase, _ in got.phases] == [phase for phase, _ in want.phases]
    for (_, a), (_, b) in zip(got.phases, want.phases, strict=True):
        assert not a.flags.writeable
        assert np.array_equal(bits(a), bits(b))
    assert bits([got.max_rel_drift]) == bits([want.max_rel_drift])
    assert got.start_shift_applied == want.start_shift_applied
    assert got.start_shift_applied is (config.schedules[0].d == 0)
    assert got.k == want.k == config.steps


# Four members, the fourth leaving in round 2: phase 1 stores steps 0..2,
# phase 2 (three members) steps 3..4.
_LEFT = ProtocolConfig.uniform([1.0, 2.0, 3.0, 4.0], NoiseSchedule.harmonic(1.0, 1.0),
                               Distribution.GAUSSIAN, 4, 0, events=(Leave(2, 4),))


def _phase_states(phase, nan_row=None):
    """States of `phase` whose member sum is its target, row `nan_row` NaN."""
    states = np.zeros((phase.stop_k - phase.start_k + 1, phase.n))
    states[:, 0] = phase.target
    if nan_row is not None:
        states[nan_row, 0] = math.nan
    return states


class TestNonFinite:
    def test_overflowing_noise_drift_is_nan_not_zero(self):
        cfg = ProtocolConfig.uniform(
            [1.0, 2.0, 3.0], NoiseSchedule.harmonic(1e308, 1.0), Distribution.GAUSSIAN, 5, 0
        )
        states = np.empty((cfg.steps + 1, 3, 3))
        with np.errstate(all="ignore"):
            simulate(cfg, 3, [states])
            dense_drift = _drift(cfg.phases(), [states])
            single_drift = run_si(cfg).max_rel_drift
        assert math.isnan(dense_drift)
        assert math.isnan(single_drift)

    def test_nan_drift_is_kept_once_seen(self):
        # A NaN state in the first phase survives the clean phase after it.
        phases = _LEFT.phases()
        assert math.isnan(_drift(phases, [_phase_states(phases[0], 1), _phase_states(phases[1])]))

    def test_drift_counts_row_0_only_where_a_departure_round_made_it(self):
        phases = _LEFT.phases()
        # Row 0 of the first phase holds the secrets, not a round's product ...
        assert _drift(phases, [_phase_states(phases[0], 0), _phase_states(phases[1])]) == 0.0
        # ... but row 0 after a leave is the departure round's result.
        assert math.isnan(_drift(phases, [_phase_states(phases[0]), _phase_states(phases[1], 0)]))

    def test_round_by_round_drift_propagates_nan(self):
        # The replay oracle's drift must stay NaN too, or the replay test could
        # not tell a NaN drift from a zero one.
        nodes = [1, 2, 3]
        run = ProtocolRun(
            nodes,
            secrets={1: math.nan, 2: 2.0, 3: 3.0},
            schedules=dict.fromkeys(nodes, NoiseSchedule.harmonic(1.0, 1.0)),
            distribution=Distribution.GAUSSIAN,
            source=NoiseSource(0),
        )
        si_step(run)
        si_step(run)
        assert math.isnan(run.max_rel_drift)


def test_shrink_below_three_rejected_before_any_round():
    # The config itself is rejected, so no engine ever gets to draw.
    with pytest.raises(ConfigError, match="at least 3 members, got 2 from step 4001"):
        ProtocolConfig.uniform(
            [1.0, 2.0, 3.0], NoiseSchedule.harmonic(1.0, 1.0), Distribution.GAUSSIAN, 5000, 0,
            events=(Leave(4000, node=1),),
        )
