"""The block-drawn Poisson-clock engine against the heap clock it replaced.

The oracle below is the engine that merged the nodes' Poisson clocks in a
heap and drew one clock gap and one beta per tick, kept verbatim (only the
function is renamed, and its run type now comes from `stepping_engine`) so
that any bit the vectorized `run_ai` changes shows up here: in the states,
the tick order or the drift, NaN included. Its
per-tick scale is the scalar formula written out, apart from the
`NoiseSchedule.scale` that `run_ai` calls.
"""
import heapq
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from ringsum import (
    ConfigError,
    Distribution,
    Family,
    NoiseSchedule,
    NoiseSource,
    ProtocolConfig,
    run_ai,
)
from ringsum.engine import FIRST_GAPS, _poisson_ticks
from stepping_engine import ProtocolRun


# -- the heap-clock oracle ----------------------------------------------------


def _scale_with_start_shift(schedule: NoiseSchedule, k: int) -> float:
    """v(k), substituting d = 1 at k = 0 for harmonic schedules with d = 0."""
    if schedule.family is Family.GEOMETRIC:
        return schedule.c * schedule.phi**k
    if k == 0 and schedule.d == 0:
        return schedule.c
    return schedule.c / (k + schedule.d)


class AsyncClock:
    """Merged per-node Poisson clocks; pops globally ordered tick events.

    Timestamps are strictly increasing with ties broken by node identifier
    (exact float ties are broken deterministically by the heap ordering).
    """

    def __init__(self, nodes, rate: float, source: NoiseSource, trial: int = 0):
        if rate <= 0:
            raise ConfigError(f"Poisson rate must be positive, got {rate}")
        self.rate = rate
        self.source = source
        self.trial = trial
        self._heap = [
            (float(source.clock_gap(node, 0, trial, rate)[0]), node, 0) for node in nodes
        ]
        heapq.heapify(self._heap)

    def next_tick(self) -> tuple[float, int, int]:
        """(timestamp, node, local tick index) of the next tick; reschedules."""
        t, node, m = heapq.heappop(self._heap)
        gap = float(self.source.clock_gap(node, m + 1, self.trial, self.rate)[0])
        heapq.heappush(self._heap, (t + gap, node, m + 1))
        return t, node, m


def oracle_run_ai(
    config: ProtocolConfig,
    rate: float,
    horizon: float,
    trial: int = 0,
    record_trace: bool = True,
    record_states: bool = True,
    tick_order=None,
) -> ProtocolRun:
    """Poisson-clock execution until the time horizon.

    On node i's tick with local count m: draw beta at scale v_i(m), send
    d = x_i - beta forward, set x_i to beta, successor accumulates d. The
    member sum is conserved at every event. `tick_order` replaces the Poisson
    clock with an explicit node sequence (deterministic replay for testing).

    Membership events are not supported here; the rewiring rules above are
    defined for the synchronous rounds only.
    """
    if config.events:
        raise ConfigError("membership events are not supported by the asynchronous engine")
    if horizon <= 0:
        raise ConfigError(f"horizon must be positive, got {horizon}")
    n = len(config.secrets)
    run = ProtocolRun.start(config, None, trial, record_trace, record_states)
    source = run.source
    pos = {node: j for j, node in enumerate(run.order)}
    tick_counts = {node: 0 for node in run.order}

    if tick_order is not None:
        ticks = ((float(i + 1), node) for i, node in enumerate(tick_order))
    else:
        clock = AsyncClock(run.order, rate, source, trial)

        def _poisson():
            while True:
                t, node, _ = clock.next_tick()
                if t > horizon:
                    return
                yield t, node

        ticks = _poisson()

    for event_index, (t, node) in enumerate(ticks):
        m = tick_counts[node]
        tick_counts[node] = m + 1
        scale = _scale_with_start_shift(run.schedules[node], m)
        beta = float(run.source.sample(node, m, trial, scale, run.distribution)[0])
        j = pos[node]
        d = run.x[j] - beta
        run.x[j] = beta
        run.x[(j + 1) % n] += d
        if run.record_trace:
            run.trace.append((event_index, node, float(d)))
        run.k = event_index + 1
        run._after_step()
    run.tick_counts = tick_counts
    return run


# -- comparisons --------------------------------------------------------------


def bits(values) -> np.ndarray:
    return np.asarray(values, dtype=np.float64).view(np.uint64)


def assert_same_run(run, ref) -> None:
    assert run.k == ref.k
    assert np.array_equal(bits(run.phases[-1][1][-1]), bits(ref.x))
    assert np.array_equal(bits(run.max_rel_drift), bits(ref.max_rel_drift))
    assert [(p.start_k, p.order, p.target) for p, _ in run.phases] == [
        (s.start_k, s.order, s.target) for s in ref.segments
    ]
    for (phase, states), seg in zip(run.phases, ref.segments, strict=True):
        assert np.array_equal(bits(states), bits(seg.state_matrix()))
        assert phase.stop_k == phase.start_k + len(states) - 1


def both(config, rate, horizon, **kwargs):
    """run_ai and the oracle, which always records its states for the comparison."""
    return run_ai(config, rate, horizon, **kwargs), oracle_run_ai(config, rate, horizon, **kwargs)


SCHEDULES = {
    "harmonic_d1": lambda c: NoiseSchedule.harmonic(c, 1.0),
    "harmonic_d0": lambda c: NoiseSchedule.harmonic(c, 0.0),
    # k + d rounds here, as c / (k + d) does at every d.
    "harmonic_d03": lambda c: NoiseSchedule.harmonic(c, 0.3),
    "geometric": lambda c: NoiseSchedule.geometric(c, 0.999),
}


def _config(n=3, kind="geometric", dist=Distribution.LAPLACE, c=50.0, seed=8):
    secrets = [3.0 * i - 4.5 for i in range(n)]
    return ProtocolConfig.uniform(secrets, SCHEDULES[kind](c), dist, 1, seed)


# -- the engine equals the oracle --------------------------------------------


@settings(max_examples=30, deadline=None)
@given(
    n=st.integers(3, 9),
    kind=st.sampled_from(sorted(SCHEDULES)),
    dist=st.sampled_from(list(Distribution)),
    c=st.floats(0.1, 100.0),
    seed=st.integers(0, 2**31),
    trial=st.integers(0, 5),
    rate=st.floats(0.2, 3.0),
    horizon=st.floats(0.01, 40.0),
)
# A horizon before every node's first tick: no tick, one state row.
@example(n=3, kind="geometric", dist=Distribution.LAPLACE, c=50.0, seed=8, trial=0,
         rate=1.0, horizon=1e-9)
# About 400 ticks per node: the gap blocks double at least twice.
@example(n=3, kind="harmonic_d0", dist=Distribution.GAUSSIAN, c=5.0, seed=3, trial=1,
         rate=2.0, horizon=200.0)
def test_run_ai_equals_heap_oracle(n, kind, dist, c, seed, trial, rate, horizon):
    config = _config(n, kind, dist, c, seed)
    run, ref = both(config, rate, horizon, trial=trial)
    assert_same_run(run, ref)


def test_horizon_before_every_first_tick():
    config = _config()
    source = NoiseSource(config.rng_seed)
    first = min(float(source.clock_gap(node, 0, 0, 1.0)[0]) for node in (1, 2, 3))
    run, ref = both(config, 1.0, first / 2)
    assert run.k == 0
    assert run.phases[0][1].shape == (1, 3)
    assert_same_run(run, ref)


def test_gap_blocks_double_at_least_twice(monkeypatch):
    calls = {}
    clock_gap = NoiseSource.clock_gap

    def counted(self, node, tick_index, trial, rate):
        calls[node] = calls.get(node, 0) + 1
        return clock_gap(self, node, tick_index, trial, rate)

    config = _config(kind="harmonic_d1", dist=Distribution.UNIFORM_SYMMETRIC)
    monkeypatch.setattr(NoiseSource, "clock_gap", counted)
    run = run_ai(config, 2.0, 200.0)
    monkeypatch.undo()
    # First block, then two doublings of the node's total, at least.
    _, ids = _poisson_ticks(NoiseSource(config.rng_seed), [1, 2, 3], 0, 2.0, 200.0)
    counts = np.bincount(ids, minlength=4)[1:]
    assert counts.min() > 3 * FIRST_GAPS
    assert min(calls.values()) >= 3
    ref = oracle_run_ai(config, 2.0, 200.0)
    assert counts.tolist() == [ref.tick_counts[node] for node in (1, 2, 3)]
    assert_same_run(run, ref)


@pytest.mark.parametrize(
    "order", [[], [2], [1, 2, 3] * 4, [3, 3, 1, 3, 1, 1, 3], [4, 1, 5, 2, 2, 5, 4, 3, 1, 1]]
)
@pytest.mark.parametrize("kind", sorted(SCHEDULES))
def test_tick_order_replay_equals_oracle(order, kind):
    config = _config(n=5, kind=kind, dist=Distribution.GAUSSIAN)
    run, ref = both(config, 1.0, 1.0, tick_order=order)
    assert_same_run(run, ref)


@pytest.mark.parametrize("dist", list(Distribution))
def test_overflowing_noise_keeps_a_nan_drift(dist):
    # v(0) near the largest double: betas overflow to +-inf, inf - inf is NaN.
    config = _config(kind="harmonic_d1", dist=dist, c=1.7e308)
    with np.errstate(all="ignore"):
        run, ref = both(config, 1.0, 20.0)
    assert math.isnan(run.max_rel_drift)
    assert_same_run(run, ref)


def test_drift_skips_the_initial_state():
    # 0.1 + 0.2 + 0.3 rounds away from the exact sum 0.6; after node 2's
    # noise-free tick the states 0.1 + 0 + 0.5 sum to 0.6 exactly. Like the
    # per-tick tracker, the drift looks only at states that ticks produced.
    config = ProtocolConfig.uniform([0.1, 0.2, 0.3], NoiseSchedule.harmonic(0.0, 1.0),
                                    Distribution.LAPLACE, 1, 0)
    run, ref = both(config, 1.0, 1.0, tick_order=[2])
    assert run.max_rel_drift == 0.0
    assert_same_run(run, ref)


def test_merged_tick_times_strictly_increase_and_follow_the_heap():
    source, horizon = NoiseSource(4), 70.0
    times, ids = _poisson_ticks(source, [1, 2, 3], 0, 3.0, horizon)
    clock, heap = AsyncClock([1, 2, 3], rate=3.0, source=source), []
    while (tick := clock.next_tick())[0] <= horizon:
        heap.append(tick[:2])
    assert len(times) > 500
    assert np.all(np.diff(times) > 0)
    assert list(zip(times.tolist(), ids.tolist())) == heap


# -- invalid clocks fail before any draw ---------------------------------------


@pytest.fixture
def no_draws(monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("a draw was made before the arguments were checked")

    monkeypatch.setattr(NoiseSource, "clock_gap", fail)
    monkeypatch.setattr(NoiseSource, "sample", fail)


@pytest.mark.parametrize("rate", [0.0, -1.0, math.inf, math.nan])
def test_invalid_rate_rejected_before_any_draw(no_draws, rate):
    with pytest.raises(ConfigError):
        run_ai(_config(), rate, 10.0)


@pytest.mark.parametrize("horizon", [0.0, math.inf, math.nan])
def test_invalid_horizon_rejected_before_any_draw(no_draws, horizon):
    with pytest.raises(ConfigError):
        run_ai(_config(), 1.0, horizon)


@pytest.mark.parametrize("order", [[1, 7], [0], [2, 3, 1, -1]])
def test_non_member_in_tick_order_rejected_before_any_draw(no_draws, order):
    with pytest.raises(ConfigError, match="not members"):
        run_ai(_config(), 1.0, 10.0, tick_order=order)
