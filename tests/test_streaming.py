"""The streamed Monte Carlo batch against the whole-tensor oracle.

`engine.simulate` may hold a phase's states in a buffer shorter than the
phase and hand each full chunk to the caller; `metrics` carries the window
sums from chunk to chunk and reduces each chunk over trials before the next
one overwrites it. Neither may change a bit of the aggregates or the
per-node means of `whole_tensor.py`, wherever the chunks end: before the
first window, on a leave or a join, or one state past them.
"""
import tracemalloc
from unittest import mock

import numpy as np
import pytest

from ringsum import (
    Distribution,
    Join,
    Leave,
    NoiseSchedule,
    ProtocolConfig,
    aggregate_trials,
    engine,
)
import whole_tensor
from stepping_engine import record_into
from whole_tensor import (
    WindowNotFullError,
    assert_same_aggregate,
    bits,
    oracle_aggregate_trials,
    oracle_trial_mean_estimates,
    streamed_trial_mean_estimates,
    trial_windows,
)

SECRETS = [25.1698, 15.3211, 69.9334, 45.7828, 98.0388]
N = len(SECRETS)
# Rounds per noise block at n = N members. Chunks hold at least n rounds, so
# 2 and n - 1 rounds test the floor; a block of fewer than trials * n values
# rounds down to none.
CHUNKS = {"2": 2, "n-1": N - 1, "n": N, "n+1": N + 1, "floor": None}


def noise_chunk(chunk: str, trials: int) -> int:
    rounds = CHUNKS[chunk]
    return trials * N - 1 if rounds is None else rounds * trials * N


def chunk_rounds(noise: int, trials: int, n: int) -> int:
    """Rounds per chunk of a phase of n members, as `metrics` sizes them:
    a noise block's rounds, but at least n."""
    with mock.patch.object(engine, "NOISE_CHUNK", noise):
        return max(engine.chunk_rounds(trials, n), n)


def make_config(kind: str, dist: Distribution, noise: int, trials: int, offset: int):
    """Phases that end `offset` states after their third chunk boundary.

    `churn`: node 5 leaves, then rejoins; `dense`: no events; `short`: a
    phase of fewer than n states, then one of exactly n (a single window).
    """
    c5, c4 = chunk_rounds(noise, trials, N), chunk_rounds(noise, trials, N - 1)
    if kind == "dense":
        steps, events = 3 * c5 + offset, ()
    elif kind == "churn":
        leave = 3 * c5 + offset
        join = leave + 1 + 3 * c4 + offset
        steps = join + 3 * c5 + offset
        events = (Leave(leave, node=5), Join(join, node=5, anchor=4, secret=SECRETS[-1]))
    else:
        steps = 6 + 3 * c5 + offset
        events = (Leave(2, node=5), Join(6, node=5, anchor=4, secret=SECRETS[-1]))
    return ProtocolConfig.uniform(SECRETS, NoiseSchedule.harmonic(1000.0, 1.0), dist, steps,
                                  7, events)


def window_counts(config: ProtocolConfig) -> list[int]:
    return [len(p.k_end) for p in trial_windows(config, 2)]


def test_the_configs_cover_short_phases_and_boundaries():
    noise = noise_chunk("n", 2)
    c5, c4 = chunk_rounds(noise, 2, N), chunk_rounds(noise, 2, N - 1)
    for offset in (-1, 0, 1):
        churn = make_config("churn", Distribution.GAUSSIAN, noise, 2, offset)
        lasts = [p.stop_k - p.start_k for p in churn.phases()]
        assert lasts == [3 * c5 + offset, 3 * c4 + offset, 3 * c5 + offset]
    short = make_config("short", Distribution.GAUSSIAN, noise, 2, 0)
    assert [p.stop_k - p.start_k + 1 for p in short.phases()][:2] == [3, N - 1]
    assert window_counts(short)[0] == 1  # the first phase has no window


@pytest.mark.parametrize("trials", [2, 13])
@pytest.mark.parametrize("dist", list(Distribution))
@pytest.mark.parametrize("offset", [-1, 0, 1])
@pytest.mark.parametrize("chunk", sorted(CHUNKS))
@pytest.mark.parametrize("kind", ["churn", "dense", "short"])
def test_streamed_aggregates_equal_the_whole_tensor(kind, chunk, offset, dist, trials):
    noise = noise_chunk(chunk, trials)
    config = make_config(kind, dist, noise, trials, offset)
    with mock.patch.object(engine, "NOISE_CHUNK", noise):
        got = aggregate_trials(config, trials)
    assert_same_aggregate(got, oracle_aggregate_trials(config, trials))


@pytest.mark.parametrize("trials", [2, 13])
@pytest.mark.parametrize("dist", list(Distribution))
@pytest.mark.parametrize("chunk", sorted(CHUNKS))
@pytest.mark.parametrize("kind", ["churn", "short"])
def test_streamed_trial_means_equal_the_whole_tensor(kind, chunk, dist, trials):
    # Every phase's first and last window, and the windows at the end of a
    # chunk and one step on from it.
    noise = noise_chunk(chunk, trials)
    config = make_config(kind, dist, noise, trials, 1)
    ks = set()
    for p in config.phases():
        c = chunk_rounds(noise, trials, p.n)
        ks |= {p.start_k + p.n - 1, p.stop_k, p.start_k + c, p.start_k + c + 1}
    windows = trial_windows(config, trials)  # read-only below: run them once
    for k in sorted(ks):
        try:
            with mock.patch.object(whole_tensor, "trial_windows", lambda *_: windows):
                want = oracle_trial_mean_estimates(config, trials, k)
        except WindowNotFullError:
            with pytest.raises(WindowNotFullError), \
                    mock.patch.object(engine, "NOISE_CHUNK", noise):
                streamed_trial_mean_estimates(config, trials, k)
            continue
        with mock.patch.object(engine, "NOISE_CHUNK", noise):
            nodes, mean, stderr = streamed_trial_mean_estimates(config, trials, k)
        assert nodes == want[0]
        assert np.array_equal(bits(mean), bits(want[1]))
        assert np.array_equal(bits(stderr), bits(want[2]))


@pytest.mark.parametrize("rows", [2, 3, N, N + 1, 64])
def test_chunks_handed_by_the_kernel_rebuild_each_phase(rows):
    # Step-major chunks of `rows` rows, as `metrics` lays them out, that
    # the caller overwrites once it has copied them: the states and the
    # messages are the bits of whole-phase buffers, and each chunk starts on
    # the state that ended the one before.
    config = make_config("churn", Distribution.LAPLACE, noise_chunk("n", 3), 3, 1)
    phases = config.phases()
    whole = [np.empty((p.stop_k - p.start_k + 1, 3, p.n)) for p in phases]
    want, got = [], []
    engine.simulate(config, 3, whole, record=record_into(want, 3))
    pieces = [[] for _ in phases]

    def flush(p, t, chunk):
        if t:
            assert np.array_equal(bits(chunk[0]), bits(pieces[p][-1][-1]))
        pieces[p].append(chunk.copy() if t == 0 else chunk[1:].copy())
        chunk[...] = np.nan

    buffers = (np.empty((min(rows, p.stop_k - p.start_k + 1), 3, p.n)) for p in phases)
    engine.simulate(config, 3, buffers, record=record_into(got, 3), flush=flush)
    for p, states in enumerate(whole):
        assert np.array_equal(bits(np.concatenate(pieces[p])), bits(states))
    assert [(k, s) for k, s, _ in got] == [(k, s) for k, s, _ in want]
    for (_, _, a), (_, _, b) in zip(got, want):
        assert np.array_equal(bits(a), bits(b))


def test_whole_phase_buffers_are_flushed_once_each():
    config = make_config("churn", Distribution.UNIFORM_SYMMETRIC, noise_chunk("n", 2), 2, 0)
    phases = config.phases()
    calls = []
    engine.simulate(config, 2, [np.empty((p.stop_k - p.start_k + 1, 2, p.n)) for p in phases],
                    flush=lambda p, t, rows: calls.append((p, t, len(rows))))
    assert calls == [(p, 0, q.stop_k - q.start_k + 1) for p, q in enumerate(phases)]


def _peak_bytes(config: ProtocolConfig, trials: int) -> int:
    tracemalloc.start()
    try:
        aggregate_trials(config, trials)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_aggregate_memory_does_not_grow_with_steps():
    # 100 trials of 10 members: 8000 steps would be a 64 MB state tensor.
    def config(steps):
        return ProtocolConfig.uniform(np.linspace(1.0, 10.0, 10), NoiseSchedule.harmonic(1.0, 1.0),
                                      Distribution.LAPLACE, steps, 3)

    short, long = _peak_bytes(config(1000), 100), _peak_bytes(config(8000), 100)
    assert long <= 1.25 * short
    assert long < 8001 * 100 * 10 * 8
