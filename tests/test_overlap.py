"""The next chunk's noise, drawn on the noise pool while the caller flushes.

A phase whose states buffer is shorter than the phase draws its noise a
buffer's rounds at a time into one noise buffer, so every draw after the
first starts with the buffer full: `noise.run_tasks` submits the draw's
blocks and the calling thread runs the `flush` meanwhile. A draw's values
depend only on their coordinates, so neither the states nor the Monte Carlo
statistics may change a bit, on any number of noise workers; the caller is
no pool worker, so one worker cannot deadlock. Every block finishes before
an error reaches the caller, and a flush's error goes first; the caller's
numpy error state holds in the blocks, and a forked child gets a pool of
its own.
"""
import os
import signal
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from unittest import mock

import numpy as np
import pytest

from ringsum import (
    Distribution,
    Join,
    Leave,
    NoiseSchedule,
    NoiseSource,
    ProtocolConfig,
    aggregate_trials,
    engine,
    noise,
)
from whole_tensor import assert_same_aggregate, bits, oracle_aggregate_trials

SECRETS = [25.1698, 15.3211, 69.9334, 45.7828, 98.0388]
TRIALS = 13
CONFIGS = {  # the membership events of each config
    "dense": (),
    "events": (Leave(30, node=5), Join(62, node=5, anchor=4, secret=SECRETS[-1])),
}
# Long enough for either side to reach the other; a run that does not
# overlap fails after this many seconds instead of hanging.
TIMEOUT_S = 5.0
# Noise chunks of 7 rounds of 2 trials: 70 values, two blocks of 64 values.
SMALL_CHUNK = 7 * 2 * len(SECRETS)


@pytest.fixture(scope="module")
def pools():
    pools = {w: ThreadPoolExecutor(w) for w in (1, 2, 4)}
    yield pools
    for pool in pools.values():
        pool.shutdown()


def make_config(name: str, steps: int = 95, c: float = 1000.0) -> ProtocolConfig:
    return ProtocolConfig.uniform(SECRETS, NoiseSchedule.harmonic(c, 1.0), Distribution.GAUSSIAN,
                                  steps, 11, CONFIGS[name])


def buffers(config: ProtocolConfig, trials: int):
    """Chunk buffers as `metrics` sizes and lays them out: a noise chunk's
    rounds, but at least n, plus the state that ends the chunk before, step-major."""
    for p in config.phases():
        rows = min(p.stop_k - p.start_k, max(engine.chunk_rounds(trials, p.n), p.n)) + 1
        yield np.empty((rows, trials, p.n))


def chunked_states(config: ProtocolConfig, trials: int) -> list[np.ndarray]:
    """Each phase's states, put together from the chunks `flush` is handed."""
    pieces = [[] for _ in config.phases()]

    def flush(p, t, rows):
        pieces[p].append(rows[1 if t else 0 :].copy())
        rows[...] = np.nan  # the caller may overwrite what it is handed

    engine.simulate(config, trials, buffers(config, trials), flush=flush)
    return [np.concatenate(chunks) for chunks in pieces]


def draws_of(calls: list):
    """A noise_block that notes (first k, the `beside` passed, `out`) of each call."""
    block = engine.noise_block

    def spy(*args, **kw):
        calls.append((int(args[4][0]), kw.get("beside"), kw.get("out")))
        return block(*args, **kw)

    return spy


@pytest.mark.parametrize("workers", [1, 2, 4])
@pytest.mark.parametrize("rounds", [2, 7, None])
@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_overlapped_runs_equal_the_whole_phase_ones(pools, name, rounds, workers):
    # Noise chunks of 2 rounds meet buffers of n + 1 rows, so each draw is
    # n rounds, more than a noise chunk; chunks of 7 rounds draw 7. The
    # default chunk holds each phase whole, so nothing overlaps. Blocks of
    # 64 values put every draw on the pool.
    config = make_config(name)
    chunk = engine.NOISE_CHUNK if rounds is None else rounds * TRIALS * len(SECRETS)
    calls = []
    with mock.patch.object(engine, "NOISE_CHUNK", chunk), \
            mock.patch.object(noise, "NOISE_BLOCK", 1 << 6), \
            mock.patch.object(noise, "_POOL", pools[workers]):
        with mock.patch.object(engine, "noise_block", draws_of(calls)):
            got_states, got = chunked_states(config, TRIALS), aggregate_trials(config, TRIALS)
        whole = [np.empty((p.stop_k - p.start_k + 1, TRIALS, p.n)) for p in config.phases()]
        engine.simulate(config, TRIALS, whole)
    for a, b in zip(got_states, whole, strict=True):
        assert np.array_equal(bits(a), bits(b))
    assert_same_aggregate(got, oracle_aggregate_trials(config, TRIALS))
    for phase in config.phases():
        mine = [call for call in calls[: len(calls) // 2]
                if phase.start_k <= call[0] < phase.stop_k + (phase.leaver is not None)]
        # Every draw of the phase writes into one buffer ...
        assert len({out.__array_interface__["data"][0] for _, _, out in mine}) == 1
        # ... and in a chunked phase every draw after the first runs beside
        # a flush, except one of the departure round alone.
        assert [beside is not None for _, beside, _ in mine] == [
            rounds is not None and phase.start_k < k0 < phase.stop_k for k0, _, _ in mine]


@pytest.mark.parametrize("workers", [1, 4])
def test_a_block_of_the_next_chunk_starts_before_the_flush_returns(pools, workers):
    # Each flush waits until a block of the chunk after it has started, and
    # each such block waits until that flush has begun: run one after the
    # other, in either order, the waits time out. Every chunk has 7 rounds,
    # two blocks: a draw of one block runs on this thread, after the flush.
    config = make_config("dense", steps=35)
    fill, block, drawing = noise._fill, engine.noise_block, {}
    flushing, started, seen = {}, {}, []

    def event(events, k):
        return events.setdefault(k, threading.Event())

    def spy_block(*args, **kw):
        drawing["k0"] = int(args[4][0])
        return block(*args, **kw)

    def spy_fill(*args):
        k0 = drawing["k0"]
        if k0 > 0:
            event(started, k0).set()
            seen.append(("block", k0, event(flushing, k0).wait(TIMEOUT_S)))
        return fill(*args)

    def flush(p, t, rows):
        k_next = t + len(rows) - 1
        if k_next < config.steps:
            event(flushing, k_next).set()
            seen.append(("flush", k_next, event(started, k_next).wait(TIMEOUT_S)))

    with mock.patch.object(engine, "NOISE_CHUNK", SMALL_CHUNK), \
            mock.patch.object(noise, "NOISE_BLOCK", 1 << 6), \
            mock.patch.object(noise, "_POOL", pools[workers]), \
            mock.patch.object(engine, "noise_block", spy_block), \
            mock.patch.object(noise, "_fill", spy_fill):
        engine.simulate(config, 2, buffers(config, 2), flush=flush)
    assert all(ok for _, _, ok in seen), seen
    assert sorted({(side, k) for side, k, _ in seen}) == sorted(
        (side, k) for k in (7, 14, 21, 28) for side in ("block", "flush"))


class FlushError(Exception):
    pass


class BlockError(Exception):
    pass


def test_a_flush_error_comes_out_once_every_block_has_finished(pools):
    config = make_config("dense", steps=30)
    fill, lock, finished = noise._fill, threading.Lock(), []

    def slow_fill(*args):
        time.sleep(0.2)
        fill(*args)
        with lock:
            finished.append(args[1])

    def flush(p, t, rows):
        raise FlushError

    # The first chunk's two blocks draw before any flush; the second's run
    # beside the flush that fails.
    with mock.patch.object(engine, "NOISE_CHUNK", SMALL_CHUNK), \
            mock.patch.object(noise, "NOISE_BLOCK", 1 << 6), \
            mock.patch.object(noise, "_POOL", pools[4]), \
            mock.patch.object(noise, "_fill", slow_fill), pytest.raises(FlushError):
        engine.simulate(config, 2, buffers(config, 2), flush=flush)
    assert len(finished) == 4


@pytest.mark.parametrize("block_values", [1 << 6, noise.NOISE_BLOCK])
def test_a_block_error_reaches_the_caller_after_the_flush(pools, block_values):
    # Blocks of 64 values put the failing draw on the pool; the default
    # block draws it in one task on this thread.
    config = make_config("events")
    fill, block, drawing, flushed = noise._fill, engine.noise_block, {}, []

    def spy_block(*args, **kw):
        drawing["k0"] = int(args[4][0])
        return block(*args, **kw)

    def failing_fill(*args):
        if drawing["k0"] == 14:
            raise BlockError
        return fill(*args)

    with mock.patch.object(engine, "NOISE_CHUNK", SMALL_CHUNK), \
            mock.patch.object(noise, "NOISE_BLOCK", block_values), \
            mock.patch.object(noise, "_POOL", pools[2]), \
            mock.patch.object(engine, "noise_block", spy_block), \
            mock.patch.object(noise, "_fill", failing_fill), pytest.raises(BlockError):
        engine.simulate(config, 2, buffers(config, 2),
                        flush=lambda p, t, rows: flushed.append(t + len(rows) - 1))
    assert flushed == [7, 14]  # the flush beside the failing draw ran to its end


@pytest.mark.parametrize("layout", ["whole", "chunked"])
def test_the_callers_error_state_holds_in_the_overlapped_blocks(pools, layout):
    # Gaussian noise at a scale near the largest double overflows in the
    # final product, which a pool worker computes; only the chunk that
    # starts at `first` draws at that scale: with whole-phase buffers a
    # draw on its own, with chunk buffers one beside a flush. Each round
    # just sets the state to its noise, so that no arithmetic on this
    # thread meets the overflow.
    config, first = make_config("dense", steps=30), 0 if layout == "whole" else 14
    huge = [NoiseSchedule.harmonic(1.7e308, 0.0)] * len(SECRETS)
    block, overlapped = engine.noise_block, []

    def huge_block(source, dist, order, schedules, ks, trials, node_major=False, **kw):
        if int(ks[0]) == first:
            schedules, ks = huge, np.ones_like(ks)  # every draw at scale 1.7e308
            overlapped.append("beside" in kw)
        return block(source, dist, order, schedules, ks, trials, node_major, **kw)

    def noise_round(x, beta, order, out, sink, leaver=None, secret=0.0):
        out[...] = beta

    def states():
        if layout == "whole":
            return [np.empty((p.stop_k - p.start_k + 1, 200, p.n)) for p in config.phases()]
        return buffers(config, 200)

    with mock.patch.object(engine, "NOISE_CHUNK", 7 * 200 * len(SECRETS)), \
            mock.patch.object(noise, "NOISE_BLOCK", 1 << 10), \
            mock.patch.object(noise, "_POOL", pools[4]), \
            mock.patch.object(engine, "noise_block", huge_block), \
            mock.patch.object(engine, "_round", noise_round):
        with np.errstate(over="raise"), pytest.raises(FloatingPointError, match="overflow"):
            engine.simulate(config, 200, states(), flush=lambda *_: None)
        with np.errstate(over="ignore"):
            engine.simulate(config, 200, states(), flush=lambda *_: None)
    assert overlapped == [layout == "chunked"] * 2


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_a_forked_child_streams_an_aggregate_on_its_own_pool():
    # The child inherits the pool object but none of its threads; a block
    # handed to that pool would never run, and the flush beside it would
    # wait for it for ever.
    config = make_config("dense")
    with mock.patch.object(engine, "NOISE_CHUNK", 7 * TRIALS * len(SECRETS)), \
            mock.patch.object(noise, "NOISE_BLOCK", 1 << 6):
        want = aggregate_trials(config, TRIALS)  # starts the pool
        pid = os.fork()
        if pid == 0:  # pragma: no cover - the child
            got = aggregate_trials(config, TRIALS)
            same = all(np.array_equal(bits(getattr(got, name)), bits(getattr(want, name)))
                       for name in ("mean_abs_error", "mae_stderr", "sum_variance",
                                    "sum_variance_stderr"))
            os._exit(0 if same else 1)
    deadline = time.monotonic() + 20
    while (done := os.waitpid(pid, os.WNOHANG))[0] == 0 and time.monotonic() < deadline:
        time.sleep(0.05)
    if done[0] == 0:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
    assert done[0] == pid, "the forked child hung on the inherited pool"
    assert os.waitstatus_to_exitcode(done[1]) == 0


@pytest.mark.parametrize("trials", [0, 1, 10, 200])
def test_beside_runs_exactly_once_per_draw(pools, trials):
    # No block, one block (drawn on this thread) and several on the pool.
    calls, ids = [], np.arange(trials, dtype=np.uint64)
    with mock.patch.object(noise, "NOISE_BLOCK", 1 << 6), \
            mock.patch.object(noise, "_POOL", pools[2]):
        got = NoiseSource(3).sample(2, 5, ids, 1.5, Distribution.GAUSSIAN,
                                    beside=lambda: calls.append(1))
    assert calls == [1]
    assert np.array_equal(bits(got), bits(NoiseSource(3).sample(2, 5, ids, 1.5,
                                                                Distribution.GAUSSIAN)))


def test_a_draw_into_out_returns_out_with_the_same_bits():
    ids = np.arange(300, dtype=np.uint64)[:, None]
    want = NoiseSource(3).sample(np.arange(4, dtype=np.uint64), 5, ids, 1.5, Distribution.LAPLACE)
    out = np.full((300, 4), np.nan)
    got = NoiseSource(3).sample(np.arange(4, dtype=np.uint64), 5, ids, 1.5, Distribution.LAPLACE,
                                out=out)
    assert got is out
    assert np.array_equal(bits(got), bits(want))


@pytest.mark.parametrize("out", [
    np.empty((300, 5)),               # the wrong shape
    np.empty(1200),                   # the right size, flat
    np.empty((300, 4), np.float32),   # the wrong dtype
    np.empty((4, 300)).T,             # not C-contiguous
    np.empty((300, 8))[:, ::2],       # strided
])
def test_a_bad_out_raises_before_any_draw(out):
    calls = []
    with mock.patch.object(noise, "_fill", lambda *args: calls.append("fill")), \
            pytest.raises(ValueError, match="C-contiguous float64"):
        NoiseSource(3).sample(np.arange(4, dtype=np.uint64), 5,
                              np.arange(300, dtype=np.uint64)[:, None], 1.5, Distribution.GAUSSIAN,
                              out=out, beside=lambda: calls.append("beside"))
    assert calls == []
