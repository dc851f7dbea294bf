"""The next chunk's noise, drawn while the caller reduces the last chunk.

When a chunk buffer is full where a noise chunk starts, `engine.simulate`
draws that chunk on the noise helper thread while `flush` runs. A draw's
values depend only on their coordinates, so neither the states nor the Monte
Carlo statistics may change a bit, on any number of noise workers; the
helper is no pool worker, so one worker cannot deadlock. Errors of either
side reach the caller, a flush's only once the draw in flight has finished,
the caller's numpy error state holds in the draw, and a forked child gets a
helper of its own.
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
    ProtocolConfig,
    aggregate_trials,
    engine,
    noise,
)
from whole_tensor import assert_same_aggregate, bits, oracle_aggregate_trials

SECRETS = [25.1698, 15.3211, 69.9334, 45.7828, 98.0388]
TRIALS = 13
LAYOUTS = {  # trials-major chunks with membership events, step-major without
    "dense": (),
    "churn": (Leave(30, node=5), Join(62, node=5, anchor=4, secret=SECRETS[-1])),
}
# Long enough for either side to reach the other; a run that does not
# overlap fails after this many seconds instead of hanging.
TIMEOUT_S = 5.0


@pytest.fixture(scope="module")
def pools():
    pools = {w: ThreadPoolExecutor(w) for w in (1, 2, 4)}
    yield pools
    for pool in pools.values():
        pool.shutdown()


def make_config(layout: str, steps: int = 95, c: float = 1000.0) -> ProtocolConfig:
    return ProtocolConfig.uniform(SECRETS, NoiseSchedule.harmonic(c, 1.0), Distribution.GAUSSIAN,
                                  steps, 11, LAYOUTS[layout])


def buffers(config: ProtocolConfig, trials: int):
    """Chunk buffers as `metrics` sizes and lays them out: a noise chunk's
    rounds, but at least n, plus the state that ends the chunk before."""
    for p in config.phases():
        rows = min(p.stop_k - p.start_k, max(engine.chunk_rounds(trials, p.n), p.n)) + 1
        if config.events:
            yield np.empty((trials, rows, p.n)).swapaxes(0, 1)
        else:
            yield np.empty((rows, trials, p.n))


def chunked_states(config: ProtocolConfig, trials: int) -> list[np.ndarray]:
    """Each phase's states, put together from the chunks `flush` is handed."""
    pieces = [[] for _ in config.phases()]

    def flush(p, t, rows):
        pieces[p].append(rows[1 if t else 0 :].copy())
        rows[...] = np.nan  # the caller may overwrite what it is handed

    engine.simulate(config, trials, buffers(config, trials), flush=flush)
    return [np.concatenate(chunks) for chunks in pieces]


def in_turn(draw, work=lambda: None):
    """The order before the overlap: the chunk's noise, then the flush."""
    betas = draw()
    work()
    return betas


@pytest.mark.parametrize("workers", [1, 2, 4])
@pytest.mark.parametrize("rounds", [2, 7, None])
@pytest.mark.parametrize("layout", sorted(LAYOUTS))
def test_overlapped_runs_equal_the_in_turn_ones(pools, layout, rounds, workers):
    # Noise chunks of 2 rounds meet the buffers of n + 1 rows every 10
    # rounds, those of 7 rounds every 7; the default chunk holds each phase
    # whole, so nothing overlaps. Blocks of 64 values put every draw on the pool.
    config = make_config(layout)
    chunk = engine.NOISE_CHUNK if rounds is None else rounds * TRIALS * len(SECRETS)
    beside, overlaps = engine._beside, []

    def counted(draw, *work):
        overlaps.append(draw)
        return beside(draw, *work)

    with mock.patch.object(engine, "NOISE_CHUNK", chunk), \
            mock.patch.object(noise, "NOISE_BLOCK", 1 << 6), \
            mock.patch.object(noise, "_POOL", pools[workers]):
        with mock.patch.object(engine, "_beside", counted):
            got_states, got = chunked_states(config, TRIALS), aggregate_trials(config, TRIALS)
        with mock.patch.object(engine, "_beside", in_turn):
            want_states, want = chunked_states(config, TRIALS), aggregate_trials(config, TRIALS)
        whole = [np.empty((p.stop_k - p.start_k + 1, TRIALS, p.n)) for p in config.phases()]
        engine.simulate(config, TRIALS, whole)
    assert bool(overlaps) == (rounds is not None)
    for a, b, c in zip(got_states, want_states, whole, strict=True):
        assert np.array_equal(bits(a), bits(b))
        assert np.array_equal(bits(a), bits(c))
    assert_same_aggregate(got, want)
    assert_same_aggregate(got, oracle_aggregate_trials(config, TRIALS))


@pytest.mark.parametrize("workers", [1, 4])
def test_the_next_draw_runs_while_the_chunk_is_flushed(pools, workers):
    # Each flush waits until the draw of the chunk after it has begun, and
    # that draw waits until the flush has begun: run one after the other,
    # in either order, the waits time out.
    config = make_config("dense", steps=30)
    block, seen = engine.noise_block, []
    drawing, flushing = {}, {}

    def event(events, k):
        return events.setdefault(k, threading.Event())

    def spy_block(source, dist, order, schedules, ks, trials, node_major=False):
        k0 = int(ks[0])
        if k0 > 0:
            event(drawing, k0).set()
            seen.append(("draw", k0, event(flushing, k0).wait(TIMEOUT_S)))
        return block(source, dist, order, schedules, ks, trials, node_major)

    def flush(p, t, rows):
        k_next = t + len(rows) - 1
        if k_next < config.steps:
            event(flushing, k_next).set()
            seen.append(("flush", k_next, event(drawing, k_next).wait(TIMEOUT_S)))

    with mock.patch.object(engine, "NOISE_CHUNK", 7 * 2 * len(SECRETS)), \
            mock.patch.object(noise, "NOISE_BLOCK", 1 << 6), \
            mock.patch.object(noise, "_POOL", pools[workers]), \
            mock.patch.object(engine, "noise_block", spy_block):
        engine.simulate(config, 2, buffers(config, 2), flush=flush)
    assert sorted(seen) == sorted([(side, k, True) for k in (7, 14, 21, 28)
                                   for side in ("draw", "flush")])


class FlushError(Exception):
    pass


class DrawError(Exception):
    pass


def test_a_flush_error_comes_out_once_the_draw_in_flight_has_finished():
    config = make_config("dense", steps=30)
    block, drawing, drawn = engine.noise_block, threading.Event(), threading.Event()

    def slow_block(*args):
        if int(args[4][0]) == 0:
            return block(*args)
        drawing.set()
        time.sleep(0.2)
        try:
            return block(*args)
        finally:
            drawn.set()

    def flush(p, t, rows):
        assert drawing.wait(TIMEOUT_S)
        raise FlushError

    with mock.patch.object(engine, "NOISE_CHUNK", 7 * 2 * len(SECRETS)), \
            mock.patch.object(engine, "noise_block", slow_block), pytest.raises(FlushError):
        engine.simulate(config, 2, buffers(config, 2), flush=flush)
    assert drawn.is_set()


def test_a_draw_error_reaches_the_caller():
    config = make_config("churn")
    block, flushed = engine.noise_block, []

    def failing_block(*args):
        if int(args[4][0]) == 14:
            raise DrawError
        return block(*args)

    with mock.patch.object(engine, "NOISE_CHUNK", 7 * 2 * len(SECRETS)), \
            mock.patch.object(engine, "noise_block", failing_block), pytest.raises(DrawError):
        engine.simulate(config, 2, buffers(config, 2),
                        flush=lambda p, t, rows: flushed.append(t + len(rows) - 1))
    assert flushed == [7, 14]  # the flush beside the failing draw ran to its end


@pytest.mark.parametrize("layout", ["whole", "chunked"])
def test_the_callers_error_state_holds_in_an_overlapped_draw(pools, layout):
    # Gaussian noise at a scale near the largest double overflows in the
    # final product, which a pool worker computes; only the chunk that
    # starts at `first` draws at that scale: with whole-phase buffers a
    # draw of this thread, with chunk buffers one beside a flush. Each round
    # just sets the state to its noise, so that no arithmetic on this
    # thread meets the overflow.
    config, first = make_config("dense", steps=30), 0 if layout == "whole" else 14
    huge = [NoiseSchedule.harmonic(1.7e308, 0.0)] * len(SECRETS)
    block, beside, overlapped = engine.noise_block, engine._beside, []

    def huge_block(source, dist, order, schedules, ks, trials, node_major=False):
        if int(ks[0]) == first:
            schedules, ks = huge, np.ones_like(ks)  # every draw at scale 1.7e308
        return block(source, dist, order, schedules, ks, trials, node_major)

    def tracked(draw, *work):
        if work:
            overlapped.append(draw.args[4][0])
        return beside(draw, *work)

    def noise_round(x, beta, order, out, leaver=None, secret=0.0):
        out[...] = beta
        return order, beta

    def states():
        if layout == "whole":
            return [np.empty((p.stop_k - p.start_k + 1, 200, p.n)) for p in config.phases()]
        return buffers(config, 200)

    with mock.patch.object(engine, "NOISE_CHUNK", 7 * 200 * len(SECRETS)), \
            mock.patch.object(noise, "NOISE_BLOCK", 1 << 10), \
            mock.patch.object(noise, "_POOL", pools[4]), \
            mock.patch.object(engine, "noise_block", huge_block), \
            mock.patch.object(engine, "_beside", tracked), \
            mock.patch.object(engine, "_round", noise_round):
        with np.errstate(over="raise"), pytest.raises(FloatingPointError, match="overflow"):
            engine.simulate(config, 200, states(), flush=lambda *_: None)
        with np.errstate(over="ignore"):
            engine.simulate(config, 200, states(), flush=lambda *_: None)
    assert (first in overlapped) == (layout == "chunked")


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_a_forked_child_draws_on_its_own_helper():
    # The child inherits the helper's executor but not its thread; a draw
    # handed to it would never run.
    config = make_config("dense")
    with mock.patch.object(engine, "NOISE_CHUNK", 7 * TRIALS * len(SECRETS)):
        want = aggregate_trials(config, TRIALS)  # starts the helper
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
    assert done[0] == pid, "the forked child hung on the inherited helper"
    assert os.waitstatus_to_exitcode(done[1]) == 0
