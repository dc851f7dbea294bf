"""Blocked, threaded noise and chunked statistics against the code they replaced.

The oracles are the allocating noise pipeline (`_hash`, `_to_unit` and the
`NoiseSource` methods), kept verbatim below (only renamed, with the Laplace
draw's clamp at u = 1.0 added), and the whole-tensor Monte Carlo statistics
of `whole_tensor.py`; and `two_d_round`, the hand-off of `engine._round`
spelled as two 2-D adds on rows of any layout. The noise is now drawn in
blocks, in place, on a thread pool, the statistics are streamed in chunks
of rounds, and contiguous rows take the hand-off as one flat add; none may
change a bit, whatever the block size, the worker count, the chunk or the
memory layout.
"""
import itertools
import math
import os
import signal
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from ringsum import Distribution, Join, Leave, NoiseSchedule, NoiseSource, ProtocolConfig, noise
from ringsum import engine
from ringsum.metrics import aggregate_trials
from stepping_engine import record_into
from whole_tensor import assert_same_aggregate, oracle_aggregate_trials, trial_windows


# -- the allocating noise pipeline ---------------------------------------------

_MASK64 = (1 << 64) - 1
_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)

SLOT_BETA = 0
SLOT_BETA_AUX = 1
SLOT_CLOCK = 2

_SQRT3 = math.sqrt(3.0)


def _fmix64(z: np.ndarray) -> np.ndarray:
    z = (z ^ (z >> np.uint64(30))) * _MIX1
    z = (z ^ (z >> np.uint64(27))) * _MIX2
    return z ^ (z >> np.uint64(31))


def _hash(seed: int, node, k, trial, slot) -> np.ndarray:
    """Hash the index tuple into a uint64 array (broadcasting over inputs)."""
    with np.errstate(over="ignore"):
        z = _fmix64(np.uint64(seed & _MASK64) + _GOLDEN)
        for part in (node, k, trial, slot):
            p = np.asarray(part, dtype=np.uint64)
            z = _fmix64(z ^ ((p + _GOLDEN) * _MIX1))
        return z


def _to_unit(z: np.ndarray) -> np.ndarray:
    # Open interval (0, 1): the +0.5 keeps log() and log1p() finite.
    return ((z >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0**-53


class OracleSource:
    """Counter-based stream of zero-mean noise, keyed by a 64-bit master seed."""

    def __init__(self, master_seed: int):
        self.master_seed = master_seed

    def sample(self, node, k, trial, scale, dist: Distribution):
        """Zero-mean sample(s) at the given scale.

        Gaussian / symmetric-uniform treat `scale` as the standard deviation;
        Laplace treats it as the scale parameter b (variance 2 b**2).
        """
        u1 = _to_unit(_hash(self.master_seed, node, k, trial, SLOT_BETA))
        scale = np.asarray(scale, dtype=np.float64)
        if dist is Distribution.GAUSSIAN:
            u2 = _to_unit(_hash(self.master_seed, node, k, trial, SLOT_BETA_AUX))
            z = np.sqrt(-2.0 * np.log(u1)) * np.cos(2.0 * np.pi * u2)
            out = scale * z
        elif dist is Distribution.LAPLACE:
            # Branchless inverse CDF: sign(t) * -ln(1 - 2|t|), t = u - 1/2.
            # u = 1.0 (b = 2**53 - 1) takes the exact u = 1 - 2**-54 instead.
            t = u1 - 0.5
            out = -scale * np.sign(t) * np.log1p(np.maximum(-2.0 * np.abs(t), -1.0 + 2.0**-53))
        elif dist is Distribution.UNIFORM_SYMMETRIC:
            out = scale * _SQRT3 * (2.0 * u1 - 1.0)
        else:  # pragma: no cover - enum is closed
            raise ValueError(f"unknown distribution {dist}")
        return float(out) if out.ndim == 0 else out

    def clock_gap(self, node, tick_index, trial, rate: float):
        """Exponential inter-tick gap with the given Poisson rate."""
        u = _to_unit(_hash(self.master_seed, node, tick_index, trial, SLOT_CLOCK))
        gap = -np.log(u) / rate
        return float(gap) if gap.ndim == 0 else gap


# -- the blocked draws equal the oracle ---------------------------------------


@pytest.fixture(scope="module")
def pools():
    pools = {w: ThreadPoolExecutor(w) for w in (1, 2, 4)}
    yield pools
    for pool in pools.values():
        pool.shutdown()


def bits(values) -> np.ndarray:
    return np.asarray(values, dtype=np.float64).view(np.uint64)


def assert_same_draws(got, want) -> None:
    # The oracle returns a float for scalar coordinates, the blocked draw an
    # array of one value.
    want = np.atleast_1d(want)
    assert type(got) is np.ndarray and got.shape == want.shape
    assert np.array_equal(bits(got), bits(want))


SPECIAL = [math.nan, math.inf, -math.inf, 0.0, -0.0]
U_ONE_TRIALS = np.arange(4418893527435787700, 4418893527435787800, dtype=np.uint64)[:, None]
U_HALF_TRIALS = np.arange(892875904756025900, 892875904756026000, dtype=np.uint64)[:, None]
scales = st.one_of(st.sampled_from(SPECIAL), st.floats(allow_nan=True, allow_infinity=True))


@st.composite
def coordinates(draw):
    """(node, k, trial, scale) in one of the layouts the callers use."""
    layout = draw(st.sampled_from(["scalar", "ticks", "rounds", "audit"]))
    node = draw(st.integers(0, 2**64 - 1))
    k = draw(st.integers(0, 2**64 - 1))
    trial = draw(st.integers(0, 2**64 - 1))
    if layout == "scalar":
        return node, k, trial, draw(scales)
    if layout == "ticks":  # one node's ticks, none at all included
        m = draw(st.integers(0, 3000))
        ks = np.arange(k % 2**32, k % 2**32 + m, dtype=np.uint64)
        scale = np.abs(np.random.default_rng(k % 2**32).standard_normal(m))
        scale[: len(SPECIAL)] = SPECIAL[:m]
        return node, ks, trial, scale
    n = draw(st.integers(1, 7))
    nodes = np.arange(node % 2**32, node % 2**32 + n, dtype=np.uint64)
    if layout == "rounds":  # engine.noise_block: (steps, trials, members)
        steps, trials = draw(st.integers(1, 60)), draw(st.integers(1, 80))
        ks = np.arange(k % 2**32, k % 2**32 + steps, dtype=np.uint64)[:, None, None]
        special = np.array(draw(st.lists(scales, min_size=n, max_size=n)))
        scale = np.abs(np.random.default_rng(k % 2**32).standard_normal((steps, 1, n)))
        scale[0, 0] = special  # one step of special scales, the rest plain ones
        return nodes, ks, np.arange(trials, dtype=np.uint64)[:, None], scale
    # the DP audit: one step, many trials, (1, trials, members)
    trials = np.arange(trial % 2**32, trial % 2**32 + draw(st.integers(1, 6000)),
                       dtype=np.uint64)[:, None]
    scale = np.array(draw(st.lists(scales, min_size=n, max_size=n)))[None, None, :]
    return nodes, np.array([[[k]]], dtype=np.uint64), trials, scale


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**64 - 1),
    coords=coordinates(),
    kind=st.sampled_from([*Distribution, "clock_gap"]),
    rate=st.floats(1e-3, 1e3),
    block_log2=st.integers(6, 18),
    workers=st.sampled_from([1, 2, 4]),
)
# A node with no ticks, and a scalar draw at scale -0.0.
@example(seed=1, coords=(3, np.arange(0, dtype=np.uint64), 0, np.array([])),
         kind=Distribution.GAUSSIAN, rate=1.0, block_log2=6, workers=2)
@example(seed=1, coords=(3, 5, 7, -0.0), kind=Distribution.LAPLACE, rate=1.0,
         block_log2=6, workers=4)
# Blocks around the trial whose uniform rounds to 1.0 at seed 0, node 1, step 0.
@example(seed=0, coords=(1, 0, U_ONE_TRIALS, np.array([2.0, -0.0])), kind=Distribution.LAPLACE,
         rate=1.0, block_log2=6, workers=2)
# And around the trial whose uniform is exactly 1/2 there.
@example(seed=0, coords=(1, 0, U_HALF_TRIALS, np.array([2.0, -0.0])), kind=Distribution.LAPLACE,
         rate=1.0, block_log2=6, workers=2)
def test_blocked_draws_equal_the_allocating_pipeline(pools, seed, coords, kind, rate,
                                                     block_log2, workers):
    node, k, trial, scale = coords
    src, ref = NoiseSource(seed), OracleSource(seed)
    with mock.patch.object(noise, "NOISE_BLOCK", 1 << block_log2), \
            mock.patch.object(noise, "_POOL", pools[workers]), np.errstate(all="ignore"):
        if kind == "clock_gap":
            got, want = src.clock_gap(node, k, trial, rate), ref.clock_gap(node, k, trial, rate)
        else:
            got, want = src.sample(node, k, trial, scale, kind), ref.sample(node, k, trial, scale, kind)
    assert_same_draws(got, want)


@pytest.mark.parametrize("workers", [1, 2, 4])
@pytest.mark.parametrize("block_log2", [6, 16, 18])
@pytest.mark.parametrize("dist", list(Distribution))
def test_rows_larger_than_a_block_are_cut_too(pools, workers, block_log2, dist):
    # 300k draws in one step, as the DP audit draws them: the leading axis
    # has length 1, so the blocks run along each row.
    nodes = np.arange(1, 4, dtype=np.uint64)
    trials = np.arange(100_000, dtype=np.uint64)[:, None]
    ks, scale = np.array([[[2]]], dtype=np.uint64), np.array([[[0.5, 1.0, -0.0]]])
    with mock.patch.object(noise, "NOISE_BLOCK", 1 << block_log2), \
            mock.patch.object(noise, "_POOL", pools[workers]):
        got = NoiseSource(9).sample(nodes, ks, trials, scale, dist)
    assert_same_draws(got, OracleSource(9).sample(nodes, ks, trials, scale, dist))


def test_the_callers_error_state_holds_in_the_workers(pools):
    # Gaussian noise at a scale near the largest double overflows in the
    # final product, which a worker thread computes.
    trials = np.arange(50_000, dtype=np.uint64)[:, None]
    with mock.patch.object(noise, "NOISE_BLOCK", 1 << 10), \
            mock.patch.object(noise, "_POOL", pools[4]):
        with np.errstate(over="raise"), pytest.raises(FloatingPointError):
            NoiseSource(1).sample(1, 0, trials, 1.7e308, Distribution.GAUSSIAN)
        with np.errstate(over="ignore"):
            got = NoiseSource(1).sample(1, 0, trials, 1.7e308, Distribution.GAUSSIAN)
    with np.errstate(over="ignore"):
        assert_same_draws(got, OracleSource(1).sample(1, 0, trials, 1.7e308, Distribution.GAUSSIAN))


def test_concurrent_callers_on_one_pool_get_their_own_draws(pools):
    # Three callers share four workers on fewer cores, switching threads
    # often; a block written with another call's or another worker's
    # scratch would show up as wrong bits.
    nodes, trials = np.arange(1, 4, dtype=np.uint64), np.arange(20_000, dtype=np.uint64)[:, None]
    want = {seed: OracleSource(seed).sample(nodes, 0, trials, 1.0, Distribution.GAUSSIAN)
            for seed in range(6)}
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with mock.patch.object(noise, "NOISE_BLOCK", 1 << 10), \
                mock.patch.object(noise, "_POOL", pools[4]), ThreadPoolExecutor(3) as callers:
            draws = callers.map(
                lambda seed: NoiseSource(seed).sample(nodes, 0, trials, 1.0, Distribution.GAUSSIAN),
                want, timeout=60)
            got = dict(zip(want, draws))
    finally:
        sys.setswitchinterval(switch)
    for seed, values in want.items():
        assert_same_draws(got[seed], values)


def test_block_cuts_cover_the_output_once():
    for shape in [(7,), (5, 3), (1, 1000, 3), (3, 40, 7), (2, 1, 300)]:
        for size in (1, 2, 64, 100, 1 << 16):
            hits = np.zeros(shape, dtype=int)
            for idx in noise._blocks(shape, size):
                block = hits[idx]
                assert block.size <= size and block.flags.c_contiguous
                block += 1
            assert np.all(hits == 1)


# -- states in any layout equal those of the 2-D hand-off -----------------------


ROWS = {  # row t of each is a (trials, n) view, C-contiguous only if "contiguous"
    "contiguous": lambda steps, trials, n: np.empty((steps, trials, n)),
    "trials-major": lambda steps, trials, n: np.empty((trials, steps, n)).swapaxes(0, 1),
    # node-major: the trial stride is the smaller
    "columns": lambda steps, trials, n: np.empty((steps, n, trials)).swapaxes(1, 2),
    "fortran": lambda steps, trials, n: np.empty((n, trials, steps)).T,
}
NODE_MAJOR = ("columns", "fortran")
RINGS = {  # a leave (whose departure round drops a column of the messages) and a join
    3: (Join(9, node=6, anchor=2, secret=-7.5), Leave(17, node=1)),
    5: (Leave(9, node=2), Join(17, node=6, anchor=4, secret=-7.5)),
    10: (Leave(9, node=2), Join(17, node=11, anchor=4, secret=-7.5)),
}


def two_d_round(x, beta, order, out, sink, leaver=None, secret=0.0):
    """`engine._round` with the hand-off spelled as two 2-D adds, whatever the rows."""
    if leaver is None:
        d = np.subtract(x, beta, out=sink(order))
    else:
        d = x - beta
        d[:, leaver] = x[:, leaver] - secret
    np.add(beta[:, 1:], d[:, :-1], out=out[:, 1:])
    np.add(beta[:, :1], d[:, -1:], out=out[:, :1])
    if leaver is not None:
        pi = (leaver - 1) % len(order)
        out[:, pi] = x[:, pi] + d[:, pi - 1]
        if (sent := sink(order[:pi] + order[pi + 1 :])) is not None:
            sent[:, :pi], sent[:, pi:] = d[:, :pi], d[:, pi + 1 :]


@pytest.mark.parametrize("workers", [1, 2, 4])
@pytest.mark.parametrize("layout", sorted(ROWS))
@pytest.mark.parametrize("dist", list(Distribution))
def test_node_major_states_equal_trial_major_ones(pools, dist, layout, workers):
    # Rings of 3 to 10 members on 1 to 9 trials, against contiguous rows
    # whose hand-off is spelled as two 2-D adds: contiguous rows take the
    # flat add, the others the 2-D one, node-major rows with node-major
    # noise. States and messages must be the same bits, the departure round
    # included. Blocks of 64 values, so that the pool draws every call.
    block = engine.noise_block
    for (members, events), trials in itertools.product(RINGS.items(), range(1, 10)):
        config = ProtocolConfig.uniform(np.linspace(-20.0, 70.0, members),
                                        NoiseSchedule.harmonic(3.0, 1.0), dist, 30, 8, events)
        phases = config.phases()
        lengths = [p.stop_k - p.start_k + 1 for p in phases]
        want_states = [ROWS["contiguous"](m, trials, p.n) for m, p in zip(lengths, phases)]
        got_states = [ROWS[layout](m, trials, p.n) for m, p in zip(lengths, phases)]
        want, got, orders = [], [], []
        with mock.patch.object(noise, "NOISE_BLOCK", 1 << 6), \
                mock.patch.object(noise, "_POOL", pools[workers]), \
                mock.patch.object(engine, "noise_block",
                                  lambda *args, **kw: orders.append(args[6]) or block(*args, **kw)):
            with mock.patch.object(engine, "_round", two_d_round):
                engine.simulate(config, trials, want_states, 3, record=record_into(want, trials))
            engine.simulate(config, trials, got_states, 3, record=record_into(got, trials))
        node_major = trials > 1 and layout in NODE_MAJOR
        assert orders == [False] * len(phases) + [node_major] * len(phases)
        for a, b in zip(got_states, want_states, strict=True):
            assert np.array_equal(bits(a), bits(b))
        assert [(k, s) for k, s, _ in got] == [(k, s) for k, s, _ in want]
        for (_, _, a), (_, _, b) in zip(got, want):
            assert np.array_equal(bits(a), bits(b))


# -- the chunked statistics equal the whole-tensor ones ------------------------


SECRETS = [25.1698, 15.3211, 69.9334, 45.7828, 98.0388]
CONFIGS = {  # the membership events of each config
    "dense": (),
    "events": (Leave(599, node=5), Join(1280, node=5, anchor=4, secret=SECRETS[-1])),
}


@pytest.mark.parametrize("rounds", [2, 7, None])
@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_chunked_statistics_equal_the_whole_tensor_ones(name, rounds):
    # 1796 steps: each phase spans more than two chunks. The windows per
    # phase are 1793 without events and 596, 678 and 513 with them, so the
    # last chunk of a phase is full or ragged. Noise blocks of 2 rounds give
    # chunks of n rounds (the floor), of 7 rounds chunks of 7 or 8, and the
    # default block holds every phase whole.
    config = ProtocolConfig.uniform(SECRETS, NoiseSchedule.harmonic(1000.0, 1.0),
                                    Distribution.GAUSSIAN, 1796, 42, CONFIGS[name])
    lengths = [len(p.k_end) for p in trial_windows(config, 2)]
    assert lengths == ([1793] if name == "dense" else [596, 678, 513])
    chunk = engine.NOISE_CHUNK if rounds is None else rounds * 13 * len(SECRETS)
    with mock.patch.object(engine, "NOISE_CHUNK", chunk):
        got = aggregate_trials(config, 13)
    assert_same_aggregate(got, oracle_aggregate_trials(config, 13))


@pytest.mark.parametrize("windows", [1, 2, 8, 9, 10, 11])
@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_chunked_statistics_keep_the_order_of_each_sum(name, windows):
    # States of magnitudes 1e-8 .. 1e8: summed over the 40 trials in another
    # order, almost every cell rounds differently. The protocol's rounds keep
    # a window near the member sum, so each round here just sets the state to
    # its noise, and the windows are as wide as the noise. Windows of 3 nodes:
    # a run of K steps has K - 1 of them without events, and K - 2 with
    # events, where node 4 leaves in round 0 so that the windows are those of
    # the 3 nodes after it. Chunks of 4 rounds; 8 windows leave a last chunk
    # of one new state, and a single window is a single trials-major one with
    # events.
    steps = windows + (1 if name == "dense" else 2)
    rng = np.random.default_rng(windows)
    wide = rng.standard_normal((steps + 1, 40, 4)) * 10.0 ** rng.uniform(-8, 8, (steps + 1, 40, 4))

    def wide_noise(source, dist, order, schedules, ks, trials, node_major=False, out=None,
                   beside=lambda: None):
        beside()
        out[...] = wide[np.asarray(ks, dtype=np.intp)][:, trials.ravel().astype(np.intp)][
            :, :, np.array(order) - 1]
        return out

    def noise_round(x, beta, order, out, sink, leaver=None, secret=0.0):
        out[...] = beta

    config = ProtocolConfig.uniform(SECRETS[:3] if name == "dense" else SECRETS[:4],
                                    NoiseSchedule.harmonic(1.0, 1.0), Distribution.GAUSSIAN,
                                    steps, 0, () if name == "dense" else (Leave(0, node=4),))
    with mock.patch.object(engine, "noise_block", wide_noise), \
            mock.patch.object(engine, "_round", noise_round), \
            mock.patch.object(engine, "NOISE_CHUNK", 4 * 40 * 3):
        got, want = aggregate_trials(config, 40), oracle_aggregate_trials(config, 40)
    assert len(want.ks) == windows
    assert_same_aggregate(got, want)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_a_forked_child_draws_on_its_own_pool():
    # The child inherits the pool object but none of its threads; a block
    # handed to that pool would never run.
    trials = np.arange(200_000, dtype=np.uint64)
    want = NoiseSource(4).sample(1, 0, trials, 1.0, Distribution.LAPLACE)  # starts the pool
    pid = os.fork()
    if pid == 0:  # pragma: no cover - the child
        got = NoiseSource(4).sample(1, 0, trials, 1.0, Distribution.LAPLACE)
        os._exit(0 if np.array_equal(bits(got), bits(want)) else 1)
    deadline = time.monotonic() + 20
    while (done := os.waitpid(pid, os.WNOHANG))[0] == 0 and time.monotonic() < deadline:
        time.sleep(0.05)
    if done[0] == 0:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
    assert done[0] == pid, "the forked child hung on the inherited pool"
    assert os.waitstatus_to_exitcode(done[1]) == 0
