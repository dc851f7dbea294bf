"""Blocked, threaded noise and sliced statistics against the code they replaced.

The oracles below are the allocating noise pipeline (`_hash`, `_to_unit`
and the `NoiseSource` methods) and the whole-tensor Monte Carlo statistics,
kept verbatim (only renamed). The noise is now drawn in blocks, in place,
on a thread pool, and the statistics are taken in slices of steps; neither
may change a bit, whatever the block size, the worker count or the slice.
"""
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
from ringsum import metrics
from ringsum.metrics import ErrorAggregate, PhaseWindows, aggregate_trials, trial_windows


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

    def uniform(self, node, k, trial, slot) -> np.ndarray | float:
        """A uniform (0,1) draw for the given stream coordinates."""
        u = _to_unit(_hash(self.master_seed, node, k, trial, slot))
        return float(u) if u.ndim == 0 else u

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
            t = u1 - 0.5
            out = -scale * np.sign(t) * np.log1p(-2.0 * np.abs(t))
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
    assert type(got) is type(want)
    assert np.shape(got) == np.shape(want)
    assert np.array_equal(bits(got), bits(want))


SPECIAL = [math.nan, math.inf, -math.inf, 0.0, -0.0]
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
    # analysis._sample_traces: one step, many trials, (1, trials, members)
    trials = np.arange(trial % 2**32, trial % 2**32 + draw(st.integers(1, 6000)),
                       dtype=np.uint64)[:, None]
    scale = np.array(draw(st.lists(scales, min_size=n, max_size=n)))[None, None, :]
    return nodes, np.array([[[k]]], dtype=np.uint64), trials, scale


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**64 - 1),
    coords=coordinates(),
    kind=st.sampled_from([*Distribution, "uniform", "clock_gap"]),
    slot=st.integers(0, 3),
    rate=st.floats(1e-3, 1e3),
    block_log2=st.integers(6, 18),
    workers=st.sampled_from([1, 2, 4]),
)
# A node with no ticks, and a scalar draw at scale -0.0.
@example(seed=1, coords=(3, np.arange(0, dtype=np.uint64), 0, np.array([])),
         kind=Distribution.GAUSSIAN, slot=0, rate=1.0, block_log2=6, workers=2)
@example(seed=1, coords=(3, 5, 7, -0.0), kind=Distribution.LAPLACE, slot=0, rate=1.0,
         block_log2=6, workers=4)
def test_blocked_draws_equal_the_allocating_pipeline(pools, seed, coords, kind, slot, rate,
                                                     block_log2, workers):
    node, k, trial, scale = coords
    src, ref = NoiseSource(seed), OracleSource(seed)
    with mock.patch.object(noise, "NOISE_BLOCK", 1 << block_log2), \
            mock.patch.object(noise, "_POOL", pools[workers]), np.errstate(all="ignore"):
        if kind == "uniform":
            got, want = src.uniform(node, k, trial, slot), ref.uniform(node, k, trial, slot)
        elif kind == "clock_gap":
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


# -- the sliced statistics equal the whole-tensor ones ------------------------


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


def assert_same_aggregate(got, want) -> None:
    assert np.array_equal(got.ks, want.ks)
    for name in ("mean_abs_error", "mae_stderr", "sum_variance", "sum_variance_stderr"):
        assert np.array_equal(bits(getattr(got, name)), bits(getattr(want, name))), name


SECRETS = [25.1698, 15.3211, 69.9334, 45.7828, 98.0388]
LAYOUTS = {  # trials-major tensors with membership events, step-major without
    "dense": (),
    "events": (Leave(599, node=5), Join(1280, node=5, anchor=4, secret=SECRETS[-1])),
}


@pytest.mark.parametrize("stat_steps", [2, 7, metrics.STAT_STEPS])
@pytest.mark.parametrize("layout", sorted(LAYOUTS))
def test_sliced_statistics_equal_the_whole_tensor_ones(layout, stat_steps):
    # 1796 steps: each phase spans more than two slices. The windows per
    # phase are 1793 without events and 596, 678 and 513 with them, so the
    # last slice of a phase is one step long (which joins the slice before
    # it), full, or ragged.
    config = ProtocolConfig.uniform(SECRETS, NoiseSchedule.harmonic(1000.0, 1.0),
                                    Distribution.GAUSSIAN, 1796, 42, LAYOUTS[layout])
    lengths = [len(p.k_end) for p in trial_windows(config, 2)]
    assert lengths == ([1793] if layout == "dense" else [596, 678, 513])
    with mock.patch.object(metrics, "STAT_STEPS", stat_steps):
        got = aggregate_trials(config, 13)
    assert_same_aggregate(got, oracle_aggregate_trials(config, 13))


@pytest.mark.parametrize("steps", [1, 2, 8, 9, 10, 11])
@pytest.mark.parametrize("layout", ["trials-major", "step-major"])
def test_sliced_statistics_keep_the_order_of_each_sum(layout, steps):
    # Windows of magnitudes 1e-8 .. 1e8: summed over the 40 trials in
    # another order, almost every cell rounds differently. Slices of 4
    # steps; 9 steps would leave a last slice of one step.
    rng = np.random.default_rng(steps)
    y = rng.standard_normal((40, steps, 3)) * 10.0 ** rng.uniform(-8, 8, (40, steps, 3))
    if layout == "step-major":
        y = np.ascontiguousarray(y.swapaxes(0, 1)).swapaxes(0, 1)
    parts = [PhaseWindows((1, 2, 3), 0.5, np.arange(2, steps + 2), y)]
    with mock.patch.object(metrics, "trial_windows", lambda config, trials: parts), \
            mock.patch.dict(globals(), trial_windows=lambda config, trials: parts), \
            mock.patch.object(metrics, "STAT_STEPS", 4):
        assert_same_aggregate(aggregate_trials(None, 40), oracle_aggregate_trials(None, 40))


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
