"""Estimator windows and Monte Carlo aggregation."""
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
    error_series,
    run_ai,
    run_si,
    window_sums,
)
from ringsum import engine, metrics
from ringsum.engine import _drift, simulate
from whole_tensor import streamed_trial_mean_estimates

ZERO = NoiseSchedule.harmonic(0.0, 1.0)
HARM = NoiseSchedule.harmonic(3.0, 1.0)
GEO = NoiseSchedule.geometric(1.0, 0.6)


def _config(secrets, schedule=HARM, steps=30, seed=0, events=(), dist=Distribution.GAUSSIAN):
    return ProtocolConfig.uniform(secrets, schedule, dist, steps, seed, events)


class TestWindows:
    def test_zero_noise_window_sum_equals_total_exactly(self):
        run = run_si(_config([3.0, 1.0, 2.0], ZERO, steps=9))
        for part in window_sums(run):
            assert np.all(part.y == 6.0)

    def test_window_indices(self):
        run = run_si(_config([1.0, 2.0, 3.0, 4.0], steps=10))
        (part,) = window_sums(run)
        assert part.k_end[0] == 3  # first full window uses states 0..3
        assert part.k_end[-1] == 10

    def test_one_series_per_phase_and_an_empty_one_for_a_phase_shorter_than_n(self):
        # Two joins at k = 10 leave a phase of one state on four members; two
        # states of a Poisson run on three members fill no window either.
        si = run_si(_config([1.0, 2.0, 3.0], steps=30,
                            events=(Join(10, 4, 1, 100.0), Join(10, 5, 2, 1000.0))))
        ai = run_ai(_config([1.0, 2.0, 3.0], steps=1), 1.0, 1.0, tick_order=[1])
        for run, short in ((si, [False, True, False]), (ai, [True])):
            parts = window_sums(run)
            assert len(parts) == len(run.phases)
            for (phase, states), part, empty in zip(run.phases, parts, short, strict=True):
                assert part.order == phase.order and part.target == phase.target
                assert len(part.k_end) == (0 if empty else len(states) - phase.n + 1)
                assert part.y.shape == (len(part.k_end), phase.n)

    @pytest.mark.parametrize("cfg", [
        _config([1.0, 2.0, 3.0, 4.0], steps=12, seed=5),
        _config([1.0, 2.0, 3.0, 4.0, 5.0], steps=40, seed=3,
                events=(Leave(12, node=2), Join(25, 2, anchor=4, secret=3.5))),
    ], ids=["one-phase", "churn"])
    def test_window_sums_match_brute_force_column_sums(self, cfg):
        # Row i of a phase's y sums each node's last n states at k_end[i].
        run = run_si(cfg)
        parts = window_sums(run)
        assert len(parts) == len(cfg.events) + 1
        for (phase, states), part in zip(run.phases, parts):
            for i, k in enumerate(part.k_end.tolist()):
                last = k - phase.start_k
                assert part.y[i] == pytest.approx(
                    states[last - phase.n + 1 : last + 1].sum(axis=0), rel=0, abs=1e-12
                )

    def test_a_long_run_forms_each_window_once_from_the_cumulative_sums(self):
        # 30,001 states of 3 members: 90,003 values, more than one block of
        # NOISE_BLOCK values. Each block is many windows wide, so it overlaps
        # its own source rows and subtracts a copy of them.
        # Its cumulative sums are one np.cumsum call, not one add per row.
        run = run_si(_config([1.0, 2.0, 3.0], steps=30_000, seed=2, dist=Distribution.LAPLACE))
        with mock.patch.object(np, "cumsum", wraps=np.cumsum) as cumsum, \
                mock.patch.object(np, "add", wraps=np.add) as add:
            (part,) = window_sums(run)
        assert (cumsum.call_count, add.call_count) == (1, 0)
        states = run.phases[0][1]
        assert states.size > metrics.NOISE_BLOCK
        cum = np.cumsum(states, axis=0)
        want = np.concatenate([cum[2:3], cum[3:] - cum[:-3]])
        assert np.array_equal(part.y.view(np.uint64), want.view(np.uint64))
        brute = np.lib.stride_tricks.sliding_window_view(states, 3, axis=0).sum(axis=-1)
        assert np.allclose(part.y, brute, rtol=0, atol=1e-8)

    def test_a_wide_chunk_adds_its_cumulative_sums_row_by_row(self):
        # Two chunks shaped like si_dense's, (54, 500, 10), of states of
        # magnitudes 1e-8 .. 1e8, the second carrying the first's cumulative
        # sums: fewer rows than values per row, so one np.add per row and no
        # np.cumsum, with the bits of one np.cumsum over both and the windows.
        rng = np.random.default_rng(5)
        states = rng.standard_normal((107, 500, 10)) * 10.0 ** rng.uniform(-8, 8, (107, 500, 10))
        cum = np.cumsum(states, axis=0)
        want = np.concatenate([cum[9:10], cum[10:] - cum[:-10]])
        first, second = states[:54].copy(), states[53:].copy()
        with mock.patch.object(np, "cumsum", wraps=np.cumsum) as cumsum, \
                mock.patch.object(np, "add", wraps=np.add) as add:
            carry = metrics._window_rows(first, 10)
            metrics._window_rows(second, 10, carry)
        assert (cumsum.call_count, add.call_count) == (0, 2 * 53)
        got = np.concatenate([first[9:], second[1:]])
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_windows_reset_on_membership_change(self):
        cfg = _config([1.0, 2.0, 3.0, 4.0], steps=30, events=(Leave(10, node=4),))
        run = run_si(cfg)
        first, second = window_sums(run)
        assert first.target == pytest.approx(10.0)
        assert second.target == pytest.approx(6.0)
        # New segment starts at k=11; its first 3-state window ends at 13.
        assert second.k_end[0] == 13

    def test_error_series_decays_for_decaying_noise(self):
        run = run_si(_config([1.0, 2.0, 3.0], GEO, steps=60, seed=3))
        ks, errs = error_series(run)
        assert len(ks) == len(errs) > 0
        assert errs[-1] < errs[0]
        assert errs[-1] < 1e-8  # geometric noise has vanished by k=60


class TestDensePath:
    @pytest.mark.parametrize("dist", list(Distribution))
    @pytest.mark.parametrize("schedule", [HARM, GEO, NoiseSchedule.harmonic(2.0, 0.0)])
    def test_dense_states_match_scalar_engine_bit_for_bit(self, dist, schedule):
        cfg = _config([1.0, 2.0, 3.0, 4.0], schedule, steps=25, seed=9, dist=dist)
        states = np.empty((cfg.steps + 1, 3, 4))
        simulate(cfg, 3, [states])
        assert _drift(cfg.phases(), [states]) <= 1e-12
        for t in range(3):
            run = run_si(cfg, trial=t)
            assert np.array_equal(run.phases[0][1], states[:, t, :])

    @pytest.mark.parametrize("events", [(), (Leave(9, 4), Join(20, 4, anchor=1, secret=9.0))])
    def test_streamed_windows_equal_single_run_windows(self, events):
        # Noise blocks of one round: chunks of n rounds, step-major without
        # events and trials-major with them.
        cfg = _config([1.0, 2.0, 3.0, 4.0], steps=31, seed=2, events=events)
        streamed = []

        def take(phase, k_end, y):
            streamed.append((phase.start_k, k_end, y[:, y.shape[1] - len(k_end) :].copy()))

        with mock.patch.object(engine, "NOISE_CHUNK", 1):
            metrics._stream(cfg, 4, take)
        assert len(streamed) > 2 * len(cfg.phases())
        for t in range(4):
            for single in window_sums(run_si(cfg, trial=t)):
                start_k = single.k_end[0] - len(single.order) + 1
                mine = [(k, y[t]) for start, k, y in streamed if start == start_k]
                assert np.array_equal(np.concatenate([k for k, _ in mine]), single.k_end)
                assert np.array_equal(np.concatenate([y for _, y in mine]).view(np.uint64),
                                      single.y.view(np.uint64))


class TestAggregation:
    def test_aggregate_shapes_and_at_lookup(self):
        cfg = _config([1.0, 2.0, 3.0], steps=20, seed=1)
        agg = aggregate_trials(cfg, trials=50)
        assert agg.trials == 50
        assert len(agg.ks) == len(agg.mean_abs_error) == len(agg.sum_variance)
        mae, se, var, var_se = agg.at(20)
        assert mae > 0 and se > 0 and var > 0 and var_se > 0
        with pytest.raises(KeyError):
            agg.at(999)

    def test_aggregate_covers_event_segments(self):
        cfg = _config([1.0, 2.0, 3.0, 4.0], steps=25, events=(Leave(10, node=4),))
        agg = aggregate_trials(cfg, trials=10)
        assert agg.ks[0] == 3
        assert 13 in agg.ks and 25 in agg.ks

    def test_no_full_window_gives_an_empty_aggregate(self):
        # One step on three nodes: no phase holds n states, so no window fills.
        agg = aggregate_trials(_config([1.0, 2.0, 3.0], steps=1), trials=3)
        assert agg.trials == 3
        assert agg.ks.dtype.kind == "i"
        for column in (agg.ks, agg.mean_abs_error, agg.mae_stderr, agg.sum_variance,
                       agg.sum_variance_stderr):
            assert len(column) == 0
        with pytest.raises(KeyError):
            agg.at(1)

    def test_needs_two_trials(self):
        cfg = _config([1.0, 2.0, 3.0])
        with pytest.raises(ValueError):
            aggregate_trials(cfg, trials=1)

    def test_streamed_trial_means_near_total(self):
        cfg = _config([1.0, 2.0, 3.0], GEO, steps=40, seed=6)
        nodes, mean_y, stderr = streamed_trial_mean_estimates(cfg, trials=200, k_end=40)
        assert nodes == (1, 2, 3)
        assert np.all(np.abs(mean_y - 6.0) <= 5 * np.maximum(stderr, 1e-12))
