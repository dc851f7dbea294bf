"""Estimator windows and Monte Carlo aggregation."""
import numpy as np
import pytest

from ringsum import (
    Distribution,
    Leave,
    NoiseSchedule,
    NoiseSource,
    ProtocolConfig,
    WindowNotFullError,
    aggregate_trials,
    estimator,
    error_series,
    run_si,
    trial_mean_estimates,
    window_sums,
)
from ringsum.engine import simulate
from ringsum.metrics import trial_windows

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
        assert np.all(part.k_start == part.k_end - 3)

    def test_estimator_matches_brute_force_column_sum(self):
        run = run_si(_config([1.0, 2.0, 3.0, 4.0], steps=12, seed=5))
        states = run.phases[0][1]
        for k in (3, 7, 12):
            for j, node in enumerate(run.members):
                assert estimator(run, node, k) == pytest.approx(
                    states[k - 3 : k + 1, j].sum(), rel=0, abs=1e-12
                )

    def test_estimator_before_full_window_raises(self):
        run = run_si(_config([1.0, 2.0, 3.0, 4.0], steps=12))
        with pytest.raises(WindowNotFullError):
            estimator(run, 1, 2)

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
        assert simulate(cfg, 3, [states]) <= 1e-12
        for t in range(3):
            run = run_si(cfg, trial=t, record_trace=False)
            assert np.array_equal(run.phases[0][1], states[:, t, :])

    def test_trial_windows_event_path_matches_dense_path(self):
        cfg = _config([1.0, 2.0, 3.0], steps=15, seed=2)
        (dense,) = trial_windows(cfg, trials=4)
        # Force the per-run path by rebuilding from individual runs.
        for t in range(4):
            (single,) = window_sums(run_si(cfg, trial=t, record_trace=False))
            assert np.array_equal(dense.y[t], single.y)


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

    def test_trial_mean_estimates_near_total(self):
        cfg = _config([1.0, 2.0, 3.0], GEO, steps=40, seed=6)
        nodes, mean_y, stderr = trial_mean_estimates(cfg, trials=200, k_end=40)
        assert nodes == (1, 2, 3)
        assert np.all(np.abs(mean_y - 6.0) <= 5 * np.maximum(stderr, 1e-12))

    def test_trial_mean_estimates_missing_k_raises(self):
        cfg = _config([1.0, 2.0, 3.0], steps=10)
        with pytest.raises(WindowNotFullError):
            trial_mean_estimates(cfg, trials=3, k_end=999)

    @pytest.mark.parametrize("trials", [0, 1])
    def test_trial_mean_estimates_needs_two_trials_before_any_draw(self, monkeypatch, trials):
        def no_draws(*args, **kwargs):
            raise AssertionError("noise drawn before the trial count was checked")

        monkeypatch.setattr(NoiseSource, "sample", no_draws)
        with pytest.raises(ValueError, match="at least 2 trials"):
            trial_mean_estimates(_config([1.0, 2.0, 3.0]), trials=trials, k_end=30)
