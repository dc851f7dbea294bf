"""Closed-form bounds, privacy accounting, audit, and the proofs' matrix identities."""
import dataclasses
import math
import time
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ringsum import (
    ConfigError,
    Distribution,
    InsufficientSamplesError,
    MixedFamilyError,
    NoiseSchedule,
    NonFiniteTraceError,
    ProtocolConfig,
    RingSumError,
    ScheduleAggregates,
    UnsupportedDistributionError,
    dp_audit,
    epsilon_total,
    utility_bound,
    variance_bound,
)
from ringsum import analysis, engine, noise
from ringsum.analysis import _sample_traces
from ringsum.engine import noise_block
from ringsum.noise import NoiseSource
from lemma_oracles import (
    circulant_identities,
    composed_total,
    lemma1_trace,
    log_composed_total,
    per_step,
    shift_matrix,
)
from stepping_engine import ProtocolRun, si_step

HARM1000 = NoiseSchedule.harmonic(1000.0, 1.0)


def _agg(*schedules):
    return ScheduleAggregates.from_schedules(schedules)


def _no_draw(*_):
    raise AssertionError("the audit drew traces before checking its arguments")


class TestAggregates:
    def test_harmonic_extremes(self):
        agg = _agg(NoiseSchedule.harmonic(2.0, 1.0), NoiseSchedule.harmonic(5.0, 3.0))
        assert (agg.c_M, agg.c_m, agg.d_M) == (5.0, 2.0, 3.0)

    def test_geometric_extremes_and_pairs(self):
        agg = _agg(NoiseSchedule.geometric(1.0, 0.5), NoiseSchedule.geometric(2.0, 0.8))
        assert (agg.c_M, agg.c_m) == (2.0, 1.0)
        assert agg.phi_m == 0.5
        assert agg.pairs == ((1.0, 0.5), (2.0, 0.8))

    def test_mixed_families_rejected(self):
        with pytest.raises(MixedFamilyError):
            _agg(NoiseSchedule.harmonic(1.0, 1.0), NoiseSchedule.geometric(1.0, 0.5))

    def test_start_shift_is_read_from_every_member(self):
        assert _agg(NoiseSchedule.harmonic(1.0, 0.5), NoiseSchedule.harmonic(1.0, 0.0)).start_shifted
        assert not _agg(NoiseSchedule.harmonic(1.0, 0.5), NoiseSchedule.harmonic(1.0, 1.0)).start_shifted
        assert not _agg(NoiseSchedule.geometric(1.0, 0.5)).start_shifted


class TestBounds:
    def test_harmonic_utility_reference_value(self):
        # c_M pi n sqrt(n/6) at c=1000, n=10.
        agg = _agg(*[HARM1000] * 10)
        assert utility_bound(agg, 10) == pytest.approx(4.0558e4, rel=1e-4)

    def test_harmonic_variance_reference_value(self):
        # c_M^2 pi^2 n^2 / 3 at c=1000, n=10.
        agg = _agg(*[HARM1000] * 10)
        assert variance_bound(agg, 10) == pytest.approx(3.28987e8, rel=1e-4)

    def test_geometric_bounds_formulas(self):
        agg = _agg(NoiseSchedule.geometric(2.0, 0.5))
        n = 4
        assert utility_bound(agg, n) == pytest.approx(2.0 * n * math.sqrt(n / 0.75))
        assert variance_bound(agg, n) == pytest.approx(2.0 * n**2 * 4.0 / 0.75)

    def test_geometric_maximizes_over_heterogeneous_nodes(self):
        a = NoiseSchedule.geometric(1.0, 0.5)
        b = NoiseSchedule.geometric(0.5, 0.95)  # smaller c but much slower decay
        agg = _agg(a, b)
        per_node = [
            c * 3 * math.sqrt(3 / (1 - phi**2)) for c, phi in [(1.0, 0.5), (0.5, 0.95)]
        ]
        assert utility_bound(agg, 3) == pytest.approx(max(per_node))

    def test_small_rings_rejected(self):
        agg = _agg(HARM1000)
        with pytest.raises(ConfigError):
            utility_bound(agg, 2)


class TestPrivacyBudget:
    def test_harmonic_reference_case(self):
        # c=2, d=0, delta=1, K=2: eps_0 + eps_1 = 0 + 1/2... composed via the
        # closed form delta K ((K-1)/2 + d) / c = 1.0 with c=1, d=1/2 scaled.
        agg = _agg(NoiseSchedule.harmonic(1.0, 0.0))
        budget = epsilon_total(agg, delta=1.0, K=2, distribution=Distribution.LAPLACE)
        assert budget.total == pytest.approx(1.0)
        # d=0 start shift: the engine's k=0 substitution costs one extra delta/c.
        assert budget.total_start_shifted == pytest.approx(2.0)

    def test_geometric_reference_case(self):
        agg = _agg(NoiseSchedule.geometric(1.0, 0.5))
        budget = epsilon_total(agg, delta=1.0, K=1, distribution=Distribution.LAPLACE)
        assert budget.total == pytest.approx(1.0)

    def test_composition_identity_harmonic(self):
        agg = _agg(NoiseSchedule.harmonic(3.0, 2.0))
        budget = epsilon_total(agg, delta=0.7, K=100, distribution=Distribution.LAPLACE)
        assert composed_total(agg, 0.7, 100) == pytest.approx(budget.total, rel=1e-12)

    def test_composition_identity_geometric_log_space(self):
        agg = _agg(NoiseSchedule.geometric(2.0, 0.5))
        budget = epsilon_total(agg, delta=1.0, K=10_000, distribution=Distribution.LAPLACE)
        assert math.isinf(per_step(agg, 1.0, 10_000)[-1])  # raw terms overflow by design
        assert log_composed_total(agg, 1.0, 10_000) == pytest.approx(budget.log_total, rel=1e-12)

    @pytest.mark.parametrize("schedule, delta, K, total", [
        (NoiseSchedule.harmonic(1e300, 1.0), 1e-300, 5, 0.0),
        (NoiseSchedule.geometric(1e-300, 0.5), 1e300, 5, math.inf),
        (NoiseSchedule.harmonic(1.0, 1e308), 1.0, 1000, math.inf),
    ], ids=["quotient-underflow", "quotient-overflow", "product-overflow"])
    def test_log_budget_past_the_doubles(self, schedule, delta, K, total):
        # delta / c or K ((K - 1) / 2 + d) leaves the doubles; its log is a sum of logs.
        budget = epsilon_total(_agg(schedule), delta, K, Distribution.LAPLACE)
        assert budget.total == total
        assert budget.log_total == pytest.approx(log_composed_total(_agg(schedule), delta, K), rel=1e-12)

    @pytest.mark.parametrize("schedule", [NoiseSchedule.harmonic(3.0, 2.0),
                                          NoiseSchedule.geometric(2.0, 0.5)])
    def test_budget_memory_does_not_grow_with_k(self, schedule):
        agg = _agg(schedule)
        tracemalloc.start()
        try:
            epsilon_total(agg, 1.0, 10**6, Distribution.LAPLACE)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_monotone_in_k_delta_and_inverse_c(self):
        for c, delta, K in [(1.0, 0.5, 10), (2.0, 1.0, 20)]:
            agg = _agg(NoiseSchedule.harmonic(c, 1.0))
            base = epsilon_total(agg, delta, K, Distribution.LAPLACE).total
            assert epsilon_total(agg, delta, K + 1, Distribution.LAPLACE).total > base
            assert epsilon_total(agg, delta * 2, K, Distribution.LAPLACE).total > base
            bigger_c = _agg(NoiseSchedule.harmonic(c * 2, 1.0))
            assert epsilon_total(bigger_c, delta, K, Distribution.LAPLACE).total < base

    def test_non_laplace_refused(self):
        agg = _agg(HARM1000)
        with pytest.raises(UnsupportedDistributionError):
            epsilon_total(agg, 1.0, 10, Distribution.GAUSSIAN)

    def test_zero_delta_gives_zero_budget(self):
        agg = _agg(NoiseSchedule.harmonic(1.0, 1.0))
        budget = epsilon_total(agg, 0.0, 5, Distribution.LAPLACE)
        assert budget.total == 0.0

    @pytest.mark.parametrize(
        "schedule", [NoiseSchedule.harmonic(0.0, 0.0), NoiseSchedule.harmonic(0.0, 1.0),
                     NoiseSchedule.geometric(0.0, 0.5)])
    def test_zero_noise_gives_infinite_budget_unless_delta_is_zero(self, schedule):
        budget = epsilon_total(_agg(schedule), 1.0, 3, Distribution.LAPLACE)
        assert budget.total == budget.log_total == math.inf
        steps = per_step(_agg(schedule), 1.0, 3)
        assert np.all(steps == math.inf) and steps.shape == (3,)
        assert budget.total_start_shifted == (math.inf if schedule.start_shifted else None)
        budget = epsilon_total(_agg(schedule), 0.0, 3, Distribution.LAPLACE)
        assert budget.total == 0.0 and budget.log_total == -math.inf
        assert np.all(per_step(_agg(schedule), 0.0, 3) == 0.0)

    # total, log_total and total_start_shifted of four equal schedules at
    # delta = 0.3 and K = 17, as the budget gave them before the start shift
    # was read from the aggregates (the same on both SIMD bit profiles).
    @pytest.mark.parametrize("schedule, pinned", [
        (NoiseSchedule.harmonic(3.7, 0.0), (11.027027027027026, 2.4003492617599376, 11.108108108108107)),
        (NoiseSchedule.harmonic(3.7, 1.0), (12.405405405405405, 2.5181322974163205, None)),
        (NoiseSchedule.geometric(1.3, 0.9), (10.376758332356047, 2.3395685295744695, None)),
    ])
    def test_homogeneous_budgets_keep_their_bits(self, schedule, pinned):
        budget = epsilon_total(_agg(*[schedule] * 4), 0.3, 17, Distribution.LAPLACE)
        assert (budget.total, budget.log_total, budget.total_start_shifted) == pinned

    def test_mixed_offsets_bound_every_members_start_shifted_step(self):
        # Node 1 (d = 0) draws at scale 1 at k = 0, a loss of delta / 1 that the
        # k = 0 term delta * d_M / c_m = 0.5 alone would not cover.
        schedules = [NoiseSchedule.harmonic(1.0, d) for d in (0.0, 0.5, 0.5)]
        budget = epsilon_total(_agg(*schedules), 1.0, 3, Distribution.LAPLACE)
        ks = np.arange(3, dtype=np.uint64)
        worst = math.fsum(np.max([1.0 / s.scale(ks) for s in schedules], axis=0))
        assert worst == 5.0
        assert budget.total_start_shifted >= worst
        assert budget.total_start_shifted == 5.0  # delta * max(d_M, 1) / c_m at k = 0

    @settings(max_examples=200, deadline=None)
    @given(cs=st.lists(st.floats(0.1, 10.0), min_size=3, max_size=6),
           ds=st.lists(st.sampled_from([0.0, 0.25, 0.5, 1.0, 2.5]), min_size=3, max_size=6),
           delta=st.floats(0.1, 5.0), K=st.integers(1, 40))
    def test_start_shifted_budget_bounds_the_worst_member_at_every_step(self, cs, ds, delta, K):
        schedules = [NoiseSchedule.harmonic(c, d) for c, d in zip(cs, ds)]
        budget = epsilon_total(_agg(*schedules), delta, K, Distribution.LAPLACE)
        ks = np.arange(K, dtype=np.uint64)
        worst = math.fsum(np.max([delta / s.scale(ks) for s in schedules], axis=0))
        bound = budget.total if budget.total_start_shifted is None else budget.total_start_shifted
        assert bound >= worst * (1 - 1e-12)

    @pytest.mark.parametrize("delta", [-1.0, math.nan, math.inf, -math.inf])
    def test_invalid_delta_rejected(self, delta):
        with pytest.raises(ConfigError):
            epsilon_total(_agg(HARM1000), delta, 3, Distribution.LAPLACE)


class TestAudit:
    def _config(self, schedule, seed=0):
        return ProtocolConfig.uniform(
            [1.0, 2.0, 3.0], schedule, Distribution.LAPLACE, 3, seed
        )

    def test_observed_ratio_within_budget(self):
        cfg = self._config(NoiseSchedule.harmonic(1.0, 1.0))
        result = dp_audit(cfg, delta=1.0, K=1, samples=200_000)
        assert result.epsilon == pytest.approx(1.0)
        assert result.observed <= result.epsilon + 0.15
        assert result.bins_used > 0

    def test_identical_secrets_show_no_signal(self):
        cfg = self._config(NoiseSchedule.harmonic(1.0, 1.0))
        result = dp_audit(cfg, delta=0.0, K=1, samples=200_000)
        assert result.observed <= result.noise_floor

    def test_harmonic_d_zero_audits_against_start_shifted_budget(self):
        # The engine substitutes d = 1 for the k = 0 draw, so the audit must
        # run and hold the traces to the budget that includes that draw.
        cfg = self._config(NoiseSchedule.harmonic(1.0, 0.0))
        result = dp_audit(cfg, delta=1.0, K=2, samples=200_000)
        assert result.epsilon == pytest.approx(2.0)
        assert result.observed <= result.epsilon + 0.15

    @pytest.mark.parametrize("n", [3, 4])
    @pytest.mark.parametrize(
        "schedule", [NoiseSchedule.harmonic(1.0, 0.0), NoiseSchedule.geometric(3.0, 0.9)]
    )
    @pytest.mark.parametrize(
        "audit_slice, samples", [(analysis.AUDIT_SLICE, 500), (7, 1), (7, 7), (7, 8), (7, 23)]
    )
    def test_sampled_traces_follow_the_rolled_hand_off(self, monkeypatch, n, schedule,
                                                        audit_slice, samples):
        # The audit's hand-off as first written, x <- beta + roll(x - beta),
        # replayed on the same noise: the messages must match bit for bit,
        # also across the slices the traces are sampled in (a slice of 7
        # samples puts boundaries inside, at and just past the runs).
        monkeypatch.setattr(analysis, "AUDIT_SLICE", audit_slice)
        cfg = ProtocolConfig.uniform(np.arange(1.0, n + 1.0), schedule, Distribution.LAPLACE, 5, 5)
        src, K = NoiseSource(cfg.rng_seed), 3
        traces = _sample_traces(cfg, K, samples, 7)
        assert traces.shape == (K, n, samples)
        trials = (np.arange(samples, dtype=np.uint64) + np.uint64(7))[:, None]
        x = np.tile(np.asarray(cfg.secrets), (samples, 1))
        for k in range(K):
            beta = noise_block(src, cfg.distribution, range(1, n + 1), cfg.schedules, [k], trials)[0]
            d = x - beta
            assert np.array_equal(traces[k].view(np.uint64), d.T.view(np.uint64))
            x = beta + np.roll(d, 1, axis=1)

    @pytest.mark.parametrize("n", [3, 4])
    def test_sampled_traces_are_the_round_by_round_messages(self, monkeypatch, n):
        # Slices of 4 samples: the 10 samples cross two slice boundaries.
        monkeypatch.setattr(analysis, "AUDIT_SLICE", 4)
        cfg = ProtocolConfig.uniform(np.arange(1.0, n + 1.0), NoiseSchedule.harmonic(1.0, 0.0),
                                     Distribution.LAPLACE, 5, 5)
        K, samples, first = 3, 10, 7
        traces = _sample_traces(cfg, K, samples, first)
        for s in range(samples):
            run = ProtocolRun.start(cfg, trial=first + s)
            for _ in range(K):
                si_step(run)
            assert [(k, node) for k, node, _ in run.trace] == [
                (k, node) for k in range(K) for node in range(1, n + 1)]
            want = np.array([d for _, _, d in run.trace]).reshape(K, n)
            assert np.array_equal(traces[:, :, s].view(np.uint64), want.view(np.uint64))

    def test_each_round_writes_its_messages_into_the_trace(self, monkeypatch):
        # Three slices of two rounds: every round hands the hand-off a view
        # of the trace, and writes no message elsewhere.
        monkeypatch.setattr(analysis, "AUDIT_SLICE", 4)
        real, written = engine._round, []

        def spy(x, beta, order, out, sink, *rest):
            def seen(senders):
                written.append(sink(senders))
                return written[-1]

            return real(x, beta, order, out, seen, *rest)

        monkeypatch.setattr(engine, "_round", spy)
        traces = _sample_traces(self._config(NoiseSchedule.harmonic(1.0, 1.0)), 2, 10, 0)
        assert len(written) == 2 * 3
        assert all(d is not None and np.shares_memory(d, traces) for d in written)

    @pytest.mark.parametrize(
        "c, delta, K, samples",
        [(1.0, 1.0, 0, 1000), (1.0, 1.0, -1, 1000), (1.0, 1.0, 1, 0), (1.0, 1.0, 1, -5),
         (1.0, 1.0, 1, 499), (1.0, math.nan, 1, 1000), (1.0, -1.0, 1, 1000),
         (0.0, 1.0, 1, 1000)],
        ids=["K-zero", "K-negative", "samples-zero", "samples-negative",
             "samples-below-the-bin-floor", "delta-nan", "delta-negative", "no-noise"],
    )
    def test_invalid_arguments_rejected_before_any_draw(self, monkeypatch, c, delta, K, samples):
        monkeypatch.setattr(analysis, "_sample_traces", _no_draw)
        cfg = self._config(NoiseSchedule.harmonic(c, 1.0))
        with pytest.raises(ConfigError):
            dp_audit(cfg, delta, K, samples)

    def test_disjoint_traces_leave_no_bin_to_compare(self, monkeypatch):
        # Every bin holds values of one side only, so none reaches the bin
        # floor of 500 on both.
        def disjoint(config, K, samples, first):
            shift = 10.0 if first else 0.0
            return np.linspace(shift, shift + 1.0, K * 3 * samples).reshape(K, 3, samples)

        monkeypatch.setattr(analysis, "_sample_traces", disjoint)
        cfg = self._config(NoiseSchedule.harmonic(1.0, 1.0))
        with pytest.raises(InsufficientSamplesError, match="no histogram bin reached 500"):
            dp_audit(cfg, 1.0, 2, 1000)

    def test_the_audit_holds_little_beyond_its_two_traces(self):
        # The reductions sort the traces in place; what remains is one
        # sampling slice and its noise while the second trace is drawn.
        cfg = self._config(NoiseSchedule.harmonic(1.0, 1.0))
        traces = 2 * 2 * 3 * 300_000 * 8
        tracemalloc.start()
        try:
            dp_audit(cfg, 1.0, 2, 300_000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.8 * traces

    @pytest.mark.parametrize("c, d", [(1e308, 1.0), (1e300, 1e-300)])
    def test_non_finite_traces_raise_a_ringsum_error(self, c, d):
        # Noise that overflows to inf makes inf - inf = NaN messages; no
        # histogram can be binned over them.
        cfg = self._config(NoiseSchedule.harmonic(c, d))
        with np.errstate(all="ignore"), pytest.raises(NonFiniteTraceError, match="finite range"):
            dp_audit(cfg, 1.0, 2, 20_000)
        assert issubclass(NonFiniteTraceError, RingSumError)

    def test_worker_count_does_not_change_the_audit(self):
        # Twelve coordinates, reduced in the calling thread's order on one
        # worker and out of order on four.
        cfg = ProtocolConfig.uniform([1.0, 2.0, 3.0, 4.0], NoiseSchedule.harmonic(1.0, 1.0),
                                     Distribution.LAPLACE, 3, 4)
        results = []
        for workers in (1, 4):
            with ThreadPoolExecutor(workers) as pool, mock.patch.object(noise, "_POOL", pool):
                results.append(dp_audit(cfg, 1.0, 3, 60_000))
        assert results[0].bins_used > 0
        assert repr(dataclasses.astuple(results[0])) == repr(dataclasses.astuple(results[1]))

    def test_a_failing_coordinate_raises_after_the_others_finish(self, monkeypatch):
        cfg = ProtocolConfig.uniform([1.0, 2.0, 3.0, 4.0], NoiseSchedule.harmonic(1.0, 1.0),
                                     Distribution.LAPLACE, 3, 4)
        clean = _sample_traces(cfg, 3, 5_000, 0)
        poisoned = clean.copy()
        poisoned[0, 0, 17] = math.nan
        monkeypatch.setattr(analysis, "_sample_traces",
                            lambda config, K, samples, first: clean if first else poisoned)
        finished, ratio = [], analysis._coordinate_log_ratio

        def slow_ratio(a, b, min_bin_count):
            if not np.isnan(a).any():
                time.sleep(0.05)  # the failing coordinate is the first to end
            finished.append(ratio(a, b, min_bin_count))
            return finished[-1]

        monkeypatch.setattr(analysis, "_coordinate_log_ratio", slow_ratio)
        with ThreadPoolExecutor(4) as pool, mock.patch.object(noise, "_POOL", pool):
            with pytest.raises(NonFiniteTraceError):
                try:
                    dp_audit(cfg, 1.0, 3, 5_000)
                finally:  # before the pool's shutdown waits for any task left
                    finished_when_raised = len(finished)
        assert finished_when_raised == 3 * 4 - 1

    def test_large_instances_refused(self):
        cfg = ProtocolConfig.uniform(
            [1.0] * 5, NoiseSchedule.harmonic(1.0, 1.0), Distribution.LAPLACE, 3, 0
        )
        with pytest.raises(ConfigError):
            dp_audit(cfg, 1.0, 1, 1000)

    def test_gaussian_refused(self):
        cfg = ProtocolConfig.uniform(
            [1.0, 2.0, 3.0], NoiseSchedule.harmonic(1.0, 1.0), Distribution.GAUSSIAN, 3, 0
        )
        with pytest.raises(UnsupportedDistributionError):
            dp_audit(cfg, 1.0, 1, 1000)


def oracle_coordinate_log_ratio(a: np.ndarray, b: np.ndarray, min_bin_count: int):
    """Max |log density ratio| between two samples, histogram-estimated."""
    both = np.concatenate([a, b])
    q75, q25 = np.percentile(both, [75, 25])
    iqr = q75 - q25
    lo, hi = float(both.min()), float(both.max())
    if iqr <= 0 or hi <= lo:
        return 0.0, 0.0, 0, 1
    width = 2.0 * iqr * both.size ** (-1.0 / 3.0)  # Freedman-Diaconis
    nbins = int(np.clip(math.ceil((hi - lo) / width), 1, 2000))
    edges = np.linspace(lo, hi, nbins + 1)
    ca, _ = np.histogram(a, bins=edges)
    cb, _ = np.histogram(b, bins=edges)
    mask = (ca >= min_bin_count) & (cb >= min_bin_count)
    used = int(mask.sum())
    if used == 0:
        return 0.0, 0.0, 0, nbins
    log_ratio = np.log(ca[mask] / len(a)) - np.log(cb[mask] / len(b))
    i = int(np.argmax(np.abs(log_ratio)))
    stderr = math.sqrt(1.0 / ca[mask][i] + 1.0 / cb[mask][i])
    return float(np.abs(log_ratio[i])), stderr, used, nbins - used


@st.composite
def sample_pairs(draw):
    """Two samples of 2 to 5000 values in all: Laplace, a few tied values, or constant."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    sizes = draw(st.integers(1, 2500)), draw(st.integers(1, 2500))
    scale = 10.0 ** draw(st.floats(-5.0, 5.0))
    kind = draw(st.sampled_from(["laplace", "ties", "constant"]))
    if kind == "laplace":
        shift = draw(st.floats(0.0, 3.0))
        a, b = rng.laplace(size=sizes[0]), rng.laplace(size=sizes[1]) + shift
    elif kind == "ties":
        levels = draw(st.integers(1, 6))
        a, b = (rng.integers(-levels, levels + 1, size).astype(float) for size in sizes)
    else:
        a, b = np.full(sizes[0], 0.3), np.full(sizes[1], 0.3)
    return a * scale, b * scale


class TestCoordinateReduction:
    """The reduction of two sorted samples against the partitioning one on
    the pooled samples that it replaced (the oracle above, kept verbatim but
    for its name)."""

    @settings(max_examples=300, deadline=None)
    @given(pair=sample_pairs(), min_bin_count=st.integers(1, 60))
    def test_sorted_reduction_equals_the_partitioning_one(self, pair, min_bin_count):
        a, b = (np.sort(x) for x in pair)
        kept = a.copy(), b.copy()
        got = analysis._coordinate_log_ratio(a, b, min_bin_count)
        assert repr(got) == repr(oracle_coordinate_log_ratio(*pair, min_bin_count))
        assert np.array_equal(a, kept[0]) and np.array_equal(b, kept[1])

    # One-element sides, ties, and -0.0 beside 0.0, which compare equal, so
    # a sort may put either first: the statistics are compared by value.
    _side = st.lists(st.sampled_from([-2.0, -0.0, 0.0, 0.5, 1.0]) | st.floats(-3.0, 3.0),
                     min_size=1, max_size=12)

    @settings(max_examples=300, deadline=None)
    @given(a=_side, b=_side)
    def test_pooled_order_statistics_match_the_sorted_pool(self, a, b):
        a, b = np.sort(a), np.sort(b)
        pool = np.sort(np.concatenate([a, b]))
        for i in range(pool.size - 1):
            assert analysis._pooled_pair(a, b, i) == (pool[i], pool[i + 1])
            assert analysis._pooled_pair(b, a, i) == (pool[i], pool[i + 1])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_values_raise(self, bad):
        a, b = np.linspace(-1.0, 1.0, 50), np.linspace(-1.0, 1.0, 50)
        b[7] = bad
        with pytest.raises(NonFiniteTraceError):
            analysis._coordinate_log_ratio(a, np.sort(b), 1)

    def test_a_range_past_the_largest_double_raises(self):
        a, b = np.array([-1e308, 0.0, 1.0]), np.array([2.0, 1e308])
        with pytest.raises(NonFiniteTraceError):
            analysis._coordinate_log_ratio(a, b, 1)


class TestOracles:
    def test_shift_matrix_rotates_forward(self):
        a = shift_matrix(3)
        assert list(a @ np.array([3.0, 1.0, 2.0])) == [2.0, 3.0, 1.0]

    @pytest.mark.parametrize("n", [3, 8, 16])
    def test_circulant_identity(self, n):
        assert circulant_identities(n) == (True, True)

    def test_lemma1_bound_holds_on_random_instance(self):
        rng = np.random.default_rng(0)
        mats = [rng.normal(size=(4, 4)) for _ in range(3)]
        variances = [rng.uniform(0.5, 2.0, size=4) for _ in range(3)]
        trace, bound, stderr = lemma1_trace(mats, variances, samples=50_000, seed=1)
        assert trace <= bound + 3 * stderr

    def test_lemma1_equality_at_uniform_variance(self):
        # With identical per-component variances the bound is tight.
        mats = [np.eye(3)]
        variances = [np.full(3, 1.5)]
        trace, bound, stderr = lemma1_trace(mats, variances, samples=200_000, seed=2)
        assert bound == pytest.approx(4.5)
        assert abs(trace - bound) <= 3 * stderr

    def test_lemma1_dimension_mismatch(self):
        with pytest.raises(AssertionError):
            lemma1_trace([np.eye(3)], [np.ones(2)], samples=10, seed=0)
