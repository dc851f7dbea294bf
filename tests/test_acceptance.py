"""Top-level acceptance suite.

Each test covers one release criterion end to end and prints a single
machine-readable verdict line (run pytest with -s to see them on success):

    ACCEPTANCE <n> <name>: PASS|FAIL

Criteria:
  1. exact sum conservation over 1000 randomized synchronous runs
  2. three-phase reference experiment: phase targets, error decay, bounds
  3. Monte Carlo estimator variance dominated by the closed-form bound
  4. estimator unbiasedness on the same parameter grid
  5. per-step privacy budgets compose to the closed-form totals
  6. empirical likelihood-ratio audit stays within the privacy budget
  7. harmonic tradeoff solver against a bisection oracle on the paper's objective
  8. structural oracles: circulant identities, covariance-trace bound,
     matrix-form dynamics equivalence
"""
import math
import time
from pathlib import Path

import numpy as np
import pytest

from ringsum import (
    Distribution,
    Join,
    Leave,
    NoiseSchedule,
    NoiseSource,
    ProtocolConfig,
    ScheduleAggregates,
    TradeoffProblem,
    aggregate_trials,
    dp_audit,
    epsilon_total,
    run_si,
    solve_harmonic,
    utility_bound,
    variance_bound,
)
from ringsum.cli import load_scenario
from lemma_oracles import (
    circulant_identities,
    composed_total,
    lemma1_trace,
    log_composed_total,
    shift_matrix,
)
from whole_tensor import streamed_trial_mean_estimates

SCENARIO = Path(__file__).resolve().parent.parent / "scenarios" / "example2.cfg"

# Shared 12-point (family, n, c, d/phi) grid for criteria 3 and 4.
GRID = [
    (n, schedule)
    for n in (3, 4, 5)
    for schedule in (
        NoiseSchedule.harmonic(1.0, 1.0),
        NoiseSchedule.harmonic(2.0, 3.0),
        NoiseSchedule.geometric(1.0, 0.5),
        NoiseSchedule.geometric(0.5, 0.8),
    )
]


def _verdict(number: int, name: str, ok: bool) -> None:
    print(f"ACCEPTANCE {number} {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"acceptance criterion {number} ({name}) failed"


def test_acceptance_1_sum_conservation():
    """1000 randomized runs (n in [3,16], both families, all distributions,
    K=500, a third with membership churn) conserve the member sum to 1e-10."""
    rng = np.random.default_rng(2026)
    start = time.perf_counter()
    worst = 0.0
    for i in range(1000):
        n = int(rng.integers(3, 17))
        if rng.random() < 0.5:
            schedule = NoiseSchedule.harmonic(rng.uniform(0.1, 1000.0), rng.uniform(0.0, 5.0))
        else:
            schedule = NoiseSchedule.geometric(rng.uniform(0.1, 1000.0), rng.uniform(0.05, 0.95))
        dist = list(Distribution)[i % 3]
        secrets = rng.uniform(-100.0, 100.0, size=n)
        events = ()
        if n >= 4 and i % 3 == 0:
            t_leave = int(rng.integers(1, 200))
            t_join = int(rng.integers(t_leave + 1, 400))
            victim = int(rng.integers(1, n + 1))
            anchor = int(rng.choice([m for m in range(1, n + 1) if m != victim]))
            events = (
                Leave(t_leave, victim),
                Join(t_join, victim, anchor, float(rng.uniform(-100, 100))),
            )
        cfg = ProtocolConfig.uniform(secrets, schedule, dist, 500, int(rng.integers(2**31)), events)
        run = run_si(cfg)
        worst = max(worst, run.max_rel_drift)
    elapsed = time.perf_counter() - start
    _verdict(1, "sum-conservation", worst <= 1e-10 and elapsed < 30.0)


def test_acceptance_2_three_phase_reference_run():
    """The bundled three-phase scenario reproduces the reference experiment:
    per-phase targets ~500/400/500, finite decaying error, bound domination."""
    start = time.perf_counter()
    _, _, config, extras = load_scenario(SCENARIO)
    trials = extras["trials"]
    assert trials >= 100

    run = run_si(config)
    targets = [phase.target for phase, _ in run.phases]
    # The published secrets actually sum to 499.9999; "500" is their rounding.
    stated = [500.0, 400.0, 500.0]
    targets_ok = all(abs(t - s) <= 1.1e-4 for t, s in zip(targets, stated))
    conserved = run.max_rel_drift <= 1e-10

    agg = aggregate_trials(config, trials)
    sched_agg = ScheduleAggregates.from_schedules(config.schedules)
    bound_10 = utility_bound(sched_agg, 10)
    bound_9 = utility_bound(sched_agg, 9)
    bounds_expected = (
        abs(bound_10 - 4.0558e4) <= 1.0 and abs(bound_9 - 3.46e4) <= 50.0
    )

    def mae(k):
        return agg.at(k)[0]

    finite = bool(np.all(np.isfinite(agg.mean_abs_error)))
    # Error decays within each phase: late error below the first full-window
    # error after each membership spike (windows reset at k=2001 and 4000).
    decays = (
        mae(2000) < mae(9)
        and mae(3999) < mae(2009)
        and mae(6000) < mae(4009)
    )
    dominated = (
        mae(2000) <= bound_10 and mae(3999) <= bound_9 and mae(6000) <= bound_10
    )
    elapsed = time.perf_counter() - start
    _verdict(
        2,
        "three-phase-reference",
        targets_ok and conserved and finite and decays and dominated
        and bounds_expected and elapsed < 120.0,
    )


def test_acceptance_3_variance_bound_domination():
    """On the 12-point grid, Monte Carlo estimator variance at every plateau
    step (k >= 10n) stays below the closed-form bound within 3 stderr."""
    start = time.perf_counter()
    trials = 10_000
    ok = True
    for n, schedule in GRID:
        cfg = ProtocolConfig.uniform(
            np.arange(1.0, n + 1.0), schedule, Distribution.GAUSSIAN, 12 * n, 99
        )
        agg = aggregate_trials(cfg, trials)
        bound = variance_bound(ScheduleAggregates.from_schedules(cfg.schedules), n)
        plateau = agg.ks >= 10 * n
        assert plateau.any()
        margin = agg.sum_variance[plateau] - 3.0 * agg.sum_variance_stderr[plateau]
        ok &= bool(np.all(margin <= bound))
    elapsed = time.perf_counter() - start
    _verdict(3, "variance-bound-domination", ok and elapsed < 300.0)


def test_acceptance_4_unbiasedness():
    """Trial-mean estimates at the plateau sit within 5 standard errors of the
    true sum on the same grid, read from the streamed Monte Carlo chunks."""
    trials = 10_000
    ok = True
    for n, schedule in GRID:
        cfg = ProtocolConfig.uniform(
            np.arange(1.0, n + 1.0), schedule, Distribution.GAUSSIAN, 12 * n, 7
        )
        _, mean_y, stderr = streamed_trial_mean_estimates(cfg, trials, k_end=12 * n)
        dev = np.abs(mean_y - math.fsum(cfg.secrets))
        ok &= bool(np.all(dev <= 5.0 * np.maximum(stderr, 1e-15)))
    _verdict(4, "unbiasedness", ok)


def test_acceptance_5_privacy_composition_identity():
    """Summed per-step budgets match the closed-form totals to 1e-12 relative
    for K in {1, 2, 10, 1e3, 1e4} over 25 parameter combinations."""
    harmonic = [
        (NoiseSchedule.harmonic(c, d), delta)
        for c, d in [(1.0, 0.0), (1.0, 1.0), (2.0, 3.0), (0.5, 2.0)]
        for delta in (0.5, 1.0, 2.0)
    ]
    geometric = [
        (NoiseSchedule.geometric(c, phi), delta)
        for c, phi in [(1.0, 0.5), (2.0, 0.9), (0.5, 0.25), (1.0, 0.99)]
        for delta in (0.5, 1.0, 2.0)
    ] + [(NoiseSchedule.geometric(3.0, 0.6), 1.0)]
    combos = harmonic + geometric
    assert len(combos) == 25
    ok = True
    for schedule, delta in combos:
        agg = ScheduleAggregates.from_schedules([schedule] * 3)
        for K in (1, 2, 10, 1_000, 10_000):
            budget = epsilon_total(agg, delta, K, Distribution.LAPLACE)
            if math.isfinite(budget.total) and budget.total > 0:
                rel = abs(composed_total(agg, delta, K) - budget.total) / budget.total
            elif budget.total == 0.0:
                rel = abs(composed_total(agg, delta, K))
            else:
                # Totals beyond float range: compare in log space instead.
                rel = abs(log_composed_total(agg, delta, K) - budget.log_total) / abs(
                    budget.log_total
                )
            ok &= rel <= 1e-12
    _verdict(5, "privacy-composition", ok)


@pytest.mark.parametrize(
    "schedule",
    [NoiseSchedule.harmonic(1.0, 1.0), NoiseSchedule.geometric(1.0, 0.5)],
    ids=["harmonic", "geometric"],
)
@pytest.mark.parametrize("K", [1, 2])
@pytest.mark.parametrize("delta", [0.5, 1.0])
def test_acceptance_6_dp_audit(schedule, K, delta):
    """Observed max log-likelihood ratio over 1e6 traces per secret stays
    within epsilon + 0.15 on every audited case."""
    start = time.perf_counter()
    cfg = ProtocolConfig.uniform(
        [1.0, 2.0, 3.0], schedule, Distribution.LAPLACE, max(K, 1), 2711
    )
    result = dp_audit(cfg, delta, K, samples=1_000_000)
    elapsed = time.perf_counter() - start
    name = f"dp-audit[{schedule.family.value},K={K},delta={delta}]"
    _verdict(6, name, result.observed <= result.epsilon + 0.15 and elapsed < 180.0)


def _bisection_oracle(p: TradeoffProblem) -> float:
    """Deliberately naive interval bisection, independent of the solver: the
    zero of the slope of gamma_u U + gamma_a V + gamma_p epsilon at d = 0,
    with U = c pi n sqrt(n/6), V = c^2 pi^2 n^2 / 3, epsilon = delta K (K-1) / (2c)."""

    def slope(c):
        return (p.gamma_u * math.pi * p.n * math.sqrt(p.n / 6.0)
                + 2.0 * p.gamma_a * c * math.pi**2 * p.n**2 / 3.0
                - p.gamma_p * p.delta * p.K * (p.K - 1) / (2.0 * c**2))

    lo, hi = 0.0, 1.0
    while slope(hi) < 0.0:
        hi *= 2.0
    for _ in range(200):
        mid = (lo + hi) / 2.0
        if slope(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2.0


def test_acceptance_7_tradeoff_solver():
    """Residual, KKT stationarity, and oracle agreement on 200 random
    problems, plus the unit-balancer reference root."""
    rng = np.random.default_rng(17)
    ok = True
    for _ in range(200):
        p = TradeoffProblem(
            gamma_u=rng.uniform(0.5, 2.0),
            gamma_a=rng.uniform(0.5, 2.0),
            gamma_p=rng.uniform(0.5, 2.0),
            n=int(rng.integers(3, 9)),
            delta=rng.uniform(0.5, 1.5),
            K=int(rng.integers(2, 31)),
        )
        sol = solve_harmonic(p)
        ref = _bisection_oracle(p)
        ok &= sol.residual <= 1e-10
        ok &= sol.kkt_residual <= 1e-8
        ok &= abs(sol.c_star - ref) <= 1e-8 * max(1.0, ref)
    reference = TradeoffProblem(1.0, 1.0, 1.0, 3, 1.0, 2)
    unit = solve_harmonic(reference)
    ok &= abs(unit.c_star - 0.224) <= 5e-4
    ok &= abs(unit.c_star - _bisection_oracle(reference)) <= 1e-8
    _verdict(7, "tradeoff-solver", ok)


def test_acceptance_8_structural_oracles():
    """Circulant identities exact for n=3..16; covariance-trace bound on 100
    random instances; engine trajectories match the matrix-form dynamics."""
    ok = all(all(circulant_identities(n)) for n in range(3, 17))

    rng = np.random.default_rng(31)
    for trial in range(100):
        m = int(rng.integers(1, 6))
        n = int(rng.integers(2, 6))
        mats = [rng.normal(size=(n, n)) for _ in range(m)]
        variances = [rng.uniform(0.1, 3.0, size=n) for _ in range(m)]
        trace, bound, stderr = lemma1_trace(mats, variances, samples=20_000, seed=1000 + trial)
        ok &= trace <= bound + 3 * stderr

    # Matrix-form equivalence: x(k+1) = A x(k) + (I - A) beta(k), replayed
    # with the engine's own noise stream, to 1e-12 over 100 random steps.
    for n, seed in [(3, 0), (5, 1), (8, 2)]:
        schedule = NoiseSchedule.harmonic(rng.uniform(0.5, 5.0), 1.0)
        secrets = rng.uniform(-10.0, 10.0, size=n)
        cfg = ProtocolConfig.uniform(secrets, schedule, Distribution.GAUSSIAN, 100, seed)
        run = run_si(cfg)
        a = shift_matrix(n)
        eye = np.eye(n)
        src = NoiseSource(seed)
        nodes = np.arange(1, n + 1, dtype=np.uint64)
        x = secrets.astype(np.float64)
        states = run.phases[0][1]
        for k in range(100):
            scale = schedule.scale(np.array([k]))[0]
            beta = src.sample(nodes, k, 0, scale, cfg.distribution)
            x = a @ x + (eye - a) @ beta
            ok &= bool(np.all(np.abs(x - states[k + 1]) <= 1e-12))
    _verdict(8, "structural-oracles", ok)
