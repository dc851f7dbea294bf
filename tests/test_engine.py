"""Protocol execution: synchronous rounds, membership changes, Poisson variant."""
import math

import numpy as np
import pytest

from ringsum import (
    ConfigError,
    Distribution,
    Join,
    Leave,
    NoiseSchedule,
    NoiseSource,
    ProtocolConfig,
    run_ai,
    run_si,
)
from lemma_oracles import shift_matrix
from stepping_engine import MembershipError, ProtocolRun, leave, si_step

ZERO = NoiseSchedule.harmonic(0.0, 1.0)
HARM = NoiseSchedule.harmonic(5.0, 1.0)


def _config(secrets, schedule=HARM, dist=Distribution.GAUSSIAN, steps=20, seed=0, events=()):
    return ProtocolConfig.uniform(secrets, schedule, dist, steps, seed, events)


def _stepping_run(secrets, steps):
    """The round-by-round replay oracle, `steps` rounds into a run."""
    nodes = list(range(1, len(secrets) + 1))
    run = ProtocolRun(
        nodes,
        secrets=dict(zip(nodes, secrets)),
        schedules=dict.fromkeys(nodes, HARM),
        distribution=Distribution.GAUSSIAN,
        source=NoiseSource(0),
    )
    for _ in range(steps):
        si_step(run)
    return run


class TestSynchronousStep:
    def test_zero_noise_step_rotates_states(self):
        run = run_si(_config([3.0, 1.0, 2.0], ZERO, steps=1))
        # With no masking noise each node hands its full state to its successor.
        assert list(run.x) == [2.0, 3.0, 1.0]

    def test_zero_noise_full_cycle_returns_initial_states(self):
        run = run_si(_config([3.0, 1.0, 2.0], ZERO, steps=3))
        assert list(run.x) == [3.0, 1.0, 2.0]

    def test_matches_matrix_dynamics(self):
        cfg = _config([1.0, 2.0, 3.0, 4.0, 5.0], steps=50, seed=11)
        run = run_si(cfg)
        src = NoiseSource(cfg.rng_seed)
        a = shift_matrix(5)
        x = np.array(cfg.secrets)
        nodes = np.arange(1, 6, dtype=np.uint64)
        for k in range(cfg.steps):
            scale = cfg.schedules[0].scale(np.array([k]))[0]
            beta = src.sample(nodes, k, 0, scale, cfg.distribution)
            x = a @ x + (np.eye(5) - a) @ beta
        assert np.allclose(x, run.x, rtol=0, atol=1e-12)

    def test_geometric_draws_take_the_python_power(self, monkeypatch):
        # On AVX-512, np.power(0.9, k) and 0.9**k differ in the last bit at
        # k = 12, 23 and 40; the run must draw at the latter.
        c, phi = 20.0, 0.9
        cfg = _config([1.5, 2.5, -6.0], NoiseSchedule.geometric(c, phi), Distribution.LAPLACE,
                      steps=41, seed=11)
        drawn, sample = [], NoiseSource.sample

        def recording_sample(self, *args):
            drawn.append(sample(self, *args))
            return drawn[-1]

        monkeypatch.setattr(NoiseSource, "sample", recording_sample)
        run_si(cfg, record_trace=False)
        monkeypatch.undo()
        (betas,) = drawn  # one block: (steps, trials, n)
        src = NoiseSource(cfg.rng_seed)
        for k in (12, 23, 40):
            want = [src.sample(node, k, 0, c * phi**k, cfg.distribution) for node in (1, 2, 3)]
            assert betas[k, 0].view(np.uint64).tolist() == np.array(want).view(np.uint64).tolist()

    def test_trace_records_every_masked_message(self):
        cfg = _config([1.0, 2.0, 3.0], steps=4)
        run = run_si(cfg)
        assert len(run.trace) == 4 * 3
        ks = [k for k, _, _ in run.trace]
        assert ks == sorted(ks)

    def test_same_trial_reproduces_bit_exactly(self):
        cfg = _config([1.0, 2.0, 3.0], steps=30, seed=5)
        a, b = run_si(cfg, trial=2), run_si(cfg, trial=2)
        assert np.array_equal(a.x, b.x)

    def test_different_trials_differ(self):
        cfg = _config([1.0, 2.0, 3.0], steps=30, seed=5)
        assert not np.array_equal(run_si(cfg, trial=0).x, run_si(cfg, trial=1).x)

    def test_conservation_across_distributions(self):
        for dist in Distribution:
            cfg = _config([10.0, -4.0, 7.5, 0.25], dist=dist, steps=200)
            run = run_si(cfg)
            assert run.max_rel_drift <= 1e-12

    def test_manual_stepping_matches_run_si(self):
        cfg = _config([1.0, 2.0, 3.0], steps=10, seed=3)
        auto = run_si(cfg)
        nodes = [1, 2, 3]
        manual = ProtocolRun(
            nodes,
            secrets=dict(zip(nodes, cfg.secrets)),
            schedules=dict(zip(nodes, cfg.schedules)),
            distribution=cfg.distribution,
            source=NoiseSource(cfg.rng_seed),
        )
        for _ in range(10):
            si_step(manual)
        assert np.array_equal(manual.x, auto.x)


class TestLeave:
    def test_member_sum_drops_by_leaver_secret(self):
        cfg = _config([1.0, 2.0, 3.0, 4.0], steps=6, events=(Leave(3, node=2),))
        run = run_si(cfg)
        assert run.members == (1, 3, 4)
        assert run.target == pytest.approx(8.0)
        assert run.max_rel_drift <= 1e-12

    def test_leave_round_emits_one_fewer_message(self):
        cfg = _config([1.0, 2.0, 3.0, 4.0], steps=6, events=(Leave(3, node=2),))
        run = run_si(cfg)
        per_round = {}
        for k, _, _ in run.trace:
            per_round[k] = per_round.get(k, 0) + 1
        # 4 messages while full, 3 in the departure round (the predecessor
        # skips sending), and 3 per round on the shrunken ring afterwards.
        assert [per_round[k] for k in sorted(per_round)] == [4, 4, 4, 3, 3, 3]

    def test_predecessor_state_stays_unmasked(self):
        # In the departure round the predecessor only accumulates: with zero
        # noise it ends up holding its old state plus the incoming message.
        cfg = _config([1.0, 2.0, 3.0, 4.0], ZERO, steps=1, events=(Leave(0, node=3),))
        run = run_si(cfg)
        # node 2 (predecessor) keeps x=2 and receives node 1's full state 1.
        assert run.x[run.members.index(2)] == 3.0

    # The replay oracle rejects what `ProtocolConfig.phases()` and the kernel
    # reject for the library.
    def test_unknown_node_rejected(self):
        run = _stepping_run([1.0, 2.0, 3.0, 4.0], steps=2)
        with pytest.raises(MembershipError):
            leave(run, 9)

    def test_shrinking_below_three_rejected(self):
        run = _stepping_run([1.0, 2.0, 3.0], steps=2)
        with pytest.raises(MembershipError):
            leave(run, 1)


class TestJoin:
    def test_join_adds_secret_to_target(self):
        cfg = _config([1.0, 2.0, 3.0], steps=6, events=(Join(2, 9, anchor=1, secret=5.0),))
        run = run_si(cfg)
        assert run.members == (1, 9, 2, 3)
        assert run.target == pytest.approx(11.0)
        assert run.max_rel_drift <= 1e-12

    # Each node gets its own schedule, so the one a joiner ends up with names
    # where it came from.
    OWN = tuple(NoiseSchedule.harmonic(float(i), 1.0) for i in range(1, 5))

    def _schedule_of(self, node, events):
        cfg = ProtocolConfig((1.0, 2.0, 3.0, 4.0), self.OWN, Distribution.GAUSSIAN, 4, 0, events)
        last = cfg.phases()[-1]
        return last.schedules[last.order.index(node)]

    def test_returning_node_reuses_its_schedule(self):
        events = (Leave(1, node=4), Join(2, 4, anchor=2, secret=4.0))
        assert self._schedule_of(4, events) is self.OWN[3]

    def test_new_node_copies_anchor_schedule(self):
        assert self._schedule_of(77, (Join(1, 77, anchor=2, secret=0.5),)) is self.OWN[1]

    def test_explicit_schedule_wins(self):
        custom = NoiseSchedule.harmonic(9.0, 2.0)
        assert self._schedule_of(77, (Join(1, 77, anchor=2, secret=0.5, schedule=custom),)) is custom

    def test_duplicate_member_rejected(self):
        with pytest.raises(ConfigError):
            _config([1.0, 2.0, 3.0], steps=2, events=(Join(1, 2, anchor=1, secret=0.0),))


class TestThreePhaseRun:
    def test_segments_track_membership_targets(self):
        cfg = _config(
            [1.0, 2.0, 3.0, 4.0],
            steps=30,
            events=(Leave(10, node=4), Join(20, 4, anchor=3, secret=4.0)),
        )
        run = run_si(cfg)
        targets = [phase.target for phase, _ in run.phases]
        assert targets == pytest.approx([10.0, 6.0, 10.0])
        assert [phase.n for phase, _ in run.phases] == [4, 3, 4]
        assert run.max_rel_drift <= 1e-12

    def test_segment_starts_align_with_event_times(self):
        cfg = _config(
            [1.0, 2.0, 3.0, 4.0],
            steps=30,
            events=(Leave(10, node=4), Join(20, 4, anchor=3, secret=4.0)),
        )
        run = run_si(cfg)
        # The leave replaces round 10, so the shrunken segment starts at 11;
        # the join rewires before round 20.
        assert [phase.start_k for phase, _ in run.phases] == [0, 11, 20]


class TestAsynchronous:
    def test_round_robin_zero_noise_conserves_and_rotates(self):
        cfg = _config([3.0, 1.0, 2.0], ZERO, steps=1)
        order = [1, 2, 3] * 4
        run = run_ai(cfg, rate=1.0, horizon=99.0, tick_order=order)
        assert run.x.sum() == pytest.approx(6.0)
        assert run.max_rel_drift <= 1e-12

    def test_poisson_run_conserves_sum(self):
        cfg = _config([5.0, -1.0, 2.5, 3.0], steps=1, seed=8)
        run = run_ai(cfg, rate=2.0, horizon=50.0)
        assert run.max_rel_drift <= 1e-10
        assert sum(run.tick_counts.values()) == run.k

    def test_poisson_replay_is_deterministic(self):
        cfg = _config([5.0, -1.0, 2.5], steps=1, seed=8)
        a = run_ai(cfg, rate=1.0, horizon=30.0)
        b = run_ai(cfg, rate=1.0, horizon=30.0)
        assert np.array_equal(a.x, b.x)
        assert a.trace == b.trace

    def test_membership_events_rejected(self):
        cfg = _config([1.0, 2.0, 3.0, 4.0], steps=5, events=(Leave(2, node=1),))
        with pytest.raises(ConfigError):
            run_ai(cfg, rate=1.0, horizon=10.0)

    def test_nonpositive_horizon_rejected(self):
        cfg = _config([1.0, 2.0, 3.0], steps=5)
        with pytest.raises(ConfigError):
            run_ai(cfg, rate=1.0, horizon=0.0)


class TestStartShift:
    def test_harmonic_d_zero_is_runnable_and_flagged(self):
        cfg = _config([1.0, 2.0, 3.0], NoiseSchedule.harmonic(2.0, 0.0), steps=5)
        run = run_si(cfg)
        assert run.start_shift_applied
        assert run.max_rel_drift <= 1e-12

    @pytest.mark.parametrize("at, shifted", [(0, True), (1, False)])
    def test_member_joining_at_step_zero_is_flagged(self, at, shifted):
        # Node 9 draws its k = 0 noise at the substituted scale only if it is a
        # member at k = 0; the initial members' schedules have d = 1.
        cfg = _config([1.0, 2.0, 3.0], NoiseSchedule.harmonic(1.0, 1.0), steps=3,
                      events=(Join(at, 9, 1, 4.0, NoiseSchedule.harmonic(1.0, 0.0)),))
        assert run_si(cfg).start_shift_applied is shifted

    def test_poisson_run_is_flagged_once_a_shifted_member_ticks(self):
        cfg = _config([1.0, 2.0, 3.0], NoiseSchedule.harmonic(2.0, 0.0))
        assert run_ai(cfg, rate=1.0, horizon=1.0, tick_order=[2]).start_shift_applied
        assert not run_ai(cfg, rate=1.0, horizon=1.0, tick_order=[]).start_shift_applied
