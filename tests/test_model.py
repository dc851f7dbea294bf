"""Domain-type validation: schedules, protocol configs and their phases."""
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from ringsum import (
    ConfigError,
    Distribution,
    Family,
    Join,
    Leave,
    NoiseSchedule,
    ProtocolConfig,
)


class TestNoiseSchedule:
    def test_harmonic_scale_formula(self):
        scales = NoiseSchedule.harmonic(1000.0, 1.0).scale(np.array([0, 999], dtype=np.uint64))
        assert scales.dtype == np.float64
        assert scales.tolist() == [1000.0, 1.0]

    def test_geometric_scale_formula(self):
        scales = NoiseSchedule.geometric(1.0, 0.5).scale(np.array([3], dtype=np.uint64))
        assert scales.dtype == np.float64
        assert scales.tolist() == [0.125]

    def test_harmonic_d_zero_substitutes_only_at_step_zero(self):
        sched = NoiseSchedule.harmonic(2.0, 0.0)
        assert sched.start_shifted
        assert not NoiseSchedule.harmonic(2.0, 1.0).start_shifted
        assert not NoiseSchedule.geometric(2.0, 0.5).start_shifted
        assert sched.scale(np.arange(4)).tolist() == [2.0, 2.0, 1.0, 2.0 / 3.0]

    @pytest.mark.parametrize("phi", [0.9, 0.999])
    def test_geometric_scale_is_the_python_power_bit_for_bit(self, phi):
        # np.power differs from it in the last bit at some k on AVX-512.
        c = 3.0
        want = np.array([c * phi**k for k in range(20000)])
        got = NoiseSchedule.geometric(c, phi).scale(np.arange(20000))
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_variance_is_scale_squared(self):
        sched = NoiseSchedule.geometric(2.0, 0.5)
        assert sched.scale(np.array([2]))[0] ** 2 == pytest.approx(0.25)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(family=Family.HARMONIC, c=-1.0, d=1.0),
            dict(family=Family.HARMONIC, c=1.0, d=-1.0),
            dict(family=Family.HARMONIC, c=1.0, d=None),
            dict(family=Family.HARMONIC, c=1.0, d=1.0, phi=0.5),
            dict(family=Family.GEOMETRIC, c=1.0, phi=0.0),
            dict(family=Family.GEOMETRIC, c=1.0, phi=1.0),
            dict(family=Family.GEOMETRIC, c=1.0, phi=0.5, d=1.0),
            dict(family=Family.GEOMETRIC, c=1.0, phi=None),
            dict(family=Family.HARMONIC, c=math.inf, d=1.0),
            dict(family=Family.HARMONIC, c=math.nan, d=1.0),
            dict(family=Family.HARMONIC, c=1.0, d=math.inf),
            dict(family=Family.GEOMETRIC, c=math.inf, phi=0.5),
            dict(family=Family.GEOMETRIC, c=1.0, phi=math.nan),
        ],
    )
    def test_invalid_parameters_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            NoiseSchedule(**kwargs)

    @given(
        c=st.floats(0.01, 1e6),
        d=st.floats(0.0, 100.0),
        k=st.integers(1, 10_000),
    )
    def test_harmonic_variance_strictly_decreasing(self, c, d, k):
        earlier, later = NoiseSchedule.harmonic(c, d).scale(np.array([k, k + 1]))
        assert later < earlier

    @given(
        c=st.floats(0.01, 1e6),
        phi=st.floats(0.01, 0.99),
        k=st.integers(0, 500),
    )
    def test_geometric_variance_decreasing(self, c, phi, k):
        earlier, later = NoiseSchedule.geometric(c, phi).scale(np.array([k, k + 1]))
        assert later <= earlier
        if later > 0.0:  # strictness holds until the scale underflows to zero
            assert later < earlier


class TestRingTopology:
    """The ring order that `ProtocolConfig.phases()` carries: each member sends
    to the next one in `Phase.order`, the last to the first."""

    @staticmethod
    def _order(n, events=()):
        cfg = ProtocolConfig.uniform(
            range(1, n + 1), NoiseSchedule.harmonic(1.0, 1.0), Distribution.GAUSSIAN,
            8, 0, events=events,
        )
        return cfg.phases()[-1].order

    def test_build_ring_order(self):
        assert self._order(4) == (1, 2, 3, 4)

    def test_leave_rewires_predecessor_to_successor(self):
        assert self._order(4, (Leave(3, node=3),)) == (1, 2, 4)

    def test_join_inserts_after_anchor(self):
        assert self._order(3, (Join(3, 7, anchor=2, secret=0.0),)) == (1, 2, 7, 3)

    def test_leave_then_rejoin_restores_order(self):
        events = (Leave(3, node=4), Join(5, 4, anchor=3, secret=4.0))
        assert self._order(5, events) == (1, 2, 3, 4, 5)

    @given(n=st.integers(3, 32))
    def test_order_walk_visits_every_node_once(self, n):
        assert sorted(self._order(n)) == list(range(1, n + 1))


class TestProtocolConfig:
    def test_uniform_builds_one_schedule_per_node(self):
        cfg = ProtocolConfig.uniform(
            [1, 2, 3], NoiseSchedule.harmonic(1.0, 1.0), Distribution.GAUSSIAN, 10, 0
        )
        assert len(cfg.schedules) == 3
        assert cfg.family is Family.HARMONIC
        assert cfg.total == 6.0

    def test_total_uses_compensated_summation(self):
        secrets = [0.1] * 10
        cfg = ProtocolConfig.uniform(
            secrets, NoiseSchedule.harmonic(1.0, 1.0), Distribution.GAUSSIAN, 1, 0
        )
        assert cfg.total == math.fsum(secrets)

    def test_mixed_families_rejected(self):
        with pytest.raises(ConfigError):
            ProtocolConfig(
                (1.0, 2.0, 3.0),
                (
                    NoiseSchedule.harmonic(1.0, 1.0),
                    NoiseSchedule.geometric(1.0, 0.5),
                    NoiseSchedule.harmonic(1.0, 1.0),
                ),
                Distribution.GAUSSIAN,
                10,
                0,
            )

    def test_event_outside_horizon_rejected(self):
        with pytest.raises(ConfigError):
            ProtocolConfig.uniform(
                [1, 2, 3, 4],
                NoiseSchedule.harmonic(1.0, 1.0),
                Distribution.GAUSSIAN,
                10,
                0,
                events=(Leave(time=10, node=2),),
            )

    def test_unordered_events_rejected(self):
        with pytest.raises(ConfigError):
            ProtocolConfig.uniform(
                [1, 2, 3, 4],
                NoiseSchedule.harmonic(1.0, 1.0),
                Distribution.GAUSSIAN,
                10,
                0,
                events=(Join(5, 9, 1, 0.0), Leave(2, 4)),
            )

    @pytest.mark.parametrize("secrets, events, message", [
        ([1, 2, 3], (Leave(5, node=1),), "got 2 from step 6"),
        ([1, 2, 3, 4], (Leave(3, node=1), Leave(5, node=2)), "got 2 from step 6"),
        ([1, 2, 3], (Leave(9, node=3),), "got 2 from step 10"),  # leave in the last round
        ([], (), "got 0 from step 0"),
    ], ids=["leave", "second-leave", "last-round-leave", "empty"])
    def test_phase_below_three_members_rejected(self, secrets, events, message):
        with pytest.raises(ConfigError, match=f"at least 3 members, {message}$"):
            ProtocolConfig.uniform(
                secrets, NoiseSchedule.harmonic(1.0, 1.0), Distribution.GAUSSIAN, 10, 0, events=events
            )

    def test_join_and_leave_at_one_time_keep_three_members(self):
        cfg = ProtocolConfig.uniform(
            [1, 2, 3], NoiseSchedule.harmonic(1.0, 1.0), Distribution.GAUSSIAN, 10, 0,
            events=(Join(5, 9, anchor=1, secret=0.0), Leave(5, node=2)),
        )
        assert [p.n for p in cfg.phases()] == [3, 4, 3]

    def test_too_few_secrets_rejected(self):
        with pytest.raises(ConfigError):
            ProtocolConfig.uniform(
                [1, 2], NoiseSchedule.harmonic(1.0, 1.0), Distribution.GAUSSIAN, 10, 0
            )

    @pytest.mark.parametrize("secrets", [[math.nan, 2.0, 3.0], [1.0, math.inf, 3.0]])
    def test_non_finite_secrets_rejected(self, secrets):
        with pytest.raises(ConfigError):
            ProtocolConfig.uniform(
                secrets, NoiseSchedule.harmonic(1.0, 1.0), Distribution.GAUSSIAN, 10, 0
            )

    def test_non_finite_join_secret_rejected(self):
        with pytest.raises(ConfigError):
            ProtocolConfig.uniform(
                [1, 2, 3], NoiseSchedule.harmonic(1.0, 1.0), Distribution.GAUSSIAN, 10, 0,
                events=(Join(4, 9, anchor=1, secret=math.nan),),
            )


class TestMembershipEventPass:
    """Invalid membership events fail when the config is built, before any round."""

    def _config(self, events, n=5, steps=6000):
        return ProtocolConfig.uniform(
            range(1, n + 1), NoiseSchedule.harmonic(1.0, 1.0), Distribution.GAUSSIAN,
            steps, 0, events=events,
        )

    @pytest.mark.parametrize(
        "events",
        [
            (Leave(5000, node=9),),                               # not a member
            (Leave(10, node=2), Leave(5000, node=2)),             # already gone
            (Join(5000, 3, anchor=1, secret=0.0),),               # already a member
            (Join(5000, 9, anchor=7, secret=0.0),),               # anchor missing
            (Leave(10, node=2), Join(5000, 9, anchor=2, secret=0.0)),  # anchor departed
            (Leave(5000, node=1), Leave(5000, node=2)),           # two leaves at once
        ],
        ids=["leave-non-member", "leave-departed", "join-member", "join-no-anchor",
             "join-departed-anchor", "two-leaves"],
    )
    def test_invalid_event_rejected_at_construction(self, events):
        with pytest.raises(ConfigError):
            self._config(events)

    def test_phases_follow_the_member_set(self):
        cfg = self._config(
            (Leave(10, node=5), Join(20, 5, anchor=4, secret=5.0), Join(20, 8, anchor=1, secret=2.0)),
            steps=30,
        )
        phases = cfg.phases()
        assert [(p.start_k, p.stop_k) for p in phases] == [(0, 10), (11, 20), (20, 20), (20, 30)]
        assert [p.order for p in phases] == [
            (1, 2, 3, 4, 5), (1, 2, 3, 4), (1, 2, 3, 4, 5), (1, 8, 2, 3, 4, 5)
        ]
        assert [p.leaver for p in phases] == [5, None, None, None]
        assert [p.joined for p in phases] == [None, None, 5, 8]
        assert phases[-1].target == 17.0

    def test_returning_node_keeps_its_schedule(self):
        own = NoiseSchedule.harmonic(7.0, 2.0)
        cfg = ProtocolConfig(
            (1.0, 2.0, 3.0, 4.0),
            (NoiseSchedule.harmonic(1.0, 1.0),) * 3 + (own,),
            Distribution.GAUSSIAN, 30, 0,
            events=(Leave(5, node=4), Join(10, 4, anchor=1, secret=4.0), Join(12, 9, anchor=4, secret=0.0)),
        )
        last = cfg.phases()[-1]
        assert last.order == (1, 4, 9, 2, 3)
        assert last.schedules[1] is own and last.schedules[2] is own
