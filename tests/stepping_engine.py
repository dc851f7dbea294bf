"""The round-by-round synchronous engine: the replay oracle of `run_si`.

`ProtocolRun` with `si_step`, `leave` and `join` advances one trial one
round at a time, with the membership change applied at the round the caller
chooses. It was the package's stepping API until `engine.simulate` became its
only synchronous engine, and it is kept here verbatim, except that a run
starts from a plain list of nodes in ring order, so that `test_kernel.py` and
`test_async_engine.py` can check the batched kernel and the block-drawn
Poisson-clock engine against it bit for bit. `kernel_trace` collects the
kernel's messages in the form of `ProtocolRun.trace`, through the record
`record_into` makes.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ringsum.engine import _round, noise_block, simulate
from ringsum.model import Distribution, Family, NoiseSchedule, ProtocolConfig, RingSumError
from ringsum.noise import NoiseSource


class MembershipError(RingSumError, ValueError):
    """Invalid join or leave request."""


@dataclass
class Segment:
    """A maximal stretch of constant membership.

    `states[t]` is the state vector at step `start_k + t`, aligned with
    `order`. The estimator window length inside a segment is `len(order)`.
    """

    start_k: int
    order: tuple[int, ...]
    target: float
    states: list | np.ndarray = field(default_factory=list)

    @property
    def n(self) -> int:
        return len(self.order)

    def state_matrix(self) -> np.ndarray:
        return np.asarray(self.states)


class ProtocolRun:
    """Evolving protocol state plus the adversary-observable message trace."""

    def __init__(
        self,
        order: list[int],
        secrets: dict[int, float],
        schedules: dict[int, NoiseSchedule],
        distribution: Distribution,
        source: NoiseSource,
        trial: int = 0,
        record_trace: bool = True,
        record_states: bool = True,
    ):
        self.secrets = dict(secrets)
        self.schedules = dict(schedules)
        self.distribution = distribution
        self.source = source
        self.trial = trial
        self.record_trace = record_trace
        self.record_states = record_states

        self.order: list[int] = list(order)
        self.x = np.array([secrets[i] for i in self.order], dtype=np.float64)
        self.k = 0
        self.trace: list[tuple[int, int, float]] = []
        self.target = math.fsum(secrets[i] for i in self.order)
        self.max_rel_drift = 0.0
        self.start_shift_applied = any(
            s.family is Family.HARMONIC and s.d == 0 for s in self.schedules.values()
        )
        self.segments: list[Segment] = []
        self._open_segment()

    @classmethod
    def start(cls, config: ProtocolConfig, source: NoiseSource | None = None, trial: int = 0,
              record_trace: bool = True, record_states: bool = True) -> "ProtocolRun":
        """A run of `config` at step 0 on the canonical ring 1..n."""
        nodes = list(range(1, len(config.secrets) + 1))
        return cls(nodes, dict(zip(nodes, config.secrets)), dict(zip(nodes, config.schedules)),
                   config.distribution, source or NoiseSource(config.rng_seed), trial,
                   record_trace, record_states)

    # -- bookkeeping ------------------------------------------------------

    @property
    def n(self) -> int:
        return len(self.order)

    @property
    def members(self) -> tuple[int, ...]:
        return tuple(self.order)

    def member_sum(self) -> float:
        return float(self.x.sum())

    def state_of(self, node: int) -> float:
        return float(self.x[self.order.index(node)])

    def _open_segment(self):
        seg = Segment(self.k, tuple(self.order), self.target)
        if self.record_states:
            seg.states.append(self.x.copy())
        self.segments.append(seg)

    def _after_step(self):
        if self.record_states:
            self.segments[-1].states.append(self.x.copy())
        self._track_drift()

    def _track_drift(self):
        # Scalar arithmetic, not engine._drift: si_step calls this on every round.
        drift = abs(self.x.sum() - self.target) / max(1.0, abs(self.target))
        if not drift <= self.max_rel_drift and not math.isnan(self.max_rel_drift):
            self.max_rel_drift = drift  # a NaN drift is taken and then kept

    def _record(self, k: int, nodes, d: np.ndarray) -> None:
        self.trace.extend((k, node, float(v)) for node, v in zip(nodes, d[0]))

    def _play_round(self, *leaver_secret) -> np.ndarray:
        """Run round k on the current state; returns the next state."""
        beta = noise_block(self.source, self.distribution, self.order,
                           [self.schedules[i] for i in self.order], [self.k], self.trial)[0]
        new, sent = np.empty((1, self.n)), []

        def sink(senders):
            sent.append((senders, np.empty((1, len(senders)))))
            return sent[-1][1]

        _round(self.x[None, :], beta, self.order, new, sink, *leaver_secret)
        if self.record_trace:
            self._record(self.k, *sent[0])
        self.k += 1
        return new[0]


def si_step(run: ProtocolRun) -> ProtocolRun:
    """One synchronous round: mask, hand off along the ring, increment k."""
    run.x = run._play_round()
    run._after_step()
    return run


def leave(run: ProtocolRun, node: int, k: int | None = None) -> ProtocolRun:
    """Execute the departure round for `node` at the current step.

    The leaver unmasks its secret out of its final message; its predecessor
    skips sending and only accumulates. The member sum drops by the leaver's
    secret exactly.
    """
    if k is not None and k != run.k:
        raise MembershipError(f"leave scheduled at k={k} but run is at k={run.k}")
    if node not in run.order:
        raise MembershipError(f"node {node} is not a member")
    if run.n - 1 < 3:
        raise MembershipError("leave rejected: membership would drop below 3")
    li = run.order.index(node)
    run.x = np.delete(run._play_round(li, run.secrets[node]), li)
    run.order.pop(li)
    run.target = math.fsum(run.secrets[i] for i in run.order)
    run._open_segment()
    run._track_drift()
    return run


def join(
    run: ProtocolRun,
    new_node: int,
    anchor: int,
    secret: float,
    schedule: NoiseSchedule | None = None,
) -> ProtocolRun:
    """Insert `new_node` after `anchor` with state equal to its secret.

    Takes effect immediately; the next round runs on the enlarged ring. If no
    schedule is given, a returning node reuses its previous one, otherwise it
    copies the anchor's.
    """
    if new_node in run.order:
        raise MembershipError(f"node {new_node} is already a member")
    if anchor not in run.order:
        raise MembershipError(f"anchor node {anchor} is not a member")
    pos = run.order.index(anchor) + 1
    run.order.insert(pos, new_node)
    run.x = np.insert(run.x, pos, secret)
    run.secrets[new_node] = secret
    run.schedules[new_node] = schedule or run.schedules.get(new_node) or run.schedules[anchor]
    run.target = math.fsum(run.secrets[i] for i in run.order)
    run._open_segment()
    return run


def record_into(messages: list, trials: int):
    """A `simulate` record that hands each round a fresh (trials,
    len(senders)) array for its messages and lists (k, senders, array)."""
    def record(k, senders):
        messages.append((k, senders, np.empty((trials, len(senders)))))
        return messages[-1][2]
    return record


def kernel_trace(config: ProtocolConfig, trial: int = 0) -> list[tuple[int, int, float]]:
    """The (k, node, d) messages that `engine.simulate` delivers in trial
    `trial` of `config`, in the order `ProtocolRun.trace` lists them."""
    sent = []
    simulate(config, 1, [np.empty((p.stop_k - p.start_k + 1, 1, p.n)) for p in config.phases()],
             trial, record=record_into(sent, 1))
    return [(k, node, float(v)) for k, nodes, d in sent for node, v in zip(nodes, d[0])]
