"""Domain types shared by the simulator and the analysis code.

Everything here is immutable after construction and safe to share across
threads. Node identifiers are opaque nonnegative integers; ring order is the
order of a phase's `order` tuple (each node sends to the next, the last to
the first), never identifier arithmetic, so membership changes do not
renumber surviving nodes.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np


class RingSumError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(RingSumError, ValueError):
    """Invalid protocol configuration."""


def check_ring(n: int, when: str = "") -> None:
    """The hand-off needs a ring of at least 3 members."""
    if n < 3:
        raise ConfigError(f"a ring needs at least 3 members, got {n}{when}")


class Family(enum.Enum):
    HARMONIC = "harmonic"
    GEOMETRIC = "geometric"


class Distribution(enum.Enum):
    LAPLACE = "laplace"
    GAUSSIAN = "gaussian"
    UNIFORM_SYMMETRIC = "uniform"


# Scale parameterization: the schedule value v(k) is used as the Laplace
# *scale* parameter b (actual variance 2 v^2) and as the standard deviation
# for the Gaussian and symmetric-uniform kinds. The Laplace scale reading is
# the one under which the per-step privacy budget delta / v(k) is exact.


@dataclass(frozen=True)
class NoiseSchedule:
    """A node's decaying noise magnitude v(k).

    Harmonic: v(k) = c / (k + d), geometric: v(k) = c * phi**k.
    """

    family: Family
    c: float
    d: float | None = None
    phi: float | None = None

    def __post_init__(self):
        if not (math.isfinite(self.c) and self.c >= 0):
            raise ConfigError(f"noise magnitude c must be finite and >= 0, got {self.c}")
        if self.family is Family.HARMONIC:
            if self.d is None or not (math.isfinite(self.d) and self.d >= 0):
                raise ConfigError(f"harmonic schedule needs a finite offset d >= 0, got {self.d}")
            if self.phi is not None:
                raise ConfigError("harmonic schedule must not set phi")
        elif self.family is Family.GEOMETRIC:
            if self.phi is None or not 0.0 < self.phi < 1.0:
                raise ConfigError(f"geometric schedule needs phi in (0,1), got {self.phi}")
            if self.d is not None:
                raise ConfigError("geometric schedule must not set d")
        else:  # pragma: no cover - enum is closed
            raise ConfigError(f"unknown schedule family {self.family}")

    @classmethod
    def harmonic(cls, c: float, d: float) -> "NoiseSchedule":
        return cls(Family.HARMONIC, c, d=d)

    @classmethod
    def geometric(cls, c: float, phi: float) -> "NoiseSchedule":
        return cls(Family.GEOMETRIC, c, phi=phi)

    @property
    def start_shifted(self) -> bool:
        """Harmonic with d = 0: v(0) is undefined, so `scale` takes d = 1 at k = 0."""
        return self.family is Family.HARMONIC and self.d == 0

    def scale(self, ks: np.ndarray) -> np.ndarray:
        """v(k) at each step of the 1-D integer array `ks`, as float64: the one
        evaluator every run draws at. The geometric power is Python's, whose
        bits do not depend on numpy's SIMD target."""
        if self.family is Family.GEOMETRIC:
            return np.array([self.c * self.phi**k for k in ks.tolist()], dtype=np.float64)
        ks = ks.astype(np.float64)
        return self.c / (np.maximum(ks, 1.0) if self.start_shifted else ks + self.d)


@dataclass(frozen=True)
class Leave:
    time: int
    node: int


@dataclass(frozen=True)
class Join:
    time: int
    node: int
    anchor: int
    secret: float
    schedule: NoiseSchedule | None = None


MembershipEvent = Leave | Join


@dataclass(frozen=True)
class Phase:
    """A maximal stretch of constant membership: the states at start_k..stop_k.

    Round stop_k is the departure round of `leaver` if set; `joined` was
    inserted right before start_k. `secrets`, `schedules` align with `order`.
    """

    start_k: int
    stop_k: int
    order: tuple[int, ...]
    secrets: tuple[float, ...]
    schedules: tuple[NoiseSchedule, ...]
    leaver: int | None = None
    joined: int | None = None

    @property
    def n(self) -> int:
        return len(self.order)

    @property
    def target(self) -> float:
        return math.fsum(self.secrets)


@dataclass(frozen=True)
class ProtocolConfig:
    """Full description of one protocol run.

    `schedules` must be family-homogeneous: every closed-form bound in the
    analysis module assumes a single schedule family across nodes.
    """

    secrets: tuple[float, ...]
    schedules: tuple[NoiseSchedule, ...]
    distribution: Distribution
    steps: int
    rng_seed: int
    events: tuple[MembershipEvent, ...] = ()

    def __post_init__(self):
        n = len(self.secrets)
        if len(self.schedules) != n:
            raise ConfigError(
                f"{len(self.schedules)} schedules for {n} secrets; one per node required"
            )
        joining = tuple(e.secret for e in self.events if isinstance(e, Join))
        if not all(map(math.isfinite, (*self.secrets, *joining))):
            raise ConfigError(f"secrets must be finite, got {(*self.secrets, *joining)}")
        families = {s.family for s in self.schedules}
        if len(families) > 1:
            raise ConfigError("schedules must share a single family across nodes")
        if self.steps < 1:
            raise ConfigError(f"step count must be >= 1, got {self.steps}")
        times = [e.time for e in self.events]
        if times != sorted(times):
            raise ConfigError("membership events must be time-ordered")
        for e in self.events:
            if not 0 <= e.time < self.steps:
                raise ConfigError(f"event time {e.time} outside [0, {self.steps})")
        self.phases()

    def phases(self) -> tuple[Phase, ...]:
        """The constant-membership phases; at one time joins apply first, then
        the leave, whose departure round replaces that round. Raises ConfigError
        for an event the member set cannot take and for a phase of fewer than
        3 members, the initial ring included."""
        order = list(range(1, len(self.secrets) + 1))
        secrets, schedules = dict(zip(order, self.secrets)), dict(zip(order, self.schedules))
        phases, start, joined, left_at = [], 0, None, None

        def close(stop_k: int, leaver: int | None = None) -> None:
            check_ring(len(order), f" from step {start}")
            phases.append(Phase(start, stop_k, tuple(order), tuple(secrets[i] for i in order),
                                tuple(schedules[i] for i in order), leaver, joined))

        for e in sorted(self.events, key=lambda e: (e.time, isinstance(e, Leave))):
            if isinstance(e, Leave):
                if e.time == left_at:
                    raise ConfigError(f"multiple leave events at time {e.time}")
                if e.node not in order:
                    raise ConfigError(f"leave at time {e.time}: node {e.node} is not a member")
                close(e.time, leaver=e.node)
                start, joined, left_at = e.time + 1, None, e.time
                order.remove(e.node)
                continue
            if e.node in order or e.anchor not in order:
                raise ConfigError(f"join at time {e.time}: node {e.node} must be new "
                                  f"and anchor {e.anchor} a member")
            close(e.time)
            start, joined = e.time, e.node
            order.insert(order.index(e.anchor) + 1, e.node)
            secrets[e.node] = e.secret
            schedules[e.node] = e.schedule or schedules.get(e.node) or schedules[e.anchor]
        close(self.steps)
        return tuple(phases)

    @classmethod
    def uniform(
        cls,
        secrets,
        schedule: NoiseSchedule,
        distribution: Distribution,
        steps: int,
        rng_seed: int,
        events=(),
    ) -> "ProtocolConfig":
        """Every node shares one schedule (the common case in practice)."""
        secrets = tuple(float(s) for s in secrets)
        return cls(secrets, (schedule,) * len(secrets), distribution, steps, rng_seed, tuple(events))

    @property
    def family(self) -> Family:
        return self.schedules[0].family

    @property
    def total(self) -> float:
        return math.fsum(self.secrets)
