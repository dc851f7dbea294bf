"""Protocol execution: synchronous rounds, the Poisson-clock variant, and
membership changes.

Synchronous semantics are two-phase per round: every masked message
d_i(k) = x_i(k) - beta_i(k) is computed from the pre-round state before any
node updates, matching the compact dynamics x(k+1) = A x(k) + (I - A) beta(k).

The dynamics act alike on every Monte Carlo trial and each noise draw is a
pure function of (seed, node, k, trial), so `simulate` advances all trials
as one (trials, n) state, phase by phase; `run_si` is its one-trial view.

The Poisson-clock variant `run_ai` draws each node's clock gaps and betas in
one block per node and merges the ticks by (time, node id); only the
hand-off runs tick by tick. Its scales equal `NoiseSchedule.scale`'s bit
for bit, so the run is the one drawn one tick at a time.

Membership semantics:
  * A leave at step k replaces the round at k. The leaver sends its state
    minus its secret, its predecessor sends nothing and only accumulates the
    incoming message, everyone else runs the normal rule. Standard rounds
    resume at k + 1 on the rewired ring.
  * A join at step k rewires instantly before the round at k: the newcomer
    is inserted after its anchor node with state equal to its secret.
Both transitions conserve the member sum exactly (up to roundoff).

Harmonic schedules with d = 0 have no finite scale at k = 0; runs substitute
d = 1 for the k = 0 draw only and flag it (`start_shift_applied`), which the
privacy accounting mirrors.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .model import ConfigError, Family, NoiseSchedule, Phase, ProtocolConfig
from .noise import NoiseSource

# Noise values drawn per sampling call: bounds the betas buffer while
# keeping a few hundred rounds per call at 1000 states. The noise source
# cuts each call into cache-sized blocks for its threads.
NOISE_CHUNK = 1 << 18


def _start_shifted(schedule: NoiseSchedule) -> bool:
    """Whether the schedule has no finite scale at k = 0 (harmonic, d = 0)."""
    return schedule.family is Family.HARMONIC and schedule.d == 0


def scale_column(schedule: NoiseSchedule, ks: np.ndarray) -> np.ndarray:
    """Vectorized v(k) over integer steps, with the same d = 0 substitution.

    Every synchronous path samples scales through this one routine so that
    scalar and batched runs see bit-identical noise.
    """
    ks_f = np.asarray(ks, dtype=np.float64)
    if schedule.family is Family.HARMONIC:
        if schedule.d == 0:
            return schedule.c / np.maximum(ks_f, 1.0)
        return schedule.c / (ks_f + schedule.d)
    return schedule.c * schedule.phi**ks_f


def noise_block(source, dist, order, schedules, ks, trials) -> np.ndarray:
    """beta for every step in `ks`, trial and member: shape (len(ks), trials, n)."""
    ks = np.asarray(ks, dtype=np.uint64)
    scales = np.stack([scale_column(s, ks) for s in schedules], axis=1)[:, None, :]
    return source.sample(np.array(order, dtype=np.uint64), ks[:, None, None], trials, scales, dist)


def _round(x, beta, order, out, leaver=None, secret=0.0):
    """One round on (trials, n) rows into `out`; returns (senders, messages).

    In the departure round of column `leaver`, the leaver unmasks its secret
    and its predecessor only accumulates; the caller drops the leaver's column.
    """
    d = x - beta
    if leaver is not None:
        d[:, leaver] = x[:, leaver] - secret
    np.add(beta[:, 1:], d[:, :-1], out=out[:, 1:])
    np.add(beta[:, :1], d[:, -1:], out=out[:, :1])
    if leaver is None:
        return order, d
    pi = (leaver - 1) % len(order)
    out[:, pi] = x[:, pi] + d[:, pi - 1]
    return order[:pi] + order[pi + 1 :], np.delete(d, pi, axis=1)


def _fold_drift(max_drift: float, states: np.ndarray, target: float) -> float:
    """Max of `max_drift` and the relative member-sum drift of `states`; NaN sticks."""
    drift = np.abs(states.sum(axis=-1) - target).max(initial=0.0) / max(1.0, abs(target))
    return float(np.maximum(max_drift, drift))


def simulate(config: ProtocolConfig, trials: int, states: list, first_trial: int = 0,
             source: NoiseSource | None = None, record=None) -> float:
    """Run trials first_trial .. first_trial + trials - 1 of `config` together.

    `states[p]` stores phase p of `config.phases()`: its row t, of shape
    (trials, n), receives the state at step start_k + t, in whatever memory
    layout the caller chose. `record(k, senders, d)`, if given, receives each
    round's delivered messages. Returns the largest relative member-sum drift.
    """
    phases = config.phases()
    if any(phase.leaver is not None and phase.n - 1 < 3 for phase in phases):
        raise ConfigError("a leave would shrink the ring below 3 members")
    source, record = source or NoiseSource(config.rng_seed), record or (lambda *_: None)
    trial_ids = np.arange(first_trial, first_trial + trials, dtype=np.uint64)[:, None]
    max_drift, x = 0.0, np.asarray(phases[0].secrets, dtype=np.float64)
    for p, (phase, out) in enumerate(zip(phases, states, strict=True)):
        if phase.joined is not None:
            j = phase.order.index(phase.joined)
            x = np.insert(x, j, phase.secrets[j], axis=1)
        out[0] = x
        last = phase.stop_k - phase.start_k
        rounds = last + (phase.leaver is not None)
        chunk = max(1, NOISE_CHUNK // (trials * phase.n))
        for c0 in range(0, rounds, chunk):
            ks = np.arange(phase.start_k + c0, phase.start_k + min(c0 + chunk, rounds))
            betas = noise_block(source, config.distribution, phase.order, phase.schedules, ks, trial_ids)
            for r in range(c0, min(c0 + chunk, last)):
                record(phase.start_k + r, *_round(out[r], betas[r - c0], phase.order, out[r + 1]))
        # Every state a round produced: out[0] too if a departure round made it.
        first = 0 if p > 0 and phase.joined is None else 1
        max_drift = _fold_drift(max_drift, out[first:], phase.target)
        x = out[last]
        if phase.leaver is not None:
            li = phase.order.index(phase.leaver)
            new = np.empty_like(x)
            record(phase.stop_k, *_round(x, betas[-1], phase.order, new, li, phase.secrets[li]))
            x = np.delete(new, li, axis=1)
    return max_drift


# -- single-trial runs ---------------------------------------------------------


def _frozen(states: np.ndarray) -> np.ndarray:
    states.flags.writeable = False
    return states


@dataclass(frozen=True)
class RunResult:
    """One trial of a run: each phase with its read-only (steps, n) states.

    In `phases`, states[t] is the state at step phase.start_k + t, aligned
    with phase.order. `trace` holds the delivered messages (k, node, d) if
    they were recorded; `tick_counts` each node's ticks (run_ai only).
    `start_shift_applied` is set when a member that draws at k = 0 (on its
    first tick, for run_ai) has a harmonic schedule with d = 0.
    """

    phases: tuple[tuple[Phase, np.ndarray], ...]
    max_rel_drift: float
    start_shift_applied: bool
    k: int
    trace: tuple[tuple[int, int, float], ...] | None = None
    tick_counts: dict[int, int] | None = None

    @property
    def x(self) -> np.ndarray:
        return self.phases[-1][1][-1]

    @property
    def members(self) -> tuple[int, ...]:
        return self.phases[-1][0].order

    @property
    def target(self) -> float:
        return self.phases[-1][0].target


def run_si(config: ProtocolConfig, trial: int = 0, record_trace: bool = True,
           source: NoiseSource | None = None) -> RunResult:
    """Execute K synchronous rounds with membership events at their times:
    trial `trial` of `simulate`."""
    phases = config.phases()
    storage = [np.empty((p.stop_k - p.start_k + 1, p.n)) for p in phases]
    trace = []

    def record(k, nodes, d):
        trace.extend((k, node, float(v)) for node, v in zip(nodes, d[0]))

    drift = simulate(config, 1, [s[:, None] for s in storage], trial, source,
                     record if record_trace else None)
    # Round 0 is played by the first phase with a round; those before it end
    # in a join at k = 0.
    first = next(p for p in phases if p.stop_k > 0 or p.leaver is not None)
    return RunResult(tuple(zip(phases, map(_frozen, storage))), drift,
                     any(map(_start_shifted, first.schedules)), config.steps,
                     tuple(trace) if record_trace else None)


# -- asynchronous variant ---------------------------------------------------


# Clock gaps drawn per node in the first block; every further block doubles
# the node's total until its last tick passes the horizon.
FIRST_GAPS = 64


def _poisson_ticks(source: NoiseSource, nodes, trial: int, rate: float, horizon: float):
    """(times, node ids) of every tick up to `horizon`, in (time, node id) order."""
    times = []
    for node in nodes:
        blocks, drawn, last = [], 0, 0.0
        while last <= horizon:
            size = max(drawn, FIRST_GAPS)
            gaps = source.clock_gap(node, np.arange(drawn, drawn + size, dtype=np.uint64), trial, rate)
            # Tick times are the running sums t_m = t_(m-1) + gap_m, the same
            # sequential additions as one clock step at a time, across blocks too.
            gaps[0] += last
            blocks.append(np.cumsum(gaps))
            drawn, last = drawn + size, blocks[-1][-1]
        t = np.concatenate(blocks)
        times.append(t[: np.searchsorted(t, horizon, side="right")])
    ids, times = np.repeat(nodes, [len(t) for t in times]), np.concatenate(times)
    order = np.lexsort((ids, times))
    return times[order], ids[order]


def run_ai(
    config: ProtocolConfig,
    rate: float,
    horizon: float,
    trial: int = 0,
    record_trace: bool = True,
    tick_order=None,
) -> RunResult:
    """Poisson-clock execution until the time horizon.

    On node i's tick with local count m: draw beta at scale v_i(m), send
    d = x_i - beta forward, set x_i to beta, successor accumulates d. The
    member sum is conserved at every event. `tick_order` replaces the Poisson
    clock with an explicit node sequence (deterministic replay for testing).

    Each node's clock gaps and betas are drawn up front, one block each. Ticks
    merge by time, a tie going to the lower node id; only the hand-off runs
    tick by tick. Geometric scales take the scalar power (`scale_column`'s
    np.power differs in the last bits), so the run is the tick-by-tick one.
    The result's one phase runs from step 0 to the tick count.

    Membership events are not supported here; the rewiring rules above are
    defined for the synchronous rounds only.
    """
    if config.events:
        raise ConfigError("membership events are not supported by the asynchronous engine")
    for name, value in (("horizon", horizon), ("Poisson rate", rate)):
        if not 0 < value < math.inf:
            raise ConfigError(f"{name} must be finite and > 0, got {value}")
    (phase,) = config.phases()
    nodes, n, source = phase.order, phase.n, NoiseSource(config.rng_seed)
    if tick_order is None:
        tick_order = _poisson_ticks(source, nodes, trial, rate, horizon)[1].tolist()
    elif strangers := set(tick_order) - set(nodes):
        raise ConfigError(f"tick_order names nodes that are not members: {sorted(strangers)}")
    pos = {node: j for j, node in enumerate(nodes)}
    js = np.array([pos[node] for node in tick_order], dtype=np.intp)
    betas, tick_counts = np.empty(len(js)), {}
    for j, (node, s) in enumerate(zip(nodes, phase.schedules)):
        mine = js == j
        m = tick_counts[node] = int(mine.sum())
        ks = np.arange(m, dtype=np.uint64)
        # c / (k + d) is one rounded add and one rounded divide on either
        # path; c * phi**k keeps the scalar power, which np.power does not
        # match in the last bits.
        scales = scale_column(s, ks) if s.family is Family.HARMONIC else [
            s.c * s.phi**k for k in range(m)]
        betas[mine] = source.sample(node, ks, trial, scales, config.distribution)

    x, succ = np.asarray(phase.secrets, dtype=np.float64).tolist(), [*range(1, n), 0]
    states = np.empty((len(js) + 1, n))
    states[0] = x
    for i, (j, beta) in enumerate(zip(js.tolist(), betas.tolist()), 1):
        x[succ[j]] += x[j] - beta
        x[j] = beta
        states[i] = x
    trace = None
    if record_trace:  # each message again, from the state the tick started in
        d = states[np.arange(len(js)), js] - betas
        trace = tuple(zip(range(len(js)), [nodes[j] for j in js.tolist()], d.tolist()))
    shifted = any(_start_shifted(s) for s, node in zip(phase.schedules, nodes) if tick_counts[node])
    return RunResult(((replace(phase, stop_k=len(js)), _frozen(states)),),
                     _fold_drift(0.0, states[1:], phase.target), shifted, len(js), trace,
                     tick_counts)
