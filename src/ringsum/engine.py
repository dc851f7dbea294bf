"""Protocol execution: synchronous rounds, the Poisson-clock variant, and
membership changes.

Synchronous semantics are two-phase per round: every masked message
d_i(k) = x_i(k) - beta_i(k) is computed from the pre-round state before any
node updates, matching the compact dynamics x(k+1) = A x(k) + (I - A) beta(k).

The dynamics act alike on every Monte Carlo trial and each noise draw is a
pure function of (seed, node, k, trial), so `simulate` advances all trials
as one (trials, n) state, phase by phase. It only stores the states, in
whole-phase buffers or in shorter ones that it hands back chunk by chunk
(the caller reduces the last chunk while the noise pool draws the next),
and writes each round's messages once, into the array that a callback
returns for them. Its views are `run_si`, which returns one trial's states
and drives the Monte Carlo batch, keeping its first trial from each chunk;
the streamed Monte Carlo windows in `metrics`; and the DP audit in
`analysis`, the one reader of the messages, whose traces receive them.
`_drift` folds the member-sum drift for the views that report it.

The Poisson-clock variant `run_ai` draws each node's clock gaps and betas in
one block per node and merges the ticks by (time, node id); only the
hand-off runs tick by tick. Both variants take every scale from
`NoiseSchedule.scale`, so one config gets the same noise on either.

Membership semantics:
  * A leave at step k replaces the round at k. The leaver sends its state
    minus its secret, its predecessor sends nothing and only accumulates the
    incoming message, everyone else runs the normal rule. Standard rounds
    resume at k + 1 on the rewired ring.
  * A join at step k rewires instantly before the round at k: the newcomer
    is inserted after its anchor node with state equal to its secret.
Both transitions conserve the member sum exactly (up to roundoff).
`ProtocolConfig` checks the ring size when it is built; the Poisson clock's
own rules are `check_poisson`'s, called by `run_ai` and the scenario loader.

Harmonic schedules with d = 0 have no finite scale at k = 0;
`NoiseSchedule.scale` substitutes d = 1 for the k = 0 draw only, and runs
that draw at k = 0 flag it (`start_shift_applied`), which the privacy
accounting mirrors.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from .model import ConfigError, Phase, ProtocolConfig
from .noise import NoiseSource

# Noise values drawn per sampling call: bounds the betas buffer while
# keeping a few hundred rounds per call at 1000 states. The noise source
# cuts each call into cache-sized blocks for its threads. A phase whose
# states buffer is shorter than the phase draws as many rounds per call as
# the buffer holds, even where that is more than this.
NOISE_CHUNK = 1 << 18


def chunk_rounds(trials: int, n: int) -> int:
    """Rounds per noise block of `trials` trials of n members (at least one)."""
    return max(1, NOISE_CHUNK // (trials * n))


def noise_block(source, dist, order, schedules, ks, trials, node_major=False, out=None,
                beside=lambda: None) -> np.ndarray:
    """beta for every step in `ks`, trial and member: shape (len(ks), trials, n),
    drawn while beside() runs, into `out` if given ((len(ks), n, trials) if node-major)."""
    ks = np.asarray(ks, dtype=np.uint64)
    scales = np.stack([s.scale(ks) for s in schedules], axis=1)[:, None, :]
    nodes, trials = np.array(order, dtype=np.uint64)[None, None], np.reshape(trials, (1, -1, 1))
    axes = (0, 2, 1) if node_major else (0, 1, 2)  # drawn as (len(ks), n, trials) if node-major
    coords = (x.transpose(axes) for x in (nodes, ks[:, None, None], trials, scales))
    return source.sample(*coords, dist, out=out, beside=beside).transpose(axes)


def _round(x, beta, order, out, sink, leaver=None, secret=0.0) -> None:
    """One round on (trials, n) rows into `out`; sink(senders) returns the
    (trials, len(senders)) array that receives the round's messages, or None.

    In the departure round of column `leaver`, the leaver unmasks its secret
    and its predecessor only accumulates, sending nothing; the caller drops
    the leaver's column.

    Each new state is beta_i + d_(i-1), ring-wise. Where beta, the messages
    and `out` are C-contiguous rows, columns 1.. are one flat add over the
    whole batch, which also writes column 0 with the last message of the
    trial before; the add of column 0 then overwrites it. Other rows (the
    audit's node-major ones) take a 2-D add for columns 1.. instead. The
    operands are the same either way, so are the bits.
    """
    if leaver is None:
        d = np.subtract(x, beta, out=sink(order))
    else:
        d = x - beta
        d[:, leaver] = x[:, leaver] - secret
    if beta.flags.c_contiguous and d.flags.c_contiguous and out.flags.c_contiguous:
        np.add(beta.reshape(-1)[1:], d.reshape(-1)[:-1], out=out.reshape(-1)[1:])
    else:
        np.add(beta[:, 1:], d[:, :-1], out=out[:, 1:])
    np.add(beta[:, :1], d[:, -1:], out=out[:, :1])
    if leaver is not None:
        pi = (leaver - 1) % len(order)
        out[:, pi] = x[:, pi] + d[:, pi - 1]
        if (sent := sink(order[:pi] + order[pi + 1 :])) is not None:
            sent[:, :pi], sent[:, pi:] = d[:, :pi], d[:, pi + 1 :]


def _drift(phases, states) -> float:
    """Largest relative member-sum drift over every state a round produced,
    `states[p]` holding phase p's (steps, ..., n) states; NaN sticks."""
    max_drift = 0.0
    for p, (phase, rows) in enumerate(zip(phases, states, strict=True)):
        # Row 0 is a round's product only if a departure round made it.
        first = 0 if p > 0 and phase.joined is None else 1
        drift = np.abs(rows[first:].sum(axis=-1) - phase.target).max(initial=0.0)
        max_drift = float(np.maximum(max_drift, drift / max(1.0, abs(phase.target))))
    return max_drift


def simulate(config: ProtocolConfig, trials: int, states, first_trial: int = 0,
             record=None, flush=None) -> None:
    """Run trials first_trial .. first_trial + trials - 1 of `config` together.

    `states` yields one buffer per phase of `config.phases()`, in whatever
    memory layout the caller chose: its rows, of shape (trials, n), receive
    the phase's states in order. A buffer may hold fewer rows than its phase
    (at least 2 unless the phase has one state). When it is full, the filled
    rows go to `flush(p, t, rows)`, rows[i] being phase p's state at step
    start_k + t + i, and the last of them becomes row 0 of the next chunk;
    the phase's last rows go to `flush` when it ends. `flush` may overwrite
    the rows it is handed. Such a phase draws a buffer's rounds of noise at
    a time, each draw after the first beside the flush of the full buffer;
    a draw's values do not depend on when it runs. `record(k, senders)`, if
    given, returns the (trials, len(senders)) array that receives round k's
    messages, or None; the round writes them there and nowhere else.
    """
    phases = config.phases()
    source = NoiseSource(config.rng_seed)
    record, flush = record or (lambda *_: None), flush or (lambda *_: None)
    trial_ids = np.arange(first_trial, first_trial + trials, dtype=np.uint64)[:, None]
    x = np.asarray(phases[0].secrets, dtype=np.float64)
    for p, (phase, out) in enumerate(zip(phases, states, strict=True)):
        if phase.joined is not None:
            j = phase.order.index(phase.joined)
            x = np.insert(x, j, phase.secrets[j], axis=1)
        out[0] = x
        last = phase.stop_k - phase.start_k
        rounds = last + (phase.leaver is not None)
        chunked = len(out) <= last  # the buffer is shorter than the phase
        chunk = len(out) - 1 if chunked else chunk_rounds(trials, phase.n)
        # Drawn in the memory order of the caller's rows, so that the
        # hand-off's operands line up; one trial keeps the trial-major draw,
        # whatever the strides of its (1, n) rows. Every chunk of the phase
        # is drawn into one buffer.
        node_major = trials > 1 and out[0].strides[0] < out[0].strides[1]
        drawn = (phase.n, trials) if node_major else (trials, phase.n)
        noise = np.empty((min(chunk, rounds), *drawn))
        t = 0  # the phase row in out[0]
        for c0 in range(0, rounds, chunk):
            ks = np.arange(phase.start_k + c0, phase.start_k + min(c0 + chunk, rounds))
            draw = partial(noise_block, source, config.distribution, phase.order, phase.schedules,
                           ks, trial_ids, node_major, out=noise[: len(ks)])
            if chunked and 0 < c0 < last:
                # The buffer is full: flush it while the chunk's noise is drawn.
                x = out[-1].copy()
                betas = draw(beside=partial(flush, p, t, out))
                out[0], t = x, c0
            else:
                betas = draw()
            for r in range(c0, min(c0 + chunk, last)):
                _round(out[r - t], betas[r - c0], phase.order, out[r - t + 1],
                       partial(record, phase.start_k + r))
        # The flush may overwrite the last state; only a later phase reads it.
        if p + 1 < len(phases):
            x = out[last - t].copy()
        flush(p, t, out[: last - t + 1])
        if phase.leaver is not None:
            li = phase.order.index(phase.leaver)
            new = np.empty_like(x)
            _round(x, betas[-1], phase.order, new, partial(record, phase.stop_k), li,
                   phase.secrets[li])
            x = np.delete(new, li, axis=1)


# -- single-trial runs ---------------------------------------------------------


def _frozen(states: np.ndarray) -> np.ndarray:
    states.flags.writeable = False
    return states


@dataclass(frozen=True)
class RunResult:
    """One trial of a run: each phase with its read-only (steps, n) states.

    In `phases`, states[t] is the state at step phase.start_k + t, aligned
    with phase.order. `start_shift_applied` is set when a member that draws
    at k = 0 (on its first tick, for run_ai) has a harmonic schedule with
    d = 0.
    """

    phases: tuple[tuple[Phase, np.ndarray], ...]
    max_rel_drift: float
    start_shift_applied: bool
    k: int


def run_si(config: ProtocolConfig, trial: int = 0, trials: int = 1, states=None,
           flush=lambda *_: None) -> RunResult:
    """Execute K synchronous rounds with membership events at their times:
    trial `trial` of `simulate`.

    Given `states`, trials trial .. trial + trials - 1 run together in those
    buffers, as `simulate` runs them, and each chunk goes on to `flush` once
    the first trial's rows are kept; that trial is the result.
    """
    phases = config.phases()
    storage = [np.empty((p.stop_k - p.start_k + 1, p.n)) for p in phases]
    if states is None:  # one trial, straight into its storage
        states, keep = [s[:, None] for s in storage], None
    else:
        def keep(p, t, rows):
            storage[p][t : t + len(rows)] = rows[:, 0]
            flush(p, t, rows)
    simulate(config, trials, states, trial, flush=keep)
    # Round 0 is played by the first phase with a round; those before it end
    # in a join at k = 0.
    first = next(p for p in phases if p.stop_k > 0 or p.leaver is not None)
    return RunResult(tuple(zip(phases, map(_frozen, storage))), _drift(phases, storage),
                     any(s.start_shifted for s in first.schedules), config.steps)


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


def check_poisson(config: ProtocolConfig, rate: float, horizon: float) -> None:
    """ConfigError for membership events, or a rate or horizon not finite and > 0."""
    if config.events:
        raise ConfigError("membership events are not supported by the asynchronous engine")
    for name, value in (("horizon", horizon), ("Poisson rate", rate)):
        if not 0 < value < math.inf:
            raise ConfigError(f"{name} must be finite and > 0, got {value}")


def run_ai(
    config: ProtocolConfig,
    rate: float,
    horizon: float,
    trial: int = 0,
    tick_order=None,
) -> RunResult:
    """Poisson-clock execution until the time horizon.

    On node i's tick with local count m: draw beta at scale v_i(m), send
    d = x_i - beta forward, set x_i to beta, successor accumulates d. The
    member sum is conserved at every event. `tick_order` replaces the Poisson
    clock with an explicit node sequence (deterministic replay for testing).

    Each node's clock gaps and betas are drawn up front, one block each. Ticks
    merge by time, a tie going to the lower node id; only the hand-off runs
    tick by tick. The result's one phase runs from step 0 to the tick count.

    `check_poisson` rejects membership events, whose rewiring rules are
    defined for the synchronous rounds only, and a bad rate or horizon.
    """
    check_poisson(config, rate, horizon)
    (phase,) = config.phases()
    nodes, n, source = phase.order, phase.n, NoiseSource(config.rng_seed)
    if tick_order is None:
        tick_order = _poisson_ticks(source, nodes, trial, rate, horizon)[1].tolist()
    elif strangers := set(tick_order) - set(nodes):
        raise ConfigError(f"tick_order names nodes that are not members: {sorted(strangers)}")
    pos = {node: j for j, node in enumerate(nodes)}
    js = np.array([pos[node] for node in tick_order], dtype=np.intp)
    betas, counts = np.empty(len(js)), []
    for j, (node, s) in enumerate(zip(nodes, phase.schedules)):
        mine = js == j
        counts.append(int(mine.sum()))
        ks = np.arange(counts[-1], dtype=np.uint64)
        betas[mine] = source.sample(node, ks, trial, s.scale(ks), config.distribution)

    x, succ = np.asarray(phase.secrets, dtype=np.float64).tolist(), [*range(1, n), 0]
    states = np.empty((len(js) + 1, n))
    states[0] = x
    for i, (j, beta) in enumerate(zip(js.tolist(), betas.tolist()), 1):
        x[succ[j]] += x[j] - beta
        x[j] = beta
        states[i] = x
    shifted = any(s.start_shifted for s, m in zip(phase.schedules, counts) if m)
    return RunResult(((replace(phase, stop_k=len(js)), _frozen(states)),),
                     _drift((phase,), (states,)), shifted, len(js))
