"""Configuration-driven experiment runner and thin command-line adapters.

Scenario files are flat INI sections (see scenarios/example2.cfg for the
grammar). All CSV output is long-format with a header row, in the bytes
csv.writer gives for repr's text: '.' decimals, shortest round-trip floats,
exponent form below 1e-4 and from 1e16. `csvtext` writes it a block of
columns at a time. Identical (config, seed) invocations produce
byte-identical artifacts. A scenario that is invalid, or an output that
cannot be written, is an error line and exit status 2.
"""
from __future__ import annotations

import argparse
import configparser
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import analysis, csvtext, engine, metrics, tradeoff
from .model import (
    ConfigError,
    Distribution,
    Family,
    Join,
    Leave,
    NoiseSchedule,
    ProtocolConfig,
    RingSumError,
)

CONSERVATION_TOL = 1e-10
# Slack of the audit gate over the closed-form epsilon: room for the
# histogram estimate's own noise at the default million samples.
AUDIT_TOL = 0.15

_DISTRIBUTIONS = {
    "laplace": Distribution.LAPLACE,
    "gaussian": Distribution.GAUSSIAN,
    "uniform": Distribution.UNIFORM_SYMMETRIC,
}


def _fmt(x) -> str:
    return repr(float(x))


def _schedule_from_args(family: str, c: float, d: float | None, phi: float | None) -> NoiseSchedule:
    """The other family's parameter goes through as given, so that
    NoiseSchedule rejects it rather than the run ignoring it."""
    if family == "harmonic":
        return NoiseSchedule(Family.HARMONIC, c, 1.0 if d is None else d, phi)
    if family == "geometric":
        return NoiseSchedule(Family.GEOMETRIC, c, d, 0.5 if phi is None else phi)
    raise ConfigError(f"unknown family {family!r} (expected harmonic or geometric)")


# -- scenario loading ---------------------------------------------------------


def _parse_events(text: str):
    events = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        kind = parts[0].lower()
        try:
            if kind == "leave" and len(parts) == 3:
                events.append(Leave(time=int(parts[1]), node=int(parts[2])))
            elif kind == "join" and len(parts) == 5:
                events.append(
                    Join(
                        time=int(parts[1]),
                        node=int(parts[2]),
                        anchor=int(parts[3]),
                        secret=float(parts[4]),
                    )
                )
            else:
                raise ValueError("expected 'leave TIME NODE' or 'join TIME NODE ANCHOR SECRET'")
        except ValueError as exc:
            raise ConfigError(f"[events] list, line {lineno}: {exc}") from exc
    return tuple(events)


def load_scenario(path: str | Path, seed_override: int | None = None, trials_override: int | None = None):
    """Parse a scenario file into (name, protocol, ProtocolConfig, extras);
    every error is a ConfigError that starts with the file's path."""
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",))
    try:
        if not parser.read(path, encoding="utf-8"):
            raise ConfigError("cannot read config file")
        sc = parser["scenario"]
        name = sc.get("name", Path(path).stem)
        protocol = sc.get("protocol", "si").lower()
        steps = sc.getint("steps")
        trials = trials_override if trials_override is not None else sc.getint("trials", 1)
        seed = seed_override if seed_override is not None else sc.getint("seed", 0)
        rate, horizon = sc.getfloat("rate", 1.0), sc.getfloat("horizon", math.nan)
        if trials < 1:
            raise ConfigError(f"trials must be >= 1, got {trials}")
        if protocol not in ("si", "ai"):
            raise ConfigError(f"unknown protocol {protocol!r} (expected si or ai)")

        secrets_raw = parser["secrets"].get("values")
        if secrets_raw is None:
            raise ConfigError("[secrets] section needs a 'values' key")
        secrets = tuple(float(v) for v in secrets_raw.replace(",", " ").split())

        nz = parser["noise"]
        family = nz.get("family")
        schedule = _schedule_from_args(
            family, nz.getfloat("c"), nz.getfloat("d", fallback=None), nz.getfloat("phi", fallback=None)
        )
        dist_name = nz.get("distribution", "gaussian").lower()
        if dist_name not in _DISTRIBUTIONS:
            raise ConfigError(f"[noise] distribution: unknown value {dist_name!r}")
        distribution = _DISTRIBUTIONS[dist_name]

        events = ()
        if parser.has_section("events"):
            events = _parse_events(parser["events"].get("list", ""))

        config = ProtocolConfig.uniform(secrets, schedule, distribution, steps, seed, events)
        if protocol == "ai":
            engine.check_poisson(config, rate, horizon)
            if trials != 1:
                raise ConfigError(f"protocol ai runs one trial, got trials = {trials}")
        return name, protocol, config, {"trials": trials, "rate": rate, "horizon": horizon}
    except (configparser.Error, KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc


# -- artifact writers ----------------------------------------------------------

def _write_csv(path: Path, header: str, blocks) -> None:
    """Write the header, then each block of columns: row i holds element i
    of every column, and blank fields for the header's columns past them,
    in the bytes csv.writer gives for repr's text (see `csvtext`)."""
    fields = header.count(",") + 1
    with open(path, "wb") as fh:
        fh.write(header.encode() + b"\r\n")
        for cols in blocks:
            rows = csvtext.block_rows(cols)
            for i in range(0, len(cols[0]), rows):
                fh.write(csvtext.block([c[i : i + rows] for c in cols], fields))


def _trajectory_blocks(run, parts):
    """Columns of trajectories.csv, at most one block of rows at a time: per
    phase, the rows before its first full window, then the rows with one. A
    join step is listed in both of its phases, with a window only in the one
    it ends (the next phase has another order and has not filled a window
    yet)."""
    for (phase, mat), part in zip(run.phases, parts, strict=True):
        n, first = phase.n, min(phase.n - 1, len(mat))  # states before the first window
        step = max(1, csvtext.BLOCK_FLOATS // (3 * n))  # 3 float fields per row
        for lo in [*range(0, first, step), *range(first, len(mat), step)]:
            hi = min(lo + step, first if lo < first else len(mat))
            k = np.repeat(np.arange(phase.start_k + lo, phase.start_k + hi), n)
            cols = (k, np.tile(phase.order, hi - lo), mat[lo:hi].ravel())
            if lo < first:
                yield cols
            else:
                y = part.y[lo - first : hi - first].ravel()
                yield (*cols, y, k - (n - 1), np.abs(y - phase.target))


def _write(path: Path, write, *args) -> None:
    """write(path, *args), with an OSError turned into an error that names
    the path."""
    try:
        write(path, *args)
    except OSError as exc:
        raise RingSumError(f"cannot write {path}: {exc.strerror or exc}") from exc


def _write_trajectories(path: Path, run, parts) -> None:
    _write_csv(path, "k,node,x,y,window_start_k,abs_error", _trajectory_blocks(run, parts))


def _write_errors(path: Path, agg: metrics.ErrorAggregate) -> None:
    _write_csv(path, "k,mean_abs_error,mae_stderr,sum_variance,sum_variance_stderr",
               [(agg.ks, agg.mean_abs_error, agg.mae_stderr, agg.sum_variance, agg.sum_variance_stderr)])


def _write_single_errors(path: Path, ks: np.ndarray, errs: np.ndarray) -> None:
    _write_csv(path, "k,sum_abs_error", [(ks, errs)])


def _check_line(name: str, empirical: float, bound: float) -> str:
    verdict = "PASS" if empirical <= bound else "FAIL"
    return f"CHECK {name} {_fmt(empirical)} {_fmt(bound)} {verdict}"


def _run_simulate(args) -> int:
    out_root = Path(os.environ.get("RINGSUM_OUT") or args.out)
    name, protocol, config, extras = load_scenario(args.config, args.seed, args.trials)
    trials = extras["trials"]
    sched_agg, budget = analysis.ScheduleAggregates.from_schedules(config.schedules), None
    if protocol == "si" and config.distribution is Distribution.LAPLACE:  # checks --delta first
        budget = analysis.epsilon_total(sched_agg, args.delta, config.steps, config.distribution)
    out_dir = out_root / name
    _write(out_dir, lambda path: path.mkdir(parents=True, exist_ok=True))
    summary: list[str] = [f"scenario {name}", f"protocol {protocol}",
                          f"seed {config.rng_seed}", f"trials {trials}"]

    agg = None
    if protocol == "ai":
        run = engine.run_ai(config, extras["rate"], extras["horizon"])
    elif trials >= 2:  # the batch's trial 0 is the single run
        agg = metrics.aggregate_trials(config, trials)
        run = agg.run
    else:
        run = engine.run_si(config)
    parts = metrics.window_sums(run)
    _write(out_dir / "trajectories.csv", _write_trajectories, run, parts)
    if agg is not None:
        _write(out_dir / "errors.csv", _write_errors, agg)
    else:
        _write(out_dir / "errors.csv", _write_single_errors, *metrics.error_series(run, parts))
    summary.append(_check_line("conservation", run.max_rel_drift, CONSERVATION_TOL))

    if protocol == "si":
        for i, ((phase, _), part) in enumerate(zip(run.phases, parts), 1):
            summary.append(
                f"PHASE {i} start_k {phase.start_k} members {phase.n} target {_fmt(phase.target)}"
            )
            # The error at the phase's last window, which ends at its last
            # step: of the Monte Carlo batch if there is one, else of the
            # single run, whose stderr is 0.
            if len(part.k_end):
                empirical, se = ((part.sum_abs_error()[-1], 0.0) if agg is None
                                 else agg.at(phase.stop_k)[:2])
                summary.append(f"UTILITY phase {i} empirical {_fmt(empirical)} stderr {_fmt(se)}")
                bound = analysis.utility_bound(sched_agg, phase.n)
                summary.append(_check_line(f"utility_phase{i}", empirical, bound))
        if budget is not None:
            total, tag = budget.total, ""
            if run.start_shift_applied:  # the run drew its k = 0 noise at the substituted scale
                total, tag = budget.total_start_shifted, " start_shifted"
            summary.append(f"EPSILON delta {_fmt(args.delta)} K {config.steps} total {_fmt(total)}{tag}")
        else:
            summary.append(
                f"EPSILON not-applicable (distribution={config.distribution.value}; "
                "guarantee proven for laplace only)"
            )

    _write(out_dir / "summary.txt", Path.write_text, "\n".join(summary) + "\n")
    print(f"wrote {out_dir}/trajectories.csv, errors.csv, summary.txt")
    return 1 if any(line.endswith("FAIL") for line in summary) else 0


def _run_bounds(args) -> int:
    sched = _schedule_from_args(args.family, args.c, args.d, args.phi)
    agg = analysis.ScheduleAggregates.from_schedules([sched])
    print(f"utility_bound {_fmt(analysis.utility_bound(agg, args.n))}")
    print(f"variance_bound {_fmt(analysis.variance_bound(agg, args.n))}")
    return 0


def _run_budget(args) -> int:
    sched = _schedule_from_args(args.family, args.c, args.d, args.phi)
    agg = analysis.ScheduleAggregates.from_schedules([sched])
    budget = analysis.epsilon_total(agg, args.delta, args.K, Distribution.LAPLACE)
    print(f"epsilon {_fmt(budget.total)}")
    print(f"log_epsilon {_fmt(budget.log_total)}")
    if budget.total_start_shifted is not None:
        print(f"epsilon_start_shifted {_fmt(budget.total_start_shifted)}")
    return 0


def _run_tradeoff(args) -> int:
    problem = tradeoff.TradeoffProblem(args.gu, args.ga, args.gp, args.n, args.delta, args.K)
    sol = tradeoff.solve_harmonic(problem)
    print(f"c_star {_fmt(sol.c_star)}")
    print(f"d_star {_fmt(sol.d_star)}")
    print(f"objective {_fmt(sol.objective_value)}")
    print(f"residual {_fmt(sol.residual)}")
    print(f"kkt_multiplier {_fmt(sol.kkt_multiplier)}")
    # The theoretical optimum d = 0 has no finite scale at k = 0; report the
    # engine-feasible operating point alongside it.
    print(f"objective_at_feasible_d1 {_fmt(tradeoff.objective_harmonic(problem, sol.c_star, 1.0))}")
    return 0


def _run_audit(args) -> int:
    sched = _schedule_from_args(args.family, args.c, args.d, args.phi)
    config = ProtocolConfig.uniform(
        [float(i) for i in range(1, args.n + 1)], sched, Distribution.LAPLACE,
        max(args.K, 1), args.seed,
    )
    result = analysis.dp_audit(config, args.delta, args.K, args.samples)
    print(f"observed {_fmt(result.observed)}")
    print(f"epsilon {_fmt(result.epsilon)}")
    print(f"noise_floor {_fmt(result.noise_floor)}")
    print(f"bins_used {result.bins_used} bins_skipped {result.bins_skipped}")
    print(_check_line("dp_audit", result.observed, result.epsilon + AUDIT_TOL))
    return 0 if result.observed <= result.epsilon + AUDIT_TOL else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="ringsum", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run a scenario config and write CSV artifacts")
    sim.add_argument("--config", required=True)
    sim.add_argument("--seed", type=int, default=None)
    sim.add_argument("--trials", type=int, default=None)
    sim.add_argument("--out", default="out")
    sim.add_argument("--delta", type=float, default=1.0, help="adjacency radius for the budget line")
    sim.set_defaults(func=_run_simulate)

    bounds = sub.add_parser("bounds", help="closed-form utility and variance bounds")
    budget = sub.add_parser("budget", help="composed differential-privacy budget")
    audit = sub.add_parser("audit", help="empirical density-ratio audit (Laplace, small instances)")
    for cmd in (bounds, budget, audit):
        cmd.add_argument("--family", required=True, choices=["harmonic", "geometric"])
        cmd.add_argument("--c", type=float, required=True)
        cmd.add_argument("--d", type=float, default=None)
        cmd.add_argument("--phi", type=float, default=None)
    bounds.add_argument("--n", type=int, required=True)
    bounds.set_defaults(func=_run_bounds)
    budget.add_argument("--delta", type=float, required=True)
    budget.add_argument("--K", type=int, required=True)
    budget.set_defaults(func=_run_budget)
    audit.add_argument("--n", type=int, default=3)
    audit.add_argument("--K", type=int, required=True)
    audit.add_argument("--delta", type=float, required=True)
    audit.add_argument("--samples", type=int, default=1_000_000)
    audit.add_argument("--seed", type=int, default=0)
    audit.set_defaults(func=_run_audit)

    trade = sub.add_parser("tradeoff", help="solve the harmonic-family tradeoff cubic")
    trade.add_argument("--n", type=int, required=True)
    trade.add_argument("--delta", type=float, required=True)
    trade.add_argument("--K", type=int, required=True)
    trade.add_argument("--gu", type=float, default=1.0)
    trade.add_argument("--ga", type=float, default=1.0)
    trade.add_argument("--gp", type=float, default=1.0)
    trade.set_defaults(func=_run_tradeoff)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except RingSumError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
