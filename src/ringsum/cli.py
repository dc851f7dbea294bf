"""Configuration-driven experiment runner and thin command-line adapters.

Scenario files are flat INI sections (see scenarios/example2.cfg for the
grammar). All CSV output is long-format with a header row, '.' decimals and
shortest round-trip float formatting, so identical (config, seed) invocations
produce byte-identical artifacts.
"""
from __future__ import annotations

import argparse
import configparser
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import analysis, engine, metrics, tradeoff
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
    "normal": Distribution.GAUSSIAN,
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
    """Parse a scenario file into (name, protocol, ProtocolConfig, extras)."""
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",))
    try:
        if not parser.read(path, encoding="utf-8"):
            raise ConfigError(f"cannot read config file {path}")
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
        return name, protocol, config, {"trials": trials, "rate": rate, "horizon": horizon}
    except (configparser.Error, KeyError, TypeError, ValueError) as exc:
        if isinstance(exc, RingSumError):
            raise
        raise ConfigError(f"{path}: {exc}") from exc


# -- artifact writers ----------------------------------------------------------

_BLOCK_ROWS = 2048  # rows formatted at once, so the strings held stay small


def _write_csv(path: Path, header: str, blocks) -> None:
    """Write the header, then each block of columns: row i holds element i
    of every column, and blank fields for the header's columns past them.
    Values go through repr (shortest round trip for floats) and rows end in
    CRLF, the bytes csv.writer gives (no field here needs quoting)."""
    fields = header.count(",") + 1
    with open(path, "w", newline="") as fh:
        fh.write(header + "\r\n")
        for cols in blocks:
            end = "," * (fields - len(cols)) + "\r\n"
            for i in range(0, len(cols[0]), _BLOCK_ROWS):
                strs = (map(repr, c[i : i + _BLOCK_ROWS].tolist()) for c in cols)
                fh.write(end.join(map(",".join, zip(*strs))) + end)


def _trajectory_blocks(run, parts):
    """Columns of trajectories.csv: per phase, the rows before its first
    full window, then the rows with one. A join step is listed in both of
    its phases, with a window only in the one it ends (the next phase has
    another order and has not filled a window yet)."""
    windows = {(int(p.k_start[0]), p.order): p.y.ravel() for p in parts}
    for phase, mat in run.phases:
        n = phase.n
        k = np.repeat(np.arange(phase.start_k, phase.start_k + len(mat)), n)
        cols = (k, np.tile(phase.order, len(mat)), mat.ravel())
        cut = min(n - 1, len(mat)) * n
        yield tuple(c[:cut] for c in cols)
        y = windows.get((phase.start_k, phase.order))
        if y is not None:
            yield (*(c[cut:] for c in cols), y, k[cut:] - (n - 1), np.abs(y - phase.target))


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
    out_dir.mkdir(parents=True, exist_ok=True)
    summary: list[str] = [f"scenario {name}", f"protocol {protocol}",
                          f"seed {config.rng_seed}", f"trials {trials}"]

    if protocol == "ai":
        run = engine.run_ai(config, extras["rate"], extras["horizon"], record_trace=False)
    else:
        run = engine.run_si(config, record_trace=False)
    parts = metrics.window_sums(run)
    _write_trajectories(out_dir / "trajectories.csv", run, parts)
    ks, errs = metrics.error_series(run, parts)
    agg = metrics.aggregate_trials(config, trials) if protocol == "si" and trials >= 2 else None
    if agg is not None:
        _write_errors(out_dir / "errors.csv", agg)
    else:
        _write_single_errors(out_dir / "errors.csv", ks, errs)
    summary.append(_check_line("conservation", run.max_rel_drift, CONSERVATION_TOL))

    if protocol == "si":
        # (error, stderr) at each phase's last step, where its window is full:
        # of the Monte Carlo batch if there is one, else of the single run,
        # whose stderr is 0. Only those steps: a dict over every step of
        # example2 raised its peak RSS by 1.3 MB.
        cols = ((ks, errs, np.zeros_like(errs)) if agg is None
                else (agg.ks, agg.mean_abs_error, agg.mae_stderr))
        ends = np.isin(cols[0], [phase.stop_k for phase, _ in run.phases])
        utility = {k: (err, se) for k, err, se in zip(*(c[ends].tolist() for c in cols))}
        for i, (phase, _) in enumerate(run.phases, 1):
            summary.append(
                f"PHASE {i} start_k {phase.start_k} members {phase.n} target {_fmt(phase.target)}"
            )
            if phase.stop_k in utility:
                empirical, se = utility[phase.stop_k]
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

    (out_dir / "summary.txt").write_text("\n".join(summary) + "\n")
    print(f"wrote {out_dir}/trajectories.csv, errors.csv, summary.txt")
    return 1 if any(line.endswith("FAIL") for line in summary) else 0


def _run_bounds(args) -> int:
    sched = _schedule_from_args(args.family, args.c, args.d, args.phi)
    agg = analysis.ScheduleAggregates.from_schedules([sched] * args.n)
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
