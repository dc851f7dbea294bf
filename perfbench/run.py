"""Benchmark for ringsum: fresh-interpreter CLI runs, timed end to end.

    python3 perfbench/run.py --workload si_churn --seed 42 --seconds 20 --trace 0

Run from the repository root (the program is imported from `src/`, nothing
is built or installed). `--workload all` runs every workload in turn.

Each operation is one fresh interpreter that runs a ringsum CLI command on
inputs generated from `--seed` (see workloads.py). Every run's artifacts
go to a temporary `--out` directory of its own under `.perfbench_out/`,
with `RINGSUM_OUT` removed from the environment because it overrides
`--out`. The outputs are checked before the directory is deleted; a run
whose check fails counts as a failed operation.

With `--trace 0` the runs are untraced and the end-to-end metrics are
reported: `setup_s` (median over set-up-only runs and full runs),
`wall_s`, `handoffs_per_s` and `peak_rss_mb` (medians over full runs).
With `--trace 1` untraced and traced runs alternate, and the per-layer
metrics come from the traced ones (tracer.py); `trace.overhead_s` is the
traced minus the untraced median `wall_s`.

The last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`. A results file with the run metadata
goes to `.perfbench_out/results/`.
"""
from __future__ import annotations

import argparse
import datetime
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

from workloads import DEFAULT_SEED, WORKLOADS, Workload

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_out"

SETUP_PROBES = 6        # set-up-only runs per measured run, besides the full runs
MIN_REPS = 3            # full runs per measured run, however long they take
CHILD_TIMEOUT_S = 150
AUDIT_TOLERANCE = 0.15  # the CLI's default `--tolerance`

END_TO_END = {"setup_s": "s", "wall_s": "s", "handoffs_per_s": "1/s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "cli.load_scenario_s": "s",
    "model.config_build_s": "s",
    "cli.self_s": "s",
    "cli.bytes_written": "bytes",
    "engine.run_si_calls": "count",
    "engine.run_si_self_s": "s",
    "engine.si_us_per_step": "us",
    "engine.run_ai_self_s": "s",
    "engine.ai_ticks": "count",
    "engine.ai_us_per_tick": "us",
    "noise.sample_calls": "count",
    "noise.draws": "count",
    "noise.sample_s": "s",
    "noise.draws_per_s": "1/s",
    "noise.us_per_call": "us",
    "noise.useful_draw_share": "ratio",
    "noise.clock_gap_calls": "count",
    "noise.clock_gap_s": "s",
    "metrics.aggregate_trials_self_s": "s",
    "metrics.state_bytes": "bytes",
    "metrics.window_sums_calls": "count",
    "metrics.window_sums_s": "s",
    "analysis.dp_audit_self_s": "s",
    "trace.overhead_s": "s",
}


class BenchmarkError(RuntimeError):
    """The benchmark cannot measure (as opposed to the program failing a check)."""


@dataclass
class Rep:
    """One fresh-interpreter invocation and what its check found."""

    mode: str
    setup_s: float | None = None
    wall_s: float | None = None
    rss_mb: float | None = None
    handoffs: int | None = None
    bytes_written: int = 0
    problems: list[str] = field(default_factory=list)
    report: dict = field(default_factory=dict)


def recorded_digests(wl: Workload, seed: int) -> dict | None:
    """SHA-256 digests recorded from the seed commit, for the default seed only."""
    if seed != DEFAULT_SEED or wl != WORKLOADS.get(wl.name):
        return None
    return json.loads((HERE / "digests.json").read_text())[wl.name]


def _child_env() -> dict:
    env = dict(os.environ)
    env.pop("RINGSUM_OUT", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def launch(wl: Workload, seed: int, mode: str, digests=None, spans_path=None, inspect=None) -> Rep:
    """Run one child interpreter in `mode` (setup, run or trace) and check it.

    `inspect(out_dir)` runs after the child exits and before the check.
    """
    WORK.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{wl.name}-", dir=WORK))
    try:
        config = tmp / f"{wl.name}.cfg"
        if wl.command == "simulate":
            config.write_text(wl.scenario(seed))
        out_dir = tmp / "out"
        result = tmp / "result.json"
        cmd = [
            sys.executable, str(HERE / "child.py"), mode, str(result),
            str(spans_path) if spans_path else "-", ",".join(wl.required), "--",
            *wl.cli_args(seed, str(config), str(out_dir)),
        ]
        t_spawn = time.monotonic()
        proc = subprocess.Popen(
            cmd, cwd=tmp, env=_child_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE
        )
        try:
            stdout, stderr = proc.communicate(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            return Rep(mode, problems=[f"timed out after {CHILD_TIMEOUT_S} s"])
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        t_exit = time.monotonic()
        if not result.exists():
            tail = stderr.decode(errors="replace").strip().splitlines()[-1:] or ["no output"]
            return Rep(mode, problems=[f"child exited {proc.returncode}: {tail[0]}"])
        report = json.loads(result.read_text())
        rep = Rep(mode, setup_s=report["t_setup"] - t_spawn, report=report)
        if report["error"]:
            raise BenchmarkError(report["error"])
        if mode == "setup":
            return rep
        rep.wall_s = t_exit - report["t_setup"]
        rep.rss_mb = report["maxrss_kb"] / 1024.0
        if inspect is not None:
            inspect(out_dir)
        rep.problems, rep.handoffs = check_outputs(wl, report["rc"], stdout, out_dir, digests)
        rep.bytes_written = sum(p.stat().st_size for p in out_dir.rglob("*") if p.is_file())
        return rep
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def check_outputs(wl: Workload, rc: int, stdout: bytes, out_dir: Path, digests) -> tuple[list[str], int | None]:
    """Problems found in one run's outputs, and the hand-offs it performed."""
    problems = [] if rc == 0 else [f"exit code {rc}"]
    files: dict[str, bytes] = {}
    if wl.command == "simulate":
        for name in ("trajectories.csv", "errors.csv", "summary.txt"):
            path = out_dir / wl.name / name
            if path.is_file():
                files[name] = path.read_bytes()
            else:
                problems.append(f"missing artifact {name}")
        text = files.get("summary.txt", b"").decode(errors="replace")
    else:
        files["stdout"] = stdout
        text = stdout.decode(errors="replace")

    # Every number printed must be finite: a NaN drift still reads PASS today.
    for token in text.split():
        try:
            value = float(token)
        except ValueError:
            continue
        if not math.isfinite(value):
            problems.append(f"non-finite value {token!r} in output")
    checks = {}
    values = {}
    for line in text.splitlines():
        parts = line.split()
        if len(parts) == 5 and parts[0] == "CHECK":
            checks[parts[1]] = parts[4]
        elif len(parts) == 2 and parts[0] in ("observed", "epsilon"):
            values[parts[0]] = float(parts[1])
    if set(checks) != wl.expected_checks():
        problems.append(f"CHECK lines {sorted(checks)}, expected {sorted(wl.expected_checks())}")
    problems += [f"CHECK {name} reads {verdict}" for name, verdict in checks.items() if verdict != "PASS"]
    if wl.command == "audit":
        observed, epsilon = values.get("observed", math.nan), values.get("epsilon", math.nan)
        if not observed <= epsilon + AUDIT_TOLERANCE:
            problems.append(f"audit observed {observed} exceeds epsilon {epsilon} + {AUDIT_TOLERANCE}")

    if digests is not None:
        for name, expected in digests.items():
            if hashlib.sha256(files.get(name, b"")).hexdigest() != expected:
                problems.append(f"{name} differs from the recorded SHA-256")

    if wl.protocol != "ai":
        return problems, wl.handoffs()
    # trajectories.csv has one row per node for the initial state and for every tick.
    rows = files.get("trajectories.csv", b"").count(b"\n") - 1
    if rows < 2 * wl.n or rows % wl.n:
        return problems + [f"trajectories.csv has {rows} rows for {wl.n} nodes"], None
    return problems, wl.handoffs(ticks=rows // wl.n - 1)


def _median(values) -> float:
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else math.nan


def _ratio(a, b, scale=1.0) -> float:
    return a / b * scale if b else 0.0


def layer_metrics(rep: Rep) -> dict[str, float]:
    """Per-layer metrics of one traced run (all but trace.overhead_s)."""
    trace = rep.report["trace"]
    stats = trace["stats"]

    def get(name, key):
        return stats.get(name, {}).get(key, 0)

    run_si, run_ai = "engine.run_si", "engine.run_ai"
    draws = get("noise.sample", "units")
    return {
        "cli.load_scenario_s": get("cli.load_scenario", "total_s"),
        "model.config_build_s": trace["config_build_s"],
        "cli.self_s": get("cli.command", "self_s"),
        "cli.bytes_written": rep.bytes_written,
        "engine.run_si_calls": get(run_si, "calls"),
        "engine.run_si_self_s": get(run_si, "self_s"),
        "engine.si_us_per_step": _ratio(get(run_si, "total_s"), get(run_si, "units"), 1e6),
        "engine.run_ai_self_s": get(run_ai, "self_s"),
        "engine.ai_ticks": get(run_ai, "units"),
        "engine.ai_us_per_tick": _ratio(get(run_ai, "total_s"), get(run_ai, "units"), 1e6),
        "noise.sample_calls": get("noise.sample", "calls"),
        "noise.draws": draws,
        "noise.sample_s": get("noise.sample", "total_s"),
        "noise.draws_per_s": _ratio(draws, get("noise.sample", "total_s")),
        "noise.us_per_call": _ratio(get("noise.sample", "total_s"), get("noise.sample", "calls"), 1e6),
        "noise.useful_draw_share": _ratio(rep.handoffs or 0, draws),
        "noise.clock_gap_calls": get("noise.clock_gap", "calls"),
        "noise.clock_gap_s": get("noise.clock_gap", "total_s"),
        "metrics.aggregate_trials_self_s": get("metrics.aggregate_trials", "self_s"),
        "metrics.state_bytes": get("metrics.aggregate_trials", "units"),
        "metrics.window_sums_calls": get("metrics.window_sums", "calls"),
        "metrics.window_sums_s": get("metrics.window_sums", "total_s"),
        "analysis.dp_audit_self_s": get("analysis.dp_audit", "self_s"),
    }


def measure(wl: Workload, seed: int, seconds: float, trace: bool, spans_path=None) -> tuple[dict, list[Rep]]:
    """Run one workload for about `seconds`; return its metrics and every run."""
    digests = recorded_digests(wl, seed)
    launch(wl, seed, "setup")  # warm-up: writes bytecode caches, fills the page cache
    start = time.monotonic()
    reps: list[Rep] = []
    if not trace:
        reps += [launch(wl, seed, "setup") for _ in range(SETUP_PROBES)]
    modes = ("run", "trace") if trace else ("run",)
    full = 0
    while full < MIN_REPS * len(modes) or time.monotonic() - start < seconds:
        mode = modes[full % len(modes)]
        reps.append(launch(wl, seed, mode, digests, spans_path if mode == "trace" else None))
        full += 1
    untraced = [r for r in reps if r.mode == "run"]
    if all(r.wall_s is None for r in untraced):
        raise BenchmarkError(f"no run of {wl.name} completed: {reps[-1].problems}")
    if not trace:
        metrics = {
            "setup_s": _median(r.setup_s for r in reps),
            "wall_s": _median(r.wall_s for r in untraced),
            "handoffs_per_s": _median(
                r.handoffs / r.wall_s for r in untraced if r.handoffs and r.wall_s
            ),
            "peak_rss_mb": _median(r.rss_mb for r in untraced),
        }
    else:
        per_rep = [layer_metrics(r) for r in reps if r.mode == "trace" and r.report]
        if not per_rep:
            raise BenchmarkError(f"no traced run of {wl.name} completed: {reps[-1].problems}")
        # median_low: every value is one that was measured, and counts stay whole
        metrics = {name: statistics.median_low([m[name] for m in per_rep]) for name in per_rep[0]}
        metrics["trace.overhead_s"] = _median(
            r.wall_s for r in reps if r.mode == "trace"
        ) - _median(r.wall_s for r in untraced)
    unmeasured = [name for name, value in metrics.items() if math.isnan(value)]
    if unmeasured:
        raise BenchmarkError(f"no operation of {wl.name} measured {', '.join(unmeasured)}")
    return metrics, reps


def _git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(
        ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True
    )
    return proc.stdout.strip() or None


def run_workload(wl: Workload, seed: int, seconds: float, trace: bool) -> dict:
    """Measure one workload, write its results file and return the JSON summary."""
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{wl.name}-seed{seed}-trace{int(trace)}"
    started = datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds")
    metrics, reps = measure(wl, seed, seconds, trace, results / f"{stem}-spans.json")
    units = PER_LAYER if trace else END_TO_END
    failed = [r for r in reps if r.problems]
    summary = {
        "correct": not failed,
        "attempted": len(reps),
        "failed": len(failed),
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    versions = next(r.report for r in reps if r.report)
    meta = {
        "workload": wl.name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "started": started,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": versions["python"],
        "numpy": versions["numpy"],
        "git_sha": _git_sha(),
        "sizes": wl.sizes(),
        "digests_checked": recorded_digests(wl, seed) is not None,
    }
    raw = [
        {"mode": r.mode, "setup_s": r.setup_s, "wall_s": r.wall_s, "rss_mb": r.rss_mb,
         "handoffs": r.handoffs, "bytes_written": r.bytes_written, "problems": r.problems}
        for r in reps
    ]
    (results / f"{stem}.json").write_text(
        json.dumps({"meta": meta, "summary": summary, "runs": raw}, indent=1) + "\n"
    )
    print(f"# {wl.name} seed {seed}: {len(reps)} runs, {len(failed)} failed; "
          f"nproc {meta['nproc']}, Python {meta['python']}, numpy {meta['numpy']}")
    for r in failed:
        print(f"# failed {r.mode} run: {'; '.join(r.problems)}")
    for name, entry in summary["metrics"].items():
        print(f"{wl.name} {name} {entry['value']!r} {entry['unit']}")
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "ringsum" / "cli.py").is_file():
        print(f"error: {SRC / 'ringsum'} not found; run from a ringsum checkout", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    summaries = {}
    try:
        for name in names:
            summaries[name] = run_workload(WORKLOADS[name], args.seed, args.seconds, bool(args.trace))
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(names) == 1:
        print(json.dumps(summaries[names[0]]))
    else:
        print(json.dumps({
            "correct": all(s["correct"] for s in summaries.values()),
            "attempted": sum(s["attempted"] for s in summaries.values()),
            "failed": sum(s["failed"] for s in summaries.values()),
            "metrics": {f"{n}.{m}": v for n, s in summaries.items() for m, v in s["metrics"].items()},
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
