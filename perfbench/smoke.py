"""Smoke test for the benchmark itself; exits non-zero on the first failure.

    python3 perfbench/smoke.py

Runs all four workloads at tiny sizes through the untraced and the traced
paths, shows that the output gate counts a corrupted artifact and a
non-finite verdict as failed operations, shows that the trace-binding guard
names a function that is gone or never called, and checks that the metric
and workload names here match BENCHMARK.json. Takes well under a minute.
"""
from __future__ import annotations

import hashlib
import json
import sys
from dataclasses import replace

import run
from workloads import TINY, WORKLOADS

SEED = 7


def expect(condition: bool, what: str):
    if not condition:
        raise SystemExit(f"FAIL {what}")
    print(f"ok   {what}")


def digests_of(wl, out_dir) -> dict:
    files = ("trajectories.csv", "errors.csv", "summary.txt")
    return {f: hashlib.sha256((out_dir / wl.name / f).read_bytes()).hexdigest() for f in files}


def check_benchmark_json():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    expect([w["name"] for w in spec["workloads"]] == list(WORKLOADS), "BENCHMARK.json workloads")
    expect({m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END,
           "BENCHMARK.json end-to-end metrics and units")
    expect({m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER,
           "BENCHMARK.json per-layer metrics and units")
    layers = json.loads((run.HERE / "layers.json").read_text())
    expect(list(layers) == list(run.PER_LAYER), "layers.json maps every per-layer metric")


def check_paths():
    for name, wl in TINY.items():
        metrics, reps = run.measure(wl, SEED, 0, trace=False)
        expect(set(metrics) == set(run.END_TO_END) and all(v > 0 for v in metrics.values())
               and not any(r.problems for r in reps), f"{name} untraced: {metrics}")
        metrics, reps = run.measure(wl, SEED, 0, trace=True)
        expect(set(metrics) == set(run.PER_LAYER) and not any(r.problems for r in reps),
               f"{name} traced: noise.draws {metrics['noise.draws']}")
        expect(metrics["noise.useful_draw_share"] > 0, f"{name} traced: hand-offs over draws")


def check_gate():
    wl = TINY["si_churn"]
    seen = {}
    rep = run.launch(wl, SEED, "run", inspect=lambda out: seen.update(digests_of(wl, out)))
    expect(not rep.problems, "clean run passes")
    rep = run.launch(wl, SEED, "run", digests=seen)
    expect(not rep.problems, "rerun matches the digests of the first run")

    def corrupt(out):
        path = out / wl.name / "trajectories.csv"
        data = bytearray(path.read_bytes())
        data[-2] ^= 1
        path.write_bytes(bytes(data))

    rep = run.launch(wl, SEED, "run", digests=seen, inspect=corrupt)
    expect(rep.problems == ["trajectories.csv differs from the recorded SHA-256"],
           f"corrupted artifact is a failed operation: {rep.problems}")

    def nan_verdict(out):
        path = out / wl.name / "summary.txt"
        lines = path.read_text().splitlines()
        lines = ["CHECK conservation nan 1e-10 PASS" if l.startswith("CHECK conservation") else l
                 for l in lines]
        path.write_text("\n".join(lines) + "\n")

    rep = run.launch(wl, SEED, "run", inspect=nan_verdict)
    expect(rep.problems == ["non-finite value 'nan' in output"],
           f"a NaN that reads PASS is a failed operation: {rep.problems}")


def check_guard():
    wl = replace(TINY["si_dense"], required=TINY["si_dense"].required + ("engine.run_ai",))
    try:
        run.measure(wl, SEED, 0, trace=True)
    except run.BenchmarkError as exc:
        expect("engine.run_ai was never called" in str(exc), f"uncalled function: {exc}")
    else:
        expect(False, "an uncalled required function stops the traced run")

    sys.path.insert(0, str(run.SRC))
    import tracer
    from ringsum import engine, metrics

    original = engine.run_si
    del engine.run_si
    try:
        tracer.Tracer().install()
    except tracer.TraceBindingError as exc:
        expect("engine.run_si" in str(exc), f"missing function: {exc}")
    else:
        expect(False, "a missing wrapped function stops the traced run")
    finally:
        engine.run_si = original

    t = tracer.Tracer()
    t.install()
    try:
        expect(engine.run_si is metrics.run_si and engine.run_si is not original,
               "one wrapper under both names of run_si")
    finally:
        t.uninstall()
    expect(engine.run_si is original and metrics.run_si is original, "uninstall restores run_si")


def main() -> int:
    check_benchmark_json()
    check_paths()
    check_gate()
    check_guard()
    print("smoke test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
