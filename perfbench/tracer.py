"""Outside-in span tracer for the benchmark's traced runs.

The tracer wraps public functions of the ringsum modules from the
benchmark's own files; the package itself is not changed. Every call of a
wrapped function records a span (name, start, end, parent span) in memory,
and the spans are written out when the run ends. A span's self time is its
duration minus the time its traced children took.

A wrapper is installed under every name the function is looked up by:
`engine.run_si` is called through `cli`, and the same function through
`metrics.run_si`. Methods are patched on their class.

Only functions that a metric needs are wrapped. `engine.si_step` runs once
per round, and a wrapper there would cost about as much as the round, so
its time stays inside `engine.run_si`.
"""
from __future__ import annotations

import contextlib
import dataclasses
import functools
import statistics
import time

from ringsum import analysis, cli, engine, metrics, model, noise

MODULES = (cli, model, engine, noise, metrics, analysis)


class TraceBindingError(RuntimeError):
    """The traced functions no longer match what the benchmark expects."""


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _draws(args, kwargs, result) -> int:
    return 1 if isinstance(result, float) else int(result.size)


def _steps(args, kwargs, result) -> int:
    return _arg(args, kwargs, 0, "config").steps


def _ticks(args, kwargs, result) -> int:
    return result.k


def _state_bytes(args, kwargs, result) -> int:
    """Size of the (K+1, trials, n) float64 state tensor of the call (computed)."""
    config = _arg(args, kwargs, 0, "config")
    trials = _arg(args, kwargs, 1, "trials")
    return (config.steps + 1) * trials * len(config.secrets) * 8


# (span name, owner, attribute, units counted per call)
WRAPPED = (
    ("cli.load_scenario", cli, "load_scenario", None),
    ("model.config_validate", model.ProtocolConfig, "__post_init__", None),
    ("engine.run_si", engine, "run_si", _steps),
    ("engine.run_ai", engine, "run_ai", _ticks),
    ("noise.sample", noise.NoiseSource, "sample", _draws),
    ("noise.clock_gap", noise.NoiseSource, "clock_gap", _draws),
    ("metrics.aggregate_trials", metrics, "aggregate_trials", _state_bytes),
    ("metrics.window_sums", metrics, "window_sums", None),
    ("analysis.dp_audit", analysis, "dp_audit", None),
)


class Tracer:
    def __init__(self):
        # (name, start, end, parent index or -1, self time); None while open
        self.spans: list = []
        self.units: dict[str, int] = {}
        self.first_args: dict[str, tuple] = {}
        self._open: list[list] = []     # [span index, time spent in children]
        self._patched: list[tuple] = []

    # -- recording ---------------------------------------------------------

    def _enter(self) -> tuple[int, list]:
        index = len(self.spans)
        self.spans.append(None)
        frame = [index, 0.0]
        self._open.append(frame)
        return index, frame

    def _exit(self, name, index, frame, start, end):
        self._open.pop()
        duration = end - start
        parent = -1
        if self._open:
            self._open[-1][1] += duration
            parent = self._open[-1][0]
        self.spans[index] = (name, start, end, parent, duration - frame[1])

    def _wrap(self, name, fn, count):
        units = self.units
        units.setdefault(name, 0)
        first_args = self.first_args

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if name not in first_args:
                first_args[name] = args
            index, frame = self._enter()
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(name, index, frame, start, time.perf_counter())
            if count is not None:
                units[name] += count(args, kwargs, result)
            return result

        traced.__perfbench_traced__ = True
        return traced

    @contextlib.contextmanager
    def root(self, name: str):
        """A span that the benchmark itself opens around a call."""
        index, frame = self._enter()
        start = time.perf_counter()
        try:
            yield
        finally:
            self._exit(name, index, frame, start, time.perf_counter())

    # -- binding -----------------------------------------------------------

    def install(self):
        """Wrap every function in WRAPPED under each name it is bound to."""
        for name, owner, attr, _ in WRAPPED:
            original = owner.__dict__.get(attr)
            if original is None:
                raise TraceBindingError(f"{name}: {owner.__name__}.{attr} no longer exists")
            if getattr(original, "__perfbench_traced__", False):
                raise TraceBindingError(f"{name} is already wrapped")
        for name, owner, attr, count in WRAPPED:
            original = owner.__dict__[attr]
            traced = self._wrap(name, original, count)
            owners = [owner] if isinstance(owner, type) else [
                m for m in MODULES if m.__dict__.get(attr) is original
            ]
            for target in owners:
                setattr(target, attr, traced)
                self._patched.append((target, attr, original))

    def uninstall(self):
        for target, attr, original in reversed(self._patched):
            setattr(target, attr, original)
        self._patched.clear()

    # -- results -----------------------------------------------------------

    def stats(self) -> dict[str, dict]:
        """Per span name: calls, total (inclusive) and self seconds, units."""
        out = {
            name: {"calls": 0, "total_s": 0.0, "self_s": 0.0, "units": units}
            for name, units in self.units.items()
        }
        for name, start, end, _parent, self_s in self.spans:
            entry = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "units": 0})
            entry["calls"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += self_s
        return out

    def verify(self, root_name: str, wall_s: float, required):
        """Fail when a required function went uncalled, or when the self
        times inside the root span do not add up to the measured wall time
        (which is how a span counted twice would show)."""
        stats = self.stats()
        for name in required:
            if stats.get(name, {"calls": 0})["calls"] == 0:
                raise TraceBindingError(f"{name} was never called on this workload")
        roots = [s for s in self.spans if s[0] == root_name and s[3] == -1]
        if len(roots) != 1:
            raise TraceBindingError(f"expected one {root_name} root span, found {len(roots)}")
        _, lo, hi, _, _ = roots[0]
        inside = sum(s[4] for s in self.spans if lo <= s[1] and s[2] <= hi)
        if abs(inside - wall_s) > max(2e-3, 0.01 * wall_s):
            raise TraceBindingError(
                f"self times add up to {inside:.6f} s, the traced wall time is {wall_s:.6f} s"
            )

    def config_build_s(self, repeats: int = 201) -> float:
        """Median time to rebuild the first validated ProtocolConfig from its fields."""
        if "model.config_validate" not in self.first_args:
            raise TraceBindingError("model.config_validate was never called on this workload")
        config = self.first_args["model.config_validate"][0]
        cls = type(config)
        fields = {f.name: getattr(config, f.name) for f in dataclasses.fields(config)}
        times = []
        for _ in range(repeats):
            start = time.perf_counter()
            cls(**fields)
            times.append(time.perf_counter() - start)
        return statistics.median(times)

    def dump_spans(self) -> list:
        """Spans as [name, start, end, parent, self_s], times relative to the first."""
        origin = min((s[1] for s in self.spans), default=0.0)
        return [[n, a - origin, b - origin, p, s] for n, a, b, p, s in self.spans]
