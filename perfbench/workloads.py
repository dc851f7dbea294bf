"""The benchmark's workloads: what each one runs and how its inputs are made.

A workload turns a seed into the exact inputs of one CLI invocation: a
scenario file for `ringsum simulate`, or the argument list of
`ringsum audit`. The sizes are part of a workload's definition; `TINY`
holds shrunken copies for the smoke test.
"""
from __future__ import annotations

import random
from dataclasses import asdict, dataclass, replace

DEFAULT_SEED = 42

# The secrets of scenarios/example2.cfg. At the default seed, si_churn is that
# scenario (seed = 42 included), so its artifacts match the bundled example's.
EXAMPLE2_SECRETS = (
    25.1698, 15.3211, 69.9334, 45.7828, 98.0388, 36.6547, 44.2351, 11.1407, 53.7235, 100.0,
)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    command: str                   # "simulate" or "audit"
    n: int
    # Traced functions that must be called at least once (see tracer.WRAPPED).
    required: tuple[str, ...]
    protocol: str = "si"
    steps: int = 1
    trials: int = 1
    leave_at: int | None = None    # node n leaves at this round ...
    rejoin_at: int | None = None   # ... and rejoins after node n - 1
    rate: float = 1.0
    horizon: float = 0.0
    family: str = "harmonic"
    c: float = 1.0
    d: float = 1.0
    phi: float = 0.5
    distribution: str = "laplace"
    K: int = 0
    delta: float = 1.0
    samples: int = 0

    def sizes(self) -> dict:
        """Every field that defines the workload's inputs, for run metadata."""
        out = asdict(self)
        for key in ("name", "why", "required"):
            out.pop(key)
        return out

    def secrets(self, seed: int) -> tuple[float, ...]:
        if self.name == "si_churn" and seed == DEFAULT_SEED and self.n == len(EXAMPLE2_SECRETS):
            return EXAMPLE2_SECRETS
        rng = random.Random(f"{self.name}:{seed}")
        return tuple(round(rng.uniform(1.0, 100.0), 4) for _ in range(self.n))

    def scenario(self, seed: int) -> str:
        """The scenario file `ringsum simulate` reads for this seed."""
        secrets = self.secrets(seed)
        lines = [
            "[scenario]",
            f"name = {self.name}",
            f"protocol = {self.protocol}",
            f"steps = {self.steps}",
            f"trials = {self.trials}",
            f"seed = {seed}",
        ]
        if self.protocol == "ai":
            lines += [f"rate = {self.rate!r}", f"horizon = {self.horizon!r}"]
        lines += ["", "[secrets]", "values = " + " ".join(repr(s) for s in secrets), ""]
        shape = f"d = {self.d!r}" if self.family == "harmonic" else f"phi = {self.phi!r}"
        lines += [
            "[noise]",
            f"family = {self.family}",
            f"c = {self.c!r}",
            shape,
            f"distribution = {self.distribution}",
        ]
        events = []
        if self.leave_at is not None:
            events.append(f"    leave {self.leave_at} {self.n}")
        if self.rejoin_at is not None:
            events.append(f"    join {self.rejoin_at} {self.n} {self.n - 1} {secrets[-1]!r}")
        if events:
            lines += ["", "[events]", "list ="] + events
        return "\n".join(lines) + "\n"

    def cli_args(self, seed: int, config_path: str, out_dir: str) -> list[str]:
        if self.command == "simulate":
            return ["simulate", "--config", config_path, "--out", out_dir]
        return [
            "audit", "--family", self.family, "--c", repr(self.c), "--d", repr(self.d),
            "--n", str(self.n), "--K", str(self.K), "--delta", repr(self.delta),
            "--samples", str(self.samples), "--seed", str(seed),
        ]

    def phases(self) -> int:
        return 1 + (self.leave_at is not None) + (self.rejoin_at is not None)

    def expected_checks(self) -> set[str]:
        """Names of the `CHECK` lines a correct run prints."""
        if self.command == "audit":
            return {"dp_audit"}
        if self.protocol == "ai":
            return {"conservation"}
        return {"conservation"} | {f"utility_phase{i}" for i in range(1, self.phases() + 1)}

    def handoffs(self, ticks: int | None = None) -> int:
        """Masked hand-offs the user asked for (the asynchronous count is `ticks`)."""
        if self.command == "audit":
            return 2 * self.samples * self.K * self.n
        if self.protocol == "ai":
            if ticks is None:
                raise ValueError("the asynchronous hand-off count comes from the run")
            return ticks
        members, per_trial = self.n, 0
        for k in range(self.steps):
            if k == self.rejoin_at:
                members += 1
            per_trial += members       # a leave round still has every member send
            if k == self.leave_at:
                members -= 1
        return self.trials * per_trial


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="si_churn",
            why="example2 with 100 trials: leave and rejoin force 100 sequential scalar run_si "
                "loops; the headline simulate time, and the one a batched kernel should move most",
            command="simulate", n=10, steps=6000, trials=100, leave_at=2000, rejoin_at=4000,
            c=1000.0, d=1.0, distribution="gaussian",
            required=("cli.load_scenario", "engine.run_si", "noise.sample",
                      "metrics.aggregate_trials", "metrics.window_sums"),
        ),
        Workload(
            name="si_dense",
            why="event-free, 500 trials: the already-batched dense path, dominated by noise "
                "throughput; a batched kernel should leave it unchanged",
            command="simulate", n=10, steps=2000, trials=500, c=1000.0, d=1.0,
            distribution="gaussian",
            required=("cli.load_scenario", "noise.sample", "metrics.aggregate_trials"),
        ),
        Workload(
            name="ai_poisson",
            why="Poisson clocks over ~30k ticks: the heap clock, one scalar noise call per tick "
                "and the CSV writers",
            command="simulate", n=3, protocol="ai", rate=1.0, horizon=10000.0,
            family="geometric", c=50.0, phi=0.999, distribution="laplace",
            required=("cli.load_scenario", "engine.run_ai", "noise.sample", "noise.clock_gap"),
        ),
        Workload(
            name="dp_audit",
            why="the 1e6-sample likelihood-ratio audit: its own copy of the hand-off, 1.2e7 "
                "Laplace draws and histograms; no engine, no CSV",
            command="audit", n=3, K=2, delta=1.0, samples=1_000_000, c=1.0, d=1.0,
            required=("analysis.dp_audit", "noise.sample"),
        ),
    )
}

# Small enough that all four run in a few seconds; the smoke test uses these.
TINY = {
    "si_churn": replace(WORKLOADS["si_churn"], n=4, steps=60, trials=3, leave_at=20, rejoin_at=40),
    "si_dense": replace(WORKLOADS["si_dense"], n=4, steps=50, trials=4),
    "ai_poisson": replace(WORKLOADS["ai_poisson"], horizon=50.0),
    "dp_audit": replace(WORKLOADS["dp_audit"], samples=200_000),
}
