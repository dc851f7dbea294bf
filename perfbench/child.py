"""Run one ringsum CLI command in this fresh interpreter and report its timings.

    python3 child.py MODE RESULT_JSON SPANS_JSON REQUIRED -- CLI_ARGS...

MODE is `setup` (stop after set-up), `run` or `trace`. `ringsum` must be
importable (the benchmark puts `src/` on PYTHONPATH). The parent notes the
time it spawned this process and the time it exited; this process reports
when set-up ended, on the same system-wide monotonic clock.

Set-up is `import ringsum`, argument parsing and, for `simulate`,
`cli.load_scenario`. The command then runs as `ringsum.cli.main` would run it,
reusing the loaded scenario instead of parsing the file a second time.

In `trace` mode the functions in `tracer.WRAPPED` are wrapped before set-up,
the command runs inside a `cli.command` root span, and the spans go to
SPANS_JSON (unless it is `-`). REQUIRED is a comma-separated list of span
names that must have been called.
"""
import sys
import time


def main(argv) -> int:
    mode, result_path, spans_path, required = argv[1:5]
    if argv[5] != "--" or mode not in ("setup", "run", "trace"):
        raise SystemExit("usage: child.py setup|run|trace RESULT SPANS REQUIRED -- CLI_ARGS...")
    from ringsum import cli
    from ringsum.model import RingSumError

    def run_command() -> int:  # as ringsum.cli.main runs it
        try:
            return args.func(args)
        except RingSumError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2

    tracer = None
    if mode == "trace":
        import tracer as tracing

        tracer = tracing.Tracer()
        tracer.install()
    args = cli.build_parser().parse_args(argv[6:])
    if args.command == "simulate":
        loaded = cli.load_scenario(args.config, args.seed, args.trials)
        cli.load_scenario = lambda *_args, **_kwargs: loaded
    t_setup = time.monotonic()

    report = {"t_setup": t_setup, "rc": 0, "error": None, "trace": None}
    if mode == "run":
        report["rc"] = run_command()
    elif mode == "trace":
        start = time.perf_counter()
        with tracer.root("cli.command"):
            report["rc"] = run_command()
        wall = time.perf_counter() - start
        tracer.uninstall()
        try:
            tracer.verify("cli.command", wall, [r for r in required.split(",") if r])
            report["trace"] = {
                "wall_s": wall,
                "stats": tracer.stats(),
                "config_build_s": tracer.config_build_s(),
            }
        except tracing.TraceBindingError as exc:
            report["error"] = f"trace binding: {exc}"

    import json
    import resource

    import numpy

    if tracer is not None and spans_path != "-":
        with open(spans_path, "w") as fh:
            fh.write(json.dumps(tracer.dump_spans()))  # dumps uses the C encoder
    report["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    report["python"] = sys.version.split()[0]
    report["numpy"] = numpy.__version__
    with open(result_path, "w") as fh:
        json.dump(report, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
