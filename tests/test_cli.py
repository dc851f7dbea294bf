"""End-to-end command-line behavior and scenario parsing."""
import itertools
import math
import textwrap
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from ringsum import ConfigError, Distribution, Family, Join, Leave, analysis
from ringsum.cli import load_scenario, main

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def _write_scenario(tmp_path, body):
    path = tmp_path / "scenario.cfg"
    path.write_text(textwrap.dedent(body))
    return path


BASIC = """\
    [scenario]
    name = basic
    protocol = si
    steps = 40
    trials = 5
    seed = 3

    [secrets]
    values = 1.0 2.0 3.0 4.0

    [noise]
    family = geometric
    c = 1.0
    phi = 0.5
    distribution = laplace
"""


class TestScenarioLoading:
    def test_basic_fields(self, tmp_path):
        name, protocol, config, extras = load_scenario(_write_scenario(tmp_path, BASIC))
        assert (name, protocol) == ("basic", "si")
        assert config.secrets == (1.0, 2.0, 3.0, 4.0)
        assert config.schedules[0].family is Family.GEOMETRIC
        assert config.distribution is Distribution.LAPLACE
        assert config.steps == 40
        assert extras["trials"] == 5

    def test_overrides(self, tmp_path):
        path = _write_scenario(tmp_path, BASIC)
        _, _, config, extras = load_scenario(path, seed_override=99, trials_override=2)
        assert config.rng_seed == 99
        assert extras["trials"] == 2

    def test_event_grammar(self, tmp_path):
        body = BASIC + "\n[events]\nlist =\n    leave 10 4\n    join 20 4 3 4.0\n"
        _, _, config, _ = load_scenario(_write_scenario(tmp_path, body))
        assert config.events == (Leave(10, 4), Join(20, 4, 3, 4.0))

    def test_malformed_event_line_is_line_anchored(self, tmp_path):
        body = BASIC + "\n[events]\nlist =\n    leave 10\n"
        with pytest.raises(Exception) as excinfo:
            load_scenario(_write_scenario(tmp_path, body))
        assert "[events]" in str(excinfo.value) and "line" in str(excinfo.value)

    def test_missing_file(self, tmp_path):
        from ringsum import ConfigError

        with pytest.raises(ConfigError):
            load_scenario(tmp_path / "nope.cfg")

    def test_bundled_example_scenario_parses(self):
        name, protocol, config, extras = load_scenario(SCENARIOS / "example2.cfg")
        assert name == "example2"
        assert len(config.secrets) == 10
        assert config.steps == 6000
        assert extras["trials"] == 100
        assert [type(e).__name__ for e in config.events] == ["Leave", "Join"]


MALFORMED = {
    "no_section_header": b"steps = 10\n[scenario]\n",
    "duplicate_option": b"[scenario]\nsteps = 10\nsteps = 20\n",
    "not_utf8": b"[scenario]\nname = caf\xe9\nsteps = 10\n",
}

AI = BASIC.replace("protocol = si", "protocol = ai").replace("trials = 5", "trials = 1")


def _ai(*lines):
    """The AI scenario with extra [scenario] lines (same indentation)."""
    return AI.replace("seed = 3", "\n    ".join(("seed = 3", *lines)))


# Three members, one of whom leaves: the config's second phase has two.
RING_OF_TWO = BASIC.replace("1.0 2.0 3.0 4.0", "1.0 2.0 3.0") + "\n[events]\nlist = leave 5 1\n"

INVALID_RUN_SETTINGS = {
    "zero_trials": (BASIC.replace("trials = 5", "trials = 0"), ()),
    "negative_trials_override": (BASIC, ("--trials", "-3")),
    "unknown_protocol": (BASIC.replace("protocol = si", "protocol = xy"), ()),
    "ai_without_horizon": (AI, ()),
    "ai_zero_horizon": (_ai("horizon = 0"), ()),
    "ai_infinite_horizon": (_ai("horizon = inf"), ()),
    "ai_zero_rate": (_ai("horizon = 5", "rate = 0"), ()),
    "ai_negative_rate": (_ai("horizon = 5", "rate = -1.5"), ()),
    "ai_nan_rate": (_ai("horizon = 5", "rate = nan"), ()),
    "ai_nan_horizon": (_ai("horizon = nan"), ()),
    "ai_with_events": (_ai("horizon = 5") + "\n[events]\nlist = leave 5 1\n", ()),
    "ai_with_trials": (_ai("horizon = 5").replace("trials = 1", "trials = 50"), ()),
    "ai_trials_override": (_ai("horizon = 5"), ("--trials", "2")),
    "leave_to_a_ring_of_two": (RING_OF_TWO, ()),
    "geometric_with_d": (BASIC.replace("phi = 0.5", "phi = 0.5\n    d = 5"), ()),
}


class TestConfigErrorsBeforeOutput:
    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_malformed_file_is_a_config_error(self, tmp_path, monkeypatch, capsys, case):
        path = tmp_path / "bad.cfg"
        path.write_bytes(MALFORMED[case])
        with pytest.raises(ConfigError):
            load_scenario(path)
        monkeypatch.setenv("RINGSUM_OUT", str(tmp_path / "out"))
        assert main(["simulate", "--config", str(path)]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("case", sorted(INVALID_RUN_SETTINGS))
    def test_invalid_run_setting_fails_before_any_output(self, tmp_path, monkeypatch, capsys, case):
        body, extra = INVALID_RUN_SETTINGS[case]
        path = _write_scenario(tmp_path, body)
        trials = int(extra[1]) if extra else None
        with pytest.raises(ConfigError):
            load_scenario(path, trials_override=trials)
        monkeypatch.setenv("RINGSUM_OUT", str(tmp_path / "out"))
        assert main(["simulate", "--config", str(path), *extra]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("delta", ["-1", "nan"])
    def test_invalid_budget_delta_fails_before_any_output(self, tmp_path, monkeypatch, capsys, delta):
        monkeypatch.setenv("RINGSUM_OUT", str(tmp_path / "out"))
        path = _write_scenario(tmp_path, BASIC)  # Laplace, so the summary has a budget line
        assert main(["simulate", "--config", str(path), "--delta", delta]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("body", [
        BASIC.replace("family = geometric", "family = harmonic"),
        RING_OF_TWO,
        _ai("horizon = 5") + "\n[events]\nlist = leave 5 1\n",
        None,
    ], ids=["harmonic-with-phi", "leave-to-a-ring-of-two", "ai-with-events", "missing-file"])
    def test_every_scenario_error_names_the_file_once(self, tmp_path, monkeypatch, capsys, body):
        path = tmp_path / "nope.cfg" if body is None else _write_scenario(tmp_path, body)
        monkeypatch.setenv("RINGSUM_OUT", str(tmp_path / "out"))
        assert main(["simulate", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: ") and err.count(str(path)) == 1
        assert not (tmp_path / "out").exists()

    def test_normal_is_an_unknown_distribution(self, tmp_path, monkeypatch, capsys):
        # README lists laplace, gaussian and uniform; "normal" is no alias.
        path = _write_scenario(tmp_path, BASIC.replace("distribution = laplace", "distribution = normal"))
        monkeypatch.setenv("RINGSUM_OUT", str(tmp_path / "out"))
        assert main(["simulate", "--config", str(path)]) == 2
        assert "[noise] distribution: unknown value 'normal'" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_valid_poisson_settings_load(self, tmp_path):
        _, protocol, _, extras = load_scenario(_write_scenario(tmp_path, _ai("horizon = 5", "rate = 2.5")))
        assert protocol == "ai"
        assert (extras["rate"], extras["horizon"]) == (2.5, 5.0)


class TestOutputErrors:
    """An output that cannot be written is an `error:` line and status 2,
    not a traceback and the FAIL status 1."""

    @pytest.mark.parametrize("via", ["RINGSUM_OUT", "--out"])
    def test_output_root_that_is_a_file(self, tmp_path, monkeypatch, capsys, via):
        root = tmp_path / "file"
        root.write_text("")
        monkeypatch.delenv("RINGSUM_OUT", raising=False)
        extra = ["--out", str(root)]
        if via == "RINGSUM_OUT":
            monkeypatch.setenv("RINGSUM_OUT", str(root))
            extra = []
        assert main(["simulate", "--config", str(_write_scenario(tmp_path, BASIC)), *extra]) == 2
        assert capsys.readouterr().err.startswith(f"error: cannot write {root / 'basic'}: ")

    def test_artifact_that_cannot_be_written(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("RINGSUM_OUT", str(tmp_path / "out"))
        blocked = tmp_path / "out" / "basic" / "errors.csv"
        blocked.mkdir(parents=True)
        assert main(["simulate", "--config", str(_write_scenario(tmp_path, BASIC))]) == 2
        assert capsys.readouterr().err.startswith(f"error: cannot write {blocked}: ")


EXAMPLE_LINES = (SCENARIOS / "example2.cfg").read_text().splitlines()

# Tokens that sit on the edges of the grammar: empty, signs, non-finite
# floats, huge integers, INI syntax characters, interpolation and NUL.
TOKENS = ["", "0", "-1", "3", "1e999", "nan", "-inf", "99999999999999999999", "2.5", "ai",
          "si", "[", "]", "=", ":", "%", "%(x)s", "#", "leave", "join", "\x00", "\u00e9"]


@st.composite
def mutated_example(draw):
    """example2.cfg with a few line-level edits: deletions, duplications,
    swaps, and lines or tokens replaced by random text or edge tokens."""
    lines = list(EXAMPLE_LINES)
    for _ in range(draw(st.integers(1, 4))):
        i = draw(st.integers(0, len(lines) - 1))
        op = draw(st.sampled_from(["delete", "duplicate", "swap", "text", "token"]))
        if op == "delete" and len(lines) > 1:
            del lines[i]
        elif op == "duplicate":
            lines.insert(i, lines[i])
        elif op == "swap":
            j = draw(st.integers(0, len(lines) - 1))
            lines[i], lines[j] = lines[j], lines[i]
        elif op == "text":
            lines[i] = draw(st.text(max_size=30))
        else:
            words = lines[i].split(" ") or [""]
            words[draw(st.integers(0, len(words) - 1))] = draw(st.sampled_from(TOKENS))
            lines[i] = " ".join(words)
    return "\n".join(lines).encode("utf-8", "surrogatepass")


class TestScenarioParserFuzz:
    """Whatever the bytes, load_scenario either loads them or raises ConfigError."""

    @staticmethod
    def _load(tmp_path, data: bytes):
        path = tmp_path / "fuzz.cfg"
        path.write_bytes(data)
        try:
            load_scenario(path)
        except ConfigError:
            pass

    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.binary(max_size=300))
    def test_arbitrary_bytes(self, tmp_path, data):
        self._load(tmp_path, data)

    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=mutated_example())
    def test_line_mutations_of_the_example(self, tmp_path, data):
        self._load(tmp_path, data)


class TestSimulateCommand:
    def _simulate(self, tmp_path, monkeypatch, *extra):
        out = tmp_path / "out"
        monkeypatch.setenv("RINGSUM_OUT", str(out))
        cfg = _write_scenario(tmp_path, BASIC)
        code = main(["simulate", "--config", str(cfg), *extra])
        return code, out / "basic"

    def test_writes_artifacts_and_passes_checks(self, tmp_path, monkeypatch):
        code, out_dir = self._simulate(tmp_path, monkeypatch)
        assert code == 0
        for artifact in ("trajectories.csv", "errors.csv", "summary.txt"):
            assert (out_dir / artifact).exists()
        summary = (out_dir / "summary.txt").read_text()
        assert "CHECK conservation" in summary
        assert "FAIL" not in summary

    def test_check_lines_are_machine_parseable(self, tmp_path, monkeypatch):
        _, out_dir = self._simulate(tmp_path, monkeypatch)
        for line in (out_dir / "summary.txt").read_text().splitlines():
            if line.startswith("CHECK "):
                parts = line.split()
                assert len(parts) == 5
                float(parts[2]), float(parts[3])
                assert parts[4] in {"PASS", "FAIL"}

    def test_same_seed_byte_identical_artifacts(self, tmp_path, monkeypatch):
        _, first = self._simulate(tmp_path, monkeypatch, "--seed", "7")
        blobs = {p.name: p.read_bytes() for p in first.iterdir()}
        _, second = self._simulate(tmp_path, monkeypatch, "--seed", "7")
        assert {p.name: p.read_bytes() for p in second.iterdir()} == blobs

    def test_different_seed_changes_trajectories(self, tmp_path, monkeypatch):
        _, first = self._simulate(tmp_path, monkeypatch, "--seed", "7")
        blob = (first / "trajectories.csv").read_bytes()
        _, second = self._simulate(tmp_path, monkeypatch, "--seed", "8")
        assert (second / "trajectories.csv").read_bytes() != blob

    @pytest.mark.parametrize("trials", [1, 3])
    def test_no_full_window_writes_header_only_errors(self, tmp_path, monkeypatch, trials):
        # One step on three nodes fills no window, with or without Monte Carlo.
        monkeypatch.setenv("RINGSUM_OUT", str(tmp_path / "out"))
        body = BASIC.replace("steps = 40", "steps = 1").replace("1.0 2.0 3.0 4.0", "1.0 2.0 3.0")
        cfg = _write_scenario(tmp_path, body)
        assert main(["simulate", "--config", str(cfg), "--trials", str(trials)]) == 0
        out_dir = tmp_path / "out" / "basic"
        header = "k,mean_abs_error,mae_stderr,sum_variance,sum_variance_stderr" if trials > 1 \
            else "k,sum_abs_error"
        assert (out_dir / "errors.csv").read_bytes() == (header + "\r\n").encode()
        summary = (out_dir / "summary.txt").read_text()
        assert "PHASE 1 start_k 0 members 3" in summary
        assert "UTILITY" not in summary and "FAIL" not in summary

    @pytest.mark.parametrize("trials", [1, 20])
    @pytest.mark.parametrize("second", ["join 10 5 2 1000.0", "leave 10 2"],
                             ids=["two-joins", "join-and-leave"])
    def test_phase_without_a_full_window_has_no_utility_line(
            self, tmp_path, monkeypatch, trials, second):
        # Both events at k = 10 leave phase 2 a single state on four members:
        # it has no window, so no error of its own to check.
        monkeypatch.setenv("RINGSUM_OUT", str(tmp_path / "out"))
        body = BASIC.replace("steps = 40", "steps = 30").replace("1.0 2.0 3.0 4.0", "1.0 2.0 3.0")
        body += f"\n[events]\nlist =\n    join 10 4 1 100.0\n    {second}\n"
        cfg = _write_scenario(tmp_path, body)
        assert main(["simulate", "--config", str(cfg), "--trials", str(trials)]) == 0
        summary = (tmp_path / "out" / "basic" / "summary.txt").read_text()
        assert "PHASE 2 start_k 10 members 4" in summary
        assert "UTILITY phase 1 " in summary and "UTILITY phase 3 " in summary
        assert "UTILITY phase 2 " not in summary and "utility_phase2" not in summary

    @pytest.mark.parametrize("body", [
        BASIC + "\n[events]\nlist =\n    leave 10 4\n    join 20 4 3 4.0\n",
        BASIC.replace("family = geometric\n    c = 1.0\n    phi = 0.5",
                      "family = harmonic\n    c = 2\n    d = 0"),
    ], ids=["leave-and-join", "harmonic-d-zero"])
    def test_the_monte_carlo_batch_writes_the_single_runs_trajectories(
            self, tmp_path, monkeypatch, body):
        # With trials >= 2 the trajectory, its drift and its start shift
        # come from trial 0 of the batch, which is the single run.
        monkeypatch.setenv("RINGSUM_OUT", str(tmp_path / "out"))
        cfg, out_dir, seen = _write_scenario(tmp_path, body), tmp_path / "out" / "basic", {}
        for trials in ("1", "5"):
            main(["simulate", "--config", str(cfg), "--trials", trials])
            lines = (out_dir / "summary.txt").read_text().splitlines()
            seen[trials] = ((out_dir / "trajectories.csv").read_bytes(),
                            [l for l in lines if l.startswith(("CHECK conservation", "EPSILON"))])
        assert len(seen["1"][1]) == 2
        assert seen["5"] == seen["1"]

    def test_harmonic_d_zero_reports_the_start_shifted_budget(self, tmp_path, monkeypatch, capsys):
        # The run draws its k = 0 noise at the d = 1 scale, so the budget it
        # reports holds that step's term too, as `ringsum budget` does.
        monkeypatch.setenv("RINGSUM_OUT", str(tmp_path / "out"))
        body = BASIC.replace("steps = 40", "steps = 10").replace(
            "family = geometric\n    c = 1.0\n    phi = 0.5", "family = harmonic\n    c = 2\n    d = 0")
        main(["simulate", "--config", str(_write_scenario(tmp_path, body))])
        summary = (tmp_path / "out" / "basic" / "summary.txt").read_text().splitlines()
        capsys.readouterr()
        assert main(["budget", "--family", "harmonic", "--c", "2", "--d", "0",
                     "--delta", "1", "--K", "10"]) == 0
        budget = dict(line.split() for line in capsys.readouterr().out.splitlines())
        assert budget["epsilon_start_shifted"] == "23.0"
        assert "EPSILON delta 1.0 K 10 total 23.0 start_shifted" in summary

    def test_laplace_without_noise_writes_every_artifact_with_infinite_budget(
            self, tmp_path, monkeypatch):
        monkeypatch.setenv("RINGSUM_OUT", str(tmp_path / "out"))
        body = BASIC.replace("family = geometric\n    c = 1.0\n    phi = 0.5",
                             "family = harmonic\n    c = 0\n    d = 1")
        main(["simulate", "--config", str(_write_scenario(tmp_path, body))])
        out_dir = tmp_path / "out" / "basic"
        assert sorted(p.name for p in out_dir.iterdir()) == [
            "errors.csv", "summary.txt", "trajectories.csv"]
        assert "EPSILON delta 1.0 K 40 total inf" in (out_dir / "summary.txt").read_text()

    def test_budget_whose_quotient_underflows_reads_zero(self, tmp_path, monkeypatch):
        # log(delta / c) of 1e-300 / 1e300 once raised: a traceback, status 1.
        monkeypatch.setenv("RINGSUM_OUT", str(tmp_path / "out"))
        body = BASIC.replace("family = geometric\n    c = 1.0\n    phi = 0.5",
                             "family = harmonic\n    c = 1e300\n    d = 1")
        cfg = _write_scenario(tmp_path, body)
        assert main(["simulate", "--config", str(cfg), "--trials", "1", "--delta", "1e-300"]) in (0, 1)
        summary = (tmp_path / "out" / "basic" / "summary.txt").read_text()
        assert "EPSILON delta 1e-300 K 40 total 0.0\n" in summary

    def test_overflowing_variance_reads_inf_under_warnings_as_errors(self, tmp_path, monkeypatch):
        # Deviations of about 1e300 overflow when squared. The member sums of
        # such noise do not conserve, so the run exits 1.
        monkeypatch.setenv("RINGSUM_OUT", str(tmp_path / "out"))
        body = BASIC.replace("steps = 40", "steps = 20").replace(
            "family = geometric\n    c = 1.0\n    phi = 0.5", "family = harmonic\n    c = 1e300\n    d = 1")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["simulate", "--config", str(_write_scenario(tmp_path, body))]) == 1
        out_dir = tmp_path / "out" / "basic"
        checks = [line for line in (out_dir / "summary.txt").read_text().splitlines()
                  if line.startswith("CHECK conservation")]
        assert checks and all(line.endswith(" FAIL") for line in checks)
        rows = (out_dir / "errors.csv").read_text().splitlines()
        assert len(rows) > 1 and all(",inf" in row for row in rows[1:])

    def test_malformed_config_exits_nonzero(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("RINGSUM_OUT", str(tmp_path / "out"))
        bad = tmp_path / "bad.cfg"
        bad.write_text("[scenario]\nsteps = nope\n")
        assert main(["simulate", "--config", str(bad)]) == 2
        assert "error:" in capsys.readouterr().err


TINY_ROOT = ("c_star 9.488499966575887e-154\nd_star 0.0\nobjective 1.2646888383064871e+154\n"
             "residual 0.0\nkkt_multiplier 6.66432440723755e+306\n"
             "objective_at_feasible_d1 1.6862517844086495e+154\n")
EXTREMES = ("5e-324", "1e-300", "1", "1e300", "1.7e308")


class TestThinSubcommands:
    def test_bounds_reference_values(self, capsys):
        assert main(["bounds", "--family", "harmonic", "--c", "1000", "--n", "10"]) == 0
        out = capsys.readouterr().out
        values = dict(line.split() for line in out.splitlines())
        assert float(values["utility_bound"]) == pytest.approx(4.0558e4, rel=1e-4)
        assert float(values["variance_bound"]) == pytest.approx(3.28987e8, rel=1e-4)

    @pytest.mark.parametrize("n", ["0", "-3"])
    def test_bounds_below_three_members_names_the_ring_rule(self, capsys, n):
        assert main(["bounds", "--family", "harmonic", "--c", "1", "--d", "1", "--n", n]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: a ring needs at least 3 members, got {n}\n"
        assert captured.out == ""

    @pytest.mark.parametrize("argv, out", [
        (["--family", "harmonic", "--c", "1e300", "--d", "1", "--n", "3"],
         "utility_bound 6.66432440723755e+300\nvariance_bound inf\n"),
        (["--family", "geometric", "--c", "1e300", "--phi", "0.9", "--n", "1000"],
         "utility_bound 7.254762501100117e+304\nvariance_bound inf\n"),
        # Finite bounds keep their bytes, also near the largest double.
        (["--family", "harmonic", "--c", "1000", "--d", "1", "--n", "10"],
         "utility_bound 40557.78675973611\nvariance_bound 328986813.36964524\n"),
        (["--family", "geometric", "--c", "1e150", "--phi", "0.9", "--n", "1000"],
         "utility_bound 7.254762501100118e+154\nvariance_bound 1.0526315789473686e+307\n"),
    ], ids=["harmonic-overflow", "geometric-overflow", "harmonic", "geometric-near-overflow"])
    def test_bounds_past_the_largest_double_print_inf(self, capsys, argv, out):
        # c**2 overflows a double, as `ringsum budget`'s sum can: inf, not a traceback.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["bounds", *argv]) == 0
        assert capsys.readouterr() == (out, "")

    def test_budget_reference_value(self, capsys):
        code = main(
            ["budget", "--family", "geometric", "--c", "1", "--phi", "0.5",
             "--delta", "1", "--K", "1"]
        )
        assert code == 0
        values = dict(line.split() for line in capsys.readouterr().out.splitlines())
        assert float(values["epsilon"]) == pytest.approx(1.0)

    @pytest.mark.parametrize("argv, epsilon, log_epsilon", [
        (["--family", "harmonic", "--c", "1e300", "--d", "1", "--delta", "1e-300", "--K", "5"],
         0.0, -1378.8430055953),
        (["--family", "geometric", "--c", "1e-300", "--phi", "0.5", "--delta", "1e300", "--K", "5"],
         math.inf, 1384.98504300091),
        (["--family", "harmonic", "--c", "1", "--d", "1e308", "--delta", "1", "--K", "1000"],
         math.inf, 716.103963921148),
    ], ids=["quotient-underflow", "quotient-overflow", "product-overflow"])
    def test_budget_log_past_the_doubles(self, capsys, argv, epsilon, log_epsilon):
        # log(delta / c) once raised on the underflow (a traceback, status 1)
        # and read inf on the overflows.
        assert main(["budget", *argv]) == 0
        values = {k: float(v) for k, v in (line.split() for line in capsys.readouterr().out.splitlines())}
        assert values["epsilon"] == epsilon
        assert values["log_epsilon"] == pytest.approx(log_epsilon, rel=1e-12)

    @pytest.mark.parametrize("fixed, swept", [
        (["bounds", "--family", "harmonic", "--n", "3"], ["--c", "--d"]),
        (["bounds", "--family", "geometric", "--n", "3"], ["--c", "--phi"]),
        (["budget", "--family", "harmonic", "--K", "5"], ["--c", "--d", "--delta"]),
        (["budget", "--family", "geometric", "--K", "5"], ["--c", "--phi", "--delta"]),
        (["tradeoff", "--n", "3", "--K", "4"], ["--delta", "--gu", "--ga", "--gp"]),
    ], ids=["bounds-harmonic", "bounds-geometric", "budget-harmonic", "budget-geometric", "tradeoff"])
    def test_every_float_flag_at_the_extremes_is_a_result_or_an_error(self, capsys, fixed, swept):
        for values in itertools.product(EXTREMES, repeat=len(swept)):
            argv = [*fixed, *(x for pair in zip(swept, values) for x in pair)]
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                code = main(argv)
            out, err = capsys.readouterr()
            assert code in (0, 2) and "nan" not in out, argv
            assert (out == "" and err.startswith("error: ") and err.count("\n") == 1
                    if code else err == ""), argv

    def test_budget_without_noise_is_infinite(self, capsys):
        assert main(["budget", "--family", "harmonic", "--c", "0", "--d", "1",
                     "--delta", "1", "--K", "3"]) == 0
        values = dict(line.split() for line in capsys.readouterr().out.splitlines())
        assert values == {"epsilon": "inf", "log_epsilon": "inf"}

    @pytest.mark.parametrize("argv", [
        ["bounds", "--family", "geometric", "--c", "1", "--d", "5", "--n", "3"],
        ["budget", "--family", "harmonic", "--c", "1", "--phi", "0.5", "--delta", "1", "--K", "1"],
    ], ids=["geometric-with-d", "harmonic-with-phi"])
    def test_other_family_parameter_is_rejected(self, capsys, argv):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and captured.out == ""

    @pytest.mark.parametrize(
        "flag, value",
        [("--K", "0"), ("--samples", "0"), ("--samples", "-5"), ("--samples", "499"),
         ("--delta", "nan"), ("--delta", "-1"), ("--c", "0")],
        ids=["K-zero", "samples-zero", "samples-negative", "samples-below-the-bin-floor",
             "delta-nan", "delta-negative", "no-noise"],
    )
    def test_audit_rejects_invalid_arguments_before_any_draw(self, monkeypatch, capsys, flag, value):
        def no_draw(*_):
            raise AssertionError("the audit drew traces before checking its arguments")

        monkeypatch.setattr(analysis, "_sample_traces", no_draw)
        args = {"--c": "1", "--d": "1", "--K": "2", "--delta": "1", "--samples": "1000", flag: value}
        assert main(["audit", "--family", "harmonic", *(x for kv in args.items() for x in kv)]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("c, d", [("1e308", "1"), ("1e300", "1e-300")])
    def test_audit_of_non_finite_traces_is_an_error(self, capsys, c, d):
        with np.errstate(all="ignore"):
            code = main(["audit", "--family", "harmonic", "--c", c, "--d", d, "--n", "3",
                         "--K", "2", "--delta", "1", "--samples", "20000"])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: audit traces span")

    def test_audit_gate_has_no_tolerance_option(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["audit", "--family", "harmonic", "--c", "1", "--K", "1", "--delta", "1",
                  "--tolerance", "100"])
        assert excinfo.value.code == 2
        assert "unrecognized arguments: --tolerance 100" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value", [("--delta", "nan"), ("--delta", "inf"), ("--gu", "nan"),
                                             ("--ga", "inf"), ("--gp", "nan"), ("--gp", "0")])
    def test_tradeoff_rejects_non_finite_and_non_positive_settings(self, capsys, flag, value):
        assert main(["tradeoff", "--n", "3", "--K", "4", "--delta", "1", flag, value]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and captured.out == ""

    def test_tradeoff_matches_solver(self, capsys):
        from ringsum import TradeoffProblem, solve_harmonic

        assert main(["tradeoff", "--n", "3", "--delta", "1", "--K", "2"]) == 0
        values = dict(line.split() for line in capsys.readouterr().out.splitlines())
        sol = solve_harmonic(TradeoffProblem(1, 1, 1, 3, 1.0, 2))
        assert float(values["c_star"]) == sol.c_star

    @pytest.mark.parametrize("argv", [
        ["--n", "3", "--delta", "1e300", "--K", "100000"],
        ["--n", "3", "--delta", "1", "--K", "4", "--ga", "1e308"],
        ["--n", "3", "--delta", "1e-300", "--K", "2", "--gp", "1e-300"],
    ], ids=["constant", "leading-coefficient", "constant-underflow"])
    def test_tradeoff_past_the_largest_double_is_an_error(self, capsys, argv):
        # The first two printed c_star nan and five more nan lines, and the
        # last c_star 5.55e-17 for a cubic whose constant is 0, with status 0.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["tradeoff", *argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: the tradeoff cubic") and captured.err.count("\n") == 1

    @pytest.mark.parametrize("argv, out", [
        (["--n", "7", "--delta", "2.5", "--K", "1000"],
         "c_star 15.67996326548599\nd_star 0.0\nobjective 119646.00671788218\nresidual 0.0\n"
         "kkt_multiplier 5079.084280758621\nobjective_at_feasible_d1 119805.44586692043\n"),
        # A root far below 1e-15, where bisection to an absolute width once
        # stopped: that printed c_star 5.450201335450678e-17 with residual
        # 1.19e275 at --ga 1e-10, and nan lines at --ga 1e-300.
        (["--n", "3", "--delta", "1", "--K", "4", "--gu", "1e306", "--ga", "1e-10"], TINY_ROOT),
        (["--n", "3", "--delta", "1", "--K", "4", "--gu", "1e306", "--ga", "1e-300"], TINY_ROOT),
        # c * c overflows at this root, where gamma_a * c * c does not.
        (["--n", "3", "--K", "4", "--delta", "1e300", "--gu", "1e-300", "--ga", "1e-300"],
         "c_star 4.6619407703541164e+199\nd_star 0.0\nobjective 1.930526457399923e+101\n"
         "residual 4.758454107128906e+285\nkkt_multiplier 2.7606906686822942e-99\n"
         "objective_at_feasible_d1 2.7885382162443332e+101\n"),
    ], ids=["reference", "finite-near-overflow", "root", "objective-past-square-overflow"])
    def test_finite_tradeoff_outputs_keep_their_bytes(self, capsys, argv, out):
        assert main(["tradeoff", *argv]) == 0
        assert capsys.readouterr() == (out, "")

    def test_unknown_subcommand_exits_with_usage(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["frobnicate"])
        assert excinfo.value.code != 0
