"""The columnar CSV formatter against `repr`, over large vectorized inputs.

`csvtext.block` must write every int64 and float64 value in the bytes of
`repr`, fields joined by commas and rows ended in CRLF, as csv.writer wrote
them. Floats in [1e-4, 1e16) and zeros take the positional path; the rest
(exponent form, inf, nan) go through `repr` itself, inside the same block.
"""
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from ringsum import Distribution, NoiseSchedule, ProtocolConfig, csvtext, run_ai, run_si, window_sums
from ringsum.cli import _write_csv, _write_trajectories, load_scenario
from test_writers import _bytes, oracle_trajectories

B = csvtext.BLOCK_FLOATS
SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"
RNG = np.random.default_rng(20)


def reference(cols, fields) -> bytes:
    end = "," * (fields - len(cols)) + "\r\n"
    return "".join(",".join(map(repr, row)) + end for row in zip(*(c.tolist() for c in cols))).encode()


def formatted(cols, fields) -> bytes:
    """The blocks as `cli._write_csv` cuts them."""
    rows = csvtext.block_rows(cols)
    return b"".join(csvtext.block([c[i : i + rows] for c in cols], fields) for i in range(0, len(cols[0]), rows))


def assert_like_repr(*cols, fields=None):
    fields = len(cols) if fields is None else fields
    got, want = formatted(cols, fields), reference(cols, fields)
    if got != want:
        lines = zip(got.split(b"\r\n"), want.split(b"\r\n"))
        pytest.fail("first differing row: %r, repr gives %r" % next((g, w) for g, w in lines if g != w))


def both_signs(x):
    return np.concatenate([x, -x])


def test_random_64_bit_patterns():
    # NaN payloads, infinities, subnormals and every exponent, most of them
    # in exponent form.
    assert_like_repr(RNG.integers(0, 2**64, 2**20, dtype=np.uint64).view(np.float64))


def test_random_mantissas_at_every_fixed_notation_exponent():
    exponent = RNG.integers(1023 - 14, 1023 + 54, 2**18).astype(np.uint64) << np.uint64(52)
    mantissa = RNG.integers(0, 2**52, 2**18, dtype=np.uint64)
    assert_like_repr(both_signs((exponent | mantissa).view(np.float64)))


def test_powers_of_two_and_ten_and_their_neighbours():
    powers = np.concatenate([2.0 ** np.arange(-1074, 1024), [float(f"1e{i}") for i in range(-323, 309)]])
    x = np.concatenate([powers, np.nextafter(powers, 0.0), np.nextafter(powers, np.inf)])
    assert_like_repr(both_signs(x[np.isfinite(x)]))


def test_64_neighbours_each_side_of_the_edges_of_fixed_notation():
    down = up = np.array([1e-4, 1e-3, 1.0, 1e15, 1e16, 2.0**53, 2.0**54])
    x = [up]
    for _ in range(64):
        down, up = np.nextafter(down, 0.0), np.nextafter(up, np.inf)
        x += [down, up]
    assert_like_repr(both_signs(np.concatenate(x)))


def test_integers_up_to_2_53_zeros_infinities_and_nan():
    ints = np.concatenate([RNG.integers(0, 2**53, 2**17, endpoint=True), np.arange(0, 2**53, 2**40),
                           2**53 - np.arange(64), 10 ** np.arange(16)]).astype(np.float64)
    special = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan])
    assert_like_repr(np.concatenate([both_signs(ints), special]))


def test_values_between_minus_one_and_zero_after_other_fields():
    # The sign of a value with no integer digit must sit after the comma.
    x = -RNG.random(B)  # two blocks of its two float columns
    x[::7] *= 10.0 ** -RNG.integers(1, 6, len(x[::7]))
    assert_like_repr(np.arange(len(x)), x, x[::-1].copy(), fields=5)


def test_17_digit_values_in_the_first_decade_below_1e_minus_3():
    x = RNG.uniform(1e-4, 1e-3, 2**17)
    digits = np.array([len(repr(v).replace("0.", "", 1).lstrip("0")) for v in x.tolist()])
    assert (digits == 17).sum() > len(x) // 8  # 20 digits after the point
    assert_like_repr(both_signs(x))


def test_short_decimals_and_scaled_normals():
    decimals = RNG.integers(1, 10**6, 2**17) * 10.0 ** RNG.integers(-10, 17, 2**17)
    normals = RNG.standard_normal(2**17) * 10.0 ** RNG.integers(-6, 18, 2**17)
    assert_like_repr(both_signs(decimals), both_signs(normals))


def test_int64_columns_with_negatives_and_extremes():
    extremes = np.array([0, 1, -1, 9, 10, -10, 2**63 - 1, -(2**63), -(2**63) + 1], dtype=np.int64)
    tens = 10 ** np.arange(19, dtype=np.int64)
    random = RNG.integers(-(2**63), 2**63 - 1, 2**16, dtype=np.int64, endpoint=True)
    magnitudes = random >> RNG.integers(0, 63, len(random))
    x = np.concatenate([extremes, tens, tens - 1, -tens, 1 - tens, random, magnitudes])
    assert_like_repr(x, x[::-1].copy(), RNG.standard_normal(len(x)))


# The edges of the blocks of one float column, and of two (B // 2 rows).
@pytest.mark.parametrize("rows", [0, 1, B - 1, B, B + 1, B + 2, 3 * B + 5])
def test_blank_trailing_fields_at_the_block_edges(tmp_path, rows):
    ks = np.arange(rows) - 7
    x = RNG.standard_normal(rows) * 10.0 ** RNG.integers(-8, 20, rows)
    blocks = [(ks, x), (ks[: rows // 2], x[: rows // 2], x[::-1][: rows // 2].copy())]
    path = tmp_path / "out.csv"
    _write_csv(path, "k,a,b,c,d", blocks)
    want = b"k,a,b,c,d\r\n" + b"".join(reference(cols, 5) for cols in blocks)
    assert path.read_bytes() == want


def test_example2_trajectories_match_the_csv_writer_oracle():
    _, _, config, _ = load_scenario(SCENARIOS / "example2.cfg")
    run = run_si(config)
    assert _bytes(_write_trajectories, run, window_sums(run)) == _bytes(oracle_trajectories, run)


# A writer that builds whole-length columns peaks at 3.6 MB here: the k,
# node, window_start_k and abs_error columns alone are 2.9 MB at 30k ticks.
WRITER_PEAK_BYTES = 1_800_000


def _writer_peak(tmp_path, horizon: float) -> int:
    config = ProtocolConfig.uniform([86.3605, 29.2187, 85.6064], NoiseSchedule.geometric(50.0, 0.999),
                                    Distribution.LAPLACE, 1, 42)
    run = run_ai(config, 1.0, horizon)
    parts = window_sums(run)
    tracemalloc.start()
    try:
        _write_trajectories(tmp_path / "trajectories.csv", run, parts)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_trajectory_writer_memory_does_not_grow_with_the_run(tmp_path):
    short, long = _writer_peak(tmp_path, 2500.0), _writer_peak(tmp_path, 10_000.0)  # about 30k ticks
    assert long < WRITER_PEAK_BYTES
    assert long <= 1.25 * short
