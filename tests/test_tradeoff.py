"""Tradeoff cubic: root finding, KKT verification, geometric optimum."""
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from ringsum import (
    ConfigError,
    DegenerateTradeoffError,
    TradeoffProblem,
    objective_geometric,
    objective_harmonic,
    solve_geometric,
    solve_harmonic,
)
from ringsum.tradeoff import _bracket, _coefficients, _geometric_terms


def _problem(gu=1.0, ga=1.0, gp=1.0, n=3, delta=1.0, K=2):
    return TradeoffProblem(gu, ga, gp, n, delta, K)


def _reference_root(p):
    """Independent oracle: positive real root of the cubic via numpy."""
    coeffs = [
        4.0 * p.gamma_a * math.pi**2 * p.n**2,
        math.sqrt(6.0) * p.gamma_u * math.pi * p.n**1.5,
        0.0,
        -3.0 * p.gamma_p * p.delta * p.K * (p.K - 1),
    ]
    roots = np.roots(coeffs)
    real = roots[np.abs(roots.imag) < 1e-9].real
    positive = real[real > 0]
    assert len(positive) == 1
    return float(positive[0])


class TestHarmonicSolver:
    def test_unit_balancer_reference_root(self):
        sol = solve_harmonic(_problem())
        assert sol.c_star == pytest.approx(0.224, abs=5e-4)
        assert sol.d_star == 0.0

    def test_residual_and_kkt(self):
        sol = solve_harmonic(_problem(gu=3.0, ga=0.2, gp=7.0, n=10, delta=0.5, K=100))
        assert sol.residual <= 1e-10
        assert sol.kkt_residual <= 1e-8
        assert sol.kkt_multiplier > 0

    def test_matches_independent_root_oracle(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            p = _problem(
                gu=rng.uniform(0.01, 100),
                ga=rng.uniform(0.01, 100),
                gp=rng.uniform(0.01, 100),
                n=int(rng.integers(3, 40)),
                delta=rng.uniform(0.01, 10),
                K=int(rng.integers(2, 10_000)),
            )
            sol = solve_harmonic(p)
            ref = _reference_root(p)
            assert abs(sol.c_star - ref) <= 1e-8 * max(1.0, ref)

    def test_root_is_a_local_minimum(self):
        p = _problem(n=5, K=50)
        sol = solve_harmonic(p)
        at = objective_harmonic(p, sol.c_star, 0.0)
        assert at <= objective_harmonic(p, sol.c_star * 1.1, 0.0)
        assert at <= objective_harmonic(p, sol.c_star * 0.9, 0.0)

    def test_objective_increasing_in_offset(self):
        p = _problem()
        sol = solve_harmonic(p)
        assert objective_harmonic(p, sol.c_star, 1.0) > objective_harmonic(p, sol.c_star, 0.0)

    def test_objective_where_c_squared_overflows(self):
        # c_star is 4.66e199, so c * c overflows where gamma_a * c * c does
        # not: the objective is finite, about 1.93e101.
        p = _problem(gu=1e-300, ga=1e-300, delta=1e300, K=4)
        c = solve_harmonic(p).c_star
        pi, n = Fraction(math.pi), p.n
        for d in (0.0, 1.0):
            exact = (Fraction(p.gamma_u) * Fraction(c) * pi * n * Fraction(math.sqrt(n / 6.0))
                     + Fraction(p.gamma_a) * Fraction(c) ** 2 * pi**2 * n**2 / 3
                     + Fraction(p.gamma_p) * Fraction(p.delta) * p.K * (Fraction(p.K - 1, 2) + Fraction(d))
                     / Fraction(c))
            assert objective_harmonic(p, c, d) == pytest.approx(float(exact), rel=1e-14)

    def test_balancer_scaling_leaves_root_unchanged(self):
        p = _problem(gu=2.0, ga=0.5, gp=3.0, n=7, K=40)
        scaled = _problem(gu=2.0 * 11, ga=0.5 * 11, gp=3.0 * 11, n=7, K=40)
        assert abs(solve_harmonic(p).c_star - solve_harmonic(scaled).c_star) <= 1e-10

    def test_single_sign_change_within_bracket(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            p = _problem(
                gu=rng.uniform(0.01, 50),
                ga=rng.uniform(0.01, 50),
                gp=rng.uniform(0.01, 50),
                n=int(rng.integers(3, 30)),
                delta=rng.uniform(0.1, 5),
                K=int(rng.integers(2, 1000)),
            )
            a, b, e = _coefficients(p)
            lo, hi = _bracket(a, b, e)
            thetas = np.linspace(lo, hi, 2000)
            signs = np.sign(a * thetas**3 + b * thetas**2 - e)
            assert signs[0] < 0 < signs[-1]
            assert np.count_nonzero(np.diff(signs)) == 1

    @pytest.mark.parametrize("K", [1, 0, -3])
    def test_k_below_two_degenerate(self, K):
        with pytest.raises(DegenerateTradeoffError):
            solve_harmonic(_problem(K=K))

    def test_invalid_balancers_rejected(self):
        with pytest.raises(ConfigError):
            _problem(gu=0.0)

    @pytest.mark.parametrize("field", ["gu", "ga", "gp", "delta"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 0.0, -1.0])
    def test_settings_must_be_finite_and_positive(self, field, value):
        with pytest.raises(ConfigError):
            _problem(**{field: value})


def _changes_sign_within_two_ulps(coefficients, c):
    """Exact: the cubic a c^3 + b c^2 - e has its root within 2 ulps of c."""
    a, b, e = map(Fraction, coefficients)

    def g(x):
        return a * Fraction(x) ** 3 + b * Fraction(x) ** 2 - e

    lo = math.nextafter(math.nextafter(c, 0.0), 0.0)
    hi = math.nextafter(math.nextafter(c, math.inf), math.inf)
    return g(lo) <= 0 <= g(hi)


EXTREMES = (5e-324, 1e-300, 1.0, 1e300, 1.7e308)


def _geometric_cubic(p, phi):
    """The cubic the geometric solver solves at phi: the slope of
    gamma_u c U + gamma_a c^2 V + gamma_p epsilon / c, times c^2."""
    u, v, eps = _geometric_terms(p, phi)
    return 2.0 * p.gamma_a * v, p.gamma_u * u, p.gamma_p * eps


@pytest.mark.parametrize("solve, cubic_at", [
    (solve_harmonic, lambda p, sol: _coefficients(p)),
    (solve_geometric, lambda p, sol: _geometric_cubic(p, sol.phi_star)),
], ids=["harmonic", "geometric"])
def test_every_root_over_the_extremes_is_exact(solve, cubic_at):
    # A setting at a double's extremes gives a root or a ConfigError, never a
    # wrong finite root (the harmonic solver once stopped bisecting at an
    # absolute width of 1e-15 and returned 5.45e-17 for a root of 9.49e-154).
    returned = 0
    for delta, gu, ga, gp in itertools.product(EXTREMES, repeat=4):
        p = TradeoffProblem(gu, ga, gp, 3, delta, 4)
        try:
            sol = solve(p)
        except ConfigError as exc:
            assert str(exc).startswith(("the tradeoff cubic", "the geometric tradeoff"))
            continue
        returned += 1
        assert not math.isnan(sol.objective_value)
        assert _changes_sign_within_two_ulps(cubic_at(p, sol), sol.c_star), p
    assert returned > 90  # 99 harmonic and 97 geometric roots when this was written


def test_root_far_below_the_old_absolute_stop():
    sol = solve_harmonic(_problem(gu=1e306, ga=1e-10, K=4))
    assert sol.c_star == 9.488499966575887e-154 and sol.residual == 0.0


def _dense_geometric_minimum(p, c_star):
    """The paper's geometric objective on a 20,001 x 61 (logit phi, c) grid,
    written out here with the privacy sum in log space."""
    x = np.linspace(-36.0, 36.0, 20_001)
    phi, one_minus = 1.0 / (1.0 + np.exp(-x)), 1.0 / (1.0 + np.exp(x))
    c = c_star * 2.0 ** np.linspace(-3.0, 3.0, 61)[:, None]
    with np.errstate(over="ignore", invalid="ignore"):
        privacy = np.exp(
            math.log(p.delta) + np.log1p(-(phi**p.K)) - (p.K - 1) * np.log(phi) - np.log(one_minus)
        )
        surface = (p.gamma_u * c * p.n * np.sqrt(p.n / (one_minus * (1.0 + phi)))
                   + p.gamma_a * c**2 * 2.0 * p.n**2 / (one_minus * (1.0 + phi))
                   + p.gamma_p * privacy / c)
    return float(np.nanmin(surface))


class TestGeometricSolver:
    @pytest.mark.parametrize("n, K, phi, c, objective", [
        (3, 2, 0.618034, 0.3215, 13.278559),
        (10, 100, 0.991296, 0.1869, 1299.2426),
        (10, 1000, 0.999126, 0.190, 12683.618),
    ])
    def test_reference_optima(self, n, K, phi, c, objective):
        sol = solve_geometric(_problem(n=n, K=K))
        assert sol.phi_star == pytest.approx(phi, abs=1e-6)
        assert sol.c_star == pytest.approx(c, abs=5e-4)
        assert sol.objective_value == pytest.approx(objective, rel=1e-7)
        assert sol.objective_value == objective_geometric(_problem(n=n, K=K), sol.c_star, sol.phi_star)

    @pytest.mark.parametrize("n, K", [(3, 2), (3, 7), (10, 100), (10, 10**6), (40, 1000)])
    @pytest.mark.parametrize("gu, ga, gp", [
        (1.0, 1.0, 1.0), (1e6, 1.0, 1.0), (1.0, 1e6, 1.0), (1.0, 1.0, 1e6),
        (1e-6, 1e-6, 1.0), (1e6, 1e6, 1e-6), (1e-6, 1.0, 1e6),
    ])
    def test_no_dense_grid_point_is_lower(self, n, K, gu, ga, gp):
        p = _problem(gu=gu, ga=ga, gp=gp, n=n, K=K)
        sol = solve_geometric(p)
        # The slack is the two evaluations' rounding, not the search's error.
        assert sol.objective_value <= _dense_geometric_minimum(p, sol.c_star) * (1 + 1e-12)

    def test_one_step_is_degenerate(self):
        with pytest.raises(DegenerateTradeoffError):
            solve_geometric(_problem_geo(K=1))

    @pytest.mark.parametrize("phi", [5e-324, 1e-300, 1e-17, 1e-9, 1 - 1e-9, 1 - 2**-52, 1 - 2**-53])
    @pytest.mark.parametrize("K", [2, 1000, 10**6])
    def test_objective_near_the_ends_of_phi(self, phi, K):
        value = objective_geometric(_problem_geo(K=K), 1.0, phi)
        assert value > 0 and not math.isnan(value)


def _problem_geo(K=10):
    return TradeoffProblem(1.0, 1.0, 1.0, 3, 1.0, K)
