"""Tradeoff cubic: root finding, KKT verification, geometric explorer."""
import math

import numpy as np
import pytest

from ringsum import (
    ConfigError,
    DegenerateTradeoffError,
    TradeoffProblem,
    explore_geometric,
    objective_geometric,
    objective_harmonic,
    solve_harmonic,
)
from ringsum.tradeoff import cubic, upper_bracket


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
            hi = upper_bracket(p)
            thetas = np.linspace(1e-12, hi, 2000)
            signs = np.sign([cubic(p, t) for t in thetas])
            assert np.count_nonzero(np.diff(signs)) == 1

    def test_k_below_two_degenerate(self):
        with pytest.raises(DegenerateTradeoffError):
            solve_harmonic(_problem(K=1))

    def test_invalid_balancers_rejected(self):
        with pytest.raises(ConfigError):
            _problem(gu=0.0)

    @pytest.mark.parametrize("field", ["gu", "ga", "gp", "delta"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 0.0, -1.0])
    def test_settings_must_be_finite_and_positive(self, field, value):
        with pytest.raises(ConfigError):
            _problem(**{field: value})


class TestGeometricExplorer:
    def test_surface_positive_and_best_point_consistent(self):
        p = _problem_geo()
        surf = explore_geometric(p, np.linspace(0.05, 2.0, 40), np.linspace(0.1, 0.9, 40))
        assert np.all(surf.objective > 0)
        assert surf.best_value == surf.objective.min()
        assert surf.best_value == pytest.approx(
            float(objective_geometric(p, surf.best_c, surf.best_phi))
        )

    def test_grid_refinement_never_worsens_best(self):
        p = _problem_geo()
        coarse = explore_geometric(p, np.linspace(0.05, 2.0, 20), np.linspace(0.1, 0.9, 20))
        fine = explore_geometric(p, np.linspace(0.05, 2.0, 39), np.linspace(0.1, 0.9, 39))
        assert fine.best_value <= coarse.best_value + 1e-12

    def test_nested_local_regrid_agrees_within_spacing(self):
        p = _problem_geo(K=5)
        cs, phis = np.linspace(0.05, 2.0, 100), np.linspace(0.05, 0.95, 100)
        coarse = explore_geometric(p, cs, phis)
        dc, dphi = cs[1] - cs[0], phis[1] - phis[0]
        fine = explore_geometric(
            p,
            np.linspace(max(coarse.best_c - dc, 1e-6), coarse.best_c + dc, 21),
            np.clip(np.linspace(coarse.best_phi - dphi, coarse.best_phi + dphi, 21), 0.01, 0.99),
        )
        assert abs(fine.best_c - coarse.best_c) <= dc
        assert abs(fine.best_phi - coarse.best_phi) <= dphi

    def test_phi_grid_touching_bounds_clipped_with_warning(self):
        p = _problem_geo()
        with pytest.warns(UserWarning):
            surf = explore_geometric(p, np.array([1.0]), np.array([0.0, 0.5, 1.0]))
        assert np.all((surf.phi_values > 0) & (surf.phi_values < 1))

    def test_nonpositive_c_rejected(self):
        with pytest.raises(ConfigError):
            explore_geometric(_problem_geo(), np.array([0.0, 1.0]), np.array([0.5]))


def _problem_geo(K=10):
    return TradeoffProblem(1.0, 1.0, 1.0, 3, 1.0, K)
