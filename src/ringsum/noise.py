"""Seeded, order-independent noise sampling.

Every sample is a pure function of (master_seed, node, step, trial, slot):
the tuple is hashed with a splitmix64-style finalizer into a uniform draw,
so parallel Monte Carlo trials reproduce bit-exactly regardless of
evaluation order or thread count. Sampling is vectorized over any of the
index arguments.

Slot assignment per (node, step, trial):
  0, 1  - the protocol noise draw (two uniforms feed Box-Muller),
  2     - the Poisson-clock inter-tick gap of the asynchronous engine.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import Distribution

_MASK64 = (1 << 64) - 1
_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)

SLOT_BETA = 0
SLOT_BETA_AUX = 1
SLOT_CLOCK = 2

_SQRT3 = math.sqrt(3.0)


def _fmix64(z: np.ndarray) -> np.ndarray:
    z = (z ^ (z >> np.uint64(30))) * _MIX1
    z = (z ^ (z >> np.uint64(27))) * _MIX2
    return z ^ (z >> np.uint64(31))


def _hash(seed: int, node, k, trial, slot) -> np.ndarray:
    """Hash the index tuple into a uint64 array (broadcasting over inputs)."""
    with np.errstate(over="ignore"):
        z = _fmix64(np.uint64(seed & _MASK64) + _GOLDEN)
        for part in (node, k, trial, slot):
            p = np.asarray(part, dtype=np.uint64)
            z = _fmix64(z ^ ((p + _GOLDEN) * _MIX1))
        return z


def _to_unit(z: np.ndarray) -> np.ndarray:
    # Open interval (0, 1): the +0.5 keeps log() and log1p() finite.
    return ((z >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0**-53


@dataclass(frozen=True)
class NoiseSource:
    """Counter-based stream of zero-mean noise, keyed by a 64-bit master seed."""

    master_seed: int

    def uniform(self, node, k, trial, slot) -> np.ndarray | float:
        """A uniform (0,1) draw for the given stream coordinates."""
        u = _to_unit(_hash(self.master_seed, node, k, trial, slot))
        return float(u) if u.ndim == 0 else u

    def sample(self, node, k, trial, scale, dist: Distribution):
        """Zero-mean sample(s) at the given scale.

        Gaussian / symmetric-uniform treat `scale` as the standard deviation;
        Laplace treats it as the scale parameter b (variance 2 b**2).
        """
        u1 = _to_unit(_hash(self.master_seed, node, k, trial, SLOT_BETA))
        scale = np.asarray(scale, dtype=np.float64)
        if dist is Distribution.GAUSSIAN:
            u2 = _to_unit(_hash(self.master_seed, node, k, trial, SLOT_BETA_AUX))
            z = np.sqrt(-2.0 * np.log(u1)) * np.cos(2.0 * np.pi * u2)
            out = scale * z
        elif dist is Distribution.LAPLACE:
            # Branchless inverse CDF: sign(t) * -ln(1 - 2|t|), t = u - 1/2.
            t = u1 - 0.5
            out = -scale * np.sign(t) * np.log1p(-2.0 * np.abs(t))
        elif dist is Distribution.UNIFORM_SYMMETRIC:
            out = scale * _SQRT3 * (2.0 * u1 - 1.0)
        else:  # pragma: no cover - enum is closed
            raise ValueError(f"unknown distribution {dist}")
        return float(out) if out.ndim == 0 else out

    def clock_gap(self, node, tick_index, trial, rate: float):
        """Exponential inter-tick gap with the given Poisson rate."""
        u = _to_unit(_hash(self.master_seed, node, tick_index, trial, SLOT_CLOCK))
        gap = -np.log(u) / rate
        return float(gap) if gap.ndim == 0 else gap

