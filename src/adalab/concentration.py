"""Exact concentration checks for bounded queries on finite-support distributions.

A query is concentrated at (eps, gamma) for a distribution when the
probability, over a sample draw, that its empirical mean deviates from its
true mean by eps or more is at most gamma. Deviations exactly equal to eps
count as deviations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import FiniteDistribution, Query, empirical_means_over_support, true_mean


@dataclass(frozen=True)
class ConcentrationReport:
    holds: bool
    deviation_mass: float
    max_deviation: float


def hoeffding_gamma(n: int, eps: float) -> float:
    """Sub-Gaussian reference failure rate 2*exp(-2*n*eps^2), capped at 1."""
    if n < 1:
        raise ValueError("sample size must be at least 1")
    if eps < 0:
        raise ValueError("eps must be non-negative")
    return min(1.0, 2.0 * math.exp(-2.0 * n * eps * eps))


def check_concentration_exact(
    query: Query, dist: FiniteDistribution, eps: float, gamma: float
) -> ConcentrationReport:
    """Enumerate the support and compare the deviation mass against gamma."""
    if not (eps > 0):
        raise ValueError("eps must be positive")
    if not (0.0 <= gamma <= 1.0):
        raise ValueError("gamma must lie in [0, 1]")
    deviations = np.abs(empirical_means_over_support(query, dist) - true_mean(query, dist))
    mass = float(dist.probabilities[deviations >= eps].sum())
    return ConcentrationReport(
        holds=mass <= gamma,
        deviation_mass=mass,
        max_deviation=float(deviations.max()),
    )

