import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adalab.concentration import (
    check_concentration_exact,
    hoeffding_gamma,
)
from adalab.core import FiniteDistribution, Query, Sample


def slot_indicator_setup():
    """Four equally likely samples; the indicator of element 0 deviates on one."""
    samples = [Sample((j, j)) for j in range(4)]
    dist = FiniteDistribution(samples, np.full(4, 0.25))
    return Query(0.0, {0: 1.0}), dist


class TestHoeffdingGamma:
    def test_landmarks(self):
        assert hoeffding_gamma(64, 1 / 8) == pytest.approx(2 * math.exp(-2))
        assert hoeffding_gamma(250, 0.1) == pytest.approx(0.013475893998170934)

    def test_caps_at_one(self):
        assert hoeffding_gamma(1, 0.0) == 1.0
        assert hoeffding_gamma(5, 0.01) == 1.0

    def test_validates_inputs(self):
        with pytest.raises(ValueError):
            hoeffding_gamma(0, 0.1)
        with pytest.raises(ValueError):
            hoeffding_gamma(10, -0.1)

    @given(st.integers(1, 10_000), st.floats(0, 1))
    @settings(max_examples=60)
    def test_decreasing_in_n_and_eps(self, n, eps):
        g = hoeffding_gamma(n, eps)
        assert 0.0 <= g <= 1.0
        assert hoeffding_gamma(n + 1, eps) <= g
        assert hoeffding_gamma(n, min(1.0, eps + 0.01)) <= g


class TestExactCheck:
    def test_counts_mass_at_or_above_threshold(self):
        q, dist = slot_indicator_setup()
        # true mean 0.25; deviations are 0.75 once and 0.25 three times
        report = check_concentration_exact(q, dist, 0.5, 0.3)
        assert report.deviation_mass == 0.25
        assert report.max_deviation == 0.75
        assert report.holds

    def test_threshold_boundary_is_inclusive(self):
        q, dist = slot_indicator_setup()
        report = check_concentration_exact(q, dist, 0.25, 0.5)
        assert report.deviation_mass == 1.0
        assert not report.holds

    def test_holds_compares_mass_to_gamma(self):
        q, dist = slot_indicator_setup()
        assert check_concentration_exact(q, dist, 0.5, 0.25).holds
        assert not check_concentration_exact(q, dist, 0.5, 0.2).holds

    def test_validates_inputs(self):
        q, dist = slot_indicator_setup()
        with pytest.raises(ValueError):
            check_concentration_exact(q, dist, 0.0, 0.5)
        with pytest.raises(ValueError):
            check_concentration_exact(q, dist, 0.5, 1.5)

    def test_constant_query_always_concentrated(self):
        _, dist = slot_indicator_setup()
        report = check_concentration_exact(Query(0.7), dist, 1e-9, 0.0)
        assert report.deviation_mass == 0.0
        assert report.holds
