"""Frozen examples and sampled properties of the scalar component math."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from neutroseg import (
    bifuzzy,
    dissimilarity,
    escort,
    neutro_components,
    neutro_entropy,
)

UNIT = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
TOL = 1e-12


class TestDissimilarity:
    def test_frozen_values(self):
        assert dissimilarity(0.0, 1.0) == 1.0
        assert dissimilarity(0.2, 0.8) == pytest.approx(0.75, abs=TOL)
        assert dissimilarity(0.5, 1.0) == pytest.approx(2.0 / 3.0, abs=TOL)
        assert dissimilarity(0.25, 0.25) == 0.0

    @given(UNIT, UNIT)
    def test_bounds_and_symmetry(self, x, y):
        d = dissimilarity(x, y)
        assert 0.0 <= d <= 1.0
        assert abs(d - dissimilarity(y, x)) <= 1e-15

    @given(UNIT)
    def test_self_distance_zero(self, x):
        assert dissimilarity(x, x) == 0.0

    def test_triangle_inequality_on_grid(self):
        g = np.linspace(0.0, 1.0, 101)
        d = dissimilarity(g[:, None], g[None, :])
        slack = (d[:, :, None] + d[None, :, :]) - d[:, None, :]
        assert slack.min() >= -TOL


class TestComponents:
    def test_worked_example(self):
        tri = neutro_components(0.30, 0.15, 0.75, 0.3)
        assert tri.truth == pytest.approx(75.0 / 104.0, abs=TOL)
        assert tri.falsity == pytest.approx(11.0 / 104.0, abs=TOL)
        assert tri.neutrality == 1.0

    def test_total_ambiguity(self):
        tri = neutro_components(0.4, 0.4, 0.4, 0.4)
        assert (tri.truth, tri.neutrality, tri.falsity) == (0.5, 1.0, 0.5)

    def test_equal_means_away_from_threshold(self):
        tri = neutro_components(0.4, 0.4, 0.4, 0.9)
        assert tri.truth == 0.5
        assert tri.falsity == 0.5
        assert tri.neutrality == 0.0

    def test_at_first_class_mean(self):
        tri = neutro_components(0.15, 0.15, 0.75, 0.3)
        assert tri.truth == 1.0
        assert tri.falsity == 0.0

    def test_at_threshold_fully_indeterminate(self):
        assert neutro_components(0.3, 0.1, 0.9, 0.3).neutrality == 1.0

    @given(UNIT, UNIT, UNIT, UNIT)
    def test_ranges_and_no_contradiction(self, x, v1, v2, t):
        tri = neutro_components(x, v1, v2, t)
        for component in tri:
            assert 0.0 <= component <= 1.0
        assert bifuzzy(tri.truth, tri.falsity).contradiction <= TOL


class TestBifuzzy:
    def test_corners(self):
        assert bifuzzy(0.0, 0.0) == (1.0, 0.0)
        assert bifuzzy(1.0, 1.0) == (0.0, 1.0)
        assert bifuzzy(0.5, 0.5) == (0.0, 0.0)

    @given(UNIT, UNIT)
    def test_complement_identities(self, t, f):
        u, c = bifuzzy(t, f)
        assert min(u, c) == 0.0
        assert abs(abs(t + f - 1.0) - (c + u)) <= TOL


class TestEscort:
    def test_partition_frozen(self):
        assert escort(0.9, 0.0, 0.1) == (0.9, 0.1)

    def test_balanced_pair_splits_evenly(self):
        p_t, p_f = escort(0.3, 0.0, 0.3)
        assert p_t == p_f
        assert abs(p_t - 0.5) <= TOL

    @given(UNIT, UNIT, UNIT)
    def test_normalization(self, t, i, f):
        p_t, p_f = escort(t, i, f)
        assert abs(p_t + p_f - 1.0) <= TOL
        assert 0.0 <= p_t <= 1.0
        assert 0.0 <= p_f <= 1.0


class TestEntropy:
    def test_certainty_corners_exact(self):
        assert neutro_entropy(1.0, 0.0, 0.0) == 0.0
        assert neutro_entropy(0.0, 0.0, 1.0) == 0.0

    def test_matches_binary_entropy_of_escort_pair(self):
        expected = -(0.9 * math.log(0.9) + 0.1 * math.log(0.1)) / math.log(2.0)
        assert neutro_entropy(0.9, 0.0, 0.1) == pytest.approx(expected, abs=1e-15)

    @given(UNIT, UNIT)
    def test_balanced_is_one(self, v, i):
        assert abs(neutro_entropy(v, i, v) - 1.0) <= TOL

    @given(UNIT, UNIT, UNIT)
    def test_range(self, t, i, f):
        assert 0.0 <= neutro_entropy(t, i, f) <= 1.0

    @given(UNIT, UNIT, UNIT)
    def test_truth_falsity_swap_is_bit_exact(self, t, i, f):
        assert neutro_entropy(t, i, f) == neutro_entropy(f, i, t)

    @given(UNIT, UNIT, UNIT, UNIT)
    def test_indeterminacy_raises_entropy(self, t, f, i1, i2):
        lo, hi = sorted((i1, i2))
        assert neutro_entropy(t, lo, f) <= neutro_entropy(t, hi, f) + TOL


class TestArrayInputs:
    """Array calls are the elementwise scalar calls, bit for bit."""

    N = 10_000

    @pytest.fixture(scope="class")
    def quads(self):
        # include exact ties and zeros so the degenerate branches are hit
        q = np.random.default_rng(12).random((self.N, 4))
        q[::7, 1] = q[::7, 0]
        q[::11, 2] = q[::11, 0]
        q[::13, 3] = q[::13, 0]
        q[::17] = 0.0
        return q

    @staticmethod
    def assert_elementwise(fn, columns):
        def outputs(result):
            return result if isinstance(result, tuple) else (result,)

        got = outputs(fn(*columns))
        rows = [outputs(fn(*map(float, args))) for args in zip(*columns)]
        for g, e in zip(got, zip(*rows)):
            # compare bit patterns, so -0.0 and 0.0 count as different
            assert np.array_equal(g.view(np.int64), np.array(e).view(np.int64))

    def test_dissimilarity(self, quads):
        self.assert_elementwise(dissimilarity, quads.T[:2])

    def test_neutro_components(self, quads):
        self.assert_elementwise(neutro_components, quads.T)

    def test_bifuzzy(self, quads):
        self.assert_elementwise(bifuzzy, quads.T[:2])

    def test_escort(self, quads):
        self.assert_elementwise(escort, quads.T[:3])

    def test_neutro_entropy(self, quads):
        tri = neutro_components(*quads.T)
        self.assert_elementwise(neutro_entropy, tri)
        self.assert_elementwise(neutro_entropy, quads.T[:3])

    def test_scalar_input_returns_float(self):
        values = [
            dissimilarity(0.2, 0.7),
            *neutro_components(0.3, 0.15, 0.75, 0.3),
            *neutro_components(0.4, 0.4, 0.4, 0.4),
            *bifuzzy(0.3, 0.4),
            *escort(0.3, 0.2, 0.4),
            neutro_entropy(0.3, 0.2, 0.4),
            neutro_entropy(1.0, 0.0, 0.0),
        ]
        for v in values:
            assert isinstance(v, float)
