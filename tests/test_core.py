"""Frozen examples and sampled properties of the scalar component math."""

import contextlib
import hashlib
import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from neutroseg import (
    bifuzzy,
    core,
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


NAN, INF = math.nan, math.inf

# (function, arguments, result) of the implementation at commit 7e5fa7a;
# a NaN anywhere in the arguments or an infinity can still give a finite result
SPECIAL = [
    ("dissimilarity", (NAN, 0.5), NAN),
    ("dissimilarity", (INF, 0.5), NAN),
    ("dissimilarity", (-INF, INF), NAN),
    ("dissimilarity", (-0.5, 0.0), 0.4),
    ("dissimilarity", (-0.0, 0.0), 0.0),
    ("_contest", (NAN, 0.2, 0.5), 0.5),
    ("_contest", (0.0, 0.0, 1.0), 1.0),
    ("_contest", (INF, 0.2, 0.5), 0.5),
    ("_contest", (0.2, INF, 0.5), 0.5),
    ("_contest", (-0.5, 0.5, 0.5), 3.0),
    ("_contest", (-0.5, -0.5, 0.5), 0.5),
    ("memberships", (NAN, 0.2, 0.8), (0.5, 0.5, NAN)),
    ("memberships", (-0.0, 0.0, 0.0), (0.5, 0.5, 0.0)),
    ("neutrality", (0.3, INF, 0.1), 1.0),
    ("neutrality", (0.3, 0.3, -0.0), 1.0),
    ("neutro_components", (NAN, 0.2, 0.8, 0.5), (0.5, 1.0, 0.5)),
    ("neutro_components", (-0.0, 0.0, 1.0, 0.0), (1.0, 1.0, 0.0)),
    ("bifuzzy", (NAN, 0.0), (NAN, NAN)),
    ("bifuzzy", (INF, 0.0), (0.0, INF)),
    ("bifuzzy", (-INF, 0.0), (INF, 0.0)),
    ("bifuzzy", (-0.5, -0.5), (2.0, 0.0)),
    ("bifuzzy", (-0.0, 0.0), (1.0, 0.0)),
    ("escort", (INF, 0.0, 0.0), (NAN, 0.0)),
    ("escort", (NAN, 0.2, 0.3), (NAN, NAN)),
    ("escort", (-0.5, 0.0, 0.0), (0.4, 0.6)),
    ("escort", (0.0, -0.0, 0.0), (0.5, 0.5)),
    ("escort", (0.0, INF, 0.0), (NAN, NAN)),
    ("_xlogx", (-0.5,), 0.0),
    ("_xlogx", (NAN,), 0.0),
    ("_xlogx", (INF,), INF),
    ("_xlogx", (-INF,), 0.0),
    ("_xlogx", (-0.0,), 0.0),
    ("_xlogx", (0.0,), 0.0),
    ("neutro_entropy", (NAN, 0.2, 0.3), 0.0),
    ("neutro_entropy", (INF, 0, 0), 0.0),
    ("neutro_entropy", (-INF, 0.0, 0.0), 0.0),
    ("neutro_entropy", (-0.5, 0.0, 0.0), 0.9709505944546688),
    ("neutro_entropy", (0.0, 0.0, 0.0), 1.0),
    ("neutro_entropy", (0.5, INF, 0.5), 0.0),
    ("neutro_entropy", (-0.0, 0.0, 1.0), 0.0),
    ("neutro_entropy", (0.2, NAN, 0.3), 0.0),
]

# every argument tuple drawn from GRID, evaluated as arrays: SHA-256 of the
# result bits (NaNs made canonical), recorded at commit 7e5fa7a
GRID = [NAN, INF, -INF, -0.5, -0.0, 0.0, 0.25, 1.0]
GRID_DIGESTS = {
    "dissimilarity": "25482b2246abeec5818dfc9180d69d567362678b28388083a5f290440cd88a0a",
    "_contest": "a2db9f72882c85ceea5f9da710e6ae482f4e91ca675c64abd1f335d177058063",
    "memberships": "0969575b5de74c144970aeb4efafd64ab0bb68ab42080ea5fb150d1e2fa4d0ad",
    "neutrality": "de1c6dc062c62891a287ff65285ac54cf5ca6017b0879d3ec3d1a05c85150b25",
    "neutro_components": "23fb85331ef7bb6824e1de4bff6dedf6211d0b7442d71765df1f324c523839ad",
    "bifuzzy": "f3c2cc2eff5854fb04e2121eb7d0aabed3d0cd08973dfd179845db09d18a4c2c",
    "escort": "0df6dfb8c7f397d3b4f6b56a27eff1f40b22190e67091dd52479370b247d241f",
    "_xlogx": "d03af20f992c40665ad6672c2abd9f44a6a264957910051321af216b5453d19f",
    "neutro_entropy": "8988f1b5ce2bbb7cdc9afa745ba0c2f8ca2a00df0856a1ad638cd8de878a2f96",
}


def core_function(name):
    """The ``core`` function ``name``; ``_contest`` with its tie fixed at 0.5."""
    if name == "_contest":
        return lambda a, b: core._contest(a, b, 0.5)
    return getattr(core, name)


def bits(values):
    """Result bits with every NaN made the one canonical NaN."""
    r = np.asarray(values, dtype=np.float64)
    return np.where(np.isnan(r), np.nan, r).tobytes()


class TestSpecialValues:
    """NaN, infinite, negative and signed-zero inputs keep their results."""

    @pytest.mark.parametrize("name, args, want", SPECIAL)
    def test_scalar_result(self, name, args, want):
        with np.errstate(all="ignore"):
            got = getattr(core, name)(*args)
        assert bits(got) == bits(want)

    @pytest.mark.parametrize("name", GRID_DIGESTS)
    def test_grid_digest_and_scalar_calls(self, name):
        fn = core_function(name)
        arity = fn.__code__.co_argcount
        columns = np.array(list(itertools.product(GRID, repeat=arity))).T
        with np.errstate(all="ignore"):
            got = fn(*columns)
            rows = [fn(*map(float, args)) for args in zip(*columns)]
        got = got if isinstance(got, tuple) else (got,)
        digest = hashlib.sha256(b"".join(map(bits, got))).hexdigest()
        assert digest == GRID_DIGESTS[name]
        want = zip(*rows) if isinstance(rows[0], tuple) else (rows,)
        for g, w in zip(got, want):
            assert bits(g) == bits(list(w))


class TestErrorState:
    """Degenerate cells take their pinned values without a floating-point warning.

    ``core`` divides and takes logarithms everywhere and then overwrites the
    cells where that is undefined, inside its own ``np.errstate``: a caller's
    error state must neither see those cells nor be changed by them.
    """

    CASES = [
        ("_contest", (0.0, 0.0, 0.5), 0.5),
        ("_contest", (0.0, 0.0, 1.0), 1.0),
        ("memberships", (0.3, 0.3, 0.3), (0.5, 0.5, 0.0)),
        ("memberships", (0.0, 0.0, 0.0), (0.5, 0.5, 0.0)),
        ("_xlogx", (0.0,), 0.0),
        ("_xlogx", (NAN,), 0.0),
        ("_xlogx", (-INF,), 0.0),
        ("_xlogx", (-0.5,), 0.0),
        ("_xlogx", (-0.0,), 0.0),
        ("neutro_entropy", (1, 0, 0), 0.0),
        ("neutro_entropy", (0.0, 0.0, 1.0), 0.0),
    ]

    @staticmethod
    def calls(name, args):
        """The scalar call and the call on 4-element arrays (a tie stays scalar)."""
        fn = getattr(core, name)
        columns = [np.full(4, a, dtype=np.float64) for a in args]
        if name == "_contest":
            columns[2] = args[2]
        return fn(*args), fn(*columns)

    @pytest.mark.parametrize("raising", [False, True], ids=["default", "raise"])
    @pytest.mark.parametrize("name, args, want", CASES)
    def test_pinned_without_warning(self, name, args, want, raising):
        before = np.geterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with np.errstate(all="raise") if raising else contextlib.nullcontext():
                inside = np.geterr()
                scalar, array = self.calls(name, args)
                assert np.geterr() == inside
        assert np.geterr() == before
        assert bits(scalar) == bits(want)
        want_array = np.repeat(np.asarray(want, dtype=np.float64)[..., None], 4, -1)
        assert bits(array) == bits(want_array)

    @pytest.mark.parametrize("name", GRID_DIGESTS)
    def test_empty_arrays_give_empty_results(self, name):
        # the fast-path test takes a min, which must not reject an empty array
        fn = core_function(name)
        got = fn(*[np.empty((0, 3))] * fn.__code__.co_argcount)
        for g in got if isinstance(got, tuple) else (got,):
            assert g.shape == (0, 3)


class TestArgumentsUntouched:
    """No ``core`` function (GRID_DIGESTS names them all) writes into its arguments."""

    R, C = 7, 5

    @pytest.fixture
    def shaped(self):
        """Arrays in the sweep's shapes (R, 1), (1, C), (R, C) and 0-d."""
        rng = np.random.default_rng(3)
        values = rng.random(self.R * self.C)
        values[::4] = 0.0
        values[1::6] = 1.0
        return [
            values[: self.R].reshape(self.R, 1).copy(),
            values[: self.C].reshape(1, self.C).copy(),
            values.reshape(self.R, self.C).copy(),
            np.array(values[3]),
        ]

    @pytest.mark.parametrize("name", GRID_DIGESTS)
    def test_shapes_in_every_position(self, shaped, name):
        fn = core_function(name)
        for args in itertools.product(shaped, repeat=fn.__code__.co_argcount):
            before = [a.tobytes() for a in args]
            fn(*args)
            assert [a.tobytes() for a in args] == before

    @pytest.mark.parametrize("name", GRID_DIGESTS)
    def test_aliased_arguments(self, shaped, name):
        fn = core_function(name)
        for a in shaped:
            before = a.tobytes()
            fn(*[a] * fn.__code__.co_argcount)
            assert a.tobytes() == before
