"""Histogram, candidate grid, entropy sweep and minima extraction."""

import tracemalloc

import numpy as np
import pytest

import neutroseg.sweep as sweep
import oracle
from conftest import image_from_unit, mixture_image, random_image
from neutroseg import (
    ConstantImage,
    EmptyImage,
    EntropyCurve,
    GrayImage,
    NoCandidates,
    ThresholdOutOfRange,
    build_histogram,
    candidate_thresholds,
    class_stats,
    entropy_curve,
    find_thresholds,
    neutro_components,
    neutro_entropy,
    partial_entropies,
)

TOL = 1e-12


def two_delta_image():
    return image_from_unit([0.2, 0.2, 0.8, 0.8])


def curve_of(totals, q=100):
    """Synthetic curve over t = 1/q, 2/q, ... with the given total column."""
    e = np.asarray(totals, dtype=np.float64)
    t = np.arange(1, e.size + 1, dtype=np.float64) / q
    z = np.zeros_like(e)
    return EntropyCurve(q=q, t=t, e_t=z, e_i=z, e_f=z, total=e)


class TestBuildHistogram:
    def test_two_delta_counts(self):
        h = build_histogram(two_delta_image())
        assert h.total == 4
        assert list(h.occupied()) == [51, 204]
        assert h.counts[51] == 2 and h.counts[204] == 2

    def test_bin_values_are_grid_points(self):
        h = build_histogram(two_delta_image())
        assert h.values()[51] == 51 / 255
        assert h.values()[204] == 204 / 255

    def test_rounding_half_away_from_zero(self):
        img = GrayImage(width=1, height=1, levels=np.array([128]), depth=256)
        h = build_histogram(img, q=100)
        # 128*100/255 = 50.196... -> bin 50
        assert h.counts[50] == 1

    def test_total_matches_pixel_count(self):
        img = random_image(11, 13, 7)
        h = build_histogram(img, q=64)
        assert h.total == img.pixel_count == int(h.counts.sum())

    def test_empty_image_rejected(self):
        img = GrayImage(width=0, height=5, levels=np.array([], dtype=np.int64))
        with pytest.raises(EmptyImage):
            build_histogram(img)

    def test_q_lower_bound(self):
        with pytest.raises(ValueError):
            build_histogram(two_delta_image(), q=1)

    def test_q_upper_bound(self):
        h = build_histogram(two_delta_image(), q=sweep.MAX_Q)
        assert h.counts.size == sweep.MAX_Q + 1 and h.total == 4
        with pytest.raises(ValueError, match="at most"):
            build_histogram(two_delta_image(), q=sweep.MAX_Q + 1)


class TestClassStats:
    def test_two_delta_means(self):
        h = build_histogram(two_delta_image())
        stats = class_stats(h, 0.5)
        assert stats.v1 == pytest.approx(0.2, abs=TOL)
        assert stats.v2 == pytest.approx(0.8, abs=TOL)
        assert (stats.n1, stats.n2) == (2, 2)

    def test_threshold_bin_counts_in_both_classes(self):
        img = image_from_unit([51 / 255, 102 / 255, 204 / 255])
        h = build_histogram(img)
        stats = class_stats(h, 102 / 255)
        assert (stats.n1, stats.n2) == (2, 2)

    def test_means_bracket_threshold(self):
        img = random_image(5, 16, 16)
        h = build_histogram(img)
        for t in candidate_thresholds(h)[::17]:
            stats = class_stats(h, float(t))
            assert stats.v1 <= stats.t <= stats.v2

    def test_threshold_must_be_interior(self):
        h = build_histogram(two_delta_image())
        with pytest.raises(ThresholdOutOfRange):
            class_stats(h, 0.2)
        with pytest.raises(ThresholdOutOfRange):
            class_stats(h, 0.9)


class TestCandidates:
    def test_full_range(self):
        img = image_from_unit([0.0, 1.0])
        cand = candidate_thresholds(build_histogram(img))
        assert cand.size == 254
        assert cand[0] == 1 / 255
        assert cand[-1] == 254 / 255

    def test_adjacent_bins_leave_no_candidates(self):
        img = GrayImage(width=2, height=1, levels=np.array([100, 101]), depth=256)
        cand = candidate_thresholds(build_histogram(img))
        assert cand.size == 0

    def test_constant_image_rejected(self):
        img = GrayImage(width=2, height=1, levels=np.array([128, 128]), depth=256)
        with pytest.raises(ConstantImage):
            candidate_thresholds(build_histogram(img))


class TestEntropyCurve:
    def test_two_delta_curve_is_zero(self):
        curve = entropy_curve(build_histogram(two_delta_image()))
        assert len(curve) == 152
        for col in (curve.e_t, curve.e_i, curve.e_f, curve.total):
            assert np.abs(col).max() <= TOL

    def test_row_count_equals_candidates(self):
        h = build_histogram(random_image(2, 32, 32))
        assert len(entropy_curve(h)) == candidate_thresholds(h).size

    def test_rows_match_scalar_reference(self):
        h = build_histogram(random_image(9, 16, 16), q=64)
        curve = entropy_curve(h)
        for j in range(len(curve)):
            e_t, e_i, e_f = partial_entropies(h, float(curve.t[j]))
            assert curve.e_t[j] == pytest.approx(e_t, abs=TOL)
            assert curve.e_i[j] == pytest.approx(e_i, abs=TOL)
            assert curve.e_f[j] == pytest.approx(e_f, abs=TOL)

    def test_total_is_mean_of_partials(self):
        curve = entropy_curve(build_histogram(random_image(4, 24, 24)))
        mean = (curve.e_t + curve.e_i + curve.e_f) / 3.0
        assert np.abs(curve.total - mean).max() <= TOL
        for col in (curve.e_t, curve.e_i, curve.e_f, curve.total):
            assert col.min() >= 0.0 and col.max() <= 1.0

    def test_matches_per_pixel_oracle(self):
        for seed in range(5):
            img = random_image(seed, 16, 16)
            rows = oracle.curve_rows(img.levels, img.depth)
            curve = entropy_curve(build_histogram(img))
            assert np.array_equal(curve.t, rows[:, 0])
            got = np.column_stack([curve.e_t, curve.e_i, curve.e_f, curve.total])
            assert np.abs(got - rows[:, 1:]).max() <= TOL

    def test_permutation_invariance(self):
        img = random_image(21, 20, 20)
        rng = np.random.default_rng(0)
        shuffled = GrayImage(
            width=img.width,
            height=img.height,
            levels=rng.permutation(img.levels),
            depth=img.depth,
        )
        a = entropy_curve(build_histogram(img))
        b = entropy_curve(build_histogram(shuffled))
        for name in ("t", "e_t", "e_i", "e_f", "total"):
            assert np.array_equal(getattr(a, name), getattr(b, name))

    def test_no_candidates_raises(self):
        img = GrayImage(width=2, height=1, levels=np.array([100, 101]), depth=256)
        with pytest.raises(NoCandidates):
            entropy_curve(build_histogram(img))

    def test_constant_image_raises(self):
        img = GrayImage(width=4, height=1, levels=np.full(4, 7), depth=256)
        with pytest.raises(ConstantImage):
            entropy_curve(build_histogram(img))


class TestBlockedSweep:
    """The curve is the same bits for every block size the sweep can pick."""

    COLUMNS = ("t", "e_t", "e_i", "e_f", "total")

    @staticmethod
    def blocked_curve(monkeypatch, hist, budget):
        """Curve at cell budget ``budget``, and the width of every block."""
        widths = []
        weighted_mean = sweep._weighted_mean

        def spy(w, e):
            widths.append(e.shape[1])
            return weighted_mean(w, e)

        with monkeypatch.context() as m:
            m.setattr(sweep, "_BLOCK_CELLS", budget)
            m.setattr(sweep, "_weighted_mean", spy)
            curve = entropy_curve(hist)
        return curve, widths[::3]

    @pytest.mark.parametrize(
        "image, q",
        [
            (mixture_image(0, [0.25, 0.75], [0.05, 0.05], [0.5, 0.5]), 255),
            (random_image(8, 256, 256), 4000),
        ],
        ids=["bimodal-q255", "random256-q4000"],
    )
    def test_curve_does_not_depend_on_block_size(self, monkeypatch, image, q):
        hist = build_histogram(image, q=q)
        rows = hist.occupied().size
        cols = candidate_thresholds(hist).size
        whole, widths = self.blocked_curve(monkeypatch, hist, rows * cols)
        assert widths == [cols]
        # a fixed width that would leave one column over at the end
        odd = next(w for w in range(4, cols) if cols % w == 1)
        for width in (2, 3, odd):
            curve, widths = self.blocked_curve(monkeypatch, hist, rows * width)
            assert sum(widths) == cols
            assert 2 <= min(widths) and max(widths) <= width + 1
            for name in self.COLUMNS:
                assert np.array_equal(getattr(curve, name), getattr(whole, name))

    def test_budget_below_one_column_keeps_two_columns(self, monkeypatch):
        hist = build_histogram(random_image(8, 32, 32), q=64)
        whole = entropy_curve(hist)
        curve, widths = self.blocked_curve(monkeypatch, hist, 1)
        assert len(widths) == candidate_thresholds(hist).size // 2
        assert min(widths) >= 2
        for name in self.COLUMNS:
            assert np.array_equal(getattr(curve, name), getattr(whole, name))

    def test_single_candidate(self, monkeypatch):
        hist = build_histogram(image_from_unit([0.0, 0.0, 2 / 255]), q=255)
        curve, widths = self.blocked_curve(monkeypatch, hist, 1)
        assert widths == [1]
        assert curve.t.tolist() == [1 / 255]
        e_t, e_i, e_f = partial_entropies(hist, 1 / 255)
        assert curve.e_t[0] == pytest.approx(e_t, abs=TOL)
        assert curve.e_i[0] == pytest.approx(e_i, abs=TOL)
        assert curve.e_f[0] == pytest.approx(e_f, abs=TOL)

    def test_peak_memory_does_not_grow_with_q(self):
        hist = build_histogram(random_image(8, 256, 256), q=16000)
        tracemalloc.start()
        try:
            curve = entropy_curve(hist)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(curve) == 15999
        # the whole 256 x 15999 grid evaluated at once peaked at 287 MB
        assert peak < 16 * 2**20


def per_cell_curve(hist):
    """Curve columns with ``neutro_components`` evaluated at every grid cell.

    The same candidates, class means and blocks as :func:`entropy_curve`, but
    truth, falsity and the nearer-mean distance are computed per cell instead
    of once per group of candidates that share their class means.
    """
    occ = hist.occupied()
    ks = np.arange(occ[0] + 1, occ[-1], dtype=np.int64)
    vals = hist.values()
    cum_n = np.cumsum(hist.counts)
    cum_k = np.cumsum(hist.counts * np.arange(hist.q + 1, dtype=np.int64))
    n1 = cum_n[ks]
    n2 = cum_n[-1] - cum_n[ks - 1]
    v1s = cum_k[ks] / (n1 * hist.q)
    v2s = (cum_k[-1] - cum_k[ks - 1]) / (n2 * hist.q)
    ts = vals[ks]
    c = hist.counts[occ].astype(np.float64)[:, None]
    x = vals[occ][:, None]
    parts = [np.empty(ks.size) for _ in range(3)]
    cells = occ.size * ks.size
    blocks = max(1, min(ks.size // 2, -(-cells // sweep._BLOCK_CELLS)))
    for i in range(blocks):
        a, b = i * ks.size // blocks, (i + 1) * ks.size // blocks
        triple = neutro_components(x, v1s[a:b], v2s[a:b], ts[a:b])
        e = neutro_entropy(*triple)
        for out, w in zip(parts, triple):
            out[a:b] = sweep._weighted_mean(c * w, e)
    return (ts, *parts, (parts[0] + parts[1] + parts[2]) / 3.0)


def full_range_image(depth):
    """One pixel of every level 0 .. depth - 1."""
    return GrayImage(width=depth, height=1, levels=np.arange(depth), depth=depth)


class TestDistinctColumns:
    """Memberships evaluated once per group of candidates with equal class means."""

    CASES = [
        (random_image(8, 256, 256), 4000),
        (image_from_unit([0.0, 0.0, 1.0]), sweep.MAX_Q),
        (full_range_image(256), 255),
        (random_image(3, 64, 64, depth=101), 255),
    ]
    IDS = ["random256-q4000", "two-level-qmax", "full256-q255", "maxval100-q255"]

    @pytest.mark.parametrize("image, q", CASES, ids=IDS)
    def test_same_bits_as_per_cell_sweep(self, monkeypatch, image, q):
        hist = build_histogram(image, q=q)
        # one reference at the default blocks serves both budgets: blocks of
        # two or more columns give the same bits (TestBlockedSweep)
        want = per_cell_curve(hist)
        for budget in (sweep._BLOCK_CELLS, 2 * hist.occupied().size):
            monkeypatch.setattr(sweep, "_BLOCK_CELLS", budget)
            curve = entropy_curve(hist)
            for name, column in zip(TestBlockedSweep.COLUMNS, want):
                assert getattr(curve, name).tobytes() == column.tobytes(), name

    @staticmethod
    def membership_columns(monkeypatch, hist):
        """Column count of every ``memberships`` call the sweep makes."""
        seen = []
        memberships = sweep.memberships

        def spy(x, v1, v2):
            seen.append(v1.size)
            return memberships(x, v1, v2)

        monkeypatch.setattr(sweep, "memberships", spy)
        entropy_curve(hist)
        return seen

    @pytest.mark.parametrize(
        "image, q",
        [
            (random_image(8, 256, 256), 1000),
            (random_image(8, 256, 256), sweep.MAX_Q),
            (image_from_unit([0.0, 0.0, 1.0]), sweep.MAX_Q),
            (random_image(3, 64, 64, depth=101), 255),
        ],
        ids=["random256-q1000", "random256-qmax", "two-level-qmax", "maxval100-q255"],
    )
    def test_one_column_per_group_and_block(self, monkeypatch, image, q):
        hist = build_histogram(image, q=q)
        seen = self.membership_columns(monkeypatch, hist)
        # each interior occupied bin starts a group at itself and one after
        # it; a group cut by a block edge is evaluated once in each block
        assert sum(seen) <= 2 * hist.occupied().size - 3 + len(seen) - 1
        assert sum(seen) < candidate_thresholds(hist).size

    def test_every_candidate_occupied(self, monkeypatch):
        hist = build_histogram(full_range_image(256), q=255)
        seen = self.membership_columns(monkeypatch, hist)
        assert sum(seen) == candidate_thresholds(hist).size == 254


class TestFindThresholds:
    def test_single_strict_minimum(self):
        found = find_thresholds(curve_of([0.5, 0.2, 0.5]))
        assert list(found.thresholds) == [2 / 100]
        assert not found.fallback_used

    def test_plateau_reports_center(self):
        found = find_thresholds(curve_of([0.5, 0.2, 0.2, 0.2, 0.5]))
        assert list(found.thresholds) == [3 / 100]

    def test_even_plateau_takes_lower_median(self):
        found = find_thresholds(curve_of([0.5, 0.2, 0.2, 0.5]))
        assert list(found.thresholds) == [2 / 100]

    def test_monotone_decreasing_falls_back_to_last(self):
        found = find_thresholds(curve_of([0.5, 0.4, 0.3, 0.2]))
        assert found.fallback_used
        assert list(found.thresholds) == [4 / 100]

    def test_monotone_increasing_falls_back_to_first(self):
        found = find_thresholds(curve_of([0.2, 0.3, 0.4]))
        assert found.fallback_used
        assert list(found.thresholds) == [1 / 100]

    def test_constant_curve_falls_back_to_center(self):
        found = find_thresholds(curve_of([0.3] * 5))
        assert found.fallback_used
        assert list(found.thresholds) == [3 / 100]

    def test_endpoint_plateau_is_not_a_minimum(self):
        found = find_thresholds(curve_of([0.2, 0.2, 0.5, 0.1, 0.5]))
        assert list(found.thresholds) == [4 / 100]
        assert not found.fallback_used

    def test_multiple_minima_ascending(self):
        found = find_thresholds(curve_of([0.5, 0.1, 0.5, 0.3, 0.5, 0.2, 0.5]))
        assert list(found.thresholds) == [2 / 100, 4 / 100, 6 / 100]

    def test_prunes_to_smallest_entropy(self):
        curve = curve_of([0.5, 0.1, 0.5, 0.3, 0.5, 0.2, 0.5])
        found = find_thresholds(curve, max_thresholds=2)
        assert list(found.thresholds) == [2 / 100, 6 / 100]
        found = find_thresholds(curve, max_thresholds=1)
        assert list(found.thresholds) == [2 / 100]

    def test_equal_entropy_tie_keeps_smaller_t(self):
        found = find_thresholds(curve_of([0.5, 0.2, 0.5, 0.2, 0.5]), max_thresholds=1)
        assert list(found.thresholds) == [2 / 100]

    def test_output_sorted_subset_of_grid(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            curve = curve_of(rng.random(40))
            found = find_thresholds(curve, max_thresholds=5)
            ts = found.thresholds
            assert ts.size >= 1
            assert np.all(np.diff(ts) > 0)
            assert np.isin(ts, curve.t).all()

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            find_thresholds(curve_of([]))
        with pytest.raises(ValueError):
            find_thresholds(curve_of([0.5, 0.2, 0.5]), max_thresholds=0)


class TestMixturePipeline:
    def test_bimodal_minimum_sits_in_the_valley(self):
        img = mixture_image(0, [0.25, 0.75], [0.05, 0.05], [0.5, 0.5])
        curve = entropy_curve(build_histogram(img))
        found = find_thresholds(curve, max_thresholds=1)
        assert not found.fallback_used
        assert 0.25 < found.thresholds[0] < 0.75
