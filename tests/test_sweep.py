"""Histogram, candidate grid, entropy sweep and minima extraction."""

import hashlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    write_curve,
)

TOL = 1e-12


def two_delta_image():
    return image_from_unit([0.2, 0.2, 0.8, 0.8])


def curve_of(totals, q=100, steps=None):
    """Synthetic curve over t = 1/q, 2/q, ... with the given total column.

    ``steps`` lists the grid step of every sample, 1, 2, ... when omitted.
    """
    e = np.asarray(totals, dtype=np.float64)
    steps = np.arange(1, e.size + 1) if steps is None else np.asarray(steps)
    t = steps.astype(np.float64) / q
    z = np.zeros_like(e)
    return EntropyCurve(q=q, t=t, e_t=z, e_i=z, e_f=z, total=e)


def select_by_loop(total, t, max_thresholds):
    """The selection rule walked one plateau run at a time: (thresholds, fallback)."""
    e, t, n = [float(v) for v in total], [float(v) for v in t], len(total)
    runs, a = [], 0
    for i in range(1, n + 1):
        if i == n or e[i] != e[a]:
            runs.append((a, i - 1))
            a = i
    minima = []
    for a, b in runs:
        if a > 0 and b < n - 1 and e[a - 1] > e[a] and e[b + 1] > e[b]:
            minima.append((e[(a + b) // 2], t[(a + b) // 2]))
    if not minima:
        a, b = next(r for r in runs if e[r[0]] == min(e))
        return [t[(a + b) // 2]], True
    return sorted(tt for _, tt in sorted(minima)[:max_thresholds]), False


def assert_selects_by_loop(curve, max_thresholds):
    found = find_thresholds(curve, max_thresholds=max_thresholds)
    want, fallback = select_by_loop(curve.total, curve.t, max_thresholds)
    assert found.thresholds.tolist() == want
    assert found.thresholds.dtype == np.float64
    assert found.fallback_used == fallback


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

    @pytest.mark.parametrize(
        "q", [300.0, None, "300", np.float64(300)], ids=["float", "None", "str", "f8"]
    )
    def test_non_integer_q_raises_value_error(self, q):
        message = r"^q: .* cannot be interpreted as an integer$"
        with pytest.raises(ValueError, match=message):
            build_histogram(two_delta_image(), q=q)

    def test_integer_q_is_stored_as_int(self):
        h = build_histogram(two_delta_image(), q=np.int64(300))
        assert type(h.q) is int and h.q == 300
        assert type(entropy_curve(h).q) is int


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
        entropy = sweep.neutro_entropy

        def spy(*triple):
            result = entropy(*triple)
            widths.append(result.shape[1])
            return result

        with monkeypatch.context() as m:
            m.setattr(sweep, "_BLOCK_CELLS", budget)
            m.setattr(sweep, "neutro_entropy", spy)
            curve = entropy_curve(hist)
        return curve, widths

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

    def test_blocks_with_and_without_repeat_match_scalar_reference(self, monkeypatch):
        # levels 0..47 all occupied, so every group there is one column wide
        # and memberships are used as they are; above them every 16th level,
        # so groups are 16 columns wide and memberships are repeated
        levels = np.r_[np.arange(48), np.arange(48, 256, 16)]
        image = GrayImage(width=levels.size, height=1, levels=levels, depth=256)
        hist = build_histogram(image, q=255)
        groups = []
        memberships = sweep.memberships

        def spy(x, v1, v2):
            groups.append(v1.size)
            return memberships(x, v1, v2)

        monkeypatch.setattr(sweep, "memberships", spy)
        curve, widths = self.blocked_curve(monkeypatch, hist, 8 * levels.size)
        assert len(groups) == len(widths) > 2
        assert any(g == w for g, w in zip(groups, widths))
        assert any(g < w for g, w in zip(groups, widths))
        for j, t in enumerate(curve.t):
            want = partial_entropies(hist, float(t))
            assert (curve.e_t[j], curve.e_i[j], curve.e_f[j]) == want, t

    def test_sums_add_in_the_scalar_reference_order(self, monkeypatch):
        # 20 occupied levels at q=300, so groups are up to 56 columns wide
        # and memberships are repeated; the scalar reference adds c * w and
        # c * w * e level by level, and a pairwise or fused multiply-add
        # reduction would change the last bits of some candidate
        rng = np.random.default_rng(28)
        levels = np.sort(rng.choice(256, size=20, replace=False))
        counts = rng.integers(1, 400, size=20)
        image = GrayImage(
            width=int(counts.sum()),
            height=1,
            levels=np.repeat(levels, counts),
            depth=256,
        )
        hist = build_histogram(image, q=300)
        rows = hist.occupied().size
        assert rows == 20
        want = [partial_entropies(hist, float(t)) for t in candidate_thresholds(hist)]
        for budget in (sweep._BLOCK_CELLS, 2 * rows, 3 * rows):
            curve, widths = self.blocked_curve(monkeypatch, hist, budget)
            assert max(widths) <= budget // rows + 1
            got = list(zip(curve.e_t.tolist(), curve.e_i.tolist(), curve.e_f.tolist()))
            assert got == want, budget

    def test_peak_memory_does_not_grow_with_q(self):
        hist = build_histogram(random_image(8, 256, 256), q=16000)
        tracemalloc.start()
        try:
            curve = entropy_curve(hist)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(curve) == 15999
        # the whole 256 x 15999 grid evaluated at once peaked at 287 MB; with
        # the prefix sums and each block's nearer-mean distance alive
        # through the block loop the sweep peaked at 3.77 MiB, against 2.65
        assert peak < 3.25 * 2**20

    def test_at_most_two_blocks_are_alive(self, monkeypatch):
        hist = build_histogram(random_image(8, 256, 256), q=4000)
        memberships, entropy = sweep.memberships, sweep.neutro_entropy
        # traced bytes at each block's start, and above it when the entropy
        # is formed, with the bytes of one (rows x width) array
        starts, held = [], []

        def memberships_spy(x, v1, v2):
            starts.append(tracemalloc.get_traced_memory()[0])
            return memberships(x, v1, v2)

        def entropy_spy(*triple):
            extra = tracemalloc.get_traced_memory()[0] - starts[-1]
            held.append((extra, triple[0].nbytes))
            return entropy(*triple)

        monkeypatch.setattr(sweep, "memberships", memberships_spy)
        monkeypatch.setattr(sweep, "neutro_entropy", entropy_spy)
        tracemalloc.start()
        try:
            entropy_curve(hist)
        finally:
            tracemalloc.stop()
        assert len(starts) == len(held) > 2
        nbytes = held[0][1]
        # each array of a block is 128 KiB. A block starts with only the
        # last block's weights and entropy alive, not its nearer-mean
        # distance too (five arrays), nor any block before it; when it forms
        # its entropy it holds no more than its truth, neutrality and
        # falsity above what it started with
        assert max(starts) - starts[0] < 4 * nbytes + 2**14
        assert all(extra < 3 * nbytes + 2**14 for extra, _ in held)

    def test_peak_memory_at_the_largest_grid(self):
        hist = build_histogram(random_image(8, 256, 256), q=sweep.MAX_Q)
        tracemalloc.start()
        try:
            curve = entropy_curve(hist)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(curve) == hist.occupied()[-1] - hist.occupied()[0] - 1
        # 6.5 MiB, most of it the per-candidate columns; 7.1 MiB when the
        # sums were divided into a third (3, q) array, 11.8 MiB with the
        # prefix sums alive through the block loop
        assert peak < 7 * 2**20


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
    num, den = np.empty((3, ks.size)), np.empty((3, ks.size))
    cells = occ.size * ks.size
    blocks = max(1, min(ks.size // 2, -(-cells // sweep._BLOCK_CELLS)))
    for i in range(blocks):
        a, b = i * ks.size // blocks, (i + 1) * ks.size // blocks
        triple = neutro_components(x, v1s[a:b], v2s[a:b], ts[a:b])
        e = neutro_entropy(*triple)
        for k, w in enumerate(triple):
            den[k, a:b] = np.sum(c * w, axis=0)
            num[k, a:b] = np.sum(c * w * e, axis=0)
    parts = np.zeros_like(num)
    np.divide(num, den, out=parts, where=den >= sweep.ZERO_MASS)
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


class TestPinnedCurves:
    """Curves and curve text match the digests recorded at commit 7e5fa7a.

    The other exactness tests compare the sweep with the scalar reference,
    with other block sizes and with a per-cell sweep, all built from the same
    ``core``; a change that moved the last bits of every result alike would
    pass them. These SHA-256 digests would not.
    """

    CASES = {
        "full256-q255": (full_range_image(256), 255),
        "bimodal-q1000": (
            mixture_image(4, [0.3, 0.7], [0.08, 0.1], [0.4, 0.6], 4096, 64),
            1000,
        ),
        "random64-q4000": (random_image(11, 64, 64), 4000),
        "depth64-qmax": (random_image(12, 32, 32, depth=64), sweep.MAX_Q),
    }
    DIGESTS = {
        "full256-q255": {
            "t": "4895f1442358918dd6ef4036964c9c4021b335465db92d2eab7d4034a11e254d",
            "e_t": "d9e8a4632150d02ec7756c6c7b2876e16b966cc8aee6331ffbe874e5dd2ec042",
            "e_i": "b0a82454f08c2e5fa8a010cf082911202d6d99002fc85989d14e6ee116cbdd50",
            "e_f": "bba2fd2cd0a555bbcca8a9da105c28bf7205169dec1bbc30387d53aa612f1058",
            "total": "c54a618b0604cac3d9e0bde9ee0f1a23a8d1db4d48c6d3c11bc1947fd0bb2b49",
            "csv": "5be56f08f6af276189ebf9f35a9749bc5b79b7e7deb9622d56d3504e08f21c6a",
        },
        "bimodal-q1000": {
            "t": "019528252dc3befe69cd8bcae9a01661004a0df26ffdd054405711ce75bfc8b7",
            "e_t": "5b223eb29e8aa88c74d4ef26cd040ce5dd5928e805e5571d9bfdc22ebd1dd510",
            "e_i": "5d956bcd364bac2038702c74c63fc700cfe8fb583acc4931d99ca6c275771ec4",
            "e_f": "342a2d323d41c59de4bb5e2aedef1ef6118db56ae04f793b89c390de0cf217ea",
            "total": "6b7c122c82dc60c101392acc0636a30d0c1c460dc3929f52a56ff4564aa49ed1",
            "csv": "24af9d50475a201099df0160c177591c2833afb394e84bbeb1f72a3b0357c06b",
        },
        "random64-q4000": {
            "t": "b554d41b33caf4260c7ae13cdf961c3b617ef21c49a0dd87f7e9f5a0c58d86d9",
            "e_t": "38fb9532049e45a8f6fbfcb45641823c34cf0f1c2ace172d80f2dc8ca8b26f38",
            "e_i": "51ab42d742b4f9d68edae9b4903ddaeb6069d0660c43cc1688dcd06c0bd09494",
            "e_f": "077e5e3862cbd41116cab2be0117e27e94be67b848657467a1ba0184e562ee56",
            "total": "b4856eb0ead35737c8ad4ad39146a036a596ca4e8cb21a1283002156130b2240",
            "csv": "9e5266405e5310b8f9ed1f05b502a1c91580644dd0e199219dfd1373b37dcf0d",
        },
        "depth64-qmax": {
            "t": "d5ded13ec1f5e2c09ab1a23c7062096c3416d6428babf8f38f1930c28c36eaf5",
            "e_t": "4ef27c1c74e6f7a2ed8378808e7e3d1152ed01527bfe6264642b07d3f001397d",
            "e_i": "f4e25b87c7f911f5bce4b854f971218f64f4a5b286a87d1693c07fd21f575839",
            "e_f": "b929e330c75c2ab17b49cbe473a40b2e2510d7ee5712c229565e0ec0c13172d9",
            "total": "005f6a55df07aa63455d97e8b6e2fb3c77ad98e60eb243f1ba5c5e55bfecebd2",
            "csv": "f8e35d1efd7c47ae21cc7af6534ecb2d09e8da22cc4a036ae4419796c55b13c5",
        },
    }

    @pytest.mark.parametrize("name", CASES)
    def test_digests(self, name):
        image, q = self.CASES[name]
        curve = entropy_curve(build_histogram(image, q=q))
        got = {col: getattr(curve, col).tobytes() for col in TestBlockedSweep.COLUMNS}
        got["csv"] = write_curve(curve)
        got = {key: hashlib.sha256(data).hexdigest() for key, data in got.items()}
        assert got == self.DIGESTS[name]


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

    @pytest.mark.parametrize(
        "cap", [None, "2", 2.5, np.float64(2)], ids=["None", "str", "float", "f8"]
    )
    def test_non_integer_cap_raises_value_error(self, cap):
        message = r"^max_thresholds: .* cannot be interpreted as an integer$"
        with pytest.raises(ValueError, match=message):
            find_thresholds(curve_of([0.5, 0.2, 0.5, 0.1, 0.5]), max_thresholds=cap)

    def test_integer_cap_is_taken_as_int(self):
        curve = curve_of([0.5, 0.2, 0.5, 0.1, 0.5])
        for cap in (np.int64(1), True):
            found = find_thresholds(curve, max_thresholds=cap)
            assert list(found.thresholds) == [4 / 100]

    @pytest.mark.parametrize(
        "totals",
        [[0.5, np.nan, 0.5], [np.nan] * 3, [0.5, 0.2, np.nan, 0.1, 0.5]],
    )
    def test_nan_curve_raises(self, totals):
        with pytest.raises(ValueError, match="entropy curve holds NaN"):
            find_thresholds(curve_of(totals))

    @settings(deadline=None, max_examples=500)
    @given(st.data())
    def test_matches_a_loop_over_runs(self, data):
        # equal infinities, and 0.0 beside -0.0, form one run like any equal values
        alphabet = [-np.inf, -0.0, 0.0, 0.2, 0.5, np.inf]
        totals = data.draw(st.lists(st.sampled_from(alphabet), min_size=1, max_size=40))
        # thresholds drawn out of order too, so ties are broken by the
        # threshold and not by the sample position
        steps = range(1, len(totals) + 1)
        steps = data.draw(st.one_of(st.just(list(steps)), st.permutations(steps)))
        max_thresholds = data.draw(st.integers(1, 9))
        assert_selects_by_loop(curve_of(totals, steps=steps), max_thresholds)

    def test_matches_a_loop_over_runs_on_real_curves(self):
        # 65535 and 3481 runs, with 213 and 72 minima
        random_curve = entropy_curve(
            build_histogram(random_image(8, 256, 256), q=sweep.MAX_Q)
        )
        img = mixture_image(0, [0.25, 0.75], [0.05, 0.05], [0.5, 0.5])
        for curve in (random_curve, entropy_curve(build_histogram(img, q=4000))):
            for max_thresholds in (1, 8):
                assert_selects_by_loop(curve, max_thresholds)


class TestMixturePipeline:
    def test_bimodal_minimum_sits_in_the_valley(self):
        img = mixture_image(0, [0.25, 0.75], [0.05, 0.05], [0.5, 0.5])
        curve = entropy_curve(build_histogram(img))
        found = find_thresholds(curve, max_thresholds=1)
        assert not found.fallback_used
        assert 0.25 < found.thresholds[0] < 0.75
