"""The benchmark's output checks accept correct outputs and reject planted faults.

Run from the repository root:

    python3 -m pytest pipebench/tests -q
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
REPO = BENCH.parent
sys.path[:0] = [str(BENCH), str(REPO / "src")]

import checks  # noqa: E402
import workloads  # noqa: E402

_spec = importlib.util.spec_from_file_location("oracle", REPO / "tests" / "oracle.py")
oracle = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(oracle)


def small_levels(seed: int, depth: int, n: int = 600) -> np.ndarray:
    rng = np.random.default_rng(seed)
    levels = rng.integers(0, depth, n)
    levels[:2] = (0, depth - 1)
    return levels


def reference(levels, depth, q):
    qhist = checks.reference_histogram(checks.level_counts(levels, depth), depth, q)
    return qhist, checks.reference_curve(qhist, q)


# ------------------------------------------------------------ references


@pytest.mark.parametrize("seed,depth,q", [(0, 256, 255), (1, 101, 255), (2, 17, 50), (3, 256, 64)])
def test_transcription_matches_per_pixel_oracle(seed, depth, q):
    levels = small_levels(seed, depth)
    _, ref = reference(levels, depth, q)
    rows = oracle.curve_rows(levels, depth, q)
    assert ref.shape == rows.shape
    assert np.abs(ref - rows).max() <= checks.CURVE_TOL


def test_bin_rule_rounds_exact_halves_up():
    # maxval 100, q = 255: level 10 sits at 25.5 grid steps
    bins = checks.level_bins(101, 255)
    assert bins[10] == 26 and bins[30] == 77 and bins[100] == 255
    assert np.array_equal(bins, np.floor(np.arange(101) * 255 / 100 + 0.5))


@pytest.mark.parametrize(
    "total,want,fallback",
    [
        ([3, 1, 1, 1, 1, 3], [2], False),  # even plateau: lower median
        ([3, 1, 2, 0, 2, 1, 3], [1, 3, 5], False),
        ([5, 2, 5, 2, 5], [1, 3], False),  # equal entropies keep both
        ([1, 1, 2, 3], [0], True),  # lowest plateau at the start
        ([3, 2, 1], [2], True),
    ],
)
def test_selection_rule(total, want, fallback):
    t = np.arange(len(total)) / 10.0
    got, used = checks.select_thresholds(np.array(total, float), t, 8)
    assert got == [w / 10.0 for w in want]
    assert used is fallback


def test_selection_rule_ties_go_to_smaller_t():
    total = np.array([5, 2, 5, 1, 5, 2, 5], float)
    t = np.arange(7) / 10.0
    assert checks.select_thresholds(total, t, 2)[0] == [0.1, 0.3]


def test_exact_workload_histograms_have_no_half_level_region_mean():
    """The repainting workloads stay clear of the region-mean fault for every seed."""
    for name in ("large-p5", "p2-batch"):
        for spec in workloads.WORKLOADS[name].images:
            depth = spec.maxval + 1
            lcounts = workloads.exact_counts(spec)
            ref = checks.reference_curve(
                checks.reference_histogram(lcounts, depth, spec.q), spec.q
            )
            t, _ = checks.select_thresholds(ref[:, 4], ref[:, 0], workloads.MAX_THRESHOLDS)
            region = np.zeros(depth, dtype=np.int64)
            for k in checks.grid_steps(t, spec.q):
                region += k * (depth - 1) < np.arange(depth) * spec.q
            for r in range(region.max() + 1):
                c = int(lcounts[region == r].sum())
                s = int((lcounts[region == r] * np.flatnonzero(region == r)).sum())
                assert c > 0 and (2 * s) % (2 * c) != c, (name, spec, r)


# -------------------------------------------- the program's outputs pass


def test_program_outputs_pass_every_check():
    import neutroseg as ns

    spec = workloads.WORKLOADS["p2-batch"].images[0]
    depth, q, side = spec.maxval + 1, spec.q, spec.side
    levels = workloads.exact_levels(np.random.default_rng(4), spec)
    image = ns.GrayImage(width=side, height=side, levels=levels, depth=depth)
    hist = ns.build_histogram(image, q)
    curve = ns.entropy_curve(hist)
    found = ns.find_thresholds(curve, 8)
    qhist, ref = reference(levels, depth, q)
    ks = checks.grid_steps(found.thresholds, q)
    table = checks.repaint_table(checks.level_counts(levels, depth), ks, q, depth)
    painted = ns.render(ns.segment(image, found.thresholds), image)
    assert checks.check_histogram(hist.counts, hist.total, qhist) == []
    assert checks.check_curve(curve.t, curve.e_t, curve.e_i, curve.e_f, curve.total, ref, q) == []
    assert checks.check_thresholds(found.thresholds, found.fallback_used, curve.total, curve.t, 8) == []
    assert checks.check_repaint(painted.levels, levels, table) == []
    assert checks.check_pgm(ns.write_pgm(painted), side, side, depth, levels, table) == []
    assert checks.check_curve_csv(ns.write_curve(curve), ref) == []


# ------------------------------------------------ planted wrong outputs


@pytest.fixture
def case():
    depth, q = 256, 255
    levels = small_levels(5, depth)
    qhist, ref = reference(levels, depth, q)
    return levels, qhist, ref, q


def test_curve_value_off_by_1e9_is_caught(case):
    _, _, ref, q = case
    cols = [ref[:, j].copy() for j in range(5)]
    assert checks.check_curve(*cols, ref, q) == []
    cols[2][len(ref) // 2] += 1e-9
    assert checks.check_curve(*cols, ref, q)


def test_csv_field_beyond_twelve_digits_is_caught(case):
    _, _, ref, _ = case
    text = "t,e_T,e_I,e_F,E\n" + "".join(",".join(f"{v:.12g}" for v in r) + "\n" for r in ref)
    assert checks.check_curve_csv(text.encode(), ref) == []
    bad = ref.copy()
    bad[3, 4] += 1e-9
    text = "t,e_T,e_I,e_F,E\n" + "".join(",".join(f"{v:.12g}" for v in r) + "\n" for r in bad)
    assert checks.check_curve_csv(text.encode(), ref)


def test_threshold_shifted_one_grid_step_is_caught(case):
    _, _, ref, q = case
    t = ref[:, 0]
    total = ref[:, 4]
    want, fallback = checks.select_thresholds(total, t, 8)
    assert checks.check_thresholds(np.array(want), fallback, total, t, 8) == []
    shifted = np.array(want)
    shifted[0] += 1.0 / q
    assert checks.check_thresholds(shifted, fallback, total, t, 8)


def test_one_histogram_count_moved_is_caught(case):
    _, qhist, _, _ = case
    counts = qhist.copy()
    assert checks.check_histogram(counts, counts.sum(), qhist) == []
    k = int(np.flatnonzero(counts)[0])
    counts[k] -= 1
    counts[k + 1] += 1
    assert checks.check_histogram(counts, counts.sum(), qhist)


def test_repaint_253_where_254_is_due_is_caught():
    # 17 pixels at 252 and 17 at 255 above t = 1/2: the exact mean 253.5
    # rounds to 254; a float sum of unit grays can give 253
    levels = np.array([0] + [252] * 17 + [255] * 17)
    table = checks.repaint_table(checks.level_counts(levels, 256), [1], 2, 256)
    assert table[252] == table[255] == 254
    due = table[levels]
    assert checks.check_repaint(due, levels, table) == []
    painted = due.copy()
    painted[painted == 254] = 253
    assert checks.check_repaint(painted, levels, table)
    pgm = b"P5\n35 1\n255\n" + painted.astype(np.uint8).tobytes()
    assert checks.check_pgm(pgm, 35, 1, 256, levels, table)
