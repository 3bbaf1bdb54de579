"""Per-level tables against the per-pixel formulas they replace."""

from dataclasses import fields
from types import SimpleNamespace

import numpy as np
import pytest

import neutroseg.image as image_mod
from conftest import random_image, unit_levels
from neutroseg import (
    EmptyImage,
    GrayImage,
    build_histogram,
    read_pgm,
    render,
    segment,
    write_pgm,
)

DEPTHS = [2, 17, 101, 256]
QS = [2, 64, 255, 1000, 4000]


def pixel_bins(image: GrayImage, q: int) -> np.ndarray:
    """q-grid bin of every pixel, rounding halves away from zero."""
    levels = image.levels.astype(np.int64)
    return np.floor(levels * q / (image.depth - 1) + 0.5).astype(np.int64)


def grid_thresholds(rng: np.random.Generator, q: int) -> np.ndarray:
    """Up to four distinct grid points k/q strictly inside (0, 1)."""
    ks = rng.choice(np.arange(1, q), size=min(4, q - 1), replace=False)
    return np.sort(ks) / q


def region_means(levels: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Every pixel's region mean level ``(2*S + C) // (2*C)``, per region."""
    levels = levels.astype(np.int64)
    want = np.empty(levels.size, dtype=np.int64)
    for r in np.unique(labels):
        inside = labels == r
        s, c = int(levels[inside].sum()), int(inside.sum())
        want[inside] = (2 * s + c) // (2 * c)
    return want


@pytest.mark.parametrize("q", QS)
@pytest.mark.parametrize("depth", DEPTHS)
def test_tables_match_per_pixel_formulas(depth, q):
    img = random_image(depth * 7 + q, 48, 37, depth=depth)
    hist = build_histogram(img, q=q)
    assert np.array_equal(hist.counts, np.bincount(pixel_bins(img, q), minlength=q + 1))
    assert hist.total == img.pixel_count

    ts = grid_thresholds(np.random.default_rng(q), q)
    seg = segment(img, ts)
    labels = np.searchsorted(ts, unit_levels(img), side="left")
    assert np.array_equal(img.lookup(seg.level_labels), labels)
    assert np.array_equal(seg.region_counts, np.bincount(labels, minlength=ts.size + 1))

    # every nonempty region repaints to its exact mean level, halves up
    out = render(seg, img)
    assert np.array_equal(out.levels, region_means(img.levels, labels))


@pytest.mark.parametrize("depth", DEPTHS)
def test_segment_and_histogram_read_only_the_level_counts(depth):
    # the CLI hands both a P5 file it has counted but not held
    img = random_image(depth + 3, 31, 17, depth=depth)
    counted = SimpleNamespace(
        depth=img.depth, pixel_count=img.pixel_count, level_counts=img.level_counts
    )
    for want, got in (
        (build_histogram(img, q=255), build_histogram(counted, q=255)),
        (segment(img, [0.3, 0.7]), segment(counted, [0.3, 0.7])),
    ):
        for f in fields(want):
            a, b = getattr(want, f.name), getattr(got, f.name)
            assert np.asarray(a).dtype == np.asarray(b).dtype
            assert np.array_equal(a, b)


def test_level_counts_across_a_partial_chunk():
    img = random_image(21, (1 << 18) + 7, 1)
    want = np.bincount(img.levels.astype(np.int64), minlength=img.depth)
    assert np.array_equal(img.level_counts, want)
    assert img.level_counts is img.level_counts
    assert not img.level_counts.flags.writeable


def test_depth_outside_2_to_256_is_rejected_and_levels_are_uint8():
    for depth in (1, 257, 2**40):
        with pytest.raises(ValueError, match="outside \\[2, 256\\]"):
            GrayImage(width=1, height=1, levels=np.array([0]), depth=depth)
    img = GrayImage(width=2, height=1, levels=np.array([0, 255], dtype=np.int64))
    assert img.levels.dtype == np.uint8
    assert list(img.levels) == [0, 255]
    assert list(img.level_counts[[0, 255]]) == [1, 1]


@pytest.mark.parametrize("depth", DEPTHS)
def test_decoded_levels_are_uint8(depth):
    img = random_image(depth, 9, 5, depth=depth)
    p5 = write_pgm(img)
    p2 = b"P2 9 5 %d " % (depth - 1) + b" ".join(b"%d" % v for v in img.levels)
    for data in (p5, p2):
        back = read_pgm(data)
        assert back.levels.dtype == np.uint8
        assert np.array_equal(back.levels, img.levels)


CHUNK = image_mod._CHUNK
TABLE_DTYPES = [np.uint8, np.uint16, np.int64, ">u2"]


def level_table(depth: int, dtype) -> np.ndarray:
    """A table with no zero entry whose top and bottom bytes both vary by level.

    No entry is zero, so a pixel a gather skips cannot match by chance, and
    a gather that mixes up bytes or neighbouring entries changes the value.
    """
    v = np.arange(depth, dtype=np.uint64) * 7919 % 251 + 1
    top = np.uint64(8 * np.dtype(dtype).itemsize - 8)
    return (v << top | v).astype(dtype)


def check_lookup(img: GrayImage) -> None:
    for dtype in TABLE_DTYPES:
        table = level_table(img.depth, dtype)
        got = img.lookup(table)
        assert got.dtype == table.dtype
        assert got.tobytes() == table[img.levels].tobytes()
        entries = table.tolist()
        assert got.tolist() == [entries[v] for v in img.levels.tolist()]
        streamed = b"".join(part.tobytes() for part in img._lookup_slices(table))
        assert streamed == got.tobytes()


def check_pipeline(img: GrayImage, levels: np.ndarray) -> None:
    """Counts, labels and repaint of ``img`` against its raw ``levels``."""
    assert np.array_equal(img.level_counts, np.bincount(levels, minlength=img.depth))
    ts = np.array([0.3, 0.7])
    seg = segment(img, ts)
    labels = np.searchsorted(ts, levels / (img.depth - 1), side="left")
    assert np.array_equal(img.lookup(seg.level_labels), labels)
    out = render(seg, img)
    assert out.levels.dtype == img.levels.dtype
    assert np.array_equal(out.levels, region_means(levels, labels))


EDGES = [CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK - 1, 2 * CHUNK, 2 * CHUNK + 1]


@pytest.mark.parametrize("n", [0, 1, 2, 3, *EDGES, 2 * CHUNK + 7])
@pytest.mark.parametrize("depth", [2, 101, 256])
def test_gathers_match_per_pixel_formulas_across_chunk_edges(depth, n):
    img = random_image(n, n, 1, depth=depth)
    assert img.levels.dtype == np.uint8
    check_lookup(img)
    # read_pgm's P5 raster: a view of the file's bytes at an odd offset
    raster = np.frombuffer(b"P" + img.levels.tobytes(), dtype=np.uint8, offset=1)
    assert raster.ctypes.data % 2 == 1
    check_lookup(GrayImage(n, 1, raster, depth=depth))

    if n == 0:
        with pytest.raises(EmptyImage):
            segment(img, [0.3, 0.7])
        return
    check_pipeline(img, img.levels.astype(np.int64))


def test_non_contiguous_levels_are_stored_contiguous():
    rng = np.random.default_rng(5)
    base = rng.integers(0, 256, 2001).astype(np.uint8)
    grid = rng.integers(0, 256, (37, 48)).astype(np.uint8)
    for raw, width, height in ((base[::2], 1001, 1), (grid.T, 37, 48)):
        img = GrayImage(width, height, raw, depth=256)
        assert img.levels.flags.c_contiguous
        levels = raw.reshape(-1).astype(np.int64)
        assert np.array_equal(img.levels, levels)
        check_lookup(img)
        check_pipeline(img, levels)
    # a contiguous raster of the right dtype is kept, not copied
    assert np.shares_memory(GrayImage(2001, 1, base, depth=256).levels, base)


def test_lookup_rejects_a_table_of_the_wrong_length():
    img = random_image(3, 4, 4, depth=17)
    with pytest.raises(ValueError, match="expected \\(17,\\)"):
        img.lookup(np.zeros(16, dtype=np.uint8))


def test_lookup_of_an_object_table_raises_type_error():
    # object references cannot be viewed as raw bytes, so no pair table
    img = random_image(4, 5, 3)
    table = np.array([f"level {v}" for v in range(256)], dtype=object)
    with pytest.raises(TypeError):
        img.lookup(table)
