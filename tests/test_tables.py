"""Per-level tables against the per-pixel formulas they replace."""

from dataclasses import fields
from itertools import cycle
from types import SimpleNamespace

import numpy as np
import pytest

import neutroseg.cli as cli
import neutroseg.image as image_mod
import neutroseg.imgio as imgio
from conftest import random_image, unit_levels
from neutroseg import (
    EmptyImage,
    GrayImage,
    build_histogram,
    read_pgm,
    render,
    save_pgm,
    segment,
    write_pgm,
)
from neutroseg.segment import _level_paint

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


def every_level_image(rng: np.random.Generator, depth: int) -> GrayImage:
    """Every level 0 .. depth-1, each 1 to 4 times."""
    levels = np.repeat(np.arange(depth), rng.integers(1, 5, depth))
    return GrayImage(width=levels.size, height=1, levels=levels, depth=depth)


def check_integer_rules(img: GrayImage, q: int, rng: np.random.Generator) -> None:
    """The code's bin, label, threshold-line and paint rules at one (depth, q).

    Each is checked against its integer reference. Every level of ``img``
    is occupied, so a histogram that matches pins the bin of each level.
    """
    depth, top = img.depth, img.depth - 1
    level = np.arange(depth, dtype=np.int64)
    weight = img.level_counts

    bins = (2 * level * q + depth - 1) // (2 * (depth - 1))
    want = np.zeros(q + 1, dtype=np.int64)
    np.add.at(want, bins, weight)
    assert np.array_equal(build_histogram(img, q=q).counts, want)

    every = np.arange(1, q, dtype=np.int64)
    some = np.sort(rng.choice(every, size=min(8, q - 1), replace=False))
    for ks in (every, some):
        seg = segment(img, ks / q)
        # the number of thresholds k/q below each level: k*(d-1) < L*q
        labels = np.searchsorted(ks * top, level * q, side="left")
        assert np.array_equal(seg.level_labels, labels)
        c = np.zeros(ks.size + 1, dtype=np.int64)
        s = np.zeros(ks.size + 1, dtype=np.int64)
        np.add.at(c, labels, weight)
        np.add.at(s, labels, weight * level)
        full = c > 0
        assert np.array_equal(seg.region_counts, c)
        paint = (2 * s[full] + c[full]) // (2 * c[full])
        assert np.array_equal(seg.region_levels[full], paint)

    # every k whose level k*(d-1)/q is an exact half, its neighbours and a
    # few more
    halves = every[2 * every * top % (2 * q) == q]
    ks = np.concatenate([halves - 1, halves, halves + 1, some[:4]])
    for k in np.unique(ks[(ks >= 1) & (ks < q)]).tolist():
        line = f"{k / q:.6f} {(2 * k * top + q) // (2 * q)}"
        assert cli._threshold_line(k / q, q, depth) == line


@pytest.mark.parametrize("depth", [101, 256])
def test_integer_rules_at_every_q(depth):
    rng = np.random.default_rng(depth)
    img = every_level_image(rng, depth)
    for q in range(2, 4097):
        check_integer_rules(img, q, rng)


def test_integer_rules_at_every_depth():
    rng = np.random.default_rng(27)
    for depth in range(2, 257):
        img = every_level_image(rng, depth)
        for q in rng.choice(np.arange(2, 4097), size=16, replace=False).tolist():
            check_integer_rules(img, q, rng)


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


def test_level_counts_are_read_only(tmp_path):
    # the CLI counts a P5 file's levels without holding its raster
    img = random_image(22, 31, 17, depth=101)
    save_pgm(tmp_path / "in.pgm", img)
    with imgio._p5_file(tmp_path / "in.pgm") as fh:
        counted = imgio._P5File(fh)
        assert isinstance(counted, imgio._P5File)
        for counts in (img.level_counts, counted.level_counts):
            with pytest.raises(ValueError, match="read-only"):
                counts[0] += 1
        assert np.array_equal(counted.level_counts, img.level_counts)


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
def test_gathers_match_per_pixel_formulas_across_chunk_edges(depth, n, tmp_path):
    img = random_image(n, n, 1, depth=depth)
    assert img.levels.dtype == np.uint8
    check_lookup(img)
    # the CLI's repaint, streamed from a P5 file: every part is repainted in
    # the one read buffer, so it is copied before the next is read
    table = level_table(depth, np.uint8)
    save_pgm(tmp_path / "in.pgm", img)
    with imgio._p5_file(tmp_path / "in.pgm") as fh:
        streamed = imgio._P5File(fh)
        parts = [part.tobytes() for part in streamed._lookup_slices(table)]
    assert all(len(part) <= CHUNK for part in parts)
    assert b"".join(parts) == table[img.levels].tobytes()
    # read_pgm's P5 raster: a view of the file's bytes at an odd offset
    raster = np.frombuffer(b"P" + img.levels.tobytes(), dtype=np.uint8, offset=1)
    assert raster.ctypes.data % 2 == 1
    check_lookup(GrayImage(n, 1, raster, depth=depth))

    if n == 0:
        with pytest.raises(EmptyImage):
            segment(img, [0.3, 0.7])
        return
    check_pipeline(img, img.levels.astype(np.int64))


@pytest.mark.parametrize("n", [0, 1, 2, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 7])
@pytest.mark.parametrize("depth", [2, 101, 256])
def test_pair_counts_match_bincount(depth, n):
    # two levels per increment: every odd total and odd chunk end counts once
    img = random_image(n + depth, n, 1, depth=depth)
    want = np.bincount(img.levels, minlength=depth)
    assert np.array_equal(img.level_counts, want)
    flat = GrayImage(n, 1, np.full(n, depth - 1), depth=depth)
    assert np.array_equal(flat.level_counts, np.bincount(flat.levels, minlength=depth))


def test_pair_counts_of_a_raster_at_either_byte_offset():
    img = random_image(7, 7, 5, depth=101)
    want = np.bincount(img.levels, minlength=101)
    parities = set()
    # the two headers differ by one byte, so one raster starts at an odd address
    for head in (b"P5 7 5 100\n", b"P5  7 5 100\n"):
        back = read_pgm(head + img.levels.tobytes())
        parities.add(back.levels.ctypes.data % 2)
        assert np.array_equal(back.level_counts, want)
    assert parities == {0, 1}


class ShortReads:
    """A file whose ``readinto`` returns at most an odd 1, 3, 5 or 7 bytes."""

    def __init__(self, fh):
        self._fh = fh
        self._sizes = cycle([7, 1, 5, 3])

    def readinto(self, buf):
        return self._fh.readinto(memoryview(buf)[: next(self._sizes)])

    def __getattr__(self, name):
        return getattr(self._fh, name)


@pytest.mark.parametrize("n", [1, 2, 1001])
def test_streamed_p5_counts_odd_short_reads(n, tmp_path):
    for depth in (2, 101, 256):
        img = random_image(n, n, 1, depth=depth)
        seg = segment(img, [0.3, 0.7])
        save_pgm(tmp_path / "in.pgm", img)
        with open(tmp_path / "in.pgm", "rb", buffering=0) as fh:
            counted = imgio._P5File(ShortReads(fh))
            # chunks of odd length throughout: each pairs its own levels
            slices = counted._lookup_slices(_level_paint(seg))
            parts = [part.tobytes() for part in slices]
        want = read_pgm((tmp_path / "in.pgm").read_bytes()).level_counts
        assert np.array_equal(counted.level_counts, want)
        assert b"".join(parts) == render(seg, img).levels.tobytes()


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
