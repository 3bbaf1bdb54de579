"""Region labeling and rendering."""

import tracemalloc

import numpy as np
import pytest

from conftest import image_from_unit, piped, random_image, unit_levels
from neutroseg import (
    DimensionMismatch,
    EmptyImage,
    GrayImage,
    Segmentation,
    ThresholdOutOfRange,
    UnsortedThresholds,
    render,
    save_pgm,
    segment,
    write_pgm,
)
import neutroseg.cli as cli

TOL = 1e-12


class TestSegment:
    def test_worked_example(self):
        img = image_from_unit([0.1, 0.2, 0.9], depth=11)
        seg = segment(img, [0.3])
        assert list(img.lookup(seg.level_labels)) == [0, 0, 1]
        assert seg.region_values == pytest.approx([0.15, 0.9], abs=TOL)
        assert list(seg.region_counts) == [2, 1]

    def test_two_delta(self):
        img = image_from_unit([0.2, 0.2, 0.8, 0.8])
        seg = segment(img, [0.5])
        assert seg.region_values == pytest.approx([0.2, 0.8], abs=TOL)
        assert list(seg.region_counts) == [2, 2]

    def test_no_thresholds_yields_global_mean(self):
        img = image_from_unit([0.1, 0.2, 0.9], depth=11)
        seg = segment(img, [])
        assert list(img.lookup(seg.level_labels)) == [0, 0, 0]
        assert seg.region_values == pytest.approx([0.4], abs=TOL)
        assert list(seg.region_counts) == [3]

    def test_pixel_at_threshold_goes_to_lower_region(self):
        img = image_from_unit([0.3, 0.31], depth=101)
        seg = segment(img, [0.3])
        assert list(img.lookup(seg.level_labels)) == [0, 1]

    def test_empty_region_gets_interval_midpoint(self):
        img = image_from_unit([0.1, 0.2, 0.9], depth=11)
        seg = segment(img, [0.3, 0.6])
        assert list(seg.region_counts) == [2, 0, 1]
        assert seg.region_values[1] == pytest.approx(0.45, abs=TOL)

    def test_labels_consistent_with_intervals(self):
        img = random_image(6, 40, 40)
        ts = np.array([0.25, 0.5, 0.75])
        seg = segment(img, ts)
        g = unit_levels(img)
        rederived = np.searchsorted(ts, g, side="left")
        assert np.array_equal(img.lookup(seg.level_labels), rederived)
        assert np.all(np.diff(seg.region_values) >= 0.0)
        assert seg.region_counts.sum() == img.pixel_count

    def test_validation_errors(self):
        img = image_from_unit([0.1, 0.9])
        with pytest.raises(UnsortedThresholds):
            segment(img, [0.5, 0.3])
        with pytest.raises(UnsortedThresholds):
            segment(img, [0.5, 0.5])
        with pytest.raises(ThresholdOutOfRange):
            segment(img, [0.0])
        with pytest.raises(ThresholdOutOfRange):
            segment(img, [1.0])

    @pytest.mark.parametrize("thresholds", [[np.nan], [0.3, np.nan]])
    def test_nan_threshold_rejected(self, thresholds):
        img = image_from_unit([0.1, 0.9])
        with pytest.raises(ThresholdOutOfRange):
            segment(img, thresholds)

    def test_empty_image_rejected(self):
        img = GrayImage(width=0, height=3, levels=np.array([], dtype=np.int64))
        with pytest.raises(EmptyImage):
            segment(img, [0.5])


class TestRender:
    def test_worked_example_levels(self):
        img = GrayImage(width=3, height=1, levels=np.array([26, 51, 230]), depth=256)
        seg = Segmentation(
            thresholds=np.array([0.3]),
            level_labels=(np.arange(256) > 0.3 * 255).astype(np.uint8),
            region_values=np.array([0.15, 0.9]),
            region_counts=np.array([2, 1]),
            region_levels=np.array([38, 230]),
        )
        out = render(seg, img)
        # render paints region_levels; segment decides them
        assert list(out.levels) == [38, 38, 230]
        assert out.levels.dtype == np.uint8
        assert (out.width, out.height, out.depth) == (img.width, img.height, 256)

    def test_worked_example_rounds_exact_mean_half_up(self):
        img = GrayImage(width=3, height=1, levels=np.array([26, 51, 230]), depth=256)
        out = render(segment(img, [0.3]), img)
        # (26 + 51) / 2 = 38.5 rounds up to 39
        assert list(out.levels) == [39, 39, 230]

    def test_half_level_mean_at_depth_256(self):
        # the exact mean 253.5 must paint 254; summing float unit grays
        # gives 253.49999999999997 and paints 253
        img = GrayImage(width=34, height=1, levels=np.repeat([252, 255], 17))
        out = render(segment(img, [0.5]), img)
        assert set(np.unique(out.levels)) == {254}

    def test_half_level_mean_at_depth_101(self):
        # mean 56.5 levels; an exactly rounded float mean times 100 is
        # 56.49999999999999 and would paint 56
        img = GrayImage(width=2, height=1, levels=np.array([56, 57]), depth=101)
        out = render(segment(img, []), img)
        assert list(out.levels) == [57, 57]

    def test_half_away_from_zero_rounding(self):
        img = image_from_unit([0.4, 0.6])
        seg = segment(img, [])
        out = render(seg, img)
        # global mean 0.5 -> 127.5 rounds up to 128
        assert set(np.unique(out.levels)) == {128}

    def test_distinct_level_bound(self):
        img = random_image(12, 30, 30)
        seg = segment(img, [0.2, 0.4, 0.6, 0.8])
        out = render(seg, img)
        assert np.unique(out.levels).size <= 5

    def test_segment_render_idempotence(self):
        img = random_image(13, 25, 25)
        ts = [0.3, 0.7]
        seg = segment(img, ts)
        seg2 = segment(render(seg, img), ts)
        quantum = 1.0 / (img.depth - 1)
        assert np.abs(seg2.region_values - seg.region_values).max() <= quantum

    def test_paints_the_pixels_of_the_image_it_is_given(self):
        a = GrayImage(width=4, height=1, levels=np.array([10, 20, 200, 210]))
        b = GrayImage(width=2, height=2, levels=np.array([200, 210, 10, 20]))
        out = render(segment(a, [0.5]), b)
        # b's own pixels through a's region levels, not a's repaint
        assert list(out.levels) == [205, 205, 15, 15]
        assert (out.width, out.height, out.depth) == (2, 2, 256)

    def test_dimension_mismatch(self):
        img = image_from_unit([0.1, 0.9])
        other = random_image(1, 4, 4)
        seg = segment(img, [0.5])
        with pytest.raises(DimensionMismatch):
            render(seg, other)

    def test_depth_mismatch(self):
        img = random_image(2, 4, 4, depth=256)
        other = random_image(2, 4, 4, depth=17)
        with pytest.raises(DimensionMismatch):
            render(segment(img, [0.5]), other)

    def test_segment_and_render_memory_is_one_raster(self):
        img = random_image(4, 2048, 2048)
        assert img.levels.dtype == np.uint8
        tracemalloc.start()
        try:
            out = render(segment(img, [0.3, 0.7]), img)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.pixel_count == img.pixel_count
        # a per-pixel label array beside the repaint reads about 2x
        assert peak < 1.25 * img.levels.nbytes

    @pytest.mark.parametrize(
        "command, out_name, source",
        [
            ("segment", "out", "p5"),
            ("threshold", "out", "p5"),
            ("curve", "out", "p5"),
            ("segment", "in.pgm", "p5"),
            ("segment", "out", "p2"),
            ("segment", "out", "pipe"),
        ],
        ids=[
            "segment",
            "threshold",
            "curve",
            "segment-over-its-input",
            "segment-p2-file",
            "segment-piped-p5",
        ],
    )
    def test_cli_memory_does_not_grow_with_the_image(
        self, command, out_name, source, tmp_path, capsys
    ):
        src, out = tmp_path / "in.pgm", tmp_path / out_name
        # a 2048^2 P2 file (16 MiB of text) holds 4 MiB of levels
        side = 2048 if source == "p2" else 4096
        levels = np.random.default_rng(4).integers(0, 256, side * side, np.uint8)
        img = GrayImage(width=side, height=side, levels=levels)
        header = b"P5\n%d %d\n255\n" % (side, side)
        if source == "p2":
            # three digits and a blank per sample
            digits = [levels // 100 + 48, levels // 10 % 10 + 48, levels % 10 + 48]
            text = np.column_stack([*digits, np.full_like(levels, ord(" "))])
            src.write_bytes(b"P2\n%d %d\n255\n" % (side, side) + text.tobytes())
            del digits, text
        data = write_pgm(img) if source == "pipe" else None
        if source == "p5":
            save_pgm(src, img)
        del levels, img
        tracemalloc.start()
        try:
            if source == "pipe":
                with piped(src, data) as path:
                    rc = cli.main([command, path, "--out", str(out)])
            else:
                rc = cli.main([command, str(src), "--out", str(out)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        capsys.readouterr()
        assert rc == 0
        if command == "segment":
            assert out.stat().st_size == side * side + len(header)
        # a read buffer and a repaint buffer of one chunk each: 1.9 MiB for
        # segment and 1.8 for threshold and curve (2.9 and 2.7 with 1 MiB
        # buffers); the file's 16 MiB read whole, as before the P5 input
        # was streamed and later when an output named the input, reads
        # 17.9 MiB. A 2048^2 P2 file and a piped P5 are spilled to a
        # temporary P5 file first, and peak at 1.5 MiB each; with the P2
        # levels held whole and the pipe read whole, at 5.5 and 17.5 MiB
        assert peak < 2.5 * 2**20

    def test_cli_reads_a_p2_file_once(self, tmp_path, capsys):
        src = tmp_path / "in.pgm"
        rows = np.random.default_rng(5).integers(0, 256, (1024 * 1024 // 16, 16))
        lines = "".join(" ".join(map(str, row)) + "\n" for row in rows.tolist())
        src.write_bytes(b"P2\n1024 1024\n255\n" + lines.encode())
        tracemalloc.start()
        try:
            rc = cli.main(["threshold", str(src), "--out", str(tmp_path / "out")])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        capsys.readouterr()
        assert rc == 0
        # the decoder's pieces of _P2_CHUNK bytes, which are written to a
        # temporary P5 file as they are decoded, the levels never held
        # whole. Read whole, as before, the file (3.6 MiB) put the peak
        # 4.6 MiB above the levels (1 MiB)
        assert peak < 2 * 2**20
