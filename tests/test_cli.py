"""End-to-end command-line behavior, run in process."""

import argparse
import errno
import os
import subprocess
import sys
import tempfile
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from conftest import image_from_unit, mixture_image, piped, random_image
import neutroseg
from neutroseg import (
    AxiomCheck,
    GrayImage,
    PgmError,
    build_histogram,
    entropy_curve,
    find_thresholds,
    load_pgm,
    parse_curve,
    render,
    read_pgm,
    save_pgm,
    segment,
    write_curve,
    write_pgm,
)
import neutroseg.cli as cli
import neutroseg.image as image_mod
import neutroseg.plain as plain


@pytest.fixture
def two_delta_pgm(tmp_path):
    path = tmp_path / "twodelta.pgm"
    save_pgm(path, image_from_unit([0.2, 0.2, 0.8, 0.8]))
    return str(path)


@pytest.fixture
def bimodal_pgm(tmp_path):
    path = tmp_path / "bimodal.pgm"
    save_pgm(path, mixture_image(0, [0.25, 0.75], [0.05, 0.05], [0.5, 0.5]))
    return str(path)


@pytest.fixture
def constant_pgm(tmp_path):
    path = tmp_path / "flat.pgm"
    save_pgm(path, image_from_unit([0.5] * 9, width=3))
    return str(path)


class TestCurveCommand:
    def test_writes_to_stdout(self, two_delta_pgm, capsysbinary):
        assert cli.main(["curve", two_delta_pgm]) == 0
        captured = capsysbinary.readouterr()
        assert captured.out.startswith(b"t,e_T,e_I,e_F,E\n")
        assert b"candidates: 152" in captured.err

    def test_writes_to_file(self, two_delta_pgm, tmp_path):
        out = tmp_path / "curve.txt"
        assert cli.main(["curve", two_delta_pgm, "--out", str(out)]) == 0
        cols = parse_curve(out.read_bytes())
        assert cols.t.size == 152
        assert np.abs(cols.total).max() == 0.0

    def test_q_flag_changes_grid(self, two_delta_pgm, tmp_path):
        out = tmp_path / "curve.txt"
        assert cli.main(["curve", two_delta_pgm, "--q", "50", "--out", str(out)]) == 0
        assert parse_curve(out.read_bytes()).t.size == 29

    def test_deterministic_output(self, bimodal_pgm, capsysbinary):
        assert cli.main(["curve", bimodal_pgm]) == 0
        first = capsysbinary.readouterr().out
        assert cli.main(["curve", bimodal_pgm]) == 0
        assert capsysbinary.readouterr().out == first

    def test_curve_text_is_streamed_at_the_largest_grid(self, tmp_path):
        path = tmp_path / "random.pgm"
        save_pgm(path, random_image(8, 256, 256))
        runs = {
            "threshold": ["threshold", "--out", "t.txt"],
            "curve": ["curve", "--out", "curve.txt"],
            "curve-out": ["threshold", "--out", "t.txt", "--curve-out", "side.txt"],
        }
        peaks = {}
        for name, (command, *options) in runs.items():
            argv = [command, str(path), "--q", "65536"]
            argv += [str(tmp_path / arg) if ".txt" in arg else arg for arg in options]
            tracemalloc.start()
            try:
                assert cli.main(argv) == 0
                peaks[name] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        text = (tmp_path / "curve.txt").read_bytes()
        assert text == (tmp_path / "side.txt").read_bytes()
        # writing the whole text at once added 18 MiB to the sweep's peak
        assert peaks["curve"] < peaks["threshold"] + 2**20
        assert peaks["curve-out"] < peaks["threshold"] + 2**20


class TestThresholdCommand:
    def test_bimodal_single_threshold(self, bimodal_pgm, capsysbinary):
        rc = cli.main(["threshold", bimodal_pgm, "--max-thresholds", "1"])
        captured = capsysbinary.readouterr()
        assert rc == 0
        lines = captured.out.decode().splitlines()
        assert len(lines) == 1
        value, level = lines[0].split()
        t = float(value)
        assert 0.25 < t < 0.75
        assert int(level) == _nearest_level(t, 255, 256)
        assert b"warning" not in captured.err

    def test_level_rounds_an_exact_half_up(self, tmp_path, capsysbinary):
        # t = 57/200 and 0.285 * 100 = 28.5 exactly, which rounds up to 29;
        # floor(t * 100 + 0.5) in floats gives 28
        path = tmp_path / "half.pgm"
        levels = [20] * 5 + [28] * 2 + [29] * 2 + [37] * 5
        save_pgm(path, GrayImage(width=14, height=1, levels=levels, depth=101))
        argv = [str(path), "--q", "200", "--max-thresholds", "1"]
        assert cli.main(["threshold", *argv]) == 0
        assert capsysbinary.readouterr().out == b"0.285000 29\n"
        assert cli.main(["segment", *argv, "--out", str(tmp_path / "o")]) == 0
        assert capsysbinary.readouterr().err.startswith(b"threshold 0.285000 29\n")

    def test_fallback_warning_on_flat_curve(self, two_delta_pgm, capsysbinary):
        rc = cli.main(["threshold", two_delta_pgm])
        captured = capsysbinary.readouterr()
        assert rc == 0
        lines = captured.out.decode().splitlines()
        assert len(lines) == 1
        assert 0.2 < float(lines[0].split()[0]) < 0.8
        assert b"warning" in captured.err

    def test_curve_out_side_channel(self, bimodal_pgm, tmp_path, capsysbinary):
        curve_path = tmp_path / "curve.txt"
        rc = cli.main(["threshold", bimodal_pgm, "--curve-out", str(curve_path)])
        capsysbinary.readouterr()
        assert rc == 0
        assert parse_curve(curve_path.read_bytes()).t.size > 0


class TestSegmentCommand:
    def test_writes_segmented_image(self, bimodal_pgm, tmp_path, capsysbinary):
        out = tmp_path / "seg.pgm"
        rc = cli.main(
            ["segment", bimodal_pgm, "--max-thresholds", "1", "--out", str(out)]
        )
        err = capsysbinary.readouterr().err.decode()
        assert rc == 0
        original = load_pgm(bimodal_pgm)
        segmented = load_pgm(out)
        assert (segmented.width, segmented.height) == (original.width, original.height)
        assert np.unique(segmented.levels).size == 2
        region_lines = [ln for ln in err.splitlines() if ln.startswith("region ")]
        assert sum(int(ln.split()[2]) for ln in region_lines) == original.pixel_count

    def test_threshold_report_matches_threshold_command(
        self, bimodal_pgm, tmp_path, capsysbinary
    ):
        rc = cli.main(["threshold", bimodal_pgm, "--max-thresholds", "2"])
        printed = capsysbinary.readouterr().out.decode().splitlines()
        assert rc == 0
        out = tmp_path / "seg.pgm"
        rc = cli.main(
            ["segment", bimodal_pgm, "--max-thresholds", "2", "--out", str(out)]
        )
        err = capsysbinary.readouterr().err.decode()
        assert rc == 0
        reported = [
            ln.split(" ", 1)[1]
            for ln in err.splitlines()
            if ln.startswith("threshold ")
        ]
        assert reported == printed

    def test_pgm_to_stdout(self, two_delta_pgm, capsysbinary):
        assert cli.main(["segment", two_delta_pgm]) == 0
        assert capsysbinary.readouterr().out.startswith(b"P5\n")

    def test_output_may_overwrite_the_input(self, bimodal_pgm, tmp_path):
        other = tmp_path / "other.pgm"
        assert cli.main(["segment", bimodal_pgm, "--out", str(other)]) == 0
        assert cli.main(["segment", bimodal_pgm, "--out", bimodal_pgm]) == 0
        assert Path(bimodal_pgm).read_bytes() == other.read_bytes()

    @pytest.mark.parametrize("link", [os.symlink, os.link])
    def test_output_may_name_the_input_by_a_link(self, link, bimodal_pgm, tmp_path):
        want = _expected_segment_output(load_pgm(bimodal_pgm))
        other = tmp_path / "other.pgm"
        link(bimodal_pgm, other)
        assert cli.main(["segment", bimodal_pgm, "--out", str(other)]) == 0
        assert Path(bimodal_pgm).read_bytes() == want

    @pytest.mark.parametrize("option", ["--out", "--curve-out"])
    def test_output_may_overwrite_a_p2_input(self, option, tmp_path, capsysbinary):
        # the raster is decoded whole before any output is opened
        img = mixture_image(0, [0.25, 0.75], [0.05, 0.05], [0.5, 0.5])
        path = tmp_path / "in.pgm"
        path.write_bytes(_p2_bytes(img))
        assert cli.main(["segment", str(path), option, str(path)]) == 0
        out = capsysbinary.readouterr().out
        curve = write_curve(entropy_curve(build_histogram(img, q=255)))
        if option == "--out":
            assert (out, path.read_bytes()) == (b"", _expected_segment_output(img))
        else:
            assert (out, path.read_bytes()) == (_expected_segment_output(img), curve)

    def test_curve_output_may_overwrite_the_input(self, bimodal_pgm, capsysbinary):
        img = load_pgm(bimodal_pgm)
        rc = cli.main(["segment", bimodal_pgm, "--curve-out", bimodal_pgm])
        assert rc == 0
        assert capsysbinary.readouterr().out == _expected_segment_output(img)
        want = write_curve(entropy_curve(build_histogram(img, q=255)))
        assert Path(bimodal_pgm).read_bytes() == want

    def test_a_fifo_out_gets_the_repaint_as_it_is_written(
        self, bimodal_pgm, tmp_path, monkeypatch, capsysbinary
    ):
        # a target that is not a regular file is written directly, never
        # staged in a file beside it
        monkeypatch.setattr(cli.tempfile, "TemporaryFile", None)
        fifo = tmp_path / "out"
        os.mkfifo(fifo)
        read = []
        reader = threading.Thread(
            target=lambda: read.append(fifo.read_bytes()), daemon=True
        )
        reader.start()
        try:
            assert cli.main(["segment", bimodal_pgm, "--out", str(fifo)]) == 0
        finally:
            reader.join(timeout=60)
        assert not reader.is_alive()
        assert read == [_expected_segment_output(load_pgm(bimodal_pgm))]

    def test_out_wins_when_both_outputs_name_one_file(
        self, bimodal_pgm, tmp_path, capsysbinary
    ):
        both = str(tmp_path / "both")
        argv = ["segment", bimodal_pgm, "--out", both, "--curve-out", both]
        assert cli.main(argv) == 0
        want = _expected_segment_output(load_pgm(bimodal_pgm))
        assert Path(both).read_bytes() == want

    def test_out_in_a_missing_directory_fails_before_the_input_is_read(
        self, bimodal_pgm, tmp_path, capsysbinary
    ):
        out = tmp_path / "missing" / "out.pgm"
        assert cli.main(["segment", bimodal_pgm, "--out", str(out)]) == 2
        err = capsysbinary.readouterr().err
        # one line, naming the target, with no threshold or region line
        # before it
        assert err.startswith(b"error: ") and err.count(b"\n") == 1
        assert repr(str(out)).encode() in err
        assert sorted(tmp_path.iterdir()) == [Path(bimodal_pgm)]

    def test_curve_out_in_a_missing_directory_fails_before_the_image(
        self, bimodal_pgm, tmp_path, capsysbinary
    ):
        curve = tmp_path / "missing" / "c"
        assert cli.main(["segment", bimodal_pgm, "--curve-out", str(curve)]) == 2
        captured = capsysbinary.readouterr()
        assert captured.out == b""
        assert captured.err.startswith(b"error: ") and captured.err.count(b"\n") == 1

    @pytest.mark.parametrize(
        "command, option",
        [("curve", "--out"), ("threshold", "--out"), ("threshold", "--curve-out")],
    )
    def test_output_in_a_missing_directory_fails_before_the_sweep(
        self, command, option, bimodal_pgm, tmp_path, monkeypatch, capsysbinary
    ):
        calls = []
        monkeypatch.setattr(cli, "entropy_curve", lambda *a: calls.append(a))
        target = str(tmp_path / "missing" / "o")
        assert cli.main([command, bimodal_pgm, option, target]) == 2
        assert calls == []
        captured = capsysbinary.readouterr()
        assert captured.out == b"" and captured.err.count(b"\n") == 1

    OUTPUT_OPTIONS = [
        ("curve", "--out"),
        ("threshold", "--out"),
        ("threshold", "--curve-out"),
        ("segment", "--out"),
        ("segment", "--curve-out"),
    ]

    @pytest.mark.parametrize("command, option", OUTPUT_OPTIONS)
    def test_output_with_no_file_name_fails_before_the_sweep(
        self, command, option, bimodal_pgm, monkeypatch, capsysbinary
    ):
        calls = []
        monkeypatch.setattr(cli, "entropy_curve", lambda *a: calls.append(a))
        assert cli.main([command, bimodal_pgm, option, ""]) == 2
        assert calls == []
        captured = capsysbinary.readouterr()
        assert captured.out == b""
        assert captured.err.startswith(b"error: ") and captured.err.count(b"\n") == 1

    @pytest.mark.parametrize("command, option", OUTPUT_OPTIONS)
    def test_unwritable_output_fails_before_the_sweep(
        self, command, option, bimodal_pgm, tmp_path, monkeypatch, capsysbinary
    ):
        target = tmp_path / "locked"
        target.write_bytes(b"old bytes")
        before = target.stat()
        real_open, real_os_open = open, os.open

        # as for an immutable file; root ignores mode bits, so both ways to
        # open the path are refused, whatever the mode asked
        def refuse(opener):
            def patched(file, *args, **kwargs):
                if file == str(target):
                    raise PermissionError(errno.EPERM, "Operation not permitted", file)
                return opener(file, *args, **kwargs)

            return patched

        calls = []
        monkeypatch.setattr(cli, "entropy_curve", lambda *a: calls.append(a))
        monkeypatch.setattr("builtins.open", refuse(real_open))
        monkeypatch.setattr(os, "open", refuse(real_os_open))
        assert cli.main([command, bimodal_pgm, option, str(target)]) == 2
        monkeypatch.undo()
        assert calls == []
        captured = capsysbinary.readouterr()
        assert captured.out == b""
        want = f"error: [Errno 1] Operation not permitted: {str(target)!r}\n"
        assert captured.err == want.encode()
        after = target.stat()
        assert target.read_bytes() == b"old bytes"
        assert (after.st_ino, after.st_mode, after.st_nlink) == (
            before.st_ino,
            before.st_mode,
            before.st_nlink,
        )
        assert sorted(tmp_path.iterdir()) == sorted([Path(bimodal_pgm), target])

    @pytest.mark.parametrize(
        "module, name", [(cli, "segment"), (image_mod, "_pair_table")]
    )
    def test_failure_before_output_leaves_out_untouched(
        self, module, name, bimodal_pgm, tmp_path, monkeypatch, capsysbinary
    ):
        def exhausted(*args):
            raise MemoryError

        out = tmp_path / "old.pgm"
        out.write_bytes(b"old bytes")
        monkeypatch.setattr(module, name, exhausted)
        assert cli.main(["segment", bimodal_pgm, "--out", str(out)]) == 2
        assert capsysbinary.readouterr().err.endswith(b"error: out of memory\n")
        assert out.read_bytes() == b"old bytes"


def _expected_segment_output(img: GrayImage) -> bytes:
    """``write_pgm(render(...))`` at the CLI's default --q and cap."""
    curve = entropy_curve(build_histogram(img, q=255))
    ts = find_thresholds(curve, max_thresholds=8).thresholds
    return write_pgm(render(segment(img, ts), img))


def _expected_threshold_output(img: GrayImage) -> bytes:
    """The threshold lines for ``img`` at the CLI's default --q and cap."""
    curve = entropy_curve(build_histogram(img, q=255))
    ts = find_thresholds(curve, max_thresholds=8).thresholds
    lines = [f"{t:.6f} {_nearest_level(t, 255, img.depth)}\n" for t in ts]
    return "".join(lines).encode()


def _nearest_level(t: float, q: int, depth: int) -> int:
    """The gray level nearest ``t*(depth-1)`` for ``t`` near ``k/q``, halves up."""
    k = round(t * q)
    return (2 * k * (depth - 1) + q) // (2 * q)


def _varied_image(n: int, depth: int) -> GrayImage:
    """``n`` random levels, the first and last the ends of the range."""
    levels = np.random.default_rng([n, depth]).integers(0, depth, n)
    levels[0], levels[-1] = 0, depth - 1
    return GrayImage(width=n, height=1, levels=levels, depth=depth)


def _p2_bytes(img: GrayImage) -> bytes:
    head = b"P2 %d %d %d\n" % (img.width, img.height, img.depth - 1)
    return head + " ".join(map(str, img.levels.tolist())).encode()


class TestStreamedRepaint:
    """A P5 input is read in chunks, twice for segment, and repainted in chunks.

    Each pass reads the raster through one reused buffer of ``_CHUNK``
    bytes, and the repaint writes each chunk's new levels over it there.
    """

    def check(self, img, tmp_path, capsysbinary):
        path, p2, out = (tmp_path / name for name in ("in.pgm", "in2.pgm", "out"))
        save_pgm(path, img)
        p2.write_bytes(_p2_bytes(img))
        want = _expected_segment_output(img)
        assert cli.main(["segment", str(path), "--out", str(out)]) == 0
        assert out.read_bytes() == want
        capsysbinary.readouterr()
        expected = {
            "segment": want,
            "threshold": _expected_threshold_output(img),
            "curve": write_curve(entropy_curve(build_histogram(img, q=255))),
        }
        for command, stdout in expected.items():
            assert cli.main([command, str(path)]) == 0
            streamed = capsysbinary.readouterr()
            assert streamed.out == stdout
            # a P2 input is decoded in chunks; its stderr must match too
            assert cli.main([command, str(p2)]) == 0
            assert capsysbinary.readouterr() == streamed

    @pytest.mark.parametrize("depth", [2, 17, 101, 256])
    @pytest.mark.parametrize("n", [2, 7, 8, 9, 16, 19])
    def test_matches_the_whole_repaint_across_slice_edges(
        self, n, depth, tmp_path, monkeypatch, capsysbinary
    ):
        # the slices _lookup_slices yields are chunks, here of 8 pixels: n is
        # 2, chunk - 1, chunk, chunk + 1, 2 * chunk and 2 * chunk + 3 (a
        # single pixel is a constant image, which the CLI rejects before
        # writing); every header is longer than a chunk
        monkeypatch.setattr(image_mod, "_CHUNK", 8)
        self.check(_varied_image(n, depth), tmp_path, capsysbinary)

    def test_matches_the_whole_repaint_beyond_one_real_chunk(
        self, tmp_path, capsysbinary
    ):
        n = 2 * image_mod._CHUNK + 3
        self.check(_varied_image(n, 256), tmp_path, capsysbinary)

    def test_a_pipe_is_spilled_to_a_temporary_file(self, tmp_path, capsysbinary):
        # a pipe has no size to check the raster against and cannot be
        # read twice, so it is copied to a temporary P5 file, and a P2 pipe
        # decoded into one
        img = _varied_image(19, 256)
        for name, encode in (("p5", write_pgm), ("p2", _p2_bytes)):
            fifo = tmp_path / name
            os.mkfifo(fifo)
            writer = threading.Thread(
                target=fifo.write_bytes, args=(encode(img),), daemon=True
            )
            writer.start()
            try:
                assert cli.main(["segment", str(fifo)]) == 0
            finally:
                writer.join(timeout=60)
            assert not writer.is_alive()
            assert capsysbinary.readouterr().out == _expected_segment_output(img)


def _pgm_error(data: bytes) -> bytes:
    """The CLI's stderr for a file ``read_pgm`` rejects."""
    with pytest.raises(PgmError) as info:
        read_pgm(data)
    return f"error: {info.value}\n".encode()


class TestMalformedP5:
    """The streamed reader fails as read_pgm does on the same bytes."""

    @pytest.mark.parametrize("command", ["curve", "threshold", "segment"])
    @pytest.mark.parametrize(
        "data",
        [
            pytest.param(b"P5x 2 1 255\n\x00\x01", id="bad-magic"),
            pytest.param(b"P5 2 1 #c\n", id="header-ends-early"),
            pytest.param(
                b"P5 # comment\n#\n2 1 255\n\x00", id="long-header-short-raster"
            ),
            # the first read of 8 bytes ends inside the maxval 2555
            pytest.param(b"P5 2 1 2555\n\x00\x01", id="maxval-cut-by-the-first-read"),
            pytest.param(b"P5 2 1 255#c\n\x01\x02", id="no-whitespace-before-raster"),
            pytest.param(b"P5 2 2 255\n\x00\x01\x02", id="raster-one-byte-short"),
            pytest.param(
                b"P5 19 1 100\n" + bytes(range(18)) + b"\xc8",
                id="sample-above-maxval-in-the-last-chunk",
            ),
            pytest.param(b"P5 1_0 1 255\n" + bytes(10), id="malformed-width"),
        ],
    )
    def test_same_error_as_read_pgm(
        self, data, command, tmp_path, monkeypatch, capsysbinary
    ):
        monkeypatch.setattr(image_mod, "_CHUNK", 8)
        path = tmp_path / "bad.pgm"
        path.write_bytes(data)
        assert cli.main([command, str(path)]) == 2
        assert capsysbinary.readouterr().err == _pgm_error(data)

    def test_header_longer_than_the_first_read(
        self, tmp_path, monkeypatch, capsysbinary
    ):
        monkeypatch.setattr(image_mod, "_CHUNK", 8)
        img = _varied_image(19, 256)
        path = tmp_path / "in.pgm"
        head = b"P5 # a comment longer than a chunk\n19 1\n255\n"
        path.write_bytes(head + img.levels.tobytes())
        assert cli.main(["segment", str(path)]) == 0
        assert capsysbinary.readouterr().out == _expected_segment_output(img)

    @pytest.fixture
    def between_passes(self, monkeypatch):
        """Run ``change(path)`` on the input between segment's two passes."""

        def install(path: Path, change) -> None:
            def changed_then_segmented(image, thresholds):
                change(path)
                return segment(image, thresholds)

            monkeypatch.setattr(cli, "segment", changed_then_segmented)

        return install

    def test_file_shrinking_between_passes_is_truncated_data(
        self, tmp_path, monkeypatch, capsysbinary, between_passes
    ):
        monkeypatch.setattr(image_mod, "_CHUNK", 8)
        path = tmp_path / "in.pgm"
        data = write_pgm(_varied_image(19, 256))
        path.write_bytes(data)
        between_passes(path, lambda p: p.write_bytes(data[:-9]))
        assert cli.main(["segment", str(path), "--out", str(tmp_path / "o")]) == 2
        err = capsysbinary.readouterr().err
        # after the thresholds and regions the first pass found
        assert err.endswith(b"\nerror: raster holds 10 bytes, expected 19\n")

    def test_failed_segment_keeps_its_old_outputs(
        self, tmp_path, monkeypatch, capsysbinary, between_passes
    ):
        monkeypatch.setattr(image_mod, "_CHUNK", 8)
        path, out, curve = (tmp_path / name for name in ("in.pgm", "o", "c"))
        data = write_pgm(_varied_image(19, 256))
        path.write_bytes(data)
        out.write_bytes(b"old bytes")
        curve.write_bytes(b"old bytes")
        between_passes(path, lambda p: p.write_bytes(data[:-9]))
        argv = ["segment", str(path), "--out", str(out), "--curve-out", str(curve)]
        assert cli.main(argv) == 2
        err = capsysbinary.readouterr().err
        assert err.endswith(b"\nerror: raster holds 10 bytes, expected 19\n")
        assert (out.read_bytes(), curve.read_bytes()) == (b"old bytes", b"old bytes")
        # the staged repaint left no file behind
        assert sorted(p.name for p in tmp_path.iterdir()) == ["c", "in.pgm", "o"]

    def test_raster_changing_between_passes_is_an_error(
        self, tmp_path, capsysbinary, between_passes
    ):
        path = tmp_path / "in.pgm"
        data = write_pgm(_varied_image(19, 17))
        path.write_bytes(data)
        between_passes(path, lambda p: p.write_bytes(data[:-1] + b"\xff"))
        assert cli.main(["segment", str(path)]) == 2
        err = capsysbinary.readouterr().err
        assert err.endswith(b"\nerror: raster changed while it was read\n")


class TestMalformedP2:
    """The streamed P2 reader fails as read_pgm does on the same bytes.

    Each file is read in chunks of 4 bytes, and its header in reads of 8,
    so comments and tokens span several reads.
    """

    @pytest.mark.parametrize("command", ["curve", "threshold", "segment"])
    @pytest.mark.parametrize(
        "data",
        [
            pytest.param(b"P2x 2 1 255\n1 2", id="bad-magic"),
            pytest.param(b"P2 2 1 #c\n", id="header-ends-early"),
            pytest.param(
                b"P2 3 1 255\n0 # 255 a comment across reads\n255",
                id="comment-across-reads-then-raster-short",
            ),
            pytest.param(b"P2 2 1 100\n0 00000101", id="token-split-across-reads"),
            pytest.param(
                b"P2 3 1 255\n0 1_0 255", id="malformed-before-the-last-sample"
            ),
            pytest.param(
                b"P2 5 1 100\n0 1 2 3 101", id="sample-above-maxval-in-the-last-read"
            ),
            pytest.param(b"P2 2 1 255\n0 " + b"9" * 30, id="30-digit-token"),
            pytest.param(b"P2 2 2 255\n0 1 2", id="raster-one-sample-short"),
        ],
    )
    def test_same_error_as_read_pgm(
        self, data, command, tmp_path, monkeypatch, capsysbinary
    ):
        monkeypatch.setattr(plain, "_P2_CHUNK", 4)
        monkeypatch.setattr(image_mod, "_CHUNK", 8)
        path = tmp_path / "bad.pgm"
        path.write_bytes(data)
        assert cli.main([command, str(path)]) == 2
        assert capsysbinary.readouterr().err == _pgm_error(data)

    @pytest.mark.parametrize("command", ["curve", "threshold", "segment"])
    @pytest.mark.parametrize(
        "data",
        [
            pytest.param(
                b"P2 3 1 100\n0 50 100 +5", id="malformed-after-the-last-sample"
            ),
            pytest.param(
                b"P2 # a comment longer than a read\n3 1\n255\n0 # 7\n128 255",
                id="header-longer-than-the-first-read",
            ),
        ],
    )
    def test_same_image_as_read_pgm(
        self, data, command, tmp_path, monkeypatch, capsysbinary
    ):
        monkeypatch.setattr(plain, "_P2_CHUNK", 4)
        monkeypatch.setattr(image_mod, "_CHUNK", 8)
        p2, p5 = tmp_path / "in.pgm", tmp_path / "in5.pgm"
        p2.write_bytes(data)
        p5.write_bytes(write_pgm(read_pgm(data)))
        assert cli.main([command, str(p5)]) == 0
        want = capsysbinary.readouterr()
        assert cli.main([command, str(p2)]) == 0
        assert capsysbinary.readouterr() == want


class TestPipedInput:
    """Input through a FIFO is spilled to a temporary P5 file and read as one.

    Every fault ends the run as it does for the same bytes in a file.
    """

    @pytest.mark.parametrize("command", ["curve", "threshold", "segment"])
    @pytest.mark.parametrize(
        "data",
        [
            pytest.param(b"", id="empty"),
            pytest.param(b"P5 2 2 255\n\x00\x01\x02", id="truncated-p5"),
            pytest.param(b"P5 3 1 100\n\x00\x01\xc8", id="p5-sample-above-maxval"),
            pytest.param(b"P2 3 1 255\n0 1_0 255", id="malformed-p2-token"),
            pytest.param(b"P2 2 2 255\n0 1 2", id="truncated-p2"),
        ],
    )
    def test_same_error_as_read_pgm(self, data, command, tmp_path, capsysbinary):
        with piped(tmp_path / "in.pgm", data) as path:
            assert cli.main([command, path]) == 2
        assert capsysbinary.readouterr().err == _pgm_error(data)

    @pytest.mark.parametrize("command", ["curve", "threshold", "segment"])
    def test_constant_p2_is_a_domain_error(self, command, tmp_path, capsysbinary):
        data = b"P2 3 1 255\n7 7 7"
        (tmp_path / "flat.pgm").write_bytes(data)
        assert cli.main([command, str(tmp_path / "flat.pgm")]) == 2
        want = capsysbinary.readouterr().err
        assert want == b"error: constant image: fewer than two distinct gray levels\n"
        with piped(tmp_path / "in.pgm", data) as path:
            assert cli.main([command, path]) == 2
        assert capsysbinary.readouterr().err == want

    @pytest.mark.parametrize("encode", [write_pgm, _p2_bytes], ids=["p5", "p2"])
    def test_load_pgm_reads_a_fifo(self, encode, tmp_path):
        data = encode(_varied_image(19, 101))
        with piped(tmp_path / "in.pgm", data) as path:
            img = load_pgm(path)
        want = read_pgm(data)
        assert (img.width, img.height, img.depth) == (19, 1, 101)
        assert np.array_equal(img.levels, want.levels)


class TestTemporaryDirectory:
    """P2 and piped input are spilled to the temporary directory; P5 files are not."""

    @pytest.fixture(autouse=True)
    def missing_tempdir(self, tmp_path, monkeypatch):
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path / "missing"))

    @pytest.mark.parametrize("source", ["p2-file", "piped-p5"])
    def test_no_temporary_file_is_one_line_error(
        self, source, tmp_path, capsysbinary
    ):
        img = _varied_image(19, 256)
        out, curve = tmp_path / "o", tmp_path / "c"
        out.write_bytes(b"old bytes")
        curve.write_bytes(b"old bytes")
        outputs = ["--out", str(out), "--curve-out", str(curve)]
        if source == "p2-file":
            (tmp_path / "in.pgm").write_bytes(_p2_bytes(img))
            assert cli.main(["segment", str(tmp_path / "in.pgm"), *outputs]) == 2
        else:
            with piped(tmp_path / "in.pgm", write_pgm(img)) as path:
                assert cli.main(["segment", path, *outputs]) == 2
        err = capsysbinary.readouterr().err
        assert err.startswith(b"error: ") and err.count(b"\n") == 1
        assert b"missing" in err
        assert (out.read_bytes(), curve.read_bytes()) == (b"old bytes", b"old bytes")

    def test_a_p5_file_needs_no_temporary_file(self, tmp_path, capsysbinary):
        img = _varied_image(19, 256)
        save_pgm(tmp_path / "in.pgm", img)
        out = tmp_path / "o"
        assert cli.main(["segment", str(tmp_path / "in.pgm"), "--out", str(out)]) == 0
        assert out.read_bytes() == _expected_segment_output(img)


class TestErrorPaths:
    def test_constant_image_is_domain_error(self, constant_pgm, capsysbinary):
        assert cli.main(["curve", constant_pgm]) == 2
        assert b"constant" in capsysbinary.readouterr().err

    def test_missing_file(self, capsysbinary):
        assert cli.main(["threshold", "/no/such/file.pgm"]) == 2
        assert capsysbinary.readouterr().err.startswith(b"error:")

    def test_corrupt_pgm(self, tmp_path, capsysbinary):
        bad = tmp_path / "bad.pgm"
        bad.write_bytes(b"JUNK")
        assert cli.main(["curve", str(bad)]) == 2
        capsysbinary.readouterr()

    def test_short_raster_with_a_huge_header_is_one_line_error(
        self, tmp_path, capsysbinary
    ):
        # levels for 10^10 pixels would need 9.3 GiB
        short = tmp_path / "short.pgm"
        short.write_bytes(b"P2 100000 100000 255 1 2 3")
        assert cli.main(["curve", str(short)]) == 2
        err = capsysbinary.readouterr().err
        assert err == b"error: raster holds 3 samples, expected 10000000000\n"

    def test_out_of_memory_is_one_line_error(
        self, bimodal_pgm, monkeypatch, capsysbinary
    ):
        def exhausted(hist):
            raise MemoryError("Unable to allocate 3.00 GiB")

        monkeypatch.setattr(cli, "entropy_curve", exhausted)
        assert cli.main(["curve", bimodal_pgm, "--q", "20000"]) == 2
        err = capsysbinary.readouterr().err
        assert err.startswith(b"error:")
        assert err.count(b"\n") == 1
        assert b"Traceback" not in err

    @pytest.mark.parametrize("command", ["curve", "threshold", "segment", "axioms"])
    def test_closed_stdout_is_one_line_error(
        self, command, bimodal_pgm, monkeypatch, capsysbinary
    ):
        # a process started with its stdout closed (`>&-`) has no sys.stdout
        monkeypatch.setattr(sys, "stdout", None)
        args = ["--samples", "1000"] if command == "axioms" else [bimodal_pgm]
        assert cli.main([command, *args]) == 2
        err = capsysbinary.readouterr().err
        # segment opens stdout before it reads the input, the others after
        assert err.splitlines()[-1] == b"error: standard output is closed"
        assert err.count(b"error:") == 1 and b"Traceback" not in err

    @pytest.mark.parametrize(
        "argv",
        [
            [],
            ["frobnicate"],
            ["curve"],
            ["curve", "x.pgm", "--q", "1"],
            ["threshold", "x.pgm", "--max-thresholds", "0"],
            ["axioms", "--samples", "0"],
            ["curve", "x.pgm", "--q", "65537"],
            ["curve", "x.pgm", "--max-thresholds", "2"],
        ],
    )
    def test_usage_errors(self, argv, capsysbinary):
        assert cli.main(argv) == 1
        assert b"error:" in capsysbinary.readouterr().err

    RANGE_ERRORS = [
        (["curve", "x.pgm", "--q", "65537"], "must be at most 65536"),
        (["segment", "x.pgm", "--q", "1"], "must be at least 2"),
        (["threshold", "x.pgm", "--max-thresholds", "0"], "must be at least 1"),
        (["axioms", "--seed", "-1"], "must be at least 0"),
        (["axioms", "--samples", "0"], "must be at least 1"),
        (["segment", "x.pgm", "--max-thresholds", "0"], "must be at least 1"),
        (["curve", "x.pgm", "--q", "abc"], "invalid int value: 'abc'"),
    ]

    @pytest.mark.parametrize(
        "argv, message",
        RANGE_ERRORS,
        ids=[f"argv{i}" for i in range(len(RANGE_ERRORS))],
    )
    def test_range_errors_show_the_subcommand_usage(self, argv, message, capsysbinary):
        assert cli.main(argv) == 1
        err = capsysbinary.readouterr().err.decode()
        command, option = argv[0], argv[-2]
        head = f"error: neutroseg {command}: argument {option}: {message}\n"
        assert err.startswith(head)
        assert f"\nusage: neutroseg {command} [-h]" in err

    # spellings int() takes that are not an optional "-" and ASCII digits
    MALFORMED_INTS = [
        " \u0663\u0660\u0660 ",  # Arabic-Indic 300, padded with blanks
        "\u0663\u0660\u0660",
        "1_000",
        "+7",
        " 7",
        "7\n",
        "7.0",
        "",
        "-",
    ]

    @pytest.mark.parametrize("text", MALFORMED_INTS)
    @pytest.mark.parametrize(
        "argv",
        [
            ["curve", "x.pgm", "--q"],
            ["threshold", "x.pgm", "--max-thresholds"],
            ["axioms", "--seed"],
            ["axioms", "--samples"],
        ],
        ids=["q", "max-thresholds", "seed", "samples"],
    )
    def test_int_options_take_only_ascii_decimal(self, argv, text, capsysbinary):
        assert cli.main([*argv, text]) == 1
        err = capsysbinary.readouterr().err.decode()
        head = f"error: neutroseg {argv[0]}: argument {argv[-1]}: invalid int value: "
        assert err.startswith(f"{head}{text!r}\n")

    @pytest.mark.parametrize("text, value", [("-0", 0), ("007", 7), ("12", 12)])
    def test_int_options_read_ascii_decimal(self, text, value):
        args = cli._build_parser().parse_args(["axioms", "--seed", text])
        assert args.seed == value

    @pytest.mark.parametrize(
        "argv, usage",
        [
            (["-h"], "usage: neutroseg [-h]"),
            (["--help"], "usage: neutroseg [-h]"),
            (["curve", "-h"], "usage: neutroseg curve [-h]"),
            (["segment", "in.pgm", "--help"], "usage: neutroseg segment [-h]"),
            (["axioms", "-h"], "usage: neutroseg axioms [-h]"),
        ],
    )
    def test_help_returns_zero(self, argv, usage, capsysbinary):
        assert cli.main(argv) == 0
        out, err = capsysbinary.readouterr()
        assert out.decode().startswith(usage)
        assert err == b""

    def test_entry_exits_zero_after_help(self, monkeypatch, capsysbinary):
        monkeypatch.setattr(sys, "argv", ["neutroseg", "curve", "-h"])
        with pytest.raises(SystemExit) as exc:
            cli.entry()
        assert exc.value.code == 0
        assert capsysbinary.readouterr().out.startswith(b"usage: neutroseg curve [-h]")

    def test_each_subcommand_declares_only_the_options_it_reads(self):
        parser = cli._build_parser()
        (sub,) = [
            a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
        ]
        options = {
            name: {o for a in p._actions for o in a.option_strings} - {"-h", "--help"}
            for name, p in sub.choices.items()
        }
        selecting = {"--q", "--max-thresholds", "--out", "--curve-out"}
        assert options == {
            "curve": {"--q", "--out"},
            "threshold": selecting,
            "segment": selecting,
            "axioms": {"--seed", "--samples"},
        }


class _FailingStream:
    """A text stream whose every write fails, as a closed descriptor's does."""

    def write(self, text):
        raise OSError(errno.EBADF, "Bad file descriptor")


class TestUnavailableStderr:
    @pytest.mark.parametrize(
        "argv",
        [
            ["curve", "IN"],
            ["threshold", "IN"],  # the fallback warning
            ["segment", "IN"],  # threshold and region lines, image to stdout
            ["axioms", "--samples", "10"],
            ["curve", "IN", "--q", "1"],
            ["curve", "IN.missing"],
        ],
    )
    @pytest.mark.parametrize(
        "stderr", [None, _FailingStream()], ids=["none", "failing"]
    )
    def test_diagnostics_are_dropped(
        self, argv, stderr, two_delta_pgm, capsysbinary, monkeypatch
    ):
        # a process started with fd 2 closed can have sys.stderr None, and
        # print(..., file=None) writes to stdout
        argv = [a.replace("IN", two_delta_pgm) for a in argv]
        rc = cli.main(argv)
        normal = capsysbinary.readouterr()
        assert normal.err
        monkeypatch.setattr(sys, "stderr", stderr)
        assert cli.main(argv) == rc
        assert capsysbinary.readouterr().out == normal.out


class TestModuleEntryPoint:
    @pytest.mark.parametrize("module", ["neutroseg", "neutroseg.cli"])
    def test_python_m_runs_the_cli(self, module, bimodal_pgm, capsysbinary):
        assert cli.main(["curve", bimodal_pgm]) == 0
        expected = capsysbinary.readouterr().out
        src = str(Path(neutroseg.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", module, "curve", bimodal_pgm],
            capture_output=True,
            env=dict(os.environ, PYTHONPATH=path),
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == expected


class TestAxiomsCommand:
    def test_all_checks_pass(self, capsysbinary):
        assert cli.main(["axioms", "--samples", "2000"]) == 0
        out = capsysbinary.readouterr().out.decode().splitlines()
        assert len(out) == 6
        assert all(line.startswith("PASS ") for line in out)

    def test_low_sample_note(self, capsysbinary):
        assert cli.main(["axioms", "--samples", "10"]) == 0
        assert b"reduced confidence" in capsysbinary.readouterr().err

    @pytest.mark.parametrize("seed", [101, 102, 103])
    def test_lines_print_the_library_results_in_order(self, seed, capsysbinary):
        assert cli.main(["axioms", "--samples", "5000", "--seed", str(seed)]) == 0
        out = capsysbinary.readouterr().out.decode().splitlines()
        checks = neutroseg.run_axiom_checks(samples=5000, seed=seed)
        assert out == [
            f"PASS {c.name}: worst deviation {c.worst:.3g}"
            f" (tolerance {c.tolerance:g}, samples {c.samples})"
            for c in checks
        ]

    def test_seeded_runs_are_deterministic(self, capsysbinary):
        assert cli.main(["axioms", "--samples", "500", "--seed", "3"]) == 0
        first = capsysbinary.readouterr().out
        assert cli.main(["axioms", "--samples", "500", "--seed", "3"]) == 0
        assert capsysbinary.readouterr().out == first

    def test_violation_exit_code(self, monkeypatch, capsysbinary):
        broken = AxiomCheck(
            name="made-up",
            description="forced failure",
            samples=1,
            worst=1.0,
            tolerance=0.0,
            passed=False,
        )
        monkeypatch.setattr(
            cli.axioms_mod, "run_axiom_checks", lambda **kw: [broken]
        )
        assert cli.main(["axioms"]) == 3
        captured = capsysbinary.readouterr()
        assert b"FAIL made-up" in captured.out
