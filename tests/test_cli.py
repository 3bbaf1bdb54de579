"""End-to-end command-line behavior, run in process."""

import math
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from conftest import image_from_unit, mixture_image
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
        assert int(level) == math.floor(t * 255 + 0.5)
        assert b"warning" not in captured.err

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

    def test_curve_output_may_overwrite_the_input(self, bimodal_pgm, capsysbinary):
        img = load_pgm(bimodal_pgm)
        rc = cli.main(["segment", bimodal_pgm, "--curve-out", bimodal_pgm])
        assert rc == 0
        assert capsysbinary.readouterr().out == _expected_segment_output(img)
        want = write_curve(entropy_curve(build_histogram(img, q=255)))
        assert Path(bimodal_pgm).read_bytes() == want

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
    top = img.depth - 1
    return "".join(f"{t:.6f} {math.floor(t * top + 0.5)}\n" for t in ts).encode()


def _varied_image(n: int, depth: int) -> GrayImage:
    """``n`` random levels, the first and last the ends of the range."""
    levels = np.random.default_rng([n, depth]).integers(0, depth, n)
    levels[0], levels[-1] = 0, depth - 1
    return GrayImage(width=n, height=1, levels=levels, depth=depth)


def _p2_bytes(img: GrayImage) -> bytes:
    head = b"P2 %d %d %d\n" % (img.width, img.height, img.depth - 1)
    return head + " ".join(map(str, img.levels.tolist())).encode()


class TestStreamedRepaint:
    """A P5 input is read in chunks, twice for segment, and repainted in slices.

    Each pass reads the raster through one reused buffer of ``_SLICE``
    bytes, and the repaint is written slice by slice through another.
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
            # a P2 input is decoded whole; its stderr must match too
            assert cli.main([command, str(p2)]) == 0
            assert capsysbinary.readouterr() == streamed

    @pytest.mark.parametrize("depth", [2, 17, 101, 256])
    @pytest.mark.parametrize("n", [2, 7, 8, 9, 16, 19])
    def test_matches_the_whole_repaint_across_slice_edges(
        self, n, depth, tmp_path, monkeypatch, capsysbinary
    ):
        # slices of 8 pixels: n is 2, slice - 1, slice, slice + 1, 2 * slice
        # and 2 * slice + 3 (a single pixel is a constant image, which the
        # CLI rejects before writing); every header is longer than a slice
        monkeypatch.setattr(image_mod, "_SLICE", 8)
        self.check(_varied_image(n, depth), tmp_path, capsysbinary)

    def test_matches_the_whole_repaint_beyond_one_real_slice(
        self, tmp_path, capsysbinary
    ):
        n = 2 * image_mod._SLICE + 3
        self.check(_varied_image(n, 256), tmp_path, capsysbinary)

    def test_a_pipe_is_read_whole(self, tmp_path, capsysbinary):
        # a pipe has no size to check the raster against and cannot be
        # read twice
        img = _varied_image(19, 256)
        fifo = tmp_path / "in.pgm"
        os.mkfifo(fifo)
        writer = threading.Thread(
            target=fifo.write_bytes, args=(write_pgm(img),), daemon=True
        )
        writer.start()
        try:
            assert cli.main(["segment", str(fifo)]) == 0
        finally:
            writer.join(timeout=60)
        assert not writer.is_alive()
        assert capsysbinary.readouterr().out == _expected_segment_output(img)


def _p5_error(data: bytes) -> bytes:
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
        monkeypatch.setattr(image_mod, "_SLICE", 8)
        path = tmp_path / "bad.pgm"
        path.write_bytes(data)
        assert cli.main([command, str(path)]) == 2
        assert capsysbinary.readouterr().err == _p5_error(data)

    def test_header_longer_than_the_first_read(
        self, tmp_path, monkeypatch, capsysbinary
    ):
        monkeypatch.setattr(image_mod, "_SLICE", 8)
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
        monkeypatch.setattr(image_mod, "_SLICE", 8)
        path = tmp_path / "in.pgm"
        data = write_pgm(_varied_image(19, 256))
        path.write_bytes(data)
        between_passes(path, lambda p: p.write_bytes(data[:-9]))
        assert cli.main(["segment", str(path), "--out", str(tmp_path / "o")]) == 2
        err = capsysbinary.readouterr().err
        # after the thresholds and regions the first pass found
        assert err.endswith(b"\nerror: raster holds 10 bytes, expected 19\n")

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
        ],
    )
    def test_usage_errors(self, argv, capsysbinary):
        assert cli.main(argv) == 1
        assert b"error:" in capsysbinary.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["curve", "x.pgm", "--q", "65537"],
            ["segment", "x.pgm", "--q", "1"],
            ["threshold", "x.pgm", "--max-thresholds", "0"],
            ["axioms", "--seed", "-1"],
        ],
    )
    def test_range_errors_show_the_subcommand_usage(self, argv, capsysbinary):
        assert cli.main(argv) == 1
        err = capsysbinary.readouterr().err.decode()
        assert f"\nusage: neutroseg {argv[0]} [-h]" in err


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
