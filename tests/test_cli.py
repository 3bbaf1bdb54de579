"""End-to-end command-line behavior, run in process."""

import math

import numpy as np
import pytest

from conftest import image_from_unit, mixture_image
from neutroseg import AxiomCheck, load_pgm, parse_curve, save_pgm
import neutroseg.cli as cli


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
        ],
    )
    def test_usage_errors(self, argv, capsysbinary):
        assert cli.main(argv) == 1
        assert b"error:" in capsysbinary.readouterr().err


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
