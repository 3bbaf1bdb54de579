"""PGM codecs and curve serialization."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import image_from_unit, random_image
from neutroseg import (
    BadMagic,
    GrayImage,
    MaxvalOutOfRange,
    PgmError,
    SampleOutOfRange,
    TruncatedData,
    build_histogram,
    entropy_curve,
    parse_curve,
    read_pgm,
    write_curve,
    write_pgm,
)
from neutroseg.imgio import CURVE_HEADER


class TestReadPgm:
    def test_minimal_ascii(self):
        img = read_pgm(b"P2 2 1 255 0 255")
        assert (img.width, img.height, img.depth) == (2, 1, 256)
        assert list(img.levels) == [0, 255]

    def test_binary_matches_ascii(self):
        ascii_img = read_pgm(b"P2 2 2 255 10 20 30 40")
        binary_img = read_pgm(b"P5 2 2 255 " + bytes([10, 20, 30, 40]))
        assert np.array_equal(ascii_img.levels, binary_img.levels)
        assert ascii_img.depth == binary_img.depth

    def test_comments_are_skipped(self):
        data = b"P2 # format\n# width and height\n2 1\n255 # maxval\n7 9"
        img = read_pgm(data)
        assert list(img.levels) == [7, 9]

    def test_row_major_order_preserved(self):
        img = read_pgm(b"P5 3 2 255 " + bytes([1, 2, 3, 4, 5, 6]))
        assert list(img.levels) == [1, 2, 3, 4, 5, 6]

    def test_bad_magic(self):
        with pytest.raises(BadMagic):
            read_pgm(b"P6 1 1 255 \x00\x00\x00")
        with pytest.raises(BadMagic):
            read_pgm(b"hello")

    def test_sixteen_bit_rejected(self):
        with pytest.raises(MaxvalOutOfRange):
            read_pgm(b"P2 1 1 65535 1234")
        with pytest.raises(MaxvalOutOfRange):
            read_pgm(b"P2 1 1 0 0")

    def test_truncated_raster(self):
        with pytest.raises(TruncatedData):
            read_pgm(b"P5 2 2 255 \x00\x01")
        with pytest.raises(TruncatedData):
            read_pgm(b"P2 2 2 255 0 1 2")
        with pytest.raises(TruncatedData):
            read_pgm(b"P2 2")

    def test_sample_out_of_range(self):
        with pytest.raises(SampleOutOfRange):
            read_pgm(b"P2 1 1 255 300")
        with pytest.raises(SampleOutOfRange):
            read_pgm(b"P2 1 1 255 -3")
        with pytest.raises(SampleOutOfRange):
            read_pgm(b"P5 1 1 100 " + bytes([200]))

    def test_malformed_header_field(self):
        with pytest.raises(PgmError):
            read_pgm(b"P2 x 1 255 0")


@st.composite
def pgm_with_random_tail(draw):
    """A valid P2 or P5 header followed by an arbitrary or near-valid raster."""
    magic = draw(st.sampled_from([b"P2", b"P5"]))
    width = draw(st.integers(0, 5))
    height = draw(st.integers(0, 5))
    maxval = draw(st.sampled_from([1, 7, 100, 254, 255]))
    head = b"%s\n%d %d\n%d" % (magic, width, height, maxval)
    count = width * height
    if magic == b"P5" and draw(st.booleans()):
        # short, exact or long raster; sample values may exceed maxval
        tail = b"\n" + draw(st.binary(min_size=max(count - 2, 0), max_size=count + 2))
    elif magic == b"P2" and draw(st.booleans()):
        samples = draw(st.lists(st.integers(-3, 300), max_size=count + 2))
        tail = b" " + b" ".join(b"%d" % v for v in samples)
    else:
        tail = draw(st.binary(max_size=40))
    return head + tail


def assert_image_or_pgm_error(data: bytes) -> None:
    try:
        img = read_pgm(data)
    except PgmError:
        return
    assert isinstance(img, GrayImage)
    assert img.levels.dtype == np.uint8
    assert img.levels.size == img.pixel_count
    assert img.levels.size == 0 or int(img.levels.max()) < img.depth


class TestReadPgmFuzz:
    @settings(deadline=None, max_examples=300)
    @given(st.binary(max_size=64))
    def test_any_bytes(self, data):
        assert_image_or_pgm_error(data)

    @settings(deadline=None, max_examples=300)
    @given(pgm_with_random_tail())
    def test_valid_header_random_tail(self, data):
        assert_image_or_pgm_error(data)

    def test_p5_trailing_bytes_are_ignored(self):
        img = read_pgm(b"P5 2 1 255\n" + bytes([3, 4, 5, 6]))
        assert list(img.levels) == [3, 4]

    def test_p5_without_raster_separator(self):
        img = read_pgm(b"P5 0 0 255")
        assert img.pixel_count == 0

    def test_oversized_p2_sample(self):
        with pytest.raises(SampleOutOfRange):
            read_pgm(b"P2 1 1 255 " + b"9" * 30)


class TestWritePgm:
    def test_single_pixel_payload(self):
        img = image_from_unit([0.0], depth=256)
        data = write_pgm(img)
        assert data == b"P5\n1 1\n255\n\x00"

    @pytest.mark.parametrize("depth", [2, 17, 256])
    def test_round_trip_exact(self, depth):
        img = random_image(depth, 16, 16, depth=depth)
        back = read_pgm(write_pgm(img))
        assert (back.width, back.height, back.depth) == (16, 16, depth)
        assert np.array_equal(back.levels, img.levels)

    def test_deep_image_rejected(self):
        levels = np.zeros(4, dtype=np.int64)
        from neutroseg import GrayImage

        img = GrayImage(width=2, height=2, levels=levels, depth=1024)
        with pytest.raises(MaxvalOutOfRange):
            write_pgm(img)


class TestCurveFormat:
    def build_curve(self, seed=14):
        return entropy_curve(build_histogram(random_image(seed, 24, 24)))

    def test_header_and_shape(self):
        curve = self.build_curve()
        text = write_curve(curve).decode("utf-8")
        lines = text.splitlines()
        assert lines[0] == CURVE_HEADER
        assert len(lines) == len(curve) + 1
        assert all(line.count(",") == 4 for line in lines[1:])

    def test_lf_line_endings_and_ascii(self):
        data = write_curve(self.build_curve())
        assert b"\r" not in data
        data.decode("ascii")

    def test_round_trip_tolerance(self):
        curve = self.build_curve()
        cols = parse_curve(write_curve(curve))
        assert np.abs(cols.t - curve.t).max() <= 1e-10
        assert np.abs(cols.e_t - curve.e_t).max() <= 1e-10
        assert np.abs(cols.e_i - curve.e_i).max() <= 1e-10
        assert np.abs(cols.e_f - curve.e_f).max() <= 1e-10
        assert np.abs(cols.total - curve.total).max() <= 1e-10

    def test_deterministic_bytes(self):
        curve = self.build_curve()
        assert write_curve(curve) == write_curve(curve)

    def test_two_delta_zero_fields(self):
        img = image_from_unit([0.2, 0.2, 0.8, 0.8])
        curve = entropy_curve(build_histogram(img))
        lines = write_curve(curve).decode().splitlines()[1:]
        assert len(lines) == 152
        for line in lines:
            assert line.split(",")[1:] == ["0", "0", "0", "0"]

    def test_parse_rejects_bad_input(self):
        with pytest.raises(ValueError):
            parse_curve(b"nope\n1,2,3,4,5\n")
        with pytest.raises(ValueError):
            parse_curve(CURVE_HEADER.encode() + b"\n1,2,3\n")
