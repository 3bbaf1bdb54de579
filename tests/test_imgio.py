"""PGM codecs and curve serialization."""

import tracemalloc

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
from neutroseg.imgio import CURVE_HEADER, _plain_samples
from neutroseg.sweep import EntropyCurve


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


_SPACE = " \t\n\r\x0b\x0c"


@st.composite
def p2_raster_pair(draw):
    """The same P2 raster without and with a comment between header and raster.

    The comment sends the second file through the token loop. Plain rasters
    (digits and whitespace only) are drawn half of the time, so both the
    vectorised decode and its fallback are exercised.
    """
    width = draw(st.integers(0, 5))
    height = draw(st.integers(0, 5))
    maxval = draw(st.sampled_from([1, 7, 100, 254, 255]))
    plain = [
        st.integers(0, 300).map(b"%d".__mod__),
        st.integers(0, 255).map(b"00%d".__mod__),
        st.text("0123456789", min_size=4, max_size=30).map(str.encode),
    ]
    odd = st.text("0123456789+-_#x", min_size=1, max_size=4).map(str.encode)
    token = st.one_of(plain if draw(st.booleans()) else [*plain, odd])
    n = max(width * height + draw(st.integers(-2, 2)), 0)
    space = st.text(_SPACE, min_size=1, max_size=3).map(str.encode)
    raster = b"".join(draw(space) + draw(token) for _ in range(n))
    raster += draw(st.text(_SPACE, max_size=3).map(str.encode))
    head = b"P2\n%d %d\n%d" % (width, height, maxval)
    return head + raster, head + b" # c\n" + raster


def decoded(data: bytes):
    """Levels, dtype and depth of a decoded file, or its error type and message."""
    try:
        img = read_pgm(data)
    except PgmError as exc:
        return type(exc), str(exc)
    return img.levels.tolist(), img.levels.dtype, img.depth


class TestPlainP2Decode:
    @settings(deadline=None, max_examples=400)
    @given(p2_raster_pair())
    def test_matches_token_loop(self, pair):
        plain, commented = pair
        assert decoded(plain) == decoded(commented)

    @pytest.mark.parametrize(
        "data, levels",
        [
            (b"P2 0 0 255\n   \n", []),
            (b"P2 4 1 255\t1\x0b2\x0c3\r\n4", [1, 2, 3, 4]),
            (b"P2 2 1 255 007 0", [7, 0]),
            (b"P2 2 1 100 1 2 3 101 " + b"9" * 30, [1, 2]),
            (b"P2 3 1 255 +5 -0 1_0", [5, 0, 10]),
        ],
    )
    def test_edge_cases(self, data, levels):
        img = read_pgm(data)
        assert img.levels.tolist() == levels
        assert img.levels.dtype == np.uint8

    @pytest.mark.parametrize(
        "data, message",
        [
            (b"P2 2 1 100 7 101", "sample values span [7, 101], allowed [0, 100]"),
            (b"P2 1 1 255 " + b"9" * 30, "a sample does not fit a 64-bit integer"),
        ],
    )
    def test_range_errors(self, data, message):
        with pytest.raises(SampleOutOfRange) as info:
            read_pgm(data)
        assert str(info.value) == message

    def test_declines_what_the_token_loop_decides(self):
        assert _plain_samples(b" 1\t2\n3 4", 3, 255).tolist() == [1, 2, 3]
        declined = [
            (b" 1 # 2\n3", 2),  # comment
            (b" +5 1", 2),  # sign
            (b" 1e1 2", 2),  # not a decimal integer
            (b" 1 2", 3),  # short
            (b"   ", 0),  # blank, read by fromstring as [0]
            (b" 3 256", 2),  # above maxval
        ]
        for raster, count in declined:
            assert _plain_samples(raster, count, 255) is None

    def test_decode_memory_is_bounded(self):
        rng = np.random.default_rng(5)
        rows = rng.integers(0, 256, size=(512 * 512 // 16, 16))
        raster = "\n".join(" ".join(map(str, row)) for row in rows.tolist())
        data = b"P2\n512 512\n255\n" + raster.encode() + b"\n"
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            img = read_pgm(data)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert img.levels.tolist() == rows.reshape(-1).tolist()
        assert peak < 8 * len(data)


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

    def test_rows_match_per_value_format(self):
        values = [-0.0, 0.0, np.nan, np.inf, -np.inf, 5e-324, 1e300, 1 / 3, -2.5e-7]
        cols = [np.roll(np.array(values), k) for k in range(5)]
        curve = EntropyCurve(len(values), *cols)
        want = [CURVE_HEADER]
        want += [",".join(f"{v:.12g}" for v in row) for row in zip(*cols)]
        assert write_curve(curve) == ("\n".join(want) + "\n").encode()

    def test_parse_rejects_bad_input(self):
        with pytest.raises(ValueError):
            parse_curve(b"nope\n1,2,3,4,5\n")
        with pytest.raises(ValueError):
            parse_curve(CURVE_HEADER.encode() + b"\n1,2,3\n")
