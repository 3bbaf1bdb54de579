"""PGM codecs and curve serialization."""

import re
import tempfile
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import image_from_unit, piped, random_image
from neutroseg import (
    BadMagic,
    GrayImage,
    MaxvalOutOfRange,
    PgmError,
    SampleOutOfRange,
    TruncatedData,
    build_histogram,
    entropy_curve,
    load_pgm,
    parse_curve,
    read_pgm,
    save_curve,
    save_pgm,
    write_curve,
    write_pgm,
)
from neutroseg import imgio, plain
from neutroseg.imgio import CURVE_HEADER
from neutroseg.sweep import MAX_Q, EntropyCurve


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
        for data in (b"P2 2 2 255 0 1 2", b"P2 2 2 255 0 1\n# 2\n3"):
            with pytest.raises(
                TruncatedData, match=r"raster holds 3 samples, expected 4"
            ):
                read_pgm(data)
        with pytest.raises(TruncatedData):
            read_pgm(b"P2 2")

    def test_sample_out_of_range(self):
        with pytest.raises(SampleOutOfRange):
            read_pgm(b"P2 1 1 255 300")
        with pytest.raises(SampleOutOfRange):
            read_pgm(b"P5 1 1 100 " + bytes([200]))
        # a signed sample is not decimal, so it is malformed, not out of range
        with pytest.raises(PgmError, match=r"malformed sample field b'-3'") as info:
            read_pgm(b"P2 1 1 255 -3")
        assert type(info.value) is PgmError

    def test_malformed_header_field(self):
        with pytest.raises(PgmError):
            read_pgm(b"P2 x 1 255 0")

    @pytest.mark.parametrize(
        "data, message",
        [
            (b"P2 1_0 1 255 0", "malformed width field b'1_0'"),
            (b"P2 1 +1 255 0", "malformed height field b'+1'"),
            (b"P2 1 1 2_5_5 0", "malformed maxval field b'2_5_5'"),
            pytest.param(
                b"P2 %s 1 255 0" % (b"1" * 5000),
                "malformed width field b'%s'" % ("1" * 5000),
                id="decimal-width-longer-than-int-reads",
            ),
            # a field ends at #, but P5 keeps one whitespace byte before its raster
            (b"P5 2 1 255#c\n\x01", "raster must be introduced by a whitespace byte"),
        ],
    )
    def test_header_errors(self, data, message):
        with pytest.raises(PgmError) as info:
            read_pgm(data)
        assert type(info.value) is PgmError
        assert str(info.value) == message


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


def outcome(read, source, last="levels"):
    """What ``read`` gives for ``source``, or its error's class and message.

    Of a result, that is its class, size and depth and its ``last`` attribute.
    """
    try:
        got = read(source)
    except PgmError as exc:
        return type(exc), str(exc)
    return type(got), got.width, got.height, got.depth, getattr(got, last).tolist()


def counted(path):
    """The command line's reader of the file at ``path``, its levels counted."""
    with imgio._p5_file(path) as fh:
        return imgio._P5File(fh)


class TestReadersAgree:
    """``read_pgm``, ``load_pgm`` of a file and of a FIFO, and the CLI's count."""

    def check(self, data):
        want = outcome(read_pgm, data)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "in.pgm"
            path.write_bytes(data)
            assert outcome(load_pgm, path) == want
            with piped(Path(tmp) / "fifo", data) as fifo:
                assert outcome(load_pgm, fifo) == want
            got = outcome(counted, path, "level_counts")
        if want[0] is GrayImage:
            want = (imgio._P5File, *outcome(read_pgm, data, "level_counts")[1:])
        assert got == want

    @settings(deadline=None, max_examples=200, derandomize=True)
    @given(st.binary(max_size=64))
    def test_any_bytes(self, data):
        self.check(data)

    @settings(deadline=None, max_examples=200, derandomize=True)
    @given(pgm_with_random_tail())
    def test_valid_header_random_tail(self, data):
        self.check(data)


_SPACE = " \t\n\r\x0b\x0c"


@st.composite
def p2_raster_pair(draw):
    """The same P2 raster without and with comments.

    The twin has a comment after each header field and may have one before
    any line ending of the raster and at its end: after a blank or directly
    after a sample, before CR, LF or CRLF. Non-decimal tokens are drawn in
    half of the rasters.
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
    # a comment holds no line ending, and one more # inside it changes nothing
    comment = st.binary(max_size=6).map(lambda b: b"#" + b.translate(None, b"\r\n"))
    twin = re.sub(
        rb"(?=[\r\n])|\Z",
        lambda m: draw(comment) if draw(st.booleans()) else b"",
        raster,
    )
    head = b"P2\n%d %d\n%d" % (width, height, maxval)
    twin_head = b"P2# c\n%d# c\n%d# c\n%d" % (width, height, maxval)
    return head + raster, twin_head + b" # c\n" + twin


def decoded(data, read=read_pgm):
    """Levels, dtype and depth of a decoded file, or its error type and message.

    ``read`` decodes ``data``: PGM bytes for ``read_pgm``, a path for
    ``load_pgm`` and :func:`opened`.
    """
    try:
        img = read(data)
    except PgmError as exc:
        return type(exc), str(exc)
    return img.levels.tolist(), img.levels.dtype, img.depth


def opened(path):
    """The image the command line reads from the P2 file at ``path``.

    Its levels are read back from the P5 file it is spilled to, by the
    repaint's own pass, with the identity table.
    """
    with imgio._p5_file(path) as fh:
        raster = imgio._P5File(fh)
        identity = np.arange(raster.depth, dtype=np.uint8)
        parts = [part.tobytes() for part in raster._lookup_slices(identity)]
        levels = np.frombuffer(b"".join(parts), dtype=np.uint8)
        return GrayImage(raster.width, raster.height, levels, depth=raster.depth)


@st.composite
def p2_seam_case(draw):
    """A P2 file and what reading it one token at a time gives.

    Tokens of up to 30 digits, with leading zeros and values above maxval,
    and in half of the files a non-decimal token, are separated by runs of
    the six whitespace bytes; a comment, which may hold blanks, digits and
    more #s, may stand before any line ending and at the end, up to three
    samples more than the header asks for may follow, and the file may end
    in a digit.
    """
    width = draw(st.integers(0, 6))
    height = draw(st.integers(0, 6))
    maxval = draw(st.sampled_from([1, 100, 255]))
    count = width * height
    plain = [
        st.integers(0, 300).map(b"%d".__mod__),
        st.sampled_from([b"007", b"0000255", b"1234", b"9" * 30]),
        st.text("0123456789", min_size=1, max_size=30).map(str.encode),
    ]
    odd = st.sampled_from([b"x", b"+5", b"1_0", b"12a"])
    token = st.one_of(plain if draw(st.booleans()) else [*plain, odd])
    space = st.text(_SPACE, min_size=1, max_size=8).map(str.encode)
    tokens = [draw(token) for _ in range(max(count + draw(st.integers(-2, 3)), 0))]
    end = st.text(_SPACE, max_size=8).map(str.encode)
    raster = b"".join(draw(space) + t for t in tokens) + draw(end)
    text = st.one_of(
        st.binary(max_size=12).map(lambda b: b.translate(None, b"\r\n")),
        st.text(" \t\x0b\x0c#0123456789x", max_size=12).map(str.encode),
    )
    comment = text.map(lambda b: b"#" + b)
    raster = re.sub(
        rb"(?=[\r\n])|\Z",
        lambda m: draw(comment) if draw(st.booleans()) else b"",
        raster,
    )
    return b"P2\n%d %d\n%d" % (width, height, maxval) + raster, p2_reference(
        raster, count, maxval
    )


def p2_reference(raster: bytes, count: int, maxval: int):
    """``decoded`` of a P2 raster, by ``int()`` of each token in turn."""
    tokens = re.sub(rb"#[^\r\n]*", b" ", raster).split()
    bad = next((t for t in tokens if not t.isdigit()), None)
    if bad is not None:
        tokens = tokens[: tokens.index(bad)]
    if len(tokens) < count:
        if bad is not None:
            return PgmError, f"malformed sample field {bad!r}"
        return TruncatedData, f"raster holds {len(tokens)} samples, expected {count}"
    # the decoder reads a sample above int64 as int64's maximum
    values = [min(int(t), np.iinfo(np.int64).max) for t in tokens[:count]]
    if values and max(values) == np.iinfo(np.int64).max:
        return SampleOutOfRange, f"a sample exceeds maxval {maxval}"
    if values and max(values) > maxval:
        span = f"[{min(values)}, {max(values)}], allowed [0, {maxval}]"
        return SampleOutOfRange, "sample values span " + span
    return values, np.dtype(np.uint8), maxval + 1


class TestPlainP2Decode:
    @settings(deadline=None, max_examples=400)
    @given(p2_raster_pair())
    def test_comments_change_nothing(self, pair):
        plain, commented = pair
        assert decoded(plain) == decoded(commented)

    @pytest.mark.parametrize(
        "data, levels",
        [
            (b"P2 0 0 255\n   \n", []),
            (b"P2 4 1 255\t1\x0b2\x0c3\r\n4", [1, 2, 3, 4]),
            (b"P2 2 1 255 007 0", [7, 0]),
            (b"P2 2 1 100 1 2 3 101 " + b"9" * 30, [1, 2]),
            (b"P2 3 1 255 1\t2\n3 4", [1, 2, 3]),
            (b"P2 2 1 255 1 2 x", [1, 2]),
            (b"P2 2#c\n1 255 7 9", [7, 9]),
            (b"P2 4 1 255#c\n7#c\n9 #c\r8#c\r\n6 #", [7, 9, 8, 6]),
            (b"P2 2 1 255 1 #2 3\n4", [1, 4]),
        ],
    )
    def test_edge_cases(self, data, levels):
        img = read_pgm(data)
        assert img.levels.tolist() == levels
        assert img.levels.dtype == np.uint8

    @pytest.mark.parametrize(
        "data, message",
        [
            (b"P2 3 1 255 +5 -0 1_0", "malformed sample field b'+5'"),
            (b"P2 3 1 255 5 -0 1_0", "malformed sample field b'-0'"),
            (b"P2 3 1 255 5 0 1_0", "malformed sample field b'1_0'"),
            (b"P2 2 1 255 1e1 2", "malformed sample field b'1e1'"),
            (b"P2 2 2 255 0 1 x", "malformed sample field b'x'"),
        ],
    )
    def test_non_decimal_samples(self, data, message):
        with pytest.raises(PgmError) as info:
            read_pgm(data)
        assert type(info.value) is PgmError
        assert str(info.value) == message

    @pytest.mark.parametrize(
        "data, message",
        [
            (b"P2 2 1 100 7 101", "sample values span [7, 101], allowed [0, 100]"),
            (b"P2 1 1 255 " + b"9" * 30, "a sample exceeds maxval 255"),
        ],
    )
    def test_range_errors(self, data, message):
        with pytest.raises(SampleOutOfRange) as info:
            read_pgm(data)
        assert str(info.value) == message

    @staticmethod
    def decode_peak(side: int, comment: str) -> float:
        """Peak traced memory of decoding a side^2 P2 file, per file byte."""
        rng = np.random.default_rng(5)
        rows = rng.integers(0, 256, size=(side * side // 16, 16))
        lines = (" ".join(map(str, row)) + comment + "\n" for row in rows.tolist())
        data = b"P2\n%d %d\n255\n" % (side, side) + "".join(lines).encode()
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            img = read_pgm(data)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert img.levels.tolist() == rows.reshape(-1).tolist()
        return peak / len(data)

    def test_decode_memory_is_bounded(self):
        # the levels are a quarter of the file; reading the whole raster at
        # once (4.24x) fails the first bound, and so does blanking the
        # comments of the whole raster at once (4.94x) the second
        assert self.decode_peak(512, "") < 2
        assert self.decode_peak(512, " # a comment on every line") < 2

    def test_decode_memory_is_bounded_by_the_chunk(self):
        # a raster of many chunks: the temporaries are a chunk's, so the
        # peak falls below the file size (0.56x at 29 chunks)
        assert self.decode_peak(1024, "") < 1

    @pytest.mark.parametrize(
        "data, message",
        [
            (b"P2 100000 100000 255 1 2 3", "expected 10000000000"),
            (b"P2 4000000000 4000000000 255 1 2 3", "expected 16000000000000000000"),
        ],
    )
    def test_short_raster_is_reported_before_any_allocation(self, data, message):
        # levels for the header's count would need 9.3 GiB, or more than
        # numpy can index
        with pytest.raises(TruncatedData) as info:
            read_pgm(data)
        assert str(info.value) == "raster holds 3 samples, " + message

    @pytest.mark.parametrize("read", [read_pgm, load_pgm], ids=["bytes", "file"])
    def test_comment_and_token_across_many_reads(self, read, tmp_path):
        # a comment of 4000 reads, then a token of 3000 digits
        data = b"P2 3 1 255\n7 #" + b"9 " * 8000 + b"\n" + b"0" * 2997 + b"255 0"
        path = tmp_path / "in.pgm"
        path.write_bytes(data)
        with mock.patch.object(plain, "_P2_CHUNK", 4):
            img = read(data if read is read_pgm else path)
        assert img.levels.tolist() == [7, 255, 0]

    @settings(deadline=None, max_examples=300)
    @given(p2_seam_case(), st.integers(1, 16))
    def test_chunk_seams_change_nothing(self, case, chunk):
        data, want = case
        assert decoded(data) == want
        with mock.patch.object(plain, "_P2_CHUNK", chunk):
            assert decoded(data) == want
            # a file is read in chunks of the same size, so seams also fall
            # between reads
            with tempfile.TemporaryDirectory() as tmp:
                path = Path(tmp) / "in.pgm"
                path.write_bytes(data)
                assert decoded(path, load_pgm) == want
                assert decoded(path, opened) == want


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

    def test_integer_sizes_of_any_type_are_stored_as_int(self):
        img = GrayImage(np.int64(2), np.uint16(1), [0, 99], depth=np.int32(100))
        flag = GrayImage(width=True, height=1, levels=[7])
        for image in (img, flag):
            sizes = (image.width, image.height, image.depth)
            assert [type(v) for v in sizes] == [int] * 3
            back = read_pgm(write_pgm(image))
            assert (back.width, back.height, back.depth) == sizes
            assert np.array_equal(back.levels, image.levels)
        assert write_pgm(img) == b"P5\n2 1\n99\n\x00\x63"
        assert write_pgm(flag) == b"P5\n1 1\n255\n\x07"

    @pytest.mark.parametrize("name", ["width", "height", "depth"])
    @pytest.mark.parametrize("kind", [float, np.float64])
    def test_a_float_size_is_rejected(self, name, kind):
        sizes = {"width": 2, "height": 1, "depth": 256}
        sizes[name] = kind(sizes[name])
        with pytest.raises(ValueError, match=f"^{name}: "):
            GrayImage(levels=[0, 255], **sizes)

    def test_strided_levels(self):
        raw = np.arange(6, dtype=np.uint8)[::2]
        assert not raw.flags.c_contiguous
        img = GrayImage(width=3, height=1, levels=raw)
        assert write_pgm(img) == b"P5\n3 1\n255\n\x00\x02\x04"

    def test_save_pgm_writes_the_same_bytes(self, tmp_path):
        img = random_image(5, 9, 7, depth=17)
        save_pgm(tmp_path / "x.pgm", img)
        assert (tmp_path / "x.pgm").read_bytes() == write_pgm(img)

    def test_encode_memory_is_one_copy(self):
        img = random_image(6, 2048, 2048)
        tracemalloc.start()
        try:
            data = write_pgm(img)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # a header joined to tobytes() holds two copies at once
        assert peak < 1.25 * len(data)


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

    @pytest.mark.parametrize("rows", [0, 1, 255, 256, 257, 600])
    def test_text_comes_in_blocks_of_rows(self, rows):
        cols = np.linspace(0.0, 1.0, 5 * rows).reshape(5, rows)
        curve = EntropyCurve(rows + 1, *cols)
        parts = list(imgio._curve_parts(curve))
        assert parts[0] == b"t,e_T,e_I,e_F,E\n"
        lines = [part.count(b"\n") for part in parts[1:]]
        assert lines == [256] * (rows // 256) + [rows % 256] * (rows % 256 > 0)
        want = [CURVE_HEADER, *(",".join(f"{v:.12g}" for v in r) for r in zip(*cols))]
        want = ("\n".join(want) + "\n").encode()
        assert b"".join(parts) == write_curve(curve) == want

    def test_save_curve_holds_one_block_of_text(self, tmp_path):
        curve = entropy_curve(build_histogram(random_image(8, 256, 256), q=MAX_Q))
        path = tmp_path / "curve.txt"
        tracemalloc.start()
        try:
            save_curve(path, curve)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert path.read_bytes() == write_curve(curve)
        # 0.1 MiB; the whole text formatted before the write peaked at 18.2 MiB
        assert peak < 2**20

    def test_parse_rejects_bad_input(self):
        with pytest.raises(ValueError):
            parse_curve(b"nope\n1,2,3,4,5\n")
        with pytest.raises(ValueError):
            parse_curve(CURVE_HEADER.encode() + b"\n1,2,3\n")
