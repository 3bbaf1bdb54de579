"""PGM codecs and the entropy-curve text format.

Both the ASCII (P2) and binary (P5) PGM flavors are decoded; emission is
always binary. Only 8-bit files are in scope, so maxval may not exceed
255. Curves are exchanged as comma-separated text with a fixed header line
and one row per candidate threshold, 12 significant digits per value.
"""

from __future__ import annotations

import os
import re
from typing import NamedTuple, Union

import numpy as np

from .errors import (
    BadMagic,
    MaxvalOutOfRange,
    PgmError,
    SampleOutOfRange,
    TruncatedData,
)
from .image import GrayImage
from .sweep import EntropyCurve

PathLike = Union[str, os.PathLike]

CURVE_HEADER = "t,e_T,e_I,e_F,E"

_MAX_MAXVAL = 255

# a header field: whitespace and comments, then bytes up to whitespace or #
_FIELD = re.compile(rb"(?:\s|#[^\r\n]*)*([^\s#]*)")

# a comment runs from any # to the end of its line, in a raster too
_COMMENT = re.compile(rb"#[^\r\n]*")

# the bytes of a valid P2 raster once comments are blanked: decimal digits
# and the six bytes that bytes.isspace (and the regex \s) accepts
_PLAIN_RASTER = b"0123456789 \t\n\r\x0b\x0c"

# the first raster token that holds a byte _PLAIN_RASTER lacks
_BAD_SAMPLE = re.compile(rb"(?<!\S)\S*?[^\d\s]\S*")

# a whitespace byte, where a chunk of a P2 raster may end
_SPACE = re.compile(rb"\s")

# bytes per chunk of a P2 raster: the decoder's temporaries (a few bytes
# per raster byte) scale with it, not with the image. On a 2048^2 P2 file
# of 14.3 MiB (2-core x86 host), read_pgm took 97 ms at 2^15, 78 ms at 2^16
# and 72-76 ms from 2^17 to 2^20, against 221 ms reading the whole raster
# with np.fromstring (medians of 9 interleaved rounds); 2^17 is the
# smallest size on the flat part. Its tracemalloc peak was 5.0 MiB, 4.0 of
# them the levels, against 60.5 MiB.
_P2_CHUNK = 1 << 17


class CurveColumns(NamedTuple):
    """Columns of a parsed curve file, each a float64 array."""

    t: np.ndarray
    e_t: np.ndarray
    e_i: np.ndarray
    e_f: np.ndarray
    total: np.ndarray


def _tokens(data: bytes) -> tuple[list[bytes], int]:
    """The four header fields (magic, width, height, maxval).

    Returns the fields and the offset just past the last one.
    """
    fields: list[bytes] = []
    pos = 0
    for _ in range(4):
        field = _FIELD.match(data, pos)
        if not field[1]:
            raise TruncatedData("header ended before all fields were read")
        fields.append(field[1])
        pos = field.end()
    return fields, pos


def _header_int(token: bytes, what: str) -> int:
    if token.isdigit():
        try:
            return int(token)
        except ValueError:  # decimal, but over int()'s digit limit
            pass
    raise PgmError(f"malformed {what} field {token!r}")


def _p2_levels(data: bytes, pos: int, count: int, maxval: int) -> np.ndarray:
    """The first ``count`` samples of the P2 raster at ``data[pos:]``.

    Returns them as ``uint8`` levels, each checked against ``maxval``.
    """
    if data.find(b"#", pos) >= 0:
        data, pos = _COMMENT.sub(b" ", data[pos:]), 0
    # a raster of n bytes holds at most (n + 1) // 2 samples, so a short
    # one is read into no more than that before it is reported
    out = np.empty(min(count, (len(data) - pos + 1) // 2), dtype=np.uint8)
    filled, lo, hi = 0, np.iinfo(np.int64).max, 0
    bad = None
    # every chunk starts at a whitespace byte and, but for the last one,
    # ends with the whitespace byte the next chunk starts at
    while filled < out.size and pos < len(data) and not bad:
        space = _SPACE.search(data, pos + _P2_CHUNK)
        end = space.start() if space else len(data)
        chunk, pos = data[pos : end + 1], end
        # the translate check is cheap; the regex runs only when it fires
        bad = chunk.translate(None, _PLAIN_RASTER) and _BAD_SAMPLE.search(chunk)
        if bad:
            chunk = chunk[: bad.start()]
        samples = _chunk_samples(chunk, out.size - filled)
        if samples.size:
            out[filled : filled + samples.size] = samples
            filled += samples.size
            lo = min(lo, int(samples.min()))
            hi = max(hi, int(samples.max()))
    if filled < count:
        if bad:
            raise PgmError(f"malformed sample field {bad[0]!r}")
        raise TruncatedData(f"raster holds {filled} samples, expected {count}")
    if hi > maxval:
        # a sample too large for int64 is read as its maximum, which the
        # file does not hold
        if hi == np.iinfo(np.int64).max:
            raise SampleOutOfRange(f"a sample exceeds maxval {maxval}")
        raise SampleOutOfRange(
            f"sample values span [{lo}, {hi}], allowed [0, {maxval}]"
        )
    return out


def _chunk_samples(chunk: bytes, limit: int) -> np.ndarray:
    """The first ``limit`` samples of a chunk of digits and whitespace.

    The chunk starts with a whitespace byte. A sample of up to three digits
    is ``d[e] + 10*d[e-1] + 100*d[e-2]`` at its last digit ``e``, each term
    counted only when its byte is a digit of the same token. A chunk holding
    a longer token (leading zeros, or a value above 999) is read exactly.
    """
    u = np.frombuffer(chunk, dtype=np.uint8)
    digit = u >= 0x30
    ends = np.flatnonzero(digit[:-1] > digit[1:])
    if digit[-1:].any():
        ends = np.append(ends, u.size - 1)
    ends = ends[:limit]
    if not ends.size:
        return ends
    ones = np.take(u, ends)
    # ends >= 1, since u[0] is blank; index -1 is read only when u[0] is
    # the tens byte, so its hundreds term never counts
    tens = np.take(u, ends - 1)
    hundreds = np.take(u, ends - 2)
    has_tens = tens >= 0x30
    has_hundreds = has_tens & (hundreds >= 0x30)
    # the digits these samples hold if none has more than three
    short = ends.size + np.count_nonzero(has_tens) + np.count_nonzero(has_hundreds)
    if np.count_nonzero(digit[: ends[-1] + 1]) > short:
        return np.fromstring(chunk, dtype=np.int64, count=ends.size, sep=" ")
    ones -= 0x30
    tens -= 0x30
    tens *= has_tens.view(np.uint8)
    hundreds -= 0x30
    hundreds *= has_hundreds.view(np.uint8)
    samples = hundreds.astype(np.uint16)
    samples *= 10
    samples += tens
    samples *= 10
    samples += ones
    return samples


def read_pgm(data: bytes) -> GrayImage:
    """Decode PGM bytes (P2 or P5) into a gray image of depth maxval + 1."""
    if data[:2] not in (b"P2", b"P5"):
        raise BadMagic(f"not a PGM file (magic {data[:2]!r})")
    head, pos = _tokens(data)
    magic = head[0]
    if magic not in (b"P2", b"P5"):
        raise BadMagic(f"not a PGM file (magic {magic!r})")
    width = _header_int(head[1], "width")
    height = _header_int(head[2], "height")
    maxval = _header_int(head[3], "maxval")
    if not 1 <= maxval <= _MAX_MAXVAL:
        raise MaxvalOutOfRange(f"maxval {maxval} outside [1, {_MAX_MAXVAL}]")
    count = width * height
    if magic == b"P2":
        levels = _p2_levels(data, pos, count, maxval)
    else:
        if pos < len(data) and not data[pos : pos + 1].isspace():
            raise PgmError("raster must be introduced by a whitespace byte")
        start = min(pos + 1, len(data))
        if len(data) - start < count:
            raise TruncatedData(
                f"raster holds {len(data) - start} bytes, expected {count}"
            )
        levels = np.frombuffer(data, dtype=np.uint8, count=count, offset=start)
    try:
        return GrayImage(width=width, height=height, levels=levels, depth=maxval + 1)
    except ValueError as exc:
        # the header checks above leave a P5 sample above maxval, which
        # GrayImage checks once, as the only failure
        raise SampleOutOfRange(f"sample {exc}") from None


def pgm_parts(image: GrayImage) -> tuple[bytes, memoryview]:
    """Header and raster of ``image`` as binary PGM.

    The raster is a view of the image's levels (always contiguous
    ``uint8``), not a copy; written one after the other, the two parts are
    the file.
    """
    maxval = image.depth - 1
    header = f"P5\n{image.width} {image.height}\n{maxval}\n".encode("ascii")
    return header, memoryview(image.levels)


def write_pgm(image: GrayImage) -> bytes:
    """Encode a gray image as binary PGM bytes."""
    return b"".join(pgm_parts(image))


def load_pgm(path: PathLike) -> GrayImage:
    """Read a PGM file from ``path``."""
    with open(path, "rb") as fh:
        return read_pgm(fh.read())


def save_pgm(path: PathLike, image: GrayImage) -> None:
    """Write ``image`` to ``path`` as binary PGM."""
    with open(path, "wb") as fh:
        fh.writelines(pgm_parts(image))


def write_curve(curve: EntropyCurve) -> bytes:
    """Render a curve as UTF-8 text, one comma-separated row per threshold."""
    cols = (curve.t, curve.e_t, curve.e_i, curve.e_f, curve.total)
    row = "%.12g,%.12g,%.12g,%.12g,%.12g".__mod__
    lines = [CURVE_HEADER, *map(row, zip(*(c.tolist() for c in cols)))]
    return ("\n".join(lines) + "\n").encode("utf-8")


def save_curve(path: PathLike, curve: EntropyCurve) -> None:
    """Write ``curve`` to ``path`` with LF line endings."""
    with open(path, "wb") as fh:
        fh.write(write_curve(curve))


def parse_curve(data: bytes) -> CurveColumns:
    """Parse curve bytes back into column arrays."""
    lines = [ln.strip() for ln in data.decode("utf-8").splitlines() if ln.strip()]
    if not lines or lines[0] != CURVE_HEADER:
        raise ValueError(f"curve data must start with the header {CURVE_HEADER!r}")
    rows = []
    for ln in lines[1:]:
        parts = ln.split(",")
        if len(parts) != 5:
            raise ValueError(f"curve row has {len(parts)} fields, expected 5")
        rows.append([float(p) for p in parts])
    cols = np.array(rows, dtype=np.float64).reshape(-1, 5)
    return CurveColumns(*(cols[:, j] for j in range(5)))


def load_curve(path: PathLike) -> CurveColumns:
    """Read a curve file back into column arrays."""
    with open(path, "rb") as fh:
        return parse_curve(fh.read())
