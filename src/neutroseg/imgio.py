"""PGM codecs and the entropy-curve text format.

Both the ASCII (P2) and binary (P5) PGM flavors are decoded; emission is
always binary. Only 8-bit files are in scope, so maxval may not exceed
255. Curves are exchanged as comma-separated text with a fixed header line
and one row per candidate threshold, 12 significant digits per value.
"""

from __future__ import annotations

import os
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

# the bytes of a raster the vectorised P2 decode takes: decimal digits and
# the six bytes that bytes.isspace accepts
_PLAIN_RASTER = b"0123456789 \t\n\r\x0b\x0c"


class CurveColumns(NamedTuple):
    """Columns of a parsed curve file, each a float64 array."""

    t: np.ndarray
    e_t: np.ndarray
    e_i: np.ndarray
    e_f: np.ndarray
    total: np.ndarray


def _tokens(data: bytes, count: int) -> tuple[list[bytes], int]:
    """First ``count`` whitespace-separated header tokens, skipping # comments.

    Returns the tokens and the offset just past the last one.
    """
    out: list[bytes] = []
    i = 0
    n = len(data)
    while len(out) < count:
        while i < n and data[i : i + 1].isspace():
            i += 1
        if i < n and data[i] == 0x23:
            while i < n and data[i] not in (0x0A, 0x0D):
                i += 1
            continue
        start = i
        while i < n and not data[i : i + 1].isspace():
            i += 1
        if i == start:
            raise TruncatedData("header ended before all fields were read")
        out.append(data[start:i])
    return out, i


def _header_int(token: bytes, what: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise PgmError(f"malformed {what} field {token!r}") from None


def _plain_samples(raster: bytes, count: int, maxval: int) -> np.ndarray | None:
    """The first ``count`` samples of a P2 raster in one vectorised pass.

    Returns ``None`` unless the raster holds only digits and whitespace, at
    least ``count`` samples and none above ``maxval`` among them; the token
    loop in :func:`read_pgm` then decodes it, comments and errors included.
    """
    if raster.translate(None, _PLAIN_RASTER):
        return None
    digit = np.frombuffer(raster, dtype=np.uint8) >= 0x30
    tokens = int(digit[:1].sum()) + int(np.count_nonzero(digit[1:] > digit[:-1]))
    if tokens < count:
        return None
    # fromstring's length is not trusted (it reads a blank raster as [0]),
    # and it saturates a sample too large for int64, which the range test
    # below sends to the token loop
    levels = np.fromstring(raster, dtype=np.int64, sep=" ")
    if levels.size != tokens:
        return None
    levels = levels[:count]
    if count and int(levels.max()) > maxval:
        return None
    return levels.astype(np.uint8)


def read_pgm(data: bytes) -> GrayImage:
    """Decode PGM bytes (P2 or P5) into a gray image of depth maxval + 1."""
    if data[:2] not in (b"P2", b"P5"):
        raise BadMagic(f"not a PGM file (magic {data[:2]!r})")
    head, pos = _tokens(data, 4)
    magic = head[0]
    if magic not in (b"P2", b"P5"):
        raise BadMagic(f"not a PGM file (magic {magic!r})")
    width = _header_int(head[1], "width")
    height = _header_int(head[2], "height")
    maxval = _header_int(head[3], "maxval")
    if width < 0 or height < 0:
        raise PgmError("image dimensions must be nonnegative")
    if not 1 <= maxval <= _MAX_MAXVAL:
        raise MaxvalOutOfRange(f"maxval {maxval} outside [1, {_MAX_MAXVAL}]")
    count = width * height
    if magic == b"P2":
        levels = _plain_samples(data[pos:], count, maxval)
        if levels is None:
            toks, _ = _tokens(data, 4 + count)
            try:
                levels = np.array(
                    [_header_int(s, "sample") for s in toks[4:]], dtype=np.int64
                )
            except OverflowError:
                raise SampleOutOfRange(
                    "a sample does not fit a 64-bit integer"
                ) from None
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
        # the header checks above leave the sample range, which GrayImage
        # checks once, as the only failure
        raise SampleOutOfRange(f"sample {exc}") from None


def pgm_parts(image: GrayImage) -> tuple[bytes, memoryview]:
    """Header and raster of ``image`` (depth at most 256) as binary PGM.

    The raster is a view of the image's levels, not a copy; written one
    after the other, the two parts are the file.
    """
    maxval = image.depth - 1
    if maxval > _MAX_MAXVAL:
        raise MaxvalOutOfRange(f"depth {image.depth} does not fit an 8-bit file")
    header = f"P5\n{image.width} {image.height}\n{maxval}\n".encode("ascii")
    return header, memoryview(np.ascontiguousarray(image.levels, dtype=np.uint8))


def write_pgm(image: GrayImage) -> bytes:
    """Encode a gray image (depth at most 256) as binary PGM bytes."""
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
