"""PGM codecs and the entropy-curve text format.

Both the ASCII (P2) and binary (P5) PGM flavors are read: a P2 raster is
decoded by :mod:`neutroseg.plain` into P5, by :func:`_spill` alone, so every
reader reads P5; emission is always binary. Only 8-bit files are in scope,
so maxval may not exceed 255. Curves are exchanged as comma-separated text
with a fixed header line and one row per candidate threshold, 12
significant digits per value.
"""

from __future__ import annotations

import io
import os
import re
import shutil
import stat
import tempfile
from contextlib import contextmanager
from typing import Iterator, NamedTuple, Union

import numpy as np

from .errors import (
    BadMagic,
    MaxvalOutOfRange,
    PgmError,
    SampleOutOfRange,
    TruncatedData,
)
from . import image as image_mod
from . import plain
from .image import GrayImage, _count_levels
from .sweep import EntropyCurve

PathLike = Union[str, os.PathLike]

CURVE_HEADER = "t,e_T,e_I,e_F,E"

# one curve row: five fields of 12 significant digits, LF-terminated
_CURVE_ROW = "%.12g,%.12g,%.12g,%.12g,%.12g\n"

# rows per block of curve text; a block of 256 rows is about 20 KB
_CURVE_ROWS = 256

_MAX_MAXVAL = 255

# a header field: whitespace and comments, then bytes up to whitespace or #
_FIELD = re.compile(rb"(?:\s|#[^\r\n]*)*([^\s#]*)")


class CurveColumns(NamedTuple):
    """Columns of a parsed curve file, each a float64 array."""

    t: np.ndarray
    e_t: np.ndarray
    e_i: np.ndarray
    e_f: np.ndarray
    total: np.ndarray


def _fields(data: bytes) -> tuple[list[bytes], int]:
    """The four header fields (magic, width, height, maxval), as read so far.

    Returns the fields and the offset just past the last one. A field is
    empty only at the end of ``data``, and every field after it is too.
    """
    fields: list[bytes] = []
    pos = 0
    for _ in range(4):
        field = _FIELD.match(data, pos)
        fields.append(field[1])
        pos = field.end()
    return fields, pos


def _header(data: bytes) -> tuple[bytes, int, int, int, int]:
    """Magic, width, height and maxval of the PGM file ``data`` starts.

    Returns them, checked, and the offset just past maxval.
    """
    if data[:2] not in (b"P2", b"P5"):
        raise BadMagic(f"not a PGM file (magic {data[:2]!r})")
    fields, pos = _fields(data)
    if not all(fields):
        raise TruncatedData("header ended before all fields were read")
    magic = fields[0]
    if magic not in (b"P2", b"P5"):
        raise BadMagic(f"not a PGM file (magic {magic!r})")
    width = _header_int(fields[1], "width")
    height = _header_int(fields[2], "height")
    maxval = _header_int(fields[3], "maxval")
    if not 1 <= maxval <= _MAX_MAXVAL:
        raise MaxvalOutOfRange(f"maxval {maxval} outside [1, {_MAX_MAXVAL}]")
    return magic, width, height, maxval, pos


def _p5_start(data: bytes, pos: int, size: int, count: int) -> int:
    """Offset of the ``count``-byte raster of a P5 file of ``size`` bytes.

    ``data`` is the file's start, which holds maxval ending at ``pos`` and
    the byte after it, if the file has one.
    """
    if pos < size and not data[pos : pos + 1].isspace():
        raise PgmError("raster must be introduced by a whitespace byte")
    start = min(pos + 1, size)
    if size - start < count:
        raise TruncatedData(f"raster holds {size - start} bytes, expected {count}")
    return start


def _header_int(token: bytes, what: str) -> int:
    if token.isdigit():
        try:
            return int(token)
        except ValueError:  # decimal, but over int()'s digit limit
            pass
    raise PgmError(f"malformed {what} field {token!r}")


def read_pgm(data: bytes) -> GrayImage:
    """Decode PGM bytes (P2 or P5) into a gray image of depth maxval + 1."""
    # a P2 raster is spilled to P5 bytes in memory, which the levels view
    if data[:2] == b"P2":
        spill = io.BytesIO()
        _spill(io.BytesIO(data), spill)
        data = spill.getvalue()
    _, width, height, maxval, pos = _header(data)
    count = width * height
    start = _p5_start(data, pos, len(data), count)
    levels = np.frombuffer(data, dtype=np.uint8, count=count, offset=start)
    try:
        return GrayImage(width=width, height=height, levels=levels, depth=maxval + 1)
    except ValueError as exc:
        # the header checks above leave a P5 sample above maxval, which
        # GrayImage checks once, as the only failure
        raise SampleOutOfRange(f"sample {exc}") from None


def _p2_chunks(head: bytes, pos: int, fh) -> Iterator[bytes]:
    """``head`` from ``pos``, in slices as long as a read, then reads of ``fh``."""
    step = plain._P2_CHUNK
    yield from (head[i : i + step] for i in range(pos, len(head), step))
    while chunk := fh.read(step):
        yield chunk


class _P5File:
    """A P5 file's size, depth and level counts, its raster left in the file.

    The header is parsed and checked as :func:`read_pgm` does. Each pass
    over the raster reads it from the open file ``fh`` in chunks of
    ``_CHUNK`` bytes, into one buffer allocated here: the constructor makes
    the first pass, which counts the levels, and :meth:`_lookup_slices` the
    second, which repaints them, writing each chunk's new levels over that
    chunk in the buffer; so a part it yields is valid only until the next
    read. Memory does not grow with the image.
    """

    def __init__(self, fh):
        self.width, self.height, maxval, self._start = _p5_header(fh)
        self.depth = maxval + 1
        self.pixel_count = self.width * self.height
        self._fh = fh
        self._buf = np.empty(min(image_mod._CHUNK, self.pixel_count), np.uint8)
        counts = _count_levels(self._chunks())
        occupied = np.flatnonzero(counts)
        if occupied.size and occupied[-1] > maxval:
            raise plain._out_of_range(int(occupied[0]), int(occupied[-1]), maxval)
        self.level_counts = counts[: self.depth]
        self.level_counts.flags.writeable = False

    def _chunks(self) -> Iterator[np.ndarray]:
        """The raster, a chunk at a time, each valid until the next is read."""
        self._fh.seek(self._start)
        count, done = self.pixel_count, 0
        while done < count:
            n = self._fh.readinto(self._buf[: count - done])
            if not n:
                raise TruncatedData(f"raster holds {done} bytes, expected {count}")
            done += n
            yield self._buf[:n]

    def _lookup_slices(self, table: np.ndarray) -> Iterator[np.ndarray]:
        """``table[levels]``, a ``uint8`` table, repainted in the read buffer."""
        table = image_mod._check_table(table, self.depth)
        pairs = image_mod._pair_table(table)
        for chunk in self._chunks():
            # the raster may have changed since the first pass
            if self.depth < 256 and chunk.max() >= self.depth:
                raise PgmError("raster changed while it was read")
            yield image_mod._gather(chunk, table, pairs, chunk)


def _p5_header(fh) -> tuple[int, int, int, int]:
    """Width, height, maxval and raster offset of the P5 file ``fh``, checked."""
    fh.seek(0)
    head = _head(fh)
    _, width, height, maxval, pos = _header(head)
    size = os.fstat(fh.fileno()).st_size
    return width, height, maxval, _p5_start(head, pos, size, width * height)


def _head(fh) -> bytes:
    """What ``fh`` (a file or a pipe) holds next, up to past maxval or its end."""
    head = fh.read(image_mod._CHUNK)
    # maxval ends before the end of what was read, or at the file's end
    while _fields(head)[1] == len(head) and (more := fh.read(len(head))):
        head += more
    return head


def _magic(fh) -> bytes:
    """The first two bytes of ``fh`` if it is a regular file, else ``b""``; no seek."""
    if not stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
        return b""
    return os.pread(fh.fileno(), 2, 0)


def _spill(fh, spill) -> None:
    """Write the PGM read from ``fh`` to ``spill`` as P5: a P5 copied, a P2 decoded."""
    # every reader's P2 raster is decoded here, and only here
    head = _head(fh)
    magic, width, height, maxval, pos = _header(head)
    if magic == b"P5":
        spill.write(head)
        shutil.copyfileobj(fh, spill)
        return
    spill.write(_pgm_header(width, height, maxval + 1))
    chunks = _p2_chunks(head, pos, fh)
    spill.writelines(plain._p2_levels(chunks, width * height, maxval))


@contextmanager
def _p5_file(path: PathLike) -> Iterator:
    """The PGM file at ``path`` if it is a P5 regular file, else a P5 spill of it."""
    # a P2 file or a pipe is spilled to an unnamed temporary file, so the
    # command line holds no input whole; unbuffered, each read of ``path``
    # goes straight into the buffer it is read into
    with open(path, "rb", buffering=0) as fh:
        if _magic(fh) == b"P5":
            yield fh
        else:
            with tempfile.TemporaryFile() as spill:
                _spill(fh, spill)
                yield spill


def pgm_parts(image: GrayImage) -> tuple[bytes, memoryview]:
    """Header and raster of ``image`` as binary PGM.

    The raster is a view of the image's levels (always contiguous
    ``uint8``), not a copy; written one after the other, the two parts are
    the file.
    """
    return _pgm_header(image.width, image.height, image.depth), memoryview(image.levels)


def _pgm_header(width: int, height: int, depth: int) -> bytes:
    """The binary PGM header of an image of this size and depth."""
    return f"P5\n{width} {height}\n{depth - 1}\n".encode("ascii")


def write_pgm(image: GrayImage) -> bytes:
    """Encode a gray image as binary PGM bytes."""
    return b"".join(pgm_parts(image))


def load_pgm(path: PathLike) -> GrayImage:
    """Read a PGM file from ``path``; a P2 file or a pipe is spilled as the CLI does."""
    with _p5_file(path) as fh:
        fh.seek(0)
        return read_pgm(fh.read())


def save_pgm(path: PathLike, image: GrayImage) -> None:
    """Write ``image`` to ``path`` as binary PGM."""
    with open(path, "wb") as fh:
        fh.writelines(pgm_parts(image))


def _curve_parts(curve: EntropyCurve) -> Iterator[bytes]:
    """The curve text, encoded: the header line, then blocks of ``_CURVE_ROWS`` rows.

    Each block is formatted from its own slice of the columns, so a writer
    that takes one part at a time holds one block of text, never the whole.
    """
    yield f"{CURVE_HEADER}\n".encode("utf-8")
    cols = (curve.t, curve.e_t, curve.e_i, curve.e_f, curve.total)
    for a in range(0, len(curve), _CURVE_ROWS):
        block = np.column_stack([col[a : a + _CURVE_ROWS] for col in cols])
        # one % per block, on the row format repeated once per row
        text = (_CURVE_ROW * len(block)) % tuple(block.ravel().tolist())
        yield text.encode("utf-8")


def write_curve(curve: EntropyCurve) -> bytes:
    """Render a curve as UTF-8 text, one comma-separated row per threshold.

    The result joins the parts :func:`save_curve` writes, so the two give
    the same bytes; this one holds the whole text at once.
    """
    return b"".join(_curve_parts(curve))


def save_curve(path: PathLike, curve: EntropyCurve) -> None:
    """Write ``curve`` to ``path`` with LF line endings.

    The text is formatted and written a block of ``_CURVE_ROWS`` rows at a
    time; a block's text is released when the next block's replaces it, so
    the whole text is never held. A failure part way leaves the rows
    written so far in the file.
    """
    with open(path, "wb") as fh:
        fh.writelines(_curve_parts(curve))


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
