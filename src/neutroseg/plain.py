"""The decoder of plain (P2) PGM rasters, the one every read path uses.

It is called by :func:`_spill <neutroseg.imgio._spill>` alone, on the
reads of a file, a pipe or, for ``read_pgm``, the bytes it is given; the
levels it yields are written to a P5 spill, in memory for ``read_pgm`` and
to an unnamed temporary file for ``load_pgm`` and the command line. A
raster is decoded in pieces of about ``_P2_CHUNK`` bytes, each cut at a
whitespace byte outside any comment, straight into ``uint8`` levels that
are yielded piece by piece, so the decoder's temporaries scale with a
piece, not with the image.
"""

from __future__ import annotations

import re
from typing import Iterable, Iterator

import numpy as np

from .errors import PgmError, SampleOutOfRange, TruncatedData

# a comment runs from any # to the end of its line, in a raster too
_COMMENT = re.compile(rb"#[^\r\n]*")

# the bytes of a valid P2 raster once comments are blanked: decimal digits
# and the six bytes that bytes.isspace (and the regex \s) accepts
_PLAIN_RASTER = b"0123456789 \t\n\r\x0b\x0c"

# the first raster token that holds a byte _PLAIN_RASTER lacks
_BAD_SAMPLE = re.compile(rb"(?<!\S)\S*?[^\d\s]\S*")

# the whitespace bytes but the line endings, which end a comment
_BLANKS = (b" ", b"\t", b"\x0b", b"\x0c")

# bytes per chunk of a P2 raster, and per read of a P2 file: the decoder's
# temporaries (a few bytes per raster byte) scale with it, not with the
# image. On a 2048^2 P2 file of 14.3 MiB (2-core x86 host), read_pgm took
# 97 ms at 2^15, 78 ms at 2^16 and 72-76 ms from 2^17 to 2^20, against
# 221 ms reading the whole raster with np.fromstring (medians of 9
# interleaved rounds); 2^17 is the smallest size on the flat part. Its
# tracemalloc peak was 5.0 MiB, 4.0 of them the levels, against 60.5 MiB.
_P2_CHUNK = 1 << 17


def _out_of_range(lo: int, hi: int, maxval: int) -> SampleOutOfRange:
    return SampleOutOfRange(
        f"sample values span [{lo}, {hi}], allowed [0, {maxval}]"
    )


def _p2_levels(
    chunks: Iterable[bytes], count: int, maxval: int
) -> Iterator[np.ndarray]:
    """The first ``count`` samples of a P2 raster, in ``uint8`` pieces <= maxval.

    ``chunks`` are the raster's bytes in order from the byte after maxval,
    split anywhere, each ``bytes`` or a ``bytearray`` reused once the next
    is asked for. A fault is raised after the last piece.
    """
    filled, lo, hi = 0, np.iinfo(np.int64).max, 0
    bad = None
    pieces = _p2_pieces(chunks)
    while filled < count and not bad and (piece := next(pieces, b"")):
        # the translate check is cheap; the regexes run only when it fires
        odd = piece.translate(None, _PLAIN_RASTER)
        if b"#" in odd:
            piece = _COMMENT.sub(b" ", piece)
            odd = piece.translate(None, _PLAIN_RASTER)
        bad = odd and _BAD_SAMPLE.search(piece)
        if bad:
            piece = piece[: bad.start()]
        samples = _piece_samples(piece, count - filled)
        if samples.size:
            filled += samples.size
            lo = min(lo, int(samples.min()))
            hi = max(hi, int(samples.max()))
            if hi <= maxval:
                yield samples.astype(np.uint8)
    if filled < count:
        if bad:
            raise PgmError(f"malformed sample field {bad[0]!r}")
        raise TruncatedData(f"raster holds {filled} samples, expected {count}")
    if hi > maxval:
        # a sample too large for int64 is read as its maximum, which the
        # file does not hold
        if hi == np.iinfo(np.int64).max:
            raise SampleOutOfRange(f"a sample exceeds maxval {maxval}")
        raise _out_of_range(lo, hi, maxval)


def _p2_pieces(chunks: Iterable[bytes]) -> Iterator[bytes]:
    """The raster in ``chunks``, cut again where each piece can be decoded alone.

    Every piece starts at a whitespace byte or a comment and, but for the
    last one, ends with the last whitespace byte outside any comment that
    its chunk holds; the next piece starts at that byte. The bytes after
    it are carried into the next piece, and a chunk that holds no such
    byte (inside a long comment or token) is kept whole, once, until one
    that does arrives.
    """
    carry: list[bytes] = []
    commented = False  # whether the carried bytes end inside a comment
    for chunk in chunks:
        cut, commented = _last_cut(chunk, commented)
        if cut < 0:
            carry.append(bytes(chunk))
            continue
        with memoryview(chunk) as view:
            piece = b"".join([*carry, view[: cut + 1]])
            carry = [bytes(view[cut:])]
        yield piece
    if carry:
        yield b"".join(carry)


def _last_cut(chunk: bytes, commented: bool) -> tuple[int, bool]:
    """The last whitespace byte of ``chunk`` outside any comment, or -1.

    ``commented`` says whether the chunk starts inside a comment; the
    result says it of the chunk's end.
    """
    eol = max(chunk.rfind(b"\n"), chunk.rfind(b"\r"))
    if eol < 0 and commented:
        return -1, True
    # the last line starts outside any comment, and a # on it starts one
    line = eol + 1
    hash_ = chunk.find(b"#", line)
    stop = hash_ if hash_ >= 0 else len(chunk)
    blank = max(chunk.rfind(b, line, stop) for b in _BLANKS)
    return max(blank, eol), hash_ >= 0


def _piece_samples(piece: bytes, limit: int) -> np.ndarray:
    """The first ``limit`` samples of a piece of digits and whitespace.

    The piece starts with a whitespace byte. A sample of up to three digits
    is ``d[e] + 10*d[e-1] + 100*d[e-2]`` at its last digit ``e``, each term
    counted only when its byte is a digit of the same token. A piece holding
    a longer token (leading zeros, or a value above 999) is read exactly.
    """
    u = np.frombuffer(piece, dtype=np.uint8)
    digit = u >= 0x30
    ends = np.flatnonzero(digit[:-1] > digit[1:])
    if digit[-1:].any():
        ends = np.append(ends, u.size - 1)
    ends = ends[:limit]
    if not ends.size:
        return ends
    # the digits these samples hold, to compare with those they would hold
    # if none had more than three
    digits = np.count_nonzero(digit[: ends[-1] + 1])
    ones = np.take(u, ends)
    # ends >= 1, since u[0] is blank; index -1 is read only when u[0] is
    # the tens byte, so its hundreds term never counts. ends is shifted in
    # place for the tens and hundreds bytes, not copied twice
    ends -= 1
    tens = np.take(u, ends)
    ends -= 1
    hundreds = np.take(u, ends)
    has_tens = tens >= 0x30
    has_hundreds = has_tens & (hundreds >= 0x30)
    short = ends.size + np.count_nonzero(has_tens) + np.count_nonzero(has_hundreds)
    if digits > short:
        return np.fromstring(piece, dtype=np.int64, count=ends.size, sep=" ")
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
