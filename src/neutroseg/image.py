"""In-memory grayscale raster."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Iterator

import numpy as np

# indices per bincount or take call: both convert their indices to intp
# first, so working in chunks bounds that temporary at 512 KB whatever the
# image size, and keeps it in cache. A take covers 2 * _CHUNK pixels, one
# index per pair of levels. On a 4096^2 image (2-core x86 host), 2^16 gave
# the fastest level count plus render of 2^14 .. 2^18 (52 ms against
# 55-59 ms, medians of 3 fresh processes), and 2^18 raised the CLI's peak
# RSS from 61.7 to 63.3 MB.
_CHUNK = 1 << 16

# pixels per slice of a streamed repaint (GrayImage._lookup_slices), and
# bytes per chunk of a P5 file the CLI reads in two passes; the CLI holds a
# buffer of each. On a 4096^2 P5 (2-core x86 host), `segment --out` to
# /dev/null peaked at 31.4-31.5 MB RSS for 2^16, 31.6 for 2^18, 31.9 for
# 2^19, 32.5 for 2^20, 33.9 for 2^21 and 37.9 for 2^22, and took 0.36 s at
# 2^20 against 0.38-0.40 s at every other size (medians of 7 interleaved
# fresh processes, 5 for 2^21 and 2^22). Reading the file whole, it had
# peaked at 47.2-47.4 MB from 2^18 to 2^20.
_SLICE = 1 << 20


@dataclass(frozen=True, eq=False)
class GrayImage:
    """Flat, row-major raster of 8-bit gray levels.

    ``levels`` holds one integer per pixel in ``[0, depth)``; ``depth`` is the
    source quantization, 2 to 256 (256 for 8-bit data). The levels are
    stored as one contiguous ``uint8`` array, not copied when they already
    are one, and :attr:`level_counts` is computed once, so they must not be
    modified after construction. Per-pixel values derived from the levels
    are gathered from a per-level table with :meth:`lookup`, two pixels per
    index, through a 65536-entry table of level pairs.
    """

    width: int
    height: int
    levels: np.ndarray = field(repr=False)
    depth: int = 256

    def __post_init__(self):
        levels = np.asarray(self.levels)
        if not np.issubdtype(levels.dtype, np.integer):
            raise ValueError("levels must be an integer array")
        levels = levels.reshape(-1)
        if not 2 <= self.depth <= 256:
            raise ValueError(f"depth {self.depth} outside [2, 256]")
        if self.width < 0 or self.height < 0:
            raise ValueError("dimensions must be nonnegative")
        if levels.size != self.width * self.height:
            raise ValueError(
                f"levels has {levels.size} entries for a "
                f"{self.width}x{self.height} raster"
            )
        info = np.iinfo(levels.dtype)
        # scan only when the dtype can hold a value outside the range
        if levels.size and (info.min < 0 or info.max >= self.depth):
            lo, hi = int(levels.min()), int(levels.max())
            if lo < 0 or hi >= self.depth:
                raise ValueError(
                    f"values span [{lo}, {hi}], allowed [0, {self.depth - 1}]"
                )
        # lookup views the raster as byte pairs, which needs it contiguous
        levels = np.ascontiguousarray(levels, dtype=np.uint8)
        object.__setattr__(self, "levels", levels)

    @property
    def pixel_count(self) -> int:
        return self.width * self.height

    @cached_property
    def level_counts(self) -> np.ndarray:
        """Pixel count of every level 0 .. depth-1 (int64, read-only)."""
        counts = _count_levels([self.levels])[: self.depth]
        counts.flags.writeable = False
        return counts

    def lookup(self, table: np.ndarray) -> np.ndarray:
        """``table[levels]``: one entry of ``table`` per pixel, in its dtype.

        ``table`` is a numeric array with one value per level, ``depth``
        entries in all. Adjacent levels ``(a, b)`` index entry ``a + 256*b``
        of a 65536-entry table of level pairs, so each gathered index fills
        two pixels. An object table cannot be viewed as level pairs and
        raises ``TypeError``.
        """
        table = _check_table(table, self.depth)
        out = np.empty(self.levels.size, dtype=table.dtype)
        _gather(self.levels, table, _pair_table(table), out)
        return out

    def _lookup_slices(self, table: np.ndarray) -> Iterator[np.ndarray]:
        """:meth:`lookup` in consecutive slices of ``_SLICE`` pixels.

        See :func:`_lookup_chunks`.
        """
        levels = self.levels
        chunks = (levels[i : i + _SLICE] for i in range(0, levels.size, _SLICE))
        return _lookup_chunks(chunks, table, self.depth, min(_SLICE, levels.size))


def _check_table(table: np.ndarray, depth: int) -> np.ndarray:
    table = np.asarray(table)
    if table.shape != (depth,):
        raise ValueError(f"table has shape {table.shape}, expected ({depth},)")
    return table


def _count_levels(chunks: Iterable[np.ndarray]) -> np.ndarray:
    """Pixel count of every value 0 .. 255 over chunks of ``uint8`` levels."""
    counts = np.zeros(256, dtype=np.int64)
    for chunk in chunks:
        for start in range(0, chunk.size, _CHUNK):
            counts += np.bincount(chunk[start : start + _CHUNK], minlength=256)
    return counts


def _lookup_chunks(
    chunks: Iterable[np.ndarray], table: np.ndarray, depth: int, size: int
) -> Iterator[np.ndarray]:
    """``table[chunk]`` for each chunk of ``uint8`` levels below ``depth``.

    The table is checked, its pair table built and a buffer of ``size``
    entries, the largest chunk, allocated on the call, before the first
    chunk is asked for. Every chunk is gathered into that one buffer, so a
    result must be consumed before the next is requested.
    """
    table = _check_table(table, depth)
    pairs = _pair_table(table)
    buf = np.empty(size, dtype=table.dtype)

    def gathered() -> Iterator[np.ndarray]:
        for chunk in chunks:
            _gather(chunk, table, pairs, buf[: chunk.size])
            yield buf[: chunk.size]

    return gathered()


def _gather(
    levels: np.ndarray, table: np.ndarray, pairs: np.ndarray, out: np.ndarray
) -> None:
    """Write ``table[levels]`` into ``out``, two pixels per ``pairs`` index."""
    half = levels.size // 2
    # "<u2", not native uint16, so that levels (a, b) read as a + 256*b
    # on any host
    index = levels[: 2 * half].view("<u2")
    dest = out[: 2 * half].view(pairs.dtype)
    for start in range(0, half, _CHUNK):
        stop = start + _CHUNK
        # every index is in range, so "clip" never clips; unlike the
        # default "raise" it writes into out without a buffer
        np.take(pairs, index[start:stop], out=dest[start:stop], mode="clip")
    if levels.size % 2:
        out[-1] = table[levels[-1]]


def _pair_table(table: np.ndarray) -> np.ndarray:
    """Entry ``a + 256*b`` holds ``table[a]`` then ``table[b]``, as one void."""
    depth = table.size
    grid = np.zeros((256, 256, 2), dtype=table.dtype)
    grid[:, :depth, 0] = table
    grid[:depth, :, 1] = table[:, None]
    return grid.view(np.dtype((np.void, 2 * table.itemsize))).reshape(-1)
