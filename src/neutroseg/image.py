"""In-memory grayscale raster."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Iterator

import numpy as np

from .errors import _integer

# pixels per pass of every per-pixel loop: a count of the level pairs, a
# gather of their table entries (the count copies a chunk's pairs into one
# intp buffer of _CHUNK // 2 entries, 256 KB, beside a 512 KB table of pair
# counts; take converts its pair indices to intp, at most 256 KB, so all of
# it stays in cache), and a read of the P5 file the CLI reads every input
# from, which its repaint overwrites in place. On a 4096^2 P5 (2-core x86
# host), `segment --out` to /dev/null peaked at 31.3-31.5 MB RSS for 2^14 to
# 2^16, 31.5 for 2^17, 31.7 for 2^18 and 38.5 for 2^20, and its wall time
# was 0.37-0.39 s at every size (medians of 9 interleaved fresh processes,
# counted then by one bincount per chunk). 2^16 had been the fastest level
# count plus render of 2^14 .. 2^18 (52 ms against 55-59 ms), so it stays.
_CHUNK = 1 << 16


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
        for name in ("width", "height", "depth"):
            object.__setattr__(self, name, _integer(name, getattr(self, name)))
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
        counts = _count_levels(_chunks(self.levels))[: self.depth]
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
        pairs = _pair_table(table)
        out = np.empty(self.levels.size, dtype=table.dtype)
        for chunk, dest in zip(_chunks(self.levels), _chunks(out)):
            _gather(chunk, table, pairs, dest)
        return out


def _check_table(table: np.ndarray, depth: int) -> np.ndarray:
    table = np.asarray(table)
    if table.shape != (depth,):
        raise ValueError(f"table has shape {table.shape}, expected ({depth},)")
    return table


def _chunks(array: np.ndarray) -> Iterator[np.ndarray]:
    """Consecutive slices of ``_CHUNK`` entries of a flat array, the last shorter."""
    return (array[i : i + _CHUNK] for i in range(0, array.size, _CHUNK))


def _count_levels(chunks: Iterable[np.ndarray]) -> np.ndarray:
    """Pixel count of every value 0 .. 255 over chunks of ``uint8`` levels.

    Two pixels per increment: each chunk's level pairs, copied into one
    256 KB ``intp`` buffer, are counted in a 512 KB table of pair counts,
    which is folded into the level counts at the end.
    """
    pairs = np.zeros(1 << 16, dtype=np.int64)
    counts = np.zeros(256, dtype=np.int64)
    buf = np.empty(_CHUNK // 2, dtype=np.intp)
    for chunk in chunks:
        pair_levels, odd = _level_pairs(chunk)
        # an aligned intp copy: add.at on the "<u2" view itself is slower
        # when the raster starts at an odd address, as read_pgm's may
        index = buf[: pair_levels.size]
        index[...] = pair_levels
        np.add.at(pairs, index, 1)
        if odd.size:
            counts[odd[0]] += 1
    grid = pairs.reshape(256, 256)  # entry [b, a] counts the pair (a, b)
    return counts + grid.sum(axis=0) + grid.sum(axis=1)


def _gather(
    levels: np.ndarray, table: np.ndarray, pairs: np.ndarray, out: np.ndarray
) -> np.ndarray:
    """``out`` filled with ``table[levels]``, two pixels per ``pairs`` index."""
    index, odd = _level_pairs(levels)
    even = 2 * index.size
    # every index is in range, so "clip" never clips; unlike the default
    # "raise" it writes into out without a buffer
    np.take(pairs, index, out=out[:even].view(pairs.dtype), mode="clip")
    if odd.size:
        out[-1] = table[odd[0]]
    return out


def _level_pairs(levels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``uint8`` levels viewed as one index per pair, and the odd last level.

    ``"<u2"``, not native ``uint16``, so that levels ``(a, b)`` read as
    ``a + 256*b`` on any host. The odd last level is an array of one level,
    or of none when there are evenly many.
    """
    even = levels.size - levels.size % 2
    return levels[:even].view("<u2"), levels[even:]


def _pair_table(table: np.ndarray) -> np.ndarray:
    """Entry ``a + 256*b`` holds ``table[a]`` then ``table[b]``, as one void."""
    depth = table.size
    grid = np.zeros((256, 256, 2), dtype=table.dtype)
    grid[:, :depth, 0] = table
    grid[:depth, :, 1] = table[:, None]
    return grid.view(np.dtype((np.void, 2 * table.itemsize))).reshape(-1)
