"""In-memory grayscale raster."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

# pixels per bincount or take call: both convert their indices to intp
# first, so working in chunks bounds that temporary at 512 KB whatever the
# image size, and keeps it in cache (2^16 was fastest of 2^12 .. 2^18)
_CHUNK = 1 << 16


@dataclass(frozen=True, eq=False)
class GrayImage:
    """Flat, row-major raster of integer gray levels.

    ``levels`` holds one integer per pixel in ``[0, depth)``; ``depth`` is the
    source quantization (256 for 8-bit data). The levels are stored in the
    smallest unsigned dtype that holds ``depth - 1`` (``uint8`` for every
    PGM input). The array is not copied when it already has that dtype, and
    :attr:`level_counts` is computed once, so it must not be modified after
    construction. Per-pixel values derived from the levels are gathered from
    a per-level table with :meth:`lookup`.
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
        if self.depth < 2:
            raise ValueError("depth must be at least 2")
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
        # the smallest unsigned dtype that holds depth - 1
        levels = levels.astype(np.min_scalar_type(self.depth - 1), copy=False)
        object.__setattr__(self, "levels", levels)

    @property
    def pixel_count(self) -> int:
        return self.width * self.height

    @cached_property
    def level_counts(self) -> np.ndarray:
        """Pixel count of every level 0 .. depth-1 (int64, read-only)."""
        counts = np.zeros(self.depth, dtype=np.int64)
        for start in range(0, self.levels.size, _CHUNK):
            chunk = self.levels[start : start + _CHUNK]
            counts += np.bincount(chunk, minlength=self.depth)
        counts.flags.writeable = False
        return counts

    def lookup(self, table: np.ndarray) -> np.ndarray:
        """``table[levels]``: one entry of ``table`` per pixel, in its dtype.

        ``table`` holds one value per level, ``depth`` entries in all.
        """
        table = np.asarray(table)
        if table.shape != (self.depth,):
            raise ValueError(
                f"table has shape {table.shape}, expected ({self.depth},)"
            )
        out = np.empty(self.levels.size, dtype=table.dtype)
        for start in range(0, self.levels.size, _CHUNK):
            stop = start + _CHUNK
            # every level is below depth, so "clip" never clips; unlike the
            # default "raise" it writes into out without a buffer
            np.take(table, self.levels[start:stop], out=out[start:stop], mode="clip")
        return out
