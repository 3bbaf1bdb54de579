"""Shared synthetic-image builders and input helpers for the test suite."""

from __future__ import annotations

import os
import threading
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator

import numpy as np

from neutroseg import GrayImage


def unit_levels(image: GrayImage) -> np.ndarray:
    """Gray value of every pixel on the unit interval: level / (depth - 1)."""
    return image.levels.astype(np.float64) / (image.depth - 1)


def image_from_unit(values, depth: int = 256, width: int | None = None) -> GrayImage:
    """Quantize unit-interval grays into an image, rounding half away from zero."""
    u = np.asarray(values, dtype=np.float64).reshape(-1)
    levels = np.floor(u * (depth - 1) + 0.5).astype(np.int64)
    w = u.size if width is None else width
    return GrayImage(width=w, height=u.size // w, levels=levels, depth=depth)


def mixture_image(
    seed: int,
    means,
    sigmas,
    weights,
    pixels: int = 10_000,
    width: int = 100,
    depth: int = 256,
) -> GrayImage:
    """Image sampled from a clamped Gaussian mixture, one block per mode."""
    rng = np.random.default_rng(seed)
    counts = (np.asarray(weights, dtype=np.float64) * pixels).astype(int)
    counts[0] += pixels - counts.sum()
    parts = [
        np.clip(rng.normal(m, s, c), 0.0, 1.0)
        for m, s, c in zip(means, sigmas, counts)
    ]
    return image_from_unit(np.concatenate(parts), depth=depth, width=width)


def random_image(seed: int, width: int, height: int, depth: int = 256) -> GrayImage:
    rng = np.random.default_rng(seed)
    levels = rng.integers(0, depth, width * height)
    return GrayImage(width=width, height=height, levels=levels, depth=depth)


@contextmanager
def piped(path: Path, data: bytes) -> Iterator[str]:
    """A FIFO at ``path`` that a thread writes ``data`` to once it is opened.

    The reader may close it early, after an error, before all is written.
    """
    os.mkfifo(path)

    def write():
        try:
            path.write_bytes(data)
        except BrokenPipeError:
            pass

    writer = threading.Thread(target=write, daemon=True)
    writer.start()
    try:
        yield str(path)
    finally:
        writer.join(timeout=60)
    assert not writer.is_alive()
