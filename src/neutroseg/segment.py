"""Assign pixels to threshold regions and render the segmented image."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    EmptyImage,
    ThresholdOutOfRange,
    UnsortedThresholds,
)
from .image import GrayImage


@dataclass(frozen=True, eq=False)
class Segmentation:
    """Region of every gray level plus the replacement gray of each region.

    Region 0 is [0, t1]; region j is (t_j, t_{j+1}]; the last region is
    (t_k, 1]. ``level_labels`` holds the region of each level 0 .. depth-1
    of the image segmented, so ``image.lookup(level_labels)`` is the region
    of each of its pixels. A region's value is the mean unit gray of its
    pixels, or the midpoint of its interval when it holds no pixels.
    ``region_levels`` is that value as an integer level of the image's
    depth: ``(2*S + C) // (2*C)`` for a region of ``C`` pixels whose levels
    sum to ``S`` (the exact mean, halves rounded up), the midpoint rounded
    half away from zero for an empty region.
    """

    thresholds: np.ndarray
    level_labels: np.ndarray
    region_values: np.ndarray
    region_counts: np.ndarray
    region_levels: np.ndarray


def _check_thresholds(thresholds: np.ndarray) -> np.ndarray:
    ts = np.asarray(thresholds, dtype=np.float64).reshape(-1)
    # written so that NaN, for which every comparison is false, fails it
    if not np.all((ts > 0.0) & (ts < 1.0)):
        raise ThresholdOutOfRange("thresholds must lie strictly inside (0, 1)")
    if np.any(np.diff(ts) <= 0.0):
        raise UnsortedThresholds("thresholds must be strictly increasing")
    return ts


def segment(image: GrayImage, thresholds: np.ndarray) -> Segmentation:
    """Partition ``image`` by ``thresholds`` (strictly increasing, in (0, 1)).

    An empty threshold list is allowed and yields a single region covering
    the whole gray range. Only the image's ``depth``, ``pixel_count`` and
    ``level_counts`` are read, so the CLI passes a P5 file it has counted
    but not held.
    """
    ts = _check_thresholds(thresholds)
    if image.pixel_count == 0:
        raise EmptyImage("cannot segment an image with no pixels")
    top = image.depth - 1
    level = np.arange(image.depth, dtype=np.int64)
    level_labels = np.searchsorted(ts, level / top, side="left")
    regions = ts.size + 1
    counts = np.zeros(regions, dtype=np.int64)
    sums = np.zeros(regions, dtype=np.int64)
    np.add.at(counts, level_labels, image.level_counts)
    np.add.at(sums, level_labels, image.level_counts * level)
    bounds = np.concatenate(([0.0], ts, [1.0]))
    mids = (bounds[:-1] + bounds[1:]) / 2.0
    full = counts > 0
    c = np.maximum(counts, 1)
    values = np.where(full, sums / (c * top), mids)
    # integer level sums make the rounding of a half-level mean exact
    paint = np.where(full, (2 * sums + c) // (2 * c), np.floor(mids * top + 0.5))
    return Segmentation(
        thresholds=ts,
        level_labels=level_labels,
        region_values=values,
        region_counts=counts,
        region_levels=paint.astype(np.uint8),
    )


def _level_paint(seg: Segmentation) -> np.ndarray:
    """The level that each gray level 0 .. depth-1 is repainted with."""
    return seg.region_levels[seg.level_labels]


def render(seg: Segmentation, image: GrayImage) -> GrayImage:
    """Replace every pixel of ``image`` with its region's level.

    ``image`` must have the pixel count and depth of the image ``seg`` was
    made from; the regions are those of its own gray levels.
    """
    if seg.region_counts.sum() != image.pixel_count:
        raise DimensionMismatch("segmentation does not match the image size")
    if seg.level_labels.size != image.depth:
        raise DimensionMismatch("segmentation does not match the image depth")
    return GrayImage(
        width=image.width,
        height=image.height,
        levels=image.lookup(_level_paint(seg)),
        depth=image.depth,
    )
