"""Seeded inputs of the four workloads and their encoders.

Every image is a Gaussian mixture of two or three gray modes, in one of two
forms:

* exact (``large-p5``, ``p2-batch``): the level histogram is the mixture's
  expected count per level, rounded by largest remainder, and the seed draws
  the pixel layout. The histogram, and with it the thresholds and regions,
  is the same for every seed. These are the workloads that repaint: a
  sampled histogram can give a small region whose exact mean is half a
  level, where ``segment`` repaints one level low (see CHANGES.md, FOUND),
  which would fail the repaint check on some seeds only. None of the exact
  histograms below has such a region.
* sampled (``fine-grid``): the seed perturbs the mixture and the pixels are
  drawn from it, so every seed gives another curve. The first
  ``maxval + 1`` pixels form a ramp 0 .. maxval, so every level is occupied
  and the candidate and grid-cell counts do not depend on the seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

MAX_THRESHOLDS = 8
AXIOM_SAMPLES = 100_000

# (means, standard deviations, weights) on the unit gray scale
MIXTURES = {
    "a2": ((0.30, 0.72), (0.08, 0.06), (0.5, 0.5)),
    "b2": ((0.26, 0.66), (0.07, 0.09), (0.6, 0.4)),
    "a3": ((0.20, 0.50, 0.80), (0.06, 0.07, 0.05), (0.3, 0.4, 0.3)),
    "b3": ((0.15, 0.45, 0.78), (0.05, 0.08, 0.07), (0.25, 0.35, 0.4)),
}

P2_COMMENT = {
    "gimp": b"# CREATOR: GIMP PNM Filter Version 1.1\n",
    "netpbm": b"# written by pipebench\n",
}
# netpbm's plain writers keep lines under 70 characters: 17 samples of
# at most three digits plus separators
_NETPBM_PER_LINE = 17


@dataclass(frozen=True)
class ImageSpec:
    """One input image: its size, mixture, depth, file layout and grid."""

    side: int
    mixture: str
    maxval: int
    fmt: str  # "p5", or "gimp"/"netpbm" for the two P2 layouts
    q: int


@dataclass(frozen=True)
class Workload:
    """The operations one pass runs: a CLI command per image, or the axioms.

    ``passes`` is the number of in-process passes in an untraced round, before
    its one CLI pass; it keeps the in-process part of a round about as long as
    the CLI part, so that both metrics get many samples over a run.
    """

    name: str
    command: str  # "segment", "threshold" or "axioms"
    curve_out: bool
    passes: int
    sampled: bool = False
    images: tuple[ImageSpec, ...] = ()


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "large-p5",
            "segment",
            curve_out=False,
            passes=2,
            images=(
                ImageSpec(1024, "b2", 255, "p5", 255),
                ImageSpec(2048, "a3", 255, "p5", 255),
                ImageSpec(4096, "a2", 255, "p5", 255),
            ),
        ),
        Workload(
            "fine-grid",
            "threshold",
            curve_out=True,
            passes=3,
            sampled=True,
            images=(
                ImageSpec(256, "a2", 255, "p5", 4000),
                ImageSpec(384, "a3", 255, "p5", 1000),
                ImageSpec(512, "b3", 255, "p5", 4000),
                ImageSpec(512, "b2", 255, "p5", 1000),
            ),
        ),
        Workload(
            "p2-batch",
            "segment",
            curve_out=True,
            passes=3,
            images=(
                ImageSpec(128, "a2", 255, "gimp", 255),
                ImageSpec(192, "b3", 100, "netpbm", 255),
                ImageSpec(256, "b2", 100, "gimp", 255),
                ImageSpec(320, "a3", 255, "netpbm", 255),
                ImageSpec(384, "a2", 255, "gimp", 255),
                ImageSpec(512, "b3", 100, "netpbm", 255),
            ),
        ),
        Workload("axioms", "axioms", curve_out=False, passes=1),
    )
}


@dataclass
class Input:
    """A generated image, its encoded bytes and the file the CLI reads."""

    spec: ImageSpec
    levels: np.ndarray = field(repr=False)  # uint8, row-major
    data: bytes = field(repr=False)
    path: Path

    @property
    def depth(self) -> int:
        return self.spec.maxval + 1


def _level_cdf(means, sds, weights, maxval: int) -> np.ndarray:
    """Mixture mass below each boundary between adjacent levels."""
    edges = (np.arange(maxval) + 0.5) / maxval
    cdf = np.zeros(maxval)
    for m, s, w in zip(means, sds, weights):
        cdf += w * 0.5 * (1.0 + np.array([math.erf((e - m) / (s * math.sqrt(2.0))) for e in edges]))
    return cdf / sum(weights)


def exact_counts(spec: ImageSpec) -> np.ndarray:
    """Expected pixel count of every level, rounded by largest remainder."""
    n = spec.side * spec.side
    cdf = _level_cdf(*MIXTURES[spec.mixture], spec.maxval)
    expected = n * np.diff(np.concatenate(([0.0], cdf, [1.0])))
    counts = np.floor(expected).astype(np.int64)
    extra = np.argsort(counts - expected, kind="stable")[: n - counts.sum()]
    counts[extra] += 1
    return counts


def exact_levels(rng: np.random.Generator, spec: ImageSpec) -> np.ndarray:
    """The exact mixture histogram in a seeded pixel layout."""
    levels = np.repeat(np.arange(spec.maxval + 1, dtype=np.uint8), exact_counts(spec))
    rng.shuffle(levels)
    return levels


def sampled_levels(rng: np.random.Generator, spec: ImageSpec) -> np.ndarray:
    """Pixels drawn from a seeded perturbation of the mixture, ramp first."""
    means, sds, weights = (np.asarray(v) for v in MIXTURES[spec.mixture])
    k = means.size
    means = means + rng.uniform(-0.04, 0.04, k)
    sds = sds * rng.uniform(0.8, 1.25, k)
    weights = weights * rng.uniform(0.8, 1.25, k)
    n = spec.side * spec.side
    mode = np.searchsorted(np.cumsum(weights) / weights.sum(), rng.random(n))
    unit = means[mode] + sds[mode] * rng.standard_normal(n)
    np.clip(unit, 0.0, 1.0, out=unit)
    levels = np.floor(unit * spec.maxval + 0.5).astype(np.uint8)
    levels[: spec.maxval + 1] = np.arange(spec.maxval + 1, dtype=np.uint8)
    return levels


def encode(levels: np.ndarray, spec: ImageSpec) -> bytes:
    """PGM bytes in the layout ``spec.fmt`` names."""
    side = spec.side
    if spec.fmt == "p5":
        return b"P5\n%d %d\n%d\n" % (side, side, spec.maxval) + levels.tobytes()
    head = b"P2\n" + P2_COMMENT[spec.fmt] + b"%d %d\n%d\n" % (side, side, spec.maxval)
    samples = [str(v) for v in levels.tolist()]
    if spec.fmt == "gimp":
        lines = samples
    else:
        lines = [
            " ".join(samples[r * side + c : r * side + min(side, c + _NETPBM_PER_LINE)])
            for r in range(side)
            for c in range(0, side, _NETPBM_PER_LINE)
        ]
    return head + ("\n".join(lines) + "\n").encode("ascii")


def make_inputs(workload: Workload, seed: int, workdir: Path) -> list[Input]:
    """Generate, encode and write every input of ``workload`` for ``seed``."""
    make = sampled_levels if workload.sampled else exact_levels
    inputs = []
    for i, spec in enumerate(workload.images):
        levels = make(np.random.default_rng([seed, i]), spec)
        data = encode(levels, spec)
        path = workdir / f"in{i}.pgm"
        path.write_bytes(data)
        inputs.append(Input(spec, levels, data, path))
    return inputs
