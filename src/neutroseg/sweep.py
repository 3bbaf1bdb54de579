"""Histogram construction, candidate enumeration, entropy sweep and minima.

The image's gray multiset is represented by a histogram over the quantized
grid {0, 1/q, ..., q/q}. For every candidate threshold on that grid strictly
inside the occupied range, the per-level entropies are averaged with the
truth/neutrality/falsity degrees as weights, and the segmentation thresholds
are read off the local minima of the resulting total-entropy curve. The
sweep evaluates the ``core`` formulas on the occupied-bins x candidates grid;
:func:`partial_entropies` is the scalar reference it is tested against.

Every candidate between two occupied bins splits the histogram the same way,
so such a group of candidates shares its class means ``v1`` and ``v2``; a new
group starts wherever a class gains or loses a bin. Truth, falsity and the
nearer-mean dissimilarity depend on the class means only, so the sweep
evaluates them once per group in each block and repeats them across the
group's columns; neutrality and everything after it depend on the threshold
and are evaluated per cell, in C-ordered arrays like the rest of the block.

Each weighted mean is a ratio of column sums, weighted entropies over weights:
every block writes the sums of its columns with ``np.einsum``, and the curve
divides them once after the last block. On a C-ordered block at least two
columns wide, einsum loops over the rows outermost and adds ``c*w``, or
``(c*w)*e``, into each sum level by level, rounding each multiply and add
apart: the order of :func:`partial_entropies`, which the tests compare by
``==``. It reduces a lone or F-ordered column in vector lanes, which would
change the curve's last bits, and so would an einsum that fused multiply-add
(numpy's x86-64 baseline kernels do not).

The grid is evaluated in blocks of consecutive candidate columns, as many as
fit in ``_BLOCK_CELLS`` cells, so the sweep's memory does not grow with ``q``
beyond its O(q) per-candidate arrays; ``MAX_Q`` caps those. Every block is at
least two columns wide, so the curve is the same for every block size.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import memberships, neutrality, neutro_components, neutro_entropy
from .errors import (
    ConstantImage,
    EmptyImage,
    NoCandidates,
    ThresholdOutOfRange,
    _integer,
)
from .image import GrayImage

# weight mass below this yields a zero partial entropy
ZERO_MASS = 1e-12

# largest accepted grid; the README gives the sweep's time and memory at this q
MAX_Q = 65536

# grid cells per block of candidate columns (128 KB per float64 temporary); at
# 2^15 the sweep ran about 4% faster, but its freed blocks kept about 2 MB more
# heap resident for the rest of a CLI run
_BLOCK_CELLS = 1 << 14


@dataclass(frozen=True, eq=False)
class Histogram:
    """Pixel counts over the quantized gray grid; bin k holds value k / q."""

    q: int
    counts: np.ndarray = field(repr=False)
    total: int

    def values(self) -> np.ndarray:
        """Gray value of every bin, ascending."""
        return np.arange(self.q + 1, dtype=np.float64) / self.q

    def occupied(self) -> np.ndarray:
        """Indices of nonempty bins, ascending."""
        return np.flatnonzero(self.counts)


@dataclass(frozen=True, eq=False)
class ClassStats:
    """Means and populations of the two classes split by threshold ``t``.

    A bin whose value equals ``t`` exactly belongs to both classes.
    """

    t: float
    v1: float
    v2: float
    n1: int
    n2: int


@dataclass(frozen=True, eq=False)
class EntropyCurve:
    """Sampled entropy rows (t, e_t, e_i, e_f, total) over the candidate grid."""

    q: int
    t: np.ndarray
    e_t: np.ndarray
    e_i: np.ndarray
    e_f: np.ndarray
    total: np.ndarray

    def __len__(self) -> int:
        return self.t.size


@dataclass(frozen=True, eq=False)
class ThresholdSet:
    """Selected thresholds, ascending; flagged when no interior minimum existed."""

    thresholds: np.ndarray
    fallback_used: bool


def build_histogram(image: GrayImage, q: int = 255) -> Histogram:
    """Histogram of ``image`` quantized to the grid {0, 1/q, ..., 1}.

    A pixel with integer level L lands in bin round(L * q / (depth - 1)),
    rounding halves away from zero. ``q`` is an integer from 2 to ``MAX_Q``,
    stored as an ``int``; a non-integer raises ``ValueError``. Only the
    image's ``depth``, ``pixel_count`` and ``level_counts`` are read.
    """
    q = _integer("q", q)
    if q < 2:
        raise ValueError("q must be at least 2")
    if q > MAX_Q:
        raise ValueError(f"q must be at most {MAX_Q}")
    if image.pixel_count == 0:
        raise EmptyImage("cannot build a histogram from an empty image")
    # the bin rule evaluated once per level, not once per pixel
    scaled = np.arange(image.depth, dtype=np.int64) * q / (image.depth - 1)
    bins = np.floor(scaled + 0.5).astype(np.int64)
    counts = np.zeros(q + 1, dtype=np.int64)
    np.add.at(counts, bins, image.level_counts)
    return Histogram(q=q, counts=counts, total=int(counts.sum()))


def class_stats(hist: Histogram, t: float) -> ClassStats:
    """Class means/populations on both sides of ``t`` (interior to the range)."""
    occ = hist.occupied()
    vals = hist.values()
    if occ.size == 0:
        raise ThresholdOutOfRange("histogram is empty")
    lo = vals[occ[0]]
    hi = vals[occ[-1]]
    if not lo < t < hi:
        raise ThresholdOutOfRange(
            f"threshold {t} is not strictly inside the occupied range ({lo}, {hi})"
        )
    low = vals <= t
    high = vals >= t
    bins = np.arange(hist.q + 1, dtype=np.int64)
    n1 = int(hist.counts[low].sum())
    n2 = int(hist.counts[high].sum())
    # integer numerators keep the means exactly rounded, so every evaluation
    # order produces the same double
    v1 = float((hist.counts[low] * bins[low]).sum() / (n1 * hist.q))
    v2 = float((hist.counts[high] * bins[high]).sum() / (n2 * hist.q))
    return ClassStats(t=float(t), v1=v1, v2=v2, n1=n1, n2=n2)


def _candidate_indices(hist: Histogram) -> np.ndarray:
    occ = hist.occupied()
    if occ.size < 2:
        raise ConstantImage("constant image: fewer than two distinct gray levels")
    return np.arange(occ[0] + 1, occ[-1], dtype=np.int64)


def candidate_thresholds(hist: Histogram) -> np.ndarray:
    """Grid points k/q strictly between the occupied extremes, ascending.

    May be empty (adjacent occupied bins leave no grid point in between).
    """
    return _candidate_indices(hist).astype(np.float64) / hist.q


def partial_entropies(hist: Histogram, t: float) -> tuple[float, float, float]:
    """Truth-, neutrality- and falsity-weighted mean entropies at threshold ``t``.

    Scalar reference path; the sweep in :func:`entropy_curve` must agree with
    it at every candidate. A weight mass below ``ZERO_MASS`` yields 0 for
    that partial entropy.
    """
    stats = class_stats(hist, t)
    occ = hist.occupied()
    vals = hist.values()[occ]
    cnts = hist.counts[occ]
    sums = [[0.0, 0.0], [0.0, 0.0], [0.0, 0.0]]
    for x, c in zip(vals, cnts):
        triple = neutro_components(x, stats.v1, stats.v2, t)
        e = neutro_entropy(*triple)
        for acc, w in zip(sums, triple):
            cw = c * w
            acc[0] += cw * e
            acc[1] += cw
    return tuple(num / den if den >= ZERO_MASS else 0.0 for num, den in sums)


def _class_means(
    hist: Histogram, ks: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Class means ``v1``, ``v2`` at the candidates ``ks``, and their group starts.

    ``starts`` marks every candidate where ``n1`` or ``n2`` changes, so a group
    of candidates that share both, hence ``v1`` and ``v2``, starts there. The
    O(q) prefix sums and populations are locals, freed before the sweep runs.
    """
    # prefix sums stay in int64 so each class mean is a single exact
    # integer ratio rounded once
    cum_n = np.cumsum(hist.counts)
    cum_k = np.cumsum(hist.counts * np.arange(hist.q + 1, dtype=np.int64))
    n1 = cum_n[ks]
    n2 = cum_n[-1] - cum_n[ks - 1]
    v1s = cum_k[ks] / (n1 * hist.q)
    v2s = (cum_k[-1] - cum_k[ks - 1]) / (n2 * hist.q)
    starts = (np.diff(n1, prepend=0) != 0) | (np.diff(n2, prepend=0) != 0)
    return v1s, v2s, starts


def entropy_curve(hist: Histogram) -> EntropyCurve:
    """Evaluate the entropy sweep at every candidate threshold.

    The occupied-bins x candidates grid is split into blocks of consecutive
    columns: as many as fit in ``_BLOCK_CELLS`` cells, but at least two, and
    the rest in a last block. A lone last column joins the block before it,
    because einsum would sum it in another order (see the module docstring).
    So every block size gives the same bits.

    Candidates with the same class populations ``n1``, ``n2`` form a group
    that shares ``v1`` and ``v2``. Each block evaluates :func:`memberships`
    on one column per group it holds and expands the results with
    ``np.repeat(..., axis=1)``, which keeps them C-ordered; a fancy-indexed
    ``m[:, idx]`` would come out F-ordered and be summed in another order. A
    block whose groups are all one column wide, as at q = depth - 1 where every
    level is occupied, uses the results as they are.
    """
    ks = _candidate_indices(hist)
    if ks.size == 0:
        raise NoCandidates(
            "no quantized threshold lies strictly between the occupied extremes"
        )
    v1s, v2s, starts = _class_means(hist, ks)
    ts = ks / hist.q
    occ = hist.occupied()
    # rows are occupied bins, columns candidates
    c = hist.counts[occ].astype(np.float64)
    x = (occ / hist.q)[:, None]
    # weighted entropy sums and weight masses, rows T, I, F
    num, den = np.empty((3, ks.size)), np.empty((3, ks.size))
    # every block but the last has one width, so the temporaries one block
    # frees fit the next block's; with two widths taking turns, the heap
    # fragmented and a CLI run at q=4000 peaked up to 1.6 MB higher
    width = max(2, _BLOCK_CELLS // occ.size)
    edges = [*range(0, ks.size, width), ks.size]
    if len(edges) > 2 and edges[-1] - edges[-2] == 1:
        del edges[-2]
    # memberships are evaluated at the start of every group and every
    # block, and repeated up to the next start
    starts[edges[:-1]] = True
    cols = np.flatnonzero(starts)
    widths = np.diff(cols, append=ks.size)
    at = np.searchsorted(cols, edges)
    # a block's arrays are released as the next block's replace them, so at
    # most two blocks are alive at once. Released at the end of their own
    # block, they left the top of the heap free, glibc gave it back to the
    # system and the next block faulted it in again: at q=4000 in a fresh
    # process the sweep took 16,600 page faults instead of about 400, and
    # 60% longer
    for a, b, i, j in zip(edges[:-1], edges[1:], at[:-1], at[1:]):
        groups = memberships(x, v1s[cols[i:j]], v2s[cols[i:j]])
        if j - i < b - a:
            groups = [np.repeat(m, widths[i:j], axis=1) for m in groups]
        truth, falsity, nearer = groups
        triple = (truth, neutrality(x, ts[a:b], nearer), falsity)
        # the nearer-mean distance only feeds neutrality
        del groups, nearer
        e = neutro_entropy(*triple)
        for k, w in enumerate(triple):
            np.einsum("r,rc->c", c, w, out=den[k, a:b])
            np.einsum("r,rc,rc->c", c, w, e, out=num[k, a:b])
    # the last block's arrays, before the curve's columns are allocated
    del truth, falsity, triple, e, w
    # each sum is divided in place by its mass, so no third (3, q) array is
    # alive beside num and den
    mass = den >= ZERO_MASS
    np.divide(num, den, out=num, where=mass)
    num[~mass] = 0.0
    del den, mass
    e_t, e_i, e_f = num
    total = (e_t + e_i + e_f) / 3.0
    return EntropyCurve(q=hist.q, t=ts, e_t=e_t, e_i=e_i, e_f=e_f, total=total)


def find_thresholds(curve: EntropyCurve, max_thresholds: int = 8) -> ThresholdSet:
    """Thresholds at the interior local minima of the total-entropy curve.

    The curve splits into plateau runs, maximal runs of equal values. A run
    strictly below both neighboring runs is one minimum, reported at its
    center sample (the lower median); the runs at the curve's ends never
    qualify. With more minima than ``max_thresholds``, the ones with the
    smallest entropy are kept (ties to the smaller threshold). When no
    interior minimum exists at all, the center of the first run attaining
    the global minimum is returned with ``fallback_used`` set. A curve
    holding a NaN, or a ``max_thresholds`` that is not an integer, raises
    ``ValueError``.
    """
    max_thresholds = _integer("max_thresholds", max_thresholds)
    if len(curve) == 0:
        raise ValueError("entropy curve is empty")
    if max_thresholds < 1:
        raise ValueError("max_thresholds must be at least 1")
    e, t = curve.total, curve.t
    if np.isnan(e).any():
        raise ValueError("entropy curve holds NaN")
    # run k is samples a[k]..b[k], all equal to v[k]
    b = np.append(np.flatnonzero(e[1:] != e[:-1]), e.size - 1)
    a = np.append(0, b[:-1] + 1)
    center = (a + b) // 2
    v = e[b]
    minima = center[1:-1][(v[1:-1] < v[:-2]) & (v[1:-1] < v[2:])]
    if minima.size == 0:
        first_lowest = center[np.argmax(v == v.min())]
        return ThresholdSet(thresholds=t[[first_lowest]], fallback_used=True)
    kept = minima[np.lexsort((t[minima], e[minima]))[:max_thresholds]]
    return ThresholdSet(thresholds=np.sort(t[kept]), fallback_used=False)
