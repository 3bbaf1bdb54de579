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
and are evaluated per cell. The repeated arrays must be C-ordered like the
rest of the block, because numpy sums a C-ordered block's rows in order but
reduces an F-ordered one pairwise, which would change the curve's last bits.

The grid is evaluated in blocks of consecutive candidate columns, about
``_BLOCK_CELLS`` cells each, so the sweep's memory does not grow with ``q``
beyond its O(q) per-candidate arrays; ``MAX_Q`` caps those. Every block is at
least two columns wide: numpy sums a two-dimensional block's rows in order,
but reduces a single column pairwise, which would change the curve's last
bits. The curve is therefore the same for every block size.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import memberships, neutrality, neutro_components, neutro_entropy
from .errors import ConstantImage, EmptyImage, NoCandidates, ThresholdOutOfRange
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
    rounding halves away from zero. ``q`` runs from 2 to ``MAX_Q``.
    """
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


def _weighted_mean(w: np.ndarray, e: np.ndarray) -> np.ndarray:
    """Column means of ``e`` weighted by ``w``; 0 where the mass is below ZERO_MASS."""
    num = np.sum(w * e, axis=0)
    den = np.sum(w, axis=0)
    live = den >= ZERO_MASS
    return np.where(live, num / np.where(live, den, 1.0), 0.0)


def entropy_curve(hist: Histogram) -> EntropyCurve:
    """Evaluate the entropy sweep at every candidate threshold.

    The occupied-bins x candidates grid is split into blocks of consecutive
    columns of about ``_BLOCK_CELLS`` cells, never narrower than two columns
    when there are two or more candidates: numpy adds a block's rows in
    order, but sums a lone column pairwise, so a one-column block would
    change the curve. With that minimum every block size gives the same bits.

    Candidates with the same class populations ``n1``, ``n2`` form a group
    that shares ``v1`` and ``v2``. Each block evaluates :func:`memberships`
    on one column per group it holds and expands the results with
    ``np.repeat(..., axis=1)``, which keeps them C-ordered; a fancy-indexed
    ``m[:, idx]`` would come out F-ordered and be summed pairwise.
    """
    ks = _candidate_indices(hist)
    if ks.size == 0:
        raise NoCandidates(
            "no quantized threshold lies strictly between the occupied extremes"
        )
    vals = hist.values()
    bins = np.arange(hist.q + 1, dtype=np.int64)
    # prefix sums stay in int64 so each class mean is a single exact
    # integer ratio rounded once
    cum_n = np.cumsum(hist.counts)
    cum_k = np.cumsum(hist.counts * bins)
    n1 = cum_n[ks]
    k1 = cum_k[ks]
    n2 = cum_n[-1] - cum_n[ks - 1]
    k2 = cum_k[-1] - cum_k[ks - 1]
    v1s = k1 / (n1 * hist.q)
    v2s = k2 / (n2 * hist.q)
    ts = vals[ks]
    occ = hist.occupied()
    # rows are occupied bins, columns candidates
    c = hist.counts[occ].astype(np.float64)[:, None]
    x = vals[occ][:, None]
    e_t, e_i, e_f = parts = [np.empty(ks.size) for _ in range(3)]
    cells = occ.size * ks.size
    blocks = max(1, min(ks.size // 2, -(-cells // _BLOCK_CELLS)))
    edges = [i * ks.size // blocks for i in range(blocks + 1)]
    # a group of candidates sharing n1 and n2, hence v1 and v2, starts
    # wherever either changes; memberships are evaluated at the start of
    # every group and every block, and repeated up to the next start
    starts = (np.diff(n1, prepend=0) != 0) | (np.diff(n2, prepend=0) != 0)
    starts[edges[:-1]] = True
    cols = np.flatnonzero(starts)
    widths = np.diff(cols, append=ks.size)
    at = np.searchsorted(cols, edges)
    for a, b, i, j in zip(edges[:-1], edges[1:], at[:-1], at[1:]):
        truth, falsity, nearer = (
            np.repeat(m, widths[i:j], axis=1)
            for m in memberships(x, v1s[cols[i:j]], v2s[cols[i:j]])
        )
        triple = (truth, neutrality(x, ts[a:b], nearer), falsity)
        e = neutro_entropy(*triple)
        for out, w in zip(parts, triple):
            out[a:b] = _weighted_mean(c * w, e)
    total = (e_t + e_i + e_f) / 3.0
    return EntropyCurve(q=hist.q, t=ts, e_t=e_t, e_i=e_i, e_f=e_f, total=total)


def _plateau_runs(values: np.ndarray) -> list[tuple[int, int]]:
    """Maximal runs [a, b] of consecutive exactly-equal values."""
    breaks = np.flatnonzero(np.diff(values) != 0.0)
    starts = np.concatenate(([0], breaks + 1))
    ends = np.concatenate((breaks, [values.size - 1]))
    return list(zip(starts.tolist(), ends.tolist()))


def find_thresholds(curve: EntropyCurve, max_thresholds: int = 8) -> ThresholdSet:
    """Thresholds at the interior local minima of the total-entropy curve.

    A run of equal values strictly below both neighbors counts as one
    minimum at its center sample (lower median); curve endpoints never
    qualify. With more minima than ``max_thresholds``, the ones with the
    smallest entropy are kept (ties to the smaller threshold). When no
    interior minimum exists at all, the center of the first plateau
    attaining the global minimum is returned with ``fallback_used`` set.
    """
    if len(curve) == 0:
        raise ValueError("entropy curve is empty")
    if max_thresholds < 1:
        raise ValueError("max_thresholds must be at least 1")
    e = curve.total
    last = e.size - 1
    runs = _plateau_runs(e)
    minima = []
    for a, b in runs:
        if a == 0 or b == last:
            continue
        if e[a - 1] > e[a] and e[b + 1] > e[b]:
            center = (a + b) // 2
            minima.append((float(e[center]), float(curve.t[center])))
    if not minima:
        lowest = e.min()
        for a, b in runs:
            if e[a] == lowest:
                center = (a + b) // 2
                return ThresholdSet(
                    thresholds=np.array([curve.t[center]]), fallback_used=True
                )
    minima.sort()
    kept = sorted(t for _, t in minima[:max_thresholds])
    return ThresholdSet(thresholds=np.array(kept), fallback_used=False)
