"""Reference computations and output checks, written apart from ``neutroseg``.

Nothing here imports the package under test. Each check takes the program's
output as plain data (arrays, numbers, bytes) and returns a list of problem
strings; an empty list means the output is correct. The references are:

* histogram: integer bin rule ``bin = (2*L*q + d-1) // (2*(d-1))``;
* curve: a per-level transcription of the method's formulas (bounded
  dissimilarity, truth/neutrality/falsity contests, escort pair, base-2
  Shannon entropy, mass-weighted means), evaluated on the reference histogram;
* thresholds: the selection rule (strict interior minima, plateau centre,
  smallest entropies kept, ties to the smaller t) re-applied to a curve;
* repaint: ``(2*S + C) // (2*C)`` from the integer level sum ``S`` and the
  pixel count ``C`` of each region, or the interval midpoint for an empty one.
"""

from __future__ import annotations

import math

import numpy as np

CURVE_TOL = 1e-12
ZERO_MASS = 1e-12
CURVE_HEADER = "t,e_T,e_I,e_F,E"
# blocks of candidates keep the reference's temporaries small at q = 4000
_BLOCK = 256


# ---------------------------------------------------------------- histogram


def level_counts(levels: np.ndarray, depth: int) -> np.ndarray:
    """Pixel count of every integer gray level 0 .. depth-1."""
    return np.bincount(np.asarray(levels).reshape(-1), minlength=depth)


def level_bins(depth: int, q: int) -> np.ndarray:
    """q-grid bin of every level, rounding halves up, in integers only."""
    L = np.arange(depth, dtype=np.int64)
    return (2 * L * q + (depth - 1)) // (2 * (depth - 1))


def reference_histogram(lcounts: np.ndarray, depth: int, q: int) -> np.ndarray:
    """Counts over the bins 0 .. q of a level histogram."""
    return np.bincount(level_bins(depth, q), weights=lcounts, minlength=q + 1).astype(
        np.int64
    )


def check_histogram(counts, total, ref: np.ndarray) -> list[str]:
    counts = np.asarray(counts)
    if counts.shape != ref.shape:
        return [f"histogram has {counts.size} bins, expected {ref.size}"]
    bad = np.flatnonzero(counts != ref)
    problems = []
    if bad.size:
        k = int(bad[0])
        problems.append(
            f"histogram differs in {bad.size} bins; bin {k} holds {int(counts[k])},"
            f" expected {int(ref[k])}"
        )
    if int(total) != int(ref.sum()):
        problems.append(f"histogram total {int(total)}, expected {int(ref.sum())}")
    return problems


# -------------------------------------------------------------------- curve


def _dis(x, y):
    return 2.0 * np.abs(x - y) / (1.0 + np.abs(x - 0.5) + np.abs(y - 0.5))


def _contest(a, b, tie):
    """Membership won against dissimilarity a by its rival b; ``tie`` at 0/0."""
    den = a + b - a * b
    out = np.full(np.broadcast(a, b).shape, tie, dtype=np.float64)
    np.divide(b - a * b, den, out=out, where=den > 0.0)
    return out


def _plogp(p):
    out = np.zeros_like(p)
    np.multiply(p, np.log(p, out=np.ones_like(p), where=p > 0.0), out=out, where=p > 0.0)
    return out


def reference_curve(qcounts: np.ndarray, q: int) -> np.ndarray:
    """Rows (t, e_T, e_I, e_F, E), one per candidate k/q inside the occupied range.

    Each occupied bin is evaluated once per candidate and weighted by its
    pixel count; the class means are exact integer ratios rounded once.
    """
    qcounts = np.asarray(qcounts, dtype=np.int64)
    occ = np.flatnonzero(qcounts)
    if occ.size < 2:
        return np.empty((0, 5))
    ks = np.arange(occ[0] + 1, occ[-1], dtype=np.int64)
    # integer running sums: class j holds n_j pixels with bin sum s_j
    n_le = np.cumsum(qcounts)
    s_le = np.cumsum(qcounts * np.arange(q + 1, dtype=np.int64))
    rows = np.empty((ks.size, 5))
    x = (occ / q)[None, :]
    c = qcounts[occ].astype(np.float64)[None, :]
    for lo in range(0, ks.size, _BLOCK):
        kb = ks[lo : lo + _BLOCK]
        n1, s1 = n_le[kb], s_le[kb]
        n2, s2 = n_le[-1] - n_le[kb - 1], s_le[-1] - s_le[kb - 1]
        t = (kb / q)[:, None]
        v1 = (s1 / (n1 * q))[:, None]
        v2 = (s2 / (n2 * q))[:, None]
        d1 = _dis(x, v1)
        d2 = _dis(x, v2)
        dt = _dis(x, t)
        truth = _contest(d1, d2, 0.5)
        falsity = _contest(d2, d1, 0.5)
        neutral = _contest(dt, np.minimum(d1, d2), 1.0)
        under = np.maximum(0.0, 1.0 - (truth + falsity))
        over = np.maximum(0.0, (truth + falsity) - 1.0)
        den = 1.0 + neutral + under + over
        p_t = (truth + under + neutral / 2.0) / den
        p_f = (falsity + under + neutral / 2.0) / den
        e = np.clip(-(_plogp(p_t) + _plogp(p_f)) / math.log(2.0), 0.0, 1.0)
        block = rows[lo : lo + kb.size]
        block[:, 0] = kb / q
        for col, w in ((1, truth), (2, neutral), (3, falsity)):
            mass = (c * w).sum(axis=1)
            num = (c * w * e).sum(axis=1)
            block[:, col] = np.where(mass >= ZERO_MASS, num / np.where(mass > 0, mass, 1), 0.0)
        block[:, 4] = (block[:, 1] + block[:, 2] + block[:, 3]) / 3.0
    return rows


def check_curve(t, e_t, e_i, e_f, total, ref: np.ndarray, q: int) -> list[str]:
    """Every row within ``CURVE_TOL`` of the reference; t exactly k/q."""
    cols = [np.asarray(a, dtype=np.float64) for a in (t, e_t, e_i, e_f, total)]
    if any(a.shape != (ref.shape[0],) for a in cols):
        return [f"curve has {cols[0].size} rows, expected {ref.shape[0]}"]
    problems = []
    if not np.array_equal(cols[0], ref[:, 0]):
        problems.append("curve t column is not the candidate grid k/q")
    names = ("e_T", "e_I", "e_F", "E")
    for name, a, r in zip(names, cols[1:], ref[:, 1:].T):
        err = np.abs(a - r)
        worst = int(np.argmax(err)) if err.size else 0
        if err.size and not err[worst] <= CURVE_TOL:
            problems.append(
                f"curve {name} at t={ref[worst, 0]!r} is {a[worst]!r}, reference"
                f" {r[worst]!r} (off by {err[worst]:.3g})"
            )
    return problems


def check_curve_csv(data: bytes, ref: np.ndarray) -> list[str]:
    """Curve text: header, one row per candidate, 12 significant digits."""
    try:
        text = data.decode("ascii")
    except UnicodeDecodeError:
        return ["curve file is not ASCII"]
    lines = text.split("\n")
    if lines[-1] != "" or "\r" in text:
        return ["curve file must end every line with a single LF"]
    lines = lines[:-1]
    if not lines or lines[0] != CURVE_HEADER:
        return [f"curve file must start with {CURVE_HEADER!r}"]
    if len(lines) - 1 != ref.shape[0]:
        return [f"curve file has {len(lines) - 1} rows, expected {ref.shape[0]}"]
    try:
        vals = np.array([[float(f) for f in ln.split(",")] for ln in lines[1:]])
    except ValueError:
        return ["curve file holds a field that is not a number"]
    if vals.shape != ref.shape:
        return ["curve file rows must hold 5 fields"]
    # %.12g rounds each field by at most half a unit of its 12th digit
    err = np.abs(vals - ref)
    allowed = 5.0e-12 * np.abs(ref) + CURVE_TOL + 1e-15
    bad = np.argwhere(err > allowed)
    if bad.size:
        i, j = bad[0]
        return [
            f"curve file row {i + 1} field {j} reads {vals[i, j]!r}, reference"
            f" {ref[i, j]!r}"
        ]
    return []


# --------------------------------------------------------------- thresholds


def select_thresholds(
    total: np.ndarray, t: np.ndarray, max_thresholds: int
) -> tuple[list[float], bool]:
    """Thresholds the selection rule picks from a curve, and the fallback flag."""
    e = [float(v) for v in total]
    n = len(e)
    runs = []
    a = 0
    for i in range(1, n + 1):
        if i == n or e[i] != e[a]:
            runs.append((a, i - 1))
            a = i
    minima = []
    for a, b in runs:
        if 0 < a and b < n - 1 and e[a - 1] > e[a] and e[b + 1] > e[b]:
            mid = (a + b) // 2
            minima.append((e[mid], float(t[mid])))
    if not minima:
        lowest = min(e)
        a, b = next(r for r in runs if e[r[0]] == lowest)
        return [float(t[(a + b) // 2])], True
    minima.sort()
    return sorted(tt for _, tt in minima[:max_thresholds]), False


def check_thresholds(
    thresholds, fallback_used: bool, total, t, max_thresholds: int
) -> list[str]:
    want, want_fallback = select_thresholds(np.asarray(total), np.asarray(t), max_thresholds)
    got = [float(v) for v in np.asarray(thresholds).reshape(-1)]
    problems = []
    if got != want:
        problems.append(f"thresholds {got}, the selection rule gives {want}")
    if bool(fallback_used) != want_fallback:
        problems.append(f"fallback flag {bool(fallback_used)}, expected {want_fallback}")
    return problems


def grid_steps(thresholds, q: int) -> list[int]:
    """Grid index k of every threshold k/q."""
    return [int(round(float(v) * q)) for v in thresholds]


def threshold_lines(ks: list[int], q: int, depth: int) -> list[str]:
    """The CLI's ``t level`` line of every threshold, level rounded half up."""
    return [f"{k / q:.6f} {(2 * k * (depth - 1) + q) // (2 * q)}" for k in ks]


# ------------------------------------------------------------------ repaint


def repaint_table(lcounts: np.ndarray, ks: list[int], q: int, depth: int) -> np.ndarray:
    """Repainted level of every input level, as uint8.

    Region 0 is [0, t1], region j is (t_j, t_{j+1}]; a level L lies above
    threshold k/q exactly when k*(d-1) < L*q.
    """
    lcounts = np.asarray(lcounts, dtype=np.int64)
    L = np.arange(depth, dtype=np.int64)
    region = np.zeros(depth, dtype=np.int64)
    for k in ks:
        region += k * (depth - 1) < L * q
    bounds = [0, *ks, q]
    paint = []
    for r in range(len(ks) + 1):
        inside = region == r
        count = int(lcounts[inside].sum())
        level_sum = int((lcounts[inside] * L[inside]).sum())
        if count:
            paint.append((2 * level_sum + count) // (2 * count))
        else:
            mid2 = (bounds[r] + bounds[r + 1]) * (depth - 1)
            paint.append((mid2 + q) // (2 * q))
    return np.array(paint, dtype=np.uint8)[region]


def check_repaint(out_levels, in_levels, table: np.ndarray) -> list[str]:
    out = np.asarray(out_levels).reshape(-1)
    src = np.asarray(in_levels).reshape(-1)
    if out.shape != src.shape:
        return [f"repainted image has {out.size} pixels, expected {src.size}"]
    want = table[src]
    bad = np.flatnonzero(out != want)
    if bad.size:
        i = int(bad[0])
        return [
            f"{bad.size} repainted pixels differ; pixel {i} (level {int(src[i])}) is"
            f" {int(out[i])}, expected {int(want[i])}"
        ]
    return []


# ---------------------------------------------------------------- PGM bytes


def parse_p5(data: bytes) -> tuple[int, int, int, np.ndarray]:
    """Width, height, maxval and raster of binary PGM bytes without comments."""
    fields = []
    i = 0
    while len(fields) < 4:
        while i < len(data) and data[i : i + 1].isspace():
            i += 1
        j = i
        while j < len(data) and not data[j : j + 1].isspace():
            j += 1
        if j == i:
            raise ValueError("PGM header ends early")
        fields.append(data[i:j])
        i = j
    if fields[0] != b"P5":
        raise ValueError(f"magic {fields[0]!r}, expected b'P5'")
    width, height, maxval = (int(f) for f in fields[1:])
    raster = np.frombuffer(data, dtype=np.uint8, offset=i + 1)
    if raster.size != width * height:
        raise ValueError(f"raster holds {raster.size} bytes for {width}x{height}")
    return width, height, maxval, raster


def check_pgm(data: bytes, width: int, height: int, depth: int, in_levels, table) -> list[str]:
    """Encoded output: P5 header of the input's shape and depth, repainted raster."""
    try:
        w, h, maxval, raster = parse_p5(data)
    except ValueError as exc:
        return [f"output is not a binary PGM: {exc}"]
    if (w, h, maxval) != (width, height, depth - 1):
        return [f"output header {w}x{h} maxval {maxval}, expected {width}x{height} maxval {depth - 1}"]
    return check_repaint(raster, in_levels, table)
