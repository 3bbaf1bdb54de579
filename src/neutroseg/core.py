"""Pointwise building blocks for threshold-relative gray-level uncertainty.

Gray levels, class means and candidate thresholds all live on [0, 1]. A
bounded dissimilarity metric compares two levels; from the dissimilarities
of a level to the two class means and to the threshold we derive a
(truth, neutrality, falsity) triple, collapse it to an escort probability
pair, and score that pair with base-2 Shannon entropy.

Every function takes scalars or broadcastable numpy arrays and evaluates
elementwise; scalar input yields ``float`` results. The histogram sweep in
``sweep`` applies these functions to the bins x candidates grid: it evaluates
:func:`memberships` once per distinct class-mean column and
:func:`neutrality` and the rest once per cell, so an array call and the
matching scalar calls produce the same doubles. All are pure functions of
their arguments, safe to call from any number of threads: they compute in
place into temporaries of their own and never write into an argument.
Divisions and logarithms run on every cell inside ``np.errstate(all="ignore")``;
the cells where they are undefined are then overwritten with their limit
values, so the caller's floating-point error state never sees them.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Optional, Union

import numpy as np

_LN2 = math.log(2.0)

Real = Union[float, np.ndarray]


class NeutroTriple(NamedTuple):
    """Degrees of truth, neutrality and falsity, each in [0, 1]."""

    truth: Real
    neutrality: Real
    falsity: Real


class BifuzzyPair(NamedTuple):
    """Deficit and excess of truth + falsity relative to a partition of unity."""

    undefinedness: Real
    contradiction: Real


class EscortPair(NamedTuple):
    """Complementary two-outcome distribution distilled from a triple."""

    p_truth: Real
    p_falsity: Real


def dissimilarity(x: Real, y: Real) -> Real:
    """Bounded dissimilarity between two gray levels in [0, 1].

    Symmetric, zero exactly when ``x == y``, and at most 1 (attained by the
    extreme pair (0, 1)). Levels near mid-gray are compared more strictly
    than levels near the ends of the range.
    """
    return 2.0 * np.abs(x - y) / (1.0 + np.abs(x - 0.5) + np.abs(y - 0.5))


def _share(
    b: Real, prod: np.ndarray, den: np.ndarray, ties: Optional[np.ndarray], tie: float
) -> np.ndarray:
    """(b - prod) / den, or ``tie`` wherever ``ties`` is set."""
    with np.errstate(all="ignore"):
        won = np.subtract(b, prod, out=np.empty(den.shape))
        won /= den
    if ties is not None:
        won[ties] = tie
    return won


def _rivals(a: Real, b: Real) -> tuple[np.ndarray, np.ndarray, Optional[np.ndarray]]:
    """a*b, den = a + b - a*b and the cells where den > 0 fails (None if none)."""
    shape = np.broadcast(a, b).shape
    prod = np.multiply(a, b, out=np.empty(shape))
    den = np.add(a, b, out=np.empty(shape))
    den -= prod
    with np.errstate(all="ignore"):
        # the min is NaN, and fails the test, when any den is; inf when none
        ties = None if den.min(initial=np.inf) > 0.0 else ~(den > 0.0)
    return prod, den, ties


def _contest(a: Real, b: Real, tie: float) -> Real:
    """Membership won against dissimilarity ``a`` by its rival ``b``.

    Returns (b - a*b) / (a + b - a*b): 1 when a == 0 < b, 0 when b == 0 < a,
    and ``tie`` at the degenerate a == b == 0.
    """
    # [()] turns the 0-d result for scalars back into a float
    return _share(b, *_rivals(a, b), tie)[()]


def memberships(x: Real, v1: Real, v2: Real) -> tuple[Real, Real, Real]:
    """Truth, falsity and nearer-mean dissimilarity of ``x`` given class means.

    Truth grows as ``x`` sits nearer the low-class mean ``v1`` than the
    high-class mean ``v2``; falsity mirrors it. Both are 1/2 when ``x``
    coincides with both means. The third value, min(d(x, v1), d(x, v2)), is
    what :func:`neutrality` weighs the threshold against.
    """
    d1 = dissimilarity(x, v1)
    d2 = dissimilarity(x, v2)
    # truth is _contest(d1, d2, 0.5) and falsity _contest(d2, d1, 0.5): the
    # two share one product and one denominator, checked once for ties
    prod, den, ties = _rivals(d1, d2)
    truth, falsity = (_share(d, prod, den, ties, 0.5)[()] for d in (d2, d1))
    return truth, falsity, np.minimum(d1, d2)


def neutrality(x: Real, t: Real, nearer: Real) -> Real:
    """Neutrality of ``x`` at threshold ``t``, against its nearer-mean dissimilarity.

    Grows as ``x`` approaches ``t`` relative to the nearer class mean; 1
    when ``x`` coincides with the threshold and the nearer mean.
    """
    return _contest(dissimilarity(x, t), nearer, 1.0)


def neutro_components(x: Real, v1: Real, v2: Real, t: Real) -> NeutroTriple:
    """Truth/neutrality/falsity of gray level ``x`` given class means and threshold.

    The composition of :func:`memberships` and :func:`neutrality`. Degenerate
    cases resolve by continuity: truth = falsity = 1/2 when ``x`` coincides
    with both means, neutrality = 1 when it coincides with the threshold and
    the nearer mean.
    """
    truth, falsity, nearer = memberships(x, v1, v2)
    return NeutroTriple(truth, neutrality(x, t, nearer), falsity)


def bifuzzy(truth: Real, falsity: Real) -> BifuzzyPair:
    """Undefinedness max(0, 1-T-F) and contradiction max(0, T+F-1).

    At most one of the two is nonzero, and their sum equals |T + F - 1|.
    """
    s = truth + falsity
    return BifuzzyPair(np.maximum(0.0, 1.0 - s), np.maximum(0.0, s - 1.0))


def escort(truth: Real, neutrality: Real, falsity: Real) -> EscortPair:
    """Collapse a triple into complementary probabilities with p_T + p_F = 1.

    Undefined mass is granted to both sides, neutrality is split evenly,
    and the total is renormalized by 1 + I + U + C.
    """
    u, c = bifuzzy(truth, falsity)
    # one array of the broadcast shape (0-d for scalars) for each result
    shape = np.broadcast(truth, neutrality, falsity).shape
    den = np.add(1.0, neutrality, out=np.empty(shape))
    den += u
    den += c
    half_i = 0.5 * neutrality
    p_t, p_f = (np.add(v, u, out=np.empty(shape)) for v in (truth, falsity))
    for p in p_t, p_f:
        p += half_i
        p /= den
    return EscortPair(p_t[()], p_f[()])


def _xlogx(p: Real) -> np.ndarray:
    """p * ln(p), with the 0 * log(0) = 0 convention for p <= 0."""
    with np.errstate(all="ignore"):
        out = np.log(p, out=np.empty(np.shape(p)))
        out *= p
        # every p that fails p > 0 (zero, negative or NaN) made a NaN here
        if not np.min(p, initial=np.inf) > 0.0:
            out[~np.greater(p, 0.0)] = 0.0
    return out


def neutro_entropy(truth: Real, neutrality: Real, falsity: Real) -> Real:
    """Base-2 Shannon entropy of the escort pair, clipped to [0, 1].

    Zero at full certainty, (T, I, F) = (1, 0, 0) or (0, 0, 1); one whenever
    the escort pair is balanced, in particular whenever truth equals
    falsity. Uses the 0 * log(0) = 0 convention.
    """
    p_t, p_f = escort(truth, neutrality, falsity)
    e = _xlogx(p_t)
    e += _xlogx(p_f)
    e /= _LN2
    np.clip(e, -1.0, 0.0, out=e)
    # 0.0 - e is -e, except that it turns the -0.0 of a certain outcome into +0.0
    return np.subtract(0.0, e, out=e)[()]
