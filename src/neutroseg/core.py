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
their arguments and safe to call from any number of threads.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Union

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


def _contest(a: Real, b: Real, tie: float) -> Real:
    """Membership won against dissimilarity ``a`` by its rival ``b``.

    Returns (b - a*b) / (a + b - a*b): 1 when a == 0 < b, 0 when b == 0 < a,
    and ``tie`` at the degenerate a == b == 0.
    """
    prod = a * b
    den = (a + b) - prod
    live = den > 0.0
    out = np.where(live, (b - prod) / np.where(live, den, 1.0), tie)
    # np.where makes scalars 0-d arrays; [()] turns those back into floats
    return out[()]


def memberships(x: Real, v1: Real, v2: Real) -> tuple[Real, Real, Real]:
    """Truth, falsity and nearer-mean dissimilarity of ``x`` given class means.

    Truth grows as ``x`` sits nearer the low-class mean ``v1`` than the
    high-class mean ``v2``; falsity mirrors it. Both are 1/2 when ``x``
    coincides with both means. The third value, min(d(x, v1), d(x, v2)), is
    what :func:`neutrality` weighs the threshold against.
    """
    d1 = dissimilarity(x, v1)
    d2 = dissimilarity(x, v2)
    return _contest(d1, d2, 0.5), _contest(d2, d1, 0.5), np.minimum(d1, d2)


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
    den = 1.0 + neutrality + u + c
    half_i = 0.5 * neutrality
    return EscortPair((truth + u + half_i) / den, (falsity + u + half_i) / den)


def _xlogx(p: Real) -> Real:
    """p * ln(p), with the 0 * log(0) = 0 convention for p <= 0."""
    live = p > 0.0
    return np.where(live, p * np.log(np.where(live, p, 1.0)), 0.0)


def neutro_entropy(truth: Real, neutrality: Real, falsity: Real) -> Real:
    """Base-2 Shannon entropy of the escort pair, clipped to [0, 1].

    Zero at full certainty, (T, I, F) = (1, 0, 0) or (0, 0, 1); one whenever
    the escort pair is balanced, in particular whenever truth equals
    falsity. Uses the 0 * log(0) = 0 convention.
    """
    p_t, p_f = escort(truth, neutrality, falsity)
    e = -(_xlogx(p_t) + _xlogx(p_f)) / _LN2
    # adding 0.0 turns the -0.0 of a certain outcome into +0.0
    return np.clip(e, 0.0, 1.0) + 0.0
