"""Sampled verification of the properties the entropy construction promises.

Each check draws its seeded samples in blocks of at most ``_BLOCK``, evaluates
one property of the ``core`` formulas on each block and keeps the worst
deviation seen, so memory stays bounded whatever the sample count. The blocks
come in order from the one generator the suite is given. The suite backs the
``axioms`` CLI subcommand and the acceptance tests.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import bifuzzy, escort, neutro_components, neutro_entropy
from .errors import _integer

DEFAULT_SAMPLES = 10_000
DEFAULT_TOLERANCE = 1e-12

# Samples per block: the suite's memory is a few arrays of this length.
_BLOCK = 1 << 12


@dataclass(frozen=True)
class AxiomCheck:
    """Outcome of one property check over a sample set."""

    name: str
    description: str
    samples: int
    worst: float
    tolerance: float
    passed: bool


def _check(
    name: str,
    description: str,
    samples: int,
    tol: float,
    deviations: Callable[[int], np.ndarray],
) -> AxiomCheck:
    """Check whose worst deviation is the largest over ``samples`` draws.

    ``deviations(n)`` draws ``n`` samples and returns their deviations; it is
    called on consecutive blocks of at most ``_BLOCK``. The running worst
    starts at ``-inf``, since a deviation may be negative, and ``np.maximum``
    carries a NaN deviation through so that it fails the check. A NaN or
    infinite input need not give one: :func:`neutro_entropy` maps it to 0.0,
    so a property comparing two such entropies can still pass.
    """
    worst = -np.inf
    for start in range(0, samples, _BLOCK):
        worst = np.maximum(worst, np.max(deviations(min(_BLOCK, samples - start))))
    return AxiomCheck(
        name=name,
        description=description,
        samples=samples,
        worst=float(worst),
        tolerance=tol,
        passed=bool(worst <= tol),
    )


def _certainty_corners() -> AxiomCheck:
    corners = neutro_entropy(np.array([1.0, 0.0]), 0.0, np.array([0.0, 1.0]))
    return _check(
        "certainty-corners",
        "e(1,0,0) = e(0,0,1) = 0 exactly",
        corners.size,
        0.0,
        lambda n: np.abs(corners),
    )


def _balanced_entropy(rng: np.random.Generator, samples: int, tol: float) -> AxiomCheck:
    def deviations(n: int) -> np.ndarray:
        vs = rng.random(n)
        is_ = rng.random(n)
        return np.abs(neutro_entropy(vs, is_, vs) - 1.0)

    return _check(
        "balanced-entropy", "e(T,I,T) = e(F,I,F) = 1", samples, tol, deviations
    )


def _symmetry(rng: np.random.Generator, samples: int) -> AxiomCheck:
    def deviations(n: int) -> np.ndarray:
        t, i, f = rng.random((n, 3)).T
        return np.abs(neutro_entropy(t, i, f) - neutro_entropy(f, i, t))

    return _check(
        "truth-falsity-symmetry",
        "e(T,I,F) = e(F,I,T) exactly",
        samples,
        0.0,
        deviations,
    )


def _precondition_pairs(
    rng: np.random.Generator, samples: int
) -> tuple[np.ndarray, np.ndarray]:
    """Rejection-sample triple pairs satisfying the monotonicity precondition.

    Candidates come in batches of ``_BLOCK`` pairs until ``samples`` are kept.
    One ``rng.random`` call fills each (2, ``_BLOCK``, 3) batch in C order, so
    it draws what ``a = rng.random((_BLOCK, 3))`` and then
    ``b = rng.random((_BLOCK, 3))`` would, ``a`` giving the left triples. Kept
    pairs beyond ``samples`` are dropped with the rest of their batch, so each
    call leaves the generator after whole batches.
    """
    ab = np.empty((2, _BLOCK, 3))
    spread = np.empty((2, _BLOCK))  # |x0 - x2|: sharpness
    tilt = np.empty((2, _BLOCK))  # |x0 + x2 - 1|: distance from balance
    keep = np.empty(_BLOCK, dtype=bool)
    test = np.empty(_BLOCK, dtype=bool)
    both = np.empty((2, samples, 3))
    got = 0
    while got < samples:
        rng.random(out=ab)
        x0, x1, x2 = ab[..., 0], ab[..., 1], ab[..., 2]
        np.abs(np.subtract(x0, x2, out=spread), out=spread)
        np.add(x0, x2, out=tilt)
        np.abs(np.subtract(tilt, 1.0, out=tilt), out=tilt)
        np.greater_equal(spread[0], spread[1], out=keep)
        keep &= np.less_equal(tilt[0], tilt[1], out=test)
        keep &= np.less_equal(x1[0], x1[1], out=test)
        kept = np.flatnonzero(keep)[: samples - got]
        np.take(ab, kept, axis=1, out=both[:, got : got + kept.size])
        got += kept.size
    return both[0], both[1]


def _monotonicity(rng: np.random.Generator, samples: int, tol: float) -> AxiomCheck:
    def deviations(n: int) -> np.ndarray:
        left, right = _precondition_pairs(rng, n)
        return neutro_entropy(*left.T) - neutro_entropy(*right.T)

    return _check(
        "uncertainty-monotonicity",
        "sharper and less indeterminate triples have lower entropy",
        samples,
        tol,
        deviations,
    )


def _escort_normalization(
    rng: np.random.Generator, samples: int, tol: float
) -> AxiomCheck:
    def deviations(n: int) -> np.ndarray:
        p_t, p_f = escort(*rng.random((n, 3)).T)
        return np.abs(p_t + p_f - 1.0)

    return _check("escort-normalization", "p_T + p_F = 1", samples, tol, deviations)


def _no_contradiction(rng: np.random.Generator, samples: int, tol: float) -> AxiomCheck:
    def deviations(n: int) -> np.ndarray:
        # contiguous columns: the strided ones cost more than this copy
        triple = neutro_components(*np.ascontiguousarray(rng.random((n, 4)).T))
        return bifuzzy(triple.truth, triple.falsity).contradiction

    return _check(
        "no-contradiction",
        "component triples satisfy T + F <= 1",
        samples,
        tol,
        deviations,
    )


def _tolerance(value: object) -> float:
    if not isinstance(value, numbers.Real):
        kind = type(value).__name__
        raise ValueError(f"tolerance: {kind!r} object is not a real number")
    tol = float(value)
    if not tol >= 0.0:
        raise ValueError(f"tolerance must be at least 0, got {tol!r}")
    return tol


def run_axiom_checks(
    samples: int = DEFAULT_SAMPLES,
    seed: int = 0,
    tolerance: float = DEFAULT_TOLERANCE,
) -> list[AxiomCheck]:
    """Run the six property checks with a seeded sample set.

    The corner and symmetry checks demand exact equality; the rest allow
    ``tolerance``. Identical arguments produce identical results, so
    ``samples`` and ``seed`` must be integers: a float, ``None`` or any other
    non-integer raises ``ValueError``, and a numpy integer or a bool is taken
    as the ``int`` it stands for. ``tolerance`` must be a real number, neither
    NaN nor negative, and is taken as a ``float``; anything else raises
    ``ValueError``. Every argument is checked before any sample is drawn.
    """
    samples, seed = _integer("samples", samples), _integer("seed", seed)
    tolerance = _tolerance(tolerance)
    if samples < 1:
        raise ValueError("samples must be positive")
    rng = np.random.default_rng(seed)
    return [
        _certainty_corners(),
        _balanced_entropy(rng, samples, tolerance),
        _symmetry(rng, samples),
        _monotonicity(rng, samples, tolerance),
        _escort_normalization(rng, samples, tolerance),
        _no_contradiction(rng, samples, tolerance),
    ]
