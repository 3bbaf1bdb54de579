"""Sampled verification of the properties the entropy construction promises.

Each check draws a seeded sample set, evaluates one property of the ``core``
formulas on the whole set at once and reports the worst deviation seen. The
suite backs the ``axioms`` CLI subcommand and the acceptance tests.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import bifuzzy, escort, neutro_components, neutro_entropy

DEFAULT_SAMPLES = 10_000
DEFAULT_TOLERANCE = 1e-12


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
    name: str, description: str, deviations: np.ndarray, tol: float
) -> AxiomCheck:
    """Check whose worst deviation is the largest of ``deviations``."""
    worst = float(np.max(deviations))
    return AxiomCheck(
        name=name,
        description=description,
        samples=int(np.size(deviations)),
        worst=worst,
        tolerance=tol,
        passed=bool(worst <= tol),
    )


def _certainty_corners() -> AxiomCheck:
    corners = neutro_entropy(np.array([1.0, 0.0]), 0.0, np.array([0.0, 1.0]))
    return _check(
        "certainty-corners", "e(1,0,0) = e(0,0,1) = 0 exactly", np.abs(corners), 0.0
    )


def _balanced_entropy(rng: np.random.Generator, samples: int, tol: float) -> AxiomCheck:
    vs = rng.random(samples)
    is_ = rng.random(samples)
    deviations = np.abs(neutro_entropy(vs, is_, vs) - 1.0)
    return _check("balanced-entropy", "e(T,I,T) = e(F,I,F) = 1", deviations, tol)


def _symmetry(rng: np.random.Generator, samples: int) -> AxiomCheck:
    t, i, f = rng.random((samples, 3)).T
    deviations = np.abs(neutro_entropy(t, i, f) - neutro_entropy(f, i, t))
    return _check(
        "truth-falsity-symmetry", "e(T,I,F) = e(F,I,T) exactly", deviations, 0.0
    )


def _precondition_pairs(
    rng: np.random.Generator, samples: int
) -> tuple[np.ndarray, np.ndarray]:
    """Rejection-sample triple pairs satisfying the monotonicity precondition."""
    left = np.empty((samples, 3))
    right = np.empty((samples, 3))
    got = 0
    while got < samples:
        n = max(4096, 8 * (samples - got))
        a = rng.random((n, 3))
        b = rng.random((n, 3))
        keep = (
            (np.abs(a[:, 0] - a[:, 2]) >= np.abs(b[:, 0] - b[:, 2]))
            & (np.abs(a[:, 0] + a[:, 2] - 1.0) <= np.abs(b[:, 0] + b[:, 2] - 1.0))
            & (a[:, 1] <= b[:, 1])
        )
        take = min(samples - got, int(keep.sum()))
        left[got : got + take] = a[keep][:take]
        right[got : got + take] = b[keep][:take]
        got += take
    return left, right


def _monotonicity(rng: np.random.Generator, samples: int, tol: float) -> AxiomCheck:
    left, right = _precondition_pairs(rng, samples)
    deviations = neutro_entropy(*left.T) - neutro_entropy(*right.T)
    return _check(
        "uncertainty-monotonicity",
        "sharper and less indeterminate triples have lower entropy",
        deviations,
        tol,
    )


def _escort_normalization(
    rng: np.random.Generator, samples: int, tol: float
) -> AxiomCheck:
    p_t, p_f = escort(*rng.random((samples, 3)).T)
    deviations = np.abs(p_t + p_f - 1.0)
    return _check("escort-normalization", "p_T + p_F = 1", deviations, tol)


def _no_contradiction(rng: np.random.Generator, samples: int, tol: float) -> AxiomCheck:
    triple = neutro_components(*rng.random((samples, 4)).T)
    deviations = bifuzzy(triple.truth, triple.falsity).contradiction
    return _check(
        "no-contradiction", "component triples satisfy T + F <= 1", deviations, tol
    )


def run_axiom_checks(
    samples: int = DEFAULT_SAMPLES,
    seed: int = 0,
    tolerance: float = DEFAULT_TOLERANCE,
) -> list[AxiomCheck]:
    """Run the six property checks with a seeded sample set.

    The corner and symmetry checks demand exact equality; the rest allow
    ``tolerance``. Identical arguments produce identical results.
    """
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
