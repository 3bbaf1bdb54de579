"""Tests of the sampled entropy property suite and its blocked evaluation."""

import tracemalloc

import numpy as np
import pytest

import neutroseg as ns
from neutroseg.axioms import _BLOCK, _check, _precondition_pairs

EXACT = ("certainty-corners", "truth-falsity-symmetry")

# Traced bytes one suite run may peak at, whatever its sample count. The
# blocked suite peaks under 2 MiB; drawing every sample at once took 6.8 MiB
# at 1e4 samples and 60 MiB at 1e5.
PEAK_BYTES = 4 << 20


@pytest.mark.parametrize("samples", [10_000, 100_000])
def test_peak_memory_does_not_grow_with_samples(samples):
    tracemalloc.start()
    try:
        ns.run_axiom_checks(samples=samples, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < PEAK_BYTES


def test_monotonicity_reports_its_negative_worst():
    # Entropy drops strictly on these pairs, so every deviation is below 0.
    by_name = {c.name: c for c in ns.run_axiom_checks()}
    assert by_name["uncertainty-monotonicity"].worst < 0.0


@pytest.mark.parametrize(
    "samples", [1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 3 * _BLOCK + 5]
)
def test_block_edges(samples):
    checks = ns.run_axiom_checks(samples=samples, seed=5)
    assert [c.samples for c in checks] == [2] + [samples] * 5
    assert all(c.passed for c in checks)
    assert all(c.worst == 0.0 for c in checks if c.name in EXACT)
    assert ns.run_axiom_checks(samples=samples, seed=5) == checks


def test_worst_is_taken_over_every_block():
    sizes = []

    def deviations(n):
        sizes.append(n)
        return np.full(n, -1.0 / len(sizes))

    check = _check("made-up", "", 2 * _BLOCK + 5, 0.0, deviations)
    assert sizes == [_BLOCK, _BLOCK, 5]
    assert check.samples == 2 * _BLOCK + 5
    assert check.worst == -1.0 / 3
    assert check.passed


def test_nan_deviation_in_a_later_block_fails_the_check():
    calls = []

    def deviations(n):
        calls.append(n)
        return np.full(n, np.nan if len(calls) == 2 else 0.0)

    check = _check("made-up", "", 3 * _BLOCK, 1e-12, deviations)
    assert np.isnan(check.worst)
    assert not check.passed


def test_worst_deviations_pinned():
    # recorded at commit 7e5fa7a; the exactness tests elsewhere compare the
    # core formulas only with themselves, so a last-bit drift shows here
    want = {
        "certainty-corners": "0x0.0p+0",
        "balanced-entropy": "0x1.0000000000000p-53",
        "truth-falsity-symmetry": "0x0.0p+0",
        "uncertainty-monotonicity": "-0x1.13f3093830000p-17",
        "escort-normalization": "0x1.8000000000000p-52",
        "no-contradiction": "0x0.0p+0",
    }
    checks = ns.run_axiom_checks(10_000, seed=7)
    assert {c.name: c.worst.hex() for c in checks} == want


def test_worst_deviations_pinned_at_benchmark_size():
    # recorded at commit 0b35aa9 with the sample count and seed of the
    # benchmark's axioms workload: 25 blocks, against the 3 pinned above
    want = {
        "certainty-corners": "0x0.0p+0",
        "balanced-entropy": "0x1.0000000000000p-53",
        "truth-falsity-symmetry": "0x0.0p+0",
        "uncertainty-monotonicity": "-0x1.9d0bea0000000p-26",
        "escort-normalization": "0x1.0000000000000p-51",
        "no-contradiction": "0x0.0p+0",
    }
    checks = ns.run_axiom_checks(100_000, seed=301)
    assert {c.name: c.worst.hex() for c in checks} == want


def _two_draw_pairs(rng, samples):
    """The rejection loop as of commit 0b35aa9: two draws per batch."""
    left = np.empty((samples, 3))
    right = np.empty((samples, 3))
    got = 0
    while got < samples:
        a = rng.random((_BLOCK, 3))
        b = rng.random((_BLOCK, 3))
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


@pytest.mark.parametrize("seed", [0, 7, 301])
@pytest.mark.parametrize(
    "samples", [1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 3 * _BLOCK + 5]
)
def test_precondition_pairs_keep_the_two_draw_stream(seed, samples):
    # two calls on one generator, as the suite makes one per block: a kept
    # pair carried from one call into the next would show in the second
    rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
    for _ in range(2):
        got, want = _precondition_pairs(rng, samples), _two_draw_pairs(ref, samples)
        assert all(np.array_equal(g, w) for g, w in zip(got, want))
    next_raw = rng.bit_generator.random_raw(4)
    assert np.array_equal(next_raw, ref.bit_generator.random_raw(4))


@pytest.mark.parametrize(
    "kwargs, name",
    [
        ({"seed": None}, "seed"),
        ({"seed": 7.0}, "seed"),
        ({"samples": 2.0}, "samples"),
        ({"samples": "100"}, "samples"),
    ],
)
def test_non_integer_arguments_raise_value_error(kwargs, name):
    with pytest.raises(ValueError, match=f"^{name}: "):
        ns.run_axiom_checks(**kwargs)


def test_integer_arguments_are_taken_as_int():
    checks = ns.run_axiom_checks(samples=True, seed=np.int64(7))
    assert [type(c.samples) for c in checks[1:]] == [int] * 5
    assert checks == ns.run_axiom_checks(samples=1, seed=7)


@pytest.mark.parametrize("tolerance", [None, "1e-12", b"0", 1j, np.array([1e-12])])
def test_non_number_tolerance_raises_value_error(tolerance):
    with pytest.raises(ValueError, match="^tolerance: .* is not a real number$"):
        ns.run_axiom_checks(samples=10, tolerance=tolerance)


@pytest.mark.parametrize("tolerance", [float("nan"), np.nan, -1e-12, -1, -np.inf])
def test_nan_or_negative_tolerance_raises_value_error(tolerance):
    with pytest.raises(ValueError, match="^tolerance must be at least 0, got "):
        ns.run_axiom_checks(samples=10, tolerance=tolerance)


def test_tolerance_is_checked_before_any_draw(monkeypatch):
    def no_draws(seed):
        raise AssertionError("a generator was made")

    monkeypatch.setattr(np.random, "default_rng", no_draws)
    with pytest.raises(ValueError, match="^tolerance"):
        ns.run_axiom_checks(samples=10**9, tolerance=None)


def test_real_tolerances_are_taken_as_float():
    checks = ns.run_axiom_checks(samples=100, tolerance=np.float32(0.5))
    assert [c.tolerance for c in checks] == [0.0, 0.5, 0.0, 0.5, 0.5, 0.5]
    assert [type(c.tolerance) for c in checks] == [float] * 6
    assert checks == ns.run_axiom_checks(samples=100, tolerance=0.5)
    assert ns.run_axiom_checks(samples=100, tolerance=0) == ns.run_axiom_checks(
        samples=100, tolerance=0.0
    )
