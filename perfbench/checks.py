"""Output checks: each compares against something made apart from the
program's serving path, or against a property the method must have.

* Float references (``mlp_reference`` / ``lstm_reference``) computed in
  float64 numpy, with a tolerance derived from the 16-bit fixed-point
  format, not from today's measured error.
* Bitwise equality between execution paths that must agree exactly:
  batched vs the per-lane interpreter, served vs a single engine.
* Field-identical modelled stats across execution paths.

:func:`self_test` corrupts one word of a copy of a checked result and
requires every check to reject it, so a check that cannot fail is caught.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

# Flipping this bit moves a 16-bit, 12-fractional-bit word by 4.0, far
# beyond any tolerance and visible to every bitwise comparison.
FLIP_BIT = 1 << 14


class CheckFailed(AssertionError):
    """An output check rejected the program's result."""


def fixed_point_tolerance(fan_ins: Sequence[int], frac_bits: int) -> float:
    """Largest float error accepted against a float64 reference.

    Each layer rounds its inputs, weights and outputs to one ulp
    ``q = 2**-frac_bits``.  Rounding errors of the ``m`` products in one
    dot product add up like a random walk (``~q * sqrt(m)``) and the
    weights (scaled ``1/sqrt(m)``) pass earlier errors on without growth,
    so the per-layer terms add: ``q * sum(sqrt(m_l))``.
    """
    q = 2.0 ** -frac_bits
    return q * sum(math.sqrt(m) for m in fan_ins)


def check_float(name: str, got: np.ndarray, reference: np.ndarray,
                tolerance: float) -> float:
    """Raise unless ``|got - reference| <= tolerance`` everywhere."""
    got = np.asarray(got, dtype=np.float64)
    reference = np.asarray(reference, dtype=np.float64)
    if got.shape != reference.shape:
        raise CheckFailed(f"{name}: shape {got.shape} != reference "
                          f"{reference.shape}")
    error = float(np.max(np.abs(got - reference))) if got.size else 0.0
    if not error <= tolerance:
        raise CheckFailed(f"{name}: max error {error:.5f} exceeds the "
                          f"fixed-point tolerance {tolerance:.5f}")
    return error


def check_bitwise(name: str, got: np.ndarray, expected: np.ndarray) -> None:
    got = np.asarray(got)
    expected = np.asarray(expected)
    if got.shape != expected.shape or not np.array_equal(got, expected):
        diff = (int(np.sum(got != expected))
                if got.shape == expected.shape else "shape")
        raise CheckFailed(f"{name}: words differ ({diff} mismatched)")


def stats_fields(stats) -> dict:
    """Every modelled quantity of a ``SimulationStats``, comparable."""
    return {
        "cycles": stats.cycles,
        "energy": stats.energy.as_dict(),
        "dynamic_instructions": dict(stats.dynamic_instructions),
        "words_by_opcode": dict(stats.words_by_opcode),
        "stall_events": dict(stats.stall_events),
        "busy_cycles": dict(stats.busy_cycles),
        "noc_flit_hops": stats.noc_flit_hops,
        "noc_packets": stats.noc_packets,
        "offchip_words": stats.offchip_words,
    }


def check_stats(name: str, got, expected) -> None:
    a, b = stats_fields(got), stats_fields(expected)
    if a != b:
        fields = sorted(k for k in a if a[k] != b[k])
        raise CheckFailed(f"{name}: modelled stats differ in {fields}")


def corrupt(words: np.ndarray) -> np.ndarray:
    """A copy of ``words`` with one bit flipped in one word."""
    bad = np.array(words, dtype=np.int64, copy=True)
    bad.flat[bad.size // 2] ^= FLIP_BIT
    return bad


def self_test(check, words: np.ndarray) -> None:
    """Require ``check(words)`` to pass and ``check(corrupt(words))`` to
    fail."""
    check(words)
    try:
        check(corrupt(words))
    except CheckFailed:
        return
    raise CheckFailed("self-test: a corrupted result passed the checks")
