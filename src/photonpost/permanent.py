"""Matrix permanents.

The workhorse is a Gray-code Ryser evaluation with O(2^n * n) cost; the
tests check it against a permutation-sum oracle.  Conditional outputs
come from engine.py, which expands the creation operators; the
permanents here are public API and test oracles.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .errors import DimensionTooLarge, MismatchedTotals, NonSquare

# Hard cap on the expanded dimension; 2^30 steps is already out of reach
# for interactive use and anything larger is certainly a caller bug.
MAX_DIMENSION = 30


def _ryser_gray(a: np.ndarray) -> complex:
    """Ryser's inclusion-exclusion sum walked in Gray-code order.

    Each step flips one column in or out of the active subset, so the
    row-sum vector is updated in O(n) instead of being rebuilt.
    """
    n = a.shape[0]
    cols = [np.ascontiguousarray(a[:, j]) for j in range(n)]
    w = np.zeros(n, dtype=complex)
    gray = 0
    sign = 1
    total = 0j
    for k in range(1, 1 << n):
        j = (k & -k).bit_length() - 1
        bit = 1 << j
        gray ^= bit
        if gray & bit:
            w += cols[j]
        else:
            w -= cols[j]
        sign = -sign
        total += sign * w.prod()
    if n % 2:
        total = -total
    return complex(total)


def _kernel(a: np.ndarray) -> complex:
    return 1 + 0j if a.shape[0] == 0 else _ryser_gray(a)


def _validated(matrix) -> np.ndarray:
    a = np.asarray(matrix, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise NonSquare(f"permanent needs a square matrix, got shape {a.shape}")
    if a.shape[0] > MAX_DIMENSION:
        raise DimensionTooLarge(
            f"dimension {a.shape[0]} exceeds the supported maximum {MAX_DIMENSION}"
        )
    return a


def permanent(matrix) -> complex:
    """Permanent of a square complex matrix (empty matrix gives 1)."""
    return _kernel(_validated(matrix))


def permanent_with_multiplicity(
    base, row_reps: Sequence[int], col_reps: Sequence[int]
) -> complex:
    """Permanent of `base` with row i repeated row_reps[i] times and
    column j repeated col_reps[j] times.

    Both repetition vectors must sum to the same total (the expanded
    matrix must stay square); zero total gives the empty permanent, 1.
    """
    a = np.asarray(base, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise NonSquare(f"base matrix must be square, got shape {a.shape}")
    rows = [int(r) for r in row_reps]
    cols = [int(c) for c in col_reps]
    if len(rows) != a.shape[0] or len(cols) != a.shape[1]:
        raise MismatchedTotals(
            "repetition vectors must match the base matrix dimensions"
        )
    if any(r < 0 for r in rows) or any(c < 0 for c in cols):
        raise MismatchedTotals("repetition counts must be non-negative")
    total = sum(rows)
    if total != sum(cols):
        raise MismatchedTotals(
            f"row repetitions sum to {total}, column repetitions to {sum(cols)}"
        )
    if total == 0:
        return 1 + 0j
    if total > MAX_DIMENSION:
        raise DimensionTooLarge(
            f"expanded dimension {total} exceeds the supported maximum {MAX_DIMENSION}"
        )
    expanded = a[np.repeat(np.arange(a.shape[0]), rows), :]
    expanded = expanded[:, np.repeat(np.arange(a.shape[1]), cols)]
    return _kernel(expanded)
