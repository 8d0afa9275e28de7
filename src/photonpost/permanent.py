"""Matrix permanents, read from the amplitude engine.

With row k of A repeated n_k times and column i repeated s_i times,
per(A[n, s]) = n! * c_s[n], where c_s[n] is the coefficient of
prod_k x_k^{n_k} in prod_i (sum_k A[k, i] x_k)^{s_i}.  engine.expand
reaches that coefficient by multiplying and adding path products, without
the cancellation of Ryser's alternating sum.  Its cell limit is the size
limit: an unrepeated matrix fits up to n = 16, and larger inputs raise
DimensionTooLarge.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .engine import expand
from .errors import MismatchedTotals, NonSquare


def _square(matrix) -> np.ndarray:
    a = np.asarray(matrix, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise NonSquare(f"permanent needs a square matrix, got shape {a.shape}")
    return a


def permanent(matrix) -> complex:
    """Permanent of a square complex matrix (empty matrix gives 1)."""
    ones = (1,) * len(_square(matrix))
    return permanent_with_multiplicity(matrix, ones, ones)


def permanent_with_multiplicity(
    base, row_reps: Sequence[int], col_reps: Sequence[int]
) -> complex:
    """Permanent of `base` with row i repeated row_reps[i] times and
    column j repeated col_reps[j] times.

    Both repetition vectors must sum to the same total (the expanded
    matrix must stay square); zero total gives the empty permanent, 1.
    """
    a = _square(base)
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
    basis, sectors = expand([((c, 1.0),) for c in cols], a, rows, total)
    _, coeffs = sectors[total]
    index = basis.lookup(rows)[0] - basis.offsets[total]
    return complex(coeffs[0, index] * math.prod(math.factorial(r) for r in rows))
