import itertools

import mpmath
import numpy as np
import pytest

from photonpost import (
    DimensionTooLarge,
    MismatchedTotals,
    NonSquare,
    build_chain,
    permanent,
    permanent_with_multiplicity,
)
from oracles import permanent_reference


def test_identity_permanent_is_one():
    assert permanent(np.eye(3)) == pytest.approx(1.0)
    assert permanent(np.eye(1)) == pytest.approx(1.0)


def test_empty_matrix_convention():
    assert permanent(np.zeros((0, 0))) == pytest.approx(1.0)


def test_two_by_two_expansion():
    a = np.array([[1.0, 2.0], [3.0, 4.0]])
    assert permanent(a) == pytest.approx(1 * 4 + 2 * 3)
    balanced = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
    assert permanent(balanced) == pytest.approx(0.0, abs=1e-15)


def test_closed_forms_match_naive():
    rng = np.random.default_rng(11)
    for n in (2, 3, 4):
        for _ in range(10):
            m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            assert np.isclose(permanent(m), permanent_reference(m), atol=1e-10)


def test_gray_code_matches_naive():
    rng = np.random.default_rng(12)
    for n in (5, 6, 7):
        for _ in range(3):
            m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            assert np.isclose(permanent(m), permanent_reference(m), atol=1e-9)


def test_unitary_permanent_bounded_by_one():
    rng = np.random.default_rng(14)
    for _ in range(5):
        z = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
        q, r = np.linalg.qr(z)
        q = q * (np.diag(r) / np.abs(np.diag(r)))
        val = permanent(q)
        assert abs(val) <= 1.0 + 1e-12
        assert np.isclose(val, permanent_reference(q), atol=1e-10)


def test_rejects_nonsquare_and_oversize():
    with pytest.raises(NonSquare):
        permanent(np.ones((2, 3)))
    with pytest.raises(DimensionTooLarge):
        permanent(np.eye(31))
    with pytest.raises(DimensionTooLarge):
        permanent(np.eye(17))


def test_multiplicity_repeated_rows():
    rng = np.random.default_rng(15)
    base = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    val = permanent_with_multiplicity(base, (0, 2), (1, 1))
    assert np.isclose(val, 2 * base[1, 0] * base[1, 1], atol=1e-12)


def test_multiplicity_empty_selection():
    base = np.eye(3)
    assert permanent_with_multiplicity(base, (0, 0, 0), (0, 0, 0)) == pytest.approx(1.0)


def test_multiplicity_matches_expanded_naive():
    rng = np.random.default_rng(16)
    z = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    q, r = np.linalg.qr(z)
    q = q * (np.diag(r) / np.abs(np.diag(r)))
    row_reps, col_reps = (1, 2, 0), (1, 1, 1)
    expanded = np.repeat(np.repeat(q, row_reps, axis=0), col_reps, axis=1)
    assert np.isclose(
        permanent_with_multiplicity(q, row_reps, col_reps),
        permanent_reference(expanded),
        atol=1e-10,
    )


def test_multiplicity_random_cross_checks():
    rng = np.random.default_rng(17)
    for _ in range(10):
        n = int(rng.integers(2, 4))
        base = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        rows = rng.integers(0, 3, size=n)
        cols = rng.integers(0, 3, size=n)
        if rows.sum() != cols.sum():
            continue
        expanded = np.repeat(np.repeat(base, rows, axis=0), cols, axis=1)
        assert np.isclose(
            permanent_with_multiplicity(base, rows, cols),
            permanent_reference(expanded),
            atol=1e-9,
        )


def test_multiplicity_rejects_mismatched_totals():
    with pytest.raises(MismatchedTotals):
        permanent_with_multiplicity(np.eye(2), (1, 0), (1, 1))


def test_multiplicity_is_exact_on_the_weak_tap_chain():
    """A small-epsilon chain permanent, where Ryser's alternating sum cancels,
    against the permutation sum in 50-digit arithmetic."""
    u = build_chain(11, 1e-6).interferometer.matrix
    rows, cols = (1, 6) + (0,) * 9, (1,) * 7 + (0,) * 4
    expanded = np.repeat(np.repeat(u, rows, axis=0), cols, axis=1)
    with mpmath.workdps(50):
        a = [[mpmath.mpc(complex(x)) for x in row] for row in expanded]
        want = mpmath.fsum(
            mpmath.fprod(a[i][j] for i, j in enumerate(perm))
            for perm in itertools.permutations(range(7))
        )
        got = permanent_with_multiplicity(u, rows, cols)
        assert abs(mpmath.mpc(got) - want) <= 1e-12 * abs(want)
