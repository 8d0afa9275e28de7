import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import complete_rows_by_loop
from photonpost import (
    BadModeIndex,
    BadParameters,
    Interferometer,
    NotUnitary,
    RowsNotOrthonormal,
    SearchReport,
    beam_splitter,
    complete_rows,
    compose,
    embed_two_mode,
    haar_random,
    verify_nogo_small,
)
from photonpost.interferometer import haar_unitaries


def test_constructor_checks_unitarity():
    Interferometer(np.eye(3))
    with pytest.raises(NotUnitary):
        Interferometer(np.ones((2, 2)))
    with pytest.raises(NotUnitary):
        Interferometer(np.ones((2, 3)))


def test_beam_splitter_swap_at_half_pi():
    bs = beam_splitter(math.pi / 2, 1.3)
    assert np.allclose(bs.matrix, [[0, -1], [1, 0]], atol=1e-10)


def test_beam_splitter_balanced_with_pi_phase():
    bs = beam_splitter(math.pi / 4, math.pi)
    s = 1 / math.sqrt(2)
    assert np.allclose(bs.matrix, [[-s, -s], [s, -s]], atol=1e-12)


def test_beam_splitter_one_ninth_reflectivity():
    bs = beam_splitter(math.acos(1 / 3), 0.0)
    root8 = math.sqrt(8)
    expected = [[1 / 3, -root8 / 3], [root8 / 3, 1 / 3]]
    assert np.allclose(bs.matrix, expected, atol=1e-12)


def test_beam_splitter_always_unitary():
    rng = np.random.default_rng(31)
    for _ in range(20):
        theta, phi = rng.uniform(0, 2 * math.pi, size=2)
        m = beam_splitter(theta, phi).matrix
        assert np.allclose(m.conj().T @ m, np.eye(2), atol=1e-12)


def test_embed_identity_element():
    ident = Interferometer(np.eye(2))
    assert np.allclose(embed_two_mode(ident, (0, 2), 4).matrix, np.eye(4))


def test_embed_leaves_other_modes_alone():
    bs = beam_splitter(math.pi / 4, math.pi)
    m = embed_two_mode(bs, (0, 1), 3).matrix
    assert np.allclose(m[2], [0, 0, 1])
    assert np.allclose(m[:2, :2], bs.matrix)


def test_embed_rejects_bad_modes():
    bs = beam_splitter(0.3)
    with pytest.raises(BadModeIndex):
        embed_two_mode(bs, (0, 3), 3)
    with pytest.raises(BadModeIndex):
        embed_two_mode(bs, (1, 1), 3)


def test_compose_order_is_earliest_first():
    a = embed_two_mode(beam_splitter(0.3, 0.1), (0, 1), 3)
    b = embed_two_mode(beam_splitter(1.1, 2.0), (1, 2), 3)
    combined = compose(a, b)
    assert np.allclose(combined.matrix, b.matrix @ a.matrix, atol=1e-14)


def test_compose_chain_stays_unitary():
    rng = np.random.default_rng(32)
    for _ in range(5):
        elements = []
        for _ in range(10):
            i, j = sorted(rng.choice(4, size=2, replace=False))
            theta, phi = rng.uniform(0, 2 * math.pi, size=2)
            elements.append(
                embed_two_mode(beam_splitter(theta, phi), (int(i), int(j)), 4)
            )
        m = compose(*elements).matrix
        assert np.allclose(m.conj().T @ m, np.eye(4), atol=1e-10)


def test_complete_rows_from_first_basis_vector():
    interf = complete_rows([np.array([1.0, 0.0, 0.0], dtype=complex)], 3)
    assert np.allclose(interf.matrix, np.eye(3))


def test_complete_rows_no_rows_gives_identity():
    assert np.allclose(complete_rows([], 2).matrix, np.eye(2))


def test_complete_rows_keeps_given_rows_bitwise():
    eps = 0.1
    a = math.sqrt(1 - eps * eps)
    row1 = np.array([-eps, a / math.sqrt(3), a / math.sqrt(3), a / math.sqrt(3)])
    row2 = np.array([a, eps / math.sqrt(3), eps / math.sqrt(3), eps / math.sqrt(3)])
    interf = complete_rows([row1, row2], 4)
    m = interf.matrix
    assert m.shape == (4, 4)
    assert np.array_equal(m[0], row1.astype(complex))
    assert np.array_equal(m[1], row2.astype(complex))
    assert np.allclose(m.conj().T @ m, np.eye(4), atol=1e-10)


def test_complete_rows_rejects_non_orthonormal():
    with pytest.raises(RowsNotOrthonormal):
        complete_rows([np.array([1.0, 1.0]) / 1.0], 2)
    with pytest.raises(RowsNotOrthonormal):
        complete_rows(
            [np.array([1.0, 0.0, 0.0]), np.array([1.0, 0.0, 0.0])], 3
        )


@st.composite
def row_stacks(draw):
    """(G, k, N) stacks of orthonormal rows.  Each matrix holds the
    canonical rows of a drawn set of modes and Haar rows on the others,
    shuffled, so the matrices of one stack skip different canonical
    vectors."""
    n = draw(st.integers(2, 8))
    k = draw(st.integers(0, n))
    stack = []
    for _ in range(draw(st.sampled_from([1, 3, 6]))):
        canonical = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
        fixed, rest = np.flatnonzero(canonical), np.flatnonzero(~canonical)
        u = np.zeros((n, n), dtype=complex)
        u[np.arange(len(fixed)), fixed] = 1.0
        if len(rest):
            seed = draw(st.integers(0, 2**32 - 1))
            u[len(fixed) :, rest] = haar_unitaries(len(rest), [seed])[0]
        stack.append(u[draw(st.permutations(range(n)))][:k])
    return np.array(stack), n


@settings(max_examples=150, deadline=None)
@given(row_stacks())
def test_stacked_completion_equals_one_matrix_at_a_time(case):
    stack, n = case
    got = complete_rows(stack, n)
    assert got.shape == (len(stack), n, n)
    for rows, m in zip(stack, got):
        assert m.tobytes() == complete_rows(rows, n).matrix.tobytes()
        assert m.tobytes() == complete_rows_by_loop(rows, n).tobytes()


def test_stacked_matrices_skip_different_canonical_vectors():
    rows = np.zeros((3, 1, 4), dtype=complex)
    rows[0, 0, 0] = rows[1, 0, 2] = 1.0
    rows[2, 0] = 0.5
    got = complete_rows(rows, 4)
    assert np.array_equal(got[0], np.eye(4))
    assert np.array_equal(got[1], np.eye(4)[[2, 0, 1, 3]])
    for r, m in zip(rows, got):
        assert m.tobytes() == complete_rows_by_loop(r, 4).tobytes()


def test_complete_rows_checks_orthonormality_to_1e_10():
    row = np.array([1.0, 0.0, 0.0])
    complete_rows([row * (1 + 2e-11)], 3)
    for bad in (row * (1 + 2e-10), np.array([math.nan, 0.0, 0.0])):
        with pytest.raises(RowsNotOrthonormal, match="not orthonormal within tolerance"):
            complete_rows([bad], 3)
    stack = np.array([[row], [row * (1 + 2e-10)]])
    with pytest.raises(RowsNotOrthonormal, match="max deviation 4.000e-10"):
        complete_rows(stack, 3)
    with pytest.raises(RowsNotOrthonormal, match="expected at most 3 rows of length 3"):
        complete_rows(np.zeros((2, 1, 4)), 3)


def test_haar_random_unitary_and_deterministic():
    for n in (2, 3, 5):
        u = haar_random(n, seed=77)
        assert np.allclose(u.matrix.conj().T @ u.matrix, np.eye(n), atol=1e-10)
    again = haar_random(5, seed=77)
    assert np.array_equal(haar_random(5, seed=77).matrix, again.matrix)
    assert not np.allclose(haar_random(5, seed=78).matrix, again.matrix)


def test_non_finite_angles_and_negative_seeds_are_rejected():
    for theta, phi in ((math.inf, 0.0), (0.3, -math.inf), (math.nan, 0.0), (0.3, math.nan)):
        with pytest.raises(BadParameters):
            beam_splitter(theta, phi)
    with pytest.raises(BadParameters):
        haar_random(3, -3)


def test_haar_stack_equals_haar_random_per_seed():
    seeds = [0, 1, 77, 2**31 - 1, 2**63 + 5]
    for n in (1, 2, 3, 4, 6):
        stack = haar_unitaries(n, seeds)
        assert stack.shape == (len(seeds), n, n)
        for matrix, seed in zip(stack, seeds):
            assert np.array_equal(matrix, haar_random(n, seed).matrix)
    assert haar_unitaries(3, []).shape == (0, 3, 3)


def test_haar_first_entry_moment():
    # Haar average of |U_00|^2 is 1/N; check N=2 over many seeds
    total = 0.0
    samples = 10_000
    for seed in range(samples):
        total += abs(haar_random(2, seed).matrix[0, 0]) ** 2
    assert np.isclose(total / samples, 0.5, atol=0.02)


def test_json_round_trip_is_exact():
    u = haar_random(3, seed=5)
    back = Interferometer.from_json_dict(json.loads(json.dumps(u.to_json_dict())))
    assert np.array_equal(u.matrix, back.matrix)
    assert back.provenance == u.provenance


@pytest.mark.parametrize(
    "rows, named",
    [
        ([[1, 0], [0, 1]], "matrix[0][0]"),
        ([[{"re": 1.0, "im": 0.0}, {"re": 0.0}], [1, 0]], "matrix[0][1]"),
        ([[{"re": 1.0, "im": 0.0}, {"re": 0.0, "im": 0.0}], 7], "matrix[1]"),
        ([[{"re": True, "im": 0.0}]], "matrix[0][0]"),
    ],
    ids=["plain-numbers", "missing-im", "row-not-array", "bool-entry"],
)
def test_malformed_serialized_entries_raise_bad_parameters(rows, named):
    """Each malformed entry is named, in Interferometer.from_json_dict and
    in the reports that embed one."""
    data = {"n_modes": len(rows), "matrix": rows}
    with pytest.raises(BadParameters, match=re.escape(named)):
        Interferometer.from_json_dict(data)
    report = verify_nogo_small(2, 0.3, 2, 1, 2).to_json_dict()
    report["best_interferometer"] = data
    with pytest.raises(BadParameters, match=re.escape(named)):
        SearchReport.from_json_dict(report)
