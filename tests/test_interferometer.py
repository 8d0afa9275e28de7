import json
import math
import re

import numpy as np
import pytest
from photonpost import (
    BadModeIndex,
    BadParameters,
    Interferometer,
    NotUnitary,
    SearchReport,
    beam_splitter,
    compose,
    embed_two_mode,
    haar_random,
    verify_nogo_small,
)
from photonpost.interferometer import haar_unitaries

from oracles import haar_unitaries_two_draws


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


def test_haar_stack_is_bit_identical_to_two_draws_per_seed():
    """One normal draw per seed fills the real then the imaginary parts, as
    the two draws of the old formula did."""
    for n, count in ((1, 200), (2, 200), (3, 200), (4, 2000), (6, 200)):
        seeds = list(range(count)) + [2**63 + 5]
        assert np.array_equal(haar_unitaries(n, seeds), haar_unitaries_two_draws(n, seeds))


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
    whole_float = dict(u.to_json_dict(), n_modes=3.0)  # a whole number, as a float
    assert np.array_equal(Interferometer.from_json_dict(whole_float).matrix, u.matrix)


ONE, ZERO = {"re": 1.0, "im": 0.0}, {"re": 0.0, "im": 0.0}


def _serialized(rows, **fields):
    return {"n_modes": len(rows), "matrix": rows, **fields}


@pytest.mark.parametrize(
    "data, named",
    [
        (_serialized([[1, 0], [0, 1]]), "matrix[0][0]"),
        (_serialized([[{"re": 1.0, "im": 0.0}, {"re": 0.0}], [1, 0]]), "matrix[0][1]"),
        (_serialized([[{"re": 1.0, "im": 0.0}, {"re": 0.0, "im": 0.0}], 7]), "matrix[1]"),
        (_serialized([[{"re": True, "im": 0.0}]]), "matrix[0][0]"),
        (_serialized([[ONE, ZERO], [ZERO, ONE]], n_modes="two"), "n_modes"),
        (_serialized([[ONE, ZERO], [ZERO, ONE]], n_modes=2.5), "n_modes"),
        (_serialized([[ONE]], n_modes=True), "n_modes"),
        ({"n_modes": 2}, "matrix must be an array"),
    ],
    ids=[
        "plain-numbers", "missing-im", "row-not-array", "bool-entry",
        "n-modes-string", "n-modes-fraction", "n-modes-bool", "no-matrix",
    ],
)
def test_malformed_serialized_entries_raise_bad_parameters(data, named):
    """Each malformed field or entry is named, in Interferometer.from_json_dict
    and in the reports that embed one."""
    with pytest.raises(BadParameters, match=re.escape(named)):
        Interferometer.from_json_dict(data)
    report = verify_nogo_small(2, 0.3, 2, 1, 2).to_json_dict()
    report["best_interferometer"] = data
    with pytest.raises(BadParameters, match=re.escape(named)):
        SearchReport.from_json_dict(report)
