"""The creation-operator engine against brute force and high precision."""

import math
import os
import subprocess
import sys
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import (
    conditional_coefficients,
    expand_by_chains,
    joint_output_probabilities,
    output_table_by_chains,
)
from photonpost import (
    DetectionPattern,
    DimensionTooLarge,
    InputSpec,
    build_chain,
    chain_asymptotics,
    condition_mixed,
    haar_random,
)
from photonpost import engine
from photonpost.engine import expand, output_table, reader

REL_TOL = 1e-12


@st.composite
def sources(draw):
    """A Haar seed and 2-4 mode distributions with up to 3-photon terms."""
    n = draw(st.integers(2, 4))
    seed = draw(st.integers(0, 2**31 - 1))
    budget = 6  # most photons the brute-force oracle has to expand
    dists = []
    for i in range(n):
        top = draw(st.integers(1, min(3, budget - (n - 1 - i))))
        budget -= top
        w = draw(st.lists(st.floats(0.05, 1.0), min_size=top + 1, max_size=top + 1))
        total = sum(w)
        dists.append({k: x / total for k, x in enumerate(w)})
    return haar_random(n, seed), InputSpec(tuple(dists))


def _full_table(interf, spec):
    top = spec.max_total()
    return output_table(spec.distributions, interf.matrix, (top,) * interf.n_modes, top)


def _roundoff(matrix, spec, caps) -> np.ndarray:
    """Most roundoff each entry of output_table(spec, matrix, caps) and its
    brute-force counterpart can differ by, from the same table over |U|.

    A coefficient c_s[n] is a sum of path products.  Each of a path's at
    most `top` photon steps takes one complex product (error below gamma_3)
    and one sum of at most N edge terms (gamma_{N-1}), so
    |fl(c) - c| <= gamma_{top (N + 2)} c_abs, where c_abs is the same sum
    over |U|.  Squaring doubles that; weighting and summing S configurations
    adds gamma_{S + 4}.  So an entry is off by at most gamma_K times the |U|
    entry, K = 2 top (N + 2) + S + 4, and the oracle, which expands the same
    paths, by as much again.  Entries with cancellation need this term:
    their relative error is not bounded.
    """
    top, n = spec.max_total(), spec.n_modes
    k = 2 * top * (n + 2) + math.prod(map(len, spec.distributions)) + 4
    gamma = k * 2.0**-53 / (1 - k * 2.0**-53)
    _, paths = output_table(spec.distributions, np.abs(matrix), caps, top)
    return 2 * gamma * paths


def _assert_close(got, want, slack=0.0):
    got, want = np.asarray(got), np.asarray(want)
    assert np.all(np.abs(got - want) <= REL_TOL * np.abs(want) + slack + 1e-300), (got, want)


@settings(max_examples=40, deadline=None)
@given(sources())
# entry (1, 2) is 1.38e-11 from cancelling paths of size 0.20: 4.2e-12 relative off
@example((haar_random(2, 666), InputSpec(({0: 0.5, 1: 0.5}, {0: 1 / 3, 1: 1 / 3, 2: 1 / 3}))))
def test_table_matches_brute_force_joint_distribution(source):
    interf, spec = source
    top = spec.max_total()
    basis, table = _full_table(interf, spec)
    slack = _roundoff(interf.matrix, spec, (top,) * interf.n_modes)
    want = joint_output_probabilities(interf.matrix, [dict(d) for d in spec.distributions])
    index = {v: i for i, v in enumerate(map(tuple, basis.states.tolist()))}
    for vector, i in index.items():
        if vector not in want:
            assert table[i] == 0.0
    rows = [index[v] for v in want]
    _assert_close(table[rows], list(want.values()), slack[rows])


@settings(max_examples=40, deadline=None)
@given(sources(), st.data())
def test_pattern_slice_matches_brute_force_coefficients(source, data):
    interf, spec = source
    n = interf.n_modes
    counts = tuple(data.draw(st.integers(0, 2)) for _ in range(n - 1))
    top = spec.max_total()
    want = conditional_coefficients(
        interf.matrix, [dict(d) for d in spec.distributions], counts
    )
    if want.size == 0:
        return
    caps = (top - sum(counts),) + counts
    basis, table = output_table(spec.distributions, interf.matrix, caps, top)
    kept = basis.lookup([(n1,) + counts for n1 in range(want.size)])
    _assert_close(table[kept], want, _roundoff(interf.matrix, spec, caps)[kept])


@settings(max_examples=40, deadline=None)
@given(sources())
def test_untruncated_table_is_complete(source):
    _, table = _full_table(*source)
    assert abs(table.sum() - 1.0) <= 1e-12


@settings(max_examples=40, deadline=None)
@given(sources(), st.lists(st.floats(0.0, 2 * math.pi), min_size=4, max_size=4))
def test_output_phases_do_not_change_the_table(source, phases):
    interf, spec = source
    n = interf.n_modes
    shifted = np.exp(1j * np.array(phases[:n]))[:, None] * interf.matrix
    top = spec.max_total()
    _, table = _full_table(interf, spec)
    _, moved = output_table(spec.distributions, shifted, (top,) * n, top)
    assert np.allclose(moved, table, rtol=REL_TOL, atol=1e-16)


@settings(max_examples=60, deadline=None)
@given(sources(), st.data())
def test_table_entries_are_never_negative_nor_negative_zero(source, data):
    """Entries are n! sum_s w_s (re^2 + im^2) with w_s > 0, so readers of c~
    need no clamp: no entry is negative or -0.0, under any caps, for Haar
    stacks and for the |U| stacks of the roundoff bounds."""
    interf, spec = source
    n, top = interf.n_modes, spec.max_total()
    caps = tuple(data.draw(st.integers(0, top)) for _ in range(n))
    seeds = data.draw(st.lists(st.integers(0, 2**31 - 1), min_size=1, max_size=3))
    stack = np.array([interf.matrix] + [haar_random(n, s).matrix for s in seeds])
    for matrices in (stack, np.abs(stack)):
        _, table = output_table(spec.distributions, matrices, caps, top)
        assert np.all(table >= 0.0) and not np.signbit(table).any(), table


@pytest.mark.parametrize("epsilon", [1e-4, 1e-5, 1e-6])
def test_small_epsilon_chain_gain_reaches_its_limit(epsilon):
    n, d, p = 8, 4, 0.2
    chain = build_chain(n, epsilon)
    spec = InputSpec.two_level([p] * n)
    q = condition_mixed(spec, chain.interferometer, chain.pattern_for(d)).unnormalized
    gain = (q[1] / q[0]) / (p / (1 - p))
    limit, _ = chain_asymptotics(n, d)
    assert abs(gain - limit) <= 1e-6


def _mp_chain_coefficients(matrix, p, detected):
    """c~[n1] of the chain's tap pattern, expanded in 50-digit arithmetic.

    Terms that put a photon on a vacuum detector (modes 3..N) are dropped,
    which is exact for the pattern (detected, 0, ..., 0).
    """
    n = matrix.shape[0]
    u = [[mpmath.mpc(complex(matrix[k, i])) for i in range(n)] for k in range(n)]
    coeffs = [mpmath.mpf(0)] * (n - detected + 1)
    for bits in range(1 << n):
        s = [(bits >> i) & 1 for i in range(n)]
        poly = {(0, 0): mpmath.mpc(1)}
        for i in range(n):
            if not s[i]:
                continue
            grown = {}
            for (a, b), c in poly.items():
                for key, lam in (((a + 1, b), u[0][i]), ((a, b + 1), u[1][i])):
                    if key[1] <= detected:
                        grown[key] = grown.get(key, 0) + c * lam
            poly = grown
        weight = mpmath.mpf(p) ** sum(s) * (1 - mpmath.mpf(p)) ** (n - sum(s))
        for (n1, tap), c in poly.items():
            if tap == detected:
                coeffs[n1] += (
                    weight * math.factorial(n1) * math.factorial(detected) * abs(c) ** 2
                )
    return coeffs


def test_small_epsilon_chain_row_matches_50_digits():
    n, d, p, epsilon = 6, 3, 0.2, 1e-5
    chain = build_chain(n, epsilon)
    spec = InputSpec.two_level([p] * n)
    got = condition_mixed(spec, chain.interferometer, chain.pattern_for(d)).unnormalized
    with mpmath.workdps(50):
        want = _mp_chain_coefficients(chain.interferometer.matrix, p, d)
        assert got.size == len(want)
        for g, w in zip(got, want):
            assert abs(mpmath.mpf(float(g)) - w) <= REL_TOL * abs(w)


def test_size_guard_raises_instead_of_allocating():
    spec = InputSpec.two_level([0.5] * 14)
    with pytest.raises(DimensionTooLarge):
        output_table(spec.distributions, np.eye(14), (14,) * 14, 14)


def test_oversize_plans_and_totals_raise_before_allocating():
    """A plan that no single matrix could walk raises while its rows are
    built (24 two-level modes: 2^24 rows) or before its edges are (16
    one-photon-capped modes: 2^16 rows but C(32, 16) cells); a total past
    170 photons, whose factorials overflow a float, raises too."""
    spec = InputSpec.two_level([0.5] * 24)
    with pytest.raises(DimensionTooLarge, match="walked rows"):
        reader(spec.distributions, (12, 12) + (0,) * 22, 24).stack
    spec = InputSpec.two_level([0.5] * 16)
    with pytest.raises(DimensionTooLarge, match="walked cells"):
        reader(spec.distributions, (1,) * 16, 16).stack
    with pytest.raises(DimensionTooLarge, match="factorials"):
        output_table([((171, 1.0),), ((0, 1.0),)], np.eye(2), (171, 171), 171)


def test_a_plan_no_matrix_can_walk_raises_before_it_is_built():
    """9 two-level sources with caps (9, 3, ..., 3): 512 configurations
    times a 14266-state sector, more cells than MAX_CELLS.  The plan counts
    them before it builds the walk, so the refusal costs a fraction of the
    140 MB the built plan takes."""
    for cache in ENGINE_CACHES:
        cache.cache_clear()
    tracemalloc.start()
    try:
        with pytest.raises(DimensionTooLarge, match="walked cells"):
            reader(InputSpec.two_level([0.2] * 9).distributions, (9,) + (3,) * 8, 9)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 40e6


def test_stacked_table_equals_per_matrix_calls():
    """A (B, N, N) stack gives, row by row, exactly the one-matrix tables;
    an empty stack gives an empty table."""
    cases = []
    for n, d in ((4, 2), (6, 3), (11, 6)):
        chain = build_chain(n, 0.3)
        stack = [chain.interferometer.matrix] + [haar_random(n, s).matrix for s in range(3)]
        caps = (n - d,) + chain.pattern_for(d).counts
        cases.append((InputSpec.two_level([0.2] * n), stack, caps, n))
    mixed = InputSpec(({0: 0.5, 1: 0.3, 2: 0.2}, {0: 0.6, 2: 0.4}, {1: 1.0}))
    cases.append((mixed, [haar_random(3, s).matrix for s in range(5)], (5, 5, 5), 5))
    # a vacuum detector: one-edge steps from a lone row, whose products
    # numpy rounds apart when taken in place
    lone = InputSpec(({1: 1.0}, {0: 0.4, 1: 0.6}))
    cases.append((lone, [haar_random(2, s).matrix for s in range(12)], (2, 0), 2))
    for spec, stack, caps, top in cases:
        basis, stacked = output_table(spec.distributions, np.array(stack), caps, top)
        assert stacked.shape == (len(stack), len(basis.states))
        for row, matrix in zip(stacked, stack):
            assert np.array_equal(row, output_table(spec.distributions, matrix, caps, top)[1])
        empty = output_table(spec.distributions, np.array(stack)[:0], caps, top)[1]
        assert empty.shape == (0, len(basis.states))


def test_stacks_beyond_the_size_guard_raise():
    spec = InputSpec.two_level([0.5] * 4)
    caps, top = (4, 3, 3, 3), 4
    fits = reader(spec.distributions, caps, top).stack
    assert fits >= 1
    with pytest.raises(DimensionTooLarge):
        output_table(spec.distributions, np.broadcast_to(np.eye(4), (fits + 1, 4, 4)), caps, top)


WALK_SUPPORTS = ((0, 1), (0, 1, 2), (1,), (0, 2))  # (1,): no vacuum, (0, 2): a gap


@st.composite
def walks(draw):
    """2-4 modes with supports from WALK_SUPPORTS, probabilities or complex
    amplitudes as weights, caps and total down to 0, and a stack of 1 or 3
    Haar matrices."""
    n = draw(st.integers(2, 4))
    pure = draw(st.booleans())
    supports = []
    for _ in range(n):
        counts = draw(st.sampled_from(WALK_SUPPORTS))
        size = len(counts)
        weights = draw(st.lists(st.floats(0.05, 1.0), min_size=size, max_size=size))
        if pure:
            phases = draw(st.lists(st.floats(0.0, 2 * math.pi), min_size=size, max_size=size))
            weights = [w * complex(math.cos(a), math.sin(a)) for w, a in zip(weights, phases)]
        supports.append(tuple(zip(counts, weights)))
    top = sum(s[-1][0] for s in supports)
    caps = tuple(draw(st.integers(0, top)) for _ in range(n))
    total = draw(st.integers(0, top))
    b = draw(st.sampled_from([1, 3]))
    seeds = draw(st.lists(st.integers(0, 2**31 - 1), min_size=b, max_size=b))
    stack = np.array([haar_random(n, s).matrix for s in seeds])
    return supports, caps, total, stack, pure


@settings(max_examples=150, deadline=None)
@given(walks())
@example(((((0, 0.5), (1, 0.5)), ((1, 1.0),)), (2, 0), 2, haar_random(2, 5).matrix[None], False))
def test_walk_equals_the_chain_oracle_bit_for_bit(walk):
    """expand and output_table against the engine's earlier walk
    (oracles.expand_by_chains), by their bytes: the flat walk multiplies and
    sums the same terms in the same order.  The example has steps with a
    single edge and row, whose products numpy rounds apart when taken in
    place."""
    supports, caps, total, stack, pure = walk
    for matrix in (stack, stack[0]):
        basis, got = expand(supports, matrix, caps, total)
        _, want = expand_by_chains(supports, matrix, caps, total)
        assert list(got) == list(want)
        for t, (weights, coeffs) in want.items():
            assert got[t][0].dtype == weights.dtype and got[t][0].tobytes() == weights.tobytes()
            assert got[t][1].shape == coeffs.shape and got[t][1].tobytes() == coeffs.tobytes()
        if not pure:
            _, table = output_table(supports, matrix, caps, total)
            _, reference = output_table_by_chains(supports, matrix, caps, total)
            assert table.tobytes() == reference.tobytes()


def _assert_reader_matches(supports, stack, caps, total, table=True):
    """The bound reader of supports against output_table and expand, the
    chain oracle and its one-matrix calls, by their bytes; its table's
    last cell is a zero."""
    bound = engine.reader(supports, caps, total)
    assert bound is engine.reader([list(s) for s in supports], list(caps), total)  # cached
    got = bound.expand(stack)
    for walk in (expand, expand_by_chains):
        want = walk(supports, stack, caps, total)[1]
        assert list(got) == list(want)
        for t, (weights, coeffs) in want.items():
            assert got[t][0].tobytes() == weights.tobytes()
            assert got[t][1].shape == coeffs.shape and got[t][1].tobytes() == coeffs.tobytes()
    if table:
        cells = bound.table(stack)
        assert cells.shape == (len(stack), len(bound.basis.states) + 1)
        assert not cells[:, -1].any()
        for walk in (output_table, output_table_by_chains):
            assert cells[:, :-1].tobytes() == walk(supports, stack, caps, total)[1].tobytes()
        for row, matrix in zip(cells, stack):
            assert row.tobytes() == bound.table(matrix).tobytes()
    return bound


@pytest.mark.parametrize("weights", ["probabilities", "amplitudes"])
def test_a_bound_reader_equals_the_table_and_expansion_around_its_slice_width(weights):
    """Stacks one short of, at and one past the matrices walked at once, and
    an empty stack; amplitudes (complex weights) are read by expand only."""
    spec = InputSpec(({0: 0.5, 1: 0.3, 2: 0.2}, {0: 0.6, 1: 0.4}, {0: 0.1, 1: 0.9}))
    supports = spec.distributions
    if weights == "amplitudes":
        supports = tuple(
            tuple((c, math.sqrt(w) * complex(math.cos(c + i), math.sin(c + i))) for c, w in s)
            for i, s in enumerate(supports)
        )
    caps, top = (3, 2, 2), 4
    size = engine.reader(supports, caps, top).slice
    assert 1 < size < 200
    matrices = np.array([haar_random(3, s).matrix for s in range(size + 1)])
    for count in (size - 1, size, size + 1, 0):
        _assert_reader_matches(supports, matrices[:count], caps, top, weights == "probabilities")


def test_a_bound_reader_equals_the_table_on_the_five_mode_dust_stack():
    """The 5-mode stack of search's stacked-scoring test: chain starts whose
    vacuum entries are dust or not, Haar matrices, the identity, and |U|."""
    from photonpost.search import PatternScorer, chain_seed_angles, detector_patterns
    from photonpost.search import unitary_from_angles

    n = 5
    spec = InputSpec.two_level([0.3] * n)
    patterns = detector_patterns(n, n - 1)
    readout = PatternScorer(spec, patterns[patterns.max(axis=1) >= 2]).readout
    rng = np.random.default_rng(11)
    scales = np.array([[0.0], [1e-13], [1e-12], [1e-9]])
    starts = chain_seed_angles(n, 1e-3) + scales * rng.standard_normal((4, n * (n - 1)))
    chains = unitary_from_angles(n, starts)
    haar = [haar_random(n, s).matrix for s in (3, 4)]
    stack = np.array([haar[0], chains[0], chains[1], np.eye(n), haar[1], chains[3], chains[2]])
    for matrices in (stack, np.abs(stack)):
        bound = _assert_reader_matches(spec.distributions, matrices, readout.caps, n)
        assert bound is readout.reader


@pytest.mark.parametrize(
    "n, caps", [(4, (4, 3, 3, 3)), (6, (4, 2, 2, 2, 2, 2)), (11, (5, 6) + (0,) * 9)]
)
def test_a_two_level_plan_takes_one_op_per_input_mode(n, caps):
    """One gather, multiply and sum per input mode, where the earlier walk took
    one per (input mode, sector) and copied every row that emits nothing."""
    plan = engine._plan(((0, 1),) * n, caps, n)
    assert len(plan.ops) == n
    assert [op[0] for op in plan.ops] == list(range(n))


ENGINE_CACHES = (engine.basis, engine._plan, engine._reader)


def test_cached_plans_never_mix_up_row_weights():
    """Sources with the same counts at other weights share a plan; each table,
    interleaved with the other's on warm caches, equals a cold-cache call."""
    stack = np.array([build_chain(4, 0.3).interferometer.matrix, haar_random(4, 5).matrix])
    caps, top = (4, 3, 3, 3), 4
    three_level = [{0: 0.5, 1: 0.3, 2: 0.2}, {0: 0.6, 1: 0.4}, {0: 0.1, 1: 0.9}, {1: 1.0}]
    reweighted = [dict(zip(d, reversed(d.values()))) for d in three_level]
    pairs = [
        [InputSpec.two_level([p] * 4).distributions for p in (0.2, 0.6)],
        [InputSpec(tuple(d)).distributions for d in (three_level, reweighted)],
    ]
    for supports in pairs:
        assert [[c for c, _ in s] for s in supports[0]] == [[c for c, _ in s] for s in supports[1]]
        cold = []
        for support in supports:
            for cache in ENGINE_CACHES:
                cache.cache_clear()
            cold.append(output_table(support, stack, caps, top)[1].tobytes())
        assert cold[0] != cold[1]
        for support, want in zip(supports * 2, cold * 2):
            assert output_table(support, stack, caps, top)[1].tobytes() == want
        assert engine._plan.cache_info().misses == 1
    # equal float and complex weights hash alike, yet keep their own row weights
    fock = InputSpec(({1: 1.0},) * 4).distributions
    pure = [[(1, 1 + 0j)]] * 4
    for supports, kind in ((fock, float), (pure, complex), (fock, float)):
        weights, _ = expand(supports, stack, caps, top)[1][4]
        assert weights.dtype == kind


def test_repeated_call_builds_no_new_plan():
    spec = InputSpec.two_level([0.3] * 4)
    caps, top = (4, 3, 3, 3), 4
    output_table(spec.distributions, np.eye(4), caps, top)
    built = [cache.cache_info().misses for cache in ENGINE_CACHES]
    output_table(spec.distributions, haar_random(4, 2).matrix, list(caps), top)
    expand(spec.distributions, np.eye(4)[None], caps, top)
    reader(spec.distributions, caps, top).stack
    assert [cache.cache_info().misses for cache in ENGINE_CACHES] == built


def test_importing_the_cli_builds_no_basis_or_plan():
    """Import does no engine work, so a job's set-up time holds none of it."""
    script = (
        "import photonpost.cli\n"
        "from photonpost import engine, search\n"
        "caches = (engine.basis, engine._plan, engine._reader, search._coupler_layout)\n"
        "print([cache.cache_info().currsize for cache in caches])\n"
    )
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    done = subprocess.run(
        [sys.executable, "-c", script],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        check=True,
    )
    assert done.stdout.split() == ["[0,", "0,", "0,", "0]"]
