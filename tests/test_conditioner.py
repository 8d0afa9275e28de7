import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from photonpost import (
    DetectionPattern,
    DimensionMismatch,
    InputSpec,
    Interferometer,
    NotNormalized,
    beam_splitter,
    compose,
    condition_mixed,
    build_chain,
    condition_pure,
    embed_two_mode,
    evaluate_candidate,
    haar_random,
)
from photonpost.conditioner import Readout
from photonpost.interferometer import haar_unitaries
from oracles import (
    condition_mixed_bs_closed_form,
    condition_on_responses,
    conditional_coefficients,
    propagate_fock,
    scorer_results,
)


def random_bs(rng):
    theta, phi = rng.uniform(0, 2 * math.pi, size=2)
    return beam_splitter(theta, phi)


def test_identity_keeps_input_distribution():
    spec = InputSpec.two_level([0.3, 0.0, 0.0])
    res = condition_mixed(spec, Interferometer(np.eye(3)), DetectionPattern((0, 0)))
    assert np.allclose(res.unnormalized, [0.7, 0.3])
    assert np.isclose(res.pattern_probability, 1.0)
    assert np.isclose(res.normalized.sum(), 1.0)


def test_all_vacuum_input():
    spec = InputSpec.two_level([0.0, 0.0])
    res = condition_mixed(spec, beam_splitter(1.0, 0.3), DetectionPattern((0,)))
    assert np.allclose(res.unnormalized, [1.0])
    assert res.pattern_probability == pytest.approx(1.0)


def test_detecting_nothing_preserves_input_ratio():
    # with equal two-level inputs, conditioning on an empty pattern leaves
    # the one-to-zero ratio at exactly p/(1-p) for any beam splitter
    rng = np.random.default_rng(41)
    p = 0.23
    spec = InputSpec.two_level([p, p])
    for _ in range(10):
        res = condition_mixed(spec, random_bs(rng), DetectionPattern((0,)))
        q = res.unnormalized
        assert np.isclose(q[1] / q[0], p / (1 - p), atol=1e-12)


def test_single_click_coefficients_match_hand_expansion():
    rng = np.random.default_rng(42)
    p = 0.2
    spec = InputSpec.two_level([p, p])
    for _ in range(10):
        bs = random_bs(rng)
        m = bs.matrix
        res = condition_mixed(spec, bs, DetectionPattern((1,)))
        per = m[0, 0] * m[1, 1] + m[0, 1] * m[1, 0]
        want0 = p * (1 - p) * (abs(m[1, 0]) ** 2 + abs(m[1, 1]) ** 2)
        want1 = p * p * abs(per) ** 2
        assert np.isclose(res.unnormalized[0], want0, atol=1e-12)
        assert np.isclose(res.unnormalized[1], want1, atol=1e-12)


def test_pattern_probability_sums_unnormalized():
    rng = np.random.default_rng(43)
    spec = InputSpec.two_level([0.2, 0.4, 0.1])
    u = haar_random(3, seed=9)
    for counts in [(0, 0), (1, 0), (1, 1), (2, 0), (0, 3)]:
        res = condition_mixed(spec, u, DetectionPattern(counts))
        assert np.isclose(res.pattern_probability, res.unnormalized.sum())


def test_impossible_pattern_is_flagged():
    """Counts above the source maximum, however large, read as impossible in
    condition_mixed and in the searches' scorer alike, without a count-sized
    allocation."""
    spec = InputSpec.two_level([0.2, 0.2])
    for count in (3, 2000, 10**30):
        tracemalloc.start()
        res = condition_mixed(spec, beam_splitter(0.4), DetectionPattern((count,)))
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert res.zero_probability
        assert res.pattern_probability == 0.0
        assert res.unnormalized.tolist() == [0.0]
        assert peak < 1 << 20
        best, _, violations = evaluate_candidate(
            beam_splitter(0.4), spec, "single_photon", [(float(count),)]
        )
        assert (best, violations) == (0.0, 0)


def test_pattern_probabilities_cover_all_outcomes():
    # summing the pattern probability over every detector outcome gives 1
    spec = InputSpec((({0: 0.5, 1: 0.3, 2: 0.2}), {0: 0.6, 1: 0.4}))
    u = haar_random(2, seed=3)
    total = 0.0
    for d in range(spec.max_total() + 1):
        total += condition_mixed(spec, u, DetectionPattern((d,))).pattern_probability
    assert np.isclose(total, 1.0, atol=1e-12)


def test_condition_mixed_matches_brute_force_small():
    rng = np.random.default_rng(44)
    for _ in range(10):
        n = int(rng.integers(2, 5))
        u = haar_random(n, seed=int(rng.integers(0, 2**31)))
        dists = []
        for _ in range(n):
            top = int(rng.integers(1, 3))
            probs = rng.uniform(0.05, 1.0, size=top + 1)
            probs /= probs.sum()
            dists.append({c: float(pr) for c, pr in enumerate(probs)})
        spec = InputSpec(tuple(dists))
        pattern_counts = tuple(
            int(rng.integers(0, 2)) for _ in range(n - 1)
        )
        res = condition_mixed(spec, u, DetectionPattern(pattern_counts))
        want = conditional_coefficients(u.matrix, dists, pattern_counts)
        assert res.unnormalized.shape == want.shape
        assert np.allclose(res.unnormalized, want, atol=1e-9)


def test_scorer_weights_match_brute_force_per_pattern():
    """One multi-pattern PatternScorer read against the brute-force oracle,
    pattern by pattern: mixed row lengths, a detector count above any mode's
    maximum, an impossible pattern and a two-photon source share one table
    and one gather."""
    dists = ({0: 0.5, 1: 0.3, 2: 0.2}, {0: 0.6, 1: 0.4}, {0: 0.7, 1: 0.3}, {0: 0.8, 1: 0.2})
    spec = InputSpec(dists)
    u = haar_random(4, seed=17)
    counts = [(0, 0, 0), (1, 0, 2), (3, 0, 0), (0, 4, 1), (2, 2, 2), (4, 0, 0), (0, 1, 0)]
    results = scorer_results(spec, u, [DetectionPattern(c) for c in counts])
    assert [r.unnormalized.size for r in results] == [6, 3, 3, 1, 1, 2, 5]
    for c, res in zip(counts, results):
        want = conditional_coefficients(u.matrix, dists, c)
        assert res.pattern.counts == c
        if want.size == 0:  # more photons detected than the source emits
            assert res.zero_probability and res.unnormalized.tolist() == [0.0]
            continue
        assert not res.zero_probability
        np.testing.assert_allclose(res.unnormalized, want, rtol=1e-12, atol=0)
        np.testing.assert_allclose(res.normalized, want / want.sum(), rtol=1e-12, atol=0)
        assert res.pattern_probability == pytest.approx(want.sum(), rel=1e-12)


@st.composite
def response_readings(draw):
    """A 2-4 mode two-level or two-photon source, 1-3 readings of response
    columns and a stack of 1 or 3 Haar seeds.  Column entries are 0, 1 or
    a positive weight; columns run past the source maximum or stop short,
    and some are all zero."""
    n = draw(st.integers(2, 4))
    if draw(st.booleans()):
        spec = InputSpec.two_level(draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n)))
    else:
        pair = draw(st.floats(0.01, 0.3))
        spec = InputSpec(({0: 0.6 - pair, 1: 0.4, 2: pair},) * n)
    length = draw(st.integers(1, spec.max_total() + 3))
    entry = st.one_of(st.just(0.0), st.just(1.0), st.floats(1e-3, 2.0))
    column = st.one_of(
        st.lists(entry, min_size=length, max_size=length), st.just([0.0] * length)
    )
    readings = draw(st.lists(
        st.lists(column, min_size=n - 1, max_size=n - 1), min_size=1, max_size=3
    ))
    stack = draw(st.sampled_from([1, 3]))
    seeds = draw(st.lists(st.integers(0, 2**31), min_size=stack, max_size=stack))
    return spec, np.array(readings), seeds


@settings(max_examples=120, deadline=None)
@given(response_readings())
def test_readout_equals_the_response_column_oracle_bit_for_bit(case):
    """A one-reading Readout against weighting the whole table column by
    column and adding it up per n1 (oracles.condition_on_responses), and
    each stacked row against its one-matrix read.  Readings read together
    share caps, so they agree with the oracle only to roundoff: the engine's
    per-sector product w @ squares can round a state's entry differently
    when its sector holds more states.  Each reading's probability read
    together is the 1-D sum of its own cells, whatever the others' lengths."""
    spec, columns, seeds = case
    stack = haar_unitaries(spec.n_modes, seeds)
    together, together_prob = Readout(spec, columns).read(stack)
    for p, reading in enumerate(columns):
        readout = Readout(spec, [reading])
        q, prob = readout.read(stack)
        length = readout.lengths[0]
        assert not q[:, 0, length:].any()
        for b, seed in enumerate(seeds):
            interf = haar_random(spec.n_modes, seed)
            alone, alone_prob = readout.read(interf.matrix[None])
            assert q[b].tobytes() == alone[0].tobytes()
            assert prob[b].tobytes() == alone_prob[0].tobytes()
            want = condition_on_responses(spec, interf, reading, None)
            assert q[b, 0, :length].tobytes() == want.unnormalized.tobytes()
            assert prob[b, 0] == want.pattern_probability
        np.testing.assert_allclose(together[:, p, :length], q[:, 0, :length], rtol=1e-13, atol=0)
        assert together_prob[:, p].tolist() == [row[p, :length].sum() for row in together]


def test_readout_probabilities_are_each_readings_own_sum():
    """Readings holding 3 to 9 kept-mode counts, read together: each one's
    probability is the 1-D sum of its own cells, however long the kept axis
    that the longest reading sets."""
    spec = InputSpec.two_level([0.4] * 8)
    patterns = [(0,) * 7, (1, 1) + (0,) * 5, (2, 1, 1) + (0,) * 4, (1,) + (0,) * 5 + (1,),
                (3, 1, 1, 1, 0, 0, 0)]
    readout = Readout(spec, np.array(patterns)[..., None] == np.arange(spec.max_total() + 1))
    q, prob = readout.read(haar_unitaries(8, list(range(5))))
    assert readout.lengths == (9, 7, 5, 7, 3)
    for p, length in enumerate(readout.lengths):
        assert prob[:, p].tolist() == [row[p, :length].sum() for row in q]


# unnormalized chain rows (p = 0.2, D detected) as float.hex: a change to how
# condition_mixed computes or reads them must keep them bit for bit
CHAIN_ROWS = {
    (4, 0.3, 2): "0x1.1bded8bdf1bdcp-8 0x1.3584fe1e56ecfp-10 0x1.ecc10b7f2e91bp-14",
    (4, 0.3, 3): "0x1.90138214a20bbp-14 0x1.50c281f9536b5p-16",
    (4, 0.001, 2): "0x1.b7cdea665a214p-25 0x1.2533c99163012p-26 0x1.25339e555eabcp-29",
    (4, 0.001, 3): "0x1.cd2b0ea016c6ap-47 0x1.cd2ad8e536a14p-49",
    (4, 1e-05, 2): "0x1.6849b869ab90ap-38 0x1.e0624b35e1944p-40 0x1.e0624b34115a1p-43",
    (4, 1e-05, 3): "0x1.357c299a12c3ap-73 0x1.357c29992674dp-75",
    (6, 0.3, 3): (
        "0x1.35ee2a9b7f4bcp-14 0x1.da4a2359009a5p-16"
        " 0x1.402dfc097e143p-18 0x1.650c8bd06b3fdp-22"
    ),
    (6, 0.3, 5): "0x1.fa28c4671ae44p-27 0x1.b8d1ca7362e59p-29",
    (6, 0.001, 3): (
        "0x1.622d5d2ae14cbp-47 0x1.3ec24a2b63dd7p-48"
        " 0x1.fe036fef8c806p-51 0x1.5402230288f4dp-54"
    ),
    (6, 0.001, 5): "0x1.37899a6a3ce9ep-92 0x1.37897d03be748p-94",
    (6, 1e-05, 3): (
        "0x1.db5e7526124c1p-74 0x1.abd5030773baep-75"
        " 0x1.5644026b5dc7cp-77 0x1.c85aade320975p-81"
    ),
    (6, 1e-05, 5): "0x1.189bba7d168b7p-145 0x1.189bba7c68fecp-147",
    (11, 0.3, 6): (
        "0x1.c553a8be658d1p-33 0x1.2b319ee74cea1p-33"
        " 0x1.702c7182cb6b7p-35 0x1.0290add7eee3fp-37"
        " 0x1.9805d9b31f4f0p-41 0x1.1dbfe50bd8c10p-45"
    ),
    (11, 0.3, 10): "0x1.35a1d0db9bca2p-60 0x1.13f24c1931dd6p-62",
    (11, 0.001, 6): (
        "0x1.949fd56668ce0p-115 0x1.2f77c56c0d4a5p-115"
        " 0x1.a8dabbc1d418bp-117 0x1.53e211bc286e9p-119"
        " 0x1.31e4f4c95864ep-122 0x1.e96e28ccdfa8ap-127"
    ),
    (11, 0.001, 10): "0x1.39101a7fffb0dp-208 0x1.391001acafd5ap-210",
    (11, 1e-05, 6): (
        "0x1.2a8f72e430038p-181 0x1.bfd72c55467e1p-182"
        " 0x1.397d056e2f868p-183 0x1.f594d57bf6039p-186"
        " 0x1.c36c59bb56976p-189 0x1.69237afb72276p-193"
    ),
    (11, 1e-05, 10): "0x1.a021e43c3b836p-328 0x1.a021e43b6340bp-330",
}


@pytest.mark.parametrize("n, eps, detected", sorted(CHAIN_ROWS))
def test_chain_rows_are_pinned(n, eps, detected):
    scheme = build_chain(n, eps)
    spec = InputSpec.two_level([0.2] * n)
    res = condition_mixed(spec, scheme.interferometer, scheme.pattern_for(detected))
    got = " ".join(float(x).hex() for x in res.unnormalized)
    assert got == CHAIN_ROWS[n, eps, detected]


def test_shape_mismatch_raises():
    spec = InputSpec.two_level([0.2, 0.2])
    with pytest.raises(DimensionMismatch):
        condition_mixed(spec, Interferometer(np.eye(3)), DetectionPattern((0, 0)))
    with pytest.raises(DimensionMismatch):
        condition_mixed(spec, Interferometer(np.eye(2)), DetectionPattern((0, 0)))


# two-mode closed form ------------------------------------------------------


def test_closed_form_vacuum_partner_is_attenuation():
    p = 0.35
    bs = beam_splitter(0.9, 0.4)
    res = condition_mixed_bs_closed_form({0: 1 - p, 1: p}, {0: 1.0}, bs, 0)
    t = abs(bs.matrix[0, 0]) ** 2
    assert np.allclose(res.unnormalized, [1 - p, p * t], atol=1e-12)


def test_closed_form_matches_general_path():
    rng = np.random.default_rng(45)
    for _ in range(10):
        bs = random_bs(rng)
        probs1 = rng.uniform(0.05, 1.0, size=3)
        probs1 /= probs1.sum()
        probs2 = rng.uniform(0.05, 1.0, size=2)
        probs2 /= probs2.sum()
        dist1 = {i: float(x) for i, x in enumerate(probs1)}
        dist2 = {i: float(x) for i, x in enumerate(probs2)}
        spec = InputSpec((dist1, dist2))
        for detected in range(4):
            general = condition_mixed(spec, bs, DetectionPattern((detected,)))
            closed = condition_mixed_bs_closed_form(dist1, dist2, bs, detected)
            assert np.allclose(
                closed.unnormalized, general.unnormalized, atol=1e-10
            )


def test_closed_form_purifies_gapped_mixture():
    # {0: 1/2, 2: 1/2} mixed with vacuum: detecting one photon leaves
    # exactly one behind, whatever the (coupling) beam splitter
    rng = np.random.default_rng(46)
    for _ in range(5):
        theta = rng.uniform(0.2, 1.4)
        phi = rng.uniform(0, 2 * math.pi)
        res = condition_mixed_bs_closed_form(
            {0: 0.5, 2: 0.5}, {0: 1.0}, beam_splitter(theta, phi), 1
        )
        assert np.isclose(res.normalized[1], 1.0, atol=1e-12)
        assert np.isclose(res.normalized[0], 0.0, atol=1e-12)


# pure states ---------------------------------------------------------------


def joint_amplitudes(amplitudes, interf, pattern):
    """<n1, pattern|U|psi> for every n1: condition_pure's state times the
    square root of its probability (zeros for an impossible pattern)."""
    kept, prob = condition_pure(amplitudes, interf, DetectionPattern(pattern))
    return np.zeros(1) if kept is None else kept * math.sqrt(prob)


def test_propagate_vacuum():
    kept, prob = condition_pure([{0: 1.0}, {0: 1.0}], beam_splitter(0.7, 0.1), DetectionPattern((0,)))
    assert np.isclose(kept[0], 1.0)
    assert np.isclose(prob, 1.0)


def test_propagate_two_level_product_amplitude():
    alpha, beta = math.sqrt(0.7), math.sqrt(0.3)
    bs = beam_splitter(0.8, 2.1)
    sources = [{0: alpha, 1: beta}] * 2
    m = bs.matrix
    vacuum_detector = joint_amplitudes(sources, bs, (0,))
    one_detected = joint_amplitudes(sources, bs, (1,))
    assert np.isclose(vacuum_detector[1], alpha * beta * (m[0, 0] + m[0, 1]), atol=1e-12)
    assert np.isclose(vacuum_detector[0], alpha * alpha, atol=1e-12)
    assert np.isclose(
        one_detected[1], beta * beta * (m[0, 0] * m[1, 1] + m[0, 1] * m[1, 0]),
        atol=1e-12,
    )


def test_propagate_single_photon_is_matrix_column():
    bs = beam_splitter(math.pi / 4, 0.0)
    sources = [{1: 1.0}, {0: 1.0}]
    assert np.isclose(abs(joint_amplitudes(sources, bs, (0,))[1]), 1 / math.sqrt(2))
    assert np.isclose(abs(joint_amplitudes(sources, bs, (1,))[0]), 1 / math.sqrt(2))


def test_propagate_matches_fock_oracle():
    u = haar_random(3, seed=21)
    want = propagate_fock(u.matrix, (1, 1, 0))
    for n2 in range(3):
        for n3 in range(3 - n2):
            got = joint_amplitudes([{1: 1.0}, {1: 1.0}, {0: 1.0}], u, (n2, n3))
            for n1, amp in enumerate(got):
                assert np.isclose(amp, want.get((n1, n2, n3), 0.0), atol=1e-10)


def test_condition_pure_trivial_click():
    kept, prob = condition_pure([{1: 1.0}, {1: 1.0}], Interferometer(np.eye(2)), DetectionPattern((1,)))
    assert prob == pytest.approx(1.0)
    assert np.isclose(abs(kept[1]), 1.0)


def test_condition_pure_first_stage_amplitudes():
    alpha, beta = math.sqrt(0.6), math.sqrt(0.4)
    bs = beam_splitter(0.9, 1.7)
    m = bs.matrix
    kept, prob = condition_pure([{0: alpha, 1: beta}] * 2, bs, DetectionPattern((0,)))
    want = np.array(
        [
            alpha**2,
            alpha * beta * (m[0, 0] + m[0, 1]),
            math.sqrt(2) * beta**2 * m[0, 0] * m[0, 1],
        ],
        dtype=complex,
    )
    want_norm = want / np.linalg.norm(want)
    # states match up to the common normalization already applied
    assert np.allclose(kept, want_norm, atol=1e-10)
    assert not kept.flags.writeable
    assert np.isclose(prob, np.linalg.norm(want) ** 2, atol=1e-12)


def test_condition_pure_hong_ou_mandel():
    bs = beam_splitter(math.pi / 4, 0.0)
    sources = [{1: 1.0}, {1: 1.0}]
    kept, prob = condition_pure(sources, bs, DetectionPattern((0,)))
    assert np.isclose(prob, 0.5, atol=1e-12)
    assert np.isclose(abs(kept[2]), 1.0, atol=1e-12)
    # the balanced splitter never sends one photon each way
    kept_one, prob_one = condition_pure(sources, bs, DetectionPattern((1,)))
    assert prob_one == pytest.approx(0.0, abs=1e-12)
    assert kept_one is None


def test_condition_pure_probabilities_sum_to_one():
    u = haar_random(3, seed=33)
    sources = [{0: math.sqrt(0.5), 1: math.sqrt(0.5)}] * 3
    total = 0.0
    for n2 in range(4):
        for n3 in range(4):
            _, prob = condition_pure(sources, u, DetectionPattern((n2, n3)))
            total += prob
    assert np.isclose(total, 1.0, atol=1e-10)


def _random_pure_source(rng):
    """Up to two photons on a random support, random complex amplitudes."""
    counts = sorted(rng.choice(3, size=rng.integers(1, 4), replace=False).tolist())
    amps = rng.normal(size=len(counts)) + 1j * rng.normal(size=len(counts))
    amps /= np.linalg.norm(amps)
    return dict(zip(counts, amps))


def test_condition_pure_matches_fock_oracle_for_multiphoton_sources():
    # <n|U|psi> = sum_s prod_i a_i(s_i) <n|U|s>, summed coherently
    rng = np.random.default_rng(48)
    checked = 0
    for n_modes in (2, 3, 4):
        for trial in range(3):
            u = haar_random(n_modes, seed=100 * n_modes + trial)
            sources = [_random_pure_source(rng) for _ in range(n_modes)]
            if trial == 0:
                sources[0] = {0: math.sqrt(0.3), 2: math.sqrt(0.7) * 1j}
            want = {}
            for config in itertools.product(*(sorted(s) for s in sources)):
                a = math.prod(s[c] for s, c in zip(sources, config))
                for out, amp in propagate_fock(u.matrix, config).items():
                    want[out] = want.get(out, 0.0) + a * amp
            top = sum(max(s) for s in sources)
            for pattern in itertools.product(range(top + 1), repeat=n_modes - 1):
                if sum(pattern) > top:
                    continue
                got = joint_amplitudes(sources, u, pattern)
                expected = np.array(
                    [want.get((n1, *pattern), 0.0) for n1 in range(top - sum(pattern) + 1)]
                )
                if np.sum(np.abs(expected) ** 2) <= 1e-30:
                    assert got.shape == (1,) and got[0] == 0
                    continue
                assert np.allclose(got, expected, atol=1e-12, rtol=0)
                checked += 1
    assert checked > 100


def test_condition_pure_rejects_unnormalized_sources_and_wrong_lengths():
    bs = beam_splitter(0.4, 0.2)
    with pytest.raises(NotNormalized):
        condition_pure([{0: 0.6, 1: 0.6}, {0: 1.0}], bs, DetectionPattern((0,)))
    with pytest.raises(NotNormalized):
        condition_pure([{0: 0.0}, {0: 1.0}], bs, DetectionPattern((0,)))
    with pytest.raises(DimensionMismatch):
        condition_pure([{0: 1.0}] * 3, bs, DetectionPattern((0,)))
    with pytest.raises(DimensionMismatch):
        condition_pure([{0: 1.0}] * 2, bs, DetectionPattern((0, 0)))

