import math

import numpy as np
import pytest
from oracles import check_bound, conditional_coefficients, improvement_predicate

import photonpost.engine
from photonpost import (
    ConditionalResult,
    DetectionPattern,
    DimensionMismatch,
    InputSpec,
    Interferometer,
    ZeroProbabilityPattern,
    beam_splitter,
    build_chain,
    condition_mixed,
    detection_coefficients,
    figures_of_merit,
    haar_random,
    improvement_threshold,
)
from photonpost.merit import allowed_ratio, is_dust, ratio_breaches


def merits_of_distribution(dist):
    """Run a distribution through a trivial one-mode network."""
    spec = InputSpec((dist,))
    res = condition_mixed(spec, Interferometer(np.eye(1)), DetectionPattern(()))
    return figures_of_merit(res, spec), res


def test_two_level_distribution_figures():
    report, _ = merits_of_distribution({0: 0.8, 1: 0.2})
    assert np.isclose(report.ratio_out, 0.25)
    assert report.two_photon_out == 0.0
    assert np.isclose(report.fano_out, 0.8)
    assert np.isclose(report.ratio_in, 0.25)
    assert np.isclose(report.fano_in, 0.8)
    assert not report.improves_single_photon


def test_poisson_distribution_figures():
    lam = 0.5
    dist = {n: math.exp(-lam) * lam**n / math.factorial(n) for n in range(9)}
    dist[0] += 1.0 - sum(dist.values())
    report, _ = merits_of_distribution(dist)
    assert np.isclose(report.two_photon_out, 0.5, atol=1e-12)
    assert np.isclose(report.fano_out, 1.0, atol=1e-3)


def test_single_photon_distribution_figures():
    report, _ = merits_of_distribution({1: 1.0})
    assert math.isinf(report.ratio_out)
    assert np.isclose(report.fano_out, 0.0)


def test_ratio_is_zero_without_a_single_photon_even_without_vacuum():
    """q1/q0 reads as PatternScorer reads it: infinite only when q1 > 0 = q0."""
    spec = InputSpec(({2: 1.0}, {0: 1.0}))
    res = condition_mixed(spec, beam_splitter(0.0), DetectionPattern((0,)))
    assert list(res.normalized) == [0.0, 0.0, 1.0]
    assert figures_of_merit(res, spec).ratio_out == 0.0


def test_zero_probability_pattern_rejected():
    spec = InputSpec.two_level([0.2, 0.2])
    res = condition_mixed(spec, beam_splitter(0.4), DetectionPattern((3,)))
    with pytest.raises(ZeroProbabilityPattern):
        figures_of_merit(res, spec)


def test_ratio_bound_field():
    spec = InputSpec.two_level([0.2] * 4)
    chain = build_chain(4, 0.1)
    res = condition_mixed(spec, chain.interferometer, chain.pattern_for(2))
    report = figures_of_merit(res, spec)
    assert np.isclose(report.ratio_bound, 0.25 * (4 - 2))
    assert report.ratio_out <= report.ratio_bound + 1e-9


def test_allowed_ratio_is_strict_with_none_or_all_but_one_detected():
    spec = InputSpec.two_level([0.2, 0.2, 0.2, 0.0])  # M = 3 occupied modes
    assert allowed_ratio(spec, [0, 1, 2, 3]).tolist() == [0.25, 0.5, 0.25, 0.0]
    assert allowed_ratio(InputSpec.two_level([0.0, 1.0]), 0) is None
    assert allowed_ratio(InputSpec.two_level([0.0, 0.0]), 0) is None
    assert allowed_ratio(InputSpec(({0: 0.5, 2: 0.5},)), 0) is None


def test_ratio_bound_flags_a_breach_of_the_strict_form_only():
    """[[1, 1], [0, 0]] sends both sources into the kept mode.  With nothing
    detected q1/q0 is exactly 2 ratio_in: the (M - D) form allows it, the
    strict D = 0 form does not.  No unitary gets there."""
    spec = InputSpec.two_level([0.5, 0.5])
    matrix = np.array([[1.0, 1.0], [0.0, 0.0]], dtype=complex)
    q = conditional_coefficients(matrix, spec.distributions, (0,))
    assert q[1] / q[0] == 2.0 == 2 * allowed_ratio(spec, 0)
    assert ratio_breaches(q[0], q[1], allowed_ratio(spec, 0))
    result = ConditionalResult.from_unnormalized(q, pattern=DetectionPattern((0,)))
    assert not check_bound(result, spec)
    with pytest.raises(AssertionError, match="ratio bound violated"):
        photonpost.engine.output_table(spec.distributions, matrix, (2, 0), 2)  # the tripwire


def test_ratio_bound_never_flags_cancellation_dust():
    allowed = allowed_ratio(InputSpec.two_level([0.6] * 5), 4)
    for q0 in (1e-40, 0.0):  # roundoff left a tiny or a clipped vacuum entry
        assert ratio_breaches(q0, 1e-11, allowed)  # read as a ratio, it breaches
        assert not ratio_breaches(q0, 1e-11, allowed) & ~is_dust(q0, 1e-3)
    # a vacuum entry no path reaches is a true zero, not dust
    assert ratio_breaches(0.0, 1e-3, allowed) & ~is_dust(0.0, 0.0)


def test_json_encoding_of_infinity():
    report, _ = merits_of_distribution({1: 1.0})
    data = report.to_json_dict()
    assert data["ratio_out"] == "infinity"
    assert data["ratio_in"] == "infinity"


# detection coefficients -----------------------------------------------------


def test_empty_pattern_zeroth_coefficient():
    u = haar_random(3, seed=8)
    coeffs = detection_coefficients(u, DetectionPattern((0, 0)))
    assert np.isclose(coeffs[0], 1.0, atol=1e-12)


def test_balanced_splitter_click_kills_first_coefficient():
    bs = beam_splitter(math.pi / 4, 0.0)
    coeffs = detection_coefficients(bs, DetectionPattern((1,)))
    per = bs.matrix[0, 0] * bs.matrix[1, 1] + bs.matrix[0, 1] * bs.matrix[1, 0]
    assert np.isclose(coeffs[1], abs(per) ** 2, atol=1e-12)
    assert np.isclose(coeffs[1], 0.0, atol=1e-12)


def test_chain_coefficient_ratio_matches_gain():
    chain = build_chain(4, 1e-3)
    coeffs = detection_coefficients(chain.interferometer, chain.pattern_for(2))
    # d1/d0 equals the ratio amplification factor, 4/3 in the weak limit
    assert np.isclose(coeffs[1] / coeffs[0], 4 / 3, rtol=0.01)
    # and the same number must come out of the full conditional pipeline
    p = 0.01
    spec = InputSpec.two_level([p] * 4)
    res = condition_mixed(spec, chain.interferometer, chain.pattern_for(2))
    r_in = p / (1 - p)
    q = res.unnormalized
    assert np.isclose(q[1] / q[0], (coeffs[1] / coeffs[0]) * r_in, atol=1e-9)


def test_reconstruction_from_coefficients():
    rng = np.random.default_rng(51)
    for _ in range(8):
        n = int(rng.integers(2, 5))
        u = haar_random(n, seed=int(rng.integers(0, 2**31)))
        counts = tuple(int(c) for c in rng.integers(0, 2, size=n - 1))
        pattern = DetectionPattern(counts)
        coeffs = detection_coefficients(u, pattern)
        for p in (0.05, 0.2, 0.5):
            spec = InputSpec.two_level([p] * n)
            res = condition_mixed(spec, u, pattern)
            if res.zero_probability:
                continue
            r = p / (1 - p)
            detected = pattern.total()
            rebuilt = np.array(
                [coeffs[k] * r**k / math.factorial(k) for k in range(len(coeffs))]
            )
            rebuilt *= p**detected * (1 - p) ** (n - detected)
            assert np.allclose(rebuilt, res.unnormalized, atol=1e-12)


def test_detection_coefficients_reject_bad_patterns():
    u = haar_random(3, seed=101)
    with pytest.raises(DimensionMismatch):
        detection_coefficients(u, DetectionPattern((1,)))


# improvement predicate and threshold ----------------------------------------


def test_predicate_without_multiphoton_terms():
    for r in (0.1, 1.0, 10.0, 1e6):
        assert improvement_predicate([1.0, 2.0], r)
    assert not improvement_predicate([2.0, 1.0], 0.3)


def test_predicate_arithmetic_example():
    # 1.5 against 1 + 12/2! = 7 at unit ratio
    assert not improvement_predicate([1.0, 1.5, 12.0], 1.0)
    assert improvement_predicate([1.0, 1.5, 12.0], 0.05)


def test_predicate_monotone_in_ratio():
    rng = np.random.default_rng(52)
    for _ in range(10):
        d = rng.uniform(0.0, 2.0, size=4)
        rs = np.linspace(0.01, 3.0, 40)
        truth = [improvement_predicate(d, r) for r in rs]
        # once the predicate turns false it stays false for larger ratios
        if True in truth:
            first_false = truth.index(False) if False in truth else len(truth)
            assert all(truth[:first_false])
            assert not any(truth[first_false:])


def test_threshold_no_closing_term():
    assert math.isinf(improvement_threshold([1.0, 2.0]))
    assert improvement_threshold([2.0, 1.0]) == 0.0


def test_threshold_quadratic_example():
    # 2 = 1 + r^2 closes at r = 1
    assert np.isclose(improvement_threshold([1.0, 2.0, 2.0]), 1.0, atol=1e-9)


def test_threshold_consistent_with_predicate():
    rng = np.random.default_rng(53)
    for _ in range(10):
        d = rng.uniform(0.0, 2.0, size=5)
        r_star = improvement_threshold(d)
        if r_star in (0.0, math.inf):
            continue
        assert improvement_predicate(d, r_star * 0.999)
        assert not improvement_predicate(d, r_star * 1.001)


def test_chain_improvement_window_closes_near_half():
    # the 4-mode chain improves the single-photon probability only for
    # inputs below roughly p = 0.414; verify the d-based threshold against
    # a direct sweep of the full conditional computation
    chain = build_chain(4, 1e-3)
    coeffs = detection_coefficients(chain.interferometer, chain.pattern_for(2))
    r_star = improvement_threshold(coeffs)
    p_star = r_star / (1 + r_star)
    assert np.isclose(p_star, math.sqrt(2) - 1, atol=2e-3)
    assert p_star < 0.5
    for p, expect in ((p_star - 0.01, True), (p_star + 0.01, False)):
        spec = InputSpec.two_level([p] * 4)
        res = condition_mixed(spec, chain.interferometer, chain.pattern_for(2))
        assert bool(res.normalized[1] > p) is expect
