import itertools
import math

import numpy as np
import pytest

from photonpost import (
    BUCKET,
    BadCount,
    DetectionPattern,
    DetectorModel,
    DimensionMismatch,
    InputSpec,
    NotNormalized,
    ObservedPattern,
    beam_splitter,
    build_chain,
    condition_mixed,
    haar_random,
    observe,
    benchmark_detector_suite,
)


def test_response_rows_are_stochastic():
    for model in (
        DetectorModel.exact(5),
        DetectorModel.vacuum_inefficient(6),
        DetectorModel.bucket(4, dark_one=1e-3, dark_zero=1e-6),
    ):
        sums = model.response.sum(axis=1)
        assert np.allclose(sums, 1.0, atol=1e-12)


def test_vacuum_inefficient_rows():
    model = DetectorModel.vacuum_inefficient(4)
    assert model.report_probability(0, 1) == 0.10
    assert model.report_probability(1, 1) == 0.90
    assert model.report_probability(0, 2) == 0.01
    assert model.report_probability(0, 3) == 0.001
    assert model.report_probability(4, 4) == 1.0


def test_bucket_rows():
    model = DetectorModel.bucket(4, dark_one=1e-3, dark_zero=1e-6)
    assert model.report_probability(0, 0) == 1.0 - 1e-6
    assert model.report_probability(BUCKET, 0) == 1e-6
    assert model.report_probability(1, 1) == 1.0 - 1e-3
    assert model.report_probability(BUCKET, 2) == 1.0
    assert model.report_probability(BUCKET, 4) == 1.0
    assert model.report_probability(1, 3) == 0.0


def test_exact_model_is_identity():
    model = DetectorModel.exact(3)
    assert model.outcomes == (0, 1, 2, 3)
    assert np.array_equal(model.response, np.eye(4))


def test_response_column():
    model = DetectorModel.bucket(3, dark_one=1e-3)
    assert model.column(BUCKET).tolist() == [0.0, 1e-3, 1.0, 1.0]
    assert model.column(1).tolist() == [0.0, 1.0 - 1e-3, 0.0, 0.0]
    assert model.column("nonsense").tolist() == [0.0] * 4


def test_report_probability_range_check():
    model = DetectorModel.exact(2)
    with pytest.raises(DimensionMismatch):
        model.report_probability(0, 5)


def test_constructor_rejects_bad_rows():
    with pytest.raises(NotNormalized):
        DetectorModel((0, 1), np.array([[0.5, 0.4], [0.0, 1.0]]))
    with pytest.raises(NotNormalized):
        DetectorModel((0, 1), np.array([[1.2, -0.2], [0.0, 1.0]]))
    with pytest.raises(DimensionMismatch):
        DetectorModel((0, 1, 2), np.eye(2))


def test_constructor_rejects_nan_responses():
    with pytest.raises(NotNormalized):
        DetectorModel((0, 1), np.array([[1.0, math.nan], [0.0, 1.0]]))
    with pytest.raises(NotNormalized):
        DetectorModel((0, 1), np.array([[math.nan, math.nan], [0.0, 1.0]]))


def test_benchmark_suite_shapes():
    vacuum, tap = benchmark_detector_suite()
    assert vacuum.report_probability(0, 1) == 0.10
    assert tap.report_probability(BUCKET, 1) == 1e-3
    assert tap.report_probability(BUCKET, 0) == 1e-6


# observe --------------------------------------------------------------------


def test_exact_models_reproduce_conditioning():
    # exact models and condition_mixed share one contraction: bit for bit,
    # two-level and multiphoton sources alike
    rng = np.random.default_rng(71)
    for draw in range(12):
        n = int(rng.integers(2, 5))
        u = haar_random(n, seed=int(rng.integers(0, 2**31)))
        if draw % 2:
            spec = InputSpec(tuple(dict(enumerate(rng.dirichlet(np.ones(3)))) for _ in range(n)))
        else:
            spec = InputSpec.two_level([float(rng.uniform(0.05, 0.5))] * n)
        counts = tuple(int(c) for c in rng.integers(0, 3, size=n - 1))
        direct = condition_mixed(spec, u, DetectionPattern(counts))
        models = [DetectorModel.exact(spec.max_total())] * (n - 1)
        via_observe = observe(spec, u, ObservedPattern(counts), models)
        assert np.array_equal(via_observe.unnormalized, direct.unnormalized), draw
        assert via_observe.pattern_probability == direct.pattern_probability, draw
        assert np.array_equal(via_observe.normalized, direct.normalized), draw


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_exact_models_on_the_chain_tap_are_bit_identical(n):
    # exact counts read through observe and through condition_mixed must
    # agree bit for bit on the chain's (D, 0, ..., 0) patterns
    for eps, p in itertools.product((0.3, 1e-2, 1e-4), (0.1, 0.5)):
        chain = build_chain(n, eps)
        spec = InputSpec.two_level([p] * n)
        models = [DetectorModel.exact(spec.max_total())] * (n - 1)
        for d in range(n + 1):
            direct = condition_mixed(spec, chain.interferometer, chain.pattern_for(d))
            counts = chain.pattern_for(d).counts
            via = observe(spec, chain.interferometer, ObservedPattern(counts), models)
            assert np.array_equal(via.unnormalized, direct.unnormalized), (eps, p, d)
            assert via.pattern_probability == direct.pattern_probability, (eps, p, d)
            assert np.array_equal(via.normalized, direct.normalized), (eps, p, d)


def test_clean_bucket_sums_exact_patterns():
    # a dark-count-free bucket reading ">=2" on the tap, vacuum elsewhere,
    # must equal the sum of the exact results for 2, 3 and 4 tap photons
    n = 4
    p = 0.3
    spec = InputSpec.two_level([p] * n)
    chain = build_chain(n, 0.2)
    cap = spec.max_total()
    models = [DetectorModel.bucket(cap)] + [DetectorModel.exact(cap)] * (n - 2)
    got = observe(spec, chain.interferometer, ObservedPattern((BUCKET, 0, 0)), models)
    want = np.zeros(spec.max_total() + 1)
    for d in (2, 3, 4):
        res = condition_mixed(spec, chain.interferometer, chain.pattern_for(d))
        arr = res.unnormalized
        want[: arr.size] += arr
    # the bucket mixture is reported against the smallest compatible count
    assert np.allclose(got.unnormalized, want[: got.unnormalized.size], atol=1e-12)
    assert np.isclose(
        got.pattern_probability,
        sum(
            condition_mixed(spec, chain.interferometer, chain.pattern_for(d)).pattern_probability
            for d in (2, 3, 4)
        ),
        atol=1e-12,
    )


def test_observed_outcomes_are_complete():
    # summing the reported-pattern probability over every reachable report
    # must give one, whatever the detector imperfections
    n = 3
    spec = InputSpec(({0: 0.55, 1: 0.35, 2: 0.10},) * n)
    u = haar_random(n, seed=9)
    cap = spec.max_total()
    vacuum = DetectorModel.vacuum_inefficient(cap)
    tap = DetectorModel.bucket(cap, dark_one=1e-3, dark_zero=1e-6)
    models = [tap, vacuum]
    per_detector = [tap.outcomes, vacuum.outcomes]
    total = 0.0
    for combo in itertools.product(*per_detector):
        res = observe(spec, u, ObservedPattern(combo), models)
        total += res.pattern_probability
    assert np.isclose(total, 1.0, atol=1e-9)


def test_observe_rejects_wrong_arity():
    spec = InputSpec.two_level([0.2, 0.2, 0.2])
    u = haar_random(3, seed=2)
    models = [DetectorModel.exact(3)] * 2
    with pytest.raises(DimensionMismatch):
        observe(spec, u, ObservedPattern((0,)), models)
    with pytest.raises(DimensionMismatch):
        observe(spec, u, ObservedPattern((0, 0)), models[:1])


@pytest.mark.parametrize("source_modes", [3, 5], ids=["fewer", "more"])
def test_observe_rejects_source_of_other_mode_count(source_modes):
    spec = InputSpec.two_level([0.2] * source_modes)
    models = [DetectorModel.exact(5)] * 3
    with pytest.raises(DimensionMismatch):
        observe(spec, haar_random(4, 1), ObservedPattern((0, 0, 0)), models)


def test_observed_pattern_validation():
    with pytest.raises(BadCount):
        ObservedPattern((0, "maybe"))
    with pytest.raises(BadCount):
        ObservedPattern((-1,))
    assert tuple(ObservedPattern((1, BUCKET))) == (1, BUCKET)


def test_impossible_report_gives_zero():
    # an exact detector can never report more photons than the source holds
    spec = InputSpec.two_level([0.2, 0.2])
    res = observe(
        spec,
        beam_splitter(0.3),
        ObservedPattern((5,)),
        [DetectorModel.exact(6)],
    )
    assert res.zero_probability
    assert res.pattern_probability == 0.0


def test_observe_rejects_models_below_the_source_maximum():
    # mass above a model's cap would otherwise be dropped without notice
    spec = InputSpec.two_level([0.2, 0.2, 0.2])
    u = haar_random(3, seed=2)
    models = [DetectorModel.exact(2)] * 2
    with pytest.raises(DimensionMismatch):
        observe(spec, u, ObservedPattern((0, 0)), models)
