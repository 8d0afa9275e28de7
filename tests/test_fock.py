import math

import numpy as np
import pytest

from photonpost import (
    BadCount,
    InputSpec,
    NotNormalized,
    PhotonConfig,
    distribution_moments,
    enumerate_inputs,
)
from photonpost.engine import basis


def test_photon_config_total_and_validation():
    cfg = PhotonConfig((1, 0, 2))
    assert cfg.total() == 3
    assert len(cfg) == 3
    assert tuple(cfg) == (1, 0, 2)
    with pytest.raises(BadCount):
        PhotonConfig((1, -1))
    with pytest.raises(BadCount):
        PhotonConfig(())


def test_two_level_spec_basics():
    spec = InputSpec.two_level([0.2, 0.0, 0.5])
    assert spec.p_max() == 0.5
    assert spec.occupied_modes() == 2
    assert spec.max_total() == 2
    assert spec.is_two_level()
    assert np.isclose(spec.prob(0, 1), 0.2)
    assert np.isclose(spec.prob(0, 0), 0.8)
    assert spec.prob(1, 1) == 0.0


def test_spec_rejects_unnormalized_distributions():
    with pytest.raises(NotNormalized):
        InputSpec(({0: 0.5, 1: 0.4},))
    with pytest.raises(NotNormalized):
        InputSpec.two_level([1.2])


def test_spec_rejects_nan_probabilities():
    with pytest.raises(NotNormalized):
        InputSpec(({0: 1.0, 1: math.nan}, {0: 1.0}))
    with pytest.raises(NotNormalized):
        InputSpec(([(0, math.nan), (1, 1.0)],))
    with pytest.raises(NotNormalized):
        InputSpec.two_level([math.nan, 0.2])


def test_multiphoton_spec_not_two_level():
    spec = InputSpec(({0: 0.7, 2: 0.3}, {0: 1.0}))
    assert not spec.is_two_level()
    assert spec.max_total() == 2
    assert spec.occupied_modes() == 1


def test_enumerate_two_modes_two_photons():
    p = 0.3
    spec = InputSpec.two_level([p, p])
    terms = list(enumerate_inputs(spec, 2))
    assert len(terms) == 1
    cfg, weight = terms[0]
    assert cfg.counts == (1, 1)
    assert np.isclose(weight, p * p)


def test_enumerate_skips_vacuum_modes():
    spec = InputSpec((({0: 0.8, 1: 0.2}), {0: 1.0}))
    terms = list(enumerate_inputs(spec, 1))
    assert [(cfg.counts, w) for cfg, w in terms] == [((1, 0), pytest.approx(0.2))]


def test_enumerate_four_modes_binary_count():
    spec = InputSpec.two_level([0.2] * 4)
    terms = list(enumerate_inputs(spec, 2))
    assert len(terms) == 6
    for cfg, weight in terms:
        assert cfg.total() == 2
        assert np.isclose(weight, 0.04 * 0.64)
    # ascending lexicographic order is part of the contract
    counts = [cfg.counts for cfg, _ in terms]
    assert counts == sorted(counts)


def test_enumerate_weights_recover_total_probability():
    # weights are P_s / prod(s_i!), so multiplying the factorials back and
    # summing over every total must give 1 for any product distribution
    rng = np.random.default_rng(20240817)
    for _ in range(10):
        n_modes = int(rng.integers(1, 4))
        dists = []
        for _ in range(n_modes):
            support = rng.choice(4, size=int(rng.integers(1, 4)), replace=False)
            probs = rng.uniform(0.1, 1.0, size=len(support))
            probs /= probs.sum()
            dists.append({int(c): float(p) for c, p in zip(support, probs)})
        spec = InputSpec(tuple(dists))
        total_prob = 0.0
        for total in range(spec.max_total() + 1):
            for cfg, weight in enumerate_inputs(spec, total):
                total_prob += weight * math.prod(math.factorial(c) for c in cfg)
        assert np.isclose(total_prob, 1.0, atol=1e-12)


def test_compositions_cover_and_order():
    """The placements of a fixed photon count over modes are the sectors of
    an engine basis, covered once each and ordered lexicographically."""

    def sector(total, n_modes):
        b = basis((total,) * n_modes, total)
        return [tuple(s) for s in b.states[b.offsets[total] : b.offsets[total + 1]]]

    assert sector(3, 2) == [(0, 3), (1, 2), (2, 1), (3, 0)]
    assert sector(0, 3) == [(0, 0, 0)]
    assert len(sector(4, 3)) == 15


def test_moments_point_mass():
    mean, var = distribution_moments([(0, 1.0)])
    assert mean == 0.0
    assert var == 0.0


def test_moments_bernoulli():
    mean, var = distribution_moments([(0, 0.7), (1, 0.3)])
    assert np.isclose(mean, 0.3)
    assert np.isclose(var, 0.21)


def test_moments_truncated_poisson():
    lam = 1.0
    probs = [(n, math.exp(-lam) * lam**n / math.factorial(n)) for n in range(11)]
    leftover = 1.0 - sum(p for _, p in probs)
    probs[0] = (0, probs[0][1] + leftover)
    mean, var = distribution_moments(probs)
    assert np.isclose(mean, 1.0, atol=1e-4)
    assert np.isclose(var, 1.0, atol=1e-4)


def test_moments_reject_unnormalized():
    with pytest.raises(NotNormalized):
        distribution_moments([(0, 0.5), (1, 0.4)])
