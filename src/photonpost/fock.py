"""Photon counts, per-mode input distributions and emission configurations.

A source is described mode by mode: each mode carries a diagonal
photon-number distribution (no coherences between number states).  The
two-level case, vacuum with probability 1-p and one photon with
probability p, is the common one; small multiphoton admixtures are
supported through explicit per-mode distributions.  Output and detection
patterns are not listed here: they are the states of an engine basis.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Sequence

from .errors import BadCount, BadDistributionShape, NotNormalized

# Per-mode probabilities must sum to one this tightly at construction.
PROB_SUM_TOL = 1e-12


def photon_count(value) -> int:
    """value as a photon or mode count: a non-negative whole number, so 2 and
    2.0 read as 2; 1.5, NaN, infinity, a string or a negative number raise BadCount."""
    try:
        count = int(value)
        whole = count == value
    except (TypeError, ValueError, OverflowError):
        whole = False
    if not whole or count < 0:
        raise BadCount(f"count {value!r} is not a non-negative integer")
    return count


@dataclass(frozen=True)
class PhotonConfig:
    """Occupation-number vector; counts[i] photons sit in mode i."""

    counts: tuple[int, ...]

    def __post_init__(self):
        counts = tuple(photon_count(c) for c in self.counts)
        if len(counts) < 1:
            raise BadCount("a photon configuration needs at least one mode")
        object.__setattr__(self, "counts", counts)

    def total(self) -> int:
        return sum(self.counts)

    def __len__(self) -> int:
        return len(self.counts)

    def __iter__(self):
        return iter(self.counts)

    def __getitem__(self, i):
        return self.counts[i]


def _as_distribution(entry) -> tuple[tuple[int, float], ...]:
    """Normalize one mode's distribution to sorted (count, prob) pairs.

    Accepts a mapping {count: prob} or an iterable of (count, prob) pairs.
    Zero-probability entries are dropped; they carry no support.
    """
    seen = {}
    for n, q in entry.items() if isinstance(entry, Mapping) else entry:
        n, q = photon_count(n), float(q)
        if not 0 <= q <= 1 + PROB_SUM_TOL:  # NaN fails too
            raise NotNormalized(f"probability {q} outside [0, 1]")
        if n in seen:
            raise BadCount(f"duplicate photon count {n} in distribution")
        seen[n] = q
    total = sum(seen.values())
    if not abs(total - 1.0) <= PROB_SUM_TOL:
        raise NotNormalized(f"mode probabilities sum to {total}, expected 1")
    return tuple(sorted((n, q) for n, q in seen.items() if q > 0.0))


@dataclass(frozen=True)
class InputSpec:
    """Per-mode photon-number distributions for a multimode source.

    distributions[i] is a sorted tuple of (count, probability) pairs with
    positive probabilities summing to one.
    """

    distributions: tuple[tuple[tuple[int, float], ...], ...]

    def __post_init__(self):
        dists = tuple(_as_distribution(d) for d in self.distributions)
        if len(dists) < 1:
            raise BadDistributionShape("an input needs at least one mode")
        object.__setattr__(self, "distributions", dists)

    @classmethod
    def two_level(cls, ps: Sequence[float]) -> "InputSpec":
        """Vacuum/one-photon sources with P(1 photon) = ps[i] per mode."""
        dists = []
        for p in ps:
            p = float(p)
            if not 0 <= p <= 1:
                raise NotNormalized(f"single-photon probability {p} outside [0, 1]")
            dists.append(((0, 1.0 - p), (1, p)))
        return cls(tuple(dists))

    @property
    def n_modes(self) -> int:
        return len(self.distributions)

    def support(self, mode: int) -> tuple[int, ...]:
        return tuple(n for n, _ in self.distributions[mode])

    def prob(self, mode: int, count: int) -> float:
        for n, q in self.distributions[mode]:
            if n == count:
                return q
        return 0.0

    def p_max(self) -> float:
        """Largest single-photon probability over the modes."""
        return max(self.prob(i, 1) for i in range(self.n_modes))

    def occupied_modes(self) -> int:
        """Number of modes whose distribution is not a point mass at vacuum."""
        count = 0
        for dist in self.distributions:
            if len(dist) != 1 or dist[0][0] != 0:
                count += 1
        return count

    def max_total(self) -> int:
        """Largest photon total the source can emit."""
        return sum(dist[-1][0] for dist in self.distributions)

    def is_two_level(self) -> bool:
        return all(n in (0, 1) for dist in self.distributions for n, _ in dist)


def enumerate_inputs(
    spec: InputSpec, total_photons: int
) -> Iterator[tuple[PhotonConfig, float]]:
    """Yield (config, weight) for every way the source emits total_photons.

    Weights are the emission probability divided by the product of the
    per-mode factorials, the combination that multiplies squared
    permanents in the conditional-output formula.  Two-level sources have
    unit factorials, so there the weight is just the plain probability.
    Configurations appear in ascending lexicographic order.
    """
    for counts in itertools.product(*map(spec.support, range(spec.n_modes))):
        if sum(counts) == total_photons:
            weight = 1.0
            for i, c in enumerate(counts):
                weight = weight * spec.prob(i, c) / math.factorial(c)
            yield PhotonConfig(counts), weight


def distribution_moments(coeffs: Iterable[tuple[int, float]]) -> tuple[float, float]:
    """Mean and variance of a photon-number distribution.

    coeffs holds (count, probability) pairs; probabilities must sum to one
    within 1e-9 or NotNormalized is raised.
    """
    pairs = [(int(n), float(q)) for n, q in coeffs]
    total = sum(q for _, q in pairs)
    if abs(total - 1.0) > 1e-9:
        raise NotNormalized(f"distribution sums to {total}, expected 1")
    mean = sum(n * q for n, q in pairs)
    second = sum(n * n * q for n, q in pairs)
    return mean, second - mean * mean
