"""Conditional output statistics behind photodetection.

The kept mode is always mode 1 (index 0); detectors watch modes 2..N.
For diagonal inputs the conditional state of mode 1 is again diagonal,
so everything reduces to a vector of unnormalized number-state weights.

The weight of finding n1 photons in mode 1 together with the pattern
(n2..nN) at the detectors is

    c~[n1] = (1 / (n1! * prod_j nj!)) * sum_s  W_s  |per(L[n, s])|^2

where the sum runs over emission configurations s with the same total as
n, W_s is the emission probability divided by prod_i s_i!, and L[n, s]
repeats column i of the interferometer s_i times and row j n_j times.
Summing c~ over n1 gives exactly the probability of seeing the pattern.

That formula is the definition.  engine.py computes it by expanding the
creation operators, multiplying and adding path amplitudes only, so no
entry is a difference of large terms.
condition_on_responses is the one reader for one interferometer: it
weights the engine table with a response column per detector, so exact
counts (condition_mixed, one-hot columns) and imperfect detectors
(detectors.observe) share it.  search.PatternScorer reads many exact
patterns of a stack of interferometers.

Mixed and pure sources read the same engine rows c_s[n]: a mixed source
squares each row and then adds them (the incoherent sum of the table),
condition_pure adds the rows weighted by the source amplitudes and then
squares (the coherent sum).  Only the coherent sum can interfere its way
to an exact single photon.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .engine import expand, output_table
from .errors import BadDistributionShape, DimensionMismatch, NegativeWeight, NotNormalized
from .fock import InputSpec, photon_count
from .interferometer import Interferometer

@dataclass(frozen=True)
class DetectionPattern:
    """Exact photon counts on the detector modes 2..N (index 0 is mode 2)."""

    counts: tuple[int, ...]

    def __post_init__(self):
        counts = tuple(photon_count(c) for c in self.counts)
        object.__setattr__(self, "counts", counts)

    def total(self) -> int:
        return sum(self.counts)

    def __len__(self) -> int:
        return len(self.counts)

    def __iter__(self):
        return iter(self.counts)


@dataclass(frozen=True, eq=False)
class ConditionalResult:
    """Number-state weights of the kept mode after conditioning.

    unnormalized[n1] is c~[n1] as above; their sum is the probability of
    the detection pattern, and normalized[] is the conditional
    distribution (all zeros, flagged, when the pattern cannot occur).
    """

    unnormalized: np.ndarray
    pattern: object
    pattern_probability: float
    normalized: np.ndarray
    zero_probability: bool

    @classmethod
    def from_unnormalized(cls, values, pattern=None) -> "ConditionalResult":
        arr = np.asarray(values, dtype=float).copy()
        if arr.ndim != 1 or arr.size < 1:
            raise BadDistributionShape("expected a 1-D coefficient vector")
        if not np.all(np.isfinite(arr)):
            raise NotNormalized(f"coefficients are not all finite: {arr}")
        if arr.min() < 0.0:  # c~ entries are sums of non-negative terms
            raise NegativeWeight(f"coefficient {arr.min()} is negative")
        prob = float(arr.sum())
        if prob > 0.0:
            normalized = arr / prob
            zero = False
        else:
            normalized = np.zeros_like(arr)
            zero = True
        arr.setflags(write=False)
        normalized.setflags(write=False)
        return cls(
            unnormalized=arr,
            pattern=pattern,
            pattern_probability=prob,
            normalized=normalized,
            zero_probability=zero,
        )

    def detected_total(self):
        """Total detected photons when the pattern is exact, else None."""
        if isinstance(self.pattern, DetectionPattern):
            return self.pattern.total()
        return None


def condition_on_responses(
    spec: InputSpec, interf: Interferometer, columns: Sequence, pattern
) -> ConditionalResult:
    """Conditional output of mode 1 weighted by one response column per detector.

    columns[j][t], finite and non-negative, is the weight of detector j
    having seen t photons (a one-hot column is an exact count).  One
    engine table, capped at the column supports, is multiplied by every
    column in detector order and summed over n1; pattern labels the result.  Without support within
    the source maximum the result is the flagged zero one.
    """
    n = interf.n_modes
    if spec.n_modes != n:
        raise DimensionMismatch(f"input has {spec.n_modes} modes, interferometer has {n}")
    if len(columns) != n - 1:
        raise DimensionMismatch(f"pattern covers {len(columns)} detectors, expected {n - 1}")
    max_total = spec.max_total()
    columns = [np.asarray(col, dtype=float) for col in columns]
    if not all(np.all((col >= 0.0) & (col < math.inf)) for col in columns):  # NaN fails too
        raise NotNormalized("response columns must be finite and non-negative")
    supports = [np.flatnonzero(col[: max_total + 1]) for col in columns]
    if any(t.size == 0 for t in supports) or sum(t[0] for t in supports) > max_total:
        return ConditionalResult.from_unnormalized([0.0], pattern=pattern)
    cap = max_total - sum(int(t[0]) for t in supports)
    caps = (cap,) + tuple(int(t[-1]) for t in supports)
    basis, table = output_table(spec.distributions, interf.matrix, caps, max_total)
    for j, col in enumerate(columns):
        table = table * col[basis.states[:, j + 1]]
    mixed = np.bincount(basis.states[:, 0], weights=table, minlength=cap + 1)
    return ConditionalResult.from_unnormalized(mixed, pattern=pattern)


def condition_mixed(
    spec: InputSpec, interf: Interferometer, pattern: DetectionPattern
) -> ConditionalResult:
    """Conditional output of mode 1 given exact detector counts.

    condition_on_responses with one-hot columns; n1 runs up to the source
    maximum minus the detected total (an impossible pattern yields the
    flagged zero result).
    """
    return condition_on_responses(spec, interf, [np.eye(c + 1)[c] for c in pattern], pattern)


def condition_pure(
    amplitudes: Sequence, interf: Interferometer, pattern: DetectionPattern
) -> tuple[np.ndarray | None, float]:
    """Conditional state of mode 1 for a product of pure sources.

    amplitudes[i] maps photon count to amplitude for input mode i, each
    mode normalized to 1e-10.  One engine call with support weights
    a * sqrt(c!) gives rows weighted prod_i a_i / sqrt(s_i!), whose sum
    times sqrt(n!) is the output amplitude <n|psi>.  Returns the
    normalized mode-1 amplitudes, indexed by n1 (read-only), and the
    probability of the pattern; a zero-probability pattern gives
    (None, 0.0).
    """
    n = interf.n_modes
    if len(amplitudes) != n or len(pattern) != n - 1:
        raise DimensionMismatch(
            f"{len(amplitudes)} sources and a pattern over {len(pattern)} detectors "
            f"do not fit {n} modes"
        )
    supports = []
    for amps in amplitudes:
        support = sorted((photon_count(c), complex(a)) for c, a in dict(amps).items() if a != 0)
        norm = math.sqrt(sum(abs(a) ** 2 for _, a in support))
        if not abs(norm - 1.0) <= 1e-10:
            raise NotNormalized(f"source norm {norm} is not 1 within 1e-10")
        supports.append([(c, a * math.sqrt(math.factorial(c))) for c, a in support])
    top = sum(s[-1][0] for s in supports)
    cap = top - pattern.total()
    if cap < 0:
        return None, 0.0
    b, sectors = expand(supports, interf.matrix, (cap, *pattern), top)
    amps = np.zeros(len(b.states), dtype=complex)
    for t, (weights, coeffs) in sectors.items():
        amps[b.offsets[t] : b.offsets[t + 1]] = weights @ coeffs
    index = b.lookup([(n1, *pattern) for n1 in range(cap + 1)])
    kept = amps[index] * np.sqrt(b.factorials[index])
    probability = float(np.sum(kept.real**2 + kept.imag**2))
    # below ~1e-30 the surviving amplitudes are cancellation dust (squared
    # float roundoff) and renormalizing them would manufacture a state
    if probability <= 1e-30:
        return None, 0.0
    kept /= math.sqrt(probability)
    kept.setflags(write=False)
    return kept, probability
