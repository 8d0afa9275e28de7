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
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .engine import basis, expand, output_table
from .errors import DimensionMismatch
from .fock import InputSpec, PhotonConfig
from .interferometer import Interferometer

# c~ entries are sums of non-negative terms; anything below this is
# floating-point dust and gets clamped to zero.
NEGATIVE_CLAMP = -1e-14


def _clamp(q: np.ndarray) -> None:
    """Clip c~ dust below zero in place; an entry below NEGATIVE_CLAMP is an error."""
    low = q.min()
    if low < NEGATIVE_CLAMP:
        raise ValueError(f"coefficient {low} is negative beyond roundoff")
    np.clip(q, 0.0, None, out=q)


@dataclass(frozen=True)
class DetectionPattern:
    """Exact photon counts on the detector modes 2..N (index 0 is mode 2)."""

    counts: tuple[int, ...]

    def __post_init__(self):
        counts = tuple(int(c) for c in self.counts)
        if any(c < 0 for c in counts):
            raise ValueError(f"negative count in detection pattern {counts}")
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
            raise ValueError("expected a 1-D coefficient vector")
        _clamp(arr)
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

    columns[j][t] is the weight of detector j having seen t photons (a
    one-hot column is an exact count).  One engine table, capped at the
    column supports, is multiplied by every column in detector order and
    summed over n1; pattern labels the result.  Without support within
    the source maximum the result is the flagged zero one.
    """
    n = interf.n_modes
    if spec.n_modes != n:
        raise DimensionMismatch(f"input has {spec.n_modes} modes, interferometer has {n}")
    if len(columns) != n - 1:
        raise DimensionMismatch(f"pattern covers {len(columns)} detectors, expected {n - 1}")
    max_total = spec.max_total()
    columns = [np.asarray(col, dtype=float)[: max_total + 1] for col in columns]
    supports = [np.flatnonzero(col) for col in columns]
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


@dataclass(frozen=True, eq=False)
class PureState:
    """Superposition over photon-number configurations.

    amplitudes maps PhotonConfig -> complex; configurations all share the
    same mode count.  States are expected to be normalized to 1e-10.
    """

    amplitudes: dict

    NORM_TOL = 1e-10

    @classmethod
    def from_amplitudes(cls, amplitudes, require_normalized: bool = True) -> "PureState":
        amps = {}
        n_modes = None
        for config, a in dict(amplitudes).items():
            if not isinstance(config, PhotonConfig):
                config = PhotonConfig(tuple(config))
            if n_modes is None:
                n_modes = len(config)
            elif len(config) != n_modes:
                raise DimensionMismatch("mixed mode counts in one pure state")
            a = complex(a)
            if a != 0:
                amps[config] = a
        if require_normalized:
            norm = math.sqrt(sum(abs(a) ** 2 for a in amps.values()))
            if not abs(norm - 1.0) <= cls.NORM_TOL:
                raise ValueError(f"state norm {norm} is not 1 within {cls.NORM_TOL}")
        return cls(amplitudes=amps)

    @classmethod
    def two_level_product(cls, alpha: complex, beta: complex, n_modes: int) -> "PureState":
        """(alpha |0> + beta |1>) on every mode."""
        amps = {}
        for bits in itertools.product((0, 1), repeat=n_modes):
            amp = 1 + 0j
            for b in bits:
                amp *= beta if b else alpha
            if amp != 0:
                amps[PhotonConfig(bits)] = amp
        return cls.from_amplitudes(amps, require_normalized=False)

    @property
    def n_modes(self) -> int:
        for config in self.amplitudes:
            return len(config)
        return 0

    def amplitude(self, config) -> complex:
        if not isinstance(config, PhotonConfig):
            config = PhotonConfig(tuple(config))
        return self.amplitudes.get(config, 0j)


def propagate_pure(state: PureState, interf: Interferometer) -> PureState:
    """Send a pure state through an interferometer.

    Output amplitude of configuration n from input s is
    per(L[n, s]) / sqrt(prod n_i! prod s_i!), computed by engine.py; the
    norm is preserved to ~1e-10 for the photon numbers this package targets.
    """
    n = interf.n_modes
    if state.n_modes not in (0, n):
        raise DimensionMismatch(
            f"state has {state.n_modes} modes, interferometer has {n}"
        )
    if not state.amplitudes:
        return state
    top = max(s.total() for s in state.amplitudes)
    caps = (top,) * n
    b = basis(caps, top)
    amps = np.zeros(len(b.states), dtype=complex)
    for s, a_in in state.amplitudes.items():
        _, sectors = expand([((c, 1.0),) for c in s.counts], interf.matrix, caps, top)
        ((weights, coeffs),) = sectors.values()
        lo, hi = b.offsets[s.total()], b.offsets[s.total() + 1]
        amps[lo:hi] += a_in * math.sqrt(weights[0]) * coeffs[0]
    amps *= np.sqrt(b.factorials)
    out = {PhotonConfig(v): a for v, a in zip(map(tuple, b.states.tolist()), amps)}
    return PureState.from_amplitudes(out, require_normalized=False)


def condition_pure(
    state: PureState, pattern: DetectionPattern
) -> tuple[PureState | None, float]:
    """Project the detector modes of a pure state onto exact counts.

    Returns the renormalized state of mode 1 and the probability of the
    detection; a zero-probability pattern gives (None, 0.0).
    """
    if state.n_modes and len(pattern) != state.n_modes - 1:
        raise DimensionMismatch(
            f"pattern covers {len(pattern)} detectors, state has "
            f"{state.n_modes} modes"
        )
    kept: dict[PhotonConfig, complex] = {}
    for config, a in state.amplitudes.items():
        if tuple(config)[1:] == pattern.counts:
            kept[PhotonConfig((config[0],))] = a
    probability = sum(abs(a) ** 2 for a in kept.values())
    # below ~1e-30 the surviving amplitudes are cancellation dust (squared
    # float roundoff) and renormalizing them would manufacture a state
    if probability <= 1e-30:
        return None, 0.0
    scale = 1.0 / math.sqrt(probability)
    out = {c: a * scale for c, a in kept.items()}
    return PureState.from_amplitudes(out, require_normalized=False), float(probability)
