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
PatternReader is the one reader of exact patterns: it gathers c~ for
many patterns and a stack of interferometers from one engine table;
condition_patterns and condition_mixed are its one-matrix calls.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .engine import basis, expand, max_stack, output_table
from .errors import BadParameters, DimensionMismatch
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


class PatternReader:
    """Reads exact detection patterns from stacked engine tables.

    Built once per (spec, patterns): caps that hold every pattern (each
    detector at its largest count, the kept mode at the source maximum
    minus the fewest detected), a gather index (patterns, n1) into their
    basis, padded with a zero column, and the patterns grouped by length.
    A (B, N, N) stack then gives one stacked table, read as arrays with
    the clamp check and clip that ConditionalResult applies too (_clamp).
    """

    def __init__(self, spec: InputSpec, patterns: Sequence[DetectionPattern]):
        n = spec.n_modes
        if not patterns:
            raise BadParameters("reading needs at least one detection pattern")
        for pattern in patterns:
            if len(pattern) != n - 1:
                raise DimensionMismatch(
                    f"pattern covers {len(pattern)} detectors, expected {n - 1}"
                )
        self.spec, self.patterns = spec, tuple(patterns)
        self.top = spec.max_total()
        counts = [p.counts for p in patterns]
        self.caps = (self.top - min(map(sum, counts)),) + tuple(map(max, zip(*counts)))
        b = basis(self.caps, self.top)
        kept = [b.kept(c) for c in counts]
        self.lengths = [max(k.size, 1) for k in kept]
        self.gather = np.full((len(kept), max(3, *self.lengths)), len(b.states))
        for row, k in zip(self.gather, kept):
            row[: k.size] = k
        # sums run per length, so each adds the same terms as a 1-D sum
        self.groups = [
            (size, np.flatnonzero(np.equal(self.lengths, size)))
            for size in sorted(set(self.lengths))
        ]

    def stack(self) -> int:
        """Most matrices one weights call takes within the engine's cell limit."""
        return max(1, max_stack(self.spec.distributions, self.caps, self.top))

    def weights(self, matrices) -> tuple[np.ndarray, np.ndarray]:
        """Clipped c~ per (matrix, pattern, n1) and each pattern's probability."""
        n = self.spec.n_modes
        if np.shape(matrices)[1:] != (n, n):
            raise DimensionMismatch(
                f"input has {n} modes, interferometer has {np.shape(matrices)[-1]}"
            )
        _, table = output_table(self.spec.distributions, matrices, self.caps, self.top)
        q = np.concatenate([table, np.zeros((len(table), 1))], axis=1)[:, self.gather]
        _clamp(q)
        prob = np.empty(q.shape[:2])
        for size, rows in self.groups:
            prob[:, rows] = q[:, rows, :size].sum(axis=-1)
        return q, prob


def condition_patterns(
    spec: InputSpec, interf: Interferometer, patterns: Sequence[DetectionPattern]
) -> list[ConditionalResult]:
    """condition_mixed for each pattern: one PatternReader call, one table."""
    if not patterns:
        return []
    reader = PatternReader(spec, patterns)
    q, _ = reader.weights(interf.matrix[None])
    return [
        ConditionalResult.from_unnormalized(q[0, i, :length], pattern=pattern)
        for i, (pattern, length) in enumerate(zip(reader.patterns, reader.lengths))
    ]


def condition_mixed(
    spec: InputSpec, interf: Interferometer, pattern: DetectionPattern
) -> ConditionalResult:
    """Conditional output of mode 1 given exact detector counts.

    Evaluates c~ above with engine.py; n1 runs up to the source maximum
    minus the detected total (an impossible pattern yields the flagged
    zero result).
    """
    return condition_patterns(spec, interf, [pattern])[0]


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
