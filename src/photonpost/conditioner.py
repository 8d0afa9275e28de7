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
entry is a difference of large terms.  Readout is the one reader of its
tables: it weights them with a response column per detector, one-hot for
exact counts (condition_mixed, search.PatternScorer) or a detector's
response (detectors.observe), for one interferometer or a stack.

Mixed and pure sources read the same engine rows c_s[n]: a mixed source
squares each row and then adds them (the incoherent sum of the table),
condition_pure adds the rows weighted by the source amplitudes and then
squares (the coherent sum).  Only the coherent sum can interfere its way
to an exact single photon.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .engine import basis, expand, reader
from .errors import BadDistributionShape, DimensionMismatch, NegativeWeight, NotNormalized
from .fock import InputSpec, photon_count
from .interferometer import Interferometer

SHORT_SUM = 7  # NumPy sums fewer than 8 terms left to right, trailing zeros changing nothing


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
        zero = not prob > 0.0
        normalized = np.zeros_like(arr) if zero else arr / prob
        arr.setflags(write=False)
        normalized.setflags(write=False)
        return cls(arr, pattern, prob, normalized, zero)

    def detected_total(self):
        """Total detected photons when the pattern is exact, else None."""
        if isinstance(self.pattern, DetectionPattern):
            return self.pattern.total()
        return None


@functools.lru_cache(maxsize=128)
def _layout(shape: tuple, weights: bytes) -> tuple:
    """(caps, lengths, gather, factors, long groups) of a Readout of cut
    columns (a float array of this shape as bytes), read-only; nothing else
    shapes them, so sources with the same maximum share them."""
    readings, detectors, top = shape[0], shape[1], shape[2] - 1
    cut = np.frombuffer(weights).reshape(shape)
    held = cut > 0.0
    # each reading holds at least its smallest count per detector
    fewest = np.where(held.any(axis=2).all(axis=1), held.argmax(axis=2).sum(axis=1), top + 1)
    largest = tuple(np.max(held * np.arange(top + 1), axis=(0, 2)).tolist())
    caps = (max(0, top - int(fewest.min())),) + largest
    lengths = np.maximum(top - fewest + 1, 1)
    b = basis(caps, top)
    true = b.states[b.states[:, 0] == 0, 1:]  # by total, then lexicographically: table order
    holds = np.ones((readings, len(true)), dtype=bool)
    for j in range(detectors):
        holds &= held[:, j, true[:, j]]
    owner, t = np.nonzero(holds)  # a row per (reading, true pattern it holds)
    t, rows = true[t], np.bincount(owner, minlength=readings)
    first = np.cumsum(rows) - rows
    n1 = np.arange(max(3, caps[0] + 1))  # the objectives read n1 = 0..2
    vectors = np.zeros((len(t), n1.size, detectors + 1), dtype=np.int64)
    vectors[..., 0], vectors[..., 1:] = n1, t[:, None]
    index = b.lookup(vectors).reshape(len(t), n1.size)
    k = np.arange(len(t)) - first[owner]
    gather = np.full((readings, n1.size, max(1, rows.max())), len(b.states))
    gather[owner, :, k] = np.where(index < 0, len(b.states), index)
    factors = np.ones((detectors, readings, 1, gather.shape[-1]))
    factors[:, owner, 0, k] = cut[owner[:, None], np.arange(detectors), t].T
    factors = tuple(f for f in factors if np.any(f != 1.0))
    # readings longer than SHORT_SUM are summed per length, as a 1-D sum adds them
    groups = tuple((m, np.flatnonzero(lengths == m)) for m in {*lengths.tolist()} if m > SHORT_SUM)
    for a in (gather, *factors, *(g for _, g in groups)):
        a.setflags(write=False)
    return caps, tuple(lengths.tolist()), gather, factors, groups


class Readout:
    """Reads kept-mode weights from engine tables for fixed response columns.

    columns[p, j, t], finite and non-negative, weighs detector j seeing t
    photons in reading p (one-hot: an exact count); counts above the
    source maximum cannot occur and are cut.  The layout is cached per
    (source maximum, columns), as engine plans are: caps holding every
    reading (the kept mode at the source maximum minus the fewest photons
    a reading holds, each detector at its largest support), each reading's
    length (the n1 it holds, 1 if none), gather[p, n1, k], the table cell
    of n1 with reading p's k-th true detector pattern in table order (else
    the table's zero cell), and a factor array per detector not all 1.
    The source's engine.Reader over those caps is bound once, here.
    """

    def __init__(self, spec: InputSpec, columns):
        n, top = spec.n_modes, spec.max_total()
        columns = np.asarray(columns, dtype=float)
        if columns.ndim != 3 or columns.shape[1] != n - 1 or not len(columns):
            raise DimensionMismatch(f"columns have shape {columns.shape}, not (P, {n - 1}, counts)")
        if not np.all((columns >= 0.0) & (columns < math.inf)):  # NaN fails too
            raise NotNormalized("response columns must be finite and non-negative")
        cut = np.zeros(columns.shape[:2] + (top + 1,))
        cut[..., : columns.shape[2]] = columns[..., : top + 1]
        self.spec, self.top, layout = spec, top, _layout(cut.shape, cut.tobytes())
        self.caps, self.lengths, self.gather, self.factors, self.groups = layout
        self.reader = reader(spec.distributions, self.caps, top)

    def stack(self) -> int:
        """Most matrices one read takes within the engine's cell limit."""
        return self.reader.stack

    def read(self, matrices) -> tuple[np.ndarray, np.ndarray]:
        """c~ per (matrix, reading, n1) and each reading's probability for a
        (B, N, N) stack: one table of the bound reader, one gather, the
        factors in detector order and a sequential sum over true patterns,
        the products and sums, in order, of weighting the whole table column
        by column, summed per n1."""
        n = self.spec.n_modes
        if np.shape(matrices)[1:] != (n, n):
            raise DimensionMismatch(f"input has {n} modes, matrices {np.shape(matrices)}")
        q = self.reader.table(matrices).take(self.gather, axis=1)
        for factor in self.factors:
            q *= factor
        if q.shape[-1] > 1:  # one-hot readings hold one true pattern: nothing to add
            q = np.add.accumulate(q, axis=-1)  # not sum: it adds 8 or more pairwise
        q = q[..., -1]
        prob = q[..., :SHORT_SUM].sum(axis=-1)  # the zero cells past a length add nothing
        for size, rows in self.groups:
            prob[:, rows] = q[:, rows, :size].sum(axis=-1)
        return q, prob

    def condition(self, interf: Interferometer, label) -> ConditionalResult:
        """The first reading of interf alone, as a ConditionalResult labelled label."""
        q, _ = self.read(interf.matrix[None])
        return ConditionalResult.from_unnormalized(q[0, 0, : self.lengths[0]], pattern=label)


def condition_mixed(
    spec: InputSpec, interf: Interferometer, pattern: DetectionPattern
) -> ConditionalResult:
    """Conditional output of mode 1 given exact detector counts: the
    Readout of one-hot columns.  n1 runs up to the source maximum minus the
    detected total; an impossible pattern (a count above the source maximum
    too) yields the flagged zero result."""
    top = spec.max_total()
    hot = np.array([min(c, top + 1) for c in pattern])[:, None] == np.arange(top + 1)
    return Readout(spec, [hot]).condition(interf, pattern)


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
