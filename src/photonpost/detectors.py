"""Imperfect photodetection as classical post-processing.

A detector is a stochastic response matrix P(reported | true).  Reported
outcomes are either exact counts or the bucket ">=2" for detectors that
saturate.  Observing a pattern of reported outcomes mixes the exact
conditional results over every true pattern the detectors could have
seen, weighted by the product of per-detector response probabilities:
observe builds the response columns and conditioner.condition_on_responses,
the reader exact counts use too, contracts them with one engine table.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .conditioner import ConditionalResult, condition_on_responses
from .errors import BadCount, DimensionMismatch, NotNormalized
from .fock import InputSpec, photon_count
from .interferometer import Interferometer

BUCKET = ">=2"

ROW_SUM_TOL = 1e-12

# vacuum_inefficient: probability that 1, 2, 3 photons register as none
VACUUM_MISS = (0.10, 0.01, 0.001)


@dataclass(frozen=True, eq=False)
class DetectorModel:
    """Stochastic map from true photon count to reported outcome.

    response[t, k] = P(outcomes[k] | t photons arrived), defined for
    t = 0..cap; every row sums to one within 1e-12.
    """

    outcomes: tuple
    response: np.ndarray

    def __post_init__(self):
        outcomes = tuple(
            o if isinstance(o, str) else photon_count(o) for o in self.outcomes
        )
        resp = np.array(self.response, dtype=float)
        if resp.ndim != 2 or resp.shape[1] != len(outcomes):
            raise DimensionMismatch(
                f"response shape {resp.shape} does not match {len(outcomes)} outcomes"
            )
        if not np.all(resp >= 0):  # NaN fails too
            raise NotNormalized("response probabilities must be non-negative")
        sums = resp.sum(axis=1)
        if not np.all(np.abs(sums - 1.0) <= ROW_SUM_TOL):
            raise NotNormalized(
                f"response rows must sum to one within {ROW_SUM_TOL}"
            )
        resp.setflags(write=False)
        object.__setattr__(self, "outcomes", outcomes)
        object.__setattr__(self, "response", resp)

    @property
    def cap(self) -> int:
        return self.response.shape[0] - 1

    def report_probability(self, reported, true_count: int) -> float:
        if true_count < 0 or true_count > self.cap:
            raise DimensionMismatch(
                f"true count {true_count} outside the modeled range 0..{self.cap}"
            )
        return float(self.column(reported)[true_count])

    def column(self, reported) -> np.ndarray:
        """P(reported | t) for t = 0..cap; zeros for an outcome never reported."""
        for k, o in enumerate(self.outcomes):
            if o == reported:
                return self.response[:, k]
        return np.zeros(self.cap + 1)

    @classmethod
    def exact(cls, cap: int) -> "DetectorModel":
        """Perfect number-resolving detector for counts 0..cap."""
        return cls(tuple(range(cap + 1)), np.eye(cap + 1))

    @classmethod
    def vacuum_inefficient(cls, cap: int) -> "DetectorModel":
        """Counts reported truthfully except small counts can read as vacuum.

        VACUUM_MISS[k] is the probability that k+1 photons register as none.
        """
        resp = np.eye(cap + 1)
        for k, m in enumerate(VACUUM_MISS):
            t = k + 1
            if t > cap:
                break
            resp[t, t] = 1.0 - m
            resp[t, 0] = m
        return cls(tuple(range(cap + 1)), resp)

    @classmethod
    def bucket(
        cls, cap: int, dark_one: float = 0.0, dark_zero: float = 0.0
    ) -> "DetectorModel":
        """Detector that cannot resolve beyond "two or more".

        Outcomes are 0, 1 and the bucket; two or more photons always land
        in the bucket, while dark_one and dark_zero let one photon or
        vacuum be misread as the bucket.
        """
        outcomes = (0, 1, BUCKET)
        resp = np.zeros((cap + 1, 3))
        resp[0] = (1.0 - dark_zero, 0.0, dark_zero)
        if cap >= 1:
            resp[1] = (0.0, 1.0 - dark_one, dark_one)
        for t in range(2, cap + 1):
            resp[t] = (0.0, 0.0, 1.0)
        return cls(outcomes, resp)


def benchmark_detector_suite(cap: int = 8) -> tuple[DetectorModel, DetectorModel]:
    """The benchmark detector pair used throughout the sweeps.

    Returns (vacuum_detector, tap_detector): the vacuum detectors miss
    1, 2, 3 photons with probabilities 10%, 1%, 0.1%; the tap detector
    buckets everything at two or more and dark-counts one photon into the
    bucket at 0.1% and vacuum at 0.0001%.
    """
    vacuum = DetectorModel.vacuum_inefficient(cap)
    tap = DetectorModel.bucket(cap, dark_one=1e-3, dark_zero=1e-6)
    return vacuum, tap


@dataclass(frozen=True)
class ObservedPattern:
    """Reported outcome per detector (ints or the ">=2" bucket)."""

    outcomes: tuple

    def __post_init__(self):
        outs = tuple(
            o if isinstance(o, str) else photon_count(o) for o in self.outcomes
        )
        for o in outs:
            if isinstance(o, str) and o != BUCKET:
                raise BadCount(f"unknown reported outcome {o!r}")
        object.__setattr__(self, "outcomes", outs)

    def __len__(self) -> int:
        return len(self.outcomes)

    def __iter__(self):
        return iter(self.outcomes)


def observe(
    spec: InputSpec,
    interf: Interferometer,
    observed: ObservedPattern,
    models: Sequence[DetectorModel],
) -> ConditionalResult:
    """Conditional output given reported (possibly misread) outcomes.

    Builds every detector's response column P(reported | t) and hands
    them to conditioner.condition_on_responses; the summed weights then
    give the probability of the reported pattern, so completeness over
    all reports is inherited from the response rows being stochastic.
    Models must cover every count the source can emit.
    """
    n = interf.n_modes
    if len(observed) != n - 1 or len(models) != n - 1:
        raise DimensionMismatch(
            f"need {n - 1} reported outcomes and detector models, got "
            f"{len(observed)} and {len(models)}"
        )
    max_total = spec.max_total()
    if any(model.cap < max_total for model in models):
        raise DimensionMismatch(f"detector models must cover counts up to {max_total}")
    columns = [model.column(obs) for obs, model in zip(observed, models)]
    return condition_on_responses(spec, interf, columns, observed)
