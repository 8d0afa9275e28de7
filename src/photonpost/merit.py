"""Figures of merit for conditioned single-photon output.

Three numbers summarize a photon-number distribution q[n]:

* ratio      q[1]/q[0], how much one-photon beats vacuum,
* two-photon (q[2]/q[1])/(q[1]/q[0]), zero for a clean source and 1/2
  for Poisson light,
* fano       variance/mean, below one for sub-Poissonian light.

A two-level source with single-photon probability p has ratio p/(1-p)
and fano 1-p.  Passive optics plus detection can raise the ratio by at
most a factor (occupied modes - detected photons), and not at all when
none or all but one are detected: allowed_ratio and ratio_breaches.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .conditioner import ConditionalResult, DetectionPattern, condition_mixed
from .errors import DimensionMismatch, ZeroProbabilityPattern
from .fock import InputSpec, distribution_moments
from .interferometer import Interferometer

BOUND_SLACK = 1e-9
DUST = 1e-20  # see is_dust


@dataclass(frozen=True)
class MeritReport:
    """Output figures of merit next to their input counterparts.

    ratio_out is math.inf when the output has no vacuum component;
    two_photon_out and fano_out are None when their defining ratios are
    0/0.  ratio_bound is allowed_ratio at the detected total, None when
    the result does not carry an exact detection pattern or allowed_ratio
    gives None.
    """

    ratio_out: float
    two_photon_out: float | None
    fano_out: float | None
    ratio_in: float
    fano_in: float
    improves_single_photon: bool
    ratio_bound: float | None

    def to_json_dict(self) -> dict:
        def enc(x):
            if x is None:
                return None
            if math.isinf(x):
                return "infinity"
            return float(x)

        return {
            "ratio_out": enc(self.ratio_out),
            "two_photon_out": enc(self.two_photon_out),
            "fano_out": enc(self.fano_out),
            "ratio_in": enc(self.ratio_in),
            "fano_in": enc(self.fano_in),
            "improves_single_photon": bool(self.improves_single_photon),
            "ratio_bound": enc(self.ratio_bound),
        }


def figures_of_merit(result: ConditionalResult, spec: InputSpec) -> MeritReport:
    """Summarize a conditional result against its source."""
    if result.zero_probability or result.pattern_probability <= 0.0:
        raise ZeroProbabilityPattern(
            "figures of merit are undefined for an impossible pattern"
        )
    q = result.normalized
    q0 = float(q[0])
    q1 = float(q[1]) if q.size > 1 else 0.0
    q2 = float(q[2]) if q.size > 2 else 0.0

    ratio_out = (math.inf if q1 > 0.0 else 0.0) if q0 == 0.0 else q1 / q0
    if q2 == 0.0:
        two_photon = 0.0
    elif q1 == 0.0 or q0 == 0.0:
        two_photon = None
    else:
        two_photon = (q2 / q1) / (q1 / q0)
    mean, var = distribution_moments(enumerate(q))
    fano_out = None if mean == 0.0 else var / mean

    p = spec.p_max()
    ratio_in = math.inf if p >= 1.0 else p / (1.0 - p)
    detected = result.detected_total()
    allowed = None if detected is None else allowed_ratio(spec, detected)
    return MeritReport(
        ratio_out=ratio_out,
        two_photon_out=two_photon,
        fano_out=fano_out,
        ratio_in=ratio_in,
        fano_in=1.0 - p,
        improves_single_photon=bool(q1 > p),
        ratio_bound=None if allowed is None else float(allowed),
    )


def allowed_ratio(spec: InputSpec, detected) -> np.ndarray | None:
    """Largest q1/q0 allowed per detected total D of M occupied modes: ratio_in
    * (M - D), ratio_in at D = 0 and D = M - 1; None for a source that is not
    two-level or has p 0 or 1."""
    p = spec.p_max()
    if not spec.is_two_level() or not 0.0 < p < 1.0:
        return None
    r, m, d = p / (1.0 - p), spec.occupied_modes(), np.asarray(detected)
    return np.where((d == 0) | (d == m - 1), r, r * (m - d))


def is_dust(q0, paths0) -> np.ndarray:
    """Where vacuum entries q0 are cancellation dust: below DUST times paths0,
    the same entries computed from |U|, which bound every path summed into
    them, so that roundoff decides their value."""
    return q0 < DUST * paths0


def ratio_breaches(q0, q1, allowed) -> np.ndarray:
    """Where (q0, q1) breaches the allowed ratio by more than BOUND_SLACK, or
    q0 <= 0 while q1 > 1e-12.  Callers that may hold dust drop it with is_dust."""
    q0, q1 = np.asarray(q0), np.asarray(q1)
    # q0 <= 0 reads as ratio +inf where q1 > 1e-12, else -inf: for the finite
    # allowed of allowed_ratio, a breach exactly where q1 > 1e-12
    ratio = np.where(q1 > 1e-12, math.inf, -math.inf)
    np.divide(q1, q0, out=ratio, where=~(q0 <= 0.0))  # NaN q0 divides: no breach
    return ratio > allowed + BOUND_SLACK


def detection_coefficients(interf: Interferometer, pattern: DetectionPattern) -> np.ndarray:
    """Source-independent weights of the conditional output.

    With every mode firing at the same single-photon probability p and
    r = p/(1-p), the conditional output obeys

        normalized[n1]  proportional to  coeffs[n1] * r**n1 / n1!

    coeffs[n1] sums |per(L[n, s])|^2 over the ways to pick n1 + detected
    of the modes.  They depend only on the interferometer and the
    pattern, which makes improvement questions a property of the optics.
    """
    n = interf.n_modes
    if len(pattern) != n - 1:
        raise DimensionMismatch(f"pattern covers {len(pattern)} detectors, expected {n - 1}")
    if pattern.total() > n:
        return np.zeros(0)
    # p = 1/2 weighs every subset s by 2^-N, so the reading times
    # 2^N n! is (n!)^2 sum_s |c_s[n]|^2 = sum_s |per(L[n, s])|^2
    q = condition_mixed(InputSpec.two_level([0.5] * n), interf, pattern).unnormalized
    held = math.prod(math.factorial(c) for c in pattern)  # prod_j c_j!
    factorials = np.array([math.factorial(k) * held for k in range(q.size)], dtype=float)
    return q * 2.0**n * factorials


def _excess(d: np.ndarray, r: float) -> float:
    """d[1] minus the vacuum and multiphoton terms at input ratio r; the
    output beats the input exactly where this is positive."""
    rhs = d[0]
    for n in range(2, d.size):
        rhs += d[n] * r**n / math.factorial(n)
    return d[1] - rhs


def improvement_threshold(coeffs: Sequence[float]) -> float:
    """Largest input ratio r below which normalized[1] > p = r / (1 + r).

    Returns 0.0 when no improvement exists even for a faint source and
    math.inf when the improvement never closes (no multiphoton terms).
    Bisection is run to 1e-12 absolute.
    """
    d = np.asarray(coeffs, dtype=float)
    if d.size < 2 or d[1] <= d[0]:
        return 0.0
    if d.size == 2 or not np.any(d[2:] > 0):
        return math.inf
    lo, hi = 0.0, 1.0
    while _excess(d, hi) > 0:
        hi *= 2.0
        if hi > 1e18:
            return math.inf
    while hi - lo > 1e-12:
        mid = 0.5 * (lo + hi)
        if _excess(d, mid) > 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
