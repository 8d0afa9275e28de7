"""Concrete improvement schemes.

Two families are built here.  The chain funnels N equally imperfect
sources into one output through a weakly coupled tap and conditions on
D photons at the tap detector; its ratio gain approaches D(N-D)/(N-1)
as the coupling epsilon goes to zero.  run_chain heralds it with exact
counts or under the detector models of CHAIN_SCENARIOS.  The pure-state
scheme takes three identical superposition sources through two beam
splitters and distills an exact one-photon state by conditioning on a
vacuum count and a two-photon count.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .conditioner import ConditionalResult, DetectionPattern, condition_mixed, condition_pure
from .detectors import BUCKET, DetectorModel, ObservedPattern, benchmark_detector_suite, observe
from .errors import BadDistributionShape, BadParameters, DegenerateTheta
from .fock import InputSpec, photon_count
from .interferometer import (
    Interferometer,
    beam_splitter,
    complete_rows,
    compose,
    embed_two_mode,
)


@dataclass(frozen=True)
class ChainScheme:
    """Chain interferometer with its bookkeeping."""

    n_modes: int
    epsilon: float
    interferometer: Interferometer

    def pattern_for(self, detected: int) -> DetectionPattern:
        """D photons at the tap detector (mode 2), vacuum elsewhere."""
        if detected < 0 or detected > self.n_modes:
            raise BadParameters(
                f"detected count {detected} outside 0..{self.n_modes}"
            )
        return DetectionPattern((detected,) + (0,) * (self.n_modes - 2))


def _check_chain_args(n_modes: int, epsilon: float) -> None:
    if n_modes < 3:
        raise BadParameters(f"the chain needs at least 3 modes, got {n_modes}")
    if not (0.0 < epsilon < 1.0):
        raise BadParameters(f"epsilon must sit strictly inside (0, 1), got {epsilon}")


def _chain_rows(n_modes: int, epsilon: float) -> tuple[np.ndarray, np.ndarray]:
    n = n_modes
    a = math.sqrt(1.0 - epsilon * epsilon)
    root = math.sqrt(n - 1.0)
    row1 = np.full(n, a / root, dtype=complex)
    row1[0] = -epsilon
    row2 = np.full(n, epsilon / root, dtype=complex)
    row2[0] = a
    return row1, row2


def build_chain(n_modes: int, epsilon: float) -> ChainScheme:
    """Chain scheme from its defining first two rows.

    Row 1 (the kept output) couples -epsilon to the first source and
    sqrt((1-eps^2)/(N-1)) to each of the others; row 2 (the tap detector)
    swaps those roles.  The remaining rows feed the vacuum detectors and
    are any deterministic orthonormal completion.
    """
    _check_chain_args(n_modes, epsilon)
    row1, row2 = _chain_rows(n_modes, epsilon)
    interf = complete_rows([row1, row2], n_modes)
    interf = Interferometer(
        interf.matrix, provenance=f"chain(n={n_modes}, epsilon={epsilon!r})"
    )
    return ChainScheme(n_modes=n_modes, epsilon=epsilon, interferometer=interf)


def chain_element_angles(n_modes: int, epsilon: float) -> list[tuple[int, int, float, float]]:
    """Beam-splitter layout realizing the chain, as (mode_i, mode_j, theta, phi).

    The first N-2 couplers merge sources 2..N into one internal beam with
    equal weights (reflectivities 1/2, 1/3, ... 1/(N-1)); the last couples
    that beam to source 1 with reflectivity epsilon^2.
    """
    _check_chain_args(n_modes, epsilon)
    layout = []
    for k in range(1, n_modes - 1):
        theta = math.acos(1.0 / math.sqrt(k + 1.0))
        layout.append((n_modes - 1 - k, n_modes - k, theta, 0.0))
    layout.append((0, 1, math.acos(epsilon), math.pi))
    return layout


def build_chain_from_elements(n_modes: int, epsilon: float) -> ChainScheme:
    """Chain scheme composed from physical beam splitters.

    Multiplies out the coupler layout and then applies per-input sign
    flips (phase shifters) so rows 1 and 2 equal the defining rows of
    build_chain to float precision.
    """
    layout = chain_element_angles(n_modes, epsilon)
    elements = [
        embed_two_mode(beam_splitter(theta, phi), (i, j), n_modes)
        for i, j, theta, phi in layout
    ]
    product = compose(*elements)
    row1, _ = _chain_rows(n_modes, epsilon)
    phases = np.ones(n_modes, dtype=complex)
    for col in range(1, n_modes):
        z = product.matrix[0, col]
        if abs(z) > 0:
            phases[col] = row1[col] / z * abs(z) / abs(row1[col])
    matrix = product.matrix * phases[np.newaxis, :]
    interf = Interferometer(
        matrix, provenance=f"chain_elements(n={n_modes}, epsilon={epsilon!r})"
    )
    return ChainScheme(n_modes=n_modes, epsilon=epsilon, interferometer=interf)


def chain_asymptotics(n_modes: int, detected: int) -> tuple[float, float]:
    """Small-epsilon limits of the chain's ratio gain and two-photon level.

    Returns (ratio_out/ratio_in, two_photon_out) for N modes and D
    detected photons; the gain peaks at D = ceil(N/2) where it reaches
    floor(N^2/4)/(N-1), above one from N = 4 on.
    """
    n, d = int(n_modes), int(detected)
    if n < 3 or d < 1 or d >= n:
        raise BadParameters(f"need 3 <= N and 1 <= D < N, got N={n}, D={d}")
    gain = d * (n - d) / (n - 1.0)
    two_photon = (d + 1.0) * (n - d - 1.0) / (2.0 * d * (n - d))
    return gain, two_photon


def _inefficient_vacuum_bucket_tap(cap: int):
    return DetectorModel.vacuum_inefficient(cap), DetectorModel.bucket(cap)


# run_chain scenario -> (vacuum detector, tap detector) for counts 0..cap,
# or None for exact counting.  The detector scenarios read the ">=2" bucket.
CHAIN_SCENARIOS = {
    "ideal": None,
    "bucket": lambda cap: (DetectorModel.exact(cap), DetectorModel.bucket(cap)),
    "bucket+efficiency": _inefficient_vacuum_bucket_tap,
    "+darkcounts": benchmark_detector_suite,
    "+two-photon-inputs": _inefficient_vacuum_bucket_tap,
}


def run_chain(
    n_modes: int,
    epsilon: float,
    p: float,
    detected: int,
    scenario: str = "ideal",
    two_photon_prob: float = 0.001,
) -> ConditionalResult:
    """Herald the chain's tap under one of the CHAIN_SCENARIOS.

    Every source emits one photon with probability p, and under
    "+two-photon-inputs" also a pair with probability two_photon_prob.
    "ideal" conditions on exactly `detected` tap photons; the detector
    scenarios need detected = 2 and observe the tap reading ">=2" while
    the other detectors read 0.
    """
    if scenario not in CHAIN_SCENARIOS:
        raise BadParameters(f"scenario {scenario!r} is not one of {', '.join(CHAIN_SCENARIOS)}")
    detectors = CHAIN_SCENARIOS[scenario]
    if detectors is not None and detected != 2:
        raise BadParameters("bucket scenarios model a '>=2' tap click and need detected = 2")
    scheme = build_chain(n_modes, epsilon)
    if scenario == "+two-photon-inputs":
        if not (0.0 < two_photon_prob and p + two_photon_prob < 1.0):
            raise BadParameters("two_photon_prob must be positive with p + two_photon_prob < 1")
        dist = {0: 1.0 - p - two_photon_prob, 1: p, 2: two_photon_prob}
        spec = InputSpec(tuple(dist.copy() for _ in range(n_modes)))
    else:
        spec = InputSpec.two_level([p] * n_modes)
    if detectors is None:
        return condition_mixed(spec, scheme.interferometer, scheme.pattern_for(detected))
    vacuum, tap = detectors(spec.max_total())
    observed = ObservedPattern((BUCKET,) + (0,) * (n_modes - 2))
    return observe(spec, scheme.interferometer, observed, [tap] + [vacuum] * (n_modes - 2))


# ---------------------------------------------------------------------------
# pure-state scheme


DEGENERATE_TOL = 1e-12


def pure_stage2_params(theta: float, phi: float) -> tuple[float, float]:
    """Second-stage angles that make the conditioned output exactly pure.

    The first stage leaves a vacuum/one/two-photon superposition; the
    returned (theta', phi') cancel its vacuum-path interference so that
    detecting two photons behind the second splitter projects the kept
    mode onto |1>.  Degenerate first stages (sin or cos of theta zero)
    leave nothing to work with; non-finite angles raise BadParameters.
    """
    if not (math.isfinite(theta) and math.isfinite(phi)):
        raise BadParameters(f"angles must be finite, got theta={theta}, phi={phi}")
    sc = math.sin(theta) * math.cos(theta)
    if abs(sc) < DEGENERATE_TOL:
        raise DegenerateTheta(f"sin(theta)cos(theta) vanishes at theta={theta}")
    z = math.cos(theta) - cmath.exp(-1j * phi) * math.sin(theta)
    theta_prime = math.atan(abs(z) / sc)
    phi_prime = cmath.phase(z)
    return theta_prime, phi_prime


def pure_success_probability(theta: float, phi: float, beta_mag: float) -> float:
    """Joint probability of both heralding detections in the pure scheme.

    Closed form 2 |beta|^6 sin^2 t cos^2 t sin^2 t' (2 cos^2 t' - sin^2 t')^2
    with t' from pure_stage2_params; peaks at 16 |beta|^6 / 81.
    """
    if not (0.0 <= beta_mag <= 1.0):
        raise BadParameters(f"|beta| must lie in [0, 1], got {beta_mag}")
    tp, _ = pure_stage2_params(theta, phi)
    st, ct = math.sin(theta), math.cos(theta)
    stp, ctp = math.sin(tp), math.cos(tp)
    return (
        2.0
        * beta_mag**6
        * st**2
        * ct**2
        * stp**2
        * (2.0 * ctp**2 - stp**2) ** 2
    )


def pure_three_mode_pipeline(
    theta: float, phi: float, beta: complex
) -> tuple[np.ndarray | None, float]:
    """Run the full two-stage scheme on three identical sources.

    Each source carries alpha |0> + beta |1> with alpha real and
    non-negative.  Stage one couples modes 1 and 2, stage two couples
    modes 1 and 3; conditioning asks for zero photons on mode 2 and two
    on mode 3.  Returns the conditioned mode-1 amplitudes indexed by
    photon count (None when the heralding never fires) and the joint
    probability.
    """
    beta = complex(beta)
    if not abs(beta) <= 1.0 + 1e-12:
        raise BadParameters(f"|beta| must lie in [0, 1], got {abs(beta)}")
    alpha = math.sqrt(max(0.0, 1.0 - abs(beta) ** 2))
    theta_prime, phi_prime = pure_stage2_params(theta, phi)
    optics = compose(
        embed_two_mode(beam_splitter(theta, phi), (0, 1), 3),
        embed_two_mode(beam_splitter(theta_prime, phi_prime), (0, 2), 3),
    )
    return condition_pure([{0: alpha, 1: beta}] * 3, optics, DetectionPattern((0, 2)))


# ---------------------------------------------------------------------------
# super-Poissonian purification


def purify_super_poissonian(q, element: Interferometer) -> ConditionalResult:
    """Distill |1> from a gappy super-Poissonian photon-number mixture.

    q maps photon count to probability.  Writing D+1 for the highest
    occupied count, the count D itself must be empty; mixing with vacuum
    on any beam splitter that actually couples the modes and detecting D
    photons then leaves exactly one photon, whatever sits below D.
    """
    dist = {photon_count(n): float(p) for n, p in dict(q).items()}
    support = sorted(n for n, p in dist.items() if p > 0)
    if not support or support[-1] < 1:
        raise BadDistributionShape(
            "distribution must occupy some count above zero"
        )
    top = support[-1]
    detected = top - 1
    if dist.get(detected, 0.0) > 0:
        raise BadDistributionShape(
            f"count {detected} just below the top occupied count {top} must be empty"
        )
    if element.n_modes != 2:
        raise BadDistributionShape("purification mixes the source with one vacuum mode")
    spec = InputSpec((dist, {0: 1.0}))
    return condition_mixed(spec, element, DetectionPattern((detected,)))
