"""Concrete improvement schemes.

Two families are built here.  The chain funnels N equally imperfect
sources into one output through a weakly coupled tap and conditions on
D photons at the tap detector; its ratio gain approaches D(N-D)/(N-1)
as the coupling epsilon goes to zero.  run_chain heralds it under the
(vacuum, tap) detector pair of each CHAIN_SCENARIOS entry.  Its kept
and tap rows define it; the other N-2 outputs only read vacuum and have
a closed form that does not depend on epsilon.

Those N-2 rows are orthogonal to source 1 and to the uniform mode S of
sources 2..N, so their reading acts on sources 2..N alone.  The sources
are diagonal in photon number and so is every vacuum response, so the
state the reading leaves on S is diagonal again: a phase rotation of S
alone leaves it unchanged.  The chain is therefore a two-mode problem,
source 1 and S with weights sigma_k through the 2 x 2 matrix
[[-eps, a], [a, eps]], a = sqrt(1 - eps^2), and run_chain reads every
scenario that way, from the closed form of that matrix's photon-number
amplitudes, with no engine call: _tap_coefficients holds everything but
S's weights and _tap_apply weighs them in (_tap_read, the two in turn).
Under exact vacuum counts a photon of source i >= 2 is S/sqrt(N-1) plus
a part on the vacuum rows, so k two-level photons all miss them with
probability k!/(N-1)^k and
sigma_k = W_k = C(N-1, k) p^k (1-p)^(N-1-k) k!/(N-1)^k, at any N.  Under
lossy vacuum detectors or multiphoton sources, S is built by merging
sources N, N-1, ..., 2 into one beam (chain_element_angles), the m-th
merge at reflectivity 1/m, and no later coupler touches its contrast
output, a vacuum row: each merge is the same two-mode read at
eps = sqrt(1/m), the new source as source 1 and the beam as S.  No
merge's coefficients depend on the beam, so one _tap_coefficients pass
holds them all and each merge is one _tap_apply.

The pure-state scheme takes three identical superposition sources
through two beam splitters and distills an exact one-photon state by
conditioning on a vacuum count and a two-photon count.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass

import numpy as np

from .conditioner import ConditionalResult, DetectionPattern, condition_mixed, condition_pure
from .detectors import BUCKET, DetectorModel, ObservedPattern, benchmark_detector_suite
from .engine import MAX_CELLS, MAX_TOTAL
from .errors import BadDistributionShape, BadParameters, DegenerateTheta, DimensionTooLarge
from .fock import InputSpec, photon_count
from .interferometer import Interferometer, beam_splitter, compose, embed_two_mode


@dataclass(frozen=True)
class ChainScheme:
    """Chain interferometer with its bookkeeping."""

    n_modes: int
    epsilon: float
    interferometer: Interferometer

    def pattern_for(self, detected: int) -> DetectionPattern:
        """D photons at the tap detector (mode 2), vacuum elsewhere."""
        return _tap_pattern(self.n_modes, detected)


def _check_detected(n_modes: int, detected: int) -> None:
    if detected < 0 or detected > n_modes:
        raise BadParameters(f"detected count {detected} outside 0..{n_modes}")


def _tap_pattern(n_modes: int, detected: int) -> DetectionPattern:
    _check_detected(n_modes, detected)
    return DetectionPattern((detected,) + (0,) * (n_modes - 2))


def _check_chain_args(n_modes: int, *epsilons: float) -> int:
    """The mode count as an int, once it and then each of the (at least
    one) epsilons are checked."""
    n_modes = photon_count(n_modes)
    if n_modes < 3:
        raise BadParameters(f"the chain needs at least 3 modes, got {n_modes}")
    for epsilon in epsilons:
        if not (0.0 < epsilon < 1.0):
            raise BadParameters(f"epsilon must sit strictly inside (0, 1), got {epsilon}")
    if not epsilons:
        raise BadParameters("the epsilon grid is empty")
    return n_modes


def _chain_matrix(n_modes: int, epsilon: float) -> np.ndarray:
    """The N x N unitary of build_chain, in its closed form."""
    a, root = math.sqrt(1.0 - epsilon * epsilon), math.sqrt(n_modes - 1.0)
    m = np.zeros((n_modes, n_modes), dtype=complex)
    m[0], m[1] = a / root, epsilon / root
    m[:2, 0] = -epsilon, a
    k, j = np.arange(1, n_modes - 1)[:, None], np.arange(1, n_modes)
    later = n_modes - 1 - k  # row k+1 compares mode k with the `later` modes after it
    m[2:, 1:] = np.where(j == k, later, -1.0 * (j > k)) / np.sqrt(later * (later + 1))
    return m


def build_chain(n_modes: int, epsilon: float) -> ChainScheme:
    """Chain scheme in closed form.

    Row 1 (the kept output) couples -epsilon to the first source and
    sqrt((1-eps^2)/(N-1)) to each of the others; row 2 (the tap detector)
    swaps those roles.  Both span source 1 and the uniform sum of sources
    2..N, so rows 3..N, the vacuum detectors, are the same at every
    epsilon: row k+2 compares source k+1 with the sources after it,
    (N-1-k, -1, ..., -1) / sqrt((N-1-k)(N-k)) on sources k+1..N, the
    completion Gram-Schmidt reaches from the canonical vectors.
    """
    n_modes = _check_chain_args(n_modes, epsilon)
    matrix = _chain_matrix(n_modes, epsilon)
    interf = Interferometer(matrix, f"chain(n={n_modes}, epsilon={epsilon!r})")
    return ChainScheme(n_modes, epsilon, interf)


def chain_element_angles(n_modes: int, epsilon: float) -> list[tuple[int, int, float, float]]:
    """Beam-splitter layout realizing the chain, as (mode_i, mode_j, theta, phi).

    The first N-2 couplers merge sources 2..N into one internal beam with
    equal weights (reflectivities 1/2, 1/3, ... 1/(N-1)); the last couples
    that beam to source 1 with reflectivity epsilon^2.
    """
    n_modes = _check_chain_args(n_modes, epsilon)
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
    row1 = _chain_matrix(n_modes, epsilon)[0]
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
    n, d = photon_count(n_modes), photon_count(detected)
    if n < 3 or d < 1 or d >= n:
        raise BadParameters(f"need 3 <= N and 1 <= D < N, got N={n}, D={d}")
    gain = d * (n - d) / (n - 1.0)
    two_photon = (d + 1.0) * (n - d - 1.0) / (2.0 * d * (n - d))
    return gain, two_photon


def _inefficient_vacuum_bucket_tap(cap: int):
    return DetectorModel.vacuum_inefficient(cap), DetectorModel.bucket(cap)


# run_chain scenario -> (vacuum detector, tap detector) for counts 0..cap.
# "ideal" counts exactly and reads `detected` tap photons; the others read
# the ">=2" bucket.  Every vacuum response is diagonal in photon number
# (module docstring).
CHAIN_SCENARIOS = {
    "ideal": lambda cap: (DetectorModel.exact(cap),) * 2,
    "bucket": lambda cap: (DetectorModel.exact(cap), DetectorModel.bucket(cap)),
    "bucket+efficiency": _inefficient_vacuum_bucket_tap,
    "+darkcounts": benchmark_detector_suite,
    "+two-photon-inputs": _inefficient_vacuum_bucket_tap,
}


def _reduced_source(n_modes: int, one: dict, vacuum: np.ndarray, table) -> tuple[np.ndarray, float]:
    """S's weights sigma_k, normalised, when every vacuum row reads 0 with
    probability vacuum[t] for t photons, and z, the probability of those
    readings: W_k for exact counts, else N-2 merges (module docstring).
    The merges' coefficients come from one _tap_coefficients pass over
    eps_m = sqrt(1/m), m = 2..N-1, at the last merge's width, in slices
    within MAX_CELLS; each merge applies its row to the beam, at the beam's
    width plus the source maximum."""
    m = n_modes - 1
    if max(one) <= 1 and not np.any(vacuum[1:]):
        p = one.get(1, 0.0)
        # C(N-1, k) k!/(N-1)^k = (N-1)!/((N-1-k)! (N-1)^k), rounded once
        weights = [math.perm(m, k) / m**k * p**k * (1.0 - p) ** (m - k) for k in range(m + 1)]
        z = math.fsum(weights)
        return np.array(weights) / z, z
    beam, z = np.array([one.get(j, 0.0) for j in range(max(one) + 1)]), 1.0
    width = m * max(one) + 1
    for eps in _slices(np.sqrt(1.0 / np.arange(2, n_modes)), vacuum, width):
        coefs = list(_tap_coefficients(eps, one, vacuum, width, table))
        for row in range(len(eps)):  # merges in order, at reflectivities 1/2, 1/3, ...
            beam = _tap_apply(coefs, beam, vacuum, slice(row, row + 1), len(beam) + max(one))[0]
            total = math.fsum(beam)
            z *= total
            if not z:  # also where every weight of the beam underflows: no NaN
                raise DimensionTooLarge(
                    f"the {n_modes}-mode chain's vacuum readings underflow to 0"
                )
            beam = beam / total
    return beam, z


def _slices(grid, tap: np.ndarray, width: int):
    """grid in runs whose (points, tap counts, width) arrays fit MAX_CELLS."""
    step = max(1, MAX_CELLS // max(1, np.count_nonzero(tap) * width))  # grid points a read holds
    return (np.array(grid[i : i + step], dtype=float) for i in range(0, len(grid), step))


# Veltkamp's splits of a double: two 26-bit halves, whose products are
# exact, or a 36-bit head, exact times any integer below 2^17
_HALVES, _HEAD = 2.0**27 + 1.0, 2.0**17 + 1.0


def _split(x, factor: float):
    c = factor * x
    head = c - (c - x)
    return head, x - head


def _times(x, y):
    """The product of two (hi, lo) pairs as a pair, hi * hi exact (Dekker)."""
    (xh, xl), (yh, yl) = x, y
    hi = xh * yh
    (x1, x2), (y1, y2) = _split(xh, _HALVES), _split(yh, _HALVES)
    return hi, (((x1 * y1 - hi) + x1 * y2 + x2 * y1) + x2 * y2) + (xh * yl + xl * yh)


def _two_sum(x, y):
    """x + y rounded and its exact rounding error (Knuth)."""
    s = x + y
    back = s - x
    return s, (x - (s - back)) + (y - back)


def _powers(x: np.ndarray, top: int, step: float = 1.0) -> np.ndarray:
    """x[:, None] ** (step * (0..top)), each from the C library's pow: within
    an ulp, and the same bits whatever the grid's size."""
    return np.array([[math.pow(v, step * m) for m in range(top + 1)] for v in x.tolist()])


@functools.lru_cache(maxsize=8)
def _binomials(top: int) -> np.ndarray:
    """C(m, r) for m, r = 0..top, exact integers (Pascal's rule) rounded once (read-only)."""
    table, row = np.zeros((top + 1, top + 1)), [1]
    for m in range(top + 1):
        table[m, : m + 1] = row
        row = [x + y for x, y in zip([0] + row, row + [0])]
    table.setflags(write=False)
    return table


def _falling(x: np.ndarray, m: int) -> np.ndarray:
    """x (x - 1) ... (x - m + 1)."""
    return math.prod((x - i for i in range(m)), start=np.ones_like(x))


def _tap_coefficients(eps: np.ndarray, one: dict, tap: np.ndarray, width: int, table):
    """The part of _tap_read that does not involve sigma: per photon count j
    of source 1, in turn, (one[j], k, c) with S's count k[D, n1] =
    n1 + D - j and c[g, D, n1] = |<n1, D|U|j, k>|^2 at eps[g], for n1 < width
    and the counts D the tap reads, in order; table is a _binomials table
    reaching width - 1 plus tap's last count.

    With M = n1 + D, s = a^2, t = eps^2 and (x)_m = x (x-1) ... (x-m+1),
    <n1, D|U|j, k> = sqrt(C(M, n1) / (j! (M)_j)) a^|n1-j| eps^|D-j| P, where
    P = sum_i (-1)^i C(j, i) (D)_(j-i) (n1)_i s^(h-i) t^(i-l) runs over the
    i photons of source 1 that reach the kept mode, from l = max(0, j-D)
    to h = min(j, n1), and c = (C(M, n1) / (j! (M)_j) A) A, A the rest of
    the amplitude.  P's terms can cancel, so t = eps^2 and s = 1 - t are
    (hi, lo) pairs to twice double precision, s from eps and not from a
    rounded a, each term's 36-bit head times its integer (below 2^17
    wherever a weight is held, M being at most 2 + 2 MAX_TOTAL) is exact,
    and the heads add with their rounding errors kept.  Every operation is
    elementwise, so each eps and each n1 read as they do alone.
    """
    d, n1 = np.flatnonzero(tap > 0.0)[:, None], np.arange(width)
    top_j, top_d = max(one), int(d.max(initial=0))
    t = _times((eps, 0.0), (eps, 0.0))
    one_less, error = _two_sum(1.0, -t[0])
    s = (one_less, error - t[1])  # 1 - eps^2, not a rounded a squared
    hi, lo = np.zeros((2, len(eps), top_j + 1, top_j + 1))  # s^u t^v at [:, u, v]
    hi[:, 0, 0] = 1.0
    for u, v in ((u, v) for u in range(top_j + 1) for v in range(top_j + 1 - u) if u or v):
        x, y = (u, v - 1) if v else (u - 1, 0)
        hi[:, u, v], lo[:, u, v] = _times((hi[:, x, y], lo[:, x, y]), t if v else s)
    head, tail = _split(hi, _HEAD)
    rest = tail + lo
    # a^e = s^(e/2) = pow(s_hi, e/2) (1 + s_lo/s_hi)^(e/2), the last to first order
    halves = 0.5 * np.arange(width + top_j + 1)
    pa = _powers(s[0], width + top_j, 0.5) * (1.0 + halves * (s[1] / s[0])[:, None])
    pe = _powers(eps, top_d + top_j)
    m = n1 + d

    def squared(j: int) -> np.ndarray:  # no array of one j outlives the next j's
        scale = table[m, n1] / np.maximum(math.factorial(j) * _falling(m, j), 1)
        low, high = np.maximum(j - d, 0), np.minimum(j, n1)
        total = error = 0.0
        for i in range(j + 1):
            b = (-1) ** i * math.comb(j, i) * _falling(d, j - i) * _falling(n1, i)
            u, v = np.maximum(high - i, 0), np.maximum(i - low, 0)  # exact where b != 0
            total, e = _two_sum(total, b * head[:, u, v])
            error = error + e + b * rest[:, u, v]
        amp = pa[:, None, np.abs(n1 - j)] * pe[:, np.abs(d - j)] * (total + error)
        return (scale * amp) * amp

    return ((weight, m - j, squared(j)) for j, weight in one.items())


def _tap_apply(coefs, sigma: np.ndarray, tap: np.ndarray, rows: slice, width: int):
    """sum_D tap[D] sum_j one[j] sigma[k] c[rows, D, n1] for n1 < width, from
    _tap_coefficients' (one[j], k, c) at a width of at least `width`, for a
    tap at least max(one) long, as every chain's is."""
    # k runs from -max(one) to width - 1 + D: every k outside sigma reads a 0 past it
    padded = np.zeros(len(sigma) + width + len(tap))
    padded[: len(sigma)] = sigma
    taps = tap[tap > 0.0][:, None]
    q = 0.0
    for weight, k, c in coefs:
        q += c[rows, :, :width] * (weight * padded[k[:, :width]] * taps)
    kept = np.zeros((len(q), width))
    for d in range(len(taps)):  # tap counts in order, as the grid point alone adds them
        kept += q[:, d]
    return kept


def _tap_read(eps: np.ndarray, one: dict, sigma: np.ndarray, tap: np.ndarray, width: int, table):
    """q[g, n1] = sum_D tap[D] sum_{j+k = n1+D} one[j] sigma[k] |<n1, D|U|j, k>|^2
    for n1 < width, U = [[-eps, a], [a, eps]] at eps[g] and a = sqrt(1 - eps^2):
    _tap_coefficients' closed form (table as there), then _tap_apply."""
    coefs = _tap_coefficients(eps, one, tap, width, table)
    return _tap_apply(coefs, sigma, tap, slice(None), width)


def run_chain(
    n_modes: int, epsilon, p: float, detected: int, scenario: str = "ideal", two_photon_prob=0.001
) -> ConditionalResult | list[ConditionalResult]:
    """Herald the chain's tap under one of the CHAIN_SCENARIOS.

    Every source emits one photon with probability p, and under
    "+two-photon-inputs" also a pair with probability two_photon_prob.
    "ideal" conditions on exactly `detected` tap photons; the detector
    scenarios need detected = 2 and observe the tap reading ">=2" while
    the other detectors read 0.  An epsilon grid gives a result per
    epsilon, a float the one result of its one-element grid, and every
    grid point reads the weights it reads alone.

    Each scenario is read from the chain's two-mode reduction (module
    docstring) with no engine call: S's weights from _reduced_source, then
    the tap of [[-eps, a], [a, eps]] in grid slices within MAX_CELLS from
    _tap_read's closed form, elementwise in eps.  A herald whose every weight, or
    vacuum readings whose probability, underflows to 0 raise DimensionTooLarge.
    """
    grid = [epsilon] if np.ndim(epsilon) == 0 else list(epsilon)
    if scenario not in CHAIN_SCENARIOS:
        raise BadParameters(f"scenario {scenario!r} is not one of {', '.join(CHAIN_SCENARIOS)}")
    if scenario != "ideal" and detected != 2:
        raise BadParameters("bucket scenarios model a '>=2' tap click and need detected = 2")
    n_modes = _check_chain_args(n_modes, *grid)
    one = dict(InputSpec.two_level([p]).distributions[0])  # p inside [0, 1]
    if scenario == "+two-photon-inputs":
        if not (0.0 < two_photon_prob and p + two_photon_prob < 1.0):
            raise BadParameters("two_photon_prob must be positive with p + two_photon_prob < 1")
        one = {0: 1.0 - p - two_photon_prob, 1: p, 2: two_photon_prob}
    _check_detected(n_modes, detected)  # a bucket scenario's D = 2 always passes
    if n_modes > MAX_TOTAL:  # before the N-mode pattern labels are built
        raise DimensionTooLarge(f"a {n_modes}-mode chain holds more than {MAX_TOTAL} photons")
    if scenario == "ideal":
        label, reading = _tap_pattern(n_modes, detected), detected
    else:
        label, reading = ObservedPattern((BUCKET,) + (0,) * (n_modes - 2)), BUCKET
    top = n_modes * max(one)  # the N-mode source maximum
    vacuum, tap = CHAIN_SCENARIOS[scenario](top)
    vacuum, tap = vacuum.column(0), tap.column(reading)
    # n1 runs to the N-mode source maximum less the tap's fewest photons, also
    # where a weight underflows to 0; one table reaches every read's n1 + D
    last_tap, last_vacuum = (int(np.flatnonzero(c > 0.0).max(initial=0)) for c in (tap, vacuum))
    width = top - int(np.argmax(tap > 0.0)) + 1
    table = _binomials(max(width - 1 + last_tap, top - max(one) + last_vacuum))
    sigma, z = _reduced_source(n_modes, one, vacuum, table)
    reads = [_tap_read(e, one, sigma, tap, width, table) for e in _slices(grid, tap, width)]
    kept = np.concatenate(reads) * z
    for e, row in zip(grid, kept):
        if top and not row.any():  # a source that emits makes every row possible
            raise DimensionTooLarge(
                f"the {n_modes}-mode chain heralded on D = {detected} at epsilon = {e!r}: "
                "every weight underflows to 0"
            )
    results = [ConditionalResult.from_unnormalized(row, pattern=label) for row in kept]
    return results[0] if np.ndim(epsilon) == 0 else results


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
