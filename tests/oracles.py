"""Brute-force reference implementations used only by the tests.

Everything here works by expanding creation-operator polynomials in a
dense dictionary keyed by photon configuration.  No permanents, no
combinatorial shortcuts; slow but obviously correct for small sizes.
The exceptions are the two-mode closed form at the end, an independent
hand expansion of the beam-splitter case, the chain's merges
(chain_merged), the same expansion in mpmath, and those merges read one
at a time through schemes._tap_read (merges_one_at_a_time).
"""

import argparse
import itertools
import math

import mpmath
import numpy as np

from photonpost import (
    BUCKET,
    ConditionalResult,
    DetectionPattern,
    DetectorModel,
    InputSpec,
    Interferometer,
    ObservedPattern,
    benchmark_detector_suite,
    build_chain,
    condition_mixed,
    haar_random,
    observe,
)
from photonpost import schemes
from photonpost.engine import output_table
from photonpost.errors import DimensionMismatch, DimensionTooLarge, NotNormalized
from photonpost.merit import _excess


def propagate_fock(matrix: np.ndarray, in_counts) -> dict:
    """Amplitudes <n|U|s> for a Fock input s, keyed by output config n.

    Expands prod_i (sum_k Lambda[k,i] a_k^dag)^{s_i} |0> term by term and
    then normalizes both sides with the usual sqrt factorials.
    """
    n = matrix.shape[0]
    poly = {(0,) * n: 1.0 + 0.0j}
    for i, count in enumerate(in_counts):
        for _ in range(count):
            grown = {}
            for mono, coeff in poly.items():
                for k in range(n):
                    lam = matrix[k, i]
                    if lam == 0:
                        continue
                    key = tuple(
                        m + 1 if j == k else m for j, m in enumerate(mono)
                    )
                    grown[key] = grown.get(key, 0.0 + 0.0j) + coeff * lam
            poly = grown
    out = {}
    s_norm = math.sqrt(math.prod(math.factorial(c) for c in in_counts))
    for mono, coeff in poly.items():
        n_norm = math.sqrt(math.prod(math.factorial(c) for c in mono))
        out[mono] = coeff * n_norm / s_norm
    return out


def input_mixture(distributions) -> list:
    """All (config, probability) terms of a product photon-number mixture."""
    supports = []
    for dist in distributions:
        supports.append([(c, p) for c, p in dict(dist).items() if p > 0])
    terms = []
    for combo in itertools.product(*supports):
        counts = tuple(c for c, _ in combo)
        prob = math.prod(p for _, p in combo)
        terms.append((counts, prob))
    return terms


def conditional_coefficients(matrix: np.ndarray, distributions, pattern) -> np.ndarray:
    """Unnormalized conditional coefficients for the kept mode, brute force.

    coefficient[n1] is the joint probability of finding n1 photons in the
    kept mode and exactly `pattern` on the detector modes.
    """
    pattern = tuple(int(c) for c in pattern)
    detected = sum(pattern)
    max_total = 0
    for dist in distributions:
        max_total += max(c for c, p in dict(dist).items() if p > 0)
    cap = max_total - detected
    if cap < 0:
        return np.zeros(0)
    coeffs = np.zeros(cap + 1)
    for counts, prob in input_mixture(distributions):
        if prob == 0:
            continue
        amps = propagate_fock(matrix, counts)
        for out_counts, amp in amps.items():
            if out_counts[1:] != pattern:
                continue
            n1 = out_counts[0]
            coeffs[n1] += prob * abs(amp) ** 2
    return coeffs


def joint_output_probabilities(matrix: np.ndarray, distributions) -> dict:
    """Full joint output photon-number distribution, brute force."""
    joint = {}
    for counts, prob in input_mixture(distributions):
        amps = propagate_fock(matrix, counts)
        for out_counts, amp in amps.items():
            joint[out_counts] = joint.get(out_counts, 0.0) + prob * abs(amp) ** 2
    return joint


def expand_by_chains(supports, matrix, caps, max_total):
    """engine.expand as a walk of one chain per (input mode, sector): the
    engine's earlier walk, kept as its bit-level oracle.

    Input mode i raises each sector array of rows one photon at a time,
    c = 0 up to the largest count it may still emit; each step gathers
    the rows, multiplies by U[k, i] and sums per target state, and the
    rows of a count in the support are copied into the sector array they
    land in.  Rows sit in the order the sectors are raised, and each
    row's weight is multiplied mode by mode, as the engine's are.
    """
    from photonpost.engine import basis

    b = basis(tuple(int(c) for c in caps), int(max_total))
    top, sizes = len(b.offsets) - 2, np.diff(b.offsets).tolist()
    steps = []  # steps[t] adds a photon to total t, with states indexed within their totals
    for t in range(top):
        lo, hi = b.offsets[t], b.offsets[t + 1]
        sources, modes = np.nonzero(b.states[lo:hi] < b.caps)
        targets = np.searchsorted(b.keys, b.keys[lo + sources] + b.strides[modes] + b.span) - hi
        order = np.argsort(targets, kind="stable")
        starts = np.flatnonzero(np.diff(targets[order], prepend=-1))
        steps.append((sources[order], modes[order], starts))
    matrix = np.asarray(matrix, dtype=complex)
    stack = matrix.reshape((-1,) + matrix.shape[-2:])
    sectors = [(0, np.ones(1), np.ones((len(stack), 1, 1), dtype=complex))]
    for i, support in enumerate(supports):
        weight_of = dict(support)
        column = stack[:, None, :, i]
        grown = {}
        for t, weights, power in sectors:
            kept = [c for c in weight_of if c <= top - t]
            for c in range(kept[-1] + 1 if kept else 0):
                if c:
                    sources, modes, starts = steps[t + c - 1]
                    terms = power.take(sources, axis=-1) * column.take(modes, axis=-1)
                    power = np.add.reduceat(terms, starts, axis=-1)
                if c in kept:
                    parts = grown.setdefault(t + c, ([], []))
                    parts[0].append(weights * (weight_of[c] / math.factorial(c)))
                    parts[1].append(power)
        sectors = [
            (t, np.concatenate(w), np.concatenate(p, axis=1)) for t, (w, p) in grown.items()
        ]
    if matrix.ndim == 2:
        sectors = [(t, w, p[0]) for t, w, p in sectors]
    assert all(p.shape[-1] == sizes[t] for t, _, p in sectors)
    return b, {t: (w, p) for t, w, p in sectors}


def output_table_by_chains(supports, matrix, caps, max_total):
    """engine.output_table read from expand_by_chains, with its float operations."""
    b, sectors = expand_by_chains(supports, matrix, caps, max_total)
    table = np.zeros(np.shape(matrix)[:-2] + (len(b.states),))
    for t, (weights, coeffs) in sectors.items():
        table[..., b.offsets[t] : b.offsets[t + 1]] = weights @ (coeffs.real**2 + coeffs.imag**2)
    return b, table * b.factorials


def haar_unitaries_two_draws(n_modes: int, seeds) -> np.ndarray:
    """interferometer.haar_unitaries as once written: the real and the
    imaginary parts of each seed's Gaussian matrix in two normal draws."""
    z = np.empty((len(seeds), n_modes, n_modes), dtype=complex)
    for k, seed in enumerate(seeds):
        rng = np.random.default_rng(seed)
        z[k] = rng.standard_normal((n_modes, n_modes)) + 1j * rng.standard_normal(
            (n_modes, n_modes)
        )
    q, r = np.linalg.qr(z)
    d = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (d / np.abs(d))[:, None, :]


def permanent_reference(matrix: np.ndarray) -> complex:
    """Permutation-sum permanent, O(n! * n): the reference for photonpost.permanent."""
    n = matrix.shape[0]
    total = 0.0 + 0.0j
    for perm in itertools.permutations(range(n)):
        term = 1.0 + 0.0j
        for i, j in enumerate(perm):
            term *= matrix[i, j]
        total += term
    return total


def condition_mixed_bs_closed_form(dist1, dist2, element, detected: int):
    """Two-mode conditioning in closed form (no permanents, no expansion).

    dist1 and dist2 are the photon-number distributions feeding the two
    inputs of the two-mode `element`; `detected` photons are seen on
    output mode 2.  Returns the ConditionalResult condition_mixed gives.
    """
    assert element.n_modes == 2 and detected >= 0
    spec = InputSpec((dist1, dist2))
    l11, l12 = element.matrix[0, 0], element.matrix[0, 1]
    l21, l22 = element.matrix[1, 0], element.matrix[1, 1]
    d = detected
    cap = spec.max_total() - d
    if cap < 0:
        return ConditionalResult.from_unnormalized([0.0], pattern=DetectionPattern((d,)))
    coeffs = np.zeros(cap + 1)
    for k in spec.support(0):
        pk = spec.prob(0, k)
        for l in spec.support(1):
            n1 = k + l - d
            if n1 < 0 or n1 > cap:
                continue
            ql = spec.prob(1, l)
            amp = 0j
            for m in range(max(0, n1 - k), min(l, n1) + 1):
                # m photons of the second input end up in the kept mode
                amp += (
                    l11 ** (n1 - m)
                    * l21 ** (k - n1 + m)
                    * l12**m
                    * l22 ** (l - m)
                    / (
                        math.factorial(n1 - m)
                        * math.factorial(k - n1 + m)
                        * math.factorial(m)
                        * math.factorial(l - m)
                    )
                )
            coeffs[n1] += (
                pk
                * ql
                * math.factorial(k)
                * math.factorial(l)
                * math.factorial(n1)
                * math.factorial(d)
                * (amp.real * amp.real + amp.imag * amp.imag)
            )
    return ConditionalResult.from_unnormalized(coeffs, pattern=DetectionPattern((d,)))


def complete_rows_by_loop(partial_rows, n_modes: int) -> np.ndarray:
    """The Gram-Schmidt completion of given orthonormal rows, a row vector
    per product: the reference for the chain's closed-form vacuum rows.
    Canonical vectors in index order, two passes, a vector skipped when
    its residual norm is at most 1e-6."""
    basis = [np.asarray(r, dtype=complex) for r in partial_rows]
    for idx in range(n_modes):
        if len(basis) == n_modes:
            break
        v = np.zeros(n_modes, dtype=complex)
        v[idx] = 1.0
        for _ in range(2):
            for b in basis:
                v = v - (b.conj() @ v) * b
        norm = np.linalg.norm(v)
        if norm > 1e-6:
            basis.append(v / norm)
    assert len(basis) == n_modes, "the rows do not complete"
    return np.vstack(basis)


def chain_scenario_reference(
    eps: float, scenario: str, two_photon_prob: float = 0.001, n: int = 4
):
    """(pattern probability, c1) of the p = 0.2 chain heralded on two tap
    photons under one detector scenario, with the detector models written
    out here apart from schemes.run_chain: "ideal" (exact counts), "bucket"
    (a ">=2" tap), "efficiency" (that tap, and lossy vacuum detectors),
    "dark" (benchmark_detector_suite) and "two-photon" (the efficiency
    detectors on sources with two_photon_prob of a photon pair)."""
    p = 0.2
    scheme = build_chain(n, eps)
    interf = scheme.interferometer
    if scenario == "two-photon":
        dist = {0: 1.0 - p - two_photon_prob, 1: p, 2: two_photon_prob}
        spec = InputSpec(tuple(dict(dist) for _ in range(n)))
    else:
        spec = InputSpec.two_level([p] * n)
    if scenario == "ideal":
        res = condition_mixed(spec, interf, scheme.pattern_for(2))
    else:
        cap = spec.max_total()
        if scenario == "bucket":
            vac, tap = DetectorModel.exact(cap), DetectorModel.bucket(cap)
        elif scenario in ("efficiency", "two-photon"):
            vac = DetectorModel.vacuum_inefficient(cap)
            tap = DetectorModel.bucket(cap)
        else:
            vac, tap = benchmark_detector_suite(cap)
        res = observe(
            spec,
            interf,
            ObservedPattern((BUCKET,) + (0,) * (n - 2)),
            [tap] + [vac] * (n - 2),
        )
    c1 = 0.0 if res.zero_probability else float(res.normalized[1])
    return res.pattern_probability, c1


def chain_two_mode(
    n: int, eps: float, p: float, detected: int, scenario: str = "ideal", two_photon_prob=0.001
):
    """The n-mode chain heralded under a schemes.run_chain scenario, read
    one matrix at a time from its two-mode reduction: source 1 and the
    uniform mode S of sources 2..n through [[-eps, a], [a, eps]] with
    a = sqrt(1 - eps^2), where condition_mixed ("ideal", `detected` tap
    photons) or observe (a ">=2" tap) reads the normalized source and the
    weights are scaled back.  Under exact vacuum counts S keeps k photons
    of two-level sources with weight
    C(n-1, k) p^k (1-p)^(n-1-k) k!/(n-1)^k; under the lossy vacuum
    detectors, written out here as in chain_scenario_reference, observe
    reads S's weights from the n-1 sources through S's row and
    build_chain's vacuum rows, every one read 0, apart from run_chain's
    merges.  The exact-count weights repeat schemes.run_chain's
    expressions, so those two agree bit for bit; the reduction itself is
    checked against the n-mode chain and against mpmath."""
    m = n - 1
    one = {0: 1.0 - p, 1: p}
    if scenario in ("ideal", "bucket"):
        weights = [math.perm(m, k) / m**k * p**k * (1.0 - p) ** (m - k) for k in range(m + 1)]
        z = math.fsum(weights)
        spec = InputSpec((one, {k: w / z for k, w in enumerate(weights)}))
    else:
        if scenario == "+two-photon-inputs":
            one = {0: 1.0 - p - two_photon_prob, 1: p, 2: two_photon_prob}
        cap = n * max(one)
        vac = DetectorModel.vacuum_inefficient(cap)
        vacuum_rows = build_chain(n, eps).interferometer.matrix[2:, 1:]
        rows = Interferometer(np.vstack([np.full(m, 1.0 / math.sqrt(m)), vacuum_rows]))
        s = observe(InputSpec((one,) * m), rows, ObservedPattern((0,) * (m - 1)), [vac] * (m - 1))
        spec, z = InputSpec((one, dict(enumerate(s.normalized)))), s.pattern_probability
    a = math.sqrt(1.0 - eps * eps)
    interf = Interferometer(np.array([[-eps, a], [a, eps]]))
    if scenario == "ideal":
        res = condition_mixed(spec, interf, DetectionPattern((detected,)))
        label = DetectionPattern((detected,) + (0,) * (n - 2))
    else:
        cap = spec.max_total()
        dark = (1e-3, 1e-6) if scenario == "+darkcounts" else (0.0, 0.0)
        res = observe(spec, interf, ObservedPattern((BUCKET,)), [DetectorModel.bucket(cap, *dark)])
        label = ObservedPattern((BUCKET,) + (0,) * (n - 2))
    return ConditionalResult.from_unnormalized(res.unnormalized * z, pattern=label)


def _mp_two_mode_read(one: dict, sigma: list, eps, tap: list) -> list:
    """q[n1] = sum_D tap[D] sum_{j + k = n1 + D} one[j] sigma[k] |<n1, D|U|j, k>|^2
    for U = [[-eps, a], [a, eps]], a = sqrt(1 - eps^2), in mpmath at its
    working precision, every amplitude expanded by hand: i of source 1's j
    photons and n1 - i of S's k reach the kept mode."""
    top = max(one) + len(sigma)
    a = mpmath.sqrt(1 - eps**2)
    pe, pa = [eps**e for e in range(top)], [a**e for e in range(top)]
    fac = [mpmath.factorial(e) for e in range(top)]
    out = [mpmath.mpf(0)] * top
    for (j, pj), (k, sk) in itertools.product(one.items(), enumerate(sigma)):
        for d in (d for d in range(min(j + k, len(tap) - 1) + 1) if tap[d]):
            n1 = j + k - d
            amp = sum(
                (-1) ** i * math.comb(j, i) * math.comb(k, n1 - i)
                * pe[i] * pa[j - i] * pa[n1 - i] * pe[k - n1 + i]
                for i in range(max(0, n1 - k), min(j, n1) + 1)
            )
            out[n1] += tap[d] * pj * sk * amp**2 * fac[n1] * fac[d] / (fac[j] * fac[k])
    return out


def chain_merged(n: int, eps: float, one: dict, vacuum, tap) -> tuple[list, object, list]:
    """(sigma, z, kept) of the n-mode chain of sources `one` (count ->
    probability) in mpmath at its working precision, from the floats given:
    sources n, n-1, ..., 2 merge into one beam at reflectivities 1/2, 1/3,
    ..., 1/(n-1), each merge's contrast output weighted by vacuum[t]; sigma
    is the beam normalised, z the product of the merges' sums, and kept
    source 1 and the beam through the tap [[-eps, a], [a, eps]], weighted
    by tap[D] and scaled by z."""
    one = {j: mpmath.mpf(w) for j, w in one.items()}
    vacuum, tap = [mpmath.mpf(v) for v in vacuum], [mpmath.mpf(t) for t in tap]
    beam, z = [one.get(j, mpmath.mpf(0)) for j in range(max(one) + 1)], mpmath.mpf(1)
    for m in range(2, n):
        beam = _mp_two_mode_read(one, beam, mpmath.sqrt(mpmath.mpf(1) / m), vacuum)
        total = mpmath.fsum(beam)
        beam, z = [b / total for b in beam], z * total
    return beam, z, [z * q for q in _mp_two_mode_read(one, beam, mpmath.mpf(eps), tap)]


def merges_one_at_a_time(n: int, one: dict, vacuum, table) -> tuple[np.ndarray, float]:
    """schemes._reduced_source's lossy branch read merge by merge: for
    m = 2..n-1 a one-point schemes._tap_read at eps = sqrt(1/m), the new
    source as source 1 and the beam as S, at the beam's width plus the
    source maximum; the beam is normalised after each merge and z is the
    product of the merges' sums, with the same DimensionTooLarge where it
    underflows to 0."""
    beam, z = np.array([one.get(j, 0.0) for j in range(max(one) + 1)]), 1.0
    for merged in range(2, n):
        beam = schemes._tap_read(
            np.sqrt([1.0 / merged]), one, beam, vacuum, len(beam) + max(one), table
        )[0]
        total = math.fsum(beam)
        z *= total
        if not z:
            raise DimensionTooLarge(f"the {n}-mode chain's vacuum readings underflow to 0")
        beam = beam / total
    return beam, z


def check_bound(result: ConditionalResult, spec: InputSpec, slack: float = 1e-9) -> bool:
    """Per-pattern ratio bound as the searches apply it: True when it holds.

    ratio_out <= (M - D) * ratio_in for a two-level input with M occupied
    modes and D detected photons, and ratio_out <= ratio_in when D = 0 or
    D = M - 1; other inputs, a sure photon (p = 1, where ratio_in is
    infinite) and impossible patterns pass.  The reference for
    search.PatternScorer.best, written out apart from merit's rule.
    """
    if not spec.is_two_level() or spec.p_max() >= 1.0 or result.zero_probability:
        return True
    q = result.unnormalized
    q0 = float(q[0])
    q1 = float(q[1]) if q.size > 1 else 0.0
    p = spec.p_max()
    ratio_in = p / (1.0 - p)
    m, d = spec.occupied_modes(), result.pattern.total()
    allowed = (ratio_in if d in (0, m - 1) else ratio_in * (m - d)) + slack
    if q0 <= 0.0:
        return q1 <= 1e-12
    return q1 / q0 <= allowed


def objective_value(result: ConditionalResult, objective: str) -> float:
    """A search objective of one conditional result, 0 for an impossible
    pattern.  The per-pattern reference for search.PatternScorer.best."""
    if result.zero_probability:
        return 0.0
    q = result.normalized
    q0 = float(q[0])
    q1 = float(q[1]) if q.size > 1 else 0.0
    if objective == "single_photon":
        return q1
    if objective == "ratio":
        if q0 <= 0.0:
            return math.inf if q1 > 0 else 0.0
        return q1 / q0
    q2 = float(q[2]) if q.size > 2 else 0.0
    return q1 if q2 <= 1e-9 else 0.0


def detector_patterns_reference(n_modes: int, max_detected: int) -> list:
    """Every count tuple over n_modes - 1 detectors with at most max_detected
    photons, by total, then lexicographically: for each total d, stars and
    bars, the bar positions from itertools.combinations in lexicographic
    order (which orders the counts lexicographically too)."""
    m, rows = n_modes - 1, []
    for d in range(max_detected + 1):
        for bars in itertools.combinations(range(d + m - 1), m - 1):
            edges = (-1, *bars, d + m - 1)
            rows.append(tuple(b - a - 1 for a, b in zip(edges, edges[1:])))
    return rows


def condition_on_responses(spec: InputSpec, interf, columns, pattern) -> ConditionalResult:
    """Conditional output of mode 1 weighted by one response column per detector.

    columns[j][t], finite and non-negative, is the weight of detector j
    having seen t photons (a one-hot column is an exact count).  One
    engine table, capped at the column supports, is multiplied by every
    column in detector order and summed over n1; pattern labels the result.  Without support within
    the source maximum the result is the flagged zero one.  The bit-level
    reference for conditioner.Readout, which reads the same products in
    the same order.
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


def improvement_predicate(coeffs, ratio_in: float) -> bool:
    """Whether the output one-photon probability exceeds the input's.

    Equivalent to normalized[1] > p for a uniform two-level source with
    p = ratio_in / (1 + ratio_in): d[1] must beat the vacuum and
    multiphoton terms, which grow with ratio_in and close the window.
    The pointwise reference for merit.improvement_threshold.
    """
    d = np.asarray(coeffs, dtype=float)
    if d.size < 2:
        return False
    return bool(_excess(d, ratio_in) > 0)


def scorer_results(spec: InputSpec, interf, patterns) -> list:
    """A ConditionalResult per pattern, cut from one read of a PatternScorer:
    every pattern is read from one table with shared caps, as the searches
    read them."""
    from photonpost.search import PatternScorer

    scorer = PatternScorer(spec, patterns)
    q, _ = scorer.readout.read(interf.matrix[None])
    return [
        ConditionalResult.from_unnormalized(q[0, i, :length], pattern=DetectionPattern(row))
        for i, (row, length) in enumerate(zip(scorer.patterns, scorer.readout.lengths))
    ]


def _score_alone(tally, interf, offered=True):
    """Score one candidate by its own evaluate_candidate call, counted and,
    when offered, offered; returns its value."""
    from photonpost.search import evaluate_candidate

    value, pattern, bad = evaluate_candidate(
        interf, tally.spec, tally.task.objective, tally.patterns
    )
    tally.count(1, bad)
    if offered:
        tally.offer([value], lambda k: (pattern, interf))
    return value


def _refine_alone(tally, starts):
    """The refinement both searches ran before their starts advanced in
    lockstep: scipy's Nelder-Mead (which search._nelder_mead follows bit
    for bit) from each start in turn, every point scored, counted and not
    offered by its own evaluate_candidate call; then the end, offered."""
    from scipy import optimize

    from photonpost.search import unitary_from_angles

    task, n = tally.task, tally.task.n_modes

    def f(x):
        return -_score_alone(tally, unitary_from_angles(n, x), offered=False)

    if task.refine_iters > 0:
        for x0 in starts:
            options = {"maxiter": task.refine_iters, "xatol": 1e-10, "fatol": 1e-12}
            with np.errstate(invalid="ignore"):  # -inf objectives: NaN in the stop test
                x = optimize.minimize(f, x0, method="Nelder-Mead", options=options).x
            _score_alone(tally, unitary_from_angles(n, x))


def search_improvement_sequential(task):
    """search_improvement with each start refined alone, one candidate per
    call (_refine_alone)."""
    from photonpost.search import _Tally, _trial_seeds, chain_seed_angles, detector_patterns

    n = task.n_modes
    tally = _Tally(task, detector_patterns(n, n - 1))
    tally.score_haar(_trial_seeds(task.seed, task.trials))
    starts = []
    if task.include_chain_seed and n >= 3:
        starts.append(chain_seed_angles(n, task.chain_epsilon))
    rng = np.random.default_rng(np.random.SeedSequence((task.seed, 0x5EED)))
    starts.append(rng.uniform(0.0, math.pi, size=n * (n - 1)))
    _refine_alone(tally, starts)
    if task.objective == "ratio":
        benchmark = task.p_max / (1.0 - task.p_max)
    else:
        benchmark = task.p_max
    return tally.report("search", benchmark, "improvement found")


def verify_nogo_small_sequential(n_modes, p_max, trials, seed, refine_iters=80):
    """verify_nogo_small with each of its three seeded starts refined alone,
    one candidate per call (_refine_alone)."""
    from photonpost.search import SearchTask, _Tally, _trial_seeds, detector_patterns

    n = n_modes
    task = SearchTask(n, p_max, "single_photon", trials, refine_iters, seed)
    tally = _Tally(task, detector_patterns(n, n))
    tally.score_haar(_trial_seeds(seed, trials))
    rng = np.random.default_rng(np.random.SeedSequence((seed, 0xC0FFEE)))
    _refine_alone(tally, [rng.uniform(0.0, math.pi, size=n * (n - 1)) for _ in range(3)])
    return tally.report("nogo-small", p_max, "counterexample found")


def verify_nogo_patterns_sequential(n_modes, p_max, trials, seed) -> dict:
    """verify_nogo_patterns trial by trial, every pattern read by its own
    condition_mixed call.

    Each trial takes its Haar unitary from the trial seed and its
    one-mode-left source from the search's generator: an occupied count
    in 2..n_modes, that many modes, their probabilities (the first set to
    p_max).  The source's patterns detect one photon fewer than the
    occupied count, listed here by filtering every count vector; then the
    uniform p_max source faces each single click.
    Every pattern is one evaluation, check_bound counts the violations and
    objective_value gives the ratio.  Returns the report's trials_run,
    bound_violations, best_value and verdict.
    """
    n = n_modes
    ratio_in = p_max / (1.0 - p_max)
    uniform = InputSpec.two_level([p_max] * n)
    clicks = [DetectionPattern(tuple(int(j == i) for j in range(n - 1))) for i in range(n - 1)]
    trial_seeds = np.random.SeedSequence(seed).generate_state(trials, dtype=np.uint64)
    rng = np.random.default_rng(np.random.SeedSequence((seed, 0xA11CE)))
    evals = violations = 0
    best = -math.inf
    for trial_seed in trial_seeds:
        interf = haar_random(n, int(trial_seed))
        occupied = int(rng.integers(2, n + 1))
        modes = rng.permutation(n)[:occupied]
        ps = np.zeros(n)
        ps[modes] = rng.uniform(0.1 * p_max, p_max, size=occupied)
        ps[modes[0]] = p_max
        left = [
            DetectionPattern(c)
            for c in itertools.product(range(occupied), repeat=n - 1)
            if sum(c) == occupied - 1
        ]
        for spec, patterns in ((InputSpec.two_level(ps.tolist()), left), (uniform, clicks)):
            for pattern in patterns:
                result = condition_mixed(spec, interf, pattern)
                evals += 1
                violations += not check_bound(result, spec)
                best = max(best, objective_value(result, "ratio"))
    return {
        "trials_run": evals,
        "bound_violations": violations,
        "best_value": best,
        "verdict": "counterexample found" if best > ratio_in + 1e-9 else "none found",
    }


def cli_parser() -> argparse.ArgumentParser:
    """The argparse parser photonpost.cli once built: the reference for
    cli._read_argv, which reads a job's argv without argparse and hands
    every other argv to cli._parser, this parser with a set usage line."""
    from photonpost.cli import COMMANDS

    parser = argparse.ArgumentParser(
        prog="photonpost",
        description="Conditioned photon statistics behind linear interferometers.",
    )
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", required=True, help="JSON config file")
    parser.add_argument("--out", required=True, help="output file (JSON or CSV)")
    parser.add_argument("--seed", type=int, default=None, help="override the config seed")
    parser.add_argument(
        "--threads",
        type=int,
        default=None,
        help=(
            "accepted for compatibility and ignored: sweeps run serially, "
            "since the GIL serializes their points"
        ),
    )
    return parser
