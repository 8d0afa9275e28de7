"""Brute-force reference implementations used only by the tests.

Everything here works by expanding creation-operator polynomials in a
dense dictionary keyed by photon configuration.  No permanents, no
combinatorial shortcuts; slow but obviously correct for small sizes.
The one exception is the two-mode closed form at the end, an independent
hand expansion of the beam-splitter case.
"""

import itertools
import math

import numpy as np

from photonpost import (
    BUCKET,
    ConditionalResult,
    DetectionPattern,
    DetectorModel,
    InputSpec,
    ObservedPattern,
    benchmark_detector_suite,
    build_chain,
    condition_mixed,
    haar_random,
    observe,
)


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


def scorer_results(spec: InputSpec, interf, patterns) -> list:
    """A ConditionalResult per pattern, cut from one PatternScorer.weights call:
    every pattern is read from one table with shared caps, as the searches
    read them."""
    from photonpost.search import PatternScorer

    scorer = PatternScorer(spec, patterns)
    q, _ = scorer.weights(interf.matrix[None])
    return [
        ConditionalResult.from_unnormalized(q[0, i, :length], pattern=pattern)
        for i, (pattern, length) in enumerate(zip(scorer.patterns, scorer.lengths))
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


def search_improvement_sequential(task):
    """search_improvement with each start refined alone, one candidate per call.

    The loop the search ran before its starts advanced in lockstep:
    scipy's Nelder-Mead (which search._nelder_mead follows bit for bit)
    from each start in turn, every point scored by its own
    evaluate_candidate call.
    """
    from scipy import optimize

    from photonpost.search import (
        _Tally,
        _trial_seeds,
        chain_seed_angles,
        detector_patterns,
        unitary_from_angles,
    )

    n = task.n_modes
    tally = _Tally(task, detector_patterns(n, n - 1))
    tally.score_haar(_trial_seeds(task.seed, task.trials))
    starts = []
    if task.include_chain_seed and n >= 3:
        starts.append(chain_seed_angles(n, task.chain_epsilon))
    rng = np.random.default_rng(np.random.SeedSequence((task.seed, 0x5EED)))
    starts.append(rng.uniform(0.0, math.pi, size=n * (n - 1)))

    def f(x):
        return -_score_alone(tally, unitary_from_angles(n, x), offered=False)

    if task.refine_iters > 0:
        for x0 in starts:
            options = {"maxiter": task.refine_iters, "xatol": 1e-10, "fatol": 1e-12}
            with np.errstate(invalid="ignore"):  # -inf objectives: NaN in the stop test
                x = optimize.minimize(f, x0, method="Nelder-Mead", options=options).x
            _score_alone(tally, unitary_from_angles(n, x))
    if task.objective == "ratio":
        benchmark = task.p_max / (1.0 - task.p_max)
    else:
        benchmark = task.p_max
    return tally.report("search", benchmark, "improvement found")


def verify_nogo_small_sequential(n_modes, p_max, trials, seed, refine_iters=80):
    """verify_nogo_small with each compass search run alone, one candidate per
    call: the loop the verification ran before its starts advanced in lockstep.

    From each of three seeded starts in turn: sweep the angles, trying
    +step then -step on each; keep a probe that strictly improves and move
    to the next angle; halve the step after a sweep that keeps nothing;
    stop when the probe budget is spent or the step reaches 1e-4.  Every
    point is scored, counted and offered by its own evaluate_candidate call.
    """
    from photonpost.search import (
        SearchTask,
        _Tally,
        _trial_seeds,
        detector_patterns,
        unitary_from_angles,
    )

    n = n_modes
    task = SearchTask(n, p_max, "single_photon", trials, refine_iters, seed)
    tally = _Tally(task, detector_patterns(n, n))
    tally.score_haar(_trial_seeds(seed, trials))
    rng = np.random.default_rng(np.random.SeedSequence((seed, 0xC0FFEE)))
    for _ in range(3 if refine_iters > 0 else 0):
        x = rng.uniform(0.0, math.pi, size=n * (n - 1))
        step = 0.4
        current = _score_alone(tally, unitary_from_angles(n, x))
        remaining = refine_iters
        while remaining > 0 and step > 1e-4:
            improved = False
            for i in range(len(x)):
                for delta in (step, -step):
                    y = x.copy()
                    y[i] += delta
                    value = _score_alone(tally, unitary_from_angles(n, y))
                    remaining -= 1
                    if value > current:
                        current, x, improved = value, y, True
                        break
                if remaining <= 0:
                    break
            if not improved:
                step *= 0.5
    return tally.report("nogo-small", p_max, "counterexample found")


def verify_nogo_patterns_sequential(n_modes, p_max, trials, seed) -> dict:
    """verify_nogo_patterns trial by trial, every pattern read by its own
    condition_mixed call.

    Each trial takes its Haar unitary from the trial seed and its
    one-mode-left source from the search's generator: an occupied count
    in 2..n_modes, that many modes, their probabilities (the first set to
    p_max).  The source's patterns detect one photon fewer than the
    occupied count, listed here by filtering every count vector; then the
    uniform p_max source faces each single click and the empty pattern.
    Every pattern is one evaluation, check_bound counts the violations and
    objective_value gives the ratio.  Returns the report's trials_run,
    bound_violations, best_value and verdict.
    """
    n = n_modes
    ratio_in = p_max / (1.0 - p_max)
    uniform = InputSpec.two_level([p_max] * n)
    clicks = [DetectionPattern(tuple(int(j == i) for j in range(n - 1))) for i in range(n)]
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
