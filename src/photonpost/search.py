"""Randomized searches for improvement and no-go verification.

Candidates are sampled Haar-randomly and scored over every detection
pattern, in stacks: PatternScorer.best, shared by all three searches,
reads all exact patterns of a stack of candidates with one
conditioner.Readout and applies the objectives and the ratio bound.
The patterns are count arrays, the states of an engine basis over the
detectors (detector_patterns), so a problem too large for the engine
fails at the basis size guard before any pattern is listed.
Refinement then climbs in a beam-splitter-angle parameterization of the
unitary group (a product of two-mode couplers, unitary by construction)
with Nelder-Mead, an ask/tell generator that asks for all four trial points
of a step at once and reads scipy's; one loop (_Tally.refine) advances the
runs from all starts in lockstep, one stack per round.  A negative verdict
means "no counterexample found at this budget", nothing stronger.  Every
scored candidate, read or not, checks the ratio bound, so the search
doubles as a correctness tripwire.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .conditioner import Readout
from .engine import basis
from .errors import BadCount, BadParameters, DimensionMismatch
from .fock import InputSpec, photon_count
from .interferometer import Interferometer, check_unitary, haar_random, haar_unitaries
from .merit import DUST, allowed_ratio, is_dust, ratio_breaches
from .schemes import chain_element_angles

IMPROVEMENT_SLACK = 1e-9  # relative: a verdict means the same at every p_max

OBJECTIVES = ("single_photon", "ratio", "single_photon_no_pairs")


@dataclass(frozen=True)
class SearchTask:
    """A search or verification job; seeds make it reproducible."""

    n_modes: int
    p_max: float
    objective: str = "single_photon"
    trials: int = 1000
    refine_iters: int = 200
    seed: int = 0
    include_chain_seed: bool = True
    chain_epsilon: float = 1e-3

    def __post_init__(self):
        object.__setattr__(self, "n_modes", photon_count(self.n_modes))
        if self.n_modes < 2:
            raise BadParameters("searches need at least two modes")
        if not (0.0 < self.p_max < 1.0):
            raise BadParameters(f"p_max must sit inside (0, 1), got {self.p_max}")
        if self.objective not in OBJECTIVES:
            raise BadParameters(
                f"objective {self.objective!r} not one of {OBJECTIVES}"
            )
        if self.trials < 0 or self.refine_iters < 0:
            raise BadParameters(
                f"trials and refine_iters must be non-negative, got "
                f"{self.trials} and {self.refine_iters}"
            )
        if self.trials == 0 and self.refine_iters == 0:
            raise BadParameters("a budget of no trials and no refinement scores nothing")
        if self.seed < 0:
            raise BadParameters(f"seeds must be non-negative, got {self.seed}")
        for name in ("trials", "refine_iters", "seed"):  # 4.0 reads as 4, 2.5 raises
            object.__setattr__(self, name, photon_count(getattr(self, name)))
        if not (0.0 < self.chain_epsilon < 1.0):
            raise BadParameters(
                f"chain_epsilon must sit strictly inside (0, 1), got {self.chain_epsilon}"
            )


@dataclass
class SearchReport:
    """Outcome of a search, self-contained enough to reproduce."""

    kind: str
    n_modes: int
    p_max: float
    objective: str
    seed: int
    trials: int
    refine_iters: int
    trials_run: int
    best_value: float
    best_pattern: tuple[int, ...]
    best_interferometer: Interferometer | None
    verdict: str
    bound_violations: int

    def to_json_dict(self) -> dict:
        return {
            "kind": self.kind,
            "n_modes": self.n_modes,
            "p_max": self.p_max,
            "objective": self.objective,
            "seed": self.seed,
            "budget": {"trials": self.trials, "refine_iters": self.refine_iters},
            "trials_run": self.trials_run,
            "best_value": self.best_value,
            "best_pattern": list(self.best_pattern),
            "best_interferometer": (
                None
                if self.best_interferometer is None
                else self.best_interferometer.to_json_dict()
            ),
            "verdict": self.verdict,
            "bound_violations": self.bound_violations,
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "SearchReport":
        interf = data.get("best_interferometer")
        return cls(
            kind=data["kind"],
            n_modes=int(data["n_modes"]),
            p_max=float(data["p_max"]),
            objective=data["objective"],
            seed=int(data["seed"]),
            trials=int(data["budget"]["trials"]),
            refine_iters=int(data["budget"]["refine_iters"]),
            trials_run=int(data["trials_run"]),
            best_value=float(data["best_value"]),
            best_pattern=tuple(int(x) for x in data["best_pattern"]),
            best_interferometer=(
                None if interf is None else Interferometer.from_json_dict(interf)
            ),
            verdict=data["verdict"],
            bound_violations=int(data["bound_violations"]),
        )


def detector_patterns(n_modes: int, max_detected: int) -> np.ndarray:
    """Every detection pattern with at most max_detected photons: the states
    of engine.basis over the detectors, a read-only (patterns, n_modes - 1)
    count array ordered by total, then lexicographically."""
    return basis((max_detected,) * (n_modes - 1), max_detected).states


class PatternScorer:
    """Scores stacks of interferometers over fixed detection patterns.

    Built once per (spec, patterns), kept as given: a conditioner.Readout of
    the one-hot columns (counts clipped to one above the source maximum, all
    impossible alike), and each pattern's ratio bound and |U| ceiling.  A
    (B, N, N) stack gives one read, whose sums of non-negative terms need
    no sign check; merit's ratio bound and the objectives are applied with
    the float operations of a per-pattern ConditionalResult.
    """

    def __init__(self, spec: InputSpec, patterns):
        n = spec.n_modes
        if not isinstance(patterns, np.ndarray) or patterns.dtype.kind == "O":
            # DetectionPatterns or count tuples: whole counts of any size
            patterns = [tuple(map(photon_count, p)) for p in patterns]
            if len({len(p) for p in patterns}) > 1:
                raise DimensionMismatch("patterns cover different numbers of detectors")
        self.patterns = counts = np.asarray(patterns)  # reported as asked
        if len(counts) == 0:
            raise BadParameters("reading needs at least one detection pattern")
        if counts.shape[1:] != (n - 1,):
            raise DimensionMismatch(f"patterns have shape {counts.shape}, not (P, {n - 1})")
        with np.errstate(invalid="ignore"):  # inf % 1 is NaN: not whole
            if counts.dtype.kind not in "iufO" or not np.all((counts >= 0) & (counts % 1 == 0)):
                raise BadCount("detector counts must be non-negative integers")
        top = spec.max_total()
        counts = np.minimum(counts, top + 1).astype(np.int64)
        self.readout = Readout(spec, counts[..., None] == np.arange(top + 1))
        totals = counts.sum(axis=1).tolist()
        self.allowed = allowed_ratio(spec, totals)
        # a vacuum entry of D photons computed from |U| never exceeds D!
        self.ceiling = np.array([math.factorial(d) for d in totals], dtype=float)
        self.floor = DUST * self.ceiling  # merit.is_dust against the ceiling

    def best(self, matrices, objective: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per matrix: the best objective value over the patterns (0 for one
        that cannot occur), the first pattern reaching it, and how many
        patterns breach the ratio bound.  The rare matrices with a possible
        pattern that may be dust (below DUST times its ceiling) are read
        again from |U|: their dust patterns (merit.is_dust) count as
        probability 0, so value 0 and no breach."""
        q, prob = self.readout.read(matrices)
        possible = prob > 0.0
        odd = ((q[..., 0] < self.floor) & possible).any(axis=1).nonzero()[0]
        if odd.size:
            paths, _ = self.readout.read(np.abs(matrices[odd]))
            prob[odd] = np.where(is_dust(q[odd, :, 0], paths[..., 0]), 0.0, prob[odd])
            possible = prob > 0.0
        if self.allowed is None:
            breach = np.zeros_like(possible)
        else:
            breach = ratio_breaches(q[..., 0], q[..., 1], self.allowed) & possible
        if objective == "single_photon":
            values = np.divide(q[..., 1], prob, out=np.zeros(prob.shape), where=possible)
        else:
            with np.errstate(divide="ignore", invalid="ignore"):
                q0, q1, q2 = (q[..., k] / prob for k in range(3))
                if objective == "ratio":
                    value = np.where(q0 <= 0.0, np.where(q1 > 0, math.inf, 0.0), q1 / q0)
                elif objective == "single_photon_no_pairs":
                    value = np.where(q2 <= 1e-9, q1, 0.0)
                else:
                    raise BadParameters(f"objective {objective!r} not one of {OBJECTIVES}")
            values = np.where(possible, value, 0.0)
        return values.max(axis=1), values.argmax(axis=1), breach.sum(axis=1)


def evaluate_candidate(
    interf: Interferometer, spec: InputSpec, objective: str, patterns
) -> tuple[float, tuple[int, ...], int]:
    """Best objective value over the given patterns (DetectionPatterns, count
    tuples or a count array), plus bound violations: the one-matrix call of
    PatternScorer."""
    scorer = PatternScorer(spec, patterns)
    best, first, violations = scorer.best(interf.matrix[None], objective)
    return float(best[0]), tuple(map(int, scorer.patterns[first[0]])), int(violations[0])


def reevaluate(report: SearchReport) -> float:
    """Recompute the reported best value from the stored record."""
    if report.best_interferometer is None:
        raise BadParameters("report carries no interferometer to re-evaluate")
    if report.kind == "nogo-patterns":  # its best may come from a one-mode-left source
        raise BadParameters("a nogo-patterns report does not record the source it read")
    spec = InputSpec.two_level([report.p_max] * report.n_modes)
    interf, pattern = report.best_interferometer, report.best_pattern
    return evaluate_candidate(interf, spec, report.objective, [pattern])[0]


# ---------------------------------------------------------------------------
# angle parameterization


def pair_order(n_modes: int) -> list[tuple[int, int]]:
    """Coupler pair ordering; the chain layout occupies the first slots."""
    line = [(n_modes - 1 - k, n_modes - k) for k in range(1, n_modes - 1)]
    line.append((0, 1))
    rest = sorted(p for p in itertools.combinations(range(n_modes), 2) if p not in line)
    return line + rest


@functools.lru_cache(maxsize=16)
def _coupler_layout(n_modes: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(slots, rows, cols, identity) of unitary_from_angles, read-only: coupler
    k of pair_order writes its 2 x 2 entries at [k, rows[k], cols[k]]."""
    pairs = pair_order(n_modes)
    rows, cols = np.array([[(i, i, j, j), (i, j, i, j)] for i, j in pairs]).transpose(1, 0, 2)
    layout = (np.arange(len(pairs))[:, None], rows, cols, np.eye(n_modes, dtype=complex))
    for a in layout:
        a.setflags(write=False)
    return layout


def unitary_from_angles(n_modes: int, angles) -> Interferometer | np.ndarray:
    """Compose a unitary from (theta, phi) couplers along pair_order.

    The embedded couplers are multiplied as plain arrays, later ones on
    the left as compose does; only the product is validated.  A (B, 2P)
    array of angle vectors gives the (B, N, N) stack of products, each
    validated and equal bit for bit to its one-vector call.
    """
    slots, rows, cols, identity = _coupler_layout(n_modes)
    count = len(slots)
    angles = np.asarray(angles, dtype=float)
    if angles.ndim not in (1, 2) or angles.shape[-1] != 2 * count:
        raise BadParameters(
            f"expected {2 * count} angles for {n_modes} modes, got shape {angles.shape}"
        )
    theta, phi = angles.reshape(-1, count, 2).transpose(2, 0, 1)
    ph = np.empty(phi.shape, dtype=complex)
    ph.real, ph.imag = np.cos(phi), np.sin(phi)
    ct, st = np.cos(theta), np.sin(theta)
    m = np.empty((count, len(theta)) + identity.shape, dtype=complex)  # (P, B): m[k] contiguous
    m[...] = identity
    entries = np.array([ph * ct, -st, st, ph.conj() * ct])  # coupler_matrix's
    m[slots, :, rows, cols] = entries.transpose(2, 0, 1)
    total = identity
    for k in range(count):
        total = m[k] @ total
    if angles.ndim == 1:
        return Interferometer(total[0], provenance=f"compose({count} elements)")
    check_unitary(total)
    return total


def chain_seed_angles(n_modes: int, epsilon: float) -> np.ndarray:
    """Angle vector reproducing the chain (up to input phases, which are
    irrelevant for diagonal inputs)."""
    pairs = pair_order(n_modes)
    x = np.zeros(2 * len(pairs))
    for k, (i, j, theta, phi) in enumerate(chain_element_angles(n_modes, epsilon)):
        assert pairs[k] == (i, j)
        x[2 * k] = theta
        x[2 * k + 1] = phi
    return x


_STEPS = np.array([[2.0, -1.0], [3.0, -2.0], [1.5, -0.5], [0.5, 0.5]])


def _nelder_mead(x0, maxiter: int, xatol: float, fatol: float):
    """Minimize by ask and tell: yields (used, points), is sent the values of
    the (k, n) points and returns (used, x), x the point scipy.optimize.minimize
    would from x0; used indexes the points of the batch before that it read.

    A port of scipy's `_minimize_neldermead` on the search's path (no bounds,
    standard coefficients, an iteration cap, no evaluation cap).  Each step asks
    for the reflection, expansion and both contractions as one batch (Lee and
    Wiswall's parallel variant), then takes scipy's branch; the first simplex
    and a shrink are a batch each.  So it asks for a superset of scipy's points
    and reads scipy's, in order, with the same arithmetic and sorts.
    """
    x0 = np.asarray(x0, dtype=float)
    n = len(x0)
    sim = np.tile(x0, (n + 1, 1))
    for k in range(n):
        sim[k + 1, k] = (1 + 0.05) * x0[k] if x0[k] != 0 else 0.00025
    fsim = np.array((yield (), np.copy(sim)), dtype=float)
    used = tuple(range(n + 1))
    for _ in range(2):  # scipy sorts twice before the first step
        ind = fsim.argsort()
        sim, fsim = sim.take(ind, 0), fsim.take(ind, 0)

    iterations = 1
    while iterations < maxiter:
        if abs(sim[1:] - sim[0]).max() <= xatol:
            with np.errstate(invalid="ignore"):  # -inf - -inf: NaN, not converged
                if abs(fsim[0] - fsim[1:]).max() <= fatol:
                    break
        c, w = np.add.reduce(sim[:-1], 0) / n, sim[-1]  # centroid, worst vertex
        # reflection, expansion, outside and inside contraction: a * c + (-b) * w is a * c - b * w
        trial = _STEPS[:, :1] * c + _STEPS[:, 1:] * w
        f = yield used, trial
        if f[0] < fsim[0]:
            used, k = (0, 1), 1 if f[1] < f[0] else 0
        elif f[0] < fsim[-2]:
            used, k = (0,), 0
        elif f[0] < fsim[-1]:
            used, k = (0, 2), 2 if f[2] <= f[0] else None
        else:
            used, k = (0, 3), 3 if f[3] < fsim[-1] else None
        if k is not None:
            sim[-1], fsim[-1] = trial[k], f[k]
        else:  # shrink toward the best vertex
            sim[1:] = sim[0] + 0.5 * (sim[1:] - sim[0])
            fsim[1:] = yield used, np.copy(sim[1:])
            used = tuple(range(n))
        iterations += 1
        ind = fsim.argsort()
        sim, fsim = sim.take(ind, 0), fsim.take(ind, 0)
    return used, sim[0]


def _trial_seeds(seed: int, count: int) -> list[int]:
    state = np.random.SeedSequence(seed).generate_state(count, dtype=np.uint64)
    return [int(s) for s in state]


# ---------------------------------------------------------------------------
# searches


def _haar_stacks(n_modes: int, seeds: Sequence[int], size: int):
    """(seeds, Haar unitaries) stacks of at most size trials."""
    for lo in range(0, len(seeds), size):
        chunk = seeds[lo : lo + size]
        yield chunk, haar_unitaries(n_modes, chunk)


class _Tally:
    """Counts one search's evaluations and bound violations; keeps the best offered one."""

    def __init__(self, task: SearchTask, patterns: np.ndarray):
        self.task = task
        self.spec = InputSpec.two_level([task.p_max] * task.n_modes)
        self.scorer = PatternScorer(self.spec, patterns)
        self.patterns, self.size = self.scorer.patterns, self.scorer.readout.stack()
        self.evals = self.violations = 0
        self.best_value = -math.inf
        self.best_pattern: tuple[int, ...] = ()
        self.best_interf: Interferometer | None = None

    def count(self, evals: int, violations: int) -> None:
        self.evals += evals
        self.violations += int(violations)

    def offer(self, values, candidate) -> None:
        """Keep the first best of values if it beats the best so far;
        candidate(k) gives the k-th (pattern counts, interferometer) and is
        only called for the one kept."""
        k = int(np.argmax(values))
        if values[k] > self.best_value:
            self.best_value = float(values[k])
            pattern, self.best_interf = candidate(k)
            self.best_pattern = tuple(map(int, pattern))

    def score_matrices(self, matrices, build=None) -> np.ndarray:
        """Best value per matrix over every pattern, scored in stacks as large
        as the engine takes, bound violations counted; when build(k) gives
        the k-th matrix's interferometer, also counted as evaluations and
        offered stack by stack."""
        values, size = np.empty(len(matrices)), self.size
        for lo in range(0, len(matrices), size):
            best, first, bad = self.scorer.best(matrices[lo : lo + size], self.task.objective)
            self.count(0 if build is None else len(best), bad.sum())
            if build is not None:
                self.offer(best, lambda k: (self.patterns[first[k]], build(lo + k)))
            values[lo : lo + size] = best
        return values

    def score_haar(self, seeds: Sequence[int]) -> None:
        """Score seeded Haar-random trials, counted and offered."""
        n = self.task.n_modes
        for chunk, matrices in _haar_stacks(n, seeds, self.size):
            self.score_matrices(matrices, lambda k: haar_random(n, chunk[k]))

    def refine(self, starts: Sequence[np.ndarray]) -> None:
        """Polish angle starts with _nelder_mead, task.refine_iters iterations
        each, run in lockstep rounds: each round scores the points all live
        runs ask for, in start order, as one stack, offered nowhere, and
        sends each run its values negated; every point scored is checked
        against the bound, those read count as evaluations.  The ends are
        then scored as one more stack, counted and offered in start order."""
        n, iters = self.task.n_modes, self.task.refine_iters
        if iters == 0:
            return
        runs = [_nelder_mead(x0, iters, xatol=1e-10, fatol=1e-12) for x0 in starts]
        asked = {k: next(run)[1] for k, run in enumerate(runs)}
        ends = [None] * len(runs)
        while asked:
            values = -self.score_matrices(unitary_from_angles(n, np.concatenate([*asked.values()])))
            lo = 0
            for k, x in list(asked.items()):
                lo += len(x)
                try:
                    used, asked[k] = runs[k].send(values[lo - len(x) : lo])
                except StopIteration as stop:
                    used, ends[k] = stop.value
                    del asked[k]
                self.evals += len(used)
        x = np.array(ends)
        self.score_matrices(unitary_from_angles(n, x), lambda k: unitary_from_angles(n, x[k]))

    def report(self, kind: str, benchmark: float, found: str) -> SearchReport:
        """The verdict is `found` when the best value clears the benchmark by
        more than the relative IMPROVEMENT_SLACK."""
        task = self.task
        beaten = self.best_value > benchmark * (1.0 + IMPROVEMENT_SLACK)
        return SearchReport(
            kind=kind,
            n_modes=task.n_modes,
            p_max=task.p_max,
            objective=task.objective,
            seed=task.seed,
            trials=task.trials,
            refine_iters=task.refine_iters,
            trials_run=self.evals,
            best_value=float(self.best_value),
            best_pattern=self.best_pattern,
            best_interferometer=self.best_interf,
            verdict=found if beaten else "none found",
            bound_violations=self.violations,
        )


def search_improvement(task: SearchTask) -> SearchReport:
    """Look for interferometers beating the source's single-photon odds.

    Haar-random restarts score every pattern; the best angle-space starts
    (the chain layout when requested, plus seeded random angles) are then
    polished with Nelder-Mead.  The verdict flags improvement when the
    best value clears the input benchmark by more than a relative 1e-9.
    """
    n = task.n_modes
    tally = _Tally(task, detector_patterns(n, n - 1))
    tally.score_haar(_trial_seeds(task.seed, task.trials))

    starts: list[np.ndarray] = []
    if task.include_chain_seed and n >= 3:
        starts.append(chain_seed_angles(n, task.chain_epsilon))
    rng = np.random.default_rng(np.random.SeedSequence((task.seed, 0x5EED)))
    starts.append(rng.uniform(0.0, math.pi, size=n * (n - 1)))
    tally.refine(starts)

    benchmark = (
        task.p_max
        if task.objective in ("single_photon", "single_photon_no_pairs")
        else task.p_max / (1.0 - task.p_max)
    )
    return tally.report("search", benchmark, "improvement found")


def verify_nogo_small(
    n_modes: int,
    p_max: float,
    trials: int,
    seed: int,
    refine_iters: int = 80,
) -> SearchReport:
    """Hunt for single-photon improvement where theory forbids it.

    Meant for 2 and 3 modes: Haar-random trials scan every pattern, then
    three seeded angle starts are refined as search_improvement refines
    its starts (_Tally.refine), refine_iters Nelder-Mead iterations each.
    """
    if n_modes not in (2, 3):
        raise BadParameters(
            f"exhaustive verification is limited to 2 or 3 modes, got {n_modes}"
        )
    task = SearchTask(n_modes, p_max, "single_photon", trials, refine_iters, seed)
    n = task.n_modes
    tally = _Tally(task, detector_patterns(n, n))
    tally.score_haar(_trial_seeds(task.seed, task.trials))

    rng = np.random.default_rng(np.random.SeedSequence((task.seed, 0xC0FFEE)))
    tally.refine([rng.uniform(0.0, math.pi, size=n * (n - 1)) for _ in range(3)])

    return tally.report("nogo-small", p_max, "counterexample found")


def verify_nogo_patterns(
    n_modes: int, p_max: float, trials: int, seed: int
) -> SearchReport:
    """Check the one-mode-left and single-click no-go statements.

    Per trial: a Haar-random interferometer faces (a) a random two-level
    source, patterns detecting one photon fewer than the occupied modes,
    and (b) a uniform source with every single-click pattern (not the
    empty one: there q1/q0 equals the input ratio for every unitary).
    The output ratio (PatternScorer.best) must never beat the input
    ratio; the tally keeps the largest, and every (trial, pattern) counts
    as one evaluation.  Half (b) is scored for a stack of trials at once;
    the offers still go in trial order.
    """
    task = SearchTask(n_modes, p_max, "ratio", trials, refine_iters=0, seed=seed)
    n = task.n_modes
    tally = _Tally(task, np.eye(n - 1, dtype=np.int64))
    single_clicks = tally.scorer

    def score(scorer, matrices):
        best, first, bad = scorer.best(matrices, "ratio")
        tally.count(best.size * len(scorer.patterns), bad.sum())
        return best, first

    rng = np.random.default_rng(np.random.SeedSequence((task.seed, 0xA11CE)))
    for chunk, matrices in _haar_stacks(n, _trial_seeds(task.seed, task.trials), tally.size):
        clicks = score(single_clicks, matrices)
        for t, trial_seed in enumerate(chunk):
            occupied = int(rng.integers(2, n + 1))
            modes = rng.permutation(n)[:occupied]
            ps = np.zeros(n)
            ps[modes] = rng.uniform(0.1 * p_max, p_max, size=occupied)
            ps[modes[0]] = p_max
            d = occupied - 1  # one mode left: the patterns detecting d photons
            left = detector_patterns(n, d)
            one_left = PatternScorer(InputSpec.two_level(ps.tolist()), left[left.sum(axis=1) == d])
            # offers keep trial order: one_left first, then the single clicks
            for scorer, (best, first), k in (
                (one_left, score(one_left, matrices[t : t + 1]), 0),
                (single_clicks, clicks, t),
            ):
                tally.offer(
                    best[k : k + 1],
                    lambda _: (scorer.patterns[first[k]], haar_random(n, trial_seed)),
                )

    return tally.report("nogo-patterns", p_max / (1.0 - p_max), "counterexample found")
