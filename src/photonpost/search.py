"""Randomized searches for improvement and no-go verification.

Candidates are sampled Haar-randomly and scored over every detection
pattern, in stacks: PatternScorer.best, the one reader of all three
searches, reads all exact patterns of a stack of candidates from one
engine table and applies the objectives and the ratio bound to them.
Refinement then climbs in a beam-splitter-angle parameterization of the
unitary group (a product of two-mode couplers, unitary by construction)
with Nelder-Mead or a compass search, ask/tell generators that one loop
(_Tally.refine) advances in lockstep rounds, each round one stack of the
points their starts ask for: no candidate is scored alone.  A negative
verdict always means "no counterexample found at this budget", nothing
stronger.  Every evaluation also checks the ratio bound, so the search
doubles as a correctness tripwire.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .conditioner import DetectionPattern
from .engine import basis, max_stack, output_table
from .errors import BadParameters, DimensionMismatch
from .fock import InputSpec, compositions
from .interferometer import Interferometer, check_unitary, haar_random, haar_unitaries
from .merit import allowed_ratio, is_dust, ratio_breaches
from .schemes import chain_element_angles

IMPROVEMENT_SLACK = 1e-9

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


def detector_patterns(n_modes: int, max_detected: int) -> list[DetectionPattern]:
    """Every detection pattern with at most max_detected photons."""
    pats = []
    for d in range(max_detected + 1):
        for counts in compositions(d, n_modes - 1):
            pats.append(DetectionPattern(counts))
    return pats


class PatternScorer:
    """Scores stacks of interferometers over fixed detection patterns.

    Built once per (spec, patterns): caps that hold every pattern (each
    detector at its largest count, the kept mode at the source maximum
    minus the fewest detected), a gather index (patterns, n1) clipped into
    their basis, the mask of entries outside it (set to +0.0 after the
    gather), and the patterns grouped by length.
    A (B, N, N) stack then gives one stacked table, read as arrays (sums of
    non-negative terms, never below +0.0, need no clamp); merit's ratio
    bound and the objectives are applied with the float operations of a
    per-pattern ConditionalResult.
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
        counts = np.array([p.counts for p in patterns], dtype=np.int64)
        totals = counts.sum(axis=1)
        self.caps = (self.top - int(totals.min()),) + tuple(counts.max(axis=0).tolist())
        b = basis(self.caps, self.top)
        # (n1, *pattern) for n1 up to the kept cap, and 0..2 at least for best();
        # lookup gives -1 outside the basis
        n1 = np.arange(max(3, self.caps[0] + 1))
        vectors = np.zeros((len(counts), n1.size, n), dtype=np.int64)
        vectors[..., 0], vectors[..., 1:] = n1, counts[:, None]
        index = b.lookup(vectors).reshape(len(counts), n1.size)
        self.outside = index < 0
        self.lengths = np.maximum(np.count_nonzero(~self.outside, axis=1), 1).tolist()
        self.gather = np.maximum(index, 0)
        # sums run per length, so each adds the same terms as a 1-D sum
        self.groups = [
            (size, np.flatnonzero(np.equal(self.lengths, size)))
            for size in sorted(set(self.lengths))
        ]
        self.allowed = allowed_ratio(spec, totals.tolist())
        # a vacuum entry of D photons computed from |U| never exceeds D!
        self.ceiling = np.array([math.factorial(d) for d in totals.tolist()], dtype=float)

    def stack(self) -> int:
        """Most matrices one weights call takes within the engine's cell limit."""
        return max(1, max_stack(self.spec.distributions, self.caps, self.top))

    def weights(self, matrices) -> tuple[np.ndarray, np.ndarray]:
        """c~ per (matrix, pattern, n1) and each pattern's probability."""
        n = self.spec.n_modes
        if np.shape(matrices)[1:] != (n, n):
            raise DimensionMismatch(
                f"input has {n} modes, interferometer has {np.shape(matrices)[-1]}"
            )
        _, table = output_table(self.spec.distributions, matrices, self.caps, self.top)
        q = table.take(self.gather, axis=1)
        np.copyto(q, 0.0, where=self.outside)
        prob = np.empty(q.shape[:2])
        for size, rows in self.groups:
            prob[:, rows] = q[:, rows, :size].sum(axis=-1)
        return q, prob

    def best(self, matrices, objective: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per matrix: the best objective value over the patterns (0 for one
        that cannot occur), the first pattern reaching it, and how many
        patterns breach the ratio bound.  The rare matrices with a possible
        pattern that may be dust (below DUST times its ceiling) are read
        again from |U|: their dust patterns (merit.is_dust) count as
        probability 0, so value 0 and no breach."""
        q, prob = self.weights(matrices)
        possible = prob > 0.0
        odd = np.flatnonzero((is_dust(q[..., 0], self.ceiling) & possible).any(axis=1))
        if odd.size:
            paths, _ = self.weights(np.abs(matrices[odd]))
            prob[odd] = np.where(is_dust(q[odd, :, 0], paths[..., 0]), 0.0, prob[odd])
            possible = prob > 0.0
        if self.allowed is None:
            breach = np.zeros_like(possible)
        else:
            breach = ratio_breaches(q[..., 0], q[..., 1], self.allowed) & possible
        with np.errstate(divide="ignore", invalid="ignore"):
            normalized = q[..., :3] / prob[..., None]
            q0, q1, q2 = normalized[..., 0], normalized[..., 1], normalized[..., 2]
            if objective == "single_photon":
                value = q1
            elif objective == "ratio":
                value = np.where(q0 <= 0.0, np.where(q1 > 0, math.inf, 0.0), q1 / q0)
            else:
                value = np.where(q2 <= 1e-9, q1, 0.0)
        values = np.where(possible, value, 0.0)
        first = np.argmax(values, axis=1)
        return values[np.arange(len(first)), first], first, np.count_nonzero(breach, axis=1)


def evaluate_candidate(
    interf: Interferometer,
    spec: InputSpec,
    objective: str,
    patterns: Sequence[DetectionPattern],
) -> tuple[float, tuple[int, ...], int]:
    """Best objective value over the given patterns, plus bound violations:
    the one-matrix call of PatternScorer."""
    scorer = PatternScorer(spec, patterns)
    best, first, violations = scorer.best(interf.matrix[None], objective)
    return float(best[0]), scorer.patterns[first[0]].counts, int(violations[0])


def reevaluate(report: SearchReport) -> float:
    """Recompute the reported best value from the stored record."""
    if report.best_interferometer is None:
        raise BadParameters("report carries no interferometer to re-evaluate")
    spec = InputSpec.two_level([report.p_max] * report.n_modes)
    pattern = DetectionPattern(report.best_pattern)
    return evaluate_candidate(report.best_interferometer, spec, report.objective, [pattern])[0]


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
    m = np.empty(theta.shape + identity.shape, dtype=complex)  # (B, P) couplers
    m[...] = identity
    entries = np.stack([ph * ct, -st, st, ph.conj() * ct], axis=-1)  # coupler_matrix's
    m[:, slots, rows, cols] = entries
    total = identity
    for k in range(count):
        total = m[:, k] @ total
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


def _nelder_mead(x0, maxiter: int, xatol: float, fatol: float):
    """Minimize by ask and tell: yields (k, n) arrays of points, is sent their
    k values and returns the point scipy.optimize.minimize would from x0.

    A port of scipy's `_minimize_neldermead` on the search's path (no bounds,
    standard coefficients, an iteration cap, no evaluation cap).  It asks for
    the same points in the same order (the initial simplex and a shrink as
    one batch each), as copies, with the same arithmetic and sorts.
    """
    x0 = np.asarray(x0, dtype=float)
    n = len(x0)
    sim = np.tile(x0, (n + 1, 1))
    for k in range(n):
        sim[k + 1, k] = (1 + 0.05) * x0[k] if x0[k] != 0 else 0.00025
    fsim = np.array((yield np.copy(sim)), dtype=float)
    for _ in range(2):  # scipy sorts twice before the first step
        ind = np.argsort(fsim)
        sim, fsim = np.take(sim, ind, 0), np.take(fsim, ind, 0)

    iterations = 1
    while iterations < maxiter:
        with np.errstate(invalid="ignore"):  # -inf - -inf: NaN, not converged
            spread = np.max(np.abs(fsim[0] - fsim[1:]))
        if np.max(np.abs(sim[1:] - sim[0])) <= xatol and spread <= fatol:
            break
        xbar = np.add.reduce(sim[:-1], 0) / n
        xr = 2 * xbar - 1 * sim[-1]
        fxr = (yield np.copy(xr)[None])[0]
        if fxr < fsim[0]:
            xe = 3 * xbar - 2 * sim[-1]
            fxe = (yield np.copy(xe)[None])[0]
            sim[-1], fsim[-1] = (xe, fxe) if fxe < fxr else (xr, fxr)
        elif fxr < fsim[-2]:
            sim[-1], fsim[-1] = xr, fxr
        else:
            if fxr < fsim[-1]:  # outside contraction
                xc = 1.5 * xbar - 0.5 * sim[-1]
                fxc = (yield np.copy(xc)[None])[0]
                keep = fxc <= fxr
            else:  # inside contraction
                xc = 0.5 * xbar + 0.5 * sim[-1]
                fxc = (yield np.copy(xc)[None])[0]
                keep = fxc < fsim[-1]
            if keep:
                sim[-1], fsim[-1] = xc, fxc
            else:  # shrink toward the best vertex
                sim[1:] = sim[0] + 0.5 * (sim[1:] - sim[0])
                fsim[1:] = yield np.copy(sim[1:])
        iterations += 1
        ind = np.argsort(fsim)
        sim, fsim = np.take(sim, ind, 0), np.take(fsim, ind, 0)
    return sim[0]


def _compass(x0, budget: int):
    """Minimize by ask and tell like _nelder_mead, asking for x0, then one probe at a
    time: +step, then -step, on each angle in turn.  A strictly lower probe is kept
    and the sweep moves to the next angle; a sweep that keeps nothing halves the
    step.  Ends when the budget of probes is spent or the step falls to 1e-4."""
    x = np.asarray(x0, dtype=float)
    current = (yield x[None])[0]
    step = 0.4
    while budget > 0 and step > 1e-4:
        improved = False
        for i in range(len(x)):
            for delta in (step, -step):
                y = x.copy()
                y[i] += delta
                value = (yield y[None])[0]
                budget -= 1
                if value < current:
                    current, x, improved = value, y, True
                    break
            if budget <= 0:
                break
        if not improved:
            step *= 0.5
    return x


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

    def __init__(self, task: SearchTask, patterns: Sequence[DetectionPattern]):
        self.task = task
        self.spec = InputSpec.two_level([task.p_max] * task.n_modes)
        self.scorer = PatternScorer(self.spec, patterns)
        self.patterns, self.size = self.scorer.patterns, self.scorer.stack()
        self.evals = self.violations = 0
        self.best_value = -math.inf
        self.best_pattern: tuple[int, ...] = ()
        self.best_interf: Interferometer | None = None

    def count(self, evals: int, violations: int) -> None:
        self.evals += evals
        self.violations += int(violations)

    def offer(self, values, candidate) -> None:
        """Keep the first best of values if it beats the best so far;
        candidate(k) gives the k-th (pattern, interferometer) and is only
        called for the one kept."""
        k = int(np.argmax(values))
        if values[k] > self.best_value:
            self.best_value = float(values[k])
            self.best_pattern, self.best_interf = candidate(k)

    def score_matrices(self, matrices, build=None) -> np.ndarray:
        """Best value per matrix over every pattern, scored in stacks as large
        as the engine takes and counted; offered stack by stack too when
        build(k) gives the k-th matrix's interferometer."""
        values, size = np.empty(len(matrices)), self.size
        for lo in range(0, len(matrices), size):
            best, first, bad = self.scorer.best(matrices[lo : lo + size], self.task.objective)
            self.count(len(best), bad.sum())
            if build is not None:
                self.offer(best, lambda k: (self.patterns[first[k]].counts, build(lo + k)))
            values[lo : lo + size] = best
        return values

    def score_haar(self, seeds: Sequence[int]) -> None:
        """Score seeded Haar-random trials, counted and offered."""
        n = self.task.n_modes
        for chunk, matrices in _haar_stacks(n, seeds, self.size):
            self.score_matrices(matrices, lambda k: haar_random(n, chunk[k]))

    def refine(self, runs, offered: bool = False) -> list[np.ndarray]:
        """Drive ask/tell minimizers (_nelder_mead, _compass) in lockstep rounds
        and return their end points.  Each round scores the angle points all
        live runs ask for, in run order, with score_matrices, and sends each
        run its values negated; offered only when `offered`."""
        n = self.task.n_modes
        asked = {k: next(run) for k, run in enumerate(runs)}
        ends = [None] * len(runs)
        while asked:
            points = np.concatenate([*asked.values()])
            build = (lambda k: unitary_from_angles(n, points[k])) if offered else None
            values = -self.score_matrices(unitary_from_angles(n, points), build)
            told = np.split(values, np.cumsum([len(x) for x in asked.values()])[:-1])
            for k, value in zip(list(asked), told):
                try:
                    asked[k] = runs[k].send(value)
                except StopIteration as stop:
                    ends[k] = stop.value
                    del asked[k]
        return ends

    def report(self, kind: str, benchmark: float, found: str) -> SearchReport:
        """The verdict is `found` when the best value clears the benchmark."""
        task = self.task
        beaten = self.best_value > benchmark + IMPROVEMENT_SLACK
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
    best value clears the input benchmark by more than 1e-9.
    """
    n = task.n_modes
    tally = _Tally(task, detector_patterns(n, n - 1))
    tally.score_haar(_trial_seeds(task.seed, task.trials))

    starts: list[np.ndarray] = []
    if task.include_chain_seed and n >= 3:
        starts.append(chain_seed_angles(n, task.chain_epsilon))
    rng = np.random.default_rng(np.random.SeedSequence((task.seed, 0x5EED)))
    starts.append(rng.uniform(0.0, math.pi, size=n * (n - 1)))
    if task.refine_iters > 0:
        runs = [_nelder_mead(x0, task.refine_iters, xatol=1e-10, fatol=1e-12) for x0 in starts]
        x = np.array(tally.refine(runs))  # the ends: one stack, offered in start order
        tally.score_matrices(unitary_from_angles(n, x), lambda k: unitary_from_angles(n, x[k]))

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
    compass searches (_compass) from three seeded angle starts, each with
    refine_iters probes, advance in lockstep rounds; every point they score
    is counted and offered.
    """
    if n_modes not in (2, 3):
        raise BadParameters(
            f"exhaustive verification is limited to 2 or 3 modes, got {n_modes}"
        )
    task = SearchTask(n_modes, p_max, "single_photon", trials, refine_iters, seed)
    n = n_modes
    tally = _Tally(task, detector_patterns(n, n))
    tally.score_haar(_trial_seeds(seed, trials))

    if refine_iters > 0:
        rng = np.random.default_rng(np.random.SeedSequence((seed, 0xC0FFEE)))
        starts = [rng.uniform(0.0, math.pi, size=n * (n - 1)) for _ in range(3)]
        tally.refine([_compass(x0, refine_iters) for x0 in starts], offered=True)

    return tally.report("nogo-small", p_max, "counterexample found")


def verify_nogo_patterns(
    n_modes: int, p_max: float, trials: int, seed: int
) -> SearchReport:
    """Check the one-mode-left and single-click no-go statements.

    Per trial: a Haar-random interferometer faces (a) a random two-level
    source, patterns detecting one photon fewer than the occupied modes,
    and (b) a uniform source with every single-click pattern and the
    empty pattern.  The output ratio (PatternScorer.best) must never beat
    the input ratio; the tally keeps the largest, and every (trial,
    pattern) counts as one evaluation.  Half (b) is scored for a stack of
    trials at once; the offers still go in trial order.
    """
    task = SearchTask(n_modes, p_max, "ratio", trials, refine_iters=0, seed=seed)
    n = n_modes
    patterns = [DetectionPattern(tuple(int(j == i) for j in range(n - 1))) for i in range(n)]
    tally = _Tally(task, patterns)  # every single click, then the empty pattern (i = n - 1)
    single_clicks = tally.scorer
    left_patterns = {
        k: [DetectionPattern(c) for c in compositions(k - 1, n - 1)] for k in range(2, n + 1)
    }

    def score(scorer, matrices):
        best, first, bad = scorer.best(matrices, "ratio")
        tally.count(best.size * len(scorer.patterns), bad.sum())
        return best, first

    rng = np.random.default_rng(np.random.SeedSequence((seed, 0xA11CE)))
    for chunk, matrices in _haar_stacks(n, _trial_seeds(seed, trials), tally.size):
        clicks = score(single_clicks, matrices)
        for t, trial_seed in enumerate(chunk):
            occupied = int(rng.integers(2, n + 1))
            modes = rng.permutation(n)[:occupied]
            ps = np.zeros(n)
            ps[modes] = rng.uniform(0.1 * p_max, p_max, size=occupied)
            ps[modes[0]] = p_max
            one_left = PatternScorer(InputSpec.two_level(ps.tolist()), left_patterns[occupied])
            # offers keep trial order: one_left first, then the single clicks
            for scorer, (best, first), k in (
                (one_left, score(one_left, matrices[t : t + 1]), 0),
                (single_clicks, clicks, t),
            ):
                tally.offer(
                    best[k : k + 1],
                    lambda _: (scorer.patterns[first[k]].counts, haar_random(n, trial_seed)),
                )

    return tally.report("nogo-patterns", p_max / (1.0 - p_max), "counterexample found")
