import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import (
    check_bound,
    objective_value,
    scorer_results,
    search_improvement_sequential,
    verify_nogo_patterns_sequential,
    verify_nogo_small_sequential,
)

import photonpost.engine
import photonpost.search
from photonpost import (
    BadParameters,
    DetectionPattern,
    InputSpec,
    Interferometer,
    NotUnitary,
    SearchReport,
    SearchTask,
    build_chain,
    condition_mixed,
    detector_patterns,
    evaluate_candidate,
    reevaluate,
    search_improvement,
    unitary_from_angles,
    verify_nogo_patterns,
    verify_nogo_small,
)
from photonpost import beam_splitter, compose, embed_two_mode, haar_random
from photonpost.cli import main
from photonpost.engine import max_stack
from photonpost.search import (
    OBJECTIVES,
    PatternScorer,
    chain_seed_angles,
    pair_order,
)


def test_pair_order_starts_with_chain_layout():
    assert pair_order(4) == [(2, 3), (1, 2), (0, 1), (0, 2), (0, 3), (1, 3)]
    assert pair_order(3) == [(1, 2), (0, 1), (0, 2)]


def test_detector_patterns_enumeration():
    pats = detector_patterns(4, 3)
    counts = [p.counts for p in pats]
    assert len(counts) == 20
    assert (0, 0, 0) in counts
    assert (3, 0, 0) in counts
    assert (1, 1, 1) in counts
    assert all(sum(c) <= 3 for c in counts)


def test_unitary_from_angles_is_unitary():
    rng = np.random.default_rng(81)
    for n in (2, 3, 4):
        angles = rng.uniform(0, math.pi, size=n * (n - 1))
        u = unitary_from_angles(n, angles).matrix
        assert np.allclose(u @ u.conj().T, np.eye(n), atol=1e-12)


def test_unitary_from_angles_matches_composed_couplers_exactly():
    rng = np.random.default_rng(82)
    for n in (2, 3, 4, 5):
        angles = rng.uniform(0, math.pi, size=n * (n - 1))
        elements = [
            embed_two_mode(beam_splitter(angles[2 * k], angles[2 * k + 1]), pair, n)
            for k, pair in enumerate(pair_order(n))
        ]
        want = compose(*elements)
        got = unitary_from_angles(n, angles)
        assert np.array_equal(got.matrix, want.matrix)
        assert got.provenance == want.provenance


angles = st.one_of(
    st.sampled_from([0.0, -0.0, math.pi / 2, math.pi, 2 * math.pi, -2 * math.pi]),
    st.floats(-2 * math.pi, 2 * math.pi),
    st.floats(-1e4, 1e4),
)


@st.composite
def angle_stacks(draw):
    n = draw(st.integers(2, 6))
    rows = draw(st.integers(1, 6))
    width = n * (n - 1)
    return n, np.array(draw(st.lists(st.lists(angles, min_size=width, max_size=width),
                                     min_size=rows, max_size=rows)))


@settings(max_examples=150, deadline=None)
@given(angle_stacks())
def test_stacked_unitaries_equal_one_vector_calls_bit_for_bit(case):
    """Each row of a stack is the one-vector call, and that is the product
    of beam_splitter couplers (math.cos and math.sin) that compose builds."""
    n, stack = case
    matrices = unitary_from_angles(n, stack)
    assert matrices.shape == (len(stack), n, n)
    for row, matrix in zip(stack, matrices):
        one = unitary_from_angles(n, row).matrix
        elements = [
            embed_two_mode(beam_splitter(row[2 * k], row[2 * k + 1]), pair, n)
            for k, pair in enumerate(pair_order(n))
        ]
        assert matrix.tobytes() == one.tobytes() == compose(*elements).matrix.tobytes()


def test_stacked_unitaries_reject_a_nan_row():
    stack = np.random.default_rng(83).uniform(0, math.pi, size=(4, 12))
    unitary_from_angles(4, stack)
    stack[2, 5] = math.nan
    with pytest.raises(NotUnitary):
        unitary_from_angles(4, stack)


def test_unitary_from_angles_length_check():
    with pytest.raises(BadParameters):
        unitary_from_angles(3, [0.1, 0.2, 0.3])


def test_chain_seed_reproduces_chain_statistics():
    for n in (3, 4, 5):
        eps = 0.1
        seeded = unitary_from_angles(n, chain_seed_angles(n, eps))
        chain = build_chain(n, eps)
        spec = InputSpec.two_level([0.2] * n)
        pattern = chain.pattern_for(max(1, n // 2))
        a = condition_mixed(spec, seeded, pattern)
        b = condition_mixed(spec, chain.interferometer, pattern)
        assert np.allclose(a.unnormalized, b.unnormalized, atol=1e-12)


def test_task_validation():
    with pytest.raises(BadParameters):
        SearchTask(n_modes=1, p_max=0.2)
    with pytest.raises(BadParameters):
        SearchTask(n_modes=4, p_max=0.0)
    with pytest.raises(BadParameters):
        SearchTask(n_modes=4, p_max=0.2, objective="coherence")
    with pytest.raises(BadParameters):
        SearchTask(n_modes=4, p_max=0.2, seed=-1)
    for epsilon in (math.nan, 0.0, 1.0, 2.0, -0.1):
        with pytest.raises(BadParameters):
            SearchTask(n_modes=4, p_max=0.2, chain_epsilon=epsilon)
        with pytest.raises(BadParameters):
            SearchTask(n_modes=2, p_max=0.2, include_chain_seed=False, chain_epsilon=epsilon)
    with pytest.raises(BadParameters):
        verify_nogo_small(2, 0.3, 2, -1)
    with pytest.raises(BadParameters):
        verify_nogo_patterns(3, 0.3, 2, -1)


def _search_cli(**fields):
    return ("search", {"modes": 3, "p_max": 0.2, "trials": 4, "refine_iters": 5, **fields})


def _nogo_cli(**fields):
    fields = {"variant": "small", "modes": 2, "p_max": 0.3, "trials": 4, **fields}
    return ("nogo-verify", fields)


@pytest.mark.parametrize(
    "case",
    [
        lambda: SearchTask(n_modes=4, p_max=0.2, trials=0, refine_iters=0),
        lambda: SearchTask(n_modes=4, p_max=0.2, trials=-1),
        lambda: SearchTask(n_modes=4, p_max=0.2, refine_iters=-1),
        lambda: verify_nogo_patterns(3, 1.0, 2, 0),
        lambda: verify_nogo_patterns(3, 0.3, 0, 0),
        lambda: verify_nogo_small(2, 0.3, 0, 0, 0),
        lambda: verify_nogo_small(2, 0.3, 5, 0, -1),
        _search_cli(trials=0, refine_iters=0),
        _search_cli(trials=-1),
        _search_cli(refine_iters=-1),
        _nogo_cli(refine_iters=-1),
        _nogo_cli(variant="patterns", modes=3, refine_iters=-1),
        _nogo_cli(trials=0, refine_iters=0),
        _nogo_cli(variant="patterns", modes=3, trials=0),
    ],
    ids=[
        "task-empty", "task-negative-trials", "task-negative-refine",
        "patterns-p-one", "patterns-no-trials", "small-empty", "small-negative-refine",
        "cli-search-empty", "cli-search-negative-trials", "cli-search-negative-refine",
        "cli-nogo-negative-refine", "cli-nogo-patterns-negative-refine",
        "cli-nogo-small-empty", "cli-nogo-patterns-no-trials",
    ],
)
def test_empty_or_negative_budgets_are_rejected(case, tmp_path):
    if callable(case):
        with pytest.raises(BadParameters):
            case()
        return
    command, fields = case
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"command": command, "version": 1, **fields}))
    out = tmp_path / "out.json"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
    assert not out.exists()


def test_nogo_verify_small_accepts_refinement_without_trials(tmp_path):
    # the CLI takes the budgets the library takes: three compass starts
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(
        {"command": "nogo-verify", "version": 1, **_nogo_cli(trials=0, refine_iters=5, seed=1)[1]}
    ))
    out = tmp_path / "out.json"
    assert main(["nogo-verify", "--config", str(cfg), "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["trials_run"] == 19
    assert report == verify_nogo_small(2, 0.3, 0, 1, 5).to_json_dict()


@st.composite
def scoring_cases(draw):
    """A 2-4 mode source, interferometer, patterns and objective to score.

    Two-level sources may leave modes dark; other sources may lack vacuum,
    which with a permutation network gives q0 = 0 < q1 (the ratio
    objective's inf).  Permutations and dark modes give zero-probability
    patterns, and some patterns detect more photons than the source has.
    """
    n = draw(st.integers(2, 4))
    if draw(st.booleans()):
        ps = draw(st.lists(st.sampled_from([0.0, 0.1, 0.3, 0.6, 0.9]), min_size=n, max_size=n))
        spec = InputSpec.two_level(ps)
    else:
        dists = []
        for _ in range(n):
            w = draw(st.lists(st.sampled_from([0.0, 0.2, 1.0]), min_size=3, max_size=3))
            if sum(w) == 0:
                w[0] = 1.0
            dists.append({k: x / sum(w) for k, x in enumerate(w) if x > 0})
        spec = InputSpec(tuple(dists))
    if draw(st.booleans()):
        interf = haar_random(n, draw(st.integers(0, 2**31 - 1)))
    else:
        order = draw(st.permutations(range(n)))
        interf = Interferometer(np.eye(n)[list(order)])
    limit = spec.max_total() + 1
    pool = detector_patterns(n, limit)
    patterns = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=len(pool)))
    return spec, interf, patterns, draw(st.sampled_from(OBJECTIVES))


_SURE_PHOTON_KEPT = (  # the kept mode never holds vacuum: ratio = inf
    InputSpec(({1: 0.5, 2: 0.5}, {0: 0.5, 1: 0.5})),
    Interferometer(np.eye(2)),
    detector_patterns(2, 4),
    "ratio",
)


@settings(max_examples=150, deadline=None)
@given(scoring_cases())
@example(_SURE_PHOTON_KEPT)
def test_array_scorer_equals_per_pattern_reference(case):
    spec, interf, patterns, objective = case
    best, best_pattern, violations = -math.inf, (), 0
    for pattern, result in zip(patterns, scorer_results(spec, interf, patterns)):
        violations += not check_bound(result, spec)
        value = objective_value(result, objective)
        if value > best:
            best, best_pattern = value, pattern.counts
    got, first, bad = PatternScorer(spec, patterns).best(interf.matrix[None], objective)
    assert got[0] == best  # bit for bit, inf included
    assert patterns[first[0]].counts == best_pattern
    assert bad[0] == violations
    assert evaluate_candidate(interf, spec, objective, patterns) == (best, best_pattern, violations)
    if case is _SURE_PHOTON_KEPT:
        assert best == math.inf


def _single_clicks(n):
    """verify_nogo_patterns' uniform-source patterns: one click or none."""
    return [DetectionPattern(tuple(int(j == i) for j in range(n - 1))) for i in range(n)]


@pytest.mark.parametrize(
    "run, n, patterns",
    [
        (
            lambda: search_improvement(SearchTask(4, 0.6, "single_photon", 30, 10, 5)),
            4, detector_patterns(4, 3),
        ),
        (lambda: verify_nogo_small(3, 0.2, 30, 6, 5), 3, detector_patterns(3, 3)),
        (lambda: verify_nogo_patterns(4, 0.3, 30, 2), 4, _single_clicks(4)),
    ],
    ids=["search-4", "nogo-small-3", "nogo-patterns-4"],
)
def test_haar_stacks_do_not_change_results(run, n, patterns, monkeypatch):
    """Seeded searches report the same whatever stack size the engine allows."""
    whole = run().to_json_dict()
    supports = InputSpec.two_level([0.5] * n).distributions
    caps = PatternScorer(InputSpec.two_level([0.5] * n), patterns).caps
    cells = photonpost.engine.MAX_CELLS // max_stack(supports, caps, n)
    monkeypatch.setattr(photonpost.engine, "MAX_CELLS", 7 * cells + 1)
    assert max_stack(supports, caps, n) == 7  # 30 trials: four stacks of 7, one of 2
    assert run().to_json_dict() == whole


@pytest.mark.parametrize(
    "task",
    [
        SearchTask(2, 0.3, "single_photon", 6, 40, 1),
        SearchTask(2, 0.4, "ratio", 0, 30, 2),
        SearchTask(3, 0.25, "ratio", 10, 40, 4),
        SearchTask(3, 0.25, "single_photon_no_pairs", 10, 40, 4, include_chain_seed=False),
        SearchTask(3, 0.6, "single_photon", 0, 60, 3),
        SearchTask(4, 0.2, "single_photon", 10, 40, 7),
        SearchTask(4, 0.2, "single_photon", 10, 40, 7, include_chain_seed=False),
        SearchTask(4, 0.3, "ratio", 0, 30, 8),
        SearchTask(4, 0.35, "single_photon_no_pairs", 5, 30, 9),
        SearchTask(5, 0.6, "ratio", 0, 10, 1),  # dust patterns near the chain start
        SearchTask(5, 0.2, "single_photon", 3, 12, 2, include_chain_seed=False),
    ],
    ids=lambda t: f"{t.n_modes}-{t.objective}-{t.trials}-{t.include_chain_seed}",
)
def test_lockstep_refinement_equals_the_sequential_loop(task):
    got = json.dumps(search_improvement(task).to_json_dict())
    assert got == json.dumps(search_improvement_sequential(task).to_json_dict())


def test_refinement_scores_its_starts_in_stacks(monkeypatch):
    """Every round of refinement is one scorer call, not one per point."""
    calls, asked = [], []
    best = PatternScorer.best
    nelder_mead = photonpost.search._nelder_mead

    def counted(self, matrices, objective):
        calls.append(len(matrices))
        return best(self, matrices, objective)

    def counting(*args, **kwargs):
        asked.append(0)
        run, values, k = nelder_mead(*args, **kwargs), None, len(asked) - 1
        while True:
            try:
                points = run.send(values)
            except StopIteration as stop:
                return stop.value
            asked[k] += len(points)
            values = yield points

    monkeypatch.setattr(PatternScorer, "best", counted)
    monkeypatch.setattr(photonpost.search, "_nelder_mead", counting)
    report = search_improvement(SearchTask(4, 0.6, "single_photon", 200, 200, 101))
    assert report.trials_run == 907
    assert len(asked) == 2 and 200 + sum(asked) + 2 == 907
    spec = InputSpec.two_level([0.6] * 4)
    size = max_stack(spec.distributions, PatternScorer(spec, detector_patterns(4, 3)).caps, 4)
    haar = math.ceil(200 / size)
    assert len(calls) <= max(asked) + haar + 2
    assert max(calls[haar:]) == 26  # the two initial simplices of 13 points


@pytest.mark.parametrize(
    "args",
    [
        (2, 0.3, 0, 3, 400),  # no trials; every start ends on the step floor
        (3, 0.2, 10, 2, 30),  # every start ends on the budget
        (2, 0.25, 5, 1, 80),
        (3, 0.35, 0, 4, 120),
        (3, 0.2, 20, 7, 5),
        (2, 0.45, 8, 11, 10),
    ],
    ids=lambda a: "-".join(map(str, a)),
)
def test_lockstep_compass_equals_the_sequential_loop(args):
    got = json.dumps(verify_nogo_small(*args).to_json_dict())
    assert got == json.dumps(verify_nogo_small_sequential(*args).to_json_dict())


def test_compass_refinement_scores_its_starts_in_stacks(monkeypatch):
    """The three compass starts share one scorer call per round."""
    calls = []
    best = PatternScorer.best

    def counted(self, matrices, objective):
        calls.append(len(matrices))
        return best(self, matrices, objective)

    monkeypatch.setattr(PatternScorer, "best", counted)
    verify_nogo_small(3, 0.2, 1000, 1, 80)
    assert len(calls) <= 83  # one call per probe, 245, before the stacks


def test_evaluate_candidate_reports_best_pattern():
    chain = build_chain(4, 0.1)
    spec = InputSpec.two_level([0.2] * 4)
    patterns = detector_patterns(4, 3)
    value, pattern, violations = evaluate_candidate(
        chain.interferometer, spec, "single_photon", patterns
    )
    assert violations == 0
    direct = condition_mixed(spec, chain.interferometer, DetectionPattern(pattern))
    assert np.isclose(value, direct.normalized[1], atol=1e-12)
    # no pattern may do better
    for p in patterns:
        single, _, _ = evaluate_candidate(chain.interferometer, spec, "single_photon", [p])
        assert single <= value + 1e-12


def test_search_finds_the_chain_improvement():
    task = SearchTask(n_modes=4, p_max=0.2, trials=20, refine_iters=40, seed=7)
    report = search_improvement(task)
    assert report.kind == "search"
    assert report.verdict == "improvement found"
    assert report.bound_violations == 0
    # the chain seed alone already reaches about 8/33
    assert report.best_value >= 0.95 * (8 / 33)
    assert report.best_value > 0.2


def test_search_respects_improvement_ceiling():
    # above the improvement threshold no network helps, and none is found
    task = SearchTask(n_modes=4, p_max=0.6, trials=15, refine_iters=30, seed=11)
    report = search_improvement(task)
    assert report.verdict == "none found"
    assert report.best_value <= 0.6 + 1e-9
    assert report.bound_violations == 0


def test_search_reads_cancellation_dust_as_impossible_patterns():
    """Near the 5- and 6-mode chain starts some patterns have probability
    1e-35 to 1e-43, all of it roundoff.  They used to score single-photon
    probabilities of 1 and 0.70 at p_max = 0.6, "improvement found" where
    none is known (test_cli has the ratio objective's infinite case)."""
    for n, trials, refine_iters in ((5, 5, 15), (6, 3, 8)):
        report = search_improvement(SearchTask(n, 0.6, "single_photon", trials, refine_iters, 1))
        assert report.verdict == "none found"
        assert report.best_value <= 0.6 + 1e-9
        assert report.bound_violations == 0


def test_search_is_deterministic():
    task = SearchTask(n_modes=3, p_max=0.25, trials=10, refine_iters=20, seed=4)
    a = search_improvement(task).to_json_dict()
    b = search_improvement(task).to_json_dict()
    assert a == b


def test_reevaluate_matches_report():
    task = SearchTask(n_modes=4, p_max=0.2, trials=10, refine_iters=25, seed=3)
    report = search_improvement(task)
    assert np.isclose(reevaluate(report), report.best_value, atol=1e-10)


def test_report_json_round_trip():
    task = SearchTask(n_modes=3, p_max=0.3, trials=8, refine_iters=10, seed=9)
    report = search_improvement(task)
    data = report.to_json_dict()
    back = SearchReport.from_json_dict(data)
    assert back.to_json_dict() == data
    assert np.isclose(reevaluate(back), report.best_value, atol=1e-12)


def test_no_pairs_objective_scores_zero_on_pairy_outputs():
    chain = build_chain(4, 0.3)
    spec = InputSpec.two_level([0.3] * 4)
    value, _, _ = evaluate_candidate(
        chain.interferometer, spec, "single_photon_no_pairs", [chain.pattern_for(2)]
    )
    assert value == 0.0
    # a lone beam splitter with everything detected leaves no room for pairs
    from photonpost import beam_splitter

    spec2 = InputSpec.two_level([0.3, 0.3])
    value2, _, _ = evaluate_candidate(
        beam_splitter(0.4), spec2, "single_photon_no_pairs", [DetectionPattern((1,))]
    )
    assert value2 > 0.0


def test_nogo_small_two_modes_finds_nothing():
    report = verify_nogo_small(2, 0.3, trials=40, seed=5, refine_iters=10)
    assert report.kind == "nogo-small"
    assert report.verdict == "none found"
    assert report.bound_violations == 0
    assert report.best_value <= 0.3 + 1e-9


def test_nogo_small_three_modes_finds_nothing():
    report = verify_nogo_small(3, 0.2, trials=25, seed=6, refine_iters=10)
    assert report.verdict == "none found"
    assert report.bound_violations == 0


def test_nogo_small_rejects_large_instances():
    with pytest.raises(BadParameters):
        verify_nogo_small(4, 0.2, trials=5, seed=0)


def test_nogo_patterns_finds_nothing():
    report = verify_nogo_patterns(4, 0.25, trials=25, seed=12)
    assert report.kind == "nogo-patterns"
    assert report.verdict == "none found"
    assert report.bound_violations == 0
    # the recorded best ratio can touch but not beat the input ratio
    ratio_in = 0.25 / 0.75
    assert report.best_value <= ratio_in + 1e-9


@pytest.mark.parametrize("n", [2, 3, 4, 5])
@pytest.mark.parametrize("p_max, seed", [(0.25, 1), (0.4, 5), (0.6, 12)])
def test_nogo_patterns_matches_the_per_pattern_reference(n, p_max, seed):
    """The stacked search against one condition_mixed call per pattern."""
    report = verify_nogo_patterns(n, p_max, 20, seed)
    ref = verify_nogo_patterns_sequential(n, p_max, 20, seed)
    assert (report.trials_run, report.bound_violations, report.verdict) == (
        ref["trials_run"], ref["bound_violations"], ref["verdict"],
    )
    assert report.best_value == pytest.approx(ref["best_value"], rel=1e-12)


def test_nogo_patterns_deterministic():
    a = verify_nogo_patterns(3, 0.3, trials=10, seed=2).to_json_dict()
    b = verify_nogo_patterns(3, 0.3, trials=10, seed=2).to_json_dict()
    assert a == b


# Recorded before the three searches shared one tally; any change in the
# order of evaluations, the seeds or the best-candidate rule shows here.
@pytest.mark.parametrize(
    "run, trials_run, best_pattern, best_value, verdict",
    [
        (
            lambda: search_improvement(SearchTask(4, 0.2, "single_photon", 20, 40, 7)),
            176, (2, 0, 0), 0.24242394702821612, "improvement found",
        ),
        (
            lambda: search_improvement(SearchTask(3, 0.25, "ratio", 10, 20, 4)),
            152, (0, 0), 0.3333333333333335, "none found",
        ),
        (
            lambda: verify_nogo_small(3, 0.2, 25, 6, 10),
            59, (0, 0), 0.1999590525547066, "none found",
        ),
        (
            lambda: verify_nogo_patterns(4, 0.25, 25, 12),
            263, (0, 0, 0), 0.3333333333333336, "none found",
        ),
        (
            lambda: search_improvement(SearchTask(4, 0.3, "ratio", 25, 30, 8)),
            234, (2, 0, 0), 0.5714273809527305, "improvement found",
        ),
        (
            lambda: search_improvement(SearchTask(4, 0.2, "single_photon_no_pairs", 25, 30, 9)),
            165, (3, 0, 0), 0.19999971555548618, "none found",
        ),
        (  # the benchmark's search-4mode config at seed 101
            lambda: search_improvement(SearchTask(4, 0.6, "single_photon", 200, 200, 101)),
            907, (0, 3, 0), 0.5999999998844824, "none found",
        ),
    ],
    ids=[
        "search-4", "search-3-ratio", "nogo-small-3", "nogo-patterns-4",
        "search-4-ratio", "search-4-no-pairs", "search-4-benchmark",
    ],
)
def test_searches_reproduce_recorded_results(run, trials_run, best_pattern, best_value, verdict):
    report = run()
    assert report.trials_run == trials_run
    assert report.best_pattern == best_pattern
    assert report.verdict == verdict
    assert report.bound_violations == 0
    assert report.best_value == pytest.approx(best_value, abs=1e-12)
