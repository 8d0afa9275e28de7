"""Acceptance gate.

Each test covers one numbered acceptance criterion end to end and prints
a single PASS/FAIL line; tolerances and budgets are stated inline.
"""

import math
import sys
import time

import numpy as np
from scipy import optimize

import photonpost.cli as cli
import photonpost.conditioner
import photonpost.detectors
import photonpost.engine
import photonpost.schemes
from oracles import (
    chain_scenario_reference,
    condition_mixed_bs_closed_form,
    conditional_coefficients,
    improvement_predicate,
)
from photonpost import (
    DegenerateTheta,
    DetectionPattern,
    InputSpec,
    SearchTask,
    beam_splitter,
    build_chain,
    chain_asymptotics,
    condition_mixed,
    detection_coefficients,
    figures_of_merit,
    haar_random,
    pure_success_probability,
    pure_three_mode_pipeline,
    purify_super_poissonian,
    reevaluate,
    search_improvement,
    verify_nogo_small,
)

ACCEPTANCE_SEED = 20240816


def _report(label: str, body) -> None:
    try:
        body()
    except BaseException:
        print(f"ACCEPTANCE {label}: FAIL")
        raise
    print(f"ACCEPTANCE {label}: PASS")


# criterion 1 ------------------------------------------------------------------


def _landscape(theta: float, phi: float) -> float:
    try:
        return pure_success_probability(theta % math.pi, phi, 1.0)
    except DegenerateTheta:
        return 0.0


def test_criterion_1_pure_scheme_exactness():
    def body():
        start = time.perf_counter()

        rng = np.random.default_rng(ACCEPTANCE_SEED)
        for _ in range(20):
            theta = float(rng.uniform(0.1, math.pi / 2 - 0.1))
            phi = float(rng.uniform(0.0, 2 * math.pi))
            beta = float(rng.uniform(0.3, 1.0)) * np.exp(
                1j * rng.uniform(0, 2 * math.pi)
            )
            state, prob = pure_three_mode_pipeline(theta, phi, beta)
            assert state is not None
            fidelity = abs(state[1]) ** 2
            assert fidelity >= 1.0 - 1e-10
            closed = pure_success_probability(theta, phi, abs(beta))
            assert abs(prob - closed) <= 1e-10

        assert abs(pure_success_probability(math.pi / 4, math.pi, 1.0) - 16 / 81) <= 1e-12

        # grid search over theta in (0, pi), phi in [0, pi]; the landscape is
        # even in phi, so this fundamental domain holds each maximum once
        thetas = np.linspace(0.02, math.pi - 0.02, 61)
        phis = np.linspace(0.0, math.pi, 61)
        grid = np.array([[_landscape(t, f) for f in phis] for t in thetas])
        padded = np.full((grid.shape[0] + 2, grid.shape[1] + 2), -np.inf)
        padded[1:-1, 1:-1] = grid
        seeds = [
            (thetas[i], phis[j])
            for i in range(grid.shape[0])
            for j in range(grid.shape[1])
            if grid[i, j] > 0 and grid[i, j] >= padded[i : i + 3, j : j + 3].max()
        ]

        clusters: list[tuple[float, float, float]] = []
        for t0, f0 in seeds:
            res = optimize.minimize(
                lambda x: -_landscape(x[0], x[1]),
                [t0, f0],
                method="Nelder-Mead",
                options={"xatol": 1e-12, "fatol": 1e-15, "maxiter": 600},
            )
            theta = res.x[0] % math.pi
            phi = math.fmod(abs(res.x[1]), 2 * math.pi)
            phi = min(phi, 2 * math.pi - phi)
            value = -res.fun
            if not any(
                abs(c[0] - theta) < 1e-2 and abs(c[1] - phi) < 1e-2 for c in clusters
            ):
                clusters.append((theta, phi, value))

        expected = [
            (math.pi / 4, math.acos(13 / 14)),
            (math.pi / 4, math.pi),
            (3 * math.pi / 4, 0.0),
            (3 * math.pi / 4, math.acos(-13 / 14)),
        ]
        assert len(clusters) == 4
        for et, ef in expected:
            match = [
                c for c in clusters if abs(c[0] - et) <= 1e-3 and abs(c[1] - ef) <= 1e-3
            ]
            assert len(match) == 1, f"missing maximum near ({et}, {ef})"
        heights = [c[2] for c in clusters]
        assert max(heights) - min(heights) <= 1e-9
        assert abs(max(heights) - 16 / 81) <= 1e-9

        assert time.perf_counter() - start < 5.0

    _report("1", body)


# criterion 2 ------------------------------------------------------------------


def test_criterion_2_small_network_no_go():
    def body():
        start = time.perf_counter()
        two = verify_nogo_small(2, 0.3, trials=10_000, seed=ACCEPTANCE_SEED, refine_iters=30)
        assert two.verdict == "none found"
        assert two.best_value <= 0.3 + 1e-9
        assert two.bound_violations == 0
        assert two.trials_run >= 10_000

        three = verify_nogo_small(3, 0.2, trials=10_000, seed=ACCEPTANCE_SEED, refine_iters=30)
        assert three.verdict == "none found"
        assert three.best_value <= 0.2 + 1e-9
        assert three.bound_violations == 0
        assert three.trials_run >= 10_000

        assert time.perf_counter() - start < 120.0

    _report("2", body)


# criterion 3 ------------------------------------------------------------------


def test_criterion_3_ratio_bound():
    def body():
        # every conditional computation and every joint output table in
        # this suite flows through the session-wide checked wrappers
        # installed by conftest: no loaded photonpost module binds an
        # unwrapped condition_mixed ...
        for key, mod in list(sys.modules.items()):
            if key == "photonpost" or key.startswith("photonpost."):
                if hasattr(mod, "condition_mixed"):
                    assert mod.condition_mixed.__name__ == "_checked_condition_mixed", key
        # ... and the callers hold the wrappers; every table, output_table's
        # and that of the reader a Readout binds (the stacked tables the
        # searches score), comes from the one checked Reader.table
        for mod in (photonpost.conditioner, photonpost.schemes, cli, photonpost):
            assert mod.condition_mixed.__name__ == "_checked_condition_mixed"
        assert photonpost.engine.Reader.table.__name__ == "_checked_table"
        bound = photonpost.conditioner.Readout(InputSpec.two_level([0.3] * 3), [np.eye(3)[:2]])
        assert isinstance(bound.reader, photonpost.engine.Reader)

        # explicit spot checks at the pattern extremes
        rng = np.random.default_rng(ACCEPTANCE_SEED + 3)
        p = 0.3
        ratio_in = p / (1 - p)
        for _ in range(60):
            n = int(rng.integers(2, 5))
            spec = InputSpec.two_level([p] * n)
            u = haar_random(n, seed=int(rng.integers(0, 2**31)))

            empty = condition_mixed(spec, u, DetectionPattern((0,) * (n - 1)))
            q = empty.unnormalized
            assert q[1] / q[0] <= ratio_in + 1e-9

            # all but one photon detected
            for lead in range(n - 1):
                counts = [0] * (n - 1)
                counts[lead] = n - 1
                res = condition_mixed(spec, u, DetectionPattern(tuple(counts)))
                q = res.unnormalized
                if res.zero_probability or q[0] <= 0.0:
                    continue
                assert q[1] / q[0] <= ratio_in + 1e-9

            # a middle pattern against the general bound
            detected = int(rng.integers(1, n))
            counts = [0] * (n - 1)
            counts[int(rng.integers(0, n - 1))] = detected
            res = condition_mixed(spec, u, DetectionPattern(tuple(counts)))
            q = res.unnormalized
            if not res.zero_probability and q[0] > 0.0 and q.size > 1:
                assert q[1] / q[0] <= ratio_in * (n - detected) + 1e-9

    _report("3", body)


# criterion 4 ------------------------------------------------------------------


def test_criterion_4_chain_asymptotics():
    def body():
        start = time.perf_counter()
        p = 0.01
        r_in = p / (1 - p)
        for n in (4, 5, 6, 8):
            d = -(-n // 2)
            chain = build_chain(n, 1e-3)
            spec = InputSpec.two_level([p] * n)
            res = condition_mixed(spec, chain.interferometer, chain.pattern_for(d))
            q = res.unnormalized
            gain = (q[1] / q[0]) / r_in
            gain_limit, g2_limit = chain_asymptotics(n, d)
            assert abs(gain - gain_limit) <= 0.01 * gain_limit
            g2 = q[2] * q[0] / q[1] ** 2
            assert abs(g2 - g2_limit) <= 0.01 * g2_limit

        # the conditioned output is never more sub-Poissonian than the
        # source; checked at a tap strength where every pattern keeps a
        # numerically healthy heralding probability
        for p_check in (0.01, 0.2):
            for n in range(4, 9):
                spec = InputSpec.two_level([p_check] * n)
                chain = build_chain(n, 0.1)
                for d in range(1, n):
                    res = condition_mixed(
                        spec, chain.interferometer, chain.pattern_for(d)
                    )
                    rep = figures_of_merit(res, spec)
                    assert rep.fano_out >= rep.fano_in - 1e-9

        assert time.perf_counter() - start < 60.0

    _report("4", body)


# criterion 5 ------------------------------------------------------------------


def test_criterion_5_oracle_equivalence():
    def body():
        rng = np.random.default_rng(ACCEPTANCE_SEED + 5)
        for _ in range(50):
            n = int(rng.integers(2, 5))
            caps = [1] * n
            budget = 4 - n
            for i in rng.permutation(n):
                if budget <= 0:
                    break
                if rng.random() < 0.6:
                    caps[i] += 1
                    budget -= 1
            dists = []
            for cap in caps:
                if cap == 1 and rng.random() < 0.5:
                    q1 = float(rng.uniform(0.05, 0.6))
                    dists.append({0: 1.0 - q1, 1: q1})
                else:
                    w = rng.uniform(0.1, 1.0, size=cap + 1)
                    w /= w.sum()
                    dists.append({k: float(w[k]) for k in range(cap + 1)})
            spec = InputSpec(tuple(dists))
            u = haar_random(n, seed=int(rng.integers(0, 2**31)))
            remaining = spec.max_total()
            counts = []
            for _ in range(n - 1):
                c = int(rng.integers(0, min(remaining, 2) + 1))
                counts.append(c)
                remaining -= c
            pattern = tuple(counts)
            got = condition_mixed(spec, u, DetectionPattern(pattern))
            want = conditional_coefficients(u.matrix, dists, pattern)
            assert got.unnormalized.size == want.size
            assert np.allclose(got.unnormalized, want, atol=1e-9)

        # two-mode closed form against the permanent-based general path
        for _ in range(15):
            dists = []
            for _ in range(2):
                cap = int(rng.integers(1, 3))
                w = rng.uniform(0.05, 1.0, size=cap + 1)
                w /= w.sum()
                dists.append({k: float(w[k]) for k in range(cap + 1)})
            spec = InputSpec(tuple(dists))
            element = beam_splitter(
                float(rng.uniform(0.2, 1.3)), float(rng.uniform(0.0, 2 * math.pi))
            )
            for detected in range(spec.max_total() + 1):
                a = condition_mixed(spec, element, DetectionPattern((detected,)))
                b = condition_mixed_bs_closed_form(
                    dists[0], dists[1], element, detected
                )
                assert np.allclose(a.unnormalized, b.unnormalized, atol=1e-10)

    _report("5", body)


# criterion 6 ------------------------------------------------------------------


def test_criterion_6_coefficient_reconstruction():
    def body():
        rng = np.random.default_rng(ACCEPTANCE_SEED + 6)
        for _ in range(20):
            n = int(rng.integers(2, 5))
            u = haar_random(n, seed=int(rng.integers(0, 2**31)))
            counts = tuple(int(c) for c in rng.integers(0, 2, size=n - 1))
            pattern = DetectionPattern(counts)
            coeffs = detection_coefficients(u, pattern)
            for p in (0.05, 0.15, 0.3, 0.45, 0.6):
                spec = InputSpec.two_level([p] * n)
                res = condition_mixed(spec, u, pattern)
                if res.zero_probability:
                    continue
                r = p / (1 - p)
                rebuilt = np.array(
                    [
                        coeffs[k] * r**k / math.factorial(k)
                        for k in range(coeffs.size)
                    ]
                )
                total = rebuilt.sum()
                assert total > 0
                assert np.allclose(rebuilt / total, res.normalized, atol=1e-9)

            truth = [
                improvement_predicate(coeffs, r) for r in np.geomspace(0.01, 20.0, 60)
            ]
            assert truth == sorted(truth, reverse=True)

    _report("6", body)


# criterion 7 ------------------------------------------------------------------


def test_criterion_7_imperfect_detector_sweeps():
    def body():
        start = time.perf_counter()
        grid = np.geomspace(0.01, 0.42, 20)
        ideal = [chain_scenario_reference(e, "ideal") for e in grid]
        bucket = [chain_scenario_reference(e, "bucket") for e in grid]
        eff = [chain_scenario_reference(e, "efficiency") for e in grid]
        dark = [chain_scenario_reference(e, "dark") for e in grid]
        tp_small = [chain_scenario_reference(e, "two-photon", 0.001) for e in grid]
        tp_large = [chain_scenario_reference(e, "two-photon", 0.004) for e in grid]

        # the ideal curve crosses c1 = 0.2 at heralding probability 0.007 +- 0.002
        c1s = np.array([c for _, c in ideal])
        pps = np.array([pp for pp, _ in ideal])
        sign_flips = np.where(np.diff(np.sign(c1s - 0.2)))[0]
        assert sign_flips.size == 1
        i = int(sign_flips[0])
        t = (0.2 - c1s[i]) / (c1s[i + 1] - c1s[i])
        crossing = pps[i] + t * (pps[i + 1] - pps[i])
        assert abs(crossing - 0.007) <= 0.002

        # bucket detection barely moves the curve while it still improves
        for (_, ci), (_, cb) in zip(ideal, bucket):
            if ci >= 0.2:
                assert abs(ci - cb) < 1e-3
            assert abs(ci - cb) < 2e-3

        # 90% vacuum-detector efficiency costs about 0.003 in c1 at matched tap
        for (_, ci), (_, ce) in zip(ideal, eff):
            assert 0.003 - 0.002 <= ci - ce <= 0.003 + 0.002

        # dark counts and two-photon contamination at the 0.1% level bend the
        # curve but improvement survives
        for curve in (dark, tp_small):
            vals = np.array([c for _, c in curve])
            assert vals.max() > 0.2
            peak = int(vals.argmax())
            assert 0 < peak < vals.size - 1
            assert np.any(np.diff(vals) > 0) and np.any(np.diff(vals) < 0)

        # at 0.4% two-photon contamination no tap strength improves on 0.2
        assert max(c for _, c in tp_large) < 0.2

        assert time.perf_counter() - start < 300.0

    _report("7", body)


# criterion 8 ------------------------------------------------------------------


def test_criterion_8_purification():
    def body():
        rng = np.random.default_rng(ACCEPTANCE_SEED + 8)
        for _ in range(10):
            top = int(rng.integers(2, 6))
            weights = {top: float(rng.uniform(0.05, 0.5))}
            for k in range(top - 1):
                if rng.random() < 0.7:
                    weights[k] = float(rng.uniform(0.05, 1.0))
            if not any(k < top - 1 for k in weights if k != top):
                weights[0] = 1.0
            total = sum(weights.values())
            q = {k: v / total for k, v in weights.items()}
            element = beam_splitter(
                float(rng.uniform(0.3, 1.2)), float(rng.uniform(0.0, 2 * math.pi))
            )
            res = purify_super_poissonian(q, element)
            assert not res.zero_probability
            assert abs(res.normalized[1] - 1.0) <= 1e-12

    _report("8", body)


# criterion 9 ------------------------------------------------------------------


def test_criterion_9_byte_identical_reruns(tmp_path):
    def body():
        import json

        jobs = [
            (
                "pure-landscape",
                {
                    "command": "pure-landscape",
                    "version": 1,
                    "theta_grid": {"start": 0.05, "stop": 1.5, "count": 9},
                    "phi_grid": {"start": 0.0, "stop": 3.1, "count": 7},
                    "beta_mag": 0.9,
                },
            ),
            (
                "chain-sweep",
                {
                    "command": "chain-sweep",
                    "version": 1,
                    "modes": 4,
                    "p": 0.2,
                    "epsilon_grid": {"start": 0.01, "stop": 0.4, "count": 6, "spacing": "log"},
                },
            ),
            (
                "exp-sweep",
                {
                    "command": "exp-sweep",
                    "version": 1,
                    "modes": 4,
                    "p": 0.2,
                    "scenario": "+darkcounts",
                    "epsilon_grid": {"values": [0.05, 0.15, 0.3]},
                },
            ),
            (
                "search",
                {
                    "command": "search",
                    "version": 1,
                    "modes": 3,
                    "p_max": 0.25,
                    "trials": 6,
                    "refine_iters": 5,
                    "seed": ACCEPTANCE_SEED,
                },
            ),
        ]
        for name, payload in jobs:
            cfg = tmp_path / f"{name}.json"
            cfg.write_text(json.dumps(payload))
            outs = []
            for run_id in ("a", "b"):
                out = tmp_path / f"{name}.{run_id}"
                code = cli.main(
                    [name, "--config", str(cfg), "--out", str(out), "--threads", "2"]
                )
                assert code == 0
                outs.append(out.read_bytes())
            assert outs[0] == outs[1], f"{name} output changed between reruns"

    _report("9", body)


# high-efficiency search (open problem) ------------------------------------------


def test_open_problem_search_completes_at_high_p():
    def body():
        task = SearchTask(
            n_modes=4,
            p_max=0.6,
            objective="single_photon",
            trials=10_000,
            refine_iters=200,
            seed=ACCEPTANCE_SEED,
        )
        report = search_improvement(task)
        assert report.trials_run >= 10_000
        assert report.bound_violations == 0
        assert report.verdict in ("none found", "improvement found")
        if report.verdict == "improvement found":
            # a genuine counterexample must reproduce from the stored record
            assert reevaluate(report) > 0.6 + 1e-9
        else:
            assert report.best_value <= 0.6 + 1e-9
        # the stored record reproduces the reported value either way
        assert abs(reevaluate(report) - report.best_value) <= 1e-10

    _report("open-problem", body)
