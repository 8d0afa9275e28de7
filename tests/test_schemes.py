import itertools
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from oracles import (
    chain_merged,
    chain_scenario_reference,
    chain_two_mode,
    complete_rows_by_loop,
    merges_one_at_a_time,
)
from photonpost import (
    BUCKET,
    BadDistributionShape,
    BadParameters,
    DegenerateTheta,
    DetectionPattern,
    DetectorModel,
    DimensionTooLarge,
    InputSpec,
    Interferometer,
    ObservedPattern,
    beam_splitter,
    build_chain,
    build_chain_from_elements,
    chain_asymptotics,
    chain_element_angles,
    condition_mixed,
    observe,
    pure_stage2_params,
    pure_success_probability,
    pure_three_mode_pipeline,
    purify_super_poissonian,
    run_chain,
)
from photonpost import conditioner, engine, schemes
from photonpost.schemes import CHAIN_SCENARIOS


# chain construction ----------------------------------------------------------


def test_chain_rows_closed_form():
    eps = 0.1
    chain = build_chain(4, eps)
    u = chain.interferometer.matrix
    a = math.sqrt(1 - eps**2)
    row_kept = np.array([-eps, a / math.sqrt(3), a / math.sqrt(3), a / math.sqrt(3)])
    row_tap = np.array([a, eps / math.sqrt(3), eps / math.sqrt(3), eps / math.sqrt(3)])
    assert np.allclose(u[0], row_kept, atol=1e-12)
    assert np.allclose(u[1], row_tap, atol=1e-12)
    assert np.allclose(u @ u.conj().T, np.eye(4), atol=1e-12)


CLOSED_FORM_EPSILONS = (0.8, 0.3, 1e-2, 1e-4, 1e-6)


def _defining_rows(n, eps):
    """The chain's rows 1 and 2, the kept output and the tap, a (2, N) array."""
    a, root = math.sqrt(1.0 - eps * eps), math.sqrt(n - 1.0)
    rows = np.empty((2, n), dtype=complex)
    rows[0], rows[1] = a / root, eps / root
    rows[:, 0] = -eps, a
    return rows


def _loop_completed_chain(n, eps):
    """The defining rows completed by Gram-Schmidt over the canonical vectors."""
    return complete_rows_by_loop(_defining_rows(n, eps), n)


@pytest.mark.parametrize("n", range(3, 15))
def test_vacuum_rows_are_the_closed_form_completion(n):
    """Rows 1-2 are the defining rows bit for bit; rows 3..N do not depend
    on epsilon and are the Gram-Schmidt completion to roundoff."""
    vacuum_rows = None
    for eps in CLOSED_FORM_EPSILONS:
        u = build_chain(n, eps).interferometer.matrix
        assert np.abs(u.conj().T @ u - np.eye(n)).max() <= 1e-14, eps
        assert u[:2].tobytes() == _defining_rows(n, eps).tobytes(), eps
        vacuum_rows = u[2:].tobytes() if vacuum_rows is None else vacuum_rows
        assert u[2:].tobytes() == vacuum_rows, eps
        assert np.abs(u[2:] - _loop_completed_chain(n, eps)[2:]).max() <= 1e-15, eps
    # row 3 compares source 2 with the N - 2 sources after it, the last
    # row source N - 1 with source N
    assert np.allclose(u[2], np.array([0, n - 2] + [-1] * (n - 2)) / math.sqrt((n - 2) * (n - 1)))
    assert np.allclose(u[-1], np.array([0] * (n - 2) + [1, -1]) / math.sqrt(2))


def _exact_vacuum_read(spec, interf, scenario, detected):
    """The N-mode chain heralded with exact vacuum counts: condition_mixed
    on `detected` tap photons ("ideal"), or observe with a ">=2" tap."""
    n = interf.n_modes
    if scenario == "ideal":
        return condition_mixed(spec, interf, DetectionPattern((detected,) + (0,) * (n - 2)))
    cap = spec.max_total()
    models = [DetectorModel.bucket(cap)] + [DetectorModel.exact(cap)] * (n - 2)
    return observe(spec, interf, ObservedPattern((BUCKET,) + (0,) * (n - 2)), models)


@pytest.mark.parametrize("n", range(3, 10))
def test_exact_counts_never_read_the_vacuum_rows(n):
    """Detectors that read 0 exactly hold no photons, so the N-mode chain
    gives the oracle completion's weights bit for bit under "ideal" and
    "bucket": rows 3..N never enter, which is why run_chain reads these
    scenarios from source 1 and the uniform mode of the others alone."""
    spec = InputSpec.two_level([0.2] * n)
    for scenario, detected in (("ideal", 2), ("ideal", (n + 1) // 2), ("bucket", 2)):
        for eps in CLOSED_FORM_EPSILONS:
            got = _exact_vacuum_read(spec, build_chain(n, eps).interferometer, scenario, detected)
            looped = Interferometer(_loop_completed_chain(n, eps))
            want = _exact_vacuum_read(spec, looped, scenario, detected)
            assert got.unnormalized.tobytes() == want.unnormalized.tobytes(), (scenario, eps)
            reduced = run_chain(n, eps, 0.2, detected, scenario)
            assert reduced.unnormalized.shape == got.unnormalized.shape, (scenario, eps)
            assert reduced.pattern == got.pattern, (scenario, eps)


REDUCTION_EPSILONS = (0.8, 0.3, 0.1, 1e-2, 1e-4, 1e-6)


@pytest.mark.parametrize("n", range(3, 12))
def test_reduction_matches_the_n_mode_chain(n):
    """Every weight of the two-mode reduction matches the N-mode chain's
    within 2e-13 relative, for every D under "ideal" and under "bucket".
    The largest gap, 7.3e-14 at N = 11, D = 1, p = 0.1, eps = 0.3, is the
    N-mode read's own error: the reduction is closer to 50 digits."""
    for p in (0.1, 0.3, 0.6):
        spec = InputSpec.two_level([p] * n)
        chains = [build_chain(n, eps).interferometer for eps in REDUCTION_EPSILONS]
        for scenario, detected in [("ideal", d) for d in range(n + 1)] + [("bucket", 2)]:
            reduced = run_chain(n, list(REDUCTION_EPSILONS), p, detected, scenario)
            for eps, interf, got in zip(REDUCTION_EPSILONS, chains, reduced):
                want = _exact_vacuum_read(spec, interf, scenario, detected).unnormalized
                assert got.unnormalized.shape == want.shape, (p, scenario, detected, eps)
                err = np.abs(got.unnormalized - want)
                assert np.all(err <= 2e-13 * want), (p, scenario, detected, eps, err / want)


def _mp_two_mode_chain(n, eps, p, taps):
    """c~[n1] of the chain's two-mode reduction for tap counts in `taps`,
    in mpmath at its working precision: source 1 (j photons) and the
    uniform mode (k photons, weight C(n-1, k) p^k (1-p)^(n-1-k) k!/(n-1)^k)
    through [[-eps, a], [a, eps]], expanded by hand."""
    eps, p, m = mpmath.mpf(eps), mpmath.mpf(p), n - 1
    a, fac = mpmath.sqrt(1 - eps**2), mpmath.factorial
    out = [mpmath.mpf(0)] * (n - min(taps) + 1)
    for j, pj in ((0, 1 - p), (1, p)):
        for k in range(m + 1):
            w = pj * mpmath.binomial(m, k) * p**k * (1 - p) ** (m - k)
            w *= fac(k) / mpmath.mpf(m) ** k
            for tap in taps:
                n1 = j + k - tap
                if n1 < 0:
                    continue
                # i of source 1's j photons and l = n1 - i of the k reach the kept mode
                amp = sum(
                    mpmath.binomial(j, i) * (-eps) ** i * a ** (j - i)
                    * mpmath.binomial(k, n1 - i) * a ** (n1 - i) * eps ** (k - n1 + i)
                    for i in range(min(j, n1) + 1)
                    if n1 - i <= k
                )
                out[n1] += w * amp**2 * fac(n1) * fac(tap) / (fac(j) * fac(k))
    return out


@pytest.mark.parametrize(
    "n, eps, p, detected, scenario",
    [
        (11, 0.3, 0.1, 1, "ideal"),
        (11, 1e-6, 0.6, 6, "ideal"),
        (11, 1e-2, 0.2, 11, "ideal"),
        (11, 0.05, 0.3, 2, "bucket"),
        (48, 1e-2, 0.1, 24, "ideal"),
        (48, 0.3, 0.3, 30, "ideal"),
        (48, 1e-4, 0.2, 2, "bucket"),
    ],
)
def test_reduction_matches_50_digits(n, eps, p, detected, scenario):
    got = run_chain(n, eps, p, detected, scenario).unnormalized
    taps = [detected] if scenario == "ideal" else range(2, n + 1)
    with mpmath.workdps(50):
        want = _mp_two_mode_chain(n, eps, p, taps)
        assert got.size == len(want)
        for g, w in zip(got, want):
            assert abs(mpmath.mpf(float(g)) - w) <= 1e-14 * w


@pytest.mark.parametrize("n", [4, 5, 6])
@pytest.mark.parametrize("scenario", ["bucket+efficiency", "+darkcounts", "+two-photon-inputs"])
def test_lossy_vacuum_detectors_read_the_closed_form_to_roundoff(scenario, n):
    """The merges that give S's weights are the vacuum rows of the chain
    Gram-Schmidt completes: observe on that N-mode chain gives the same
    weights within 1e-13 relative."""
    spec = _lossy_spec(n, 0.2, scenario)
    vacuum, tap = CHAIN_SCENARIOS[scenario](spec.max_total())
    observed = ObservedPattern((BUCKET,) + (0,) * (n - 2))
    results = run_chain(n, list(CLOSED_FORM_EPSILONS), 0.2, 2, scenario)
    for eps, got in zip(CLOSED_FORM_EPSILONS, results):
        looped = Interferometer(_loop_completed_chain(n, eps))
        want = observe(spec, looped, observed, [tap] + [vacuum] * (n - 2)).unnormalized
        assert _within(got.unnormalized, want, 1e-13), eps


def test_chain_matches_element_product():
    for n in range(3, 7):
        direct = build_chain(n, 0.07).interferometer.matrix
        staged = build_chain_from_elements(n, 0.07).interferometer.matrix
        # defining rows agree; the completion of the remaining rows may
        # differ by basis choice, so compare conditional outputs instead
        spec = InputSpec.two_level([0.1] * n)
        pattern = DetectionPattern((n // 2,) + (0,) * (n - 2))
        a = condition_mixed(spec, build_chain(n, 0.07).interferometer, pattern)
        b = condition_mixed(
            spec, build_chain_from_elements(n, 0.07).interferometer, pattern
        )
        assert np.allclose(a.unnormalized, b.unnormalized, atol=1e-12)
        assert np.allclose(direct[0], staged[0], atol=1e-12) or np.allclose(
            np.abs(direct[0]), np.abs(staged[0]), atol=1e-12
        )


def test_chain_element_reflectivities():
    angles = chain_element_angles(5, 0.2)
    # the cascade splits off 1/2, then 1/3, then 1/4 of the light
    splitting = [math.cos(theta) ** 2 for (_, _, theta, _) in angles[:-1]]
    assert np.allclose(splitting, [1 / 2, 1 / 3, 1 / 4], atol=1e-12)
    i, j, theta, phi = angles[-1]
    assert (i, j) == (0, 1)
    assert np.isclose(math.cos(theta), 0.2)
    assert np.isclose(phi, math.pi)


def test_pattern_for_places_taps_on_second_mode():
    chain = build_chain(5, 0.1)
    assert chain.pattern_for(3).counts == (3, 0, 0, 0)


def test_chain_rejects_bad_shapes():
    with pytest.raises(BadParameters):
        build_chain(2, 0.1)
    with pytest.raises(BadParameters):
        build_chain(4, 0.0)
    with pytest.raises(BadParameters):
        build_chain(4, 1.5)


# asymptotic figures -----------------------------------------------------------


def test_asymptotics_peak_values():
    gain, two_photon = chain_asymptotics(4, 2)
    assert np.isclose(gain, 4 / 3)
    assert np.isclose(two_photon, 3 / 8)
    gain, _ = chain_asymptotics(9, 5)
    assert np.isclose(gain, 2.5)


def test_three_modes_never_amplify():
    for d in (1, 2):
        gain, _ = chain_asymptotics(3, d)
        assert gain <= 1.0 + 1e-12


def test_asymptotics_match_weak_tap_chain():
    p = 0.01
    r_in = p / (1 - p)
    for n, d in ((4, 2), (5, 2), (6, 3)):
        res = run_chain(n, 1e-3, p, d)
        q = res.unnormalized
        gain_limit, g2_limit = chain_asymptotics(n, d)
        gain = (q[1] / q[0]) / r_in
        assert np.isclose(gain, gain_limit, rtol=0.01)
        g2 = q[2] * q[0] / q[1] ** 2 if len(q) > 2 else 0.0
        assert np.isclose(g2, g2_limit, rtol=0.02)


# run_chain's scenario names -> chain_scenario_reference's
REFERENCE_SCENARIOS = {
    "ideal": "ideal",
    "bucket": "bucket",
    "bucket+efficiency": "efficiency",
    "+darkcounts": "dark",
    "+two-photon-inputs": "two-photon",
}


def _within(got, want, rtol):
    """The same shape, and every weight within rtol of want's, relative."""
    return got.shape == want.shape and bool(np.all(np.abs(got - want) <= rtol * want))


def _reference(eps, scenario, n, two_photon_prob=0.001):
    """(pattern probability, c1) of the p = 0.2 chain on two tap photons,
    from the two-mode oracle."""
    res = chain_two_mode(n, eps, 0.2, 2, scenario, two_photon_prob)
    return res.pattern_probability, float(res.normalized[1])


@pytest.mark.parametrize("two_photon_prob", [0.001, 0.004])
@pytest.mark.parametrize("n", [4, 6])
@pytest.mark.parametrize("scenario", list(CHAIN_SCENARIOS))
def test_run_chain_scenarios_match_the_reference(scenario, n, two_photon_prob):
    """Every scenario equals the two-mode oracle to 1e-14 relative, and
    the N-mode oracle, whose detector models are written out apart from
    run_chain, to 1e-13 relative."""
    for eps in (0.3, 0.05, 1e-3):
        res = run_chain(n, eps, 0.2, 2, scenario, two_photon_prob)
        want = chain_two_mode(n, eps, 0.2, 2, scenario, two_photon_prob)
        assert _within(res.unnormalized, want.unnormalized, 1e-14), eps
        assert res.pattern == want.pattern, eps
        c1 = 0.0 if res.zero_probability else float(res.normalized[1])
        full = chain_scenario_reference(eps, REFERENCE_SCENARIOS[scenario], two_photon_prob, n=n)
        assert np.allclose((res.pattern_probability, c1), full, rtol=1e-13, atol=0.0), eps


@pytest.mark.parametrize("n", [4, 5, 6])
@pytest.mark.parametrize("scenario", list(CHAIN_SCENARIOS))
def test_run_chain_grid_equals_per_epsilon_calls(scenario, n):
    """A grid reads each point as that epsilon alone does, so every point
    reads the same weights."""
    grid = [0.8, 0.3, 0.05, 1e-3, 1e-6]
    results = run_chain(n, grid, 0.2, 2, scenario)
    assert len(results) == len(grid)
    for eps, res in zip(grid, results):
        alone = run_chain(n, eps, 0.2, 2, scenario)
        assert res.unnormalized.tobytes() == alone.unnormalized.tobytes(), eps
        c1 = 0.0 if res.zero_probability else float(res.normalized[1])
        want = _reference(eps, scenario, n)
        assert np.allclose((res.pattern_probability, c1), want, rtol=1e-14, atol=0.0), eps


@pytest.mark.parametrize("scenario", list(CHAIN_SCENARIOS))
def test_run_chain_grid_reads_in_stacks_the_size_of_the_engine_limit(monkeypatch, scenario):
    """However small the engine's stack limit, a grid is read in one pass
    of the closed form, each point still with the weights it reads alone,
    and no scenario reads the engine."""
    grid = [0.8, 0.3, 0.05, 1e-3, 1e-6]
    alone = [run_chain(7, eps, 0.3, 2, scenario) for eps in grid]
    reads = []
    original = conditioner.Readout.read

    def read(self, matrices):
        reads.append(len(matrices))
        return original(self, matrices)

    monkeypatch.setattr(conditioner.Readout, "stack", lambda self: 2)
    monkeypatch.setattr(conditioner.Readout, "read", read)
    results = run_chain(7, grid, 0.3, 2, scenario)
    assert reads == []
    for eps, res, want in zip(grid, results, alone):
        assert res.unnormalized.tobytes() == want.unnormalized.tobytes(), eps


def _coefficient_passes(monkeypatch) -> list:
    """(epsilons, cells per point) of each _tap_coefficients call: the
    lossy merges' pass, then the grid's slices."""
    passes, original = [], schemes._tap_coefficients

    def tap_coefficients(eps, one, tap, width, table):
        passes.append((eps.tolist(), np.count_nonzero(tap) * width))
        return original(eps, one, tap, width, table)

    monkeypatch.setattr(schemes, "_tap_coefficients", tap_coefficients)
    return passes


def _merge_epsilons(n):
    """The merges' eps_m = sqrt(1/m), m = 2..n-1, as _reduced_source reads them."""
    return np.sqrt(1.0 / np.arange(2, n)).tolist()


def _runs(points, cells, limit):
    """points in runs of as many as fit `limit` cells at `cells` a point, at
    least one a run."""
    step = max(1, limit // cells)
    return [points[i : i + step] for i in range(0, len(points), step)]


@pytest.mark.parametrize("scenario", list(CHAIN_SCENARIOS))
def test_run_chain_reads_the_grid_in_slices_within_the_cell_limit(monkeypatch, scenario):
    """The lossy merges and the grid are read in slices whose (points, tap
    counts, width) arrays fit MAX_CELLS: one merge pass and one grid pass
    at the real limit, the merges in runs of two when it is small, with
    S's weights, z and every grid point keeping their bits."""
    grid, merges = [0.8, 0.3, 0.05, 1e-3, 1e-6], _merge_epsilons(7)
    lossy = scenario in LOSSY_SCENARIOS
    sources, original = [], schemes._reduced_source

    def reduced_source(*args):
        sigma, z = original(*args)
        sources.append((sigma.tobytes(), z))
        return sigma, z

    monkeypatch.setattr(schemes, "_reduced_source", reduced_source)
    passes = _coefficient_passes(monkeypatch)
    whole = run_chain(7, grid, 0.3, 2, scenario)
    assert [eps for eps, _ in passes] == [merges] * lossy + [grid]
    assert all(len(eps) * cells <= schemes.MAX_CELLS for eps, cells in passes)
    grid_cells = passes[-1][1]
    merge_cells = passes[0][1] if lossy else grid_cells
    limit = 2 * min(merge_cells, grid_cells) + 1  # two points of the narrower pass
    monkeypatch.setattr(schemes, "MAX_CELLS", limit)
    passes.clear()
    sliced = run_chain(7, grid, 0.3, 2, scenario)
    merge_runs = [(run, merge_cells) for run in _runs(merges, merge_cells, limit)] * lossy
    assert passes == merge_runs + [(run, grid_cells) for run in _runs(grid, grid_cells, limit)]
    assert [len(eps) for eps, _ in passes[:3]] == [2, 2, 1]  # the merges, or else the grid
    assert sources[1] == sources[0]
    for eps, res, want in zip(grid, sliced, whole):
        assert res.unnormalized.tobytes() == want.unnormalized.tobytes(), eps


@pytest.mark.parametrize(
    "n, detected, scenario, points", [(11, 6, "ideal", 6), (6, 2, "+darkcounts", 8)]
)
def test_benchmark_grids_read_in_one_slice(monkeypatch, n, detected, scenario, points):
    """The benchmark's chain-sweep and exp-sweep grids fit one slice, and
    exp-sweep's lossy merges one pass."""
    passes = _coefficient_passes(monkeypatch)
    grid = list(np.geomspace(0.8, 0.1, points))
    run_chain(n, grid, 0.2, detected, scenario)
    merges = [_merge_epsilons(n)] if scenario in LOSSY_SCENARIOS else []
    assert [eps for eps, _ in passes] == merges + [grid]


@pytest.mark.parametrize("scenario", list(CHAIN_SCENARIOS))
def test_run_chain_makes_one_merge_pass_and_one_grid_pass_per_slice(monkeypatch, scenario):
    """A lossy scenario reads its N-2 merges in one coefficient pass before
    the grid's; "ideal" and "bucket" make none, whatever the grid."""
    passes = _coefficient_passes(monkeypatch)
    for n, grid in ((3, [0.3]), (6, [0.8, 0.3, 0.05, 1e-3, 1e-6] * 4), (48, [0.3, 1e-3])):
        passes.clear()
        run_chain(n, grid, 0.2, 2, scenario)
        merges = [_merge_epsilons(n)] if scenario in LOSSY_SCENARIOS else []
        assert [eps for eps, _ in passes] == merges + [grid], n


@pytest.mark.parametrize("scenario", list(CHAIN_SCENARIOS))
def test_run_chain_counts_its_engine_reads(monkeypatch, scenario):
    """No scenario looks up an engine reader or builds a table, whatever
    the grid: the lossy ones merge S's weights with the tap's closed form."""
    calls = {"reader": 0, "table": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    lookup = counted("reader", engine.reader)
    for module in (engine, conditioner):
        monkeypatch.setattr(module, "reader", lookup)
    monkeypatch.setattr(engine.Reader, "table", counted("table", engine.Reader.table))
    for grid in ([0.3], [0.8, 0.3, 0.05, 1e-3, 1e-6] * 4):
        calls.update(reader=0, table=0)
        run_chain(6, grid, 0.2, 2, scenario)
        assert calls == {"reader": 0, "table": 0}, grid


@pytest.mark.parametrize("n", range(3, 10))
def test_ideal_reads_every_tap_count_as_the_two_mode_oracle(n):
    """"ideal" is an exact detector pair on the one heralding path: every
    D = 0..N equals the two-mode oracle to 1e-14 relative, with its label."""
    grid = [0.8, 0.3, 0.05, 1e-3, 1e-6]
    for d in range(n + 1):
        for eps, res in zip(grid, run_chain(n, grid, 0.2, d)):
            want = chain_two_mode(n, eps, 0.2, d)
            assert _within(res.unnormalized, want.unnormalized, 1e-14), (d, eps)
            assert res.pattern == want.pattern, (d, eps)


@pytest.mark.parametrize("scenario", list(CHAIN_SCENARIOS))
def test_every_scenario_is_a_vacuum_and_tap_detector_pair(scenario):
    for cap in (0, 1, 2, 5, 12):
        models = CHAIN_SCENARIOS[scenario](cap)
        assert len(models) == 2, cap
        assert all(isinstance(m, DetectorModel) and m.cap >= cap for m in models), cap


def test_run_chain_checks_its_arguments_in_order():
    """The scenario, then D under a bucket scenario, then N and each epsilon
    in grid order, then two_photon_prob, then the tap count, then the
    photon limit; "ideal" never reads two_photon_prob."""
    scenarios = ", ".join(CHAIN_SCENARIOS)
    cases = [
        ((4, [0.1], 0.2, 9, "nope", -1.0), BadParameters,
         f"scenario 'nope' is not one of {scenarios}"),
        ((2, [1.5], 0.2, 3, "bucket", -1.0), BadParameters,
         "bucket scenarios model a '>=2' tap click and need detected = 2"),
        ((2, [1.5], 0.2, 9, "ideal"), BadParameters, "the chain needs at least 3 modes, got 2"),
        ((4, [0.1, 1.5, 0.0], 0.2, 9, "ideal"), BadParameters,
         "epsilon must sit strictly inside (0, 1), got 1.5"),
        ((4, [0.1, 0.0], 0.2, 2, "+two-photon-inputs", -1.0), BadParameters,
         "epsilon must sit strictly inside (0, 1), got 0.0"),
        ((4, [0.1], 0.2, 2, "+two-photon-inputs", 0.8), BadParameters,
         "two_photon_prob must be positive with p + two_photon_prob < 1"),
        ((4, [0.1], 0.2, 5, "ideal", -1.0), BadParameters, "detected count 5 outside 0..4"),
        ((4, [0.1], 0.2, -1, "ideal"), BadParameters, "detected count -1 outside 0..4"),
        ((200, [0.1], 0.2, 300, "ideal"), BadParameters, "detected count 300 outside 0..200"),
        ((200, [0.1], 0.2, 100, "ideal"), DimensionTooLarge,
         "a 200-mode chain holds more than 170 photons"),
        ((171, [0.1], 0.2, 2, "+darkcounts"), DimensionTooLarge,
         "a 171-mode chain holds more than 170 photons"),
    ]
    for args, kind, message in cases:
        with pytest.raises(kind, match=re.escape(message) + "$"):
            run_chain(*args)
    ignored = run_chain(4, 0.1, 0.2, 2, "ideal", -1.0).unnormalized
    assert ignored.tobytes() == run_chain(4, 0.1, 0.2, 2).unnormalized.tobytes()


def test_readme_lists_every_chain_scenario_in_order():
    """README's exp-sweep table names CHAIN_SCENARIOS, in order."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n### exp-sweep\n", 1)[1].split("\n### ", 1)[0]
    assert re.findall(r"^\| `([^`]+)` \|", section, flags=re.M) == list(CHAIN_SCENARIOS)


LOSSY_SCENARIOS = ["bucket+efficiency", "+darkcounts", "+two-photon-inputs"]


def _lossy_spec(n, p, scenario, two_photon_prob=0.001):
    """The n sources of a lossy scenario."""
    if scenario == "+two-photon-inputs":
        return InputSpec(({0: 1 - p - two_photon_prob, 1: p, 2: two_photon_prob},) * n)
    return InputSpec.two_level([p] * n)


@pytest.mark.parametrize(
    "scenario, n",
    [(s, n) for s in LOSSY_SCENARIOS for n in range(3, 7 if s == "+two-photon-inputs" else 8)],
)
def test_lossy_reduction_matches_the_n_mode_chain(scenario, n):
    """Every lossy weight of the two-mode reduction matches observe on the
    N-mode chain with the scenario's detector models within 1e-13
    relative, with the same length and label (two-photon sources to
    N = 6, whose N-mode table exceeds the engine's limit at N = 7)."""
    grid = [0.9, 0.3, 0.1, 1e-2, 1e-3, 1e-6]
    for p in (0.1, 0.5, 0.9):
        spec = _lossy_spec(n, p, scenario)
        vacuum, tap = CHAIN_SCENARIOS[scenario](spec.max_total())
        observed = ObservedPattern((BUCKET,) + (0,) * (n - 2))
        for eps, got in zip(grid, run_chain(n, grid, p, 2, scenario)):
            interf = build_chain(n, eps).interferometer
            want = observe(spec, interf, observed, [tap] + [vacuum] * (n - 2))
            assert got.unnormalized.shape == want.unnormalized.shape, (p, eps)
            assert got.pattern == want.pattern, (p, eps)
            err = np.abs(got.unnormalized - want.unnormalized)
            assert np.all(err <= 1e-13 * want.unnormalized), (p, eps, err / want.unnormalized)


def _mp_chain_observed(n, eps, one, vacuum, tap):
    """c~[n1] of the n-mode chain under lossy detectors, in mpmath at its
    working precision: every emission configuration of sources `one`
    (count -> probability) expanded through build_chain's closed form,
    each output weighted by tap[t] at the tap and vacuum[t] at each vacuum
    row (0 past their ends)."""
    mpf, fac = mpmath.mpf, mpmath.factorial
    eps = mpf(eps)
    a, root = mpmath.sqrt(1 - eps**2), mpmath.sqrt(n - 1)
    u = [[-eps] + [a / root] * (n - 1), [a] + [eps / root] * (n - 1)]
    for k in range(1, n - 1):  # row k+1 compares source k+1 with the later ones
        later = n - 1 - k
        norm = mpmath.sqrt(later * (later + 1))
        u.append([mpf(0)] * k + [later / norm] + [-1 / norm] * later)
    vacuum, tap = [mpf(v) for v in vacuum], [mpf(t) for t in tap]

    def weight(column, t):
        return column[t] if t < len(column) else 0

    out = [mpf(0)] * (n * max(one) + 1)
    for counts in itertools.product(sorted(one), repeat=n):
        prob = math.prod((mpf(one[c]) for c in counts), start=mpf(1))
        poly = {(0,) * n: mpf(1)}
        for i, c in enumerate(counts):
            for _ in range(c):
                grown = {}
                for mono, coeff in poly.items():
                    for k in range(n):
                        key = mono[:k] + (mono[k] + 1,) + mono[k + 1 :]
                        grown[key] = grown.get(key, 0) + coeff * u[k][i]
                poly = grown
        s_fac = math.prod(fac(c) for c in counts)
        for mono, coeff in poly.items():
            w = weight(tap, mono[1]) * math.prod(weight(vacuum, t) for t in mono[2:])
            if w:
                out[mono[0]] += prob * w * coeff**2 * math.prod(fac(t) for t in mono) / s_fac
    return out


@pytest.mark.parametrize(
    "scenario, eps, p",
    [
        ("bucket+efficiency", 0.3, 0.2),
        ("+darkcounts", 1e-3, 0.5),
        ("+two-photon-inputs", 0.05, 0.2),
    ],
)
def test_lossy_reduction_matches_50_digits(scenario, eps, p):
    n = 4
    got = run_chain(n, eps, p, 2, scenario).unnormalized
    spec = _lossy_spec(n, p, scenario)
    vacuum, tap = CHAIN_SCENARIOS[scenario](spec.max_total())
    one = dict(spec.distributions[0])
    with mpmath.workdps(50):
        want = _mp_chain_observed(n, eps, one, vacuum.column(0), tap.column(BUCKET))
        while len(want) > got.size:  # n1 above the source maximum less the tap's fewest
            assert want.pop() == 0
        assert got.size == len(want)
        for g, w in zip(got, want):
            assert abs(mpmath.mpf(float(g)) - w) <= 1e-14 * w


@pytest.mark.parametrize(
    "scenario, eps, p",
    [
        ("bucket+efficiency", 0.3, 0.2),
        ("+darkcounts", 1e-3, 0.5),
        ("+two-photon-inputs", 0.05, 0.2),
    ],
)
def test_lossy_merges_match_50_digits_at_48_modes(scenario, eps, p):
    """S's weights, their sum z and the heralded row of the 48-mode chain,
    each within 1e-13 relative of the merges in 50-digit arithmetic."""
    n = 48
    spec = _lossy_spec(n, p, scenario)
    one, top = dict(spec.distributions[0]), spec.max_total()
    vacuum, tap = CHAIN_SCENARIOS[scenario](top)
    vacuum, tap = vacuum.column(0), tap.column(BUCKET)
    sigma, z = schemes._reduced_source(n, one, vacuum, schemes._binomials(2 * top))
    got = run_chain(n, eps, p, 2, scenario).unnormalized
    with mpmath.workdps(50):
        want_sigma, want_z, want = chain_merged(n, eps, one, vacuum, tap)
        assert want[got.size :] == [0] * (len(want) - got.size)
        assert len(sigma) == len(want_sigma)
        for g, w in itertools.chain(zip(sigma, want_sigma), [(z, want_z)], zip(got, want)):
            assert abs(mpmath.mpf(float(g)) - w) <= 1e-13 * w


def _merge_inputs(n, p, scenario, two_photon_prob, scale=1.0):
    """(one, vacuum, table) as run_chain hands them to _reduced_source, the
    vacuum column times `scale`."""
    one = dict(_lossy_spec(1, p, scenario, two_photon_prob).distributions[0])
    top = n * max(one)
    vacuum = CHAIN_SCENARIOS[scenario](top)[0].column(0) * scale
    return one, vacuum, schemes._binomials(top + 3)


def _assert_merges_match_one_at_a_time(n, one, vacuum, table):
    try:
        want = merges_one_at_a_time(n, one, vacuum, table)
    except DimensionTooLarge as error:
        with pytest.raises(DimensionTooLarge, match=f"^{re.escape(str(error))}$"):
            schemes._reduced_source(n, one, vacuum, table)
        return
    sigma, z = schemes._reduced_source(n, one, vacuum, table)
    assert sigma.tobytes() == want[0].tobytes() and z == want[1]


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(LOSSY_SCENARIOS),
    st.integers(3, 48),
    st.sampled_from([0.0, 1e-9, 0.05, 0.2, 0.5, 0.9, 0.999]) | st.floats(0.0, 0.99),
    st.sampled_from([1e-6, 1e-3, 0.05, 0.3]),
    st.sampled_from([1.0, 1.0, 1e-5, 1e-40, 1e-160]),
)
@example("+darkcounts", 9, 0.5, 1e-3, 1e-160)
def test_merges_in_one_pass_match_one_at_a_time(scenario, n, p, two_photon_prob, scale):
    """Wherever _reduced_source merges, its one coefficient pass gives S's
    weights and z bit for bit as the merges read one at a time do, and the
    same DimensionTooLarge where the vacuum readings, scaled down here,
    underflow (two-level sources at p = 0 emit nothing and take W_k)."""
    if scenario == "+two-photon-inputs":
        p = min(p, 0.999 - two_photon_prob)
    one, vacuum, table = _merge_inputs(n, p, scenario, two_photon_prob, scale)
    assume(np.any(vacuum[1:]))
    _assert_merges_match_one_at_a_time(n, one, vacuum, table)


def test_170_mode_merges_in_one_pass_match_one_at_a_time():
    one, vacuum, table = _merge_inputs(170, 0.95, "+two-photon-inputs", 0.01)
    _assert_merges_match_one_at_a_time(170, one, vacuum, table)


@pytest.mark.parametrize("scenario", LOSSY_SCENARIOS)
def test_lossy_scenarios_read_170_modes(scenario):
    """At 170 nearly full sources every lossy weight is a finite number:
    the vacuum readings' probability z is near 1e-71, far from underflow."""
    results = run_chain(170, [1e-3, 0.3, 0.9], 0.95, 2, scenario)
    for res in results:
        assert np.all(np.isfinite(res.unnormalized)) and res.pattern_probability > 0.0


@pytest.mark.parametrize("scenario", ["+darkcounts", "+two-photon-inputs"])
def test_a_170_mode_160_point_grid_peaks_below_300_mb(scenario):
    """Read in slices within MAX_CELLS, the widest lossy grids peak near
    210 MB in a fresh interpreter (392 MB and 1.45 GB as one read)."""
    script = (
        "import resource\nimport numpy as np\nfrom photonpost.schemes import run_chain\n"
        f"run_chain(170, list(np.geomspace(1e-4, 0.99, 160)), 0.95, 2, {scenario!r})\n"
        "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    done = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
    )
    assert int(done.stdout) / 1024 < 300  # kilobytes on Linux


def test_underflowing_vacuum_readings_are_a_dimension_error():
    """A z that underflows to 0 raises before any weight is divided by it."""
    vacuum = np.full(10, 1e-160)
    with pytest.raises(DimensionTooLarge, match="9-mode chain's vacuum readings underflow"):
        schemes._reduced_source(9, {0: 0.5, 1: 0.5}, vacuum, schemes._binomials(20))


def test_underflowing_herald_is_a_dimension_error():
    """With p > 0 every pattern of the chain can occur, so a herald whose
    weights all underflow to 0 is a float-range limit, not an impossible
    pattern."""
    with pytest.raises(DimensionTooLarge, match=r"100-mode chain .* D = 80 .* 0\.001.*underflow"):
        run_chain(100, [0.3, 1e-3], 0.1, 80)
    assert run_chain(100, 0.3, 0.1, 80).pattern_probability > 0.0
    assert run_chain(11, 0.3, 0.0, 6).zero_probability


def test_exact_vacuum_chain_reaches_48_modes():
    """The two-mode reduction heralds a 48-mode chain, whose N-mode table
    is far beyond the engine's size limit; a weight underflowing to 0
    keeps n1 = 0..N-D."""
    res = run_chain(48, [1e-2, 0.3], 0.1, 24)
    assert [r.unnormalized.size for r in res] == [25, 25]
    assert all(0.0 < r.pattern_probability < 1e-40 for r in res)
    faint = run_chain(11, 0.3, 1e-40, 6)
    assert faint.unnormalized.size == 6 and faint.unnormalized[-1] == 0.0
    assert faint.pattern == DetectionPattern((6,) + (0,) * 9)


def test_run_chain_grid_raises_for_the_first_bad_epsilon():
    first = re.escape("epsilon must sit strictly inside (0, 1), got 1.5")
    with pytest.raises(BadParameters, match=first + "$"):
        run_chain(4, [0.1, 1.5, 0.0], 0.2, 2)
    with pytest.raises(BadParameters, match=r"got 0\.0$"):
        run_chain(4, [0.1, 0.0, 1.5], 0.2, 2, "+darkcounts")
    with pytest.raises(BadParameters, match="empty"):
        run_chain(4, [], 0.2, 2)
    # the scenario and mode count are checked before any epsilon, as before
    with pytest.raises(BadParameters, match="scenario"):
        run_chain(4, [1.5], 0.2, 2, "nope")
    with pytest.raises(BadParameters, match="at least 3 modes"):
        run_chain(2, [1.5], 0.2, 2)


def test_single_photon_limit_eight_over_thirtythree():
    # N=4, D=2, p=0.2: the conditioned one-photon weight approaches 8/33
    res = run_chain(4, 1e-4, 0.2, 2)
    assert np.isclose(res.normalized[1], 8 / 33, atol=1e-4)


# pure-state scheme ------------------------------------------------------------


def test_stage2_angles_at_the_peak():
    tp, pp = pure_stage2_params(math.pi / 4, math.pi)
    assert np.isclose(tp, math.acos(1 / 3), atol=1e-12)
    assert np.isclose(pp, 0.0, atol=1e-12)


def test_stage2_degenerate_theta():
    with pytest.raises(DegenerateTheta):
        pure_stage2_params(math.pi / 2, 0.3)
    with pytest.raises(DegenerateTheta):
        pure_stage2_params(0.0, 0.3)


@pytest.mark.parametrize("theta, phi", [(math.inf, 0.3), (0.3, -math.inf), (math.nan, 0.3), (0.3, math.nan)])
def test_pure_scheme_rejects_non_finite_angles(theta, phi):
    with pytest.raises(BadParameters):
        pure_stage2_params(theta, phi)
    with pytest.raises(BadParameters):
        pure_success_probability(theta, phi, 1.0)
    with pytest.raises(BadParameters):
        pure_three_mode_pipeline(theta, phi, 1.0)


@pytest.mark.parametrize("beta", [math.nan, complex(math.nan, 0.0), complex(0.3, math.nan), math.inf])
def test_pure_pipeline_rejects_non_finite_beta(beta):
    with pytest.raises(BadParameters):
        pure_three_mode_pipeline(0.3, 0.2, beta)


def test_pure_pipeline_makes_one_engine_call(monkeypatch):
    calls = []

    def counting_expand(*args):
        calls.append(args)
        return engine.expand(*args)

    monkeypatch.setattr(conditioner, "expand", counting_expand)
    state, prob = pure_three_mode_pipeline(0.7, 1.3, 0.6 + 0.5j)
    assert len(calls) == 1
    assert abs(state[1]) ** 2 >= 1.0 - 1e-10
    assert np.isclose(prob, pure_success_probability(0.7, 1.3, abs(0.6 + 0.5j)), atol=1e-10)


def test_success_probability_peak():
    assert np.isclose(
        pure_success_probability(math.pi / 4, math.pi, 1.0), 16 / 81, atol=1e-12
    )
    assert np.isclose(
        pure_success_probability(math.pi / 4, math.pi, 0.5),
        16 / 81 * 0.5**6,
        atol=1e-12,
    )


def reference_success_probability(theta: float, phi: float, beta_mag: float) -> float:
    """Rational closed form derived by eliminating the stage-two angle."""
    s = math.sin(2 * theta)
    c = math.cos(phi) * s
    num = 0.5 * s**2 * (1 - c) * (0.5 * s**2 - 1 + c) ** 2
    den = (0.25 * s**2 + 1 - c) ** 3
    return beta_mag**6 * num / den


def test_success_probability_against_rational_form():
    rng = np.random.default_rng(61)
    for _ in range(40):
        theta = rng.uniform(0.05, math.pi / 2 - 0.05)
        phi = rng.uniform(0.0, 2 * math.pi)
        got = pure_success_probability(theta, phi, 1.0)
        want = reference_success_probability(theta, phi, 1.0)
        assert np.isclose(got, want, atol=1e-10)


def test_pipeline_yields_pure_single_photon():
    rng = np.random.default_rng(62)
    for _ in range(15):
        theta = rng.uniform(0.1, math.pi / 2 - 0.1)
        phi = rng.uniform(0.0, 2 * math.pi)
        beta = rng.uniform(0.3, 1.0) * np.exp(1j * rng.uniform(0, 2 * math.pi))
        state, prob = pure_three_mode_pipeline(theta, phi, beta)
        want = pure_success_probability(theta, phi, abs(beta))
        assert np.isclose(prob, want, atol=1e-10)
        if state is None:
            assert prob < 1e-12
            continue
        fidelity = abs(state[1]) ** 2
        assert fidelity >= 1.0 - 1e-10


def test_pipeline_peak_probability():
    state, prob = pure_three_mode_pipeline(math.pi / 4, math.pi, 1.0)
    assert np.isclose(prob, 16 / 81, atol=1e-12)
    assert abs(state[1]) ** 2 >= 1.0 - 1e-12


def test_pipeline_dark_source_never_fires():
    state, prob = pure_three_mode_pipeline(math.pi / 4, math.pi, 0.0)
    assert prob == 0.0
    assert state is None


# super-Poissonian purification -------------------------------------------------


def test_purify_gapped_two_photon_mixture():
    res = purify_super_poissonian({0: 0.9, 2: 0.1}, beam_splitter(0.7, 0.2))
    assert np.isclose(res.normalized[1], 1.0, atol=1e-12)
    assert res.pattern.counts == (1,)


def test_purify_one_and_three():
    res = purify_super_poissonian({1: 0.5, 3: 0.5}, beam_splitter(1.1, 0.0))
    assert np.isclose(res.normalized[1], 1.0, atol=1e-12)
    assert res.pattern.counts == (2,)


def test_purify_probability_scales_with_top_weight():
    bs = beam_splitter(math.pi / 4, 0.0)
    lo = purify_super_poissonian({0: 0.95, 2: 0.05}, bs)
    hi = purify_super_poissonian({0: 0.5, 2: 0.5}, bs)
    assert hi.pattern_probability > lo.pattern_probability


def test_purify_rejects_bad_distributions():
    bs = beam_splitter(0.8, 0.0)
    with pytest.raises(BadDistributionShape):
        purify_super_poissonian({0: 1.0}, bs)
    with pytest.raises(BadDistributionShape):
        # the count right below the top must be empty
        purify_super_poissonian({0: 0.5, 1: 0.3, 2: 0.2}, bs)


def test_purify_needs_two_mode_element():
    from photonpost import haar_random

    with pytest.raises(BadDistributionShape):
        purify_super_poissonian({0: 0.9, 2: 0.1}, haar_random(3, seed=1))
