import dataclasses
import importlib.util
import json
import math
import os
import subprocess
import sys
import time

import numpy as np
import pytest

import photonpost.cli
from photonpost.cli import main


def write_config(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


def run(tmp_path, command, config, extra_args=(), name="job"):
    cfg = write_config(tmp_path / f"{name}.json", config)
    out = tmp_path / f"{name}.out"
    code = main([command, "--config", cfg, "--out", str(out), *extra_args])
    return code, out


def read_csv(path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    rows = [[float(x) for x in line.split(",")] for line in lines[1:]]
    return header, rows


# simulate ---------------------------------------------------------------


def test_simulate_empty_pattern_on_beam_splitter(tmp_path):
    code, out = run(
        tmp_path,
        "simulate",
        {
            "command": "simulate",
            "version": 1,
            "modes": 2,
            "inputs": [0.2, 0.2],
            "interferometer": {"type": "beam_splitter", "theta": math.pi / 4},
            "pattern": [0],
        },
    )
    assert code == 0
    data = json.loads(out.read_text())
    assert data["command"] == "simulate"
    assert data["pattern"] == [0]
    assert not data["zero_probability"]
    assert np.isclose(data["merit"]["ratio_out"], 0.25, atol=1e-12)
    assert np.isclose(sum(data["normalized"]), 1.0, atol=1e-12)
    assert np.isclose(
        data["pattern_probability"], sum(data["unnormalized"]), atol=1e-15
    )


def test_simulate_vacuum_inputs(tmp_path):
    code, out = run(
        tmp_path,
        "simulate",
        {
            "command": "simulate",
            "version": 1,
            "modes": 2,
            "inputs": [{"0": 1.0}, {"0": 1.0}],
            "interferometer": {"type": "haar", "seed": 3},
            "pattern": [0],
        },
    )
    assert code == 0
    data = json.loads(out.read_text())
    assert data["normalized"] == [1.0]
    assert np.isclose(data["pattern_probability"], 1.0, atol=1e-12)


def test_simulate_chain_reaches_asymptotic_single_photon(tmp_path):
    code, out = run(
        tmp_path,
        "simulate",
        {
            "command": "simulate",
            "version": 1,
            "modes": 4,
            "inputs": [0.2, 0.2, 0.2, 0.2],
            "interferometer": {"type": "chain", "epsilon": 1e-3},
            "pattern": [2, 0, 0],
        },
    )
    assert code == 0
    data = json.loads(out.read_text())
    assert np.isclose(data["normalized"][1], 8 / 33, atol=1e-3)


def test_simulate_huge_count_is_an_impossible_pattern(tmp_path):
    """A count far beyond the source maximum (and int64) reads as impossible."""
    code, out = run(
        tmp_path,
        "simulate",
        {
            "command": "simulate",
            "version": 1,
            "modes": 3,
            "inputs": [0.2, 0.2, 0.2],
            "interferometer": {"type": "haar", "seed": 3},
            "pattern": [10**30, 0],
        },
    )
    assert code == 0
    data = json.loads(out.read_text())
    assert data["zero_probability"] is True
    assert data["pattern"] == [10**30, 0]
    assert data["unnormalized"] == [0.0]


def test_simulate_matrix_type_round_trip(tmp_path):
    theta = 0.6
    c, s = math.cos(theta), math.sin(theta)
    rows = [
        [{"re": c, "im": 0.0}, {"re": -s, "im": 0.0}],
        [{"re": s, "im": 0.0}, {"re": c, "im": 0.0}],
    ]
    code, out = run(
        tmp_path,
        "simulate",
        {
            "command": "simulate",
            "version": 1,
            "modes": 2,
            "inputs": [0.3, 0.1],
            "interferometer": {"type": "matrix", "matrix": rows},
            "pattern": [1],
        },
    )
    assert code == 0
    data = json.loads(out.read_text())
    assert not data["zero_probability"]


@pytest.mark.parametrize(
    "inputs, theta, pattern, bound",
    [
        # nothing detected: strict form, ratio_in rather than 2 * ratio_in
        ([0.2, 0.2], math.pi / 4, [0], 0.25),
        # a two-photon term: no bound applies, though ratio_in * (M - D) is 0.25
        ([{"0": 0.7, "1": 0.2, "2": 0.1}, {"0": 0.8, "1": 0.2}], 0.3, [1], None),
    ],
)
def test_simulate_reports_the_library_ratio_bound(tmp_path, inputs, theta, pattern, bound):
    code, out = run(
        tmp_path,
        "simulate",
        {
            "command": "simulate",
            "version": 1,
            "modes": 2,
            "inputs": inputs,
            "interferometer": {"type": "beam_splitter", "theta": theta},
            "pattern": pattern,
        },
    )
    assert code == 0
    merit = json.loads(out.read_text())["merit"]
    assert merit["ratio_bound"] == bound
    if bound is None:
        assert merit["ratio_out"] > 0.25


# pure-landscape -----------------------------------------------------------


def test_pure_landscape_peak_value(tmp_path):
    code, out = run(
        tmp_path,
        "pure-landscape",
        {
            "command": "pure-landscape",
            "version": 1,
            "theta_grid": {"values": [math.pi / 4]},
            "phi_grid": {"values": [math.pi]},
            "beta_mag": 1.0,
        },
    )
    assert code == 0
    header, rows = read_csv(out)
    assert header == ["theta", "phi", "probability"]
    assert len(rows) == 1
    assert np.isclose(rows[0][2], 16 / 81, atol=1e-12)


def test_pure_landscape_theta_periodicity(tmp_path):
    code, out = run(
        tmp_path,
        "pure-landscape",
        {
            "command": "pure-landscape",
            "version": 1,
            "theta_grid": {"values": [0.3, 0.3 + math.pi]},
            "phi_grid": {"values": [1.1, 2.0]},
            "beta_mag": 0.8,
        },
    )
    assert code == 0
    _, rows = read_csv(out)
    assert np.isclose(rows[0][2], rows[2][2], atol=1e-12)
    assert np.isclose(rows[1][2], rows[3][2], atol=1e-12)


def test_pure_landscape_dark_source(tmp_path):
    code, out = run(
        tmp_path,
        "pure-landscape",
        {
            "command": "pure-landscape",
            "version": 1,
            "theta_grid": {"start": 0.1, "stop": 1.4, "count": 5},
            "phi_grid": {"values": [0.7]},
            "beta_mag": 0.0,
        },
    )
    assert code == 0
    _, rows = read_csv(out)
    assert all(r[2] == 0.0 for r in rows)


def test_pure_landscape_degenerate_theta_is_zero(tmp_path):
    code, out = run(
        tmp_path,
        "pure-landscape",
        {
            "command": "pure-landscape",
            "version": 1,
            "theta_grid": {"values": [0.0, math.pi / 2]},
            "phi_grid": {"values": [0.4]},
            "beta_mag": 1.0,
        },
    )
    assert code == 0
    _, rows = read_csv(out)
    assert rows[0][2] == 0.0
    assert rows[1][2] == 0.0


# chain-sweep ----------------------------------------------------------------


def test_chain_sweep_gain_approaches_limit(tmp_path):
    code, out = run(
        tmp_path,
        "chain-sweep",
        {
            "command": "chain-sweep",
            "version": 1,
            "modes": 4,
            "p": 0.01,
            "epsilon_grid": {"values": [1e-3, 0.1, 0.3]},
        },
    )
    assert code == 0
    header, rows = read_csv(out)
    assert header == [
        "epsilon",
        "pattern_probability",
        "ratio_out",
        "ratio_in",
        "ratio_gain",
        "ratio_gain_limit",
        "two_photon_out",
        "two_photon_limit",
        "fano_out",
        "fano_in",
    ]
    assert len(rows) == 3
    assert np.isclose(rows[0][4], 4 / 3, rtol=0.01)
    assert all(np.isclose(r[5], 4 / 3, atol=1e-12) for r in rows)
    assert np.isclose(rows[0][6], 3 / 8, rtol=0.02)
    # heralding gets likelier as the tap opens up
    assert rows[0][1] < rows[1][1] < rows[2][1]


def test_chain_sweep_floats_survive_round_trip(tmp_path):
    code, out = run(
        tmp_path,
        "chain-sweep",
        {
            "command": "chain-sweep",
            "version": 1,
            "modes": 4,
            "p": 0.2,
            "detected": 2,
            "epsilon_grid": {"values": [0.17]},
        },
    )
    assert code == 0
    from photonpost import InputSpec, build_chain, condition_mixed, run_chain

    _, rows = read_csv(out)
    assert rows[0][1] == run_chain(4, 0.17, 0.2, 2).pattern_probability
    chain = build_chain(4, 0.17)
    res = condition_mixed(
        InputSpec.two_level([0.2] * 4), chain.interferometer, chain.pattern_for(2)
    )
    assert np.isclose(rows[0][1], res.pattern_probability, rtol=1e-14, atol=0.0)


# exp-sweep ------------------------------------------------------------------


def exp_config(scenario, eps_values, **overrides):
    cfg = {
        "command": "exp-sweep",
        "version": 1,
        "modes": 4,
        "p": 0.2,
        "detected": 2,
        "scenario": scenario,
        "epsilon_grid": {"values": eps_values},
    }
    cfg.update(overrides)
    return cfg


def test_exp_sweep_ideal_matches_simulate(tmp_path):
    """"ideal" rows are the chain's two-mode reduction to 1e-14 relative,
    and the N-mode chain's condition_mixed to 2e-13."""
    code, out = run(tmp_path, "exp-sweep", exp_config("ideal", [0.05, 0.2]))
    assert code == 0
    header, rows = read_csv(out)
    assert header == ["epsilon", "pattern_probability", "single_photon_probability"]
    from oracles import chain_two_mode
    from photonpost import InputSpec, build_chain, condition_mixed

    for row, eps in zip(rows, (0.05, 0.2)):
        reduced = chain_two_mode(4, eps, 0.2, 2)
        want = [reduced.pattern_probability, float(reduced.normalized[1])]
        assert np.allclose(row[1:], want, rtol=1e-14, atol=0.0)
        chain = build_chain(4, eps)
        res = condition_mixed(
            InputSpec.two_level([0.2] * 4), chain.interferometer, chain.pattern_for(2)
        )
        want = [res.pattern_probability, float(res.normalized[1])]
        assert np.allclose(row[1:], want, rtol=2e-13, atol=0.0)


def test_exp_sweep_bucket_shifts_little(tmp_path):
    eps = [0.05, 0.1]
    _, ideal_out = run(tmp_path, "exp-sweep", exp_config("ideal", eps), name="ideal")
    _, bucket_out = run(tmp_path, "exp-sweep", exp_config("bucket", eps), name="bucket")
    _, ideal_rows = read_csv(ideal_out)
    _, bucket_rows = read_csv(bucket_out)
    for ir, br in zip(ideal_rows, bucket_rows):
        assert abs(ir[2] - br[2]) < 2e-3
        # the bucket also swallows 3- and 4-photon taps, so it heralds more
        assert br[1] > ir[1]


def test_exp_sweep_scenarios_all_run(tmp_path):
    for scenario in ("bucket+efficiency", "+darkcounts", "+two-photon-inputs"):
        code, out = run(
            tmp_path,
            "exp-sweep",
            exp_config(scenario, [0.1]),
            name=scenario.replace("+", "p"),
        )
        assert code == 0
        _, rows = read_csv(out)
        assert 0.0 < rows[0][2] < 1.0


def test_exp_sweep_bucket_requires_two_detected(tmp_path):
    code, out = run(tmp_path, "exp-sweep", exp_config("bucket", [0.1], detected=3))
    assert code == 2
    assert not out.exists()


@pytest.mark.parametrize("scenario", ["bucket+efficiency", "+darkcounts", "+two-photon-inputs"])
def test_exp_sweep_lossy_scenarios_run_at_48_and_170_modes(tmp_path, capsys, scenario):
    """The lossy scenarios merge the N-1 other sources one at a time, with
    no engine read: a 48-mode, 160-point sweep exits 0 in under a second,
    and a 170-mode one of nearly full sources exits 0 too."""
    grid = {"start": 1e-4, "stop": 0.99, "count": 160, "spacing": "log"}
    start = time.perf_counter()
    code, out = run(tmp_path, "exp-sweep", exp_config(scenario, None, modes=48, epsilon_grid=grid))
    assert code == 0 and time.perf_counter() - start < 1.0
    assert len(out.read_text().splitlines()) == 161
    cfg = exp_config(scenario, [1e-3, 0.3, 0.9], modes=170, p=0.95)
    assert run(tmp_path, "exp-sweep", cfg, name="wide")[0] == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("scenario", ["bucket+efficiency", "+darkcounts", "+two-photon-inputs"])
def test_exp_sweep_lossy_scenarios_stop_at_171_modes(tmp_path, capsys, scenario):
    """170 modes is the lossy scenarios' mode limit, as it is every chain's:
    one mode more is a dimension error, exit 3, and no file is written."""
    code, out = run(tmp_path, "exp-sweep", exp_config(scenario, [0.1], modes=171))
    assert code == 3
    assert not out.exists()
    err = capsys.readouterr().err
    assert err == "dimension error: a 171-mode chain holds more than 170 photons\n"


# (scenario, modes, detected) -> CSV rows at p = 0.2, re-recorded when
# run_chain moved to the closed form of the chain's two-mode reduction:
# every value moved by at most 6.3e-16 relative from the engine-read pins,
# and the "ideal" and "bucket" rows lie within 7.7e-16 relative of
# 50-digit values (5.3e-16 before).  The lossy rows were re-recorded again
# when S's weights came from merging the sources one at a time: each
# moved by at most 7.5e-16 relative, and they lie within 6.0e-16 of
# 50-digit merges (8.7e-16 before).
EXP_SWEEP_PINS = {
    ("ideal", 4, 2): (
        "0.29999999999999999,0.0056297249280000024,0.2097301760033701",
        "0.050000000000000003,0.00017542746633333344,0.24154636416028039",
        "0.001,7.0399908266717896e-08,0.24242389164356123",
    ),
    ("ideal", 6, 2): (
        "0.29999999999999999,0.0039053951112592851,0.23713811930833703",
        "0.050000000000000003,0.0001226715581961496,0.26541989943535244",
        "0.001,4.9242042474548063e-08,0.26617836949875406",
    ),
    ("bucket", 4, 2): (
        "0.29999999999999999,0.0057461264640000023,0.20897480337808311",
        "0.050000000000000003,0.0001755271776111112,0.24152233364955536",
        "0.001,7.0399924266699398e-08,0.24242388200169979",
    ),
    ("bucket", 6, 2): (
        "0.29999999999999999,0.0040145001959565824,0.23784919188963138",
        "0.050000000000000003,0.00012276632131804241,0.2654389310540633",
        "0.001,4.9242057687071861e-08,0.26617837710251824",
    ),
    ("bucket+efficiency", 4, 2): (
        "0.29999999999999999,0.0058168880640000007,0.20643265519093895",
        "0.050000000000000003,0.00017768177761111117,0.23859359201336877",
        "0.001,7.1263923402699376e-08,0.23948475074714282",
    ),
    ("bucket+efficiency", 6, 2): (
        "0.29999999999999999,0.0042147966945049829,0.23311008808473763",
        "0.050000000000000003,0.0001288773264034776,0.2605613351365822",
        "0.001,5.1692867219431342e-08,0.26129910525404154",
    ),
    ("+darkcounts", 4, 2): (
        "0.29999999999999999,0.0059475630704250897,0.2053277137684423",
        "0.050000000000000003,0.0003162608148079556,0.21613591663421131",
        "0.001,0.00013890588770532552,0.18827945354855813",
    ),
    ("+darkcounts", 6, 2): (
        "0.29999999999999999,0.0043035216001651323,0.23155221544735924",
        "0.050000000000000003,0.00022277674320438711,0.22865179642495309",
        "0.001,9.412000656210302e-05,0.18569328804457882",
    ),
    ("+two-photon-inputs", 4, 2): (
        "0.29999999999999999,0.0063857536041322443,0.20129593757165881",
        "0.050000000000000003,0.00086345962526278763,0.19779866092953932",
        "0.001,0.00068960236138130107,0.18842927430235354",
    ),
    ("+two-photon-inputs", 6, 2): (
        "0.29999999999999999,0.0045843340188537673,0.22560120967240641",
        "0.050000000000000003,0.00059189014923850152,0.20110458600328274",
        "0.001,0.00046607617501588547,0.18586765875265626",
    ),
    ("ideal", 5, 3): (
        "0.29999999999999999,0.00011660562765000007,0.23511928671480378",
        "0.050000000000000003,1.0201634750976574e-07,0.2629753162593072",
        "0.001,1.6379977020010511e-14,0.26373595974705649",
    ),
}


@pytest.mark.parametrize("scenario, modes, detected", list(EXP_SWEEP_PINS))
def test_exp_sweep_csv_is_pinned(tmp_path, scenario, modes, detected):
    cfg = exp_config(scenario, [0.3, 0.05, 1e-3], modes=modes, detected=detected)
    code, out = run(tmp_path, "exp-sweep", cfg)
    assert code == 0
    header = "epsilon,pattern_probability,single_photon_probability"
    rows = EXP_SWEEP_PINS[(scenario, modes, detected)]
    assert out.read_text() == "\n".join((header,) + rows) + "\n"


def test_sweeps_complete_the_grid_once_and_read_each_point_alone(tmp_path, monkeypatch):
    """chain-sweep ("ideal") and exp-sweep under "+darkcounts" read the
    grid's two-mode reductions in closed form, with no unitarity check,
    engine table or N x N chain."""
    from photonpost import engine, interferometer

    shapes = {"check_unitary": [], "table": []}

    def counted(name, fn, arg):
        def wrapper(*args, **kwargs):
            shapes[name].append(np.shape(args[arg]))
            return fn(*args, **kwargs)

        return wrapper

    checked = counted("check_unitary", interferometer.check_unitary, 0)
    monkeypatch.setattr(interferometer, "check_unitary", checked)
    monkeypatch.setattr(engine.Reader, "table", counted("table", engine.Reader.table, 1))
    grid = [0.4, 0.2, 0.1, 0.05, 0.01]
    g, n = len(grid), 6
    chain = chain_config(modes=n, detected=3, epsilon_grid={"values": grid})
    for command, cfg, checks, reads in (
        ("chain-sweep", chain, [], []),
        ("exp-sweep", exp_config("+darkcounts", grid, modes=n), [], []),
    ):
        for calls in shapes.values():
            calls.clear()
        code, out = run(tmp_path, command, cfg, name=command)
        assert code == 0
        assert shapes["check_unitary"] == checks, command
        assert shapes["table"] == reads, command
        assert len(out.read_text().splitlines()) == g + 1


def test_sweep_reports_the_first_bad_epsilon(tmp_path, capsys):
    grid = [0.3, 1.5, -0.2]
    for command, cfg in (
        ("chain-sweep", chain_config(epsilon_grid={"values": grid})),
        ("exp-sweep", exp_config("+darkcounts", grid)),
    ):
        code, out = run(tmp_path, command, cfg, name=command)
        assert code == 2
        assert not out.exists()
        err = capsys.readouterr().err
        assert err == "config error: epsilon must sit strictly inside (0, 1), got 1.5\n"


@pytest.mark.parametrize("modes", [10**6, 10**30])
@pytest.mark.parametrize("command", ["chain-sweep", "exp-sweep"])
def test_a_chain_past_the_photon_limit_exits_3_before_building_labels(
    tmp_path, capsys, monkeypatch, command, modes
):
    """The photon limit is checked before run_chain builds its N-mode pattern
    labels, which took 0.34 s at a million modes and overflowed at 10^30."""
    from photonpost import schemes

    def unbuilt(*args):
        raise AssertionError("a label was built")

    monkeypatch.setattr(schemes, "_tap_pattern", unbuilt)
    monkeypatch.setattr(schemes, "ObservedPattern", unbuilt)
    if command == "chain-sweep":
        cfg = chain_config(modes=modes)
    else:
        cfg = exp_config("+darkcounts", [0.1], modes=modes, detected=2)
    code, out = run(tmp_path, command, cfg)
    assert code == 3
    assert not out.exists()
    err = capsys.readouterr().err
    assert err == f"dimension error: a {modes}-mode chain holds more than 170 photons\n"


@pytest.mark.parametrize("count", [photonpost.cli.MAX_GRID + 1, 10**30])
@pytest.mark.parametrize("spacing", ["linear", "log"])
def test_a_grid_count_past_the_ceiling_is_refused_before_allocating(
    tmp_path, capsys, monkeypatch, spacing, count
):
    def unallocated(*args):
        raise AssertionError("the grid was allocated")

    monkeypatch.setattr(photonpost.cli.np, "linspace", unallocated)
    monkeypatch.setattr(photonpost.cli.np, "geomspace", unallocated)
    grid = {"start": 0.3, "stop": 0.1, "count": count, "spacing": spacing}
    for command, cfg in (
        ("chain-sweep", chain_config(epsilon_grid=grid)),
        ("pure-landscape", landscape_config([1.0]) | {"phi_grid": grid}),
    ):
        code, out = run(tmp_path, command, cfg, name=command)
        assert code == 2
        assert not out.exists()
        where = "epsilon_grid" if command == "chain-sweep" else "phi_grid"
        limit = photonpost.cli.MAX_GRID
        assert capsys.readouterr().err == (
            f"config error: {where}: count {count} exceeds {limit} points\n"
        )


SEARCH_CONFIG = {
    "command": "search",
    "version": 1,
    "modes": 4,
    "p_max": 0.2,
    "trials": 5,
    "refine_iters": 10,
    "seed": 2,
}
HUGE = 10**30


@pytest.mark.parametrize(
    "command, cfg, code, err",
    [
        ("search", SEARCH_CONFIG | {"modes": HUGE}, 3, "more than 170 photons"),
        ("search", SEARCH_CONFIG | {"trials": HUGE}, 2, "field 'trials'"),
        ("search", SEARCH_CONFIG | {"refine_iters": HUGE}, 2, "field 'refine_iters'"),
        ("nogo-verify", "patterns", 2, "field 'trials'"),
        ("nogo-verify", "small", 2, "field 'refine_iters'"),
    ],
)
def test_a_huge_search_count_is_refused_before_allocating(tmp_path, capsys, command, cfg, code, err):
    """A mode, trial or iteration count no run could finish exits 2 or 3
    with one line on stderr; it used to exit 1 with a traceback."""
    if command == "nogo-verify":
        field = "trials" if cfg == "patterns" else "refine_iters"
        cfg = nogo_config(variant=cfg, **{field: HUGE})
    got, out = run(tmp_path, command, cfg)
    assert got == code
    assert not out.exists()
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and err in lines[0], lines


def test_chain_sweep_refuses_rows_that_breach_the_ratio_bound(tmp_path, capsys, monkeypatch):
    """A chain row above the ratio bound is a failed numerical check: exit 4
    and no file, as for a search report."""
    from photonpost import ConditionalResult, DetectionPattern

    def breaching(n_modes, grid, p, detected):
        # q1/q0 = 100 against the bound 0.25 * (4 - 2) of four p = 0.2 sources at D = 2
        row, pattern = np.array([1e-4, 1e-2]), DetectionPattern((2, 0, 0))
        return [ConditionalResult.from_unnormalized(row, pattern=pattern)] * len(grid)

    monkeypatch.setattr(photonpost.cli, "run_chain", breaching)
    cfg = chain_config(detected=2, epsilon_grid={"values": [0.3, 0.1]})
    code, out = run(tmp_path, "chain-sweep", cfg)
    assert code == 4
    assert not out.exists()
    assert capsys.readouterr().err == (
        f"numerical check failed: 2 ratio-bound violation(s); {out} not written\n"
    )


@pytest.mark.parametrize(
    "key", ["chain-sweep-11/full", "chain-small-eps/full", "exp-sweep-dark6/full"]
)
def test_benchmark_sweeps_match_their_references(tmp_path, key):
    """The benchmark's sweep jobs, run from the configs stored with their
    references, match those high-precision rows to 1e-14 relative (the
    benchmark itself asks 1e-8)."""
    path = os.path.join(os.path.dirname(__file__), "..", "perfbench", "refs.json")
    with open(path, encoding="utf-8") as fh:
        ref = json.load(fh)[key]
    code, out = run(tmp_path, ref["config"]["command"], ref["config"])
    assert code == 0
    header, rows = read_csv(out)
    assert header == ref["columns"]
    assert np.allclose(rows, ref["rows"], rtol=1e-14, atol=0.0)


def test_chain_sweep_heralds_a_48_mode_chain(tmp_path):
    """The exact-vacuum chain is read from its two-mode reduction, so a
    48-mode sweep runs where the N-mode table never fit the engine."""
    grid = [0.3, 0.1, 1e-2]
    cfg = chain_config(modes=48, p=0.1, detected=24, epsilon_grid={"values": grid})
    code, out = run(tmp_path, "chain-sweep", cfg)
    assert code == 0
    _, rows = read_csv(out)
    assert [row[0] for row in rows] == grid
    # far past the 24-photon limit of the gain, and at a vanishing herald rate
    assert all(1.0 < row[4] < row[5] and 0.0 < row[1] < 1e-40 for row in rows)


def test_chain_sweep_reports_an_underflowing_herald_as_a_dimension_error(tmp_path, capsys):
    """At 100 modes and D = 80 every heralded weight at epsilon = 1e-3 is
    about 1e-474, below the float range: a dimension error that names the
    chain, not an impossible pattern."""
    cfg = chain_config(modes=100, p=0.1, detected=80, epsilon_grid={"values": [0.3, 1e-3]})
    code, out = run(tmp_path, "chain-sweep", cfg)
    assert code == 3
    assert not out.exists()
    err = capsys.readouterr().err
    chain = "the 100-mode chain heralded on D = 80 at epsilon = 0.001"
    assert err.startswith(f"dimension error: {chain}") and "underflows" in err


def test_oversize_plan_is_a_prompt_dimension_error_under_a_memory_cap(tmp_path):
    """A 24-mode chain pattern needs 2^24 walked rows: the engine refuses
    the plan before it allocates them, so the run exits 3 within 1 GiB of
    address space instead of dying of memory."""
    inputs = [0.2] * 24
    cfg = {
        "command": "simulate",
        "version": 1,
        "modes": 24,
        "inputs": inputs,
        "interferometer": {"type": "chain", "epsilon": 0.1},
        "pattern": [12] + [0] * 22,
    }
    config = write_config(tmp_path / "big.json", cfg)
    script = (
        "import resource, sys\n"
        "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
        "from photonpost.cli import main\n"
        f"sys.exit(main(['simulate', '--config', {config!r}, '--out', {str(tmp_path / 'o')!r}]))\n"
    )
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1")
    done = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 3, done.stderr
    assert done.stderr.startswith("dimension error:")
    assert not (tmp_path / "o").exists()


# nogo-verify and search -------------------------------------------------------


def test_nogo_verify_small(tmp_path):
    code, out = run(
        tmp_path,
        "nogo-verify",
        {
            "command": "nogo-verify",
            "version": 1,
            "variant": "small",
            "modes": 2,
            "p_max": 0.3,
            "trials": 10,
            "refine_iters": 5,
            "seed": 1,
        },
    )
    assert code == 0
    data = json.loads(out.read_text())
    assert data["kind"] == "nogo-small"
    assert data["verdict"] == "none found"
    assert data["bound_violations"] == 0


def test_nogo_verify_small_rejects_four_modes(tmp_path):
    code, out = run(
        tmp_path,
        "nogo-verify",
        {
            "command": "nogo-verify",
            "version": 1,
            "variant": "small",
            "modes": 4,
            "p_max": 0.3,
            "trials": 10,
        },
    )
    assert code == 2
    assert not out.exists()


def test_nogo_verify_patterns(tmp_path):
    code, out = run(
        tmp_path,
        "nogo-verify",
        {
            "command": "nogo-verify",
            "version": 1,
            "variant": "patterns",
            "modes": 4,
            "p_max": 0.25,
            "trials": 8,
            "seed": 3,
        },
    )
    assert code == 0
    data = json.loads(out.read_text())
    assert data["kind"] == "nogo-patterns"
    assert data["verdict"] == "none found"


def test_search_finds_improvement(tmp_path):
    code, out = run(
        tmp_path,
        "search",
        {
            "command": "search",
            "version": 1,
            "modes": 4,
            "p_max": 0.2,
            "trials": 5,
            "refine_iters": 10,
            "seed": 2,
        },
    )
    assert code == 0
    data = json.loads(out.read_text())
    assert data["verdict"] == "improvement found"
    assert data["best_value"] > 0.2
    assert data["budget"] == {"trials": 5, "refine_iters": 10}


def test_search_seed_flag_overrides_config(tmp_path):
    cfg = {
        "command": "search",
        "version": 1,
        "modes": 3,
        "p_max": 0.3,
        "trials": 4,
        "refine_iters": 0,
        "seed": 1,
    }
    code, out1 = run(tmp_path, "search", cfg, name="a")
    assert code == 0
    code, out2 = run(tmp_path, "search", cfg, extra_args=("--seed", "99"), name="b")
    assert code == 0
    d1, d2 = json.loads(out1.read_text()), json.loads(out2.read_text())
    assert d1["seed"] == 1
    assert d2["seed"] == 99


def test_search_with_bound_violations_exits_4_and_writes_nothing(
    tmp_path, capsys, monkeypatch
):
    real = photonpost.cli.search_improvement
    monkeypatch.setattr(
        photonpost.cli,
        "search_improvement",
        lambda task: dataclasses.replace(real(task), bound_violations=4),
    )
    cfg = {"command": "search", "version": 1, "modes": 3, "p_max": 0.3, "trials": 4,
           "refine_iters": 0, "seed": 1}
    code, out = run(tmp_path, "search", cfg)
    assert code == 4
    assert not out.exists()
    assert "4 ratio-bound violation(s)" in capsys.readouterr().err


def test_search_reads_cancellation_dust_as_an_impossible_pattern(tmp_path):
    """At 5 modes pattern (0, 2, 1, 1) has probability ~1e-40, all of it
    roundoff.  It used to score an infinite ratio and count 4 violations
    (exit 4); as dust it counts as probability 0, and the best is the
    chain's D = 3 pattern at ratio_in 1.5 times its gain 1.5."""
    cfg = {"command": "search", "version": 1, "modes": 5, "p_max": 0.6, "objective": "ratio",
           "trials": 0, "refine_iters": 10, "seed": 1}
    code, out = run(tmp_path, "search", cfg)
    assert code == 0
    data = json.loads(out.read_text())
    assert data["bound_violations"] == 0
    assert data["best_pattern"] == [3, 0, 0, 0]
    assert data["best_value"] == 2.2499961250005223


def test_nogo_verify_with_bound_violations_exits_4_and_writes_nothing(
    tmp_path, capsys, monkeypatch
):
    real = photonpost.cli.verify_nogo_patterns
    monkeypatch.setattr(
        photonpost.cli,
        "verify_nogo_patterns",
        lambda *args: dataclasses.replace(real(*args), bound_violations=2),
    )
    cfg = {
        "command": "nogo-verify",
        "version": 1,
        "variant": "patterns",
        "modes": 3,
        "p_max": 0.3,
        "trials": 4,
    }
    code, out = run(tmp_path, "nogo-verify", cfg)
    assert code == 4
    assert not out.exists()
    assert "2 ratio-bound violation(s)" in capsys.readouterr().err


_SCIPY_MODULES = "sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.'))"


def test_package_and_cli_search_do_not_load_scipy(tmp_path):
    """The package runs on numpy alone: neither importing it nor a CLI
    search or small no-go check (both refine with the built-in
    Nelder-Mead) loads scipy."""
    configs = [
        write_config(
            tmp_path / "search.json",
            {"command": "search", "version": 1, "modes": 3, "p_max": 0.3, "trials": 4,
             "refine_iters": 5, "seed": 1},
        ),
        write_config(
            tmp_path / "nogo.json",
            {"command": "nogo-verify", "version": 1, "variant": "small", "modes": 3,
             "p_max": 0.2, "trials": 4, "refine_iters": 5, "seed": 1},
        ),
    ]
    script = "import sys\nimport photonpost, photonpost.cli\n" f"print({_SCIPY_MODULES})\n"
    for command, cfg in zip(("search", "nogo-verify"), configs):
        out = str(tmp_path / f"{command}.out.json")
        script += (
            f"code = photonpost.cli.main([{command!r}, '--config', {cfg!r}, '--out', {out!r}])\n"
            f"print(code, {_SCIPY_MODULES})\n"
        )
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
    )
    assert done.stdout.splitlines() == ["[]", "0 []", "0 []"]


def _benchmark_jobs(monkeypatch):
    """Each benchmark workload's job at its measured size, as
    perfbench/workloads.py builds it."""
    path = os.path.join(os.path.dirname(__file__), "..", "perfbench", "workloads.py")
    spec = importlib.util.spec_from_file_location("workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, "workloads", workloads)  # for its dataclass
    spec.loader.exec_module(workloads)
    return {name: make(101, "full") for name, make in workloads.WORKLOADS.items()}


def test_a_cli_job_loads_no_argument_parser(tmp_path, monkeypatch):
    """A chain-sweep job, and each benchmark job with the argv its Job.argv
    builds (--threads included), is read without argparse, so neither
    argparse nor the gettext and locale modules its messages pull in are
    loaded; and `python -m photonpost.cli` with no arguments reads sys.argv
    and refuses it with the usage line."""
    cfg = write_config(tmp_path / "chain.json", chain_config(epsilon_grid={"values": [0.3, 0.1]}))
    argvs = [["chain-sweep", "--config", cfg, "--out", str(tmp_path / "chain.csv")]]
    for name, job in _benchmark_jobs(monkeypatch).items():
        path = write_config(tmp_path / f"{name}.json", job.config)
        argvs.append(job.argv(path, str(tmp_path / f"{name}.out")))
    assert len(argvs) == 4 and all("--threads" in argv for argv in argvs[1:])
    script = (
        "import sys\nimport photonpost.cli\n"
        f"for argv in {argvs!r}:\n"
        "    code = photonpost.cli.main(argv)\n"
        "    print(code, [m for m in ('argparse', 'gettext', 'locale') if m in sys.modules])\n"
    )
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
    )
    assert done.stdout.splitlines() == ["0 []"] * len(argvs)
    done = subprocess.run(
        [sys.executable, "-m", "photonpost.cli"], env=env, capture_output=True, text=True
    )
    assert done.returncode == 2
    assert done.stdout == ""
    assert done.stderr.splitlines() == [
        "usage: photonpost [-h] COMMAND --config PATH --out PATH [--seed N] [--threads N]",
        "photonpost: error: the following arguments are required: command, --config, --out",
    ]


# determinism and threading ------------------------------------------------------


def test_reruns_are_byte_identical(tmp_path):
    cfg = exp_config("+darkcounts", [0.03, 0.1, 0.3])
    _, out1 = run(tmp_path, "exp-sweep", cfg, name="one")
    _, out2 = run(tmp_path, "exp-sweep", cfg, name="two")
    assert out1.read_bytes() == out2.read_bytes()

    scfg = {
        "command": "search",
        "version": 1,
        "modes": 3,
        "p_max": 0.2,
        "trials": 6,
        "refine_iters": 8,
        "seed": 5,
    }
    _, s1 = run(tmp_path, "search", scfg, name="s1")
    _, s2 = run(tmp_path, "search", scfg, name="s2")
    assert s1.read_bytes() == s2.read_bytes()


def test_threads_do_not_change_output(tmp_path):
    cfg = {
        "command": "pure-landscape",
        "version": 1,
        "theta_grid": {"start": 0.1, "stop": 1.5, "count": 7},
        "phi_grid": {"start": 0.0, "stop": 3.0, "count": 5},
        "beta_mag": 1.0,
    }
    _, single = run(tmp_path, "pure-landscape", cfg, ("--threads", "1"), name="t1")
    _, multi = run(tmp_path, "pure-landscape", cfg, ("--threads", "3"), name="t3")
    assert single.read_bytes() == multi.read_bytes()


def test_threads_env_variable(tmp_path, monkeypatch):
    cfg = exp_config("ideal", [0.1, 0.2])
    code, out = run(tmp_path, "exp-sweep", cfg, name="env")
    assert code == 0
    monkeypatch.setenv("PHOTON_THREADS", "not-a-number")
    code, ignored = run(tmp_path, "exp-sweep", cfg, name="envbad")
    assert code == 0
    assert ignored.read_bytes() == out.read_bytes()


# error handling ---------------------------------------------------------------


def simulate_config(**overrides):
    cfg = {
        "command": "simulate",
        "version": 1,
        "modes": 2,
        "inputs": [0.2, 0.2],
        "interferometer": {"type": "beam_splitter", "theta": 0.5},
        "pattern": [0],
    }
    cfg.update(overrides)
    return cfg


@pytest.mark.parametrize(
    "command, config, field, noun",
    [
        ("simulate", simulate_config(modes=2.0), "modes", "an integer"),
        ("chain-sweep", {"command": "chain-sweep", "version": 1, "modes": 4, "p": True,
                         "epsilon_grid": {"values": [0.1]}}, "p", "a number"),
        ("search", {"command": "search", "version": 1, "modes": 3, "p_max": 0.2, "trials": 1,
                    "include_chain_seed": 1}, "include_chain_seed", "a boolean"),
        ("exp-sweep", exp_config(3, [0.1]), "scenario", "a string"),
        ("simulate", simulate_config(inputs={"0": 1.0}), "inputs", "an array"),
        ("simulate", simulate_config(interferometer=[0.5]), "interferometer", "an object"),
    ],
    ids=["int", "float", "bool", "str", "list", "dict"],
)
def test_field_of_wrong_kind_is_named(tmp_path, capsys, command, config, field, noun):
    code, out = run(tmp_path, command, config)
    assert code == 2
    assert not out.exists()
    assert f"field {field!r} must be {noun}" in capsys.readouterr().err


def test_unknown_field_is_named(tmp_path, capsys):
    """Also refine_iters under nogo-verify's patterns variant, which does
    not refine, and two_photon_prob under an exp-sweep scenario whose
    sources emit no pairs."""
    patterns = {"command": "nogo-verify", "version": 1, "variant": "patterns", "modes": 3,
                "p_max": 0.3, "trials": 2, "refine_iters": 5}
    for command, cfg, field in (
        ("simulate", simulate_config(typo_field=1), "typo_field"),
        ("nogo-verify", patterns, "refine_iters"),
        ("exp-sweep", exp_config("bucket", [0.1], two_photon_prob=-5.0), "two_photon_prob"),
    ):
        code, out = run(tmp_path, command, cfg)
        assert code == 2
        assert not out.exists()
        err = capsys.readouterr().err
        assert "config error" in err
        assert f"unknown field(s) {field!r}" in err


def test_command_mismatch(tmp_path):
    code, _ = run(tmp_path, "simulate", simulate_config(command="search"))
    assert code == 2


def test_bad_version(tmp_path):
    code, _ = run(tmp_path, "simulate", simulate_config(version=7))
    assert code == 2


def test_missing_config_file(tmp_path):
    out = tmp_path / "x.json"
    code = main(["simulate", "--config", str(tmp_path / "nope.json"), "--out", str(out)])
    assert code == 2


def test_invalid_json_config(tmp_path):
    cfg = tmp_path / "broken.json"
    cfg.write_text("{not json")
    code = main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert code == 2


@pytest.mark.parametrize(
    "make, reason",
    [
        (lambda path: path.mkdir(), "Is a directory"),
        (lambda path: path.write_bytes(b'{"command": "simulate", "note": "\xff"}'), "not UTF-8"),
    ],
    ids=["directory", "not-utf8"],
)
def test_unreadable_config_is_a_config_error(tmp_path, capsys, make, reason):
    cfg = tmp_path / "cfg.json"
    make(cfg)
    out = tmp_path / "o.json"
    code = main(["simulate", "--config", str(cfg), "--out", str(out)])
    assert code == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and str(cfg) in err and reason in err


def test_a_config_nested_too_deeply_is_a_config_error(tmp_path, capsys):
    """JSON nested past the parser's recursion limit exits 2 naming the file,
    not 1 with a RecursionError traceback."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text("[" * 100_000)
    out = tmp_path / "o.json"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 2
    assert not out.exists()
    assert capsys.readouterr().err == f"config error: config file {cfg} nests too deeply to parse\n"


class _FailingFile:
    """A file whose write stores half the text, then fails as a full disk would."""

    def __init__(self, fh):
        self.fh = fh

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def write(self, text):
        self.fh.write(text[: len(text) // 2])
        raise OSError(28, "No space left on device")


@pytest.mark.parametrize("where", ["missing-directory", "write-fails"])
def test_unwritable_out_exits_2_and_leaves_no_file(tmp_path, capsys, monkeypatch, where):
    out = tmp_path / "o.csv"
    if where == "missing-directory":
        out = tmp_path / "missing" / "o.csv"
    else:
        def failing_open(path, mode="r", **kwargs):
            fh = open(path, mode, **kwargs)
            return _FailingFile(fh) if "w" in mode else fh

        monkeypatch.setattr(photonpost.cli, "open", failing_open, raising=False)
    code, _ = run(tmp_path, "chain-sweep", chain_config(), ("--out", str(out)))
    assert code == 2
    assert not out.exists()
    reason = "No such file or directory" if where == "missing-directory" else "No space left"
    err = capsys.readouterr().err
    assert err.startswith(f"config error: cannot write output file {out}: {reason}")


def test_wrong_pattern_length(tmp_path):
    code, _ = run(tmp_path, "simulate", simulate_config(pattern=[0, 0]))
    assert code == 2


def test_bad_scenario_name(tmp_path):
    code, out = run(tmp_path, "exp-sweep", exp_config("perfect", [0.1]))
    assert code == 2
    assert not out.exists()


def chain_config(**overrides):
    cfg = {
        "command": "chain-sweep",
        "version": 1,
        "modes": 4,
        "p": 0.2,
        "epsilon_grid": {"values": [0.1]},
    }
    cfg.update(overrides)
    return cfg


def nogo_config(**overrides):
    cfg = {
        "command": "nogo-verify",
        "version": 1,
        "variant": "small",
        "modes": 2,
        "p_max": 0.3,
        "trials": 2,
        "refine_iters": 2,
    }
    cfg.update(overrides)
    return cfg


def landscape_config(theta_values, phi_values=(math.pi,), beta_mag=1.0):
    return {
        "command": "pure-landscape",
        "version": 1,
        "theta_grid": {"values": list(theta_values)},
        "phi_grid": {"values": list(phi_values)},
        "beta_mag": beta_mag,
    }


SEARCH_CONFIG = {"command": "search", "version": 1, "modes": 3, "p_max": 0.2, "trials": 2}


@pytest.mark.parametrize(
    "command, config, extra_args",
    [
        ("chain-sweep", chain_config(modes=2), ()),
        ("chain-sweep", chain_config(epsilon_grid={"values": [0.0]}), ()),
        ("chain-sweep", chain_config(epsilon_grid={"values": [0.1, 1.0]}), ()),
        ("chain-sweep", chain_config(epsilon_grid={"values": [-0.5]}), ()),
        ("exp-sweep", exp_config("ideal", [0.1], modes=2, detected=1), ()),
        ("exp-sweep", exp_config("+two-photon-inputs", [0.1], two_photon_prob=0.0), ()),
        ("exp-sweep", exp_config("+two-photon-inputs", [0.1], two_photon_prob=0.9), ()),
        ("exp-sweep", exp_config("ideal", [0.1, 1.0]), ()),
        ("nogo-verify", nogo_config(modes=1), ()),
        ("nogo-verify", nogo_config(modes=1, variant="patterns"), ()),
        ("nogo-verify", nogo_config(p_max=0.0), ()),
        ("nogo-verify", nogo_config(p_max=1.0, variant="patterns"), ()),
        ("pure-landscape", landscape_config([math.pi / 4], beta_mag=1.5), ()),
        ("simulate", simulate_config(inputs=[{"0": 1.0, "1": math.nan}, 0.2]), ()),
        (
            "simulate",
            simulate_config(interferometer={"type": "beam_splitter", "theta": math.inf}),
            (),
        ),
        (
            "simulate",
            simulate_config(interferometer={"type": "beam_splitter", "theta": 0.5, "phi": math.nan}),
            (),
        ),
        ("pure-landscape", landscape_config([0.3, math.inf]), ()),
        ("pure-landscape", landscape_config([math.nan]), ()),
        ("pure-landscape", landscape_config([0.3], [math.nan]), ()),
        ("search", {**SEARCH_CONFIG, "seed": -1}, ()),
        ("search", SEARCH_CONFIG, ("--seed", "-1")),
        ("search", {**SEARCH_CONFIG, "include_chain_seed": False, "chain_epsilon": math.nan}, ()),
        ("search", {**SEARCH_CONFIG, "modes": 2, "chain_epsilon": 2.0}, ()),
        ("nogo-verify", nogo_config(seed=-1), ()),
        ("nogo-verify", nogo_config(variant="patterns", modes=3), ("--seed", "-1")),
        (
            "simulate",
            simulate_config(modes=3, inputs=[0.2] * 3, pattern=[0, 0],
                            interferometer={"type": "haar", "seed": -3}),
            (),
        ),
    ],
    ids=[
        "chain-2-modes",
        "chain-eps-0",
        "chain-eps-1",
        "chain-eps-negative",
        "exp-2-modes",
        "exp-no-pairs",
        "exp-pairs-too-likely",
        "exp-eps-1",
        "small-1-mode",
        "patterns-1-mode",
        "small-p-max-0",
        "patterns-p-max-1",
        "landscape-beta-1.5",
        "simulate-nan-input",
        "simulate-infinite-theta",
        "simulate-nan-phi",
        "landscape-infinite-theta",
        "landscape-nan-theta",
        "landscape-nan-phi",
        "search-negative-seed",
        "search-negative-seed-flag",
        "search-nan-epsilon-no-chain-seed",
        "search-2-modes-epsilon-2",
        "small-negative-seed",
        "patterns-negative-seed-flag",
        "simulate-haar-negative-seed",
    ],
)
def test_out_of_range_parameters_are_config_errors(
    tmp_path, capsys, command, config, extra_args
):
    code, out = run(tmp_path, command, config, extra_args)
    assert code == 2
    assert not out.exists()
    assert "config error" in capsys.readouterr().err


def test_search_at_forty_modes_is_a_prompt_dimension_error(tmp_path):
    """The engine basis refuses 40 modes before any pattern is enumerated."""
    cfg = write_config(
        tmp_path / "search.json",
        {"command": "search", "version": 1, "modes": 40, "p_max": 0.3,
         "trials": 10, "refine_iters": 5, "seed": 1},
    )
    out = tmp_path / "search.out"
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    done = subprocess.run(
        [sys.executable, "-m", "photonpost.cli", "search", "--config", cfg, "--out", str(out)],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=5,
    )
    assert done.returncode == 3
    assert "dimension error" in done.stderr
    assert not out.exists()


def test_non_unitary_matrix_is_dimension_error(tmp_path):
    rows = [
        [{"re": 1.0, "im": 0.0}, {"re": 0.5, "im": 0.0}],
        [{"re": 0.0, "im": 0.0}, {"re": 1.0, "im": 0.0}],
    ]
    code, _ = run(
        tmp_path,
        "simulate",
        simulate_config(interferometer={"type": "matrix", "matrix": rows}),
    )
    assert code == 3


def test_matrix_size_mismatch_is_dimension_error(tmp_path, capsys):
    rows = [
        [{"re": 1.0, "im": 0.0}, {"re": 0.0, "im": 0.0}],
        [{"re": 0.0, "im": 0.0}, {"re": 1.0, "im": 0.0}],
    ]
    cfg = simulate_config(
        modes=3,
        inputs=[0.1, 0.1, 0.1],
        pattern=[0, 0],
        interferometer={"type": "matrix", "matrix": rows},
    )
    code, _ = run(tmp_path, "simulate", cfg)
    assert code == 3
    assert "dimension error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "entry, named",
    [
        ({"-1": 0.5, "0": 0.5}, "'-1'"),
        ({"1": 0.5, "01": 0.5}, "'01'"),
        ({"0": 0.5, "1_0": 0.5}, "'1_0'"),
        ({"0": 0.5, " 1": 0.5}, "' 1'"),
    ],
    ids=["negative", "repeated", "underscore", "space"],
)
def test_bad_photon_count_key_is_config_error(tmp_path, capsys, entry, named):
    code, out = run(tmp_path, "simulate", simulate_config(inputs=[entry, 0.2]))
    assert code == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert "inputs[0]" in err and named in err


@pytest.mark.parametrize(
    "matrix, named",
    [
        ([[1, 0], [0, 1]], "matrix[0][0]"),
        ([[{"re": 1.0, "im": 0.0}, {"re": 0.0}], [1, 0]], "matrix[0][1]"),
        ([[{"re": 1.0, "im": 0.0}, {"re": 0.0, "im": 0.0}], 7], "matrix[1]"),
    ],
    ids=["plain-numbers", "missing-im", "row-not-array"],
)
def test_malformed_matrix_entries_are_config_error(tmp_path, capsys, matrix, named):
    cfg = simulate_config(interferometer={"type": "matrix", "matrix": matrix})
    code, out = run(tmp_path, "simulate", cfg)
    assert code == 2
    assert not out.exists()
    assert named in capsys.readouterr().err
