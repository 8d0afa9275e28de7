"""The CLI on the configs users see: README's examples and the benchmark jobs.

Every ```json block under README's "Command line" must run, rerun byte for
byte and use only fields `cli.FIELDS` declares.  A Hypothesis fuzzer then
mutates one or two fields of those configs and of the benchmark jobs'
(nested fields and list entries included) and requires an exit code in
{0, 2, 3, 4}, one stderr line on a refusal, and a refusal at exit 2 or 3
within 1 s and 100 MB.  Everything runs in process through `cli.main`.
"""

import contextlib
import copy
import functools
import io
import json
import math
import operator
import pathlib
import re
import time
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from photonpost import cli
from test_cli import _benchmark_jobs

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"
MUTANTS = [None, True, -1, 0, 0.5, 1e308, math.inf, -math.inf, math.nan, "x", [], {},
           10**30, 2**63, [[1]], -1e-300]
DELETE = object()


def readme_configs() -> list[dict]:
    """Every ```json block under README's "Command line" heading."""
    section = README.read_text(encoding="utf-8").split("\n## Command line\n", 1)[1]
    section = section.split("\n## ", 1)[0]
    return [json.loads(block) for block in re.findall(r"```json\n(.*?)```", section, re.S)]


def run_cli(directory: pathlib.Path, command: str, config: dict, name: str):
    """(exit code, stderr, output path) of one in-process run."""
    path = directory / f"{name}.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    out = directory / f"{name}.out"
    out.unlink(missing_ok=True)
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = cli.main([command, "--config", str(path), "--out", str(out)])
    return code, err.getvalue(), out


def undeclared(table, config: dict) -> set:
    """The fields of config, nested objects included, that table does not
    declare, counting those its selector values add."""
    table, declared, extra = list(table), set(), set()
    for name, kind, default, *adds in table:
        declared.add(name)
        if adds:
            table += adds[0].get(config.get(name, default), ())
    for name, value in config.items():
        if name not in declared:
            extra.add(name)
        elif isinstance(value, dict):  # the interferometer or a grid
            grid = "values grid" if "values" in value else "grid"
            nested = cli.FIELDS["interferometer" if name == "interferometer" else grid]
            extra |= {f"{name}.{f}" for f in undeclared(nested, value)}
    return extra


def test_readme_configs_run_and_rerun_byte_identical(tmp_path):
    configs = readme_configs()
    assert sorted(cfg["command"] for cfg in configs) == sorted(cli.COMMANDS)
    for cfg in configs:
        command = cfg["command"]
        assert undeclared(cli.FIELDS[command], cfg) == set(), command
        first = run_cli(tmp_path, command, cfg, "first")
        assert first[:2] == (0, ""), (command, first[1])
        second = run_cli(tmp_path, command, cfg, "second")
        assert second[:2] == (0, "")
        assert first[2].read_bytes() == second[2].read_bytes(), command


@pytest.fixture(scope="module")
def seed_configs():
    """README's configs and the benchmark jobs', their trial, iteration and
    grid counts cut to at most 20."""
    with pytest.MonkeyPatch.context() as patch:
        jobs = _benchmark_jobs(patch)
    configs = readme_configs() + [job.config for job in jobs.values()]
    shrunk = []
    for cfg in map(copy.deepcopy, configs):
        for name in ("trials", "refine_iters"):
            if name in cfg:
                cfg[name] = min(cfg[name], 20)
        for grid in cfg.values():
            if isinstance(grid, dict) and "count" in grid:
                grid["count"] = min(grid["count"], 20)
        shrunk.append(cfg)
    return shrunk


def paths(value, path=()):
    """The path of every field and list entry in value, nested ones included."""
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        return
    for key, child in items:
        yield path + (key,)
        yield from paths(child, path + (key,))


def mutate(config: dict, path: tuple, value) -> None:
    """Set the field or entry at path to value, or delete it; a path that an
    earlier mutation took away is left alone."""
    *parents, key = path
    with contextlib.suppress(KeyError, IndexError, TypeError):
        parent = functools.reduce(operator.getitem, parents, config)
        if isinstance(parent, (dict, list)):
            if value is DELETE:
                del parent[key]
            else:
                parent[key] = copy.deepcopy(value)


# np.linspace warns on an infinite or NaN endpoint before the library refuses it
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_a_mutated_config_exits_0_2_3_or_4_and_refuses_promptly(
    seed_configs, tmp_path_factory, data
):
    config = copy.deepcopy(data.draw(st.sampled_from(seed_configs), label="config"))
    command = config["command"]
    where = data.draw(st.lists(st.sampled_from(list(paths(config))), min_size=1, max_size=2,
                               unique=True), label="paths")
    for path in where:
        mutate(config, path, data.draw(st.sampled_from(MUTANTS + [DELETE]), label=str(path)))
    directory = tmp_path_factory.mktemp("fuzz", numbered=True)

    start = time.perf_counter()
    code, err, out = run_cli(directory, command, config, "job")
    seconds = time.perf_counter() - start
    assert code in (0, 2, 3, 4), err
    if code == 0:
        return
    assert err.endswith("\n") and err.count("\n") == 1, err
    assert not out.exists()
    if code in (2, 3):
        assert seconds < 1.0, (seconds, err)
        tracemalloc.start()
        try:
            assert run_cli(directory, command, config, "traced")[:2] == (code, err)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 100e6, (peak, err)
