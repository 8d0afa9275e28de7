"""Command line front end.

    photonpost COMMAND --config PATH --out PATH [--seed N] [--threads N]

Every command reads a JSON config, whose fields, kinds, defaults and
trial and iteration ceilings `FIELDS` declares, writes one output file
(JSON or CSV), and returns exit code 0 on success; 2 for usage errors,
for config problems and for a config that cannot be read or an output
that cannot be written; 3 for dimension problems; 4 when a numerical
check fails: a search or verification whose report counts ratio-bound
violations, or a pattern probability above 1, writes no output.  Argparse
reads any argv not of the shape above, each option spelt in full, and
prints the help (exit 0) or the usage line and "photonpost: error:"
(exit 2).  Rerunning a command with the same config and seed reproduces
its output byte for byte; CSV floats carry 17 significant digits so
values survive a round trip.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import stat
import sys

import numpy as np

from .conditioner import DetectionPattern, condition_mixed
from .errors import (
    BadModeIndex,
    ConfigError,
    DegenerateTheta,
    DimensionMismatch,
    DimensionTooLarge,
    NotUnitary,
    PhotonPostError,
)
from .fock import InputSpec
from .interferometer import Interferometer, beam_splitter, haar_random
from .merit import BOUND_SLACK, figures_of_merit, ratio_breaches
from .schemes import (
    build_chain,
    build_chain_from_elements,
    chain_asymptotics,
    pure_success_probability,
    run_chain,
)
from .search import (
    SearchTask,
    search_improvement,
    verify_nogo_patterns,
    verify_nogo_small,
)

CONFIG_VERSION = 1
# each grid point is at least a 32-byte float in a list, so no grid above
# 2^43 points fits a 48-bit (256 TiB) address space; trial counts meet the
# same ceiling (each trial's seed is a Python int in a list), and so do
# refinement iterations, which at a microsecond or more each would run
# for over three months
MAX_GRID = 1 << 43

DIMENSION_ERRORS = (DimensionMismatch, DimensionTooLarge, BadModeIndex, NotUnitary)


def fmt(x: float) -> str:
    """17 significant digits, enough to reconstruct the double exactly."""
    return f"{float(x):.17g}"


# ---------------------------------------------------------------------------
# config plumbing


def _is_number(value) -> bool:
    """A JSON number: int or float, not bool."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _is_int(value) -> bool:
    """A JSON integer, not bool."""
    return isinstance(value, int) and not isinstance(value, bool)


# A config field is (name, kind, default) or (name, kind, default, adds), where
# adds maps a value of the field to the fields it brings in, read after the rest.
REQUIRED = object()  # default: the field must be present
COUNT = object()  # kind: an integer, refused past MAX_GRID before any allocation

# config field kind -> (accepts a JSON value, noun for the error message)
_KINDS = {
    float: (_is_number, "a number"),
    int: (_is_int, "an integer"),
    COUNT: (_is_int, "an integer"),
    bool: (lambda v: isinstance(v, bool), "a boolean"),
    str: (lambda v: isinstance(v, str), "a string"),
    list: (lambda v: isinstance(v, list), "an array"),
    dict: (lambda v: isinstance(v, dict), "an object"),
}

_HEADER = (("command", str, REQUIRED), ("version", int, REQUIRED))
_CHAIN = _HEADER + (("modes", int, REQUIRED), ("p", float, REQUIRED),
                    ("detected", int, None),  # None: ceil(modes / 2)
                    ("epsilon_grid", dict, REQUIRED))
_SMALL = {"small": (("refine_iters", COUNT, 80),)}  # the patterns variant does not refine
_PAIRS = {"+two-photon-inputs": (("two_photon_prob", float, 0.001),)}

# Every config field: one table per command and per nested object.
FIELDS = {
    "simulate": _HEADER + (("modes", int, REQUIRED), ("inputs", list, REQUIRED),
                           ("interferometer", dict, REQUIRED), ("pattern", list, REQUIRED)),
    "pure-landscape": _HEADER + (("theta_grid", dict, REQUIRED), ("phi_grid", dict, REQUIRED),
                                 ("beta_mag", float, REQUIRED)),
    "chain-sweep": _CHAIN,
    "exp-sweep": _CHAIN + (("scenario", str, REQUIRED, _PAIRS),),
    "nogo-verify": _HEADER + (("variant", str, REQUIRED, _SMALL), ("modes", int, REQUIRED),
                              ("p_max", float, REQUIRED), ("trials", COUNT, REQUIRED),
                              ("seed", int, 0)),
    "search": _HEADER + (("modes", int, REQUIRED), ("p_max", float, REQUIRED),
                         ("objective", str, "single_photon"), ("trials", COUNT, REQUIRED),
                         ("refine_iters", COUNT, 200), ("seed", int, 0),
                         ("include_chain_seed", bool, True), ("chain_epsilon", float, 1e-3)),
    "interferometer": (("type", str, REQUIRED, {
        "beam_splitter": (("theta", float, REQUIRED), ("phi", float, 0.0)),
        "chain": (("epsilon", float, REQUIRED),),
        "chain_elements": (("epsilon", float, REQUIRED),),
        "haar": (("seed", int, REQUIRED),),
        "matrix": (("matrix", list, REQUIRED),),
    }),),
    "grid": (("start", float, REQUIRED), ("stop", float, REQUIRED), ("count", int, REQUIRED),
             ("spacing", str, "linear")),
    "values grid": (("values", list, REQUIRED),),
}


def _fields(data, table, where: str) -> dict:
    """The fields table declares, read from the JSON object data in order:
    kinds checked, floats made float, defaults filled, and a missing
    required field or any field table does not declare named."""
    if not isinstance(data, dict):
        raise ConfigError(f"{where} must be a JSON object")
    cfg = {}
    table = list(table)
    for name, kind, default, *adds in table:  # a selector's adds extend table
        value = data.get(name, default)
        if value is REQUIRED:
            raise ConfigError(f"{where}: missing required field {name!r}")
        accepts, noun = _KINDS[kind]
        if name in data and not accepts(value):
            raise ConfigError(f"{where}: field {name!r} must be {noun}")
        if kind is COUNT and value > MAX_GRID:
            raise ConfigError(f"field {name!r} is {value}, above the ceiling of {MAX_GRID}")
        cfg[name] = float(value) if kind is float else value
        if adds:
            table += adds[0].get(value, ())
    extra = sorted(set(data) - set(cfg))
    if extra:
        raise ConfigError(f"{where}: unknown field(s) {', '.join(repr(f) for f in extra)}")
    return cfg


def _load_config(path: str, command: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc.strerror or exc}")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config file {path} is not UTF-8: {exc}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}")
    except RecursionError:
        raise ConfigError(f"config file {path} nests too deeply to parse")
    # checked first, as another command's fields would otherwise be named
    declared = data.get("command") if isinstance(data, dict) else None
    if isinstance(declared, str) and declared != command:
        raise ConfigError(f"config declares command {declared!r} but {command!r} was invoked")
    cfg = _fields(data, FIELDS[command], "config")
    if cfg["version"] != CONFIG_VERSION:
        raise ConfigError(f"unsupported config version {cfg['version']}, expected {CONFIG_VERSION}")
    return cfg


def _parse_inputs(raw: list, n_modes: int) -> InputSpec:
    if len(raw) != n_modes:
        raise ConfigError(
            f"field 'inputs' must list {n_modes} entries (one per mode), got {len(raw)}"
        )
    dists = []
    for i, entry in enumerate(raw):
        if _is_number(entry):
            p = float(entry)
            if not (0.0 <= p <= 1.0):
                raise ConfigError(f"inputs[{i}]: probability {p} outside [0, 1]")
            dists.append({0: 1.0 - p, 1: p})
        elif isinstance(entry, dict):
            dist = {}
            for key, prob in entry.items():
                # int() alone would also read "1_0" as 10 and " 1" as 1
                if not (key.isascii() and key.isdigit()):
                    raise ConfigError(
                        f"inputs[{i}]: photon count key {key!r} is not a non-negative integer"
                    )
                count = int(key)
                if count in dist:
                    raise ConfigError(f"inputs[{i}]: photon count key {key!r} is repeated")
                if not _is_number(prob):
                    raise ConfigError(f"inputs[{i}][{key!r}] must be a number")
                dist[count] = float(prob)
            dists.append(dist)
        else:
            raise ConfigError(f"inputs[{i}] must be a number or an object")
    return InputSpec(tuple(dists))


def _parse_interferometer(raw: dict, n_modes: int, where: str) -> Interferometer:
    cfg = _fields(raw, FIELDS["interferometer"], where)
    kind = cfg["type"]
    if kind == "beam_splitter":
        if n_modes != 2:
            raise ConfigError(f"{where}: a beam splitter needs exactly 2 modes")
        return beam_splitter(cfg["theta"], cfg["phi"])
    if kind in ("chain", "chain_elements"):
        build = build_chain if kind == "chain" else build_chain_from_elements
        return build(n_modes, cfg["epsilon"]).interferometer
    if kind == "haar":
        return haar_random(n_modes, cfg["seed"])
    if kind == "matrix":
        rows = cfg["matrix"]
        return Interferometer.from_json_dict({"n_modes": len(rows), "matrix": rows})
    types = ", ".join(map(repr, FIELDS["interferometer"][0][3]))
    raise ConfigError(f"{where}: unknown interferometer type {kind!r}; expected one of {types}")


def _parse_grid(raw: dict, where: str) -> list[float]:
    if "values" in raw:
        values = _fields(raw, FIELDS["values grid"], where)["values"]
        for i, v in enumerate(values):
            if not _is_number(v):
                raise ConfigError(f"{where}: values[{i}] must be a number")
        if not values:
            raise ConfigError(f"{where}: values must not be empty")
        return [float(v) for v in values]
    start, stop, count, spacing = _fields(raw, FIELDS["grid"], where).values()
    if count < 1:
        raise ConfigError(f"{where}: count must be at least 1")
    if count > MAX_GRID:
        raise ConfigError(f"{where}: count {count} exceeds {MAX_GRID} points")
    if spacing == "linear":
        return [float(x) for x in np.linspace(start, stop, count)]
    if spacing == "log":
        if start <= 0 or stop <= 0:
            raise ConfigError(f"{where}: log spacing needs positive endpoints")
        return [float(x) for x in np.geomspace(start, stop, count)]
    raise ConfigError(f"{where}: spacing must be 'linear' or 'log', got {spacing!r}")


def _write_text(path: str, text: str):
    """Write the output file, or raise ConfigError and leave no partial file."""
    fh = None
    try:
        fh = open(path, "w", encoding="utf-8", newline="")
        with fh:
            fh.write(text)
    except OSError as exc:
        # remove only a regular file this call truncated, never a device or link
        if fh is not None and stat.S_ISREG(os.lstat(path).st_mode):
            os.remove(path)
        raise ConfigError(f"cannot write output file {path}: {exc.strerror or exc}")


def _write_json(path: str, obj):
    _write_text(path, json.dumps(obj, indent=2, sort_keys=True) + "\n")


def _refuse(path: str, reason: str) -> int:
    """Exit 4 for output that fails a numerical check, writing nothing."""
    print(f"numerical check failed: {reason}; {path} not written", file=sys.stderr)
    return 4


def _write_report(path: str, report) -> int:
    """Write a search report, or nothing (exit 4) if it breaks the ratio bound."""
    if report.bound_violations > 0:
        return _refuse(path, f"{report.bound_violations} ratio-bound violation(s)")
    _write_json(path, report.to_json_dict())
    return 0


# ---------------------------------------------------------------------------
# commands


def _cmd_simulate(cfg: dict, out: str, seed) -> int:
    n_modes = cfg["modes"]
    if n_modes < 2:
        raise ConfigError("field 'modes' must be at least 2")
    spec = _parse_inputs(cfg["inputs"], n_modes)
    interf = _parse_interferometer(cfg["interferometer"], n_modes, "interferometer")
    raw_pattern = cfg["pattern"]
    if len(raw_pattern) != n_modes - 1:
        raise ConfigError(
            f"field 'pattern' must list {n_modes - 1} detector counts, got {len(raw_pattern)}"
        )
    for i, c in enumerate(raw_pattern):
        if not _is_int(c) or c < 0:
            raise ConfigError(f"pattern[{i}] must be a non-negative integer")
    pattern = DetectionPattern(tuple(raw_pattern))

    result = condition_mixed(spec, interf, pattern)
    if result.pattern_probability > 1.0 + BOUND_SLACK:
        return _refuse(out, f"pattern probability {result.pattern_probability:.3g} exceeds 1")
    payload = {
        "command": "simulate",
        "version": CONFIG_VERSION,
        "modes": n_modes,
        "pattern": list(pattern.counts),
        "pattern_probability": result.pattern_probability,
        "zero_probability": result.zero_probability,
        "unnormalized": [float(x) for x in result.unnormalized],
        "normalized": [float(x) for x in result.normalized],
    }
    if not result.zero_probability:
        payload["merit"] = figures_of_merit(result, spec).to_json_dict()
    _write_json(out, payload)
    return 0


def _cmd_pure_landscape(cfg: dict, out: str, seed) -> int:
    theta_grid = _parse_grid(cfg["theta_grid"], "theta_grid")
    phi_grid = _parse_grid(cfg["phi_grid"], "phi_grid")

    lines = ["theta,phi,probability"]
    for theta in theta_grid:
        for phi in phi_grid:
            try:
                prob = pure_success_probability(theta, phi, cfg["beta_mag"])
            except DegenerateTheta:
                prob = 0.0
            lines.append(f"{fmt(theta)},{fmt(phi)},{fmt(prob)}")
    _write_text(out, "\n".join(lines) + "\n")
    return 0


def _chain_fields(cfg: dict) -> tuple[int, float, int, list[float]]:
    """A sweep's modes, p, detected (default ceil(N/2)) and epsilon_grid.

    p and detected are checked here; the chain checks modes and epsilon."""
    n_modes, p, detected = cfg["modes"], cfg["p"], cfg["detected"]
    detected = -(-n_modes // 2) if detected is None else detected
    grid = _parse_grid(cfg["epsilon_grid"], "epsilon_grid")
    if not (0.0 < p < 1.0):
        raise ConfigError(f"field 'p' must lie inside (0, 1), got {p}")
    if not (1 <= detected < n_modes):
        raise ConfigError(f"field 'detected' must lie in 1..{n_modes - 1}, got {detected}")
    return n_modes, p, detected, grid


def _chain_sweep_point(
    spec: InputSpec, limits: tuple[float, float], epsilon: float, result
) -> tuple[str, bool]:
    """One CSV row, and whether it breaches the ratio bound; spec and the
    (gain, two-photon) limits are the sweep's."""
    report = figures_of_merit(result, spec)
    q0, q1 = np.append(result.unnormalized, 0.0)[:2]
    breach = report.ratio_bound is not None and bool(ratio_breaches(q0, q1, report.ratio_bound))
    gain_limit, two_photon_limit = limits
    gain = (
        report.ratio_out / report.ratio_in
        if math.isfinite(report.ratio_out) and report.ratio_in > 0
        else math.inf
    )
    two_photon = 0.0 if report.two_photon_out is None else report.two_photon_out
    fano = math.nan if report.fano_out is None else report.fano_out
    row = [epsilon, result.pattern_probability, report.ratio_out, report.ratio_in, gain]
    row += [gain_limit, two_photon, two_photon_limit, fano, report.fano_in]
    return ",".join(map(fmt, row)), breach


def _cmd_chain_sweep(cfg: dict, out: str, seed) -> int:
    """One run_chain call for the grid, then a row per epsilon; no file
    (exit 4) if a row breaks the ratio bound."""
    n_modes, p, detected, grid = _chain_fields(cfg)
    results = run_chain(n_modes, grid, p, detected)
    spec = InputSpec.two_level([p] * n_modes)
    limits = chain_asymptotics(n_modes, detected)
    rows, breaches = zip(*(_chain_sweep_point(spec, limits, e, r) for e, r in zip(grid, results)))
    if any(breaches):
        return _refuse(out, f"{sum(breaches)} ratio-bound violation(s)")
    header = (
        "epsilon,pattern_probability,ratio_out,ratio_in,ratio_gain,"
        "ratio_gain_limit,two_photon_out,two_photon_limit,fano_out,fano_in"
    )
    _write_text(out, "\n".join((header,) + rows) + "\n")
    return 0


def _exp_sweep_point(epsilon: float, result) -> str:
    c1 = 0.0 if result.zero_probability else float(result.normalized[1])
    return f"{fmt(epsilon)},{fmt(result.pattern_probability)},{fmt(c1)}"


def _cmd_exp_sweep(cfg: dict, out: str, seed) -> int:
    """One run_chain call for the grid, then a row per epsilon."""
    n_modes, p, detected, grid = _chain_fields(cfg)
    extra = [cfg["two_photon_prob"]] if "two_photon_prob" in cfg else []
    results = run_chain(n_modes, grid, p, detected, cfg["scenario"], *extra)
    rows = [_exp_sweep_point(e, r) for e, r in zip(grid, results)]
    header = "epsilon,pattern_probability,single_photon_probability"
    _write_text(out, "\n".join([header] + rows) + "\n")
    return 0


def _cmd_nogo_verify(cfg: dict, out: str, seed) -> int:
    variant = cfg["variant"]
    if variant not in ("small", "patterns"):
        raise ConfigError(f"field 'variant' must be 'small' or 'patterns', got {variant!r}")
    args = (cfg["modes"], cfg["p_max"], cfg["trials"], cfg["seed"] if seed is None else seed)
    if variant == "small":
        report = verify_nogo_small(*args, cfg["refine_iters"])
    else:
        report = verify_nogo_patterns(*args)
    return _write_report(out, report)


def _cmd_search(cfg: dict, out: str, seed) -> int:
    task = SearchTask(
        n_modes=cfg["modes"],
        p_max=cfg["p_max"],
        objective=cfg["objective"],
        trials=cfg["trials"],
        refine_iters=cfg["refine_iters"],
        seed=cfg["seed"] if seed is None else seed,
        include_chain_seed=cfg["include_chain_seed"],
        chain_epsilon=cfg["chain_epsilon"],
    )
    return _write_report(out, search_improvement(task))


COMMANDS = {
    "simulate": _cmd_simulate,
    "pure-landscape": _cmd_pure_landscape,
    "exp-sweep": _cmd_exp_sweep,
    "chain-sweep": _cmd_chain_sweep,
    "nogo-verify": _cmd_nogo_verify,
    "search": _cmd_search,
}


# ---------------------------------------------------------------------------
# argv


def _parser():
    """The parser of every argv _read_argv does not read itself, built on
    demand so that a job never loads argparse, gettext or locale."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="photonpost",
        usage="photonpost [-h] COMMAND --config PATH --out PATH [--seed N] [--threads N]",
        description="Conditioned photon statistics behind linear interferometers.",
    )
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", required=True, metavar="PATH", help="JSON config file")
    parser.add_argument("--out", required=True, metavar="PATH", help="output file (JSON or CSV)")
    parser.add_argument("--seed", type=int, metavar="N", help="override the config seed")
    parser.add_argument(
        "--threads",
        type=int,
        metavar="N",
        help="accepted for compatibility and ignored: sweeps run serially, "
        "since the GIL serializes their points",
    )
    return parser


def _read_argv(argv) -> tuple:
    """(command, config, out, seed) from argv.  A command then "--option
    value" pairs, --config and --out among them, each option spelt in full,
    no value starting with "-" and integer --seed and --threads, is read as
    argparse reads it; argparse reads any other argv, exiting 0 or 2."""
    pairs = dict(zip(argv[1::2], argv[2::2]))
    if (
        len(argv) % 2 == 1
        and argv[0] in COMMANDS
        and {"--config", "--out"} <= pairs.keys() <= {"--config", "--out", "--seed", "--threads"}
        and not any(value.startswith("-") for value in argv[2::2])
    ):
        with contextlib.suppress(ValueError):  # argparse refuses it
            seed = int(pairs["--seed"]) if "--seed" in pairs else None
            int(pairs.get("--threads", 0))
            return argv[0], pairs["--config"], pairs["--out"], seed
    parser = _parser()
    args = parser.parse_args(argv)
    for name, value in vars(args).items():
        if value == []:  # argparse 3.11 reads "--config=--" as an empty list
            parser.error(f"argument --{name}: expected one argument")
    return args.command, args.config, args.out, args.seed


def main(argv=None) -> int:
    command, config, out, seed = _read_argv(sys.argv[1:] if argv is None else argv)
    try:
        cfg = _load_config(config, command)
        return COMMANDS[command](cfg, out, seed)
    except DIMENSION_ERRORS as exc:
        print(f"dimension error: {exc}", file=sys.stderr)
        return 3
    except PhotonPostError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
