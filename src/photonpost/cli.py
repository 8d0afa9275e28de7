"""Command line front end.

    photonpost COMMAND --config PATH --out PATH [--seed N] [--threads N]

Every command reads a JSON config, writes one output file (JSON or CSV),
and returns exit code 0 on success; 2 for usage errors (an unknown or
missing command, a missing --config or --out, an unknown option, a
missing or non-integer value, an extra argument), for config problems
and for a config that cannot be read or an output that cannot be
written; 3 for dimension problems; 4 when a numerical check fails: a
search or verification whose report counts ratio-bound violations writes
no output.  Usage errors print the usage line and "photonpost: error:"
to stderr; -h or --help prints the help and exits 0.
Outputs are deterministic: rerunning a command with the same config and
seed reproduces the file byte for byte.  Floats in CSV files carry 17
significant digits so values survive a round trip.
"""

from __future__ import annotations

import json
import math
import os
import re
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
from .merit import figures_of_merit
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
# 2^43 points fits a 48-bit (256 TiB) address space
MAX_GRID = 1 << 43

DIMENSION_ERRORS = (
    DimensionMismatch,
    DimensionTooLarge,
    BadModeIndex,
    NotUnitary,
)


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


# config field kind -> (accepts a JSON value, noun for the error message)
_KINDS = {
    float: (_is_number, "a number"),
    int: (_is_int, "an integer"),
    bool: (lambda v: isinstance(v, bool), "a boolean"),
    str: (lambda v: isinstance(v, str), "a string"),
    list: (lambda v: isinstance(v, list), "an array"),
    dict: (lambda v: isinstance(v, dict), "an object"),
}


class _Config:
    """A dict wrapper that tracks touched fields and complains by name."""

    def __init__(self, data, where: str = "config"):
        if not isinstance(data, dict):
            raise ConfigError(f"{where} must be a JSON object")
        self.data = data
        self.where = where
        self.seen: set[str] = set()

    def take(self, field: str, kind, required: bool = True, default=None):
        self.seen.add(field)
        if field not in self.data:
            if required:
                raise ConfigError(f"{self.where}: missing required field {field!r}")
            return default
        value = self.data[field]
        accepts, noun = _KINDS[kind]
        if not accepts(value):
            raise ConfigError(f"{self.where}: field {field!r} must be {noun}")
        return float(value) if kind is float else value

    def finish(self):
        extra = sorted(set(self.data) - self.seen)
        if extra:
            raise ConfigError(
                f"{self.where}: unknown field(s) {', '.join(repr(f) for f in extra)}"
            )


def _load_config(path: str, command: str) -> _Config:
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
    cfg = _Config(data)
    declared = cfg.take("command", str)
    if declared != command:
        raise ConfigError(
            f"config declares command {declared!r} but {command!r} was invoked"
        )
    version = cfg.take("version", int)
    if version != CONFIG_VERSION:
        raise ConfigError(f"unsupported config version {version}, expected {CONFIG_VERSION}")
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
    cfg = _Config(raw, where)
    kind = cfg.take("type", str)
    if kind == "beam_splitter":
        theta = cfg.take("theta", float)
        phi = cfg.take("phi", float, required=False, default=0.0)
        cfg.finish()
        if n_modes != 2:
            raise ConfigError(f"{where}: a beam splitter needs exactly 2 modes")
        return beam_splitter(theta, phi)
    if kind in ("chain", "chain_elements"):
        epsilon = cfg.take("epsilon", float)
        cfg.finish()
        if kind == "chain":
            return build_chain(n_modes, epsilon).interferometer
        return build_chain_from_elements(n_modes, epsilon).interferometer
    if kind == "haar":
        seed = cfg.take("seed", int)
        cfg.finish()
        return haar_random(n_modes, seed)
    if kind == "matrix":
        rows = cfg.take("matrix", list)
        cfg.finish()
        return Interferometer.from_json_dict({"n_modes": len(rows), "matrix": rows})
    raise ConfigError(
        f"{where}: unknown interferometer type {kind!r}; expected one of "
        "'beam_splitter', 'chain', 'chain_elements', 'haar', 'matrix'"
    )


def _parse_grid(raw: dict, where: str) -> list[float]:
    cfg = _Config(raw, where)
    if "values" in raw:
        values = cfg.take("values", list)
        cfg.finish()
        out = []
        for i, v in enumerate(values):
            if not _is_number(v):
                raise ConfigError(f"{where}: values[{i}] must be a number")
            out.append(float(v))
        if not out:
            raise ConfigError(f"{where}: values must not be empty")
        return out
    start = cfg.take("start", float)
    stop = cfg.take("stop", float)
    count = cfg.take("count", int)
    spacing = cfg.take("spacing", str, required=False, default="linear")
    cfg.finish()
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


def _write_report(path: str, report) -> int:
    """Write a search report, or nothing (exit 4) if it breaks the ratio bound."""
    if report.bound_violations > 0:
        print(
            f"numerical check failed: {report.bound_violations} ratio-bound "
            f"violation(s); {path} not written",
            file=sys.stderr,
        )
        return 4
    _write_json(path, report.to_json_dict())
    return 0


# ---------------------------------------------------------------------------
# commands


def _cmd_simulate(cfg: _Config, out: str, seed) -> int:
    n_modes = cfg.take("modes", int)
    if n_modes < 2:
        raise ConfigError("field 'modes' must be at least 2")
    spec = _parse_inputs(cfg.take("inputs", list), n_modes)
    interf = _parse_interferometer(
        cfg.take("interferometer", dict), n_modes, "interferometer"
    )
    raw_pattern = cfg.take("pattern", list)
    cfg.finish()
    if len(raw_pattern) != n_modes - 1:
        raise ConfigError(
            f"field 'pattern' must list {n_modes - 1} detector counts, got {len(raw_pattern)}"
        )
    for i, c in enumerate(raw_pattern):
        if not _is_int(c) or c < 0:
            raise ConfigError(f"pattern[{i}] must be a non-negative integer")
    pattern = DetectionPattern(tuple(raw_pattern))

    result = condition_mixed(spec, interf, pattern)
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


def _cmd_pure_landscape(cfg: _Config, out: str, seed) -> int:
    theta_grid = _parse_grid(cfg.take("theta_grid", dict), "theta_grid")
    phi_grid = _parse_grid(cfg.take("phi_grid", dict), "phi_grid")
    beta_mag = cfg.take("beta_mag", float)
    cfg.finish()

    lines = ["theta,phi,probability"]
    for theta in theta_grid:
        for phi in phi_grid:
            try:
                prob = pure_success_probability(theta, phi, beta_mag)
            except DegenerateTheta:
                prob = 0.0
            lines.append(f"{fmt(theta)},{fmt(phi)},{fmt(prob)}")
    _write_text(out, "\n".join(lines) + "\n")
    return 0


def _take_chain_fields(cfg: _Config) -> tuple[int, float, int, list[float]]:
    """A sweep's modes, p, detected (default ceil(N/2)) and epsilon_grid.

    p and detected are checked here; the chain checks modes and epsilon."""
    n_modes = cfg.take("modes", int)
    p = cfg.take("p", float)
    detected = cfg.take("detected", int, required=False, default=-(-n_modes // 2))
    grid = _parse_grid(cfg.take("epsilon_grid", dict), "epsilon_grid")
    if not (0.0 < p < 1.0):
        raise ConfigError(f"field 'p' must lie inside (0, 1), got {p}")
    if not (1 <= detected < n_modes):
        raise ConfigError(f"field 'detected' must lie in 1..{n_modes - 1}, got {detected}")
    return n_modes, p, detected, grid


def _chain_sweep_point(spec: InputSpec, limits: tuple[float, float], epsilon: float, result) -> str:
    """One CSV row; spec and the (gain, two-photon) limits are the sweep's."""
    report = figures_of_merit(result, spec)
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
    return ",".join(map(fmt, row))


def _cmd_chain_sweep(cfg: _Config, out: str, seed) -> int:
    """One run_chain call for the grid, then a row per epsilon."""
    n_modes, p, detected, grid = _take_chain_fields(cfg)
    cfg.finish()
    results = run_chain(n_modes, grid, p, detected)
    spec = InputSpec.two_level([p] * n_modes)
    limits = chain_asymptotics(n_modes, detected)
    rows = [_chain_sweep_point(spec, limits, e, r) for e, r in zip(grid, results)]
    header = (
        "epsilon,pattern_probability,ratio_out,ratio_in,ratio_gain,"
        "ratio_gain_limit,two_photon_out,two_photon_limit,fano_out,fano_in"
    )
    _write_text(out, "\n".join([header] + rows) + "\n")
    return 0


def _exp_sweep_point(epsilon: float, result) -> str:
    c1 = 0.0 if result.zero_probability else float(result.normalized[1])
    return f"{fmt(epsilon)},{fmt(result.pattern_probability)},{fmt(c1)}"


def _cmd_exp_sweep(cfg: _Config, out: str, seed) -> int:
    """One run_chain call for the grid, then a row per epsilon."""
    n_modes, p, detected, grid = _take_chain_fields(cfg)
    scenario = cfg.take("scenario", str)
    extra = []  # two_photon_prob: only "+two-photon-inputs" reads it
    if scenario == "+two-photon-inputs":
        extra = [cfg.take("two_photon_prob", float, required=False, default=0.001)]
    cfg.finish()
    results = run_chain(n_modes, grid, p, detected, scenario, *extra)
    rows = [_exp_sweep_point(e, r) for e, r in zip(grid, results)]
    header = "epsilon,pattern_probability,single_photon_probability"
    _write_text(out, "\n".join([header] + rows) + "\n")
    return 0


def _cmd_nogo_verify(cfg: _Config, out: str, seed) -> int:
    variant = cfg.take("variant", str)
    n_modes = cfg.take("modes", int)
    p_max = cfg.take("p_max", float)
    trials = cfg.take("trials", int)
    cfg_seed = cfg.take("seed", int, required=False, default=0)
    if variant not in ("small", "patterns"):
        raise ConfigError(f"field 'variant' must be 'small' or 'patterns', got {variant!r}")
    if variant == "small":  # the patterns variant does not refine
        refine_iters = cfg.take("refine_iters", int, required=False, default=80)
    cfg.finish()
    use_seed = cfg_seed if seed is None else seed
    if variant == "small":
        report = verify_nogo_small(n_modes, p_max, trials, use_seed, refine_iters)
    else:
        report = verify_nogo_patterns(n_modes, p_max, trials, use_seed)
    return _write_report(out, report)


def _cmd_search(cfg: _Config, out: str, seed) -> int:
    n_modes = cfg.take("modes", int)
    p_max = cfg.take("p_max", float)
    objective = cfg.take("objective", str, required=False, default="single_photon")
    trials = cfg.take("trials", int)
    refine_iters = cfg.take("refine_iters", int, required=False, default=200)
    cfg_seed = cfg.take("seed", int, required=False, default=0)
    include_chain = cfg.take("include_chain_seed", bool, required=False, default=True)
    chain_epsilon = cfg.take("chain_epsilon", float, required=False, default=1e-3)
    cfg.finish()
    task = SearchTask(
        n_modes=n_modes,
        p_max=p_max,
        objective=objective,
        trials=trials,
        refine_iters=refine_iters,
        seed=cfg_seed if seed is None else seed,
        include_chain_seed=include_chain,
        chain_epsilon=chain_epsilon,
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


_USAGE = "usage: photonpost [-h] COMMAND --config PATH --out PATH [--seed N] [--threads N]\n"

_OPTIONS = ("--help", "--config", "--out", "--seed", "--threads")

_HELP = f"""{_USAGE}
Conditioned photon statistics behind linear interferometers.

commands:
  {", ".join(COMMANDS)}

options:
  -h, --help     show this help message and exit
  --config PATH  JSON config file
  --out PATH     output file (JSON or CSV)
  --seed N       override the config seed
  --threads N    accepted for compatibility and ignored: sweeps run serially,
                 since the GIL serializes their points
"""


def _usage_error(reason: str):
    sys.stderr.write(f"{_USAGE}photonpost: error: {reason}\n")
    raise SystemExit(2)


def _option(token: str):
    """(option, "=" value or None) for a token naming an option, ("", None)
    for an unknown option, None for a value.  As argparse reads tokens: a
    long option may be a unique prefix, "-h" is --help, and a negative
    number or a token with a space is a value."""
    if len(token) < 2 or token[0] != "-":
        return None
    name, eq, value = token.partition("=")
    if name == "-h":
        return "--help", value if eq else None
    if token[1] == "h":  # short flags bundled after -h: argparse knew no other
        return "--help", token[2:].lstrip("h") or None
    matches = [o for o in _OPTIONS if token[1] == "-" and o.startswith(name)]
    if len(matches) > 1:
        _usage_error(f"ambiguous option: {token} could match {', '.join(matches)}")
    if matches:
        return matches[0], value if eq else None
    if re.match(r"-\d+$|-\d*\.\d+$", token) or " " in token:
        return None
    return "", None


def _read_argv(argv) -> tuple:
    """(command, config, out, seed) from argv, read left to right as argparse
    read it: options in any order, as "--opt value" or "--opt=value"; the
    last of a repeated option wins; a first "--" ends the options.  -h or
    --help prints the help and exits 0; anything else refused exits 2."""
    command, given, extras = None, {}, []
    dashes = False
    i = command_end = 0
    while i < len(argv):
        token = argv[i]
        i += 1
        if token == "--" and not dashes:
            dashes = True
            if command is not None and command_end != i - 1:
                extras.append(token)  # argparse keeps it only next to the command
            continue
        found = None if dashes else _option(token)
        if found is None:
            if command is not None:
                extras.append(token)
            elif token in COMMANDS:
                command, command_end = token, i
            else:
                choices = ", ".join(map(repr, COMMANDS))
                _usage_error(f"argument command: invalid choice: {token!r} (choose from {choices})")
            continue
        name, value = found
        if not name:
            extras.append(token)
            continue
        if name == "--help":
            if value is not None:
                _usage_error(f"argument -h/--help: ignored explicit argument {value!r}")
            sys.stdout.write(_HELP)
            raise SystemExit(0)
        if value is None:
            if i == len(argv) or argv[i] == "--" or _option(argv[i]) is not None:
                _usage_error(f"argument {name}: expected one argument")
            value = argv[i]
            i += 1
        if name in ("--seed", "--threads"):
            try:
                value = int(value)
            except ValueError:
                _usage_error(f"argument {name}: invalid int value: {value!r}")
        given[name] = value
    required = {"command": command, "--config": given.get("--config"), "--out": given.get("--out")}
    missing = [name for name, value in required.items() if value is None]
    if missing:
        _usage_error(f"the following arguments are required: {', '.join(missing)}")
    if extras:
        _usage_error(f"unrecognized arguments: {' '.join(extras)}")
    return command, given["--config"], given["--out"], given.get("--seed")


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
