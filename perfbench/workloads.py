"""The benchmark's workloads: one photonpost CLI job each.

A workload turns a seed into a CLI config.  Only the search config takes
the seed; the sweep grids are fixed so that their reference rows can be
stored in refs.json.  Each workload has a full size, the one the
benchmark measures, and a tiny size for the benchmark's own tests.

The timed chain sweep stays at eps >= 0.1, where the float results agree
with the 60-digit references to better than 1e-9 relative.  Below that,
Ryser's alternating sum cancels (ROADMAP item 2) and rows come out wrong,
so the chain workload also runs PROBES: the same job on the eps grid
1e-1..1e-6, once per run and untimed, whose failing rows the runner
reports as a known defect instead of counting them as failed work.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Job:
    """A CLI job: subcommand, config and worker threads."""

    command: str
    config: dict
    threads: int
    ref_key: str | None = None  # key into refs.json for sweep rows

    def argv(self, config_path: str, out_path: str) -> list[str]:
        return [
            self.command,
            "--config", config_path,
            "--out", out_path,
            "--threads", str(self.threads),
        ]


CHAIN_GRID = {"start": 0.8, "stop": 0.1, "count": 6, "spacing": "log"}
SMALL_EPS_GRID = {"start": 1e-1, "stop": 1e-6, "count": 6, "spacing": "log"}
EXP_GRID = {"start": 0.01, "stop": 0.42, "count": 8, "spacing": "log"}
TINY_EXP_GRID = {"start": 0.01, "stop": 0.42, "count": 3, "spacing": "log"}

SIZES = {
    "full": {
        "search": {"modes": 4, "trials": 200, "refine_iters": 200},
        "chain": {"modes": 11, "detected": 6, "epsilon_grid": CHAIN_GRID},
        "exp": {"modes": 6, "epsilon_grid": EXP_GRID},
    },
    "tiny": {
        "search": {"modes": 4, "trials": 8, "refine_iters": 8},
        "chain": {"modes": 6, "detected": 3, "epsilon_grid": CHAIN_GRID},
        "exp": {"modes": 4, "epsilon_grid": TINY_EXP_GRID},
    },
}


def search_4mode(seed: int, size: str) -> Job:
    s = SIZES[size]["search"]
    config = {
        "command": "search",
        "version": 1,
        "modes": s["modes"],
        "p_max": 0.6,
        "objective": "single_photon",
        "trials": s["trials"],
        "refine_iters": s["refine_iters"],
        "seed": seed,
    }
    return Job("search", config, threads=1)


def _chain(size: str, grid: dict, ref_key: str) -> Job:
    s = SIZES[size]["chain"]
    config = {
        "command": "chain-sweep",
        "version": 1,
        "modes": s["modes"],
        "p": 0.2,
        "detected": s["detected"],
        "epsilon_grid": grid,
    }
    return Job("chain-sweep", config, threads=2, ref_key=ref_key)


def chain_sweep_11(seed: int, size: str) -> Job:
    return _chain(size, SIZES[size]["chain"]["epsilon_grid"], f"chain-sweep-11/{size}")


def chain_small_eps(size: str) -> Job:
    return _chain(size, SMALL_EPS_GRID, f"chain-small-eps/{size}")


def exp_sweep_dark6(seed: int, size: str) -> Job:
    s = SIZES[size]["exp"]
    config = {
        "command": "exp-sweep",
        "version": 1,
        "modes": s["modes"],
        "p": 0.2,
        "detected": 2,
        "scenario": "+darkcounts",
        "epsilon_grid": s["epsilon_grid"],
    }
    return Job("exp-sweep", config, threads=1, ref_key=f"exp-sweep-dark6/{size}")


WORKLOADS = {
    "search-4mode": search_4mode,
    "chain-sweep-11": chain_sweep_11,
    "exp-sweep-dark6": exp_sweep_dark6,
}

# Untimed jobs that show a known defect; see the module docstring.
PROBES = {
    "chain-sweep-11": chain_small_eps,
}
