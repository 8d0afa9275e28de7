"""Regenerate refs.json, the reference rows the sweep checks compare with.

Run from the repository root:

    PYTHONPATH=src python3 perfbench/make_refs.py

Each reference is computed from the same float unitary the CLI builds
(`schemes.build_chain`), by a route that shares no arithmetic with the
library's conditioner:

* chain-sweep-11 and its small-eps probe: mpmath at 60 digits.  With only the kept row and the
  tap row in play, a repeated-row permanent is n1! D! times a
  coefficient of prod_i (tap_i + kept_i x) over the emitting sources,
  expanded term by term, so Ryser's alternating sum never appears.
* exp-sweep-dark6: the brute-force joint output distribution of
  tests/oracles.py, contracted with the detector response matrices.

Regenerate only when a workload's config changes; the checks compare
each run's config with the one stored here.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import sys

import mpmath
import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "tests"))

import oracles  # noqa: E402
from photonpost import detectors as det  # noqa: E402
from photonpost.schemes import build_chain  # noqa: E402

from workloads import PROBES, SIZES, WORKLOADS  # noqa: E402

CHAIN_COLUMNS = [
    "epsilon", "pattern_probability", "ratio_out", "ratio_in", "ratio_gain",
    "ratio_gain_limit", "two_photon_out", "two_photon_limit", "fano_out", "fano_in",
]
EXP_COLUMNS = ["epsilon", "pattern_probability", "single_photon_probability"]


def grid(spec: dict) -> list[float]:
    return [float(x) for x in np.geomspace(spec["start"], spec["stop"], spec["count"])]


def _coefficient(kept, tap, sources, n1: int):
    """Coefficient of x^n1 in prod_{i in sources} (tap[i] + kept[i] x)."""
    poly = [mpmath.mpc(1)]
    for i in sources:
        grown = [mpmath.mpc(0)] * (len(poly) + 1)
        for k, c in enumerate(poly):
            grown[k] += c * tap[i]
            grown[k + 1] += c * kept[i]
        poly = grown
    return poly[n1]


def chain_row(modes: int, p: float, detected: int, eps: float) -> list[float]:
    matrix = build_chain(modes, eps).interferometer.matrix
    kept = [mpmath.mpc(complex(z)) for z in matrix[0]]
    tap = [mpmath.mpc(complex(z)) for z in matrix[1]]
    p_mp = mpmath.mpf(p)
    coeffs = []
    for n1 in range(modes - detected + 1):
        total = detected + n1
        weight = p_mp**total * (1 - p_mp) ** (modes - total)
        norm = math.factorial(n1) * math.factorial(detected)
        acc = mpmath.mpf(0)
        for sources in itertools.combinations(range(modes), total):
            acc += weight * abs(_coefficient(kept, tap, sources, n1)) ** 2
        coeffs.append(acc * norm)
    prob = sum(coeffs)
    q = [c / prob for c in coeffs]
    ratio_out = q[1] / q[0]
    ratio_in = p_mp / (1 - p_mp)
    two_photon = (q[2] / q[1]) / (q[1] / q[0])
    mean = sum(n * qn for n, qn in enumerate(q))
    var = sum(n * n * qn for n, qn in enumerate(q)) - mean**2
    n, d = modes, detected
    return [
        eps,
        float(prob),
        float(ratio_out),
        float(ratio_in),
        float(ratio_out / ratio_in),
        d * (n - d) / (n - 1.0),
        float(two_photon),
        (d + 1.0) * (n - d - 1.0) / (2.0 * d * (n - d)),
        float(var / mean),
        float(1 - p_mp),
    ]


def exp_row(modes: int, p: float, eps: float) -> list[float]:
    matrix = build_chain(modes, eps).interferometer.matrix
    joint = oracles.joint_output_probabilities(matrix, [{0: 1.0 - p, 1: p}] * modes)
    vacuum, tap = det.benchmark_detector_suite(modes)
    miss = vacuum.response[:, vacuum.outcomes.index(0)]
    click = tap.response[:, tap.outcomes.index(det.BUCKET)]
    coeffs = np.zeros(modes + 1)
    for counts, prob in joint.items():
        w = click[counts[1]] * math.prod(miss[c] for c in counts[2:])
        coeffs[counts[0]] += prob * w
    total = coeffs.sum()
    return [eps, float(total), float(coeffs[1] / total)]


def main() -> None:
    mpmath.mp.dps = 60
    refs = {}
    for size in SIZES:
        for job in (WORKLOADS["chain-sweep-11"](0, size), PROBES["chain-sweep-11"](size)):
            c = job.config
            refs[job.ref_key] = {
                "config": c,
                "method": "mpmath 60-digit repeated-row expansion on the float unitary",
                "columns": CHAIN_COLUMNS,
                "rows": [
                    chain_row(c["modes"], c["p"], c["detected"], eps)
                    for eps in grid(c["epsilon_grid"])
                ],
            }
        job = WORKLOADS["exp-sweep-dark6"](0, size)
        c = job.config
        refs[job.ref_key] = {
            "config": c,
            "method": "tests/oracles.joint_output_probabilities contracted with "
            "the detector response matrices",
            "columns": EXP_COLUMNS,
            "rows": [exp_row(c["modes"], c["p"], eps) for eps in grid(c["epsilon_grid"])],
        }
    with open(os.path.join(HERE, "refs.json"), "w", encoding="utf-8") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
