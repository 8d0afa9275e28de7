"""
How real detectors dent the improvement
=======================================

The chain scheme heralds on "0 photons here, D photons there".  Real
detectors miss photons, cannot count past "two or more", and fire in the
dark.  This sweep compares the ideal heralded one-photon probability
against progressively worse detector stacks, for 4 sources at p = 0.2.
"""

import numpy as np

from photonpost import run_chain

n, p = 4, 0.2

# column label -> run_chain's detector scenario
scenarios = {
    "ideal": "ideal",
    "bucket tap": "bucket",
    "90% efficiency": "bucket+efficiency",
    "dark counts": "+darkcounts",
    "two-photon inputs": "+two-photon-inputs",
}


def c1(eps, label, two_photon_prob=0.001):
    res = run_chain(n, eps, p, 2, scenarios[label], two_photon_prob)
    return 0.0 if res.zero_probability else float(res.normalized[1])


grid = np.geomspace(0.01, 0.42, 12)

print(f"heralded one-photon probability c1, {n} sources at p = {p} (raw = 0.2)")
print()
header = "epsilon " + "".join(f"{s:>20}" for s in scenarios)
print(header)
for eps in grid:
    cells = [f"{eps:7.3f}"]
    for s in scenarios:
        cells.append(f"{c1(eps, s):20.6f}")
    print("".join(cells))

print()
print("Reading the table:")
print(" - a bucket tap ('two or more') barely moves the curve;")
print(" - 10% vacuum-detector loss costs a flat ~0.003 in c1;")
print(" - dark counts and two-photon input contamination (both 0.1%) kill the")
print("   weak-tap limit, but a band of moderate epsilon still beats 0.2;")
print(" - at 0.4% two-photon contamination that band closes:")

worst = max(c1(eps, "two-photon inputs", 0.004) for eps in grid)
print(f"   best c1 over the grid at 0.4% contamination = {worst:.6f} < 0.2")
