"""
Heralding an exactly pure single photon
=======================================

Three sources each hold the superposition alpha|0> + beta|1> (a pure
state, unlike the mixed sources elsewhere).  Two beam splitters and two
detections can then do something conditioning on mixed sources never
can: project the kept mode onto |1> exactly.  The price is a success
probability of at most 16|beta|^6/81.
"""

import math

import numpy as np

from photonpost import (
    pure_stage2_params,
    pure_success_probability,
    pure_three_mode_pipeline,
)

# the first stage is free; the second stage's angles are solved for
theta, phi = math.pi / 4, math.pi
tp, pp = pure_stage2_params(theta, phi)
print(f"stage 1 angles: theta = pi/4, phi = pi")
print(f"stage 2 angles solved: theta' = {tp:.6f} (= acos(1/3)), phi' = {pp:.6f}")
print()

# run the full three-mode pipeline and inspect the conditioned state
state, prob = pure_three_mode_pipeline(theta, phi, beta=1.0)
print(f"success probability: {prob:.12f} (16/81 = {16 / 81:.12f})")
print(f"kept-mode amplitudes: |0>: {abs(state[0]):.2e}  "
      f"|1>: {abs(state[1]):.10f}")
print("the one-photon amplitude carries everything: the output is pure")
print()

# the success probability landscape has four equally good operating points
best = [
    (math.pi / 4, math.pi),
    (math.pi / 4, math.acos(13 / 14)),
    (3 * math.pi / 4, 0.0),
    (3 * math.pi / 4, math.acos(-13 / 14)),
]
print("the four optimal angle pairs (theta, phi) and their probabilities:")
for t, f in best:
    print(f"  ({t:.6f}, {f:.6f}) -> {pure_success_probability(t, f, 1.0):.12f}")
print()

# a weaker source scales the whole landscape by |beta|^6
print("success probability at the first optimum for weaker sources:")
for beta in (1.0, 0.9, 0.7, 0.5):
    print(f"  |beta| = {beta:3.1f}: {pure_success_probability(theta, phi, beta):.6f}")

# exactness is not special to the optimum: any non-degenerate start works
rng = np.random.default_rng(11)
worst_fid = 1.0
for _ in range(200):
    t = rng.uniform(0.1, math.pi / 2 - 0.1)
    f = rng.uniform(0, 2 * math.pi)
    state, prob = pure_three_mode_pipeline(t, f, beta=0.8)
    if state is None:
        continue
    worst_fid = min(worst_fid, abs(state[1]) ** 2)
print()
print(f"200 random operating points: worst |1> fidelity = {worst_fid:.12f}")
