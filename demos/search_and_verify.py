"""
Searching the space of networks
===============================

Randomized search over interferometers plays two roles here: hunting for
improvement where schemes are known (it rediscovers the chain's level),
and hammering no-go statements where improvement is impossible.  Every
evaluation doubles as a check of the ratio bound.
"""

from photonpost import (
    SearchTask,
    reevaluate,
    search_improvement,
    verify_nogo_patterns,
    verify_nogo_small,
)

# 1. two modes: conditioning can never improve the one-photon odds
report = verify_nogo_small(2, 0.3, trials=2000, seed=1, refine_iters=40)
print("two-mode no-go, p = 0.3, 2000 random networks + local refinement:")
print(f"  verdict: {report.verdict}")
print(f"  best c1 seen: {report.best_value:.9f} (raw source: 0.3)")
print(f"  ratio-bound violations: {report.bound_violations}")
print()

# 2. three modes: still nothing
report = verify_nogo_small(3, 0.2, trials=1000, seed=1, refine_iters=40)
print("three-mode no-go, p = 0.2, 1000 random networks:")
print(f"  verdict: {report.verdict}, best c1 = {report.best_value:.9f}")
print()

# 3. the ratio bound itself, tried against random sources and patterns
report = verify_nogo_patterns(4, 0.25, trials=300, seed=1)
print("ratio bound, 4 modes, 300 random networks x random sources/patterns:")
print(f"  verdict: {report.verdict}")
print(f"  best output ratio: {report.best_value:.9f} vs input {0.25 / 0.75:.9f}")
print()

# 4. four modes at p = 0.2: the search should find real improvement
task = SearchTask(n_modes=4, p_max=0.2, trials=300, refine_iters=150, seed=1)
report = search_improvement(task)
print("improvement search, 4 modes, p = 0.2:")
print(f"  verdict: {report.verdict}")
print(f"  best c1: {report.best_value:.6f} (chain limit 8/33 = {8 / 33:.6f})")
print(f"  best pattern: {report.best_pattern}")
print(f"  re-evaluating the stored record: {reevaluate(report):.6f}")
print()

# 5. four modes at p = 0.6: beyond the threshold nothing is expected
task = SearchTask(n_modes=4, p_max=0.6, trials=300, refine_iters=150, seed=1)
report = search_improvement(task)
print("improvement search, 4 modes, p = 0.6:")
print(f"  verdict: {report.verdict}, best c1 = {report.best_value:.6f}")
print("  (no network helps at p >= 1/2: uniform loss commutes with the network and the")
print("   detectors, so q1 <= max_m m p (1-p)^(m-1) = p; Berry & Lvovsky, PRL 105, 203601)")
