"""The search's built-in Nelder-Mead against scipy's, bit for bit.

`search._nelder_mead` ports scipy.optimize.minimize(method="Nelder-Mead")
on the path the search uses (no bounds, maxiter set, maxfev unset) as an
ask/tell generator that asks for more points than scipy evaluates and
reports the ones it read.  Each test drives it with `_minimize`, which
evaluates every asked point in order, runs scipy on the same function,
and compares the returned point and every point read, in order, with
scipy's evaluated points by their bytes.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import optimize

import photonpost.search
from photonpost import InputSpec, SearchTask, search_improvement
from photonpost.search import (
    _nelder_mead,
    chain_seed_angles,
    detector_patterns,
    evaluate_candidate,
    unitary_from_angles,
)


def _recorded(f):
    """f, plus the list of (point, value) of its calls; points are kept as
    passed, so a caller that mutates an array it passed shows up."""
    calls = []

    def wrapped(x):
        calls.append((x, f(x)))
        return calls[-1][1]

    return wrapped, calls


def _read(points, values, used):
    """The (point, value) pairs of a batch that _nelder_mead read, in order."""
    return [(points[j], values[j]) for j in used]


def _minimize(f, x0, maxiter, xatol, fatol):
    """Run _nelder_mead to its end, telling it f of each asked point in order;
    returns its end and the (point, value) pairs it read."""
    run = _nelder_mead(x0, maxiter, xatol, fatol)
    points = values = None
    read = []
    while True:
        try:
            used, asked = run.send(values)
        except StopIteration as stop:
            used, x = stop.value
            return x, read + _read(points, values, used)
        read += _read(points, values, used)
        points, values = asked, [f(x) for x in asked]


def _scipy(f, x0, maxiter, xatol, fatol):
    with np.errstate(invalid="ignore"):  # -inf objectives: NaN in the stop test
        res = optimize.minimize(
            f,
            x0,
            method="Nelder-Mead",
            options={"maxiter": maxiter, "xatol": xatol, "fatol": fatol},
        )
    return res.x


def _memoized(f):
    """f evaluated once per distinct point (both runs should visit the same)."""
    cache = {}

    def wrapped(x):
        key = x.tobytes()
        if key not in cache:
            cache[key] = f(x)
        return cache[key]

    return wrapped


def _assert_same_as_scipy(f, x0, maxiter, xatol=1e-10, fatol=1e-12):
    f = _memoized(f)
    theirs, their_calls = _recorded(f)
    x, our_calls = _minimize(f, np.array(x0, dtype=float), maxiter, xatol, fatol)
    expected = _scipy(theirs, np.array(x0, dtype=float), maxiter, xatol, fatol)
    assert len(our_calls) == len(their_calls)
    for k, ((a, _), (b, _)) in enumerate(zip(our_calls, their_calls)):
        assert a.tobytes() == b.tobytes(), f"evaluation {k} differs"
    assert x.tobytes() == expected.tobytes()
    return x, [value for _, value in our_calls]


def _quadratic(weights, center):
    return lambda x: float(np.sum(weights * (x - center) ** 2))


def _rosenbrock(x):
    return float(np.sum(100.0 * (x[1:] - x[:-1] ** 2) ** 2 + (1.0 - x[:-1]) ** 2))


coordinates = st.one_of(st.just(0.0), st.floats(-2.0, 2.0, allow_subnormal=False))


@st.composite
def problems(draw):
    dim = draw(st.integers(1, 5))
    x0 = draw(st.lists(coordinates, min_size=dim, max_size=dim))
    kind = draw(st.sampled_from(["quadratic", "terraced", "rosenbrock"]))
    if kind == "rosenbrock" and dim >= 2:
        f = _rosenbrock
    else:
        weights = np.array(draw(st.lists(st.floats(0.1, 10.0), min_size=dim, max_size=dim)))
        center = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=dim, max_size=dim)))
        f = _quadratic(weights, center)
        if kind == "terraced":  # plateaus: ties between trial points
            f = lambda x, q=f: math.floor(4.0 * q(x))
    tol = draw(st.sampled_from([(1e-10, 1e-12), (1e-4, 1e-4), (1e-1, 1e-1)]))
    return f, x0, draw(st.integers(1, 60)), tol


@settings(max_examples=200, deadline=None)
@given(problems())
def test_matches_scipy_on_quadratic_terraced_and_rosenbrock_functions(problem):
    f, x0, maxiter, (xatol, fatol) = problem
    _assert_same_as_scipy(f, x0, maxiter, xatol, fatol)


def test_matches_scipy_on_a_flat_function():
    """Every value ties, so the order comes from argsort alone."""
    _, values = _assert_same_as_scipy(lambda x: 1.0, [0.3, 0.0, -1.2], 40)
    assert len(values) % 5 == 4  # each step: reflect, contract, shrink 3 vertices


def test_matches_scipy_where_the_function_is_minus_infinity():
    f = lambda x: -math.inf if x.sum() > 1.0 else float(x @ x)
    _, values = _assert_same_as_scipy(f, [0.6, 0.45, 0.0], 50)
    assert values[:4].count(-math.inf) >= 2  # the first simplex already holds -inf


def test_matches_scipy_where_part_of_the_first_simplex_is_minus_infinity():
    """Two -inf vertices of four: the stop test compares -inf - -inf, a NaN,
    which must not stop the run."""
    f = lambda x: -math.inf if x.sum() > 1.0 else float(x @ x)
    _, values = _assert_same_as_scipy(f, [0.5, 0.49, 0.0], 50)
    assert values[:4].count(-math.inf) == 2
    assert len(values) > 4


@pytest.mark.parametrize("start", ["chain", "random"])
def test_matches_scipy_on_the_four_mode_search_objective(start):
    n = 4
    spec = InputSpec.two_level([0.6] * n)
    patterns = detector_patterns(n, n - 1)
    if start == "chain":
        x0 = chain_seed_angles(n, 1e-3)  # zero angles: the 0.00025 simplex step
        assert (x0 == 0.0).any()
    else:
        x0 = np.random.default_rng(3).uniform(0.0, math.pi, size=n * (n - 1))
    f = lambda x: -evaluate_candidate(unitary_from_angles(n, x), spec, "single_photon", patterns)[0]
    _assert_same_as_scipy(f, x0, 60)


def test_matches_scipy_in_the_five_mode_ratio_search(monkeypatch):
    """Each run's asked points, their told values and the points it read
    are recorded inside the lockstep search, then replayed through scipy.
    Near the chain start some patterns are cancellation dust, which the
    scorer reads as impossible patterns, so no told value is infinite."""
    runs = []
    real = photonpost.search._nelder_mead

    def recorded(x0, maxiter, xatol, fatol):
        told, calls, result = {}, [], []
        runs.append(((x0, maxiter, xatol, fatol), told, calls, result))  # in start order
        run = real(x0, maxiter, xatol, fatol)
        points = values = None
        while True:
            try:
                used, asked = run.send(values)
            except StopIteration as stop:
                used, x = stop.value
                calls.extend(_read(points, values, used))
                result.append(x)
                return stop.value
            calls.extend(_read(points, values, used))
            points = asked
            values = yield used, asked
            told.update((x.tobytes(), value) for x, value in zip(asked, values))

    monkeypatch.setattr(photonpost.search, "_nelder_mead", recorded)
    search_improvement(SearchTask(5, 0.6, "ratio", trials=0, refine_iters=100, seed=1))
    assert len(runs) == 2  # the chain start and the random start
    for args, told, calls, result in runs:
        x, seen = _assert_same_as_scipy(lambda x: told[x.tobytes()], *args)
        assert x.tobytes() == result[0].tobytes()
        assert seen == [value for _, value in calls]
    assert all(np.isfinite(value) for _, told, _, _ in runs for value in told.values())
