"""Suite-wide tripwire: the output/input ratio bound must hold everywhere.

For a two-level input with uniform best probability p and M occupied
modes, detecting D photons can raise the one-to-zero photon ratio by at
most a factor (M - D), and not at all when D = 0 or D = M - 1.  The
fixture below wraps condition_mixed and schemes.run_chain in every loaded
photonpost module that binds them, and the table method of
engine.Reader, the joint output table that every consumer builds on
(output_table and each Readout's bound reader alike), so a violation
fails the specific test that produced it, wherever it ran.  run_chain reads its exact-count
scenarios from a two-mode source that is not two-level, which the table
check passes over, so its "ideal" results are checked against the bound
of the N two-level sources they herald.
A table is checked on every exact detector pattern it holds, in every
matrix of a stack (the searches score candidates in stacks).  Both
checks are calls to the library's rule (merit.allowed_ratio and
merit.ratio_breaches); where a table shows a breach, the table check
reads the vacuum entries from |U| and drops those merit.is_dust calls
cancellation dust, so dust is never flagged.
"""

import sys

import numpy as np
import pytest

import photonpost.cli  # noqa: F401  (loaded so that its names are wrapped too)
from photonpost import conditioner, engine, merit, schemes
from photonpost.conditioner import DetectionPattern
from photonpost.errors import PhotonPostError
from photonpost.fock import InputSpec

_original = conditioner.condition_mixed
_original_table = engine.Reader.table
_original_chain = schemes.run_chain


def _checked_condition_mixed(spec, interf, pattern, *args, **kwargs):
    result = _original(spec, interf, pattern, *args, **kwargs)
    if isinstance(pattern, DetectionPattern) and not result.zero_probability:
        allowed = merit.allowed_ratio(spec, pattern.total())
        q0, q1 = np.append(result.unnormalized, 0.0)[:2]
        assert allowed is None or not merit.ratio_breaches(q0, q1, allowed), (
            f"ratio bound violated at pattern {pattern.counts}: q1/q0 = {q1}/{q0} "
            f"> {allowed}"
        )
    return result


def _checked_table(reader, matrix):
    table = _original_table(reader, matrix)
    try:
        spec = InputSpec(reader.supports)
    except PhotonPostError:  # weights that are not probabilities: no bound applies
        return table
    basis = reader.basis
    # pair each (0, pattern) entry with its (1, pattern) entry, in every
    # table of a stack
    zero = np.flatnonzero(basis.states[:, 0] == 0)
    raised = basis.states[zero]
    raised[:, 0] = 1
    one = basis.lookup(raised)
    zero, one = zero[one >= 0], one[one >= 0]
    allowed = merit.allowed_ratio(spec, basis.states[zero, 1:].sum(axis=1))
    if allowed is None:
        return table
    q0, q1 = table[..., zero], table[..., one]
    bad = merit.ratio_breaches(q0, q1, allowed)
    if bad.any():  # a raw breach: drop the dust entries, read from |U|
        paths = _original_table(reader, np.abs(matrix))
        bad &= ~merit.is_dust(q0, paths[..., zero])
    bad = np.argwhere(bad)
    assert bad.size == 0, (
        f"ratio bound violated in a joint output table at pattern "
        f"{basis.states[zero[bad[0][-1]], 1:].tolist()} (stack index "
        f"{tuple(bad[0][:-1].tolist())}): q1/q0 = {q1[tuple(bad[0])]}/{q0[tuple(bad[0])]} "
        f"> {allowed[bad[0][-1]]}"
    )
    return table


def _checked_run_chain(n_modes, epsilon, p, detected, scenario="ideal", *args, **kwargs):
    results = _original_chain(n_modes, epsilon, p, detected, scenario, *args, **kwargs)
    if scenario == "ideal":
        allowed = merit.allowed_ratio(InputSpec.two_level([p] * n_modes), detected)
        for result in [results] if np.ndim(epsilon) == 0 else results:
            q0, q1 = np.append(result.unnormalized, 0.0)[:2]
            assert allowed is None or not merit.ratio_breaches(q0, q1, allowed), (
                f"ratio bound violated by the {n_modes}-mode chain at D = {detected}: "
                f"q1/q0 = {q1}/{q0} > {allowed}"
            )
    return results


def _holders(name, original):
    """Every loaded photonpost module whose attribute `name` is `original`."""
    return [
        mod
        for key, mod in sorted(sys.modules.items())
        if (key == "photonpost" or key.startswith("photonpost."))
        and getattr(mod, name, None) is original
    ]


@pytest.fixture(autouse=True, scope="session")
def ratio_bound_tripwire():
    wrapped = [
        (name, original, checked, _holders(name, original))
        for name, original, checked in (
            ("condition_mixed", _original, _checked_condition_mixed),
            ("run_chain", _original_chain, _checked_run_chain),
        )
    ]
    wrapped.append(("table", _original_table, _checked_table, [engine.Reader]))
    for name, _, checked, holders in wrapped:
        for mod in holders:
            setattr(mod, name, checked)
    yield
    for name, original, _, holders in wrapped:
        for mod in holders:
            setattr(mod, name, original)
