"""Suite-wide tripwire: the output/input ratio bound must hold everywhere.

For a two-level input with uniform best probability p and M occupied
modes, detecting D photons can raise the one-to-zero photon ratio by at
most a factor (M - D), and not at all when D = 0 or D = M - 1.  The
fixture below wraps condition_mixed, and the engine's joint output table
that every consumer builds on, in every module that calls them, so a
violation fails the specific test that produced it, wherever it ran.
A table is checked on every exact detector pattern it holds, in every
matrix of a stack (the searches score candidates in stacks), except
where the vacuum entry is cancellation dust: below DUST times the same
entry computed from |U|, which bounds the magnitude of every path summed
into it, roundoff decides the value (a pattern of probability zero, say
behind a balanced splitter), and no ratio can be read from it.
"""

import numpy as np
import pytest

import photonpost
from photonpost import cli, conditioner, detectors, engine, merit, schemes, search
from photonpost.conditioner import DetectionPattern

BOUND_SLACK = 1e-9
DUST = 1e-20

_original = conditioner.condition_mixed
_original_table = engine.output_table


def _allowed_ratio(ratio_in, m, d):
    """Largest ratio_out the bound allows when d of m occupied modes click."""
    strict = (d == 0) | (d == m - 1)
    return np.where(strict, ratio_in, ratio_in * (m - d)) + BOUND_SLACK


def _checked_condition_mixed(spec, interf, pattern, *args, **kwargs):
    result = _original(spec, interf, pattern, *args, **kwargs)
    if (
        isinstance(pattern, DetectionPattern)
        and spec.is_two_level()
        and not result.zero_probability
    ):
        p = spec.p_max()
        if 0.0 < p < 1.0:
            ratio_in = p / (1.0 - p)
            m = spec.occupied_modes()
            d = pattern.total()
            q = result.unnormalized
            q0 = float(q[0])
            q1 = float(q[1]) if q.size > 1 else 0.0
            if q0 > 0.0:
                ratio_out = q1 / q0
                assert ratio_out <= ratio_in * (m - d) + BOUND_SLACK, (
                    f"ratio bound violated: {ratio_out} > {ratio_in} * ({m} - {d})"
                )
                if d == 0 or d == m - 1:
                    assert ratio_out <= ratio_in + BOUND_SLACK, (
                        f"strict ratio bound violated at D={d}, M={m}: "
                        f"{ratio_out} > {ratio_in}"
                    )
    return result


def _checked_output_table(supports, matrix, caps, max_total):
    basis, table = _original_table(supports, matrix, caps, max_total)
    dists = [dict(s) for s in supports]
    two_level = all(
        set(d) <= {0, 1} and abs(sum(d.values()) - 1.0) <= 1e-12 for d in dists
    )
    p = max((d.get(1, 0.0) for d in dists), default=0.0)
    if not two_level or not 0.0 < p < 1.0:
        return basis, table
    ratio_in = p / (1.0 - p)
    m = sum(1 for d in dists if d.get(1, 0.0) > 0.0)
    # pair each (0, pattern) entry with its (1, pattern) entry, in every
    # table of a stack
    zero = np.flatnonzero(basis.states[:, 0] == 0)
    raised = basis.states[zero]
    raised[:, 0] = 1
    one = basis.lookup(raised)
    zero, one = zero[one >= 0], one[one >= 0]
    q0, q1 = table[..., zero], table[..., one]
    _, paths = _original_table(supports, np.abs(matrix), caps, max_total)
    seen = (q0 > 0.0) & (q0 >= DUST * paths[..., zero])
    d = basis.states[zero, 1:].sum(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio_out = q1 / q0
    bad = np.argwhere(seen & (ratio_out > _allowed_ratio(ratio_in, m, d)))
    assert bad.size == 0, (
        f"ratio bound violated in a joint output table at pattern "
        f"{basis.states[zero[bad[0][-1]], 1:].tolist()} (stack index "
        f"{tuple(bad[0][:-1].tolist())}): {ratio_out[tuple(bad[0])]} > {ratio_in} "
        f"at D={d[bad[0][-1]]}, M={m}"
    )
    return basis, table


@pytest.fixture(autouse=True, scope="session")
def ratio_bound_tripwire():
    holders = [conditioner, schemes, detectors, search, cli, photonpost]
    table_holders = [engine, conditioner, detectors, merit, search]
    for mod in holders:
        mod.condition_mixed = _checked_condition_mixed
    for mod in table_holders:
        mod.output_table = _checked_output_table
    yield
    for mod in holders:
        mod.condition_mixed = _original
    for mod in table_holders:
        mod.output_table = _original_table
