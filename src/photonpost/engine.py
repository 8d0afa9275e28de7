"""Joint output weights by expanding creation operators.

Input configuration s leaves the interferometer as
prod_i (sum_k U[k, i] b_k^dag)^{s_i} / sqrt(s_i!) |0>.  If c_s[n] is the
coefficient of prod_k (b_k^dag)^{n_k}, then <n|U|s> = c_s[n] sqrt(n!/s!)
= per(U[n, s]) / sqrt(n! s!), reached by multiplying and adding path
amplitudes only, without the cancellation of Ryser's alternating sum.
Input modes are expanded one at a time, one coefficient row per emission
configuration, so configurations sharing an input prefix share partial
products; rows with t photons only reach vectors with t photons, so each
photon total (sector) has its own (rows, states) array.  For a diagonal
source the joint output weight of the occupation vector n is

    P(n) = n! * sum_s w_s |c_s[n]|^2,    w_s = prod_i P_i(s_i) / s_i!

Only vectors with n[k] <= caps[k] and sum(n) <= max_total are kept, which
is exact for them: photons are only ever added.  Cap-0 modes drop out.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DimensionTooLarge

# Largest rows * states coefficient array the engine allocates (32 MiB of
# complex128); bigger problems raise instead of exhausting memory.
MAX_CELLS = 1 << 21


@dataclass(frozen=True, eq=False)
class Basis:
    """Occupation vectors with n[k] <= caps[k] and sum(n) <= total.

    states is sorted by key = n @ strides + sum(n) * span, so sector t,
    the vectors with t photons, is states[offsets[t]:offsets[t + 1]].
    steps[t] = (sources, modes, starts) adds a photon to sector t: edge e
    takes state sources[e] through output mode modes[e], and the edges
    into the j-th state of sector t + 1 start at starts[j].
    """

    caps: np.ndarray
    total: int
    states: np.ndarray
    factorials: np.ndarray
    offsets: np.ndarray
    steps: tuple
    strides: np.ndarray
    span: int
    keys: np.ndarray

    def lookup(self, vectors) -> np.ndarray:
        """Indices of full-length occupation vectors, -1 outside the basis."""
        v = np.asarray(vectors, dtype=np.int64).reshape(-1, self.caps.size)
        inside = np.all(v <= self.caps, axis=1) & (v.sum(axis=1) <= self.total)
        pos = np.searchsorted(self.keys, v @ self.strides + v.sum(axis=1) * self.span)
        return np.where(inside, np.minimum(pos, len(self.keys) - 1), -1)


@functools.lru_cache(maxsize=128)
def basis(caps: tuple[int, ...], total: int) -> Basis:
    """The (cached, read-only) basis for per-mode caps and a total limit."""
    limits = np.minimum(np.maximum(np.array(caps, dtype=np.int64), 0), total)
    radix = [int(c) + 1 for c in limits]
    span = math.prod(radix)
    states = np.zeros((1, 0), dtype=np.int64)
    for r in radix:
        if span * (total + 1) >= 2**63 or len(states) * r * len(caps) > MAX_CELLS:
            raise DimensionTooLarge(f"output basis for caps {caps} is too large")
        states = np.column_stack(
            [np.repeat(states, r, axis=0), np.tile(np.arange(r), len(states))]
        )
        states = states[states.sum(axis=1) <= total]
    strides = np.array([math.prod(radix[k + 1 :]) for k in range(len(caps))], dtype=np.int64)
    keys = states @ strides + states.sum(axis=1) * span
    order = np.argsort(keys)
    states, keys = states[order], keys[order]
    offsets = np.searchsorted(keys // span, np.arange(keys[-1] // span + 2))
    steps = []
    for t in range(len(offsets) - 2):
        lo, hi = offsets[t], offsets[t + 1]
        sources, modes = np.nonzero(states[lo:hi] < limits)
        targets = np.searchsorted(keys, keys[lo + sources] + strides[modes] + span) - hi
        order = np.argsort(targets, kind="stable")
        starts = np.flatnonzero(np.diff(targets[order], prepend=-1))
        steps.append((sources[order], modes[order], starts))
    fact = np.array([math.factorial(k) for k in range(total + 1)], dtype=float)
    factorials = fact[states].prod(axis=1)
    for a in (limits, states, factorials, offsets, strides, keys, *sum(steps, ())):
        a.setflags(write=False)
    return Basis(limits, total, states, factorials, offsets, tuple(steps), strides, span, keys)


@dataclass(frozen=True, eq=False)
class _Plan:
    """How expand walks one support structure over basis(caps, total).

    layers[i] expands input mode i: (shapes, chains), where shapes maps
    each sector it builds, in build order, to its (rows, states), and
    chains[k] runs over the k-th sector it reads, one (count, step, dest)
    per photon count c = 0, 1, ... up to the largest it keeps: step is the
    Basis.steps entry that adds the c-th photon (None at c = 0), dest the
    (sector, row slice) the c-photon rows go to, or None for a count the
    mode cannot emit.  sectors lists the photon totals of the last
    arrays built, and cells the coefficients of the largest sector array
    for one matrix.
    """

    basis: Basis
    cells: int
    layers: tuple
    sectors: tuple


@functools.lru_cache(maxsize=128)
def _plan(counts: tuple[tuple[int, ...], ...], caps: tuple[int, ...], total: int) -> _Plan:
    """The (cached) plan for modes emitting counts[i] photons."""
    b = basis(caps, total)
    top, sizes = len(b.offsets) - 2, np.diff(b.offsets).tolist()  # top: largest photon total
    sectors = [(0, 1)]  # (photon total, rows) of the coefficient arrays
    layers = []
    for mode_counts in counts:
        rows, chains = {}, []
        for t, n in sectors:
            kept = [c for c in mode_counts if c <= top - t]
            chain = []
            for c in range(kept[-1] + 1 if kept else 0):
                dest = None
                if c in kept:
                    lo = rows.get(t + c, 0)
                    rows[t + c] = lo + n
                    dest = (t + c, slice(lo, lo + n))
                chain.append((c, b.steps[t + c - 1] if c else None, dest))
            chains.append(tuple(chain))
        layers.append(({t: (n, sizes[t]) for t, n in rows.items()}, tuple(chains)))
        sectors = list(rows.items())
    cells = math.prod(len(c) for c in counts) * max(sizes)
    return _Plan(b, cells, tuple(layers), tuple(t for t, _ in sectors))


@functools.lru_cache(maxsize=128)
def _rows(supports: tuple, kinds: tuple, caps: tuple[int, ...], total: int) -> tuple[_Plan, list]:
    """The plan for supports and its row weights, one (cached, read-only)
    array per sector in build order: prod_i weight_i / s_i!, multiplied
    mode by mode.  kinds, the weights' types, keeps a float and a complex
    weight apart, which hash alike when equal."""
    plan = _plan(tuple(tuple(c for c, _ in s) for s in supports), caps, total)
    weights = [np.ones(1)]
    for weight_of, (shapes, chains) in zip(map(dict, supports), plan.layers):
        parts = {t: [] for t in shapes}
        for w, chain in zip(weights, chains):
            for c, _, dest in chain:
                if dest is not None:
                    parts[dest[0]].append(w * (weight_of[c] / math.factorial(c)))
        weights = [np.concatenate(p) for p in parts.values()]
    for w in weights:
        w.setflags(write=False)
    return plan, weights


def max_stack(
    supports: Sequence[Sequence[tuple[int, float]]], caps: Sequence[int], max_total: int
) -> int:
    """Most matrices one expand call takes within MAX_CELLS (0: not even one)."""
    counts = tuple(tuple(c for c, _ in s) for s in supports)
    return MAX_CELLS // _plan(counts, tuple(int(c) for c in caps), int(max_total)).cells


def expand(
    supports: Sequence[Sequence[tuple[int, float]]], matrix, caps: Sequence[int], max_total: int
) -> tuple[Basis, dict]:
    """Expansion coefficients c_s[n] for every configuration s of the supports.

    supports[i] lists (count, weight) pairs of input mode i, counts
    ascending; weights are probabilities for a mixed source or complex
    amplitudes for a pure one, and are only ever multiplied.  Returns
    (basis, sectors): sectors[t] = (weights, coeffs) holds one row per
    configuration s with t photons, its weight prod_i weight_i / s_i!
    (read-only) and its coefficients on the states of sector t.
    matrix is one N x N matrix or a stack (B, N, N); a stack gives coeffs
    a leading batch axis, and each matrix gets exactly the coefficients a
    call with it alone would.  The walk and the weights come from the
    cached plan of the supports.
    """
    supports = tuple(map(tuple, supports))
    kinds = tuple(type(w) for s in supports for _, w in s)
    plan, weights = _rows(supports, kinds, tuple(int(c) for c in caps), int(max_total))
    matrix = np.asarray(matrix, dtype=complex)
    stack = matrix.reshape((-1,) + matrix.shape[-2:])
    if len(stack) * plan.cells > MAX_CELLS:
        raise DimensionTooLarge(f"{len(stack)} x {plan.cells} coefficients exceed {MAX_CELLS}")
    powers = [np.ones((len(stack), 1, 1), dtype=complex)]
    for i, (shapes, chains) in enumerate(plan.layers):
        column = stack[:, None, :, i]
        built = {}
        for power, chain in zip(powers, chains):
            for c, step, dest in chain:
                out = None
                if dest is not None:
                    t, rows = dest
                    if t not in built:  # at its first write: fewer blocks live, fewer page faults
                        built[t] = np.empty((len(stack), *shapes[t]), dtype=complex)
                    out = built[t][:, rows]
                if c:  # multiply by sum_k U[k, i] b_k^dag, in the gathered copy
                    sources, modes, starts = step
                    terms = power.take(sources, axis=-1)
                    terms *= column.take(modes, axis=-1)
                    power = np.add.reduceat(terms, starts, axis=-1, out=out)
                elif out is not None:
                    out[...] = power
        powers = list(built.values())
    if matrix.ndim == 2:
        powers = [coeffs[0] for coeffs in powers]
    return plan.basis, dict(zip(plan.sectors, zip(weights, powers)))


def output_table(
    supports: Sequence[Sequence[tuple[int, float]]], matrix, caps: Sequence[int], max_total: int
) -> tuple[Basis, np.ndarray]:
    """Joint output weights n! * sum_s w_s |c_s[n]|^2 over basis(caps, max_total).

    With probabilities as the support weights these are the joint output
    probabilities P(n); every entry is exact, however tight the caps.  A
    stack of B matrices gives a (B, states) table, one row per matrix.
    """
    b, sectors = expand(supports, matrix, caps, max_total)
    table = np.zeros(np.shape(matrix)[:-2] + (len(b.states),))
    for t, (weights, coeffs) in sectors.items():
        table[..., b.offsets[t] : b.offsets[t + 1]] = weights @ (coeffs.real**2 + coeffs.imag**2)
    return b, table * b.factorials
