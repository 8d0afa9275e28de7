"""Joint output weights by expanding creation operators.

Input configuration s leaves the interferometer as
prod_i (sum_k U[k, i] b_k^dag)^{s_i} / sqrt(s_i!) |0>.  If c_s[n] is the
coefficient of prod_k (b_k^dag)^{n_k}, then <n|U|s> = c_s[n] sqrt(n!/s!)
= per(U[n, s]) / sqrt(n! s!), reached by multiplying and adding path
amplitudes only, without the cancellation of Ryser's alternating sum.
Input modes are expanded one at a time, one coefficient row per emission
configuration, so configurations sharing an input prefix share partial
products; rows with t photons only reach vectors with t photons (sector
t).  One gather, multiply and segmented sum per (input mode, count) adds
its rows to one flat buffer; one more gather lays the kept rows out by
sector.  For a diagonal source the joint output weight of vector n is

    P(n) = n! * sum_s w_s |c_s[n]|^2,    w_s = prod_i P_i(s_i) / s_i!

Only vectors with n[k] <= caps[k] and sum(n) <= max_total are kept, which
is exact for them: photons are only ever added.  Cap-0 modes drop out.

reader(supports, caps, max_total) returns the cached Reader of that walk,
its plan, row weights and U entries resolved once: conditioner.Readout
binds one, so its reads build no cache key.  output_table and expand are
thin calls of it.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DimensionTooLarge

# Largest rows * states coefficient array the engine allocates (32 MiB of
# complex128); bigger problems raise instead of exhausting memory.
MAX_CELLS = 1 << 21
MAX_TOTAL = 170  # the largest n with n! below the float maximum
SLICE_CELLS = 1 << 12  # walk stacks in slices this wide: temporaries stay in cache


@dataclass(frozen=True, eq=False)
class Basis:
    """Occupation vectors with n[k] <= caps[k] and sum(n) <= total.

    states is sorted by key = n @ strides + sum(n) * span, so sector t,
    the vectors with t photons, is states[offsets[t]:offsets[t + 1]].
    edges = (sources, modes, starts) adds a photon: edge e takes state
    sources[e] through output mode modes[e], edges run by target state,
    and the edges into state j >= 1 start at starts[j - 1].
    """

    caps: np.ndarray
    total: int
    states: np.ndarray
    factorials: np.ndarray
    offsets: np.ndarray
    edges: tuple
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
    if total > MAX_TOTAL:
        raise DimensionTooLarge(f"{total} photons overflow float factorials past {MAX_TOTAL}")
    limits = np.minimum(np.maximum(np.array(caps, dtype=np.int64), 0), total)
    radix = [int(c) + 1 for c in limits]
    span = math.prod(radix)
    grown = np.zeros((1, 0), dtype=np.int64)  # the columns of the modes that take photons
    for r in radix:
        if span * (total + 1) >= 2**63 or len(grown) * r * len(caps) > MAX_CELLS:
            raise DimensionTooLarge(f"output basis for caps {caps} is too large")
        if r > 1:
            digits = np.arange(len(grown) * r)[:, None] % r
            grown = np.concatenate([grown.repeat(r, axis=0), digits], axis=1)
            grown = grown[grown.sum(axis=1) <= total]
    states = np.zeros((len(grown), len(caps)), dtype=np.int64)
    states[:, limits > 0] = grown
    strides = np.array([math.prod(radix[k + 1 :]) for k in range(len(caps))], dtype=np.int64)
    keys = states @ strides + states.sum(axis=1) * span
    order = np.argsort(keys)
    states, keys = states[order], keys[order]
    offsets = np.searchsorted(keys // span, np.arange(keys[-1] // span + 2))
    sources, modes = np.nonzero(states[: offsets[-2]] < limits)  # the top sector gets none
    targets = np.searchsorted(keys, keys[sources] + strides[modes] + span)
    order = np.argsort(targets, kind="stable")
    sources, modes = sources[order], modes[order]
    starts = np.flatnonzero(np.diff(targets[order], prepend=0))
    fact = np.array([math.factorial(k) for k in range(total + 1)], dtype=float)
    factorials = fact[states].prod(axis=1)
    for a in (limits, states, factorials, offsets, strides, keys, sources, modes, starts):
        a.setflags(write=False)
    edges = (sources, modes, starts)
    return Basis(limits, total, states, factorials, offsets, edges, strides, span, keys)


@dataclass(frozen=True, eq=False)
class _Plan:
    """How expand walks one support structure over basis(caps, total).

    Rows fill a buffer of width cells in creation order, the vacuum in
    cell 0.  Op (mode, sources, starts, e, f, lo, hi) makes cells lo:hi, the
    rows one more photon of input mode `mode` reaches: its edge k is cell
    sources[k] times the U entry entries[e + k] of the flat N x N matrix
    (row * N + mode), cell lo + j sums the edges from starts[j], and edge 0
    (entries[e]) is a spare no sum reads.  order gathers the kept rows by
    sector, (total, rows, cells lo, hi) in sectors, in the earlier walk's order;
    layers[i] = (start, count, k): rows start:start + count kept before
    mode i, grown by count index k.  cells: configurations times the
    largest sector, or the width if more, per matrix (Reader.stack's unit).
    """

    basis: Basis
    cells: int
    width: int
    ops: tuple
    entries: np.ndarray
    order: np.ndarray
    sectors: tuple
    layers: tuple


def _spans(lo: np.ndarray, n: np.ndarray) -> np.ndarray:
    """The ranges lo[k] + arange(n[k]), concatenated."""
    return np.arange(n.sum()) + (lo - n.cumsum() + n).repeat(n)


@functools.lru_cache(maxsize=128)
def _plan(counts: tuple[tuple[int, ...], ...], caps: tuple[int, ...], total: int) -> _Plan:
    """The (cached) plan for modes emitting counts[i] photons: mode by mode,
    live holds the kept rows' ids (creation order) in (total, start, rows)
    blocks, and each op builds rows block by block; then the rows built
    (runs of source ids and total) get their cells and edges.  A plan whose
    configurations times its largest sector, walked rows or cells exceed
    MAX_CELLS raises before its arrays are allocated: not even one matrix
    could walk it."""
    b = basis(caps, total)
    top, sizes = len(b.offsets) - 2, np.diff(b.offsets)  # top: largest photon total
    configs = math.prod(len(c) for c in counts)
    if configs * int(sizes.max()) > MAX_CELLS:
        walked = "rows" if configs > MAX_CELLS else "cells"
        raise DimensionTooLarge(
            f"walked {walked} exceed {MAX_CELLS}: {configs} configurations x {sizes.max()} states"
        )
    reach = {c: [max((k for k in c if k <= top - t), default=0) for t in range(top + 1)]
             for c in set(counts)}  # reach[c][t]: the largest count total t may take
    live, blocks, built, runs, ops, layers = np.zeros(1, np.int64), [(0, 0, 1)], 1, [], [], []
    for i, most in enumerate(reach[c] for c in counts):
        made = [[live[lo : lo + n]] for _, lo, n in blocks]  # made[j][c]: block j, c photons more
        for c in range(1, max((most[t] for t, _, _ in blocks), default=0) + 1):
            ops.append((i, built))
            for (t, _, n), rows in zip(blocks, made):
                if most[t] >= c:
                    runs.append((rows[-1], t + c))
                    rows.append(np.arange(built, built + n))
                    built += n
            if built > MAX_CELLS:
                raise DimensionTooLarge(f"{built} walked rows exceed {MAX_CELLS}")
        grown = {}  # new total: its rows' (ids, start in live, count index), in order
        for (t, lo, _), rows in zip(blocks, made):
            for k, c in enumerate(counts[i]):
                if c <= most[t]:
                    grown.setdefault(t + c, []).append((rows[c], lo, k))
        parts = [part for u in grown for part in grown[u]]
        live = np.concatenate([live[:0]] + [ids for ids, _, _ in parts])
        layers.append([(lo, len(ids), k) for ids, lo, k in parts])
        lengths = [sum(len(part[0]) for part in grown[u]) for u in grown]
        blocks = list(zip(grown, itertools.accumulate(lengths, initial=0), lengths))
    # rows built, ids 1, 2, ...: source cells, totals, cells and edges
    sources, modes, starts = b.edges
    first = np.append(starts[b.offsets[1:-1] - 1], len(sources))  # first edge into totals 1, 2, ...
    totals = np.repeat([t for _, t in runs], [len(ids) for ids, _ in runs]).astype(np.int64)
    size, fan, first = sizes[totals], np.diff(first)[totals - 1], first[totals - 1]
    cells_at, edges_at = np.append(0, size.cumsum()) + 1, np.append(0, fan.cumsum())
    if cells_at[-1] > MAX_CELLS:
        raise DimensionTooLarge(f"{cells_at[-1]} walked cells exceed {MAX_CELLS}")
    cell = np.append(0, cells_at[:-1])  # first cell by id
    edges = _spans(first, fan)
    grown_from = cell[np.concatenate([live[:0]] + [ids for ids, _ in runs])]
    sources = (grown_from - b.offsets[totals - 1]).repeat(fan) + sources[edges]
    # op j builds rows bounds[j]:bounds[j + 1]; + 1: its edges start with the spare
    modes, bounds = modes[edges], np.array([a for _, a in ops] + [built]) - 1
    base = edges_at[:-1] + 1 - first - edges_at[bounds[:-1]].repeat(np.diff(bounds))
    starts = starts[_spans(b.offsets[totals] - 1, size)] + base.repeat(size)
    e, c = edges_at[bounds].tolist(), cells_at[bounds].tolist()
    # each op's edges, its spare first, read U[modes, mode] of the flat matrix
    mode = np.array([i for i, _ in ops], np.int64).repeat(np.diff(e) + 1)
    entries = np.insert(modes, e[:-1], 0) * len(caps) + mode
    ops = tuple(  # op j's edges, after j spares, are entries a + j:z + j + 1
        (i, np.append(0, sources[a:z]), starts[lo - 1 : hi - 1], a + j, z + j + 1, lo, hi)
        for j, ((i, _), a, z, lo, hi) in enumerate(zip(ops, e, e[1:], c, c[1:]))
    )
    order = _spans(cell[live], np.repeat(sizes[[t for t, *_ in blocks]], [n for *_, n in blocks]))
    layers = tuple(np.array(layer, np.int64).reshape(-1, 3).T for layer in layers)
    for a in (entries, order, *layers, *(a for op in ops for a in op[1:3])):
        a.setflags(write=False)
    width = int(cells_at[-1])
    cells = max(configs * int(sizes.max()), width)
    cuts = list(itertools.accumulate((n * int(sizes[t]) for t, _, n in blocks), initial=0))
    sectors = tuple((t, n, a, z) for (t, _, n), a, z in zip(blocks, cuts, cuts[1:]))
    return _Plan(b, cells, width, ops, entries, order, sectors, layers)


class Reader:
    """One support structure's walk over basis(caps, total), bound once
    (reader caches it): the plan, whose U entries a slice of the stack
    gathers with one take, and its row weights prod_i weight_i / s_i! by
    sector (read-only).  The weights' types are part of the cache key,
    which keeps equal float and complex weights apart.
    """

    def __init__(self, supports: tuple, caps: tuple[int, ...], total: int):
        plan = _plan(tuple(tuple(c for c, _ in s) for s in supports), caps, total)
        self.supports, self.plan, self.basis = supports, plan, plan.basis
        self.slice = max(1, SLICE_CELLS // plan.width)  # matrices walked at once
        weights = np.ones(1)
        for (lo, n, k), support in zip(plan.layers, supports):
            factors = np.array([w / math.factorial(c) for c, w in support])
            weights = weights[_spans(lo, n)] * factors[k.repeat(n)]
        weights.setflags(write=False)
        weights = np.split(weights, np.cumsum([n for _, n, _, _ in plan.sectors])[:-1])
        offsets = plan.basis.offsets
        # (weights, rows, cells a:z of the kept rows, states lo:hi): sector t's
        self.sectors = {t: (w, n, a, z, offsets[t], offsets[t + 1])
                        for (t, n, a, z), w in zip(plan.sectors, weights)}

    @property
    def stack(self) -> int:
        """Most matrices one call takes within MAX_CELLS."""
        return MAX_CELLS // self.plan.cells

    def _walk(self, matrix, values) -> np.ndarray:
        """values(buf) of each slice of the stack walked, its kept rows
        gathered by sector: (B, kept) for a stack, (kept,) for one matrix.
        The walk runs matrix-minor, buf[cell, matrix], so each op's edges
        and U entries are contiguous rows; every product and sum is the
        same as in a matrix-major walk."""
        matrix = np.asarray(matrix, dtype=complex)
        stack = matrix.reshape((-1,) + matrix.shape[-2:])
        plan, size, kept = self.plan, self.slice, None
        if len(stack) * plan.cells > MAX_CELLS:
            raise DimensionTooLarge(f"{len(stack)} x {plan.cells} coefficients exceed {MAX_CELLS}")
        # U entries by (row * N + column, matrix); no -1 in the shape: B may be 0
        flat = stack.reshape(len(stack), math.prod(stack.shape[1:])).T
        for lo in range(0, max(len(stack), 1), size):  # an empty stack: one empty slice
            entries = flat[:, lo : lo + size].take(plan.entries, axis=0)
            buf = np.empty((plan.width, entries.shape[1]), dtype=complex)
            buf[0] = 1.0
            for _, sources, starts, e, f, a, z in plan.ops:
                # a spare edge: lone in-place products round apart
                terms = buf.take(sources, axis=0)
                terms *= entries[e:f]
                np.add.reduceat(terms, starts, axis=0, out=buf[a:z])
            cells = values(buf).take(plan.order, axis=0)
            kept = np.empty((len(stack), len(plan.order)), cells.dtype) if kept is None else kept
            kept[lo : lo + size] = cells.T
        return kept[0] if matrix.ndim == 2 else kept

    def expand(self, matrix) -> dict:
        """sectors[t] = (weights, coeffs) of engine.expand for one matrix or a stack."""
        kept = self._walk(matrix, lambda buf: buf)
        shape = kept.shape[:-1]  # states spelt out: an empty stack has no -1 to infer
        return {t: (w, kept[..., a:z].reshape(shape + (n, (z - a) // n)))
                for t, (w, n, a, z, _, _) in self.sectors.items()}

    def table(self, matrix) -> np.ndarray:
        """engine.output_table's weights with one more cell, a zero, after
        the states: (B, states + 1) for a stack, (states + 1,) for one
        matrix.  The walked coefficients are squared before the kept rows
        are gathered."""
        squares = self._walk(matrix, lambda buf: buf.real**2 + buf.imag**2)
        shape, b = squares.shape[:-1], self.basis
        table = np.zeros(shape + (len(b.states) + 1,))
        for w, n, a, z, lo, hi in self.sectors.values():
            table[..., lo:hi] = w @ squares[..., a:z].reshape(shape + (n, (z - a) // n))
        table[..., :-1] *= b.factorials
        return table


@functools.lru_cache(maxsize=128)
def _reader(supports: tuple, kinds: tuple, caps: tuple[int, ...], total: int) -> Reader:
    return Reader(supports, caps, total)


def reader(
    supports: Sequence[Sequence[tuple[int, float]]], caps: Sequence[int], max_total: int
) -> Reader:
    """The (cached) Reader of supports over basis(caps, max_total)."""
    supports = tuple(map(tuple, supports))
    kinds = tuple(type(w) for s in supports for _, w in s)
    return _reader(supports, kinds, tuple(map(int, caps)), int(max_total))


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
    call with it alone would.  The walk is the supports' cached Reader's.
    """
    r = reader(supports, caps, max_total)
    return r.basis, r.expand(matrix)


def output_table(
    supports: Sequence[Sequence[tuple[int, float]]], matrix, caps: Sequence[int], max_total: int
) -> tuple[Basis, np.ndarray]:
    """Joint output weights n! * sum_s w_s |c_s[n]|^2 over basis(caps, max_total).

    With probabilities as the support weights these are the joint output
    probabilities P(n); every entry is exact, however tight the caps.  A
    stack of B matrices gives a (B, states) table, one row per matrix: the
    cached Reader's table without its zero cell.
    """
    r = reader(supports, caps, max_total)
    return r.basis, r.table(matrix)[..., :-1]
