"""Passive linear-optical networks as unitary mode maps.

An N-mode element is an N x N unitary L acting on creation operators,
a_i^dag -> sum_k L[k, i] a_k^dag, so column i lists how input mode i
spreads over the outputs.  Composition therefore multiplies matrices
with the later element on the left.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import BadModeIndex, BadParameters, NotUnitary
from .fock import photon_count

UNITARITY_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class Interferometer:
    """N x N unitary with a free-text provenance tag."""

    matrix: np.ndarray
    provenance: str = ""

    def __post_init__(self):
        a = np.array(self.matrix, dtype=complex)
        if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 1:
            raise NotUnitary(f"interferometer matrix must be square, got {a.shape}")
        check_unitary(a)
        a.setflags(write=False)
        object.__setattr__(self, "matrix", a)

    @property
    def n_modes(self) -> int:
        return self.matrix.shape[0]

    def to_json_dict(self) -> dict:
        return {
            "n_modes": self.n_modes,
            "matrix": [
                [{"re": float(z.real), "im": float(z.imag)} for z in row]
                for row in self.matrix
            ],
            "provenance": self.provenance,
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "Interferometer":
        """The inverse of to_json_dict; a malformed n_modes, matrix, row or
        entry raises BadParameters naming it (matrix[i] or matrix[i][j])."""
        n, rows = data.get("n_modes"), data.get("matrix")
        if not (_is_number(n) and (isinstance(n, numbers.Integral) or float(n).is_integer())):
            raise BadParameters(f"n_modes must be a whole number, got {n!r}")
        if not isinstance(rows, (list, tuple)):
            raise BadParameters("matrix must be an array of rows")
        for i, row in enumerate(rows):
            if not isinstance(row, (list, tuple)):
                raise BadParameters(f"matrix[{i}] must be an array")
            for j, z in enumerate(row):
                if not (isinstance(z, dict) and all(_is_number(z.get(k)) for k in ("re", "im"))):
                    raise BadParameters(
                        f"matrix[{i}][{j}] must be an object with numbers 're' and 'im'"
                    )
        if len(rows) != n or any(len(r) != n for r in rows):
            raise NotUnitary("serialized matrix shape disagrees with n_modes")
        a = np.array(
            [[complex(z["re"], z["im"]) for z in row] for row in rows], dtype=complex
        )
        return cls(a, provenance=str(data.get("provenance", "")))


def _is_number(value) -> bool:
    """A real number that is not a bool."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


@functools.lru_cache(maxsize=16)
def _identity(n: int) -> np.ndarray:
    """np.eye(n), cached read-only."""
    eye = np.eye(n)
    eye.setflags(write=False)
    return eye


def check_unitary(a: np.ndarray) -> None:
    """Raise NotUnitary unless every matrix of an (..., N, N) stack is unitary."""
    deviation = abs(a.swapaxes(-1, -2).conj() @ a - _identity(a.shape[-1])).max()
    if not deviation <= UNITARITY_TOL:  # NaN fails too
        raise NotUnitary(
            f"matrix is not unitary within {UNITARITY_TOL} (max deviation {deviation:.3e})"
        )


def coupler_matrix(theta: float, phi: float = 0.0) -> np.ndarray:
    """The 2 x 2 matrix of beam_splitter(theta, phi); the angles must be finite."""
    if not (math.isfinite(theta) and math.isfinite(phi)):
        raise BadParameters(f"angles must be finite, got theta={theta}, phi={phi}")
    ct, st = math.cos(theta), math.sin(theta)
    ph = complex(math.cos(phi), math.sin(phi))
    return np.array([[ph * ct, -st], [st, ph.conjugate() * ct]], dtype=complex)


def beam_splitter(theta: float, phi: float = 0.0) -> Interferometer:
    """Two-mode coupler with reflectivity cos(theta)**2.

    Matrix [[e^{i phi} cos t, -sin t], [sin t, e^{-i phi} cos t]];
    a quoted reflectivity r means theta = arccos(sqrt(r)).
    """
    return Interferometer(
        coupler_matrix(theta, phi), provenance=f"beam_splitter(theta={theta!r}, phi={phi!r})"
    )


def embed_two_mode(
    element: Interferometer, modes: tuple[int, int], n_modes: int
) -> Interferometer:
    """Place a two-mode element on the given pair of modes of an N-mode identity."""
    i, j = modes
    if element.n_modes != 2:
        raise BadModeIndex("embed_two_mode expects a two-mode element")
    if i == j or not (0 <= i < n_modes) or not (0 <= j < n_modes):
        raise BadModeIndex(f"bad mode pair {modes} for {n_modes} modes")
    m = np.eye(n_modes, dtype=complex)
    b = element.matrix
    m[i, i], m[i, j] = b[0, 0], b[0, 1]
    m[j, i], m[j, j] = b[1, 0], b[1, 1]
    return Interferometer(
        m, provenance=f"embed({element.provenance or '2-mode'} @ modes {modes})"
    )


def compose(*elements: Interferometer) -> Interferometer:
    """Apply elements in the order given (earliest first)."""
    if not elements:
        raise BadParameters("compose needs at least one element")
    n = elements[0].n_modes
    total = np.eye(n, dtype=complex)
    for el in elements:
        if el.n_modes != n:
            raise BadModeIndex("composed elements must share the mode count")
        total = el.matrix @ total
    return Interferometer(total, provenance=f"compose({len(elements)} elements)")


def haar_unitaries(n_modes: int, seeds: Sequence[int]) -> np.ndarray:
    """Seeded Haar-random unitaries, a (len(seeds), n, n) stack.

    Each seed draws a complex Gaussian matrix from its own generator; one
    stacked QR factors them all, and dividing out the R-diagonal phases
    makes the distribution exactly Haar.  A seed gives the bit-identical
    matrix wherever it stands in the stack.
    """
    n_modes = photon_count(n_modes)
    if n_modes < 1:
        raise BadModeIndex("need at least one mode")
    z = np.empty((len(seeds), n_modes, n_modes), dtype=complex)
    for k, seed in enumerate(seeds):
        rng = np.random.default_rng(seed)
        z[k] = rng.standard_normal((n_modes, n_modes)) + 1j * rng.standard_normal(
            (n_modes, n_modes)
        )
    q, r = np.linalg.qr(z)
    d = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (d / np.abs(d))[:, None, :]


def haar_random(n_modes: int, seed: int) -> Interferometer:
    """Seeded Haar-random unitary: haar_unitaries for one seed, validated."""
    if seed < 0:
        raise BadParameters(f"seeds must be non-negative, got {seed}")
    return Interferometer(
        haar_unitaries(n_modes, [seed])[0], provenance=f"haar_random(n={n_modes}, seed={seed})"
    )
