"""Maps from pre-encoded operators to qubit-space Pauli sums.

Fermions use the Jordan-Wigner transformation (Z string on lower-indexed
qubits). Truncated bosonic modes are embedded at Gray-code rows of a
2^k-dimensional block and projected onto the Pauli basis; unused
computational-basis rows of the embedded block are exactly zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DataError, DimensionError, DomainError
from .operators import BosonOperator, FermionOperator, boson_matrices
from .pauli import PauliString, PauliSum, multiply, pauli_project

_IMAG_TOL = 1e-10
_COEFF_TOL = 1e-12

ComplexTerms = list[tuple[complex, PauliString]]


def _ladder_terms(mode: int, modes: int, dagger: bool) -> ComplexTerms:
    """JW image of a ladder operator: Z_0..Z_{mode-1} (X -+ iY)_mode / 2."""
    zs = [(q, "Z") for q in range(mode)]
    x_string = PauliString.from_ops(zs + [(mode, "X")], modes)
    y_string = PauliString.from_ops(zs + [(mode, "Y")], modes)
    y_coeff = -0.5j if dagger else 0.5j
    return [(0.5, x_string), (y_coeff, y_string)]


def _product(a: ComplexTerms, b: ComplexTerms) -> ComplexTerms:
    out: dict[PauliString, complex] = {}
    for ca, sa in a:
        for cb, sb in b:
            phase, s = multiply(sa, sb)
            out[s] = out.get(s, 0.0) + ca * cb * phase
    return [(c, s) for s, c in out.items() if abs(c) > _COEFF_TOL]


def _realify(acc: dict[PauliString, complex], n: int, what: str) -> PauliSum:
    terms = []
    constant = 0.0
    for string, coeff in acc.items():
        if abs(coeff.imag) > _IMAG_TOL * max(1.0, abs(coeff)):
            raise DataError(f"{what} produced non-Hermitian content: {coeff} * {string.letters}")
        if string.is_identity:
            constant += coeff.real
        else:
            terms.append((coeff.real, string))
    return PauliSum(n, terms, constant)


def jordan_wigner(op: FermionOperator) -> PauliSum:
    """Qubit image of a Hermitian fermionic operator; one qubit per mode."""
    n = op.modes
    acc: dict[PauliString, complex] = {}
    for coeff, ops in op.terms:
        terms: ComplexTerms = [(complex(coeff), PauliString.identity(n))]
        for mode, dagger in ops:
            terms = _product(terms, _ladder_terms(mode, n, dagger))
        for c, s in terms:
            acc[s] = acc.get(s, 0.0) + c
    return _realify(acc, n, "jordan_wigner")


@dataclass(frozen=True)
class GrayMap:
    """Reflected binary Gray sequence truncated to d codes.

    codes[l] is the bitstring for level l; character 0 maps to the lowest
    qubit index of the mode (and is the most significant bit of the
    embedded block row index).
    """

    d: int
    k_mode: int
    codes: tuple[str, ...]

    def index(self, level: int) -> int:
        return int(self.codes[level], 2)


def gray_map(d: int) -> GrayMap:
    if d < 2:
        raise DomainError(f"need d >= 2, got {d}")
    k = max(1, math.ceil(math.log2(d)))
    codes = tuple(format(l ^ (l >> 1), f"0{k}b") for l in range(d))
    return GrayMap(d, k, codes)


def embed_matrix(A: np.ndarray, gm: GrayMap) -> np.ndarray:
    """Place a d x d mode matrix at Gray-code rows/columns of a 2^k block."""
    A = np.asarray(A, dtype=complex)
    if A.shape != (gm.d, gm.d):
        raise DimensionError(f"expected {gm.d} x {gm.d} block, got {A.shape}")
    dim = 1 << gm.k_mode
    out = np.zeros((dim, dim), dtype=complex)
    rows = np.array([gm.index(l) for l in range(gm.d)])
    out[np.ix_(rows, rows)] = A
    return out


def encode_boson_block(A: np.ndarray, gm: GrayMap) -> PauliSum:
    """Hermitian d x d mode matrix -> PauliSum on k_mode qubits."""
    A = np.asarray(A, dtype=complex)
    if np.max(np.abs(A - A.conj().T)) > 1e-10:
        raise DomainError("block is not Hermitian")
    M = embed_matrix(A, gm)
    acc = {s: c for c, s in pauli_project(M, gm.k_mode) if abs(c) > _COEFF_TOL}
    return _realify(acc, gm.k_mode, "encode_boson_block")


@dataclass(frozen=True)
class EncodedOperator:
    """Qubit image of a bosonic operator plus the mode-to-qubit layout."""

    pauli: PauliSum
    mode_qubits: dict[int, tuple[int, ...]]
    gray: GrayMap

    @property
    def n(self) -> int:
        return self.pauli.n


def mode_qubit_layout(modes: int, k_mode: int) -> dict[int, tuple[int, ...]]:
    return {m: tuple(range(m * k_mode, (m + 1) * k_mode)) for m in range(modes)}


def encode_boson_operator(op: BosonOperator) -> EncodedOperator:
    """Gray-encode every mode into k_mode contiguous qubits.

    Each term becomes the tensor product of its per-mode encoded blocks;
    same-mode factors multiply as d x d matrices in listed order first.
    """
    gm = gray_map(op.d)
    k = gm.k_mode
    mats = boson_matrices(op.d)
    n = op.modes * k
    layout = mode_qubit_layout(op.modes, k)
    project_cache: dict[bytes, ComplexTerms] = {}
    acc: dict[PauliString, complex] = {}
    for coeff, factors in op.terms:
        per_mode: dict[int, np.ndarray] = {}
        for mode, symbol in factors:
            block = mats[symbol]
            per_mode[mode] = block if mode not in per_mode else per_mode[mode] @ block
        combined: ComplexTerms = [(complex(coeff), PauliString.identity(n))]
        for mode in sorted(per_mode):
            M = embed_matrix(per_mode[mode], gm)
            key = M.tobytes()
            local = project_cache.get(key)
            if local is None:
                local = [(c, s) for c, s in pauli_project(M, k) if abs(c) > _COEFF_TOL]
                project_cache[key] = local
            shifted = [(c, PauliString(n, s.x << mode * k, s.z << mode * k)) for c, s in local]
            combined = _product(combined, shifted)
        for c, s in combined:
            acc[s] = acc.get(s, 0.0) + c
    return EncodedOperator(_realify(acc, n, "encode_boson_operator"), layout, gm)
