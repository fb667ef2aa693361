"""Maps from pre-encoded operators to qubit-space Pauli sums.

Fermions use the Jordan-Wigner transformation (Z string on lower-indexed
qubits). Truncated bosonic modes are embedded at Gray-code rows of a
2^k-dimensional block and projected onto the Pauli basis; unused
computational-basis rows of the embedded block are exactly zero.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .errors import DataError, DimensionError, DomainError
from .operators import BosonOperator, FermionOperator, boson_matrices
from .pauli import PauliString, PauliSum, pauli_masks, tensor_expansion
from .pauli import pauli_project  # noqa: F401  (also a public name of this module)

_IMAG_TOL = 1e-10
_COEFF_TOL = 1e-12
# A ladder op's 2x2 factor on one qubit: Z below its mode; a+ = |1><0| or a = |0><1| on it.
_JW_BLOCKS = {"Z": np.diag([1.0, -1.0]), True: np.eye(2, k=-1), False: np.eye(2, k=1)}


def _pauli_sum(products, n: int, what: str) -> PauliSum:
    """Real PauliSum of the tensor_expansion of each (coeff, factors) product, summed in order."""
    acc: defaultdict[tuple[int, int], complex] = defaultdict(complex)
    for coeff, factors in products:
        for c, x, z in tensor_expansion(coeff, factors, _COEFF_TOL):
            acc[(x, z)] += c
    terms, constant = [], 0.0
    for (x, z), coeff in acc.items():
        string = PauliString(n, x, z)
        if abs(coeff.imag) > _IMAG_TOL * max(1.0, abs(coeff)):
            raise DataError(f"{what} produced non-Hermitian content: {coeff} * {string.letters}")
        if string.is_identity:
            constant += coeff.real
        else:
            terms.append((coeff.real, string))
    return PauliSum(n, terms, constant)


def _ladder_factors(ops, cache: dict) -> list:
    """A ladder product qubit by qubit: one fixed Z mask on the qubits that are not modes of the
    term, then on each mode qubit the Pauli masks of its ordered product of 2x2 factors."""
    modes = sorted({m for m, _ in ops})
    below = 0  # parity of the Z strings of all ops
    for m, _ in ops:
        below ^= (1 << m) - 1
    factors = [[(1.0, 0, below & ~sum(1 << m for m in modes))]] if ops else []
    for q in modes:
        pattern = tuple("Z" if m > q else dagger for m, dagger in ops if m >= q)
        if (q, pattern) not in cache:
            block = reduce(np.matmul, [_JW_BLOCKS[p] for p in pattern])
            cache[q, pattern] = pauli_masks(block, (q,))
        factors.append(cache[q, pattern])
    return factors


def jordan_wigner(op: FermionOperator) -> PauliSum:
    """Qubit image of a Hermitian fermionic operator; one qubit per mode."""
    cache: dict = {}
    products = ((coeff, _ladder_factors(ops, cache)) for coeff, ops in op.terms)
    return _pauli_sum(products, op.modes, "jordan_wigner")


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


def _gray_masks(A: np.ndarray, gm: GrayMap, qubits):
    """Pauli masks of a mode matrix embedded at Gray rows, on `qubits`, without |c| <= 1e-12."""
    return [t for t in pauli_masks(embed_matrix(A, gm), qubits) if abs(t[0]) > _COEFF_TOL]


def encode_boson_block(A: np.ndarray, gm: GrayMap) -> PauliSum:
    """Hermitian d x d mode matrix -> PauliSum on k_mode qubits."""
    A = np.asarray(A, dtype=complex)
    if np.max(np.abs(A - A.conj().T)) > 1e-10:
        raise DomainError("block is not Hermitian")
    products = [(1.0, [_gray_masks(A, gm, range(gm.k_mode))])]
    return _pauli_sum(products, gm.k_mode, "encode_boson_block")


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
    mats = boson_matrices(op.d)
    layout = mode_qubit_layout(op.modes, gm.k_mode)
    products = []
    for coeff, factors in op.terms:
        blocks: dict[int, np.ndarray] = {}
        for mode, symbol in factors:
            blocks[mode] = blocks[mode] @ mats[symbol] if mode in blocks else mats[symbol]
        products.append((coeff, [_gray_masks(blocks[m], gm, layout[m]) for m in sorted(blocks)]))
    pauli = _pauli_sum(products, op.modes * gm.k_mode, "encode_boson_operator")
    return EncodedOperator(pauli, layout, gm)
