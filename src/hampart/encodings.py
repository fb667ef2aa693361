"""Maps from pre-encoded operators to qubit-space Pauli sums.

Fermions use the Jordan-Wigner transformation (Z string on lower-indexed
qubits). Truncated bosonic modes are embedded at Gray-code rows of a
2^k-dimensional block and projected onto the Pauli basis; unused
computational-basis rows of the embedded block are exactly zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from itertools import chain

import numpy as np

from .errors import DimensionError, DomainError
from .operators import BosonOperator, FermionOperator, boson_matrices
from .pauli import PauliSum, _first_seen, mask_words, pauli_masks, tensor_expansion
from .pauli import pauli_project  # noqa: F401  (also a public name of this module)

_COEFF_TOL = 1e-12
_JW_CHUNK_BYTES = 1 << 15  # key bytes of a run of fermion terms expanded at once
# A ladder op's 2x2 factor on one qubit: Z below its mode; a+ = |1><0| or a = |0><1| on it.
_JW_BLOCKS = {"Z": np.diag([1.0, -1.0]), "+": np.eye(2, k=-1), "-": np.eye(2, k=1)}


def _jw_letters(pattern: tuple, cache: tuple[dict, dict]) -> tuple[np.ndarray, np.ndarray]:
    """Per rank of a pattern (each op's rank among its term's distinct modes, times 2, plus its
    dagger), the pauli_masks letters of the rank's ordered product of ladder and Z blocks, that
    product cached: (L, 2) coefficients and codes x + 2z, 4 where absent. Such a product is
    +-|i><j| or zero, so it has two letters at most; a rank past the distinct modes is I."""
    patterns, products = cache
    if pattern not in patterns:
        shape = (len(pattern), 2)
        c, code = patterns[pattern] = np.zeros(shape, complex), np.full(shape, 4)
        for j in range(len(pattern)):
            blocks = tuple("Z" if r // 2 > j else "-+"[r % 2] for r in pattern if r // 2 >= j)
            if blocks not in products:
                products[blocks] = pauli_masks(reduce(np.matmul, map(_JW_BLOCKS.get, blocks)), (0,))
            for k, (c[j, k], x, z) in enumerate(products[blocks]):
                code[j, k] = x + 2 * z
    return patterns[pattern]


def _jw_expand(coeff, ops, words: int, cache: tuple[dict, dict]):
    """tensor_expansion of ladder products of one length (ops: (T, L, 2) modes and daggers),
    broadcast over terms and letter combinations, rank 0 slowest: complex(coeff) * 1.0 on the
    fixed Z mask, then each rank's coefficient from left to right, dropping |c| <= 1e-12 after
    each factor (none with no ops). Returns c, keys and term rows of the kept strings."""
    (terms, length), modes = ops.shape[:2], ops[..., 0]
    first = ~np.tril(modes[..., None] == modes[:, None], -1).any(axis=2)  # first op on its mode
    ranks = ((modes[:, None] < modes[..., None]) & first[:, None]).sum(axis=2)
    pid, firsts = _first_seen(patterns := 2 * ranks + ops[..., 1])
    tables = zip(*(_jw_letters(tuple(p), cache) for p in patterns[firsts].tolist()))
    coeffs, codes = (np.stack(table)[pid] for table in tables)
    word = np.arange(words)
    bit = (word == modes[..., None] >> 6) << (modes[..., None] & 63).astype(np.uint64)
    below = np.where(word < modes[..., None] >> 6, ~np.uint64(0), bit - (bit != 0))
    rank_bits = np.zeros_like(bit)
    rank_bits[np.arange(terms)[:, None], ranks] = bit
    r = int(first.sum(axis=1).max(initial=0))  # ranks past every term's distinct modes are I
    c = np.repeat(coeff[:, None] * (1.0 + 0j), 2 ** r, axis=1)
    keep = np.abs(c) > _COEFF_TOL if length else np.ones(c.shape, bool)
    keys = np.zeros((terms, 2 ** r, 2 * words), np.uint64)
    keys[..., words:] = (np.bitwise_xor.reduce(below, 1) & ~np.bitwise_or.reduce(bit, 1))[:, None]
    for j, k in enumerate(np.indices((2,) * r).reshape(r, 2 ** r)):
        c *= coeffs[:, j, k]
        code = codes[:, j, k, None].astype(np.uint64)
        keep &= (code[..., 0] < 4) & (np.abs(c) > _COEFF_TOL)
        keys[..., :words] |= rank_bits[:, j, None] * (code & 1)
        keys[..., words:] |= rank_bits[:, j, None] * (code >> 1)
    return c[keep], keys[keep], np.nonzero(keep)[0]


def _jw_run(op: FermionOperator, at: np.ndarray, starts: np.ndarray, words: int, cache):
    """The strings (c, keys) of op's terms `at`, ascending, in term order: the terms of each
    length are expanded together (_jw_expand), their ops gathered from op.ops at `starts`."""
    parts = [(np.zeros(0, complex), np.zeros((0, 2 * words), np.uint64), np.zeros(0, int))]
    for length in sorted(set(op.lengths[at].tolist())):
        sub = at[op.lengths[at] == length]
        ops = op.ops[starts[sub, None] + np.arange(length)]
        c, keys, rows = _jw_expand(op.coeffs[sub], ops, words, cache)
        parts.append((c, keys, sub[rows]))
    order = np.argsort(np.concatenate([term for *_, term in parts]), kind="stable")
    return tuple(np.concatenate([part[i] for part in parts])[order] for i in (0, 1))


def jordan_wigner(op: FermionOperator) -> PauliSum:
    """Qubit image of a Hermitian fermionic operator; one qubit per mode. The terms are read from
    op's arrays in runs (_jw_run) whose strings' keys (2^distinct modes of each term, 2 * words
    uint64 words a string) take about _JW_CHUNK_BYTES, merged one run at a time."""
    words, cache = max(1, -(-op.modes // 64)), ({}, {(): [(1.0, 0, 0)]})  # (): no op there
    starts = np.cumsum(op.lengths) - op.lengths  # each term's first row of op.ops
    pairs = np.repeat(np.arange(len(op)) * max(1, op.modes), op.lengths)  # term * modes + mode
    pairs += op.ops[:, 0]
    pairs.sort()
    distinct = pairs[np.diff(pairs, prepend=-1) != 0] // max(1, op.modes)
    nbytes = (16 * words) << np.bincount(distinct, minlength=len(op))
    cuts = np.flatnonzero(np.diff((np.cumsum(nbytes) - nbytes) // _JW_CHUNK_BYTES)) + 1
    runs = zip([0, *cuts.tolist()], [*cuts.tolist(), len(op)])
    chunks = (_jw_run(op, np.arange(lo, hi), starts, words, cache) for lo, hi in runs)
    return PauliSum.from_keys(op.modes, chunks, what="jordan_wigner")


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


def _expanded(products, n: int) -> list:
    """One PauliSum.from_keys chunk of the tensor_expansion strings of (coeff, factors) products."""
    strings = chain.from_iterable(tensor_expansion(*product, _COEFF_TOL) for product in products)
    c, x, z = list(zip(*strings)) or ((), (), ())
    return [(np.array(c, complex), np.hstack([mask_words(x, n), mask_words(z, n)]))]


def encode_boson_block(A: np.ndarray, gm: GrayMap) -> PauliSum:
    """Hermitian d x d mode matrix -> PauliSum on k_mode qubits."""
    A = np.asarray(A, dtype=complex)
    if np.max(np.abs(A - A.conj().T)) > 1e-10:
        raise DomainError("block is not Hermitian")
    products = [(1.0, [_gray_masks(A, gm, range(gm.k_mode))])]
    return PauliSum.from_keys(gm.k_mode, _expanded(products, gm.k_mode), what="encode_boson_block")


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
    n = op.modes * gm.k_mode
    pauli = PauliSum.from_keys(n, _expanded(products, n), what="encode_boson_operator")
    return EncodedOperator(pauli, layout, gm)
