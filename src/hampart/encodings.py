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
from itertools import chain, repeat

import numpy as np

from .errors import DataError, DimensionError, DomainError
from .operators import BosonOperator, FermionOperator, boson_matrices
from .pauli import (SIMPLIFY_TOL, PauliString, PauliSum, mask_ints, mask_words, pauli_masks,
                    tensor_expansion)
from .pauli import pauli_project  # noqa: F401  (also a public name of this module)

_IMAG_TOL = 1e-10
_COEFF_TOL = 1e-12
_JW_CHUNK = 128  # fermion terms expanded at once: bounds the transient arrays
# A ladder op's 2x2 factor on one qubit: Z below its mode; a+ = |1><0| or a = |0><1| on it.
_JW_BLOCKS = {"Z": np.diag([1.0, -1.0]), "+": np.eye(2, k=-1), "-": np.eye(2, k=1)}


def _first_seen(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each row's id among the distinct rows of a 2-D key array (mask words), ids numbered by
    first occurrence, and the row of each id's first occurrence. Rows are grouped by one stable
    lexsort over the words, so a run's first row is its first occurrence."""
    order = np.lexsort(keys.T[::-1]) if keys.shape[1] else np.arange(len(keys))
    ranked = keys[order]
    new = np.ones(len(keys), bool)
    new[1:] = (ranked[1:] != ranked[:-1]).any(axis=1)
    firsts = np.zeros(len(keys), bool)
    firsts[order[new]] = True
    ids = np.empty(len(keys), np.intp)
    ids[order] = (np.cumsum(firsts) - 1)[order[new]][np.cumsum(new) - 1]
    return ids, np.flatnonzero(firsts)


def _pauli_sum(chunks, n: int, what: str) -> PauliSum:
    """Real PauliSum of weighted strings arriving in generation order as chunks of coefficients
    and keys (x then z mask words, mask_words): each string's coefficients are added onto zero
    in that order (np.add.at), and strings keep their first-seen order (_first_seen)."""
    parts = []
    for c, keys in chunks:
        ids, firsts = _first_seen(keys)
        parts.append((c, ids, keys[firsts]))
    keys = np.concatenate([k for *_, k in parts])
    ids, firsts = _first_seen(keys)
    acc, start = np.zeros(len(firsts), complex), 0
    for c, local, k in parts:
        np.add.at(acc, ids[start:start + len(k)][local], c)
        start += len(k)
    keys = keys[firsts]
    if (bad := np.abs(acc.imag) > _IMAG_TOL * np.maximum(1.0, np.abs(acc))).any():
        i = int(bad.argmax())
        string = PauliString(n, *(mask_ints(w)[0] for w in np.hsplit(keys[i:i + 1], 2)))
        raise DataError(f"{what} produced non-Hermitian content: {acc[i].item()} * "
                        f"{string.letters}")
    keep = (np.abs(acc.real) > SIMPLIFY_TOL) | ~keys.any(axis=1)  # what PauliSum keeps
    strings = map(PauliString, repeat(n), *map(mask_ints, np.hsplit(keys[keep], 2)))
    return PauliSum(n, zip(acc.real[keep].tolist(), strings))


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


def jordan_wigner(op: FermionOperator) -> PauliSum:
    """Qubit image of a Hermitian fermionic operator; one qubit per mode. _JW_CHUNK terms at a
    time, the terms of each length are expanded together (_jw_expand) and their strings put in
    term order for _pauli_sum."""
    words, cache = max(1, -(-op.modes // 64)), ({}, {(): [(1.0, 0, 0)]})  # (): no op there

    def chunks():
        for start in range(0, max(1, len(op.terms)), _JW_CHUNK):
            terms = op.terms[start:start + _JW_CHUNK]
            parts = [(np.zeros(0, complex), np.zeros((0, 2 * words), np.uint64), np.zeros(0, int))]
            for length in sorted({len(ops) for _, ops in terms}):
                at = [i for i, (_, ops) in enumerate(terms) if len(ops) == length]
                flat = chain.from_iterable(chain.from_iterable(terms[i][1] for i in at))
                ops = np.fromiter(flat, np.int64, 2 * length * len(at)).reshape(len(at), length, 2)
                c, keys, rows = _jw_expand(np.array([terms[i][0] for i in at]), ops, words, cache)
                parts.append((c, keys, np.array(at, int)[rows]))
            c, keys, term = (np.concatenate(part) for part in zip(*parts))
            order = np.argsort(term, kind="stable")
            yield c[order], keys[order]

    return _pauli_sum(chunks(), op.modes, "jordan_wigner")


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
    """One _pauli_sum chunk of the tensor_expansion strings of (coeff, factors) products."""
    strings = chain.from_iterable(tensor_expansion(*product, _COEFF_TOL) for product in products)
    c, x, z = list(zip(*strings)) or ((), (), ())
    return [(np.array(c, complex), np.hstack([mask_words(x, n), mask_words(z, n)]))]


def encode_boson_block(A: np.ndarray, gm: GrayMap) -> PauliSum:
    """Hermitian d x d mode matrix -> PauliSum on k_mode qubits."""
    A = np.asarray(A, dtype=complex)
    if np.max(np.abs(A - A.conj().T)) > 1e-10:
        raise DomainError("block is not Hermitian")
    products = [(1.0, [_gray_masks(A, gm, range(gm.k_mode))])]
    return _pauli_sum(_expanded(products, gm.k_mode), gm.k_mode, "encode_boson_block")


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
    pauli = _pauli_sum(_expanded(products, n), n, "encode_boson_operator")
    return EncodedOperator(pauli, layout, gm)
