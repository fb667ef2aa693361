"""Exact algebra of n-qubit Pauli strings and real-weighted Pauli sums.

Pauli letters are stored symplectically as an (x, z) bit pair per qubit:
I=(0,0), X=(1,0), Y=(1,1), Z=(0,1). Multiplication and commutation are
bitwise on the packed masks.

Matrix convention: qubit 0 is the first tensor factor, i.e. the most
significant bit of a computational-basis index.
"""

from __future__ import annotations

import math
import re
from functools import cache, reduce
from itertools import islice
from operator import and_, or_
from typing import Iterable, Iterator

import numpy as np

from .errors import DataError, DimensionError, DomainError, ParseError, ResourceError

SIMPLIFY_TOL = 1e-12
_IMAG_TOL = 1e-10  # |imaginary part| allowed on a sum of strings, relative above 1
# A number in text input: ASCII digits only, no `_` (float() and int() also take both).
ASCII_FLOAT = re.compile(r"[+-]?([0-9]+\.?[0-9]*|\.[0-9]+)([eE][+-]?[0-9]+)?")

# Qubit cap for dense matrix realization.
DENSE_QUBIT_CAP = 12

_LETTER_TO_BITS = {"I": (0, 0), "X": (1, 0), "Y": (1, 1), "Z": (0, 1)}
_BITS_TO_LETTER = {v: k for k, v in _LETTER_TO_BITS.items()}

_PAULI_MATS = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}
for _mat in _PAULI_MATS.values():  # shared by every unit letter: pauli_matrix copies
    _mat.setflags(write=False)


def pauli_matrix(letter: str) -> np.ndarray:
    """Dense 2x2 matrix for a single Pauli letter."""
    return _PAULI_MATS[letter].copy()


class PauliString:
    """Immutable n-qubit Pauli string (no coefficient)."""

    __slots__ = ("n", "x", "z")

    def __init__(self, n: int, x: int, z: int):
        if n < 0:
            raise DomainError(f"negative qubit count {n}")
        if x >> n or z >> n:
            raise DataError(f"mask exceeds {n} qubits")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "z", z)

    def __setattr__(self, *_):
        raise AttributeError("PauliString is immutable")

    @classmethod
    def identity(cls, n: int) -> "PauliString":
        return cls(n, 0, 0)

    @classmethod
    def from_letters(cls, letters: str) -> "PauliString":
        x = z = 0
        for q, letter in enumerate(letters):
            try:
                xb, zb = _LETTER_TO_BITS[letter]
            except KeyError:
                raise DataError(f"invalid Pauli letter {letter!r}") from None
            x |= xb << q
            z |= zb << q
        return cls(len(letters), x, z)

    @classmethod
    def from_ops(cls, ops: Iterable[tuple[int, str]], n: int) -> "PauliString":
        """Build from sparse (qubit, letter) pairs; omitted qubits are identity."""
        x = z = 0
        for q, letter in ops:
            if not 0 <= q < n:
                raise DataError(f"qubit {q} out of range for n={n}")
            xb, zb = _LETTER_TO_BITS[letter]
            if (x >> q) & 1 or (z >> q) & 1:
                raise DataError(f"qubit {q} assigned twice")
            x |= xb << q
            z |= zb << q
        return cls(n, x, z)

    @property
    def letters(self) -> str:
        return "".join(
            _BITS_TO_LETTER[((self.x >> q) & 1, (self.z >> q) & 1)] for q in range(self.n)
        )

    def letter(self, q: int) -> str:
        return _BITS_TO_LETTER[((self.x >> q) & 1, (self.z >> q) & 1)]

    @property
    def is_identity(self) -> bool:
        return self.x == 0 and self.z == 0

    @property
    def support_mask(self) -> int:
        return self.x | self.z

    def support(self) -> tuple[int, ...]:
        return mask_qubits(self.x | self.z)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, PauliString)
            and self.n == other.n
            and self.x == other.x
            and self.z == other.z
        )

    def __hash__(self) -> int:
        return hash((self.n, self.x, self.z))

    def __repr__(self) -> str:
        return f"PauliString({self.letters!r})"


def weight(p: PauliString) -> int:
    """Number of non-identity letters."""
    return (p.x | p.z).bit_count()


def multiply(p: PauliString, q: PauliString) -> tuple[complex, PauliString]:
    """Product p*q as (phase, string) with phase in {1, i, -1, -i}."""
    if p.n != q.n:
        raise DimensionError(f"qubit counts differ: {p.n} != {q.n}")
    # A string is i^|x&z| X^x Z^z, and Z^z1 X^x2 = (-1)^|z1&x2| X^x2 Z^z1.
    x, z = p.x ^ q.x, p.z ^ q.z
    exp = ((p.x & p.z).bit_count() + (q.x & q.z).bit_count() + 2 * (p.z & q.x).bit_count()
           - (x & z).bit_count())
    return (1j) ** (exp % 4), PauliString(p.n, x, z)


def commutes(p: PauliString, q: PauliString, kind: str = "full") -> bool:
    """Commutation predicate.

    `full`: p and q commute as matrices (symplectic product is even).
    `qubitwise`: every aligned letter pair commutes, i.e. letters are equal
    or at least one is identity.
    """
    if p.n != q.n:
        raise DimensionError(f"qubit counts differ: {p.n} != {q.n}")
    if kind == "full":
        return (((p.x & q.z).bit_count() + (p.z & q.x).bit_count()) % 2) == 0
    if kind == "qubitwise":
        both = (p.x | p.z) & (q.x | q.z)
        differ = (p.x ^ q.x) | (p.z ^ q.z)
        return both & differ == 0
    raise DataError(f"unknown commutation kind {kind!r}")


def dense_sum(terms, qubits) -> np.ndarray:
    """Dense 2^k x 2^k sum of c * P over weighted strings (c, x mask, z mask) on k listed register
    `qubits` (the first listed is the top index bit; bits off them are ignored). Per string, in
    order, one scatter-add of c * i^|flip & sign| (-1)^|b & sign| into mat[b ^ flip, b], flip and
    sign being its x and z bits read onto the local index; more than DENSE_QUBIT_CAP qubits is
    refused before allocating."""
    k = len(qubits)
    if k > DENSE_QUBIT_CAP:
        raise ResourceError(f"dense realization capped at {DENSE_QUBIT_CAP} qubits, got {k}")
    mat = np.zeros((1 << k, 1 << k), dtype=complex)
    cols = np.arange(1 << k)
    for c, x, z in terms:
        flip = sign = 0
        for q in qubits:
            flip, sign = flip << 1 | x >> q & 1, sign << 1 | z >> q & 1
        parity = np.bitwise_count(cols & sign) & 1
        phases = 1j ** (flip & sign).bit_count() * np.where(parity, -1.0, 1.0)
        mat[cols ^ flip, cols] += c * phases
    return mat


def string_to_dense(p: PauliString) -> np.ndarray:
    return dense_sum([(1.0, p.x, p.z)], range(p.n))


# One qubit's block entries (M00, M01, M10, M11) -> its (I, X, Y, Z) coefficients Tr(P M) / 2.
_ENTRIES_TO_PAULI = np.array([[1, 0, 0, 1], [0, 1, 1, 0], [0, 1j, -1j, 0], [1, 0, 0, -1]]) / 2


def pauli_masks(M: np.ndarray, qubits) -> list[tuple[complex, int, int]]:
    """Every nonzero Tr(P M) / 2^k of a 2^k x 2^k block M on k listed register `qubits` (the first
    listed is its top index bit) as (coefficient, x mask, z mask) triples, in IXYZ order with the
    first listed qubit slowest. Tensorized transform (Hantzko, Binkowski & Gupta,
    arXiv:2310.13421): one 4x4 map per qubit's (row bit, column bit) axis, O(k 4^k) work; each
    nonzero base-4 index's digits are read straight into the masks."""
    k = len(qubits)
    if M.shape != (1 << k, 1 << k):
        raise DimensionError(f"expected {1 << k} x {1 << k} matrix, got {M.shape}")
    pairs = [j + b for j in range(k) for b in (0, k)]  # axes (row 0, col 0, row 1, col 1, ...)
    coeffs = M.reshape((2,) * (2 * k)).transpose(pairs).ravel()
    for _ in range(k):  # transform the leading qubit axis and move it last
        coeffs = (coeffs.reshape(4, -1).T @ _ENTRIES_TO_PAULI.T).ravel()
    out = []
    nonzero = np.flatnonzero(coeffs)
    for i, c in zip(nonzero.tolist(), coeffs[nonzero].tolist()):
        x = z = 0
        for q in reversed(qubits):  # the last listed qubit is the lowest digit
            xb, zb = _LETTER_TO_BITS["IXYZ"[i & 3]]
            x, z, i = x | xb << q, z | zb << q, i >> 2
        out.append((c, x, z))
    return out


def pauli_project(M: np.ndarray, k: int) -> list[tuple[complex, PauliString]]:
    """pauli_masks of a 2^k x 2^k M on qubits 0..k-1, as k-qubit PauliStrings."""
    return [(c, PauliString(k, x, z)) for c, x, z in pauli_masks(M, range(k))]


def tensor_expansion(coeff, factors, tol: float | None = None) -> list[tuple[complex, int, int]]:
    """Pauli strings of coeff times a product of factors on disjoint qubits, each factor given as
    its pauli_masks triples: masks OR with no phase, and coefficients multiply from complex(coeff)
    left to right. With `tol`, strings with |c| <= tol are dropped after each factor."""
    out = [(complex(coeff), 0, 0)]
    for factor in factors:
        out = [(c0 * c1, x0 | x1, z0 | z1) for c0, x0, z0 in out for c1, x1, z1 in factor]
        if tol is not None:
            out = [t for t in out if abs(t[0]) > tol]
    return out


def string_dtype(n: int) -> np.dtype:
    """Weighted strings (c, x, z) on n qubits: c complex, masks x and z as mask_words packs them."""
    words = max(1, -(-n // 64))
    return np.dtype([("c", complex), ("x", np.uint64, (words,)), ("z", np.uint64, (words,))])


def string_array(terms, n: int) -> np.ndarray:
    """Weighted strings (c, x mask, z mask) on n qubits, in order, as one read-only
    string_dtype(n) array: what apply_pauli_terms takes, Fragment.strings holds."""
    c, x, z = list(zip(*terms)) or ((), (), ())
    out = np.empty(len(c), string_dtype(n))
    out["c"], out["x"], out["z"] = c, mask_words(x, n), mask_words(z, n)
    out.setflags(write=False)
    return out


def mask_words(masks, n: int) -> np.ndarray:
    """Python-int qubit masks as an (N, max(1, ceil(n / 64))) uint64 array; word w holds qubits
    64w to 64w + 63, so masks past 64 qubits keep every bit."""
    masks = np.array(masks, dtype=object).reshape(-1, 1)
    return (masks >> np.arange(0, max(64, n), 64, dtype=object) & (1 << 64) - 1).astype(np.uint64)


def mask_ints(words: np.ndarray) -> list[int]:
    """Inverse of mask_words: one Python int per row of uint64 words."""
    if words.shape[1] == 1:
        return words[:, 0].tolist()
    shifts = np.arange(0, 64 * words.shape[1], 64, dtype=object)
    return (words.astype(object) << shifts).sum(axis=1, initial=0).tolist()


def mask_qubits(mask: int) -> tuple[int, ...]:
    """The qubits of a Python-int mask, ascending."""
    return tuple(q for q in range(mask.bit_length()) if mask >> q & 1)


def mask_bits(words: np.ndarray, n: int) -> np.ndarray:
    """The (N, n) uint8 bits of rows of mask words, qubit q in column q."""
    return np.unpackbits(words.astype("<u8").view(np.uint8), axis=1, bitorder="little")[:, :n]


def string_rows(strings) -> zip:
    """Rows of a string_array as (c.real, x, z), c a Python float and masks Python ints."""
    return zip(strings["c"].real.tolist(), mask_ints(strings["x"]), mask_ints(strings["z"]))


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


# (-i)^k for k = |x & z| mod 4, and the unnormalized one-qubit Walsh-Hadamard map.
_MINUS_I_POWERS = np.array([1, -1j, -1, 1j])
_HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex)


@cache
def _parity_signs(bits: int) -> np.ndarray:
    """(-1)^popcount(b) for b < 2^bits, shared and read-only."""
    signs = np.where(np.bitwise_count(np.arange(1 << bits)) & 1, -1.0, 1.0)
    signs.setflags(write=False)
    return signs


def _group_diagonal(v: np.ndarray, z: list[int], n: int, state_axes: int) -> np.ndarray:
    """sum_j v_j Z^z_j over one flip group's phased coefficients v and z masks, as a diagonal on
    the (2,)*n view with extent only on the qubits the masks touch: the Walsh-Hadamard transform
    of v over the qubits where the masks differ, times the parity signs of the qubits all hold."""
    union, common = reduce(or_, z), reduce(and_, z)
    differ = [q for q in range(n) if (union ^ common) >> q & 1]  # first = top bit
    if differ:
        bits = np.array(z, np.uint64)[:, None] >> np.array(differ[::-1], np.uint64) & np.uint64(1)
        d = np.zeros(1 << len(differ), dtype=complex)
        np.add.at(d, (bits << np.arange(len(differ), dtype=np.uint64)).sum(axis=1), v)
    else:  # one string (or copies of it)
        d = v.sum(keepdims=True)
    for _ in differ:  # transform the leading axis and move it last, as in pauli_masks
        d = (d.reshape(2, -1).T @ _HADAMARD).ravel()
    signs = _parity_signs(common.bit_count())
    axes = [1] * state_axes
    return (d.reshape([2 if (union ^ common) >> q & 1 else 1 for q in range(n)] + axes)
            * signs.reshape([2 if common >> q & 1 else 1 for q in range(n)] + axes))


def apply_pauli_terms(strings, vec: np.ndarray, n: int, out=None, tmp=None) -> np.ndarray:
    """sum_j c_j P_j @ vec over a string_array (word 0 of its masks: 2^n bounds n) for a 2^n
    vector or a (2^n, S) block. A string is P = (-i)^|x&z| Z^z X^x, so the strings sharing an x
    mask act as one strided flip of the (2,)*n view times one diagonal (_group_diagonal); groups
    are added in the order their x masks first appear. Given C-contiguous complex `out` and
    `tmp` shaped like vec, it overwrites them and returns a view of `out`."""
    if vec.shape[0] != 1 << n:
        raise DimensionError(f"state dimension {vec.shape[0]} != 2^{n}")
    c, x, z = strings["c"], strings["x"][:, 0], strings["z"][:, 0]
    phased = c * _MINUS_I_POWERS[np.bitwise_count(x & z) & 3]
    groups: dict[int, list[int]] = {}
    for i, key in enumerate(x.tolist()):
        groups.setdefault(key, []).append(i)
    zs = z.tolist()
    shape = (2,) * n + vec.shape[1:]
    psi = vec.astype(complex, copy=False).reshape(shape)
    out, tmp = (np.empty(shape, complex) if b is None else b.reshape(shape) for b in (out, tmp))
    if not groups:
        out.fill(0)
    for g, (key, members) in enumerate(groups.items()):
        flipped = psi[tuple(slice(None, None, -1 if key >> q & 1 else 1) for q in range(n))]
        diag = _group_diagonal(phased[members], [zs[i] for i in members], n, vec.ndim - 1)
        if g:
            out += np.multiply(flipped, diag, out=tmp)
        else:
            np.multiply(flipped, diag, out=out)
    return out.reshape(vec.shape)


class PauliSum:
    """Real-weighted sum of Pauli strings plus an identity offset, held as one string table.

    The table (strings()) holds each non-identity string once, with |c| > SIMPLIFY_TOL, in the
    order it first arrived; identity mass lives in `constant`. Every constructor builds it by
    _merge; the PauliString dict (`terms`, iteration, equality) is built from it on first use.
    Instances are treated as immutable.
    """

    def __init__(
        self,
        n: int,
        terms: Iterable[tuple[float, PauliString]] = (),
        constant: float = 0.0,
    ):
        const, terms = _require_real(constant, "constant"), list(terms)
        if (bad := next((s for _, s in terms if s.n != n), None)) is not None:
            raise DimensionError(f"term on {bad.n} qubits in {n}-qubit sum")
        masks = (mask_words([getattr(s, axis) for _, s in terms], n) for axis in "xz")
        self._merge(n, [(_real_array([c for c, _ in terms], "coefficient"), np.hstack([*masks]))],
                    const)

    @classmethod
    def from_keys(cls, n: int, chunks, constant: float = 0.0, what: str = "PauliSum"):
        """The sum (_merge) of chunks of coefficients and keys (x then z words, mask_words)."""
        h = cls.__new__(cls)
        h._merge(n, chunks, constant, what)
        return h

    def _merge(self, n: int, chunks, constant: float, what: str = "PauliSum"):
        """Set the table from chunks of (c, keys), one held at a time: keys are numbered by first
        sight (_first_seen in a chunk, a dict on their bytes across chunks) and each key's
        coefficients added onto zero in arrival order (np.add.at), the identity's onto
        `constant`. A sum must be real within _IMAG_TOL (else DataError naming `what`); the
        identity's becomes the constant, and rows with |c| <= SIMPLIFY_TOL are dropped."""
        seen, fresh, acc = {}, [], np.zeros(0, complex)
        for c, chunk in chunks:
            local, firsts = _first_seen(chunk)
            rows = chunk[firsts]
            names = rows.view(f"V{8 * rows.shape[1]}").ravel().tolist()
            ids = np.array([seen.setdefault(key, len(seen)) for key in names], np.intp)
            fresh.append(rows[ids >= len(acc)])
            acc = np.append(acc, np.where(fresh[-1].any(axis=1), 0.0, constant))
            np.add.at(acc, ids[local], c)
        keys = np.concatenate([np.zeros((0, 2 * max(1, -(-n // 64))), np.uint64), *fresh])
        identity, words = ~keys.any(axis=1), keys.shape[1] // 2
        if (bad := np.abs(acc.imag) > _IMAG_TOL * np.maximum(1.0, np.abs(acc))).any():
            i = int(bad.argmax())
            string = PauliString(n, *(mask_ints(w)[0] for w in np.hsplit(keys[i:i + 1], 2)))
            raise DataError(f"{what} produced non-Hermitian content: {acc[i].item()} * "
                            f"{string.letters}")
        keep = ~identity & (np.abs(acc.real) > SIMPLIFY_TOL)
        self._table = np.empty(int(keep.sum()), string_dtype(n))
        self._table["c"], self._table["x"], self._table["z"] = (
            acc.real[keep], keys[keep, :words], keys[keep, words:])
        self._table.setflags(write=False)
        self._n, self._constant = n, float(acc.real[identity][0]) if identity.any() else constant
        self._terms: dict[PauliString, float] | None = None
        self._sorted: tuple[tuple[float, PauliString], ...] | None = None
        self._strings: np.ndarray | None = None

    @property
    def n(self) -> int:
        return self._n

    @property
    def constant(self) -> float:
        return self._constant

    def strings(self) -> np.ndarray:
        """The held table: one read-only string_array row per string, in first-seen order."""
        return self._table

    def _dict(self) -> dict[PauliString, float]:
        if self._terms is None:
            self._terms = {PauliString(self.n, x, z): c for c, x, z in string_rows(self._table)}
        return self._terms

    @property
    def terms(self) -> dict[PauliString, float]:
        return dict(self._dict())

    def __len__(self) -> int:
        return len(self._table)

    def coefficient(self, string: PauliString) -> float:
        return self._dict().get(string, 0.0)

    def items_sorted(self) -> list[tuple[float, PauliString]]:
        """Terms in descending |coefficient|, as PauliStrings built on first call, in the order
        of sorted_strings."""
        if self._sorted is None:
            rows = string_rows(self.sorted_strings())
            self._sorted = tuple((c, PauliString(self.n, x, z)) for c, x, z in rows)
        return list(self._sorted)

    def sorted_strings(self) -> np.ndarray:
        """The table in descending |coefficient|, ties broken by letter sequence (I < X < Y < Z,
        qubit 0 first), as one read-only string_array sorted once per instance: one np.lexsort
        over -|c| and letter-key words, each word the base-4 number with digit 2z + (x ^ z) per
        qubit over 32 qubits, qubit 0 on top."""
        if self._strings is None:
            table, n = self._table, self.n
            digits = np.zeros((len(table), -(-n // 32) * 32, 2), np.uint8)  # z, x ^ z
            digits[:, :n] = np.stack([mask_bits(table["z"], n),
                                      mask_bits(table["x"] ^ table["z"], n)], 2)
            words = digits.reshape(len(digits), digits.shape[1] // 32, 64)  # 32 qubits a word
            keys = np.packbits(words, axis=2).view(">u8")[..., 0]
            self._strings = table[np.lexsort((*keys.T[::-1], -np.abs(table["c"].real)))]
            self._strings.setflags(write=False)
        return self._strings

    def __iter__(self) -> Iterator[tuple[float, PauliString]]:
        return iter(self.items_sorted())

    def _keys(self) -> np.ndarray:
        return np.hstack([self._table["x"], self._table["z"]])

    def __add__(self, other: "PauliSum") -> "PauliSum":
        if self.n != other.n:
            raise DimensionError(f"qubit counts differ: {self.n} != {other.n}")
        return PauliSum.from_keys(self.n, [(t._table["c"].real, t._keys()) for t in (self, other)],
                                  self._constant + other._constant)

    def scaled(self, factor: float) -> "PauliSum":
        factor = _require_real(factor, "scale factor")
        return PauliSum.from_keys(self.n, [(factor * self._table["c"].real, self._keys())],
                                  factor * self._constant)

    def simplified(self) -> "PauliSum":
        """Re-normalize; idempotent because construction already canonicalizes."""
        return self.scaled(1.0)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, PauliSum)
            and self.n == other.n
            and self._constant == other._constant
            and self._dict() == other._dict()
        )

    def __repr__(self) -> str:
        return f"PauliSum(n={self.n}, terms={len(self)}, constant={self._constant!r})"

    def to_matrix(self) -> np.ndarray:
        """Realize as a dense 2^n x 2^n numpy array (dense_sum, constant included)."""
        return dense_sum([(self._constant, 0, 0), *string_rows(self._table)], range(self.n))

    def apply(self, vec: np.ndarray) -> np.ndarray:
        """Matrix-free (H @ vec), including the constant, for a vector or a (2^n, S) state
        block: apply_pauli_terms on the constant's row, then the table in its order."""
        const = np.zeros(1, self._table.dtype)
        const["c"] = self._constant
        return apply_pauli_terms(np.concatenate([const, self._table]), vec, self.n)


def _require_real(value, what: str) -> float:
    if isinstance(value, complex):
        if abs(value.imag) > SIMPLIFY_TOL:
            raise DataError(f"{what} must be real, got {value}")
        value = value.real
    value = float(value)
    if not math.isfinite(value):
        raise DataError(f"{what} must be finite, got {value}")
    return value


def _real_array(values, what: str) -> np.ndarray:
    """_require_real over a sequence: one check when numpy reads it as finite real numbers."""
    arr = np.asarray(values)
    if arr.dtype.kind in "fiu" and np.isfinite(arr).all():
        return arr.astype(float)
    return np.array([_require_real(v, what) for v in values], float)


# A line of an ASCII_FLOAT and factor tokens, each a letter and ASCII digits.
_LINE = re.compile(rf"\s*{ASCII_FLOAT.pattern}(?:\s+[IXYZ][0-9]+)*\s*")
# Letter byte -> its x and z bit.
_X_BITS, _Z_BITS = np.zeros((2, 128), np.uint64)
_X_BITS[[ord("X"), ord("Y")]] = _Z_BITS[[ord("Y"), ord("Z")]] = 1


def _refuse_line(fields: list[str], lineno: int):
    """Raise the ParseError of the first bad field of a line: its coefficient (not a finite
    ASCII_FLOAT number), then a factor token that is not a letter and ASCII digits."""
    try:
        coeff = float(fields[0])
    except ValueError:
        raise ParseError(f"bad coefficient {fields[0]!r}", lineno) from None
    if not math.isfinite(coeff):
        raise ParseError(f"non-finite coefficient {fields[0]!r}", lineno)
    if not ASCII_FLOAT.fullmatch(fields[0]):
        raise ParseError(f"bad coefficient {fields[0]!r}", lineno)
    for tok in fields[1:]:
        if len(tok) < 2 or tok[0] not in "IXYZ":
            raise ParseError(f"bad factor {tok!r}", lineno)
        digits = tok[1:]
        if not (digits.isascii() and digits.isdigit()):
            negative = digits[0] == "-" and digits[1:].isascii() and digits[1:].isdigit()
            what = "negative" if negative and int(digits) else "bad"
            raise ParseError(f"{what} qubit index in {tok!r}", lineno)


def parse_pauli_text(text: str, n: int | None = None) -> PauliSum:
    """Parse the one-term-per-line text format.

    Each line is `<coefficient> <letter><qubit> ...` (e.g. `0.5 X0 Z3`);
    a line with only a coefficient is the identity term; `#` starts a comment.
    Numbers take ASCII digits only (ASCII_FLOAT; a qubit is digits alone). Each line is checked
    by one match (_LINE; a line it refuses is read field by field for the error); then all
    factor tokens are read into the table's mask words at once (PauliSum.from_keys).
    """
    coeffs, counts, letters, qubits = [], [], [], []  # no object per token kept
    for lineno, raw in enumerate(text.splitlines(), start=1):
        body = raw.split("#", 1)[0]
        fields = body.split()
        if not fields:
            continue
        if not _LINE.fullmatch(body) or not math.isfinite(coeff := float(fields[0])):
            _refuse_line(fields, lineno)
        coeffs.append(coeff)
        counts.append(len(fields) - 1)
        letters += [tok[0] for tok in fields[1:]]
        qubits += [int(tok[1:]) for tok in fields[1:]]
    max_q = max(qubits, default=-1)
    if n is None:
        n = max_q + 1
    elif max_q >= n:
        raise DataError(f"qubit index {max_q} out of range for n={n}")
    qubits, row = np.array(qubits, np.int64), np.repeat(np.arange(len(coeffs)), counts)
    letters = np.frombuffer("".join(letters).encode(), np.uint8)
    held = (_X_BITS[letters] | _Z_BITS[letters]) != 0  # the first letter on a held qubit of its
    cell = row[held] * n + qubits[held]  # line is refused after the range check
    order = np.argsort(cell, kind="stable")
    if len(twice := order[1:][cell[order[1:]] == cell[order[:-1]]]):
        raise DataError(f"qubit {qubits[held][twice.min()]} assigned twice")
    words, bit = max(1, -(-n // 64)), np.left_shift(np.uint64(1), (qubits & 63).astype(np.uint64))
    keys = np.zeros((len(coeffs), 2 * words), np.uint64)
    for start, bits in ((0, _X_BITS), (words, _Z_BITS)):
        on = bits[letters] != 0
        np.bitwise_or.at(keys, (row[on], start + (qubits[on] >> 6)), bit[on])
    return PauliSum.from_keys(n, [(np.array(coeffs), keys)])


def format_pauli_text(h: PauliSum) -> str:
    """Deterministic inverse of parse_pauli_text (descending |c|, lex ties), written from the
    sorted table: per row, a `<letter><qubit>` token for each qubit off the identity, ascending."""
    lines = [repr(h.constant)] if h.constant or len(h) == 0 else []
    table, n = h.sorted_strings(), h.n
    codes = mask_bits(table["x"], n) + 2 * mask_bits(table["z"], n)  # 1 X, 2 Z, 3 Y
    rows, qubits = np.nonzero(codes)
    names = np.array([[f"{letter}{q}" for q in range(n)] for letter in "IXZY"], dtype=object)
    tokens = iter(names[codes[rows, qubits], qubits].tolist())
    for c, k in zip(table["c"].real.tolist(), np.bincount(rows, minlength=len(table)).tolist()):
        lines.append(f"{c!r} {' '.join(islice(tokens, k))}")
    return "\n".join(lines) + "\n"
