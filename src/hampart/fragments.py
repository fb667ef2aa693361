"""Measurement fragments: tensor-product terms with bounded-size factors.

A TensorProductTerm is a product of Hermitian blocks on disjoint qubit sets
(identity implied elsewhere); a Fragment is a set of such terms measured in
one basis; a Partition is a list of fragments plus an identity constant that
together reconstruct a Hamiltonian.

Matrix convention matches pauli.py: qubit 0 is the most significant basis
bit. A factor's block is indexed with its first listed qubit as the most
significant block bit.
"""

from __future__ import annotations

import json
import struct
from collections import defaultdict
from dataclasses import dataclass
from functools import cache, reduce
from itertools import accumulate, chain
from math import prod
from operator import or_

import numpy as np

from . import pauli as _pauli
from .errors import DataError, DimensionError, HampartError, ResourceError, read_text
from .pauli import (PauliString, PauliSum, mask_ints, mask_qubits, pauli_masks, string_rows,
                    tensor_expansion)

_HERMITIAN_TOL = 1e-10
# Most Pauli strings a term may expand to: ~170 MiB of tuples, under the 2^24 dense-cap entries.
EXPANSION_CAP = 1 << 20
_UNIT_BLOCKS = {_pauli.pauli_matrix(letter).tobytes(): letter for letter in "XYZ"}
_UNIT_LETTERS = {id(mat): letter for letter, mat in _pauli._PAULI_MATS.items()}
_LETTER_MATS = tuple(_pauli._PAULI_MATS[letter] for letter in "IXZY")  # by x + 2z


class TensorFactor:
    """Hermitian block acting on an ordered tuple of qubits."""

    __slots__ = ("qubits", "block", "_projection")

    def __init__(self, qubits, block):
        qubits = tuple(int(q) for q in qubits)
        if len(set(qubits)) != len(qubits) or min(qubits, default=0) < 0:
            raise DataError(f"repeated or negative qubit in factor {qubits}")
        block = np.array(block, dtype=complex)
        dim = 1 << len(qubits)
        if block.shape != (dim, dim):
            raise DimensionError(
                f"factor on {len(qubits)} qubits needs a {dim} x {dim} block, got {block.shape}"
            )
        if not np.isfinite(block).all() or abs(block - block.conj().T).max() > _HERMITIAN_TOL:
            raise DataError("factor block is not finite and Hermitian")
        block.setflags(write=False)
        for name, value in zip(self.__slots__, (qubits, block, None)):
            object.__setattr__(self, name, value)

    def __setattr__(self, *_):
        raise AttributeError("TensorFactor is immutable")

    @property
    def projection(self) -> list[tuple[complex, int, int]]:
        """pauli_masks of the dense block, computed once."""
        if self._projection is None:
            object.__setattr__(self, "_projection", pauli_masks(self.block, self.qubits))
        return self._projection

    @property
    def size(self) -> int:
        return len(self.qubits)

    def __repr__(self) -> str:
        return f"TensorFactor(qubits={self.qubits})"


class TensorProductTerm:
    """Product of factors on pairwise-disjoint qubit sets."""

    __slots__ = ("factors",)

    def __init__(self, factors):
        factors = tuple(factors)
        seen: set[int] = set()
        for f in factors:
            overlap = seen.intersection(f.qubits)
            if overlap:
                raise DataError(f"factors overlap on qubits {sorted(overlap)}")
            seen.update(f.qubits)
        object.__setattr__(self, "factors", factors)

    def __setattr__(self, *_):
        raise AttributeError("TensorProductTerm is immutable")

    def max_factor_size(self) -> int:
        return max((f.size for f in self.factors), default=0)

    def __repr__(self) -> str:
        return f"TensorProductTerm({[f.qubits for f in self.factors]})"


class Fragment:
    """Terms simultaneously measurable in one basis; `strings` is pauli_coefficients(terms) as a
    pauli.string_array, set by first scoring. One built from Pauli strings holds `sets`, each its
    members (a slice of `strings`, their exact expansion) and block mask; its terms, built from
    factor_blocks() on first read, expand to the projection of its realized blocks instead."""

    __slots__ = ("_terms", "label", "strings", "sets", "_realized")

    def __init__(self, terms=(), label: str = "", strings=None, sets=None):
        values = (tuple(terms) if sets is None else None, label, strings, sets, None)
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def __setattr__(self, *_):
        raise AttributeError("Fragment is immutable")

    @property
    def terms(self) -> tuple[TensorProductTerm, ...]:
        """The terms, built from factor_blocks() on first read: unit letters as unit_factor, any
        other block held as it is (no copy, no check)."""
        if self._terms is None:
            units = _UNIT_LETTERS
            terms = (_built(TensorProductTerm, tuple([
                unit_factor(q[0], u) if (u := units.get(id(b)))
                else _built(TensorFactor, q, b, None) for q, b in f.items()]))
                for f in self.factor_blocks())
            object.__setattr__(self, "_terms", tuple(terms))
        return self._terms

    @property
    def realized(self) -> tuple:
        """Per set, its free block as dense_sum of its members on its qubits in ascending order,
        realized read-only on first read, or None for an empty block."""
        if self._realized is None:
            blocks = (_pauli.dense_sum(string_rows(m), mask_qubits(b)) if b else None
                      for m, b in self.sets)
            object.__setattr__(self, "_realized", tuple(blocks))
            for block in self._realized:
                if block is not None:
                    block.setflags(write=False)
        return self._realized

    def factor_blocks(self) -> list[dict[tuple[int, ...], np.ndarray]]:
        """Per term, its factors' blocks keyed by their qubits, in factor order. A set's are read
        from its masks: a term per member of a set without a block, its first letter times c
        (read-only), else one term of its first member's letters off the block, then the realized
        block; letters are the shared pauli._PAULI_MATS matrices, on ascending qubits."""
        if self.sets is None:
            return [{f.qubits: f.block for f in t.factors} for t in self.terms]
        out, mats = [], _LETTER_MATS
        for (members, block), realized in zip(self.sets, self.realized):
            for c, x, z in string_rows(members[:1] if block else members):
                factors = {(q,): mats[(x >> q & 1) + 2 * (z >> q & 1)]
                           for q in mask_qubits((x | z) & ~block)}
                if block:
                    factors[mask_qubits(block)] = realized
                else:
                    first = next(iter(factors))
                    factors[first] = c * factors[first]
                    factors[first].setflags(write=False)
                out.append(factors)
        return out

    def support(self) -> tuple[int, ...]:
        if self.sets is None:
            return tuple(sorted({q for t in self.terms for f in t.factors for q in f.qubits}))
        words = np.bitwise_or.reduce(self.strings["x"] | self.strings["z"], keepdims=True)
        return mask_qubits(reduce(or_, (b for _, b in self.sets), mask_ints(words)[0]))

    def max_factor_size(self) -> int:
        """The most qubits a factor acts on; for a set, its free block's, else 1 (its letters)."""
        if self.sets is None:
            return max((t.max_factor_size() for t in self.terms), default=0)
        return max((b.bit_count() or 1 for _, b in self.sets), default=0)


@dataclass(frozen=True)
class Partition:
    """Fragments plus identity constant reconstructing an n-qubit Hamiltonian."""

    n: int
    fragments: tuple[Fragment, ...]
    constant: float = 0.0
    source: str = ""
    hamiltonian_sha256: str | None = None

    def __post_init__(self):
        object.__setattr__(self, "fragments", tuple(self.fragments))
        for frag in self.fragments:  # a fragment holding sets is checked on its masks
            if (support := frag.support()) and support[-1] >= self.n:
                raise DataError(f"fragment {frag.label!r} acts on qubit {support[-1]}, n={self.n}")

    def __len__(self) -> int:
        return len(self.fragments)

    def max_factor_size(self) -> int:
        return max((f.max_factor_size() for f in self.fragments), default=0)


# Most bytes of dense blocks (16 * 4^m an m-qubit factor) a partition's string-built factors may
# realize for certification and JSON. CLI `partition` peaks near 11 times that: el8 greedy k=6
# holds 24 MiB of blocks and peaks at 338 MiB, so this cap keeps the peak near 430 MiB.
REALIZED_BYTES_CAP = 32 << 20


def check_realized_bytes(p: Partition):
    """Refuse (ResourceError) a partition whose sets' free blocks would realize more than
    REALIZED_BYTES_CAP bytes of dense blocks in total, read on their masks before any is built."""
    size = sum(16 << 2 * block.bit_count() for frag in p.fragments for _, block in frag.sets or ())
    if size > REALIZED_BYTES_CAP:
        raise ResourceError(f"partition would realize {size} bytes of dense blocks, "
                            f"cap {REALIZED_BYTES_CAP}")


@cache
def unit_factor(q: int, letter: str) -> TensorFactor:
    """The one-qubit factor of a bare Pauli letter, one shared immutable object per (q, letter),
    its block the letter's read-only pauli._PAULI_MATS matrix."""
    return _built(TensorFactor, (q,), _pauli._PAULI_MATS[letter], None)


def _built(cls, *values):
    """An instance of cls from its slot values, skipping the checks __init__ makes."""
    obj = object.__new__(cls)
    for name, value in zip(cls.__slots__, values):
        object.__setattr__(obj, name, value)
    return obj


def string_fragments(labelled: list, strings: np.ndarray) -> list[Fragment]:
    """A fragment per (label, sets) pair, each set (rows, block mask) naming rows of `strings`
    (PauliSum.sorted_strings), its terms built on first read. All rows, in order, are gathered
    by one fancy index into one read-only array: each fragment's strings and each set's members
    are slices of it."""
    held = strings[np.fromiter((r for _, sets in labelled for rows, _ in sets for r in rows),
                               np.intp)]
    held.setflags(write=False)
    out, start = [], 0
    for label, sets in labelled:
        bounds = list(accumulate((len(rows) for rows, _ in sets), initial=start))
        views = tuple((held[a:b], block) for a, b, (_, block) in zip(bounds, bounds[1:], sets))
        out.append(Fragment(label=label, strings=held[start:bounds[-1]], sets=views))
        start = bounds[-1]
    return out


# ---------------------------------------------------------------------------
# Realization


def term_matrix(term: TensorProductTerm, n: int) -> np.ndarray:
    """Dense 2^n x 2^n realization of a term: apply_term on the identity."""
    if n > _pauli.DENSE_QUBIT_CAP:
        raise ResourceError(f"dense realization capped at {_pauli.DENSE_QUBIT_CAP} qubits")
    return apply_term(term, np.eye(1 << n, dtype=complex), n)


def fragment_matrix(frag: Fragment, n: int) -> np.ndarray:
    out = np.zeros((1 << n, 1 << n), dtype=complex)
    for term in frag.terms:
        out += term_matrix(term, n)
    return out


def partition_matrix(p: Partition) -> np.ndarray:
    out = np.zeros((1 << p.n, 1 << p.n), dtype=complex)
    for frag in p.fragments:
        out += fragment_matrix(frag, p.n)
    out += p.constant * np.eye(1 << p.n)
    return out


def apply_block(vec: np.ndarray, n: int, qubits: tuple[int, ...], block: np.ndarray) -> np.ndarray:
    """Apply a 2^m x 2^m block on `qubits` to an n-qubit vector or a (2^n, S) state block."""
    m = len(qubits)
    psi = vec.reshape((2,) * n + vec.shape[1:])
    block_t = block.reshape((2,) * (2 * m))
    psi = np.tensordot(block_t, psi, axes=(list(range(m, 2 * m)), list(qubits)))
    psi = np.moveaxis(psi, list(range(m)), list(qubits))
    return psi.reshape(vec.shape)


def apply_term(term: TensorProductTerm, vec: np.ndarray, n: int) -> np.ndarray:
    """term @ vec (a vector or a (2^n, S) state block) by per-factor contraction; no matrices."""
    out = vec
    for f in term.factors:
        out = apply_block(out, n, f.qubits, f.block)
    return out


def apply_fragment(frag: Fragment, vec: np.ndarray, n: int) -> np.ndarray:
    if vec.shape[0] != 1 << n:
        raise DimensionError(f"state dimension {vec.shape[0]} != 2^{n}")
    out = np.zeros_like(vec, dtype=complex)
    for term in frag.terms:
        out += apply_term(term, vec, n)
    return out


def pauli_coefficients(terms) -> defaultdict:
    """Exact Pauli expansion of a sum of TensorProductTerms, (x mask, z mask) -> coefficient, by
    tensor_expansion of their factors' projections. Nothing is dropped; a term over
    EXPANSION_CAP strings raises ResourceError before anything is expanded."""
    expanded = [[f.projection for f in term.factors] for term in terms]
    if (size := max((prod(map(len, e)) for e in expanded), default=0)) > EXPANSION_CAP:
        raise ResourceError(f"term expands to {size} Pauli strings, cap {EXPANSION_CAP}")
    out: defaultdict[tuple[int, int], complex] = defaultdict(complex)
    for e in expanded:
        for c, x, z in tensor_expansion(1.0, e):
            out[(x, z)] += c
    return out


def pauli_sum_from_fragment(frag: Fragment, n: int) -> PauliSum | None:
    """Exact Pauli form of a fragment; None if imaginary weight appears."""
    coeffs = pauli_coefficients(frag.terms)
    if any(abs(c.imag) > 1e-9 for c in coeffs.values()):
        return None
    return PauliSum(n, [(c.real, PauliString(n, x, z)) for (x, z), c in coeffs.items()])


# ---------------------------------------------------------------------------
# JSON serialization (bit-exact round trip)

FORMAT_TAG = "hampart-partition-v1"


def _factor_from_json(f: dict) -> TensorFactor:
    """A factor from its JSON form. A one-qubit block bitwise equal to X, Y or Z (signed zeros
    included; its floats packed, no array built) is that letter's shared unit_factor."""
    qubits = tuple(f["qubits"])
    if not all(type(q) is int for q in qubits):  # no bool, float or string
        raise DataError(f"factor qubits must be JSON integers, got {qubits}")
    data, dim = f["block"], 1 << len(qubits)
    if bool in map(type, chain.from_iterable(data)):  # struct.pack and complex() take it as 1 or 0
        raise DataError(f"block entries must be numbers, got JSON true or false on {qubits}")
    if dim == 2 and len(data) == 4:
        letter = _UNIT_BLOCKS.get(struct.pack("8d", *data[0], *data[1], *data[2], *data[3]))
        if letter:
            return unit_factor(*qubits, letter)
    arr = np.array([complex(re, im) for re, im in data], dtype=complex)
    if arr.size != dim * dim:
        raise DataError(f"block length {arr.size} != {dim * dim}")
    return TensorFactor(qubits, arr.reshape(dim, dim))


def _rows(block: np.ndarray) -> list:
    """A block's entries in row-major order as [re, im] pairs of Python floats."""
    return block.ravel().view(float).reshape(-1, 2).tolist()


# The unit letters' rows, shared by every unit factor written: immutable, so that editing one
# written partition cannot change another (json writes a tuple as an array).
_UNIT_ROWS = {id(mat): tuple(map(tuple, _rows(mat))) for mat in _pauli._PAULI_MATS.values()}


def partition_to_json(p: Partition) -> dict:
    return {
        "format": FORMAT_TAG,
        "source": p.source,
        "n": p.n,
        "constant": p.constant,
        "hamiltonian_sha256": p.hamiltonian_sha256,
        "fragments": [
            {
                "label": frag.label,
                "terms": [
                    {"factors": [{"qubits": list(q), "block": _UNIT_ROWS.get(id(b)) or _rows(b)}
                                 for q, b in factors.items()]}
                    for factors in frag.factor_blocks()
                ],
            }
            for frag in p.fragments
        ],
    }


def partition_from_json(data: dict | str) -> Partition:
    """Partition from its JSON form; malformed input raises DataError."""
    if isinstance(data, str):
        try:
            data = json.loads(data)
        except json.JSONDecodeError as exc:
            raise DataError(f"partition is not JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise DataError("partition JSON must be an object")
    if data.get("format") != FORMAT_TAG:
        raise DataError(f"unknown partition format {data.get('format')!r}")
    try:
        fragments = []
        for frag in data["fragments"]:
            terms = [TensorProductTerm(_factor_from_json(f) for f in term["factors"])
                     for term in frag["terms"]]
            fragments.append(Fragment(tuple(terms), _text(frag.get("label", ""), "label")))
        n, constant = data["n"], data["constant"]
        if type(n) is not int or n < 0:
            raise DataError(f"n must be a non-negative JSON integer, got {n!r}")
        if type(constant) not in (int, float) or not np.isfinite(constant):
            raise DataError(f"constant must be a finite number, got {constant!r}")
        digest = data.get("hamiltonian_sha256")
        return Partition(
            n=n,
            fragments=tuple(fragments),
            constant=float(constant),
            source=_text(data.get("source", ""), "source"),
            hamiltonian_sha256=None if digest is None else _text(digest, "hamiltonian_sha256"),
        )
    except HampartError:
        raise
    except (KeyError, TypeError, ValueError, AttributeError, struct.error) as exc:
        raise DataError(f"malformed partition: {exc!r}") from exc


def _text(value, name: str) -> str:
    """A partition file's text field, refused (DataError) unless it is a JSON string."""
    if type(value) is not str:
        raise DataError(f"{name} must be a JSON string, got {value!r}")
    return value


def save_partition(path, p: Partition):
    with open(path, "w") as fh:
        # json.dumps without indent is the C encoder; json.dump and any indent are pure Python.
        fh.write(json.dumps(partition_to_json(p)) + "\n")


def load_partition(path) -> Partition:
    return partition_from_json(read_text(path))
