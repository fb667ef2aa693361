"""Certification of partitions: reconstruction, locality, and one measurement
basis per fragment.

A fragment is measurable when one basis change diagonalizes every one of its
terms; that is the single criterion certified here (commutation follows from
it). A fragment of one-qubit Pauli letters gets one Clifford per qubit, decided
on its masks; other fragments whose factor supports align get one unitary per
support, found simultaneously for the support's family of blocks (one eigh per
block size for all one-block supports). Every other fragment gets a Clifford
circuit if the strings of its exact Pauli expansion commute: it maps every
string to a Z-type string, checked by conjugating each string exactly and once,
by gate layers. The certificate is a bound on max|U^dag M U - diag(D)|.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import asdict, dataclass, field
from functools import cached_property
from math import prod
from typing import Callable

import numpy as np

from .errors import ConstraintError, DimensionError, ResourceError
from .fragments import (
    Fragment,
    Partition,
    TensorFactor,
    TensorProductTerm,
    apply_block,
    pauli_coefficients,
    string_rows,
    term_matrix,
)
from .pauli import PauliSum, apply_pauli_terms, mask_qubits, pauli_masks, string_array
from .variance import StateVector

COMMUTATION_QUBIT_CAP = 10
_DIAG_TOL = 1e-9
_EPS = float(np.finfo(float).eps)


@dataclass(frozen=True)
class ValidationReport:
    reconstruction_error: float
    locality_ok: bool
    locality_worst: int
    locality_bound: int
    tensor_wise: bool
    diagonalization_residual: float
    bases: tuple[dict, ...]  # per fragment: FragmentDiagonalization.record(), or kind "none"

    @property
    def ok(self) -> bool:
        return (
            self.reconstruction_error <= 1e-9
            and self.locality_ok
            and self.diagonalization_residual <= _DIAG_TOL
            and all(b["kind"] != "none" for b in self.bases)
        )

    def to_dict(self) -> dict:
        out = asdict(self)
        bases = out.pop("bases")
        gates = [b["two_qubit_gates"] for b in bases]
        return {
            **out,
            "ok": self.ok,
            "bases": list(bases),
            "basis_summary": {
                "kinds": dict(Counter(b["kind"] for b in bases)),
                "largest_block": max((b["largest_block"] for b in bases), default=0),
                "two_qubit_gates": {"total": sum(gates), "max": max(gates, default=0)},
            },
        }


def _coefficients(frags):
    """(x mask, z mask) -> coefficient of the blocks the fragments hold: pauli_coefficients of the
    terms built from blocks, then each set's members, or its first member's letters off its free
    block times each string of pauli_masks of the realized block."""
    out = pauli_coefficients(t for f in frags if f.sets is None for t in f.terms)
    for frag in (f for f in frags if f.sets is not None):
        for (members, block), realized in zip(frag.sets, frag.realized):
            rows = string_rows(members)
            if block:
                _, x, z = next(rows)
                rows = ((c, x & ~block | bx, z & ~block | bz)
                        for c, bx, bz in pauli_masks(realized, mask_qubits(block)))
            for c, x, z in rows:
                out[(x, z)] += c
    return out


def check_reconstruction(p: Partition, h: PauliSum) -> float:
    """Sum over Pauli strings s of |c_partition(s) - c_h(s)|, identity included, from the held
    blocks' Pauli coefficients less the rows of h's table, in order (no 2^n object). It bounds
    the max-entry deviation of the fragments plus constant from h: each Pauli matrix has one
    unit-modulus entry per row."""
    if p.n != h.n:
        raise DimensionError(f"partition on {p.n} qubits, operator on {h.n}")
    diff = _coefficients(p.fragments)
    diff[(0, 0)] += p.constant - h.constant
    for c, x, z in string_rows(h.strings()):
        diff[(x, z)] -= c
    return float(sum(abs(c) for c in diff.values()))


def check_locality(p: Partition, k: int) -> bool:
    """True iff every factor acts on at most k qubits."""
    return p.max_factor_size() <= k


def _restrict_term(term: TensorProductTerm, support: tuple[int, ...]) -> TensorProductTerm:
    remap = {q: i for i, q in enumerate(support)}
    return TensorProductTerm(
        tuple(TensorFactor(tuple(remap[q] for q in f.qubits), f.block) for f in term.factors)
    )


def check_commutation(p: Partition) -> float:
    """Worst max-entry commutator norm over all intra-fragment term pairs.

    A dense reference check (fragment supports up to COMMUTATION_QUBIT_CAP);
    certification itself uses `diagonalize_fragment`.
    """
    worst = 0.0
    for frag in p.fragments:
        support = frag.support()
        m = len(support)
        if m > COMMUTATION_QUBIT_CAP:
            raise ResourceError(
                f"fragment support {m} exceeds dense commutation cap {COMMUTATION_QUBIT_CAP}"
            )
        mats = [term_matrix(_restrict_term(t, support), m) for t in frag.terms]
        for i in range(len(mats)):
            for j in range(i + 1, len(mats)):
                comm = mats[i] @ mats[j] - mats[j] @ mats[i]
                worst = max(worst, float(np.max(np.abs(comm))) if comm.size else 0.0)
    return worst


def _sorted_block(qubits: tuple[int, ...], block: np.ndarray) -> np.ndarray:
    """Re-index a factor block so its qubits appear in ascending order: one axis transpose (the
    block itself when they already do)."""
    if list(qubits) == sorted(qubits):
        return block
    m, order = len(qubits), np.argsort(qubits)
    return block.reshape((2,) * (2 * m)).transpose([*order, *(order + m)]).reshape(1 << m, -1)


def _simultaneous_eigh(blocks: list[np.ndarray]):
    """A unitary U that diagonalizes a Hermitian family at once, and each
    U^dag B U as (real diagonal, largest off-diagonal entry, largest entry).

    Blocks are taken in turn: each is diagonalized within every eigenspace
    the earlier blocks share, which splits those spaces further. A commuting
    family ends diagonal; a family with no common basis still gets a
    unitary, whose off-diagonal entries then fail certification.
    """
    dim, stack = blocks[0].shape[0], np.stack(blocks)
    vecs = np.eye(dim, dtype=complex)  # an already-diagonal family needs no basis change
    if np.abs(stack[:, ~np.eye(dim, dtype=bool)]).max() > 1e-14:
        spaces = [np.arange(dim)]
        for b in blocks:
            if len(spaces) == dim:
                break
            b_vecs = b @ vecs
            split = []
            for idx in spaces:
                vals, sub = np.linalg.eigh(vecs[:, idx].conj().T @ b_vecs[:, idx])
                vecs[:, idx] = vecs[:, idx] @ sub
                gaps = np.diff(vals) > 1e-11 * max(1.0, float(np.max(np.abs(vals))))
                split.extend(np.split(idx, np.flatnonzero(gaps) + 1))
            spaces = split
    return vecs, _summaries(vecs, stack)


def _summaries(vecs: np.ndarray, stack: np.ndarray) -> list[tuple[np.ndarray, float, float]]:
    """Each U^dag B U of stacked blocks B (and their unitaries U, or one for all) as its real
    diagonal, largest off-diagonal entry and largest entry."""
    rotated = np.swapaxes(vecs.conj(), -1, -2) @ stack @ vecs
    mags, off = np.abs(rotated), ~np.eye(stack.shape[-1], dtype=bool)
    return [(r.diagonal().real, float(m[off].max()), float(m.max())) for r, m in zip(rotated, mags)]


def _residual_bound(rotated_terms) -> float:
    """Bound on max|U^dag M U - diag(D)|, summed over terms.

    An off-diagonal entry of a term's tensor product takes an off-diagonal
    entry from at least one rotated block and any entries from the others.
    Rounding adds about d ulps of a term's largest entry for each rotated
    block of dimension d, and one ulp per term summed into D.
    """
    total = 0.0
    for term in rotated_terms:
        parts = list(term.values())
        norms = [norm for _, _, norm in parts]
        total += max(
            (off * prod(norms[:i] + norms[i + 1:]) for i, (_, off, _) in enumerate(parts)),
            default=0.0,
        )
        ulps = sum(len(d) for d, _, _ in parts) + len(rotated_terms)
        total += ulps * _EPS * prod(norms)
    return total


def _aligned(frag: Fragment):
    """A fragment's terms as their blocks by ascending support (Fragment.factor_blocks through
    _sorted_block), and each support's family of blocks, supports sorted; None when two supports
    partially overlap."""
    terms = [{tuple(sorted(qubits)): _sorted_block(qubits, block) for qubits, block in f.items()}
             for f in frag.factor_blocks()]
    families: dict[tuple[int, ...], list[np.ndarray]] = {}
    for key, block in (item for term in terms for item in term.items()):
        families.setdefault(key, []).append(block)
    if len(set().union(*families)) < sum(map(len, families)):
        return None
    return terms, dict(sorted(families.items()))


def _rotations(blocks: list[np.ndarray]) -> list:
    """Each block's _simultaneous_eigh as a family of its own, each distinct block object once (a
    unit letter is shared), stacked by size: one np.linalg.eigh and one rotation per size."""
    unique, out = list({id(b): b for b in blocks}.values()), {}
    for dim in {len(b) for b in unique}:
        same = [b for b in unique if len(b) == dim]
        stack, vecs = np.stack(same), np.tile(np.eye(dim, dtype=complex), (len(same), 1, 1))
        if (turn := np.abs(stack[:, ~np.eye(dim, dtype=bool)]).max(axis=1) > 1e-14).any():
            vecs[turn] = np.linalg.eigh(stack[turn])[1]  # the others keep the identity
        out.update((id(b), (u, [s])) for b, u, s in zip(same, vecs, _summaries(vecs, stack)))
    return [out[id(b)] for b in blocks]


def _tensor_wise_bases(frags) -> list:
    """Per fragment (None skipped), one unitary per aligned factor support, each term's rotated
    blocks by support and the residual bound; None when two supports partially overlap or the
    residual is over tol. A support's family of blocks is diagonalized at once
    (_simultaneous_eigh), and the one-block families of all the fragments together (_rotations)."""
    aligned = [None if frag is None else _aligned(frag) for frag in frags]
    singles = iter(_rotations([f[0] for a in aligned if a for f in a[1].values() if len(f) == 1]))
    bases = []
    for basis in aligned:
        if basis is not None:
            terms, families = basis
            unitaries = {}
            for key, fam in families.items():
                unitaries[key], summaries = _simultaneous_eigh(fam) if fam[1:] else next(singles)
                families[key] = iter(summaries)
            rotated = [{key: next(families[key]) for key in term} for term in terms]
            residual = _residual_bound(rotated)
            basis = (unitaries, rotated, residual) if residual <= _DIAG_TOL else None
        bases.append(basis)
    return bases


def check_tensor_wise(frag: Fragment) -> bool:
    """Aligned factor supports, each support's blocks diagonalized by one unitary."""
    return _tensor_wise_bases([frag])[0] is not None


def _tensor_wise_diagonal(rotated, n: int) -> np.ndarray:
    """Sum over terms of the product of their rotated diagonals, each broadcast on the (2,)*n
    qubit axes (a support's qubits ascend, the first is the top bit of its diagonal's index)."""
    diagonal = np.zeros((2,) * n)
    for term in rotated:
        contrib = np.ones((2,) * n)
        for key, (d_local, _, _) in term.items():
            contrib *= d_local.reshape([2 if q in key else 1 for q in range(n)])
        diagonal += contrib
    return diagonal.ravel()


# ---------------------------------------------------------------------------
# Clifford bases for commuting Pauli strings

# The basis factor stored for each gate g is g^dag, so that `rotate` applies g itself.
_GATE_OPS = {
    "h": np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2),
    "s": np.diag([1, -1j]),
    "cx": np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex),
    "cz": np.diag([1, 1, 1, -1]).astype(complex),
}
# The 2x2 Clifford for a qubit's shared letter (x, z): H for X, S^dag H for Y, identity for Z.
_LETTER_BASES = {(1, 0): _GATE_OPS["h"], (1, 1): _GATE_OPS["s"] @ _GATE_OPS["h"], (0, 1): np.eye(2)}


def _conjugate(layers, x: int, z: int, e: int) -> tuple[int, int, int]:
    """g P g^dag = i^e' X^x' Z^z' for P = i^e X^x Z^z (a Hermitian string has e = |x&z|) through
    layers (name, q, mask) of commuting gates, in order: CNOTs from q to each qubit of mask, S or
    H on each qubit of mask, or CZs between q and each (Aaronson & Gottesman, quant-ph/0406196)."""
    for name, q, mask in layers:
        if name == "cx":
            x ^= mask * (x >> q & 1)
            z ^= ((z & mask).bit_count() & 1) << q
        elif name == "s":
            e += (x & mask).bit_count()
            z ^= x & mask
        elif name == "h":
            e += 2 * (x & z & mask).bit_count()
            x, z = x ^ (x ^ z) & mask, z ^ (x ^ z) & mask
        else:  # cz
            e += 2 * (x >> q & 1) * (x & mask).bit_count()
            z ^= mask * (x >> q & 1) ^ ((x & mask).bit_count() & 1) << q
    return x, z, e


def _clifford_circuit(strings: list[tuple[int, int, int]]) -> list[tuple[str, tuple[int, ...]]]:
    """Gates (H, S, CNOT, CZ) that map commuting strings (x, z, e) to Z-type ones, in place.

    Symplectic Gaussian elimination: each string, through the gates so far, is Z-type on the
    pivot qubits of the strings before it, else it would anticommute with one of them. Unless
    it is a product of those, it has a letter on a fresh qubit q; CNOTs from q clear its other
    X parts, S turns Y on q into X, CZs clear its other Z parts off the pivots, and H makes X_q
    a Z_q. Later gates act on fresh qubits only, so its layers conjugate the strings from it on.
    """
    gates: list[tuple[str, tuple[int, ...]]] = []
    pivots = 0
    for i in range(len(strings)):
        x, z, _ = strings[i]
        if x & pivots:
            raise ConstraintError("fragment is not tensor-wise and its Pauli strings anticommute")
        free = (x | z) & ~pivots
        if not free:
            continue
        q = ((x or free) & -(x or free)).bit_length() - 1
        bit = 1 << q
        if x:
            layers = [("cx", q, x ^ bit)]
            if (x & z).bit_count() & 1:  # each CNOT adds its target's Z bit to q: Y left on q
                layers.append(("s", q, bit))
        else:
            layers = [("h", q, bit)]
        layers += [("cz", q, free & z & ~bit), ("h", q, bit)]
        gates += [(name, (q,) if r == q else (q, r))
                  for name, _, mask in layers for r in range(mask.bit_length()) if mask >> r & 1]
        strings[i:] = [_conjugate(layers, *s) for s in strings[i:]]
        pivots |= bit
    return gates


@dataclass(frozen=True)
class FragmentDiagonalization:
    """A fragment's measurement basis U = U_1 U_2 ... as ordered (qubits, U_i) ops, its
    kind ("tensor-wise": one unitary per factor support; "clifford": H, S, CNOT and CZ
    gates), a bound on the max-entry norm of U^dag M U - diag(D), and D, built on first use."""

    ops: tuple[tuple[tuple[int, ...], np.ndarray], ...]
    kind: str
    residual: float
    _diagonal: Callable[[], np.ndarray] = field(repr=False, compare=False)

    @property
    def tensor_wise(self) -> bool:
        return self.kind == "tensor-wise"

    @cached_property
    def diagonal(self) -> np.ndarray:
        return self._diagonal()

    def record(self) -> dict:
        """Basis kind, largest block in qubits, two-qubit gate count and residual."""
        return {
            "kind": self.kind,
            "largest_block": max((len(qubits) for qubits, _ in self.ops), default=0),
            "two_qubit_gates": 0 if self.tensor_wise else sum(len(q) == 2 for q, _ in self.ops),
            "residual": self.residual,
        }

    def rotate(self, vec: np.ndarray, n: int) -> np.ndarray:
        """U^dag @ vec."""
        out = vec
        for qubits, u in self.ops:
            out = apply_block(out, n, qubits, u.conj().T)
        return out

    def expectation(self, psi: StateVector) -> float:
        """<psi|M|psi> evaluated as sum_z D(z) |(U^dag psi)(z)|^2."""
        rotated = self.rotate(psi.amplitudes, psi.n)
        return float(np.sum(self.diagonal * np.abs(rotated) ** 2))


def _qubit_letters(coeffs) -> tuple[int, int] | None:
    """Each qubit's letter as masks (x, z), from the strings in descending |c|. A string with
    another letter on a qubit goes to the residual if |c| <= 2 * _DIAG_TOL, else it gives None."""
    xs = zs = 0
    for (x, z), c in sorted(coeffs.items(), key=lambda sc: -abs(sc[1])):
        if (x ^ xs | z ^ zs) & (x | z) & (xs | zs):
            if abs(c) > 2 * _DIAG_TOL:
                return None
            continue
        xs, zs = xs | x, zs | z
    return xs, zs


def _conjugated(coeffs, images, gates: int, n: int, kind: str, ops) -> FragmentDiagonalization:
    """The basis of `gates` gates for strings {(x, z): c} whose images, in order, are i^e X^x Z^z
    for (x, z, e) in `images`: those with X or Y letters are its residual, the rest its diagonal."""
    diagonal_terms = []
    off = 0.0
    for (x, z, e), c in zip(images, coeffs.values()):
        off += abs(c) if x else abs(c.imag)
        if not x:
            diagonal_terms.append((-c.real if e & 2 else c.real, 0, z))
    # Rounding: a dense U^dag M U through the gates loses about an ulp of the
    # scale sum |c_s| per gate on each side, and one per string summed into M.
    rounding = (2 * gates + len(coeffs)) * _EPS * sum(abs(c) for c in coeffs.values())
    return FragmentDiagonalization(ops, kind, off + rounding, lambda: apply_pauli_terms(
        string_array(diagonal_terms, n), np.ones(1 << n), n).real)


def _letters(frag: Fragment) -> bool:
    """Whether every factor of a fragment's terms is one weighted Pauli letter, read from a set
    fragment's masks: each set has an empty block, or one member on a one-qubit block."""
    if frag.sets is not None:
        return all(not b or len(m) == 1 and b.bit_count() == 1 for m, b in frag.sets)
    return all(f.size == 1 and len(proj := f.projection) == 1 and proj[0][1] | proj[0][2]
               for t in frag.terms for f in t.factors)


def diagonalize_fragment(frag: Fragment, n: int) -> FragmentDiagonalization:
    """Diagonalize a fragment per qubit or factor support, or by a Clifford circuit.

    A fragment of one-qubit Pauli letters is decided on its strings: one 2x2
    Clifford per qubit for the letters of its strings with |c| > 2 * tol.
    Other fragments try the stacked blocks of each shared support at once.
    Without such a basis, or with a residual over tol, a Clifford circuit is
    searched; ConstraintError when the Pauli strings anticommute.
    """
    letters = _letters(frag)
    return _diagonalization(frag, n, letters, _tensor_wise_bases([None if letters else frag])[0])


def _diagonalization(frag: Fragment, n: int, letters: bool, basis) -> FragmentDiagonalization:
    """diagonalize_fragment, given its _letters and its _tensor_wise_bases entry."""
    if basis is not None:
        unitaries, rotated, residual = basis
        return FragmentDiagonalization(tuple(unitaries.items()), "tensor-wise", residual,
                                       lambda: _tensor_wise_diagonal(rotated, n))
    coeffs = {s: c for s, c in _coefficients([frag]).items() if c != 0}
    strings = [(x, z, (x & z).bit_count()) for x, z in coeffs]
    if letters and (shared := _qubit_letters(coeffs)) is not None:
        xs, zs = shared  # S on the Y qubits, then H on the X and Y qubits
        images = [_conjugate((("s", 0, xs & zs), ("h", 0, xs)), *s) for s in strings]
        ops = tuple(((q,), _LETTER_BASES[xs >> q & 1, zs >> q & 1])
                    for q in range(n) if (xs | zs) >> q & 1)
        gates = xs.bit_count() + (xs & zs).bit_count()
        basis = _conjugated(coeffs, images, gates, n, "tensor-wise", ops)
        if basis.residual <= _DIAG_TOL:
            return basis
    gates = _clifford_circuit(strings)
    ops = tuple((qubits, _GATE_OPS[name]) for name, qubits in gates)
    return _conjugated(coeffs, strings, len(gates), n, "clifford", ops)


def validate_partition(p: Partition, h: PauliSum, k: int | None = None) -> ValidationReport:
    """Check reconstruction and locality, and certify every fragment by its
    measurement basis; `k` defaults to the largest factor seen. A fragment
    with no basis is recorded as kind "none" and fails the report. The
    one-block supports of all fragments are rotated at once (_tensor_wise_bases)."""
    recon = check_reconstruction(p, h)
    worst_factor = p.max_factor_size()
    bound = k if k is not None else worst_factor
    bases = []
    letters = [_letters(f) for f in p.fragments]
    free = _tensor_wise_bases([None if lt else f for f, lt in zip(p.fragments, letters)])
    for frag, lt, basis in zip(p.fragments, letters, free):
        try:
            bases.append(_diagonalization(frag, p.n, lt, basis).record())
        except ConstraintError:
            bases.append(dict(kind="none", largest_block=0, two_qubit_gates=0, residual=None))
    return ValidationReport(
        reconstruction_error=recon,
        locality_ok=worst_factor <= bound,
        locality_worst=worst_factor,
        locality_bound=bound,
        tensor_wise=all(b["kind"] == "tensor-wise" for b in bases),
        diagonalization_residual=max((b["residual"] or 0.0 for b in bases), default=0.0),
        bases=tuple(bases),
    )
