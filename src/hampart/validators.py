"""Certification of partitions: reconstruction, locality, and one measurement
basis per fragment.

A fragment is measurable when one basis change diagonalizes every one of its
terms; that is the single criterion certified here (commutation follows from
it). A fragment of one-qubit Pauli letters gets one Clifford per qubit, decided
on its masks; other fragments whose factor supports align get one unitary per
support, found simultaneously for the support's family of blocks. Every other
fragment gets a Clifford circuit if the strings of its exact Pauli expansion
commute: it maps every string to a Z-type string, checked by conjugating each
string exactly. Either way the certificate is a bound on the max-entry norm of
U^dag M U - diag(D).
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
    term_matrix,
)
from .pauli import PauliSum, _basis_mask
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


def check_reconstruction(p: Partition, h: PauliSum) -> float:
    """Sum over Pauli strings s of |c_partition(s) - c_h(s)|, identity included, from the
    factors' Pauli coefficients (no 2^n object). It bounds the max-entry deviation of the
    fragments plus constant from h: each Pauli matrix has one unit-modulus entry per row."""
    if p.n != h.n:
        raise DimensionError(f"partition on {p.n} qubits, operator on {h.n}")
    diff = pauli_coefficients((term for frag in p.fragments for term in frag.terms), blocks=True)
    diff[(0, 0)] += p.constant - h.constant
    for s, c in h.terms.items():
        diff[(s.x, s.z)] -= c
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


def _sorted_block(f: TensorFactor) -> np.ndarray:
    """Re-index a factor block so its qubits appear in ascending order: one axis transpose."""
    m, order = f.size, np.argsort(f.qubits)
    return f.block.reshape((2,) * (2 * m)).transpose([*order, *(order + m)]).reshape(1 << m, -1)


def _off_diagonal(mat: np.ndarray) -> float:
    mags = np.abs(mat)
    np.fill_diagonal(mags, 0.0)
    return float(np.max(mags))


def _simultaneous_eigh(blocks: list[np.ndarray]):
    """A unitary U that diagonalizes a Hermitian family at once, and each
    U^dag B U as (real diagonal, largest off-diagonal entry, largest entry).

    Blocks are taken in turn: each is diagonalized within every eigenspace
    the earlier blocks share, which splits those spaces further. A commuting
    family ends diagonal; a family with no common basis still gets a
    unitary, whose off-diagonal entries then fail certification.
    """
    dim = blocks[0].shape[0]
    vecs = np.eye(dim, dtype=complex)  # an already-diagonal family needs no basis change
    if any(_off_diagonal(b) > 1e-14 for b in blocks):
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
    return vecs, [_summary(vecs, b) for b in blocks]


def _summary(u: np.ndarray, block: np.ndarray) -> tuple[np.ndarray, float, float]:
    rotated = u.conj().T @ block @ u
    return np.real(np.diag(rotated)), _off_diagonal(rotated), float(np.max(np.abs(rotated)))


def _basis(terms: list[dict[tuple[int, ...], np.ndarray]]):
    """One unitary per support, and each term's rotated blocks by support."""
    families: dict[tuple[int, ...], list[np.ndarray]] = {}
    for term in terms:
        for key, block in term.items():
            families.setdefault(key, []).append(block)
    unitaries = {}
    rotated = {}
    for key, blocks in sorted(families.items()):
        unitaries[key], summaries = _simultaneous_eigh(blocks)
        rotated[key] = iter(summaries)
    return unitaries, [{key: next(rotated[key]) for key in term} for term in terms]


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


def _tensor_wise_basis(frag: Fragment):
    """`_basis` with one unitary per aligned factor support; None when two
    supports partially overlap or that basis leaves the fragment off-diagonal."""
    supports: set[tuple[int, ...]] = set()
    terms = []
    for term in frag.terms:
        blocks = {}
        for f in term.factors:
            key = tuple(sorted(f.qubits))
            if key not in supports:
                if any(set(key) & set(other) for other in supports):
                    return None
                supports.add(key)
            blocks[key] = f.block if f.qubits == key else _sorted_block(f)
        terms.append(blocks)
    basis = _basis(terms)
    return basis if _residual_bound(basis[1]) <= _DIAG_TOL else None


def check_tensor_wise(frag: Fragment) -> bool:
    """Aligned factor supports, each support's blocks diagonalized by one unitary."""
    return _tensor_wise_basis(frag) is not None


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


def _conjugate(gate: tuple[str, tuple[int, ...]], x: int, z: int) -> tuple[int, int, int]:
    """g P g^dag = (-1)^flip P' for a Hermitian Pauli string P = (x, z) (Y is x = z = 1):
    the masks of P' and flip, by the rules of Aaronson & Gottesman (quant-ph/0406196)."""
    name, a, b = gate[0], gate[1][0], gate[1][-1]
    xa, za = (x >> a) & 1, (z >> a) & 1
    if name == "h":
        swap = (xa ^ za) << a
        return x ^ swap, z ^ swap, xa & za
    if name == "s":
        return x, z ^ (xa << a), xa & za
    xb, zb = (x >> b) & 1, (z >> b) & 1
    if name == "cx":
        return x ^ (xa << b), z ^ (zb << a), xa & zb & (xb ^ za ^ 1)
    return x, z ^ (xb << a) ^ (xa << b), xa & xb & (za ^ zb)  # cz


def _clifford_circuit(strings) -> list[tuple[str, tuple[int, ...]]]:
    """Gates (H, S, CNOT, CZ) that map every string of a commuting set to a Z-type string.

    Symplectic Gaussian elimination: each string, pushed through the gates so
    far, is Z-type on the pivot qubits of the strings before it, else it would
    anticommute with one of them. Unless it is a product of those, it has a
    letter on a fresh qubit q; CNOTs from q clear its other X parts, S turns Y
    on q into X, CZs clear its other Z parts off the pivots, and H makes X_q a
    Z_q. Later gates act on fresh qubits only, so it stays Z-type.
    """
    gates: list[tuple[str, tuple[int, ...]]] = []
    pivots = 0
    for x, z in strings:
        for gate in gates:
            x, z, _ = _conjugate(gate, x, z)
        if x & pivots:
            raise ConstraintError("fragment is not tensor-wise and its Pauli strings anticommute")
        free = (x | z) & ~pivots
        if not free:
            continue
        q = ((x or free) & -(x or free)).bit_length() - 1
        if x:
            new = [("cx", (q, r)) for r in range(x.bit_length()) if r != q and (x >> r) & 1]
            if (x & z).bit_count() & 1:  # each CNOT adds its target's Z bit to q: Y left on q
                new.append(("s", (q,)))
        else:
            new = [("h", (q,))]
        new += [("cz", (q, r)) for r in range(z.bit_length()) if (free & z & ~(1 << q)) >> r & 1]
        gates += new + [("h", (q,))]
        pivots |= 1 << q
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


def _qubit_letters(coeffs, n: int) -> list[tuple[int, int, int]] | None:
    """Each qubit's letter (q, x bit, z bit), taken from the strings in descending |c|. A string
    that holds another letter on a qubit is left to the residual when |c| <= 2 * _DIAG_TOL, and
    otherwise no per-qubit basis can certify the strings (None)."""
    xs = zs = 0
    for (x, z), c in sorted(coeffs.items(), key=lambda sc: -abs(sc[1])):
        if (x ^ xs | z ^ zs) & (x | z) & (xs | zs):
            if abs(c) > 2 * _DIAG_TOL:
                return None
            continue
        xs, zs = xs | x, zs | z
    return [(q, xs >> q & 1, zs >> q & 1) for q in range(n)]


def _conjugated(coeffs, gates, n: int, kind: str, ops) -> FragmentDiagonalization:
    """The basis of `gates` for Pauli strings {(x, z): c}, each conjugated exactly: strings left
    with an X or Y letter are its residual, the Z-type rest its diagonal."""
    diagonal_terms = []
    off = 0.0
    for (x, z), c in coeffs.items():
        flips = 0
        for gate in gates:
            x, z, flip = _conjugate(gate, x, z)
            flips ^= flip
        off += abs(c) if x else abs(c.imag)
        if not x:
            diagonal_terms.append((-c.real if flips else c.real, _basis_mask(z, n)))
    # Rounding: a dense U^dag M U through the gates loses about an ulp of the
    # scale sum |c_s| per gate on each side, and one per string summed into M.
    rounding = (2 * len(gates) + len(coeffs)) * _EPS * sum(abs(c) for c in coeffs.values())

    def diagonal() -> np.ndarray:
        idx = np.arange(1 << n, dtype=np.uint64)
        parities = ((c, np.bitwise_count(idx & np.uint64(mask)) & 1) for c, mask in diagonal_terms)
        return sum((np.where(odd, -c, c) for c, odd in parities), np.zeros(1 << n))

    return FragmentDiagonalization(ops, kind, off + rounding, diagonal)


def diagonalize_fragment(frag: Fragment, n: int) -> FragmentDiagonalization:
    """Diagonalize a fragment per qubit or factor support, or by a Clifford circuit.

    A fragment of one-qubit Pauli letters is decided on its strings: one 2x2
    Clifford per qubit for the letters of its strings with |c| > 2 * tol.
    Other fragments try the stacked blocks of each shared support at once.
    Without such a basis, or with a residual over tol, a Clifford circuit is
    searched; ConstraintError when the Pauli strings anticommute.
    """
    letters = all(f.size == 1 and len(f.projection) == 1 and f.projection[0][1] | f.projection[0][2]
                  for t in frag.terms for f in t.factors)
    if not letters and (basis := _tensor_wise_basis(frag)) is not None:
        unitaries, rotated = basis
        return FragmentDiagonalization(
            tuple(unitaries.items()), "tensor-wise", _residual_bound(rotated),
            lambda: _tensor_wise_diagonal(rotated, n),
        )
    coeffs = {s: c for s, c in pauli_coefficients(frag.terms, blocks=True).items() if c != 0}
    if letters and (shared := _qubit_letters(coeffs, n)) is not None:
        gates = [(name, (q,)) for q, x, z in shared if x for name in ("s", "h")[1 - z:]]
        ops = tuple(((q,), _LETTER_BASES[x, z]) for q, x, z in shared if x | z)
        if (basis := _conjugated(coeffs, gates, n, "tensor-wise", ops)).residual <= _DIAG_TOL:
            return basis
    gates = _clifford_circuit(coeffs)
    ops = tuple((qubits, _GATE_OPS[name]) for name, qubits in gates)
    return _conjugated(coeffs, gates, n, "clifford", ops)


def validate_partition(p: Partition, h: PauliSum, k: int | None = None) -> ValidationReport:
    """Check reconstruction and locality, and certify every fragment by its
    measurement basis; `k` defaults to the largest factor seen. A fragment
    with no basis is recorded as kind "none" and fails the report."""
    recon = check_reconstruction(p, h)
    worst_factor = p.max_factor_size()
    bound = k if k is not None else worst_factor
    bases = []
    for frag in p.fragments:
        try:
            bases.append(diagonalize_fragment(frag, p.n).record())
        except ConstraintError:
            bases.append(dict(kind="none", largest_block=0, two_qubit_gates=0, residual=None))
    return ValidationReport(
        reconstruction_error=recon,
        locality_ok=check_locality(p, bound),
        locality_worst=worst_factor,
        locality_bound=bound,
        tensor_wise=all(b["kind"] == "tensor-wise" for b in bases),
        diagonalization_residual=max((b["residual"] or 0.0 for b in bases), default=0.0),
        bases=tuple(bases),
    )
