"""Certification of partitions: reconstruction, locality, and one measurement
basis per fragment.

A fragment is measurable when one basis change diagonalizes every one of its
terms; that is the single criterion certified here (commutation follows from
it). Fragments whose factor supports align get one unitary per support, found
simultaneously for the support's family of blocks. Other fragments get one
unitary over their whole support when `allow_global=True`. Either way the
certificate is a bound on the max-entry norm of U^dag M U - diag(D).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod

import numpy as np

from .errors import ConstraintError, DimensionError, ResourceError
from .fragments import (
    Fragment,
    Partition,
    TensorFactor,
    TensorProductTerm,
    _deposit,
    apply_block,
    pauli_coefficients,
    term_matrix,
)
from .pauli import PauliSum
from .variance import StateVector

COMMUTATION_QUBIT_CAP = 10
GLOBAL_BLOCK_QUBIT_CAP = 8
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

    @property
    def ok(self) -> bool:
        return (
            self.reconstruction_error <= 1e-9
            and self.locality_ok
            and self.diagonalization_residual <= _DIAG_TOL
        )

    def to_dict(self) -> dict:
        return {
            "reconstruction_error": self.reconstruction_error,
            "locality_ok": self.locality_ok,
            "locality_worst": self.locality_worst,
            "locality_bound": self.locality_bound,
            "tensor_wise": self.tensor_wise,
            "diagonalization_residual": self.diagonalization_residual,
            "ok": self.ok,
        }


def check_reconstruction(p: Partition, h: PauliSum) -> float:
    """Sum over Pauli strings s of |c_partition(s) - c_h(s)|, identity included, from the
    factors' Pauli coefficients (no 2^n object). It bounds the max-entry deviation of the
    fragments plus constant from h: each Pauli matrix has one unit-modulus entry per row."""
    if p.n != h.n:
        raise DimensionError(f"partition on {p.n} qubits, operator on {h.n}")
    diff = pauli_coefficients(term for frag in p.fragments for term in frag.terms)
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
        mats = [term_matrix(_restrict_term(t, support), m, "dense") for t in frag.terms]
        for i in range(len(mats)):
            for j in range(i + 1, len(mats)):
                comm = mats[i] @ mats[j] - mats[j] @ mats[i]
                worst = max(worst, float(np.max(np.abs(comm))) if comm.size else 0.0)
    return worst


def _sorted_block(f: TensorFactor) -> np.ndarray:
    """Re-index a factor block so its qubits appear in ascending order."""
    order = np.argsort(f.qubits)
    m = f.size
    tensor = f.block.reshape((2,) * (2 * m))
    perm = list(order) + [m + int(a) for a in order]
    return tensor.transpose(perm).reshape(1 << m, 1 << m)


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
        if len(key) > GLOBAL_BLOCK_QUBIT_CAP:
            raise ResourceError(f"block on {len(key)} qubits exceeds cap {GLOBAL_BLOCK_QUBIT_CAP}")
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


@dataclass(frozen=True)
class FragmentDiagonalization:
    """Per-support unitaries U_s, the diagonal of U^dag M U, and a bound on the
    max-entry norm of U^dag M U - diag(D)."""

    unitaries: dict[tuple[int, ...], np.ndarray]
    diagonal: np.ndarray
    residual: float
    tensor_wise: bool

    def rotate(self, vec: np.ndarray, n: int) -> np.ndarray:
        """U^dag @ vec."""
        out = vec
        for qubits, u in self.unitaries.items():
            out = apply_block(out, n, qubits, u.conj().T)
        return out

    def expectation(self, psi: StateVector) -> float:
        """<psi|M|psi> evaluated as sum_z D(z) |(U^dag psi)(z)|^2."""
        rotated = self.rotate(psi.amplitudes, psi.n)
        return float(np.sum(self.diagonal * np.abs(rotated) ** 2))


def diagonalize_fragment(
    frag: Fragment,
    n: int,
    *,
    allow_global: bool = False,
) -> FragmentDiagonalization:
    """Diagonalize a fragment per factor support, or over its whole support.

    Stacked blocks on a shared support are diagonalized simultaneously.
    Raises ConstraintError when that tensor-wise basis does not diagonalize
    the fragment, unless `allow_global` permits one whole-support unitary
    instead, whose blocks are the terms restricted to that support.
    """
    if not frag.terms:
        return FragmentDiagonalization({}, np.zeros(1 << n), 0.0, True)
    basis = _tensor_wise_basis(frag)
    tensor_wise = basis is not None
    if not tensor_wise:
        if not allow_global:
            raise ConstraintError(
                "fragment is not tensor-wise diagonalizable; "
                "pass allow_global=True for a whole-support basis"
            )
        support = frag.support()
        m = len(support)
        if m > GLOBAL_BLOCK_QUBIT_CAP:
            raise ResourceError(
                f"fragment support {m} exceeds whole-support cap {GLOBAL_BLOCK_QUBIT_CAP}"
            )
        basis = _basis(
            [{support: term_matrix(_restrict_term(t, support), m, "dense")} for t in frag.terms]
        )
    unitaries, rotated = basis

    indices = np.arange(1 << n, dtype=np.int64)
    local_index = {
        key: _deposit(indices, [n - 1 - q for q in key], list(range(len(key) - 1, -1, -1)))
        for key in unitaries
    }
    diagonal = np.zeros(1 << n)
    for term in rotated:
        contrib = np.ones(1 << n)
        for key, (d_local, _, _) in term.items():
            contrib *= d_local[local_index[key]]
        diagonal += contrib
    return FragmentDiagonalization(unitaries, diagonal, _residual_bound(rotated), tensor_wise)


def validate_partition(p: Partition, h: PauliSum, k: int | None = None) -> ValidationReport:
    """Check reconstruction and locality, and certify every fragment by its
    measurement basis; `k` defaults to the largest factor seen."""
    recon = check_reconstruction(p, h)
    worst_factor = p.max_factor_size()
    bound = k if k is not None else worst_factor
    tensor_wise = True
    residual = 0.0
    for frag in p.fragments:
        diag = diagonalize_fragment(frag, p.n, allow_global=True)
        tensor_wise = tensor_wise and diag.tensor_wise
        residual = max(residual, diag.residual)
    return ValidationReport(
        reconstruction_error=recon,
        locality_ok=check_locality(p, bound),
        locality_worst=worst_factor,
        locality_bound=bound,
        tensor_wise=tensor_wise,
        diagonalization_residual=residual,
    )
