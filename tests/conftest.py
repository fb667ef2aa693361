"""Shared fixtures: reference Hamiltonians and independent dense oracles."""

import importlib.util
from collections import Counter, defaultdict
from math import isfinite, prod
from pathlib import Path

import numpy as np
import pytest
from hypothesis import strategies as st

from hampart import fragments
from hampart import pauli as _pauli
from hampart.errors import DataError, DimensionError, ResourceError
from hampart.fragments import (EXPANSION_CAP, Fragment, Partition, TensorFactor,
                               TensorProductTerm, unit_factor)
from hampart.operators import ElectronicIntegrals
from hampart.partitioners import (
    blocking_partition,
    color_partition_fermi_hubbard_1d,
    greedy_partition,
    sorted_insertion,
)
from hampart.pauli import (PauliString, PauliSum, mask_ints, mask_qubits, parse_pauli_text,
                           pauli_masks, pauli_matrix, string_rows, tensor_expansion)

# Four-qubit example Hamiltonian used throughout (identity offset +1).
ILLUSTRATIVE_TEXT = """\
1.0
0.5 X0 X1 X2
1.0 X0 X2
0.5 Y0 Y1 X2
1.0 X1
2.0 X1 X2
1.0 X1 X2 X3
-1.0 X1 X2 Z3
-1.0 X1 Z2
-0.5 X1 Z2 X3
0.5 X1 Z2 Z3
0.5 X1 X3
-0.5 X1 Z3
4.0 X2
1.0 X2 X3
-1.0 X2 Z3
-1.0 Z2
-0.5 Z2 X3
0.5 Z2 Z3
0.5 X3
-0.5 Z3
"""

# The five fully-commuting groups of the example, as letter strings.
ILLUSTRATIVE_FC_GROUPS = [
    {"IIXI", "IXXI", "IIXX", "IXXX", "IXII", "XIXI", "IIIX", "IXIX", "XXXI"},
    {"IIZI", "IXZI", "IIZX", "IXZX"},
    {"IIZZ", "IXZZ"},
    {"IIXZ", "IXXZ", "IIIZ", "IXIZ"},
    {"YYXI"},
]


@pytest.fixture()
def built_terms(monkeypatch) -> Counter:
    """Counts, by class name, the TensorFactor and TensorProductTerm objects made while the test
    runs: each is made by its class's __init__ or, checks skipped, by fragments._built."""
    counts = Counter()

    def counting(make, name=None):
        def wrapped(*args, **kwargs):
            counts[name or args[0].__name__] += 1
            return make(*args, **kwargs)
        return wrapped

    for cls in (TensorFactor, TensorProductTerm):
        monkeypatch.setattr(cls, "__init__", counting(cls.__init__, cls.__name__))
    monkeypatch.setattr(fragments, "_built", counting(fragments._built))
    return counts


@pytest.fixture()
def built_strings(monkeypatch) -> Counter:
    """Counts the PauliString objects made while the test runs (calls of its __init__)."""
    counts = Counter()
    make = PauliString.__init__

    def counting(self, *args, **kwargs):
        counts["PauliString"] += 1
        make(self, *args, **kwargs)

    monkeypatch.setattr(PauliString, "__init__", counting)
    return counts


def benchmark_fcidump(path, norb: int, seed: int):
    """Write the benchmark's seeded electronic FCIDUMP (perfbench/inputs.py) to `path`."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_inputs", Path(__file__).parents[1] / "perfbench" / "inputs.py")
    inputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(inputs)
    inputs.write_electronic(path, norb, seed)


def string_built_partitions(h, sites: int | None = None) -> list:
    """Every partition built from Pauli strings: fc-si, qwc-si, greedy and blocking at every k,
    and fh1d when `h` is the Jordan-Wigner image of an open chain of `sites` sites."""
    parts = [sorted_insertion(h, "full"), sorted_insertion(h, "qubitwise")]
    parts += [make(h, k) for make in (greedy_partition, blocking_partition)
              for k in range(1, h.n + 1)]
    return parts + ([color_partition_fermi_hubbard_1d(h, sites)] if sites else [])


def block_built(p: Partition) -> Partition:
    """The same partition with each fragment built from its terms, as a loaded file holds it."""
    return Partition(p.n, tuple(Fragment(f.terms, f.label) for f in p.fragments), p.constant,
                     p.source, p.hamiltonian_sha256)


def letter_term(coeff: float, string: PauliString) -> TensorProductTerm:
    """A weighted Pauli string as a term of one-qubit factors through the checked constructors:
    coeff times the first letter, then the other letters, on ascending qubits."""
    first, *rest = string.support()
    return TensorProductTerm([TensorFactor((first,), coeff * pauli_matrix(string.letter(first)))]
                             + [TensorFactor((q,), pauli_matrix(string.letter(q))) for q in rest])


@pytest.fixture(scope="session")
def illustrative_hamiltonian():
    return parse_pauli_text(ILLUSTRATIVE_TEXT, n=4)


def h2_sto3g_integrals() -> ElectronicIntegrals:
    """H2 / STO-3G at 0.7414 Angstrom (standard published integral set)."""
    ints = ElectronicIntegrals(norb=2)
    ints.set_one_body(0, 0, -1.252477495)
    ints.set_one_body(1, 1, -0.475934275)
    ints.set_two_body(0, 0, 0, 0, 0.674493166)
    ints.set_two_body(0, 0, 1, 1, 0.663472101)
    ints.set_two_body(0, 1, 0, 1, 0.181287518)
    ints.set_two_body(1, 1, 1, 1, 0.697397010)
    ints.core = 0.713776188
    return ints


def random_integrals(norb: int, rng) -> ElectronicIntegrals:
    """Random spatial integrals: h_ij ~ N(0, 0.3^2), one (ij|kl) ~ N(0, 0.05^2) per symmetry class."""
    ints = ElectronicIntegrals(norb=norb)
    for i in range(norb):
        for j in range(i, norb):
            ints.set_one_body(i, j, float(rng.normal(0.0, 0.3)))
    pairs = [(i, j) for i in range(norb) for j in range(i + 1)]
    for a, (i, j) in enumerate(pairs):
        for k, l in pairs[: a + 1]:
            ints.set_two_body(i, j, k, l, float(rng.normal(0.0, 0.05)))
    return ints


@pytest.fixture(scope="session")
def h2_integrals():
    return h2_sto3g_integrals()


@pytest.fixture()
def h2_fcidump(tmp_path):
    from hampart.operators import write_fcidump

    path = tmp_path / "h2.fcidump"
    write_fcidump(path, h2_sto3g_integrals(), nelec=2)
    return path


# Vibrational acceptance instance: 3 modes, d=4, dense cubic+quartic PES.
VIB_OMEGA = (1.0, 1.2, 0.9)


def vib_couplings():
    from itertools import combinations_with_replacement

    c = {k: 0.2 for k in combinations_with_replacement(range(3), 3)}
    c.update({k: 0.1 for k in combinations_with_replacement(range(3), 4)})
    return c


# ---------------------------------------------------------------------------
# Independent oracles


def kron_all(mats):
    out = mats[0]
    for m in mats[1:]:
        out = np.kron(out, m)
    return out


def dense_from_letters(letters: str) -> np.ndarray:
    """Qubit 0 is the first kron factor (most significant basis bit)."""
    return kron_all([pauli_matrix(ch) for ch in letters])


def dense_pauli_sum(h) -> np.ndarray:
    """Rebuild a PauliSum matrix term by term from explicit kron products."""
    dim = 1 << h.n
    out = h.constant * np.eye(dim, dtype=complex)
    for string, coeff in h.terms.items():
        out += coeff * dense_from_letters(string.letters)
    return out


def string_triples(strings: np.ndarray) -> list[tuple[complex, int, int]]:
    """The rows of a pauli.string_array as (c, x mask, z mask), masks read through mask_ints."""
    return list(zip(strings["c"].tolist(), mask_ints(strings["x"]), mask_ints(strings["z"])))


def jw_ladder(mode: int, modes: int, dagger: bool) -> np.ndarray:
    """Explicit Jordan-Wigner ladder matrix; |1> is the occupied state."""
    lower = np.array([[0, 1], [0, 0]], dtype=complex)
    op = lower.conj().T if dagger else lower
    mats = [pauli_matrix("Z")] * mode + [op]
    mats += [np.eye(2, dtype=complex)] * (modes - mode - 1)
    return kron_all(mats)


def dense_fermion(op) -> np.ndarray:
    """FermionOperator matrix from explicit ladder products."""
    dim = 1 << op.modes
    out = np.zeros((dim, dim), dtype=complex)
    for coeff, ops in op.terms:
        term = np.eye(dim, dtype=complex)
        for mode, dagger in ops:
            term = term @ jw_ladder(mode, op.modes, dagger)
        out += coeff * term
    return out


def random_hermitian(dim: int, rng) -> np.ndarray:
    m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return (m + m.conj().T) / 2.0


@st.composite
def pauli_sums(draw, max_qubits=6):
    """Random real Pauli sums: 2-max_qubits qubits, 1-12 terms with |c| in (1e-3, 1], a constant."""
    n = draw(st.integers(2, max_qubits))
    coeffs = st.floats(-1.0, 1.0).filter(lambda c: abs(c) > 1e-3)
    terms = draw(st.lists(st.tuples(coeffs, st.text("IXYZ", min_size=n, max_size=n)),
                          min_size=1, max_size=12))
    constant = draw(st.floats(-1.0, 1.0))
    return PauliSum(n, [(c, PauliString.from_letters(s)) for c, s in terms], constant)


@st.composite
def pauli_pairs(draw):
    """(n, pairs, constant) on 1, 2, 63, 64, 65 or 130 qubits: 0-12 (c, PauliString) pairs whose
    strings repeat (the identity among them), some pairs cancelling to within SIMPLIFY_TOL."""
    n = draw(st.sampled_from([1, 2, 63, 64, 65, 130]))
    edges = [q for q in (0, 1, 62, 63, 64, 65, 129) if q < n]
    qubits = st.one_of(st.sampled_from(edges), st.integers(0, n - 1))
    letters = st.dictionaries(qubits, st.sampled_from("XYZ"), max_size=4)
    strings = draw(st.lists(letters.map(lambda d: PauliString.from_ops(d.items(), n)),
                            min_size=1, max_size=4))
    coeffs = st.floats(-1.0, 1.0, allow_subnormal=False)
    pairs = draw(st.lists(st.tuples(coeffs, st.sampled_from(strings)), max_size=12))
    for c, s in draw(st.lists(st.tuples(coeffs, st.sampled_from(strings)), max_size=3)):
        pairs += [(c, s), (-c + draw(st.sampled_from([0.0, 1e-13, -5e-13])), s)]
    return n, draw(st.permutations(pairs)), draw(st.floats(-1.0, 1.0)) + 0.0  # no -0.0


def reference_pauli_sum(pairs, constant: float) -> tuple[dict, float]:
    """The PauliString dict and constant of the loop PauliSum used to run: each string's
    coefficients added onto 0.0 in order, the identity's onto the constant, |c| <= 1e-12
    dropped."""
    acc, const = {}, float(constant)
    for c, s in pairs:
        if s.is_identity:
            const += c
        else:
            acc[s] = acc.get(s, 0.0) + c
    return {s: c for s, c in acc.items() if abs(c) > 1e-12}, const


# ---------------------------------------------------------------------------
# The builders of a string-built fragment's terms before they were read from
# Fragment.factor_blocks(), kept verbatim: the factor that held its strings as masks, the
# term of one weighted string and the terms of one set.

_HERMITIAN_TOL = fragments._HERMITIAN_TOL
_built = fragments._built


class ReferenceTensorFactor:
    """Hermitian block acting on an ordered tuple of qubits. Given `masks`, the (c, x, z) triples
    it sums over the register, its block is their dense_sum on its qubits unless given."""

    __slots__ = ("qubits", "block", "masks", "_projection")

    def __init__(self, qubits, block=None, masks=None):
        qubits = tuple(int(q) for q in qubits)
        if len(set(qubits)) != len(qubits) or min(qubits, default=0) < 0:
            raise DataError(f"repeated or negative qubit in factor {qubits}")
        if masks is None:
            block = np.array(block, dtype=complex)
            dim = 1 << len(qubits)
            if block.shape != (dim, dim):
                raise DimensionError(
                    f"factor on {len(qubits)} qubits needs a {dim} x {dim} block, got {block.shape}"
                )
            if not np.isfinite(block).all() or abs(block - block.conj().T).max() > _HERMITIAN_TOL:
                raise DataError("factor block is not finite and Hermitian")
        elif block is None:
            block = _pauli.dense_sum(masks, qubits)
        block.setflags(write=False)
        for name, value in zip(self.__slots__, (qubits, block, masks, None)):
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


def reference_pauli_factor(members, qubits, block=None) -> ReferenceTensorFactor:
    """Factor on `qubits` holding the weighted strings (c, s) of `members`, cut to `qubits`; its
    block is given already realized, or realized here."""
    mask = sum(1 << q for q in qubits)
    return ReferenceTensorFactor(qubits, block,
                                 tuple((c, s.x & mask, s.z & mask) for c, s in members))


def reference_pauli_term(coeff: float, string: PauliString) -> TensorProductTerm:
    """Weighted Pauli string as a product of 1-qubit factors (coeff in the first). A real finite
    coeff on distinct qubits makes the factor and term checks redundant, so they are skipped."""
    x, z, support = string.x, string.z, mask_qubits(string.support_mask)
    if not support:
        raise DataError("identity terms belong in Partition.constant")
    if isinstance(coeff, complex) or not isfinite(coeff):
        raise DataError(f"Pauli term coefficient must be real and finite, got {coeff!r}")
    letters = ["IXZY"[(x >> q & 1) + 2 * (z >> q & 1)] for q in support]  # by x + 2z
    block = coeff * _pauli._PAULI_MATS[letters[0]]
    block.setflags(write=False)
    first = _built(ReferenceTensorFactor, (support[0],), block, None, None)
    return _built(TensorProductTerm, (first, *map(unit_factor, support[1:], letters[1:])))


def reference_set_terms(members, block: int, realized) -> list[TensorProductTerm]:
    """The terms of one set of weighted strings (c, x, z): an empty block gives pauli_term of
    each member; else one term holding the first member's letters off the block: those unit
    letters, then one pauli_factor of the members on the block qubits in ascending order, its
    block the `realized` one (Fragment.realized)."""
    members = [(c, _built(PauliString, (x | z).bit_length(), x, z))
               for c, x, z in string_rows(members)]
    if not block:
        return [reference_pauli_term(c, s) for c, s in members]
    ref = members[0][1]
    letters = [unit_factor(q, ref.letter(q)) for q in ref.support() if not block >> q & 1]
    return [TensorProductTerm(letters + [reference_pauli_factor(members, mask_qubits(block),
                                                                realized)])]


def reference_terms(frag: Fragment) -> list[TensorProductTerm]:
    """The terms a set fragment's Fragment.terms built before: reference_set_terms of each set."""
    return [t for s, r in zip(frag.sets, frag.realized) for t in reference_set_terms(*s, r)]


def reference_expansion(terms) -> defaultdict:
    """The former pauli_coefficients(terms): tensor_expansion of each factor's masks where it
    holds them, else of its block's projection."""
    expanded = [[f.projection if getattr(f, "masks", None) is None else f.masks
                 for f in term.factors] for term in terms]
    if (size := max((prod(map(len, e)) for e in expanded), default=0)) > EXPANSION_CAP:
        raise ResourceError(f"term expands to {size} Pauli strings, cap {EXPANSION_CAP}")
    out: defaultdict[tuple[int, int], complex] = defaultdict(complex)
    for e in expanded:
        for c, x, z in tensor_expansion(1.0, e):
            out[(x, z)] += c
    return out
