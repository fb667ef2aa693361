"""Jordan-Wigner and Gray-code encodings against explicit matrix oracles."""

from collections import defaultdict
from functools import reduce

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from conftest import dense_fermion, jw_ladder, kron_all
from hampart import encodings
from hampart.encodings import (
    EncodedOperator,
    embed_matrix,
    encode_boson_block,
    encode_boson_operator,
    gray_map,
    jordan_wigner,
    mode_qubit_layout,
    pauli_project,
)
from hampart.errors import DataError, DomainError
from hampart.operators import (
    BOSON_SYMBOLS,
    BosonOperator,
    FermionOperator,
    boson_matrices,
    build_bose_hubbard,
    build_fermi_hubbard,
    chain_lattice,
)
from hampart.pauli import (PauliString, PauliSum, multiply, pauli_masks, string_to_dense,
                           tensor_expansion)


def ladder_paulis(mode: int, modes: int, dagger: bool) -> dict:
    """JW ladder operator Z_0..Z_{mode-1} (X -+ iY)_mode / 2 as {string: complex weight}."""
    zs = [(q, "Z") for q in range(mode)]
    return {PauliString.from_ops(zs + [(mode, "X")], modes): 0.5,
            PauliString.from_ops(zs + [(mode, "Y")], modes): -0.5j if dagger else 0.5j}


def anticommutator(a: dict, b: dict) -> dict:
    """{a, b} of complex-weighted Pauli sums, string by string through `multiply`."""
    out: dict = {}
    for x, y in ((a, b), (b, a)):
        for sa, ca in x.items():
            for sb, cb in y.items():
                phase, s = multiply(sa, sb)
                out[s] = out.get(s, 0) + ca * cb * phase
    return {s: c for s, c in out.items() if c != 0}


class TestJordanWigner:
    def test_number_operator(self):
        op = FermionOperator(1, ((1.0, ((0, True), (0, False))),))
        h = jordan_wigner(op)
        assert abs(h.constant - 0.5) < 1e-14
        assert len(h) == 1
        ((string, coeff),) = h.terms.items()
        assert string.letters == "Z" and abs(coeff + 0.5) < 1e-14

    def test_hopping_pair(self):
        op = FermionOperator(
            2, ((1.0, ((0, True), (1, False))), (1.0, ((1, True), (0, False))))
        )
        h = jordan_wigner(op)
        got = {s.letters: c for s, c in h.terms.items()}
        assert set(got) == {"XX", "YY"}
        assert abs(got["XX"] - 0.5) < 1e-14 and abs(got["YY"] - 0.5) < 1e-14

    def test_canonical_anticommutation_as_matrices(self):
        modes = 3
        for i in range(modes):
            for j in range(modes):
                a_i = jw_ladder(i, modes, False)
                adag_j = jw_ladder(j, modes, True)
                anti = a_i @ adag_j + adag_j @ a_i
                expect = np.eye(1 << modes) if i == j else np.zeros((8, 8))
                assert np.max(np.abs(anti - expect)) < 1e-13
                both = jw_ladder(i, modes, False) @ jw_ladder(j, modes, False)
                both += jw_ladder(j, modes, False) @ jw_ladder(i, modes, False)
                assert np.max(np.abs(both)) < 1e-13

    def test_encoded_anticommutators(self):
        # The qubit image of {a_i, a+_j} is exactly delta_ij * I, and the
        # image of {a_i, a_j} is exactly zero, for up to 4 modes.
        modes = 4
        for i in range(modes):
            for j in range(modes):
                anti = FermionOperator(
                    modes,
                    (
                        (1.0, ((i, False), (j, True))),
                        (1.0, ((j, True), (i, False))),
                    ),
                )
                h = jordan_wigner(anti)
                if i == j:
                    assert len(h) == 0 and abs(h.constant - 1.0) < 1e-14
                else:
                    assert len(h) == 0 and abs(h.constant) < 1e-14
                both = FermionOperator(
                    modes,
                    (
                        (1.0, ((i, False), (j, False))),
                        (1.0, ((j, False), (i, False))),
                    ),
                )
                hb = jordan_wigner(both)
                assert len(hb) == 0 and abs(hb.constant) < 1e-14

    @seed(20261018)
    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_canonical_anticommutation_as_pauli_algebra(self, data):
        # {a_i, a+_j} = delta_ij and {a_i, a_j} = 0 exactly, on up to 8 modes.
        modes = data.draw(st.integers(1, 8))
        i, j = (data.draw(st.integers(0, modes - 1)) for _ in range(2))
        a_i, a_j = ladder_paulis(i, modes, False), ladder_paulis(j, modes, False)
        delta = {PauliString.identity(modes): 1} if i == j else {}
        assert anticommutator(a_i, ladder_paulis(j, modes, True)) == delta
        assert anticommutator(a_i, a_j) == {}
        anti = FermionOperator(modes, ((1.0, ((i, False), (j, True))), (1.0, ((j, True), (i, False)))))
        assert jordan_wigner(anti) == PauliSum(modes, [], float(i == j))

    def test_matrix_faithfulness_up_to_four_modes(self):
        rng = np.random.default_rng(21)
        for modes in (2, 3, 4):
            terms = []
            for _ in range(4):
                i, j = rng.integers(0, modes, 2)
                c = float(rng.standard_normal())
                terms.append((c, ((int(i), True), (int(j), False))))
                terms.append((c, ((int(j), True), (int(i), False))))
            op = FermionOperator(modes, tuple(terms))
            h = jordan_wigner(op)
            assert np.max(np.abs(h.to_matrix() - dense_fermion(op))) < 1e-10

    def test_hubbard_faithful(self):
        op = build_fermi_hubbard(chain_lattice(4), 1.0, 2.0)
        h = jordan_wigner(op)
        assert np.max(np.abs(h.to_matrix() - dense_fermion(op))) < 1e-10


class TestGrayMap:
    def test_examples(self):
        assert gray_map(4).codes == ("00", "01", "11", "10")
        assert gray_map(3).codes == ("00", "01", "11")
        assert gray_map(2).codes == ("0", "1")

    def test_adjacency_up_to_64(self):
        for d in range(2, 65):
            gm = gray_map(d)
            assert len(set(gm.codes)) == d
            for a, b in zip(gm.codes, gm.codes[1:]):
                assert sum(x != y for x, y in zip(a, b)) == 1

    def test_d_too_small(self):
        with pytest.raises(DomainError):
            gray_map(1)


class TestEncodeBlock:
    def test_number_at_d2(self):
        gm = gray_map(2)
        h = encode_boson_block(np.diag([0.0, 1.0]), gm)
        assert abs(h.constant - 0.5) < 1e-14
        ((string, coeff),) = h.terms.items()
        assert string.letters == "Z" and abs(coeff + 0.5) < 1e-14

    def test_q_at_d2(self):
        gm = gray_map(2)
        h = encode_boson_block(boson_matrices(2)["q"], gm)
        ((string, coeff),) = h.terms.items()
        assert string.letters == "X" and abs(coeff - 1 / np.sqrt(2)) < 1e-14

    def test_zero_matrix(self):
        gm = gray_map(3)
        h = encode_boson_block(np.zeros((3, 3)), gm)
        assert len(h) == 0 and h.constant == 0.0

    def test_non_hermitian_rejected(self):
        gm = gray_map(2)
        with pytest.raises(DomainError):
            encode_boson_block(np.array([[0.0, 1.0], [0.0, 0.0]]), gm)

    def test_realization_matches_embedding(self):
        rng = np.random.default_rng(31)
        for d in (2, 3, 4, 6):
            gm = gray_map(d)
            m = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            m = (m + m.conj().T) / 2
            h = encode_boson_block(m, gm)
            assert np.max(np.abs(h.to_matrix() - embed_matrix(m, gm))) < 1e-12

    def test_projection_completeness(self):
        # decompose-then-realize is the identity on arbitrary blocks
        rng = np.random.default_rng(32)
        for k in (1, 2, 3, 4, 5):
            dim = 1 << k
            m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
            rebuilt = np.zeros((dim, dim), dtype=complex)
            for coeff, string in pauli_project(m, k):
                rebuilt += coeff * string_to_dense(string)
            assert np.max(np.abs(rebuilt - m)) < 1e-12


class TestEncodeOperator:
    def test_single_mode_number(self):
        op = BosonOperator(1, 2, ((1.0, ((0, "n"),)),))
        enc = encode_boson_operator(op)
        assert abs(enc.pauli.constant - 0.5) < 1e-14
        ((string, coeff),) = enc.pauli.terms.items()
        assert string.letters == "Z" and abs(coeff + 0.5) < 1e-14

    def test_two_mode_quadrature_product(self):
        op = BosonOperator(2, 2, ((1.0, ((0, "q"), (1, "q"))),))
        enc = encode_boson_operator(op)
        ((string, coeff),) = enc.pauli.terms.items()
        assert string.letters == "XX" and abs(coeff - 0.5) < 1e-14

    def test_identity_operator(self):
        op = BosonOperator(2, 4, ((2.5, ()),))
        enc = encode_boson_operator(op)
        assert len(enc.pauli) == 0 and abs(enc.pauli.constant - 2.5) < 1e-14

    def test_mode_layout_disjoint_cover(self):
        op = build_bose_hubbard(chain_lattice(3), 1.0, 2.0, 4)
        enc = encode_boson_operator(op)
        seen = set()
        for qubits in enc.mode_qubits.values():
            assert not seen & set(qubits)
            seen.update(qubits)
        assert seen == set(range(enc.n))

    def test_faithfulness_multi_mode(self):
        # Up to 3 modes, d <= 4: PauliSum realization equals kron of
        # per-mode embedded matrices.
        rng = np.random.default_rng(33)
        for modes, d in ((2, 3), (3, 2), (2, 4), (3, 4)):
            gm = gray_map(d)
            mats = boson_matrices(d)
            terms = []
            for _ in range(3):
                factors = []
                for m in range(modes):
                    sym = ("q", "p", "n")[int(rng.integers(0, 3))]
                    if rng.random() < 0.7:
                        factors.append((m, sym))
                if not factors:
                    factors = [(0, "n")]
                c = float(rng.standard_normal())
                terms.append((c, tuple(factors)))
            op = BosonOperator(modes, d, tuple(terms))
            enc = encode_boson_operator(op)
            dim = 1 << gm.k_mode
            oracle = np.zeros((dim**modes, dim**modes), dtype=complex)
            for coeff, factors in op.terms:
                per_mode: dict[int, np.ndarray] = {}
                for m, sym in factors:
                    per_mode[m] = per_mode.get(m, np.eye(d, dtype=complex)) @ mats[sym]
                # Modes without factors stay full qubit identities (the
                # encoding leaves them untouched rather than projecting onto
                # the code subspace).
                blocks = [
                    embed_matrix(per_mode[m], gm) if m in per_mode else np.eye(dim)
                    for m in range(modes)
                ]
                oracle += coeff * kron_all(blocks)
            assert np.max(np.abs(enc.pauli.to_matrix() - oracle)) < 1e-10

    def test_bose_hubbard_encoding_faithful(self):
        op = build_bose_hubbard(chain_lattice(2), 1.0, 2.0, 3)
        enc = encode_boson_operator(op)
        gm = gray_map(3)
        mats = boson_matrices(3)
        e = {k: embed_matrix(v, gm) for k, v in mats.items()}
        n_mat = mats["n"]
        onsite = embed_matrix(n_mat @ n_mat - n_mat, gm)
        oracle = -(
            np.kron(e["bdag"], e["b"]) + np.kron(e["b"], e["bdag"])
        )
        eye = np.eye(4)
        oracle += np.kron(onsite, eye) + np.kron(eye, onsite)
        assert np.max(np.abs(enc.pauli.to_matrix() - oracle)) < 1e-10


# ---------------------------------------------------------------------------
# String-by-string reference encoders: the library ORs per-qubit or per-mode Pauli
# masks through one tensor expansion, and must give exactly the floats these do.

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


def string_product_jordan_wigner(op: FermionOperator) -> PauliSum:
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


def reference_encode_boson_block(A: np.ndarray, gm) -> PauliSum:
    """Hermitian d x d mode matrix -> PauliSum on k_mode qubits."""
    A = np.asarray(A, dtype=complex)
    if np.max(np.abs(A - A.conj().T)) > 1e-10:
        raise DomainError("block is not Hermitian")
    M = embed_matrix(A, gm)
    acc = {s: c for c, s in pauli_project(M, gm.k_mode) if abs(c) > _COEFF_TOL}
    return _realify(acc, gm.k_mode, "encode_boson_block")


def reference_encode_boson_operator(op: BosonOperator) -> EncodedOperator:
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


# Ordinary weights, weights straddling the 1e-12 drop (alone and after the 1/2 or 1/4 of a ladder
# or Gray factor), and draws that are not dyadic.
COEFFS = st.one_of(
    st.sampled_from([1.0, -0.5, 0.3, 1e-12, -1e-12, 5e-13, 1.5e-12, 2e-12, -3.9e-12, 4e-12,
                     4.1e-12, 9e-12, 1.7e-11]),
    st.floats(-2.0, 2.0, allow_nan=False, allow_infinity=False),
)


@st.composite
def fermion_operators(draw):
    """1-12 modes; 0-4 ladder ops per term on repeated and unordered modes, each with its
    Hermitian conjugate, so that the image is Hermitian."""
    modes = draw(st.integers(1, 12))
    ladder = st.tuples(st.integers(0, modes - 1), st.booleans())
    terms = []
    for coeff, ops in draw(st.lists(st.tuples(COEFFS, st.lists(ladder, max_size=4)),
                                    min_size=1, max_size=8)):
        terms.append((coeff, tuple(ops)))
        terms.append((coeff, tuple((m, not dagger) for m, dagger in reversed(ops))))
    return FermionOperator(modes, tuple(terms))


@st.composite
def boson_operators(draw):
    """d = 2..5 on 1-4 modes; 0-3 factors per term on repeated modes, each with its conjugate."""
    modes, d = draw(st.integers(1, 4)), draw(st.integers(2, 5))
    factor = st.tuples(st.integers(0, modes - 1), st.sampled_from(BOSON_SYMBOLS))
    terms, conj = [], {"b": "bdag", "bdag": "b"}
    for coeff, factors in draw(st.lists(st.tuples(COEFFS, st.lists(factor, max_size=3)),
                                        min_size=1, max_size=6)):
        terms.append((coeff, tuple(factors)))
        terms.append((coeff, tuple((m, conj.get(s, s)) for m, s in reversed(factors))))
    return BosonOperator(modes, d, tuple(terms))


class TestEncodersMatchReferenceProducts:
    @seed(20261018)
    @settings(max_examples=300, deadline=None)
    @given(op=fermion_operators())
    def test_jordan_wigner_equals_string_products(self, op):
        h, oracle = jordan_wigner(op), string_product_jordan_wigner(op)
        assert h.terms == oracle.terms
        assert h.constant == oracle.constant

    @seed(20261018)
    @settings(max_examples=200, deadline=None)
    @given(op=boson_operators())
    def test_encode_boson_operator_equals_string_products(self, op):
        enc, oracle = encode_boson_operator(op), reference_encode_boson_operator(op)
        assert enc.pauli.terms == oracle.pauli.terms
        assert enc.pauli.constant == oracle.pauli.constant
        assert enc.mode_qubits == oracle.mode_qubits and enc.gray == oracle.gray

    @seed(20261018)
    @settings(max_examples=100, deadline=None)
    @given(d=st.integers(2, 5), symbols=st.lists(st.sampled_from(BOSON_SYMBOLS), max_size=3),
           coeff=COEFFS)
    def test_encode_boson_block_equals_projection(self, d, symbols, coeff):
        mats, gm = boson_matrices(d), gray_map(d)
        block = coeff * np.eye(d)
        for s in symbols:
            block = block @ mats[s]
        block = block + block.conj().T
        h, oracle = encode_boson_block(block, gm), reference_encode_boson_block(block, gm)
        assert h.terms == oracle.terms and h.constant == oracle.constant


# ---------------------------------------------------------------------------
# The per-term Jordan-Wigner loop: one ladder product at a time, through tensor_expansion and a
# dict of +=. The library expands arrays of terms at once and must give the same bytes, in the
# same first-seen order.

_JW_BLOCKS = {"Z": np.diag([1.0, -1.0]), True: np.eye(2, k=-1), False: np.eye(2, k=1)}


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


def reference_jordan_wigner(op: FermionOperator) -> PauliSum:
    """Qubit image of a Hermitian fermionic operator, one term at a time."""
    cache: dict = {}
    acc: defaultdict[tuple[int, int], complex] = defaultdict(complex)
    for coeff, ops in op.terms:
        for c, x, z in tensor_expansion(coeff, _ladder_factors(ops, cache), _COEFF_TOL):
            acc[(x, z)] += c
    return _realify({PauliString(op.modes, x, z): c for (x, z), c in acc.items()}, op.modes,
                    "jordan_wigner")


def same_bytes(got: PauliSum, want: PauliSum) -> bool:
    """Equal strings in the same dict order, and bitwise equal coefficients and constant."""
    return (list(got.terms) == list(want.terms)
            and np.array(list(got.terms.values())).tobytes()
            == np.array(list(want.terms.values())).tobytes()
            and np.float64(got.constant).tobytes() == np.float64(want.constant).tobytes())


@st.composite
def wide_fermion_operators(draw):
    """Hermitian operators on 1, 31, 33, 64, 65 or 70 modes whose ops fall on a few modes (ends
    of the register and of its 64-bit words among them), so modes repeat within a term: a+ a on
    one mode, a a+ a, identity terms."""
    modes = draw(st.sampled_from([1, 31, 33, 64, 65, 70]))
    edges = [m for m in (0, 31, 32, 63, 64, modes - 1) if m < modes]
    pool = draw(st.lists(st.one_of(st.sampled_from(edges), st.integers(0, modes - 1)),
                         min_size=1, max_size=4))
    ladder = st.tuples(st.sampled_from(pool), st.booleans())
    terms = []
    for coeff, ops in draw(st.lists(st.tuples(COEFFS, st.lists(ladder, max_size=5)),
                                    min_size=1, max_size=8)):
        terms.append((coeff, tuple(ops)))
        terms.append((coeff, tuple((m, not dagger) for m, dagger in reversed(ops))))
    return FermionOperator(modes, tuple(terms))


class TestJordanWignerMatchesPerTermLoop:
    @seed(20261019)
    @settings(max_examples=300, deadline=None)
    @given(op=st.one_of(fermion_operators(), wide_fermion_operators()))
    def test_bytes_equal_per_term_loop(self, op):
        assert same_bytes(jordan_wigner(op), reference_jordan_wigner(op))

    @pytest.mark.parametrize("sites", [40, 70])
    def test_hubbard_chains_past_32_and_64_qubits(self, sites):
        # Masks are grouped word by word: 40 qubits once lost strings to a 32-bit packed key.
        op = build_fermi_hubbard(chain_lattice(sites), 1.0, 2.0)
        h = jordan_wigner(op)
        assert same_bytes(h, reference_jordan_wigner(op))
        assert len(h) == {40: 157, 70: 277}[sites]

    @pytest.mark.parametrize("budget", [1, 100, 1 << 40], ids=["term-each", "few", "one-run"])
    def test_term_chunks_change_nothing(self, monkeypatch, budget):
        hops = [(0.1 * (i + 1), i % 6, (i * 5) % 6) for i in range(40)]
        op = FermionOperator(6, tuple((c, ((i, True), (j, False))) for c, p, q in hops
                                      for i, j in ((p, q), (q, p))))
        whole = jordan_wigner(op)
        monkeypatch.setattr(encodings, "_JW_CHUNK_BYTES", budget)
        assert same_bytes(jordan_wigner(op), whole)
        assert same_bytes(whole, reference_jordan_wigner(op))

    def test_long_products_on_few_modes(self):
        # Only the distinct modes are expanded: 30 ops on one mode give 2 strings, not 2^30.
        number = ((1, True), (1, False))
        pair = ((0, True), (2, False), (2, True), (0, False))
        op = FermionOperator(3, ((1.0, number * 15), (0.5, pair * 3), (0.25, number)))
        assert same_bytes(jordan_wigner(op), reference_jordan_wigner(op))

    def test_empty_operator(self):
        h = jordan_wigner(FermionOperator(3, ()))
        assert h.n == 3 and len(h) == 0 and h.constant == 0.0
