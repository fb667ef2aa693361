"""Jordan-Wigner and Gray-code encodings against explicit matrix oracles."""

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from conftest import dense_fermion, jw_ladder, kron_all
from hampart.encodings import (
    embed_matrix,
    encode_boson_block,
    encode_boson_operator,
    gray_map,
    jordan_wigner,
    pauli_project,
)
from hampart.errors import DomainError
from hampart.operators import (
    BosonOperator,
    FermionOperator,
    boson_matrices,
    build_bose_hubbard,
    build_fermi_hubbard,
    chain_lattice,
)
from hampart.pauli import PauliString, PauliSum, multiply, string_to_dense


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
            assert np.max(np.abs(h.to_matrix("dense") - dense_fermion(op))) < 1e-10

    def test_hubbard_faithful(self):
        op = build_fermi_hubbard(chain_lattice(4), 1.0, 2.0)
        h = jordan_wigner(op)
        assert np.max(np.abs(h.to_matrix("dense") - dense_fermion(op))) < 1e-10


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
            assert np.max(np.abs(h.to_matrix("dense") - embed_matrix(m, gm))) < 1e-12

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
            assert np.max(np.abs(enc.pauli.to_matrix("dense") - oracle)) < 1e-10

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
        assert np.max(np.abs(enc.pauli.to_matrix("dense") - oracle)) < 1e-10
