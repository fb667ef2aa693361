"""Lattices, model builders, bosonic matrices, and FCIDUMP ingestion."""

import numpy as np
import pytest

from conftest import dense_fermion, h2_sto3g_integrals, random_integrals
from hampart.errors import DataError, DomainError, ParseError
from hampart.operators import (
    BosonOperator,
    FermionOperator,
    Lattice,
    boson_matrices,
    build_bose_hubbard,
    build_fermi_hubbard,
    build_vibrational,
    chain_lattice,
    cubic_lattice,
    fermion_from_integrals,
    hexagonal_lattice,
    lattice_from_json,
    lattice_to_json,
    load_fcidump,
    read_fcidump,
    square_lattice,
    tetrahedral_lattice,
    triangular_lattice,
    vibrational_from_json,
    write_fcidump,
)


class TestLattice:
    def test_chain(self):
        lat = chain_lattice(4)
        assert lat.edges == ((0, 1), (1, 2), (2, 3))
        assert lat.degree() == 2

    def test_periodic_chain(self):
        lat = chain_lattice(4, "periodic")
        assert (0, 3) in lat.edges

    def test_validation(self):
        with pytest.raises(DataError):
            Lattice("custom", 3, ((0, 0),))
        with pytest.raises(DataError):
            Lattice("custom", 3, ((0, 5),))
        with pytest.raises(DataError):
            Lattice("custom", 3, ((0, 1), (1, 0)))
        with pytest.raises(DataError):
            Lattice("weird", 3, ())

    def test_patch_degrees(self):
        assert square_lattice(3, 3).degree() == 4
        assert hexagonal_lattice(4, 4).degree() == 3
        assert triangular_lattice(3, 3).degree() == 6
        assert cubic_lattice(3, 3, 3).degree() == 6
        assert tetrahedral_lattice(2).degree() == 4

    def test_json_round_trip(self):
        lat = square_lattice(3, 2)
        again = lattice_from_json(lattice_to_json(lat))
        assert again == lat

    def test_malformed_json_raises_data_error(self):
        with pytest.raises(DataError):
            lattice_from_json("{")


class TestBosonMatrices:
    def test_d2_quadrature_is_x(self):
        m = boson_matrices(2)
        assert np.allclose(m["q"], np.array([[0, 1], [1, 0]]) / np.sqrt(2))

    def test_number_operator_diagonal(self):
        for d in (2, 3, 5, 8):
            m = boson_matrices(d)
            assert np.allclose(m["n"], np.diag(np.arange(d)))

    def test_lowering_action(self):
        b = boson_matrices(4)["b"]
        for level in range(1, 4):
            vec = np.zeros(4)
            vec[level] = 1.0
            out = b @ vec
            assert abs(out[level - 1] - np.sqrt(level)) < 1e-14

    def test_quadratures_hermitian(self):
        m = boson_matrices(5)
        for key in ("q", "p", "n"):
            assert np.allclose(m[key], m[key].conj().T)

    def test_qqpp_identity_all_d(self):
        # b+_i b_j + h.c. = q_i q_j + p_i p_j holds exactly under truncation.
        for d in range(2, 9):
            m = boson_matrices(d)
            lhs = np.kron(m["q"], m["q"]) + np.kron(m["p"], m["p"])
            rhs = np.kron(m["bdag"], m["b"]) + np.kron(m["b"], m["bdag"])
            assert np.max(np.abs(lhs - rhs)) < 1e-12

    def test_d_too_small(self):
        with pytest.raises(DomainError):
            boson_matrices(1)


class TestFermiHubbard:
    def test_two_site_hopping_only(self):
        op = build_fermi_hubbard(chain_lattice(2), t=1.0, U=0.0)
        assert len(op) == 2
        assert op.is_hermitian()
        ops_set = {ops for _, ops in op.terms}
        assert ((0, True), (1, False)) in ops_set
        assert ((1, True), (0, False)) in ops_set

    def test_two_site_interaction_only(self):
        op = build_fermi_hubbard(chain_lattice(2), t=0.0, U=2.0)
        assert len(op) == 1
        coeff, ops = op.terms[0]
        assert coeff == 1.0
        assert ops == ((0, True), (0, False), (1, True), (1, False))
        assert op.is_hermitian()

    def test_four_site_term_count(self):
        lat = chain_lattice(4)
        op = build_fermi_hubbard(lat, t=1.0, U=2.0)
        # 2 hopping terms plus 1 interaction term per edge
        assert len(op) == 2 * len(lat.edges) + len(lat.edges)
        assert op.is_hermitian()

    def test_matrix_hermitian(self):
        op = build_fermi_hubbard(chain_lattice(3), t=1.0, U=2.0)
        m = dense_fermion(op)
        assert np.max(np.abs(m - m.conj().T)) < 1e-12


class TestBoseHubbard:
    def test_onsite_vanishes_at_d2(self):
        # n(n-1) = 0 on levels {0, 1}.
        op = build_bose_hubbard(chain_lattice(2), t=0.0, U=3.7, d=2)
        mats = boson_matrices(2)
        total = np.zeros((2, 2), dtype=complex)
        for coeff, factors in op.terms:
            term = np.eye(2, dtype=complex)
            for _, sym in factors:
                term = term @ mats[sym]
            total += coeff * term
        assert np.max(np.abs(total)) < 1e-14

    def test_b3d4_shape(self):
        op = build_bose_hubbard(chain_lattice(3), t=1.0, U=2.0, d=4)
        assert op.modes == 3 and op.d == 4
        assert op.is_hermitian()

    def test_hopping_matches_quadrature_oracle(self):
        d = 4
        op = build_bose_hubbard(chain_lattice(2), t=1.0, U=0.0, d=d)
        mats = boson_matrices(d)
        total = np.zeros((d * d, d * d), dtype=complex)
        for coeff, factors in op.terms:
            blocks = {m: np.eye(d, dtype=complex) for m in range(2)}
            for m, sym in factors:
                blocks[m] = blocks[m] @ mats[sym]
            total += coeff * np.kron(blocks[0], blocks[1])
        oracle = -(np.kron(mats["q"], mats["q"]) + np.kron(mats["p"], mats["p"]))
        assert np.max(np.abs(total - oracle)) < 1e-12


class TestVibrational:
    def test_harmonic_diagonal_levels(self):
        d = 5
        op = build_vibrational([1.0], None, d)
        mats = boson_matrices(d)
        total = np.zeros((d, d), dtype=complex)
        for coeff, factors in op.terms:
            term = np.eye(d, dtype=complex)
            for _, sym in factors:
                term = term @ mats[sym]
            total += coeff * term
        diag = np.real(np.diag(total))
        # Truncation distorts only the top level.
        for level in range(d - 1):
            assert abs(diag[level] - (level + 0.5)) < 1e-12
        assert abs(diag[d - 1] - (d - 1 + 0.5)) > 1e-3

    def test_single_cubic_coupling(self):
        op = build_vibrational([0.0, 0.0], {(0, 0, 1): 0.5}, 3)
        assert len(op) == 1
        coeff, factors = op.terms[0]
        assert coeff == 0.5
        assert factors == ((0, "q"), (0, "q"), (1, "q"))

    def test_zero_couplings_gives_harmonic_terms_only(self):
        op = build_vibrational([1.0, 2.0], {}, 4)
        symbols = {sym for _, factors in op.terms for _, sym in factors}
        assert symbols == {"q", "p"}
        assert len(op) == 4

    def test_coupling_index_out_of_range(self):
        with pytest.raises(DataError):
            build_vibrational([1.0], {(0, 3): 0.1}, 4)

    def test_from_json(self):
        op = vibrational_from_json(
            {"omega": [1.0, 1.2], "couplings": {"0,0,1": 0.1}, "d": 4}
        )
        assert op.modes == 2 and op.d == 4
        assert op.is_hermitian()

    @pytest.mark.parametrize("text", [
        "{", '{"d": 4}', '{"omega": [1.0]}', '{"omega": [1.0], "d": "x"}',
    ], ids=["not-json", "no-omega", "no-d", "d-mistyped"])
    def test_malformed_json_raises_data_error(self, text):
        with pytest.raises(DataError):
            vibrational_from_json(text)


class TestHermiticityChecks:
    def test_non_hermitian_fermion_detected(self):
        op = FermionOperator(2, ((1.0, ((0, True), (1, False))),))
        assert not op.is_hermitian()

    def test_density_density_is_hermitian(self):
        op = FermionOperator(2, ((1.0, ((0, True), (0, False), (1, True), (1, False))),))
        assert op.is_hermitian()

    def test_boson_hopping_pairing(self):
        op = BosonOperator(2, 3, ((1.0, ((0, "bdag"), (1, "b"))),))
        assert not op.is_hermitian()
        full = BosonOperator(
            2, 3, ((1.0, ((0, "bdag"), (1, "b"))), (1.0, ((1, "bdag"), (0, "b"))))
        )
        assert full.is_hermitian()

    @pytest.mark.parametrize("coeff", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_coefficient_rejected(self, coeff):
        with pytest.raises(DataError):
            FermionOperator(2, ((coeff, ((0, True), (1, False))),))
        with pytest.raises(DataError):
            BosonOperator(2, 3, ((coeff, ((0, "bdag"), (1, "b"))),))

    def test_fcidump_round_trip_is_hermitian(self, tmp_path):
        # Why `build electronic` needs no is_hermitian call: reading stores every integral
        # with each of its symmetric partners, so any written set loads Hermitian.
        rng = np.random.default_rng(20261018)
        for trial in range(25):
            norb = int(rng.integers(1, 5))
            ints = random_integrals(norb, rng)
            for _ in range(3):  # entries without their partners are written as one record
                ints.h[tuple(rng.integers(0, norb, 2))] = float(rng.normal())
                ints.g[tuple(rng.integers(0, norb, 4))] = float(rng.normal())
            ints.core = float(rng.normal())
            path = tmp_path / f"random{trial}.fcidump"
            write_fcidump(path, ints)
            assert load_fcidump(path).is_hermitian()


class TestFcidump:
    def test_one_body_only(self, tmp_path):
        path = tmp_path / "one.fcidump"
        path.write_text(
            " &FCI NORB=1,NELEC=2,MS2=0,\n  ORBSYM=1,\n  ISYM=1,\n &END\n"
            " -0.5 1 1 0 0\n"
        )
        op = load_fcidump(path)
        assert op.modes == 2
        # One number-operator pair per spin.
        assert len(op) == 2
        assert {ops for _, ops in op.terms} == {
            ((0, True), (0, False)),
            ((1, True), (1, False)),
        }

    def test_empty_body_constant_only(self, tmp_path):
        path = tmp_path / "core.fcidump"
        path.write_text(" &FCI NORB=2,NELEC=2,MS2=0,\n &END\n 1.25 0 0 0 0\n")
        op = load_fcidump(path)
        assert op.terms == ((1.25, ()),)

    def test_h2_fixture_self_consistent(self, h2_fcidump):
        op = load_fcidump(h2_fcidump)
        assert op.modes == 4
        assert op.is_hermitian()
        from hampart.encodings import jordan_wigner

        h = jordan_wigner(op)
        dense = h.to_matrix()
        oracle = dense_fermion(op)
        assert np.max(np.abs(dense - oracle)) < 1e-10
        ground = float(np.linalg.eigvalsh(dense)[0])
        # Frozen from the dense oracle; agrees with the known FCI energy of
        # H2/STO-3G at 0.7414 Angstrom to ~1e-5.
        assert abs(ground - -1.1372704269677931) < 1e-9

    def test_round_trip_exact(self, tmp_path):
        ints = h2_sto3g_integrals()
        path = tmp_path / "rt.fcidump"
        write_fcidump(path, ints, nelec=2)
        again = read_fcidump(path)
        assert again.norb == ints.norb
        assert again.core == ints.core
        assert again.h == ints.h
        assert again.g == ints.g
        op1 = fermion_from_integrals(ints)
        op2 = fermion_from_integrals(again)
        assert sorted(op1.terms) == sorted(op2.terms)

    def test_header_errors(self, tmp_path):
        path = tmp_path / "bad.fcidump"
        path.write_text("no header here\n")
        with pytest.raises(ParseError):
            read_fcidump(path)
        path.write_text(" &FCI NELEC=2,\n &END\n")
        with pytest.raises(ParseError):
            read_fcidump(path)

    def test_body_errors_carry_line_numbers(self, tmp_path):
        path = tmp_path / "bad2.fcidump"
        path.write_text(" &FCI NORB=2,\n &END\n 0.5 1 2\n")
        with pytest.raises(ParseError) as err:
            read_fcidump(path)
        assert "line 3" in str(err.value)

    def test_index_out_of_range(self, tmp_path):
        path = tmp_path / "bad3.fcidump"
        path.write_text(" &FCI NORB=2,\n &END\n 0.5 1 9 0 0\n")
        with pytest.raises(DataError):
            read_fcidump(path)

    def test_orbital_energy_lines_skipped(self, tmp_path):
        path = tmp_path / "orbe.fcidump"
        path.write_text(
            " &FCI NORB=1,\n &END\n -0.5 1 1 0 0\n -0.9 1 0 0 0\n 0.25 0 0 0 0\n"
        )
        op = load_fcidump(path)
        assert len(op) == 3  # constant + two spin copies of h11


def reference_fermion_from_integrals(ints) -> FermionOperator:
    """The per-integral loop fermion_from_integrals replaced: tuple terms, in the same order."""
    terms = []
    if ints.core != 0.0:
        terms.append((ints.core, ()))
    for (i, j), val in ints.h.items():
        if val == 0.0:
            continue
        for s in (0, 1):
            terms.append((val, ((2 * i + s, True), (2 * j + s, False))))
    for (i, j, k, l), val in ints.g.items():
        if val == 0.0:
            continue
        for s in (0, 1):
            for t in (0, 1):
                p, q = 2 * i + s, 2 * k + t
                r, w = 2 * l + t, 2 * j + s
                if p == q or r == w:
                    continue
                terms.append((0.5 * val, ((p, True), (q, True), (r, False), (w, False))))
    return FermionOperator(2 * ints.norb, tuple(terms))


def seeded_fcidump_body(norb: int, seed: int) -> list[str]:
    """FCIDUMP records of random integrals: two-body and one-body records, some of them zero,
    some written again under a symmetric index order with another value (the last one read
    wins, at the first key's place), orbital-energy records and core records."""
    rng = np.random.default_rng(seed)
    records = []
    for _ in range(int(rng.integers(5, 40))):
        i, j, k, l = (int(a) for a in rng.integers(1, norb + 1, 4))
        kind = rng.integers(6)
        value = 0.0 if kind == 0 else float(rng.normal(0.0, 0.2))
        if kind < 3:
            records.append((value, i, j, k, l))
        elif kind == 3:
            records.append((value, i, j, 0, 0))
        elif kind == 4:
            records.append((value, i, 0, 0, 0))  # orbital energy
        else:
            records.append((value, 0, 0, 0, 0))
        if records and rng.random() < 0.3:  # an earlier record again, symmetric, new value
            v, a, b, c, d = records[int(rng.integers(len(records)))]
            again = (b, a, d, c) if c else (b, a, 0, 0) if b else (a, 0, 0, 0)
            if c and rng.random() < 0.5:
                again = (c, d, a, b)
            records.append((float(rng.normal()), *again))
    return [f" {v!r} {a} {b} {c} {d}" for v, a, b, c, d in records]


class TestFermionFromIntegralsMatchesPerIntegralLoop:
    @pytest.mark.parametrize("norb, seed", [(1, 0), (2, 1), (3, 2), (4, 3), (5, 4), (6, 5)])
    def test_terms_and_jordan_wigner_bytes(self, tmp_path, norb, seed):
        from hampart.encodings import jordan_wigner
        from hampart.partitioners import permute_modes, reorder_indices
        from hampart.pauli import format_pauli_text

        body = seeded_fcidump_body(norb, seed) if seed else [" 0.75 0 0 0 0"]  # core only
        path = tmp_path / "seeded.fcidump"
        path.write_text(f" &FCI NORB={norb},\n &END\n" + "\n".join(body) + "\n")
        ints = read_fcidump(path)
        op, ref = fermion_from_integrals(ints), reference_fermion_from_integrals(ints)
        assert op.modes == ref.modes and op.terms == ref.terms
        assert format_pauli_text(jordan_wigner(op)) == format_pauli_text(jordan_wigner(ref))
        perm, _ = reorder_indices(op, seed, 50)
        moved = permute_modes(op, perm)
        want = FermionOperator(ref.modes, tuple(
            (c, tuple((perm[m], d) for m, d in ops)) for c, ops in ref.terms))
        assert moved.terms == want.terms
        assert format_pauli_text(jordan_wigner(moved)) == format_pauli_text(jordan_wigner(want))

    def test_records_cover_the_cases(self):
        lines = [seeded_fcidump_body(4, seed) for seed in range(1, 6)]
        fields = [tuple(line.split()) for body in lines for line in body]
        assert any(float(v) == 0.0 for v, *_ in fields)
        assert any(idx[1:] == ["0", "0", "0"] and idx[0] != "0" for _, *idx in fields)
        assert any(idx == ["0", "0", "0", "0"] for _, *idx in fields)
        keys = [frozenset([tuple(idx), (idx[1], idx[0], idx[3], idx[2])]) for _, *idx in fields]
        assert len(set(keys)) < len(keys)  # a symmetric record read again


class TestOperatorsRefuseNonIntegerModes:
    @pytest.mark.parametrize("mode", [1.7, 2.0, True, np.float64(1.0), "1", None],
                             ids=["float", "integral-float", "bool", "numpy-float", "str", "none"])
    def test_fermion_and_boson_modes(self, mode):
        with pytest.raises(DataError, match="is not an integer"):
            FermionOperator(4, ((1.0, ((mode, True), (2, False))),))
        with pytest.raises(DataError, match="is not an integer"):
            BosonOperator(4, 3, ((1.0, ((mode, "n"),)),))

    @pytest.mark.parametrize("dagger", [0, 1, "yes", None, np.int64(1)],
                             ids=["zero", "one", "str", "none", "numpy-int"])
    def test_fermion_daggers(self, dagger):
        with pytest.raises(DataError, match="is not a bool"):
            FermionOperator(4, ((1.0, ((1, dagger), (2, False))),))

    def test_numpy_integers_and_bools_are_taken(self):
        op = FermionOperator(4, ((1.0, ((np.int64(1), np.True_), (np.int32(2), False))),))
        assert op.terms == ((1.0, ((1, True), (2, False))),)
        assert type(op.terms[0][1][0][0]) is int and type(op.terms[0][1][0][1]) is bool
        boson = BosonOperator(4, 3, ((1.0, ((np.int64(3), "n"),)),))
        assert boson.terms == ((1.0, ((3, "n"),)),)


class TestBosonicNumbers:
    """A truncation d is an integer (a bool, a float or a string is not), and the Bose-Hubbard
    t and U are finite numbers, a bool not among them: DataError, never a silent conversion."""

    @pytest.mark.parametrize("d", [4.5, 4.0, float("inf"), True, "4", None, np.float64(4.0)],
                             ids=["fraction", "integral-float", "inf", "bool", "str", "none",
                                  "numpy-float"])
    def test_truncation_must_be_an_integer(self, d):
        with pytest.raises(DataError, match="truncation d must be an integer"):
            BosonOperator(2, d)
        with pytest.raises(DataError, match="truncation d must be an integer"):
            vibrational_from_json({"omega": [1.0], "d": d})

    def test_integer_truncations_are_taken(self):
        assert BosonOperator(2, np.int64(3)).d == 3
        assert vibrational_from_json({"omega": [1.0], "d": 3}).d == 3
        with pytest.raises(DomainError):
            BosonOperator(2, 1)

    @pytest.mark.parametrize("name", ["t", "U"])
    @pytest.mark.parametrize("value", [True, False, float("nan"), float("inf"), "1", None, 1j],
                             ids=["true", "false", "nan", "inf", "str", "none", "complex"])
    def test_bose_hubbard_numbers(self, name, value):
        with pytest.raises(DataError, match=f"{name} must be a finite number"):
            build_bose_hubbard(chain_lattice(2), d=3, **{"t": 1.0, "U": 2.0, name: value})
        ints = build_bose_hubbard(chain_lattice(2), d=3, **{"t": 1, "U": 2, name: np.int64(1)})
        assert ints.terms == build_bose_hubbard(chain_lattice(2), d=3,
                                                **{"t": 1.0, "U": 2.0, name: 1.0}).terms
