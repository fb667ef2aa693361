"""Partition certification and fragment diagonalization."""

import itertools
import json
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from conftest import (
    benchmark_fcidump,
    block_built,
    letter_term,
    pauli_sums,
    random_hermitian,
    random_integrals,
    string_built_partitions,
)
from hampart import fragments, pauli
from hampart.encodings import encode_boson_operator, jordan_wigner
from hampart.errors import ConstraintError, ResourceError
from hampart.fragments import (
    EXPANSION_CAP,
    Fragment,
    Partition,
    TensorFactor,
    TensorProductTerm,
    apply_fragment,
    fragment_matrix,
    partition_from_json,
    partition_matrix,
    partition_to_json,
    term_matrix,
)
from hampart.operators import (
    build_bose_hubbard,
    build_fermi_hubbard,
    chain_lattice,
    fermion_from_integrals,
    load_fcidump,
)
from hampart.partitioners import (
    blocking_partition,
    color_partition_bose_hubbard,
    color_partition_fermi_hubbard_1d,
    greedy_partition,
    qpn_partition,
    sorted_insertion,
)
from hampart.pauli import PauliString, PauliSum
from hampart.validators import (
    _DIAG_TOL,
    _EPS,
    _GATE_OPS,
    _LETTER_BASES,
    FragmentDiagonalization,
    _clifford_circuit,
    _restrict_term,
    _sorted_block,
    check_commutation,
    check_locality,
    check_reconstruction,
    check_tensor_wise,
    diagonalize_fragment,
    validate_partition,
)
from hampart.variance import random_state

X = np.array([[0, 1], [1, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)


def two_basis_reference_partition():
    A = np.array(
        [[1, 0, 1, 0], [0, 1, 0, 1], [1, 0, 1, 0], [0, 1, 0, 1]], dtype=complex
    )
    B = np.array([[0, 1], [1, 1]], dtype=complex)
    C = np.array([[0, 1], [1, 2]], dtype=complex)
    T = np.array(
        [[2, 1, 0, 0], [1, 2, 1, 0], [0, 1, 2, 1], [0, 0, 1, 2]], dtype=complex
    )
    # The 4x4 blocks are little-endian within the qubit pair, so the
    # second listed qubit carries the most significant block bit.
    w11 = TensorProductTerm(
        [TensorFactor((1, 0), A), TensorFactor((2,), B), TensorFactor((3,), C)]
    )
    w12 = TensorProductTerm(
        [TensorFactor((1, 0), A), TensorFactor((2,), B), TensorFactor((3,), np.eye(2))]
    )
    w21 = TensorProductTerm(
        [TensorFactor((1, 0), T), TensorFactor((2,), X), TensorFactor((3,), np.eye(2))]
    )
    return Partition(
        4,
        (Fragment((w11, w12), "M1"), Fragment((w21,), "M2")),
        constant=0.0,
        source="two-basis-example",
    )


def _with_factor(part, where, block):
    """`part` with the factor at (fragment, term, factor) indices `where` replaced."""
    fi, ti, j = where
    frag = part.fragments[fi]
    factors = list(frag.terms[ti].factors)
    factors[j] = TensorFactor(factors[j].qubits, block)
    terms = list(frag.terms)
    terms[ti] = TensorProductTerm(factors)
    frags = list(part.fragments)
    frags[fi] = Fragment(tuple(terms), frag.label)
    return Partition(part.n, tuple(frags), part.constant, part.source)


class TestReconstruction:
    def test_reference_decomposition_exact(self, illustrative_hamiltonian):
        part = two_basis_reference_partition()
        assert check_reconstruction(part, illustrative_hamiltonian) < 1e-12

    def test_dropping_a_term_breaks_reconstruction(self, illustrative_hamiltonian):
        part = two_basis_reference_partition()
        m1, m2 = part.fragments
        broken = Partition(4, (Fragment((m1.terms[0],), "M1"), m2), source="broken")
        assert check_reconstruction(broken, illustrative_hamiltonian) >= 1.0

    def test_partitioner_outputs_reconstruct(self, illustrative_hamiltonian):
        h = illustrative_hamiltonian
        for part in (
            sorted_insertion(h, "full"),
            greedy_partition(h, 2),
            blocking_partition(h, 2),
        ):
            assert check_reconstruction(part, h) < 1e-10

    def test_sparse_path_for_large_n(self):
        for n in (13, 20):  # above the dense cap; 20 is above the sparse cap too
            s = PauliString.from_ops([(0, "Z"), (n - 1, "Z")], n)
            h = PauliSum(n, [(1.0, s)])
            part = Partition(
                n, (Fragment((letter_term(1.0, s),), "z"),), source="manual"
            )
            assert check_reconstruction(part, h) < 1e-14

    def test_twenty_qubit_bose_hubbard_partition(self):
        lat = chain_lattice(10)
        op = build_bose_hubbard(lat, 1.0, 2.0, 4)
        h = encode_boson_operator(op).pauli
        assert h.n == 20
        assert check_reconstruction(qpn_partition(op, lat), h) < 1e-12

    def test_oversized_term_expansion_raises_before_building(self):
        count = (EXPANSION_CAP.bit_length() - 1) // 2 + 1  # 4^count strings > cap
        block = np.array([[1.0, 1 - 1j], [1 + 1j, 2.0]])  # I, X, Y and Z all present
        term = TensorProductTerm([TensorFactor((q,), block) for q in range(count)])
        part = Partition(count, (Fragment((term,), "wide"),), source="manual")
        tracemalloc.start()
        try:
            with pytest.raises(ResourceError):
                check_reconstruction(part, PauliSum(count))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20  # the expansion itself would take hundreds of MiB

    @settings(max_examples=100, deadline=None)
    @given(h=pauli_sums(), k=st.integers(1, 3), seed=st.integers(0, 2**32 - 1))
    def test_partitions_of_random_sums(self, h, k, seed):
        # Every partitioner reconstructs, and with one factor block perturbed
        # the error is at least the dense max-entry deviation.
        rng = np.random.default_rng(seed)
        k = min(k, h.n)
        for part in (
            sorted_insertion(h, "full"),
            sorted_insertion(h, "qubitwise"),
            greedy_partition(h, k),
            blocking_partition(h, k),
        ):
            assert check_reconstruction(part, h) < 1e-10, part.source
            places = [
                (fi, ti, j)
                for fi, frag in enumerate(part.fragments)
                for ti, term in enumerate(frag.terms)
                for j in range(len(term.factors))
            ]
            if not places:
                continue
            where = places[rng.integers(len(places))]
            f = part.fragments[where[0]].terms[where[1]].factors[where[2]]
            noise = 10.0 ** rng.uniform(-6, 0) * random_hermitian(1 << f.size, rng)
            broken = _with_factor(part, where, f.block + noise)
            dense = np.max(np.abs(partition_matrix(broken) - h.to_matrix()))
            assert check_reconstruction(broken, h) >= dense - 1e-15, part.source


class TestLocality:
    def test_reference_example(self):
        part = two_basis_reference_partition()
        assert check_locality(part, 2)
        assert not check_locality(part, 1)

    def test_all_single_qubit(self, illustrative_hamiltonian):
        part = sorted_insertion(illustrative_hamiltonian, "full")
        assert check_locality(part, 1)


class TestCommutation:
    def test_reference_fragment_commutes(self):
        part = two_basis_reference_partition()
        assert check_commutation(part) < 1e-12

    def test_anticommuting_pair(self):
        frag = Fragment(
            (
                TensorProductTerm([TensorFactor((0,), X)]),
                TensorProductTerm([TensorFactor((0,), Z)]),
            ),
            "xz",
        )
        part = Partition(1, (frag,), source="bad")
        assert abs(check_commutation(part) - 2.0) < 1e-12

    def test_partitioner_outputs_commute(self, illustrative_hamiltonian):
        h = illustrative_hamiltonian
        for part in (
            sorted_insertion(h, "full"),
            sorted_insertion(h, "qubitwise"),
            greedy_partition(h, 2),
            blocking_partition(h, 2),
        ):
            assert check_commutation(part) < 1e-10


class TestTensorWise:
    def test_fc_group_may_not_be_tensor_wise(self):
        h = PauliSum(
            2,
            [
                (1.0, PauliString.from_letters("XX")),
                (1.0, PauliString.from_letters("YY")),
            ],
        )
        part = sorted_insertion(h, "full")
        assert len(part.fragments) == 1
        assert not check_tensor_wise(part.fragments[0])

    def test_qwc_groups_are_tensor_wise(self, illustrative_hamiltonian):
        part = sorted_insertion(illustrative_hamiltonian, "qubitwise")
        assert all(check_tensor_wise(f) for f in part.fragments)

    def test_partial_overlap_flagged(self):
        rng = np.random.default_rng(3)
        frag = Fragment(
            (
                TensorProductTerm([TensorFactor((0, 1), random_hermitian(4, rng))]),
                TensorProductTerm([TensorFactor((1, 2), random_hermitian(4, rng))]),
            ),
            "overlap",
        )
        assert not check_tensor_wise(frag)

    def test_sorted_block_is_term_matrix_reindexing(self):
        # Bit for bit the dense re-indexing it replaced: the factor restricted to its sorted
        # qubits, realized through term_matrix.
        rng = np.random.default_rng(11)
        for m in (1, 2, 3):
            for _ in range(3):
                block = random_hermitian(1 << m, rng)
                for qubits in itertools.permutations((5, 0, 3)[:m]):
                    f = TensorFactor(qubits, block)
                    dense = term_matrix(
                        _restrict_term(TensorProductTerm((f,)), tuple(sorted(qubits))), m)
                    ours = _sorted_block(f.qubits, f.block)
                    assert ours.dtype == dense.dtype and ours.shape == dense.shape
                    assert ours.tobytes() == dense.tobytes(), qubits


class TestDiagonalization:
    def test_already_diagonal_identity_unitary(self):
        frag = Fragment(
            (TensorProductTerm([TensorFactor((0,), np.diag([1.0, 2.0]))]),), "diag"
        )
        result = diagonalize_fragment(frag, 1)
        assert result.residual < 1e-14
        ((_, u),) = result.ops
        assert np.allclose(u, np.eye(2))
        assert np.allclose(result.diagonal, [1.0, 2.0])

    def test_single_x_factor(self):
        frag = Fragment((TensorProductTerm([TensorFactor((0,), X)]),), "x")
        result = diagonalize_fragment(frag, 1)
        assert result.residual < 1e-12
        assert sorted(np.round(result.diagonal, 12)) == [-1.0, 1.0]

    def test_tridiagonal_block(self):
        T = np.array(
            [[2, 1, 0, 0], [1, 2, 1, 0], [0, 1, 2, 1], [0, 0, 1, 2]], dtype=complex
        )
        frag = Fragment((TensorProductTerm([TensorFactor((0, 1), T)]),), "tri")
        result = diagonalize_fragment(frag, 2)
        assert result.residual < 1e-10
        assert np.allclose(sorted(result.diagonal), sorted(np.linalg.eigvalsh(T)))

    def test_stacked_commuting_blocks_shared_support(self):
        rng = np.random.default_rng(5)
        base = random_hermitian(4, rng)
        frag = Fragment(
            (
                TensorProductTerm([TensorFactor((0, 1), base)]),
                TensorProductTerm([TensorFactor((0, 1), base @ base)]),
            ),
            "stack",
        )
        result = diagonalize_fragment(frag, 2)
        assert result.tensor_wise
        assert result.residual < 1e-9

    def test_non_tensor_wise_gets_clifford_basis(self):
        h = PauliSum(
            2,
            [
                (1.0, PauliString.from_letters("XX")),
                (1.0, PauliString.from_letters("YY")),
            ],
        )
        frag = sorted_insertion(h, "full").fragments[0]
        result = diagonalize_fragment(frag, 2)
        assert result.kind == "clifford"
        assert not result.tensor_wise
        assert result.residual < 1e-10

    def test_expectation_identity_hundred_states(self, illustrative_hamiltonian):
        part = greedy_partition(illustrative_hamiltonian, 2)
        for frag in part.fragments:
            result = diagonalize_fragment(frag, 4)
            for seed in range(100):
                psi = random_state(4, 1000 + seed)
                direct = np.vdot(
                    psi.amplitudes, apply_fragment(frag, psi.amplitudes, 4)
                ).real
                assert abs(result.expectation(psi) - direct) < 1e-9

    def test_empty_fragment(self):
        result = diagonalize_fragment(Fragment((), "empty"), 3)
        assert result.residual == 0.0
        assert np.all(result.diagonal == 0.0)

    def test_method_fragments_diagonalize(self, illustrative_hamiltonian):
        lat = chain_lattice(3)
        b = build_bose_hubbard(lat, 1.0, 2.0, 4)
        f = build_fermi_hubbard(chain_lattice(4), 1.0, 2.0)
        partitions = [
            qpn_partition(b, lat),
            color_partition_bose_hubbard(b, lat),
            color_partition_fermi_hubbard_1d(jordan_wigner(f), 4),
        ]
        for part in partitions:
            for frag in part.fragments:
                result = diagonalize_fragment(frag, part.n)
                assert result.residual < 1e-9, (part.source, frag.label)
        dense_checked = [
            sorted_insertion(illustrative_hamiltonian, "full"),
            greedy_partition(illustrative_hamiltonian, 2),
            sorted_insertion(jordan_wigner(f), "full"),  # whole-support bases
            sorted_insertion(illustrative_hamiltonian, "qubitwise"),  # one Clifford per qubit
            sorted_insertion(jordan_wigner(f), "qubitwise"),
        ]
        for part in dense_checked:
            n = part.n
            for frag in part.fragments:
                result = diagonalize_fragment(frag, n)
                # Dense oracle: U^dag M U column by column through `rotate`;
                # the columns of M U are the conjugated rows of U^dag M.
                m = fragment_matrix(frag, n)
                u_dag_m = np.column_stack([result.rotate(c, n) for c in m.T])
                rotated = np.column_stack([result.rotate(c, n) for c in u_dag_m.conj()])
                dense = np.max(np.abs(rotated - np.diag(result.diagonal)))
                assert result.residual >= dense - 1e-15, (part.source, frag.label)
                assert result.residual < 1e-9, (part.source, frag.label)

    @seed(20261018)
    @settings(max_examples=60, deadline=None)
    @given(h=pauli_sums(max_qubits=8), state_seed=st.integers(0, 2**32 - 1))
    def test_clifford_bases_of_random_commuting_groups(self, h, state_seed):
        n = h.n

        def rotated(result, m):  # U^dag m U for Hermitian m, all columns at once
            return result.rotate(result.rotate(m, n).conj().T, n)

        for frag in sorted_insertion(h, "full").fragments:
            result = diagonalize_fragment(frag, n)
            assert result.kind in ("tensor-wise", "clifford")
            for term in frag.terms:  # each conjugated string is Z-type (x = 0)
                one = rotated(result, fragment_matrix(Fragment((term,)), n))
                assert np.max(np.abs(one - np.diag(np.diag(one)))) < 1e-12
            m = fragment_matrix(frag, n)
            dense = np.max(np.abs(rotated(result, m) - np.diag(result.diagonal)))
            assert dense <= result.residual + 1e-15
            assert result.residual < 1e-9
            for i in range(3):
                psi = random_state(n, state_seed + i)
                direct = np.vdot(psi.amplitudes, m @ psi.amplitudes).real
                assert abs(result.expectation(psi) - direct) < 1e-9

    def test_sixteen_qubit_bose_hubbard_fc_si(self):
        h = encode_boson_operator(build_bose_hubbard(chain_lattice(8), 1.0, 2.0, 4)).pauli
        assert h.n == 16
        report = validate_partition(sorted_insertion(h, "full"), h)
        assert report.ok
        assert report.to_dict()["basis_summary"]["kinds"].get("clifford", 0) > 0


def _letter_fragment(strings) -> Fragment:
    return Fragment(tuple(letter_term(c, PauliString.from_letters(s)) for c, s in strings))


class TestLetterFragments:
    """Fragments whose factors are all one-qubit Pauli letters are decided on their masks."""

    @pytest.fixture
    def eigh_calls(self, monkeypatch):
        """Counter of np.linalg.eigh calls under key "eigh"."""
        calls = Counter()
        real = np.linalg.eigh

        def counted(*args, **kwargs):
            calls["eigh"] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counted)
        return calls

    def test_si_partitions_need_no_eigh(self, eigh_calls):
        h = jordan_wigner(fermion_from_integrals(random_integrals(3, np.random.default_rng(7))))
        reports = {kind: validate_partition(sorted_insertion(h, kind), h)
                   for kind in ("full", "qubitwise")}
        assert eigh_calls["eigh"] == 0
        assert all(r.ok for r in reports.values())
        # Kinds pinned from the code that tried per-qubit eigh families first.
        assert [b["kind"] for b in reports["full"].bases] == ["tensor-wise"] + ["clifford"] * 12
        assert [(b["kind"], b["largest_block"], b["two_qubit_gates"])
                for b in reports["qubitwise"].bases] == [("tensor-wise", 1, 0)] * 37
        validate_partition(greedy_partition(h, 2), h)  # multi-qubit blocks still use eigh
        assert eigh_calls["eigh"] > 0

    def test_near_tolerance_clash_keeps_kind(self, eigh_calls):
        # Z on both qubits at 1e-11 clashes with X, but the per-qubit basis of X certifies it.
        result = diagonalize_fragment(_letter_fragment([(1.0, "XX"), (1e-11, "ZZ")]), 2)
        assert result.kind == "tensor-wise"
        assert 1e-11 <= result.residual < 1e-9
        assert eigh_calls["eigh"] == 0

    @pytest.mark.parametrize("strings", [
        [(1.0, "X"), (1.5e-9, "Z")],
        [(1.0, "XI"), (0.5, "IX"), (1.5e-9, "ZZ")],
    ], ids=["X0+Z0", "XI+IX+ZZ"])
    def test_clash_over_tolerance_records_none(self, eigh_calls, strings):
        # The per-qubit basis of the large letters leaves 1.5e-9 off the diagonal, and the
        # strings anticommute, so no basis certifies the fragment.
        n = len(strings[0][1])
        h = PauliSum(n, [(c, PauliString.from_letters(s)) for c, s in strings])
        report = validate_partition(Partition(n, (_letter_fragment(strings),)), h)
        assert [b["kind"] for b in report.bases] == ["none"]
        assert not report.ok
        assert eigh_calls["eigh"] == 0
        with pytest.raises(ConstraintError):
            diagonalize_fragment(_letter_fragment(strings), n)


class TestValidatePartition:
    def test_full_report_on_reference_example(self, illustrative_hamiltonian):
        report = validate_partition(
            two_basis_reference_partition(), illustrative_hamiltonian, k=2
        )
        assert report.ok
        assert report.tensor_wise
        assert report.reconstruction_error < 1e-12
        assert report.locality_worst == 2

    def test_fc_si_report_flags_non_tensor_wise_but_validates(self):
        f = build_fermi_hubbard(chain_lattice(4), 1.0, 2.0)
        h = jordan_wigner(f)
        part = sorted_insertion(h, "full")
        report = validate_partition(part, h, k=1)
        assert report.ok
        assert not report.tensor_wise

    def test_invariant_under_fragment_permutation(self, illustrative_hamiltonian):
        part = two_basis_reference_partition()
        flipped = Partition(
            4, tuple(reversed(part.fragments)), part.constant, "flipped"
        )
        r1 = validate_partition(part, illustrative_hamiltonian, k=2)
        r2 = validate_partition(flipped, illustrative_hamiltonian, k=2)
        assert r1.ok == r2.ok
        assert abs(r1.reconstruction_error - r2.reconstruction_error) < 1e-15

    def test_invariant_under_term_permutation(self, illustrative_hamiltonian):
        part = two_basis_reference_partition()
        m1, m2 = part.fragments
        shuffled = Partition(
            4,
            (Fragment(tuple(reversed(m1.terms)), m1.label), m2),
            part.constant,
            "shuffled",
        )
        report = validate_partition(shuffled, illustrative_hamiltonian, k=2)
        assert report.ok

    def test_one_projection_per_factor(self, monkeypatch):
        # check_reconstruction and the Clifford bases share each factor's projection.
        h = jordan_wigner(build_fermi_hubbard(chain_lattice(4), 1.0, 2.0))
        loaded = partition_from_json(json.dumps(partition_to_json(sorted_insertion(h, "full"))))
        calls = Counter()

        def counted(module, name):
            real = getattr(module, name)

            def wrapper(*args):
                calls[name] += 1
                return real(*args)
            monkeypatch.setattr(module, name, wrapper)

        counted(fragments, "pauli_masks")
        counted(pauli, "pauli_project")
        report = validate_partition(loaded, h)
        factors = {id(f) for frag in loaded.fragments for t in frag.terms for f in t.factors}
        assert report.ok and "clifford" in {b["kind"] for b in report.bases}
        assert 0 < calls["pauli_masks"] <= len(factors)
        assert calls["pauli_project"] == 0  # pauli_masks builds no PauliString

    def test_suite_methods_validate(self):
        lat = chain_lattice(3)
        b = build_bose_hubbard(lat, 1.0, 2.0, 4)
        hb = encode_boson_operator(b).pauli
        for part in (
            qpn_partition(b, lat),
            color_partition_bose_hubbard(b, lat),
            sorted_insertion(hb, "qubitwise"),
            greedy_partition(hb, 2),
            blocking_partition(hb, 2),
        ):
            report = validate_partition(part, hb)
            assert report.ok, part.source


def dense_residual(result: FragmentDiagonalization, m: np.ndarray, n: int) -> float:
    """max|U^dag M U - diag(D)| through `rotate`, all columns at once (M Hermitian)."""
    return float(np.max(np.abs(result.rotate(result.rotate(m, n).conj().T, n)
                               - np.diag(result.diagonal))))


def assert_set_path_matches_term_path(p: Partition, h: PauliSum, dense: bool = True):
    """A string-built partition certified from its sets reports what the same partition rebuilt
    from its terms reports: ok, every kind, block and gate count, locality and reconstruction.
    Each residual certifies its own basis, at most 1e-9 and at least the dense deviation."""
    rebuilt = block_built(p)
    got, want = validate_partition(p, h), validate_partition(rebuilt, h)
    fields = ("ok", "reconstruction_error", "locality_ok", "locality_worst", "locality_bound",
              "tensor_wise")
    assert [getattr(got, f) for f in fields] == [getattr(want, f) for f in fields], p.source
    keys = ("kind", "largest_block", "two_qubit_gates")
    for a, b in zip(got.bases, want.bases):
        assert [a[key] for key in keys] == [b[key] for key in keys], p.source
        assert a["residual"] <= 1e-9 and b["residual"] <= 1e-9, p.source
    if not dense:
        return
    for frag, term_frag in zip(p.fragments, rebuilt.fragments):
        m = fragment_matrix(term_frag, p.n)
        for one in (frag, term_frag):
            result = diagonalize_fragment(one, p.n)
            assert result.residual >= dense_residual(result, m, p.n) - 1e-15, (p.source, frag.label)


class TestSetPathMatchesTermPath:
    """String-built fragments are certified from their sets and strings; block-built ones from
    their terms. Both read the same blocks, so the two must agree on every partition."""

    @seed(20261020)
    @settings(max_examples=40, deadline=None)
    @given(h=pauli_sums(max_qubits=8))
    def test_random_sums(self, h):
        for p in string_built_partitions(h):
            assert_set_path_matches_term_path(p, h)

    def test_benchmark_electronic_instance(self, tmp_path):
        benchmark_fcidump(tmp_path / "el4.fcidump", 4, 3)
        h = jordan_wigner(load_fcidump(tmp_path / "el4.fcidump"))
        for p in string_built_partitions(h):  # the dense check on the benchmark's greedy k=3 only
            assert_set_path_matches_term_path(p, h, dense=p.source == "greedy(k=3)")

    def test_fermi_hubbard_chain(self):
        h = jordan_wigner(build_fermi_hubbard(chain_lattice(6), 1.0, 2.0))
        for p in string_built_partitions(h, sites=6):
            assert_set_path_matches_term_path(p, h)


# ---------------------------------------------------------------------------
# The per-gate rule that the layer-wise conjugation replaced, kept as the reference: one call
# per (string, gate), with the circuit search replaying every earlier gate on each string.

def reference_conjugate(gate: tuple[str, tuple[int, ...]], x: int, z: int) -> tuple[int, int, int]:
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


def reference_clifford_circuit(strings) -> list[tuple[str, tuple[int, ...]]]:
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
            x, z, _ = reference_conjugate(gate, x, z)
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


def reference_qubit_letters(coeffs, n: int) -> list[tuple[int, int, int]] | None:
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


def _basis_mask(mask: int, n: int) -> int:
    """Map a qubit-indexed mask to basis-index bit positions (qubit 0 = MSB)."""
    out = 0
    for q in range(n):
        if (mask >> q) & 1:
            out |= 1 << (n - 1 - q)
    return out


def reference_conjugated(coeffs, gates, n: int, kind: str, ops) -> FragmentDiagonalization:
    """The basis of `gates` for Pauli strings {(x, z): c}, each conjugated exactly: strings left
    with an X or Y letter are its residual, the Z-type rest its diagonal."""
    diagonal_terms = []
    off = 0.0
    for (x, z), c in coeffs.items():
        flips = 0
        for gate in gates:
            x, z, flip = reference_conjugate(gate, x, z)
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


def reference_letter_diagonalization(frag: Fragment, n: int) -> FragmentDiagonalization:
    """The letter and Clifford paths of diagonalize_fragment through the per-gate rule."""
    coeffs = {s: c for s, c in fragments.pauli_coefficients(frag.terms).items()
              if c != 0}
    if (shared := reference_qubit_letters(coeffs, n)) is not None:
        gates = [(name, (q,)) for q, x, z in shared if x for name in ("s", "h")[1 - z:]]
        ops = tuple(((q,), _LETTER_BASES[x, z]) for q, x, z in shared if x | z)
        basis = reference_conjugated(coeffs, gates, n, "tensor-wise", ops)
        if basis.residual <= _DIAG_TOL:
            return basis
    gates = reference_clifford_circuit(coeffs)
    ops = tuple((qubits, _GATE_OPS[name]) for name, qubits in gates)
    return reference_conjugated(coeffs, gates, n, "clifford", ops)


@st.composite
def clifford_string_sets(draw):
    """Distinct non-identity strings on 1-70 qubits with coefficients: Z-type strings (products
    of each other included) pushed through random gates by the reference rule, so they commute,
    and sometimes one more random string that may anticommute with them."""
    n = draw(st.one_of(st.integers(1, 8), st.integers(9, 70), st.integers(63, 70)))
    qubit = st.integers(0, n - 1)
    one = st.tuples(st.sampled_from(["h", "s"]), qubit.map(lambda q: (q,)))
    two = st.tuples(st.sampled_from(["cx", "cz"]), st.lists(qubit, min_size=2, max_size=2,
                                                            unique=True).map(tuple))
    size = draw(st.integers(0, 60))
    gates = draw(st.lists(st.one_of(one, two) if n > 1 else one, min_size=size, max_size=size))
    strings = []
    for z in draw(st.lists(st.integers(1, (1 << n) - 1), min_size=1, max_size=10)):
        x = 0
        for gate in gates:
            x, z, _ = reference_conjugate(gate, x, z)
        strings.append((x, z))
    if draw(st.booleans()):
        strings.append((draw(st.integers(0, (1 << n) - 1)), draw(st.integers(1, (1 << n) - 1))))
    strings = list(dict.fromkeys(strings))
    coeffs = draw(st.lists(st.sampled_from([1.0, -1.0, 0.5, -0.25, 0.125, 3.0]),
                           min_size=len(strings), max_size=len(strings)))
    return n, strings, coeffs


class TestLayerConjugationMatchesPerGateReference:
    @seed(20261019)
    @settings(max_examples=300, deadline=None)
    @given(case=clifford_string_sets())
    def test_gates_images_records_and_diagonal(self, case):
        n, strings, coeffs = case
        try:
            expected_gates = reference_clifford_circuit(strings)
        except ConstraintError:
            with pytest.raises(ConstraintError):
                _clifford_circuit([(x, z, (x & z).bit_count()) for x, z in strings])
        else:
            images = [(x, z, (x & z).bit_count()) for x, z in strings]
            assert _clifford_circuit(images) == expected_gates
            for (x, z), (xi, zi, e) in zip(strings, images):
                flips = 0
                for gate in expected_gates:
                    x, z, flip = reference_conjugate(gate, x, z)
                    flips ^= flip
                assert (xi, zi, (e - (xi & zi).bit_count()) >> 1 & 1) == (x, z, flips)
        frag = Fragment(tuple(letter_term(c, PauliString(n, x, z))
                              for c, (x, z) in zip(coeffs, strings)))
        try:
            expected = reference_letter_diagonalization(frag, n)
        except ConstraintError:
            with pytest.raises(ConstraintError):
                diagonalize_fragment(frag, n)
            return
        result = diagonalize_fragment(frag, n)
        assert result.record() == expected.record()
        if n <= 12:
            assert np.max(np.abs(result.diagonal - expected.diagonal)) <= 1e-12

    def test_seventy_qubit_clifford_certification(self):
        h = pauli.parse_pauli_text("1.0 X0 X69 Z65\n0.5 Y0 Y69 Z65\n0.25 Z0 Z69\n", n=70)
        part = Partition(70, (Fragment(tuple(letter_term(c, s) for c, s in h)),))
        report = validate_partition(part, h).to_dict()
        assert report["ok"]
        assert report["bases"] == [{"kind": "clifford", "largest_block": 2, "two_qubit_gates": 2,
                                    "residual": 5.051514762044462e-15}]
