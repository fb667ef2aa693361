"""Tensor-product terms: construction, realization, state application, JSON."""

import hashlib
import json
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from conftest import (
    block_built,
    dense_from_letters,
    h2_sto3g_integrals,
    kron_all,
    letter_term,
    pauli_sums,
    ReferenceTensorFactor,
    random_hermitian,
    random_integrals,
    reference_terms,
    string_built_partitions,
    string_triples,
)
from hampart.encodings import encode_boson_operator, jordan_wigner
from hampart.errors import DataError, DimensionError
from hampart.fragments import (
    Fragment,
    Partition,
    TensorFactor,
    TensorProductTerm,
    apply_fragment,
    apply_term,
    fragment_matrix,
    load_partition,
    partition_from_json,
    partition_matrix,
    partition_to_json,
    pauli_coefficients,
    save_partition,
    term_matrix,
    unit_factor,
)
from hampart.operators import (
    build_bose_hubbard,
    build_fermi_hubbard,
    chain_lattice,
    fermion_from_integrals,
)
from hampart.partitioners import (
    blocking_partition,
    color_partition_fermi_hubbard_1d,
    greedy_partition,
    qpn_partition,
    sorted_insertion,
)
from hampart.pauli import PauliString, dense_sum, pauli_matrix


class TestConstruction:
    def test_factor_validation(self):
        with pytest.raises(DataError):
            TensorFactor((0,), np.array([[0, 1], [0, 0]]))  # not Hermitian
        with pytest.raises(DimensionError):
            TensorFactor((0, 1), np.eye(2))  # wrong block size
        with pytest.raises(DataError):
            TensorFactor((0, 0), np.eye(4))  # repeated qubit
        with pytest.raises(DataError):
            TensorFactor((-1,), np.eye(2))  # negative qubit
        with pytest.raises(DataError):
            TensorFactor((1, -2), np.eye(4))
        for bad in (np.nan, np.inf, -np.inf, complex(0, np.nan)):
            for where in ((0, 0), (0, 1)):
                block = np.eye(2, dtype=complex)
                block[where] = bad
                with pytest.raises(DataError):
                    TensorFactor((0,), block)  # not finite

    def test_term_disjointness(self):
        f1 = TensorFactor((0, 1), np.eye(4))
        f2 = TensorFactor((1, 2), np.eye(4))
        with pytest.raises(DataError):
            TensorProductTerm([f1, f2])

    def test_partition_bounds(self):
        term = TensorProductTerm([TensorFactor((3,), np.eye(2))])
        with pytest.raises(DataError):
            Partition(2, (Fragment((term,), "f"),))


class TestSetTerms:
    """A set fragment's terms are read from Fragment.factor_blocks(): factor by factor the terms
    the removed builders made (conftest reference_terms), and their Pauli expansion is the
    projection of the realized blocks."""

    @staticmethod
    def fh1d_instance(sites, t, u):
        return jordan_wigner(build_fermi_hubbard(chain_lattice(sites), t, u))

    @seed(20261021)
    @settings(max_examples=40, deadline=None)
    @given(h=pauli_sums(max_qubits=7), sites=st.integers(2, 7),
           t=st.floats(-2.0, 2.0).filter(lambda c: abs(c) > 1e-3), u=st.floats(0.0, 4.0))
    def test_terms_are_the_reference_terms(self, h, sites, t, u):
        fh = self.fh1d_instance(sites, t, u)
        parts = [sorted_insertion(h, "full"), sorted_insertion(h, "qubitwise")]
        parts += [greedy_partition(h, k) for k in range(1, h.n + 1)]
        parts += [blocking_partition(h, k) for k in range(1, min(3, h.n) + 1)]
        parts += [color_partition_fermi_hubbard_1d(fh, sites)]
        letters = {pauli_matrix(letter).tobytes(): letter for letter in "XYZ"}
        for frag in (f for p in parts for f in p.fragments):
            want = reference_terms(frag)
            assert len(frag.terms) == len(want), frag.label
            for got_term, want_term in zip(frag.terms, want):
                assert [f.qubits for f in got_term.factors] == [f.qubits for f in want_term.factors]
                for a, b in zip(got_term.factors, want_term.factors):
                    assert a.block.tobytes() == b.block.tobytes(), frag.label
                    assert a.block.flags.writeable == b.block.flags.writeable is False
                    if not isinstance(b, ReferenceTensorFactor):  # a shared unit letter
                        assert a is b is unit_factor(*b.qubits, letters[b.block.tobytes()])
                    elif b.masks:  # a set's realized free block, held as it is
                        assert type(a) is TensorFactor and a.block is b.block
                    else:  # c times the first letter of a set without a block
                        assert a is not unit_factor(*a.qubits, letters.get(a.block.tobytes(), "I"))

    @pytest.mark.parametrize("k", [1, 2, 3, 8])
    def test_expansion_is_the_projection_of_the_blocks(self, k):
        # The members' strings are all there with their coefficients up to rounding; a string
        # the members cancel in a realized block may appear with a rounding-size coefficient.
        ints = random_integrals(4, np.random.default_rng([3, 4]))
        h = jordan_wigner(fermion_from_integrals(ints))
        for frag in greedy_partition(h, k).fragments:
            got = pauli_coefficients(frag.terms)
            want = {(x, z): c for c, x, z in string_triples(frag.strings)}
            scale = sum(map(abs, want.values()))
            assert want.keys() <= got.keys(), frag.label
            assert all(abs(c - want.get(key, 0.0)) <= 4 * np.finfo(float).eps * scale
                       for key, c in got.items()), frag.label


class TestPauliBornFactors:
    """Blocks realized from Pauli strings (pauli.dense_sum, which Fragment.realized runs on a
    set's members) are the sum of their strings' kron products on the listed qubits; their bytes
    are pinned by the partition digests and the differential test of pauli.dense_sum."""

    @pytest.mark.parametrize("coeff", [0.75, -0.75, -1.0])
    @pytest.mark.parametrize("letter", "XYZ")
    def test_blocks_equal_dense_construction(self, letter, coeff):
        s = PauliString.from_ops([(1, letter), (3, "Y")], 4)
        members = [(coeff, s), (0.5, PauliString.from_ops([(1, "Z"), (3, "X")], 4)),
                   (-0.25, PauliString.from_ops([(3, letter)], 4))]
        for group, qubits in ((members, (1, 3)), (members, (3, 1)), (members[2:], (3,))):
            block = dense_sum([(c, t.x, t.z) for c, t in group], qubits)
            want = sum(c * dense_from_letters("".join(t.letter(q) for q in qubits))
                       for c, t in group)
            np.testing.assert_allclose(block, want, rtol=0, atol=1e-15)


class TestRealization:
    def test_contiguous_kron_oracle(self):
        rng = np.random.default_rng(41)
        a = random_hermitian(4, rng)
        b = random_hermitian(2, rng)
        term = TensorProductTerm([TensorFactor((0, 1), a), TensorFactor((2,), b)])
        expect = np.kron(a, b)
        assert np.max(np.abs(term_matrix(term, 3) - expect)) < 1e-12

    def test_non_contiguous_and_implicit_identity(self):
        rng = np.random.default_rng(42)
        a = random_hermitian(2, rng)
        b = random_hermitian(2, rng)
        term = TensorProductTerm([TensorFactor((0,), a), TensorFactor((2,), b)])
        expect = kron_all([a, np.eye(2), b])
        assert np.max(np.abs(term_matrix(term, 3) - expect)) < 1e-12

    def test_reordered_factor_qubits(self):
        # Listing qubits as (1, 0) makes qubit 1 the block's most significant bit.
        rng = np.random.default_rng(43)
        a = random_hermitian(4, rng)
        term_01 = TensorProductTerm([TensorFactor((0, 1), a)])
        term_10 = TensorProductTerm([TensorFactor((1, 0), a)])
        m01 = term_matrix(term_01, 2)
        m10 = term_matrix(term_10, 2)
        swap = np.zeros((4, 4))
        for q0 in range(2):
            for q1 in range(2):
                swap[2 * q0 + q1, 2 * q1 + q0] = 1.0
        assert np.max(np.abs(m10 - swap @ m01 @ swap)) < 1e-12

    def test_interleaved_supports(self):
        rng = np.random.default_rng(44)
        a = random_hermitian(4, rng)
        b = random_hermitian(4, rng)
        term_a = TensorProductTerm([TensorFactor((0, 2), a)])
        term_b = TensorProductTerm([TensorFactor((1, 3), b)])
        prod = TensorProductTerm([TensorFactor((0, 2), a), TensorFactor((1, 3), b)])
        lhs = term_matrix(prod, 4)
        rhs = term_matrix(term_a, 4) @ term_matrix(term_b, 4)
        assert np.max(np.abs(lhs - rhs)) < 1e-11

    def test_apply_matches_matrix(self):
        rng = np.random.default_rng(45)
        n = 5
        terms = [
            TensorProductTerm(
                [TensorFactor((0, 3), random_hermitian(4, rng)),
                 TensorFactor((2,), random_hermitian(2, rng))]
            ),
            TensorProductTerm([TensorFactor((1, 4), random_hermitian(4, rng))]),
        ]
        frag = Fragment(tuple(terms), "t")
        vec = rng.standard_normal(1 << n) + 1j * rng.standard_normal(1 << n)
        direct = fragment_matrix(frag, n) @ vec
        assert np.max(np.abs(apply_fragment(frag, vec, n) - direct)) < 1e-11
        one = apply_term(terms[0], vec, n)
        assert np.max(np.abs(one - term_matrix(terms[0], n) @ vec)) < 1e-11
        # A (2^n, S) block of states: each column matches the vector result.
        block = rng.standard_normal((1 << n, 3)) + 1j * rng.standard_normal((1 << n, 3))
        batched = apply_fragment(frag, block, n)
        assert batched.shape == block.shape
        assert np.max(np.abs(batched - fragment_matrix(frag, n) @ block)) < 1e-11
        for col in range(block.shape[1]):
            assert np.max(np.abs(batched[:, col] - apply_fragment(frag, block[:, col], n))) < 1e-13

    def test_partition_matrix_includes_constant(self):
        term = letter_term(2.0, PauliString.from_letters("Z"))
        p = Partition(1, (Fragment((term,), "z"),), constant=1.5)
        expect = np.diag([3.5, -0.5])
        assert np.max(np.abs(partition_matrix(p) - expect)) < 1e-13

    def test_empty_fragment(self):
        frag = Fragment((), "empty")
        assert fragment_matrix(frag, 2).shape == (4, 4)
        assert np.max(np.abs(fragment_matrix(frag, 2))) == 0.0
        vec = np.ones(4, dtype=complex)
        assert np.max(np.abs(apply_fragment(frag, vec, 2))) == 0.0


@st.composite
def partitions(draw):
    """Random partitions on 1-6 qubits: factors of 1-2 qubits in random order, Hermitian
    blocks A + A^H of arbitrary finite entries, signed zeros and subnormals included."""
    n = draw(st.integers(1, 6))
    entries = st.floats(-1e6, 1e6, allow_nan=False)
    fragments = []
    for _ in range(draw(st.integers(0, 3))):
        terms = []
        for _ in range(draw(st.integers(1, 3))):
            order, factors = draw(st.permutations(range(n))), []
            for size in draw(st.lists(st.integers(1, 2), min_size=1, max_size=3)):
                if len(order) < size:
                    break
                qubits, order = order[:size], order[size:]
                dim = 1 << size
                re, im = (np.array(draw(st.lists(entries, min_size=dim * dim, max_size=dim * dim)))
                          for _ in range(2))
                a = (re + 1j * im).reshape(dim, dim)
                factors.append(TensorFactor(qubits, a + a.conj().T))
            terms.append(TensorProductTerm(factors))
        fragments.append(Fragment(tuple(terms), draw(st.text(max_size=8))))
    return Partition(n, tuple(fragments), draw(entries), draw(st.text(max_size=8)),
                     draw(st.none() | st.text("0123456789abcdef", min_size=64, max_size=64)))


def _fixture_partitions():
    """The library partitions of H2 (4 qubits), the 3-mode d=4 Bose-Hubbard chain (6) and the
    8-site spinless Fermi-Hubbard chain (8)."""
    h2 = jordan_wigner(fermion_from_integrals(h2_sto3g_integrals()))
    lat = chain_lattice(3)
    bose = build_bose_hubbard(lat, 1.0, 2.0, 4)
    out = {}
    for name, h in (("h2", h2), ("b3d4", encode_boson_operator(bose).pauli)):
        out[name, "fc-si"] = sorted_insertion(h, "full")
        out[name, "qwc-si"] = sorted_insertion(h, "qubitwise")
        out[name, "greedy-k2"] = greedy_partition(h, 2)
        out[name, "greedy-k3"] = greedy_partition(h, 3)
        out[name, "blocking-k3"] = blocking_partition(h, 3)
    out["b3d4", "qpn"] = qpn_partition(bose, lat)
    fh8 = build_fermi_hubbard(chain_lattice(8), 1.0, 2.0)
    out["fh8", "fh1d-coloring"] = color_partition_fermi_hubbard_1d(jordan_wigner(fh8), 8)
    return out


# sha256 of json.dumps(partition_to_json(p)), computed when every factor held a dense block
# from the start: factors realized from their Pauli strings must write the same bytes.
PARTITION_DIGESTS = {
    ("h2", "fc-si"): "dbf50485b525b1a7cd907b562615965f81d8c3208015ebd829b79df7b04c754e",
    ("h2", "qwc-si"): "b6c38fe42b3eab8848bafd39952e1e62659ae096c82563c35f4d092219bae885",
    ("h2", "greedy-k2"): "d6482159332c98bbb2b1fff17c20f1f0af413bb2c2912ef2ce8f209cf235be55",
    ("h2", "greedy-k3"): "76dd0f659cae0dee63e16e4dce6670118581cd7aff37201423b01100859964f7",
    ("h2", "blocking-k3"): "aee23c5782a7881a1e3219380bc60657f02421aff1c4e4ae21835f573e175cf4",
    ("b3d4", "fc-si"): "b95b325afab826279cacc96cb116006f8e2a5deb41e30a4463424c96ea754586",
    ("b3d4", "qwc-si"): "d3626e61c68fff4d76f7983a23fc0af6f07746688d388c7ce07cff2d12f6633f",
    ("b3d4", "greedy-k2"): "959a389d3aa1faa02c1a8de8f0b5f0d43238851971293f40cde01e64c24d64d8",
    ("b3d4", "greedy-k3"): "cdbbee67a07e5c5aec91fbe5e4ed70bf2fe171cf1faf65f2815e540c39360225",
    ("b3d4", "blocking-k3"): "510de2f1268a1470f5e6741070729b2c259e314dce634ace05a059a17e6a83a4",
    ("b3d4", "qpn"): "23fb6d6bde79893d45caf9dbcab8ee37c415113834db11e2845dd09e494caae3",
    ("fh8", "fh1d-coloring"): "80de2942806b9144ba3ddd6b4c3b02aa10cb408877bd0e4111fd540843a2eef8",
}


def test_partition_json_digests_pinned():
    got = {key: hashlib.sha256(json.dumps(partition_to_json(p)).encode()).hexdigest()
           for key, p in _fixture_partitions().items()}
    assert got == PARTITION_DIGESTS


class TestSetFragmentsWriteTheirTerms:
    """partition_to_json writes a string-built fragment from its sets: the bytes of the same
    partition rebuilt from its terms."""

    @seed(20261020)
    @settings(max_examples=40, deadline=None)
    @given(h=pauli_sums(max_qubits=8))
    def test_random_sums(self, h):
        for p in string_built_partitions(h):
            assert json.dumps(partition_to_json(p)) == json.dumps(partition_to_json(block_built(p)))

    @pytest.mark.parametrize("sites", [2, 5, 8])
    def test_fermi_hubbard_chains(self, sites):
        h = jordan_wigner(build_fermi_hubbard(chain_lattice(sites), 1.0, 2.0))
        for p in string_built_partitions(h, sites):
            assert json.dumps(partition_to_json(p)) == json.dumps(partition_to_json(block_built(p)))

    def test_editing_a_write_leaves_the_next(self):
        # A written block is a fresh list, or the shared rows of a unit letter, which are tuples:
        # editing one write in place changes no later write of the same partition.
        h = jordan_wigner(build_fermi_hubbard(chain_lattice(4), 1.0, 2.0))
        for p in (greedy_partition(h, 1), block_built(greedy_partition(h, 1))):
            want = json.dumps(partition_to_json(p))
            blocks = [f["block"] for frag in partition_to_json(p)["fragments"]
                      for term in frag["terms"] for f in term["factors"]]
            shared = [b for b in blocks if isinstance(b, tuple)]
            assert shared and all(isinstance(row, tuple) for b in shared for row in b)
            for block in blocks:
                if isinstance(block, list):
                    block[0][0] = 9.0
                    block.pop()
                else:
                    with pytest.raises(TypeError):
                        block[0][0] = 9.0
            assert json.dumps(partition_to_json(p)) == want

    @pytest.mark.parametrize("k", [1, 3])
    def test_held_blocks_are_read_only_and_realized_once(self, k):
        # Every block a fragment hands out twice (unit letters, realized free blocks, the blocks of
        # terms) is read-only; a set's terms hold its realized free block itself.
        h = jordan_wigner(build_fermi_hubbard(chain_lattice(4), 1.0, 2.0))
        p = greedy_partition(h, k)
        for frag in (*p.fragments, *block_built(p).fragments):
            first = [b for term in frag.factor_blocks() for b in term.values()]  # kept alive
            ids = set(map(id, first))
            held = [b for term in frag.factor_blocks() for b in term.values() if id(b) in ids]
            assert held and not any(b.flags.writeable for b in held)
        for frag in p.fragments:
            realized = {id(b) for b in frag.realized if b is not None}
            assert realized <= {id(f.block) for t in frag.terms for f in t.factors}


class TestJson:
    def _random_partition(self, seed=46):
        rng = np.random.default_rng(seed)
        frags = []
        for i in range(2):
            terms = [
                TensorProductTerm(
                    [TensorFactor((0, 2), random_hermitian(4, rng)),
                     TensorFactor((1,), random_hermitian(2, rng))]
                )
            ]
            frags.append(Fragment(tuple(terms), f"frag-{i}"))
        return Partition(3, tuple(frags), constant=np.pi, source="test", hamiltonian_sha256="ab")

    def test_round_trip_bit_exact(self):
        p = self._random_partition()
        data = json.dumps(partition_to_json(p))
        q = partition_from_json(json.loads(data))
        assert q.n == p.n and q.source == p.source and q.constant == p.constant
        assert q.hamiltonian_sha256 == p.hamiltonian_sha256
        for fa, fb in zip(p.fragments, q.fragments):
            assert fa.label == fb.label
            for ta, tb in zip(fa.terms, fb.terms):
                for xa, xb in zip(ta.factors, tb.factors):
                    assert xa.qubits == xb.qubits
                    assert np.array_equal(xa.block, xb.block)  # bit-exact

    @seed(20261018)
    @settings(max_examples=100, deadline=None)
    @given(p=partitions())
    def test_round_trip_random_partitions(self, p):
        text = json.dumps(partition_to_json(p))
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "p.json")
            save_partition(path, p)
            with open(path) as fh:
                assert fh.read() == text + "\n"  # compact, one line
            loaded = load_partition(path)
        for q in (partition_from_json(text), loaded):
            assert (q.n, q.source, q.hamiltonian_sha256) == (p.n, p.source, p.hamiltonian_sha256)
            assert q.constant == p.constant
            assert [f.label for f in q.fragments] == [f.label for f in p.fragments]
            for fa, fb in zip(p.fragments, q.fragments):
                assert len(fa.terms) == len(fb.terms)
                for ta, tb in zip(fa.terms, fb.terms):
                    assert [x.qubits for x in ta.factors] == [x.qubits for x in tb.factors]
                    for xa, xb in zip(ta.factors, tb.factors):
                        assert xa.block.tobytes() == xb.block.tobytes()  # bit-exact
            assert json.dumps(partition_to_json(q)) == text  # reruns are byte-identical

    @pytest.mark.parametrize("name", ["h2", "b3d4"])
    @pytest.mark.parametrize("method", ["fc-si", "qwc-si"])
    def test_letter_blocks_load_as_unit_factors(self, name, method):
        text = json.dumps(partition_to_json(_fixture_partitions()[name, method]))
        loaded = partition_from_json(text)
        letters = {pauli_matrix(letter).tobytes(): letter for letter in "XYZ"}
        interned = 0
        for frag in loaded.fragments:
            for term in frag.terms:
                for f in term.factors:
                    letter = letters.get(f.block.tobytes()) if f.size == 1 else None
                    if letter:
                        assert f is unit_factor(f.qubits[0], letter)
                        interned += 1
        assert interned > 0
        assert json.dumps(partition_to_json(loaded)) == text  # save -> load -> save

    @pytest.mark.parametrize("index, entry", [(0, [-0.0, 0.0]), (1, [1.0 + 2.0**-52, 0.0])])
    def test_near_letter_blocks_are_not_interned(self, index, entry):
        data = partition_to_json(
            Partition(2, (Fragment((letter_term(1.0, PauliString.from_letters("XZ")),)),)))
        assert partition_from_json(data).fragments[0].terms[0].factors[0] is unit_factor(0, "X")
        data["fragments"][0]["terms"][0]["factors"][0]["block"][index] = entry
        loaded = partition_from_json(data)
        first, second = loaded.fragments[0].terms[0].factors
        assert first is not unit_factor(0, "X") and second is unit_factor(1, "Z")
        assert json.dumps(partition_to_json(loaded)) == json.dumps(data)

    def test_rejects_unknown_format(self):
        with pytest.raises(DataError):
            partition_from_json({"format": "nope", "fragments": []})

    def test_rejects_bad_block_length(self):
        data = partition_to_json(self._random_partition())
        data["fragments"][0]["terms"][0]["factors"][0]["block"].pop()
        with pytest.raises(DataError):
            partition_from_json(data)
