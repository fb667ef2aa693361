"""Pauli string algebra against dense matrix oracles."""

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from conftest import (dense_from_letters, dense_pauli_sum, pauli_pairs, pauli_sums,
                      reference_pauli_sum, string_triples)
from hampart.encodings import jordan_wigner
from hampart.errors import DataError, DimensionError, ParseError, ResourceError
from hampart.operators import FermionOperator
from hampart.pauli import (
    DENSE_QUBIT_CAP,
    PauliString,
    PauliSum,
    _group_diagonal,
    apply_pauli_terms,
    commutes,
    dense_sum,
    format_pauli_text,
    mask_ints,
    mask_words,
    multiply,
    parse_pauli_text,
    pauli_masks,
    pauli_matrix,
    pauli_project,
    string_array,
    string_dtype,
    string_to_dense,
    weight,
)


def ps(letters):
    return PauliString.from_letters(letters)


class TestMultiply:
    def test_single_qubit_table_matches_dense_products(self):
        # Verifies the symplectic phase rule against all 16 matrix products.
        for a in "IXYZ":
            for b in "IXYZ":
                phase, r = multiply(ps(a), ps(b))
                lhs = pauli_matrix(a) @ pauli_matrix(b)
                assert np.allclose(lhs, phase * string_to_dense(r), atol=1e-14)

    def test_x_times_y(self):
        phase, r = multiply(ps("X"), ps("Y"))
        assert phase == 1j and r.letters == "Z"

    def test_identity_is_neutral(self):
        for letters in ("X", "YZ", "IXZY"):
            ident = PauliString.identity(len(letters))
            phase, r = multiply(ps(letters), ident)
            assert phase == 1 and r == ps(letters)
            phase, r = multiply(ident, ps(letters))
            assert phase == 1 and r == ps(letters)

    def test_xz_times_zx_against_dense_oracle(self):
        # Dense oracle: (X@Z)(Z@X) = (-iY)@(iY) = +1 * YY.
        phase, r = multiply(ps("XZ"), ps("ZX"))
        oracle = dense_from_letters("XZ") @ dense_from_letters("ZX")
        assert r.letters == "YY"
        assert np.allclose(oracle, phase * dense_from_letters("YY"), atol=1e-14)
        assert phase == 1

    def test_two_qubit_phase_consistency(self):
        for a in ("XX", "XY", "ZZ", "YX", "IZ", "YY"):
            for b in ("ZX", "YY", "XI", "ZZ", "IY", "XZ"):
                phase, r = multiply(ps(a), ps(b))
                lhs = dense_from_letters(a) @ dense_from_letters(b)
                assert np.allclose(lhs, phase * dense_from_letters(r.letters), atol=1e-14)

    def test_associativity_sample(self):
        rng = np.random.default_rng(3)
        letters = "IXYZ"
        for _ in range(50):
            a, b, c = (
                "".join(letters[i] for i in rng.integers(0, 4, 3)) for _ in range(3)
            )
            ph_ab, s_ab = multiply(ps(a), ps(b))
            ph1, s1 = multiply(s_ab, ps(c))
            ph_bc, s_bc = multiply(ps(b), ps(c))
            ph2, s2 = multiply(ps(a), s_bc)
            assert s1 == s2
            assert ph_ab * ph1 == ph_bc * ph2

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            multiply(ps("X"), ps("XX"))


class TestCommutes:
    def test_examples(self):
        assert commutes(ps("XX"), ps("YY"), "full")
        assert not commutes(ps("XX"), ps("YY"), "qubitwise")
        assert commutes(ps("XI"), ps("IZ"), "qubitwise")

    def test_qubitwise_implies_full(self):
        rng = np.random.default_rng(11)
        letters = "IXYZ"
        for _ in range(300):
            n = int(rng.integers(1, 6))
            a = "".join(letters[i] for i in rng.integers(0, 4, n))
            b = "".join(letters[i] for i in rng.integers(0, 4, n))
            if commutes(ps(a), ps(b), "qubitwise"):
                assert commutes(ps(a), ps(b), "full")

    def test_full_matches_dense_commutator(self):
        rng = np.random.default_rng(12)
        letters = "IXYZ"
        for _ in range(60):
            n = int(rng.integers(1, 4))
            a = "".join(letters[i] for i in rng.integers(0, 4, n))
            b = "".join(letters[i] for i in rng.integers(0, 4, n))
            ma, mb = dense_from_letters(a), dense_from_letters(b)
            dense_commute = np.allclose(ma @ mb, mb @ ma, atol=1e-13)
            assert commutes(ps(a), ps(b), "full") == dense_commute

    def test_mismatch_and_bad_kind(self):
        with pytest.raises(DimensionError):
            commutes(ps("X"), ps("XX"), "full")
        with pytest.raises(DataError):
            commutes(ps("X"), ps("X"), "sideways")


class TestWeight:
    def test_examples(self):
        assert weight(PauliString.identity(5)) == 0
        assert weight(ps("XIZ")) == 2
        for n in (1, 4, 9):
            assert weight(ps("X" * n)) == n


class TestPauliSum:
    def test_zero_coefficients_dropped_and_identity_absorbed(self):
        h = PauliSum(2, [(1e-15, ps("XX")), (2.0, ps("II")), (1.0, ps("ZZ"))])
        assert len(h) == 1
        assert h.constant == 2.0

    def test_rejects_complex_coefficients(self):
        with pytest.raises(DataError):
            PauliSum(1, [(1.0 + 0.5j, ps("X"))])

    def test_rejects_mixed_sizes(self):
        with pytest.raises(DimensionError):
            PauliSum(2, [(1.0, ps("X"))])

    def test_term_ordering(self):
        h = PauliSum(
            2, [(0.5, ps("ZZ")), (-2.0, ps("XY")), (0.5, ps("IX")), (1.0, ps("YI"))]
        )
        ordered = [s.letters for _, s in h.items_sorted()]
        assert ordered == ["XY", "YI", "IX", "ZZ"]

    @seed(20261018)
    @settings(max_examples=200, deadline=None)
    @given(n=st.integers(1, 20), data=st.data())
    def test_tie_break_orders_like_letters(self, n, data):
        # Few distinct |c| and few letters, so most terms tie on |c| and share prefixes.
        strings = st.text("IXYZ", min_size=n, max_size=n).filter(lambda s: s != "I" * n)
        terms = data.draw(st.lists(st.tuples(st.sampled_from([1.0, -1.0, 0.5, -0.5]), strings),
                                   min_size=1, max_size=40))
        h = PauliSum(n, [(c, ps(s)) for c, s in terms])
        by_letters = sorted(((c, s) for s, c in h.terms.items()),
                            key=lambda cs: (-abs(cs[0]), cs[1].letters))
        assert h.items_sorted() == by_letters

    @seed(20261019)
    @settings(max_examples=100, deadline=None)
    @given(h=pauli_sums(max_qubits=8))
    def test_cached_sort_equals_a_fresh_sort(self, h):
        first = h.items_sorted()
        first.append("caller's edit")  # callers get their own list
        fresh = PauliSum(h.n, [(c, s) for s, c in h.terms.items()], h.constant).items_sorted()
        assert h.items_sorted() == fresh
        strings = h.sorted_strings()
        assert string_triples(strings) == [(complex(c), s.x, s.z) for c, s in fresh]
        assert h.sorted_strings() is strings and not strings.flags.writeable

    def test_simplify_idempotent_and_matrix_preserving(self):
        h = PauliSum(2, [(0.25, ps("XZ")), (0.75, ps("XZ")), (1.5, ps("YI"))], 0.5)
        s1 = h.simplified()
        s2 = s1.simplified()
        assert s1 == s2 == h
        assert np.allclose(h.to_matrix(), s1.to_matrix())

    @seed(20261019)
    @settings(max_examples=150, deadline=None)
    @given(n=st.sampled_from([1, 2, 31, 32, 33, 63, 64, 65, 70]), data=st.data())
    def test_lexsort_order_equals_python_key(self, n, data):
        # The key of the per-term sort: -|c|, then the base-4 number with digit 2z + (x ^ z) per
        # qubit, qubit 0 on top; few distinct |c| so that most terms tie on it.
        masks = st.integers(0, (1 << n) - 1)
        terms = data.draw(st.lists(st.tuples(st.sampled_from([1.0, -1.0, 0.5, 3e-3]), masks,
                                             masks), max_size=40))
        h = PauliSum(n, [(c, PauliString(n, x, z)) for c, x, z in terms])

        def digits(mask: int) -> int:  # bit q of mask -> base-4 digit n-1-q
            return int(format(mask, f"0{n}b")[::-1], 4)

        want = sorted(((c, s) for s, c in h.terms.items()),
                      key=lambda cs: (-abs(cs[0]), 2 * digits(cs[1].z) + digits(cs[1].x ^ cs[1].z)))
        assert h.items_sorted() == want


WORD_BOUNDARY_WIDTHS = [0, 1, 63, 64, 65, 127, 128, 129, 200]


@st.composite
def masks_below(draw):
    """A register width from WORD_BOUNDARY_WIDTHS and masks below 2^n, the top bit and every
    bit of a word among them."""
    n = draw(st.sampled_from(WORD_BOUNDARY_WIDTHS))
    edges = [0, (1 << n) - 1, *(1 << q for q in range(n)), *(((1 << 64) - 1) << q
                                                                for q in range(0, n - 63, 64))]
    return n, draw(st.lists(st.integers(0, (1 << n) - 1) | st.sampled_from(edges), max_size=12))


class TestMaskWords:
    @seed(20261026)
    @settings(max_examples=200, deadline=None)
    @given(case=masks_below())
    def test_round_trip(self, case):
        n, masks = case
        words = mask_words(masks, n)
        assert words.dtype == np.uint64 and words.shape == (len(masks), max(1, -(-n // 64)))
        assert mask_ints(words) == masks
        assert all(type(m) is int for m in mask_ints(words))

    def test_word_w_holds_qubits_64w_on(self):
        mask = 1 | 1 << 63 | 1 << 64 | 1 << 129
        assert mask_words([mask], 130).tolist() == [[1 | 1 << 63, 1, 2]]

    @pytest.mark.parametrize("n", WORD_BOUNDARY_WIDTHS)
    def test_string_arrays_hold_w_words_read_only(self, n):
        words = max(1, -(-n // 64))
        terms = [(0.5, (1 << n) - 1, 0), (-0.25, 0, 1 << max(n - 1, 0))] if n else []
        strings = string_array(terms, n)
        assert strings.dtype == string_dtype(n) and strings["x"].shape == (len(terms), words)
        assert not strings.flags.writeable
        assert string_triples(strings) == [(complex(c), x, z) for c, x, z in terms]
        h = PauliSum(n, [(c, PauliString(n, x, z)) for c, x, z in terms])
        assert h.sorted_strings().dtype == string_dtype(n)
        assert not h.sorted_strings().flags.writeable
        assert string_triples(h.sorted_strings()) == string_triples(strings)


class TestToMatrix:
    def test_z_is_diag(self):
        h = PauliSum(1, [(1.0, ps("Z"))])
        assert np.allclose(h.to_matrix(), np.diag([1.0, -1.0]))

    def test_h1_matches_rotated_pauli_matrix(self):
        s = 1 / np.sqrt(2)
        h = PauliSum(1, [(s, ps("X")), (s, ps("Z"))])
        expect = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
        assert np.allclose(h.to_matrix(), expect, atol=1e-15)

    def test_sparse_equals_dense_random_3q(self):
        rng = np.random.default_rng(5)
        letters = "IXYZ"
        terms = []
        for _ in range(12):
            s = "".join(letters[i] for i in rng.integers(0, 4, 3))
            terms.append((float(rng.standard_normal()), ps(s)))
        h = PauliSum(3, terms, constant=0.3)
        dense = h.to_matrix()
        assert np.max(np.abs(dense - dense_pauli_sum(h))) < 1e-14

    def test_linearity(self):
        rng = np.random.default_rng(6)
        letters = "IXYZ"

        def rand_sum():
            terms = [
                (float(rng.standard_normal()), ps("".join(letters[i] for i in rng.integers(0, 4, 3))))
                for _ in range(5)
            ]
            return PauliSum(3, terms, float(rng.standard_normal()))

        a, b = rand_sum(), rand_sum()
        combo = a.scaled(2.5) + b.scaled(-0.5)
        expect = 2.5 * a.to_matrix() - 0.5 * b.to_matrix()
        assert np.max(np.abs(combo.to_matrix() - expect)) < 1e-12

    def test_hermitian(self):
        rng = np.random.default_rng(13)
        letters = "IXYZ"
        terms = [
            (float(rng.standard_normal()), ps("".join(letters[i] for i in rng.integers(0, 4, 4))))
            for _ in range(10)
        ]
        m = PauliSum(4, terms).to_matrix()
        assert np.max(np.abs(m - m.conj().T)) < 1e-12

    def test_caps(self):
        h = PauliSum(13, [(1.0, PauliString.from_ops([(0, "X")], 13))])
        with pytest.raises(ResourceError):
            h.to_matrix()

    def test_apply_matches_matrix(self):
        rng = np.random.default_rng(8)
        letters = "IXYZ"
        terms = [
            (float(rng.standard_normal()), ps("".join(letters[i] for i in rng.integers(0, 4, 4))))
            for _ in range(8)
        ]
        h = PauliSum(4, terms, 0.7)
        for vec in (rng.standard_normal(16) + 1j * rng.standard_normal(16),
                    rng.standard_normal(16),
                    rng.standard_normal((16, 3)) + 1j * rng.standard_normal((16, 3))):
            assert np.max(np.abs(h.apply(vec) - h.to_matrix() @ vec)) < 1e-12

    def test_apply_into_reused_buffers(self):
        # Buffers that held an earlier result give the bytes of fresh ones.
        rng = np.random.default_rng(9)
        terms = string_array([(complex(rng.standard_normal()), int(x), int(z))
                              for x, z in rng.integers(0, 16, (12, 2))], 4)
        vec = rng.standard_normal((16, 3)) + 1j * rng.standard_normal((16, 3))
        out, tmp = (rng.standard_normal((16, 3)) + 0j for _ in range(2))
        got = apply_pauli_terms(terms, vec, 4, out, tmp)
        assert np.shares_memory(got, out)
        assert got.tobytes() == apply_pauli_terms(terms, vec, 4).tobytes()


_H = np.array([[1, 1], [1, -1]], dtype=complex)


def reference_group_diagonal(x, members, n, state_axes):
    """The loop form: Walsh-Hadamard transform over every qubit any z mask of the group touches,
    each member placed by a per-qubit loop."""
    union = 0
    for _, z in members:
        union |= z
    qubits = [q for q in range(n) if union >> q & 1]
    d = np.zeros(1 << len(qubits), dtype=complex)
    for c, z in members:
        d[sum(1 << b for b, q in enumerate(reversed(qubits)) if z >> q & 1)] += (
            c * (1, -1j, -1, 1j)[(x & z).bit_count() & 3])
    for _ in qubits:
        d = (d.reshape(2, -1).T @ _H).ravel()
    return d.reshape([2 if union >> q & 1 else 1 for q in range(n)] + [1] * state_axes)


def flip_groups(h):
    """x mask -> [(c, z)] of a PauliSum, in term order."""
    groups = {}
    for s, c in h.terms.items():
        groups.setdefault(s.x, []).append((c, s.z))
    return groups


class TestGroupDiagonal:
    """The shared-bit factorization against the full transform, on random sums and on
    Jordan-Wigner groups whose strings share a Z chain across 16 qubits."""

    @staticmethod
    def assert_matches_reference(x, members, n, state_axes):
        v = np.array([c * (1, -1j, -1, 1j)[(x & z).bit_count() & 3] for c, z in members])
        got = _group_diagonal(v, [z for _, z in members], n, state_axes)
        want = reference_group_diagonal(x, members, n, state_axes)
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))

    @seed(20261019)
    @settings(max_examples=100, deadline=None)
    @given(h=pauli_sums(max_qubits=8), state_axes=st.sampled_from([0, 1]))
    def test_random_sums(self, h, state_axes):
        for x, members in flip_groups(h).items():
            self.assert_matches_reference(x, members, h.n, state_axes)

    def test_jordan_wigner_groups_sharing_a_z_chain(self):
        # Hops across the 16-mode register, dressed with densities inside and outside the chain:
        # each x group holds strings that agree on most of a long Z chain.
        rng = np.random.default_rng(16)
        terms = []
        for i, j in ((0, 15), (1, 14), (2, 15), (0, 13)):
            for k in (None, 5, 9, (i + j) // 2):
                dens = () if k is None else ((k, True), (k, False))
                c = float(rng.normal())
                terms += [(c, ((i, True), *dens, (j, False))), (c, ((j, True), *dens, (i, False)))]
        h = jordan_wigner(FermionOperator(16, tuple(terms)))
        groups = flip_groups(h)
        spreads = []
        for x, members in groups.items():
            union = common = members[0][1]
            for _, z in members:
                union, common = union | z, common & z
            spreads.append((union ^ common).bit_count() < union.bit_count())
            self.assert_matches_reference(x, members, h.n, 1)
        assert len(groups) >= 4 and sum(spreads) >= 4  # the shared bits were factored out


# The two transforms as they were before each direction became one pass on register masks: a
# PauliString per term, restricted to the block's qubits through its letters, and a one-qubit
# closed form plus a lift table for block projections. Kept verbatim as oracles.
REFERENCE_DENSE_QUBIT_CAP = 12
REFERENCE_LETTER_TO_BITS = {"I": (0, 0), "X": (1, 0), "Y": (1, 1), "Z": (0, 1)}
REFERENCE_ENTRIES_TO_PAULI = np.array(
    [[1, 0, 0, 1], [0, 1, 1, 0], [0, 1j, -1j, 0], [1, 0, 0, -1]]) / 2


def reference_basis_mask(mask: int, n: int) -> int:
    """Map a qubit-indexed mask to basis-index bit positions (qubit 0 = MSB)."""
    out = 0
    for q in range(n):
        if (mask >> q) & 1:
            out |= 1 << (n - 1 - q)
    return out


def reference_phases_over_basis(p: PauliString) -> tuple[int, np.ndarray]:
    """p|b> = phases[b] |b ^ flip>, with phases[b] = i^|x&z| (-1)^popcount(b & sign_mask)."""
    flip, sign_mask = reference_basis_mask(p.x, p.n), reference_basis_mask(p.z, p.n)
    base = 1j ** (p.x & p.z).bit_count()
    dim = 1 << p.n
    idx = np.arange(dim, dtype=np.uint64)
    parity = np.bitwise_count(idx & np.uint64(sign_mask)) & 1
    phases = base * np.where(parity, -1.0, 1.0)
    return flip, phases


def reference_dense_sum(terms, n: int) -> np.ndarray:
    """Dense 2^n x 2^n sum of c * s over weighted n-qubit strings (c, s), one scatter-add of
    c * phases into mat[cols ^ flip, cols] per string; more than DENSE_QUBIT_CAP qubits is
    refused before allocating."""
    if n > REFERENCE_DENSE_QUBIT_CAP:
        raise ResourceError(f"dense realization capped at {REFERENCE_DENSE_QUBIT_CAP} qubits, "
                            f"got {n}")
    mat = np.zeros((1 << n, 1 << n), dtype=complex)
    cols = np.arange(1 << n)
    for c, s in terms:
        flip, phases = reference_phases_over_basis(s)
        mat[cols ^ flip, cols] += c * phases
    return mat


def reference_restricted(s: PauliString, qubits) -> PauliString:
    """The letters on `qubits`, in the listed order, as a shorter string."""
    return PauliString.from_letters("".join(s.letter(q) for q in qubits))


def reference_restricted_block(terms, qubits) -> np.ndarray:
    """dense_sum of weighted strings (c, s), each restricted to `qubits` in the listed order."""
    return reference_dense_sum([(c, reference_restricted(s, qubits)) for c, s in terms],
                               len(qubits))


def reference_pauli_project(M: np.ndarray, k: int) -> list[tuple[complex, PauliString]]:
    """Every nonzero Tr(P M) / 2^k of a 2^k x 2^k M over k-qubit Pauli strings P, in IXYZ order
    (qubit 0 slowest)."""
    if M.shape != (1 << k, 1 << k):
        raise DimensionError(f"expected {1 << k} x {1 << k} matrix, got {M.shape}")
    pairs = np.arange(2 * k).reshape(2, k).T.ravel()  # axes (row 0, col 0, row 1, col 1, ...)
    coeffs = M.reshape((2,) * (2 * k)).transpose(pairs).ravel()
    for _ in range(k):  # transform the leading qubit axis and move it last
        coeffs = (coeffs.reshape(4, -1).T @ REFERENCE_ENTRIES_TO_PAULI.T).ravel()
    shifts = range(2 * k - 2, -1, -2)  # qubit 0 is the most significant base-4 digit
    return [
        (complex(c), PauliString.from_letters("".join("IXYZ"[(i >> s) & 3] for s in shifts)))
        for i, c in zip(np.flatnonzero(coeffs), coeffs[coeffs != 0])
    ]


def reference_pauli_masks(M: np.ndarray, qubits) -> list[tuple[complex, int, int]]:
    """pauli_project of a block acting on `qubits` (the first listed is its qubit 0) as
    (coefficient, x mask, z mask) triples, with masks lifted to the register's qubits."""
    if len(qubits) == 1 and M.shape == (2, 2):  # pauli_project's product, no PauliString built
        coeffs = (np.ravel(M).reshape(4, -1).T @ REFERENCE_ENTRIES_TO_PAULI.T).ravel()
        return [(complex(coeffs[i]),
                 *(bit << qubits[0] for bit in REFERENCE_LETTER_TO_BITS["IXYZ"[i]]))
                for i in np.flatnonzero(coeffs)]
    lift = [0]  # mask over the block's qubits -> mask over `qubits`
    for q in qubits:
        lift += [m | (1 << q) for m in lift]
    return [(c, lift[s.x], lift[s.z]) for c, s in reference_pauli_project(M, len(qubits))]


def assert_same_triples(got, want):
    """Equal masks in the same order and bitwise-equal coefficients (signed zeros included)."""
    assert [(x, z) for _, x, z in got] == [(x, z) for _, x, z in want]
    assert np.array([c for c, _, _ in got], complex).tobytes() == np.array(
        [c for c, _, _ in want], complex).tobytes()


class TestPauliMasks:
    """pauli_masks against the former one-qubit closed form, bit for bit."""

    @staticmethod
    def assert_matches_project(block, q):
        assert_same_triples(pauli_masks(block, (q,)), reference_pauli_masks(block, (q,)))

    def test_random_hermitian_blocks(self):
        rng = np.random.default_rng(21)
        for q in range(6):
            for _ in range(50):
                m = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
                self.assert_matches_project((m + m.conj().T) / 2, q)

    @pytest.mark.parametrize("block", [
        np.zeros((2, 2)),
        np.diag([0.3, 0.0]),
        np.diag([0.0, -1.7]),
        np.diag([0.5, 0.5]),
        np.array([[0.0, 0.25 - 0.5j], [0.25 + 0.5j, 0.0]]),
        np.array([[1.0, 0.0], [0.0, -2.0]], dtype=complex),
    ])
    def test_blocks_with_exact_zeros(self, block):
        self.assert_matches_project(np.asarray(block, dtype=complex), 3)

    @pytest.mark.parametrize("letter", "IXYZ")
    @pytest.mark.parametrize("coeff", [1.0, -1.0, 0.7, -2.5e-7, 3e5])
    def test_scaled_letters(self, letter, coeff):
        block = coeff * pauli_matrix(letter)
        self.assert_matches_project(block, 2)
        assert len(pauli_masks(block, (2,))) == 1

    def test_real_blocks(self):
        # Real float blocks (the Jordan-Wigner ladder products) take the same transform.
        for block in (np.diag([1.0, -1.0]), np.eye(2, k=1), np.eye(2, k=-1), np.eye(4, k=1)):
            qubits = (5,) if len(block) == 2 else (7, 2)
            assert_same_triples(pauli_masks(block, qubits), reference_pauli_masks(block, qubits))

    def test_shape_mismatch_raises(self):
        with pytest.raises(DimensionError):
            pauli_masks(np.eye(4), (0,))
        with pytest.raises(DimensionError):
            pauli_project(np.eye(2), 2)


@st.composite
def blocks_on_qubits(draw):
    """A 1-6-qubit Hermitian block on distinct register qubits in drawn order (some past qubit
    64), and weighted mask sets on a register at least that wide, with repeated strings. The
    block is dense, thinned to exact zeros, or the realization of a mask set."""
    k = draw(st.integers(1, 6))
    top = draw(st.sampled_from([k + 2, 40, 70, 130]))
    qubits = tuple(draw(st.lists(st.integers(0, top - 1), min_size=k, max_size=k, unique=True)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    width = max(qubits) + 1 + int(rng.integers(0, 3))
    pool = [tuple(int.from_bytes(rng.bytes(17), "little") % (1 << width) for _ in "xz")
            for _ in range(int(rng.integers(1, 8)))]
    picks = rng.integers(0, len(pool), int(rng.integers(0, 12)))  # repeats on purpose
    real = draw(st.booleans())
    terms = [(float(rng.standard_normal()) if real else complex(*rng.standard_normal(2)),
              *pool[i]) for i in picks.tolist()]
    kind = draw(st.sampled_from(["dense", "thinned", "strings"]))
    if kind == "strings":
        hermitian = [(c.real if isinstance(c, complex) else c, x, z) for c, x, z in terms]
        block = reference_restricted_block(
            [(c, PauliString(width, x, z)) for c, x, z in hermitian], qubits)
    else:
        m = rng.standard_normal((1 << k, 1 << k)) + 1j * rng.standard_normal((1 << k, 1 << k))
        if kind == "thinned":
            m *= rng.random((1 << k, 1 << k)) < 0.3
        block = (m + m.conj().T) / 2
    return qubits, block, width, terms


class TestTransformsMatchFormerPaths:
    """Both transforms on register masks against the former PauliString paths, bit for bit."""

    @seed(20261019)
    @settings(max_examples=200, deadline=None)
    @given(case=blocks_on_qubits())
    def test_blocks_and_strings_both_ways(self, case):
        qubits, block, width, terms = case
        assert_same_triples(pauli_masks(block, qubits), reference_pauli_masks(block, qubits))
        got = dense_sum(terms, qubits)
        want = reference_restricted_block(
            [(c, PauliString(width, x, z)) for c, x, z in terms], qubits)
        assert got.tobytes() == want.tobytes()
        k = len(qubits)
        assert [(c, s.x, s.z) for c, s in pauli_project(block, k)] == [
            (c, s.x, s.z) for c, s in reference_pauli_project(block, k)]

    @seed(20261019)
    @settings(max_examples=60, deadline=None)
    @given(h=pauli_sums(max_qubits=6))
    def test_to_matrix_and_string_to_dense(self, h):
        terms = [(c, s) for s, c in h.terms.items()]
        want = reference_dense_sum([(h.constant, PauliString.identity(h.n)), *terms], h.n)
        assert h.to_matrix().tobytes() == want.tobytes()
        for _, s in terms:
            assert string_to_dense(s).tobytes() == reference_dense_sum([(1.0, s)], s.n).tobytes()

    def test_cap_is_refused_before_allocating(self):
        with pytest.raises(ResourceError):
            dense_sum([(1.0, 1, 0)], range(DENSE_QUBIT_CAP + 1))


class TestTextFormat:
    def test_round_trip(self):
        text = "0.5 X0 Z3\n-1.25 Y1\n2.0\n# comment\n0.125 Z0 Z1 Z2\n"
        h = parse_pauli_text(text)
        again = parse_pauli_text(format_pauli_text(h), n=h.n)
        assert again == h

    @seed(20261018)
    @settings(max_examples=100, deadline=None)
    @given(h=pauli_sums(max_qubits=10))
    def test_round_trip_random_sums(self, h):
        text = format_pauli_text(h)
        again = parse_pauli_text(text, n=h.n)
        assert again == h
        assert format_pauli_text(again) == text

    def test_identity_line_and_inferred_n(self):
        h = parse_pauli_text("3.5\n1.0 X2\n")
        assert h.n == 3 and h.constant == 3.5

    def test_parse_errors_carry_line_numbers(self):
        with pytest.raises(ParseError) as err:
            parse_pauli_text("1.0 X0\nbogus X1\n")
        assert "line 2" in str(err.value)
        with pytest.raises(ParseError):
            parse_pauli_text("1.0 Q0\n")
        with pytest.raises(ParseError):
            parse_pauli_text("nan X0\n")

    @pytest.mark.parametrize("text, n, error, message", [
        ("1.0 X0\nbogus X1\n", None, ParseError, "line 2: bad coefficient 'bogus'"),
        ("1.0 Q0\n", None, ParseError, "line 1: bad factor 'Q0'"),
        ("1.0 X\n", None, ParseError, "line 1: bad factor 'X'"),
        ("nan X0\n", None, ParseError, "line 1: non-finite coefficient 'nan'"),
        ("1e999 Z0\n", None, ParseError, "line 1: non-finite coefficient '1e999'"),
        ("1.0 Xa\n", None, ParseError, "line 1: bad qubit index in 'Xa'"),
        ("1.0 X-2\n", None, ParseError, "line 1: negative qubit index in 'X-2'"),
        ("1.0 X0 X0\n# c\n2.0 Z1\nbad\n", None, ParseError, "line 4: bad coefficient 'bad'"),
        ("1.0 Z0 I0 Z0\n", None, DataError, "qubit 0 assigned twice"),
        ("1.0 X0\n2.0 Z0 Z0\n3.0 Y7\n", 4, DataError, "qubit index 7 out of range for n=4"),
        # Numbers take ASCII digits only: int() and float() also read `_` and other digits.
        ("0.5 X1_0 Z0\n", None, ParseError, "line 1: bad qubit index in 'X1_0'"),
        ("1.0\n1_0.5 X0\n", None, ParseError, "line 2: bad coefficient '1_0.5'"),
        ("\u0661 X0\n", None, ParseError, "line 1: bad coefficient '\u0661'"),
        ("1.0 X\u0661\n", None, ParseError, "line 1: bad qubit index in 'X\u0661'"),
        ("1.0 X+1\n", None, ParseError, "line 1: bad qubit index in 'X+1'"),
        ("1.0 X-0\n", None, ParseError, "line 1: bad qubit index in 'X-0'"),
    ])
    def test_errors_keep_class_message_and_line(self, text, n, error, message):
        with pytest.raises(error) as err:
            parse_pauli_text(text, n)
        assert type(err.value) is error and str(err.value) == message

    def test_out_of_range_with_explicit_n(self):
        with pytest.raises(DataError):
            parse_pauli_text("1.0 X5\n", n=2)

    def test_deterministic_format(self):
        h = parse_pauli_text("0.5 X0\n0.5 Z0\n-2.0 Y1\n")
        assert format_pauli_text(h) == format_pauli_text(h.simplified())


class TestTableBuildsAgree:
    """Pairs, text and the loop the table replaced give the same sum, past one mask word too."""

    @staticmethod
    def same(a: PauliSum, b: PauliSum) -> bool:
        return (a.n == b.n and list(a.terms) == list(b.terms)
                and np.array(list(a.terms.values())).tobytes()
                == np.array(list(b.terms.values())).tobytes()
                and np.float64(a.constant).tobytes() == np.float64(b.constant).tobytes()
                and a.sorted_strings().tobytes() == b.sorted_strings().tobytes())

    @seed(20261020)
    @settings(max_examples=200, deadline=None)
    @given(case=pauli_pairs())
    def test_pairs_text_and_loop(self, case):
        n, pairs, constant = case
        from_pairs = PauliSum(n, pairs, constant)
        terms, const = reference_pauli_sum(pairs, constant)
        assert list(from_pairs.terms.items()) == list(terms.items())
        assert np.float64(from_pairs.constant).tobytes() == np.float64(const).tobytes()
        text = "".join(f"{c!r} {' '.join(f'{s.letter(q)}{q}' for q in s.support())}\n"
                       for c, s in [(constant, PauliString(n, 0, 0)), *pairs])
        assert self.same(parse_pauli_text(text, n), from_pairs)
        again = parse_pauli_text(format_pauli_text(from_pairs), n)
        assert again == from_pairs and format_pauli_text(again) == format_pauli_text(from_pairs)
        keys = np.hstack([from_pairs.strings()["x"], from_pairs.strings()["z"]])
        table = PauliSum.from_keys(n, [(from_pairs.strings()["c"], keys)])
        assert list(table.terms.items()) == list(from_pairs.terms.items())

    @pytest.mark.parametrize("n", [0, 3, 130])
    def test_no_chunks_is_the_empty_sum(self, n):
        h = PauliSum.from_keys(n, [])
        assert h == PauliSum(n) and len(h) == 0 and h.constant == 0.0
        assert h.strings().dtype == string_dtype(n) and format_pauli_text(h) == "0.0\n"
