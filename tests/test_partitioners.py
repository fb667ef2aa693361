"""Partitioning algorithms: grouping baselines, greedy matching, blocking,
index reordering, edge coloring, and the structure-aware bosonic methods."""

import json
import tracemalloc
from functools import reduce
from itertools import accumulate
from operator import or_
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from conftest import (ILLUSTRATIVE_FC_GROUPS, letter_term, pauli_sums, random_integrals,
                      reference_expansion, reference_pauli_factor, reference_pauli_term,
                      reference_terms, string_triples, vib_couplings, VIB_OMEGA)
from hampart import fragments, partitioners
from hampart.encodings import (
    encode_boson_operator,
    jordan_wigner,
)
from hampart.errors import DataError, DomainError, ResourceError
from hampart.fragments import (
    Fragment,
    Partition,
    TensorFactor,
    TensorProductTerm,
    fragment_matrix,
    partition_to_json,
    pauli_sum_from_fragment,
    unit_factor,
)
from hampart.operators import (
    BosonOperator,
    FermionOperator,
    Lattice,
    build_bose_hubbard,
    build_fermi_hubbard,
    build_vibrational,
    chain_lattice,
    cubic_lattice,
    fermion_from_integrals,
    hexagonal_lattice,
    square_lattice,
    tetrahedral_lattice,
    triangular_lattice,
)
from hampart.partitioners import (
    blocking_partition,
    color_partition_bose_hubbard,
    color_partition_fermi_hubbard_1d,
    edge_coloring,
    greedy_partition,
    is_proper_edge_coloring,
    misra_gries,
    ordering_cost,
    permute_modes,
    qp_partition_vibrational,
    qpn_partition,
    reorder_indices,
    sorted_insertion,
)
from hampart.pauli import (
    DENSE_QUBIT_CAP,
    PauliString,
    PauliSum,
    commutes,
    mask_ints,
    mask_words,
    pauli_matrix,
    string_array,
    string_dtype,
    string_to_dense,
)
from hampart.validators import (
    check_commutation,
    check_locality,
    check_reconstruction,
    validate_partition,
)
from hampart.variance import fragment_variance, partition_costs, random_state, state_block


def ps(letters):
    return PauliString.from_letters(letters)


def fragment_letter_set(frag, n):
    h = pauli_sum_from_fragment(frag, n)
    return {s.letters for s in h.terms}


class TestSortedInsertion:
    def test_illustrative_full_commutation(self, illustrative_hamiltonian):
        part = sorted_insertion(illustrative_hamiltonian, "full")
        assert len(part.fragments) == 5
        got = {frozenset(fragment_letter_set(f, 4)) for f in part.fragments}
        want = {frozenset(g) for g in ILLUSTRATIVE_FC_GROUPS}
        assert got == want
        assert check_reconstruction(part, illustrative_hamiltonian) < 1e-12

    def test_single_term(self):
        h = PauliSum(2, [(1.0, ps("XY"))])
        assert len(sorted_insertion(h, "full").fragments) == 1
        assert len(sorted_insertion(h, "qubitwise").fragments) == 1

    def test_xx_yy_split(self):
        h = PauliSum(2, [(1.0, ps("XX")), (1.0, ps("YY"))])
        assert len(sorted_insertion(h, "qubitwise").fragments) == 2
        assert len(sorted_insertion(h, "full").fragments) == 1

    def test_bad_kind(self):
        with pytest.raises(DomainError):
            sorted_insertion(PauliSum(1, [(1.0, ps("X"))]), "bogus")

    def test_constant_passes_through(self, illustrative_hamiltonian):
        part = sorted_insertion(illustrative_hamiltonian, "full")
        assert part.constant == illustrative_hamiltonian.constant == 1.0


class TestGreedy:
    def test_valid_k1_matching(self):
        # { a XXZ, b XXY } shares letters everywhere but the last qubit.
        h = PauliSum(3, [(2.0, ps("XXZ")), (1.0, ps("XXY"))])
        part = greedy_partition(h, 1)
        assert len(part.fragments) == 1
        assert len(part.fragments[0].terms) == 1
        assert check_reconstruction(part, h) < 1e-12
        sizes = {f.size for f in part.fragments[0].terms[0].factors}
        assert sizes == {1}

    def test_invalid_k1_two_fragments(self):
        # Mismatch on two qubits forces a second fragment at k=1.
        h = PauliSum(4, [(2.0, ps("IXXZ")), (1.0, ps("XXXY"))])
        part = greedy_partition(h, 1)
        assert len(part.fragments) == 2
        assert check_reconstruction(part, h) < 1e-12

    def test_k1_another_valid_pair(self):
        h = PauliSum(3, [(2.0, ps("IZI")), (1.0, ps("IXI"))])
        part = greedy_partition(h, 1)
        assert len(part.fragments) == 1

    def test_k_equals_n_single_fragment(self, illustrative_hamiltonian):
        part = greedy_partition(illustrative_hamiltonian, 4)
        assert len(part.fragments) == 1
        assert len(part.fragments[0].terms) == 1
        assert check_reconstruction(part, illustrative_hamiltonian) < 1e-12

    def test_k_out_of_range(self):
        h = PauliSum(2, [(1.0, ps("XX"))])
        for k in (0, 3):
            with pytest.raises(DomainError):
                greedy_partition(h, k)

    def test_disjoint_new_set_in_same_fragment(self):
        # Z0Z1 then X2X3: disjoint supports share fragment 0 as separate sets.
        h = PauliSum(4, [(2.0, ps("ZZII")), (1.0, ps("IIXX"))])
        part = greedy_partition(h, 1)
        assert len(part.fragments) == 1
        assert len(part.fragments[0].terms) == 2

    def test_locality_and_commutation(self, illustrative_hamiltonian):
        for k in (1, 2, 3):
            part = greedy_partition(illustrative_hamiltonian, k)
            assert check_locality(part, k)
            assert check_commutation(part) < 1e-10
            assert check_reconstruction(part, illustrative_hamiltonian) < 1e-12

    def test_reconstruction_random_sums(self):
        rng = np.random.default_rng(55)
        letters = "IXYZ"
        for trial in range(10):
            n = int(rng.integers(2, 6))
            terms = []
            for _ in range(int(rng.integers(3, 12))):
                s = "".join(letters[i] for i in rng.integers(0, 4, n))
                terms.append((float(rng.standard_normal()), ps(s)))
            h = PauliSum(n, terms, float(rng.standard_normal()))
            k = int(rng.integers(1, n + 1))
            part = greedy_partition(h, k)
            assert check_reconstruction(part, h) < 1e-12
            assert check_locality(part, k)
            assert check_commutation(part) < 1e-10


class TestBlocking:
    def test_window_example(self):
        h = PauliSum(4, [(1.0, ps("ZZII")), (1.0, ps("IIZZ")), (1.0, ps("IZZI"))])
        part = blocking_partition(h, 2)
        assert len(part.fragments) == 2
        labels = [f.label for f in part.fragments]
        assert labels == ["blocking-k2-offset0", "blocking-k2-offset1"]
        assert len(part.fragments[0].terms) == 2  # (0,1) and (2,3) windows
        assert len(part.fragments[1].terms) == 1
        assert check_reconstruction(part, h) < 1e-12

    def test_wide_term_goes_to_residual(self):
        h = PauliSum(4, [(1.0, ps("ZIIZ")), (1.0, ps("ZZII"))])
        part = blocking_partition(h, 2)
        assert any(f.label.startswith("blocking-residual") for f in part.fragments)
        assert check_reconstruction(part, h) < 1e-12

    def test_k_equals_n(self, illustrative_hamiltonian):
        part = blocking_partition(illustrative_hamiltonian, 4)
        assert len(part.fragments) == 1
        assert check_reconstruction(part, illustrative_hamiltonian) < 1e-12

    def test_k_out_of_range(self):
        h = PauliSum(2, [(1.0, ps("XX"))])
        with pytest.raises(DomainError):
            blocking_partition(h, 0)

    def test_locality(self, illustrative_hamiltonian):
        for k in (1, 2, 3):
            part = blocking_partition(illustrative_hamiltonian, k)
            assert check_locality(part, k)
            assert check_reconstruction(part, illustrative_hamiltonian) < 1e-12


class TestDenseBlockCap:
    @pytest.mark.parametrize("method", [greedy_partition, blocking_partition])
    def test_oversized_block_raises_before_allocating(self, method):
        # Factors keep their Pauli strings, so building the partition allocates no block; the
        # one 2^n x 2^n block of the two strings (1 GiB) is refused when JSON realizes it.
        n = DENSE_QUBIT_CAP + 1
        h = PauliSum(n, [(1.0, ps("X" * n)), (0.5, ps("Z" * n))])
        tracemalloc.start()
        try:
            part = method(h, n)
            build_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            with pytest.raises(ResourceError):
                partition_to_json(part)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert build_peak < 1 << 20
        assert peak < 1 << 20


# ---------------------------------------------------------------------------
# Pairwise reference placement loops: the library places every term with a few
# array expressions over uint64 masks, and must place exactly as these do.


def reference_sorted_insertion_groups(h: PauliSum, kind: str):
    """Greedy grouping: descending |c|, first group whose members all commute."""
    groups = []
    for coeff, string in h.items_sorted():
        for group in groups:
            if all(commutes(string, other, kind) for _, other in group):
                group.append((coeff, string))
                break
        else:
            groups.append([(coeff, string)])
    return groups


def reference_group_ids(h: PauliSum, kind: str) -> np.ndarray:
    """The group of each term of h.items_sorted() under reference_sorted_insertion_groups."""
    group = {s: g for g, members in enumerate(reference_sorted_insertion_groups(h, kind))
             for _, s in members}
    return np.array([group[s] for _, s in h.items_sorted()], dtype=np.intp)


def reference_group_ids_of(xs, zs, n: int, kind: str) -> np.ndarray:
    """reference_group_ids of the n-qubit strings (x, z) in their given order: a stand-in for
    partitioners._insertion_groups."""
    items = [(1.0, PauliString(n, x, z)) for x, z in zip(mask_ints(xs), mask_ints(zs))]
    return reference_group_ids(SimpleNamespace(items_sorted=lambda: items), kind)


def insertion_group_ids(h: PauliSum, kind: str) -> np.ndarray:
    """partitioners._insertion_groups of h's sorted strings: the group of each of items_sorted."""
    strings = h.sorted_strings()
    return partitioners._insertion_groups(strings["x"], strings["z"], h.n, kind)


def random_sum(n: int, size: int, seed: int) -> PauliSum:
    """`size` distinct random strings on n qubits, coefficients spread so few tie."""
    rng = np.random.default_rng(seed)
    masks = rng.integers(0, (1 << n) - 1, (3 * size, 2), dtype=np.uint64, endpoint=True)
    strings = {PauliString(n, int(x), int(z)) for x, z in masks}
    strings.discard(PauliString.identity(n))
    return PauliSum(n, [(float(c), s) for c, s in zip(rng.normal(size=size), sorted(
        strings, key=lambda s: (s.x, s.z))[:size])])


class TestSortedInsertionMatchesReferenceLoop:
    @pytest.mark.parametrize("size", [0, 1, 2, 63, 64, 65, 127, 128, 129, 192])
    @pytest.mark.parametrize("kind", ["full", "qubitwise"])
    def test_groups_around_word_boundaries(self, kind, size):
        # The full kind keeps one bit per term: sizes straddle the 64-term words.
        h = random_sum(6, size, seed=size)
        assert len(h) == size
        assert insertion_group_ids(h, kind).tolist() == reference_group_ids(h, kind).tolist()

    @pytest.mark.parametrize("n", [0, 3])
    @pytest.mark.parametrize("kind", ["full", "qubitwise"])
    def test_empty_sum_has_no_fragments(self, kind, n):
        part = sorted_insertion(PauliSum(n, [], 0.5), kind)
        assert part.fragments == () and part.constant == 0.5

    @pytest.mark.parametrize("kind", ["full", "qubitwise"])
    def test_groups_on_64_qubits(self, kind):
        h = random_sum(64, 150, seed=64)
        assert insertion_group_ids(h, kind).tolist() == reference_group_ids(h, kind).tolist()

    @pytest.mark.parametrize("kind", ["full", "qubitwise"])
    def test_fragment_strings_are_slices_of_one_array(self, kind):
        part = sorted_insertion(random_sum(5, 70, seed=5), kind)
        base = part.fragments[0].strings.base
        assert base is not None and not base.flags.writeable and len(part.fragments) > 1
        assert all(frag.strings.base is base for frag in part.fragments)


class _MatchSet:
    """Strings sharing letters everywhere except at most k free qubits."""

    __slots__ = ("members", "ref", "free_mask", "support_mask")

    def __init__(self, coeff: float, string: PauliString):
        self.members = [(coeff, string)]
        self.ref = string
        self.free_mask = 0
        self.support_mask = string.support_mask

    def free_with(self, string: PauliString) -> int:
        differ = (self.ref.x ^ string.x) | (self.ref.z ^ string.z)
        return self.free_mask | differ

    def add(self, coeff: float, string: PauliString):
        self.free_mask = self.free_with(string)
        self.support_mask |= string.support_mask
        self.members.append((coeff, string))


def _match_set_term(w: _MatchSet, n: int) -> TensorProductTerm:
    """Matched non-identity qubits become fixed 1-qubit factors; free qubits
    form a single dense block holding the coefficients."""
    free = tuple(q for q in range(n) if (w.free_mask >> q) & 1)
    factors = []
    if not free:
        coeff, string = w.members[0]
        return letter_term(coeff, string)
    for q in w.ref.support():
        if q not in free:
            factors.append(TensorFactor((q,), pauli_matrix(w.ref.letter(q))))
    block = sum(coeff * string_to_dense(PauliString.from_letters("".join(
        string.letter(q) for q in free))) for coeff, string in w.members)
    factors.append(TensorFactor(free, block))
    return TensorProductTerm(factors)


def reference_greedy_sets(h: PauliSum, k: int) -> list[list[_MatchSet]]:
    """Descending-|c| term placement with at most k mismatched qubits per set.

    A term joins the first match set where the mismatch stays within k and
    the set's support stays disjoint from its siblings; otherwise it opens a
    new set in the first fragment whose sets it does not touch; otherwise a
    new fragment.
    """
    fragments = []
    for coeff, string in h.items_sorted():
        placed = False
        for frag in fragments:
            for w in frag:
                if w.free_with(string).bit_count() > k:
                    continue
                grown = w.support_mask | string.support_mask
                if any(grown & other.support_mask for other in frag if other is not w):
                    continue
                w.add(coeff, string)
                placed = True
                break
            if placed:
                break
            if all(string.support_mask & w.support_mask == 0 for w in frag):
                frag.append(_MatchSet(coeff, string))
                placed = True
                break
        if not placed:
            fragments.append([_MatchSet(coeff, string)])
    return fragments


def reference_greedy_partition(h: PauliSum, k: int) -> Partition:
    """reference_greedy_sets with each set's free block built densely."""
    out = [
        Fragment(tuple(_match_set_term(w, h.n) for w in frag), f"greedy-k{k}-{i}")
        for i, frag in enumerate(reference_greedy_sets(h, k))
    ]
    return Partition(h.n, tuple(out), h.constant, source=f"greedy(k={k})")


def assert_same_partition(got: Partition, want: Partition):
    """Same fragments in the same order, same labels, and bit-identical factor blocks."""
    assert (got.n, got.constant, got.source) == (want.n, want.constant, want.source)
    assert [f.label for f in got.fragments] == [f.label for f in want.fragments]
    for fg, fw in zip(got.fragments, want.fragments):
        assert len(fg.terms) == len(fw.terms), fg.label
        for tg, tw in zip(fg.terms, fw.terms):
            assert [f.qubits for f in tg.factors] == [f.qubits for f in tw.factors], fg.label
            for a, b in zip(tg.factors, tw.factors):
                assert a.block.tobytes() == b.block.tobytes(), fg.label


@st.composite
def tied_pauli_sums(draw):
    """Random sums on 2-10 qubits whose coefficients repeat, so that ties in |c|
    exercise the letter-order tie-break of the placement order."""
    n = draw(st.integers(2, 10))
    coeffs = st.sampled_from([1.0, -1.0, 0.5, -0.5, 0.25, 0.125])
    terms = draw(st.lists(st.tuples(coeffs, st.text("IXYZ", min_size=n, max_size=n)),
                          min_size=1, max_size=30))
    return PauliSum(n, [(c, PauliString.from_letters(s)) for c, s in terms], draw(coeffs))


class TestPlacementMatchesReferenceLoops:
    @seed(20261018)
    @settings(max_examples=60, deadline=None)
    @given(h=tied_pauli_sums())
    def test_vectorized_placement_equals_pairwise_loops(self, h):
        for k in range(1, h.n + 1):
            assert_same_partition(greedy_partition(h, k), reference_greedy_partition(h, k))
        vectorized = [sorted_insertion(h, "full"), sorted_insertion(h, "qubitwise")]
        vectorized += [blocking_partition(h, k) for k in (2, 3) if k <= h.n]
        with mock.patch.object(partitioners, "_insertion_groups", reference_group_ids_of):
            reference = [sorted_insertion(h, "full"), sorted_insertion(h, "qubitwise")]
            reference += [blocking_partition(h, k) for k in (2, 3) if k <= h.n]
        for got, want in zip(vectorized, reference):
            assert_same_partition(got, want)

    @pytest.mark.parametrize("n", [63, 64, 65, 127, 128, 129])
    def test_string_built_partitions_across_word_boundaries(self, n):
        # Sparse strings on the qubits next to each 64-qubit word boundary, against the pairwise
        # loops: the same JSON, and the same held strings read back as Python-int masks.
        h = boundary_sum(n, 40, seed=n)
        kinds = [("full", "fc-si"), ("qubitwise", "qwc-si")]
        pairs = [(sorted_insertion(h, kind), Partition(h.n, tuple(reference_pauli_group_fragments(
            h, reference_group_ids(h, kind), label)), h.constant, f"{label}(n={h.n})"))
                 for kind, label in kinds]
        pairs += [(greedy_partition(h, k), reference_string_greedy_partition(h, k))
                  for k in (1, 2, 3)]
        pairs += [(blocking_partition(h, k), reference_blocking_partition(h, k)) for k in (1, 2, 3)]
        for got, want in pairs:
            assert json.dumps(partition_to_json(got)) == json.dumps(partition_to_json(want))
            assert [string_triples(f.strings) for f in got.fragments] == [
                string_triples(f.strings) for f in want.fragments], got.source
            assert_same_bytes(got, want)


def boundary_sum(n: int, size: int, seed: int) -> PauliSum:
    """`size` random strings of weight 1 to 4 on n qubits, most of their letters within 3 qubits
    of a 64-qubit word boundary or the register's end, coefficients spread so few tie."""
    rng = np.random.default_rng(seed)
    edges = sorted({q for b in (0, 64, 128, n) for q in range(b - 3, b + 3) if 0 <= q < n})
    terms = []
    for c in rng.normal(size=size):
        pool = edges if rng.random() < 0.8 else range(n)
        qubits = rng.choice(pool, size=rng.integers(1, 5), replace=False)
        terms.append((float(c), PauliString.from_ops(
            ((int(q), "XYZ"[rng.integers(3)]) for q in sorted(set(qubits.tolist()))), n)))
    return PauliSum(n, terms)


def assert_strings_are_the_expansion(part: Partition):
    """Every fragment carries the expansion of the masks of the terms its sets built before
    (reference_expansion of reference_terms): same keys in the same order, bitwise-equal
    coefficients (signed zeros included)."""
    for frag in part.fragments:
        coeffs = reference_expansion(reference_terms(frag))
        got = frag.strings
        assert [(x, z) for _, x, z in string_triples(got)] == list(coeffs), frag.label
        want = np.array(list(coeffs.values()), dtype=complex)
        assert got["c"].tobytes() == want.tobytes(), frag.label
        assert not got.flags.writeable


def string_built_partitions(h: PauliSum) -> list[Partition]:
    parts = [sorted_insertion(h, "full"), sorted_insertion(h, "qubitwise")]
    parts += [greedy_partition(h, k) for k in range(1, h.n + 1)]
    return parts + [blocking_partition(h, k) for k in (1, 2, 3) if k <= h.n]


class TestFragmentStrings:
    @seed(20261019)
    @settings(max_examples=60, deadline=None)
    @given(h=pauli_sums(max_qubits=8))
    def test_strings_are_the_expansion(self, h):
        for part in string_built_partitions(h):
            assert_strings_are_the_expansion(part)

    def test_electronic_instance(self):
        ints = random_integrals(4, np.random.default_rng([3, 4]))
        h = jordan_wigner(fermion_from_integrals(ints))
        assert (h.n, len(h)) == (8, 360)
        for part in string_built_partitions(h):
            assert_strings_are_the_expansion(part)

    @pytest.mark.parametrize("sites", range(2, 9))
    def test_fh1d_chains(self, sites):
        f = build_fermi_hubbard(chain_lattice(sites), 1.0, 2.0)
        assert_strings_are_the_expansion(color_partition_fermi_hubbard_1d(jordan_wigner(f), sites))

    def test_fh1d_costs_equal_strings_set_by_scoring(self):
        # Strings held from the build score to the bytes of strings the scorer expands itself.
        h = jordan_wigner(build_fermi_hubbard(chain_lattice(6), 1.0, 2.0))
        part = color_partition_fermi_hubbard_1d(h, 6)
        bare = Partition(part.n, [Fragment(f.terms, f.label) for f in part.fragments],
                         part.constant)
        block = state_block([random_state(part.n, s) for s in range(3)])
        for got, want in zip(partition_costs(part, block), partition_costs(bare, block)):
            assert got.tobytes() == want.tobytes()
        assert all(f.strings is not None for f in bare.fragments)


# ---------------------------------------------------------------------------
# The per-method fragment builders that string_fragment and the window router replaced, kept
# verbatim: greedy, blocking and fh1d must write the same partition JSON and strings bytes.


def reference_match_set_term(members, free_mask: int, n: int) -> TensorProductTerm:
    """Matched non-identity qubits become fixed 1-qubit factors (the first member's
    letters); free qubits form a single dense block holding the coefficients."""
    free = tuple(q for q in range(n) if (free_mask >> q) & 1)
    ref = members[0][1]
    if not free:
        return reference_pauli_term(*members[0])
    factors = [unit_factor(q, ref.letter(q)) for q in ref.support() if q not in free]
    return TensorProductTerm(factors + [reference_pauli_factor(members, free)])


def reference_held_strings(items, n: int) -> np.ndarray:
    """Fragment.strings of the weighted strings (c, s) a fragment's terms hold, in order."""
    return string_array(((c, s.x, s.z) for c, s in items), n)


def reference_string_greedy_partition(h: PauliSum, k: int) -> Partition:
    """The sets of reference_greedy_sets, each a reference_match_set_term."""
    out = [Fragment(tuple(reference_match_set_term(w.members, w.free_mask, h.n) for w in frag),
                    f"greedy-k{k}-{i}",
                    reference_held_strings((item for w in frag for item in w.members), h.n))
           for i, frag in enumerate(reference_greedy_sets(h, k))]
    return Partition(h.n, tuple(out), h.constant, source=f"greedy(k={k})")


def reference_window_of(o: int, k: int, n: int, low: int, high: int) -> tuple[int, int] | None:
    """Window of the offset-o basis containing qubits [low, high], if any."""
    if low < o:
        return None
    start = o + ((low - o) // k) * k
    end = min(start + k, n)
    if high < end:
        return (start, end)
    return None


# The eager fragment builders whose terms the string-built fragments now build on first read,
# kept verbatim: reading those terms must give the same partition JSON and strings bytes.
_LETTER_MATS = np.stack([pauli_matrix(letter) for letter in "IXZY"])  # by x + 2z
_built = fragments._built


def reference_string_fragment(sets, label: str, n: int) -> Fragment:
    """Fragment of one term per set (members, block mask), whose weighted strings (c, s) hold the
    first member's letters off the block: those unit letters, then one reference_pauli_factor of
    the members on the block qubits in ascending order; an empty block gives reference_pauli_term
    of its single member. Its strings are the members in set order."""
    terms, held = [], []
    for members, block in sets:
        held += members
        if not block:
            terms.append(reference_pauli_term(*members[0]))
            continue
        ref, qubits = members[0][1], tuple(q for q in range(n) if block >> q & 1)
        letters = [unit_factor(q, ref.letter(q)) for q in ref.support() if not block >> q & 1]
        terms.append(TensorProductTerm(letters + [reference_pauli_factor(members, qubits)]))
    strings = string_array(((c, s.x, s.z) for c, s in held), n)
    return Fragment(tuple(terms), label, strings)


def reference_pauli_group_fragments(h: PauliSum, gid: np.ndarray, prefix: str) -> list[Fragment]:
    """One fragment `prefix-g` of reference_pauli_terms per group id g of h's items_sorted,
    members in order. The coefficient-carrying 2x2 factors are one broadcast (N, 2, 2) product and the
    fragments' strings slices of one string_array."""
    order = np.argsort(gid, kind="stable")
    items = h.items_sorted()
    strings = np.empty(len(order), string_dtype(h.n))
    strings["c"] = [items[i][0] for i in order.tolist()]
    strings["x"], strings["z"] = (h.sorted_strings()[m][order] for m in "xz")
    strings.setflags(write=False)
    codes = np.array([[(x >> q & 1) + 2 * (z >> q & 1) for q in range(max(h.n, 1))]
                      for _, x, z in string_triples(strings)],  # a column even for 0 qubits
                     dtype=np.intp).reshape(len(order), max(h.n, 1))
    low = (codes != 0).argmax(axis=1)  # each string's first qubit and its letter carry c
    blocks = strings["c"].real[:, None, None] * _LETTER_MATS[codes[np.arange(len(low)), low]]
    blocks.setflags(write=False)
    terms = [_built(TensorProductTerm, (
        _built(TensorFactor, (first,), block, None, None),
        *(unit_factor(qubit, "IXZY"[k]) for qubit, k in enumerate(row) if k and qubit > first)))
        for first, block, row in zip(low.tolist(), blocks, codes.tolist())]
    bounds = np.searchsorted(gid[order], np.arange(gid.max(initial=-1) + 2)).tolist()
    return [Fragment(tuple(terms[a:b]), f"{prefix}-{g}", strings[a:b])
            for g, (a, b) in enumerate(zip(bounds, bounds[1:]))]


def reference_eager_sorted_insertion(h: PauliSum, kind: str) -> Partition:
    label = "fc-si" if kind == "full" else "qwc-si"
    fragments = reference_pauli_group_fragments(h, insertion_group_ids(h, kind), label)
    return Partition(h.n, tuple(fragments), h.constant, source=f"{label}(n={h.n})")


def reference_eager_greedy(h: PauliSum, k: int) -> Partition:
    """reference_greedy_sets, each fragment's sets (members, free mask) a
    reference_string_fragment."""
    out = [reference_string_fragment([(w.members, w.free_mask) for w in frag],
                                     f"greedy-k{k}-{i}", h.n)
           for i, frag in enumerate(reference_greedy_sets(h, k))]
    return Partition(h.n, tuple(out), h.constant, source=f"greedy(k={k})")


def reference_blocking_partition(h: PauliSum, k: int) -> Partition:
    """k sliding-offset bases of contiguous windows; leftovers via FC SortedInsertion."""
    if not 1 <= k <= h.n:
        raise DomainError(f"k must be in [1, {h.n}], got {k}")
    n = h.n
    assigned: dict[tuple[int, int, int], list[tuple[float, PauliString]]] = {}
    residual: list[tuple[float, PauliString]] = []
    for coeff, string in h.items_sorted():
        supp = string.support()
        low, high = supp[0], supp[-1]
        for o in range(k):
            win = reference_window_of(o, k, n, low, high)
            if win is not None:
                assigned.setdefault((o, win[0], win[1]), []).append((coeff, string))
                break
        else:
            residual.append((coeff, string))
    # Grouped first: a sum past 64 qubits is refused before any window's strings are packed.
    rest = PauliSum(n, residual)
    residual_groups = insertion_group_ids(rest, "full")
    fragments = []
    for o in range(k):
        windows = sorted(key for key in assigned if key[0] == o)
        if not windows:
            continue
        terms = []
        for key in windows:
            group = assigned[key]
            qubits = tuple(sorted({q for _, s in group for q in s.support()}))
            terms.append(TensorProductTerm((reference_pauli_factor(group, qubits),)))
        held = [item for key in windows for item in assigned[key]]
        fragments.append(Fragment(tuple(terms), f"blocking-k{k}-offset{o}",
                                  reference_held_strings(held, n)))
    fragments += reference_pauli_group_fragments(rest, residual_groups, "blocking-residual")
    return Partition(n, tuple(fragments), h.constant, source=f"blocking(k={k})")


def reference_fh1d_partition(f: FermionOperator, sites: int) -> Partition:
    """Two fragments of 2-qubit blocks on even/odd edges of an open chain, by a pair scan."""
    if sites < 2:
        raise DomainError("need at least 2 sites")
    reference_require_chain_fermi_hubbard(f, sites)
    h = jordan_wigner(f)
    even_pairs = [(i, i + 1) for i in range(0, sites - 1, 2)]
    odd_pairs = [(i, i + 1) for i in range(1, sites - 1, 2)]
    members: dict[tuple[int, int], list[tuple[float, PauliString]]] = {}
    for coeff, string in h.items_sorted():
        supp = string.support()
        for pair in even_pairs + odd_pairs:
            if set(supp) <= set(pair):
                members.setdefault(pair, []).append((coeff, string))
                break
        else:
            raise DomainError(f"term {string.letters} does not fit a chain block")
    frags = []
    for name, pairs in (("even", even_pairs), ("odd", odd_pairs)):
        pairs = [pair for pair in pairs if pair in members]
        terms = tuple(TensorProductTerm((reference_pauli_factor(members[pair], pair),))
                      for pair in pairs)
        held = reference_held_strings((item for pair in pairs for item in members[pair]), h.n)
        frags.append(Fragment(terms, f"fh1d-{name}", held))
    return Partition(h.n, tuple(frags), h.constant, source=f"fh1d(sites={sites})")


def assert_same_bytes(got: Partition, want: Partition):
    """The same partition JSON, and the same Fragment.strings bytes fragment by fragment."""
    assert json.dumps(partition_to_json(got)) == json.dumps(partition_to_json(want))
    assert len(got.fragments) == len(want.fragments)
    for a, b in zip(got.fragments, want.fragments):
        assert a.strings.dtype == b.strings.dtype, a.label
        assert a.strings.tobytes() == b.strings.tobytes(), a.label


def factor_qubits(part: Partition) -> dict[str, list[list[tuple[int, ...]]]]:
    """Each fragment's terms as the qubits of their factors, by label."""
    return {f.label: [[x.qubits for x in t.factors] for t in f.terms] for f in part.fragments}


def assert_lazy_equals_eager(got: Partition, want: Partition):
    """`got`'s fragments hold their sets, terms unbuilt, and the strings bytes of `want`'s; once
    read, its terms write `want`'s partition JSON."""
    assert [f.label for f in got.fragments] == [f.label for f in want.fragments]
    for a, b in zip(got.fragments, want.fragments):
        assert a.sets is not None and a._terms is None, a.label
        assert a.strings.dtype == b.strings.dtype, a.label
        assert a.strings.tobytes() == b.strings.tobytes(), a.label
    assert json.dumps(partition_to_json(got)) == json.dumps(partition_to_json(want))


class TestLazyTermsMatchEagerBuilders:
    @seed(20261024)
    @settings(max_examples=80, deadline=None)
    @given(h=pauli_sums(max_qubits=8))
    def test_string_built_partitions(self, h):
        for kind in ("full", "qubitwise"):
            assert_lazy_equals_eager(sorted_insertion(h, kind),
                                     reference_eager_sorted_insertion(h, kind))
        for k in range(1, h.n + 1):
            assert_lazy_equals_eager(greedy_partition(h, k), reference_eager_greedy(h, k))
        for k in (1, 2, 3):
            if k <= h.n:
                assert_lazy_equals_eager(blocking_partition(h, k),
                                         reference_blocking_partition(h, k))

    def test_electronic_instance(self):
        h = jordan_wigner(fermion_from_integrals(random_integrals(4, np.random.default_rng(5))))
        for kind in ("full", "qubitwise"):
            assert_lazy_equals_eager(sorted_insertion(h, kind),
                                     reference_eager_sorted_insertion(h, kind))
        for k in (1, 3, 5):
            assert_lazy_equals_eager(greedy_partition(h, k), reference_eager_greedy(h, k))

    @pytest.mark.parametrize("sites", [*range(2, 13), 65, 70])
    def test_fh1d_chains(self, sites):
        # 65 and 70 sites pass the 64 qubits one mask word holds.
        f = build_fermi_hubbard(chain_lattice(sites), 1.0, 2.0)
        assert_lazy_equals_eager(color_partition_fermi_hubbard_1d(jordan_wigner(f), sites),
                                 reference_fh1d_partition(f, sites))


class TestStringBuiltFragmentsKeepTheirSets:
    """SortedInsertion, greedy and blocking fragments hold their strings' sets: building them,
    constructing their Partition and scoring them make no TensorFactor or TensorProductTerm."""

    @staticmethod
    def _partitions(h):
        parts = [sorted_insertion(h, "full"), sorted_insertion(h, "qubitwise")]
        return parts + [greedy_partition(h, k) for k in (1, 3)] + [blocking_partition(h, 2)]

    def test_build_construct_and_score_make_no_terms(self, built_terms):
        h = jordan_wigner(fermion_from_integrals(random_integrals(4, np.random.default_rng(6))))
        parts = self._partitions(h)
        block = state_block([random_state(h.n, s) for s in range(2)])
        for part in parts:
            again = Partition(part.n, part.fragments, part.constant, part.source)
            partition_costs(again, block)
            fragment_variance(part.fragments[0], random_state(h.n, 9))
            assert all(f._terms is None for f in part.fragments), part.source
        assert built_terms == {}
        # The counter sees terms once they are read.
        assert len(parts[0].fragments[0].terms) > 0 and built_terms["TensorProductTerm"] > 0

    def test_out_of_range_sets_are_refused_on_their_masks(self, built_terms):
        part = greedy_partition(PauliSum(3, [(1.0, ps("XYZ")), (0.5, ps("ZZI"))]), 2)
        with pytest.raises(DataError, match="acts on qubit 2"):
            Partition(2, part.fragments)
        assert built_terms == {}


class TestStringFragmentsMatchReferenceBuilders:
    @seed(20261020)
    @settings(max_examples=60, deadline=None)
    @given(h=pauli_sums(max_qubits=8))
    def test_greedy_and_blocking(self, h):
        for k in range(1, h.n + 1):
            assert_same_bytes(greedy_partition(h, k), reference_string_greedy_partition(h, k))
        for k in (1, 2, 3):
            if k <= h.n:
                assert_same_bytes(blocking_partition(h, k), reference_blocking_partition(h, k))

    @pytest.mark.parametrize("sites", range(2, 13))
    @seed(20261020)
    @settings(max_examples=8, deadline=None)
    @given(t=st.floats(-2.0, 2.0), u=st.floats(-4.0, 4.0))
    def test_fh1d_chains(self, sites, t, u):
        f = build_fermi_hubbard(chain_lattice(sites), t, u)
        assert_same_bytes(color_partition_fermi_hubbard_1d(jordan_wigner(f), sites),
                          reference_fh1d_partition(f, sites))

    def test_electronic_instance(self):
        h = jordan_wigner(fermion_from_integrals(random_integrals(4, np.random.default_rng(3))))
        for k in (1, 3, 5):
            assert_same_bytes(greedy_partition(h, k), reference_string_greedy_partition(h, k))
        for k in (2, 3):
            assert_same_bytes(blocking_partition(h, k), reference_blocking_partition(h, k))


class TestWindowRouter:
    def test_first_holding_window_wins_and_leftovers_keep_order(self):
        items = [(1.0, ps("ZIII")), (0.5, ps("IZZI")), (0.25, ps("XIIX")), (0.125, ps("IIIY"))]
        support = mask_words([s.support_mask for _, s in items], 4)
        routed, rest = partitioners._route(support, mask_words([0b0011, 0b0110, 0b0111], 4))
        assert [rows.tolist() for rows in routed] == [[0], [1], []]
        assert rest.tolist() == [2, 3]

    def test_n_not_a_multiple_of_k(self):
        # n=5, k=2: offset 0 has windows [0, 2), [2, 4) and a last [4, 5); offset 1 has
        # [1, 3) and [3, 5).
        h = PauliSum(5, [(1.0, ps("IIIIZ")), (0.5, ps("IIIXX")), (0.25, ps("XXIII")),
                         (0.125, ps("IXXII"))])
        part = blocking_partition(h, 2)
        assert factor_qubits(part) == {"blocking-k2-offset0": [[(0, 1)], [(4,)]],
                                       "blocking-k2-offset1": [[(1, 2)], [(3, 4)]]}
        assert_same_bytes(part, reference_blocking_partition(h, 2))

    def test_string_crossing_an_offset0_boundary_fits_offset1(self):
        h = PauliSum(4, [(1.0, ps("IZZI"))])
        assert factor_qubits(blocking_partition(h, 2)) == {"blocking-k2-offset1": [[(1, 2)]]}
        # The block covers the members' support, not the whole [1, 4) window.
        h = PauliSum(6, [(1.0, ps("IIZZII"))])
        assert factor_qubits(blocking_partition(h, 3)) == {"blocking-k3-offset1": [[(2, 3)]]}

    def test_lower_offset_wins(self):
        # Qubit 2 lies in offset 0's [2, 4) and offset 1's [1, 3).
        h = PauliSum(4, [(1.0, ps("IIZI"))])
        assert factor_qubits(blocking_partition(h, 2)) == {"blocking-k2-offset0": [[(2,)]]}
        h = PauliSum(6, [(1.0, ps("IIIZII")), (0.5, ps("IIXXII"))])
        assert factor_qubits(blocking_partition(h, 3)) == {"blocking-k3-offset0": [[(3,)]],
                                                           "blocking-k3-offset1": [[(2, 3)]]}

    def test_fh1d_term_fitting_no_pair_is_named(self):
        wide = PauliSum(4, [(0.25, ps("ZZII")), (1.0, ps("XIXI")), (0.5, ps("ZIIZ"))])
        with pytest.raises(DomainError, match="term XIXI does not fit a chain block"):
            color_partition_fermi_hubbard_1d(wide, 4)


# ---------------------------------------------------------------------------
# The parent's tuple pipeline, kept verbatim: members travel as (c, PauliString) tuples, are
# grouped, routed and packed with np.fromiter. The row pipeline (rows of one sorted string
# array) must write the same partition JSON and Fragment.strings bytes.


def reference_id_sorted_insertion_groups(
        h: PauliSum, kind: str) -> list[list[tuple[float, PauliString]]]:
    """Greedy grouping: descending |c|, first group whose members all commute."""
    gid = insertion_group_ids(h, kind)
    groups: list[list[tuple[float, PauliString]]] = [[] for _ in range(gid.max(initial=-1) + 1)]
    for item, g in zip(h.items_sorted(), gid.tolist()):
        groups[g].append(item)
    return groups


def reference_route(items, windows) -> tuple[list[list], list]:
    """The weighted strings (c, s) of `items` each put in the first of `windows` (qubit masks in
    priority order) that holds its support: every window's members, and the strings left over."""
    routed, rest = [[] for _ in windows], []
    for item in items:
        support = item[1].support_mask
        for members, window in zip(routed, windows):
            if not support & ~window:
                members.append(item)
                break
        else:
            rest.append(item)
    return routed, rest


def reference_tuple_string_fragments(labelled: list, n: int) -> list[Fragment]:
    """A fragment per (label, sets) pair, each set (members, block mask) of weighted strings
    (c, s), its terms built on first read. All members, in order, are one read-only array of
    (c, x, z): each fragment's strings and each set's members are slices of it."""
    held = string_array(((c, s.x, s.z) for _, sets in labelled for members, _ in sets
                         for c, s in members), n)
    out, start = [], 0
    for label, sets in labelled:
        bounds = list(accumulate((len(members) for members, _ in sets), initial=start))
        views = tuple((held[a:b], block) for a, b, (_, block) in zip(bounds, bounds[1:], sets))
        out.append(Fragment(label=label, strings=held[start:bounds[-1]], sets=views))
        start = bounds[-1]
    return out


def reference_require_chain_fermi_hubbard(f: FermionOperator, sites: int):
    if f.modes != sites:
        raise DomainError(f"operator has {f.modes} modes but chain has {sites} sites")
    for coeff, ops in f.terms:
        if not ops:
            continue
        modes = [m for m, _ in ops]
        if len(ops) == 2:
            if abs(modes[0] - modes[1]) != 1:
                raise DomainError("hopping term is not nearest-neighbor")
        elif len(ops) == 4:
            pair = sorted(set(modes))
            if len(pair) != 2 or pair[1] - pair[0] != 1:
                raise DomainError("interaction term is not nearest-neighbor")
        else:
            raise DomainError("term is not of Fermi-Hubbard form")


def reference_color_partition_fermi_hubbard_1d(f: FermionOperator, sites: int) -> Partition:
    """Two fragments of 2-qubit blocks on even/odd edges of an open chain.

    Every term of the Jordan-Wigner image (hops, ZZ, and the single-Z and
    identity pieces of the density-density expansion) is folded into the
    first even-parity block covering its support, falling back to the odd
    fragment; reconstruction of the JW image is exact by construction.
    """
    if sites < 2:
        raise DomainError("need at least 2 sites")
    reference_require_chain_fermi_hubbard(f, sites)
    h = jordan_wigner(f)
    starts = [*range(0, sites - 1, 2), *range(1, sites - 1, 2)]  # even pairs (i, i + 1) first
    routed, rest = reference_route(h.items_sorted(), [3 << i for i in starts])
    if rest:
        raise DomainError(f"term {rest[0][1].letters} does not fit a chain block")
    sets = [[(members, 3 << i) for i, members in zip(starts, routed) if members and i % 2 == parity]
            for parity in (0, 1)]
    frags = reference_tuple_string_fragments(list(zip(("fh1d-even", "fh1d-odd"), sets)), h.n)
    return Partition(h.n, tuple(frags), h.constant, source=f"fh1d(sites={sites})")


def reference_tuple_sorted_insertion(h: PauliSum, kind: str) -> Partition:
    """The parent's sorted_insertion."""
    label = "fc-si" if kind == "full" else "qwc-si"
    groups = enumerate(reference_id_sorted_insertion_groups(h, kind))
    fragments = reference_tuple_string_fragments(
        [(f"{label}-{g}", [(members, 0)]) for g, members in groups], h.n)
    return Partition(h.n, tuple(fragments), h.constant, source=f"{label}(n={h.n})")


def reference_tuple_greedy(h: PauliSum, k: int) -> Partition:
    """The sets of reference_greedy_sets, each (members, free mask), as the parent packed them."""
    sets = [[(w.members, w.free_mask) for w in frag] for frag in reference_greedy_sets(h, k)]
    out = reference_tuple_string_fragments(
        [(f"greedy-k{k}-{i}", frag) for i, frag in enumerate(sets)], h.n)
    return Partition(h.n, tuple(out), h.constant, source=f"greedy(k={k})")


def reference_tuple_blocking(h: PauliSum, k: int) -> Partition:
    """The parent's blocking_partition: its residual rebuilt as a PauliSum and sorted again."""
    n = h.n
    spans = [(o, start) for o in range(k) for start in range(o, n, k)]
    windows = [((1 << min(k, n - start)) - 1) << start for _, start in spans]
    routed, residual = reference_route(h.items_sorted(), windows)
    residual_groups = enumerate(reference_id_sorted_insertion_groups(PauliSum(n, residual), "full"))
    sets: list[list] = [[] for _ in range(k)]
    for (o, _), members in zip(spans, routed):
        if members:
            sets[o].append((members, reduce(or_, (s.support_mask for _, s in members))))
    labelled = [(f"blocking-k{k}-offset{o}", frag) for o, frag in enumerate(sets) if frag]
    labelled += [(f"blocking-residual-{g}", [(members, 0)]) for g, members in residual_groups]
    out = reference_tuple_string_fragments(labelled, n)
    return Partition(n, tuple(out), h.constant, source=f"blocking(k={k})")


class TestRowPipelineMatchesTuplePipeline:
    @seed(20261025)
    @settings(max_examples=80, deadline=None)
    @given(h=pauli_sums(max_qubits=8))
    def test_string_built_partitions(self, h):
        for kind in ("full", "qubitwise"):
            assert_lazy_equals_eager(sorted_insertion(h, kind),
                                     reference_tuple_sorted_insertion(h, kind))
        for k in range(1, h.n + 1):
            assert_lazy_equals_eager(greedy_partition(h, k), reference_tuple_greedy(h, k))
        for k in (1, 2, 3):
            if k <= h.n:
                assert_lazy_equals_eager(blocking_partition(h, k), reference_tuple_blocking(h, k))

    def test_electronic_instance(self):
        h = jordan_wigner(fermion_from_integrals(random_integrals(4, np.random.default_rng(8))))
        for kind in ("full", "qubitwise"):
            assert_lazy_equals_eager(sorted_insertion(h, kind),
                                     reference_tuple_sorted_insertion(h, kind))
        for k in (1, 3, 8):
            assert_lazy_equals_eager(greedy_partition(h, k), reference_tuple_greedy(h, k))
            assert_lazy_equals_eager(blocking_partition(h, k), reference_tuple_blocking(h, k))

    @pytest.mark.parametrize("t, u", [(1.0, 2.0), (-0.7, 0.0)])
    @pytest.mark.parametrize("sites", [*range(2, 13), 65, 70])
    def test_fh1d_chains(self, sites, t, u):
        # 65 and 70 sites pass the 64 qubits one mask word holds.
        f = build_fermi_hubbard(chain_lattice(sites), t, u)
        assert_lazy_equals_eager(color_partition_fermi_hubbard_1d(jordan_wigner(f), sites),
                                 reference_color_partition_fermi_hubbard_1d(f, sites))

    def test_fh1d_refuses_a_sum_of_another_width(self):
        h = jordan_wigner(build_fermi_hubbard(chain_lattice(4), 1.0, 2.0))
        with pytest.raises(DomainError, match="sum has 4 qubits but chain has 5 sites"):
            color_partition_fermi_hubbard_1d(h, 5)

    def test_sorted_strings_past_64_qubits_hold_mask_words(self):
        h = PauliSum(70, [(1.0, ps("X" * 70)), (-0.5, ps("I" * 69 + "Z"))])
        strings = h.sorted_strings()
        assert strings.dtype == string_dtype(70) and not strings.flags.writeable
        assert strings["x"].tolist() == [[(1 << 64) - 1, (1 << 6) - 1], [0, 0]]
        assert strings["z"].tolist() == [[0, 0], [0, 1 << 5]]
        assert string_triples(strings) == [(1.0, (1 << 70) - 1, 0), (-0.5, 0, 1 << 69)]


def reference_ordering_cost(f: FermionOperator, perm=None) -> float:
    """The per-term loop ordering_cost ran before it read the operator's arrays, kept verbatim."""
    if perm is None:
        perm = range(f.modes)
    perm = list(perm)
    cost = 0.0
    for coeff, ops in f.terms:
        if not ops:
            continue
        idx = [perm[m] for m, _ in ops]
        cost += abs(coeff) * (max(idx) - min(idx))
    return cost


def _reordering_instances() -> dict[str, FermionOperator]:
    """An 8-orbital electronic operator, one whose terms without ops sit first, between and
    last, one with no ops at all and one with no terms."""
    empty_mixed = ((0.5, ()), (-1.25, ((0, True), (4, False))), (2.0, ()),
                   (0.3, ((3, True), (1, True), (4, False), (2, False))), (-0.0, ((2, True),)),
                   (1.5, ()))
    return {
        "electronic": fermion_from_integrals(random_integrals(4, np.random.default_rng([8, 3]))),
        "empty-terms-mixed": FermionOperator(5, empty_mixed),
        "no-ops": FermionOperator(3, ((1.0, ()), (-2.0, ()))),
        "no-terms": FermionOperator(4, ()),
    }


class TestReorderIndices:
    @pytest.mark.parametrize("name", ["electronic", "empty-terms-mixed", "no-ops", "no-terms"])
    def test_cost_bits_equal_the_loop(self, name):
        # Seeded permutations, and the identity both ways: the same float bits as the loop.
        op = _reordering_instances()[name]
        rng = np.random.default_rng(200)
        perms = [None, range(op.modes)] + [rng.permutation(op.modes).tolist() for _ in range(200)]
        for perm in perms:
            got, want = ordering_cost(op, perm), reference_ordering_cost(op, perm)
            assert type(got) is float and got.hex() == want.hex(), perm

    @pytest.mark.parametrize("seed", [0, 1, 7])
    def test_reordering_equals_the_loop(self, seed, monkeypatch):
        op = _reordering_instances()["electronic"]
        got = reorder_indices(op, seed, 300)
        monkeypatch.setattr(partitioners, "ordering_cost", reference_ordering_cost)
        assert got == reorder_indices(op, seed, 300)

    def test_single_hopping_cost_and_optimum(self):
        # One-directional t_{0,3} term: initial spread 3, optimal 1.
        op = FermionOperator(4, ((1.0, ((0, True), (3, False))),))
        assert ordering_cost(op) == 3.0
        perm, cost = reorder_indices(op, seed=3)
        assert cost == 1.0
        # Exhaustive oracle over all 24 permutations.
        from itertools import permutations

        best = min(ordering_cost(op, p) for p in permutations(range(4)))
        assert cost == best

    def test_diagonal_only_keeps_identity(self):
        op = FermionOperator(
            3, tuple((1.0, ((m, True), (m, False))) for m in range(3))
        )
        perm, cost = reorder_indices(op, seed=0)
        assert cost == 0.0
        assert perm == (0, 1, 2)

    def test_deterministic_and_never_increasing(self):
        rng = np.random.default_rng(66)
        terms = []
        for _ in range(8):
            i, j = (int(x) for x in rng.integers(0, 6, 2))
            c = float(rng.standard_normal())
            terms.append((c, ((i, True), (j, False))))
            terms.append((c, ((j, True), (i, False))))
        op = FermionOperator(6, tuple(terms))
        p1, c1 = reorder_indices(op, seed=12, halt_after=200)
        p2, c2 = reorder_indices(op, seed=12, halt_after=200)
        assert p1 == p2 and c1 == c2
        assert c1 <= ordering_cost(op)
        assert abs(ordering_cost(op, p1) - c1) < 1e-12

    def test_default_halt_after(self):
        import inspect

        sig = inspect.signature(reorder_indices)
        assert sig.parameters["halt_after"].default == 5000

    def test_halt_after_validation(self):
        op = FermionOperator(2, ((1.0, ((0, True), (1, False))),))
        with pytest.raises(DomainError):
            reorder_indices(op, seed=0, halt_after=0)

    def test_permute_modes_relabels(self):
        op = FermionOperator(3, ((1.0, ((0, True), (2, False))),))
        out = permute_modes(op, (2, 1, 0))
        assert out.terms[0][1] == ((2, True), (0, False))


class TestEdgeColoring:
    def test_table_counts_on_patches(self):
        cases = [
            (chain_lattice(6), 2),
            (square_lattice(3, 3), 4),
            (hexagonal_lattice(4, 4), 3),
            (triangular_lattice(3, 3), 6),
            (cubic_lattice(3, 3, 3), 6),
            (tetrahedral_lattice(2), 4),
        ]
        for lat, expected in cases:
            classes = edge_coloring(lat)
            assert len(classes) == expected, lat.kind
            assert is_proper_edge_coloring(classes)
            colored = {e for group in classes for e in group}
            assert colored == set(lat.edges)

    def test_single_edge(self):
        assert len(edge_coloring(chain_lattice(2))) == 1

    def test_periodic_chain_even(self):
        classes = edge_coloring(chain_lattice(6, "periodic"))
        assert len(classes) == 2
        assert is_proper_edge_coloring(classes)

    def test_periodic_chain_odd_falls_back(self):
        classes = edge_coloring(chain_lattice(5, "periodic"))
        assert is_proper_edge_coloring(classes)
        assert len(classes) == 3  # odd cycle is class 2

    def test_misra_gries_random_graphs(self):
        rng = np.random.default_rng(77)
        for trial in range(200):
            n = int(rng.integers(2, 12))
            edges = set()
            for _ in range(int(rng.integers(1, 2 * n))):
                i, j = (int(x) for x in rng.integers(0, n, 2))
                if i != j:
                    edges.add((min(i, j), max(i, j)))
            if not edges:
                continue
            classes = misra_gries(n, sorted(edges))
            assert is_proper_edge_coloring(classes), f"trial {trial}"
            colored = {e for group in classes for e in group}
            assert colored == edges
            degree = np.zeros(n, dtype=int)
            for i, j in edges:
                degree[i] += 1
                degree[j] += 1
            assert len(classes) <= degree.max() + 1

    @seed(20261018)
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_misra_gries_vizing_bound(self, data):
        n = data.draw(st.integers(2, 12))
        pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
            lambda e: e[0] != e[1])
        edges = {tuple(sorted(e)) for e in data.draw(st.lists(pairs, min_size=1, max_size=40))}
        classes = misra_gries(n, sorted(edges))
        assert is_proper_edge_coloring(classes)
        assert {e for group in classes for e in group} == edges
        degree = np.bincount(np.array(sorted(edges)).ravel(), minlength=n)
        assert len(classes) <= degree.max() + 1

    # Exact edges (in builder order), positions and coloring classes of small patches. The counts
    # and properness checked above pass under any edge order or color relabeling; these do not.
    PINNED = [
        (chain_lattice(4),
         [(0, 1), (1, 2), (2, 3)],
         [(0,), (1,), (2,), (3,)],
         [[(0, 1), (2, 3)], [(1, 2)]]),
        (chain_lattice(4, "periodic"),
         [(0, 1), (1, 2), (2, 3), (0, 3)],
         [(0,), (1,), (2,), (3,)],
         [[(0, 1), (2, 3)], [(0, 3), (1, 2)]]),
        (chain_lattice(5, "periodic"),
         [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)],
         [(0,), (1,), (2,), (3,), (4,)],
         [[(0, 1), (3, 4)], [(0, 4), (2, 3)], [(1, 2)]]),
        (square_lattice(3, 2),
         [(0, 1), (0, 3), (1, 2), (1, 4), (2, 5), (3, 4), (4, 5)],
         [(0, 0), (1, 0), (2, 0), (0, 1), (1, 1), (2, 1)],
         [[(0, 1), (3, 4)], [(1, 2), (4, 5)], [(0, 3), (1, 4), (2, 5)]]),
        (hexagonal_lattice(3, 3),
         [(0, 1), (0, 3), (1, 2), (2, 5), (3, 4), (4, 5), (4, 7), (6, 7), (7, 8)],
         [(0, 0), (1, 0), (2, 0), (0, 1), (1, 1), (2, 1), (0, 2), (1, 2), (2, 2)],
         [[(0, 1), (3, 4), (6, 7)], [(1, 2), (4, 5), (7, 8)], [(0, 3), (2, 5), (4, 7)]]),
        (triangular_lattice(3, 2),
         [(0, 1), (0, 3), (0, 4), (1, 2), (1, 4), (1, 5), (2, 5), (3, 4), (4, 5)],
         [(0, 0), (1, 0), (2, 0), (0, 1), (1, 1), (2, 1)],
         [[(0, 1), (3, 4)], [(1, 2), (4, 5)], [(0, 3), (1, 4), (2, 5)], [(0, 4)], [(1, 5)]]),
        (cubic_lattice(2, 2, 2),
         [(0, 1), (0, 2), (0, 4), (1, 3), (1, 5), (2, 3), (2, 6), (3, 7), (4, 5), (4, 6),
          (5, 7), (6, 7)],
         [(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0), (0, 0, 1), (1, 0, 1), (0, 1, 1),
          (1, 1, 1)],
         [[(0, 1), (2, 3), (4, 5), (6, 7)], [(0, 2), (1, 3), (4, 6), (5, 7)],
          [(0, 4), (1, 5), (2, 6), (3, 7)]]),
        (tetrahedral_lattice(1),
         [(4, 8), (4, 6), (1, 4), (0, 4), (5, 10), (5, 8), (3, 5), (2, 5), (11, 15), (11, 13),
          (8, 11), (7, 11), (12, 16), (12, 14), (9, 12), (8, 12)],
         [(-1, -1, 1), (-1, 1, -1), (-1, 1, 3), (-1, 3, 1), (0, 0, 0), (0, 2, 2), (1, -1, -1),
          (1, -1, 3), (1, 1, 1), (1, 3, -1), (1, 3, 3), (2, 0, 2), (2, 2, 0), (3, -1, 1),
          (3, 1, -1), (3, 1, 3), (3, 3, 1)],
         [[(4, 8), (5, 10), (11, 15), (12, 16)], [(4, 6), (5, 8), (11, 13), (12, 14)],
          [(1, 4), (3, 5), (8, 11), (9, 12)], [(0, 4), (2, 5), (7, 11), (8, 12)]]),
    ]

    @pytest.mark.parametrize("lat, edges, positions, classes", PINNED, ids=[
        "chain-open-4", "chain-periodic-4", "chain-periodic-5", "square-3x2", "hexagonal-3x3",
        "triangular-3x2", "cubic-2x2x2", "tetrahedral-1"])
    def test_pinned_geometry_and_classes(self, lat, edges, positions, classes):
        assert list(lat.edges) == edges
        assert list(lat.positions) == positions
        assert edge_coloring(lat) == classes

    @pytest.mark.parametrize("lat", [
        Lattice("hexagonal", 3, ((0, 1), (1, 2)), "open", ((0, 0), (0, 1), (0, 2))),
        Lattice("chain", 4, chain_lattice(4, "periodic").edges + ((0, 2),), "periodic",
                chain_lattice(4).positions),
    ], ids=["stacked-hexagonal-rungs", "periodic-chain-with-chord"])
    def test_improper_direction_classes_fall_back(self, lat):
        # Both edges of each lattice's shared site fall in one direction class (two rungs; the
        # chord and the wrap edge); the coloring must come from Misra-Gries instead.
        classes = edge_coloring(lat)
        assert is_proper_edge_coloring(classes)
        assert classes == misra_gries(lat.sites, lat.edges)

    def test_custom_lattice_uses_misra_gries(self):
        lat = Lattice("custom", 4, ((0, 1), (1, 2), (2, 3), (3, 0), (0, 2)))
        classes = edge_coloring(lat)
        assert is_proper_edge_coloring(classes)
        assert len(classes) <= lat.degree() + 1


class TestColorPartitionBoseHubbard:
    def test_two_site_single_edge(self):
        lat = chain_lattice(2)
        b = build_bose_hubbard(lat, 1.0, 2.0, 4)
        part = color_partition_bose_hubbard(b, lat)
        assert len(part.fragments) == 2  # one hop color + diagonal
        enc = encode_boson_operator(b)
        assert check_reconstruction(part, enc.pauli) < 1e-10

    def test_four_site_chain_three_fragments(self):
        lat = chain_lattice(4)
        b = build_bose_hubbard(lat, 1.0, 2.0, 4)
        part = color_partition_bose_hubbard(b, lat)
        assert len(part.fragments) == 3  # 2 colors + diagonal
        enc = encode_boson_operator(b)
        assert check_reconstruction(part, enc.pauli) < 1e-10
        assert check_commutation(part) < 1e-10
        # hop factors span two modes: k = 2 * k_mode
        assert part.max_factor_size() == 4

    def test_non_power_of_two_truncation(self):
        lat = chain_lattice(3)
        b = build_bose_hubbard(lat, 1.0, 2.0, 3)
        part = color_partition_bose_hubbard(b, lat)
        enc = encode_boson_operator(b)
        assert check_reconstruction(part, enc.pauli) < 1e-10

    def test_operator_lattice_mismatch(self):
        lat = chain_lattice(3)
        b = build_bose_hubbard(lat, 1.0, 2.0, 4)
        with pytest.raises(DomainError):
            color_partition_bose_hubbard(b, chain_lattice(4))
        other = Lattice("custom", 3, ((0, 2),))
        with pytest.raises(DomainError):
            color_partition_bose_hubbard(b, other)


class TestFermiHubbard1D:
    def test_four_site_chain(self):
        f = build_fermi_hubbard(chain_lattice(4), 1.0, 2.0)
        part = color_partition_fermi_hubbard_1d(jordan_wigner(f), 4)
        assert len(part.fragments) == 2
        assert part.max_factor_size() == 2
        h = jordan_wigner(f)
        assert check_reconstruction(part, h) < 1e-12
        assert check_commutation(part) < 1e-12

    def test_commuting_grouping_needs_three_bases(self):
        f = build_fermi_hubbard(chain_lattice(4), 1.0, 2.0)
        h = jordan_wigner(f)
        assert len(sorted_insertion(h, "full").fragments) == 3

    def test_odd_and_even_lengths(self):
        for sites in (2, 3, 5, 6):
            f = build_fermi_hubbard(chain_lattice(sites), 1.0, 2.0)
            part = color_partition_fermi_hubbard_1d(jordan_wigner(f), sites)
            assert len(part.fragments) == 2
            h = jordan_wigner(f)
            assert check_reconstruction(part, h) < 1e-12

    @pytest.mark.parametrize("sites", [40, 64, 65, 70])
    def test_long_chains_validate(self, sites):
        # Chains past 64 sites hold their strings in two mask words.
        f = build_fermi_hubbard(chain_lattice(sites), 1.0, 2.0)
        part = color_partition_fermi_hubbard_1d(jordan_wigner(f), sites)
        report = validate_partition(part, jordan_wigner(f), 2)
        assert report.reconstruction_error == 0.0 and report.locality_ok and report.tensor_wise
        assert report.diagonalization_residual < 1e-10
        assert_strings_are_the_expansion(part)

    def test_non_chain_rejected(self):
        f = build_fermi_hubbard(square_lattice(2, 2), 1.0, 2.0)
        with pytest.raises(DomainError):
            color_partition_fermi_hubbard_1d(jordan_wigner(f), 4)


class TestQpn:
    def test_three_fragments_chain(self):
        lat = chain_lattice(3)
        b = build_bose_hubbard(lat, 1.0, 2.0, 4)
        part = qpn_partition(b, lat)
        assert len(part.fragments) == 3
        assert [f.label for f in part.fragments] == ["qpn-q", "qpn-p", "qpn-n"]
        enc = encode_boson_operator(b)
        assert check_reconstruction(part, enc.pauli) < 1e-10
        assert check_commutation(part) < 1e-10
        # quadrature factors are one-mode: k = k_mode
        assert part.max_factor_size() == 2

    def test_three_fragments_all_to_all(self):
        sites = 3
        edges = tuple((i, j) for i in range(sites) for j in range(i + 1, sites))
        lat = Lattice("custom", sites, edges)
        b = build_bose_hubbard(lat, 1.0, 2.0, 4)
        part = qpn_partition(b, lat)
        assert len(part.fragments) == 3
        enc = encode_boson_operator(b)
        assert check_reconstruction(part, enc.pauli) < 1e-10
        assert check_commutation(part) < 1e-10

    def test_single_edge_d2_quadrature_form(self):
        lat = chain_lattice(2)
        b = build_bose_hubbard(lat, 1.0, 0.0, 2)
        part = qpn_partition(b, lat)
        h = pauli_sum_from_fragment(part.fragments[0], 2)
        ((string, coeff),) = h.terms.items()
        assert string.letters == "XX"
        assert abs(coeff + 0.5) < 1e-12  # -t/2 with t=1

    def test_diagonal_fragment_is_diagonal(self):
        lat = chain_lattice(3)
        b = build_bose_hubbard(lat, 1.0, 2.0, 4)
        part = qpn_partition(b, lat)
        m = fragment_matrix(part.fragments[2], part.n)
        assert np.max(np.abs(m - np.diag(np.diag(m)))) < 1e-12


class TestQpVibrational:
    def test_two_fragments(self):
        v = build_vibrational(VIB_OMEGA, vib_couplings(), 4)
        part = qp_partition_vibrational(v)
        assert len(part.fragments) == 2
        enc = encode_boson_operator(v)
        assert check_reconstruction(part, enc.pauli) < 1e-10
        assert check_commutation(part) < 1e-10
        assert part.max_factor_size() == 2  # one-mode factors

    def test_harmonic_only_content(self):
        v = build_vibrational([1.0, 2.0, 3.0], {}, 4)
        part = qp_partition_vibrational(v)
        assert len(part.fragments[0].terms) == 3  # three q^2 terms
        assert len(part.fragments[1].terms) == 3  # three p^2 terms

    def test_mixed_term_rejected(self):
        v = BosonOperator(2, 4, ((1.0, ((0, "q"), (1, "p"))),))
        with pytest.raises(DomainError):
            qp_partition_vibrational(v)

    def test_ladder_symbols_rejected(self):
        v = BosonOperator(2, 4, ((1.0, ((0, "bdag"), (1, "b"))), (1.0, ((1, "bdag"), (0, "b")))))
        with pytest.raises(DomainError):
            qp_partition_vibrational(v)


class TestSuiteWideProperties:
    def _suite(self, illustrative_hamiltonian):
        instances = [illustrative_hamiltonian]
        instances.append(jordan_wigner(build_fermi_hubbard(chain_lattice(4), 1.0, 2.0)))
        instances.append(
            encode_boson_operator(build_bose_hubbard(chain_lattice(3), 1.0, 2.0, 4)).pauli
        )
        return instances

    def test_fc_groups_at_most_qwc_groups(self, illustrative_hamiltonian):
        for h in self._suite(illustrative_hamiltonian):
            fc = len(sorted_insertion(h, "full").fragments)
            qwc = len(sorted_insertion(h, "qubitwise").fragments)
            assert fc <= qwc

    def test_all_methods_reconstruct_and_commute(self, illustrative_hamiltonian):
        for h in self._suite(illustrative_hamiltonian):
            parts = [
                sorted_insertion(h, "full"),
                sorted_insertion(h, "qubitwise"),
                greedy_partition(h, 2),
                greedy_partition(h, h.n),
                blocking_partition(h, 2),
            ]
            for part in parts:
                assert check_reconstruction(part, h) < 1e-10, part.source
                assert check_commutation(part) < 1e-10, part.source
