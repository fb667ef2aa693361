"""Variance engine: exact costs, lower bounds, and the rotated-basis result."""

import json
import tracemalloc
from math import prod

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from conftest import (ILLUSTRATIVE_TEXT, pauli_sums, random_hermitian, random_integrals,
                      string_triples)
from hampart import pauli, variance
from hampart.encodings import encode_boson_operator, jordan_wigner
from hampart.errors import DataError, DimensionError, DomainError, ResourceError
from hampart.fragments import (
    EXPANSION_CAP,
    Fragment,
    Partition,
    TensorFactor,
    TensorProductTerm,
    apply_fragment,
    fragment_matrix,
    partition_from_json,
    partition_to_json,
    pauli_coefficients,
)
from hampart.operators import (
    ElectronicIntegrals,
    build_bose_hubbard,
    build_fermi_hubbard,
    chain_lattice,
    fermion_from_integrals,
)
from hampart.partitioners import (
    blocking_partition,
    greedy_partition,
    qpn_partition,
    sorted_insertion,
)
from hampart.pauli import (
    PauliString,
    PauliSum,
    apply_pauli_terms,
    parse_pauli_text,
    pauli_masks,
    string_array,
    string_to_dense,
)
from hampart.validators import diagonalize_fragment
from hampart.variance import (
    StateVector,
    VarianceReport,
    basis_state,
    fragment_variance,
    lower_bound,
    lower_bounds,
    partition_cost,
    partition_costs,
    random_state,
    rotated_basis_demo,
    state_block,
    theorem1_grid,
)

X = np.array([[0, 1], [1, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)
SQ2 = 1 / np.sqrt(2)


def single_factor_fragment(block, label=""):
    return Fragment((TensorProductTerm([TensorFactor((0,), block)]),), label)


def gpb_partition(eta=SQ2):
    comp = np.sqrt(1 - eta**2)
    return Partition(
        1,
        (
            single_factor_fragment(eta * X, "x"),
            single_factor_fragment(comp * Z, "z"),
        ),
        source="gpb",
    )


def h1_sum():
    return PauliSum(
        1,
        [(SQ2, PauliString.from_letters("X")), (SQ2, PauliString.from_letters("Z"))],
    )


class TestRandomState:
    def test_determinism(self):
        a = random_state(3, 42)
        b = random_state(3, 42)
        assert np.array_equal(a.amplitudes, b.amplitudes)
        c = random_state(3, 43)
        assert not np.array_equal(a.amplitudes, c.amplitudes)

    def test_unit_norm(self):
        for seed in range(10):
            psi = random_state(4, seed)
            assert abs(np.linalg.norm(psi.amplitudes) - 1.0) < 1e-12

    def test_amplitude_uniformity_monte_carlo(self):
        # Mean |amplitude|^2 over many seeds approaches 1/2^n.
        vals = []
        for seed in range(1000):
            psi = random_state(2, seed)
            vals.append(np.abs(psi.amplitudes) ** 2)
        mean = np.mean(vals, axis=0)
        assert np.all(np.abs(mean - 0.25) < 0.02)

    def test_cap(self):
        with pytest.raises(ResourceError):
            random_state(17, 0)

    def test_basis_state(self):
        psi = basis_state(2, 3)
        assert psi.amplitudes[3] == 1.0
        with pytest.raises(DomainError):
            basis_state(2, 4)

    def test_norm_validation(self):
        with pytest.raises(DataError):
            StateVector(1, np.array([1.0, 1.0], dtype=complex))

    def test_caller_array_stays_writeable(self):
        a = np.array([1.0, 0.0], dtype=complex)
        psi = StateVector(1, a)
        a[1] = 0.5  # the caller's array is still theirs
        assert psi.amplitudes.tolist() == [1.0, 0.0] and not psi.amplitudes.flags.writeable

    def test_read_only_input_is_kept(self):
        a = np.array([0.0, 1.0], dtype=complex)
        a.setflags(write=False)
        assert StateVector(1, a).amplitudes is a
        for psi in (random_state(3, 1), basis_state(3, 5)):
            assert not psi.amplitudes.flags.writeable


class TestFragmentVariance:
    def test_eigenstate_gives_zero(self):
        assert fragment_variance(single_factor_fragment(Z), basis_state(1, 0)) == 0.0

    def test_rotated_pauli_on_zero_state(self):
        frag = single_factor_fragment((X + Z) * SQ2)
        assert abs(fragment_variance(frag, basis_state(1, 0)) - 0.5) < 1e-12

    def test_matches_dense_oracle_on_random_fragments(self):
        rng = np.random.default_rng(91)
        for trial in range(30):
            n = int(rng.integers(2, 7))
            order = list(rng.permutation(n))
            terms, pos = [], 0
            while pos < n:
                size = int(rng.integers(1, min(3, n - pos) + 1))
                qubits = tuple(int(q) for q in order[pos: pos + size])
                terms.append(
                    TensorProductTerm([TensorFactor(qubits, random_hermitian(1 << size, rng))])
                )
                pos += size
            frag = Fragment(tuple(terms), "rand")
            psi = random_state(n, 500 + trial)
            got = fragment_variance(frag, psi)
            m = fragment_matrix(frag, n)
            vec = psi.amplitudes
            mean = np.vdot(vec, m @ vec).real
            want = np.vdot(vec, m @ (m @ vec)).real - mean**2
            assert abs(got - want) < 1e-10

    def test_dimension_mismatch(self):
        from hampart.errors import DimensionError

        frag = Fragment((TensorProductTerm([TensorFactor((2,), Z)]),), "far")
        with pytest.raises(DimensionError):
            fragment_variance(frag, basis_state(1, 0))


class TestPartitionCost:
    def test_single_fragment_equals_variance(self):
        h = h1_sum()
        frag = single_factor_fragment((X + Z) * SQ2)
        part = Partition(1, (frag,), source="single")
        psi = random_state(1, 7)
        report = partition_cost(part, psi)
        assert abs(report.total - lower_bound(h, psi)) < 1e-12

    def test_gpb_on_zero_state(self):
        report = partition_cost(gpb_partition(), basis_state(1, 0))
        assert abs(report.total - 0.5) < 1e-12

    def test_gpb_on_rotated_state(self):
        phi = StateVector(
            1, np.array([np.cos(np.pi / 8), np.sin(np.pi / 8)], dtype=complex), "ry"
        )
        report = partition_cost(gpb_partition(), phi)
        assert abs(report.total - 1.0) < 1e-12

    def test_total_is_squared_sum_of_roots(self):
        part = sorted_insertion(h1_sum(), "qubitwise")
        psi = random_state(1, 3)
        report = partition_cost(part, psi)
        want = float(np.sum(np.sqrt(report.per_fragment)) ** 2)
        assert abs(report.total - want) < 1e-10

    def test_invariant_under_fragment_reordering(self):
        part = gpb_partition()
        flipped = Partition(1, tuple(reversed(part.fragments)), source="gpb-flip")
        psi = random_state(1, 9)
        a = partition_cost(part, psi).total
        b = partition_cost(flipped, psi).total
        assert abs(a - b) < 1e-12

    def test_constant_contributes_nothing(self):
        frag = single_factor_fragment(Z)
        p0 = Partition(1, (frag,), constant=0.0, source="a")
        p5 = Partition(1, (frag,), constant=5.0, source="b")
        psi = random_state(1, 4)
        assert abs(partition_cost(p0, psi).total - partition_cost(p5, psi).total) < 1e-12

    def test_report_fields(self):
        report = partition_cost(gpb_partition(), basis_state(1, 0))
        assert isinstance(report, VarianceReport)
        assert report.fragment_count == 2
        assert report.state_seed == "basis:0"
        assert all(v >= 0 for v in report.per_fragment)


class TestLowerBound:
    def test_eigenstate_is_zero(self):
        h = PauliSum(1, [(2.0, PauliString.from_letters("Z"))])
        assert lower_bound(h, basis_state(1, 0)) < 1e-14

    def test_h1_on_zero_state(self):
        assert abs(lower_bound(h1_sum(), basis_state(1, 0)) - 0.5) < 1e-12

    def test_affine_shift_invariance(self):
        h = h1_sum()
        shifted = PauliSum(1, [(c, s) for s, c in h.terms.items()], constant=3.25)
        psi = random_state(1, 13)
        assert abs(lower_bound(h, psi) - lower_bound(shifted, psi)) < 1e-10

    def test_dominated_by_every_partition(self, illustrative_hamiltonian):
        # Subadditivity of the standard deviation: 200 random cases.
        h = illustrative_hamiltonian
        parts = [
            sorted_insertion(h, "full"),
            sorted_insertion(h, "qubitwise"),
        ]
        from hampart.partitioners import blocking_partition, greedy_partition

        parts.append(greedy_partition(h, 2))
        parts.append(blocking_partition(h, 2))
        count = 0
        for seed in range(50):
            psi = random_state(4, seed)
            lb = lower_bound(h, psi)
            for part in parts:
                assert partition_cost(part, psi).total >= lb - 1e-10
                count += 1
        assert count == 200


class TestBatchedEngine:
    @settings(max_examples=100, deadline=None)
    @given(h=pauli_sums(), k=st.integers(1, 3), seed=st.integers(0, 2**32 - 1))
    def test_block_matches_single_states(self, h, k, seed):
        # One application per fragment for all states gives each state's
        # single-state cost; Var >= 0 and every total is at least Var[H].
        k = min(k, h.n)
        states = [random_state(h.n, seed + i) for i in range(3)]
        block = state_block(states)
        lbs = lower_bounds(h, block)
        for part in (
            sorted_insertion(h, "full"),
            sorted_insertion(h, "qubitwise"),
            greedy_partition(h, k),
            blocking_partition(h, k),
        ):
            totals, per = partition_costs(part, block)
            assert per.shape == (len(part.fragments), len(states))
            assert np.all(per >= 0.0), part.source
            for col, psi in enumerate(states):
                report = partition_cost(part, psi)
                np.testing.assert_allclose(per[:, col], report.per_fragment, rtol=1e-12, atol=0)
                np.testing.assert_allclose(totals[col], report.total, rtol=1e-12, atol=0)
                np.testing.assert_allclose(lbs[col], lower_bound(h, psi), rtol=1e-12, atol=0)
                assert totals[col] >= lbs[col] - 1e-9 * (1 + abs(totals[col])), part.source

    def test_block_shape_and_normalization_checked(self):
        part = gpb_partition()
        psi = random_state(1, 3)
        with pytest.raises(DimensionError):
            partition_costs(part, psi.amplitudes)  # a vector, not a (2^n, S) block
        with pytest.raises(DimensionError):
            lower_bounds(h1_sum(), state_block([random_state(2, 0)]))
        with pytest.raises(DataError):
            partition_costs(part, 2.0 * state_block([psi]))

    def test_empty_partition_costs_nothing(self):
        totals, per = partition_costs(Partition(2, (), constant=1.0), state_block(
            [random_state(2, s) for s in range(4)]))
        assert per.shape == (0, 4) and np.array_equal(totals, np.zeros(4))


class TestChunkedScoring:
    """Column chunks under STATE_CHUNK_BYTES give the bits of one whole-block pass."""

    @staticmethod
    def chunk_columns(monkeypatch, n, width):
        """Make column_chunks cut (2^n, S) blocks into chunks of `width` columns."""
        monkeypatch.setattr(variance, "STATE_CHUNK_BYTES", width * 4 * 16 << n)
        return [c.stop - c.start for c in variance.column_chunks(n, 7)]

    @pytest.mark.parametrize("width", [1, 2, 3])
    def test_chunks_equal_whole_block(self, monkeypatch, width):
        h = jordan_wigner(fermion_from_integrals(random_integrals(3, np.random.default_rng(8))))
        block = state_block([random_state(h.n, 30 + i) for i in range(7)])
        parts = [sorted_insertion(h, "full"), greedy_partition(h, 2), blocking_partition(h, 3)]
        whole = [partition_costs(part, block) for part in parts], lower_bounds(h, block)
        assert self.chunk_columns(monkeypatch, h.n, width) == [width] * (7 // width) + (
            [7 % width] if 7 % width else [])
        chunked = [partition_costs(part, block) for part in parts], lower_bounds(h, block)
        for (t0, p0), (t1, p1) in zip(whole[0], chunked[0]):
            assert t0.tobytes() == t1.tobytes() and p0.tobytes() == p1.tobytes()
        assert whole[1].tobytes() == chunked[1].tobytes()

    def test_column_over_cap_refused_before_allocating(self, monkeypatch):
        monkeypatch.setattr(variance, "STATE_CHUNK_BYTES", 4 * 16 << 11)
        assert variance.column_chunks(11, 3) == [slice(0, 1), slice(1, 2), slice(2, 3)]
        h = PauliSum(12, [(1.0, PauliString.from_letters("Z" * 12))])
        part = sorted_insertion(h, "full")
        block = state_block([random_state(12, 0)])
        tracemalloc.start()
        try:
            with pytest.raises(ResourceError):
                lower_bounds(h, block)
            with pytest.raises(ResourceError):
                partition_costs(part, block)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 << 12  # less than one 12-qubit column

    def test_block_built_fragments_keep_their_expansion(self):
        part = qpn_partition(build_bose_hubbard(chain_lattice(3), 1.0, 2.0, 4), chain_lattice(3))
        assert all(frag.strings is None for frag in part.fragments)
        block = state_block([random_state(part.n, 5)])
        first = partition_costs(part, block)
        for frag in part.fragments:
            coeffs = pauli_coefficients(frag.terms)
            assert [(x, z) for _, x, z in string_triples(frag.strings)] == list(coeffs)
            assert frag.strings["c"].tobytes() == np.array(list(coeffs.values())).tobytes()
        again = partition_costs(part, block)
        assert first[1].tobytes() == again[1].tobytes()

    @seed(20261019)
    @settings(max_examples=40, deadline=None)
    @given(h=pauli_sums(max_qubits=8), k=st.integers(1, 3), state_seed=st.integers(0, 2**32 - 1))
    def test_strings_score_like_the_json_round_trip(self, h, k, state_seed):
        # The partitioners' strings against the fragments' own expansion after a JSON round trip
        # (blocks only, no strings).
        block = state_block([random_state(h.n, state_seed + i) for i in range(3)])
        for part in (sorted_insertion(h, "full"), sorted_insertion(h, "qubitwise"),
                     greedy_partition(h, min(k, h.n)), blocking_partition(h, min(k, h.n))):
            loaded = partition_from_json(json.dumps(partition_to_json(part)))
            assert all(frag.strings is None for frag in loaded.fragments)
            for got, want in zip(partition_costs(part, block), partition_costs(loaded, block)):
                np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-15)


@st.composite
def y_heavy_sums(draw):
    """Random real Pauli sums on 2-8 qubits, half of whose letters are Y, with a constant."""
    n = draw(st.integers(2, 8))
    coeffs = st.floats(-1.0, 1.0).filter(lambda c: abs(c) > 1e-3)
    terms = draw(st.lists(st.tuples(coeffs, st.text("IXYYYZ", min_size=n, max_size=n)),
                          min_size=1, max_size=16))
    constant = draw(st.floats(-1.0, 1.0))
    return PauliSum(n, [(c, PauliString.from_letters(s)) for c, s in terms], constant)


class TestGroupedPauliEngine:
    @seed(20261018)
    @settings(max_examples=100, deadline=None)
    @given(h=y_heavy_sums(), width=st.sampled_from([1, 3]), k=st.integers(1, 3),
           state_seed=st.integers(0, 2**32 - 1))
    def test_matches_dense_and_per_factor(self, h, width, k, state_seed):
        block = state_block([random_state(h.n, state_seed + i) for i in range(width)])
        # Complex weights: the grouped application is checked as a linear map, not only on
        # Hermitian sums.
        rng = np.random.default_rng(state_seed)
        phases = np.exp(2j * np.pi * rng.random(len(h)))
        terms = string_array([(c * w, s.x, s.z) for (s, c), w in zip(h.terms.items(), phases)],
                             h.n)
        dense = sum((c * string_to_dense(s) * w for (s, c), w in zip(h.terms.items(), phases)),
                    np.zeros((1 << h.n, 1 << h.n)))
        for got, want in ((apply_pauli_terms(terms, block, h.n), dense @ block),
                          (h.apply(block), h.to_matrix() @ block),
                          (h.apply(block[:, 0]), h.to_matrix() @ block[:, 0])):
            assert np.max(np.abs(got - want)) <= 1e-12 * max(np.max(np.abs(want)), 1e-300)
        for part in (sorted_insertion(h, "full"), sorted_insertion(h, "qubitwise"),
                     greedy_partition(h, min(k, h.n))):
            per = partition_costs(part, block)[1]
            for frag, got in zip(part.fragments, per):
                m_psi = apply_fragment(frag, block, h.n)
                mean = np.einsum("ij,ij->j", block.conj(), m_psi).real
                want = np.sum(np.abs(m_psi) ** 2, axis=0) - mean**2
                np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)


    def test_term_over_expansion_cap_scored_per_factor(self):
        # Two dense 6-qubit factors expand to 4096^2 strings, over EXPANSION_CAP.
        rng = np.random.default_rng(5)
        factors = [TensorFactor(q, random_hermitian(64, rng)) for q in (range(6), range(6, 12))]
        frag = Fragment((TensorProductTerm(factors),))
        with pytest.raises(ResourceError):
            pauli_coefficients(frag.terms)
        psi = random_state(12, 1)
        m_psi = apply_fragment(frag, psi.amplitudes, 12)
        want = np.vdot(m_psi, m_psi).real - np.vdot(psi.amplitudes, m_psi).real ** 2
        np.testing.assert_allclose(fragment_variance(frag, psi), want, rtol=1e-12)

    def test_term_at_expansion_cap_not_expanded(self):
        # Two dense 5-qubit factors expand to exactly EXPANSION_CAP strings, far more than the
        # 2^10 state entries: scored per factor without building the ~10^6-string expansion.
        rng = np.random.default_rng(6)
        factors = [TensorFactor(q, random_hermitian(32, rng)) for q in (range(5), range(5, 10))]
        frag = Fragment((TensorProductTerm(factors),))
        assert prod(len(pauli_masks(f.block, f.qubits)) for f in factors) == EXPANSION_CAP
        psi = random_state(10, 2)
        m_psi = apply_fragment(frag, psi.amplitudes, 10)
        want = np.vdot(m_psi, m_psi).real - np.vdot(psi.amplitudes, m_psi).real ** 2
        tracemalloc.start()
        try:
            got = fragment_variance(frag, psi)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20
        np.testing.assert_allclose(got, want, rtol=1e-12)

    def test_string_factor_over_state_entries_not_realized(self, monkeypatch):
        # greedy k = n on an 8-qubit electronic instance is one term whose free factor is given
        # by more strings than one state has entries. A set fragment is scored on its strings,
        # so they are applied and the factor's block is never built.
        ints = random_integrals(4, np.random.default_rng([0, 4]))
        h = jordan_wigner(fermion_from_integrals(ints))
        part = greedy_partition(h, h.n)
        assert sum(len(frag.strings) for frag in part.fragments) > 1 << h.n
        block = random_state(h.n, 0).amplitudes[:, None]
        calls = []
        real = pauli.dense_sum  # what realizes a factor's block from its strings
        monkeypatch.setattr(pauli, "dense_sum", lambda *a: calls.append(a) or real(*a))
        per = partition_costs(part, block)[1]
        assert calls == []
        for frag, got in zip(part.fragments, per):
            m_psi = apply_fragment(frag, block, h.n)
            mean = np.einsum("ij,ij->j", block.conj(), m_psi).real
            want = np.sum(np.abs(m_psi) ** 2, axis=0) - mean**2
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)


def _electronic_10q():
    rng = np.random.default_rng(10)
    ints = ElectronicIntegrals(norb=5)
    for i in range(5):
        for j in range(i, 5):
            ints.set_one_body(i, j, float(rng.normal(0.0, 0.3)))
    pairs = [(i, j) for i in range(5) for j in range(i + 1)]
    for a, (i, j) in enumerate(pairs):
        for k, l in pairs[: a + 1]:
            ints.set_two_body(i, j, k, l, float(rng.normal(0.0, 0.05)))
    return jordan_wigner(fermion_from_integrals(ints))


MOMENT_INSTANCES = {
    "illustrative": lambda: parse_pauli_text(ILLUSTRATIVE_TEXT, n=4),
    "fermi-hubbard chain 4": lambda: jordan_wigner(build_fermi_hubbard(chain_lattice(4), 1.0, 4.0)),
    "bose-hubbard chain 4": lambda: encode_boson_operator(
        build_bose_hubbard(chain_lattice(4), 1.0, 2.0, 4)).pauli,
    "electronic norb 5": _electronic_10q,
}


class TestMomentCrossCheck:
    @pytest.mark.parametrize("name", MOMENT_INSTANCES)
    def test_basis_moments_match_partition_costs(self, name):
        # Var = sum D^2 p - (sum D p)^2 with p = |U^dag psi|^2 in each fragment's certified
        # basis: rotate and D share no code with the grouped Pauli application.
        h = MOMENT_INSTANCES[name]()
        block = state_block([random_state(h.n, 40 + i) for i in range(2)])
        for part in (sorted_insertion(h, "full"), sorted_insertion(h, "qubitwise"),
                     greedy_partition(h, 2), greedy_partition(h, 3)):
            per = partition_costs(part, block)[1]
            for frag, want in zip(part.fragments, per):
                basis = diagonalize_fragment(frag, h.n)
                probs = np.abs(basis.rotate(block, h.n)) ** 2
                mean, second = basis.diagonal @ probs, basis.diagonal**2 @ probs
                np.testing.assert_allclose(second - mean**2, want, rtol=1e-10, atol=0)


class TestRotatedBasisDemo:
    def test_reference_point_values(self):
        gpb, rb = rotated_basis_demo(SQ2, np.cos(np.pi / 8))
        assert abs(gpb - 1.0) < 1e-12 and abs(rb) < 1e-12
        gpb, rb = rotated_basis_demo(SQ2, 1.0)
        assert abs(gpb - 0.5) < 1e-12 and abs(rb - 0.5) < 1e-12

    def test_eta_one_bases_coincide(self):
        for alpha in (0.0, 0.3, 0.8, 1.0):
            gpb, rb = rotated_basis_demo(1.0, alpha)
            ex = 2 * alpha * np.sqrt(1 - alpha**2)
            assert abs(gpb - (1 - ex**2)) < 1e-12
            assert abs(rb - gpb) < 1e-12

    def test_closed_form_matches_engine(self):
        # Cross-check against explicit fragments and states.
        for eta, alpha in ((0.3, 0.8), (0.9, 0.2), (0.6, 0.6), (SQ2, np.cos(np.pi / 8))):
            psi = StateVector(
                1, np.array([alpha, np.sqrt(1 - alpha**2)], dtype=complex), "a"
            )
            gpb_engine = partition_cost(gpb_partition(eta), psi).total
            h_eta = PauliSum(
                1,
                [
                    (eta, PauliString.from_letters("X")),
                    (np.sqrt(1 - eta**2), PauliString.from_letters("Z")),
                ],
            )
            rb_engine = lower_bound(h_eta, psi)
            gpb, rb = rotated_basis_demo(eta, alpha)
            assert abs(gpb - gpb_engine) < 1e-10
            assert abs(rb - rb_engine) < 1e-10

    def test_domain_errors(self):
        for eta, alpha in ((-0.1, 0.5), (1.1, 0.5), (0.5, -0.1), (0.5, 1.1)):
            with pytest.raises(DomainError):
                rotated_basis_demo(eta, alpha)

    def test_theorem1_uniform_grid(self):
        rows = theorem1_grid(101, "uniform")
        assert rows.shape == (101 * 101, 4)
        slack = rows[:, 2] - rows[:, 3]
        assert slack.min() >= -1e-12

    def test_theorem1_angle_grid_contains_reference_rows(self):
        rows = theorem1_grid(101, "angle")
        slack = rows[:, 2] - rows[:, 3]
        assert slack.min() >= -1e-12
        hit = rows[
            (np.abs(rows[:, 0] - SQ2) < 1e-12)
            & (np.abs(rows[:, 1] - np.cos(np.pi / 8)) < 1e-12)
        ]
        assert hit.shape[0] == 1
        assert abs(hit[0, 2] - 1.0) < 1e-12 and abs(hit[0, 3]) < 1e-12

    def test_resolution_two_gives_corners(self):
        rows = theorem1_grid(2, "angle")
        assert rows.shape == (4, 4)
        etas = sorted(set(np.round(rows[:, 0], 12)))
        assert etas == [0.0, 1.0]

    def test_resolution_validation(self):
        with pytest.raises(DomainError):
            theorem1_grid(1)


class TestNumericalSafety:
    def test_negative_variance_clamped_to_zero(self):
        frag = single_factor_fragment(Z)
        v = fragment_variance(frag, basis_state(1, 1))
        assert v == 0.0

    def test_sparse_dense_agreement_small_systems(self):
        rng = np.random.default_rng(97)
        letters = "IXYZ"
        for trial in range(20):
            n = int(rng.integers(1, 9))
            terms = [
                (
                    float(rng.standard_normal()),
                    PauliString.from_letters(
                        "".join(letters[i] for i in rng.integers(0, 4, n))
                    ),
                )
                for _ in range(6)
            ]
            h = PauliSum(n, terms)
            part = sorted_insertion(h, "qubitwise")
            psi = random_state(n, 700 + trial)
            total = partition_cost(part, psi).total
            dense_total = 0.0
            for frag in part.fragments:
                m = fragment_matrix(frag, n)
                vec = psi.amplitudes
                mean = np.vdot(vec, m @ vec).real
                var = np.vdot(vec, m @ (m @ vec)).real - mean**2
                dense_total += np.sqrt(max(var, 0.0))
            assert abs(total - dense_total**2) < 1e-9
