"""Variance engine: exact costs, lower bounds, and the rotated-basis result."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import pauli_sums, random_hermitian
from hampart.errors import DataError, DimensionError, DomainError, ResourceError
from hampart.fragments import (
    Fragment,
    Partition,
    TensorFactor,
    TensorProductTerm,
    fragment_matrix,
)
from hampart.partitioners import blocking_partition, greedy_partition, sorted_insertion
from hampart.pauli import PauliString, PauliSum
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
            m = fragment_matrix(frag, n, "dense")
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
                m = fragment_matrix(frag, n, "dense")
                vec = psi.amplitudes
                mean = np.vdot(vec, m @ vec).real
                var = np.vdot(vec, m @ (m @ vec)).real - mean**2
                dense_total += np.sqrt(max(var, 0.0))
            assert abs(total - dense_total**2) < 1e-9
