"""Acceptance suite: one test per exit criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the criterion lines.
"""

import time
from contextlib import contextmanager

import numpy as np
import pytest

from conftest import ILLUSTRATIVE_FC_GROUPS, ILLUSTRATIVE_TEXT, h2_sto3g_integrals, vib_couplings, VIB_OMEGA
from hampart.encodings import encode_boson_operator, jordan_wigner
from hampart.fragments import (
    Fragment,
    Partition,
    TensorFactor,
    TensorProductTerm,
    apply_fragment,
    fragment_matrix,
    pauli_sum_from_fragment,
)
from hampart.operators import (
    Lattice,
    boson_matrices,
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
    qp_partition_vibrational,
    qpn_partition,
    sorted_insertion,
)
from hampart.pauli import parse_pauli_text
from hampart.validators import (
    check_commutation,
    check_locality,
    check_reconstruction,
    diagonalize_fragment,
)
from hampart.variance import fragment_variance, lower_bound, partition_cost, random_state

SEEDS = tuple(range(2024, 2044))  # 20 Haar states per instance


@contextmanager
def criterion(number: int, description: str):
    start = time.perf_counter()
    try:
        yield
    except Exception:
        print(f"ACCEPTANCE {number}: FAIL - {description}")
        raise
    elapsed = time.perf_counter() - start
    print(f"ACCEPTANCE {number}: PASS - {description} ({elapsed:.2f}s)")


def two_basis_reference_partition():
    A = np.array([[1, 0, 1, 0], [0, 1, 0, 1], [1, 0, 1, 0], [0, 1, 0, 1]], dtype=complex)
    B = np.array([[0, 1], [1, 1]], dtype=complex)
    C = np.array([[0, 1], [1, 2]], dtype=complex)
    T = np.array([[2, 1, 0, 0], [1, 2, 1, 0], [0, 1, 2, 1], [0, 0, 1, 2]], dtype=complex)
    X = np.array([[0, 1], [1, 0]], dtype=complex)
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
        4, (Fragment((w11, w12), "M1"), Fragment((w21,), "M2")), 0.0, "two-basis-example"
    )


@pytest.fixture(scope="module")
def suite():
    """(name, hamiltonian, {method: partition}) triples for the desk-scale set."""
    instances = []

    h_ill = parse_pauli_text(ILLUSTRATIVE_TEXT, n=4)
    base = lambda h: {
        "fc-si": sorted_insertion(h, "full"),
        "qwc-si": sorted_insertion(h, "qubitwise"),
        "greedy-k2": greedy_partition(h, 2),
        f"greedy-k{h.n}": greedy_partition(h, h.n),
        "blocking-k2": blocking_partition(h, 2),
    }
    instances.append(("illustrative", h_ill, base(h_ill)))

    fh = build_fermi_hubbard(chain_lattice(4), 1.0, 2.0)
    h_fh = jordan_wigner(fh)
    methods = base(h_fh)
    methods["fh1d-coloring"] = color_partition_fermi_hubbard_1d(h_fh, 4)
    instances.append(("fermi-hubbard-chain4", h_fh, methods))

    lat3 = chain_lattice(3)
    bh = build_bose_hubbard(lat3, 1.0, 2.0, 4)
    h_bh = encode_boson_operator(bh).pauli
    methods = base(h_bh)
    methods["coloring"] = color_partition_bose_hubbard(bh, lat3)
    methods["qpn"] = qpn_partition(bh, lat3)
    instances.append(("bose-hubbard-b3d4", h_bh, methods))

    vib = build_vibrational(VIB_OMEGA, vib_couplings(), 4)
    h_vib = encode_boson_operator(vib).pauli
    methods = base(h_vib)
    methods["qp"] = qp_partition_vibrational(vib)
    instances.append(("vibrational-3mode-d4", h_vib, methods))

    elec = fermion_from_integrals(h2_sto3g_integrals())
    h_el = jordan_wigner(elec)
    methods = base(h_el)
    methods["greedy-k1"] = greedy_partition(h_el, 1)
    methods["greedy-k3"] = greedy_partition(h_el, 3)
    instances.append(("electronic-h2", h_el, methods))

    return instances


def test_criterion_1_illustrative_example():
    with criterion(1, "illustrative 4-qubit example: 5 FC groups and exact 2-basis decomposition"):
        start = time.perf_counter()
        h = parse_pauli_text(ILLUSTRATIVE_TEXT, n=4)
        part = sorted_insertion(h, "full")
        assert len(part.fragments) == 5
        got = {
            frozenset({s.letters for s in pauli_sum_from_fragment(f, 4).terms})
            for f in part.fragments
        }
        assert got == {frozenset(g) for g in ILLUSTRATIVE_FC_GROUPS}
        ref = two_basis_reference_partition()
        assert check_reconstruction(ref, h) < 1e-12
        assert check_locality(ref, 2)
        assert check_commutation(ref) < 1e-10
        assert time.perf_counter() - start < 1.0


def test_criterion_2_rotated_basis_results():
    with criterion(2, "one-qubit rotated-basis values and 101x101 grid dominance"):
        start = time.perf_counter()
        from hampart.variance import rotated_basis_demo, theorem1_grid

        gpb, rb = rotated_basis_demo(1 / np.sqrt(2), np.cos(np.pi / 8))
        assert abs(gpb - 1.0) < 1e-12 and abs(rb - 0.0) < 1e-12
        gpb, rb = rotated_basis_demo(1 / np.sqrt(2), 1.0)
        assert abs(gpb - 0.5) < 1e-12 and abs(rb - 0.5) < 1e-12
        for param in ("angle", "uniform"):
            rows = theorem1_grid(101, param)
            assert int(np.sum(rows[:, 3] > rows[:, 2] + 1e-12)) == 0
        assert time.perf_counter() - start < 1.0


def test_criterion_3_edge_coloring_table():
    with criterion(3, "optimal color counts on finite patches of the six lattice kinds"):
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
            assert is_proper_edge_coloring(classes), lat.kind
            assert {e for grp in classes for e in grp} == set(lat.edges)


def test_criterion_4_basis_count_claims():
    with criterion(4, "fixed fragment counts: QP=2, QPN=3 (any lattice), coloring=n_c+1, FH-1D=2"):
        vib = build_vibrational(VIB_OMEGA, vib_couplings(), 4)
        assert len(qp_partition_vibrational(vib).fragments) == 2

        lattices = [
            chain_lattice(3),
            chain_lattice(4),
            square_lattice(2, 2),
            Lattice("custom", 4, tuple((i, j) for i in range(4) for j in range(i + 1, 4))),
        ]
        for lat in lattices:
            bh = build_bose_hubbard(lat, 1.0, 2.0, 4)
            assert len(qpn_partition(bh, lat).fragments) == 3, lat.kind
            n_c = len(edge_coloring(lat))
            assert len(color_partition_bose_hubbard(bh, lat).fragments) == n_c + 1, lat.kind

        for sites in (2, 3, 4, 5, 6):
            fh = build_fermi_hubbard(chain_lattice(sites), 1.0, 2.0)
            assert len(color_partition_fermi_hubbard_1d(jordan_wigner(fh), sites).fragments) == 2


def test_criterion_5_figure_trends():
    with criterion(5, "mean-variance trends: FH coloring<=FC-SI; BH QPN<=QWC and <=1.1x coloring; vib QP<=FC-SI and <=2x bound"):
        start = time.perf_counter()

        def means(h, parts):
            out = {name: [] for name in parts}
            out["lower_bound"] = []
            for seed in SEEDS:
                psi = random_state(h.n, seed)
                for name, part in parts.items():
                    out[name].append(partition_cost(part, psi).total)
                out["lower_bound"].append(lower_bound(h, psi))
            return {name: float(np.mean(vals)) for name, vals in out.items()}

        fh = build_fermi_hubbard(chain_lattice(4), 1.0, 2.0)
        h_fh = jordan_wigner(fh)
        m = means(
            h_fh,
            {
                "coloring": color_partition_fermi_hubbard_1d(h_fh, 4),
                "fc-si": sorted_insertion(h_fh, "full"),
            },
        )
        assert m["coloring"] <= m["fc-si"]

        lat3 = chain_lattice(3)
        bh = build_bose_hubbard(lat3, 1.0, 2.0, 4)
        h_bh = encode_boson_operator(bh).pauli
        m = means(
            h_bh,
            {
                "qpn": qpn_partition(bh, lat3),
                "coloring": color_partition_bose_hubbard(bh, lat3),
                "qwc-si": sorted_insertion(h_bh, "qubitwise"),
            },
        )
        assert m["qpn"] <= m["qwc-si"]
        assert m["qpn"] <= 1.1 * m["coloring"]

        vib = build_vibrational(VIB_OMEGA, vib_couplings(), 4)
        h_vib = encode_boson_operator(vib).pauli
        m = means(
            h_vib,
            {
                "qp": qp_partition_vibrational(vib),
                "fc-si": sorted_insertion(h_vib, "full"),
            },
        )
        assert m["qp"] <= m["fc-si"]
        assert m["qp"] <= 2.0 * m["lower_bound"]
        assert time.perf_counter() - start < 60.0


def test_criterion_6_lower_bound_dominance(suite):
    with criterion(6, "total >= lower bound - 1e-10 for every (method, instance, seed)"):
        for name, h, methods in suite:
            for seed in SEEDS:
                psi = random_state(h.n, seed)
                lb = lower_bound(h, psi)
                for method, part in methods.items():
                    total = partition_cost(part, psi).total
                    assert total >= lb - 1e-10, (name, method, seed)


def test_criterion_7_greedy_endpoint(suite, tmp_path):
    with criterion(7, "greedy at k=n is a single fragment matching the lower bound; sweep reports finite k*"):
        for name, h, methods in suite:
            part = methods[f"greedy-k{h.n}"]
            assert len(part.fragments) == 1, name
            for seed in SEEDS[:5]:
                psi = random_state(h.n, seed)
                total = partition_cost(part, psi).total
                assert abs(total - lower_bound(h, psi)) < 1e-10, (name, seed)
        # k* is always reported because the k=n row ties the lower bound.
        from hampart.cli import main
        from hampart.operators import write_fcidump

        fcid = tmp_path / "h2.fcidump"
        write_fcidump(fcid, h2_sto3g_integrals(), nelec=2)
        stem = tmp_path / "h2"
        assert main(["build", "electronic", "--fcidump", str(fcid), "-o", str(stem)]) == 0
        out = tmp_path / "sweep.csv"
        assert main([
            "sweep-k", f"{stem}.pauli", "--method", "greedy",
            "--states", "5", "--seed", "7", "-o", str(out),
        ]) == 0
        rows = out.read_text().splitlines()[1:]
        assert any(float(r.split(",")[2]) <= float(r.split(",")[3]) for r in rows)


def test_criterion_8_oracle_equivalence():
    with criterion(8, "sparse/dense variance agreement on 200 random fragments; exact quadrature identity"):
        rng = np.random.default_rng(808)
        for trial in range(200):
            n = int(rng.integers(2, 9))
            order = list(rng.permutation(n))
            terms, pos = [], 0
            while pos < n:
                size = int(rng.integers(1, min(3, n - pos) + 1))
                qubits = tuple(int(q) for q in order[pos: pos + size])
                block = rng.standard_normal((1 << size, 1 << size)) + 1j * rng.standard_normal(
                    (1 << size, 1 << size)
                )
                block = (block + block.conj().T) / 2
                terms.append(TensorProductTerm([TensorFactor(qubits, block)]))
                pos += size
                if len(terms) >= 3:
                    break
            frag = Fragment(tuple(terms), "rand")
            psi = random_state(n, 9000 + trial)
            fast = fragment_variance(frag, psi)
            m = fragment_matrix(frag, n)
            vec = psi.amplitudes
            mean = np.vdot(vec, m @ vec).real
            dense = np.vdot(vec, m @ (m @ vec)).real - mean**2
            assert abs(fast - dense) < 1e-10, trial
        for d in (2, 3, 4, 8):
            mats = boson_matrices(d)
            lhs = np.kron(mats["q"], mats["q"]) + np.kron(mats["p"], mats["p"])
            rhs = np.kron(mats["bdag"], mats["b"]) + np.kron(mats["b"], mats["bdag"])
            assert np.max(np.abs(lhs - rhs)) < 1e-12, d


def test_criterion_9_diagonalization_residuals(suite):
    with criterion(9, "every fragment diagonalizes (residual < 1e-9) and satisfies the diagonal expectation identity"):
        for name, h, methods in suite:
            for method, part in methods.items():
                for frag in part.fragments:
                    result = diagonalize_fragment(frag, part.n)
                    assert result.residual < 1e-9, (name, method, frag.label)
                    for seed in range(10):
                        psi = random_state(part.n, 5000 + seed)
                        direct = np.vdot(
                            psi.amplitudes, apply_fragment(frag, psi.amplitudes, part.n)
                        ).real
                        assert abs(result.expectation(psi) - direct) < 1e-9, (
                            name,
                            method,
                            frag.label,
                            seed,
                        )
