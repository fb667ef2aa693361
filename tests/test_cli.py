"""Command-line driver: workflows, determinism, exit codes."""

import hashlib
import importlib.util
import json
import os
import subprocess
import sys
import tracemalloc
from functools import partial
from pathlib import Path

import numpy as np
import pytest

import hampart
from conftest import ILLUSTRATIVE_TEXT, benchmark_fcidump, letter_term
from hampart import cli, fragments, pauli, variance
from hampart.cli import main
from hampart.errors import ResourceError
from hampart.fragments import (
    Fragment,
    Partition,
    check_realized_bytes,
    partition_to_json,
    save_partition,
)
from hampart.operators import ElectronicIntegrals, build_bose_hubbard, chain_lattice, write_fcidump
from hampart.partitioners import greedy_partition, qpn_partition, sorted_insertion
from hampart.pauli import DENSE_QUBIT_CAP, PauliString, PauliSum, parse_pauli_text
from hampart.validators import check_reconstruction, validate_partition
from hampart.variance import lower_bounds, partition_costs, random_state, state_block


def run(argv):
    return main([str(a) for a in argv])


def _bose_chain(modes: int):
    """The d=4, t=1, U=2 chain `build bose-hubbard --modes <modes> --d 4` writes, and its
    lattice."""
    lattice = chain_lattice(modes)
    return build_bose_hubbard(lattice, 1.0, 2.0, 4), lattice


@pytest.fixture()
def b3d4(tmp_path):
    stem = tmp_path / "b3d4"
    assert run(["build", "bose-hubbard", "--modes", 3, "--d", 4, "--t", 1,
                "--U", 2, "--lattice", "chain", "-o", stem]) == 0
    return stem


@pytest.fixture()
def xz13(tmp_path):
    """X...X + 0.5 Z...Z on DENSE_QUBIT_CAP + 1 qubits: its k = n match set is one block over
    the dense cap."""
    n = DENSE_QUBIT_CAP + 1
    ham = tmp_path / "xz.pauli"
    ham.write_text("".join(f"{c} {' '.join(f'{p}{q}' for q in range(n))}\n"
                           for c, p in ((1.0, "X"), (0.5, "Z"))))
    return ham


class TestBuild:
    def test_bose_hubbard_b3d4(self, b3d4):
        meta = json.loads((b3d4.parent / "b3d4.json").read_text())
        assert meta["n"] == 6  # 3 modes at d=4 need 2 qubits each
        assert meta["params"]["d"] == 4

    def test_fermi_hubbard_two_sites_hopping_content(self, tmp_path):
        stem = tmp_path / "fh2"
        assert run(["build", "fermi-hubbard", "--sites", 2, "--t", 1, "--U", 0,
                    "-o", stem]) == 0
        text = (tmp_path / "fh2.pauli").read_text()
        # JW oracle: -t (a+_0 a_1 + h.c.) -> -(1/2)(X0X1 + Y0Y1)
        assert "-0.5 X0 X1" in text and "-0.5 Y0 Y1" in text

    def test_electronic_from_fcidump(self, tmp_path, h2_fcidump):
        stem = tmp_path / "h2"
        assert run(["build", "electronic", "--fcidump", h2_fcidump, "-o", stem]) == 0
        meta = json.loads((tmp_path / "h2.json").read_text())
        assert meta["n"] == 4

    def test_non_utf8_fcidump_exit_code(self, tmp_path, h2_fcidump):
        h2_fcidump.write_bytes(b"\xff" + h2_fcidump.read_bytes())
        assert run(["build", "electronic", "--fcidump", h2_fcidump,
                    "-o", tmp_path / "h2"]) == 2
        assert not (tmp_path / "h2.pauli").exists()

    def test_vibrational_inline(self, tmp_path):
        stem = tmp_path / "vib"
        assert run(["build", "vibrational", "--omega", "1.0,1.2", "--d", 4,
                    "--coupling", "0,0,1=0.1", "-o", stem]) == 0
        meta = json.loads((tmp_path / "vib.json").read_text())
        assert meta["params"]["couplings"] == {"0,0,1": 0.1}

    @pytest.mark.parametrize("model, d_flag", [
        ({"omega": [1.0, 1.2, 0.9], "couplings": {"0,1,2": 0.1, "1,1": -0.05}, "d": 3}, 4),
        ({"omega": [1.0, 1.2, 0.9], "couplings": {"0,1,2": 0.1, "1,1": -0.05}}, 3),
    ], ids=["d-in-model", "d-from-flag"])
    def test_vibrational_model_matches_inline(self, tmp_path, model, d_flag):
        # A --model file builds exactly what the same model given inline builds: the .pauli
        # file and the metadata sidecar, with d taken from the model before --d.
        (tmp_path / "model.json").write_text(json.dumps(model))
        assert run(["build", "vibrational", "--model", tmp_path / "model.json", "--d", d_flag,
                    "-o", tmp_path / "m"]) == 0
        assert run(["build", "vibrational", "--omega", "1.0,1.2,0.9", "--coupling", "0,1,2=0.1",
                    "--coupling", "1,1=-0.05", "--d", 3, "-o", tmp_path / "i"]) == 0
        for ext in (".pauli", ".json"):
            assert (tmp_path / f"m{ext}").read_bytes() == (tmp_path / f"i{ext}").read_bytes()
        assert json.loads((tmp_path / "m.json").read_text())["params"]["d"] == 3

    @pytest.mark.parametrize("argv", [
        ["fermi-hubbard", "--sites", 3, "--t", "nan", "--U", 2],
        ["bose-hubbard", "--modes", 2, "--d", 3, "--t", "nan", "--U", 1],
        ["vibrational", "--omega", "1.0,1.2", "--coupling", "0,1=nan"],
    ])
    def test_non_finite_parameter_exit_code(self, tmp_path, argv):
        assert run(["build", *argv, "-o", tmp_path / "h"]) == 2
        assert not (tmp_path / "h.pauli").exists()

    @pytest.mark.parametrize("record", [" 0.5 1_0 1 0 0", " 1_0.5 1 1 0 0", " 0.5 \u0661 1 0 0",
                                        " \u0660.5 1 1 0 0", " 0.5 +1 1 0 0"],
                             ids=["index-underscore", "value-underscore", "index-arabic-digit",
                                  "value-arabic-digit", "index-sign"])
    def test_lenient_fcidump_number_exit_code(self, tmp_path, h2_fcidump, capsys, record):
        # Indices are ASCII digits and values pauli.ASCII_FLOAT; int() and float() take more.
        h2_fcidump.write_text(h2_fcidump.read_text() + record + "\n")
        assert run(["build", "electronic", "--fcidump", h2_fcidump, "-o", tmp_path / "h2"]) == 2
        assert "bad numeric field" in capsys.readouterr().err
        assert not (tmp_path / "h2.pauli").exists()

    @pytest.mark.parametrize("norb, sha256", [
        (4, "fe1379ede39470ce602e0b264d2ceb15f346ee37b6f797b39cfd202d00bf04a0"),
        (5, "bb95da4880d1c3b8ca888f6c535b188aa2001f17f2bd84bc580555fd3420e79b"),
    ])
    def test_benchmark_electronic_inputs_build_pinned_bytes(self, tmp_path, norb, sha256):
        # The perfbench generator's seed-3 FCIDUMPs (the certify and score inputs).
        spec = importlib.util.spec_from_file_location(
            "perfbench_inputs", Path(__file__).parents[1] / "perfbench" / "inputs.py")
        inputs = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(inputs)
        inputs.write_electronic(tmp_path / "el.fcidump", norb, 3)
        assert run(["build", "electronic", "--fcidump", tmp_path / "el.fcidump",
                    "-o", tmp_path / "el"]) == 0
        assert hashlib.sha256((tmp_path / "el.pauli").read_bytes()).hexdigest() == sha256

    def test_non_finite_fcidump_record_exit_code(self, tmp_path, h2_fcidump):
        h2_fcidump.write_text(h2_fcidump.read_text() + " nan 1 2 0 0\n")
        assert run(["build", "electronic", "--fcidump", h2_fcidump, "-o", tmp_path / "h2"]) == 2
        assert not (tmp_path / "h2.pauli").exists()

    @pytest.mark.parametrize("content", [
        b"not json", b"\xff\xfe{}", b"[1.0, 1.2]", b'{"d": 4}', b'{"omega": 3}',
        b'{"omega": [1.0], "couplings": [0.1]}',
        b'{"kind": "custom", "sites": "abc", "edges": [[0, 1]]}',
        b'{"kind": "custom", "sites": 2, "edges": [[0]]}',
        b'{"kind": "custom", "sites": 2, "edges": 5}',
        b'{"kind": "custom", "sites": 2, "edges": [["a", 1]]}',
    ], ids=["not-json", "not-utf8", "not-object", "no-omega", "omega-mistyped",
            "couplings-mistyped", "sites-mistyped", "edge-short", "edges-mistyped",
            "edge-mistyped"])
    def test_malformed_json_input_exit_code(self, tmp_path, content):
        (tmp_path / "in.json").write_bytes(content)
        stem = tmp_path / "out"
        assert run(["build", "vibrational", "--model", tmp_path / "in.json", "-o", stem]) == 2
        if content != b'{"d": 4}':
            assert run(["build", "bose-hubbard", "--modes", 2, "--lattice",
                        f"@{tmp_path / 'in.json'}", "-o", stem]) == 2
        assert not (tmp_path / "out.pauli").exists()

    @pytest.mark.parametrize("d", ["4.5", "1e400", "true", '"4"', "4.0"])
    def test_model_truncation_not_an_integer_exit_code(self, tmp_path, capsys, d):
        # A fractional d used to build d=4 silently; an overflowing one raised OverflowError.
        (tmp_path / "model.json").write_text(f'{{"omega": [1.0, 1.2], "d": {d}}}')
        assert run(["build", "vibrational", "--model", tmp_path / "model.json",
                    "-o", tmp_path / "m"]) == 2
        assert "truncation d must be an integer" in capsys.readouterr().err
        assert not (tmp_path / "m.pauli").exists()

    @pytest.mark.parametrize("spec", ["square:3xq", "square:3", "cubic:2x2", "square:0x3",
                                      "hexagonal:2x0", "all-to-all"])
    def test_malformed_lattice_spec_exit_code(self, tmp_path, capsys, spec):
        # Non-integer or missing dimensions and empty extents are usage errors, not tracebacks
        # or 0-qubit Hamiltonians.
        assert run(["build", "fermi-hubbard", "--lattice", spec, "--sites", 0,
                    "-o", tmp_path / "fh"]) == 2
        assert repr(spec) in capsys.readouterr().err
        assert not (tmp_path / "fh.pauli").exists()

    def test_unknown_class_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as err:
            run(["build", "spin-glass", "-o", tmp_path / "x"])
        assert err.value.code == 2

    def test_deterministic_outputs(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for stem in (a, b):
            run(["build", "bose-hubbard", "--modes", 2, "--d", 3, "-o", stem])
        assert (tmp_path / "a.pauli").read_bytes() == (tmp_path / "b.pauli").read_bytes()


class TestPartition:
    def test_qpn_three_fragments(self, b3d4, tmp_path):
        out = tmp_path / "qpn.json"
        assert run(["partition", f"{b3d4}.pauli", "--method", "qpn", "-o", out]) == 0
        data = json.loads(out.read_text())
        assert len(data["fragments"]) == 3
        assert data["validation"]["ok"] is True
        assert [b["kind"] for b in data["validation"]["bases"]] == ["tensor-wise"] * 3
        assert data["validation"]["basis_summary"]["two_qubit_gates"] == {"total": 0, "max": 0}

    @pytest.mark.parametrize("command", [
        ["partition", "{stem}.pauli", "--method", "fc-si", "--k", 0, "-o", "{out}"],
        ["partition", "{stem}.pauli", "--method", "qpn", "--k", -1, "-o", "{out}"],
        ["partition", "{stem}.pauli", "--method", "greedy", "--k", 0, "-o", "{out}"],
        ["verify", "{out}", "--hamiltonian", "{stem}.pauli", "--k", 0],
        ["verify", "{out}", "--hamiltonian", "{stem}.pauli", "--k", -3],
    ], ids=["fc-si-0", "qpn-minus-1", "greedy-0", "verify-0", "verify-minus-3"])
    def test_nonpositive_k_is_a_usage_error(self, b3d4, tmp_path, monkeypatch, capsys, command):
        out = tmp_path / "p.json"
        if command[0] == "verify":
            assert run(["partition", f"{b3d4}.pauli", "--method", "qpn", "-o", out]) == 0
            before = out.read_bytes()

        def load(path):
            raise AssertionError(f"{path} loaded before --k was checked")

        monkeypatch.setattr(cli, "_load_hamiltonian", load)
        capsys.readouterr()
        assert run([str(a).format(stem=b3d4, out=out) for a in command]) == 2
        assert "--k must be at least 1" in capsys.readouterr().err
        assert out.read_bytes() == before if command[0] == "verify" else not out.exists()

    def test_coloring_fragment_count(self, b3d4, tmp_path):
        out = tmp_path / "col.json"
        assert run(["partition", f"{b3d4}.pauli", "--method", "coloring", "-o", out]) == 0
        data = json.loads(out.read_text())
        assert len(data["fragments"]) == 3  # chain of 3 sites: 2 colors + diagonal

    def test_illustrative_fc_si_five_fragments(self, tmp_path):
        ham = tmp_path / "illus.pauli"
        ham.write_text(ILLUSTRATIVE_TEXT)
        out = tmp_path / "fc.json"
        assert run(["partition", ham, "--method", "fc-si", "-o", out]) == 0
        assert len(json.loads(out.read_text())["fragments"]) == 5

    def test_coloring_of_lattice_file_with_stacked_rungs(self, tmp_path):
        # Two hexagonal rungs meet at site 1, so their direction class is not a proper coloring.
        lat = {"kind": "hexagonal", "sites": 3, "edges": [[0, 1], [1, 2]],
               "positions": [[0, 0], [0, 1], [0, 2]]}
        (tmp_path / "hex3.json").write_text(json.dumps(lat))
        stem = tmp_path / "hex3"
        assert run(["build", "bose-hubbard", "--lattice", f"@{tmp_path / 'hex3.json'}",
                    "--d", 4, "-o", stem]) == 0
        out = tmp_path / "col.json"
        assert run(["partition", f"{stem}.pauli", "--method", "coloring", "-o", out]) == 0
        data = json.loads(out.read_text())
        assert data["validation"]["ok"] is True
        assert len(data["fragments"]) == 3  # two hop colors and the diagonal

    def test_qp_requires_vibrational(self, b3d4, tmp_path):
        code = run(["partition", f"{b3d4}.pauli", "--method", "qp",
                    "-o", tmp_path / "x.json"])
        assert code == 2

    def test_vibrational_qp_two_fragments(self, tmp_path):
        stem = tmp_path / "vib"
        run(["build", "vibrational", "--omega", "1.0,1.2,0.9", "--d", 4,
             "--coupling", "0,1,2=0.1", "-o", stem])
        out = tmp_path / "qp.json"
        assert run(["partition", f"{stem}.pauli", "--method", "qp", "-o", out]) == 0
        assert len(json.loads(out.read_text())["fragments"]) == 2

    def test_fh1d_two_fragments(self, tmp_path):
        stem = tmp_path / "fh4"
        run(["build", "fermi-hubbard", "--sites", 4, "--t", 1, "--U", 2, "-o", stem])
        out = tmp_path / "fh1d.json"
        assert run(["partition", f"{stem}.pauli", "--method", "fh1d-coloring",
                    "-o", out]) == 0
        assert len(json.loads(out.read_text())["fragments"]) == 2

    def test_fh1d_partitions_the_file_it_is_given(self, tmp_path):
        # One coefficient of the .pauli file is scaled and its .json kept: the partition must
        # reconstruct the file, not the operator the metadata describes.
        stem = tmp_path / "fh6"
        run(["build", "fermi-hubbard", "--sites", 6, "--t", 1, "--U", 2, "-o", stem])
        pauli_path = Path(f"{stem}.pauli")
        *head, last = pauli_path.read_text().splitlines()
        coeff, letters = last.split(" ", 1)
        pauli_path.write_text("\n".join([*head, f"{3 * float(coeff)!r} {letters}"]) + "\n")
        out = tmp_path / "fh1d.json"
        assert run(["partition", pauli_path, "--method", "fh1d-coloring", "-o", out]) == 0
        report = json.loads(out.read_text())["validation"]
        assert report["ok"] is True and report["reconstruction_error"] == 0.0

    def test_fh1d_neither_rebuilds_nor_encodes(self, tmp_path, monkeypatch):
        stem = tmp_path / "fh4"
        run(["build", "fermi-hubbard", "--sites", 4, "--t", 1, "--U", 2, "-o", stem])

        def refuse(*args, **kwargs):
            raise AssertionError("fh1d-coloring must partition the parsed .pauli sum")

        for name in ("build_fermi_hubbard", "jordan_wigner"):
            monkeypatch.setattr(cli, name, refuse)
        out = tmp_path / "fh1d.json"
        assert run(["partition", f"{stem}.pauli", "--method", "fh1d-coloring",
                    "-o", out]) == 0

    def test_fh1d_seventy_site_chain(self, tmp_path):
        # 70 qubits: past one 64-bit mask word, so the fragments hold two words a mask.
        stem = tmp_path / "fh70"
        run(["build", "fermi-hubbard", "--sites", 70, "--lattice", "chain", "-o", stem])
        out = tmp_path / "fh70.json"
        assert run(["partition", f"{stem}.pauli", "--method", "fh1d-coloring",
                    "-o", out]) == 0
        assert len(json.loads(out.read_text())["fragments"]) == 2
        assert run(["verify", out, "--hamiltonian", f"{stem}.pauli"]) == 0

    def test_fc_si_certifies_ten_qubit_electronic(self, tmp_path):
        # Clifford bases: no dense whole-support eigenbasis, so no 8-qubit cap (exit 4).
        rng = np.random.default_rng(10)
        ints = ElectronicIntegrals(norb=5)
        for i in range(5):
            for j in range(i, 5):
                ints.set_one_body(i, j, float(rng.normal(0.0, 0.3)))
        pairs = [(i, j) for i in range(5) for j in range(i + 1)]
        for a, (i, j) in enumerate(pairs):
            for k, l in pairs[: a + 1]:
                ints.set_two_body(i, j, k, l, float(rng.normal(0.0, 0.05)))
        write_fcidump(tmp_path / "el5.fcidump", ints)
        stem = tmp_path / "el5"
        assert run(["build", "electronic", "--fcidump", tmp_path / "el5.fcidump",
                    "-o", stem]) == 0
        out = tmp_path / "fc.json"
        assert run(["partition", f"{stem}.pauli", "--method", "fc-si", "-o", out]) == 0
        validation = json.loads(out.read_text())["validation"]
        assert validation["ok"] is True
        summary = validation["basis_summary"]
        assert summary["kinds"]["clifford"] > 0 and summary["largest_block"] == 2
        gates = [b["two_qubit_gates"] for b in validation["bases"]]
        assert summary["two_qubit_gates"] == {"total": sum(gates), "max": max(gates)}

    def test_block_over_dense_cap_exit_code(self, xz13, tmp_path):
        out = tmp_path / "x.json"
        assert run(["partition", xz13, "--method", "greedy", "--k", DENSE_QUBIT_CAP + 1,
                    "-o", out]) == 4
        assert not out.exists()

    @pytest.mark.parametrize("text", ["0.5 X1_0 Z0\n", "1_0.5 X0\n", "\u0661.5 X0\n",
                                      "0.5 X\u0661\n"],
                             ids=["qubit-underscore", "coefficient-underscore",
                                  "coefficient-arabic-digit", "qubit-arabic-digit"])
    def test_lenient_pauli_number_exit_code(self, tmp_path, text):
        # int() reads X1_0 as qubit 10 and float() 1_0.5 as 10.5; the file format does not.
        (tmp_path / "h.pauli").write_text("1.0 Z0\n" + text)
        out = tmp_path / "x.json"
        assert run(["partition", tmp_path / "h.pauli", "--method", "fc-si", "-o", out]) == 2
        assert not out.exists()

    def test_realized_block_bytes_over_cap_exit_code(self, tmp_path, monkeypatch):
        # Greedy k = 8 on 8 qubits holds one 8-qubit block: 16 * 4^8 = 1 MiB once realized.
        (tmp_path / "xz8.pauli").write_text("1.0 " + " ".join(f"X{q}" for q in range(8))
                                            + "\n0.5 " + " ".join(f"Z{q}" for q in range(8)))
        monkeypatch.setattr(fragments, "REALIZED_BYTES_CAP", 1 << 19)
        out = tmp_path / "x.json"
        tracemalloc.start()
        try:
            code = run(["partition", tmp_path / "xz8.pauli", "--method", "greedy", "--k", 8,
                        "-o", out])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 4 and not out.exists()
        assert peak < 1 << 18

    def test_greedy_needs_k(self, b3d4, tmp_path):
        assert run(["partition", f"{b3d4}.pauli", "--method", "greedy",
                    "-o", tmp_path / "x.json"]) == 2

    @pytest.mark.parametrize("edit", [
        lambda meta: "not json {",
        lambda meta: "[1, 2]",
        lambda meta: json.dumps({**meta, "n": "six"}),
        lambda meta: json.dumps({**meta, "params": ["bose-hubbard"]}),
        lambda meta: json.dumps({**meta, "params": {"class": "bose-hubbard"}}),
        lambda meta: json.dumps({**meta, "params": {**meta["params"], "t": "one"}}),
        lambda meta: json.dumps({**meta, "params": {**meta["params"], "lattice": [0, 1]}}),
    ], ids=["not-json", "not-object", "n-mistyped", "params-not-object",
            "params-missing", "t-mistyped", "lattice-mistyped"])
    def test_malformed_metadata_exit_code(self, b3d4, tmp_path, edit):
        sidecar = b3d4.parent / "b3d4.json"
        sidecar.write_text(edit(json.loads(sidecar.read_text())))
        out = tmp_path / "x.json"
        assert run(["partition", f"{b3d4}.pauli", "--method", "qpn", "-o", out]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("text", ["0.5 Z0\n", "0.5\n"], ids=["one-term", "constant-only"])
    @pytest.mark.parametrize("n", ["true", "-1", "2.0"])
    def test_sidecar_n_not_a_non_negative_integer_exit_code(self, tmp_path, capsys, text, n):
        # As in a partition file: JSON true, a negative or a fractional n names the sidecar.
        (tmp_path / "h.pauli").write_text(text)
        (tmp_path / "h.json").write_text(f'{{"n": {n}}}')
        out = tmp_path / "x.json"
        assert run(["partition", tmp_path / "h.pauli", "--method", "fc-si", "-o", out]) == 2
        err = capsys.readouterr().err
        assert "h.json: n must be a non-negative JSON integer" in err and "qubit" not in err
        assert not out.exists()

    @pytest.mark.parametrize("method", ["qpn", "coloring"])
    @pytest.mark.parametrize("field, value", [("d", "4.5"), ("d", "1e400"), ("d", '"4"'),
                                              ("t", "true"), ("U", "false"), ("t", "1e400")],
                             ids=["d-fraction", "d-overflow", "d-string", "t-bool", "U-bool",
                                  "t-overflow"])
    def test_bosonic_sidecar_number_exit_code(self, b3d4, tmp_path, capsys, method, field, value):
        # d must be an integer and t, U finite numbers: never truncated, nor a bool read as 1.
        sidecar = b3d4.parent / "b3d4.json"
        meta = json.loads(sidecar.read_text())
        meta["params"][field] = "@"
        sidecar.write_text(json.dumps(meta).replace('"@"', value))
        out = tmp_path / "x.json"
        assert run(["partition", f"{b3d4}.pauli", "--method", method, "-o", out]) == 2
        assert f"{field} must be" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("suffix", [".pauli", ".json"])
    def test_non_utf8_input_exit_code(self, b3d4, tmp_path, suffix):
        path = b3d4.parent / f"b3d4{suffix}"
        path.write_bytes(b"\xff\xfe" + path.read_bytes())
        out = tmp_path / "x.json"
        assert run(["partition", f"{b3d4}.pauli", "--method", "qpn", "-o", out]) == 2
        assert not out.exists()


class TestPartitionBuildsNoTerms:
    """CLI `partition` of a method that starts from Pauli strings checks, certifies and writes
    the partition from its sets: no TensorFactor or TensorProductTerm is made on the way."""

    @staticmethod
    def _check_and_write(part, h, argv):
        check_realized_bytes(part)
        assert validate_partition(part, h).ok
        partition_to_json(part)
        assert run(["partition", *argv]) == 0

    @pytest.mark.parametrize("method", [["fc-si"], ["qwc-si"], ["greedy", "--k", 3],
                                        ["blocking", "--k", 3]])
    def test_benchmark_electronic_instance(self, tmp_path, built_terms, method):
        benchmark_fcidump(tmp_path / "el4.fcidump", 4, 3)
        stem = tmp_path / "el4"
        assert run(["build", "electronic", "--fcidump", tmp_path / "el4.fcidump", "-o", stem]) == 0
        h = parse_pauli_text(Path(f"{stem}.pauli").read_text())
        part = cli.run_method(method[0], h, None, method[2] if method[1:] else None)
        self._check_and_write(part, h, [f"{stem}.pauli", "--method", *method,
                                        "-o", tmp_path / "p.json"])
        assert built_terms == {}

    def test_fh1d_forty_site_chain(self, tmp_path, built_terms):
        stem = tmp_path / "fh40"
        assert run(["build", "fermi-hubbard", "--sites", 40, "--lattice", "chain", "-o", stem]) == 0
        h = parse_pauli_text(Path(f"{stem}.pauli").read_text())
        part = cli.color_partition_fermi_hubbard_1d(h, 40)
        self._check_and_write(part, h, [f"{stem}.pauli", "--method", "fh1d-coloring",
                                        "-o", tmp_path / "p.json"])
        assert built_terms == {}


class TestNoPauliStringBetweenTheFiles:
    """The CLI builds, partitions and scores from string tables: no PauliString is made."""

    @pytest.mark.parametrize("norb", [4, 5])
    def test_electronic_build(self, tmp_path, built_strings, norb):
        benchmark_fcidump(tmp_path / "el.fcidump", norb, 3)
        assert run(["build", "electronic", "--fcidump", tmp_path / "el.fcidump",
                    "-o", tmp_path / "el"]) == 0
        assert built_strings == {}

    def test_partition_and_evaluate(self, tmp_path, built_strings):
        benchmark_fcidump(tmp_path / "el4.fcidump", 4, 3)
        stem = tmp_path / "el4"
        assert run(["build", "electronic", "--fcidump", tmp_path / "el4.fcidump", "-o", stem]) == 0
        for tag, method in (("fc", ["fc-si"]), ("greedy", ["greedy", "--k", 3])):
            assert run(["partition", f"{stem}.pauli", "--method", *method,
                        "-o", tmp_path / f"{tag}.json"]) == 0
        assert run(["evaluate", tmp_path / "fc.json", tmp_path / "greedy.json", "--hamiltonian",
                    f"{stem}.pauli", "--states", 3, "-o", tmp_path / "report"]) == 0
        assert run(["verify", tmp_path / "greedy.json", "--hamiltonian", f"{stem}.pauli"]) == 0
        assert built_strings == {}


class TestEvaluate:
    def test_basis_state_gpb_value(self, tmp_path):
        ham = tmp_path / "h1.pauli"
        s = repr(float(1 / np.sqrt(2)))
        ham.write_text(f"{s} X0\n{s} Z0\n")
        part = tmp_path / "gpb.json"
        run(["partition", ham, "--method", "qwc-si", "-o", part])
        out = tmp_path / "rep"
        assert run(["evaluate", part, "--hamiltonian", ham,
                    "--state", "basis:0", "-o", out]) == 0
        lines = (tmp_path / "rep.csv").read_text().splitlines()
        assert lines[0] == "method,seed,L,total,lower_bound,per_fragment"
        row = lines[1].split(",")
        assert abs(float(row[3]) - 0.5) < 1e-12
        assert abs(float(row[4]) - 0.5) < 1e-12

    @pytest.mark.parametrize("spec", ["basis:0", "haar:1"])
    def test_state_over_qubit_cap_exit_code(self, tmp_path, capsys, spec):
        ham = tmp_path / "z16.pauli"
        ham.write_text("1.0 Z16\n")  # 17 qubits, one over the state cap
        part = tmp_path / "z.json"
        assert run(["partition", ham, "--method", "qwc-si", "-o", part]) == 0
        assert run(["evaluate", part, "--hamiltonian", ham, "--state", spec,
                    "-o", tmp_path / "rep"]) == 4
        assert "states capped at 16 qubits" in capsys.readouterr().err
        assert not (tmp_path / "rep.csv").exists()

    def test_single_fragment_row_equals_lower_bound(self, b3d4, tmp_path):
        part = tmp_path / "g.json"
        run(["partition", f"{b3d4}.pauli", "--method", "greedy", "--k", 6, "-o", part])
        out = tmp_path / "rep"
        run(["evaluate", part, "--hamiltonian", f"{b3d4}.pauli",
             "--states", 3, "--seed", 5, "-o", out])
        for line in (tmp_path / "rep.csv").read_text().splitlines()[1:]:
            fields = line.split(",")
            assert abs(float(fields[3]) - float(fields[4])) < 1e-9

    def test_byte_identical_reruns(self, b3d4, tmp_path):
        part = tmp_path / "qpn.json"
        run(["partition", f"{b3d4}.pauli", "--method", "qpn", "-o", part])
        for out in ("r1", "r2"):
            run(["evaluate", part, "--hamiltonian", f"{b3d4}.pauli",
                 "--states", 4, "--seed", 9, "-o", tmp_path / out])
        assert (tmp_path / "r1.csv").read_bytes() == (tmp_path / "r2.csv").read_bytes()
        assert (tmp_path / "r1.json").read_bytes() == (tmp_path / "r2.json").read_bytes()

    def test_chunked_states_give_one_block_bytes(self, b3d4, tmp_path, monkeypatch):
        parts = []
        for method in ("qpn", "coloring", "qwc-si"):
            parts.append(tmp_path / f"{method}.json")
            run(["partition", f"{b3d4}.pauli", "--method", method, "-o", parts[-1]])
        outputs = []
        for width in (None, 2, 1):  # one block, then chunks of two columns and of one
            if width:
                monkeypatch.setattr(variance, "STATE_CHUNK_BYTES", width * 4 * 16 << 6)
            out = tmp_path / f"rep{width}"
            assert run(["evaluate", *parts, "--hamiltonian", f"{b3d4}.pauli",
                        "--states", 5, "--seed", 9, "-o", out]) == 0
            assert run(["sweep-k", f"{b3d4}.pauli", "--method", "greedy", "--states", 5,
                        "-o", f"{out}-sweep.csv"]) == 0
            outputs.append([Path(f"{out}{suffix}").read_bytes()
                            for suffix in (".csv", ".json", "-sweep.csv")])
        assert outputs[0] == outputs[1] == outputs[2]

    def test_state_column_over_chunk_cap_exit_code(self, b3d4, tmp_path, monkeypatch, capsys):
        part = tmp_path / "qpn.json"
        run(["partition", f"{b3d4}.pauli", "--method", "qpn", "-o", part])
        monkeypatch.setattr(variance, "STATE_CHUNK_BYTES", 4 * 16 << 5)  # one 5-qubit column
        assert run(["evaluate", part, "--hamiltonian", f"{b3d4}.pauli",
                    "--states", 2, "-o", tmp_path / "rep"]) == 4
        assert run(["sweep-k", f"{b3d4}.pauli", "--method", "greedy", "--states", 2,
                    "-o", tmp_path / "sweep.csv"]) == 4
        assert "exceed" in capsys.readouterr().err
        assert not (tmp_path / "rep.csv").exists() and not (tmp_path / "sweep.csv").exists()

    def test_sixteen_qubit_states_are_held_one_chunk_at_a_time(self, tmp_path):
        # 32 states of 16 qubits take 32 MiB as one block; scored chunk by chunk, the run's
        # traced peak stays under the chunk cap plus the arrays of one partition pass.
        stem = tmp_path / "b8"
        assert run(["build", "bose-hubbard", "--modes", 8, "--d", 4, "--t", 1, "--U", 2,
                    "-o", stem]) == 0
        part = tmp_path / "qpn.json"
        save_partition(part, qpn_partition(*_bose_chain(8)))
        tracemalloc.start()
        try:
            assert run(["evaluate", part, "--hamiltonian", f"{stem}.pauli", "--states", 32,
                        "-o", tmp_path / "rep"]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < variance.STATE_CHUNK_BYTES + (8 << 20)
        assert len((tmp_path / "rep.csv").read_text().splitlines()) == 33

    def test_mismatched_hamiltonian_rejected(self, b3d4, tmp_path):
        part = tmp_path / "qpn.json"
        run(["partition", f"{b3d4}.pauli", "--method", "qpn", "-o", part])
        other = tmp_path / "other.pauli"
        other.write_text("1.0 X0\n")
        assert run(["evaluate", part, "--hamiltonian", other,
                    "-o", tmp_path / "rep"]) == 2

    @pytest.mark.parametrize("states", [0, -2])
    def test_nonpositive_state_count_rejected(self, b3d4, tmp_path, states):
        part = tmp_path / "qpn.json"
        run(["partition", f"{b3d4}.pauli", "--method", "qpn", "-o", part])
        assert run(["evaluate", part, "--hamiltonian", f"{b3d4}.pauli",
                    "--states", states, "-o", tmp_path / "rep"]) == 2
        assert not (tmp_path / "rep.csv").exists()

    @pytest.mark.parametrize("spec", ["haar:abc", "basis:1x"])
    def test_malformed_state_spec_rejected(self, b3d4, tmp_path, capsys, spec):
        part = tmp_path / "qpn.json"
        run(["partition", f"{b3d4}.pauli", "--method", "qpn", "-o", part])
        assert run(["evaluate", part, "--hamiltonian", f"{b3d4}.pauli",
                    "--state", spec, "-o", tmp_path / "rep"]) == 2
        assert repr(spec) in capsys.readouterr().err
        assert not (tmp_path / "rep.csv").exists()

    def test_negative_seed_rejected(self, b3d4, tmp_path, capsys):
        part = tmp_path / "qpn.json"
        run(["partition", f"{b3d4}.pauli", "--method", "qpn", "-o", part])
        assert run(["evaluate", part, "--hamiltonian", f"{b3d4}.pauli", "--seed", -3,
                    "--states", 2, "-o", tmp_path / "rep"]) == 2
        assert "non-negative" in capsys.readouterr().err
        assert not (tmp_path / "rep.csv").exists()

    def test_fragment_without_terms_rejected(self, b3d4, tmp_path):
        part = tmp_path / "qpn.json"
        run(["partition", f"{b3d4}.pauli", "--method", "qpn", "-o", part])
        data = json.loads(part.read_text())
        del data["fragments"][0]["terms"]
        part.write_text(json.dumps(data))
        assert run(["evaluate", part, "--hamiltonian", f"{b3d4}.pauli",
                    "-o", tmp_path / "rep"]) == 2


class TestSweepK:
    @pytest.mark.parametrize("states", [0, -1])
    def test_nonpositive_state_count_rejected(self, tmp_path, h2_fcidump, states):
        stem = tmp_path / "h2"
        run(["build", "electronic", "--fcidump", h2_fcidump, "-o", stem])
        out = tmp_path / "s.csv"
        assert run(["sweep-k", f"{stem}.pauli", "--method", "greedy",
                    "--states", states, "-o", out]) == 2
        assert not out.exists()

    def test_negative_seed_rejected(self, tmp_path, h2_fcidump, capsys):
        stem = tmp_path / "h2"
        run(["build", "electronic", "--fcidump", h2_fcidump, "-o", stem])
        out = tmp_path / "s.csv"
        assert run(["sweep-k", f"{stem}.pauli", "--method", "greedy",
                    "--seed", -3, "-o", out]) == 2
        assert "non-negative" in capsys.readouterr().err
        assert not out.exists()

    def test_header_and_endpoint(self, tmp_path, h2_fcidump):
        stem = tmp_path / "h2"
        run(["build", "electronic", "--fcidump", h2_fcidump, "-o", stem])
        out = tmp_path / "sweep.csv"
        assert run(["sweep-k", f"{stem}.pauli", "--method", "greedy",
                    "--states", 5, "--seed", 3, "-o", out]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "k,L,mean_var,fc_si_var,lower_bound"
        last = lines[-1].split(",")
        assert last[0] == "4" and last[1] == "1"  # k=n endpoint: one fragment
        assert abs(float(last[2]) - float(last[4])) < 1e-9  # equals lower bound

    def test_k_star_reported(self, tmp_path, h2_fcidump, capsys):
        stem = tmp_path / "h2"
        run(["build", "electronic", "--fcidump", h2_fcidump, "-o", stem])
        run(["sweep-k", f"{stem}.pauli", "--method", "greedy",
             "--states", 5, "--seed", 3, "-o", tmp_path / "s.csv"])
        printed = capsys.readouterr().out
        assert "k_star=" in printed
        k_star = printed.rsplit("k_star=", 1)[1].split()[0]
        assert k_star != "none" and 1 <= int(k_star) <= 4

    @staticmethod
    def _sweep_csv_remaking_states(h, method, k_range, states, seed):
        """The sweep CSV as made when every k made the states again: each of FC-SI with the
        lower bound and the k partitions is scored on its own _score_states pass."""
        makers = [partial(random_state, h.n, seed + i) for i in range(states)]
        fc = sorted_insertion(h, "full")
        _, (fc_totals, lbs) = cli._score_states(h.n, makers, lambda block: (
            partition_costs(fc, block)[0], lower_bounds(h, block)))
        fc_mean, lb_mean = float(np.mean(fc_totals)), float(np.mean(lbs))
        lines = ["k,L,mean_var,fc_si_var,lower_bound"]
        for k in k_range:
            part = cli.run_method(method, h, None, k)
            _, (totals,) = cli._score_states(h.n, makers,
                                             lambda block: (partition_costs(part, block)[0],))
            lines.append(f"{k},{len(part.fragments)},{cli._fmt(float(np.mean(totals)))},"
                         f"{cli._fmt(fc_mean)},{cli._fmt(lb_mean)}")
        return "\n".join(lines) + "\n"

    @pytest.mark.parametrize("method", ["greedy", "blocking"])
    def test_states_are_made_once_per_sweep(self, b3d4, tmp_path, monkeypatch, method):
        h = parse_pauli_text(Path(f"{b3d4}.pauli").read_text())
        want = self._sweep_csv_remaking_states(h, method, range(1, 5), 4, 11)
        made = []
        real = cli.random_state
        monkeypatch.setattr(cli, "random_state", lambda n, seed: made.append(seed) or real(n, seed))
        out = tmp_path / "s.csv"
        assert run(["sweep-k", f"{b3d4}.pauli", "--method", method, "--k-max", 4,
                    "--states", 4, "--seed", 11, "-o", out]) == 0
        assert made == [11, 12, 13, 14]
        assert out.read_text() == want

    @pytest.mark.parametrize("method", ["greedy", "blocking"])
    def test_sweep_builds_no_terms(self, b3d4, tmp_path, built_terms, method):
        # FC-SI and every k's partition are scored on the strings their fragments hold.
        assert run(["sweep-k", f"{b3d4}.pauli", "--method", method, "--states", 2,
                    "-o", tmp_path / "s.csv"]) == 0
        assert built_terms == {}

    @staticmethod
    def _refuse_at(monkeypatch, k):
        """Make sweep-k's scoring of greedy at locality bound k raise ResourceError."""
        real = cli.partition_costs

        def refusing(part, states):
            if part.source == f"greedy(k={k})":
                raise ResourceError(f"scoring refused at k={k}")
            return real(part, states)

        monkeypatch.setattr(cli, "partition_costs", refusing)

    def test_refused_k_keeps_earlier_rows(self, xz13, tmp_path, monkeypatch):
        # exit 4 at k = n, after the rows of k = n - 2 and n - 1 are written.
        n = DENSE_QUBIT_CAP + 1
        self._refuse_at(monkeypatch, n)
        out = tmp_path / "s.csv"
        assert run(["sweep-k", xz13, "--method", "greedy", "--k-min", n - 2,
                    "--states", 2, "-o", out]) == 4
        lines = out.read_text().splitlines()
        assert lines[0] == "k,L,mean_var,fc_si_var,lower_bound"
        assert [line.split(",")[0] for line in lines[1:]] == [str(n - 2), str(n - 1)]

    def test_refused_first_k_writes_header_only(self, xz13, tmp_path, monkeypatch):
        self._refuse_at(monkeypatch, DENSE_QUBIT_CAP + 1)
        out = tmp_path / "s.csv"
        assert run(["sweep-k", xz13, "--method", "greedy", "--k-min", DENSE_QUBIT_CAP + 1,
                    "--states", 2, "-o", out]) == 4
        assert out.read_text() == "k,L,mean_var,fc_si_var,lower_bound\n"

    def test_block_over_dense_cap_is_scored(self, xz13, tmp_path):
        # Scoring expands the k = n free block from its strings; no dense block is realized.
        n = DENSE_QUBIT_CAP + 1
        out = tmp_path / "s.csv"
        assert run(["sweep-k", xz13, "--method", "greedy", "--k-min", n,
                    "--states", 2, "-o", out]) == 0
        assert [line.split(",")[0] for line in out.read_text().splitlines()] == ["k", str(n)]

    def test_fourteen_qubit_chain_matches_library(self, tmp_path, monkeypatch):
        stem = tmp_path / "b7"
        assert run(["build", "bose-hubbard", "--modes", 7, "--d", 4, "-o", stem]) == 0
        calls = []
        real = pauli.dense_sum  # what realizes a factor's block from its strings
        monkeypatch.setattr(pauli, "dense_sum", lambda *a: calls.append(a) or real(*a))
        out = tmp_path / "s.csv"
        assert run(["sweep-k", f"{stem}.pauli", "--method", "greedy", "--k-min", 12,
                    "--states", 1, "--seed", 2024, "-o", out]) == 0
        h = parse_pauli_text((tmp_path / "b7.pauli").read_text())
        assert h.n == 14
        block = state_block([random_state(h.n, 2024)])
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        assert [int(row[0]) for row in rows] == [12, 13, 14]
        for row in rows:
            expected = partition_costs(greedy_partition(h, int(row[0])), block)[0][0]
            np.testing.assert_allclose(float(row[2]), expected, rtol=1e-12)
        np.testing.assert_allclose(float(rows[-1][2]), lower_bounds(h, block)[0], rtol=1e-12)
        assert calls == []  # greedy's free blocks are never realized for scoring


class TestTheorem1:
    def test_default_grid_passes(self, tmp_path):
        out = tmp_path / "grid.csv"
        assert run(["theorem1", "-o", out]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "eta,alpha,n_gpb,n_rb"
        assert len(lines) == 1 + 101 * 101
        # contains the reference row (1/sqrt2, cos(pi/8)) -> (1, 0)
        hit = [
            line for line in lines[1:]
            if abs(float(line.split(",")[0]) - 1 / np.sqrt(2)) < 1e-12
            and abs(float(line.split(",")[1]) - np.cos(np.pi / 8)) < 1e-12
        ]
        assert len(hit) == 1
        _, _, gpb, rb = (float(x) for x in hit[0].split(","))
        assert abs(gpb - 1.0) < 1e-12 and abs(rb) < 1e-12

    def test_resolution_two_corner_rows(self, tmp_path):
        out = tmp_path / "grid2.csv"
        assert run(["theorem1", "--resolution", 2, "-o", out]) == 0
        assert len(out.read_text().splitlines()) == 5


class TestVerify:
    def test_ok_partition(self, b3d4, tmp_path):
        part = tmp_path / "qpn.json"
        run(["partition", f"{b3d4}.pauli", "--method", "qpn", "-o", part])
        assert run(["verify", part, "--hamiltonian", f"{b3d4}.pauli"]) == 0

    @pytest.mark.parametrize("method", [["greedy", "--k", 3], ["blocking", "--k", 3],
                                        ["fc-si"], ["qwc-si"]])
    def test_report_equals_partition_report(self, b3d4, tmp_path, capsys, method):
        # Both certify the blocks the file holds, not the strings the factors were built from;
        # loaded X/Y/Z blocks are the shared unit factors the partitioner used.
        part = tmp_path / "p.json"
        assert run(["partition", f"{b3d4}.pauli", "--method", *method, "-o", part]) == 0
        capsys.readouterr()
        assert run(["verify", part, "--hamiltonian", f"{b3d4}.pauli"]) == 0
        verified = json.loads(capsys.readouterr().out)
        assert verified == json.loads(part.read_text())["validation"]
        if method[0] in ("greedy", "blocking"):  # the blocks' rounding, not exact strings
            assert verified["reconstruction_error"] > 0.0

    def test_corrupted_partition_fails(self, b3d4, tmp_path):
        part = tmp_path / "qpn.json"
        run(["partition", f"{b3d4}.pauli", "--method", "qpn", "-o", part])
        data = json.loads(part.read_text())
        block = data["fragments"][0]["terms"][0]["factors"][0]["block"]
        block[0][0] += 0.5  # break reconstruction
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data))
        assert run(["verify", bad, "--hamiltonian", f"{b3d4}.pauli"]) == 3

    def test_terms_without_common_basis_fail(self, tmp_path):
        ham = tmp_path / "xz.pauli"
        ham.write_text("1.0 X0\n1.0 Z0\n")
        h = PauliSum(1, [(1.0, PauliString.from_letters("X")),
                         (1.0, PauliString.from_letters("Z"))])
        frag = Fragment(tuple(letter_term(c, s) for c, s in h), "xz")
        part = Partition(1, (frag,), source="xz")
        assert check_reconstruction(part, h) < 1e-15
        report = validate_partition(part, h)
        assert not report.ok
        assert report.to_dict()["basis_summary"]["kinds"] == {"none": 1}
        save_partition(tmp_path / "xz.json", part)
        assert run(["verify", tmp_path / "xz.json", "--hamiltonian", ham]) == 3

    def test_non_json_partition_exit_code(self, b3d4, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("not json {")
        assert run(["verify", bad, "--hamiltonian", f"{b3d4}.pauli"]) == 2

    @pytest.mark.parametrize("command", ["verify", "evaluate"])
    def test_non_utf8_partition_exit_code(self, b3d4, tmp_path, command):
        part = tmp_path / "qpn.json"
        run(["partition", f"{b3d4}.pauli", "--method", "qpn", "-o", part])
        part.write_bytes(b"\xff\xfe" + part.read_bytes())
        extra = ["-o", tmp_path / "rep"] if command == "evaluate" else []
        assert run([command, part, "--hamiltonian", f"{b3d4}.pauli", *extra]) == 2

    # Numbers a partition file must refuse, by test id: (method, field, new value from the old).
    # The qpn file's first factor is on qubits [0, 1] with a 4 x 4 block, the fc-si file's is a
    # letter on qubit 4; qubits are changed at index -1. A float or bool qubit would truncate
    # to a valid qubit through int(), and NaN compares false in a Hermitian test by >.
    MALFORMED_NUMBERS = {
        "qubit-negative": ("qpn", "qubit", lambda q: -1),
        "qubit-float": ("qpn", "qubit", lambda q: q + 0.5),
        "qubit-bool": ("qpn", "qubit", lambda q: True),
        "letter-qubit-negative": ("fc-si", "qubit", lambda q: -1),
        "letter-qubit-float": ("fc-si", "qubit", lambda q: q + 0.5),
        "n-bool": ("qpn", "n", lambda n: True),
        "n-float": ("qpn", "n", float),
        "n-negative": ("qpn", "n", lambda n: -1),
        "block-entry-nan": ("qpn", "block", lambda v: [float("nan"), 0.0]),
        "block-entry-inf": ("qpn", "block", lambda v: [float("inf"), 0.0]),
        "letter-block-entry-nan": ("fc-si", "block", lambda v: [float("nan"), 0.0]),
        "block-entry-bool": ("qpn", "block", lambda v: [True, v[1]]),
        # A bare X, Y or Z letter's first entry as JSON true/false: it packs to the same floats.
        "letter-block-entry-bool": ("fc-si", "letter", lambda v: [{0.0: False, 1.0: True}[x]
                                                                  for x in v]),
        "constant-nan-text": ("qpn", "constant", lambda c: "nan"),
        "constant-nan": ("qpn", "constant", lambda c: float("nan")),
        "constant-inf": ("qpn", "constant", lambda c: float("inf")),
        "constant-bool": ("qpn", "constant", lambda c: True),
    }

    @pytest.mark.parametrize("command", ["verify", "evaluate"])
    @pytest.mark.parametrize("field", ["block-entry", "qubit", "n", "constant", *MALFORMED_NUMBERS])
    def test_mistyped_partition_field_exit_code(self, b3d4, tmp_path, command, field):
        method, place, change = self.MALFORMED_NUMBERS.get(field, ("qpn", None, None))
        part = tmp_path / "part.json"
        run(["partition", f"{b3d4}.pauli", "--method", method, "-o", part])
        data = json.loads(part.read_text())
        factor = data["fragments"][0]["terms"][0]["factors"][0]
        if place == "letter":  # the first bare letter, not a coefficient-carrying factor
            factor = next(f for frag in data["fragments"] for term in frag["terms"]
                          for f in term["factors"][1:])
            place = "block"
        if place == "qubit":
            factor["qubits"][-1] = change(factor["qubits"][-1])
        elif place == "block":
            factor["block"][0] = change(factor["block"][0])
        elif place:
            data[place] = change(data[place])
        elif field == "block-entry":
            factor["block"][0] = [1.0]
        elif field == "qubit":
            factor["qubits"][0] = "a"
        else:
            data[field] = "x"
        part.write_text(json.dumps(data))
        extra = ["-o", tmp_path / "rep"] if command == "evaluate" else []
        assert run([command, part, "--hamiltonian", f"{b3d4}.pauli", *extra]) == 2

    @pytest.mark.parametrize("command", ["verify", "evaluate"])
    @pytest.mark.parametrize("field, value", [("source", [1]), ("source", 7), ("source", None),
                                              ("label", ["a"]), ("label", None),
                                              ("hamiltonian_sha256", [1]),
                                              ("hamiltonian_sha256", False),
                                              ("hamiltonian_sha256", 0)],
                             ids=["source-list", "source-number", "source-null", "label-list",
                                  "label-null", "digest-list", "digest-false", "digest-zero"])
    def test_non_string_partition_text_exit_code(self, b3d4, tmp_path, capsys, command, field,
                                                 value):
        # `evaluate` keyed its summary by a list source and failed with TypeError (exit 1).
        part = tmp_path / "part.json"
        run(["partition", f"{b3d4}.pauli", "--method", "qpn", "-o", part])
        data = json.loads(part.read_text())
        (data["fragments"][0] if field == "label" else data)[field] = value
        part.write_text(json.dumps(data))
        extra = ["-o", tmp_path / "rep"] if command == "evaluate" else []
        assert run([command, part, "--hamiltonian", f"{b3d4}.pauli", *extra]) == 2
        assert f"{field} must be a JSON string" in capsys.readouterr().err

    def test_null_digest_is_taken(self, b3d4, tmp_path):
        part = tmp_path / "part.json"
        run(["partition", f"{b3d4}.pauli", "--method", "qpn", "-o", part])
        data = json.loads(part.read_text())
        data["hamiltonian_sha256"] = None
        part.write_text(json.dumps(data))
        assert run(["verify", part, "--hamiltonian", f"{b3d4}.pauli"]) == 0

    def test_missing_file_exit_code(self, tmp_path):
        assert run(["verify", tmp_path / "nope.json",
                    "--hamiltonian", tmp_path / "nope.pauli"]) == 2


def test_import_loads_no_scipy():
    src = os.path.dirname(os.path.dirname(hampart.__file__))
    code = (f"import sys; sys.path.insert(0, {src!r}); import hampart.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "[]"
