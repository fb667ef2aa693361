"""The benchmark's workloads: closed-loop op lists driven through hampart's
public entry points, each op paired with an oracle check.

An op calls `hampart.cli.main(argv)` where a CLI step exists and finishes at
that size, and the public library function otherwise. Calls go through module
attributes so that a traced run sees them. An op's check returns the sizes
for its per-op row and raises `OracleError` on a wrong output.
"""

from __future__ import annotations

import csv
import io
import json
import os
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from typing import Callable

import numpy as np

import oracle
from hampart import cli, fragments, operators, partitioners, pauli, variance

ELECTRONIC_TERMS = {4: 360, 5: 875, 8: 5792}
BOSE_TERMS = {4: 108, 8: 248}
BOSE_T, BOSE_U, BOSE_D = 1.0, 2.0, 4


class Context:
    """Files and objects of one pass; `truth` holds what the oracle derived."""

    def __init__(self, inputs: str, outdir: str, haar_seed: int):
        self.inputs = inputs
        self.outdir = outdir
        self.haar_seed = haar_seed
        self.objects: dict = {}
        self.truth: dict = {}
        os.makedirs(outdir)

    def out(self, name: str) -> str:
        return os.path.join(self.outdir, name)


@dataclass
class Op:
    name: str
    stem: str  # the Hamiltonian the op works on
    stage: str  # build | partition | evaluate
    method: str
    run: Callable[[Context], int]  # exit status; raising also fails the op
    check: Callable[[Context], dict]  # oracle; returns qubits/terms/fragments
    # Well under a second: timed by the median of samples spread over the run
    # (see run.py).
    light: bool = False
    # A known nonzero exit of today's program: the op counts as failed but
    # leaves `correct` alone. Any other failure makes the run incorrect.
    may_exit: int | None = None


def run_cli(argv: list[str]) -> int:
    """hampart's CLI entry point, with its console output swallowed."""
    sink = io.StringIO()
    with redirect_stdout(sink), redirect_stderr(sink):
        try:
            return cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            return exc.code if isinstance(exc.code, int) else 2


# ---------------------------------------------------------------------------
# Hamiltonians


def _check_hamiltonian(ctx: Context, stem: str, n: int, terms: int) -> dict:
    hn, h_terms, h_const = oracle.read_pauli(ctx.out(stem + ".pauli"))
    if (hn, len(h_terms)) != (n, terms):
        raise oracle.OracleError(f"{stem}: {hn} qubits, {len(h_terms)} terms; want {n}, {terms}")
    ctx.truth[stem] = (hn, h_terms, h_const)
    return {"qubits": hn, "terms": len(h_terms)}


def build_electronic(stem: str, norb: int, light: bool = True) -> Op:
    return Op(
        "cli build electronic", stem, "build", "jordan-wigner",
        lambda ctx: run_cli(["build", "electronic", "--fcidump",
                             os.path.join(ctx.inputs, f"el{norb}.fcidump"), "-o", ctx.out(stem)]),
        lambda ctx: _check_hamiltonian(ctx, stem, 2 * norb, ELECTRONIC_TERMS[norb]),
        light=light,
    )


def build_bose(stem: str, modes: int) -> Op:
    return Op(
        "cli build bose-hubbard", stem, "build", "gray",
        lambda ctx: run_cli(["build", "bose-hubbard", "--modes", str(modes), "--d", str(BOSE_D),
                             "--t", str(BOSE_T), "--U", str(BOSE_U), "-o", ctx.out(stem)]),
        lambda ctx: _check_hamiltonian(ctx, stem, 2 * modes, BOSE_TERMS[modes]),
        light=True,
    )


def load(stem: str) -> Op:
    """Library parse of a built `.pauli` file, as the CLI loads it."""

    def run(ctx):
        with open(ctx.out(stem + ".json")) as fh:
            n = json.load(fh)["n"]
        with open(ctx.out(stem + ".pauli")) as fh:
            ctx.objects[stem] = pauli.parse_pauli_text(fh.read(), n=n)
        return 0

    def check(ctx):
        h = ctx.objects[stem]
        n, h_terms, h_const = ctx.truth[stem]
        got = {(_mask(s.x, n), _mask(s.z, n)): c for s, c in h.terms.items()}
        if h.n != n or got != h_terms or h.constant != h_const:
            raise oracle.OracleError(f"{stem}: parsed PauliSum differs from the text")
        return {"qubits": n, "terms": len(h_terms)}

    return Op("library load", stem, "build", "parse_pauli_text", run, check, light=True)


def _mask(bits: int, n: int) -> int:
    """PauliString bit q (qubit q) -> basis-index bit n-1-q."""
    return int(format(bits, f"0{n}b")[::-1], 2) if n else 0


# ---------------------------------------------------------------------------
# Partitions


def _check_partition(ctx: Context, stem: str, tag: str, data: dict) -> dict:
    n, h_terms, h_const = ctx.truth[stem]
    ctx.truth[(stem, tag)] = oracle.check_reconstruction(data, n, h_terms, h_const)
    return {"qubits": n, "terms": len(h_terms), "fragments": len(data["fragments"])}


def cli_partition(stem: str, method: str, k: int | None = None, light: bool = False,
                  may_exit: int | None = None) -> Op:
    tag = method if k is None else f"{method}-k{k}"
    extra = [] if k is None else ["--k", str(k)]
    out = f"{stem}-{tag}.json"

    def check(ctx):
        with open(ctx.out(out)) as fh:
            data = json.load(fh)
        if data.get("validation", {}).get("ok") is not True:
            raise oracle.OracleError(f"{out} is not marked ok")
        return _check_partition(ctx, stem, tag, data)

    return Op(
        "cli partition", stem, "partition", tag,
        lambda ctx: run_cli(["partition", ctx.out(stem + ".pauli"), "--method", method, *extra,
                             "-o", ctx.out(out)]),
        check, light=light, may_exit=may_exit,
    )


def lib_partition(stem: str, tag: str, make: Callable[[Context], object],
                  light: bool = False) -> Op:
    def run(ctx):
        ctx.objects[(stem, tag)] = make(ctx)
        return 0

    def check(ctx):
        return _check_partition(ctx, stem, tag, fragments.partition_to_json(ctx.objects[(stem, tag)]))

    return Op("library partition", stem, "partition", tag, run, check,
              light=light)


def bose_chain(modes: int):
    lat = operators.chain_lattice(modes)
    return operators.build_bose_hubbard(lat, BOSE_T, BOSE_U, BOSE_D), lat


# ---------------------------------------------------------------------------
# Scoring


def cli_evaluate(stem: str, tags: list[str], states: int, light: bool = False) -> Op:
    out = f"{stem}-eval"

    def run(ctx):
        parts = [ctx.out(f"{stem}-{tag}.json") for tag in tags]
        return run_cli(["evaluate", *parts, "--hamiltonian", ctx.out(stem + ".pauli"),
                        "--states", str(states), "--seed", str(ctx.haar_seed),
                        "-o", ctx.out(out)])

    def check(ctx):
        n, h_terms, _ = ctx.truth[stem]
        with open(ctx.out(out + ".csv")) as fh:
            rows = list(csv.DictReader(fh))
        if len(rows) != states * len(tags):
            raise oracle.OracleError(f"{out}.csv has {len(rows)} rows")
        seeds = [ctx.haar_seed + i for i in range(states)]
        psi = oracle.haar_states(n, seeds)
        lbs = oracle.variances(h_terms, psi)
        for i, tag in enumerate(tags):
            want = oracle.totals(ctx.truth[(stem, tag)], psi)
            for row, seed, total, lb in zip(rows[i * states:(i + 1) * states], seeds, want, lbs):
                if row["seed"] != f"haar:{seed}":
                    raise oracle.OracleError(f"{out}.csv: state {row['seed']}, want haar:{seed}")
                oracle.check_close(f"{tag} total on haar:{seed}", float(row["total"]), total)
                oracle.check_close(f"lower bound on haar:{seed}", float(row["lower_bound"]), lb)
                oracle.check_above_bound(f"{tag} on haar:{seed}", float(row["total"]), lb)
        return {"qubits": n, "terms": len(h_terms),
                "fragments": sum(len(ctx.truth[(stem, tag)]) for tag in tags)}

    return Op("cli evaluate", stem, "evaluate", "+".join(tags), run, check,
              light=light)


def cli_sweep_k(stem: str, k_max: int, states: int) -> Op:
    out = f"{stem}-sweep.csv"

    def check(ctx):
        n, h_terms, h_const = ctx.truth[stem]
        with open(ctx.out(stem + ".pauli")) as fh:
            h = pauli.parse_pauli_text(fh.read(), n=n)
        psi = oracle.haar_states(n, [ctx.haar_seed + i for i in range(states)])
        lb = float(np.mean(oracle.variances(h_terms, psi)))
        fc = oracle.check_reconstruction(
            fragments.partition_to_json(partitioners.sorted_insertion(h, "full")),
            n, h_terms, h_const)
        fc_mean = float(np.mean(oracle.totals(fc, psi)))
        with open(ctx.out(out)) as fh:
            rows = list(csv.DictReader(fh))
        if [int(r["k"]) for r in rows] != list(range(1, k_max + 1)):
            raise oracle.OracleError(f"{out}: k column {[r['k'] for r in rows]}")
        count = len(fc)
        for row in rows:
            k = int(row["k"])
            frags = oracle.check_reconstruction(
                fragments.partition_to_json(partitioners.greedy_partition(h, k)),
                n, h_terms, h_const)
            if int(row["L"]) != len(frags):
                raise oracle.OracleError(f"{out}: k={k} has L={row['L']}, want {len(frags)}")
            mean = float(np.mean(oracle.totals(frags, psi)))
            oracle.check_close(f"greedy k={k} mean", float(row["mean_var"]), mean)
            oracle.check_close("fc-si mean", float(row["fc_si_var"]), fc_mean)
            oracle.check_close("lower bound mean", float(row["lower_bound"]), lb)
            oracle.check_above_bound(f"greedy k={k} mean", float(row["mean_var"]), lb)
            count += len(frags)
        return {"qubits": n, "terms": len(h_terms), "fragments": count}

    return Op(
        "cli sweep-k", stem, "evaluate", f"greedy k=1..{k_max}",
        lambda ctx: run_cli(["sweep-k", ctx.out(stem + ".pauli"), "--method", "greedy",
                             "--k-max", str(k_max), "--states", str(states),
                             "--seed", str(ctx.haar_seed), "-o", ctx.out(out)]),
        check,
    )


def lib_states(stem: str, count: int) -> Op:
    def run(ctx):
        n = ctx.objects[stem].n
        ctx.objects["states"] = [variance.random_state(n, ctx.haar_seed + i) for i in range(count)]
        return 0

    def check(ctx):
        n = ctx.truth[stem][0]
        want = oracle.haar_states(n, [ctx.haar_seed + i for i in range(count)])
        got = np.stack([s.amplitudes for s in ctx.objects["states"]], axis=1)
        if not np.array_equal(got, want):
            raise oracle.OracleError("random_state differs from the Haar recipe")
        return {"qubits": n}

    return Op("library random_state", stem, "evaluate", "haar", run, check,
              light=True)


def lib_cost(stem: str, tag: str, light: bool = False) -> Op:
    def run(ctx):
        part = ctx.objects[(stem, tag)]
        ctx.objects[("cost", tag)] = [variance.partition_cost(part, psi).total
                                      for psi in ctx.objects["states"]]
        return 0

    def check(ctx):
        n, h_terms, _ = ctx.truth[stem]
        psi = oracle.haar_states(n, [ctx.haar_seed + i for i in range(len(ctx.objects["states"]))])
        for got, want in zip(ctx.objects[("cost", tag)], oracle.totals(ctx.truth[(stem, tag)], psi)):
            oracle.check_close(f"{tag} total", got, want)
        return {"qubits": n, "terms": len(h_terms), "fragments": len(ctx.truth[(stem, tag)])}

    return Op("library partition_cost", stem, "evaluate", tag, run, check,
              light=light)


def lib_lower_bound(stem: str, scored: list[str]) -> Op:
    def run(ctx):
        h = ctx.objects[stem]
        ctx.objects["lower_bound"] = [variance.lower_bound(h, psi) for psi in ctx.objects["states"]]
        return 0

    def check(ctx):
        n, h_terms, _ = ctx.truth[stem]
        psi = oracle.haar_states(n, [ctx.haar_seed + i for i in range(len(ctx.objects["states"]))])
        for i, (got, want) in enumerate(zip(ctx.objects["lower_bound"], oracle.variances(h_terms, psi))):
            oracle.check_close("lower bound", got, want)
            for tag in scored:
                oracle.check_above_bound(tag, ctx.objects[("cost", tag)][i], got)
        return {"qubits": n, "terms": len(h_terms)}

    return Op("library lower_bound", stem, "evaluate", "var-h", run, check)


# ---------------------------------------------------------------------------
# Workloads


def certify() -> list[Op]:
    """Both certification paths: Pauli-group (fc-si) and tensor-wise (greedy, qpn)."""
    return [
        build_electronic("el4", 4),
        build_bose("bh4", 4),
        cli_partition("el4", "fc-si"),
        cli_partition("el4", "greedy", 3),
        cli_partition("bh4", "qpn", light=True),
        cli_evaluate("el4", ["fc-si", "greedy-k3"], 20),
        cli_evaluate("bh4", ["qpn"], 20, light=True),
    ]


def score() -> list[Op]:
    """Variance-heavy and validator-free: the ROADMAP item-2 target."""
    return [
        build_electronic("el5", 5),
        load("el5"),
        lib_partition("el5", "fc-si", lambda ctx: partitioners.sorted_insertion(ctx.objects["el5"], "full"),
                      light=True),
        lib_partition("el5", "qwc-si",
                      lambda ctx: partitioners.sorted_insertion(ctx.objects["el5"], "qubitwise"),
                      light=True),
        lib_partition("el5", "greedy-k3", lambda ctx: partitioners.greedy_partition(ctx.objects["el5"], 3),
                      light=True),
        cli_sweep_k("el5", 5, 10),
    ]


def scale16() -> list[Op]:
    """16 qubits: partitioners, the JW build, memory, and 1 MiB states."""
    return [
        build_electronic("el8", 8, light=False),
        load("el8"),
        lib_partition("el8", "fc-si", lambda ctx: partitioners.sorted_insertion(ctx.objects["el8"], "full")),
        lib_partition("el8", "qwc-si",
                      lambda ctx: partitioners.sorted_insertion(ctx.objects["el8"], "qubitwise")),
        lib_partition("el8", "greedy-k3", lambda ctx: partitioners.greedy_partition(ctx.objects["el8"], 3)),
        build_bose("bh8", 8),
        cli_partition("bh8", "qpn", may_exit=4),  # exits 4 today: dense commutation cap
        load("bh8"),
        lib_partition("bh8", "qpn-lib", lambda ctx: partitioners.qpn_partition(*bose_chain(8)),
                      light=True),
        lib_partition("bh8", "coloring",
                      lambda ctx: partitioners.color_partition_bose_hubbard(*bose_chain(8)),
                      light=True),
        lib_partition("bh8", "fc-si", lambda ctx: partitioners.sorted_insertion(ctx.objects["bh8"], "full"),
                      light=True),
        lib_states("bh8", 4),
        lib_cost("bh8", "qpn-lib", light=True),
        lib_cost("bh8", "coloring", light=True),
        lib_cost("bh8", "fc-si"),
        lib_lower_bound("bh8", ["qpn-lib", "coloring", "fc-si"]),
    ]


# name -> (orbital counts of the FCIDUMP inputs, op list)
WORKLOADS = {
    "certify": ((4,), certify),
    "score": ((5,), score),
    "scale16": ((8,), scale16),
}
