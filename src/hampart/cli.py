"""Batch driver: build Hamiltonians, partition, validate, and score variances.

Subcommands: build, partition, evaluate, sweep-k, theorem1, verify.
Exit codes: 0 success, 2 usage error, 3 validation failure, 4 resource cap.
All outputs are deterministic given flags and seeds; CSV carries full double
precision (17 significant digits).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from functools import partial

import numpy as np

from .encodings import encode_boson_operator, jordan_wigner
from .errors import (
    ConstraintError,
    DataError,
    DimensionError,
    DomainError,
    HampartError,
    ResourceError,
    read_text,
)
from .fragments import Partition, check_realized_bytes, load_partition, partition_to_json
from .operators import (
    Lattice,
    build_bose_hubbard,
    build_fermi_hubbard,
    chain_lattice,
    couplings_from_json,
    cubic_lattice,
    hexagonal_lattice,
    lattice_from_json,
    lattice_to_json,
    load_fcidump,
    square_lattice,
    tetrahedral_lattice,
    triangular_lattice,
    vibrational_from_json,
)
from .partitioners import (
    blocking_partition,
    color_partition_bose_hubbard,
    color_partition_fermi_hubbard_1d,
    greedy_partition,
    permute_modes,
    qp_partition_vibrational,
    qpn_partition,
    reorder_indices,
    sorted_insertion,
)
from .pauli import PauliSum, format_pauli_text, parse_pauli_text
from .validators import validate_partition
from .variance import (
    basis_state,
    column_chunks,
    lower_bounds,
    partition_costs,
    random_state,
    theorem1_grid,
)

HAMILTONIAN_FORMAT = "hampart-hamiltonian-v1"
METHODS = ("qwc-si", "fc-si", "greedy", "blocking", "coloring", "fh1d-coloring", "qpn", "qp")


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _write_text(path, text: str):
    with open(path, "w") as fh:
        fh.write(text)


# ---------------------------------------------------------------------------
# Hamiltonian construction


def _read_json_object(path) -> dict:
    """The JSON object in a UTF-8 file; any other content raises DataError."""
    try:
        data = json.loads(read_text(path))
    except json.JSONDecodeError as exc:
        raise DataError(f"{path} is not JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise DataError(f"{path} must hold a JSON object")
    return data


# Lattice spec name -> builder and its default dimensions.
_GRID_LATTICES = {"square": (square_lattice, [3, 3]), "hexagonal": (hexagonal_lattice, [4, 4]),
                  "triangular": (triangular_lattice, [3, 3]), "cubic": (cubic_lattice, [3, 3, 3]),
                  "tetrahedral": (tetrahedral_lattice, [2])}


def _parse_lattice(spec: str, sites: int | None, boundary: str) -> Lattice:
    if spec.startswith("@"):
        return lattice_from_json(_read_json_object(spec[1:]))
    name, _, dims = spec.partition(":")
    if name == "chain":
        if sites is None:
            raise DomainError("chain lattice needs --sites/--modes")
        return chain_lattice(sites, boundary)
    if name == "all-to-all":
        if sites is None or sites < 1:
            raise DomainError(f"lattice spec {spec!r} needs --sites/--modes >= 1")
        edges = [(i, j) for i in range(sites) for j in range(i + 1, sites)]
        return Lattice("custom", sites, tuple(edges), "open")
    if name not in _GRID_LATTICES:
        raise DomainError(f"unknown lattice spec {spec!r}")
    build, default = _GRID_LATTICES[name]
    try:
        dim_list = [int(tok) for tok in dims.split("x")] if dims else default
        if len(dim_list) != len(default):
            raise DomainError(f"{name} takes {'x'.join(['<n>'] * len(default))}")
        return build(*dim_list)
    except ValueError as exc:  # int() or a builder's DomainError
        raise DomainError(f"bad lattice spec {spec!r}: {exc}") from None


def _parse_couplings(pairs: list[str]) -> dict[str, str]:
    """Repeated --coupling 0,1,2=0.1 values as a {"0,1,2": "0.1"} couplings map."""
    for pair in pairs:
        if not pair.partition("=")[2]:
            raise DomainError(f"coupling must look like 0,1,2=0.1, got {pair!r}")
    return dict(pair.split("=", 1) for pair in pairs)


def cmd_build(args) -> int:
    params: dict = {"class": args.hamiltonian_class}
    if args.hamiltonian_class == "fermi-hubbard":
        lat = _parse_lattice(args.lattice, args.sites, args.boundary)
        op = build_fermi_hubbard(lat, args.t, args.U)
        h = jordan_wigner(op)
        params.update(lattice=lattice_to_json(lat), t=args.t, U=args.U, encoding="jordan-wigner")
    elif args.hamiltonian_class == "bose-hubbard":
        lat = _parse_lattice(args.lattice, args.modes, args.boundary)
        op = build_bose_hubbard(lat, args.t, args.U, args.d)
        h = encode_boson_operator(op).pauli
        params.update(
            lattice=lattice_to_json(lat), t=args.t, U=args.U, d=args.d, encoding="gray"
        )
    elif args.hamiltonian_class == "vibrational":
        if args.model:
            model = {"d": args.d, **_read_json_object(args.model)}
        elif args.omega:
            model = {"omega": args.omega.split(","),
                     "couplings": _parse_couplings(args.coupling or []), "d": args.d}
        else:
            raise DomainError("vibrational build needs --omega or --model")
        op = vibrational_from_json(model)
        h = encode_boson_operator(op).pauli
        couplings = couplings_from_json(model.get("couplings", {}))
        params.update(
            omega=[float(w) for w in model["omega"]],
            couplings={",".join(map(str, k)): v for k, v in couplings.items()},
            d=op.d,
            encoding="gray",
        )
    elif args.hamiltonian_class == "electronic":
        if not args.fcidump:
            raise DomainError("electronic build needs --fcidump")
        op = load_fcidump(args.fcidump)  # Hermitian: every integral's symmetric partners agree
        perm = None
        if args.reorder_seed is not None:
            perm, cost = reorder_indices(op, args.reorder_seed, args.halt_after)
            op = permute_modes(op, perm)
            params.update(reorder_seed=args.reorder_seed, reorder_cost=cost,
                          permutation=list(perm))
        h = jordan_wigner(op)
        params.update(fcidump=str(args.fcidump), encoding="jordan-wigner")
    else:  # pragma: no cover - argparse restricts choices
        raise DomainError(f"unknown class {args.hamiltonian_class!r}")

    text = format_pauli_text(h)
    meta = {
        "format": HAMILTONIAN_FORMAT,
        "n": h.n,
        "pauli_sha256": _sha256(text),
        "params": params,
    }
    _write_text(f"{args.output}.pauli", text)
    _write_text(f"{args.output}.json", json.dumps(meta, indent=1, sort_keys=True) + "\n")
    print(f"wrote {args.output}.pauli ({h.n} qubits, {len(h)} terms)")
    return 0


# ---------------------------------------------------------------------------
# Hamiltonian loading


def _load_hamiltonian(path: str) -> tuple[PauliSum, dict | None, str]:
    text = read_text(path)
    meta = None
    meta_path = os.path.splitext(path)[0] + ".json"
    if os.path.exists(meta_path):
        meta = _read_json_object(meta_path)
        if type(n := meta.get("n", 0)) is not int or n < 0:
            raise DataError(f"{meta_path}: n must be a non-negative JSON integer, got {n!r}")
    h = parse_pauli_text(text, n=meta.get("n") if meta else None)
    return h, meta, _sha256(text)


def _rebuild_operator(meta: dict | None, expect_class: tuple[str, ...]):
    if meta is None or "params" not in meta:
        raise DomainError("method needs the builder metadata JSON next to the .pauli file")
    params = meta["params"]
    cls = params.get("class") if isinstance(params, dict) else None
    if cls not in expect_class:
        raise DomainError(f"method applies to {expect_class}, but Hamiltonian class is {cls!r}")
    try:
        if cls == "bose-hubbard":
            lat = lattice_from_json(params["lattice"])
            return build_bose_hubbard(lat, params["t"], params["U"], params["d"]), lat
        if cls == "fermi-hubbard":  # the .pauli sum is its Jordan-Wigner image
            return None, lattice_from_json(params["lattice"])
        if cls == "vibrational":
            return vibrational_from_json(params), None
    except HampartError:
        raise
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise DataError(f"malformed metadata params: {exc!r}") from exc
    raise DomainError(f"cannot rebuild pre-encoded operator for class {cls!r}")


def run_method(method: str, h: PauliSum, meta: dict | None, k: int | None) -> Partition:
    if method == "qwc-si":
        return sorted_insertion(h, "qubitwise")
    if method == "fc-si":
        return sorted_insertion(h, "full")
    if method in ("greedy", "blocking"):
        if k is None:
            raise DomainError(f"{method} needs --k")
        return {"greedy": greedy_partition, "blocking": blocking_partition}[method](h, k)
    if method == "coloring":
        op, lat = _rebuild_operator(meta, ("bose-hubbard",))
        return color_partition_bose_hubbard(op, lat)
    if method == "qpn":
        op, lat = _rebuild_operator(meta, ("bose-hubbard",))
        return qpn_partition(op, lat)
    if method == "qp":
        op, _ = _rebuild_operator(meta, ("vibrational",))
        return qp_partition_vibrational(op)
    if method == "fh1d-coloring":
        _, lat = _rebuild_operator(meta, ("fermi-hubbard",))
        if lat.kind != "chain" or lat.boundary != "open":
            raise DomainError("fh1d-coloring needs an open chain lattice")
        return color_partition_fermi_hubbard_1d(h, lat.sites)
    raise DomainError(f"unknown method {method!r}")


def cmd_partition(args) -> int:
    h, meta, digest = _load_hamiltonian(args.hamiltonian)
    part = run_method(args.method, h, meta, args.k)
    check_realized_bytes(part)
    report = validate_partition(part, h, k=args.k)
    data = partition_to_json(part)
    data["hamiltonian_sha256"] = digest  # set in place, so the key keeps its position
    data["validation"] = report.to_dict()
    _write_text(args.output, json.dumps(data) + "\n")  # no indent: the C encoder
    print(
        f"{args.method}: {len(part.fragments)} fragments, "
        f"reconstruction {report.reconstruction_error:.3e}, "
        f"{'ok' if report.ok else 'INVALID'}"
    )
    return 0 if report.ok else 3


# ---------------------------------------------------------------------------
# Evaluation


def _states_for(args, n: int) -> list[partial]:
    """A maker per requested state, each spec parsed here; _score_states makes the states."""
    if args.state:
        out = []
        for spec in args.state:
            kind, _, value = spec.partition(":")
            try:
                make = {"basis": basis_state, "haar": random_state}[kind]
                out.append(partial(make, n, int(value)))
            except (KeyError, ValueError) as exc:
                raise DomainError(f"bad state spec {spec!r}: {exc!r}") from None
        return out
    return [partial(random_state, n, args.seed + i) for i in range(args.states)]


def _score_states(n: int, makers, score) -> tuple[list[str], list[np.ndarray]]:
    """The states' labels, and the arrays score(block) returns for each column_chunks block of
    the states `makers` make, joined along their last axis. One chunk of states is made and
    held at a time."""
    labels, scored = [], []
    for cols in column_chunks(n, len(makers)):
        block = np.empty((1 << n, cols.stop - cols.start), dtype=complex)
        for i, make in enumerate(makers[cols]):
            psi = make()
            labels.append(psi.seed)
            block[:, i] = psi.amplitudes
        scored.append(score(block))
    return labels, [np.concatenate(arrays, axis=-1) for arrays in zip(*scored)]


def cmd_evaluate(args) -> int:
    if not args.state and args.states < 1:
        raise DomainError(f"--states must be at least 1, got {args.states}")
    h, _, digest = _load_hamiltonian(args.hamiltonian)
    parts = []
    for path in args.partitions:
        part = load_partition(path)
        if part.hamiltonian_sha256 and part.hamiltonian_sha256 != digest:
            raise DomainError(f"{path} targets a different Hamiltonian")
        if part.n != h.n:
            raise DimensionError(f"{path} is on {part.n} qubits, Hamiltonian on {h.n}")
        parts.append(part)
    labels, (lbs, *costs) = _score_states(h.n, _states_for(args, h.n), lambda block: (
        lower_bounds(h, block), *(x for part in parts for x in partition_costs(part, block))))
    lines = ["method,seed,L,total,lower_bound,per_fragment"]
    summary: dict[str, dict] = {}
    for part, totals, per in zip(parts, costs[::2], costs[1::2]):
        for label, total, lb, column in zip(labels, totals, lbs, per.T):
            per_txt = ";".join(_fmt(v) for v in column)
            lines.append(f"{part.source},{label},{len(part.fragments)},{_fmt(total)},"
                         f"{_fmt(lb)},{per_txt}")
        summary[part.source] = {
            "fragments": len(part.fragments),
            "mean_total": float(totals.mean()),
            "std_total": float(totals.std()),
            "min_total": float(totals.min()),
            "max_total": float(totals.max()),
        }
    summary["lower_bound"] = {"mean_total": float(np.mean(lbs)), "std_total": float(np.std(lbs))}
    _write_text(f"{args.output}.csv", "\n".join(lines) + "\n")
    _write_text(f"{args.output}.json", json.dumps(summary, indent=1, sort_keys=True) + "\n")
    for method, stats in summary.items():
        print(f"{method}: mean={stats['mean_total']:.6g}")
    return 0


def cmd_sweep_k(args) -> int:
    if args.states < 1:
        raise DomainError(f"--states must be at least 1, got {args.states}")
    h, meta, _ = _load_hamiltonian(args.hamiltonian)
    if args.method not in ("greedy", "blocking"):
        raise DomainError("sweep-k supports greedy and blocking only")
    k_max = args.k_max if args.k_max is not None else h.n
    if not 1 <= args.k_min <= k_max <= h.n:
        raise DomainError(f"bad k range [{args.k_min}, {k_max}] for n={h.n}")
    makers = [partial(random_state, h.n, args.seed + i) for i in range(args.states)]
    score = partial(_score_states, h.n, makers)
    if len(column_chunks(h.n, args.states)) == 1:  # one chunk: each state is made once per sweep
        _, (states,) = score(lambda block: (block,))
        score = lambda scorer: (None, scorer(states))
    fc = sorted_insertion(h, "full")
    _, (fc_totals, lbs) = score(lambda block: (partition_costs(fc, block)[0],
                                               lower_bounds(h, block)))
    fc_mean, lb_mean = float(np.mean(fc_totals)), float(np.mean(lbs))
    lines = ["k,L,mean_var,fc_si_var,lower_bound"]
    k_star = None
    try:
        for k in range(args.k_min, k_max + 1):
            part = run_method(args.method, h, meta, k)
            _, (totals,) = score(lambda block: (partition_costs(part, block)[0],))
            mean = float(np.mean(totals))
            if k_star is None and mean <= fc_mean:
                k_star = k
            lines.append(
                f"{k},{len(part.fragments)},{_fmt(mean)},{_fmt(fc_mean)},{_fmt(lb_mean)}"
            )
    except ResourceError:  # keep the rows of every k before the refused one, then exit 4
        _write_text(args.output, "\n".join(lines) + "\n")
        raise
    _write_text(args.output, "\n".join(lines) + "\n")
    print(f"k_star={k_star if k_star is not None else 'none'}")
    return 0


def cmd_theorem1(args) -> int:
    rows = theorem1_grid(args.resolution, parameterization="angle")
    lines = ["eta,alpha,n_gpb,n_rb"]
    for eta, alpha, gpb, rb in rows:
        lines.append(f"{_fmt(eta)},{_fmt(alpha)},{_fmt(gpb)},{_fmt(rb)}")
    _write_text(args.output, "\n".join(lines) + "\n")
    violations = int(np.sum(rows[:, 3] > rows[:, 2] + 1e-12))
    print(f"rows={rows.shape[0]} violations={violations}")
    return 0 if violations == 0 else 3


def cmd_verify(args) -> int:
    h, _, digest = _load_hamiltonian(args.hamiltonian)
    part = load_partition(args.partition)
    if part.hamiltonian_sha256 and part.hamiltonian_sha256 != digest:
        raise DomainError("partition targets a different Hamiltonian")
    report = validate_partition(part, h, k=args.k)
    print(json.dumps(report.to_dict(), indent=1, sort_keys=True))
    return 0 if report.ok else 3


# ---------------------------------------------------------------------------
# Argument parsing


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hampart",
        description="Partition qubit Hamiltonians into measurement fragments "
        "and evaluate exact shot-count variances.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_build = sub.add_parser("build", help="construct a Hamiltonian and write .pauli/.json")
    p_build.add_argument("hamiltonian_class",
                         choices=("fermi-hubbard", "bose-hubbard", "vibrational", "electronic"))
    p_build.add_argument("--sites", type=int, default=None)
    p_build.add_argument("--modes", type=int, default=None)
    p_build.add_argument("--t", type=float, default=1.0)
    p_build.add_argument("--U", type=float, default=2.0)
    p_build.add_argument("--d", type=int, default=4)
    p_build.add_argument("--lattice", default="chain",
                         help="chain | square:WxH | hexagonal:WxH | triangular:WxH | "
                              "cubic:XxYxZ | tetrahedral:E | all-to-all | @lattice.json")
    p_build.add_argument("--boundary", choices=("open", "periodic"), default="open")
    p_build.add_argument("--omega", default=None, help="comma-separated mode frequencies")
    p_build.add_argument("--coupling", action="append", default=None,
                         help="repeatable, e.g. --coupling 0,1,2=0.1")
    p_build.add_argument("--model", default=None, help="vibrational model JSON file")
    p_build.add_argument("--fcidump", default=None)
    p_build.add_argument("--reorder-seed", type=int, default=None)
    p_build.add_argument("--halt-after", type=int, default=5000)
    p_build.add_argument("-o", "--output", required=True, help="output stem")
    p_build.set_defaults(func=cmd_build)

    p_part = sub.add_parser("partition", help="run a partitioning method")
    p_part.add_argument("hamiltonian", help=".pauli file (with .json metadata sidecar)")
    p_part.add_argument("--method", required=True, choices=METHODS)
    p_part.add_argument("--k", type=int, default=None)
    p_part.add_argument("-o", "--output", required=True)
    p_part.set_defaults(func=cmd_partition)

    p_eval = sub.add_parser("evaluate", help="score partitions on seeded states")
    p_eval.add_argument("partitions", nargs="+")
    p_eval.add_argument("--hamiltonian", required=True)
    p_eval.add_argument("--states", type=int, default=20)
    p_eval.add_argument("--seed", type=int, default=2024)
    p_eval.add_argument("--state", action="append", default=None,
                        help="explicit states: basis:<index> or haar:<seed> (repeatable)")
    p_eval.add_argument("-o", "--output", required=True, help="output stem (.csv/.json)")
    p_eval.set_defaults(func=cmd_evaluate)

    p_sweep = sub.add_parser("sweep-k", help="sweep the locality bound k")
    p_sweep.add_argument("hamiltonian")
    p_sweep.add_argument("--method", required=True, choices=("greedy", "blocking"))
    p_sweep.add_argument("--k-min", type=int, default=1)
    p_sweep.add_argument("--k-max", type=int, default=None)
    p_sweep.add_argument("--states", type=int, default=20)
    p_sweep.add_argument("--seed", type=int, default=2024)
    p_sweep.add_argument("-o", "--output", required=True)
    p_sweep.set_defaults(func=cmd_sweep_k)

    p_thm = sub.add_parser("theorem1", help="rotated-basis vs Pauli-basis grid")
    p_thm.add_argument("--resolution", type=int, default=101)
    p_thm.add_argument("-o", "--output", required=True)
    p_thm.set_defaults(func=cmd_theorem1)

    p_ver = sub.add_parser("verify", help="re-validate a stored partition")
    p_ver.add_argument("partition")
    p_ver.add_argument("--hamiltonian", required=True)
    p_ver.add_argument("--k", type=int, default=None)
    p_ver.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "k", None) is not None and args.k < 1:  # partition and verify
            raise DomainError(f"--k must be at least 1, got {args.k}")
        return args.func(args)
    except (HampartError, FileNotFoundError) as exc:  # exit 4 resources, 3 constraints, else 2
        print(f"error: {exc}", file=sys.stderr)
        return 4 if isinstance(exc, ResourceError) else 3 if isinstance(exc, ConstraintError) else 2


if __name__ == "__main__":
    sys.exit(main())
