"""Correctness oracle, written with numpy alone and independent of hampart.

Every fragment block read from partition JSON is expanded into Pauli strings
by tracing it against Kronecker products of the 2x2 Pauli matrices. That
gives an exact reconstruction check against the `.pauli` text at any qubit
count. Variances are then evaluated on a stack of Haar states by applying
the strings as bit flips with phases, grouped by flip mask, and using
Var[M] = |M psi|^2 - <psi|M|psi>^2, whereas the program applies each block
twice by tensor contraction. Nothing here is timed.
"""

from __future__ import annotations

import hashlib
import json
from functools import lru_cache, reduce

import numpy as np

RTOL = 1e-9
RECONSTRUCTION_ATOL = 1e-9
_DROP = 1e-14  # Pauli components below this are rounding noise of the trace

_SIGMA = np.array(
    [[[1, 0], [0, 1]], [[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]],
    dtype=complex,
)


class OracleError(Exception):
    """The program's output disagrees with the oracle."""


def _fail(msg: str):
    raise OracleError(msg)


# ---------------------------------------------------------------------------
# Pauli strings as (x, z) bit masks; qubit q is basis-index bit n-1-q.


def read_pauli(path) -> tuple[int, dict[tuple[int, int], float], float]:
    """Parse `<coeff> <letter><qubit> ...` lines; n comes from the JSON sidecar."""
    stem = str(path)[: -len(".pauli")]
    with open(stem + ".json") as fh:
        meta = json.load(fh)
    with open(path) as fh:
        text = fh.read()
    if hashlib.sha256(text.encode()).hexdigest() != meta["pauli_sha256"]:
        _fail(f"{path}: sha256 differs from the sidecar")
    n = int(meta["n"])
    terms: dict[tuple[int, int], float] = {}
    constant = 0.0
    for line in text.splitlines():
        fields = line.split()
        if not fields:
            continue
        coeff = float(fields[0])
        if not np.isfinite(coeff):
            _fail(f"{path}: non-finite coefficient {fields[0]}")
        x = z = 0
        for tok in fields[1:]:
            bit = 1 << (n - 1 - int(tok[1:]))
            if tok[0] in "XY":
                x |= bit
            if tok[0] in "YZ":
                z |= bit
        if x == 0 and z == 0:
            constant += coeff
        else:
            terms[(x, z)] = terms.get((x, z), 0.0) + coeff
    return n, terms, constant


@lru_cache(maxsize=None)
def _pauli_basis(m: int) -> tuple[np.ndarray, list[tuple[int, ...]]]:
    """Rows: conj-transposed Kronecker products of m Paulis, flattened, / 2^m."""
    letters = [tuple(int(c) for c in np.base_repr(s, 4).zfill(m)) for s in range(4**m)]
    mats = [reduce(np.kron, [_SIGMA[a] for a in word]) if m else np.eye(1) for word in letters]
    basis = np.stack([p.T.ravel() for p in mats]) / float(1 << m)
    return basis, letters


def _decompose_blocks(blocks: np.ndarray, m: int) -> np.ndarray:
    """Real Pauli coefficients, one row per m-qubit Hermitian block."""
    basis, _ = _pauli_basis(m)
    coeffs = blocks.reshape(len(blocks), -1) @ basis.T
    if coeffs.size and np.max(np.abs(coeffs.imag)) > 1e-9:
        _fail("a fragment block has a complex Pauli coefficient (not Hermitian)")
    return coeffs.real


def partition_strings(data: dict) -> tuple[int, list[dict[tuple[int, int], float]], float]:
    """Partition JSON -> (n, one string->coefficient map per fragment, identity total)."""
    n = int(data["n"])
    factors = []  # (fragment, term, qubits, block)
    for fi, frag in enumerate(data["fragments"]):
        for ti, term in enumerate(frag["terms"]):
            for f in term["factors"]:
                flat = np.asarray(f["block"], dtype=float)
                factors.append((fi, ti, tuple(f["qubits"]), flat[:, 0] + 1j * flat[:, 1]))
    by_size: dict[int, list[int]] = {}
    for idx, (_, _, qubits, _) in enumerate(factors):
        by_size.setdefault(len(qubits), []).append(idx)
    components: list[list[tuple[int, int, float]]] = [[] for _ in factors]
    for m, idxs in by_size.items():
        coeffs = _decompose_blocks(np.stack([factors[i][3] for i in idxs]), m)
        _, letters = _pauli_basis(m)
        for i, row in zip(idxs, coeffs):
            qubits = factors[i][2]
            for s in np.flatnonzero(np.abs(row) > _DROP):
                x = z = 0
                for q, a in zip(qubits, letters[s]):
                    bit = 1 << (n - 1 - q)
                    if a in (1, 2):
                        x |= bit
                    if a in (2, 3):
                        z |= bit
                components[i].append((x, z, float(row[s])))
    fragments: list[dict[tuple[int, int], float]] = [{} for _ in data["fragments"]]
    identity = float(data["constant"])
    terms: dict[tuple[int, int], list[list[tuple[int, int, float]]]] = {}
    for (fi, ti, _, _), comps in zip(factors, components):
        terms.setdefault((fi, ti), []).append(comps)
    for (fi, _), factor_comps in terms.items():
        expanded = [(0, 0, 1.0)]
        for comps in factor_comps:  # factors act on disjoint qubits
            expanded = [(x0 | x1, z0 | z1, c0 * c1) for x0, z0, c0 in expanded for x1, z1, c1 in comps]
        for x, z, c in expanded:
            if x == 0 and z == 0:
                identity += c
            else:
                fragments[fi][(x, z)] = fragments[fi].get((x, z), 0.0) + c
    return n, fragments, identity


def check_reconstruction(data: dict, n: int, h_terms: dict, h_const: float) -> list[dict]:
    """Fragments plus constant must sum to H exactly (up to rounding)."""
    pn, fragments, identity = partition_strings(data)
    if pn != n:
        _fail(f"partition on {pn} qubits, Hamiltonian on {n}")
    total: dict[tuple[int, int], float] = {}
    for frag in fragments:
        for key, c in frag.items():
            total[key] = total.get(key, 0.0) + c
    worst = abs(identity - h_const)
    for key in set(total) | set(h_terms):
        worst = max(worst, abs(total.get(key, 0.0) - h_terms.get(key, 0.0)))
    if worst > RECONSTRUCTION_ATOL:
        _fail(f"partition reconstructs H only to {worst:.3e}")
    return fragments


# ---------------------------------------------------------------------------
# Variance on stacked states


def haar_states(n: int, seeds) -> np.ndarray:
    """Columns are the Haar states the program draws for these seeds."""
    cols = []
    for seed in seeds:
        rng = np.random.default_rng(seed)
        amp = rng.standard_normal(1 << n) + 1j * rng.standard_normal(1 << n)
        cols.append(amp / np.linalg.norm(amp))
    return np.stack(cols, axis=1)


def apply_strings(strings: dict[tuple[int, int], float], psi: np.ndarray) -> np.ndarray:
    idx = np.arange(psi.shape[0], dtype=np.uint64)
    by_flip: dict[int, list[tuple[int, float]]] = {}
    for (x, z), c in strings.items():
        by_flip.setdefault(x, []).append((z, c))
    out = np.zeros_like(psi)
    for x, group in by_flip.items():
        diag = np.zeros(psi.shape[0], dtype=complex)
        for z, c in group:
            parity = np.bitwise_count(idx & np.uint64(z)) & 1
            diag += (c * 1j ** (x & z).bit_count()) * (1.0 - 2.0 * parity)
        src = (idx ^ np.uint64(x)).astype(np.intp)
        out += diag[src, None] * psi[src]
    return out


def variances(strings: dict[tuple[int, int], float], psi: np.ndarray) -> np.ndarray:
    m_psi = apply_strings(strings, psi)
    mean = np.einsum("ij,ij->j", psi.conj(), m_psi).real
    second = np.einsum("ij,ij->j", m_psi.conj(), m_psi).real
    return np.maximum(second - mean**2, 0.0)


def totals(fragments: list[dict], psi: np.ndarray) -> np.ndarray:
    """(sum_q sqrt(Var[M_q]))^2 for each state column."""
    stds = sum((np.sqrt(variances(f, psi)) for f in fragments), np.zeros(psi.shape[1]))
    return stds**2


def check_close(what: str, got: float, want: float):
    if not abs(got - want) <= RTOL * abs(want):
        _fail(f"{what}: program {got!r}, oracle {want!r}")


def check_above_bound(what: str, total: float, bound: float):
    if total < bound * (1.0 - RTOL):
        _fail(f"{what}: total {total!r} below the lower bound {bound!r}")
