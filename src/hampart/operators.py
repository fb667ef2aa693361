"""Pre-encoded fermionic and bosonic operators, lattices, and model builders.

Fermionic terms are lists of ladder operators (mode, dagger); bosonic terms
are lists of one-mode factors drawn from {b, bdag, q, p, n}. Both operator
types are plain term containers: builders produce Hermitian content and
`is_hermitian` checks conjugate pairing term by term.
"""

from __future__ import annotations

import itertools
import json
import re
from dataclasses import dataclass, field
from itertools import chain, islice

import numpy as np

from .errors import DataError, DomainError, HampartError, ParseError, read_text
from .pauli import ASCII_FLOAT, _real_array

LATTICE_KINDS = ("chain", "square", "hexagonal", "triangular", "cubic", "tetrahedral", "custom")

BOSON_SYMBOLS = ("b", "bdag", "q", "p", "n")
_BOSON_CONJ = {"b": "bdag", "bdag": "b", "q": "q", "p": "p", "n": "n"}


@dataclass(frozen=True)
class Lattice:
    """Finite graph of sites; `positions` carries generator coordinates when known."""

    kind: str
    sites: int
    edges: tuple[tuple[int, int], ...]
    boundary: str = "open"
    positions: tuple[tuple[int, ...], ...] | None = None

    def __post_init__(self):
        if self.kind not in LATTICE_KINDS:
            raise DataError(f"unknown lattice kind {self.kind!r}")
        if self.boundary not in ("open", "periodic"):
            raise DataError(f"unknown boundary {self.boundary!r}")
        seen = set()
        canon = []
        for i, j in self.edges:
            if i == j:
                raise DataError(f"self-loop at site {i}")
            if not (0 <= i < self.sites and 0 <= j < self.sites):
                raise DataError(f"edge ({i}, {j}) out of range for {self.sites} sites")
            e = (min(i, j), max(i, j))
            if e in seen:
                raise DataError(f"duplicate edge {e}")
            seen.add(e)
            canon.append(e)
        object.__setattr__(self, "edges", tuple(canon))
        if self.positions is not None:
            if len(self.positions) != self.sites:
                raise DataError("positions must cover every site")
            object.__setattr__(self, "positions", tuple(tuple(p) for p in self.positions))

    def degree(self) -> int:
        deg = [0] * self.sites
        for i, j in self.edges:
            deg[i] += 1
            deg[j] += 1
        return max(deg, default=0)


# Bond steps of each grid kind, in the order a site adds them. A hexagonal (brick-wall) patch
# keeps its (0, 1) rungs only at even x + y.
GRID_STEPS = {
    "chain": ((1,),),
    "square": ((1, 0), (0, 1)),
    "hexagonal": ((1, 0), (0, 1)),
    "triangular": ((1, 0), (0, 1), (1, 1)),
    "cubic": ((1, 0, 0), (0, 1, 0), (0, 0, 1)),
}
# Bond vectors from the even sublattice of the diamond (tetrahedral) lattice.
TETRAHEDRAL_BONDS = ((1, 1, 1), (1, -1, -1), (-1, 1, -1), (-1, -1, 1))


def _grid(kind: str, *dims: int) -> dict[tuple[int, ...], int]:
    """Site index of each point of a dims[0] x dims[1] (x ...) box, first coordinate fastest."""
    if min(dims) < 1:
        raise DomainError(f"{kind} lattice needs every dimension >= 1, got {dims}")
    points = itertools.product(*(range(d) for d in reversed(dims)))
    return {p[::-1]: i for i, p in enumerate(points)}


def _grid_lattice(kind: str, *dims: int) -> Lattice:
    """Open patch of a grid kind: each point in site order bonds along each of its GRID_STEPS."""
    idx = _grid(kind, *dims)
    edges = []
    for p, i in idx.items():
        for step in GRID_STEPS[kind]:
            nb = tuple(a + b for a, b in zip(p, step))
            if nb in idx and ((kind, step) != ("hexagonal", (0, 1)) or sum(p) % 2 == 0):
                edges.append((i, idx[nb]))
    return Lattice(kind, len(idx), tuple(edges), "open", tuple(idx))


def chain_lattice(sites: int, boundary: str = "open") -> Lattice:
    if sites < 1:
        raise DomainError("chain needs at least 1 site")
    lat = _grid_lattice("chain", sites)
    wrap = ((sites - 1, 0),) if boundary == "periodic" and sites > 2 else ()
    return Lattice("chain", sites, lat.edges + wrap, boundary, lat.positions)


def square_lattice(width: int, height: int) -> Lattice:
    """Open-boundary rectangular patch of the square lattice."""
    return _grid_lattice("square", width, height)


def hexagonal_lattice(width: int, height: int) -> Lattice:
    """Brick-wall patch of the honeycomb lattice (vertical rungs on even x+y)."""
    return _grid_lattice("hexagonal", width, height)


def triangular_lattice(width: int, height: int) -> Lattice:
    """Open patch of the triangular lattice (square grid plus one diagonal family)."""
    return _grid_lattice("triangular", width, height)


def cubic_lattice(nx: int, ny: int, nz: int) -> Lattice:
    return _grid_lattice("cubic", nx, ny, nz)


def tetrahedral_lattice(extent: int = 2) -> Lattice:
    """Open patch of the diamond lattice; every site has degree <= 4.

    Sublattice A sits at scaled FCC points (components even, sum % 4 == 0),
    sublattice B at A + (1, 1, 1); bonds follow TETRAHEDRAL_BONDS.
    """
    if extent < 1:
        raise DomainError("extent must be >= 1")
    span = range(0, 2 * extent + 1, 2)
    a_sites = [
        (x, y, z) for x in span for y in span for z in span if (x + y + z) % 4 == 0
    ]
    site_set = set(a_sites)
    for p in a_sites:
        for b in TETRAHEDRAL_BONDS:
            site_set.add((p[0] + b[0], p[1] + b[1], p[2] + b[2]))
    pos = sorted(site_set)
    idx = {p: i for i, p in enumerate(pos)}
    edges = []
    for p in a_sites:
        for b in TETRAHEDRAL_BONDS:
            nb = (p[0] + b[0], p[1] + b[1], p[2] + b[2])
            if nb in idx:
                edges.append((idx[p], idx[nb]))
    return Lattice("tetrahedral", len(pos), tuple(edges), "open", tuple(pos))


def lattice_to_json(lat: Lattice) -> dict:
    out = {
        "kind": lat.kind,
        "sites": lat.sites,
        "edges": [list(e) for e in lat.edges],
        "boundary": lat.boundary,
    }
    if lat.positions is not None:
        out["positions"] = [list(p) for p in lat.positions]
    return out


def lattice_from_json(data: dict | str) -> Lattice:
    """Lattice from its JSON form; malformed input raises DataError."""
    try:
        if isinstance(data, str):
            data = json.loads(data)
        return Lattice(
            data["kind"],
            int(data["sites"]),
            tuple(tuple(e) for e in data["edges"]),
            data.get("boundary", "open"),
            tuple(tuple(p) for p in data["positions"]) if data.get("positions") else None,
        )
    except HampartError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise DataError(f"malformed lattice JSON: {exc!r}") from exc


FermionTerm = tuple[float, tuple[tuple[int, bool], ...]]


def _term_arrays(terms, modes: int) -> tuple[np.ndarray, list[int], np.ndarray, list]:
    """Tuple terms ((c, ((mode, entry), ...)), ...) read at once: real, finite coefficients, op
    counts, modes (integers, bools refused, numpy integers taken) as _modes checks them, and
    each op's entry, unchecked; DataError otherwise."""
    terms = [(c, tuple(ops)) for c, ops in terms]
    ms, entries = [m for _, ops in terms for m, _ in ops], [e for _, ops in terms for _, e in ops]
    if bad := {t for t in map(type, ms) if t is bool or not issubclass(t, (int, np.integer))}:
        raise DataError(f"mode {next(m for m in ms if type(m) in bad)!r} is not an integer")
    coeffs = _real_array([c for c, _ in terms], "term coefficient")
    return coeffs, [len(ops) for _, ops in terms], _modes(ms, modes), entries


def _modes(ms, modes: int) -> np.ndarray:
    """Integer modes as an int64 array; DataError naming the first outside [0, modes)."""
    ms = np.asarray(ms)
    if (bad := (ms < 0) | (ms >= modes)).any():
        raise DataError(f"mode {ms[bad.argmax()]} out of range for {modes} modes")
    return ms.astype(np.int64)


def _term_view(coeffs, lengths, ops) -> tuple:
    """((c, (op, ...)), ...) of coefficients, op counts and ops in order."""
    ops = iter(ops)
    return tuple((c, tuple(islice(ops, k))) for c, k in zip(coeffs, lengths))


class FermionOperator:
    """Sum of products of fermionic ladder operators on `modes` modes, held as read-only arrays
    in term order: `coeffs` (T,), `lengths` (T,) op counts and `ops` rows (mode, dagger 1 or 0),
    each term's in order. `terms`, the tuple view ((coeff, ((mode, dagger), ...)), ...), is
    built on first read. Tuple input is checked at once (_term_arrays); a dagger is a bool."""

    __slots__ = ("modes", "coeffs", "lengths", "ops", "_terms")

    def __init__(self, modes: int, terms: tuple[FermionTerm, ...] = ()):
        coeffs, lengths, ms, daggers = _term_arrays(terms, modes)
        if bad := set(map(type, daggers)) - {bool, np.bool_}:
            raise DataError(f"dagger {next(d for d in daggers if type(d) in bad)!r} is not a bool")
        self._adopt(modes, coeffs, lengths, np.stack([ms, np.array(daggers, np.int64)], 1))

    @classmethod
    def from_arrays(cls, modes: int, coeffs, lengths, ops) -> "FermionOperator":
        """The operator of the arrays the class holds, checked at once: real, finite
        coefficients, modes in [0, modes) and daggers 0 or 1 (DataError otherwise)."""
        ops = np.asarray(ops, np.int64).reshape(-1, 2)
        if ((ops[:, 1] != 0) & (ops[:, 1] != 1)).any():
            raise DataError("daggers must be 0 or 1")
        op = cls.__new__(cls)
        op._adopt(modes, _real_array(coeffs, "term coefficient"), lengths,
                  np.stack([_modes(ops[:, 0], modes), ops[:, 1]], 1))
        return op

    def _adopt(self, modes: int, coeffs, lengths, ops):
        self.modes, self._terms, self.coeffs, self.ops = modes, None, coeffs, ops
        self.lengths = np.asarray(lengths, np.int64)
        for a in (self.coeffs, self.lengths, self.ops):
            a.setflags(write=False)

    @property
    def terms(self) -> tuple[FermionTerm, ...]:
        if self._terms is None:
            ops = zip(self.ops[:, 0].tolist(), map(bool, self.ops[:, 1].tolist()))
            self._terms = _term_view(self.coeffs.tolist(), self.lengths.tolist(), ops)
        return self._terms

    def __len__(self) -> int:
        return len(self.coeffs)

    def accumulated(self) -> dict[tuple[tuple[int, bool], ...], float]:
        acc: dict[tuple[tuple[int, bool], ...], float] = {}
        for coeff, ops in self.terms:
            acc[ops] = acc.get(ops, 0.0) + coeff
        return {k: v for k, v in acc.items() if abs(v) > 1e-14}

    def is_hermitian(self, tol: float = 1e-10) -> bool:
        """Term-level conjugate pairing, up to signed reordering across modes."""
        canon: dict[tuple, float] = {}

        def _absorb(ops, coeff):
            key, sign = _fermion_mode_sort(ops)
            canon[key] = canon.get(key, 0.0) + sign * coeff

        for ops, coeff in self.accumulated().items():
            _absorb(ops, coeff)
            conj = tuple((m, not d) for m, d in reversed(ops))
            _absorb(conj, -coeff)
        return all(abs(v) <= tol for v in canon.values())


def _fermion_mode_sort(ops: tuple[tuple[int, bool], ...]) -> tuple[tuple, int]:
    """Stable-sort ladder ops by mode; each cross-mode transposition flips sign."""
    seq = list(ops)
    sign = 1
    changed = True
    while changed:
        changed = False
        for i in range(len(seq) - 1):
            if seq[i][0] > seq[i + 1][0]:
                seq[i], seq[i + 1] = seq[i + 1], seq[i]
                sign = -sign
                changed = True
    return tuple(seq), sign


BosonTerm = tuple[float, tuple[tuple[int, str], ...]]


@dataclass(frozen=True)
class BosonOperator:
    """Sum of products of one-mode bosonic factors, truncated to d levels per mode."""

    modes: int
    d: int
    terms: tuple[BosonTerm, ...] = ()

    def __post_init__(self):
        if type(self.d) is bool or not isinstance(self.d, (int, np.integer)):
            raise DataError(f"truncation d must be an integer, got {self.d!r}")
        if self.d < 2:
            raise DomainError(f"truncation d must be >= 2, got {self.d}")
        coeffs, lengths, ms, symbols = _term_arrays(self.terms, self.modes)
        if bad := [s for s in map(str, symbols) if s not in BOSON_SYMBOLS]:
            raise DataError(f"unknown bosonic symbol {bad[0]!r}")
        factors = zip(ms.tolist(), map(str, symbols))
        object.__setattr__(self, "terms", _term_view(coeffs.tolist(), lengths, factors))

    def __len__(self) -> int:
        return len(self.terms)

    def is_hermitian(self, tol: float = 1e-10) -> bool:
        canon: dict[tuple, float] = {}

        def _absorb(factors, coeff):
            key = tuple(sorted(factors, key=lambda f: f[0]))
            canon[key] = canon.get(key, 0.0) + coeff

        for coeff, factors in self.terms:
            _absorb(factors, coeff)
            conj = tuple((m, _BOSON_CONJ[s]) for m, s in reversed(factors))
            _absorb(conj, -coeff)
        return all(abs(v) <= tol for v in canon.values())


def boson_matrices(d: int) -> dict[str, np.ndarray]:
    """Truncated ladder and quadrature matrices on d levels.

    b|l> = sqrt(l)|l-1>, q = (b + b^t)/sqrt(2), p = i(b^t - b)/sqrt(2),
    n = b^t b = diag(0..d-1).
    """
    if d < 2:
        raise DomainError(f"need d >= 2, got {d}")
    b = np.zeros((d, d), dtype=complex)
    for level in range(1, d):
        b[level - 1, level] = np.sqrt(level)
    bdag = b.conj().T
    q = (b + bdag) / np.sqrt(2)
    p = 1j * (bdag - b) / np.sqrt(2)
    n = bdag @ b
    return {"b": b, "bdag": bdag, "q": q, "p": p, "n": n}


def build_fermi_hubbard(lat: Lattice, t: float, U: float) -> FermionOperator:
    """Spinless nearest-neighbor Hubbard model on the lattice's edge list.

    H = -sum_<ij> t (a+_i a_j + a+_j a_i) + sum_<ij> (U/2) a+_i a_i a+_j a_j
    """
    terms = []
    for i, j in lat.edges:
        if t != 0.0:
            terms.append((-t, ((i, True), (j, False))))
            terms.append((-t, ((j, True), (i, False))))
        if U != 0.0:
            terms.append((U / 2.0, ((i, True), (i, False), (j, True), (j, False))))
    return FermionOperator(lat.sites, tuple(terms))


def build_bose_hubbard(lat: Lattice, t: float, U: float, d: int) -> BosonOperator:
    """H = -sum_<ij> t (b+_i b_j + h.c.) + sum_i (U/2) n_i (n_i - 1); t and U must be finite
    numbers (a bool is not one), else DataError."""
    for name, value in (("t", t), ("U", U)):
        number = isinstance(value, (int, float, np.integer, np.floating))
        if type(value) is bool or not (number and np.isfinite(value)):
            raise DataError(f"{name} must be a finite number, got {value!r}")
    terms = []
    for i, j in lat.edges:
        if t != 0.0:
            terms.append((-t, ((i, "bdag"), (j, "b"))))
            terms.append((-t, ((j, "bdag"), (i, "b"))))
    for i in range(lat.sites):
        if U != 0.0:
            terms.append((U / 2.0, ((i, "n"), (i, "n"))))
            terms.append((-U / 2.0, ((i, "n"),)))
    return BosonOperator(lat.sites, d, tuple(terms))


def build_vibrational(
    omega, couplings: dict[tuple[int, ...], float] | None, d: int
) -> BosonOperator:
    """Harmonic part (1/2) sum_i w_i (q_i^2 + p_i^2) plus q-string couplings.

    Coupling keys are mode-index tuples of arbitrary order; each key (i, j, k)
    contributes t * q_i q_j q_k (repeat an index for powers).
    """
    omega = [float(w) for w in omega]
    modes = len(omega)
    terms = []
    for i, w in enumerate(omega):
        if w != 0.0:
            terms.append((0.5 * w, ((i, "q"), (i, "q"))))
            terms.append((0.5 * w, ((i, "p"), (i, "p"))))
    for key, coeff in (couplings or {}).items():
        key = tuple(int(m) for m in key)
        for m in key:
            if not 0 <= m < modes:
                raise DataError(f"coupling index {m} out of range for {modes} modes")
        if coeff != 0.0:
            terms.append((float(coeff), tuple((m, "q") for m in key)))
    return BosonOperator(modes, d, tuple(terms))


def couplings_from_json(data: dict) -> dict[tuple[int, ...], float]:
    """Coupling map {"0,1,2": t, ...} keyed by mode-index tuples instead."""
    couplings = {}
    for key, val in data.items():
        try:
            couplings[tuple(int(tok) for tok in str(key).split(","))] = float(val)
        except ValueError as exc:
            raise DataError(f"bad coupling {key!r}: {val!r}") from exc
    return couplings


def vibrational_from_json(data: dict | str) -> BosonOperator:
    """JSON form: {"omega": [...], "couplings": {"0,1,2": t, ...}, "d": 4}; malformed input
    raises DataError."""
    try:
        if isinstance(data, str):
            data = json.loads(data)
        couplings = couplings_from_json(data.get("couplings", {}))
        return build_vibrational(data["omega"], couplings, data["d"])
    except HampartError:
        raise
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise DataError(f"malformed vibrational model: {exc!r}") from exc


# ---------------------------------------------------------------------------
# FCIDUMP ingestion


@dataclass
class ElectronicIntegrals:
    """Spatial-orbital integrals: h[i,j], chemist-notation g[(ij|kl)], core energy."""

    norb: int
    h: dict[tuple[int, int], float] = field(default_factory=dict)
    g: dict[tuple[int, int, int, int], float] = field(default_factory=dict)
    core: float = 0.0

    def set_one_body(self, i: int, j: int, value: float):
        self.h[(i, j)] = value
        self.h[(j, i)] = value

    def set_two_body(self, i: int, j: int, k: int, l: int, value: float):
        for a, b in ((i, j), (j, i)):
            for c, e in ((k, l), (l, k)):
                self.g[(a, b, c, e)] = value
                self.g[(c, e, a, b)] = value


_NORB_RE = re.compile(r"NORB\s*=\s*(\d+)", re.IGNORECASE | re.ASCII)


def read_fcidump(path) -> ElectronicIntegrals:
    """Parse an FCIDUMP file into spatial-orbital integrals (1-based -> 0-based)."""
    lines = read_text(path).splitlines()
    header = []
    body_start = None
    for lineno, line in enumerate(lines, start=1):
        header.append(line)
        if "&END" in line.upper() or line.strip() == "/":
            body_start = lineno
            break
    if body_start is None:
        raise ParseError("missing &END (or '/') header terminator")
    m = _NORB_RE.search(" ".join(header))
    if not m:
        raise ParseError("header does not declare NORB")
    ints = ElectronicIntegrals(norb=int(m.group(1)))
    for lineno, line in enumerate(lines[body_start:], start=body_start + 1):
        stripped = line.strip()
        if not stripped:
            continue
        fields = stripped.split()
        if len(fields) != 5:
            raise ParseError(f"expected `value i j k l`, got {stripped!r}", lineno)
        # ASCII_FLOAT value, indices of ASCII digits alone (float() and int() take more).
        if not ASCII_FLOAT.fullmatch(fields[0]) or not all(t.isascii() and t.isdigit()
                                                          for t in fields[1:]):
            raise ParseError(f"bad numeric field in {stripped!r}", lineno)
        value, (i, j, k, l) = float(fields[0]), map(int, fields[1:])
        for idx in (i, j, k, l):
            if idx > ints.norb:
                raise DataError(f"line {lineno}: orbital index {idx} out of range")
        if i == 0 and j == 0 and k == 0 and l == 0:
            ints.core += value
        elif k == 0 and l == 0:
            if j == 0:
                continue  # orbital-energy record; not part of the Hamiltonian
            ints.set_one_body(i - 1, j - 1, value)
        elif i > 0 and j > 0 and k > 0 and l > 0:
            ints.set_two_body(i - 1, j - 1, k - 1, l - 1, value)
        else:
            raise ParseError(f"unsupported index pattern in {stripped!r}", lineno)
    return ints


def write_fcidump(path, ints: ElectronicIntegrals, nelec: int = 0, ms2: int = 0):
    """Emit integrals in FCIDUMP format (full double precision)."""
    with open(path, "w") as fh:
        fh.write(f" &FCI NORB={ints.norb},NELEC={nelec},MS2={ms2},\n")
        fh.write("  ORBSYM=" + "1," * ints.norb + "\n")
        fh.write("  ISYM=1,\n")
        fh.write(" &END\n")
        written = set()
        for (i, j, k, l), val in sorted(ints.g.items()):
            key = frozenset(((i, j, k, l), (j, i, k, l), (i, j, l, k), (j, i, l, k),
                             (k, l, i, j), (l, k, i, j), (k, l, j, i), (l, k, j, i)))
            if key in written or val == 0.0:
                continue
            written.add(key)
            fh.write(f" {val!r} {i + 1} {j + 1} {k + 1} {l + 1}\n")
        seen1 = set()
        for (i, j), val in sorted(ints.h.items()):
            if (j, i) in seen1 or val == 0.0:
                continue
            seen1.add((i, j))
            fh.write(f" {val!r} {i + 1} {j + 1} 0 0\n")
        fh.write(f" {ints.core!r} 0 0 0 0\n")


def _spin_terms(integrals: dict, order, spins, scale: float) -> tuple[np.ndarray, np.ndarray]:
    """Coefficients and (mode, dagger) ops of the spin-orbital terms of the nonzero integrals, in
    dict order: per integral and row of `spins`, modes 2 * key[order] + spins, the first half
    creators; with four ops, a term creating or annihilating one mode twice is dropped."""
    vals = np.fromiter(integrals.values(), float, len(integrals))
    keys = np.fromiter(chain.from_iterable(integrals), np.int64, len(order) * len(vals))
    modes = 2 * keys.reshape(len(vals), len(order))[vals != 0.0][:, None, order] + spins
    modes = modes.reshape(-1, len(order))
    keep = (modes[:, 0] != modes[:, 1]) & (modes[:, -2] != modes[:, -1]) | (len(order) < 4)
    daggers = np.broadcast_to(np.arange(len(order)) < len(order) // 2, modes.shape)
    coeffs = np.repeat(scale * vals[vals != 0.0], len(spins))
    return coeffs[keep], np.stack([modes, daggers], 2)[keep].reshape(-1, 2)


def fermion_from_integrals(ints: ElectronicIntegrals) -> FermionOperator:
    """Expand spatial integrals to interleaved spin orbitals (index 2*orb + spin), as arrays.

    One-body: sum_ij h_ij a+_{i s} a_{j s}. Two-body from chemist (ij|kl):
    (1/2) sum_{st} sum_{ijkl} (ij|kl) a+_{i s} a+_{k t} a_{l t} a_{j s}.
    The core energy enters as an empty-product (identity) term. Terms come in that order: the
    core, then each nonzero integral of h, then of g, in dict order, spins s (then t) ascending.
    """
    one = _spin_terms(ints.h, [0, 1], [[0, 0], [1, 1]], 1.0)
    two = _spin_terms(ints.g, [0, 2, 3, 1], [[0, 0, 0, 0], [0, 1, 1, 0], [1, 0, 0, 1],
                                             [1, 1, 1, 1]], 0.5)
    core = [ints.core] if ints.core != 0.0 else []
    lengths = np.repeat([0, 2, 4], [len(core), len(one[0]), len(two[0])])
    return FermionOperator.from_arrays(2 * ints.norb, np.concatenate([core, one[0], two[0]]),
                                       lengths, np.concatenate([one[1], two[1]]))


def load_fcidump(path) -> FermionOperator:
    """FCIDUMP file -> spin-orbital FermionOperator (core energy as identity term)."""
    return fermion_from_integrals(read_fcidump(path))
