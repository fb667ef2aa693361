"""Fragment-construction algorithms.

Qubit-space methods (SortedInsertion baselines, greedy locality-bounded
matching, sliding-window blocking) operate on PauliSums. Structure-aware
methods (lattice edge coloring, 1D hopping chains, quadrature bases)
consume the pre-encoded operators directly.
"""

from __future__ import annotations

from functools import reduce
from operator import or_

import numpy as np

from .encodings import embed_matrix, gray_map, mode_qubit_layout
from .errors import DomainError
from .fragments import (
    Fragment,
    Partition,
    TensorFactor,
    TensorProductTerm,
    string_fragments,
)
from .operators import (
    GRID_STEPS,
    TETRAHEDRAL_BONDS,
    BosonOperator,
    FermionOperator,
    Lattice,
    boson_matrices,
)
from .pauli import PauliSum, mask_bits, mask_ints, mask_qubits, mask_words


# ---------------------------------------------------------------------------
# SortedInsertion baselines


def _insertion_groups(xs: np.ndarray, zs: np.ndarray, n: int, kind: str) -> np.ndarray:
    """Group id of each n-qubit string (x, z mask words) in order: each joins the first group with
    no member it conflicts with. Each group keeps a bitset of the terms that conflict with a
    member (ceil(N/64) words, a row added per new group), and a term's row reduces bit-sliced
    letter columns: `full` XORs the z columns over its x bits and the x columns over its z bits
    (an odd count anticommutes); `qubitwise` ORs, on each qubit it holds, the other two letters."""
    if kind not in ("full", "qubitwise"):
        raise DomainError(f"unknown commutation kind {kind!r}")
    size, x, z = len(xs), mask_bits(xs, n) != 0, mask_bits(zs, n) != 0
    if kind == "full":
        picks, letters, reduce_row = np.hstack([x, z]), np.hstack([z, x]), np.bitwise_xor.reduce
    else:  # X, Y, Z columns a qubit
        letters = np.stack([x & ~z, x & z, z & ~x], axis=2).reshape(size, 3 * n)
        picks, reduce_row = np.repeat(x | z, 3, axis=1) & ~letters, np.bitwise_or.reduce
    columns = np.zeros((letters.shape[1], -(-size // 64) * 8), np.uint8)
    columns[:, :-(-size // 8)] = np.packbits(letters.T, 1, bitorder="little")
    columns = columns.view("<u8")
    gid, count = np.empty(size, np.intp), 0
    groups = np.zeros((1, columns.shape[1]), np.uint64)
    for i in range(size):
        bad = groups[:count, i >> 6] & np.uint64(1 << (i & 63))
        g = int(bad.argmin()) if count else 0
        if not count or bad[g]:
            g, count = count, count + 1
            if count > len(groups):
                groups = np.concatenate([groups, np.zeros_like(groups)])
        groups[g] |= reduce_row(columns[picks[i]], axis=0)
        gid[i] = g
    return gid


def _insertion_rows(strings: np.ndarray, rows: np.ndarray, n: int, kind: str) -> list[np.ndarray]:
    """The given rows of sorted strings as _insertion_groups groups them, in group order, each
    group's rows in order: the group ids split by one stable argsort."""
    gid = _insertion_groups(strings["x"][rows], strings["z"][rows], n, kind)
    order, ends = np.argsort(gid, kind="stable"), np.bincount(gid).cumsum().tolist()
    return [rows[order[a:b]] for a, b in zip([0, *ends], ends)]


def sorted_insertion(h: PauliSum, kind: str = "full") -> Partition:
    label = "fc-si" if kind == "full" else "qwc-si"
    strings = h.sorted_strings()
    groups = enumerate(_insertion_rows(strings, np.arange(len(strings)), h.n, kind))
    fragments = string_fragments([(f"{label}-{g}", [(rows, 0)]) for g, rows in groups], strings)
    return Partition(h.n, tuple(fragments), h.constant, source=f"{label}(n={h.n})")


# ---------------------------------------------------------------------------
# Greedy bounded-mismatch matching


def greedy_partition(h: PauliSum, k: int) -> Partition:
    """Descending-|c| term placement with at most k mismatched qubits per set.

    A match set holds strings sharing letters everywhere except at most k free
    qubits; the sets of a fragment have disjoint supports. A term joins the
    first fragment that has a set accepting it (mismatch within k, grown
    support disjoint from the siblings) or whose sets it does not touch: the
    first accepting set there, else a new set. The mismatch on the first mask
    word, a lower bound on the whole, is tested on every set at once; past one
    word, the few sets within k there are then tested on Python ints.
    """
    if not 1 <= k <= h.n:
        raise DomainError(f"k must be in [1, {h.n}], got {k}")
    strings = h.sorted_strings()
    x0, z0, exact = strings["x"][:, 0], strings["z"][:, 0], strings["x"].shape[1] > 1
    # Per match set: reference letters and free mask (word 0, and as ints), support, fragment, rows.
    ref_x, ref_z, free = (np.zeros(len(strings), np.uint64) for _ in range(3))
    ref, rf, supp, fid, rows = [], [], [], [], []
    # Per fragment: its sets' support union; per qubit: a bitset of the fragments touching it.
    union, touch = [0] * (len(strings) + 1), [0] * h.n
    for i, (x, z) in enumerate(zip(mask_ints(strings["x"]), mask_ints(strings["z"]))):
        w, s = len(rows), x | z
        qubits = mask_qubits(s)
        hit = reduce(or_, (touch[q] for q in qubits), 0)
        target = (~hit & (hit + 1)).bit_length() - 1  # the first fragment s does not touch
        grown = free[:w] | (ref_x[:w] ^ x0[i]) | (ref_z[:w] ^ z0[i])
        # Supports are disjoint within a fragment: s may touch only the set's own support there.
        accepts = [j for j in np.flatnonzero(np.bitwise_count(grown) <= k).tolist()
                   if union[fid[j]] & s == supp[j] & s
                   and (not exact or (rf[j] | (ref[j][0] ^ x) | (ref[j][1] ^ z)).bit_count() <= k)]
        j = min(accepts, key=fid.__getitem__, default=w)  # first set of the first fragment
        if j < w and fid[j] <= target:
            free[j], rf[j] = grown[j], rf[j] | (ref[j][0] ^ x) | (ref[j][1] ^ z)
        else:
            j, ref_x[w], ref_z[w] = w, x0[i], z0[i]
            ref.append((x, z))
            rf.append(0)
            supp.append(0)
            fid.append(target)
            rows.append([])
        supp[j] |= s
        union[fid[j]] |= s
        rows[j].append(i)
        for q in qubits:
            touch[q] |= 1 << fid[j]
    sets: list[list] = [[] for _ in range(max(fid, default=-1) + 1)]
    for j, group in enumerate(rows):
        sets[fid[j]].append((group, rf[j]))
    out = string_fragments([(f"greedy-k{k}-{i}", frag) for i, frag in enumerate(sets)], strings)
    return Partition(h.n, tuple(out), h.constant, source=f"greedy(k={k})")


# ---------------------------------------------------------------------------
# Blocking with residuals


def _route(support: np.ndarray, windows: np.ndarray) -> tuple[list[np.ndarray], np.ndarray]:
    """The rows of `support` (mask words) each put in the first of `windows` (mask words, in
    priority order) that holds it: every window's rows, and the rows left over, each ascending."""
    routed, rest = [], np.arange(len(support))
    for window in windows:
        fits = ((support[rest] | window) == window).all(1)
        routed.append(rest[fits])
        rest = rest[~fits]
    return routed, rest


def blocking_partition(h: PauliSum, k: int) -> Partition:
    """k sliding-offset bases of contiguous windows, tried by offset and then by start, each a
    block on its members' support; leftovers via FC SortedInsertion."""
    if not 1 <= k <= h.n:
        raise DomainError(f"k must be in [1, {h.n}], got {k}")
    n, strings = h.n, h.sorted_strings()
    support = strings["x"] | strings["z"]
    spans = [(o, start) for o in range(k) for start in range(o, n, k)]
    windows = [((1 << min(k, n - start)) - 1) << start for _, start in spans]
    routed, residual = _route(support, mask_words(windows, n))
    sets: list[list] = [[] for _ in range(k)]
    for (o, _), rows in zip(spans, routed):
        if len(rows):
            sets[o].append((rows, reduce(or_, mask_ints(support[rows]))))
    labelled = [(f"blocking-k{k}-offset{o}", frag) for o, frag in enumerate(sets) if frag]
    residual_groups = enumerate(_insertion_rows(strings, residual, n, "full"))
    labelled += [(f"blocking-residual-{g}", [(rows, 0)]) for g, rows in residual_groups]
    out = string_fragments(labelled, strings)
    return Partition(n, tuple(out), h.constant, source=f"blocking(k={k})")


# ---------------------------------------------------------------------------
# Index reordering


def ordering_cost(f: FermionOperator, perm=None) -> float:
    """Sum over terms of |coeff| * (max - min) of the permuted mode indices, read from f's
    arrays (a term without ops adds nothing) and summed term after term, as a loop would."""
    perm = np.arange(f.modes) if perm is None else np.asarray(list(perm), np.int64)
    held = f.lengths > 0
    starts = (np.cumsum(f.lengths) - f.lengths)[held]
    idx = perm[f.ops[:, 0]]
    spread = np.maximum.reduceat(idx, starts) - np.minimum.reduceat(idx, starts)
    return float(np.cumsum(np.r_[0.0, np.abs(f.coeffs[held]) * spread])[-1])


def reorder_indices(
    f: FermionOperator, seed: int = 0, halt_after: int = 5000
) -> tuple[tuple[int, ...], float]:
    """Random pair swaps kept only on strict cost decrease.

    Halts after `halt_after` consecutive rejected swaps. Returns the mode
    permutation (old index -> new index) and the final cost.
    """
    if halt_after < 1:
        raise DomainError("halt_after must be >= 1")
    modes = f.modes
    perm = list(range(modes))
    cost = ordering_cost(f, perm)
    if modes < 2:
        return tuple(perm), cost
    rng = np.random.default_rng(seed)
    fails = 0
    while fails < halt_after:
        i = int(rng.integers(modes))
        j = int(rng.integers(modes - 1))
        if j >= i:
            j += 1
        perm[i], perm[j] = perm[j], perm[i]
        new_cost = ordering_cost(f, perm)
        if new_cost < cost:
            cost = new_cost
            fails = 0
        else:
            perm[i], perm[j] = perm[j], perm[i]
            fails += 1
    return tuple(perm), cost


def permute_modes(f: FermionOperator, perm) -> FermionOperator:
    """Relabel mode m as perm[m] in every term (on f's arrays)."""
    ops = f.ops.copy()
    ops[:, 0] = np.asarray(perm, np.int64)[ops[:, 0]]
    return FermionOperator.from_arrays(f.modes, f.coeffs, f.lengths, ops)


# ---------------------------------------------------------------------------
# Lattice edge coloring

Edge = tuple[int, int]


def edge_coloring(lat: Lattice) -> list[list[Edge]]:
    """Proper edge coloring; geometry-aware for named lattice kinds.

    Named kinds carrying positions use direction/parity classes that achieve
    the optimal color counts (chain 2, square 4, hexagonal 3, triangular 6,
    cubic 6, tetrahedral 4) when those classes are proper; anything else falls
    back to Misra-Gries with at most (max degree + 1) colors.
    """
    if lat.kind != "custom" and lat.positions is not None:
        classes = _structured_coloring(lat)
        if classes is not None and is_proper_edge_coloring(classes):
            return classes
    return misra_gries(lat.sites, lat.edges)


def _compress(colored: dict[Edge, int]) -> list[list[Edge]]:
    used = sorted(set(colored.values()))
    remap = {c: i for i, c in enumerate(used)}
    classes: list[list[Edge]] = [[] for _ in used]
    for edge in sorted(colored):
        classes[remap[colored[edge]]].append(edge)
    return classes


def _structured_coloring(lat: Lattice) -> list[list[Edge]] | None:
    """Direction classes of a named kind, or None if an edge has no class. Step s of GRID_STEPS
    takes color 2s plus the site's parity along the step's first axis (hexagonal rungs one
    color), a tetrahedral bond its +-TETRAHEDRAL_BONDS index, an even periodic chain's wrap 1."""
    steps = GRID_STEPS.get(lat.kind, ())
    bonds = {tuple(sign * v for v in bond): c
             for c, bond in enumerate(TETRAHEDRAL_BONDS) for sign in (1, -1)}
    colored: dict[Edge, int] = {}
    for i, j in lat.edges:
        a = lat.positions[i]
        delta = tuple(y - x for x, y in zip(a, lat.positions[j]))
        if delta in steps:
            axis = next(k for k, v in enumerate(delta) if v)
            parity = 0 if (lat.kind, delta) == ("hexagonal", (0, 1)) else a[axis] % 2
            colored[(i, j)] = 2 * steps.index(delta) + parity
        elif lat.kind == "tetrahedral" and delta in bonds:
            colored[(i, j)] = bonds[delta]
        elif lat.kind == "chain" and lat.boundary == "periodic" and lat.sites % 2 == 0:
            colored[(i, j)] = 1
        else:
            return None
    return _compress(colored)


def misra_gries(n_vertices: int, edges) -> list[list[Edge]]:
    """Vizing-bound edge coloring of a simple graph: at most Delta + 1 colors."""
    edges = [tuple(sorted(e)) for e in edges]
    if not edges:
        return []
    degree = [0] * n_vertices
    for u, v in edges:
        degree[u] += 1
        degree[v] += 1
    n_colors = max(degree) + 1
    vertex_colors: list[dict[int, int]] = [dict() for _ in range(n_vertices)]  # color -> peer
    edge_color: dict[Edge, int] = {}

    def free_color(v: int) -> int:
        for c in range(n_colors):
            if c not in vertex_colors[v]:
                return c
        raise AssertionError("no free color; degree bookkeeping broken")

    def is_free(v: int, c: int) -> bool:
        return c not in vertex_colors[v]

    def set_color(u: int, v: int, c: int):
        old = edge_color.get((min(u, v), max(u, v)))
        if old is not None:
            del vertex_colors[u][old]
            del vertex_colors[v][old]
        edge_color[(min(u, v), max(u, v))] = c
        vertex_colors[u][c] = v
        vertex_colors[v][c] = u

    def uncolor(u: int, v: int):
        old = edge_color.pop((min(u, v), max(u, v)))
        del vertex_colors[u][old]
        del vertex_colors[v][old]

    def invert_cd_path(u: int, c: int, d: int):
        # Maximal path from u alternating colors d, c, d, ...
        path = []
        current, want = u, d
        while want in vertex_colors[current]:
            nxt = vertex_colors[current][want]
            path.append((current, nxt, want))
            current, want = nxt, c if want == d else d
        for a, b, col in path:
            uncolor(a, b)
        for a, b, col in path:
            set_color(a, b, c if col == d else d)

    for u, v in sorted(edges):
        # Maximal fan of u starting at v.
        fan = [v]
        in_fan = {v}
        while True:
            last = fan[-1]
            nxt = None
            for c, w in sorted(vertex_colors[u].items()):
                if w not in in_fan and is_free(last, c):
                    nxt = w
                    break
            if nxt is None:
                break
            fan.append(nxt)
            in_fan.add(nxt)
        c = free_color(u)
        d = free_color(fan[-1])
        if c != d:
            invert_cd_path(u, c, d)
        # d is now free on u. Pick the first fan prefix that is still a fan
        # under the current colors and whose tip has d free; rotating such a
        # prefix and coloring its tip with d keeps the coloring proper.
        w_idx = None
        for i, w in enumerate(fan):
            if i > 0:
                shifted = edge_color[(min(u, fan[i]), max(u, fan[i]))]
                if not is_free(fan[i - 1], shifted):
                    break  # fan property broken by the inversion
            if is_free(w, d):
                w_idx = i
                break
        if w_idx is None:
            raise AssertionError("no rotatable fan prefix; coloring invariant broken")
        sub = fan[: w_idx + 1]
        for i in range(len(sub) - 1):
            shift = edge_color[(min(u, sub[i + 1]), max(u, sub[i + 1]))]
            uncolor(u, sub[i + 1])
            set_color(u, sub[i], shift)
        set_color(u, sub[-1], d)

    colored = {e: edge_color[e] for e in edge_color}
    classes = _compress(colored)
    if not is_proper_edge_coloring(classes):  # pragma: no cover - defensive
        raise AssertionError("edge coloring self-check failed")
    return classes


def is_proper_edge_coloring(classes: list[list[Edge]]) -> bool:
    seen = set()
    for group in classes:
        touched = set()
        for i, j in group:
            e = (min(i, j), max(i, j))
            if e in seen or i in touched or j in touched:
                return False
            seen.add(e)
            touched.update((i, j))
    return True


# ---------------------------------------------------------------------------
# Pre-encoded bosonic partitioners


def _bose_hubbard_parts(b: BosonOperator, lat: Lattice):
    """Split a Bose-Hubbard operator into per-edge hops and per-site diagonals."""
    if b.modes != lat.sites:
        raise DomainError(f"operator has {b.modes} modes but lattice has {lat.sites} sites")
    edge_set = set(lat.edges)
    mats = boson_matrices(b.d)
    hops: dict[Edge, float] = {}
    onsite: dict[int, np.ndarray] = {}
    for coeff, factors in b.terms:
        modes = {m for m, _ in factors}
        symbols = [s for _, s in factors]
        if len(modes) == 1:
            mode = modes.pop()
            mat = coeff * reduce(lambda A, B: A @ B, [mats[s] for s in symbols])
            onsite[mode] = onsite.get(mode, np.zeros((b.d, b.d), dtype=complex)) + mat
        elif len(modes) == 2 and sorted(symbols) == ["b", "bdag"]:
            (m1, s1), (m2, s2) = factors
            i, j = (m1, m2) if s1 == "bdag" else (m2, m1)
            edge = (min(i, j), max(i, j))
            if edge not in edge_set:
                raise DomainError(f"hopping term on ({i}, {j}) is not a lattice edge")
            prev = hops.get(edge)
            if prev is None:
                hops[edge] = coeff
            elif abs(prev - coeff) > 1e-12:
                raise DomainError(f"asymmetric hopping coefficients on edge {edge}")
        else:
            raise DomainError("operator is not in Bose-Hubbard form")
    for mode, mat in onsite.items():
        if np.max(np.abs(mat - np.diag(np.diag(mat)))) > 1e-12:
            raise DomainError("on-site part is not diagonal in the number basis")
    return hops, onsite


def _diagonal_site_terms(
    onsite: dict[int, np.ndarray], layout, gm
) -> tuple[TensorProductTerm, ...]:
    terms = []
    for mode in sorted(onsite):
        block = embed_matrix(onsite[mode], gm)
        if np.max(np.abs(block)) <= 1e-14:
            continue
        terms.append(TensorProductTerm((TensorFactor(layout[mode], block),)))
    return tuple(terms)


def color_partition_bose_hubbard(b: BosonOperator, lat: Lattice) -> Partition:
    """One fragment per edge color (two-mode hop blocks) plus one diagonal fragment."""
    gm = gray_map(b.d)
    layout = mode_qubit_layout(b.modes, gm.k_mode)
    mats = boson_matrices(b.d)
    hops, onsite = _bose_hubbard_parts(b, lat)
    e_b = embed_matrix(mats["b"], gm)
    e_bdag = embed_matrix(mats["bdag"], gm)
    hop_block = np.kron(e_bdag, e_b) + np.kron(e_b, e_bdag)
    fragments = []
    for ci, group in enumerate(edge_coloring(lat)):
        terms = []
        for i, j in group:
            coeff = hops.get((i, j))
            if coeff is None:
                continue
            qubits = layout[i] + layout[j]
            terms.append(TensorProductTerm((TensorFactor(qubits, coeff * hop_block),)))
        fragments.append(Fragment(tuple(terms), f"coloring-hop-{ci}"))
    fragments.append(Fragment(_diagonal_site_terms(onsite, layout, gm), "coloring-diagonal"))
    n = b.modes * gm.k_mode
    return Partition(n, tuple(fragments), 0.0, source=f"coloring(d={b.d})")


def qpn_partition(b: BosonOperator, lat: Lattice) -> Partition:
    """Exactly three fragments: all q_i q_j hops, all p_i p_j hops, diagonal rest.

    Uses the truncation-exact identity b+_i b_j + h.c. = q_i q_j + p_i p_j,
    so each quadrature factor spans a single mode.
    """
    gm = gray_map(b.d)
    layout = mode_qubit_layout(b.modes, gm.k_mode)
    mats = boson_matrices(b.d)
    hops, onsite = _bose_hubbard_parts(b, lat)
    e_q = embed_matrix(mats["q"], gm)
    e_p = embed_matrix(mats["p"], gm)
    q_terms = []
    p_terms = []
    for i, j in sorted(hops):
        coeff = hops[(i, j)]
        q_terms.append(
            TensorProductTerm(
                (TensorFactor(layout[i], coeff * e_q), TensorFactor(layout[j], e_q))
            )
        )
        p_terms.append(
            TensorProductTerm(
                (TensorFactor(layout[i], coeff * e_p), TensorFactor(layout[j], e_p))
            )
        )
    fragments = (
        Fragment(tuple(q_terms), "qpn-q"),
        Fragment(tuple(p_terms), "qpn-p"),
        Fragment(_diagonal_site_terms(onsite, layout, gm), "qpn-n"),
    )
    n = b.modes * gm.k_mode
    return Partition(n, fragments, 0.0, source=f"qpn(d={b.d})")


def qp_partition_vibrational(v: BosonOperator) -> Partition:
    """Two fragments: every q-string term, and the p^2 harmonic terms."""
    gm = gray_map(v.d)
    layout = mode_qubit_layout(v.modes, gm.k_mode)
    mats = boson_matrices(v.d)
    embeds = {s: embed_matrix(mats[s], gm) for s in ("q", "p")}
    q_terms = []
    p_terms = []
    for coeff, factors in v.terms:
        symbols = {s for _, s in factors}
        if symbols == {"q"}:
            bucket, sym = q_terms, "q"
        elif symbols == {"p"}:
            bucket, sym = p_terms, "p"
        elif not factors:
            raise DomainError("identity terms are not expected in vibrational form")
        else:
            raise DomainError(f"term mixes quadratures or uses ladder symbols: {symbols}")
        powers: dict[int, int] = {}
        for m, _ in factors:
            powers[m] = powers.get(m, 0) + 1
        factor_list = []
        for pos, mode in enumerate(sorted(powers)):
            block = np.linalg.matrix_power(embeds[sym], powers[mode])
            if pos == 0:
                block = coeff * block
            factor_list.append(TensorFactor(layout[mode], block))
        bucket.append(TensorProductTerm(tuple(factor_list)))
    fragments = (Fragment(tuple(q_terms), "qp-q"), Fragment(tuple(p_terms), "qp-p"))
    n = v.modes * gm.k_mode
    return Partition(n, fragments, 0.0, source=f"qp(d={v.d})")


# ---------------------------------------------------------------------------
# 1D spinless Fermi-Hubbard coloring


def color_partition_fermi_hubbard_1d(h: PauliSum, sites: int) -> Partition:
    """Two fragments of 2-qubit blocks on even/odd edges of an open chain, from the Jordan-Wigner
    image `h` of a spinless Fermi-Hubbard chain: each term goes into the first even pair holding
    its support, else the first odd one, so reconstruction is exact; a term fitting no pair is
    refused (DomainError naming it)."""
    if sites < 2:
        raise DomainError("need at least 2 sites")
    if h.n != sites:
        raise DomainError(f"sum has {h.n} qubits but chain has {sites} sites")
    strings = h.sorted_strings()
    starts = [*range(0, sites - 1, 2), *range(1, sites - 1, 2)]  # even pairs (i, i + 1) first
    routed, rest = _route(strings["x"] | strings["z"], mask_words([3 << i for i in starts], h.n))
    if len(rest):
        letters = h.items_sorted()[rest[0]][1].letters
        raise DomainError(f"term {letters} does not fit a chain block")
    sets = [[(rows, 3 << i) for i, rows in zip(starts, routed) if len(rows) and i % 2 == parity]
            for parity in (0, 1)]
    frags = string_fragments(list(zip(("fh1d-even", "fh1d-odd"), sets)), strings)
    return Partition(h.n, tuple(frags), h.constant, source=f"fh1d(sites={sites})")
