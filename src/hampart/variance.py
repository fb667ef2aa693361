"""Exact measurement-variance evaluation against explicit state vectors.

The shot-count figure of merit for a partition {M_q} on a state is
(sum_q sqrt(Var[M_q]))^2; a single-fragment partition gives the lower
bound Var[H]. Everything here is matrix-free: each fragment is applied once
to a (2^n, S) block of states, column chunk by column chunk under
STATE_CHUNK_BYTES, as grouped Pauli strings (one flip and one diagonal per x
mask), or factor by factor where the Pauli expansion would outweigh the state
block, and Var[M] = |M psi|^2 - <psi|M psi>^2 for Hermitian M.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from math import prod
from typing import Iterator

import numpy as np

from .errors import DataError, DimensionError, DomainError, ResourceError
from .fragments import Fragment, Partition, apply_fragment, pauli_coefficients
from .pauli import PauliSum, apply_pauli_terms, string_array

STATE_QUBIT_CAP = 16
# Most bytes a chunk of state columns and the three equally large buffers scoring it may hold.
STATE_CHUNK_BYTES = 32 << 20
_NEGATIVE_VAR_TOL = 1e-10


@dataclass(frozen=True)
class StateVector:
    """Normalized n-qubit state with provenance label (e.g. 'haar:7')."""

    n: int
    amplitudes: np.ndarray
    seed: str = ""

    def __post_init__(self):
        amp = np.asarray(self.amplitudes, dtype=complex)
        if amp is self.amplitudes and amp.flags.writeable:  # freeze a copy, not the caller's array
            amp = amp.copy()
        if amp.shape != (1 << self.n,):
            raise DimensionError(f"state needs 2^{self.n} amplitudes, got {amp.shape}")
        norm = np.linalg.norm(amp)
        if abs(norm - 1.0) > 1e-12:
            raise DataError(f"state norm {norm} deviates from 1")
        amp.setflags(write=False)
        object.__setattr__(self, "amplitudes", amp)


def random_state(n: int, seed: int) -> StateVector:
    """Haar-distributed state: normalized i.i.d. complex Gaussian amplitudes."""
    if n > STATE_QUBIT_CAP:
        raise ResourceError(f"states capped at {STATE_QUBIT_CAP} qubits, got {n}")
    if seed < 0:
        raise DomainError(f"state seeds must be non-negative, got {seed}")
    rng = np.random.default_rng(seed)
    amp = rng.standard_normal(1 << n) + 1j * rng.standard_normal(1 << n)
    amp /= np.linalg.norm(amp)
    amp.setflags(write=False)
    return StateVector(n, amp, seed=f"haar:{seed}")


def basis_state(n: int, index: int) -> StateVector:
    if n > STATE_QUBIT_CAP:
        raise ResourceError(f"states capped at {STATE_QUBIT_CAP} qubits, got {n}")
    if not 0 <= index < (1 << n):
        raise DomainError(f"basis index {index} out of range for n={n}")
    amp = np.zeros(1 << n, dtype=complex)
    amp[index] = 1.0
    amp.setflags(write=False)
    return StateVector(n, amp, seed=f"basis:{index}")


def state_block(states) -> np.ndarray:
    """(2^n, S) array whose columns are the amplitudes of the S given states."""
    return np.stack([psi.amplitudes for psi in states], axis=1)


def column_chunks(n: int, count: int) -> list[slice]:
    """Slices of the columns of a (2^n, count) state block, each as wide as STATE_CHUNK_BYTES
    allows for it and three buffers like it; ResourceError if one column does not fit."""
    width = STATE_CHUNK_BYTES // (4 * np.dtype(complex).itemsize << n)
    if width < 1:
        raise ResourceError(f"one {n}-qubit state column and its buffers exceed "
                            f"{STATE_CHUNK_BYTES >> 20} MiB")
    return [slice(i, min(i + width, count)) for i in range(0, count, width)]


def _moments(m_psi: np.ndarray, rows: np.ndarray, scratch=None) -> tuple[np.ndarray, np.ndarray]:
    """<psi|M psi> and |M psi|^2 per state, from the (2^n, S) block M psi and the states as rows
    (S, 2^n). M psi is copied to rows too (into C-contiguous `scratch` if given): each state's
    sums run over contiguous memory, alike at any chunk width."""
    m_rows = np.empty_like(rows) if scratch is None else scratch.reshape(rows.shape)
    np.copyto(m_rows, m_psi.T)
    return np.vecdot(rows, m_rows), np.vecdot(m_rows, m_rows).real


def _variances(mean: np.ndarray, second: np.ndarray) -> np.ndarray:
    """Var[M] = |M psi|^2 - <psi|M psi>^2 for Hermitian M, from _moments."""
    if (np.abs(mean.imag) > 1e-9).any():
        raise DataError(f"non-real expectation {mean.flat[np.abs(mean.imag).argmax()]}; "
                        "not Hermitian?")
    var = second - mean.real**2
    if (var < -_NEGATIVE_VAR_TOL * (1.0 + second)).any():
        raise DataError(f"variance {var.min()} below clamp threshold; operator not Hermitian?")
    return np.maximum(var, 0.0)


def _chunks(states: np.ndarray, n: int) -> Iterator[tuple[slice, np.ndarray, np.ndarray]]:
    """(columns, view, _rows of the view) per column_chunks slice of a (2^n, S) block, made one
    chunk at a time; the shape and chunk width are checked before anything is allocated."""
    if states.ndim != 2 or states.shape[0] != 1 << n:
        raise DimensionError(f"state block needs shape (2^{n}, S), got {states.shape}")
    return ((c, states[:, c], _rows(states[:, c])) for c in column_chunks(n, states.shape[1]))


def _rows(chunk: np.ndarray) -> np.ndarray:
    """The columns of a state chunk as the rows of a C-contiguous copy, checked normalized."""
    rows = np.ascontiguousarray(chunk.T, complex)
    if np.any(np.abs(np.linalg.norm(rows, axis=1) - 1.0) > 1e-10):
        raise DataError("every column of a state block must be a normalized state")
    return rows


def fragment_variance(frag: Fragment, psi: StateVector) -> float:
    """Var[M] on one state: partition_costs of the one-fragment partition."""
    if (support := frag.support()) and support[-1] >= psi.n:
        raise DimensionError(f"fragment touches qubit {support[-1]}, the state has {psi.n} qubits")
    return float(partition_costs(Partition(psi.n, (frag,)), psi.amplitudes[:, None])[1][0, 0])


@dataclass(frozen=True)
class VarianceReport:
    """Per-fragment variances and the total shot-count figure for one state."""

    method: str
    state_seed: str
    fragment_count: int
    per_fragment: tuple[float, ...]
    total: float

    def to_dict(self) -> dict:
        return {**asdict(self), "per_fragment": list(self.per_fragment)}


def _apply(frag: Fragment, states: np.ndarray, n: int, *buffers: np.ndarray) -> np.ndarray:
    """frag @ states through apply_pauli_terms (into `buffers`) on frag.strings, set here once
    for a fragment built from terms (a set fragment's are its members). It is applied factor by
    factor (apply_fragment) instead where its expansion would outweigh one state column: a factor
    with more entries (4^m) than 2^n, a term whose factors expand to more strings than that, or
    a term over EXPANSION_CAP strings; decided before anything is expanded."""
    if frag.strings is None:
        terms = frag.terms
        if any(4**f.size > 1 << n for t in terms for f in t.factors):  # never projected
            return apply_fragment(frag, states, n)
        if max((prod(len(f.projection) for f in t.factors) for t in terms), default=0) > 1 << n:
            return apply_fragment(frag, states, n)
        try:
            coeffs = pauli_coefficients(frag.terms)
        except ResourceError:
            return apply_fragment(frag, states, n)
        strings = string_array(((c, x, z) for (x, z), c in coeffs.items()), n)
        object.__setattr__(frag, "strings", strings)
    return apply_pauli_terms(frag.strings, states, n, *buffers)


def partition_costs(p: Partition, states: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Totals (S,) and per-fragment variances (fragments, S) on a (2^n, S) block of
    normalized states; each fragment is applied once to each column chunk.
    Total = (sum_q sqrt(Var[M_q]))^2; the constant contributes nothing."""
    chunks = _chunks(states, p.n)
    mean = np.empty((len(p.fragments), states.shape[1]), dtype=complex)
    second = np.empty(mean.shape)
    for cols, chunk, rows in chunks:
        out, tmp = np.empty((2, *chunk.shape), dtype=complex)  # shared by the fragments
        for i, f in enumerate(p.fragments):
            mean[i, cols], second[i, cols] = _moments(_apply(f, chunk, p.n, out, tmp), rows, tmp)
    per = _variances(mean, second)
    totals = np.zeros(per.shape[1])
    for root in np.sqrt(per):  # fragment by fragment: one order of sums at any block width
        totals += root
    return totals**2, per


def partition_cost(p: Partition, psi: StateVector) -> VarianceReport:
    """partition_costs on one state."""
    totals, per = partition_costs(p, psi.amplitudes[:, None])
    return VarianceReport(p.source, psi.seed, len(p.fragments), tuple(per[:, 0].tolist()),
                          float(totals[0]))


def lower_bounds(h: PauliSum, states: np.ndarray) -> np.ndarray:
    """Var[H] per column of a (2^n, S) state block: the single-fragment cost."""
    chunks = _chunks(states, h.n)
    mean, second = np.empty(states.shape[1], dtype=complex), np.empty(states.shape[1])
    for cols, chunk, rows in chunks:
        mean[cols], second[cols] = _moments(h.apply(chunk), rows)
    return _variances(mean, second)


def lower_bound(h: PauliSum, psi: StateVector) -> float:
    """lower_bounds on one state."""
    return float(lower_bounds(h, psi.amplitudes[:, None])[0])


# ---------------------------------------------------------------------------
# One-qubit rotated-basis analysis

# For H = eta*X + sqrt(1-eta^2)*Z and |psi> = alpha|0> + sqrt(1-alpha^2)|1>:
#   <X> = 2*alpha*sqrt(1-alpha^2), <Z> = 2*alpha^2 - 1, and H^2 = I,
# so both basis costs reduce to closed forms in (eta, alpha).


def rotated_basis_demo(eta: float, alpha: float) -> tuple[float, float]:
    """Shot counts for the two-basis Pauli split vs. the single rotated basis.

    Returns (N_GPB, N_RB) where
    N_GPB = (eta*sqrt(Var[X]) + sqrt(1-eta^2)*sqrt(Var[Z]))^2 and
    N_RB = 1 - <H>^2 on the real one-qubit state parameterized by alpha.
    """
    if not (0.0 <= eta <= 1.0 and 0.0 <= alpha <= 1.0):
        raise DomainError(f"eta and alpha must lie in [0, 1], got ({eta}, {alpha})")
    ex = 2.0 * alpha * np.sqrt(max(1.0 - alpha * alpha, 0.0))
    ez = 2.0 * alpha * alpha - 1.0
    var_x = max(1.0 - ex * ex, 0.0)
    var_z = max(1.0 - ez * ez, 0.0)
    comp = np.sqrt(max(1.0 - eta * eta, 0.0))
    n_gpb = (eta * np.sqrt(var_x) + comp * np.sqrt(var_z)) ** 2
    mean_h = eta * ex + comp * ez
    n_rb = 1.0 - mean_h * mean_h
    return float(n_gpb), float(n_rb)


def theorem1_grid(resolution: int, parameterization: str = "angle") -> np.ndarray:
    """Grid of (eta, alpha, N_GPB, N_RB) rows.

    `angle` places eta = cos(theta), alpha = cos(phi) on uniform angle grids
    over [0, pi/2] (so 1/sqrt(2) and cos(pi/8) appear exactly at resolution
    101); `uniform` spaces eta and alpha directly over [0, 1].
    """
    if resolution < 2:
        raise DomainError(f"resolution must be >= 2, got {resolution}")
    if parameterization == "angle":
        angles = np.linspace(0.0, np.pi / 2.0, resolution)
        etas = np.cos(angles)
        alphas = np.cos(angles)
    elif parameterization == "uniform":
        etas = np.linspace(0.0, 1.0, resolution)
        alphas = np.linspace(0.0, 1.0, resolution)
    else:
        raise DataError(f"unknown parameterization {parameterization!r}")
    etas, alphas = np.clip(etas, 0.0, 1.0).tolist(), np.clip(alphas, 0.0, 1.0).tolist()
    return np.array([(eta, alpha, *rotated_basis_demo(eta, alpha))
                     for eta in etas for alpha in alphas])
