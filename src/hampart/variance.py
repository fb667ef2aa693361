"""Exact measurement-variance evaluation against explicit state vectors.

The shot-count figure of merit for a partition {M_q} on a state is
(sum_q sqrt(Var[M_q]))^2; a single-fragment partition gives the lower
bound Var[H]. Everything here is matrix-free: each fragment is applied once
to a (2^n, S) block holding all S states, as grouped Pauli strings (one flip
and one diagonal per x mask), or factor by factor where the Pauli expansion
would outweigh the state block, and Var[M] = |M psi|^2 - <psi|M psi>^2
for Hermitian M.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from math import inf, prod

import numpy as np

from .errors import DataError, DimensionError, DomainError, ResourceError
from .fragments import Fragment, Partition, apply_fragment, pauli_coefficients
from .pauli import PauliSum, apply_pauli_terms

STATE_QUBIT_CAP = 16
_NEGATIVE_VAR_TOL = 1e-10


@dataclass(frozen=True)
class StateVector:
    """Normalized n-qubit state with provenance label (e.g. 'haar:7')."""

    n: int
    amplitudes: np.ndarray
    seed: str = ""

    def __post_init__(self):
        amp = np.asarray(self.amplitudes, dtype=complex)
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
    return StateVector(n, amp, seed=f"haar:{seed}")


def basis_state(n: int, index: int) -> StateVector:
    if n > STATE_QUBIT_CAP:
        raise ResourceError(f"states capped at {STATE_QUBIT_CAP} qubits, got {n}")
    if not 0 <= index < (1 << n):
        raise DomainError(f"basis index {index} out of range for n={n}")
    amp = np.zeros(1 << n, dtype=complex)
    amp[index] = 1.0
    return StateVector(n, amp, seed=f"basis:{index}")


def state_block(states) -> np.ndarray:
    """(2^n, S) array whose columns are the amplitudes of the S given states."""
    return np.stack([psi.amplitudes for psi in states], axis=1)


def _variances(m_psi: np.ndarray, bra: np.ndarray) -> np.ndarray:
    """Var[M] = |M psi|^2 - <psi|M psi>^2 per column for Hermitian M; `bra` is conj(psi)."""
    mean = np.einsum("ij,ij->j", bra, m_psi)
    if np.any(np.abs(mean.imag) > 1e-9):
        raise DataError(f"non-real expectation {mean[np.abs(mean.imag).argmax()]}; not Hermitian?")
    re, im = m_psi.real, m_psi.imag  # views: |M psi|^2 without a conjugated copy
    second = np.einsum("ij,ij->j", re, re) + np.einsum("ij,ij->j", im, im)
    var = second - mean.real**2
    if np.any(var < -_NEGATIVE_VAR_TOL * (1.0 + second)):
        raise DataError(f"variance {var.min()} below clamp threshold; operator not Hermitian?")
    return np.maximum(var, 0.0)


def _bra(states: np.ndarray, n: int) -> np.ndarray:
    """conj of a (2^n, S) block of normalized states, after checking that it is one."""
    if states.ndim != 2 or states.shape[0] != 1 << n:
        raise DimensionError(f"state block needs shape (2^{n}, S), got {states.shape}")
    if np.any(np.abs(np.linalg.norm(states, axis=0) - 1.0) > 1e-10):
        raise DataError("every column of a state block must be a normalized state")
    return states.conj()


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
    """frag @ states through apply_pauli_terms (into `buffers`) on its Pauli expansion, or factor
    by factor (apply_fragment) where expanding would outweigh the state block: a factor given as
    a block (masks None) with more entries (4^m) than the block, a term whose block factors
    expand to more strings than the block's entries (factors given as masks do not count), or a
    term over EXPANSION_CAP strings. All is decided before any term is expanded."""
    # A block with more entries than the state block counts as unboundedly many strings, so it is
    # never projected.
    strings = (prod(len(f.projection) if 4**f.size <= states.size else inf
                    for f in t.factors if f.masks is None) for t in frag.terms)
    if any(count > states.size for count in strings):
        return apply_fragment(frag, states, n)
    try:
        coeffs = pauli_coefficients(frag.terms)
    except ResourceError:
        return apply_fragment(frag, states, n)
    return apply_pauli_terms([(c, x, z) for (x, z), c in coeffs.items()], states, n, *buffers)


def partition_costs(p: Partition, states: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Totals (S,) and per-fragment variances (fragments, S) on a (2^n, S) block of
    normalized states; each fragment is applied once to all S columns.
    Total = (sum_q sqrt(Var[M_q]))^2; the constant contributes nothing."""
    bra = _bra(states, p.n)
    buffers = np.empty((2, *states.shape), dtype=complex)  # out and tmp, shared by fragments
    per = np.array([_variances(_apply(f, states, p.n, *buffers), bra) for f in p.fragments])
    per = per.reshape(len(p.fragments), states.shape[1])
    return np.sum(np.sqrt(per), axis=0) ** 2, per


def partition_cost(p: Partition, psi: StateVector) -> VarianceReport:
    """partition_costs on one state."""
    totals, per = partition_costs(p, psi.amplitudes[:, None])
    return VarianceReport(p.source, psi.seed, len(p.fragments), tuple(per[:, 0].tolist()),
                          float(totals[0]))


def lower_bounds(h: PauliSum, states: np.ndarray) -> np.ndarray:
    """Var[H] per column of a (2^n, S) state block: the single-fragment cost."""
    bra = _bra(states, h.n)
    return _variances(h.apply(states), bra)


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
