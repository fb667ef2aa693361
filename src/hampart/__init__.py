"""Measurement-basis partitioning of qubit Hamiltonians with exact
shot-count variance analysis at desk scale (<= 16 qubits)."""

from .encodings import (
    EncodedOperator,
    GrayMap,
    encode_boson_block,
    encode_boson_operator,
    gray_map,
    jordan_wigner,
)
from .errors import (
    ConstraintError,
    DataError,
    DimensionError,
    DomainError,
    HampartError,
    ParseError,
    ResourceError,
)
from .fragments import (
    Fragment,
    Partition,
    TensorFactor,
    TensorProductTerm,
    load_partition,
    partition_from_json,
    partition_to_json,
    save_partition,
)
from .operators import (
    BosonOperator,
    ElectronicIntegrals,
    FermionOperator,
    Lattice,
    boson_matrices,
    build_bose_hubbard,
    build_fermi_hubbard,
    build_vibrational,
    chain_lattice,
    cubic_lattice,
    hexagonal_lattice,
    lattice_from_json,
    lattice_to_json,
    load_fcidump,
    read_fcidump,
    square_lattice,
    tetrahedral_lattice,
    triangular_lattice,
    write_fcidump,
)
from .partitioners import (
    blocking_partition,
    color_partition_bose_hubbard,
    color_partition_fermi_hubbard_1d,
    edge_coloring,
    greedy_partition,
    is_proper_edge_coloring,
    misra_gries,
    ordering_cost,
    permute_modes,
    qp_partition_vibrational,
    qpn_partition,
    reorder_indices,
    sorted_insertion,
)
from .pauli import (
    PauliString,
    PauliSum,
    commutes,
    format_pauli_text,
    multiply,
    parse_pauli_text,
    weight,
)
from .validators import (
    FragmentDiagonalization,
    ValidationReport,
    check_commutation,
    check_locality,
    check_reconstruction,
    check_tensor_wise,
    diagonalize_fragment,
    validate_partition,
)
from .variance import (
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

__version__ = "0.1.0"
