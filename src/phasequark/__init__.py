"""phasequark: exact generator algebra, colored pairings, and 8x8
Dirac-style Hamiltonians on a six-dimensional phase space.

The package has five layers:

- phase_space: antisymmetric 6x6 generators, their su(3) (+) u(1) algebra,
  finite group elements, and the canonical momentum/position pairings.
- clifford:   the table of named 8x8 operators (the seven anticommuting
  involutions, C, the chiralities) on Pauli triples, and its phase table.
- hamiltonian: Dirac/colored/composite Hamiltonians, rotations, charge
  conjugation, exact antiparticle distinctness, spectra.
- pauli_expr: an exact symbolic expression algebra over the same tensor
  basis with a small text grammar.
- verify/cli: named verification suites and the command-line front end.
"""

__version__ = "0.1.0"

from .phase_space import (  # noqa: F401
    PhaseVector,
    Generator6,
    PairingScheme,
    commutator6,
    structure_constants,
    verify_su3_table,
    exp_generator,
    symplectic_form,
    is_orthogonal,
    is_symplectic,
    pairing,
    pairing_tags,
    apply_pairing,
    derive_pairing_from_rotation,
    derive_pairing_from_diagonal,
)
from .clifford import (  # noqa: F401
    kron3,
    named_operator,
    build_C,
    anticommutator,
    charge_conjugation_tau_scan,
)
from .hamiltonian import (  # noqa: F401
    EMField,
    HamiltonianSpec,
    SpectrumReport,
    build_hamiltonian,
    build_composite,
    rotation_matrix,
    rotate_hamiltonian,
    conjugate_hamiltonian,
    antiparticle_distinctness_check,
    square_and_spectrum,
)
from .pauli_expr import (  # noqa: F401
    PauliExpr,
    ParseError,
    parse,
)
from .verify import run_suite, SUITES, DEFAULT_SEED  # noqa: F401
