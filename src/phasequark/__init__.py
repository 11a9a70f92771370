"""phasequark: exact generator algebra, colored pairings, and 8x8
Dirac-style Hamiltonians on a six-dimensional phase space.

The package has five layers:

- phase_space: antisymmetric 6x6 generators, their su(3) (+) u(1) algebra,
  finite group elements, and the canonical momentum/position pairings.
- clifford:   the seven mutually anticommuting 8x8 involutions built from
  threefold Pauli tensor products, charge conjugation, and gamma5.
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
    build_G,
    build_F,
    build_R,
    build_H,
    build_J,
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
    build_A,
    build_B,
    build_Bk,
    build_C,
    build_gamma5,
    build_colored_gamma5,
    anticommutator,
    commutator8,
    reflect,
    conjugate_matrix,
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
    anticommutator_expr,
    commutator_expr,
)
from .verify import run_suite, SUITES, DEFAULT_SEED  # noqa: F401
