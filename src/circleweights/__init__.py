"""Exact combinatorics of isotropy weights for Hamiltonian circle actions
with isolated fixed points: multigraph enumeration, magnitude-labeling
search, localization identities and index-theoretic rigidity checks."""

from .core import (
    BalanceViolation,
    FixedPointProfile,
    ProfileError,
    RangeViolation,
    WeightSystem,
    WeightSystemError,
    minimal_divisors,
    minimal_profile,
    validate_profile,
    weight_system_checks,
)
from .graphs import (
    Multigraph,
    PairingMismatch,
    enumerate_multigraphs,
    enumerate_pairings,
    integral_multigraphs,
    magnitudes_from_weights,
)
from .linalg import (
    NullspaceDescription,
    graph_matrix,
    int_determinant,
    nullspace,
)
from .localization import (
    ChernReport,
    DegenerateWeights,
    abbv_sum,
    chern_battery,
    expected_c1cn1,
    minimal_chern_constants,
)
from .laurent import LaurentPolynomial, NotLaurent
from .hattori import (
    LevelData,
    as_index,
    available_levels,
    cp_check,
    derive_levels,
    dim8_solver,
    exp_r_values,
    phi,
    r_sequence,
    r_values_at_one,
    todd_quartic,
)
from .search import (
    CheckpointMismatch,
    ClassificationResult,
    SearchOptions,
    WeightFamily,
    admissible_pairing,
    classify,
    magnitude_sum,
    solve_weights,
    vet_instance,
)
from . import fixtures

__version__ = "0.1.0"
