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
    minimal_profile,
    validate_profile,
    weight_system_checks,
)
from .graphs import (
    Multigraph,
    PairingMismatch,
    WeightedMultigraph,
    enumerate_multigraphs,
    enumerate_pairings,
    graph_from_pairing,
    integral_multigraphs,
    magnitudes_from_weights,
)
from .linalg import (
    NullspaceDescription,
    RationalMatrix,
    graph_matrix,
    int_determinant,
    nullspace,
    positive_integer_nullvector,
)
from .localization import (
    ChernReport,
    DegenerateWeights,
    ShapePrecondition,
    abbv_sum,
    chern_battery,
    complete_graph_c1n,
    expected_c1cn1,
    minimal_chern_constants,
)
from .laurent import LaurentPolynomial, NotLaurent
from .hattori import (
    ConsistencyFailure,
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
    FamilyReport,
    NonIntegralSum,
    SearchOptions,
    WeightFamily,
    classify,
    enumerate_magnitude_labelings,
    lemma_filters,
    magnitude_sum,
    minimal_divisors,
    solve_weights,
    vet_instance,
)
from . import fixtures

__version__ = "0.1.0"
