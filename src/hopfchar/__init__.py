"""Exact truncated computation in character groups of graded connected Hopf
algebras: the rooted-forest (Butcher group) and tensor-algebra instances, with
convolution, exp/log/BCH, Hopf-ideal annihilator subgroups, and the evolution
equation eta' = eta * gamma, all in exact rational arithmetic."""

from .characters import (
    Character,
    InfinitesimalCharacter,
    butcher_compose,
    char_bch,
    char_exp,
    char_from_generator_values,
    char_from_tree_values,
    char_inv,
    char_log,
    char_mul,
    char_unit,
    character_violation,
    infinitesimal_from_tree_values,
    infinitesimal_violation,
    is_character,
    is_infinitesimal,
    lie_bracket,
    tensor_char_from_vector,
    tensor_char_group_iso,
    tree_values,
    tree_values_from_json_dict,
    tree_values_to_json_dict,
)
from .convolution import (
    TruncatedFunctional,
    conv_inverse,
    conv_unit,
    convolve,
    delta,
)
from .errors import (
    AlgebraError,
    AugmentationError,
    DomainError,
    IdealError,
    IncompatibleError,
    InternalError,
    MembershipError,
    NotInvertibleError,
    ParseError,
    ResourceLimitError,
    TruncationOverflowError,
)
from .evolution import FunctionalCurve, Poly, evol, evolve, evolve_polynomials
from .hopf import (
    CKHopf,
    GradedVector,
    HopfStructure,
    TensorHopf,
    Word,
    ck_hopf,
    parse_word,
    resolve_hopf,
    tensor_hopf,
)
from .ideals import (
    HopfIdealSpec,
    annihilates,
    annihilator_violation,
    is_symplectic,
    symplectic_generators,
)
from .rings import RATIONAL, RationalRing, TruncatedSeriesRing, resolve_ring
from .series import apply_series, exp_series, log1p_series
from .trees import (
    EMPTY_FOREST,
    LEAF,
    Forest,
    RootedTree,
    butcher_product,
    edge_partitions,
    enumerate_forests,
    enumerate_trees,
    ordered_subtrees,
    parse_forest,
    parse_tree,
)

__version__ = "0.1.0"
