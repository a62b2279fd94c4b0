"""Search-space definition layer: parameters, constraints, and Chain-of-Trees."""

from .chain_of_trees import ChainOfTrees, FeasibleSetTooLarge, Tree
from .constraints import Constraint, ConstraintError, extract_variables
from .encoding import ColumnBlock, ConfigEncoder
from .parameters import (
    CategoricalParameter,
    IntegerParameter,
    NumericParameter,
    OrdinalParameter,
    Parameter,
    PermutationParameter,
    RealParameter,
    PERMUTATION_METRICS,
    hamming_permutation_distance,
    kendall_distance,
    spearman_distance,
)
from .space import Configuration, SearchSpace, freeze_configuration

__all__ = [
    "CategoricalParameter",
    "ChainOfTrees",
    "ColumnBlock",
    "ConfigEncoder",
    "Configuration",
    "Constraint",
    "ConstraintError",
    "FeasibleSetTooLarge",
    "IntegerParameter",
    "NumericParameter",
    "OrdinalParameter",
    "Parameter",
    "PermutationParameter",
    "PERMUTATION_METRICS",
    "RealParameter",
    "SearchSpace",
    "Tree",
    "extract_variables",
    "freeze_configuration",
    "hamming_permutation_distance",
    "kendall_distance",
    "spearman_distance",
]
