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
    "RealParameter",
    "SearchSpace",
    "Tree",
    "extract_variables",
    "freeze_configuration",
]
