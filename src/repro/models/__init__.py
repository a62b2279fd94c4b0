"""Probabilistic models (GP, random forests) built from scratch on numpy/scipy."""

from .distances import DistanceComputer, parameter_scale
from .gp import GaussianProcess, GPHyperparameters
from .kernels import matern52, scaled_distance
from .priors import GammaPrior
from .random_forest import DecisionTree, RandomForestClassifier, RandomForestRegressor

__all__ = [
    "DecisionTree",
    "DistanceComputer",
    "GammaPrior",
    "GaussianProcess",
    "GPHyperparameters",
    "RandomForestClassifier",
    "RandomForestRegressor",
    "matern52",
    "parameter_scale",
    "scaled_distance",
]
