"""Probabilistic models (GP, random forests) built from scratch on numpy/scipy."""

from .distances import DistanceComputer, parameter_scale
from .gp import GaussianProcess, GPHyperparameters
from .kernels import KERNELS, matern52, rbf, scaled_distance
from .priors import GammaPrior
from .random_forest import DecisionTree, RandomForestClassifier, RandomForestRegressor

__all__ = [
    "DecisionTree",
    "DistanceComputer",
    "GammaPrior",
    "GaussianProcess",
    "GPHyperparameters",
    "KERNELS",
    "RandomForestClassifier",
    "RandomForestRegressor",
    "matern52",
    "parameter_scale",
    "rbf",
    "scaled_distance",
]
