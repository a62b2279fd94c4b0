"""The BaCO optimizer: acquisition, feasibility model, local search, sessions."""

from .acquisition import AcquisitionFunction, expected_improvement
from .baco import BacoSettings, BacoTuner
from .doe import default_doe_size, initial_design, initial_design_queue
from .feasibility import FeasibilityModel, FeasibilityThresholdSchedule
from .local_search import LocalSearchSettings, multistart_local_search_batch
from .result import Evaluation, ObjectiveFunction, ObjectiveResult, TuningHistory
from .session import Suggestion, TuningSession, drive
from .tuner import Tuner

__all__ = [
    "AcquisitionFunction",
    "BacoSettings",
    "BacoTuner",
    "Evaluation",
    "FeasibilityModel",
    "FeasibilityThresholdSchedule",
    "LocalSearchSettings",
    "ObjectiveFunction",
    "ObjectiveResult",
    "Suggestion",
    "Tuner",
    "TuningHistory",
    "TuningSession",
    "default_doe_size",
    "drive",
    "expected_improvement",
    "initial_design",
    "initial_design_queue",
    "multistart_local_search_batch",
]
