"""Exact verification of Hilbert coefficient inequalities for admissible
filtrations on concrete Noetherian local rings."""

from .fields import QQ, PrimeField, Rationals, field_from_descriptor
from .ideals import IdealHandle, LocalRing
from .filtration import (LengthTable, find_reduction, reduction_system,
                         verify_admissible)
from .checkers import (BoundaryData, compute_boundary_data, evaluate_conditions,
                       evaluate_structural, run_checks)
from .config import JobConfig, load_config, parse_config
from .report import run_job, to_json, to_markdown

__version__ = "0.1.0"

__all__ = [
    "QQ", "PrimeField", "Rationals", "field_from_descriptor",
    "IdealHandle", "LocalRing",
    "reduction_system", "find_reduction", "verify_admissible", "LengthTable",
    "BoundaryData", "compute_boundary_data", "evaluate_conditions",
    "evaluate_structural", "run_checks",
    "JobConfig", "load_config", "parse_config",
    "run_job", "to_json", "to_markdown",
    "__version__",
]
