"""GP regression with computable uniform error bounds, a kernel data-density
measure, closed-loop tracking certificates, and episodic data generation."""

from .bounds import DomainBox
from .gp import GPModel, TrainingSet, fit
from .kernels import KernelSpec
from .simulation import ReferenceSpec
from .tracking import ClosedLoop, LinearPlant

__all__ = [
    "ClosedLoop",
    "DomainBox",
    "GPModel",
    "KernelSpec",
    "LinearPlant",
    "ReferenceSpec",
    "TrainingSet",
    "fit",
]

__version__ = "0.1.0"
