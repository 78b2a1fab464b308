"""Drift estimation for scalar SDEs driven by heavy-tailed stable noise.

The package simulates ergodic diffusions with alpha-stable jumps, estimates
their drift nonparametrically from high-frequency observations by local
linear and kernel-ratio regression, and ships Monte Carlo experiments that
verify the estimators' rate, bias, and limit-law behavior at desk scale.

The package re-exports each module's ``__all__``, the one list of its names.
"""

from __future__ import annotations

from . import errors, estimate, experiments, kernels, models, simulate, stable
from .errors import *
from .estimate import *
from .experiments import *
from .kernels import *
from .models import *
from .simulate import *
from .stable import *

__version__ = "0.1.0"

__all__ = ["__version__", *errors.__all__, *stable.__all__, *kernels.__all__, *models.__all__,
           *simulate.__all__, *estimate.__all__, *experiments.__all__]
