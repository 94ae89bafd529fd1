"""Multiclass Matthews correlation coefficients with asymptotic inference.

Three estimators over an r*r confusion table (macro average, pooled micro
average, indicator correlation), their delta-method variances, single and
paired-design confidence intervals, and a seeded Monte Carlo harness that
checks interval coverage end to end.

The package namespace re-exports each module's ``__all__``.
"""

from __future__ import annotations

from . import errors, inference, metrics, paired, simulate
from .errors import *
from .metrics import *
from .inference import *
from .paired import *
from .simulate import *
from .formats import coverage_report

__version__ = "0.1.0"

__all__ = ["__version__", *errors.__all__, *metrics.__all__, *inference.__all__,
           *paired.__all__, *simulate.__all__, "coverage_report"]
