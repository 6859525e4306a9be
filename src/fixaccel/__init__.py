"""Interval analysis of affine loops with accelerated fixpoint iteration.

The package computes numerical invariants — one interval per state
variable — for small loop programs whose bodies are affine updates over
interval-valued inputs.  Plain Kleene iteration, widening (standard or
threshold-based), and an accelerated mode that extrapolates the bound
sequences with Aitken or epsilon-algorithm transforms and injects the
estimated limit back into the iteration are all provided, along with a
command-line front end that emits deterministic CSV traces and JSON
reports.
"""
from __future__ import annotations

from .bundled import PROGRAM_NAMES, bundled_path, bundled_source, load_bundled
from .engine import (
    EngineConfig,
    FixpointReport,
    IterationTrace,
    TraceRecord,
    analyze,
    verify_postfixpoint,
)
from .extraction import (
    ExtractionResult,
    ExtractionSchema,
    combine_detailed,
    extract,
)
from .intervals import (
    BOTTOM,
    TOP,
    AbstractState,
    Interval,
    ThresholdSet,
    affine_eval,
    join,
    leq,
    state_join,
    state_leq,
    state_widen_std,
    state_widen_thresholds,
    widen_std,
    widen_thresholds,
)
from .programs import Assignment, ParseError, Program, parse, transfer, unparse
from .transforms import (
    TransformConfig,
    TransformedElement,
    aitken,
    converged,
    epsilon_diagonal,
    vector_epsilon_diagonal,
)

__version__ = "0.1.0"

__all__ = [
    "AbstractState",
    "Assignment",
    "BOTTOM",
    "EngineConfig",
    "ExtractionResult",
    "ExtractionSchema",
    "FixpointReport",
    "Interval",
    "IterationTrace",
    "PROGRAM_NAMES",
    "ParseError",
    "Program",
    "TOP",
    "ThresholdSet",
    "TraceRecord",
    "TransformConfig",
    "TransformedElement",
    "affine_eval",
    "aitken",
    "analyze",
    "bundled_path",
    "bundled_source",
    "combine_detailed",
    "converged",
    "epsilon_diagonal",
    "extract",
    "join",
    "leq",
    "load_bundled",
    "parse",
    "state_join",
    "state_leq",
    "state_widen_std",
    "state_widen_thresholds",
    "transfer",
    "unparse",
    "vector_epsilon_diagonal",
    "verify_postfixpoint",
    "widen_std",
    "widen_thresholds",
    "__version__",
]
