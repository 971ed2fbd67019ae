"""Assertion-based verification at the SystemC level (paper Section 3.2).

The complement to model checking: PSL properties, already verified (or
too big to verify) at the ASM level, are reused as runtime monitors
bound read-only to the translated design's signals.  The harness
samples monitors every clock cycle, through a letter reader generated
from the model's :class:`~repro.abv.letters.LetterDeclaration`, and
executes the paper's three failure actions: stop the simulation,
write a report, raise a warning signal.
"""

from .coverage import CoverageCollector, CoverageEntry
from .harness import (
    AbvHarness,
    AssertionBinding,
    FailureAction,
    SettleHazardError,
)
from .letters import LetterDeclaration, each

__all__ = [
    "CoverageCollector",
    "CoverageEntry",
    "AbvHarness",
    "AssertionBinding",
    "FailureAction",
    "LetterDeclaration",
    "SettleHazardError",
    "each",
]
