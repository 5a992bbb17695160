"""Exception types, and the range check and config base shared across the package.

Everything user-facing derives from ValueError or RuntimeError so callers can
catch broadly; the specific classes exist because tests and the CLI need to
tell the failure modes apart.
"""

import math
import numbers
from typing import ClassVar


def check_range(name: str, value, lo, hi) -> None:
    """Raise ValueError, naming the value and the range, unless lo <= value <= hi."""
    if not lo <= value <= hi:
        bound = f"at least {lo:g}" if hi == math.inf else f"in [{lo:g}, {hi:g}]"
        raise ValueError(f"{name} must be {bound}, got {value}")


class Ranged:
    """Base of the config dataclasses. ``RANGES`` maps every field to its closed
    range, and constructing an instance checks each field against it. A value
    must also be finite, and an ``int`` field's value an integer."""

    RANGES: ClassVar[dict[str, tuple[float, float]]]

    def __post_init__(self):
        for name in self.RANGES:
            self.check(name, getattr(self, name))

    @classmethod
    def check(cls, name: str, value) -> None:
        """Raise ValueError unless ``value`` is valid for the field ``name``."""
        check_range(name, value, *cls.RANGES[name])
        if cls.__dataclass_fields__[name].type in (int, "int"):
            if not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        elif abs(value) == math.inf:  # not math.isinf: it overflows on a huge int
            raise ValueError(f"{name} must be finite, got {value}")


class IncompleteLedgerError(ValueError):
    """A full kernel estimate was requested while some entries have no shots."""

    def __init__(self, missing_pairs):
        self.missing_pairs = list(missing_pairs)
        shown = ", ".join(str(p) for p in self.missing_pairs[:8])
        more = "" if len(self.missing_pairs) <= 8 else f" (+{len(self.missing_pairs) - 8} more)"
        super().__init__(f"no shots recorded for pairs: {shown}{more}")


class DegenerateProblemError(ValueError):
    """Training data contains a single class."""


class ConvergenceError(RuntimeError):
    """The solver hit its iteration cap before reaching the KKT tolerance."""

    def __init__(self, message, violation):
        self.violation = float(violation)
        super().__init__(f"{message} (worst KKT violation {violation:.3e})")


class InsufficientBudgetError(ValueError):
    """A shot budget too small to cover the mandatory minimum per entry."""


class DegenerateWeightsError(ValueError):
    """All allocation weights (or scores) are zero."""


class DegenerateScoresError(DegenerateWeightsError):
    """All shot scores are zero; callers should have applied the uniform fallback."""


class InfiniteVarianceError(ValueError):
    """A positive-weight entry received zero shots, so the variance diverges."""
