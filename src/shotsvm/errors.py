"""The solver's exception, and the range check and config base shared across the package.

Bad input and degenerate problems (a single class, zero weights or scores, a
starved entry, an unmeasured pair, a budget below the pilot) raise ValueError.
The solver's iteration cap raises ConvergenceError, a RuntimeError that
carries the worst KKT ``violation``.
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
    def is_integer(cls, name: str) -> bool:
        """Whether the field ``name`` is annotated ``int``."""
        return cls.__dataclass_fields__[name].type in (int, "int")

    @classmethod
    def check(cls, name: str, value) -> None:
        """Raise ValueError unless ``value`` is valid for the field ``name``."""
        check_range(name, value, *cls.RANGES[name])
        if cls.is_integer(name):
            if not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        elif abs(value) == math.inf:  # not math.isinf: it overflows on a huge int
            raise ValueError(f"{name} must be finite, got {value}")


class ConvergenceError(RuntimeError):
    """The solver hit its iteration cap before reaching the KKT tolerance.

    Its ``args`` are its constructor's, so it pickles across a process pool."""

    def __init__(self, max_iter: int, violation: float):
        super().__init__(max_iter, violation)
        self.violation = float(violation)

    def __str__(self):
        return (f"no convergence in {self.args[0]} iterations "
                f"(worst KKT violation {self.violation:.3e})")
