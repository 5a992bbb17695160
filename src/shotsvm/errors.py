"""Exception types shared across the package.

Everything user-facing derives from ValueError or RuntimeError so callers can
catch broadly; the specific classes exist because tests and the CLI need to
tell the failure modes apart.
"""


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
