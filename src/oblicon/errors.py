"""Exception types shared across the package."""
from __future__ import annotations


class AdversaryFormatError(ValueError):
    """An adversary document failed to parse or validate."""


class NotRootedError(ValueError):
    """An operation required rooted graphs but received one without a unique root."""


class BudgetExceededError(RuntimeError):
    """A pattern enumeration would exceed the configured node budget."""

    def __init__(self, required: int | None, budget: int, rounds: int):
        """``required`` is the exact pattern count, or None when it is too
        large to be worth computing."""
        self.required = required
        self.budget = budget
        self.rounds = rounds
        if required is None:
            message = (
                f"enumerating all {rounds}-round patterns exceeds the budget of {budget} nodes"
            )
        else:
            message = (
                f"enumerating all {rounds}-round patterns needs {required} nodes, "
                f"over the budget of {budget}"
            )
        super().__init__(message)


class PremiseError(ValueError):
    """A checked lemma premise does not hold for the given inputs."""


class FamilyValidationError(ValueError):
    """A generated adversary family violated one of its construction claims."""


class NonBroadcastableComponentError(RuntimeError):
    """Rule synthesis found an indistinguishability component with no common broadcaster."""

    def __init__(self, horizon: int, pattern_names: list[str]):
        self.horizon = horizon
        self.pattern_names = pattern_names
        self.size = len(pattern_names)
        sample = ", ".join(pattern_names[:4])
        more = ", ..." if self.size > 4 else ""
        super().__init__(
            f"component of {self.size} patterns at horizon {horizon} has no common "
            f"broadcaster (contains {sample}{more})"
        )
