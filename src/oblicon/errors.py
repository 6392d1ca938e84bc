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
        super().__init__(self._message())

    def _message(self) -> str:
        head = f"enumerating all {self.rounds}-round patterns"
        if self.required is None:
            return f"{head} exceeds the budget of {self.budget} nodes"
        return f"{head} needs {self.required} nodes, over the budget of {self.budget}"


class PairBudgetExceededError(BudgetExceededError):
    """A pattern graph would hold more indistinguishable pairs than the
    budget; ``required`` counts them once per process that shares a view."""

    def _message(self) -> str:
        return (
            f"the {self.rounds}-round pattern graph has up to {self.required} "
            f"indistinguishable pairs, over the budget of {self.budget}"
        )


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
