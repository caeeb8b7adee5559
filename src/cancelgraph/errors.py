"""Exception hierarchy shared by all modules.

The CLI maps these onto exit codes: domain errors exit 1, usage errors
exit 2 (verification violations exit 3 without raising).
"""


class CancelGraphError(Exception):
    """Base class for all errors raised by this package."""


class UsageError(CancelGraphError):
    """Bad arguments: length mismatch, out-of-range vertex, wrong precondition."""


class CapacityError(CancelGraphError):
    """Size or budget guard exceeded without an explicit override.

    guard is the refusal without its advice to pass force=True where that
    override exists (a check refusal), and None at a hard limit."""

    def __init__(self, message: str, guard: str | None = None):
        super().__init__(message)
        self.guard = guard

    @classmethod
    def check(cls, n: int, limit: int, force: bool, work: str) -> None:
        """Refuse n above limit unless forced; work says what n bounds."""
        if n > limit and not force:
            guard = f"{work}; guarded at n<={limit}"
            raise cls(f"{guard}; pass force=True", guard)


class ParseError(CancelGraphError):
    """Malformed graph or permutation text. Carries the offending line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class InvalidAntiError(CancelGraphError):
    """A permutation that is not an anti-automorphism was used where one is required."""


class InvalidActionError(CancelGraphError):
    """act() called with a pair outside Aut^TF or a permutation outside Ant."""


class InvariantViolationError(CancelGraphError):
    """Two supposedly equivalent computation routes disagreed. Always a bug."""
