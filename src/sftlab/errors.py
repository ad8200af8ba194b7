"""Exception vocabulary shared by all sftlab modules.

Every refusal carries enough context to reproduce it; witnesses are stored on
the exception object, not just formatted into the message.
"""


class SftlabError(Exception):
    """Base class for all library-specific failures."""


class ParseError(SftlabError):
    """Malformed input file; ``location`` is a JSON-path-ish string."""

    def __init__(self, message, location=""):
        super().__init__(f"{location}: {message}" if location else message)
        self.location = location


class ZeroMatrix(SftlabError):
    pass


class ReducibleInput(SftlabError):
    pass


class NotPrimitive(SftlabError):
    pass


class NilpotentMatrix(SftlabError):
    pass


class InadmissibleWord(SftlabError):
    def __init__(self, word, position):
        super().__init__(f"word {word!r} breaks at position {position}")
        self.word = tuple(word)
        self.position = position


class ShiftMismatch(SftlabError):
    pass


class NotInverse(SftlabError):
    """The two codes do not compose to the identity; ``witness`` is a word
    on which the composite disagrees with the centre symbol."""

    def __init__(self, witness, message="codes are not mutually inverse"):
        super().__init__(f"{message}; witness window {witness!r}")
        self.witness = tuple(witness)


class NotInvertibleWithin(SftlabError):
    def __init__(self, r_max):
        super().__init__(f"no inverse found with coding radius <= {r_max}")
        self.r_max = r_max


class UnknownBuiltin(SftlabError):
    pass


class BadParams(SftlabError, ValueError):
    """A builtin's params do not read as the values it needs."""


class WindowBudgetExceeded(SftlabError):
    def __init__(self, needed, budget):
        super().__init__(f"window enumeration needs {needed} words, budget is {budget}")
        self.needed = needed
        self.budget = budget


class InternalInvariantViolation(SftlabError):
    """A property proved in the underlying theory failed numerically/exactly.

    Reaching this is a bug in the library, never a property of the input.
    """


class NotInvariant(SftlabError):
    """The rule maps an allowed window outside the allowed edge set."""

    def __init__(self, witness, output):
        super().__init__(f"window {witness!r} maps to disallowed edge {output}")
        self.witness = tuple(witness)
        self.output = output


class NonMonic(SftlabError):
    pass


class ZeroConstantTerm(SftlabError):
    pass


class PreconditionFailed(SftlabError):
    pass


class InconsistentSystem(SftlabError):
    """Overdetermined exact linear system has no solution (well-definedness
    of the induced group action failed)."""


class NonPositiveRatio(SftlabError):
    pass
