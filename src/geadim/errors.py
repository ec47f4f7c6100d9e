"""Exception types shared across the package."""

import copyreg


class GeadimError(Exception):
    """Base class for all package errors."""

    def __reduce__(self):
        # rebuilt without ``__init__``, which takes fields, not ``args``
        return copyreg.__newobj__, (type(self), *self.args), self.__dict__


class ConflictingEquation(GeadimError):
    """The same pair of elements was given two different sums."""


class AxiomViolation(GeadimError):
    """A candidate table fails one of the five defining axioms.

    Carries the axiom tag (``"GEA1"`` .. ``"GEA5"``) and a witness tuple of
    element names.
    """

    def __init__(self, axiom, witness):
        self.axiom = axiom
        self.witness = tuple(witness)
        super().__init__(f"{axiom} fails at {self.witness}")


class InternalInvariant(GeadimError):
    """A property that must hold for every valid finite model failed.

    Raised only for conditions that indicate a bug (table corruption,
    a broken construction), never for bad user input.
    """


class MapNotInExocenter(GeadimError):
    pass


class NotHullDetermining(GeadimError):
    """A candidate subset fails HD1 or HD2; carries the condition and detail."""

    def __init__(self, condition, detail):
        self.condition = condition
        self.detail = detail
        super().__init__(f"{condition} fails: {detail}")


class OverlappingClasses(GeadimError):
    pass


class UnknownElement(GeadimError):
    pass


class NotSkCongruence(GeadimError):
    pass


class NotDer(GeadimError):
    pass


class NotSplitting(GeadimError):
    pass


class NotHereditary(GeadimError):
    pass


class Unbounded(GeadimError):
    pass


class LimitExceeded(GeadimError):
    pass


class UnknownPredicate(GeadimError):
    pass


class ParseError(GeadimError):
    """Syntax or consistency error in a .gea document."""

    def __init__(self, line, col, message):
        self.line = line
        self.col = col
        super().__init__(f"line {line}, col {col}: {message}")
