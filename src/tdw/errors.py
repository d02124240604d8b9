"""Exception hierarchy shared by every tdw module.

Domain errors subclass :class:`Error`; the CLI maps them to exit code 1,
while genuine I/O and usage problems map to exit code 2.
"""


class Error(Exception):
    """Base class for all tdw domain errors."""


class ParseError(Error):
    """Syntax error in a schema, definition, or mapping text."""

    def __init__(self, line: int, col: int, expected: str):
        self.line = line
        self.col = col
        self.expected = expected
        super().__init__(f"line {line}, col {col}: expected {expected}")


# temporal
class UnknownUnit(Error):
    pass


class MixedUnits(Error):
    pass


# source model
class UnknownInterface(Error):
    pass


class InverseMismatch(Error):
    pass


class TypeMismatch(Error):
    pass


class DanglingReference(Error):
    pass


class InverseViolation(Error):
    pass


class DuplicateId(Error):
    pass


class CompositionViolation(Error):
    """A source object is a component of more than one composite."""


# warehouse model
class InheritanceCycle(Error):
    pass


class PropertyConflict(Error):
    pass


class UnknownClass(Error):
    pass


class UnknownEnvironment(Error):
    pass


class UnknownOid(Error):
    pass


# schema dsl
class UnknownFunction(Error):
    pass


class UnresolvedSourceProperty(Error):
    pass


class TypeInferenceError(Error):
    pass


class ResolveError(Error):
    """Schema resolution failed; carries the validation violations."""

    def __init__(self, message: str, violations=()):
        self.violations = list(violations)
        super().__init__(message)


# mapping algebra
class UnknownPath(Error):
    pass


class AmbiguousProperty(Error):
    pass


class NameCollision(Error):
    pass


class NonNumericAggregate(Error):
    pass


class TypeMismatchInPredicate(Error):
    pass


# refresh engine
class DanglingRelationTarget(Error):
    pass


class NonMonotonicInstant(Error):
    pass


class UnitMismatch(Error):
    pass


class NotSpecificProperty(Error):
    pass


class FrozenObject(Error):
    pass


class StoreLocked(Error):
    pass
