"""Exception types shared across the package."""


class CodazziError(Exception):
    """Base class for all package errors."""


class ConstructionError(CodazziError):
    """Invalid data handed to a type constructor (non-SPD metric, asymmetric cubic form, ...)."""


class NotPositiveDefiniteError(ConstructionError):
    """A metric has a leading principal minor that is not positive."""


class DimensionMismatchError(CodazziError):
    """Operands with incompatible dimensions or degrees."""


class PreconditionError(CodazziError):
    """A stated hypothesis of an operation is violated by the input.

    Raised instead of reporting an inequality/identity failure: the check
    does not apply, which is a different outcome from the check failing.
    """


class SchemaError(CodazziError):
    """A structure file does not match its JSON schema."""

    def __init__(self, message, pointer=""):
        super().__init__(f"{pointer or '/'}: {message}" if pointer else message)
        self.pointer = pointer
