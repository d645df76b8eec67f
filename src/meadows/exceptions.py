"""Exception types shared by every module of the package."""


class MeadowError(Exception):
    """Base class for all errors raised by this package."""


class NotInSignature(MeadowError):
    """A term uses a constructor the selected signature does not permit."""


class NotClosed(MeadowError):
    """A closed term was required but the term has free variables."""


class ContainsInverse(MeadowError):
    """An inverse-free term was required but an inverse occurs."""


class SizeLimit(MeadowError):
    """A polynomial exceeded the configured monomial-count bound."""

    def __init__(self, count: int, bound: int):
        super().__init__(f"polynomial would have {count} monomials, bound is {bound}")
        self.count = count
        self.bound = bound


class CarrierViolation(MeadowError):
    """A constant, operation, or value falls outside the evaluation carrier."""


class UnboundVariable(MeadowError):
    """Evaluation reached a variable the assignment does not cover."""


class SignatureMismatch(MeadowError):
    """An interpretation does not support an operation the theory or punch needs."""


class MixedSignature(MeadowError):
    """A translation source already contains the target's primitive."""


class SchemaError(MeadowError):
    """A serialized document does not match the term schema."""


class ParseError(MeadowError):
    """Concrete syntax error, with 1-based line and column."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{message} (line {line}, column {column})")
        self.line = line
        self.column = column
