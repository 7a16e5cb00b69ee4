# Exception hierarchy shared by the whole package, plus the CLI exit-code map.
# Keeping these in one place lets the CLI translate any library failure into
# a stable machine-readable error without guessing.


class BorderRankError(Exception):
    """Base class for all errors raised by this package."""


class ShapeMismatchError(BorderRankError):
    """Operands live on different ambient products of projective spaces."""


class ParseError(BorderRankError):
    """Malformed text/JSON input (tensor, ideal, monomial, job)."""


class PreconditionError(BorderRankError):
    """A documented operation precondition was violated."""


class UnsupportedShapeError(PreconditionError):
    """A closed-form formula was requested outside its proven range."""


# CLI exit codes.  0 is success; everything else is deliberately distinct so
# scripts can branch on the failure class.
EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_PARSE = 2
EXIT_PRECONDITION = 3
EXIT_BUDGET = 4
