"""Exception taxonomy shared across the toolkit."""


class LoopBraidError(Exception):
    """Base class for all toolkit errors."""


# -- input files -------------------------------------------------------------

class MalformedInput(LoopBraidError, ValueError):
    """A JSON object does not follow the wire format."""


# -- cyclotomic arithmetic ---------------------------------------------------

class ConductorMismatch(LoopBraidError):
    """Operands live in different cyclotomic fields; promote explicitly."""


class NotASubfield(LoopBraidError):
    """Requested promotion target is not a multiple of the conductor."""


class DivisionByZero(LoopBraidError, ZeroDivisionError):
    """Field division by the zero element."""


class FieldTooLarge(LoopBraidError):
    """A conductor's reduction tables would be too large to build."""


# -- linear algebra ----------------------------------------------------------

class DimMismatch(LoopBraidError):
    """Matrix/vector shapes are incompatible."""


class SingularMatrix(LoopBraidError):
    """Inverse (or negative power) of a singular matrix."""


class NotOrderThree(LoopBraidError):
    """Operator expected to satisfy S^3 = I does not."""


# -- representations ---------------------------------------------------------

class MissingGenerator(LoopBraidError):
    """A generator image required by the target group is absent."""


class NotAWeakening(LoopBraidError):
    """Restriction target is not weaker than the representation's group."""


# -- catalog constructors ----------------------------------------------------

class ConstraintViolated(LoopBraidError):
    """A stated parameter constraint of the family fails."""


class ZeroEigenvalue(LoopBraidError):
    """Eigenvalue parameters must be nonzero."""


class ZeroParameter(LoopBraidError):
    """A parameter that must be nonzero is zero."""


class InvalidBlockCombination(LoopBraidError):
    """Block parameters (size, sign) do not give a valid block matrix."""


class NotASquareRoot(LoopBraidError):
    """Supplied square root does not square to the target value."""


# -- extension machinery -----------------------------------------------------

class EigenlineChosen(LoopBraidError):
    """The chosen line is an omega/omega^2 eigenline and must be avoided."""


class TraceZero(LoopBraidError):
    """Tr(AB) = 0 where a nonzero trace is required."""


class MinPolyMismatch(LoopBraidError):
    """Minimal polynomial does not equal the characteristic polynomial."""


class NoSolution(LoopBraidError):
    """An exact linear solve has no solution."""


class WrongForm(LoopBraidError):
    """Input matrices are not in the expected triangular normal form."""


class HypothesisUnmet(LoopBraidError):
    """The chosen test route's hypotheses fail for the given input."""


class BadBasisChange(LoopBraidError):
    """M does not diagonalize S to diag(I_l, w I_t, w^2 I_t)."""


class BadCandidate(LoopBraidError):
    """k is not a valid standard-extension candidate for (A, B)."""


class InvalidOption(LoopBraidError, ValueError):
    """A numeric option lies outside the range it is defined on."""
