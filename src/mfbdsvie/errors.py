"""Exception hierarchy for the mfbdsvie package.

Every library-raised error derives from :class:`Error`, so callers can
catch one base class.  Validation-type errors (bad inputs, broken
preconditions) derive from :class:`ValidationError`; every other error
(a fixed point not reached, a monotone chain that rose) is a failed
computation.  The command line front end maps the two kinds to different
exit codes.
"""


class Error(Exception):
    """Base class for all mfbdsvie errors."""


class ValidationError(Error):
    """An input object violates one of its declared invariants."""


class StepCountOutOfRange(ValidationError):
    """Lattice step count outside the supported range 1..14."""


class NonPositiveHorizon(ValidationError):
    """Lattice horizon must be a positive real."""


class LatticeMismatch(ValidationError):
    """Operands built on different lattices were combined."""


class MeasurabilityViolation(ValidationError):
    """A value table depends on increments its sigma-field does not know."""


class IndexOutOfRange(ValidationError):
    """Increment index outside 0..N-1."""


class InvalidIndex(ValidationError):
    """Grid index outside the lattice."""


class AlphaTooLarge(ValidationError):
    """Backward-coefficient Lipschitz constant breaks alpha < 1/(2(T+2))."""


class PartialsUnavailable(ValidationError):
    """The driver family does not expose analytic partial derivatives."""


class FlagMissing(ValidationError):
    """A structural flag required by the requested axiom is not declared."""


class HypothesisViolated(ValidationError):
    """Sampled audit found the comparison hypotheses broken."""


class JointSpaceTooLarge(ValidationError):
    """Particle system joint path space exceeds the enumeration guard."""


class InputError(ValidationError):
    """Malformed scenario file or command line input."""


class NoConvergence(Error):
    """Fixed-point iteration exhausted max_iter."""


class MonotonicityBroken(Error):
    """The monotone auxiliary chain increased beyond rounding slack."""


class IoError(Error):
    """Report emission failed while writing output files."""
