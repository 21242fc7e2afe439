"""Exception taxonomy shared by every layer of the package.

Each class name doubles as the machine-readable error code emitted by the
command-line front end.
"""


class MecoupleError(Exception):
    """Base class for all package errors."""

    @property
    def code(self) -> str:
        return type(self).__name__


class ValidationError(MecoupleError):
    """User-facing input problem (CLI exit code 1)."""


class NegativeMass(ValidationError):
    """A probability entry is more negative than the zero tolerance."""


class BadTotal(ValidationError):
    """Total mass deviates from 1 beyond the sum tolerance."""


class Empty(ValidationError):
    """An empty vector was supplied where a distribution is required."""


class ShrinkRequested(ValidationError):
    """pad_to was asked to produce a shorter vector than the input."""


class TooFewMarginals(ValidationError):
    """Multi-marginal coupling needs at least two distributions."""


class AxisOutOfRange(ValidationError):
    """Marginalization axis is outside [0, k)."""


class InstanceTooLarge(ValidationError):
    """A dense form or exhaustive enumeration refused; instance exceeds the cap."""


class LengthMismatch(ValidationError):
    """Vectors that must share a length (after padding) do not."""


class InternalInvariant(MecoupleError):
    """A guaranteed internal identity failed; indicates a bug, not bad input."""
