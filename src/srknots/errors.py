"""Exception taxonomy shared by all modules.

Every failure mode that callers are expected to handle gets its own class;
anything else is a plain bug and surfaces as a standard Python exception.
"""


class SrknotsError(Exception):
    """Base class for all computation failures raised by this package."""


class DegenerateProcess(SrknotsError):
    """The observed process is constant (or nearly so) and has no well-defined maximizer."""


class NotAMaximum(SrknotsError):
    """The Hessian at the claimed maximizer is not negative definite."""


class NonPositiveDenominator(SrknotsError):
    """A survival-ratio denominator is non-positive; the certificate is invalid."""


class OutOfRange(SrknotsError):
    """A statistic left [0, 1] by more than the numerical slack; never clamped."""


class SchemaError(SrknotsError):
    """An input file does not conform to the documented JSON schema."""
