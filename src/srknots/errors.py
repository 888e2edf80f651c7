"""Exception taxonomy shared by all modules.

Every failure mode that callers are expected to handle gets its own class;
anything else is a plain bug and surfaces as a standard Python exception.
"""

import numpy as np


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


def row_errors(fails, make, errors=None):
    """The per-row errors of a stack: errors (a list of None when not given)
    with make(i) at each row i where fails holds and no error stands yet,
    so only the rows that fail build one."""
    errors = [None] * len(fails) if errors is None else errors
    for i in np.flatnonzero(fails):
        if errors[i] is None:
            errors[i] = make(i)
    return errors
