"""The super-resolution observation model.

An atomic measure nu0 on the torus [0, 2*pi) is observed through its first
f_c Fourier coefficients, corrupted by complex white noise:

    y_k = (1/sqrt(N)) sum_j a_j exp(-i k x_j) + sigma (zeta_1k + i zeta_2k),
    k = -f_c..f_c,  N = 2 f_c + 1.

From y we form the correlation process Z(t) = (1/sqrt(N)) sum_k y_k e^{ikt}
and the real field X(t, theta) = Re(e^{-i theta} Z(t)) on the 2-torus, whose
correlation under the null is rho((dt, dtheta)) = Gamma(dt) cos(dtheta) with
Gamma = D_N / N the normalized Dirichlet kernel.
"""

import json
import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .errors import SchemaError
from .numerics import RngStream

TWO_PI = 2.0 * math.pi


def wrap_angle(x):
    """Reduce an angle (or array of angles) to [0, 2*pi)."""
    return np.mod(x, TWO_PI)


def wrap_delta(x):
    """Reduce a displacement to the shortest representative in [-pi, pi)."""
    return np.mod(np.asarray(x, dtype=float) + math.pi, TWO_PI) - math.pi


def circular_distance(a, b):
    """Shortest distance between two angles on the circle."""
    return np.abs(wrap_delta(np.asarray(a, dtype=float) - b))


class TorusPoint(NamedTuple):
    """A point z = (t, theta) of the 2-torus, coordinates in [0, 2*pi)."""

    t: float
    theta: float

    @classmethod
    def make(cls, t, theta):
        return cls(float(wrap_angle(t)), float(wrap_angle(theta)))


@dataclass(frozen=True)
class ModelContext:
    """Derived constants for a cutoff frequency f_c.

    alpha1 = f_c(f_c+1)/3 = (1/N) sum k^2 is the t-curvature of the
    correlation at zero; Lambda-tilde = -rho''(0) = diag(alpha1, 1); m = 2N is
    the Gaussian dimension of the model.
    """

    f_c: int

    def __post_init__(self):
        if self.f_c < 1:
            raise ValueError("f_c must be >= 1, got %r" % (self.f_c,))

    @property
    def n_freq(self):
        return 2 * self.f_c + 1

    @property
    def alpha1(self):
        return self.f_c * (self.f_c + 1) / 3.0

    @property
    def m(self):
        return 2 * self.n_freq

    def lambda_tilde(self):
        return np.diag([self.alpha1, 1.0])


@dataclass(frozen=True)
class AtomicMeasure:
    """A discrete complex measure sum_j a_j delta_{x_j} on the circle.

    The empty measure encodes the null hypothesis.
    """

    locations: np.ndarray
    weights: np.ndarray

    @classmethod
    def from_atoms(cls, atoms):
        """Build from a list of (location, weight) pairs."""
        if atoms:
            locs = wrap_angle(np.asarray([a[0] for a in atoms], dtype=float))
            wts = np.asarray([a[1] for a in atoms], dtype=complex)
        else:
            locs = np.empty(0)
            wts = np.empty(0, dtype=complex)
        return cls(locs, wts)

    @classmethod
    def empty(cls):
        return cls.from_atoms([])

    def __post_init__(self):
        locs = wrap_angle(np.asarray(self.locations, dtype=float))
        wts = np.asarray(self.weights, dtype=complex)
        if locs.shape != wts.shape or locs.ndim != 1:
            raise ValueError("locations and weights must be 1-d arrays of equal length")
        n = locs.size
        for i in range(n):
            for j in range(i + 1, n):
                if circular_distance(locs[i], locs[j]) < 1e-12:
                    raise ValueError("atom locations must be pairwise distinct modulo 2*pi")
        object.__setattr__(self, "locations", locs)
        object.__setattr__(self, "weights", wts)

    @property
    def n_atoms(self):
        return self.locations.size


@dataclass(frozen=True)
class Observation:
    """Noisy Fourier data y in C^N with cutoff f_c; sigma is None when the noise level is unknown.

    y may also be an (R, N) stack of R observations at one cutoff and noise
    level: the Monte-Carlo harness evaluates a block of replications as one
    stack, and the layers that take a stack return one value per row.
    """

    f_c: int
    y: np.ndarray
    sigma: Optional[float] = None

    def __post_init__(self):
        if self.f_c < 1:
            raise ValueError("f_c must be >= 1, got %r" % (self.f_c,))
        y = np.asarray(self.y, dtype=complex)
        if y.ndim not in (1, 2) or y.shape[-1] != 2 * self.f_c + 1:
            raise ValueError(
                "y must have length 2*f_c+1 = %d, got %r" % (2 * self.f_c + 1, y.shape)
            )
        if not np.isfinite(y).all():
            raise ValueError("y must be finite")
        if self.sigma is not None and not (self.sigma > 0 and math.isfinite(self.sigma)):
            raise ValueError("sigma must be positive and finite when given")
        object.__setattr__(self, "y", y)

    @property
    def n_freq(self):
        return 2 * self.f_c + 1

    def context(self):
        return ModelContext(self.f_c)

    def rows(self, index):
        """The stack of the rows `index` of this observation's stack."""
        return Observation(self.f_c, np.atleast_2d(self.y)[index], self.sigma)


def kernel_gamma(f_c, t):
    """Gamma(t) = D_N(t)/N = (1/N)(1 + 2 sum_{k=1}^{f_c} cos(kt))."""
    n = 2 * f_c + 1
    t = np.asarray(t, dtype=float)
    scalar = t.ndim == 0
    t = np.atleast_1d(t)
    k = np.arange(1, f_c + 1, dtype=float)
    out = (1.0 + 2.0 * np.cos(np.multiply.outer(t, k)).sum(axis=-1)) / n
    return float(out[0]) if scalar else out


def synthesize(measure, f_c, sigma, stream):
    """Draw an observation of `measure` at noise level sigma.

    The real and imaginary noise parts are i.i.d. standard normal scaled by
    sigma, drawn in the fixed order (all real parts, then all imaginary
    parts), so the result is fully determined by the stream.
    """
    if isinstance(stream, RngStream):
        rng = stream.generator()
    else:
        rng = stream
    n = 2 * f_c + 1
    k = np.arange(-f_c, f_c + 1)
    y = np.zeros(n, dtype=complex)
    if measure.n_atoms:
        phases = np.exp(-1j * np.outer(k, measure.locations))
        y = phases @ measure.weights / math.sqrt(n)
    if sigma is not None and sigma > 0:
        zeta = rng.standard_normal((2, n))
        y = y + sigma * (zeta[0] + 1j * zeta[1])
        return Observation(f_c=f_c, y=y, sigma=float(sigma))
    return Observation(f_c=f_c, y=y, sigma=None)


def z_eval(obs, t):
    """Z(t) = (1/sqrt(N)) sum_k y_k e^{ikt}, at every t; for a stack, t
    broadcasts against its rows (t of shape (R,) takes one point per row).

    Each value is the sum along the last axis of its own row of products,
    so it does not depend on how many points or rows are evaluated with it."""
    t = np.asarray(t, dtype=float)
    k = np.arange(-obs.f_c, obs.f_c + 1)
    vals = (np.exp(1j * t[..., None] * k) * obs.y).sum(axis=-1) / math.sqrt(obs.n_freq)
    return complex(vals) if vals.ndim == 0 else vals


def _aligned_coeffs(obs, z):
    """w_k = y_k exp(i(k t - theta)) at z = (t, theta): the Fourier data rotated
    so that X(z + (dt, dtheta)) = Re(e^{-i dtheta} sum_k w_k e^{ik dt}) / sqrt N.
    For a stack, t and theta are arrays with one point per row."""
    k = np.arange(-obs.f_c, obs.f_c + 1)
    t, theta = (np.asarray(c, dtype=float)[..., None] for c in z)
    return obs.y * np.exp(1j * (k * t - theta))


def _fmt17(x):
    """Format a float with 17 significant digits (lossless for binary64)."""
    return format(float(x), ".17g")


def save_observation(obs, path):
    """Write the observation as JSON: {"fc": int, "sigma": number|null, "y": [[re, im], ...]}.

    y is ordered k = -f_c..f_c; numbers carry 17 significant digits so the
    round trip is bit-faithful.
    """
    rows = ",\n    ".join(
        "[%s, %s]" % (_fmt17(c.real), _fmt17(c.imag)) for c in obs.y
    )
    sigma = "null" if obs.sigma is None else _fmt17(obs.sigma)
    text = '{\n  "fc": %d,\n  "sigma": %s,\n  "y": [\n    %s\n  ]\n}\n' % (
        obs.f_c, sigma, rows,
    )
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def load_observation(path):
    """Parse an observation file; raises SchemaError on any malformation."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise SchemaError("cannot parse observation file %s: %s" % (path, exc))
    if not isinstance(doc, dict):
        raise SchemaError("observation file must hold a JSON object")
    missing = {"fc", "y"} - set(doc)
    if missing:
        raise SchemaError("observation file missing keys: %s" % sorted(missing))
    fc = doc["fc"]
    if type(fc) is not int or fc < 1:  # JSON true is a bool, an int subclass
        raise SchemaError("fc must be an integer >= 1, got %r" % (fc,))
    sigma = doc.get("sigma", None)
    if sigma is not None:
        if type(sigma) not in (int, float) or not (sigma > 0 and math.isfinite(sigma)):
            raise SchemaError("sigma must be a positive finite number or null, got %r" % (sigma,))
        sigma = float(sigma)
    rows = doc["y"]
    if not isinstance(rows, list) or len(rows) != 2 * fc + 1:
        raise SchemaError(
            "y must list exactly 2*fc+1 = %d coefficients" % (2 * fc + 1,)
        )
    y = np.empty(len(rows), dtype=complex)
    for i, row in enumerate(rows):
        if (
            not isinstance(row, list)
            or len(row) != 2
            or not all(type(v) in (int, float) for v in row)
            or not all(math.isfinite(v) for v in row)
        ):
            raise SchemaError("y[%d] must be a [re, im] pair of finite numbers" % i)
        y[i] = complex(row[0], row[1])
    return Observation(f_c=fc, y=y, sigma=sigma)
