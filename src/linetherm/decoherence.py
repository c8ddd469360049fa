"""Decay-trace fitting: energy relaxation, Ramsey, echo; rate statistics.

Envelopes are single exponentials. In the regime of interest the
resonator linewidth exceeds the decoherence rates by an order of
magnitude, so the photon noise is effectively Markovian and Gaussian
envelope corrections are out of scope.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .core import TWO_PI, ValidationError, FitResult, _readonly
from .fitkit import ParamSpec, ResidualProblem, lm_fit

__all__ = [
    "DecayTrace",
    "RateSummary",
    "relaxation_model",
    "ramsey_model",
    "decay_model",
    "fit_relaxation",
    "fit_ramsey",
    "fit_echo",
    "pure_dephasing",
    "summarize_rates",
    "NegativeDephasing",
    "AliasWarning",
]

#: Each decay kind's rate, by its fit-parameter name.
RATE_NAMES = {
    "relaxation": "gamma1_per_s",
    "ramsey": "gamma2_star_per_s",
    "echo": "gamma2_echo_per_s",
}
KINDS = tuple(RATE_NAMES)


class NegativeDephasing(ValidationError):
    """Gamma_2 < Gamma_1/2: the supplied rates are mutually inconsistent."""


class AliasWarning(UserWarning):
    """Fitted Ramsey detuning exceeds the Nyquist frequency of the grid."""


@dataclass(frozen=True)
class DecayTrace:
    """One measured decay record: strictly increasing times plus signal."""

    kind: str
    times: np.ndarray
    signal: np.ndarray
    sigma: np.ndarray | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValidationError(f"kind must be one of {KINDS}, got {self.kind!r}")
        object.__setattr__(self, "times", _readonly(self.times))
        object.__setattr__(self, "signal", _readonly(self.signal))
        if self.sigma is not None:
            object.__setattr__(self, "sigma", _readonly(self.sigma))
            if self.sigma.size != self.times.size:
                raise ValidationError("sigma length mismatch")
            if np.any(self.sigma <= 0):
                raise ValidationError("sigma must be positive")
        if self.signal.size != self.times.size:
            raise ValidationError("times and signal must have equal length")
        if self.times.size > 1 and not np.all(np.diff(self.times) > 0):
            raise ValidationError("times must be strictly increasing")

    def __len__(self) -> int:
        return self.times.size


@dataclass(frozen=True)
class RateSummary:
    """Gaussian summary of repeated rate measurements (population sigma)."""

    mean: float
    sigma: float
    n_samples: int


# ---------------------------------------------------------------------------
# Models (shared with the synthetic generators)
# ---------------------------------------------------------------------------

def relaxation_model(t, a, gamma1, b):
    return a * np.exp(-gamma1 * np.asarray(t, dtype=float)) + b


def ramsey_model(t, a, gamma2, delta_f, phi, b):
    t = np.asarray(t, dtype=float)
    return a * np.exp(-gamma2 * t) * np.cos(TWO_PI * delta_f * t + phi) + b


def decay_model(kind, t, p):
    """The kind's model at times t from fit-parameter names; phi_rad defaults to 0."""
    if kind not in RATE_NAMES:
        raise ValidationError(f"kind must be one of {KINDS}, got {kind!r}")
    rate = p[RATE_NAMES[kind]]
    if kind == "ramsey":
        return ramsey_model(t, p["A"], rate, p["delta_f_hz"], p.get("phi_rad", 0.0), p["B"])
    return relaxation_model(t, p["A"], rate, p["B"])


def _decay_jacobian(kind, t, p):
    """decay_model's derivatives by the kind's fit parameters, in fit order.

    Columns are (A, rate, B), or (A, rate, delta_f_hz, phi_rad, B) for Ramsey.
    """
    t = np.asarray(t, dtype=float)
    a, e = p["A"], np.exp(-p[RATE_NAMES[kind]] * t)
    if kind != "ramsey":
        return np.column_stack([e, -t * a * e, np.ones_like(t)])
    arg = TWO_PI * p["delta_f_hz"] * t + p.get("phi_rad", 0.0)
    cos, sin = e * np.cos(arg), e * np.sin(arg)
    return np.column_stack([cos, -t * a * cos, -TWO_PI * t * a * sin, -a * sin, np.ones_like(t)])


# ---------------------------------------------------------------------------
# Initial guesses
# ---------------------------------------------------------------------------

def _decay_rate_guess(t, y, a0, b0):
    """Log-slope of the detrended envelope; falls back to 1/span."""
    span = t[-1] - t[0]
    fallback = 1.0 / span if span > 0 else 1.0
    if a0 == 0:
        return fallback
    z = (y - b0) / a0
    keep = z > 0.05
    if keep.sum() < 2:
        return fallback
    slope = np.polyfit(t[keep], np.log(z[keep]), 1)[0]
    return -slope if slope < 0 else fallback


def _ramsey_guesses(t, y):
    b0 = y[-1]
    a0 = y[0] - b0
    if a0 == 0:
        a0 = max(np.ptp(y) / 2.0, 1e-12)
    # Detuning from the strongest non-DC Fourier component.
    detrended = y - y.mean()
    spectrum = np.abs(np.fft.rfft(detrended))
    freqs = np.fft.rfftfreq(t.size, d=(t[-1] - t[0]) / (t.size - 1))
    peak = 1 + int(np.argmax(spectrum[1:]))
    df0 = max(freqs[peak], 0.25 / (t[-1] - t[0]))
    # Envelope rate from local maxima of |y - b0|.
    env = np.abs(y - b0)
    interior = np.flatnonzero((env[1:-1] >= env[:-2]) & (env[1:-1] >= env[2:])) + 1
    good = interior[env[interior] > 0.05 * abs(a0)]
    if good.size >= 2:
        slope = np.polyfit(t[good], np.log(env[good]), 1)[0]
        g0 = -slope if slope < 0 else 1.0 / (t[-1] - t[0])
    else:
        g0 = 1.0 / (t[-1] - t[0])
    # A, phi and B by linear least squares at (g0, df0): c1 = A*cos(phi), c2 = -A*sin(phi).
    e, arg = np.exp(-g0 * t), TWO_PI * df0 * t
    basis = np.column_stack([e * np.cos(arg), e * np.sin(arg), np.ones_like(t)])
    (c1, c2, b), *_ = np.linalg.lstsq(basis, y, rcond=None)
    return math.hypot(c1, c2), g0, df0, math.atan2(-c2, c1), b


# ---------------------------------------------------------------------------
# Fits
# ---------------------------------------------------------------------------

def _weights(trace):
    return None if trace.sigma is None else 1.0 / trace.sigma


def _require(trace, kind, min_points):
    if trace.kind != kind:
        raise ValidationError(f"expected a {kind} trace, got {trace.kind!r}")
    if len(trace) < min_points:
        raise ValidationError(f"{kind} fit needs >= {min_points} points, got {len(trace)}")


def fit_relaxation(trace: DecayTrace) -> FitResult:
    """Fit a * exp(-gamma1 * t) + b; gamma1 kept positive by log transform."""
    _require(trace, "relaxation", 4)
    return _fit_exponential(trace)


def fit_echo(trace: DecayTrace) -> FitResult:
    """Fit a * exp(-gamma2_echo * t) + b."""
    _require(trace, "echo", 4)
    return _fit_exponential(trace)


def _fit_exponential(trace):
    t, y = trace.times, trace.signal
    b0 = y[-1]
    a0 = y[0] - y[-1]
    g0 = _decay_rate_guess(t, y, a0, b0)

    def resid(p):
        return decay_model(trace.kind, t, p) - y

    def jac(p):
        return _decay_jacobian(trace.kind, t, p)

    specs = [
        ParamSpec("A", a0 if a0 != 0 else 1e-12),
        ParamSpec(RATE_NAMES[trace.kind], g0, "positive"),
        ParamSpec("B", b0),
    ]
    return lm_fit(ResidualProblem(resid, _weights(trace), jac), specs)


def fit_ramsey(trace: DecayTrace) -> FitResult:
    """Fit a * exp(-gamma2* t) * cos(2 pi delta_f t + phi) + b.

    delta_f is the detuning from the drive, reported as fitted (sign
    ambiguity is resolved upstream by the drive detuning sign); phi is
    wrapped to (-pi, pi] after the fit.
    """
    _require(trace, "ramsey", 8)
    t, y = trace.times, trace.signal
    a0, g0, df0, phi0, b0 = _ramsey_guesses(t, y)

    def resid(p):
        return decay_model("ramsey", t, p) - y

    def jac(p):
        return _decay_jacobian("ramsey", t, p)

    specs = [
        ParamSpec("A", a0),
        ParamSpec(RATE_NAMES["ramsey"], g0, "positive"),
        ParamSpec("delta_f_hz", df0),
        ParamSpec("phi_rad", phi0),
        ParamSpec("B", b0),
    ]
    result = lm_fit(ResidualProblem(resid, _weights(trace), jac), specs)

    phi = result.params["phi_rad"] % TWO_PI
    if phi > math.pi:
        phi -= TWO_PI
    result.params["phi_rad"] = phi

    warn_if_aliased(result.params["delta_f_hz"], t)
    return result


def nyquist_frequency(times) -> float:
    """Highest representable detuning for the given sampling grid (Hz)."""
    return 0.5 / float(np.min(np.diff(np.asarray(times, dtype=float))))


def warn_if_aliased(delta_f: float, times) -> bool:
    """Emit AliasWarning when a detuning exceeds the grid's Nyquist frequency."""
    limit = nyquist_frequency(times)
    if abs(delta_f) > limit:
        warnings.warn(
            f"detuning {delta_f:.3g} Hz exceeds the Nyquist frequency "
            f"{limit:.3g} Hz of the sampling grid",
            AliasWarning,
            stacklevel=2,
        )
        return True
    return False


def pure_dephasing(gamma2: float, gamma1: float) -> float:
    """Pure dephasing Gamma_phi = Gamma_2 - Gamma_1 / 2."""
    if gamma2 < 0 or gamma1 < 0:
        raise ValidationError("rates must be non-negative")
    if gamma2 < gamma1 / 2.0:
        raise NegativeDephasing(
            f"Gamma_2={gamma2:.6g} /s is below Gamma_1/2={gamma1 / 2.0:.6g} /s"
        )
    return gamma2 - gamma1 / 2.0


def summarize_rates(samples) -> RateSummary:
    """Mean and population standard deviation, the ML Gaussian parameters."""
    arr = np.asarray(samples, dtype=float)
    if arr.size < 2:
        raise ValidationError(f"need at least 2 samples, got {arr.size}")
    return RateSummary(mean=float(arr.mean()), sigma=float(arr.std()), n_samples=int(arr.size))
