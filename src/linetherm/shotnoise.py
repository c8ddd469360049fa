"""Photon shot-noise model: photon number <-> dephasing, Stark shift, temperature.

The central relation evaluated here is

    Gamma_n + 2*pi*i*Delta_f_q = (kappa/2) * (sqrt((1 + i*chi/kappa)^2
                                  + 4*i*chi*nbar/kappa) - 1),

with the square-root branch of non-negative real part, which is the
physical one (dephasing rates cannot be negative). The frequency shift
splits into a photon-number part and the constant Lamb shift
(chi/2pi)/2. In the small-photon-number limit this linearizes to

    Gamma_n + 2*pi*i*Delta_f_{q,nbar} = kappa*chi*(chi + i*kappa)*nbar
                                        / (kappa^2 + chi^2),

valid for |chi| <~ kappa; a DispersiveRegimeWarning is emitted outside
that regime. The black-body side is the Bose-Einstein occupation
nbar(T) = 1/(exp(h f / k_B T) - 1) and its inverse.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .core import H, K_B, TWO_PI, ComputationError, SystemParams, ValidationError

__all__ = [
    "ShotNoisePoint",
    "dephasing_full",
    "dephasing_linear",
    "photons_from_dephasing",
    "bose_einstein",
    "temperature_from_photons",
    "OutOfRange",
    "DispersiveRegimeWarning",
]


N_MAX = 10.0  # photons_from_dephasing raises OutOfRange above the rate at this n_bar


class OutOfRange(ComputationError):
    """Requested inversion target lies outside the modeled range."""


class DispersiveRegimeWarning(UserWarning):
    """The linearized model is used outside its |chi| <= kappa regime."""


@dataclass(frozen=True)
class ShotNoisePoint:
    """Shot-noise observables at one photon number (fields may be arrays).

    gamma_n is the induced dephasing rate (1/s), delta_f_stark the
    photon-number-dependent qubit shift Delta_f_{q,nbar} (Hz, signed),
    lamb_shift the constant offset (chi/2pi)/2 (Hz).
    """

    n_bar: np.ndarray | float
    gamma_n: np.ndarray | float
    delta_f_stark: np.ndarray | float
    lamb_shift: float

    @property
    def delta_f_total(self):
        """Full qubit shift Delta_f_q = Delta_f_{q,nbar} + Lamb shift (Hz)."""
        return self.delta_f_stark + self.lamb_shift


def _check_nbar(n_bar):
    n = np.asarray(n_bar, dtype=float)
    if not np.all((n >= 0) & (n < np.inf)):
        raise ValidationError("photon number must be finite and non-negative")
    return n


def _lamb_shift(sys: SystemParams) -> float:
    return (sys.chi / TWO_PI) / 2.0


def _sqrt_radicand(n, sys: SystemParams):
    """sqrt(z) of the shot-noise radicand z = (1 + i*chi/kappa)^2 + 4i*chi*n/kappa."""
    kappa, chi = sys.kappa, sys.chi
    return np.sqrt((1.0 + 1j * chi / kappa) ** 2 + 4j * chi * n / kappa)


def _dephasing_full(n, sys: SystemParams):
    """(gamma_n, delta_f_stark) of the exact model; n is not checked.

    (kappa/2)(sqrt(z) - 1 - i*c), c = chi/kappa, the part beyond the Lamb
    shift, is taken as 2i*chi*n/(sqrt(z) + 1 + i*c): the difference form
    cancels for small n (relative error 2e-4 in gamma_n at n = 1e-12).
    """
    val = 2j * sys.chi * n / (_sqrt_radicand(n, sys) + 1.0 + 1j * sys.chi / sys.kappa)
    return val.real, val.imag / TWO_PI


def _point(n_bar, gamma, delta_f, sys: SystemParams) -> ShotNoisePoint:
    """ShotNoisePoint at n_bar; a scalar n_bar gives float fields."""
    if np.isscalar(n_bar):
        gamma, delta_f = float(gamma), float(delta_f)
    return ShotNoisePoint(n_bar, gamma, delta_f, _lamb_shift(sys))


def dephasing_full(n_bar, sys: SystemParams) -> ShotNoisePoint:
    """Exact dephasing rate and qubit shift at mean photon number n_bar.

    Scalar or array n_bar. The real part of the complex square root is
    non-negative by the principal-branch choice, hence gamma_n >= 0.
    """
    return _point(n_bar, *_dephasing_full(_check_nbar(n_bar), sys), sys)


def dephasing_linear(n_bar, sys: SystemParams) -> ShotNoisePoint:
    """Small-photon-number linearization of dephasing_full."""
    n = _check_nbar(n_bar)
    kappa, chi = sys.kappa, sys.chi
    if abs(chi) > kappa:
        warnings.warn(
            f"|chi|={abs(chi):.3g} rad/s exceeds kappa={kappa:.3g} rad/s; "
            "the linearized model is outside its validity regime",
            DispersiveRegimeWarning,
            stacklevel=2,
        )
    denom = kappa**2 + chi**2
    return _point(n_bar, kappa * chi**2 / denom * n, kappa**2 * chi / denom / TWO_PI * n, sys)


def photons_from_dephasing(gamma_n, sys: SystemParams):
    """Photon numbers whose exact model dephasing rates equal gamma_n, in closed form.

    Scalar (float out) or array gamma_n. With r = 2*gamma_n/kappa and c = chi/kappa,
    Re sqrt(z) = a = 1 + r and Re z = 1 - c^2 fix Im sqrt(z) = y = sign(c)*sqrt(a^2 - 1 + c^2);
    Im z = 2*a*y then gives n_bar = (a^2 - 1)(a^2 + c^2) / (2c(a*y + c)), with
    a^2 - 1 = r(2 + r) free of cancellation. All rates are validated before any is
    range-checked: a negative or NaN rate raises ValidationError, then a rate above
    the value at N_MAX (every positive rate when chi = 0) raises OutOfRange; each
    message names the first offending rate.
    """
    g = np.asarray(gamma_n, dtype=float)
    bad = ~(g >= 0)
    if bad.any():
        raise ValidationError(f"dephasing rate must be non-negative, got {float(g[bad][0])}")
    top = dephasing_full(N_MAX, sys).gamma_n
    over = g > top
    if over.any():
        raise OutOfRange(
            f"gamma_n={g[over][0]:.6g} /s exceeds the model value {top:.6g} /s at n_bar={N_MAX}"
        )
    n = np.zeros_like(g)
    pos = g > 0
    r = 2.0 * g[pos] / sys.kappa
    c = sys.chi / sys.kappa
    a = 1.0 + r
    a2m1 = r * (2.0 + r)
    y = np.copysign(np.sqrt(a2m1 + c * c), c)
    n[pos] = a2m1 * (a * a + c * c) / (2.0 * c * (a * y + c))
    return float(n) if n.ndim == 0 else n


def _bose_einstein(t, f: float):
    """Bose-Einstein occupation; t > 0 and f > 0 are not checked."""
    x = H * f / (K_B * t)
    # exp(-x)/(1 - exp(-x)): accurate for small x, silently underflows to 0
    # for large x instead of overflowing.
    return np.exp(-x) / (-np.expm1(-x))


def bose_einstein(temperature, f: float):
    """Mean thermal occupation of a mode at cyclic frequency f (Hz)."""
    t = np.asarray(temperature, dtype=float)
    if not np.all(t > 0):
        raise ValidationError("temperature must be positive")
    if not f > 0:
        raise ValidationError("frequency must be positive")
    n = _bose_einstein(t, f)
    return float(n) if np.isscalar(temperature) else n


def temperature_from_photons(n_bar, f: float):
    """Black-body temperature whose Bose-Einstein occupation at f is n_bar."""
    n = np.asarray(n_bar, dtype=float)
    if not np.all(n > 0):
        raise ValidationError("photon number must be positive")
    if not f > 0:
        raise ValidationError("frequency must be positive")
    t = (H * f / K_B) / np.log1p(1.0 / n)
    return float(t) if np.isscalar(n_bar) else t
