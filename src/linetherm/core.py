"""Units, physical constants, and the shared data model.

Internal convention: strict SI. Rates are 1/s, the resonator linewidth
``kappa`` and the dispersive shift ``chi`` are angular (rad/s), frequencies
``f`` are cyclic (Hz), temperatures are kelvin. Prefixed units (kHz, MHz,
mK) appear only at I/O boundaries, never inside the library.

Quoted decoherence rates ("477 kHz" and the like) are interpreted as
1/s divided by 10^3, not divided by 2*pi; only this pairing with angular
(kappa, chi) reproduces the consistency checks in the shot-noise module.

All types here are immutable values (frozen dataclasses with read-only
arrays) and safe to share between threads.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field
from importlib import resources
from typing import Mapping

import numpy as np

TWO_PI = 2.0 * math.pi

SCHEMA_VERSION = "1.0"

ENV_PARAMS = "LINETHERM_PARAMS"


# ---------------------------------------------------------------------------
# Errors
# ---------------------------------------------------------------------------

class LinethermError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(LinethermError, ValueError):
    """Invalid input data, parameters, or file contents."""


class ComputationError(LinethermError):
    """A fit, inversion, or model evaluation failed."""


class SchemaVersionError(ValidationError):
    """A document declares a schema major version this reader does not know."""


def check_schema_version(doc: Mapping, source: str = "document") -> None:
    """Reject documents whose major schema version differs from ours."""
    version = str(doc.get("schema_version", SCHEMA_VERSION))
    major = version.split(".", 1)[0]
    if major != SCHEMA_VERSION.split(".", 1)[0]:
        raise SchemaVersionError(
            f"{source}: unsupported schema version {version!r} "
            f"(this reader understands major version {SCHEMA_VERSION.split('.', 1)[0]})"
        )


# ---------------------------------------------------------------------------
# Physical constants
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PhysConstants:
    """Planck and Boltzmann constants (J*s, J/K)."""

    h: float = 6.62607015e-34
    k_B: float = 1.380649e-23


#: 2019 SI exact values.
CODATA = PhysConstants()

H = CODATA.h
K_B = CODATA.k_B


# ---------------------------------------------------------------------------
# Unit conversions
# ---------------------------------------------------------------------------

def rate_from_khz(x: float) -> float:
    """Convert a kHz-quoted rate to 1/s (multiply by 1e3, no 2*pi)."""
    if x < 0:
        raise ValidationError(f"rate must be non-negative, got {x}")
    return x * 1e3


def angular_from_cyclic(f: float) -> float:
    """Cyclic frequency (Hz) to angular frequency (rad/s)."""
    if not math.isfinite(f):
        raise ValidationError(f"frequency must be finite, got {f}")
    return TWO_PI * f


def cyclic_from_angular(w: float) -> float:
    """Angular frequency (rad/s) to cyclic frequency (Hz)."""
    if not math.isfinite(w):
        raise ValidationError(f"frequency must be finite, got {w}")
    return w / TWO_PI


def _readonly(x) -> np.ndarray:
    a = np.array(x, dtype=float)
    a.setflags(write=False)
    return a


# ---------------------------------------------------------------------------
# Device parameters
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SystemParams:
    """Readout resonator parameters every photon-number conversion consumes.

    f_r is cyclic (Hz); kappa, chi and the optional state-resolved
    linewidths kappa_g, kappa_e are angular (rad/s). chi is signed and
    negative for the reference device.
    """

    f_r: float
    kappa: float
    chi: float
    kappa_g: float | None = None
    kappa_e: float | None = None

    def __post_init__(self):
        if not (self.f_r > 0):
            raise ValidationError(f"f_r must be positive, got {self.f_r}")
        if not (self.kappa > 0):
            raise ValidationError(f"kappa must be positive, got {self.kappa}")
        if not math.isfinite(self.chi):
            raise ValidationError("chi must be finite")
        has_g, has_e = self.kappa_g is not None, self.kappa_e is not None
        if has_g != has_e:
            raise ValidationError("kappa_g and kappa_e must be given together")
        if has_g:
            if self.kappa_g <= 0 or self.kappa_e <= 0:
                raise ValidationError("state-resolved linewidths must be positive")
            mean = 0.5 * (self.kappa_g + self.kappa_e)
            if not math.isclose(self.kappa, mean, rel_tol=1e-9):
                raise ValidationError(
                    f"kappa={self.kappa} is not the mean of kappa_g and kappa_e ({mean})"
                )


def system_params_from_dict(doc: Mapping, source: str = "params") -> SystemParams:
    """Build SystemParams from the JSON document layout (cyclic Hz fields)."""
    check_schema_version(doc, source)
    try:
        f_r = float(doc["f_r_hz"])
        kappa = angular_from_cyclic(float(doc["kappa_over_2pi_hz"]))
        chi = angular_from_cyclic(float(doc["chi_over_2pi_hz"]))
    except KeyError as exc:
        raise ValidationError(f"{source}: missing field {exc}") from exc
    kappa_g = doc.get("kappa_g_over_2pi_hz")
    kappa_e = doc.get("kappa_e_over_2pi_hz")
    return SystemParams(
        f_r=f_r,
        kappa=kappa,
        chi=chi,
        kappa_g=angular_from_cyclic(float(kappa_g)) if kappa_g is not None else None,
        kappa_e=angular_from_cyclic(float(kappa_e)) if kappa_e is not None else None,
    )


def system_params_to_dict(params: SystemParams) -> dict:
    doc = {
        "schema_version": SCHEMA_VERSION,
        "f_r_hz": params.f_r,
        "kappa_over_2pi_hz": params.kappa / TWO_PI,
        "chi_over_2pi_hz": params.chi / TWO_PI,
    }
    if params.kappa_g is not None:
        doc["kappa_g_over_2pi_hz"] = params.kappa_g / TWO_PI
        doc["kappa_e_over_2pi_hz"] = params.kappa_e / TWO_PI
    return doc


def load_system_params(path: str) -> SystemParams:
    with open(path, "r", encoding="utf8") as fh:
        doc = json.load(fh)
    return system_params_from_dict(doc, source=str(path))


def default_system_params() -> SystemParams:
    """Bundled reference-device parameters; LINETHERM_PARAMS overrides the path."""
    env = os.environ.get(ENV_PARAMS)
    if env:
        return load_system_params(env)
    text = resources.files("linetherm").joinpath("data/default_params.json").read_text("utf8")
    return system_params_from_dict(json.loads(text), source="bundled default")


# ---------------------------------------------------------------------------
# Measurement records
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RateSample:
    """A decoherence rate with optional 1-sigma uncertainty, both in 1/s."""

    value: float
    sigma: float | None = None

    def __post_init__(self):
        if self.value < 0:
            raise ValidationError(f"rate must be non-negative, got {self.value}")
        if self.sigma is not None and self.sigma < 0:
            raise ValidationError(f"sigma must be non-negative, got {self.sigma}")


@dataclass(frozen=True)
class HeatPulseSeries:
    """Ramsey-derived observables versus wait time after one heat pulse.

    t_cool (s) must be strictly increasing; gamma2_star (1/s) and delta_f
    (Hz, signed) are the measured decoherence rate and frequency shift.
    t_heat (s) is metadata describing the pulse that produced the series.
    """

    t_heat: float
    t_cool: np.ndarray
    gamma2_star: np.ndarray
    delta_f: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "t_cool", _readonly(self.t_cool))
        object.__setattr__(self, "gamma2_star", _readonly(self.gamma2_star))
        object.__setattr__(self, "delta_f", _readonly(self.delta_f))
        n = self.t_cool.size
        if self.gamma2_star.size != n or self.delta_f.size != n:
            raise ValidationError("heat-pulse columns must have equal length")
        if n and self.t_cool[0] < 0:
            raise ValidationError("t_cool must be non-negative")
        if n > 1 and not np.all(np.diff(self.t_cool) > 0):
            raise ValidationError("t_cool must be strictly increasing")
        if not self.t_heat >= 0:
            raise ValidationError("t_heat must be non-negative")

    def __len__(self) -> int:
        return self.t_cool.size


@dataclass(frozen=True)
class FinExperiment:
    """Clamp geometry plus steady-state (P_heat, T_h, T_o, T_d) records.

    l_c is the clamp length, d_hc the heater-side thermometer distance,
    w the stripline width (metadata only), all in metres. Set
    allow_noise=True to skip the T_h >= T_o >= T_d ordering check for
    noisy records.
    """

    l_c: float
    d_hc: float
    w: float
    p_heat: np.ndarray
    t_h: np.ndarray
    t_o: np.ndarray
    t_d: np.ndarray
    allow_noise: bool = False

    def __post_init__(self):
        for name in ("p_heat", "t_h", "t_o", "t_d"):
            object.__setattr__(self, name, _readonly(getattr(self, name)))
        if not (self.l_c > 0):
            raise ValidationError("l_c must be positive")
        if not (self.d_hc >= 0 and self.w >= 0):
            raise ValidationError("d_hc and w must be non-negative")
        n = self.p_heat.size
        if any(getattr(self, k).size != n for k in ("t_h", "t_o", "t_d")):
            raise ValidationError("record columns must have equal length")
        if np.any(self.p_heat < 0):
            raise ValidationError("p_heat must be non-negative")
        for name in ("t_h", "t_o", "t_d"):
            if np.any(getattr(self, name) <= 0):
                raise ValidationError(f"{name} must be positive")
        if not self.allow_noise:
            if np.any(self.t_h < self.t_o) or np.any(self.t_o < self.t_d):
                raise ValidationError(
                    "expected T_h >= T_o >= T_d; use allow_noise=True for noisy records"
                )

    def __len__(self) -> int:
        return self.p_heat.size


@dataclass(frozen=True)
class IQCloud:
    """Demodulated (I, Q) readout outcomes, in normalized units."""

    points: np.ndarray
    f_q: float

    def __post_init__(self):
        pts = np.array(self.points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != 2:
            raise ValidationError(f"points must have shape (n, 2), got {pts.shape}")
        if pts.shape[0] < 2:
            raise ValidationError("need at least 2 points")
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)
        if not (self.f_q > 0):
            raise ValidationError("f_q must be positive")

    @property
    def n_points(self) -> int:
        return self.points.shape[0]


# ---------------------------------------------------------------------------
# Fit output
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FitResult:
    """Universal output of every fit in this package.

    params/sigmas may contain derived entries beyond the fitted ones;
    param_names orders the rows of the covariance matrix and only those
    names are guaranteed to satisfy sigma == sqrt(diag(covariance)).
    """

    params: dict
    sigmas: dict
    covariance: np.ndarray
    param_names: tuple
    residual_norm: float
    n_iterations: int
    converged: bool
    diagnostics: dict = field(default_factory=dict)

    def __post_init__(self):
        cov = _readonly(self.covariance)
        object.__setattr__(self, "covariance", cov)
        object.__setattr__(self, "param_names", tuple(self.param_names))
        k = len(self.param_names)
        if cov.shape != (k, k):
            raise ValidationError(f"covariance must be {k}x{k}, got {cov.shape}")

    def __getitem__(self, name: str) -> float:
        return self.params[name]
