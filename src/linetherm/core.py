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

import functools
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
    """Reject a document that is not a JSON object or has another schema major version."""
    if not isinstance(doc, Mapping):
        raise ValidationError(f"{source}: expected a JSON object, got {type(doc).__name__}")
    version = str(doc.get("schema_version", SCHEMA_VERSION))
    major = version.split(".", 1)[0]
    if major != SCHEMA_VERSION.split(".", 1)[0]:
        raise SchemaVersionError(
            f"{source}: unsupported schema version {version!r} "
            f"(this reader understands major version {SCHEMA_VERSION.split('.', 1)[0]})"
        )


def read_text(path) -> str:
    """The whole file as UTF-8 text; a byte that is not UTF-8 is a ValidationError naming it."""
    try:
        with open(path, "r", encoding="utf8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{path}: not UTF-8 text ({exc.reason})") from None


def number_field(doc: Mapping, name: str, source: str, default: float | None = None) -> float:
    """doc[name] as a finite float, or default when the field is absent and a default is given.

    JSON reads a literal too large for a float, such as 1e999, as infinity.
    """
    if name not in doc:
        if default is None:
            raise ValidationError(f"{source}: missing field {name!r}")
        return default
    try:
        value = float(doc[name])
    except (TypeError, ValueError):
        value = math.nan
    if not math.isfinite(value):
        raise ValidationError(f"{source}: field {name!r} is not a finite number: {doc[name]!r}")
    return value


# ---------------------------------------------------------------------------
# Physical constants
# ---------------------------------------------------------------------------

#: Planck (J*s) and Boltzmann (J/K) constants, 2019 SI exact values.
H = 6.62607015e-34
K_B = 1.380649e-23


# ---------------------------------------------------------------------------
# Unit conversions
# ---------------------------------------------------------------------------

def angular_from_cyclic(f: float) -> float:
    """Cyclic frequency (Hz) to angular frequency (rad/s)."""
    if not math.isfinite(f):
        raise ValidationError(f"frequency must be finite, got {f}")
    return TWO_PI * f


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

    f_r is cyclic (Hz); kappa and chi are angular (rad/s). chi is signed
    and negative for the reference device.
    """

    f_r: float
    kappa: float
    chi: float

    def __post_init__(self):
        if not 0 < self.f_r < math.inf:
            raise ValidationError(f"f_r must be finite and positive, got {self.f_r}")
        if not 0 < self.kappa < math.inf:
            raise ValidationError(f"kappa must be finite and positive, got {self.kappa}")
        if not math.isfinite(self.chi):
            raise ValidationError("chi must be finite")


def system_params_from_dict(doc: Mapping, source: str = "params") -> SystemParams:
    """Build SystemParams from the JSON document layout (cyclic Hz fields)."""
    check_schema_version(doc, source)
    return SystemParams(
        f_r=number_field(doc, "f_r_hz", source),
        kappa=angular_from_cyclic(number_field(doc, "kappa_over_2pi_hz", source)),
        chi=angular_from_cyclic(number_field(doc, "chi_over_2pi_hz", source)),
    )


def load_system_params(path: str) -> SystemParams:
    doc = json.loads(read_text(path))
    return system_params_from_dict(doc, source=str(path))


def default_system_params() -> SystemParams:
    """Bundled reference-device parameters; LINETHERM_PARAMS overrides the path.

    A path in LINETHERM_PARAMS is read on every call. The bundled file is
    parsed once per process and the same frozen SystemParams returned after.
    """
    env = os.environ.get(ENV_PARAMS)
    if env:
        return load_system_params(env)
    return _bundled_system_params()


@functools.lru_cache(maxsize=None)
def _bundled_system_params() -> SystemParams:
    text = resources.files("linetherm").joinpath("data/default_params.json").read_text("utf8")
    return system_params_from_dict(json.loads(text), source="bundled default")


# ---------------------------------------------------------------------------
# Measurement records
# ---------------------------------------------------------------------------

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
        if not 0 <= self.t_heat < math.inf:
            raise ValidationError(f"t_heat must be finite and non-negative, got {self.t_heat}")

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
        if not 0 < self.l_c < math.inf:
            raise ValidationError(f"l_c must be finite and positive, got {self.l_c}")
        if not (0 <= self.d_hc < math.inf and 0 <= self.w < math.inf):
            raise ValidationError("d_hc and w must be finite and non-negative")
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
    """Demodulated (I, Q) readout outcomes, in normalized units.

    points, shape (n, 2), is stored column-major (Fortran order) whatever
    the caller's layout, so the I and the Q column are each contiguous.
    """

    points: np.ndarray
    f_q: float

    def __post_init__(self):
        pts = np.array(self.points, dtype=float, order="F")
        if pts.ndim != 2 or pts.shape[1] != 2:
            raise ValidationError(f"points must have shape (n, 2), got {pts.shape}")
        if pts.shape[0] < 2:
            raise ValidationError("need at least 2 points")
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)
        if not 0 < self.f_q < math.inf:
            raise ValidationError(f"f_q must be finite and positive, got {self.f_q}")


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
