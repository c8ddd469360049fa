"""1D thermal-fin model of a clamped stripline and resistance extraction.

A clamped section of length L_c conducts along the strip (total thermal
resistance R_s) and leaks into the isothermal clamp at T_d through the
contact layer (total resistance R_t). In steady state the temperature
rise theta = T - T_d obeys

    theta''(x) = theta(x) * R_s / (R_t * L_c^2),

with heater-side flux theta'(0) = -R_s P / L_c and an insulated far end
theta'(L_c) = 0. Everything is parameterized by the shape factor
u = sqrt(R_s/R_t) and the magnitude g = sqrt(R_s*R_t):

    theta(x)/P  = g * cosh(u (1 - x/L_c)) / sinh(u)
    (T_o - T_d)/P = g / sinh(u)
    (T_h - T_d)/P = g / tanh(u) + (d_hc/L_c) R_s
    ratio f(u)  = cosh(u) + (d_hc/L_c) u sinh(u)     (monotone in u)

The heater-side thermometer sits a distance d_hc outside the clamp, so
T_h includes the unclamped-segment drop (d_hc/L_c) R_s P.

R_s and R_t are treated as temperature independent within one extraction;
their temperature dependence is resolved by repeating the extraction at
several dilution-stage temperatures and fitting g against 1/T_d.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import ComputationError, FinExperiment, ValidationError

__all__ = [
    "FinParams",
    "FinExtraction",
    "DiscreteSolution",
    "solve_discrete",
    "analytic_profile",
    "predicted_diffs",
    "slopes_from_shape",
    "ratio_function",
    "invert_ratio",
    "fit_origin_slope",
    "extract_resistances",
    "fit_inverse_T",
    "RatioBelowOne",
    "UnphysicalRatio",
    "NoPointsBelowThreshold",
]

_MAX_U = 512.0  # invert_ratio rejects a ratio above ratio_function(_MAX_U, d_over_l)

# Below this u the hyperbolic ratios are evaluated by series expansion;
# the 1/u divergences of g/sinh(u) and g/tanh(u) cancel into R_t.
_SERIES_U = 1e-4


class RatioBelowOne(ComputationError):
    """Temperature-rise ratio below one: heater side colder than far side."""


class UnphysicalRatio(ComputationError):
    """Fitted slopes produce a ratio the fin model cannot represent."""


class NoPointsBelowThreshold(ValidationError):
    """The power threshold excludes every record."""


@dataclass(frozen=True)
class FinParams:
    """Fin model inputs: resistances (K/W), geometry (m), bath and power."""

    r_s: float
    r_t: float
    l_c: float
    d_hc: float = 0.0
    t_d: float = 0.0
    p_heat: float = 0.0

    def __post_init__(self):
        if self.r_s < 0 or self.p_heat < 0:
            raise ValidationError("r_s and p_heat must be non-negative")
        if not self.r_t > 0:
            raise ValidationError("r_t must be positive")
        if not self.l_c > 0:
            raise ValidationError("l_c must be positive")
        if self.d_hc < 0:
            raise ValidationError("d_hc must be non-negative")

    @property
    def u(self) -> float:
        return math.sqrt(self.r_s / self.r_t)

    @property
    def g(self) -> float:
        return math.sqrt(self.r_s * self.r_t)


@dataclass(frozen=True)
class FinExtraction:
    """Result of one resistance extraction."""

    u: float
    g: float
    slope_h: float
    slope_o: float
    threshold: float

    def __post_init__(self):
        if self.u < 0 or self.g < 0:
            raise ValidationError("u and g must be non-negative")


@dataclass(frozen=True)
class DiscreteSolution:
    """Discrete steady state: site positions, temperatures, end-point values."""

    x: np.ndarray
    temps: np.ndarray
    t_h: float
    t_o: float


def solve_discrete(p: FinParams, n: int) -> DiscreteSolution:
    """Steady state of the n-site heat balance.

    Sites are cell centers x_i = (i + 1/2) L_c / n; neighboring sites are
    linked by resistance R_s/n and every site leaks to the clamp through
    R_t*n, with P_heat injected at site 0 and an insulated far end. T_h
    adds the unclamped-segment drop (d_hc/L_c) R_s P to the first site.
    """
    if n < 2:
        raise ValidationError(f"need at least 2 sites, got {n}")
    x = (np.arange(n) + 0.5) * (p.l_c / n)
    extra = (p.d_hc / p.l_c) * p.r_s * p.p_heat

    if p.p_heat == 0.0:
        temps = np.full(n, p.t_d)
        return DiscreteSolution(x=x, temps=temps, t_h=p.t_d, t_o=p.t_d)
    if not math.isfinite(p.r_t):
        raise ComputationError("no thermal contact (r_t = inf): heat balance is singular")
    if p.r_s == 0.0:
        theta = p.p_heat * p.r_t
        temps = np.full(n, p.t_d + theta)
        return DiscreteSolution(x=x, temps=temps, t_h=temps[0] + extra, t_o=temps[-1])

    a = n / p.r_s            # neighbor conductance (W/K)
    beta = p.r_s / (p.r_t * n * n)   # leak/neighbor conductance ratio = (u/n)^2
    theta = _solve_fin_tridiag(n, a, beta, p.p_heat)
    temps = p.t_d + theta
    return DiscreteSolution(x=x, temps=temps, t_h=temps[0] + extra, t_o=temps[-1])


def _solve_fin_tridiag(n: int, a: float, beta: float, power: float) -> np.ndarray:
    """Thomas solve of the fin balance with pivot-deviation tracking.

    The matrix has diagonal a*(2 + beta) (a + a*beta at both ends) and
    off-diagonals -a. A textbook factorization computes pivots as
    (2+beta)*a - a^2/p, cancelling catastrophically once beta < eps, so the
    leak term vanishes and the system looks singular. Tracking the pivot
    deviation eps_i = p_i/a - 1 through

        eps_0 = beta,  eps_i = beta + eps_{i-1} / (1 + eps_{i-1})

    involves only positive terms and stays accurate for any beta, down to
    the perfect-conduction limit where the end pivot a*eps equals the total
    leak conductance exactly.
    """
    eps = np.empty(n)
    eps[0] = beta
    for i in range(1, n):
        eps[i] = beta + eps[i - 1] / (1.0 + eps[i - 1])
    # pivots: p_i = a*(1+eps_i) for i < n-1, p_{n-1} = a*eps_{n-1}
    y = np.empty(n)
    y[0] = power
    for i in range(1, n):
        y[i] = y[i - 1] / (1.0 + eps[i - 1])
    theta = np.empty(n)
    theta[-1] = y[-1] / (a * eps[-1])
    for i in range(n - 2, -1, -1):
        theta[i] = (y[i] / a + theta[i + 1]) / (1.0 + eps[i])
    return theta


def analytic_profile(p: FinParams, x) -> np.ndarray | float:
    """Continuum temperature T(x) on 0 <= x <= L_c."""
    xs = np.asarray(x, dtype=float)
    if np.any(xs < 0) or np.any(xs > p.l_c):
        raise ValidationError("x must lie within [0, l_c]")
    u = p.u
    s = xs / p.l_c
    if u < _SERIES_U:
        # cosh(u(1-s))/sinh(u) -> (1/u) (1 + u^2 ((1-s)^2/2 - 1/6)); the
        # 1/u pole cancels against g = u * r_t.
        theta = p.p_heat * p.r_t * (1.0 + u * u * ((1.0 - s) ** 2 / 2.0 - 1.0 / 6.0))
    else:
        theta = p.p_heat * p.g * np.cosh(u * (1.0 - s)) / np.sinh(u)
    out = p.t_d + theta
    return float(out) if np.isscalar(x) else out


def slopes_from_shape(u: float, g: float, d_over_l: float) -> tuple[float, float]:
    """(slope_h, slope_o) in K/W from the shape factor u and magnitude g."""
    if not (0 <= u < math.inf and 0 <= g < math.inf and 0 <= d_over_l < math.inf):
        raise ValidationError("u, g and d_over_l must be finite and non-negative")
    if u == 0.0:
        raise ValidationError(
            "u == 0 is indeterminate in (u, g) form; use predicted_diffs with r_s = 0"
        )
    r_s = g * u
    if u < _SERIES_U:
        # Series limits: g/sinh(u) -> (g/u)(1 - u^2/6), g/tanh(u) -> (g/u)(1 + u^2/3),
        # where g/u = R_t; the 1/u poles cancel into the contact resistance.
        base = g / u
        slope_o = base * (1.0 - u * u / 6.0)
        slope_h = base * (1.0 + u * u / 3.0) + d_over_l * r_s
        return slope_h, slope_o
    slope_o = g / math.sinh(u)
    slope_h = g / math.tanh(u) + d_over_l * r_s
    return slope_h, slope_o


def predicted_diffs(p: FinParams) -> tuple[float, float]:
    """Model temperature-rise slopes ((T_h - T_d)/P, (T_o - T_d)/P) in K/W."""
    if p.r_s == 0.0:
        return (p.r_t, p.r_t)
    return slopes_from_shape(p.u, p.g, p.d_hc / p.l_c)


def ratio_function(u: float, d_over_l: float) -> float:
    """f(u) = cosh(u) + d_over_l * u * sinh(u); strictly increasing, f(0) = 1."""
    if not (0 <= u < math.inf and 0 <= d_over_l < math.inf):
        raise ValidationError("u and d_over_l must be finite and non-negative")
    return math.cosh(u) + d_over_l * u * math.sinh(u)


def invert_ratio(ratio: float, d_over_l: float) -> float:
    """Shape factor u with ratio_function(u) == ratio, to a few ulp of ratio.

    u = arccosh(ratio) is the root at d_over_l = 0 and lies at or right of it
    otherwise; from there Newton steps on the increasing convex f(u) go down
    to the root, and stop once a step is no longer positive or no longer
    lowers u.
    """
    if not 0 <= d_over_l < math.inf:
        raise ValidationError("d_over_l must be finite and non-negative")
    if not ratio >= 1.0:
        raise RatioBelowOne(f"temperature-rise ratio {ratio:.6g} is not at least 1")
    if ratio == 1.0:
        return 0.0
    if ratio > ratio_function(_MAX_U, d_over_l):
        raise UnphysicalRatio(f"ratio {ratio:.6g} exceeds the representable range")
    u = math.acosh(ratio)
    while True:
        cosh, sinh = math.cosh(u), math.sinh(u)
        slope = (1.0 + d_over_l) * sinh + d_over_l * u * cosh
        step = (cosh + d_over_l * u * sinh - ratio) / slope
        if not (step > 0.0 and u - step < u):
            return u
        u -= step


def fit_origin_slope(powers, rises, threshold: float) -> float:
    """Least-squares slope through the origin over points with P <= threshold."""
    p = np.asarray(powers, dtype=float)
    y = np.asarray(rises, dtype=float)
    if p.size != y.size:
        raise ValidationError("powers and rises must have equal length")
    keep = p <= threshold
    if not np.any(keep):
        raise NoPointsBelowThreshold(f"no record at or below {threshold} W")
    p, y = p[keep], y[keep]
    denom = float(p @ p)
    if denom == 0.0:
        raise ValidationError("all retained powers are zero")
    return float(p @ y) / denom


def extract_resistances(exp: FinExperiment, threshold: float) -> FinExtraction:
    """Full extraction: origin-constrained slopes -> ratio inversion -> (u, g).

    The nonlinearity threshold is dataset specific and is therefore a
    required input rather than auto-detected.
    """
    below = exp.p_heat <= threshold
    if np.count_nonzero(below & (exp.p_heat > 0)) < 1:
        raise NoPointsBelowThreshold(f"no heated record at or below {threshold} W")
    slope_h = fit_origin_slope(exp.p_heat, exp.t_h - exp.t_d, threshold)
    slope_o = fit_origin_slope(exp.p_heat, exp.t_o - exp.t_d, threshold)
    if slope_o <= 0:
        raise UnphysicalRatio(f"far-side slope {slope_o:.6g} K/W is not positive")
    ratio = slope_h / slope_o
    try:
        u = invert_ratio(ratio, exp.d_hc / exp.l_c)
    except RatioBelowOne as exc:
        raise UnphysicalRatio(str(exc)) from exc
    g = slope_o * math.sinh(u)
    return FinExtraction(u=u, g=g, slope_h=slope_h, slope_o=slope_o, threshold=threshold)


def fit_inverse_T(t_d, g) -> float:
    """Proportionality constant c minimizing sum (g - c/T_d)^2, in K^2/W."""
    t = np.asarray(t_d, dtype=float)
    gv = np.asarray(g, dtype=float)
    if t.size == 0 or t.size != gv.size:
        raise ValidationError("need equal-length, non-empty t_d and g")
    if np.any(t <= 0):
        raise ValidationError("t_d must be positive")
    with np.errstate(over="ignore", invalid="ignore"):
        inv = 1.0 / t
        c = float(inv @ gv) / float(inv @ inv)
    if not math.isfinite(c):
        raise ComputationError(f"inverse-temperature fit is not finite (c = {c})")
    return c
