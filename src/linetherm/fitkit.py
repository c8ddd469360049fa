"""Damped least-squares (Levenberg-Marquardt) engine with analytic Jacobians.

Parameters are optimized in an internal, unconstrained space; positivity
and box bounds are smooth transforms (log, scaled logistic) applied to the
whole parameter vector at once. A fit holds one ResidualProblem: one
dataset, or a batch of K datasets evaluated by one fun call and one jac
call. A joint fit takes one list of shared parameters and one list of
private parameters per dataset; every dataset sees the shared ones first.
Every problem supplies its jac in closed form. numeric_jacobian, the central
difference, is the reference each jac is tested against; the engine never
calls it.

Dataset k's rows depend only on the S shared parameters and its own P
private ones, so J^T J has the arrowhead form of bundle adjustment (Triggs
et al. 2000). It is built one way for every problem, K = 1 included: each
run of consecutive equal-size datasets gives one stacked product of the
problem's (rows, S + P) Jacobian, whose per-dataset slices are the BLAS
calls each dataset alone would make; the shares are added into the dense
(S + sum K*P) system at each dataset's parameter indices by np.bincount
keys built once per fit. The stacked Jacobian is never formed.

Defaults: damping starts at 1e-3, x10 on a rejected step, /10 on an
accepted one; convergence when the relative cost change or the relative
step drops below 1e-10, hard stop after 200 iterations (_MAX_ITER), which
is reported as converged=False and never raised. Covariances are
(J^T W J)^-1, scaled by the reduced chi-square when no weights are given;
an entry whose transform scale overflows float range is NaN.
The engine holds no global state; independent fits may run concurrently as
long as each residual evaluator is reentrant.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Any, Callable, Mapping, Sequence

import numpy as np

from .core import ComputationError, FitResult, ValidationError

__all__ = [
    "ParamSpec",
    "ResidualProblem",
    "lm_fit",
    "joint_fit",
    "numeric_jacobian",
    "SingularJacobian",
    "EvaluationFailure",
]


class SingularJacobian(ComputationError):
    """Normal equations are rank-deficient beyond damping rescue."""


class EvaluationFailure(ComputationError):
    """The residual evaluator returned non-finite values at a required point."""


# Fixed engine settings (see the module docstring), then numeric_jacobian's steps.
_LAMBDA0 = 1e-3
_REL_COST_TOL = 1e-10
_REL_STEP_TOL = 1e-10
_REL_STEP = 1e-6
_ABS_STEP = 1e-9
_MAX_ITER = 200


# ---------------------------------------------------------------------------
# Parameter and problem specification
# ---------------------------------------------------------------------------

_TRANSFORMS = ("free", "positive", "bounded")


@dataclass(frozen=True)
class ParamSpec:
    """One fit parameter: name, starting value, constraint transform.

    transform "positive" maps through exp/log, "bounded" through a scaled
    logistic on (lo, hi).
    """

    name: str
    initial: float
    transform: str = "free"
    lo: float = -np.inf
    hi: float = np.inf

    def __post_init__(self):
        if self.transform not in _TRANSFORMS:
            raise ValidationError(f"unknown transform {self.transform!r}")
        if self.transform == "positive" and not self.initial > 0:
            raise ValidationError(f"{self.name}: positive transform needs initial > 0")
        if self.transform == "bounded":
            if not (np.isfinite(self.lo) and np.isfinite(self.hi) and self.lo < self.hi):
                raise ValidationError(f"{self.name}: bounded transform needs lo < hi")
            if not (self.lo < self.initial < self.hi):
                raise ValidationError(f"{self.name}: initial must lie strictly inside (lo, hi)")


@dataclass(frozen=True)
class ResidualProblem:
    """Residual evaluator r(params), optional per-point weights (1/sigma) and Jacobian.

    fun maps local names (shared parameters, then private ones, each in
    declaration order) with external values to the unweighted residual; jac
    maps them to dr/dx by those values, (len(r), n_local), columns in local
    name order. jac is required: a fit of a problem without one raises
    ValidationError. The engine applies transform derivatives and weights.
    With sizes the problem is a batch of K = len(sizes) datasets of
    sizes[k] >= 1 rows: it takes K private lists, which must declare the
    same names, its private values arrive as length-K arrays, and row i's
    private jac columns are by its own dataset's parameters.
    """

    fun: Callable[[Mapping[str, Any]], np.ndarray]
    weights: np.ndarray | None = None
    jac: Callable[[Mapping[str, Any]], np.ndarray] | None = None
    sizes: Sequence[int] | None = None


# ---------------------------------------------------------------------------
# Numeric Jacobian
# ---------------------------------------------------------------------------

def numeric_jacobian(fun, x: np.ndarray) -> np.ndarray:
    """Central-difference Jacobian of a vector function of a vector.

    Step per coordinate is max(1e-6*|x_i|, 1e-9), taken in the space of x.
    fun is called twice per coordinate and never at x itself. The result is
    built column by column, hence in Fortran order. The engine does not use
    it: it is the oracle every analytic jac is checked against.
    """
    x = np.asarray(x, dtype=float)
    h = np.maximum(_REL_STEP * np.abs(x), _ABS_STEP)
    columns = []
    for j in range(x.size):
        xp = x.copy()
        xp[j] += h[j]
        xm = x.copy()
        xm[j] -= h[j]
        diff = np.asarray(fun(xp), dtype=float) - np.asarray(fun(xm), dtype=float)
        columns.append(diff.ravel() / (2.0 * h[j]))
    return np.array(columns).T


# ---------------------------------------------------------------------------
# Engine
# ---------------------------------------------------------------------------

class _Stacked:
    """One problem's stack: shared parameters at indices 0..S-1, then each dataset's private ones.

    route[k] holds the global indices dataset k sees; sizes, starts, runs,
    length and weights are set by the first evaluation.
    """

    def __init__(self, problem, shared, private):
        if problem.jac is None:
            raise ValidationError("the problem has no jac")
        k = 1 if problem.sizes is None else len(problem.sizes)
        if problem.sizes is not None and not (k and min(problem.sizes) >= 1):
            raise ValidationError("a batch needs sizes >= 1")
        if len(private) != k:
            raise ValidationError(f"{len(private)} private parameter lists for {k} datasets")
        self.problem = problem
        self.n_shared = n_shared = len(shared)
        self.local = [s.name for s in [*shared, *private[0]]]
        repeated = sorted(name for name, n in Counter(self.local).items() if n > 1)
        if repeated:
            raise ValidationError(f"parameter names {repeated} are not distinct")
        if any([s.name for s in specs] != self.local[n_shared:] for specs in private):
            raise ValidationError("the private lists of one batch declare different names")
        # A batch's private names are suffixed with their dataset index.
        self.specs = [*shared, *(s for specs in private for s in specs)]
        self.names = self.local[:n_shared] + [s.name if k == 1 else f"{s.name}[{j}]"
                                              for j, specs in enumerate(private) for s in specs]
        self.positive = np.flatnonzero([s.transform == "positive" for s in self.specs])
        self.bounded = np.flatnonzero([s.transform == "bounded" for s in self.specs])
        self.lo = np.array([self.specs[i].lo for i in self.bounded])
        self.span = np.array([self.specs[i].hi - self.specs[i].lo for i in self.bounded])
        self.x0 = np.array([s.initial for s in self.specs], dtype=float)
        n = self.x0.size
        own = n_shared + np.arange(n - n_shared).reshape(k, -1)
        self.route = route = np.hstack([np.tile(np.arange(n_shared), (k, 1)), own])
        self.jtj_keys = (route[:, :, None] * n + route[:, None, :]).ravel()
        self.jtr_keys = route.ravel()
        self.sizes = self.starts = self.runs = self.weights = None
        self.length = 0

    def internal(self, x: np.ndarray) -> np.ndarray:
        t = np.array(x, dtype=float)
        t[self.positive] = np.log(x[self.positive])
        p = (x[self.bounded] - self.lo) / self.span
        t[self.bounded] = np.log(p / (1.0 - p))
        return t

    def external(self, t: np.ndarray) -> np.ndarray:
        x = t.copy()
        x[self.positive] = np.exp(t[self.positive])
        if self.bounded.size:
            x[self.bounded] = self.lo + self.span * self._logistic(t)
        return x

    def scale(self, t: np.ndarray) -> np.ndarray:
        """d(external)/d(internal) per parameter."""
        g = np.ones_like(t)
        g[self.positive] = np.exp(t[self.positive])
        s = self._logistic(t)
        g[self.bounded] = self.span * s * (1.0 - s)
        return g

    def _logistic(self, t: np.ndarray) -> np.ndarray:
        return 1.0 / (1.0 + np.exp(-t[self.bounded]))

    def _local(self, x: np.ndarray) -> dict:
        """fun's argument at external values x; a batch's private values are length-K arrays."""
        if self.problem.sizes is None:
            return dict(zip(self.local, x))
        return dict(zip(self.local, [*x[:self.n_shared], *x[self.route[:, self.n_shared:].T]]))

    def residual(self, x: np.ndarray) -> np.ndarray:
        """Weighted residual at external values x."""
        r = np.atleast_1d(np.asarray(self.problem.fun(self._local(x)), dtype=float))
        if self.sizes is None:
            sizes = np.array([r.size] if self.problem.sizes is None else self.problem.sizes)
            if not 0 < r.size == sizes.sum():
                raise ValidationError(f"{r.size} residuals, {sizes.sum()} rows declared")
            w = self.problem.weights
            w = None if w is None else np.asarray(w, dtype=float)
            if w is not None and (w.size != r.size or np.any(w <= 0)):
                raise ValidationError(f"weights must be {r.size} strictly positive values")
            self.sizes, self.starts, self.length, self.weights = (
                sizes, np.cumsum(sizes) - sizes, r.size, w)
            edges = [0, *(np.flatnonzero(np.diff(sizes)) + 1).tolist(), sizes.size]
            self.runs = [(int(self.starts[a]), int(sizes[a]), b - a)
                         for a, b in zip(edges, edges[1:])]
        elif r.size != self.length:
            raise EvaluationFailure("residual length changed between evaluations")
        return r if self.weights is None else r * self.weights

    def _block(self, t: np.ndarray, x: np.ndarray) -> np.ndarray:
        """Weighted (rows, S + P) Jacobian by each row's routed internal parameters."""
        block = np.asarray(self.problem.jac(self._local(x)), dtype=float)
        shape = (self.length, self.route.shape[1])
        if block.shape != shape:
            raise ValidationError(f"jac has shape {block.shape}, expected {shape}")
        block = block * np.repeat(self.scale(t)[self.route], self.sizes, axis=0)
        return block if self.weights is None else block * self.weights[:, None]

    def normal_equations(self, t: np.ndarray, r: np.ndarray):
        """J^T J and J^T r at t (r the residual there); see the module doc."""
        n = t.size
        block = self._block(t, self.external(t))
        if not np.all(np.isfinite(block)):
            raise EvaluationFailure("Jacobian is not finite at the current point")
        # One stacked product per run of equal-size datasets: each dataset's
        # slice makes the BLAS call its own b.T @ b and b.T @ y would, so its
        # share rounds the same alone or in a batch.
        products, sums = [], []
        for first, size, count in self.runs:
            rows = slice(first, first + size * count)
            b = block[rows].reshape(count, size, -1)
            bt = b.transpose(0, 2, 1)
            products.append(bt @ b)
            sums.append(bt @ r[rows].reshape(count, size, 1))
        jtj = np.bincount(self.jtj_keys, np.concatenate(products).ravel(), n * n)
        jtr = np.bincount(self.jtr_keys, np.concatenate(sums).ravel(), n)
        return jtj.reshape(n, n), jtr


def _marquardt_scaling(jtj: np.ndarray):
    """Column scales s = diag(J^T J)^-1/2 and the unit-diagonal s J^T J s.

    Damping proportional to each column's own curvature keeps the step
    scale-invariant, and the unit-diagonal system stays well conditioned
    even when parameter scales differ by many orders of magnitude (More
    1978). Exactly dead columns get unit-scale damping, which pins their
    step to zero instead of going singular.
    """
    n_par = jtj.shape[0]
    diag = np.diag(jtj).copy()
    dmax = float(diag.max()) if n_par else 0.0
    if dmax <= 0.0:
        diag = np.ones(n_par)
    else:
        diag[diag < dmax * 1e-280] = dmax
    s = 1.0 / np.sqrt(diag)
    return s, s[:, None] * jtj * s[None, :]


def _run(stack: _Stacked) -> FitResult:
    t = stack.internal(stack.x0)
    n_par = t.size

    r = stack.residual(stack.external(t))
    if not np.all(np.isfinite(r)):
        raise EvaluationFailure("residual is not finite at the initial point")
    m = r.size
    if m < n_par:
        raise ValidationError(f"{m} residuals cannot constrain {n_par} parameters")

    cost = float(r @ r)
    cost_path = [cost]
    lam = _LAMBDA0
    converged = False
    n_iter, n_fev, n_jac = 0, 1, 0

    eye = np.eye(n_par)
    for n_iter in range(1, _MAX_ITER + 1):
        jtj, grad = stack.normal_equations(t, r)
        n_jac += 1
        s, c_scaled = _marquardt_scaling(jtj)
        g_scaled = s * grad

        accepted = False
        solvable = False
        while lam <= 1e12:
            try:
                step = s * np.linalg.solve(c_scaled + lam * eye, -g_scaled)
            except np.linalg.LinAlgError:
                lam *= 10.0
                continue
            if not np.all(np.isfinite(step)):
                lam *= 10.0
                continue
            solvable = True
            t_try = t + step
            # A step that overflows a transform, or underflows a positive
            # parameter to 0, is rejected like a non-finite residual, with
            # no RuntimeWarning.
            with np.errstate(over="ignore"):
                x_try = stack.external(t_try)
            if not (np.all(np.isfinite(x_try)) and np.all(x_try[stack.positive] > 0)):
                lam *= 10.0
                continue
            r_try = stack.residual(x_try)
            n_fev += 1
            if not np.all(np.isfinite(r_try)):
                lam *= 10.0
                continue
            cost_try = float(r_try @ r_try)
            if cost_try <= cost:
                rel_drop = (cost - cost_try) / max(cost, 1e-300)
                step_small = np.linalg.norm(step) <= _REL_STEP_TOL * (np.linalg.norm(t) + _REL_STEP_TOL)
                t, r, cost = t_try, r_try, cost_try
                cost_path.append(cost)
                lam = max(lam / 10.0, 1e-15)
                accepted = True
                if rel_drop < _REL_COST_TOL or step_small:
                    converged = True
                break
            lam *= 10.0

        if not accepted:
            if not solvable:
                raise SingularJacobian(
                    "normal equations stayed unsolvable under maximal damping"
                )
            # No damped step improves the cost: stationary point. Converged
            # when the residual is orthogonal to the Jacobian columns.
            cos = np.abs(grad) * s / np.sqrt(max(cost, 1e-300))
            converged = cost == 0.0 or float(cos.max()) < 1e-6
            break
        if converged:
            break

    # Covariance at the solution, mapped back to external parameter space.
    # Rank detection and the pseudo-inverse run on the unit-diagonal scaled
    # normal equations so that legitimate scale differences between
    # parameters are not mistaken for rank deficiency.
    s, c_scaled = _marquardt_scaling(stack.normal_equations(t, r)[0])
    n_jac += 1
    rank = int(np.linalg.matrix_rank(c_scaled)) if np.all(np.isfinite(c_scaled)) else 0
    diagnostics = {"cost_path": cost_path, "n_fev": n_fev, "n_jac": n_jac, "rank": rank}
    if rank < n_par:
        diagnostics["rank_deficient"] = True
        converged = False

    cov_int = np.linalg.pinv(c_scaled, hermitian=True) * np.outer(s, s)
    if stack.weights is None:
        dof = m - n_par
        scale = cost / dof if dof > 0 else 1.0
        cov_int = cov_int * scale
    # An entry whose scale g_i g_j overflows (a runaway positive parameter)
    # has no float value: NaN, reported as null, with no RuntimeWarning.
    g = stack.scale(t)
    with np.errstate(over="ignore"):
        gg = np.outer(g, g)
        gg[np.isinf(gg)] = np.nan
        cov = cov_int * gg
    cov = 0.5 * (cov + cov.T)

    x = stack.external(t)
    params = {name: float(v) for name, v in zip(stack.names, x)}
    sigmas = {
        name: float(np.sqrt(max(cov[i, i], 0.0))) for i, name in enumerate(stack.names)
    }
    return FitResult(
        params=params,
        sigmas=sigmas,
        covariance=cov,
        param_names=tuple(stack.names),
        residual_norm=float(np.sqrt(cost)),
        n_iterations=n_iter,
        converged=converged,
        diagnostics=diagnostics,
    )


def lm_fit(problem: ResidualProblem, specs: Sequence[ParamSpec]) -> FitResult:
    """Minimize sum of squared (weighted) residuals over the given parameters.

    Accepted-step costs are non-increasing; the path is recorded in
    diagnostics["cost_path"]. A rank-deficient Jacobian at the solution is
    reported via converged=False and diagnostics["rank_deficient"] rather
    than an exception, so degenerate data still yields an inspectable result.
    Damping starts at 1e-3; the fit converges when an accepted step lowers
    the cost, or moves the internal parameters, by less than 1e-10
    relatively. Both tolerances and the budget of 200 iterations are fixed;
    a fit that exhausts the budget returns with converged=False. A trial
    point where a transform overflows or a positive parameter underflows to
    0 is rejected unevaluated. The Jacobian is the problem's jac, never a
    difference. diagnostics: n_fev counts residual evaluations (fun calls),
    n_jac normal-equation builds (jac calls), always
    n_iterations + 1 (one per iteration, one for the covariance).
    """
    return _run(_Stacked(problem, [], [list(specs)]))


def joint_fit(problems: Sequence[ResidualProblem], shared: Sequence[ParamSpec],
              private: Sequence[Sequence[ParamSpec]]) -> FitResult:
    """Fit one problem's datasets at once with parameters common to all of them.

    problems holds exactly one ResidualProblem, any other length being a
    ValidationError: several datasets are one batch through its sizes.
    shared lists the parameters every dataset uses, declared once;
    private[j] lists dataset j's own, every list declaring the same names.
    The evaluator is called with its local names, shared then private, and
    a name may not appear twice among them (ValidationError). A batch's
    private names are reported suffixed with the dataset index, e.g.
    "a[1]". The total cost is the sum of the per-dataset costs. Damping,
    the fixed 1e-10 tolerances, the 200-iteration budget and the
    diagnostics are those of lm_fit.
    """
    if len(problems) != 1:
        raise ValidationError(f"joint_fit takes one problem, not {len(problems)}; "
                              "batch several datasets with ResidualProblem(sizes=...)")
    return _run(_Stacked(problems[0], list(shared), [list(s) for s in private]))
