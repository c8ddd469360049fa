"""Damped least-squares (Levenberg-Marquardt) engine with numeric Jacobians.

Parameters are optimized in an internal, unconstrained space; positivity
and box bounds are imposed by smooth transforms (log, scaled logistic) so
the Jacobian stays differentiable everywhere. Joint fits across several
datasets share parameters by name.

Jacobians are central differences. A dataset's residual depends only on
the parameters routed to it, so each dataset is differenced over those
alone, and its block's J^T J and J^T r are added into the routed rows and
columns; the structural zeros of the stacked Jacobian are never formed. A
K-dataset fit with S shared and P private parameters per dataset evaluates
each dataset 2*(S + P) times per Jacobian, not 2*(S + K*P), and each block
is bit-for-bit the matching part of the dense Jacobian.

Defaults: damping starts at 1e-3, x10 on a rejected step, /10 on an
accepted one; convergence when the relative cost change or the relative
step drops below 1e-10, hard stop after 200 iterations. Covariances are
(J^T W J)^-1, scaled by the reduced chi-square when no weights are given.

The engine holds no global state; independent fits may run concurrently as
long as each residual evaluator is reentrant.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from .core import ComputationError, FitResult, ValidationError

__all__ = [
    "ParamSpec",
    "ResidualProblem",
    "lm_fit",
    "joint_fit",
    "numeric_jacobian",
    "NonConvergence",
    "SingularJacobian",
    "EvaluationFailure",
    "MismatchedSpec",
]


class NonConvergence(ComputationError):
    """The fit hit the iteration limit without meeting the tolerances."""


class SingularJacobian(ComputationError):
    """Normal equations are rank-deficient beyond damping rescue."""


class EvaluationFailure(ComputationError):
    """The residual evaluator returned non-finite values at a required point."""


class MismatchedSpec(ValidationError):
    """A shared parameter name is missing or inconsistent across datasets."""


# Fixed engine settings (see the module docstring and numeric_jacobian).
_LAMBDA0 = 1e-3
_REL_COST_TOL = 1e-10
_REL_STEP_TOL = 1e-10
_REL_STEP = 1e-6
_ABS_STEP = 1e-9


# ---------------------------------------------------------------------------
# Parameter specification and transforms
# ---------------------------------------------------------------------------

_TRANSFORMS = ("free", "positive", "bounded")


@dataclass(frozen=True)
class ParamSpec:
    """One fit parameter: name, starting value, constraint transform.

    transform "positive" maps through exp/log, "bounded" through a scaled
    logistic on (lo, hi). shared=True marks the parameter as common to all
    datasets of a joint fit.
    """

    name: str
    initial: float
    transform: str = "free"
    lo: float = -np.inf
    hi: float = np.inf
    shared: bool = False

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


def _to_internal(spec: ParamSpec, x: float) -> float:
    if spec.transform == "free":
        return x
    if spec.transform == "positive":
        return np.log(x)
    p = (x - spec.lo) / (spec.hi - spec.lo)
    return np.log(p / (1.0 - p))


def _to_external(spec: ParamSpec, t: float) -> float:
    if spec.transform == "free":
        return t
    if spec.transform == "positive":
        return np.exp(t)
    s = 1.0 / (1.0 + np.exp(-t))
    return spec.lo + (spec.hi - spec.lo) * s


def _dext_dint(spec: ParamSpec, t: float) -> float:
    if spec.transform == "free":
        return 1.0
    if spec.transform == "positive":
        return np.exp(t)
    s = 1.0 / (1.0 + np.exp(-t))
    return (spec.hi - spec.lo) * s * (1.0 - s)


@dataclass(frozen=True)
class ResidualProblem:
    """Residual evaluator r(params) plus optional per-point weights (1/sigma)."""

    fun: Callable[[Mapping[str, float]], np.ndarray]
    weights: np.ndarray | None = None


# ---------------------------------------------------------------------------
# Numeric Jacobian
# ---------------------------------------------------------------------------

def numeric_jacobian(fun, x: np.ndarray) -> np.ndarray:
    """Central-difference Jacobian of a vector function of a vector.

    Step per coordinate is max(1e-6*|x_i|, 1e-9), taken in the space of x
    (the transformed parameter space when used by the engine). fun is
    called twice per coordinate and never at x itself. The result is built
    column by column, hence in Fortran order.
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

def _validated_weights(problem: ResidualProblem, n: int) -> np.ndarray | None:
    if problem.weights is None:
        return None
    w = np.asarray(problem.weights, dtype=float)
    if w.size != n:
        raise ValidationError(f"weights length {w.size} != residual length {n}")
    if np.any(w <= 0):
        raise ValidationError("weights must be strictly positive")
    return w


class _Stacked:
    """Residual stack over datasets with shared/private parameter routing."""

    def __init__(self, problems, specs_lists):
        if len(problems) == 0:
            raise ValidationError("need at least one dataset")
        if len(problems) != len(specs_lists):
            raise ValidationError("one spec list per problem is required")

        shared_names = []
        shared_specs = {}
        for specs in specs_lists:
            for s in specs:
                if s.shared:
                    if s.name not in shared_specs:
                        shared_specs[s.name] = s
                        shared_names.append(s.name)
                    else:
                        ref = shared_specs[s.name]
                        if (s.transform, s.lo, s.hi) != (ref.transform, ref.lo, ref.hi):
                            raise MismatchedSpec(
                                f"shared parameter {s.name!r} declared with inconsistent transforms"
                            )
        for name in shared_names:
            for j, specs in enumerate(specs_lists):
                if not any(s.name == name and s.shared for s in specs):
                    raise MismatchedSpec(f"shared parameter {name!r} missing from dataset {j}")

        # Private names are suffixed with their dataset index on collision.
        private_counts = {}
        for specs in specs_lists:
            local = set()
            for s in specs:
                if s.name in local:
                    raise ValidationError(f"duplicate parameter {s.name!r} in one dataset")
                local.add(s.name)
                if not s.shared:
                    private_counts[s.name] = private_counts.get(s.name, 0) + 1

        self.specs: list[ParamSpec] = [shared_specs[n] for n in shared_names]
        self.names: list[str] = list(shared_names)
        self.maps: list[list[tuple[str, int]]] = []   # per dataset: (local name, global index)
        index_of_shared = {n: i for i, n in enumerate(shared_names)}
        for j, specs in enumerate(specs_lists):
            routing = []
            for s in specs:
                if s.shared:
                    routing.append((s.name, index_of_shared[s.name]))
                else:
                    label = s.name if private_counts[s.name] == 1 else f"{s.name}[{j}]"
                    routing.append((s.name, len(self.specs)))
                    self.specs.append(s)
                    self.names.append(label)
            self.maps.append(routing)
        self.index = [np.array([idx for _, idx in routing], dtype=int) for routing in self.maps]

        self.problems = list(problems)
        self.weights: list[np.ndarray | None] = [None] * len(problems)
        self.lengths: list[int | None] = [None] * len(problems)

    def external(self, t: np.ndarray) -> np.ndarray:
        return np.array([_to_external(s, ti) for s, ti in zip(self.specs, t)])

    def internal0(self) -> np.ndarray:
        return np.array([_to_internal(s, s.initial) for s in self.specs])

    def scale(self, t: np.ndarray) -> np.ndarray:
        return np.array([_dext_dint(s, ti) for s, ti in zip(self.specs, t)])

    def _dataset_residual(self, j: int, t_routed: np.ndarray) -> np.ndarray:
        """Weighted residual of dataset j at internal values of its routed params."""
        local = {name: _to_external(self.specs[idx], ti)
                 for (name, idx), ti in zip(self.maps[j], t_routed)}
        r = np.atleast_1d(np.asarray(self.problems[j].fun(local), dtype=float))
        if self.lengths[j] is None:
            if r.size == 0:
                raise ValidationError(f"dataset {j}: empty residual")
            self.lengths[j] = r.size
            self.weights[j] = _validated_weights(self.problems[j], r.size)
        elif r.size != self.lengths[j]:
            raise EvaluationFailure(f"dataset {j}: residual length changed between evaluations")
        return r if self.weights[j] is None else r * self.weights[j]

    def residual(self, t: np.ndarray) -> np.ndarray:
        return np.concatenate([self._dataset_residual(j, t[idx])
                               for j, idx in enumerate(self.index)])

    def normal_equations(self, t: np.ndarray, r: np.ndarray):
        """J^T J and J^T r at t, with r = residual(t), summed block by block.

        Each dataset's residual is differenced over its routed parameters
        only, the rest of its Jacobian row block being structural zeros, so
        every dataset is evaluated twice per routed parameter. The products
        are linear in the number of datasets, and each stays below BLAS's
        multi-threading sizes. Raises EvaluationFailure on a non-finite block.
        """
        jtj, jtr = np.zeros((t.size, t.size)), np.zeros(t.size)
        start = 0
        for j, (n, idx) in enumerate(zip(self.lengths, self.index)):
            if idx.size:
                block = numeric_jacobian(lambda u, _j=j: self._dataset_residual(_j, u), t[idx])
                if not np.all(np.isfinite(block)):
                    raise EvaluationFailure("Jacobian is not finite at the current point")
                jtj[np.ix_(idx, idx)] += block.T @ block
                jtr[idx] += block.T @ r[start:start + n]
            start += n
        return jtj, jtr


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


def _run(stack: _Stacked, *, max_iter, raise_on_nonconvergence) -> FitResult:
    t = stack.internal0()
    n_par = t.size

    r = stack.residual(t)
    if not np.all(np.isfinite(r)):
        raise EvaluationFailure("residual is not finite at the initial point")
    m = r.size
    if m < n_par:
        raise ValidationError(f"{m} residuals cannot constrain {n_par} parameters")

    cost = float(r @ r)
    cost_path = [cost]
    lam = _LAMBDA0
    converged = False
    n_iter = 0

    eye = np.eye(n_par)
    for n_iter in range(1, max_iter + 1):
        jtj, grad = stack.normal_equations(t, r)
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
            r_try = stack.residual(t_try)
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

    if not converged and raise_on_nonconvergence:
        raise NonConvergence(f"no convergence within {n_iter} iterations")

    # Covariance at the solution, mapped back to external parameter space.
    # Rank detection and the pseudo-inverse run on the unit-diagonal scaled
    # normal equations so that legitimate scale differences between
    # parameters are not mistaken for rank deficiency.
    s, c_scaled = _marquardt_scaling(stack.normal_equations(t, r)[0])
    rank = int(np.linalg.matrix_rank(c_scaled)) if np.all(np.isfinite(c_scaled)) else 0
    diagnostics = {"cost_path": cost_path, "lambda": lam, "rank": rank}
    if rank < n_par:
        diagnostics["rank_deficient"] = True
        converged = False

    cov_int = np.linalg.pinv(c_scaled, hermitian=True) * np.outer(s, s)
    if all(w is None for w in stack.weights):
        dof = m - n_par
        scale = cost / dof if dof > 0 else 1.0
        cov_int = cov_int * scale
    g = stack.scale(t)
    cov = cov_int * np.outer(g, g)
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


def lm_fit(problem: ResidualProblem, specs: Sequence[ParamSpec], *,
           max_iter: int = 200, raise_on_nonconvergence: bool = False) -> FitResult:
    """Minimize sum of squared (weighted) residuals over the given parameters.

    Accepted-step costs are non-increasing; the path is recorded in
    diagnostics["cost_path"]. A rank-deficient Jacobian at the solution is
    reported via converged=False and diagnostics["rank_deficient"] rather
    than an exception, so degenerate data still yields an inspectable result.
    Damping starts at 1e-3; the fit converges when an accepted step lowers
    the cost, or moves the internal parameters, by less than 1e-10
    relatively. Both tolerances are fixed.
    """
    return _run(
        _Stacked([problem], [list(specs)]),
        max_iter=max_iter,
        raise_on_nonconvergence=raise_on_nonconvergence,
    )


def joint_fit(problems: Sequence[ResidualProblem], specs: Sequence[Sequence[ParamSpec]], *,
              max_iter: int = 200, raise_on_nonconvergence: bool = False) -> FitResult:
    """Fit several datasets at once, unifying parameters marked shared=True.

    specs holds one ParamSpec list per dataset. A shared name must appear
    in every dataset's list (MismatchedSpec otherwise); each evaluator is
    called with its own local names, and private names that collide across
    datasets are reported suffixed with the dataset index, e.g. "a[1]".
    The total cost is the sum of the per-dataset costs. Damping and the
    fixed 1e-10 tolerances are those of lm_fit.
    """
    return _run(
        _Stacked(list(problems), [list(s) for s in specs]),
        max_iter=max_iter,
        raise_on_nonconvergence=raise_on_nonconvergence,
    )
