import os

import numpy as np
import pytest
from hypothesis import settings

from linetherm.core import SystemParams
from linetherm.fitkit import _Stacked, numeric_jacobian

# HYPOTHESIS_PROFILE=ci replays the same examples on every run, so a CI
# failure can be reproduced exactly.
settings.register_profile("ci", derandomize=True, deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


@pytest.fixture(scope="session")
def table1() -> SystemParams:
    """Reference-device parameters used by most physics tests."""
    return SystemParams(
        f_r=7.458e9, kappa=2 * np.pi * 4.10e6, chi=2 * np.pi * (-2.70e6)
    )


def _dense_jacobian(stack, t):
    """A fit stack's weighted Jacobian at internal t, assembled from its problem's block.

    It includes the transform derivatives and weights. Each dataset's rows
    fill the columns of the parameters it sees.
    """
    x = stack.external(t)
    dense = np.zeros((stack.residual(x).size, t.size))
    block = stack._block(t, x)
    for route, first, n in zip(stack.route, stack.starts, stack.sizes):
        dense[first:first + n, route] = block[first:first + n]
    return dense


def _jacobian_error(stack, t, scale=None):
    """Deviation of a fit stack's analytic Jacobian from central differences at internal t.

    The analytic Jacobian is _dense_jacobian's. The difference steps
    coordinate i by 1e-6 * scale[i] (default max(|t_i|, 1)); pass the scale
    on which the residual varies where |t_i| dwarfs it, as an absolute
    frequency does a linewidth. The result is the largest deviation in each
    column relative to that column's largest analytic entry, maximized over
    columns.
    """
    analytic = _dense_jacobian(stack, t)
    scale = np.maximum(np.abs(t), 1.0) if scale is None else np.asarray(scale, dtype=float)

    def residual(u):
        return stack.residual(stack.external(t + (u - 1.0) * scale))

    numeric = numeric_jacobian(residual, np.ones_like(t)) / scale
    column_max = np.maximum(np.abs(analytic).max(axis=0), 1e-300)
    return float(np.max(np.abs(analytic - numeric).max(axis=0) / column_max))


@pytest.fixture(scope="session")
def dense_jacobian():
    """_dense_jacobian: the analytic Jacobian a fit stack's normal equations are built from."""
    return _dense_jacobian


@pytest.fixture(scope="session")
def jacobian_error():
    """_jacobian_error: how far a model's analytic jac lies from the numeric oracle."""
    return _jacobian_error


class _Captured(Exception):
    pass


def _captured_stack(module, name, call):
    """The fit stack that call() hands to module.name, lm_fit or joint_fit; no fit runs."""
    stacks = []

    def capture(problems, shared, private=None):
        if private is None:  # lm_fit(problem, specs)
            problems, shared, private = [problems], [], [shared]
        (problem,) = problems
        stacks.append(_Stacked(problem, shared, private))
        raise _Captured

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(module, name, capture)
        with pytest.raises(_Captured):
            call()
    return stacks[0]


@pytest.fixture(scope="session")
def captured_stack():
    """_captured_stack, for pinning a model's jac without running its fit."""
    return _captured_stack
