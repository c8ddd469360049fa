import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from linetherm import fitkit
from linetherm.fitkit import (
    EvaluationFailure,
    MismatchedSpec,
    NonConvergence,
    ParamSpec,
    ResidualProblem,
    _Stacked,
    _to_external,
    _to_internal,
    joint_fit,
    lm_fit,
    numeric_jacobian,
)
from linetherm.core import ValidationError


def test_linear_exact_recovery():
    x = np.arange(10.0)
    y = 2.0 * x + 1.0
    result = lm_fit(
        ResidualProblem(lambda p: p["a"] * x + p["b"] - y),
        [ParamSpec("a", 0.3), ParamSpec("b", -1.0)],
    )
    assert result.params["a"] == pytest.approx(2.0, abs=1e-10)
    assert result.params["b"] == pytest.approx(1.0, abs=1e-10)
    assert result.converged


def test_exponential_recovery():
    t = np.linspace(0.0, 10e-6, 50)
    y = np.exp(-4.77e5 * t)
    result = lm_fit(
        ResidualProblem(lambda p: p["A"] * np.exp(-p["gamma"] * t) - y),
        [ParamSpec("A", 0.5), ParamSpec("gamma", 2e5, "positive")],
    )
    assert result.params["gamma"] == pytest.approx(4.77e5, rel=1e-8)
    assert result.params["A"] == pytest.approx(1.0, rel=1e-8)


def test_origin_constrained_slope_matches_closed_form():
    x = np.array([1.0, 2.0, 3.0])
    y = np.array([2.1, 3.9, 6.0])
    oracle = float(x @ y) / float(x @ x)  # = 27.9 / 14
    result = lm_fit(ResidualProblem(lambda p: p["s"] * x - y), [ParamSpec("s", 1.0)])
    assert result.params["s"] == pytest.approx(oracle, rel=1e-9)


def test_cost_path_non_increasing():
    rng = np.random.default_rng(0)
    t = np.linspace(0.0, 1.0, 40)
    y = 2.0 * np.exp(-3.0 * t) + 0.1 + 0.01 * rng.standard_normal(40)
    result = lm_fit(
        ResidualProblem(lambda p: p["A"] * np.exp(-p["g"] * t) + p["B"] - y),
        [ParamSpec("A", 1.0), ParamSpec("g", 1.0, "positive"), ParamSpec("B", 0.0)],
    )
    path = np.asarray(result.diagnostics["cost_path"])
    assert np.all(np.diff(path) <= 0)


def test_numeric_jacobian_matches_analytic_linear():
    x = np.linspace(-3.0, 5.0, 17)

    def fun(p):
        return p[0] * x + p[1]

    jac = numeric_jacobian(fun, np.array([2.0, 1.0]))
    analytic = np.column_stack([x, np.ones_like(x)])
    assert np.max(np.abs(jac - analytic) / np.maximum(np.abs(analytic), 1.0)) < 1e-6


def _random_stack(seed, n_sets, n_shared, n_private, weighted):
    """A joint-fit stack of smooth nonlinear residuals with unequal block lengths."""
    rng = np.random.default_rng(seed)
    shared = [ParamSpec(f"s{k}", float(rng.uniform(0.5, 2.0)), "positive", shared=True)
              for k in range(n_shared)]
    problems, specs = [], []
    for _ in range(n_sets):
        n = int(rng.integers(1, 9))
        names = [s.name for s in shared] + [f"p{k}" for k in range(n_private)]
        a = rng.normal(size=(n, len(names)))
        x = rng.uniform(-1.0, 1.0, n)

        def fun(p, _a=a, _x=x, _names=names):
            v = np.array([p[name] for name in _names])
            return np.sin(_a @ v + _x) * (1.0 + (_a**2) @ v**2)

        weights = rng.uniform(0.5, 2.0, n) if weighted and rng.random() < 0.5 else None
        problems.append(ResidualProblem(fun, weights))
        specs.append(shared + [ParamSpec(f"p{k}", float(rng.normal())) for k in range(n_private)])
    return _Stacked(problems, specs)


_STACKS = given(
    st.integers(0, 2**32 - 1),
    st.integers(1, 6),
    st.integers(0, 2),
    st.integers(1, 2),
    st.booleans(),
)


@settings(deadline=None, max_examples=60)
@_STACKS
def test_grouped_jacobian_bitwise_equals_dense(seed, n_sets, n_shared, n_private, weighted):
    stack = _random_stack(seed, n_sets, n_shared, n_private, weighted)
    t = stack.internal0()
    r = stack.residual(t)
    blocks = []

    def recording_jacobian(fun, x):
        blocks.append(numeric_jacobian(fun, x))
        return blocks[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fitkit, "numeric_jacobian", recording_jacobian)
        stack.normal_equations(t, r)
    dense = numeric_jacobian(stack.residual, t)
    assert len(blocks) == n_sets
    assert sum(block.size for block in blocks) == sum(
        n * (n_shared + n_private) for n in stack.lengths)
    start = 0
    for block, n, idx in zip(blocks, stack.lengths, stack.index):
        assert block.tobytes() == dense[start:start + n, idx].tobytes()
        start += n


@settings(deadline=None, max_examples=60)
@_STACKS
def test_blockwise_normal_equations_match_dense(seed, n_sets, n_shared, n_private, weighted):
    stack = _random_stack(seed, n_sets, n_shared, n_private, weighted)
    t = stack.internal0()
    r = stack.residual(t)
    jtj, jtr = stack.normal_equations(t, r)
    dense = numeric_jacobian(stack.residual, t)
    scale = np.abs(dense).sum(axis=0)
    np.testing.assert_allclose(jtj, dense.T @ dense, rtol=0.0,
                               atol=1e-13 * np.outer(scale, scale).max())
    np.testing.assert_allclose(jtr, dense.T @ r, rtol=0.0,
                               atol=1e-13 * scale.max() * np.abs(r).max())


@pytest.mark.parametrize("n_sets", [1, 5, 20])
def test_jacobian_evaluates_each_dataset_twice_per_group(monkeypatch, n_sets):
    t = np.linspace(0.0, 1.0, 15)
    calls = np.zeros(n_sets, dtype=int)
    builds = []
    inner = _Stacked.normal_equations

    def counting_normal_equations(self, t_int, r):
        before = calls.copy()
        products = inner(self, t_int, r)
        builds.append(calls - before)
        return products

    def make(j):
        y = (1.0 + 0.1 * j) * np.exp(-2.0 * t) + 0.05 * j

        def fun(p):
            calls[j] += 1
            return p["A"] * np.exp(-p["g"] * t) + p["B"] - y

        return ResidualProblem(fun)

    specs = [ParamSpec("g", 1.0, "positive", shared=True), ParamSpec("A", 1.0),
             ParamSpec("B", 0.0)]
    monkeypatch.setattr(_Stacked, "normal_equations", counting_normal_equations)
    result = joint_fit([make(j) for j in range(n_sets)], [specs] * n_sets)
    assert result.converged
    assert len(builds) == result.n_iterations + 1
    n_shared, n_private = 1, 2
    for per_dataset in builds:
        assert np.all(per_dataset == 2 * (n_shared + n_private))


@settings(deadline=None)
@given(st.floats(-50.0, 50.0))
def test_free_transform_round_trip(x):
    spec = ParamSpec("p", 0.0)
    assert _to_external(spec, _to_internal(spec, x)) == pytest.approx(x, rel=1e-12, abs=1e-300)


@settings(deadline=None)
@given(st.floats(1e-8, 1e8))
def test_positive_transform_round_trip(x):
    spec = ParamSpec("p", 1.0, "positive")
    assert _to_external(spec, _to_internal(spec, x)) == pytest.approx(x, rel=1e-12)


@settings(deadline=None)
@given(st.floats(0.02, 0.98))
def test_bounded_transform_round_trip(frac):
    spec = ParamSpec("p", 2.0, "bounded", lo=1.0, hi=5.0)
    x = 1.0 + 4.0 * frac
    assert _to_external(spec, _to_internal(spec, x)) == pytest.approx(x, rel=1e-12)


def test_param_spec_validation():
    with pytest.raises(ValidationError):
        ParamSpec("p", -1.0, "positive")
    with pytest.raises(ValidationError):
        ParamSpec("p", 0.5, "bounded", lo=1.0, hi=2.0)
    with pytest.raises(ValidationError):
        ParamSpec("p", 1.5, "bounded", lo=2.0, hi=1.0)
    with pytest.raises(ValidationError):
        ParamSpec("p", 0.0, "sqrt")


def test_joint_fit_shared_rate_two_datasets():
    t = np.linspace(0.0, 10e-6, 30)
    y1 = 1.0 * np.exp(-4.77e5 * t)
    y2 = 0.5 * np.exp(-4.77e5 * t)

    def make(y):
        return ResidualProblem(lambda p, _y=y: p["A"] * np.exp(-p["gamma"] * t) - _y)

    result = joint_fit(
        [make(y1), make(y2)],
        [
            [ParamSpec("gamma", 3e5, "positive", shared=True), ParamSpec("A", 0.8)],
            [ParamSpec("gamma", 3e5, "positive", shared=True), ParamSpec("A", 0.8)],
        ],
    )
    assert result.params["gamma"] == pytest.approx(4.77e5, rel=1e-8)
    assert result.params["A[0]"] == pytest.approx(1.0, rel=1e-8)
    assert result.params["A[1]"] == pytest.approx(0.5, rel=1e-8)


def test_joint_fit_single_dataset_bitwise_equals_lm_fit():
    t = np.linspace(0.0, 1.0, 25)
    y = 1.3 * np.exp(-2.0 * t) + 0.2
    specs = [
        ParamSpec("g", 1.0, "positive", shared=True),
        ParamSpec("A", 1.0),
        ParamSpec("B", 0.0),
    ]
    prob = ResidualProblem(lambda p: p["A"] * np.exp(-p["g"] * t) + p["B"] - y)
    a = lm_fit(prob, specs)
    b = joint_fit([prob], [specs])
    assert a.params == b.params
    assert a.sigmas == b.sigmas
    assert np.array_equal(a.covariance, b.covariance)
    assert a.residual_norm == b.residual_norm
    assert a.n_iterations == b.n_iterations


def test_joint_fit_total_cost_is_sum_of_dataset_costs():
    x = np.arange(5.0)

    def make(offset):
        return ResidualProblem(lambda p, _o=offset: p["c"] - (x * 0 + _o))

    result = joint_fit(
        [make(0.0), make(1.0)],
        [[ParamSpec("c", 0.2, shared=True)], [ParamSpec("c", 0.2, shared=True)]],
    )
    # best shared constant is 0.5: per-dataset cost 5*0.25 each
    assert result.residual_norm**2 == pytest.approx(2.5, rel=1e-8)


def test_joint_fit_parameterless_dataset_first():
    x = np.arange(4.0)
    fixed = ResidualProblem(lambda p: x - 2.0)
    free = ResidualProblem(lambda p: p["a"] * x - 1.5 * x)
    result = joint_fit([fixed, free], [[], [ParamSpec("a", 0.0)]])
    assert result.params["a"] == pytest.approx(1.5, rel=1e-10)
    assert result.converged


def test_joint_fit_mismatched_shared_name():
    prob = ResidualProblem(lambda p: np.array([p.get("a", 0.0) - 1.0]))
    with pytest.raises(MismatchedSpec):
        joint_fit(
            [prob, prob],
            [[ParamSpec("a", 0.0, shared=True)], [ParamSpec("b", 0.0)]],
        )


def test_joint_fit_inconsistent_shared_transform():
    prob = ResidualProblem(lambda p: np.array([p["a"] - 1.0]))
    with pytest.raises(MismatchedSpec):
        joint_fit(
            [prob, prob],
            [[ParamSpec("a", 1.0, "positive", shared=True)], [ParamSpec("a", 1.0, shared=True)]],
        )


def test_evaluation_failure_at_initial_point():
    prob = ResidualProblem(lambda p: np.array([np.nan, 1.0]))
    with pytest.raises(EvaluationFailure):
        lm_fit(prob, [ParamSpec("a", 1.0)])


def test_more_parameters_than_residuals_rejected():
    prob = ResidualProblem(lambda p: np.array([p["a"] + p["b"]]))
    with pytest.raises(ValidationError):
        lm_fit(prob, [ParamSpec("a", 0.0), ParamSpec("b", 0.0)])


def test_nonconvergence_raises_when_requested():
    t = np.linspace(0.0, 1.0, 20)
    y = np.exp(-3.0 * t)
    prob = ResidualProblem(lambda p: p["A"] * np.exp(-p["g"] * t) - y)
    specs = [ParamSpec("A", 5.0), ParamSpec("g", 40.0, "positive")]
    with pytest.raises(NonConvergence):
        lm_fit(prob, specs, max_iter=1, raise_on_nonconvergence=True)
    flagged = lm_fit(prob, specs, max_iter=1)
    assert not flagged.converged


def test_weights_must_be_positive_and_sized():
    x = np.arange(4.0)
    with pytest.raises(ValidationError):
        lm_fit(
            ResidualProblem(lambda p: p["a"] * x, weights=np.array([1.0, -1.0, 1.0, 1.0])),
            [ParamSpec("a", 1.0)],
        )
    with pytest.raises(ValidationError):
        lm_fit(
            ResidualProblem(lambda p: p["a"] * x, weights=np.ones(3)),
            [ParamSpec("a", 1.0)],
        )


def test_sigmas_match_covariance_diagonal():
    rng = np.random.default_rng(1)
    x = np.linspace(0.0, 1.0, 30)
    y = 2.0 * x + 1.0 + 0.05 * rng.standard_normal(30)
    result = lm_fit(
        ResidualProblem(lambda p: p["a"] * x + p["b"] - y),
        [ParamSpec("a", 1.0), ParamSpec("b", 0.0)],
    )
    for i, name in enumerate(result.param_names):
        assert result.sigmas[name] == pytest.approx(
            float(np.sqrt(result.covariance[i, i])), rel=1e-12
        )
    eig = np.linalg.eigvalsh(result.covariance)
    assert np.all(eig >= -1e-15 * eig.max())
