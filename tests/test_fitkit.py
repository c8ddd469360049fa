import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from linetherm import fitkit
from linetherm.fitkit import (
    EvaluationFailure,
    ParamSpec,
    ResidualProblem,
    _Stacked,
    joint_fit,
    lm_fit,
    numeric_jacobian,
)
from linetherm.core import ValidationError


def _line_jac(x):
    """d(a x + b)/d(a, b)."""
    return np.column_stack([x, np.ones_like(x)])


def _decay_jac(t, p, columns=("A", "g", "B")):
    """d(A exp(-g t) + B)/d(columns)."""
    e = np.exp(-p["g"] * t)
    return np.column_stack([{"A": e, "g": -p["A"] * t * e, "B": np.ones_like(t)}[name]
                            for name in columns])


def test_linear_exact_recovery():
    x = np.arange(10.0)
    y = 2.0 * x + 1.0
    result = lm_fit(
        ResidualProblem(lambda p: p["a"] * x + p["b"] - y, jac=lambda p: _line_jac(x)),
        [ParamSpec("a", 0.3), ParamSpec("b", -1.0)],
    )
    assert result.params["a"] == pytest.approx(2.0, abs=1e-10)
    assert result.params["b"] == pytest.approx(1.0, abs=1e-10)
    assert result.converged


def test_exponential_recovery():
    t = np.linspace(0.0, 10e-6, 50)
    y = np.exp(-4.77e5 * t)
    result = lm_fit(
        ResidualProblem(lambda p: p["A"] * np.exp(-p["gamma"] * t) - y,
                        jac=lambda p: np.column_stack([np.exp(-p["gamma"] * t),
                                                       -p["A"] * t * np.exp(-p["gamma"] * t)])),
        [ParamSpec("A", 0.5), ParamSpec("gamma", 2e5, "positive")],
    )
    assert result.params["gamma"] == pytest.approx(4.77e5, rel=1e-8)
    assert result.params["A"] == pytest.approx(1.0, rel=1e-8)


def test_origin_constrained_slope_matches_closed_form():
    x = np.array([1.0, 2.0, 3.0])
    y = np.array([2.1, 3.9, 6.0])
    oracle = float(x @ y) / float(x @ x)  # = 27.9 / 14
    result = lm_fit(ResidualProblem(lambda p: p["s"] * x - y, jac=lambda p: x[:, None]),
                    [ParamSpec("s", 1.0)])
    assert result.params["s"] == pytest.approx(oracle, rel=1e-9)


def test_cost_path_non_increasing():
    rng = np.random.default_rng(0)
    t = np.linspace(0.0, 1.0, 40)
    y = 2.0 * np.exp(-3.0 * t) + 0.1 + 0.01 * rng.standard_normal(40)
    result = lm_fit(
        ResidualProblem(lambda p: p["A"] * np.exp(-p["g"] * t) + p["B"] - y,
                        jac=lambda p: _decay_jac(t, p)),
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


def _start(stack):
    """Internal start point and the stacked residual as a function of internal values."""
    return stack.internal(stack.x0), lambda u: stack.residual(stack.external(u))


def _constant_problem(r, jac, weights, sizes):
    """A problem whose residual and Jacobian do not depend on the parameters."""
    return ResidualProblem(lambda p: r, weights, lambda p: jac, sizes)


@settings(deadline=None, max_examples=80)
@given(st.integers(0, 2**32 - 1), st.lists(st.sampled_from([1, 2, 3, 7, 41]), min_size=1,
                                          max_size=8),
       st.integers(0, 2), st.integers(0, 3), st.booleans())
def test_dataset_share_of_normal_equations_is_the_same_alone_and_in_a_batch(
        seed, sizes, n_shared, n_private, weighted):
    if n_shared + n_private == 0:
        n_private = 1
    rng = np.random.default_rng(seed)
    k, n = len(sizes), n_shared + n_private
    starts = np.cumsum(sizes) - sizes
    r = rng.normal(size=sum(sizes))
    jac = rng.normal(size=(sum(sizes), n)) * 10.0 ** rng.integers(-3, 4, size=n)
    weights = rng.uniform(0.5, 2.0, sum(sizes)) if weighted else None
    transforms = ["free", "positive"]
    shared = [ParamSpec(f"s{i}", float(rng.uniform(0.5, 2.0)), transforms[i % 2])
              for i in range(n_shared)]
    private = [[ParamSpec(f"p{i}", float(rng.uniform(0.5, 2.0)), transforms[(i + j) % 2])
                for i in range(n_private)] for j in range(k)]

    def products(problem, private_lists):
        stack = _Stacked(problem, shared, private_lists)
        t = stack.internal(stack.x0)
        return stack.normal_equations(t, stack.residual(stack.external(t)))

    jtj, jtr = products(_constant_problem(r, jac, weights, sizes), private)
    shared_jtj, shared_jtr = np.zeros((n_shared, n_shared)), np.zeros(n_shared)
    for j, (first, size) in enumerate(zip(starts, sizes)):
        rows = slice(first, first + size)
        alone_jtj, alone_jtr = products(
            _constant_problem(r[rows], jac[rows], None if weights is None else weights[rows],
                              None), [private[j]])
        # Alone, the share is the BLAS product of the weighted, transform-scaled block.
        scale = np.r_[[np.exp(np.log(s.initial)) if s.transform == "positive" else 1.0
                       for s in [*shared, *private[j]]]]
        b = jac[rows] * scale
        b = b if weights is None else b * weights[rows, None]
        assert np.array_equal(alone_jtj, b.T @ b)
        assert np.array_equal(alone_jtr, b.T @ (r[rows] if weights is None
                                                 else r[rows] * weights[rows]))
        own = n_shared + j * n_private + np.arange(n_private)
        mine = np.r_[np.arange(n_shared), own]
        # Rows and columns of dataset j's private parameters hold its share alone.
        assert jtj[np.ix_(own, mine)].tobytes() == alone_jtj[n_shared:].tobytes()
        assert jtr[own].tobytes() == alone_jtr[n_shared:].tobytes()
        # The shared entries add the shares in dataset order.
        shared_jtj = shared_jtj + alone_jtj[:n_shared, :n_shared]
        shared_jtr = shared_jtr + alone_jtr[:n_shared]
    assert jtj[:n_shared, :n_shared].tobytes() == shared_jtj.tobytes()
    assert jtr[:n_shared].tobytes() == shared_jtr.tobytes()


@pytest.mark.parametrize("n_sets", [1, 5, 20])
def test_normal_equations_call_each_jac_once(monkeypatch, n_sets):
    # One batch of n_sets datasets: g shared, A and B private.
    t = np.linspace(0.0, 1.0, 15)
    seg = _segment_rows([t.size] * n_sets)
    t_all = np.tile(t, n_sets)
    y = (1.0 + 0.1 * seg) * np.exp(-2.0 * t_all) + 0.05 * seg
    calls = np.zeros(2, dtype=int)  # fun, jac calls
    builds = []
    inner = _Stacked.normal_equations

    def counting_normal_equations(self, t_int, r):
        before = calls.copy()
        products = inner(self, t_int, r)
        builds.append(calls - before)
        return products

    def fun(p):
        calls[0] += 1
        return p["A"][seg] * np.exp(-p["g"] * t_all) + p["B"][seg] - y

    def jac(p):
        calls[1] += 1
        e = np.exp(-p["g"] * t_all)
        return np.column_stack([-p["A"][seg] * t_all * e, e, np.ones_like(t_all)])

    private = [ParamSpec("A", 1.0), ParamSpec("B", 0.0)]
    monkeypatch.setattr(_Stacked, "normal_equations", counting_normal_equations)
    result = joint_fit([ResidualProblem(fun, jac=jac, sizes=[t.size] * n_sets)],
                       [ParamSpec("g", 1.0, "positive")], [private] * n_sets)
    assert result.converged
    assert len(builds) == result.n_iterations + 1 == result.diagnostics["n_jac"]
    for fun_calls, jac_calls in builds:
        assert fun_calls == 0 and jac_calls == 1


def _round_trip(spec):
    """external(internal(initial)) of a one-parameter stack."""
    stack = _Stacked(ResidualProblem(lambda p: np.zeros(1), jac=lambda p: np.zeros((1, 1))),
                     [spec], [[]])
    return stack.external(stack.internal(stack.x0))[0]


@settings(deadline=None)
@given(st.floats(-50.0, 50.0))
def test_free_transform_round_trip(x):
    assert _round_trip(ParamSpec("p", x)) == pytest.approx(x, rel=1e-12, abs=1e-300)


@settings(deadline=None)
@given(st.floats(1e-8, 1e8))
def test_positive_transform_round_trip(x):
    assert _round_trip(ParamSpec("p", x, "positive")) == pytest.approx(x, rel=1e-12)


@settings(deadline=None)
@given(st.floats(0.02, 0.98))
def test_bounded_transform_round_trip(frac):
    x = 1.0 + 4.0 * frac
    spec = ParamSpec("p", x, "bounded", lo=1.0, hi=5.0)
    assert _round_trip(spec) == pytest.approx(x, rel=1e-12)


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
    t = np.tile(np.linspace(0.0, 10e-6, 30), 2)
    seg = _segment_rows([30, 30])
    y = np.array([1.0, 0.5])[seg] * np.exp(-4.77e5 * t)
    problem = ResidualProblem(lambda p: p["A"][seg] * np.exp(-p["gamma"] * t) - y,
                              jac=lambda p: np.column_stack([
                                  -p["A"][seg] * t * np.exp(-p["gamma"] * t),
                                  np.exp(-p["gamma"] * t)]),
                              sizes=[30, 30])

    result = joint_fit(
        [problem],
        [ParamSpec("gamma", 3e5, "positive")],
        [[ParamSpec("A", 0.8)], [ParamSpec("A", 0.8)]],
    )
    assert result.params["gamma"] == pytest.approx(4.77e5, rel=1e-8)
    assert result.params["A[0]"] == pytest.approx(1.0, rel=1e-8)
    assert result.params["A[1]"] == pytest.approx(0.5, rel=1e-8)


def test_joint_fit_single_dataset_bitwise_equals_lm_fit():
    t = np.linspace(0.0, 1.0, 25)
    y = 1.3 * np.exp(-2.0 * t) + 0.2
    specs = [
        ParamSpec("g", 1.0, "positive"),
        ParamSpec("A", 1.0),
        ParamSpec("B", 0.0),
    ]
    prob = ResidualProblem(lambda p: p["A"] * np.exp(-p["g"] * t) + p["B"] - y,
                           jac=lambda p: _decay_jac(t, p, ("g", "A", "B")))
    a = lm_fit(prob, specs)
    b = joint_fit([prob], specs[:1], [specs[1:]])
    assert a.params == b.params
    assert a.sigmas == b.sigmas
    assert np.array_equal(a.covariance, b.covariance)
    assert a.residual_norm == b.residual_norm
    assert a.n_iterations == b.n_iterations


def test_joint_fit_total_cost_is_sum_of_dataset_costs():
    # Two datasets of five rows each, at 0 and at 1.
    y = np.repeat([0.0, 1.0], 5)
    problem = ResidualProblem(lambda p: p["c"] - y, jac=lambda p: np.ones((y.size, 1)),
                              sizes=[5, 5])
    result = joint_fit([problem], [ParamSpec("c", 0.2)], [[], []])
    # best shared constant is 0.5: per-dataset cost 5*0.25 each
    assert result.residual_norm**2 == pytest.approx(2.5, rel=1e-8)


def test_joint_fit_private_name_equal_to_shared_rejected():
    prob = ResidualProblem(lambda p: np.zeros(2), jac=lambda p: np.ones((2, 2)), sizes=[1, 1])
    with pytest.raises(ValidationError, match="'a'"):
        joint_fit([prob], [ParamSpec("a", 0.0)], [[ParamSpec("a", 0.0)]] * 2)


@pytest.mark.parametrize("n_private", [1, 3])
def test_joint_fit_private_lists_must_match_problems(n_private):
    prob = ResidualProblem(lambda p: np.array([p["a"] - 1.0, 0.0]),
                           jac=lambda p: np.array([[1.0], [0.0]]), sizes=[1, 1])
    with pytest.raises(ValidationError, match="private parameter lists"):
        joint_fit([prob], [ParamSpec("a", 0.0)], [[]] * n_private)


@pytest.mark.parametrize("count", [0, 2])
def test_joint_fit_takes_exactly_one_problem(count):
    prob = _decay_problem(0, True, False)
    with pytest.raises(ValidationError, match="sizes"):
        joint_fit([prob] * count, [], [_DECAY_SPECS] * count)


def test_evaluation_failure_at_initial_point():
    prob = ResidualProblem(lambda p: np.array([np.nan, 1.0]), jac=lambda p: np.ones((2, 1)))
    with pytest.raises(EvaluationFailure):
        lm_fit(prob, [ParamSpec("a", 1.0)])


def test_more_parameters_than_residuals_rejected():
    prob = ResidualProblem(lambda p: np.array([p["a"] + p["b"]]), jac=lambda p: np.ones((1, 2)))
    with pytest.raises(ValidationError):
        lm_fit(prob, [ParamSpec("a", 0.0), ParamSpec("b", 0.0)])


def test_nonconvergence_raises_when_requested(monkeypatch):
    t = np.linspace(0.0, 1.0, 20)
    y = np.exp(-3.0 * t)
    prob = ResidualProblem(lambda p: p["A"] * np.exp(-p["g"] * t) - y,
                           jac=lambda p: _decay_jac(t, p, ("A", "g")))
    specs = [ParamSpec("A", 5.0), ParamSpec("g", 40.0, "positive")]
    monkeypatch.setattr(fitkit, "_MAX_ITER", 1)
    flagged = lm_fit(prob, specs)
    assert flagged.n_iterations == 1
    assert not flagged.converged


def test_weights_must_be_positive_and_sized():
    x = np.arange(4.0)
    with pytest.raises(ValidationError):
        lm_fit(
            ResidualProblem(lambda p: p["a"] * x, weights=np.array([1.0, -1.0, 1.0, 1.0]),
                            jac=lambda p: x[:, None]),
            [ParamSpec("a", 1.0)],
        )
    with pytest.raises(ValidationError):
        lm_fit(
            ResidualProblem(lambda p: p["a"] * x, weights=np.ones(3), jac=lambda p: x[:, None]),
            [ParamSpec("a", 1.0)],
        )


def test_sigmas_match_covariance_diagonal():
    rng = np.random.default_rng(1)
    x = np.linspace(0.0, 1.0, 30)
    y = 2.0 * x + 1.0 + 0.05 * rng.standard_normal(30)
    result = lm_fit(
        ResidualProblem(lambda p: p["a"] * x + p["b"] - y, jac=lambda p: _line_jac(x)),
        [ParamSpec("a", 1.0), ParamSpec("b", 0.0)],
    )
    for i, name in enumerate(result.param_names):
        assert result.sigmas[name] == pytest.approx(
            float(np.sqrt(result.covariance[i, i])), rel=1e-12
        )
    eig = np.linalg.eigvalsh(result.covariance)
    assert np.all(eig >= -1e-15 * eig.max())


def test_covariance_entry_with_overflowing_scale_is_nan_without_warning():
    # d(a)/d(log a) = a = 1e160, so a's variance scale a**2 overflows, while
    # the residual never sees a (a dead column, as at a runaway tau).
    x = np.linspace(0.0, 1.0, 8)
    y = 2.0 * x + 1.0 + 0.01 * np.cos(7.0 * x)
    problem = ResidualProblem(lambda p: p["b"] * x + p["c"] - y + 0.0 * p["a"],
                              jac=lambda p: np.column_stack([np.zeros_like(x), _line_jac(x)]))
    specs = [ParamSpec("a", 1e160, "positive"), ParamSpec("b", 0.0), ParamSpec("c", 0.0)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = lm_fit(problem, specs)
        reference = lm_fit(ResidualProblem(lambda p: p["b"] * x + p["c"] - y,
                                           jac=lambda p: _line_jac(x)), specs[1:])
    assert not result.converged and result.diagnostics["rank_deficient"]
    assert np.isnan(result.sigmas["a"]) and np.isnan(result.covariance[0, 0])
    # Every entry whose scale stays finite keeps its value: zero for the dead
    # column, and for (b, c) the two-parameter fit's, rescaled from 6 to 5
    # degrees of freedom.
    assert np.array_equal(result.covariance[0, 1:], [0.0, 0.0])
    assert np.array_equal(result.covariance[1:, 0], [0.0, 0.0])
    assert result.covariance[1:, 1:] == pytest.approx(reference.covariance * 6 / 5, rel=1e-9)


def _differenced(fun, names):
    """A jac that differences fun centrally over the named parameters' values."""
    def jac(p):
        return numeric_jacobian(lambda v: fun(dict(zip(names, v))), [p[n] for n in names])
    return jac


def _decay_data(seed, weighted):
    """t, y = A exp(-g t) + B with noise, and weights or None."""
    rng = np.random.default_rng(seed)
    t = np.linspace(0.0, 1.0, 30)
    y = rng.uniform(0.5, 2.0) * np.exp(-rng.uniform(1.0, 4.0) * t) + 0.3
    y = y + 0.01 * rng.standard_normal(t.size)
    return t, y, rng.uniform(0.5, 2.0, t.size) if weighted else None


def _decay_problem(seed, with_jac, weighted, names=("A", "g", "B")):
    """_decay_data's residual; jac by names, closed-form or differenced."""
    t, y, weights = _decay_data(seed, weighted)

    def fun(p):
        return p["A"] * np.exp(-p["g"] * t) + p["B"] - y

    def jac(p):
        return _decay_jac(t, p, names)

    return ResidualProblem(fun, weights, jac if with_jac else _differenced(fun, names))


_DECAY_SPECS = [ParamSpec("A", 1.0), ParamSpec("g", 1.5, "positive"),
                ParamSpec("B", 0.5, "bounded", lo=-1.0, hi=2.0)]


def _assert_same_fit(a, b):
    assert a.n_iterations == b.n_iterations
    assert a.converged == b.converged
    assert a.param_names == b.param_names
    for name in a.param_names:
        assert a.params[name] == pytest.approx(b.params[name], rel=1e-8)
        assert a.sigmas[name] == pytest.approx(b.sigmas[name], rel=1e-6)


@pytest.mark.parametrize("weighted", [False, True])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_lm_fit_with_jac_matches_numeric(seed, weighted):
    _assert_same_fit(lm_fit(_decay_problem(seed, True, weighted), _DECAY_SPECS),
                     lm_fit(_decay_problem(seed, False, weighted), _DECAY_SPECS))


def _decay_batch(data, with_jac):
    """One batch of _decay_data sets: g shared, A and B private; jac closed-form or differenced.

    An unweighted set's rows get weight 1 when another set is weighted.
    """
    k, sizes = len(data), [ti.size for ti, _, _ in data]
    seg, rows = _segment_rows(sizes), np.arange(sum(sizes))
    t = np.concatenate([ti for ti, _, _ in data])
    y = np.concatenate([yi for _, yi, _ in data])
    weights = None if all(w is None for _, _, w in data) else np.concatenate(
        [np.ones(ti.size) if w is None else w for ti, _, w in data])

    def fun(p):
        return p["A"][seg] * np.exp(-p["g"] * t) + p["B"][seg] - y

    def jac(p):
        e = np.exp(-p["g"] * t)
        return np.column_stack([-p["A"][seg] * t * e, e, np.ones_like(t)])

    def differenced(p):
        full = numeric_jacobian(lambda v: fun({"g": v[0], "A": v[1:k + 1], "B": v[k + 1:]}),
                                np.r_[p["g"], p["A"], p["B"]])
        return np.column_stack([full[:, 0], full[rows, 1 + seg], full[rows, 1 + k + seg]])

    return ResidualProblem(fun, weights, jac if with_jac else differenced, sizes)


@pytest.mark.parametrize("seed", [0, 1])
def test_joint_fit_with_jac_matches_numeric(seed):
    # g shared; A and B private; weights on every other dataset; the local
    # column order is shared then private.
    shared, private = _DECAY_SPECS[1:2], [[_DECAY_SPECS[0], _DECAY_SPECS[2]]] * 3
    data = [_decay_data(10 * seed + j, j % 2 == 0) for j in range(3)]
    _assert_same_fit(joint_fit([_decay_batch(data, True)], shared, private),
                     joint_fit([_decay_batch(data, False)], shared, private))


def test_problem_without_jac_rejected():
    prob = _decay_problem(0, True, False)
    with pytest.raises(ValidationError, match="no jac"):
        lm_fit(ResidualProblem(prob.fun, prob.weights), _DECAY_SPECS)
    with pytest.raises(ValidationError, match="the problem has no jac"):
        joint_fit([ResidualProblem(prob.fun)], [], [_DECAY_SPECS])


def test_jac_of_wrong_shape_rejected():
    good = _decay_problem(0, True, False)
    bad = ResidualProblem(good.fun, jac=lambda p: good.jac(p)[:, :2])
    with pytest.raises(ValidationError, match="shape"):
        lm_fit(bad, _DECAY_SPECS)


def test_non_finite_jac_is_evaluation_failure():
    good = _decay_problem(0, True, False)
    bad = ResidualProblem(good.fun, jac=lambda p: good.jac(p) * np.nan)
    with pytest.raises(EvaluationFailure):
        lm_fit(bad, _DECAY_SPECS)


def test_trial_never_passes_zero_to_positive_parameter():
    # r = a - target with a unreachable negative target: the first
    # Gauss-Newton step in log(a) is about -1000, below exp's underflow.
    seen = []

    def fun(p):
        seen.append(float(p["a"]))
        assert p["a"] > 0.0, "positive parameter reached the evaluator as 0"
        return np.array([p["a"] + 1000.0, 0.0])

    result = lm_fit(ResidualProblem(fun, jac=lambda p: np.array([[1.0], [0.0]])),
                    [ParamSpec("a", 1.0, "positive")])
    assert min(seen) > 0.0
    assert result.params["a"] > 0.0


def test_diagnostics_are_deterministic_counters():
    prob = _decay_problem(0, True, True)
    a, b = lm_fit(prob, _DECAY_SPECS), lm_fit(prob, _DECAY_SPECS)
    assert a.diagnostics == b.diagnostics
    assert "lambda" not in a.diagnostics
    assert a.diagnostics["n_jac"] == a.n_iterations + 1
    # the start point, then at least one trial per accepted step
    assert a.diagnostics["n_fev"] >= len(a.diagnostics["cost_path"])


def test_one_dataset_normal_equations_are_the_blas_products():
    # A one-dataset problem keeps J^T J = block.T @ block bit-for-bit, so
    # single-dataset fits round as they always have.
    stack = _Stacked(_decay_problem(0, True, True), [], [_DECAY_SPECS])
    t, residual = _start(stack)
    r = residual(t)
    block = stack._block(t, stack.external(t))
    jtj, jtr = stack.normal_equations(t, r)
    assert np.array_equal(jtj, block.T @ block)
    assert np.array_equal(jtr, block.T @ r)


def _segment_rows(sizes):
    return np.repeat(np.arange(len(sizes)), sizes)


def _random_batch(seed, sizes, n_shared, n_private, weighted):
    """One batched problem over len(sizes) datasets: smooth residuals and their jac."""
    rng = np.random.default_rng(seed)
    shared = [ParamSpec(f"s{k}", float(rng.uniform(0.5, 2.0)), "positive")
              for k in range(n_shared)]
    private = [[ParamSpec(f"p{k}", float(rng.normal())) for k in range(n_private)]
               for _ in sizes]
    names = [s.name for s in shared] + [s.name for s in private[0]]
    seg = _segment_rows(sizes)
    a = rng.normal(size=(seg.size, len(names)))
    x = rng.uniform(-1.0, 1.0, seg.size)

    def rows(p):
        return np.column_stack([np.broadcast_to(p[name], seg.shape) if k < n_shared
                                else p[name][seg] for k, name in enumerate(names)])

    def fun(p):
        v = rows(p)
        return np.sin((a * v).sum(1) + x) * (1.0 + (a**2 * v**2).sum(1))

    def jac(p):
        v = rows(p)
        u = (a * v).sum(1) + x
        q = 1.0 + (a**2 * v**2).sum(1)
        return np.cos(u)[:, None] * a * q[:, None] + np.sin(u)[:, None] * 2.0 * a**2 * v

    weights = rng.uniform(0.5, 2.0, seg.size) if weighted else None
    return ResidualProblem(fun, weights, jac, sizes=list(sizes)), shared, private


@settings(deadline=None, max_examples=60)
@given(st.integers(0, 2**32 - 1), st.lists(st.integers(1, 8), min_size=1, max_size=6),
       st.integers(0, 2), st.integers(1, 2), st.booleans())
def test_segment_sum_normal_equations_match_dense(dense_jacobian, seed, sizes, n_shared,
                                                  n_private, weighted):
    problem, shared, private = _random_batch(seed, sizes, n_shared, n_private, weighted)
    stack = _Stacked(problem, shared, private)
    t, residual = _start(stack)
    r = residual(t)
    jtj, jtr = stack.normal_equations(t, r)
    dense = dense_jacobian(stack, t)
    scale = np.abs(dense).sum(axis=0)
    np.testing.assert_allclose(jtj, dense.T @ dense, rtol=0.0,
                               atol=1e-13 * np.outer(scale, scale).max())
    np.testing.assert_allclose(jtr, dense.T @ r, rtol=0.0,
                               atol=1e-13 * scale.max() * np.abs(r).max())


def _decay_sets(seed, lengths):
    rng = np.random.default_rng(seed)
    out = []
    for n in lengths:
        t = np.linspace(0.0, 1.0, n)
        y = rng.uniform(0.5, 2.0) * np.exp(-2.5 * t) + 0.3 + 0.01 * rng.standard_normal(n)
        out.append((t, y))
    return out


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_batch_matches_single_dataset_problems(seed):
    # y_k = A_k exp(-g t) + B: g and B shared, A private, unequal lengths.
    # The reference fits the same rows as one dataset whose parameters are
    # all shared, with the dense Jacobian.
    sets = _decay_sets(seed, [12, 30, 7, 21])
    shared = [ParamSpec("g", 1.0, "positive"), ParamSpec("B", 0.0)]
    private = [[ParamSpec("A", 1.0)] for _ in sets]
    seg = _segment_rows([t.size for t, _ in sets])
    t_all = np.concatenate([t for t, _ in sets])
    y_all = np.concatenate([y for _, y in sets])
    amplitudes = [f"A[{k}]" for k in range(len(sets))]

    def fun(p):
        return p["A"][seg] * np.exp(-p["g"] * t_all) + p["B"] - y_all

    def jac(p):
        e = np.exp(-p["g"] * t_all)
        return np.column_stack([-p["A"][seg] * t_all * e, np.ones_like(t_all), e])

    def batched(p):
        return {"g": p["g"], "B": p["B"], "A": np.array([p[name] for name in amplitudes])}

    def dense_jac(p):
        dense = np.zeros((seg.size, 2 + len(sets)))
        columns = jac(batched(p))
        dense[:, :2] = columns[:, :2]
        dense[np.arange(seg.size), 2 + seg] = columns[:, 2]
        return dense

    batch = ResidualProblem(fun, jac=jac, sizes=[t.size for t, _ in sets])
    a = joint_fit([batch], shared, private)
    b = joint_fit([ResidualProblem(lambda p: fun(batched(p)), jac=dense_jac)],
                  shared + [ParamSpec(name, 1.0) for name in amplitudes], [[]])
    assert a.converged and b.converged
    assert a.n_iterations == b.n_iterations
    assert a.param_names == b.param_names
    for name in a.param_names:
        assert a.params[name] == pytest.approx(b.params[name], rel=1e-10)


def test_batch_without_jac_rejected():
    problem, shared, private = _random_batch(0, [3, 4], 1, 1, False)
    with pytest.raises(ValidationError, match="jac"):
        joint_fit([ResidualProblem(problem.fun, sizes=[3, 4])], shared, private)


def test_batch_private_lists_must_agree_in_names():
    problem, shared, private = _random_batch(0, [3, 4], 1, 1, False)
    with pytest.raises(ValidationError, match="different names"):
        joint_fit([problem], shared, [private[0], [ParamSpec("q0", 0.0)]])


@pytest.mark.parametrize("sizes", [[], [3, 0]])
def test_batch_sizes_must_be_positive(sizes):
    problem, shared, private = _random_batch(0, [3, 4], 1, 1, False)
    with pytest.raises(ValidationError):
        joint_fit([ResidualProblem(problem.fun, jac=problem.jac, sizes=sizes)], shared,
                  private[:len(sizes)])
