import numpy as np
import pytest

from poseattn import tensor as T
from poseattn.gradcheck import grad_check, grad_check_params
from poseattn.nn import gru_cell_step, gru_init
from poseattn.tensor import GraphError, Tensor


def test_square_passes():
    res = grad_check(lambda x: T.sum_axis(T.multiply(x, x)), Tensor([3.0]), eps=1e-5)
    assert res.passed
    assert res.max_rel_error < 1e-6  # analytic 6 vs numeric 6 +- 1e-6


def test_gru_cell_step_passes_tightly():
    rng = np.random.default_rng(5)
    cell = gru_init(rng, input_dim=8, hidden_dim=8)
    h = Tensor(rng.normal(size=(1, 8)))
    x = Tensor(rng.normal(size=(1, 8)))
    params = cell.named("gru")

    def f():
        return T.sum_axis(gru_cell_step(cell, h, x))

    results = grad_check_params(f, params, eps=1e-5, tol=1e-6)
    errors = {name: r.max_rel_error for name, r in results.items()}
    assert max(errors.values()) < 1e-6, errors


def test_unused_parameter_reports_zero_gradient():
    used = Tensor([2.0], requires_grad=True)
    unused = Tensor([5.0], requires_grad=True)

    def f():
        return T.sum_axis(T.multiply(used, used))

    results = grad_check_params(f, {"used": used, "unused": unused})
    assert results["unused"].passed
    assert results["unused"].max_rel_error == 0.0


def test_eps_range_is_validated():
    with pytest.raises(ValueError, match="eps"):
        grad_check(lambda x: T.sum_axis(x), Tensor([1.0]), eps=1e-9)
    with pytest.raises(ValueError, match="eps"):
        grad_check(lambda x: T.sum_axis(x), Tensor([1.0]), eps=1e-2)


def test_non_scalar_function_rejected():
    with pytest.raises(GraphError, match="scalar"):
        grad_check(lambda x: T.multiply(x, x), Tensor([1.0, 2.0]))


def test_failure_is_reported_not_raised():
    # relu at exactly 0: the subgradient is 0 but central differences see the
    # average slope 0.5, so the checker must report a failure, not raise.
    x = Tensor([0.0])
    res = grad_check(lambda v: T.sum_axis(T.relu(v)), x)
    assert not res.passed
    assert res.max_rel_error >= 0.5


def test_does_not_mutate_input_values():
    x = Tensor([1.0, -2.0, 3.0])
    before = x.data.copy()
    grad_check(lambda v: T.sum_axis(T.multiply(v, v)), x)
    assert np.array_equal(x.data, before)
