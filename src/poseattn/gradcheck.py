"""Central finite-difference verification of tape gradients.

The checker is the independent oracle for every adjoint in the library:
it replays a scalar-valued function with per-coordinate +/-eps probes and
compares against one taped backward pass.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np

from .tensor import GraphError, Tape, Tensor


@dataclass
class GradCheckResult:
    """Outcome of one analytic-vs-numeric comparison."""

    max_rel_error: float
    passed: bool
    n_coords: int
    eps: float
    tol: float


EPS_RANGE = (1e-7, 1e-3)  # probe sizes the checker supports


def _validate_eps(eps: float) -> None:
    if not EPS_RANGE[0] <= eps <= EPS_RANGE[1]:
        raise ValueError(f"eps {eps} outside the supported range [{EPS_RANGE[0]:g}, {EPS_RANGE[1]:g}]")


def _rel_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    denom = np.maximum(1.0, np.maximum(np.abs(analytic), np.abs(numeric)))
    err = np.abs(analytic - numeric) / denom
    return float(err.max()) if err.size else 0.0


def grad_check(
    f: Callable[[Tensor], Tensor],
    x: Tensor,
    eps: float = 1e-5,
    tol: float = 1e-5,
) -> GradCheckResult:
    """Compare the taped gradient of scalar ``f`` at ``x`` to central differences."""
    _validate_eps(eps)
    leaf = Tensor(x.data.copy(), requires_grad=True)
    result = grad_check_params(lambda: f(leaf), {"x": leaf}, eps=eps, tol=tol)
    return result["x"]


def grad_check_params(
    f: Callable[[], Tensor],
    params: Mapping[str, Tensor],
    eps: float = 1e-5,
    tol: float = 1e-5,
) -> dict[str, GradCheckResult]:
    """Check the gradient of scalar ``f()`` with respect to every named parameter.

    One taped backward supplies all analytic gradients; the numeric side
    perturbs each parameter coordinate in place (and restores it), running
    ``f`` in forward-only mode.
    """
    _validate_eps(eps)
    with Tape() as tape:
        y = f()
        if y.data.shape != ():
            raise GraphError(f"grad_check: f must return a scalar, got shape {y.data.shape}")
    tape.backward(y)
    analytic = {
        name: (p.grad.copy() if p.grad is not None else np.zeros_like(p.data))
        for name, p in params.items()
    }
    for p in params.values():
        p.grad = None

    results: dict[str, GradCheckResult] = {}
    for name, p in params.items():
        # .flat mutates in place for any memory layout; a reshape view would
        # silently copy when the buffer is non-contiguous.
        flat = p.data.flat
        numeric = np.zeros(p.data.size)
        for i in range(p.data.size):
            orig = flat[i]
            flat[i] = orig + eps
            hi = float(f().data)
            flat[i] = orig - eps
            lo = float(f().data)
            flat[i] = orig
            numeric[i] = (hi - lo) / (2.0 * eps)
        err = _rel_error(analytic[name].reshape(-1), numeric)
        results[name] = GradCheckResult(
            max_rel_error=err, passed=err < tol, n_coords=p.data.size, eps=eps, tol=tol
        )
    return results
