"""Gradient verification across every model variant.

Runs the finite-difference checker over all parameter groups of each of the
ten RGB-stream cells (five conditionings, temporal attention on and off)
plus the pose stream, at tiny dimensions.  Any failing parameter is
reported by name.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .gradcheck import grad_check_params
from .model import CONDITIONINGS, PoseStream, RgbStream, WindowBatch
from .tensor import Tensor


@dataclass
class TinyDims:
    batch: int = 2
    n_frames: int = 3
    feat_dim: int = 4
    rgb_hidden: int = 5
    pose_hidden: int = 5
    pose_joints: int = 2
    n_classes: int = 2
    attn_hidden: int = 6
    temporal_hidden: int = 4

    @property
    def pose_dim(self) -> int:
        return 2 * self.pose_joints * 3


@dataclass
class GradCheckCell:
    name: str
    passed: bool
    max_rel_error: float
    worst_param: str
    n_params: int
    failures: list[tuple[str, float]] = field(default_factory=list)


def _tiny_batch(dims: TinyDims, rng: np.random.Generator) -> WindowBatch:
    """Windows that start one frame apart in one table, so they share frames."""
    b, t = dims.batch, dims.n_frames
    rows = b - 1 + t
    return WindowBatch(
        pose_raw=rng.normal(size=(rows, dims.pose_dim)),
        pose_aug=rng.normal(size=(rows, 3 * dims.pose_dim)),
        motion=np.abs(rng.normal(size=(rows, 2))),
        hand_mask=np.ones((rows, 4)),
        frames=np.arange(b)[:, None] + np.arange(t),
        labels=rng.integers(0, dims.n_classes, size=b),
        features=rng.normal(size=(rows, 4, dims.feat_dim)),
    )


def check_rgb_cell(
    conditioning: str,
    use_temporal: bool,
    dims: TinyDims,
    eps: float = 1e-5,
    tol: float = 1e-5,
    seed: int = 0,
) -> GradCheckCell:
    rng = np.random.default_rng([seed, 1])
    stream = RgbStream(
        rng=rng,
        conditioning=conditioning,
        use_temporal=use_temporal,
        n_frames=dims.n_frames,
        feat_dim=dims.feat_dim,
        pose_aug_dim=3 * dims.pose_dim,
        hidden_dim=dims.rgb_hidden,
        n_classes=dims.n_classes,
        attn_hidden=dims.attn_hidden,
        temporal_hidden=dims.temporal_hidden,
        dropout_rate=0.0,
    )
    _shake_zero_params(stream.parameters(), rng)
    batch = _tiny_batch(dims, np.random.default_rng([seed, 2]))
    name = conditioning + ("+ta" if use_temporal else "")
    return _check_stream(name, stream, batch, eps, tol)


def check_pose_cell(
    dims: TinyDims, eps: float = 1e-5, tol: float = 1e-5, seed: int = 0
) -> GradCheckCell:
    rng = np.random.default_rng([seed, 3])
    stream = PoseStream(
        rng=rng,
        pose_dim=dims.pose_dim,
        hidden_dim=dims.pose_hidden,
        n_layers=3,
        n_classes=dims.n_classes,
        dropout_rate=0.0,
    )
    _shake_zero_params(stream.parameters(), rng)
    batch = _tiny_batch(dims, np.random.default_rng([seed, 4]))
    return _check_stream("pose_stream", stream, batch, eps, tol)


def _shake_zero_params(params: dict[str, Tensor], rng: np.random.Generator) -> None:
    """Move all-zero parameters (attention heads, biases) to small random values.

    The checker's contract needs a generic differentiable point; at the
    equal-attention zero init, a zero initial hidden state puts ReLU inputs
    exactly on the kink, where central differences legitimately disagree
    with the subgradient.
    """
    for p in params.values():
        if not p.data.any():
            p.data = 0.3 * rng.normal(size=p.data.shape)


def _check_stream(name: str, stream, batch: WindowBatch, eps: float, tol: float) -> GradCheckCell:
    params = stream.parameters()

    def f() -> Tensor:
        return stream.loss(stream.forward(batch, training=False), batch.labels)

    results = grad_check_params(f, params, eps=eps, tol=tol)
    worst = max(results, key=lambda k: results[k].max_rel_error)
    failures = [(k, r.max_rel_error) for k, r in results.items() if not r.passed]
    return GradCheckCell(
        name=name,
        passed=not failures,
        max_rel_error=results[worst].max_rel_error,
        worst_param=worst,
        n_params=sum(r.n_coords for r in results.values()),
        failures=failures,
    )


def run_gradcheck(
    dims: TinyDims | None = None, eps: float = 1e-5, tol: float = 1e-5, seed: int = 0
) -> list[GradCheckCell]:
    """All ten variant cells plus the pose stream."""
    dims = dims or TinyDims()
    cells = [
        check_rgb_cell(cond, ta, dims, eps=eps, tol=tol, seed=seed)
        for cond in CONDITIONINGS
        for ta in (False, True)
    ]
    cells.append(check_pose_cell(dims, eps=eps, tol=tol, seed=seed))
    return cells


def format_report(cells: list[GradCheckCell]) -> str:
    lines = [f"{'cell':<12}{'params':>8}{'max rel err':>14}  worst"]
    for c in cells:
        status = "pass" if c.passed else "FAIL"
        lines.append(
            f"{c.name:<12}{c.n_params:>8}{c.max_rel_error:>14.3e}  {c.worst_param} [{status}]"
        )
        for pname, err in c.failures:
            lines.append(f"    FAIL {pname}: {err:.3e}")
    return "\n".join(lines)
