"""Gradient verification across every model variant.

Runs the finite-difference checker over all parameter groups of each of the
ten RGB-stream cells (five conditionings, temporal attention on and off)
plus the pose stream, at tiny dimensions.  Any failing parameter is
reported by name.  The cells share nothing, so ``run_gradcheck`` spreads
them over the CPUs this process may use; each cell's result is the same
wherever it runs.
"""
from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from .gradcheck import grad_check_params
from .model import CONDITIONINGS, PoseStream, RgbStream, WindowBatch
from .tensor import Tensor, usable_cpus
from .training import ModelDims, RunConfig, build_pose_stream, build_rgb_stream


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
    seconds: float = 0.0  # wall time of the cell, in the process that ran it


# The 11 cells in report order: ten RGB cells as (conditioning, temporal
# attention), then the pose stream as None.
CELLS: tuple[tuple[str, bool] | None, ...] = (
    *((cond, ta) for cond in CONDITIONINGS for ta in (False, True)),
    None,
)


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
    t0 = perf_counter()
    rng = np.random.default_rng([seed, 1])
    stream = _stream((conditioning, use_temporal), dims, rng)
    _shake_zero_params(stream.parameters(), rng)
    batch = _tiny_batch(dims, np.random.default_rng([seed, 2]))
    name = conditioning + ("+ta" if use_temporal else "")
    return _check_stream(name, stream, batch, eps, tol, t0)


def check_pose_cell(
    dims: TinyDims, eps: float = 1e-5, tol: float = 1e-5, seed: int = 0
) -> GradCheckCell:
    t0 = perf_counter()
    rng = np.random.default_rng([seed, 3])
    stream = _stream(None, dims, rng)
    _shake_zero_params(stream.parameters(), rng)
    batch = _tiny_batch(dims, np.random.default_rng([seed, 4]))
    return _check_stream("pose_stream", stream, batch, eps, tol, t0)


def check_cell(
    cell: tuple[str, bool] | None,
    dims: TinyDims,
    eps: float = 1e-5,
    tol: float = 1e-5,
    seed: int = 0,
) -> GradCheckCell:
    """One entry of ``CELLS``; module-level, so a process pool can pickle it."""
    if cell is None:
        return check_pose_cell(dims, eps=eps, tol=tol, seed=seed)
    conditioning, use_temporal = cell
    return check_rgb_cell(conditioning, use_temporal, dims, eps=eps, tol=tol, seed=seed)


def _stream(cell: tuple[str, bool] | None, dims: TinyDims, rng: np.random.Generator) -> RgbStream | PoseStream:
    """The stream of one entry of ``CELLS`` at ``dims``, without dropout,
    built as training builds it."""
    conditioning, use_temporal = cell or ("pose", True)
    config = RunConfig(
        conditioning=conditioning,
        use_temporal=use_temporal,
        rgb_hidden=dims.rgb_hidden,
        pose_hidden=dims.pose_hidden,
        attn_hidden=dims.attn_hidden,
        temporal_hidden=dims.temporal_hidden,
        dropout=0.0,
    )
    model_dims = ModelDims(dims.pose_dim, dims.n_classes, dims.feat_dim, clip_len=dims.n_frames)
    build = build_pose_stream if cell is None else build_rgb_stream
    return build(config, model_dims, rng)


def _n_params(cell: tuple[str, bool] | None, dims: TinyDims) -> int:
    stream = _stream(cell, dims, np.random.default_rng(0))
    return sum(p.data.size for p in stream.parameters().values())


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


def _check_stream(
    name: str, stream, batch: WindowBatch, eps: float, tol: float, t0: float
) -> GradCheckCell:
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
        seconds=perf_counter() - t0,
    )


def gradcheck_workers() -> int:
    """Processes ``run_gradcheck`` uses: the CPUs this process may run on,
    at most one per cell."""
    return min(usable_cpus(), len(CELLS))


def run_gradcheck(
    dims: TinyDims | None = None, eps: float = 1e-5, tol: float = 1e-5, seed: int = 0
) -> list[GradCheckCell]:
    """All ten variant cells plus the pose stream, in ``CELLS`` order.

    With more than one CPU the cells run in a process pool, the largest (by
    parameter count) submitted first.  Each job is a ``check_cell`` call with
    its own arguments, so it returns what the call returns in-process.  With
    one CPU the cells run in this process, one after another.
    """
    dims = dims or TinyDims()
    workers = gradcheck_workers()
    if workers == 1:
        return [check_cell(cell, dims, eps, tol, seed) for cell in CELLS]
    largest_first = sorted(CELLS, key=lambda cell: _n_params(cell, dims), reverse=True)
    # The platform's default start method: on Linux a fork, which checked
    # 5-18% more coordinates per second than spawn on a 2-CPU machine.
    with ProcessPoolExecutor(max_workers=workers) as pool:
        jobs = {cell: pool.submit(check_cell, cell, dims, eps, tol, seed) for cell in largest_first}
        try:
            return [jobs[cell].result() for cell in CELLS]
        except BaseException:
            pool.shutdown(cancel_futures=True)  # do not wait for cells not yet started
            raise


def format_report(cells: list[GradCheckCell]) -> str:
    lines = [f"{'cell':<12}{'params':>8}{'max rel err':>14}{'seconds':>9}  worst"]
    for c in cells:
        status = "pass" if c.passed else "FAIL"
        lines.append(
            f"{c.name:<12}{c.n_params:>8}{c.max_rel_error:>14.3e}{c.seconds:>9.3f}  {c.worst_param} [{status}]"
        )
        for pname, err in c.failures:
            lines.append(f"    FAIL {pname}: {err:.3e}")
    return "\n".join(lines)
