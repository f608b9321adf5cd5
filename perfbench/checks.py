"""Correctness checks on the program's outputs.

Each check tests a property of the method or compares against a separate
computation made here; none compares against a stored copy of earlier
output.  A check returns a list of problems, empty when it passes.
"""
from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from poseattn.model import ATTENTION_CONDITIONINGS, N_HAND_SLOTS
from poseattn.pose import eval_window_starts, window_indices
from poseattn.tensor import Tape
from poseattn import training

# Central differences along one unit direction in float64: truncation and
# round-off both stay near 1e-9 at eps 1e-5, so 1e-6 leaves a wide margin
# while an adjoint bug shows as an error of order one.
DIRECTIONAL_EPS = 1e-5
DIRECTIONAL_TOL = 1e-6
SIMPLEX_TOL = 1e-12
GRADCHECK_TOL = 1e-5


def first_window_batch(prepared: dict, ids: list[str], clip_len: int):
    """One window per sequence: the first window of the eval protocol."""
    samples = [prepared[i] for i in ids]
    windows = [
        window_indices(s.length, eval_window_starts(s.length, clip_len)[0], clip_len)
        for s in samples
    ]
    return training.make_batch(samples, windows)


def directional_gradient(label: str, stream, batch, rng: np.random.Generator) -> list[str]:
    """Taped <grad L, d> against (L(theta + eps d) - L(theta - eps d)) / 2 eps,
    for one random unit direction d over all parameters, eval-mode forward."""
    params = stream.parameters()
    direction = {k: rng.normal(size=p.data.shape) for k, p in params.items()}
    norm = math.sqrt(sum(float((d * d).sum()) for d in direction.values()))

    def loss():
        return stream.loss(stream.forward(batch, training=False), batch.labels)

    with Tape() as tape:
        taped = loss()
    tape.backward(taped)
    analytic = sum(
        float((p.grad * direction[k]).sum()) for k, p in params.items() if p.grad is not None
    ) / norm
    saved = {k: p.data for k, p in params.items()}
    try:
        for k, p in params.items():
            p.grad = None
            p.data = saved[k] + (DIRECTIONAL_EPS / norm) * direction[k]
        hi = float(loss().data)
        for k, p in params.items():
            p.data = saved[k] - (DIRECTIONAL_EPS / norm) * direction[k]
        lo = float(loss().data)
    finally:
        for k, p in params.items():
            p.data = saved[k]
    numeric = (hi - lo) / (2 * DIRECTIONAL_EPS)
    err = abs(analytic - numeric) / max(1.0, abs(analytic), abs(numeric))
    if not err < DIRECTIONAL_TOL:
        return [f"{label}: directional derivative {analytic!r} taped, {numeric!r} numeric (rel err {err:.2e})"]
    return []


def uniform_attention(label: str, out, clip_len: int) -> list[str]:
    """At initialization every spatial distribution is exactly 1/4 and every
    temporal one exactly 1/clip_len (zero-initialized output layers)."""
    problems = []
    if out.spatial_attention is not None and not np.all(out.spatial_attention.data == 1.0 / N_HAND_SLOTS):
        problems.append(f"{label}: spatial attention at init is not exactly uniform")
    if out.temporal_attention is not None and not np.all(out.temporal_attention.data == 1.0 / clip_len):
        problems.append(f"{label}: temporal attention at init is not exactly uniform")
    return problems


def expects_attention(conditioning: str, use_temporal: bool, out) -> list[str]:
    """The stream returns exactly the distributions its configuration implies."""
    spatial = conditioning in ATTENTION_CONDITIONINGS
    if (out.spatial_attention is not None) != spatial or (out.temporal_attention is not None) != use_temporal:
        return [f"{conditioning}/ta={use_temporal}: attention outputs do not match the configuration"]
    return []


def simplex(label: str, p: np.ndarray | None) -> list[str]:
    """Every distribution (last axis) is non-negative and sums to one."""
    if p is None:
        return []
    p = np.asarray(p, dtype=np.float64)
    if p.size == 0 or np.any(p < 0) or np.max(np.abs(p.sum(axis=-1) - 1.0)) > SIMPLEX_TOL:
        return [f"{label}: attention is not a distribution"]
    return []


def trained_attention(label: str, out) -> list[str]:
    """Both distributions of one forward, where the stream has them."""
    spatial = None if out.spatial_attention is None else out.spatial_attention.data
    temporal = None if out.temporal_attention is None else out.temporal_attention.data
    return simplex(f"{label} spatial", spatial) + simplex(f"{label} temporal", temporal)


def attention_dump(path: Path, n_expected: int, conditioning: str, temporal: bool, clip_len: int) -> list[str]:
    """The JSON-lines attention dump: one record per sequence, each a distribution."""
    spatial = conditioning in ATTENTION_CONDITIONINGS
    lines = path.read_text().splitlines()
    problems = [] if len(lines) == n_expected else [f"{path.name}: {len(lines)} records, expected {n_expected}"]
    for line in lines:
        rec = json.loads(line)
        p, pp = rec["p"], rec["p_prime"]
        if (p is not None) != spatial or (pp is not None) != temporal:
            problems.append(f"{path.parent.name}: dump carries the wrong attention fields")
            break
        wrong_p = p is not None and np.shape(p) != (clip_len, N_HAND_SLOTS)
        if wrong_p or (pp is not None and len(pp) != clip_len):
            problems.append(f"{path.parent.name}: dump attention has the wrong shape")
            break
        problems += simplex(f"{path.parent.name} dump", p) + simplex(f"{path.parent.name} dump", pp)
    return problems


def accuracy(logits: np.ndarray, labels: np.ndarray) -> float:
    return float((logits.argmax(axis=1) == labels).mean())


def bitwise(label: str, a: np.ndarray, b: np.ndarray) -> list[str]:
    if a.shape != b.shape or a.tobytes() != b.tobytes():
        return [f"{label}: logits differ"]
    return []


def rgb_param_count(conditioning: str, use_temporal: bool, *, feat: int, hidden: int, pose_aug: int,
                    attn: int, temporal: int, frames: int, classes: int) -> int:
    """Parameter coordinates of an RGB stream, counted from the architecture."""
    n = 0
    if conditioning in ATTENTION_CONDITIONINGS:
        cond = {"pose": pose_aug, "hidden": hidden, "both": pose_aug + hidden}[conditioning]
        n += cond * attn + attn + attn * N_HAND_SLOTS + N_HAND_SLOTS
    gru_in = N_HAND_SLOTS * feat if conditioning == "concat" else feat
    n += 3 * (gru_in * hidden + hidden * hidden + hidden)
    if use_temporal:
        n += 2 * frames * temporal + temporal + temporal * frames + frames
    return n + hidden * classes + classes


def pose_param_count(*, pose: int, hidden: int, layers: int, classes: int) -> int:
    n = sum(3 * ((pose if i == 0 else hidden) * hidden + hidden * hidden + hidden) for i in range(layers))
    return n + hidden * classes + classes
