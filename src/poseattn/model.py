"""Two-stream sequence classifier with pose-conditioned attention.

The RGB stream runs, per frame: stored glimpse features of up to 4 hand slots,
spatial attention over the slots (conditioned on the recurrent hidden
state, the augmented pose, or both; sum/concat integration as baselines),
a GRU over the resulting context vectors, and either motion-conditioned
temporal attention pooling of the hidden states or per-step classification.
The pose stream is a stacked GRU over raw pose vectors with per-step
classification.  Streams fuse by summing logits.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .nn import (
    GruStack,
    Linear,
    Mlp,
    cross_entropy,
    dropout,
    gru_cell_step,
    gru_init,
    gru_stack_init,
    linear_init,
    mlp_init,
)
from .tensor import ShapeError, Tensor

ATTENTION_CONDITIONINGS = ("hidden", "pose", "both")
# What each attention conditioning feeds the attention network.  Only those
# that read the hidden state make the GRU input depend on the recurrence.
POSE_CONDITIONINGS = ("pose", "both")
HIDDEN_CONDITIONINGS = ("hidden", "both")
BASELINE_INTEGRATIONS = ("sum", "concat")
CONDITIONINGS = ATTENTION_CONDITIONINGS + BASELINE_INTEGRATIONS

N_HAND_SLOTS = 4

_MASK_BIAS = -1e9


@dataclass
class WindowBatch:
    """One minibatch of fixed-length windows, already indexed out of sequences."""

    pose_raw: np.ndarray  # (B, T, P)
    pose_aug: np.ndarray  # (B, T, 3P)
    motion: np.ndarray  # (B, T, 2)
    hand_mask: np.ndarray  # (B, T, 4) float 0/1
    labels: np.ndarray  # (B,)
    features: np.ndarray | None = None  # (B, T, 4, D)

    @property
    def batch_size(self) -> int:
        return self.pose_raw.shape[0]

    @property
    def n_frames(self) -> int:
        return self.pose_raw.shape[1]


@dataclass
class StreamOutput:
    """Forward results for one stream over one batch of windows."""

    logits: Tensor  # (B, C) sequence-level logits
    hidden_states: Tensor  # (B, T, hidden)
    per_step_logits: Tensor | None = None  # (B, T, C) when not attention-pooled
    spatial_attention: Tensor | None = None  # (B, T, 4)
    temporal_attention: Tensor | None = None  # (B, T)


def spatial_attention_weights(
    attn: Mlp,
    cond: str,
    pose_aug_t: Tensor,
    h_prev: Tensor,
    mask_t: np.ndarray | None = None,
    dropout_rate: float = 0.0,
    rng: np.random.Generator | None = None,
    training: bool = False,
) -> Tensor:
    """Softmax weights over the 4 hand slots for one frame."""
    if cond not in ATTENTION_CONDITIONINGS:
        raise ValueError(f"conditioning {cond!r} does not use an attention network")
    parts = [pose_aug_t] if cond in POSE_CONDITIONINGS else []
    if cond in HIDDEN_CONDITIONINGS:
        parts.append(h_prev)
    x = parts[0] if len(parts) == 1 else T.concat(parts, axis=1)
    logits = attn(x, dropout_rate=dropout_rate, rng=rng, training=training)
    if mask_t is not None:
        logits = T.add(logits, Tensor((1.0 - mask_t) * _MASK_BIAS))
    return T.softmax(logits)


def context_vector(v_t: Tensor, p_t: Tensor) -> Tensor:
    """Attention-weighted combination of hand features: rows of V_t mixed by p_t."""
    b, slots, d = v_t.shape
    if p_t.shape != (b, slots):
        raise ShapeError(f"attention shape {p_t.shape} does not match features {v_t.shape}")
    mixed = T.matmul(T.reshape(p_t, (b, 1, slots)), v_t)
    return T.reshape(mixed, (b, d))


def integrate_baseline(v_t: Tensor, mode: str) -> Tensor:
    """Sum or concat integration of the 4 hand slots (no attention)."""
    b, slots, d = v_t.shape
    if mode == "sum":
        return T.sum_axis(v_t, axis=1)
    if mode == "concat":
        return T.reshape(v_t, (b, slots * d))
    raise ValueError(f"unknown integration {mode!r}")


class RgbStream:
    """Recurrent classifier over attention-integrated hand glimpse features."""

    def __init__(
        self,
        rng: np.random.Generator,
        conditioning: str,
        use_temporal: bool,
        n_frames: int,
        feat_dim: int,
        pose_aug_dim: int,
        hidden_dim: int,
        n_classes: int,
        attn_hidden: int = 256,
        temporal_hidden: int = 32,
        pooling: str = "average",
        dropout_rate: float = 0.5,
        mask_absent: bool = False,
    ):
        if conditioning not in CONDITIONINGS:
            raise ValueError(f"unknown conditioning {conditioning!r}")
        if pooling not in ("average", "last"):
            raise ValueError(f"unknown pooling {pooling!r}")
        self.conditioning = conditioning
        self.use_temporal = use_temporal
        self.n_frames = n_frames
        self.feat_dim = feat_dim
        self.pose_aug_dim = pose_aug_dim
        self.hidden_dim = hidden_dim
        self.n_classes = n_classes
        self.pooling = pooling
        self.dropout_rate = dropout_rate
        self.mask_absent = mask_absent

        self.attn: Mlp | None = None
        if conditioning in ATTENTION_CONDITIONINGS:
            cond_dim = (pose_aug_dim if conditioning in POSE_CONDITIONINGS else 0) + (
                hidden_dim if conditioning in HIDDEN_CONDITIONINGS else 0
            )
            # Zero output layer: the initial attention distribution is exactly uniform.
            self.attn = mlp_init(
                rng, [cond_dim, attn_hidden, N_HAND_SLOTS], zero_output=True
            )

        gru_input = feat_dim * N_HAND_SLOTS if conditioning == "concat" else feat_dim
        self.gru = gru_init(rng, gru_input, hidden_dim)

        self.temporal: Mlp | None = None
        if use_temporal:
            self.temporal = mlp_init(
                rng, [2 * n_frames, temporal_hidden, n_frames], zero_output=True
            )

        self.head = linear_init(rng, hidden_dim, n_classes)

    def parameters(self) -> dict[str, Tensor]:
        params: dict[str, Tensor] = {}
        if self.attn is not None:
            params.update(self.attn.named("attn"))
        params.update(self.gru.named("gru"))
        if self.temporal is not None:
            params.update(self.temporal.named("temporal"))
        params.update(self.head.named("head"))
        return params

    def forward(
        self,
        batch: WindowBatch,
        training: bool = False,
        rng: np.random.Generator | None = None,
    ) -> StreamOutput:
        if batch.n_frames == 0:
            raise ShapeError("rgb stream: empty window")
        if batch.n_frames != self.n_frames:
            raise ShapeError(
                f"rgb stream: window length {batch.n_frames} != configured {self.n_frames}"
            )
        if batch.features is None:
            raise ValueError("batch carries no hand features")
        if batch.features.shape[-1] != self.feat_dim:
            raise ShapeError(
                f"feature dim {batch.features.shape[-1]} != stream dim {self.feat_dim}"
            )
        b = batch.batch_size

        # Unless attention reads h, every step's GRU input is known before the
        # recurrence starts, and the GRU runs once over the whole sequence.
        feeds_back = self.conditioning in HIDDEN_CONDITIONINGS
        h = Tensor(np.zeros((b, self.hidden_dim)))
        steps: list[Tensor] = []  # GRU states if feeds_back, else GRU inputs
        attentions: list[Tensor] = []
        for t in range(batch.n_frames):
            # Stored glimpse features stand in for a frozen backbone; absent hands read zero.
            v_t = Tensor(batch.features[:, t] * batch.hand_mask[:, t, :, None])
            if self.conditioning in ATTENTION_CONDITIONINGS:
                p_t = spatial_attention_weights(
                    self.attn,
                    self.conditioning,
                    Tensor(batch.pose_aug[:, t]),
                    h,
                    mask_t=batch.hand_mask[:, t] if self.mask_absent else None,
                    dropout_rate=self.dropout_rate,
                    rng=rng,
                    training=training,
                )
                attentions.append(p_t)
                ctx = context_vector(v_t, p_t)
            else:
                ctx = integrate_baseline(v_t, self.conditioning)
            ctx = dropout(ctx, self.dropout_rate, rng, training)
            if feeds_back:
                h = gru_cell_step(self.gru, h, ctx)
            steps.append(h if feeds_back else ctx)

        stacked = T.stack(steps, axis=1)
        hidden_states = stacked if feeds_back else self.gru.run(stacked)  # (B, T, H)
        spatial = T.stack(attentions, axis=1) if attentions else None

        if self.use_temporal:
            motion_flat = Tensor(batch.motion.reshape(b, -1))
            p_prime = T.softmax(
                self.temporal(
                    motion_flat, dropout_rate=self.dropout_rate, rng=rng, training=training
                )
            )
            pooled = T.reshape(
                T.matmul(T.reshape(p_prime, (b, 1, batch.n_frames)), hidden_states),
                (b, self.hidden_dim),
            )
            logits = self.head(pooled)
            return StreamOutput(
                logits=logits,
                hidden_states=hidden_states,
                spatial_attention=spatial,
                temporal_attention=p_prime,
            )

        per_step = self.head(hidden_states)  # (B, T, C)
        logits = self._pool_steps(per_step, batch.n_frames)
        return StreamOutput(
            logits=logits,
            hidden_states=hidden_states,
            per_step_logits=per_step,
            spatial_attention=spatial,
        )

    def _pool_steps(self, per_step: Tensor, n_frames: int) -> Tensor:
        if self.pooling == "average":
            return T.mean_axis(per_step, axis=1)
        last = T.slice_axis(per_step, 1, n_frames - 1, n_frames)
        return T.reshape(last, (per_step.shape[0], self.n_classes))

    def loss(self, out: StreamOutput, labels: np.ndarray) -> Tensor:
        """Training loss: pooled cross-entropy, or mean per-step cross-entropy."""
        if self.use_temporal or self.pooling == "last":
            return cross_entropy(out.logits, labels)
        b, t, c = out.per_step_logits.shape
        flat = T.reshape(out.per_step_logits, (b * t, c))
        return cross_entropy(flat, np.repeat(labels, t))


class PoseStream:
    """Stacked-GRU classifier over raw pose vectors with per-step supervision."""

    def __init__(
        self,
        rng: np.random.Generator,
        pose_dim: int,
        hidden_dim: int,
        n_layers: int,
        n_classes: int,
        dropout_rate: float = 0.5,
        stack_dropout: bool = True,
    ):
        self.pose_dim = pose_dim
        self.hidden_dim = hidden_dim
        self.n_classes = n_classes
        self.dropout_rate = dropout_rate
        self.stack_dropout = stack_dropout
        self.stack: GruStack = gru_stack_init(rng, pose_dim, hidden_dim, n_layers)
        self.head: Linear = linear_init(rng, hidden_dim, n_classes)

    def parameters(self) -> dict[str, Tensor]:
        return {**self.stack.named("stack"), **self.head.named("head")}

    def forward(
        self,
        batch: WindowBatch,
        training: bool = False,
        rng: np.random.Generator | None = None,
    ) -> StreamOutput:
        if batch.n_frames == 0:
            raise ShapeError("pose stream: empty window")
        rate = self.dropout_rate if self.stack_dropout else 0.0
        hidden_states = self.stack.forward(
            Tensor(batch.pose_raw), dropout_rate=rate, rng=rng, training=training
        )
        per_step = self.head(hidden_states)
        logits = T.mean_axis(per_step, axis=1)
        return StreamOutput(
            logits=logits, hidden_states=hidden_states, per_step_logits=per_step
        )

    def loss(self, out: StreamOutput, labels: np.ndarray) -> Tensor:
        b, t, c = out.per_step_logits.shape
        flat = T.reshape(out.per_step_logits, (b * t, c))
        return cross_entropy(flat, np.repeat(labels, t))


def fuse_logits(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Logit-level fusion of two streams: elementwise sum."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape:
        raise ShapeError(f"fuse_logits: shapes differ: {a.shape} vs {b.shape}")
    return a + b
