"""Two-stream sequence classifier with pose-conditioned attention.

The RGB stream mixes stored glimpse features of up to 4 hand slots by
spatial attention (conditioned on the recurrent hidden state, the augmented
pose, or both; sum/concat integration as baselines), runs a GRU over the
resulting context vectors, and either pools the hidden states by
motion-conditioned temporal attention or classifies every step.  The pose
stream is a stacked GRU over raw pose vectors with per-step
classification.  Streams fuse by summing logits.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .nn import (
    GruStack,
    Linear,
    Mlp,
    cross_entropy,
    dropout,
    dropout_mask,
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
    """One minibatch of fixed-length windows over a table of distinct frames.

    The per-frame arrays hold one row per distinct (sequence, frame); window
    b shows row ``frames[b, t]`` at position t.  Windows that overlap share
    rows.
    """

    pose_raw: np.ndarray  # (F, P)
    pose_aug: np.ndarray  # (F, 3P)
    motion: np.ndarray  # (F, 2)
    hand_mask: np.ndarray  # (F, 4) float 0/1
    frames: np.ndarray  # (B, T) int row index
    labels: np.ndarray  # (B,)
    features: np.ndarray | None = None  # (F, 4, D)

    @property
    def batch_size(self) -> int:
        return self.frames.shape[0]

    @property
    def n_frames(self) -> int:
        return self.frames.shape[1]


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
    pose_aug: Tensor,
    mask: np.ndarray | None = None,
    dropout_rate: float = 0.0,
    rng: np.random.Generator | None = None,
    training: bool = False,
) -> Tensor:
    """Pose-conditioned softmax weights (..., 4) over the hand slots, for an
    augmented pose (..., 3P) of any leading shape.  With a hand ``mask``
    (..., 4), absent hands are biased to zero weight.  The conditionings
    that read the state attend inside ``tensor.attend_scan``."""
    logits = attn(pose_aug, dropout_rate=dropout_rate, rng=rng, training=training)
    if mask is not None:
        logits = T.add(logits, Tensor((1.0 - mask) * _MASK_BIAS))
    return T.softmax(logits)


def context_vector(v: Tensor, p: Tensor) -> Tensor:
    """Rows of v (rows, n, d) mixed by weights p (..., n), whose leading axes
    hold the rows: hand slots by spatial attention, or time steps by
    temporal attention.  Returns (..., d)."""
    *lead, n = p.shape
    rows = math.prod(lead)
    if v.ndim != 3 or v.shape[:2] != (rows, n):
        raise ShapeError(f"attention shape {p.shape} does not match features {v.shape}")
    mixed = T.matmul(T.reshape(p, (rows, 1, n)), v)
    return T.reshape(mixed, (*lead, v.shape[-1]))


class RgbStream:
    """Recurrent classifier over attention-integrated hand glimpse features, with
    the settings of ``config``, a ``training.RunConfig``, and the sizes of
    ``dims``, a ``training.ModelDims``."""

    def __init__(self, config, dims, rng: np.random.Generator | None):
        self.conditioning = cond = config.conditioning
        self.use_temporal = config.use_temporal
        self.n_frames = dims.clip_len
        self.feat_dim = dims.feat_dim
        self.n_classes = dims.n_classes
        self.pooling = config.pooling
        self.dropout_rate = config.dropout
        self.mask_absent = config.mask_absent

        self.attn: Mlp | None = None
        if cond in ATTENTION_CONDITIONINGS:
            cond_dim = 3 * dims.pose_dim if cond in POSE_CONDITIONINGS else 0
            cond_dim += config.rgb_hidden if cond in HIDDEN_CONDITIONINGS else 0
            # Zero output layer: the initial attention distribution is exactly uniform.
            self.attn = mlp_init(rng, [cond_dim, config.attn_hidden, N_HAND_SLOTS], zero_output=True)

        self.gru = gru_init(rng, self.feat_dim * N_HAND_SLOTS if cond == "concat" else self.feat_dim, config.rgb_hidden)

        self.temporal: Mlp | None = None
        if self.use_temporal:
            self.temporal = mlp_init(rng, [2 * self.n_frames, config.temporal_hidden, self.n_frames], zero_output=True)

        self.head = linear_init(rng, config.rgb_hidden, self.n_classes)

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
        b, n_frames = batch.batch_size, batch.n_frames
        frames = batch.frames

        if self.conditioning in HIDDEN_CONDITIONINGS:
            # Attention reads h, so the front end runs inside the recurrence:
            # one scan over the rows that the windows show at each frame.
            hidden_states, spatial = self._attend_scan(batch, training, rng)
        else:
            # Nothing before the GRU depends on time or on the window: the
            # front end and the input projection run once per distinct frame,
            # and the windows gather their rows for one scan.
            ctx, p = self._front_end(batch.features, batch.hand_mask, batch.pose_aug, training, rng)
            hidden_states = self.gru.run(ctx, rows=frames)  # (B, T, H)
            spatial = None if p is None else T.gather_rows(p, frames)

        per_step = p_prime = None
        if self.use_temporal:
            motion = Tensor(batch.motion[frames].reshape(b, -1))
            p_prime = T.softmax(self.temporal(motion, self.dropout_rate, rng, training))
            logits = self.head(context_vector(hidden_states, p_prime))
        else:
            per_step = self.head(hidden_states)  # (B, T, C)
            logits = self._pool_steps(per_step, n_frames)
        return StreamOutput(
            logits=logits,
            hidden_states=hidden_states,
            per_step_logits=per_step,
            spatial_attention=spatial,
            temporal_attention=p_prime,
        )

    def _attend_scan(
        self, batch: WindowBatch, training: bool, rng: np.random.Generator | None
    ) -> tuple[Tensor, Tensor]:
        """Hidden states (B, T, H) and spatial attention (B, T, 4) of the
        conditionings that read the state, from one ``attend_scan``."""
        frames = batch.frames
        b, n_frames = frames.shape
        mask = batch.hand_mask[frames]
        l0, l1 = self.attn.layers
        # Per frame, the attention's hidden-layer mask, then the context's.
        masks = [
            dropout_mask(shape, self.dropout_rate, rng, training)
            for _ in range(n_frames)
            for shape in ((b, 1, l0.W.shape[0]), (b, 1, self.feat_dim))
        ]
        drops = None
        if masks[0] is not None:
            drops = tuple(np.stack(masks[i::2]).reshape(n_frames, b, -1) for i in (0, 1))
        return T.attend_scan(
            Tensor(batch.features[frames]),
            Tensor(mask),
            Tensor(batch.pose_aug[frames]) if self.conditioning in POSE_CONDITIONINGS else None,
            Tensor((1.0 - mask) * _MASK_BIAS) if self.mask_absent else None,
            drops,
            l0.W, l0.b, l1.W, l1.b,
            self.gru.W, self.gru.b, self.gru.U,
        )

    def _front_end(
        self,
        feats: np.ndarray,
        mask: np.ndarray,
        pose_aug: np.ndarray,
        training: bool,
        rng: np.random.Generator | None,
    ) -> tuple[Tensor, Tensor | None]:
        """GRU inputs (..., in) and spatial attention (..., 4) or None over frame
        rows with glimpse features (..., 4, D), hand mask (..., 4) and augmented
        pose (..., 3P), for the conditionings that do not read the state."""
        # Stored glimpse features stand in for a frozen backbone.
        p = None
        if self.conditioning == "concat":
            ctx = Tensor((feats * mask[..., None]).reshape(*mask.shape[:-1], -1))
        else:
            # Absent hands weigh zero, so they contribute nothing to the context.
            weights = Tensor(mask)
            if self.attn is not None:
                p = spatial_attention_weights(
                    self.attn,
                    Tensor(pose_aug),
                    mask=mask if self.mask_absent else None,
                    dropout_rate=self.dropout_rate,
                    rng=rng,
                    training=training,
                )
                weights = T.multiply(p, weights)
            ctx = context_vector(Tensor(feats.reshape(-1, *feats.shape[-2:])), weights)
        return dropout(ctx, self.dropout_rate, rng, training), p

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
    """Stacked-GRU classifier over raw pose vectors with per-step supervision;
    built as ``RgbStream`` is."""

    def __init__(self, config, dims, rng: np.random.Generator | None):
        self.n_classes = dims.n_classes
        # Dropout between the stacked layers, when the config asks for it.
        self.dropout_rate = config.dropout if config.stack_dropout else 0.0
        self.stack: GruStack = gru_stack_init(rng, dims.pose_dim, config.pose_hidden, config.pose_layers)
        self.head: Linear = linear_init(rng, config.pose_hidden, self.n_classes)

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
        hidden_states = self.stack.forward(
            Tensor(batch.pose_raw[batch.frames]), dropout_rate=self.dropout_rate, rng=rng, training=training
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
