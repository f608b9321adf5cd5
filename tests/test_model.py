import numpy as np
import pytest
from conftest import build_stream

from poseattn import tensor as T
from poseattn.model import (
    CONDITIONINGS,
    HIDDEN_CONDITIONINGS,
    POSE_CONDITIONINGS,
    PoseStream,
    RgbStream,
    WindowBatch,
    context_vector,
    fuse_logits,
    spatial_attention_weights,
)
from poseattn.nn import dropout, mlp_init
from poseattn.tensor import NumericError, ShapeError, Tensor
from poseattn.verify import TinyDims


def make_batch(rng, b=2, t=4, d=6, pose_dim=12, n_classes=3, step=None):
    """Windows over a table of frames: each its own t rows, or starting
    ``step`` rows apart in one shared table."""
    frames = np.arange(b * t).reshape(b, t) if step is None else step * np.arange(b)[:, None] + np.arange(t)
    rows = frames.max() + 1
    return WindowBatch(
        pose_raw=rng.normal(size=(rows, pose_dim)),
        pose_aug=rng.normal(size=(rows, 3 * pose_dim)),
        motion=np.abs(rng.normal(size=(rows, 2))),
        hand_mask=np.ones((rows, 4)),
        frames=frames,
        labels=rng.integers(0, n_classes, size=b),
        features=rng.normal(size=(rows, 4, d)),
    )


# The RGB stream most tests build: window 4, features 6, pose 12 (augmented
# 36), GRU 5, 3 classes, no temporal attention, no dropout.
SMALL = dict(
    pose_dim=12, n_classes=3, clip_len=4, feat_dim=6, rgb_hidden=5, attn_hidden=8, temporal_hidden=4,
    use_temporal=False, dropout=0.0,
)


class TestSpatialAttention:
    def test_equal_at_initialization(self):
        rng = np.random.default_rng(0)
        attn = mlp_init(rng, [36, 8, 4], zero_output=True)
        p = spatial_attention_weights(attn, Tensor(rng.normal(size=(3, 36))))
        assert np.array_equal(p.data, np.full((3, 4), 0.25))

    def test_pose_conditioning_ignores_hidden_state(self):
        # The recurrent weights set the state; the attention does not move with them.
        stream = build_stream(RgbStream, np.random.default_rng(1), SMALL, conditioning="pose")
        for layer in stream.attn.layers:
            layer.W.data = np.random.default_rng(6).normal(size=layer.W.data.shape)
        batch = make_batch(np.random.default_rng(7))
        before = stream.forward(batch)
        stream.gru.U.data = np.random.default_rng(8).normal(size=stream.gru.U.data.shape)
        after = stream.forward(batch)
        assert not np.array_equal(before.hidden_states.data, after.hidden_states.data)
        assert np.array_equal(before.spatial_attention.data, after.spatial_attention.data)

    def test_simplex_for_any_parameters(self):
        rng = np.random.default_rng(2)
        attn = mlp_init(rng, [36, 8, 4])
        for layer in attn.layers:
            layer.W.data = 10.0 * rng.normal(size=layer.W.data.shape)
        p = spatial_attention_weights(attn, Tensor(rng.normal(size=(50, 36))))
        assert (p.data >= 0).all() and (p.data <= 1).all()
        assert np.abs(p.data.sum(axis=1) - 1.0).max() < 1e-9


class TestContextVector:
    def test_one_hot_selects_hand(self):
        rng = np.random.default_rng(4)
        v = Tensor(rng.normal(size=(2, 4, 6)))
        p = Tensor(np.tile([0.0, 1.0, 0.0, 0.0], (2, 1)))
        out = context_vector(v, p)
        assert np.array_equal(out.data, v.data[:, 1, :])

    def test_uniform_averages_hands(self):
        rng = np.random.default_rng(5)
        v = Tensor(rng.normal(size=(1, 4, 6)))
        p = Tensor(np.full((1, 4), 0.25))
        out = context_vector(v, p)
        assert np.allclose(out.data[0], v.data[0].mean(axis=0))

    def test_dim_mismatch(self):
        with pytest.raises(ShapeError):
            context_vector(Tensor(np.zeros((1, 4, 6))), Tensor(np.zeros((1, 3))))


class TestRgbStream:
    def test_output_shapes(self):
        rng = np.random.default_rng(7)
        stream = build_stream(RgbStream, rng, SMALL, conditioning="pose", use_temporal=True)
        batch = make_batch(np.random.default_rng(8))
        out = stream.forward(batch)
        assert out.logits.shape == (2, 3)
        assert out.spatial_attention.shape == (2, 4, 4)
        assert out.temporal_attention.shape == (2, 4)
        assert out.hidden_states.shape == (2, 4, 5)

    def test_reference_sizes_shape_only(self):
        # One forward at the published sizes: T=20, D=2048, hidden 1024, C=60.
        rng = np.random.default_rng(9)
        stream = build_stream(
            RgbStream, rng, dict(pose_dim=150, n_classes=60), conditioning="pose", use_temporal=True,
            clip_len=20, feat_dim=2048, rgb_hidden=1024, dropout=0.0,
        )
        batch = WindowBatch(
            pose_raw=np.zeros((20, 150)),
            pose_aug=rng.normal(size=(20, 450)),
            motion=np.abs(rng.normal(size=(20, 2))),
            hand_mask=np.ones((20, 4)),
            frames=np.arange(20)[None],
            labels=np.array([7]),
            features=rng.normal(size=(20, 4, 2048)),
        )
        out = stream.forward(batch)
        assert out.logits.shape == (1, 60)
        assert out.spatial_attention.shape == (1, 20, 4)
        assert out.temporal_attention.shape == (1, 20)

    def test_identical_hand_features_make_conditioning_irrelevant(self):
        rng = np.random.default_rng(10)
        batch = make_batch(np.random.default_rng(11))
        batch.features[:] = batch.features[:, :1, :]  # all 4 slots identical
        logits = {}
        ref = build_stream(RgbStream, np.random.default_rng(42), SMALL, conditioning="pose")
        for cond in ("pose", "hidden", "both"):
            stream = build_stream(RgbStream, np.random.default_rng(12), SMALL, conditioning=cond)
            stream.gru = ref.gru
            stream.head = ref.head
            logits[cond] = stream.forward(batch).logits.data
        assert np.allclose(logits["pose"], logits["hidden"], atol=1e-10)
        assert np.allclose(logits["pose"], logits["both"], atol=1e-10)

    def test_absent_hands_contribute_zero(self):
        for cond in CONDITIONINGS:
            stream = build_stream(RgbStream, np.random.default_rng(13), SMALL, conditioning=cond, use_temporal=True)
            batch = make_batch(np.random.default_rng(14))
            batch.hand_mask[:, 2:] = 0.0
            batch.features[:, 2:] = 0.0
            zeroed = stream.forward(batch).logits.data
            batch.features[:, 2:] = np.random.default_rng(15).normal(size=(8, 2, 6))
            assert np.array_equal(stream.forward(batch).logits.data, zeroed), cond

    def test_sum_and_concat_gru_inputs(self, monkeypatch):
        # sum adds the present slots; concat lays them out slot-major, absent ones as zeros.
        batch = make_batch(np.random.default_rng(6))
        batch.hand_mask[batch.frames[0], 1] = 0.0
        present = batch.features * batch.hand_mask[..., None]  # (F, 4, D)
        for cond, expected in (("sum", present.sum(axis=1)), ("concat", present.reshape(8, 24))):
            stream = build_stream(RgbStream, np.random.default_rng(6), SMALL, conditioning=cond)
            inputs = []
            run = stream.gru.run

            def recording_run(xs, h0=None, rows=None):
                inputs.append((xs.data, rows))
                return run(xs, h0, rows)

            monkeypatch.setattr(stream.gru, "run", recording_run)
            stream.forward(batch)
            assert len(inputs) == 1
            np.testing.assert_allclose(inputs[0][0], expected, rtol=0, atol=1e-15)
            assert np.array_equal(inputs[0][1], batch.frames)

    @pytest.mark.parametrize("cond", CONDITIONINGS)
    @pytest.mark.parametrize("ta", [False, True])
    @pytest.mark.parametrize("mask_absent", [False, True])
    def test_matches_a_per_frame_reference(self, cond, ta, mask_absent):
        stream = build_stream(
            RgbStream, np.random.default_rng(60), SMALL, conditioning=cond, use_temporal=ta, mask_absent=mask_absent
        )
        for mlp in (stream.attn, stream.temporal):  # off the uniform init
            for layer in mlp.layers if mlp is not None else []:
                layer.W.data = np.random.default_rng(61).normal(size=layer.W.data.shape)
        batch = make_batch(np.random.default_rng(62), b=3, step=1)  # windows share frames
        batch.hand_mask[0, 1] = 0.0
        batch.hand_mask[3:5] = 0.0  # every hand absent
        batch.hand_mask[::2, 3] = 0.0
        out = stream.forward(batch)
        want = _reference_logits(stream, batch)
        np.testing.assert_allclose(out.logits.data, want, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("ta", [False, True])
    @pytest.mark.parametrize("cond", CONDITIONINGS)
    def test_tape_size_does_not_grow_with_the_window(self, cond, ta):
        nodes = []
        for t in (4, 8):
            stream = build_stream(
                RgbStream, np.random.default_rng(63), SMALL, conditioning=cond, use_temporal=ta, clip_len=t, dropout=0.5
            )
            batch = make_batch(np.random.default_rng(64), t=t)
            with T.Tape() as tape:
                stream.loss(stream.forward(batch, training=True, rng=np.random.default_rng(65)), batch.labels)
            nodes.append(len(tape._nodes))
        assert nodes[0] == nodes[1]

    @pytest.mark.parametrize("cond", CONDITIONINGS)
    def test_non_finite_hand_feature_raises(self, cond):
        stream = build_stream(RgbStream, np.random.default_rng(66), SMALL, conditioning=cond)
        batch = make_batch(np.random.default_rng(67), step=2)
        batch.features[batch.frames[1, 3], 2, 0] = np.nan  # one window's frame, one hand
        with pytest.raises(NumericError):
            stream.forward(batch)

    @pytest.mark.parametrize("size", ["tiny", "acceptance"])
    @pytest.mark.parametrize("training", [False, True])
    @pytest.mark.parametrize("ta", [False, True])
    @pytest.mark.parametrize("cond", HIDDEN_CONDITIONINGS)
    def test_state_reading_scan_is_the_per_span_composition_bitwise(self, cond, ta, training, size):
        dims = dict(feat_dim=16, rgb_hidden=48, attn_hidden=48, clip_len=20) if size == "acceptance" else {}
        train = dict(dropout=0.5, mask_absent=True) if training else {}
        stream = build_stream(
            RgbStream, np.random.default_rng(68), SMALL, conditioning=cond, use_temporal=ta, **dims, **train
        )
        for p in stream.parameters().values():  # off the uniform, zero-bias init
            p.data = p.data + 0.3 * np.random.default_rng(69).normal(size=p.data.shape)
        b, t = (32, 20) if size == "acceptance" else (3, 4)
        batch = make_batch(np.random.default_rng(70), b=b, t=t, d=stream.feat_dim, step=1)
        batch.hand_mask[::3, 1] = 0.0
        batch.hand_mask[2] = 0.0  # every hand absent
        rng, ref_rng = np.random.default_rng(71), np.random.default_rng(71)
        out = stream.forward(batch, training=training, rng=rng)
        want = _per_span_forward(stream, batch, training, ref_rng)
        for got, ref in zip((out.logits, out.hidden_states, out.spatial_attention), want):
            assert got.data.shape == ref.data.shape and got.data.tobytes() == ref.data.tobytes()
        assert rng.random() == ref_rng.random()

    def test_pose_conditioned_attention_ignores_features(self):
        rng = np.random.default_rng(15)
        stream = build_stream(RgbStream, rng, SMALL, conditioning="pose", use_temporal=True)
        batch = make_batch(np.random.default_rng(16))
        p1 = stream.forward(batch).spatial_attention.data
        batch.features = batch.features + np.random.default_rng(17).normal(
            size=batch.features.shape
        )
        p2 = stream.forward(batch).spatial_attention.data
        assert np.array_equal(p1, p2)

    def test_hidden_conditioned_attention_reacts_to_features(self):
        stream = build_stream(RgbStream, np.random.default_rng(18), SMALL, conditioning="hidden")
        for layer in stream.attn.layers:  # off the uniform init so p depends on input
            layer.W.data = np.random.default_rng(19).normal(size=layer.W.data.shape)
        batch = make_batch(np.random.default_rng(20))
        p1 = stream.forward(batch).spatial_attention.data
        batch.features = batch.features + 1.0
        p2 = stream.forward(batch).spatial_attention.data
        assert not np.array_equal(p1[:, 1:], p2[:, 1:])  # t=0 sees h=0 either way

    def test_concat_conditioning_resizes_gru_input(self):
        stream = build_stream(RgbStream, np.random.default_rng(21), SMALL, conditioning="concat")
        assert stream.gru.input_dim == 4 * 6
        out = stream.forward(make_batch(np.random.default_rng(22)))
        assert out.spatial_attention is None
        assert out.logits.shape == (2, 3)

    @pytest.mark.parametrize(
        "cond, scans", [("pose", 1), ("sum", 1), ("concat", 1), ("hidden", 0), ("both", 0)]
    )
    def test_gru_runs_once_unless_attention_reads_the_state(self, cond, scans, monkeypatch):
        # Every conditioning records one recurrence node: its own gru_scan, or
        # the attend_scan that runs the GRU when attention reads the state.
        ops = []
        make = T._make

        def recording_make(out_data, op, parents, vjps):
            ops.append(op)
            return make(out_data, op, parents, vjps)

        monkeypatch.setattr(T, "_make", recording_make)
        stream = build_stream(RgbStream, np.random.default_rng(25), SMALL, conditioning=cond, use_temporal=True)
        batch = make_batch(np.random.default_rng(26))
        with T.Tape():
            stream.forward(batch, training=True, rng=np.random.default_rng(27))
        assert ops.count("gru_scan") == scans
        assert ops.count("gru_scan") + ops.count("attend_scan") == 1

    def test_deterministic_forward_given_seed(self):
        outs = []
        for _ in range(2):
            stream = build_stream(RgbStream, np.random.default_rng(23), SMALL, conditioning="both", use_temporal=True)
            out = stream.forward(make_batch(np.random.default_rng(24)))
            outs.append(out.logits.data)
        assert np.array_equal(outs[0], outs[1])

    def test_empty_window_rejected(self):
        stream = build_stream(RgbStream, np.random.default_rng(25), SMALL)
        batch = make_batch(np.random.default_rng(26))
        batch.frames = batch.frames[:, :0]
        with pytest.raises(ShapeError, match="empty|window"):
            stream.forward(batch)

    def test_absent_hand_masking_flag(self):
        # Off by default: absent hands still receive softmax weight (their
        # features are zero, so they contribute nothing to the context).
        # On: their attention weight is driven to zero before the softmax.
        batch = make_batch(np.random.default_rng(50))
        batch.hand_mask[:, 1] = 0.0
        plain = build_stream(RgbStream, np.random.default_rng(51), SMALL, conditioning="pose")
        masked = build_stream(RgbStream, np.random.default_rng(51), SMALL, conditioning="pose", mask_absent=True)
        p_plain = plain.forward(batch).spatial_attention.data
        p_masked = masked.forward(batch).spatial_attention.data
        assert p_plain[:, :, 1].min() > 0
        assert p_masked[:, :, 1].max() < 1e-12
        assert np.abs(p_masked.sum(axis=-1) - 1.0).max() < 1e-9

    def test_last_pooling_takes_last_step(self):
        rng = np.random.default_rng(27)
        stream = build_stream(RgbStream, rng, SMALL, conditioning="sum", pooling="last")
        batch = make_batch(np.random.default_rng(28))
        out = stream.forward(batch)
        assert np.allclose(out.logits.data, out.per_step_logits.data[:, -1, :])

    def test_average_pooling_means_steps(self):
        rng = np.random.default_rng(29)
        stream = build_stream(RgbStream, rng, SMALL, conditioning="sum", pooling="average")
        out = stream.forward(make_batch(np.random.default_rng(30)))
        assert np.allclose(out.logits.data, out.per_step_logits.data.mean(axis=1))


def _per_span_forward(stream, batch, training, rng):
    """Logits, hidden states and spatial attention of a state-reading stream,
    composed frame by frame on the tape: per frame the attention, the slot
    mix, context dropout and a one-step GRU scan fed the last frame's state."""
    b, n = batch.frames.shape
    H, rate = stream.gru.hidden_dim, stream.dropout_rate
    feats, mask, pose = (a[batch.frames] for a in (batch.features, batch.hand_mask, batch.pose_aug))
    h = Tensor(np.zeros((b, 1, H)))
    states, attentions = [], []
    for t in range(n):
        span = slice(t, t + 1)
        # The attention reads the state, after the pose under "both".
        x = T.concat([Tensor(pose[:, span]), h], axis=-1) if stream.conditioning in POSE_CONDITIONINGS else h
        logits = stream.attn(x, dropout_rate=rate, rng=rng, training=training)
        if stream.mask_absent:
            logits = T.add(logits, Tensor((1.0 - mask[:, span]) * -1e9))
        p = T.softmax(logits)
        v = Tensor(feats[:, span].reshape(-1, *feats.shape[-2:]))
        ctx = dropout(context_vector(v, T.multiply(p, Tensor(mask[:, span]))), rate, rng, training)
        h = stream.gru.run(ctx, T.reshape(h, (b, H)) if states else None)  # (B, 1, H)
        states.append(h)
        attentions.append(p)
    hs, spatial = (parts[0] if n == 1 else T.concat(parts, axis=1) for parts in (states, attentions))
    if stream.use_temporal:
        motion = Tensor(batch.motion[batch.frames].reshape(b, -1))
        p_prime = T.softmax(stream.temporal(motion, rate, rng, training))
        logits = stream.head(context_vector(hs, p_prime))
    else:
        logits = stream._pool_steps(stream.head(hs), n)
    return logits, hs, spatial


def _softmax(z):
    e = np.exp(z - z.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def _mlp(mlp, x):
    for layer in mlp.layers[:-1]:
        x = np.maximum(x @ layer.W.data.T + layer.b.data, 0.0)
    return x @ mlp.layers[-1].W.data.T + mlp.layers[-1].b.data


def _reference_logits(stream, batch):
    """The RGB stream written out frame by frame in numpy, at dropout 0."""
    b, n = batch.batch_size, batch.n_frames
    cond, H = stream.conditioning, stream.gru.hidden_dim
    W, U, bias = stream.gru.W.data, stream.gru.U.data, stream.gru.b.data
    h = np.zeros((b, H))
    states = []
    for t in range(n):
        rows = batch.frames[:, t]
        v = batch.features[rows] * batch.hand_mask[rows, :, None]  # (B, 4, D)
        if cond == "sum":
            x = v.sum(axis=1)
        elif cond == "concat":
            x = v.reshape(b, -1)
        else:
            parts = [batch.pose_aug[rows]] if cond in POSE_CONDITIONINGS else []
            parts += [h] if cond in HIDDEN_CONDITIONINGS else []
            logits = _mlp(stream.attn, np.concatenate(parts, axis=1))
            if stream.mask_absent:
                logits = logits + (1.0 - batch.hand_mask[rows]) * -1e9
            x = np.einsum("bk,bkd->bd", _softmax(logits), v)
        xz, xr, xc = np.split(x @ W.T + bias, 3, axis=1)
        Uz, Ur, Uc = np.split(U, 3, axis=0)
        z = 1.0 / (1.0 + np.exp(-(xz + h @ Uz.T)))
        r = 1.0 / (1.0 + np.exp(-(xr + h @ Ur.T)))
        c = np.tanh(xc + (r * h) @ Uc.T)
        h = (1.0 - z) * h + z * c
        states.append(h)
    hs = np.stack(states, axis=1)  # (B, T, H)
    head = stream.head
    if stream.use_temporal:
        p = _softmax(_mlp(stream.temporal, batch.motion[batch.frames].reshape(b, -1)))
        return np.einsum("bt,bth->bh", p, hs) @ head.W.data.T + head.b.data
    return (hs @ head.W.data.T + head.b.data).mean(axis=1)


class TestTemporalPooling:
    def test_uniform_at_initialization(self):
        stream = build_stream(RgbStream, np.random.default_rng(31), SMALL, conditioning="pose", use_temporal=True)
        out = stream.forward(make_batch(np.random.default_rng(32)))
        assert np.array_equal(out.temporal_attention.data, np.full((2, 4), 0.25))

    def test_one_hot_weights_select_hidden_state(self):
        rng = np.random.default_rng(33)
        h = Tensor(rng.normal(size=(2, 4, 5)))  # (B, T, H)
        k = 2
        p = np.zeros((2, 4))
        p[:, k] = 1.0
        pooled = context_vector(h, Tensor(p))
        assert np.array_equal(pooled.data, h.data[:, k, :])

    def test_simplex_property(self):
        stream = build_stream(RgbStream, np.random.default_rng(34), SMALL, conditioning="pose", use_temporal=True)
        for layer in stream.temporal.layers:
            layer.W.data = 5.0 * np.random.default_rng(35).normal(size=layer.W.data.shape)
        out = stream.forward(make_batch(np.random.default_rng(36)))
        p = out.temporal_attention.data
        assert (p >= 0).all()
        assert np.abs(p.sum(axis=1) - 1.0).max() < 1e-9


class TestPoseStream:
    def test_shapes_and_per_step_logits(self):
        rng = np.random.default_rng(37)
        stream = build_stream(
            PoseStream, rng, dict(pose_dim=12, n_classes=4), pose_hidden=6, pose_layers=3, dropout=0.0
        )
        batch = make_batch(np.random.default_rng(38), n_classes=4)
        out = stream.forward(batch)
        assert out.per_step_logits.shape == (2, 4, 4)
        assert out.logits.shape == (2, 4)

    def test_zero_pose_zero_params_uniform_posterior(self):
        rng = np.random.default_rng(39)
        stream = build_stream(
            PoseStream, rng, dict(pose_dim=12, n_classes=5), pose_hidden=6, pose_layers=2, dropout=0.0
        )
        for p in stream.parameters().values():
            p.data = np.zeros_like(p.data)
        batch = make_batch(np.random.default_rng(40), n_classes=5)
        batch.pose_raw = np.zeros_like(batch.pose_raw)
        out = stream.forward(batch)
        assert np.allclose(out.logits.data, 0.0)
        loss = stream.loss(out, batch.labels)
        assert abs(loss.item() - np.log(5)) < 1e-12


# Checkpoints store parameters by these names, and the loader requires a
# header to list exactly them: a change here breaks loading checkpoints
# written at CHECKPOINT_VERSION 3.
_ATTN = ["attn.l0.W", "attn.l0.b", "attn.l1.W", "attn.l1.b"]
_GRU = ["gru.W", "gru.U", "gru.b"]
_TEMPORAL = ["temporal.l0.W", "temporal.l0.b", "temporal.l1.W", "temporal.l1.b"]
_HEAD = ["head.W", "head.b"]
_LAYER = ["W", "U", "b"]
PARAMETER_NAMES = {
    ("hidden", False): _ATTN + _GRU + _HEAD,
    ("hidden", True): _ATTN + _GRU + _TEMPORAL + _HEAD,
    ("pose", False): _ATTN + _GRU + _HEAD,
    ("pose", True): _ATTN + _GRU + _TEMPORAL + _HEAD,
    ("both", False): _ATTN + _GRU + _HEAD,
    ("both", True): _ATTN + _GRU + _TEMPORAL + _HEAD,
    ("sum", False): _GRU + _HEAD,
    ("sum", True): _GRU + _TEMPORAL + _HEAD,
    ("concat", False): _GRU + _HEAD,
    ("concat", True): _GRU + _TEMPORAL + _HEAD,
    "pose_stream": [f"stack.layer{i}.{n}" for i in range(3) for n in _LAYER] + _HEAD,
}


def test_parameter_names_and_order_pinned_for_all_cells():
    d = TinyDims()
    tiny = dict(
        pose_dim=d.pose_dim, n_classes=d.n_classes, clip_len=d.n_frames, feat_dim=d.feat_dim,
        rgb_hidden=d.rgb_hidden, attn_hidden=d.attn_hidden, temporal_hidden=d.temporal_hidden,
        pose_hidden=d.pose_hidden, pose_layers=3,
    )
    names = {}
    for cond in CONDITIONINGS:
        for ta in (False, True):
            stream = build_stream(RgbStream, np.random.default_rng(0), tiny, conditioning=cond, use_temporal=ta)
            names[(cond, ta)] = list(stream.parameters())
    pose = build_stream(PoseStream, np.random.default_rng(0), tiny)
    names["pose_stream"] = list(pose.parameters())
    assert names == PARAMETER_NAMES


def _stream_facts(**settings):
    """Parameter shapes and plain attributes of the RGB and pose streams
    built from one config: window 4, features 6, pose 12, 3 classes."""
    base = dict(
        pose_dim=12, n_classes=3, clip_len=4, feat_dim=6, rgb_hidden=5, attn_hidden=8, temporal_hidden=4,
        pose_hidden=6, pose_layers=3,
    )
    facts = {}
    for tag, cls in (("rgb", RgbStream), ("pose", PoseStream)):
        stream = build_stream(cls, np.random.default_rng(0), base, **settings)
        facts |= {f"{tag} {name}": p.data.shape for name, p in stream.parameters().items()}
        facts |= {f"{tag}.{k}": v for k, v in vars(stream).items() if isinstance(v, (bool, int, float, str))}
    return facts


_POSE_LAYERS = ("W", "U", "b")


@pytest.mark.parametrize("field, value, changed", [
    ("rgb_hidden", 7, {"rgb gru.W": (21, 6), "rgb gru.U": (21, 7), "rgb gru.b": (21,), "rgb head.W": (3, 7)}),
    ("attn_hidden", 9, {"rgb attn.l0.W": (9, 36), "rgb attn.l0.b": (9,), "rgb attn.l1.W": (4, 9)}),
    ("temporal_hidden", 6, {"rgb temporal.l0.W": (6, 8), "rgb temporal.l0.b": (6,), "rgb temporal.l1.W": (4, 6)}),
    ("pose_hidden", 8, {
        f"pose stack.layer{i}.{n}": (24,) if n == "b" else (24, 12 if (i, n) == (0, "W") else 8)
        for i in range(3) for n in _POSE_LAYERS
    } | {"pose head.W": (3, 8)}),
    ("pose_layers", 2, {f"pose stack.layer2.{n}": None for n in _POSE_LAYERS}),
    ("dropout", 0.25, {"rgb.dropout_rate": 0.25, "pose.dropout_rate": 0.25}),
    ("stack_dropout", False, {"pose.dropout_rate": 0.0}),
    ("mask_absent", True, {"rgb.mask_absent": True}),
    ("pooling", "last", {"rgb.pooling": "last"}),
    ("conditioning", "both", {"rgb.conditioning": "both", "rgb attn.l0.W": (8, 36 + 5)}),
    ("use_temporal", False, {"rgb.use_temporal": False} | {
        f"rgb temporal.l{i}.{n}": None for i in range(2) for n in ("W", "b")
    }),
])
def test_every_setting_reaches_the_stream(field, value, changed):
    # The defaults' facts, then what one setting other than its default
    # changes: a shape, a parameter gone (None), or an attribute.
    before, after = _stream_facts(), _stream_facts(**{field: value})
    assert {k: after.get(k) for k in before.keys() | after.keys() if before.get(k) != after.get(k)} == changed


class TestFusion:
    def test_zero_is_identity(self):
        a = np.random.default_rng(48).normal(size=(3, 5))
        assert np.array_equal(fuse_logits(a, np.zeros_like(a)), a)

    def test_self_fusion_preserves_argmax(self):
        a = np.random.default_rng(49).normal(size=(3, 5))
        assert np.array_equal(fuse_logits(a, a).argmax(axis=1), a.argmax(axis=1))

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            fuse_logits(np.zeros((2, 3)), np.zeros((3, 2)))
