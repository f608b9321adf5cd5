import math
import sys
import threading

import numpy as np
import pytest

from poseattn import nn
from poseattn import tensor as T
from poseattn.gradcheck import grad_check_params
from poseattn.nn import (
    AdamState,
    GruParams,
    adam_step,
    cross_entropy,
    dropout,
    gru_cell_step,
    gru_init,
    gru_stack_init,
    linear_init,
    mlp_init,
)
from poseattn.tensor import NumericError, ShapeError, Tensor


def zero_gru(input_dim, hidden_dim):
    z = lambda *s: Tensor(np.zeros(s), requires_grad=True)
    return GruParams(W=z(3 * hidden_dim, input_dim), U=z(3 * hidden_dim, hidden_dim), b=z(3 * hidden_dim))


def reference_gru_states(cell, xs, h):
    """The recurrence in per-gate tape ops, one step at a time: z, r, c each
    from their own row block of W, U and b."""
    H = cell.hidden_dim
    gate = lambda p, k: Tensor(p.data[k * H : (k + 1) * H])
    W, U, b = ([gate(p, k) for k in range(3)] for p in (cell.W, cell.U, cell.b))
    states = []
    for t in range(xs.shape[1]):
        x = Tensor(xs.data[:, t])
        z = T.sigmoid(T.add(T.linear(x, W[0], b[0]), T.linear(h, U[0])))
        r = T.sigmoid(T.add(T.linear(x, W[1], b[1]), T.linear(h, U[1])))
        c = T.tanh(T.add(T.linear(x, W[2], b[2]), T.linear(T.multiply(r, h), U[2])))
        h = T.add(T.multiply(T.subtract(Tensor(np.ones_like(z.data)), z), h), T.multiply(z, c))
        states.append(h.data)
    return np.stack(states, axis=1)


class TestLinear:
    def test_one_call_records_one_node(self):
        rng = np.random.default_rng(0)
        layer = linear_init(rng, 6, 4)
        for shape in ((3, 6), (2, 3, 6)):
            with T.Tape() as tape:
                out = layer(Tensor(rng.normal(size=shape)))
            assert len(tape._nodes) == 1
            assert out.shape == shape[:-1] + (4,)


class TestMlp:
    def test_zero_params_softmax_is_uniform(self):
        mlp = nn.Mlp(layers=[linear_init(None, 8, 16), linear_init(None, 16, 4)])
        out = T.softmax(mlp(Tensor(np.random.default_rng(0).normal(size=(3, 8)))))
        assert np.array_equal(out.data, np.full((3, 4), 0.25))

    def test_reference_spatial_attention_dims(self):
        rng = np.random.default_rng(0)
        mlp = mlp_init(rng, [450, 256, 4])
        out = T.softmax(mlp(Tensor(rng.normal(size=(5, 450)))))
        assert out.shape == (5, 4)
        assert np.abs(out.data.sum(axis=1) - 1.0).max() < 1e-9

    def test_reference_temporal_attention_dims(self):
        rng = np.random.default_rng(0)
        mlp = mlp_init(rng, [40, 32, 20])
        out = T.softmax(mlp(Tensor(rng.normal(size=(5, 40)))))
        assert out.shape == (5, 20)

    def test_shape_mismatch(self):
        mlp = mlp_init(np.random.default_rng(0), [8, 4, 2])
        with pytest.raises(ShapeError):
            mlp(Tensor(np.zeros((3, 9))))


class TestGru:
    def test_zero_params_halves_state(self):
        cell = zero_gru(4, 6)
        h = Tensor(np.random.default_rng(0).normal(size=(2, 6)))
        x = Tensor(np.random.default_rng(1).normal(size=(2, 4)))
        out = gru_cell_step(cell, h, x)
        assert np.allclose(out.data, 0.5 * h.data)

    def test_zero_state_is_fixed_point(self):
        cell = zero_gru(4, 6)
        h = Tensor(np.zeros((2, 6)))
        x = Tensor(np.random.default_rng(2).normal(size=(2, 4)))
        assert np.array_equal(gru_cell_step(cell, h, x).data, np.zeros((2, 6)))

    def test_contraction_at_zero_params(self):
        cell = zero_gru(3, 8)
        rng = np.random.default_rng(3)
        for _ in range(20):
            h = Tensor(rng.normal(size=(1, 8)))
            x = Tensor(rng.normal(size=(1, 3)))
            out = gru_cell_step(cell, h, x)
            assert np.linalg.norm(out.data) <= np.linalg.norm(h.data) + 1e-12

    def test_random_cell_gradcheck(self):
        rng = np.random.default_rng(4)
        cell = gru_init(rng, 8, 8)
        h = Tensor(rng.normal(size=(1, 8)))
        x = Tensor(rng.normal(size=(1, 8)))
        results = grad_check_params(
            lambda: T.sum_axis(gru_cell_step(cell, h, x)), cell.named("gru"), tol=1e-6
        )
        assert all(r.passed for r in results.values())

    def test_stack_reference_dims(self):
        rng = np.random.default_rng(5)
        stack = gru_stack_init(rng, 150, 150, 3)
        states = stack.forward(Tensor(rng.normal(size=(1, 20, 150))))
        assert states.shape == (1, 20, 150)

    def test_single_layer_stack_equals_cell_steps(self):
        rng = np.random.default_rng(6)
        stack = gru_stack_init(rng, 5, 7, 1)
        xs = rng.normal(size=(2, 4, 5))
        states = stack.forward(Tensor(xs))
        h = Tensor(np.zeros((2, 7)))
        for t in range(4):
            h = gru_cell_step(stack.cells[0], h, Tensor(xs[:, t]))
            assert np.array_equal(h.data, states.data[:, t])

    def test_zero_input_zero_params_stays_zero(self):
        stack = nn.GruStack(cells=[zero_gru(4, 4), zero_gru(4, 4)])
        states = stack.forward(Tensor(np.zeros((1, 5, 4))))
        assert np.array_equal(states.data, np.zeros((1, 5, 4)))

    def test_empty_sequence_rejected(self):
        stack = gru_stack_init(np.random.default_rng(0), 4, 4, 1)
        with pytest.raises(ShapeError, match="empty"):
            stack.forward(Tensor(np.zeros((1, 0, 4))))

    def test_run_matches_per_gate_reference(self):
        rng = np.random.default_rng(15)
        cell = gru_init(rng, 6, 5)
        cell.b.data = rng.normal(size=15)
        xs = Tensor(rng.normal(size=(3, 7, 6)))
        h0 = Tensor(rng.normal(size=(3, 5)))
        got = cell.run(xs, h0).data
        assert got.shape == (3, 7, 5)
        assert np.abs(got - reference_gru_states(cell, xs, h0)).max() <= 1e-12

    def test_init_stacks_the_per_gate_draws(self):
        # The stacked matrices hold exactly the per-gate Glorot draws, made in
        # the order W_z, W_r, W_c, U_z, U_r, U_c.
        cell = gru_init(np.random.default_rng(16), 6, 5)
        rng = np.random.default_rng(16)
        per_gate = [nn.glorot_uniform(rng, 5, 6) for _ in range(3)]
        per_gate += [nn.glorot_uniform(rng, 5, 5) for _ in range(3)]
        assert np.array_equal(cell.W.data, np.concatenate(per_gate[:3]))
        assert np.array_equal(cell.U.data, np.concatenate(per_gate[3:]))
        assert np.array_equal(cell.b.data, np.zeros(15))


class TestCrossEntropy:
    def test_uniform_logits_gives_log_c(self):
        logits = Tensor(np.zeros((3, 60)))
        loss = cross_entropy(logits, np.array([0, 13, 59]))
        assert abs(loss.item() - math.log(60)) < 1e-12

    def test_confident_correct_goes_to_zero(self):
        losses = []
        for margin in (5.0, 20.0, 200.0):
            logits = np.zeros((1, 4))
            logits[0, 2] = margin
            losses.append(cross_entropy(Tensor(logits), np.array([2])).item())
        assert losses[0] > losses[1] > losses[2]
        assert losses[2] < 1e-12

    def test_batch_mean_of_rows(self):
        rng = np.random.default_rng(7)
        rows = rng.normal(size=(2, 5))
        y = np.array([1, 4])
        both = cross_entropy(Tensor(rows), y).item()
        a = cross_entropy(Tensor(rows[:1]), y[:1]).item()
        b = cross_entropy(Tensor(rows[1:]), y[1:]).item()
        assert abs(both - (a + b) / 2) < 1e-12

    def test_shift_invariance(self):
        rng = np.random.default_rng(8)
        logits = rng.normal(size=(4, 6))
        y = np.array([0, 1, 2, 3])
        base = cross_entropy(Tensor(logits), y).item()
        for c in (-100.0, 3.7, 250.0):
            shifted = cross_entropy(Tensor(logits + c), y).item()
            assert abs(base - shifted) < 1e-9

    def test_gradient_rows_sum_to_zero(self):
        rng = np.random.default_rng(9)
        logits = Tensor(rng.normal(size=(3, 5)), requires_grad=True)
        targets = logits.data.argmax(axis=1)
        with T.Tape() as tape:
            loss = cross_entropy(logits, targets)
        tape.backward(loss)
        assert np.abs(logits.grad.sum(axis=1)).max() < 1e-12

    def test_confidently_wrong_logits_stay_finite(self):
        logits = Tensor(np.array([[0.0, 800.0]]), requires_grad=True)
        with T.Tape() as tape:
            loss = cross_entropy(logits, np.array([0]))
        tape.backward(loss)
        assert loss.item() == 800.0
        assert np.all(np.isfinite(logits.grad))
        assert np.array_equal(logits.grad, [[-1.0, 1.0]])

    def test_out_of_range_target(self):
        with pytest.raises(ValueError, match="class index"):
            cross_entropy(Tensor(np.zeros((1, 4))), np.array([4]))


class TestAdam:
    def test_first_step_is_signed_lr(self):
        p = {"w": Tensor(np.array([1.0, 1.0]), requires_grad=True)}
        state = AdamState(lr=0.1)
        adam_step(state, p, {"w": np.array([0.3, -7.0])})
        delta = p["w"].data - 1.0
        assert np.allclose(delta, [-0.1, 0.1], atol=1e-6)

    def test_zero_grad_zero_delta(self):
        p = {"w": Tensor(np.array([2.0]), requires_grad=True)}
        adam_step(AdamState(lr=0.1), p, {"w": np.zeros(1)})
        assert np.array_equal(p["w"].data, [2.0])

    def test_memoryless_moments_reduce_to_sign_sgd(self):
        p = {"w": Tensor(np.array([0.0]), requires_grad=True)}
        state = AdamState(lr=0.05, beta1=0.0, beta2=0.0)
        for _ in range(2):
            adam_step(state, p, {"w": np.array([4.0])})
        assert np.allclose(p["w"].data, [-0.1], atol=1e-7)

    def test_lr_zero_is_identity(self):
        p = {"w": Tensor(np.array([1.5]), requires_grad=True)}
        adam_step(AdamState(lr=0.0), p, {"w": np.array([123.0])})
        assert np.array_equal(p["w"].data, [1.5])

    def test_nan_grad_aborts(self):
        p = {"w": Tensor(np.array([1.0]), requires_grad=True)}
        with pytest.raises(NumericError, match="w"):
            adam_step(AdamState(), p, {"w": np.array([np.nan])})

    def test_steps_bitwise_equal_to_reference_formula(self, monkeypatch):
        # "big" spans several blocks and a remainder: below the helper
        # thread's size, then above it with two CPUs to use.
        monkeypatch.setattr(T, "usable_cpus", lambda: 2)
        threads = set()
        blocks = nn._adam_blocks
        monkeypatch.setattr(
            nn, "_adam_blocks", lambda *args: threads.add(threading.current_thread().name) or blocks(*args)
        )
        for big, n_threads in ((2 * nn.ADAM_BLOCK + 17, 1), (nn.ADAM_THREAD_MIN + 3 * nn.ADAM_BLOCK + 17, 2)):
            threads.clear()
            rng = np.random.default_rng(14)
            shapes = {"W": (5, 3), "b": (5,), "s": (1,), "big": (big,)}
            p = {k: Tensor(rng.normal(size=s), requires_grad=True) for k, s in shapes.items()}
            ref = {k: t.data.copy() for k, t in p.items()}
            m = {k: np.zeros(s) for k, s in shapes.items()}
            v = {k: np.zeros(s) for k, s in shapes.items()}
            state = AdamState(lr=0.01)
            b1, b2, eps, lr = state.beta1, state.beta2, state.eps, state.lr
            for t in range(1, 6):
                grads = {k: rng.normal(size=s) for k, s in shapes.items()}
                adam_step(state, p, grads)
                for k, g in grads.items():
                    m[k] = m[k] * b1 + (1.0 - b1) * g
                    v[k] = v[k] * b2 + (1.0 - b2) * (g * g)
                    m_hat = m[k] / (1.0 - b1**t)
                    v_hat = v[k] / (1.0 - b2**t)
                    ref[k] = ref[k] - lr * m_hat / (np.sqrt(v_hat) + eps)
                    assert np.array_equal(p[k].data, ref[k])
                    assert np.array_equal(state.m[k], m[k])
                    assert np.array_equal(state.v[k], v[k])
            assert len(threads) == n_threads

    def test_concurrent_threaded_updates_match_the_serial_update(self, monkeypatch):
        # Four callers on two CPUs' worth of helpers, with thread switches
        # forced often: a block updated twice or lost would change bits.
        n = nn.ADAM_THREAD_MIN + nn.ADAM_BLOCK + 3
        rng = np.random.default_rng(5)
        inits = [rng.normal(size=n) for _ in range(4)]
        grads = [[rng.normal(size=n) for _ in range(3)] for _ in range(4)]

        def train(i):
            p = {"w": Tensor(inits[i].copy(), requires_grad=True)}
            state = AdamState(lr=0.01)
            for g in grads[i]:
                adam_step(state, p, {"w": g})
            return p["w"].data, state.m["w"], state.v["w"]

        monkeypatch.setattr(nn, "ADAM_THREAD_MIN", 10 * n)
        serial = [train(i) for i in range(4)]
        monkeypatch.setattr(nn, "ADAM_THREAD_MIN", n)
        monkeypatch.setattr(T, "usable_cpus", lambda: 2)
        results: dict = {}
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            callers = [threading.Thread(target=lambda i=i: results.update({i: train(i)})) for i in range(4)]
            for t in callers:
                t.start()
            for t in callers:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in callers)
        for i in range(4):
            assert all(np.array_equal(a, b) for a, b in zip(results[i], serial[i]))

    def test_a_nan_in_the_last_block_writes_nothing(self):
        rng = np.random.default_rng(3)
        shapes = {"small": (7,), "big": (3 * nn.ADAM_BLOCK + 5,)}
        p = {k: Tensor(rng.normal(size=s), requires_grad=True) for k, s in shapes.items()}
        state = AdamState(lr=0.01)
        adam_step(state, p, {k: rng.normal(size=s) for k, s in shapes.items()})
        before = [
            {k: a.copy() for k, a in arrays.items()}
            for arrays in ({k: t.data for k, t in p.items()}, state.m, state.v)
        ]
        grads = {k: rng.normal(size=s) for k, s in shapes.items()}
        grads["big"][-1] = np.nan
        with pytest.raises(NumericError, match="big"):
            adam_step(state, p, grads)
        assert state.step == 1
        after = ({k: t.data for k, t in p.items()}, state.m, state.v)
        for old, new in zip(before, after):
            assert old.keys() == new.keys()
            assert all(np.array_equal(old[k], new[k]) for k in old)

    def test_an_error_in_the_helpers_half_is_raised_after_the_join(self, monkeypatch):
        monkeypatch.setattr(T, "usable_cpus", lambda: 2)
        caller = threading.current_thread()
        blocks = nn._adam_blocks

        def failing_helper(*args):
            if threading.current_thread() is not caller:
                raise MemoryError("helper half")
            return blocks(*args)

        monkeypatch.setattr(nn, "_adam_blocks", failing_helper)
        p = {"w": Tensor(np.zeros(nn.ADAM_THREAD_MIN), requires_grad=True)}
        with pytest.raises(MemoryError, match="helper half"):
            adam_step(AdamState(), p, {"w": np.ones(nn.ADAM_THREAD_MIN)})
        assert not any(t.name == "poseattn-helper" for t in threading.enumerate())

    def test_a_non_contiguous_parameter_is_rejected_untouched(self):
        data = np.arange(12.0).reshape(3, 4).T  # a (4, 3) view in column order
        p = {"w": Tensor(data, requires_grad=True)}
        state = AdamState(lr=0.1)
        with pytest.raises(ShapeError, match="w is not C-contiguous"):
            adam_step(state, p, {"w": np.ones((4, 3))})
        assert p["w"].data is data
        assert np.array_equal(data, np.arange(12.0).reshape(3, 4).T)
        assert state.step == 0 and not state.m and not state.v

    def test_step_counter_increments_by_one(self):
        state = AdamState()
        p = {"w": Tensor(np.array([1.0]), requires_grad=True)}
        for expected in (1, 2, 3):
            adam_step(state, p, {"w": np.array([1.0])})
            assert state.step == expected


class TestInit:
    def test_same_seed_bitwise_identical(self):
        a = linear_init(np.random.default_rng(42), 30, 20)
        b = linear_init(np.random.default_rng(42), 30, 20)
        assert np.array_equal(a.W.data, b.W.data)
        assert np.array_equal(a.b.data, b.b.data)

    def test_glorot_bounds(self):
        layer = linear_init(np.random.default_rng(0), 100, 50)
        bound = np.sqrt(6.0 / 150)
        assert np.abs(layer.W.data).max() <= bound
        assert np.array_equal(layer.b.data, np.zeros(50))

    def test_zero_output_head_gives_uniform_attention(self):
        rng = np.random.default_rng(1)
        four = mlp_init(rng, [12, 8, 4], zero_output=True)
        p4 = T.softmax(four(Tensor(rng.normal(size=(6, 12))))).data
        assert np.array_equal(p4, np.full((6, 4), 0.25))
        twenty = mlp_init(rng, [40, 32, 20], zero_output=True)
        p20 = T.softmax(twenty(Tensor(rng.normal(size=(6, 40))))).data
        assert np.array_equal(p20, np.full((6, 20), 1.0 / 20.0))


class TestDropout:
    def test_eval_is_identity(self):
        x = Tensor(np.random.default_rng(0).normal(size=(4, 5)))
        out = dropout(x, 0.5, None, training=False)
        assert out is x

    def test_train_is_unbiased(self):
        rng = np.random.default_rng(11)
        x = Tensor(np.full((1, 8), 2.0))
        total = np.zeros((1, 8))
        n = 40_000
        for _ in range(n):
            total += dropout(x, 0.5, rng, training=True).data
        assert np.abs(total / n - 2.0).max() < 0.04  # within 2% of the input

    def test_train_needs_rng(self):
        with pytest.raises(ValueError, match="rng"):
            dropout(Tensor(np.ones(3)), 0.5, None, training=True)

    def test_mask_values_are_zero_or_scaled(self):
        rng = np.random.default_rng(12)
        out = dropout(Tensor(np.ones(1000)), 0.25, rng, training=True).data
        assert set(np.round(np.unique(out), 12)) <= {0.0, np.round(1 / 0.75, 12)}


def test_every_layer_gradcheck_small_instances():
    rng = np.random.default_rng(13)
    layer = linear_init(rng, 6, 4)
    mlp = mlp_init(rng, [6, 5, 3])
    x = Tensor(rng.normal(size=(2, 6)))
    w = Tensor(rng.normal(size=(2, 3)))

    def f():
        a = T.sum_axis(T.multiply(layer(x), Tensor(np.ones((2, 4)))))
        b = T.sum_axis(T.multiply(T.softmax(mlp(x)), w))
        return T.add(a, b)

    params = {**layer.named("lin"), **mlp.named("mlp")}
    results = grad_check_params(f, params, tol=1e-5)
    assert all(r.passed for r in results.values())
