import sys
import threading
import time
import zlib

import numpy as np
import pytest
from conftest import build_stream

from poseattn import tensor as T
from poseattn import verify
from poseattn.gradcheck import GradCheckResult, grad_check_params
from poseattn.model import PoseStream, WindowBatch
from poseattn.nn import AdamState, adam_step
from poseattn.tensor import GraphError, NumericError, ShapeError, Tape, Tensor


def test_softmax_symmetry():
    p = T.softmax(Tensor([0.0, 0.0]))
    assert np.array_equal(p.data, [0.5, 0.5])


def test_softmax_extreme_logits_no_overflow():
    p = T.softmax(Tensor([1000.0, 0.0]))
    assert abs(p.data[0] - 1.0) < 1e-12
    assert abs(p.data[1]) < 1e-12


def test_softmax_simplex_on_random_inputs():
    rng = np.random.default_rng(0)
    for _ in range(100):
        x = Tensor(rng.normal(scale=50.0, size=(3, 7)))
        p = T.softmax(x).data
        assert (p >= 0).all()
        assert np.abs(p.sum(axis=-1) - 1.0).max() < 1e-9


def test_backward_square():
    x = Tensor([3.0], requires_grad=True)
    with Tape() as tape:
        loss = T.sum_axis(T.multiply(x, x))
    tape.backward(loss)
    assert np.allclose(x.grad, [6.0])


def test_backward_requires_scalar():
    x = Tensor([1.0, 2.0], requires_grad=True)
    with Tape() as tape:
        y = T.multiply(x, x)
    with pytest.raises(GraphError, match="scalar"):
        tape.backward(y)


def test_backward_detached_loss():
    with Tape() as tape:
        pass
    loss = Tensor(np.asarray(1.0))
    with pytest.raises(GraphError, match="detached"):
        tape.backward(loss)


def test_backward_twice_is_an_error():
    x = Tensor([2.0], requires_grad=True)
    with Tape() as tape:
        loss = T.sum_axis(x)
    tape.backward(loss)
    with pytest.raises(GraphError, match="already ran"):
        tape.backward(loss)


def test_no_tape_means_no_recording():
    x = Tensor([2.0], requires_grad=True)
    y = T.multiply(x, x)
    assert not y.requires_grad


def test_grad_accumulates_over_reuse():
    x = Tensor([2.0], requires_grad=True)
    with Tape() as tape:
        loss = T.sum_axis(T.add(T.multiply(x, x), x))
    tape.backward(loss)
    assert np.allclose(x.grad, [5.0])  # 2x + 1


def test_backward_is_linear_in_node_count():
    # A 40-level diamond graph: exponential traversal would never finish.
    x = Tensor([1.0], requires_grad=True)
    with Tape() as tape:
        a = x
        for _ in range(40):
            a = T.scale(T.add(a, a), 0.5)
        loss = T.sum_axis(a)
    nodes = len(tape._nodes)
    tape.backward(loss)
    assert nodes == 2 * 40 + 1
    assert np.allclose(x.grad, [1.0])


def test_shape_errors_name_op_and_shapes():
    with pytest.raises(ShapeError, match=r"matmul.*\(1, 2, 3\).*\(1, 2, 3\)"):
        T.matmul(Tensor(np.zeros((1, 2, 3))), Tensor(np.zeros((1, 2, 3))))
    with pytest.raises(ShapeError, match=r"matmul.*\(3, 4\).*\(4, 2\)"):
        T.matmul(Tensor(np.zeros((3, 4))), Tensor(np.zeros((4, 2))))
    with pytest.raises(ShapeError, match="add"):
        T.add(Tensor(np.zeros((4, 3))), Tensor(np.zeros(4)))


def test_linear_shape_error_names_op_and_shapes():
    with pytest.raises(ShapeError, match=r"linear.*\(5, 3\).*\(2, 4\)"):
        T.linear(Tensor(np.zeros((5, 3))), Tensor(np.zeros((2, 4))))
    with pytest.raises(ShapeError, match=r"linear.*\(2, 5, 4\).*\(2, 4\).*\(3,\)"):
        T.linear(Tensor(np.zeros((2, 5, 4))), Tensor(np.zeros((2, 4))), Tensor(np.zeros(3)))


def test_linear_matches_matmul_with_transposed_weight():
    rng = np.random.default_rng(3)
    x, W, b = rng.normal(size=(2, 3, 4)), rng.normal(size=(5, 4)), rng.normal(size=5)
    out = T.linear(Tensor(x), Tensor(W), Tensor(b)).data
    assert out.shape == (2, 3, 5)
    assert np.allclose(out, x @ W.T + b, rtol=0, atol=1e-12)


def test_linear_weight_grad_in_weight_layout():
    rng = np.random.default_rng(4)
    x = Tensor(rng.normal(size=(6, 3)))
    W = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
    with Tape() as tape:
        loss = T.sum_axis(T.linear(x, W))
    tape.backward(loss)
    assert W.grad.flags.c_contiguous
    assert np.allclose(W.grad, np.ones((6, 2)).T @ x.data)


def test_gru_scan_shape_error_names_op_and_shapes():
    U, h0 = Tensor(np.zeros((9, 3))), Tensor(np.zeros((2, 3)))
    with pytest.raises(ShapeError, match=r"gru_scan.*\(2, 4, 8\).*\(9, 3\).*\(2, 3\)"):
        T.gru_scan(Tensor(np.zeros((2, 4, 8))), U, h0)
    with pytest.raises(ShapeError, match=r"gru_scan.*\(2, 4, 9\).*\(9, 3\).*\(5, 3\)"):
        T.gru_scan(Tensor(np.zeros((2, 4, 9))), U, Tensor(np.zeros((5, 3))))
    with pytest.raises(ShapeError, match=r"gru_scan.*\(2, 0, 9\)"):
        T.gru_scan(Tensor(np.zeros((2, 0, 9))), U, h0)


def test_sigmoid_extreme_inputs_finite_in_unit_interval():
    out = T.sigmoid(Tensor([[-800.0, 800.0], [-40.0, 40.0]])).data
    assert np.all(np.isfinite(out))
    assert np.all((out >= 0.0) & (out <= 1.0))
    assert out[0, 0] == 0.0 and out[0, 1] == 1.0


def test_log_softmax_matches_log_of_softmax():
    rng = np.random.default_rng(5)
    x = Tensor(rng.normal(scale=5.0, size=(4, 6)))
    assert np.allclose(T.log_softmax(x).data, np.log(T.softmax(x).data), rtol=0, atol=1e-12)


def test_non_finite_creation_rejected():
    with pytest.raises(NumericError):
        Tensor([np.inf, 1.0])


def test_non_finite_op_output_rejected():
    with pytest.raises(NumericError, match="log"):
        T.log(Tensor([-1.0]))


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "+inf", "-inf"])
def test_finiteness_contract_rejects_each_non_finite_value(value):
    # Every primitive hands its output to _make, which names the op.
    with pytest.raises(NumericError, match="some_op"):
        T._make(np.array([1.0, value]), "some_op", (), ())
    with pytest.raises(NumericError):
        Tensor(np.array([1.0, value]))
    params = {"head.b": Tensor(np.zeros(2), requires_grad=True)}
    with pytest.raises(NumericError, match="head.b"):
        adam_step(AdamState(), params, {"head.b": np.array([1.0, value])})


def test_finite_values_whose_sum_overflows_pass_every_check():
    big = np.array([1e308, 1e308])  # finite, though big.sum() is inf
    assert np.array_equal(T.scale(Tensor(big), 1.0).data, big)
    assert np.array_equal(Tensor(big).data, big)
    params = {"w": Tensor(np.zeros(2), requires_grad=True)}
    with np.errstate(over="ignore"):
        adam_step(AdamState(), params, {"w": big})
    assert np.isfinite(params["w"].data).all()


@pytest.mark.parametrize("op", [T.add, T.subtract, T.multiply])
def test_elementwise_ops_take_equal_shapes_only(op):
    with pytest.raises(ShapeError, match=rf"{op.__name__}: shapes \(5, 3\) and \(3,\) differ"):
        op(Tensor(np.zeros((5, 3))), Tensor(np.ones(3)))


def test_concat_then_slice_is_identity():
    rng = np.random.default_rng(2)
    a = Tensor(rng.normal(size=(3, 2)), requires_grad=True)
    b = Tensor(rng.normal(size=(3, 5)), requires_grad=True)
    cat = T.concat([a, b], axis=1)
    assert np.array_equal(T.slice_axis(cat, 1, 0, 2).data, a.data)
    assert np.array_equal(T.slice_axis(cat, 1, 2, 7).data, b.data)


def test_two_tapes_in_parallel_threads():
    errors = []

    def work(seed):
        try:
            rng = np.random.default_rng(seed)
            x = Tensor(rng.normal(size=4), requires_grad=True)
            with Tape() as tape:
                loss = T.sum_axis(T.multiply(x, x))
            tape.backward(loss)
            assert np.allclose(x.grad, 2 * x.data)
        except Exception as e:  # pragma: no cover - surfaced via errors list
            errors.append(e)

    threads = [threading.Thread(target=work, args=(s,)) for s in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors


def _unary_cases(rng):
    x = lambda shape=(3, 4): Tensor(rng.normal(size=shape), requires_grad=True)
    positive = lambda: Tensor(np.abs(rng.normal(size=(3, 4))) + 0.5, requires_grad=True)
    return {
        "sigmoid": (T.sigmoid, x()),
        "tanh": (T.tanh, x()),
        "relu": (T.relu, x()),
        "log": (T.log, positive()),
        "softmax": (T.softmax, x()),
        "log_softmax": (T.log_softmax, x()),
        "scale": (lambda t: T.scale(t, -2.5), x()),
        "identity_sum": (lambda t: t, x()),
        "sum_all": (T.sum_axis, x()),
        "mean_axis1": (lambda t: T.mean_axis(t, 1), x()),
        "transpose": (T.transpose, x()),
        "reshape": (lambda t: T.reshape(t, (2, 6)), x()),
        "slice": (lambda t: T.slice_axis(t, 1, 1, 3), x()),
        "neg": (lambda t: T.scale(t, -1.0), x()),
        "gather_rows_in_order": (lambda t: T.gather_rows(t, np.arange(4).reshape(2, 2)), x((4, 3))),
        "gather_rows_distinct": (lambda t: T.gather_rows(t, np.array([[3, 0], [2, 1]])), x((4, 3))),
        "gather_rows_repeated": (lambda t: T.gather_rows(t, np.array([[0, 1, 2], [1, 2, 2]])), x((4, 2, 3))),
    }


def _seed(name: str) -> int:
    # Not hash(name): string hashing is salted per process, so a failing draw could not be replayed.
    return zlib.crc32(name.encode())


@pytest.mark.parametrize("name", sorted(_unary_cases(np.random.default_rng(0))))
def test_unary_adjoints_match_finite_differences(name):
    # Spec-level property: adjoints match central differences at 100 random
    # points within rel. 1e-5 (f64, eps 1e-5).  Random weighting makes the
    # scalarization generic.
    rng = np.random.default_rng(_seed(name))
    worst = 0.0
    for _ in range(100):
        op, x = _unary_cases(rng)[name]
        w = Tensor(rng.normal(size=op(x).shape))

        def f():
            return T.sum_axis(T.multiply(op(x), w))

        res = grad_check_params(f, {"x": x})
        worst = max(worst, res["x"].max_rel_error)
    assert worst < 1e-5


def _binary_cases(rng):
    # (op, *inputs): every input is checked, so linear's bias rides along.
    t = lambda shape: Tensor(rng.normal(size=shape), requires_grad=True)
    return {
        "add": (T.add, t((3, 4)), t((3, 4))),
        "subtract": (T.subtract, t((3, 4)), t((3, 4))),
        "multiply": (T.multiply, t((3, 4)), t((3, 4))),
        "matmul_33": (T.matmul, t((2, 3, 4)), t((2, 4, 2))),
        "linear_2": (T.linear, t((3, 4)), t((2, 4))),
        "linear_2_bias": (T.linear, t((3, 4)), t((2, 4)), t((2,))),
        "linear_3": (T.linear, t((2, 3, 4)), t((2, 4))),
        "linear_3_bias": (T.linear, t((2, 3, 4)), t((2, 4)), t((2,))),
        # (xp, U, h0), all three requiring a gradient; H = 3.
        "gru_scan_1": (T.gru_scan, t((2, 1, 9)), t((9, 3)), t((2, 3))),
        "gru_scan_5": (T.gru_scan, t((2, 5, 9)), t((9, 3)), t((2, 3))),
        "concat": (lambda a, b: T.concat([a, b], axis=1), t((2, 3)), t((2, 5))),
        "stack": (lambda a, b: T.stack([a, b], axis=1), t((2, 3)), t((2, 3))),
        **{
            f"attend_scan_{cond}_{n}": _attend_scan_case(rng, t, cond, n)
            for cond in ("hidden", "both")
            for n in (1, 5)
        },
    }


def _attend_scan_case(rng, t, cond, n):
    """(op, W0, b0, W1, b1, W, b, U) for attend_scan over B=2 windows of n
    frames, 4 slots of D=2 features, state H=2, attention hidden A=2 and,
    under "both", a pose of P=2: some slots absent and biased away, as under
    ``mask_absent``, and dropout masks at rate 0.5 on u and on ctx."""
    B, K, D, H, A = 2, 4, 2, 2, 2
    P = 2 if cond == "both" else 0
    v = Tensor(rng.normal(size=(B, n, K, D)))
    mask = (rng.random((B, n, K)) > 0.3).astype(float)
    pose = Tensor(rng.normal(size=(B, n, P))) if P else None
    drops = tuple((rng.random((n, B, m)) >= 0.5) / 0.5 for m in (A, D))

    def op(*params):
        return T.attend_scan(v, Tensor(mask), pose, Tensor((1.0 - mask) * -1e9), drops, *params)[0]

    shapes = ((A, P + H), (A,), (K, A), (K,), (3 * H, D), (3 * H,), (3 * H, H))
    return (op, *(t(shape) for shape in shapes))


@pytest.mark.parametrize("name", sorted(_binary_cases(np.random.default_rng(0))))
def test_binary_adjoints_match_finite_differences(name):
    rng = np.random.default_rng(_seed(name))
    worst = 0.0
    for _ in range(100):
        op, *inputs = _binary_cases(rng)[name]
        w = Tensor(rng.normal(size=op(*inputs).shape))

        def f():
            return T.sum_axis(T.multiply(op(*inputs), w))

        res = grad_check_params(f, dict(zip("abcdefg", inputs)))
        worst = max(worst, max(r.max_rel_error for r in res.values()))
    assert worst < 1e-5


def test_nary_adjoints_concat_stack():
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(100):
        a = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
        b = Tensor(rng.normal(size=(2, 5)), requires_grad=True)
        c = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
        wc = Tensor(rng.normal(size=(2, 8)))
        ws = Tensor(rng.normal(size=(2, 2, 3)))

        def f():
            cat = T.multiply(T.concat([a, b], axis=1), wc)
            stk = T.multiply(T.stack([a, c], axis=1), ws)
            return T.add(T.sum_axis(cat), T.sum_axis(stk))

        res = grad_check_params(f, {"a": a, "b": b, "c": c})
        worst = max(worst, max(r.max_rel_error for r in res.values()))
    assert worst < 1e-5


def _recording_make(monkeypatch, ops: set):
    make = T._make

    def recording(out_data, op, parents, vjps):
        ops.add(op)
        return make(out_data, op, parents, vjps)

    monkeypatch.setattr(T, "_make", recording)


def test_every_op_of_the_gradcheck_cells_has_an_adjoint_case(monkeypatch):
    # The ops that the 11 cells of run_gradcheck reach, from one taped forward
    # each.  The cells run in this process, where the patches below apply.
    reached: set = set()

    def one_forward(f, params, eps=1e-5, tol=1e-5):
        with T.Tape():
            f()
        return {name: GradCheckResult(0.0, True, p.data.size, eps, tol) for name, p in params.items()}

    monkeypatch.setattr(verify, "grad_check_params", one_forward)
    _recording_make(monkeypatch, reached)
    cells = [verify.check_cell(cell, verify.TinyDims()) for cell in verify.CELLS]
    assert len(cells) == 11
    reached = frozenset(reached)
    # The ops that the op-level cases above check.
    covered: set = set()
    _recording_make(monkeypatch, covered)
    rng = np.random.default_rng(0)
    for op, *inputs in [*_unary_cases(rng).values(), *_binary_cases(rng).values()]:
        op(*inputs)
    assert "gather_rows" in reached
    assert reached <= covered, sorted(reached - covered)


def test_attend_scan_shape_error_names_op_and_shapes():
    zeros = lambda shape: Tensor(np.zeros(shape))
    _, *params = _attend_scan_case(np.random.default_rng(8), zeros, "both", 3)  # B=2, T=3, P=2
    v, mask = zeros((2, 3, 4, 2)), zeros((2, 3, 4))
    with pytest.raises(ShapeError, match=r"attend_scan: v \(2, 3, 4, 2\), mask \(2, 3, 4\), pose \(2, 3, 5\)"):
        T.attend_scan(v, mask, zeros((2, 3, 5)), None, None, *params)
    wrong_drops = (np.ones((3, 2, 2)), np.ones((2, 3, 2)))
    with pytest.raises(ShapeError, match=r"attend_scan: .*drops \(\(3, 2, 2\), \(2, 3, 2\)\)"):
        T.attend_scan(v, mask, zeros((2, 3, 2)), None, wrong_drops, *params)
    with pytest.raises(ShapeError, match=r"attend_scan: v \(2, 0, 4, 2\)"):
        T.attend_scan(zeros((2, 0, 4, 2)), zeros((2, 0, 4)), None, None, None, *params)


def test_gather_rows_rejects_an_index_outside_the_rows():
    a = Tensor(np.zeros((3, 2)))
    for index in (np.array([0, 3]), np.array([-1]), np.array([0.0, 1.0])):
        with pytest.raises(ShapeError, match="gather_rows"):
            T.gather_rows(a, index)


def _graph_through(op_name: str, rng: np.random.Generator):
    """Leaves, and the output of one op whose VJP returns a view of its output
    gradient to each of them."""
    x, y = (Tensor(rng.normal(size=(3, 2)), requires_grad=True) for _ in range(2))
    out = {
        "reshape": lambda: T.reshape(x, (2, 3)),
        "gather_rows": lambda: T.gather_rows(x, np.arange(3).reshape(1, 3)),
        "transpose": lambda: T.transpose(x),
        "concat": lambda: T.concat([x, y], axis=0),
        "add": lambda: T.add(x, y),
        "subtract": lambda: T.subtract(x, y),
    }[op_name]
    with Tape() as tape:
        z = out()
        loss = T.sum_axis(T.multiply(z, Tensor(rng.normal(size=z.shape))))
    tape.backward(loss)
    return [t for t in (x, y) if t.grad is not None], z


@pytest.mark.parametrize("op_name", ["reshape", "gather_rows", "transpose", "concat", "add", "subtract"])
def test_a_gradient_taken_from_a_view_of_the_output_gradient_is_private(op_name):
    leaves, z = _graph_through(op_name, np.random.default_rng(21))
    assert z.grad is not None
    for leaf in leaves:
        others = [t.grad.copy() for t in leaves if t is not leaf] + [z.grad.copy()]
        leaf.grad += 1.0
        now = [t.grad for t in leaves if t is not leaf] + [z.grad]
        assert all(np.array_equal(a, b) for a, b in zip(others, now))


def test_no_gradient_of_the_gradcheck_cells_shares_memory(monkeypatch):
    # One taped backward per cell, recording every tensor of its graph:
    # no gradient, of a leaf or not, shares memory with another gradient
    # or with any tensor's data.
    problems: list[str] = []
    make = T._make

    def one_backward(f, params, eps=1e-5, tol=1e-5):
        seen: dict[int, Tensor] = {}

        def recording(out_data, op, parents, vjps):
            out = make(out_data, op, parents, vjps)
            seen.update((id(t), t) for t in (out, *parents))
            return out

        with monkeypatch.context() as m:
            m.setattr(T, "_make", recording)
            with Tape() as tape:
                loss = f()
        tape.backward(loss)
        tensors = list(seen.values())
        leaves = {id(p): name for name, p in params.items()}
        assert all(p.grad is not None for p in params.values())
        for i, t in enumerate(tensors):
            if t.grad is None:
                continue
            name = leaves.get(id(t), "an intermediate")
            if any(u.grad is not None and np.shares_memory(t.grad, u.grad) for u in tensors[i + 1 :]):
                problems.append(f"the gradient of {name} shares memory with another gradient")
            if any(np.shares_memory(t.grad, u.data) for u in tensors):
                problems.append(f"the gradient of {name} shares memory with a tensor's data")
        return {name: GradCheckResult(0.0, True, p.data.size, eps, tol) for name, p in params.items()}

    monkeypatch.setattr(verify, "grad_check_params", one_backward)
    cells = [verify.check_cell(cell, verify.TinyDims()) for cell in verify.CELLS]
    assert len(cells) == 11
    assert problems == []


@pytest.fixture
def two_cpus(monkeypatch):
    """The process may use two CPUs; counts the helper threads started and
    the jobs run on them."""
    monkeypatch.setattr(T.os, "sched_getaffinity", lambda pid: {0, 1})
    counts = {"helpers": 0, "jobs": 0}

    class Counted(T.TwoCpus):
        def __enter__(self):
            counts["helpers"] += 1
            return super().__enter__()

        def run(self, here, there):
            counts["jobs"] += 1
            super().run(here, there)

    monkeypatch.setattr(T, "TwoCpus", Counted)
    return counts


def _no_helper_left():
    return not any(t.name == "poseattn-helper" for t in threading.enumerate())


# Every GEMM that a paper-scale RGB training step, eval forward or gradcheck
# (features 2048, GRU 1024, attention MLP 256, batch 32 x clip 20, 640 frame
# rows) splits, in its memory layout.  Weight GEMMs: x @ W.T in linear's
# forward (eval batches of 320 rows, an odd count, and the gradcheck's 2
# windows of 40 rows), g @ W and g.T @ x in its VJPs, over 2048 features a
# frame or ``concat``'s 4 x 2048 (at fewer rows, to save time); attend_scan's
# first weight gradient, which reads the state (``hidden``, 1024 columns) or
# the state and the pose (``both``, 1024 + 144); _gru_dU's two GEMMs over
# column slices of d xp into row blocks of dU; one to three rows; the
# smallest GEMM that splits.
# Step GEMMs, at a training batch (32), an eval chunk (16 sequences of 5
# windows) and the eval chunk of a 7-sequence tail: gru_scan reads the state
# as a strided row of its (B, T, H) buffer, writes the gates and candidate
# into time-major buffers and takes d xp as a strided row of (B, T, 3H);
# attend_scan keeps each frame's arrays apart and d xp time-major, and adds
# the ctx @ W.T and d xp @ W GEMMs of the ``hidden`` and ``both``
# conditionings.  U.T and W.T are views.
_T, _H, _D = 3, 1024, 2048


def _U(r):
    return r.normal(size=(3 * _H, _H))


def _linear(rows, n_in):
    # Uniform draws: normal ones of the 8192-wide operands take most of the
    # test's time.
    return {
        f"linear x @ W.T, {rows} rows, {n_in} in": lambda r: (
            r.random((rows, n_in)) - 0.5, (r.random((3 * _H, n_in)) - 0.5).T, None
        ),
        f"linear vjp_x g @ W, {rows} rows, {n_in} in": lambda r: (
            r.random((rows, 3 * _H)) - 0.5, r.random((3 * _H, n_in)) - 0.5, None
        ),
        f"linear vjp_W g.T @ x, {rows} rows, {n_in} in": lambda r: (
            (r.random((rows, 3 * _H)) - 0.5).T, r.random((rows, n_in)) - 0.5, None
        ),
    }


_WEIGHT_GEMMS = {
    **_linear(640, _D),
    **_linear(160, 4 * _D),
    "linear x @ W.T, eval rows": lambda r: (r.normal(size=(320, _D)), r.normal(size=(3 * _H, _D)).T, None),
    "linear x @ W.T, odd rows": lambda r: (r.normal(size=(117, _D)), r.normal(size=(3 * _H, _D)).T, None),
    "linear x @ W.T, gradcheck rows": lambda r: (r.normal(size=(40, _D)), r.normal(size=(3 * _H, _D)).T, None),
    "attend_scan vjp_W0, hidden": lambda r: (r.normal(size=(640, 256)).T, r.normal(size=(640, _H)), None),
    "attend_scan vjp_W0, both": lambda r: (r.normal(size=(580, 256)).T, r.normal(size=(580, _H + 144)), None),
    "_gru_dU z, r rows": lambda r: (
        r.normal(size=(640, 3 * _H))[:, : 2 * _H].T, r.normal(size=(640, _H)), np.empty((3 * _H, _H))[: 2 * _H]
    ),
    "_gru_dU c rows": lambda r: (
        r.normal(size=(640, 3 * _H))[:, 2 * _H :].T, r.normal(size=(640, _H)), np.empty((3 * _H, _H))[2 * _H :]
    ),
    **{
        f"{m} rows @ (8192, 4096)": lambda r, m=m: (r.random((m, 8192)) - 0.5, r.random((8192, 4096)) - 0.5, None)
        for m in (1, 2, 3)
    },
    "smallest split": lambda r: (r.normal(size=(32, 1024)), r.normal(size=(1024, 1024)), None),
}

_STEP_GEMMS = {
    "gru_scan h @ U_zr.T": lambda r, B: (
        r.normal(size=(B, _T, _H))[:, 1], _U(r)[: 2 * _H].T, np.empty((_T, B, 2 * _H))[1]
    ),
    "(r*h) @ U_c.T": lambda r, B: (r.normal(size=(B, _H)), _U(r)[2 * _H :].T, np.empty((_T, B, _H))[1]),
    "gru_scan d_c @ U_c": lambda r, B: (r.normal(size=(B, _T, 3 * _H))[:, 1, 2 * _H :], _U(r)[2 * _H :], None),
    "gru_scan d_zr @ U_zr": lambda r, B: (r.normal(size=(B, _T, 3 * _H))[:, 1, : 2 * _H], _U(r)[: 2 * _H], None),
    "attend_scan h @ U_zr.T": lambda r, B: (r.normal(size=(B, _H)), _U(r)[: 2 * _H].T, np.empty((B, 2 * _H))),
    "attend_scan d_c @ U_c": lambda r, B: (r.normal(size=(_T, B, 3 * _H))[1, :, 2 * _H :], _U(r)[2 * _H :], None),
    "attend_scan d_zr @ U_zr": lambda r, B: (r.normal(size=(_T, B, 3 * _H))[1, :, : 2 * _H], _U(r)[: 2 * _H], None),
    "attend_scan ctx @ W.T": lambda r, B: (r.normal(size=(B, _D)), r.normal(size=(3 * _H, _D)).T, None),
    "attend_scan dxp @ W": lambda r, B: (r.normal(size=(_T, B, 3 * _H))[1], r.normal(size=(3 * _H, _D)), None),
}

_SPLIT_GEMMS = {
    **_WEIGHT_GEMMS,
    **{
        f"{name}, B {B}": lambda r, make=make, B=B: make(r, B)
        for name, make in _STEP_GEMMS.items()
        for B in (32, 80, 35)
    },
}


@pytest.mark.parametrize("name", list(_SPLIT_GEMMS))
def test_a_column_split_gemm_is_bitwise_one_matmul(name, two_cpus):
    a, b, out = _SPLIT_GEMMS[name](np.random.default_rng(zlib.crc32(name.encode())))
    whole = np.matmul(a, b)
    with T.TwoCpus() as cpus:
        got = cpus.mm(a, b, out=out)
    assert two_cpus == {"helpers": 1, "jobs": 1}
    assert out is None or got is out
    assert got.shape == whole.shape and got.tobytes() == whole.tobytes()


def test_mm_opens_a_helper_from_the_split_size_on_two_cpus(two_cpus, monkeypatch):
    rng = np.random.default_rng(8)
    a, b = rng.normal(size=(64, 1024)), rng.normal(size=(1024, 1024))
    assert 64 * 1024 * 1024 == T.MM_SPLIT_MIN
    assert T._mm(a[:63], b).tobytes() == (a[:63] @ b).tobytes()
    assert two_cpus == {"helpers": 0, "jobs": 0}
    assert T._mm(a, b).tobytes() == (a @ b).tobytes()
    assert two_cpus == {"helpers": 1, "jobs": 1}
    monkeypatch.setattr(T.os, "sched_getaffinity", lambda pid: {0})
    a = rng.normal(size=(640, 1024))
    assert T._mm(a, b).tobytes() == (a @ b).tobytes()
    assert two_cpus == {"helpers": 1, "jobs": 1}


def test_the_pose_streams_layer_gemm_runs_whole(two_cpus):
    # The paper-scale pose stream's eval chunk through a GRU 150 layer: 80
    # windows of 20 frames @ W.T, W (450, 150).  Above MM_SPLIT_MIN, but no
    # split of 450 columns keeps the bits, and a split of its rows changed
    # columns 448-449; so it opens no helper either.
    rng = np.random.default_rng(11)
    x, W = rng.normal(size=(1600, 150)), rng.normal(size=(450, 150))
    assert 1600 * 150 * 450 >= T.MM_SPLIT_MIN
    assert T._mm(x, W.T).tobytes() == np.matmul(x, W.T).tobytes()
    assert two_cpus == {"helpers": 0, "jobs": 0}


def test_paper_scale_pose_stream_eval_logits_do_not_depend_on_the_cpu_count(two_cpus, monkeypatch):
    # Pose dim 144 (24 joints), GRU 3 x 150, an eval chunk of 80 windows.
    rng = np.random.default_rng(12)
    stream = build_stream(PoseStream, rng, dict(pose_dim=144, n_classes=10), pose_hidden=150, pose_layers=3)
    frames = np.arange(1600).reshape(80, 20)
    batch = WindowBatch(
        pose_raw=rng.normal(size=(1600, 144)), pose_aug=np.zeros((1600, 432)), motion=np.zeros((1600, 2)),
        hand_mask=np.ones((1600, 4)), frames=frames, labels=np.zeros(80, dtype=np.int64),
    )
    two = stream.forward(batch).logits.data
    monkeypatch.setattr(T.os, "sched_getaffinity", lambda pid: {0})
    one = stream.forward(batch).logits.data
    assert two.tobytes() == one.tobytes()


def _paper_scans(rng):
    """gru_scan and attend_scan (``both``: pose, logit bias, dropout) at paper
    scale over 3 frames; their outputs and every parameter's gradient."""
    B, n, K, P, A = 32, 3, 4, 144, 256
    gru = [Tensor(rng.normal(size=s) * 0.05, requires_grad=True) for s in ((B, n, 3 * _H), (3 * _H, _H), (B, _H))]
    mask = (rng.random((B, n, K)) > 0.3).astype(float)
    fixed = (
        Tensor(rng.normal(size=(B, n, K, _D))), Tensor(mask), Tensor(rng.normal(size=(B, n, P))),
        Tensor((1.0 - mask) * -1e9), tuple((rng.random((n, B, m)) >= 0.5) / 0.5 for m in (A, _D)),
    )
    shapes = ((A, P + _H), (A,), (K, A), (K,), (3 * _H, _D), (3 * _H,), (3 * _H, _H))
    attend = [Tensor(rng.normal(size=s) * 0.02, requires_grad=True) for s in shapes]
    w_gru, w_attend = rng.normal(size=(B, n, _H)), rng.normal(size=(B, n, _H))
    with Tape() as tape:
        h_gru = T.gru_scan(*gru)
        h_attend, p = T.attend_scan(*fixed, *attend)
        loss = T.add(T.sum_axis(T.multiply(h_gru, Tensor(w_gru))), T.sum_axis(T.multiply(h_attend, Tensor(w_attend))))
    tape.backward(loss)
    return [h_gru.data, h_attend.data, p.data] + [t.grad for t in gru + attend]


def test_paper_scale_scans_split_their_steps_with_the_same_bits(two_cpus, monkeypatch):
    two = _paper_scans(np.random.default_rng(26))
    # A forward and a sweep per scan, each with one helper for all of its
    # steps: 2 GEMMs per GRU step and 3 per attend_scan frame.  Three more
    # helpers split the weight gradients: one per scan for both halves of
    # dU, and one for attend_scan's dW.
    assert two_cpus == {"helpers": 4 + 3, "jobs": 3 * (2 + 2 + 3 + 3) + 2 + 2 + 1}
    monkeypatch.setattr(T.os, "sched_getaffinity", lambda pid: {0})
    one = _paper_scans(np.random.default_rng(26))
    assert two_cpus["helpers"] == 4 + 3
    assert [a.tobytes() for a in two] == [a.tobytes() for a in one]


# Scans that run whole: the paper-scale gradcheck's 2-window forward, a
# paper-scale training tail batch, the paper-scale pose stream (H 150), and
# the acceptance-scale RGB and pose streams (GRU 48 and 64, batch 32, eval
# chunk 80; criterion 9's 16 and the tests' 12 and 8).
@pytest.mark.parametrize("B, H", [
    (2, 1024), (31, 1024), (32, 150), (80, 150),
    (32, 48), (80, 48), (32, 64), (80, 64), (16, 16), (80, 16), (16, 12), (16, 8),
])
def test_a_scan_below_the_split_size_starts_no_helper(B, H, two_cpus):
    assert B * 2 * H * H < T.MM_SPLIT_MIN
    with T._gemms(B, H, 2 * H) as mm:
        assert mm is np.matmul
    assert two_cpus == {"helpers": 0, "jobs": 0}


def test_a_scan_on_one_cpu_starts_no_helper(two_cpus, monkeypatch):
    monkeypatch.setattr(T.os, "sched_getaffinity", lambda pid: {0})
    with T._gemms(80, 1024, 2048) as mm:
        assert mm is np.matmul
    assert two_cpus == {"helpers": 0, "jobs": 0}


def test_a_step_gemm_that_could_change_bits_runs_whole_on_the_helper_block(two_cpus):
    # A width that is no multiple of 16, and a GEMM whose halves fall under
    # MM_SPLIT_MIN / 4 (a narrow ctx @ W.T): a column split of either could
    # change bits.
    rng = np.random.default_rng(9)
    with T._gemms(32, 1024, 2048) as mm:
        for a, b in (
            (rng.normal(size=(32, 1000)), rng.normal(size=(1000, 1000)).T),
            (rng.normal(size=(32, 16)), rng.normal(size=(3072, 16)).T),
        ):
            assert mm(a, b).tobytes() == np.matmul(a, b).tobytes()
    assert two_cpus == {"helpers": 1, "jobs": 0}


def test_an_error_on_the_helper_thread_is_raised_after_the_join(two_cpus, monkeypatch):
    caller = threading.current_thread()
    matmul = np.matmul

    def failing(*args, **kwargs):
        if threading.current_thread() is not caller:
            raise MemoryError("helper columns")
        return matmul(*args, **kwargs)

    monkeypatch.setattr(T.np, "matmul", failing)
    with pytest.raises(MemoryError, match="helper columns"):
        T._mm(np.ones((64, 1024)), np.ones((1024, 1024)))
    assert two_cpus == {"helpers": 1, "jobs": 1}
    assert _no_helper_left()
    rng = np.random.default_rng(10)
    xp, U, h0 = rng.normal(size=(32, 3, 3 * 1024)), rng.normal(size=(3 * 1024, 1024)), np.zeros((32, 1024))
    with pytest.raises(MemoryError, match="helper columns"):
        T.gru_scan(Tensor(xp), Tensor(U), Tensor(h0))
    assert two_cpus == {"helpers": 2, "jobs": 2}
    assert _no_helper_left()


def test_an_error_on_this_thread_still_joins_the_helper():
    finished = []

    def fail():
        raise ValueError("this thread")

    with pytest.raises(ValueError, match="this thread"):
        with T.TwoCpus() as cpus:
            cpus.run(fail, lambda: finished.append(time.sleep(0.05)))
    assert finished == [None]
    assert _no_helper_left()


def test_a_helper_serves_every_job_of_its_block_and_is_joined_when_the_block_raises():
    ran_on = []
    with pytest.raises(KeyError):
        with T.TwoCpus() as cpus:
            for _ in range(3):
                cpus.run(lambda: None, lambda: ran_on.append(threading.current_thread()))
            raise KeyError("body")
    assert len(ran_on) == 3 and len(set(ran_on)) == 1
    assert ran_on[0] is not threading.current_thread() and ran_on[0].name == "poseattn-helper"
    assert not ran_on[0].is_alive()


def test_every_job_is_done_once_when_run_returns_under_switch_stress():
    # Four callers, each with its own helper: eight threads on fewer CPUs,
    # switching as often as the interpreter allows.
    interval = sys.getswitchinterval()
    seen = {}

    def caller(k):
        done = [0] * 2000
        after_run = []
        with T.TwoCpus() as cpus:
            for i in range(2000):
                cpus.run(lambda: None, lambda i=i: done.__setitem__(i, done[i] + 1))
                after_run.append(done[i])
        seen[k] = (after_run, done)

    sys.setswitchinterval(1e-6)
    try:
        callers = [threading.Thread(target=caller, args=(k,)) for k in range(4)]
        for t in callers:
            t.start()
        for t in callers:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in callers)
    assert seen == {k: ([1] * 2000, [1] * 2000) for k in range(4)}
    assert _no_helper_left()
