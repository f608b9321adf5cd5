"""Learnable layers and training math: linear/MLP, GRU, cross-entropy, Adam.

Weight matrices follow the (out, in) convention.  Initialization is
uniform Glorot except for attention output heads, which are zero-initialized
so the first softmax is exactly uniform.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import tensor as T
from .tensor import NumericError, ShapeError, Tensor


@dataclass
class Linear:
    """Affine map y = x W^T + b with W of shape (out, in)."""

    W: Tensor
    b: Tensor

    def __call__(self, x: Tensor) -> Tensor:
        return T.linear(x, self.W, self.b)

    def named(self, prefix: str) -> dict[str, Tensor]:
        return {f"{prefix}.W": self.W, f"{prefix}.b": self.b}


def glorot_uniform(rng: np.random.Generator, out_dim: int, in_dim: int) -> np.ndarray:
    a = np.sqrt(6.0 / (in_dim + out_dim))
    return rng.uniform(-a, a, size=(out_dim, in_dim))


def linear_init(rng: np.random.Generator, in_dim: int, out_dim: int) -> Linear:
    return Linear(
        W=Tensor(glorot_uniform(rng, out_dim, in_dim), requires_grad=True),
        b=Tensor(np.zeros(out_dim), requires_grad=True),
    )


def linear_zero(in_dim: int, out_dim: int) -> Linear:
    """All-zero layer; under softmax this yields an exactly uniform distribution."""
    return Linear(
        W=Tensor(np.zeros((out_dim, in_dim)), requires_grad=True),
        b=Tensor(np.zeros(out_dim), requires_grad=True),
    )


@dataclass
class Mlp:
    """ReLU-hidden multilayer perceptron with an identity output."""

    layers: list[Linear]

    def __call__(
        self,
        x: Tensor,
        dropout_rate: float = 0.0,
        rng: np.random.Generator | None = None,
        training: bool = False,
    ) -> Tensor:
        h = x
        for layer in self.layers[:-1]:
            h = T.relu(layer(h))
            h = dropout(h, dropout_rate, rng, training)
        return self.layers[-1](h)

    def named(self, prefix: str) -> dict[str, Tensor]:
        out: dict[str, Tensor] = {}
        for i, layer in enumerate(self.layers):
            out.update(layer.named(f"{prefix}.l{i}"))
        return out


def mlp_init(
    rng: np.random.Generator, dims: Sequence[int], zero_output: bool = False
) -> Mlp:
    layers = [linear_init(rng, dims[i], dims[i + 1]) for i in range(len(dims) - 2)]
    if zero_output:
        layers.append(linear_zero(dims[-2], dims[-1]))
    else:
        layers.append(linear_init(rng, dims[-2], dims[-1]))
    return Mlp(layers=layers)


def dropout(
    x: Tensor, rate: float, rng: np.random.Generator | None, training: bool
) -> Tensor:
    """Inverted dropout: mask-multiply with 1/(1-rate) scale at train time, identity at eval."""
    if not training or rate <= 0.0:
        return x
    if rng is None:
        raise ValueError("dropout at train time needs an rng")
    mask = (rng.random(x.shape) >= rate) / (1.0 - rate)
    return T.multiply(x, Tensor(mask))


@dataclass
class GruParams:
    """One GRU cell: update gate z, reset gate r, candidate c.

    Convention: z = sigmoid(W_z x + U_z h + b_z), r likewise,
    c = tanh(W_c x + U_c (r*h) + b_c), h' = (1-z)*h + z*c.
    """

    W_z: Tensor
    W_r: Tensor
    W_c: Tensor
    U_z: Tensor
    U_r: Tensor
    U_c: Tensor
    b_z: Tensor
    b_r: Tensor
    b_c: Tensor

    @property
    def hidden_dim(self) -> int:
        return self.U_z.shape[0]

    @property
    def input_dim(self) -> int:
        return self.W_z.shape[1]

    def named(self, prefix: str) -> dict[str, Tensor]:
        return {
            f"{prefix}.{name}": getattr(self, name)
            for name in ("W_z", "W_r", "W_c", "U_z", "U_r", "U_c", "b_z", "b_r", "b_c")
        }


def gru_init(rng: np.random.Generator, input_dim: int, hidden_dim: int) -> GruParams:
    def w():
        return Tensor(glorot_uniform(rng, hidden_dim, input_dim), requires_grad=True)

    def u():
        return Tensor(glorot_uniform(rng, hidden_dim, hidden_dim), requires_grad=True)

    def b():
        return Tensor(np.zeros(hidden_dim), requires_grad=True)

    return GruParams(W_z=w(), W_r=w(), W_c=w(), U_z=u(), U_r=u(), U_c=u(), b_z=b(), b_r=b(), b_c=b())


def gru_cell_step(params: GruParams, h_prev: Tensor, x: Tensor) -> Tensor:
    if h_prev.shape[-1] != params.hidden_dim:
        raise ShapeError(
            f"gru_cell_step: hidden dim {h_prev.shape[-1]} != cell dim {params.hidden_dim}"
        )
    if x.shape[-1] != params.input_dim:
        raise ShapeError(f"gru_cell_step: input dim {x.shape[-1]} != cell dim {params.input_dim}")
    z = T.sigmoid(_affine(x, params.W_z, h_prev, params.U_z, params.b_z))
    r = T.sigmoid(_affine(x, params.W_r, h_prev, params.U_r, params.b_r))
    c = T.tanh(_affine(x, params.W_c, T.multiply(r, h_prev), params.U_c, params.b_c))
    one_minus_z = T.subtract(Tensor(np.ones_like(z.data)), z)
    return T.add(T.multiply(one_minus_z, h_prev), T.multiply(z, c))


def _affine(x: Tensor, W: Tensor, h: Tensor, U: Tensor, b: Tensor) -> Tensor:
    return T.add(T.linear(x, W, b), T.linear(h, U))


@dataclass
class GruStack:
    """Stacked GRU layers; layer l consumes layer l-1's hidden state."""

    cells: list[GruParams]

    def forward(
        self,
        xs: Sequence[Tensor],
        dropout_rate: float = 0.0,
        rng: np.random.Generator | None = None,
        training: bool = False,
    ) -> list[Tensor]:
        """Run the stack over a sequence; returns the top-layer state per step."""
        if not xs:
            raise ShapeError("gru_stack_forward: empty input sequence")
        batch = xs[0].shape[:-1]
        states = [
            Tensor(np.zeros(batch + (cell.hidden_dim,))) for cell in self.cells
        ]
        top: list[Tensor] = []
        for x in xs:
            inp = x
            for layer, cell in enumerate(self.cells):
                if layer > 0:
                    inp = dropout(inp, dropout_rate, rng, training)
                states[layer] = gru_cell_step(cell, states[layer], inp)
                inp = states[layer]
            top.append(states[-1])
        return top

    def named(self, prefix: str) -> dict[str, Tensor]:
        out: dict[str, Tensor] = {}
        for i, cell in enumerate(self.cells):
            out.update(cell.named(f"{prefix}.layer{i}"))
        return out


def gru_stack_init(
    rng: np.random.Generator, input_dim: int, hidden_dim: int, n_layers: int
) -> GruStack:
    cells = [
        gru_init(rng, input_dim if i == 0 else hidden_dim, hidden_dim)
        for i in range(n_layers)
    ]
    return GruStack(cells=cells)


def one_hot(targets: np.ndarray, n_classes: int) -> np.ndarray:
    targets = np.asarray(targets)
    if targets.min() < 0 or targets.max() >= n_classes:
        raise ValueError(
            f"class index outside [0, {n_classes}): {targets.min()}..{targets.max()}"
        )
    out = np.zeros((targets.size, n_classes))
    out[np.arange(targets.size), targets.reshape(-1)] = 1.0
    return out


def cross_entropy(logits: Tensor, targets: np.ndarray) -> Tensor:
    """Mean over rows of -log softmax(logits)[target]."""
    if logits.ndim != 2:
        raise ShapeError(f"cross_entropy: logits must be (batch, classes), got {logits.shape}")
    n, c = logits.shape
    targets = np.asarray(targets).reshape(-1)
    if targets.size != n:
        raise ShapeError(f"cross_entropy: {n} rows but {targets.size} targets")
    mask = Tensor(one_hot(targets, c))
    log_p = T.log_softmax(logits)
    return T.scale(T.sum_axis(T.multiply(log_p, mask)), -1.0 / n)


@dataclass
class AdamState:
    """Adam moments and hyperparameters; ``step`` counts applied updates."""

    lr: float = 1e-4
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    step: int = 0
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)


def adam_step(state: AdamState, params: dict[str, Tensor], grads: dict[str, np.ndarray]) -> None:
    """Apply one Adam update in place; parameters without a gradient are untouched."""
    for name, g in grads.items():
        if not np.all(np.isfinite(g)):
            raise NumericError(f"adam_step: non-finite gradient for {name}")
        if g.shape != params[name].data.shape:
            raise ShapeError(
                f"adam_step: gradient shape {g.shape} != parameter shape {params[name].data.shape} for {name}"
            )
    state.step += 1
    t = state.step
    bc1 = 1.0 - state.beta1**t
    bc2 = 1.0 - state.beta2**t
    largest = max((g.size for g in grads.values()), default=0)
    scratch_a, scratch_b = np.empty(largest), np.empty(largest)
    for name, g in grads.items():
        p = params[name]
        m = state.m.get(name)
        if m is None:
            m = state.m[name] = np.zeros_like(p.data)
        v = state.v.get(name)
        if v is None:
            v = state.v[name] = np.zeros_like(p.data)
        # p -= lr * (m / bc1) / (sqrt(v / bc2) + eps), written into two
        # scratch buffers: the same operations in the same order.
        a = scratch_a[: g.size].reshape(g.shape)
        b = scratch_b[: g.size].reshape(g.shape)
        m *= state.beta1
        np.multiply(g, 1.0 - state.beta1, out=a)
        m += a
        v *= state.beta2
        np.multiply(g, g, out=a)
        a *= 1.0 - state.beta2
        v += a
        np.divide(m, bc1, out=a)
        a *= state.lr
        np.divide(v, bc2, out=b)
        np.sqrt(b, out=b)
        b += state.eps
        a /= b
        p.data -= a


def collect_grads(params: dict[str, Tensor]) -> dict[str, np.ndarray]:
    return {name: p.grad for name, p in params.items() if p.grad is not None}


def zero_grads(params: dict[str, Tensor]) -> None:
    for p in params.values():
        p.grad = None
