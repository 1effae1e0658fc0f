"""Candidate operations of the two search levels.

First level (unary, weight-free): Identity, Zero.  Second level (binary,
all mapping a pair of N x C x L tensors to N x C x L): Zero, Sum,
Attention (single-head scaled dot-product over the position axis),
LinearGLU, and ConcatFC.  Each op is a differentiable tensor program over
the autodiff primitives; learnable weights are owned by ``OpInstance``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import ShapeError, Tensor

FIRST_LEVEL_OPS = ("identity", "zero")
SECOND_LEVEL_OPS = ("zero", "sum", "attention", "linear_glu", "concat_fc")


def channel_linear(x: Tensor, w: Tensor) -> Tensor:
    """Apply a channel-mixing matrix (C_in x C_out) at every batch position."""
    n, c, length = x.shape
    if w.shape[0] != c:
        raise ShapeError(f"channel_linear: weight {w.shape} does not accept {c} channels")
    flat = ad.reshape(ad.transpose(x, (0, 2, 1)), (n * length, c))
    h = ad.matmul(flat, w)
    return ad.transpose(ad.reshape(h, (n, length, w.shape[1])), (0, 2, 1))


def bias_rows(tape, rows: int, b: Tensor) -> Tensor:
    # replicate a bias vector over rows via an explicit ones matmul
    # (the engine has no broadcasting beyond scalar scaling)
    ones = tape.constant(np.ones((rows, 1)))
    return ad.matmul(ones, ad.reshape(b, (1, b.shape[0])))


def _check_pair(x: Tensor, y: Tensor, op: str) -> None:
    if x.shape != y.shape:
        raise ShapeError(f"{op}: operand shapes {x.shape} and {y.shape} differ")


def op_identity(tape, x: Tensor) -> Tensor:
    return x


def op_zero(tape, x: Tensor, y: Tensor = None) -> Tensor:
    if y is not None:
        _check_pair(x, y, "zero")
    return ad.scale(x, 0.0)


def op_sum(tape, x: Tensor, y: Tensor) -> Tensor:
    _check_pair(x, y, "sum")
    return ad.add(x, y)


def op_attention(tape, x: Tensor, y: Tensor) -> Tensor:
    """Softmax(x^T y / sqrt(C)) attention; x supplies queries, y keys/values.

    Positions along L are the tokens, channels the feature dimension; the
    softmax normalizes over the key positions.
    """
    if x.shape[1] != y.shape[1]:
        raise ShapeError(f"attention: channel counts {x.shape} and {y.shape} differ")
    c = x.shape[1]
    scores = ad.scale(ad.matmul(ad.transpose(x, (0, 2, 1)), y), 1.0 / math.sqrt(c))
    attn = ad.softmax_last(scores)  # (N, Lq, Lk), normalized over keys
    return ad.matmul(y, ad.transpose(attn, (0, 2, 1)))


def op_linear_glu(tape, x: Tensor, y: Tensor, w1: Tensor, w2: Tensor) -> Tensor:
    _check_pair(x, y, "linear_glu")
    return ad.mul(channel_linear(x, w1), ad.sigmoid(channel_linear(y, w2)))


def op_concat_fc(tape, x: Tensor, y: Tensor, w: Tensor, b: Tensor) -> Tensor:
    _check_pair(x, y, "concat_fc")
    joint = ad.concat(x, y, axis=1)  # (N, 2C, L)
    n, c2, length = joint.shape
    if w.shape[0] != c2:
        raise ShapeError(f"concat_fc: weight {w.shape} does not accept {c2} channels")
    flat = ad.reshape(ad.transpose(joint, (0, 2, 1)), (n * length, c2))
    h = ad.add(ad.matmul(flat, w), bias_rows(tape, n * length, b))
    return ad.transpose(ad.reshape(ad.relu(h), (n, length, w.shape[1])), (0, 2, 1))


@dataclass(frozen=True)
class OpDescriptor:
    """Name, search level, arity, and owned weight shapes of one candidate op."""

    name: str
    level: str
    arity: int
    weight_shapes: tuple
    fan_ins: tuple

    @property
    def param_count(self) -> int:
        return int(sum(np.prod(s) for s in self.weight_shapes))


def descriptor(name: str, channels: int, level: str = "second") -> OpDescriptor:
    c = channels
    if level == "first":
        if name not in FIRST_LEVEL_OPS:
            raise ValueError(f"{name!r} is not a first-level operation")
        return OpDescriptor(name, "first", 1, (), ())
    if name not in SECOND_LEVEL_OPS:
        raise ValueError(f"{name!r} is not a second-level operation")
    if name in ("zero", "sum", "attention"):
        return OpDescriptor(name, "second", 2, (), ())
    if name == "linear_glu":
        return OpDescriptor(name, "second", 2, ((c, c), (c, c)), (c, c))
    return OpDescriptor(name, "second", 2, ((2 * c, c), (c,)), (2 * c, 2 * c))


class OpInstance:
    """A candidate op plus its initialized weights (fan-in uniform, seeded)."""

    def __init__(self, desc: OpDescriptor, rng: np.random.Generator):
        self.descriptor = desc
        self.weights = [
            rng.uniform(-1.0 / math.sqrt(f), 1.0 / math.sqrt(f), size=s)
            for s, f in zip(desc.weight_shapes, desc.fan_ins)
        ]

    @property
    def param_count(self) -> int:
        return self.descriptor.param_count

    def make_tensors(self, tape) -> list:
        return [tape.tensor(w, requires_grad=True) for w in self.weights]

    def forward(self, tape, x: Tensor, y: Tensor = None, weight_tensors=None):
        name = self.descriptor.name
        wt = weight_tensors if weight_tensors is not None else self.make_tensors(tape)
        if name == "identity":
            return op_identity(tape, x)
        if name == "zero":
            return op_zero(tape, x, y)
        if name == "sum":
            return op_sum(tape, x, y)
        if name == "attention":
            return op_attention(tape, x, y)
        if name == "linear_glu":
            return op_linear_glu(tape, x, y, wt[0], wt[1])
        if name == "concat_fc":
            return op_concat_fc(tape, x, y, wt[0], wt[1])
        raise ValueError(f"unknown candidate operation {name!r}")
