"""Two-level differentiable architecture search over bimodal fusion graphs.

First level: a DAG whose nodes are tapped modality features followed by
cells; every edge into a cell carries a relaxed Identity/Zero choice
(logits alpha).  Second level: inside each cell, intermediate nodes fuse
two inputs with a relaxed mixture over the candidate binary operations
(logits gamma), and per-slot input wiring is itself a relaxed binary
choice between the cell input node and the previous intermediate node
(logits beta).  In search mode every mixture weight vector is a
Monte Carlo average of K tempered softmaxes at conditionally re-drawn
Gumbel perturbations given a sampled hard outcome; gradients flow to the
logits through the averaged softmax Jacobians with the noise held fixed.
Eval mode replaces all of it with plain softmax probabilities and is
sampling-free.  The derived discrete network runs through the same graph
walker, with a genotype's hard picks in place of the logits.

Bilevel training alternates weight updates (train split) with
architecture updates (validation split); search stops when the Shannon
entropies of the alpha and gamma distributions stabilize.
"""

from __future__ import annotations

import functools
import itertools
import json
import zipfile
from dataclasses import asdict, dataclass

import numpy as np

from . import autodiff as ad
from . import gumbel, kernels, ops, tensor_io
from .autodiff import Tape, Tensor
from .metrics import MetricsReport, classification_report
from .ops import FIRST_LEVEL_OPS, SECOND_LEVEL_OPS, OpInstance, descriptor

CHECKPOINT_VERSION = 2
GENOTYPE_VERSION = 1


class TrainingDivergedError(RuntimeError):
    """Raised when a training step produces a non-finite loss."""


class DegenerateGenotypeError(ValueError):
    """Raised when a derived architecture leaves a cell without inputs."""


class CheckpointMismatchError(ValueError):
    """Raised when a checkpoint cannot resume the requested run."""


# ---------------------------------------------------------------------------
# configuration


@dataclass(frozen=True)
class SearchSpaceConfig:
    n_image_features: int = 2
    n_speech_features: int = 2
    n_cells: int = 2
    nodes_per_cell: int = 2
    lam: float = 0.1
    k_samples: int = 100
    channels: int = 16
    length: int = 8
    tap_seed: int = 1234  # fixed feature-tap projections, shared by search and retrain

    def __post_init__(self):
        counts = (self.n_image_features, self.n_speech_features, self.n_cells, self.nodes_per_cell)
        if min(counts) < 1:
            raise ValueError(f"all topology counts must be >= 1, got {counts}")
        if not self.lam > 0:
            raise ValueError(f"temperature must be positive, got {self.lam}")
        if self.k_samples < 1:
            raise ValueError(f"k_samples must be >= 1, got {self.k_samples}")
        if self.tap_seed < 0:
            raise ValueError(f"tap_seed must be >= 0, got {self.tap_seed}")

    @property
    def n_feature_nodes(self) -> int:
        return self.n_image_features + self.n_speech_features

    @property
    def node_names(self) -> list:
        return (
            [f"I{i + 1}" for i in range(self.n_image_features)]
            + [f"S{i + 1}" for i in range(self.n_speech_features)]
            + [f"Cell{i + 1}" for i in range(self.n_cells)]
        )

    def gamma_row(self, ci: int, ni: int) -> int:
        return ci * self.nodes_per_cell + ni

    def beta_row(self, ci: int, ni: int, slot: int) -> int:
        return (ci * self.nodes_per_cell + ni) * 2 + slot

    def first_level_edges(self) -> list:
        """(src index, dst index) pairs: every cell sees all its predecessors."""
        edges = []
        for ci in range(self.n_cells):
            dst = self.n_feature_nodes + ci
            for src in range(dst):
                edges.append((src, dst))
        return edges


@dataclass(frozen=True)
class TrainSchedule:
    epochs: int = 100
    batch_size: int = 8
    weight_lr: float = 3e-3
    arch_lr: float = 2e-2
    arch_lr_decay: float = 0.90  # per-epoch exponential decay; 1.0 disables
    weight_decay: float = 1e-3
    entropy_tol: float = 1e-3
    entropy_patience: int = 5

    def __post_init__(self):
        if self.epochs < 1 or self.batch_size < 1 or self.entropy_patience < 1:
            raise ValueError("epochs, batch_size and entropy_patience must be positive")
        if self.weight_lr < 0 or self.arch_lr < 0 or self.weight_decay < 0 or self.entropy_tol < 0:
            raise ValueError("rates, decay and tolerance must be non-negative")
        if not 0.0 < self.arch_lr_decay <= 1.0:
            raise ValueError(f"arch_lr_decay must lie in (0, 1], got {self.arch_lr_decay}")


# ---------------------------------------------------------------------------
# state


def make_taps(space: SearchSpaceConfig) -> list:
    """Fixed orthogonal channel projections standing in for backbone stages.

    Tap 0 of each modality is the identity; later taps are seeded orthogonal
    mixings.  Non-learnable, identical for search and retrain.
    """
    rng = np.random.default_rng(space.tap_seed)
    taps = []
    for count in (space.n_image_features, space.n_speech_features):
        for j in range(count):
            if j == 0:
                taps.append(np.eye(space.channels))
            else:
                q, _ = np.linalg.qr(rng.normal(size=(space.channels, space.channels)))
                taps.append(q)
    return taps


class ParamGroup:
    """Named float64 arrays held as views of one contiguous buffer ``data``.

    ``arrays`` maps each name to its view of ``data``, made once and never
    rebound: Adam and load_checkpoint write the views in place, and the ops
    read them at call time.  ``grad`` is the group's gradient buffer in the
    same layout, whose views ``leaves`` hands out.  Elementwise work on
    ``data`` gives each element the bits it gets from the same work on each
    array.
    """

    def __init__(self, arrays: dict):
        self._layout = []  # (name, start, stop, shape)
        offset = 0
        for name, a in arrays.items():
            self._layout.append((name, offset, offset + a.size, a.shape))
            offset += a.size
        self.data = np.concatenate([np.ravel(a) for a in arrays.values()])
        self.grad = np.zeros_like(self.data)
        self._bind()

    def _bind(self) -> None:
        self.arrays = self.views(self.data)
        self._grad_views = list(self.views(self.grad).values())

    def __getstate__(self):
        """A copy holds copies of the buffers; its views are made over them."""
        return {"_layout": self._layout, "data": self.data, "grad": self.grad}

    def __setstate__(self, state):
        self.__dict__.update(state)
        self._bind()

    def views(self, flat: np.ndarray) -> dict:
        """Each name's view of ``flat``, a buffer in this group's layout."""
        return {name: flat[start:stop].reshape(shape) for name, start, stop, shape in self._layout}

    def leaves(self, tape, requires_grad: bool) -> dict:
        """A leaf tensor per array.  Leaves that take gradients start from
        views of the zeroed ``grad``, so accumulate's first write stores
        0 + g there and a leaf that gets no gradient reads zero."""
        leaves = {name: Tensor(a, tape, requires_grad) for name, a in self.arrays.items()}
        if requires_grad:
            self.grad[...] = 0.0
            for leaf, g in zip(leaves.values(), self._grad_views):
                leaf.grad = g
        return leaves


class _FusionWeights:
    """Op weights keyed (cell, node, op name), the head and the fixed taps.

    The search state holds every candidate op at every node, the derived
    network only its genotype's op; both keep the same weight names.  The
    op weights and the head are one parameter group, ``omega``.  ``cells``
    is what the graph walker reads, built once per network: per cell its
    incoming edges, its gamma and beta choices (``_cell_choices``) and per
    node the (name, callable(tape, x, y)) pairs of its ops.  A copy of a
    network rebinds its views and builds its own ``cells``.
    """

    def __init__(self, space: SearchSpaceConfig, op_instances: dict, rng: np.random.Generator):
        self.space = space
        self.ops = op_instances
        c = space.channels
        head_w = rng.uniform(-1.0 / np.sqrt(c), 1.0 / np.sqrt(c), size=(c, 2))
        head_b = rng.uniform(-1.0 / np.sqrt(c), 1.0 / np.sqrt(c), size=2)
        self.taps = make_taps(space)
        self.flag_taps()
        # (op key, weight name, index in the op's weights) in sorted op order, named once
        self._op_weights = [
            ((ci, ni, name), f"cell{ci}.node{ni}.{name}.w{k}", k)
            for (ci, ni, name), inst in sorted(op_instances.items())
            for k in range(len(inst.weights))
        ]
        # each op's weights as a slice of the list of omega's leaves
        self._op_slices = [
            (key, i, i + len(op_instances[key].weights)) for i, (key, _, k) in enumerate(self._op_weights) if k == 0
        ]
        weights = {name: self.ops[key].weights[k] for key, name, k in self._op_weights}
        self.omega = ParamGroup({**weights, "head.w": head_w, "head.b": head_b})
        self._bind()

    def _bind(self) -> None:
        """Point each op at its views of omega and build ``cells``."""
        for key, name, k in self._op_weights:
            self.ops[key].weights[k] = self.omega.arrays[name]
        op_leaves = self._op_leaves = {key: [] for key in self.ops}  # filled by weight_leaves

        def node_op(key):
            inst = self.ops[key]
            return lambda tape, x, y: inst.forward(tape, x, y, op_leaves[key])

        nodes = range(self.space.nodes_per_cell)
        self.cells = tuple(
            (*choices, [
                [(name, node_op((ci, ni, name))) for name in SECOND_LEVEL_OPS if (ci, ni, name) in self.ops]
                for ni in nodes
            ])
            for ci, choices in enumerate(self._cell_choices())
        )

    def __getstate__(self):
        state = dict(self.__dict__)
        del state["cells"], state["_op_leaves"]  # closures over this network's ops
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        self._bind()

    def flag_taps(self) -> None:
        """Mark the taps equal to the identity, which the walker passes
        through; rerun after writing a tap."""
        eye = np.eye(self.space.channels)
        self.identity_taps = [np.array_equal(tap, eye) for tap in self.taps]

    def omega_arrays(self) -> dict:
        return self.omega.arrays

    def weight_leaves(self, tape, requires_grad: bool):
        """(leaf tensor per omega_arrays name, each op's weight leaves by op
        key); the ops of ``cells`` read the op leaves of the last call."""
        leaves = self.omega.leaves(tape, requires_grad)
        values = list(leaves.values())
        by_op = self._op_leaves
        for key, start, stop in self._op_slices:
            by_op[key] = values[start:stop]
        return leaves, by_op


class SearchState(_FusionWeights):
    """All learnable parameters of a search run, in two parameter groups.

    arch, the views alpha, gamma and beta:
      alpha: (edges, 2) first-level logits over (identity, zero);
      gamma: (cells * nodes, |second-level ops|) operation logits;
      beta:  (cells * nodes * 2 slots, 2) input-wiring logits over
             (cell input node, previous intermediate node);
    omega: every candidate op's weights at every cell node, plus the head.
    """

    def __init__(self, space: SearchSpaceConfig, rng: np.random.Generator):
        op_instances = {
            (ci, ni, name): OpInstance(descriptor(name, space.channels), rng)
            for ci in range(space.n_cells)
            for ni in range(space.nodes_per_cell)
            for name in SECOND_LEVEL_OPS
        }
        self.arch = ParamGroup({
            "alpha": np.zeros((len(space.first_level_edges()), len(FIRST_LEVEL_OPS))),
            "gamma": np.zeros((space.n_cells * space.nodes_per_cell, len(SECOND_LEVEL_OPS))),
            "beta": np.zeros((space.n_cells * space.nodes_per_cell * 2, 2)),
        })
        super().__init__(space, op_instances, rng)

    def _bind(self) -> None:
        super()._bind()
        self.alpha, self.gamma, self.beta = self.arch.arrays.values()

    def _cell_choices(self):
        """The walker mixes every choice: each cell's arch rows."""
        return _cell_rows(self.space)

    def arch_arrays(self) -> dict:
        return {"alpha": self.alpha, "gamma": self.gamma, "beta": self.beta}


# ---------------------------------------------------------------------------
# relaxed mixtures


def grmc_mixture_weights(tape: Tape, logits: Tensor, lam: float, k: int, rng, mode: str,
                         uniforms=None) -> Tensor:
    """Mixture weights over the candidates of every row of a logits vector or
    matrix: one tensor of the logits' shape and one tape entry.

    search: per row, sample the hard outcome, draw k conditional
    perturbations, and average the tempered softmaxes; the backward pass
    applies the averaged softmax Jacobians at the same fixed perturbations.
    ``uniforms`` (rows, 1 + k, N) holds each row's (1, N) Gumbel-max block
    and (k, N) posterior block, drawn from ``rng`` row after row when not
    given.  eval: plain softmax of the logits, no sampling, no temperature.
    """
    if mode == "eval":
        return ad.softmax_last(logits)
    if mode != "search":
        raise ValueError(f"mode must be 'search' or 'eval', got {mode!r}")
    theta = np.atleast_2d(logits.data)
    if uniforms is None:
        uniforms = rng.random((theta.shape[0], k + 1, theta.shape[1]))
    s, _ = kernels.mixture_softmax(theta, uniforms, lam)  # (rows, k, N), noise held fixed

    def bw(g):
        g = g.reshape(theta.shape)
        jvp = kernels.averaged_jvp(s, g[:, :, None] - g[:, None, :], lam)
        ad.accumulate(logits, jvp.reshape(logits.shape))

    return ad.result(tape, s.mean(axis=1).reshape(logits.shape), (logits,), bw)


def mixed_edge_forward(x: Tensor, choice):
    """Identity/Zero edge mixed by ``choice``, a (weights, row) pair: one
    weighted_sum in which the zero branch contributes exactly nothing."""
    return ad.weighted_sum((x, None), *choice)


def cell_forward(tape, inputs, gamma_rows, beta_rows, node_ops) -> Tensor:
    """One cell: beta-wired slots feed gamma-chosen ops; output sums nodes.

    inputs: already edge-transformed predecessor tensors (>= 1);
    gamma_rows: per intermediate node, a (weights, row) pair over its ops or
    an int pick of one;
    beta_rows: per node, two slot choices, each a (weights, row) pair or an
    int pick of 0 (cell input node) or 1 (previous intermediate node);
    node_ops: per node, list of (name, callable(tape, x, y) -> Tensor).
    A mixture is one weighted_sum that skips "zero" (exact zero
    contribution and zero weight gradient).
    """
    if not inputs:
        raise ValueError("cell needs at least one predecessor input")
    in_c = inputs[0]
    for x in inputs[1:]:
        in_c = ad.add(in_c, x)
    prev, out = in_c, None
    for gamma_row, (row0, row1), candidates in zip(gamma_rows, beta_rows, node_ops):
        wired = (in_c, prev)
        x = ad.weighted_sum(wired, *row0) if isinstance(row0, tuple) else wired[row0]
        y = ad.weighted_sum(wired, *row1) if isinstance(row1, tuple) else wired[row1]
        if isinstance(gamma_row, tuple):
            terms = [None if name == "zero" else fn(tape, x, y) for name, fn in candidates]
            prev = ad.weighted_sum(terms, *gamma_row)
        else:
            prev = candidates[gamma_row][1](tape, x, y)
        out = prev if out is None else ad.add(out, prev)
    return out


# ---------------------------------------------------------------------------
# the graph walker: search network, its eval mode and the derived network


@functools.lru_cache(maxsize=64)
def _cell_rows(space: SearchSpaceConfig) -> tuple:
    """Per cell, its rows of the arch matrices in SearchState's layout: the
    (source node, alpha row) of each incoming edge, each node's gamma row
    and each node's (slot 0, slot 1) beta rows."""
    edges = space.first_level_edges()
    nodes = range(space.nodes_per_cell)
    return tuple(
        (
            tuple((src, ei) for ei, (src, dst) in enumerate(edges) if dst == space.n_feature_nodes + ci),
            tuple(space.gamma_row(ci, ni) for ni in nodes),
            tuple((space.beta_row(ci, ni, 0), space.beta_row(ci, ni, 1)) for ni in nodes),
        )
        for ci in range(space.n_cells)
    )


@functools.lru_cache(maxsize=64)
def _uniform_cuts(space: SearchSpaceConfig, shapes: tuple):
    """Where a search forward's one uniform block is cut: its length, and per
    arch matrix of ``shapes`` ((name, (rows, N)), ...) the (rows, 1 + K, N)
    index of its rows' uniforms.  Each row's slice sits where one-row draws
    in walk order take it: per cell its alpha edges, then per node beta slot
    0, beta slot 1 and gamma."""
    width = {name: (space.k_samples + 1) * n for name, (_, n) in shapes}
    starts = {name: np.empty(rows, dtype=np.int64) for name, (rows, _) in shapes}
    offset = 0
    for edges, gamma_rows, beta_rows in _cell_rows(space):
        rows = [("alpha", ei) for _, ei in edges]
        for g, (b0, b1) in zip(gamma_rows, beta_rows):
            rows += [("beta", b0), ("beta", b1), ("gamma", g)]
        for name, row in rows:
            starts[name][row] = offset
            offset += width[name]
    cuts = {}
    for name, (rows, n) in shapes:
        cuts[name] = (starts[name][:, None] + np.arange(width[name])).reshape(rows, space.k_samples + 1, n)
        cuts[name].flags.writeable = False  # shared by every forward in this space
    return offset, cuts


def _mixture_uniforms(space: SearchSpaceConfig, logits: dict, rng) -> dict:
    """A search forward's uniforms: one block, cut into (rows, 1 + K, N) per
    arch matrix of ``logits`` at ``_uniform_cuts``."""
    size, cuts = _uniform_cuts(space, tuple((name, t.shape) for name, t in logits.items()))
    block = rng.random(size)
    return {name: block[at] for name, at in cuts.items()}


def _walk(tape, net: _FusionWeights, weights, xa, xb, omega_grads: bool):
    """Forward pass over the fusion graph; returns (logits, weight leaves).

    ``weights`` is None for a derived network, whose ``cells`` hold its
    genotype's picks, or the (alpha, gamma, beta) mixture weight tensors of
    a search state, whose ``cells`` hold the rows they mix.  The weight
    leaves take gradients iff ``omega_grads``.
    """
    leaves, _ = net.weight_leaves(tape, omega_grads)
    modal = (tape.constant(xa), tape.constant(xb))
    values = []
    for fi, (tap, identity) in enumerate(zip(net.taps, net.identity_taps)):
        src = modal[fi >= net.space.n_image_features]
        values.append(src if identity else ops.channel_linear(src, tape.constant(tap)))

    for edges, gamma_rows, beta_rows, node_ops in net.cells:
        if weights is None:
            ins = [values[src] for src in edges]
        else:
            wa, wg, wb = weights
            ins = [mixed_edge_forward(values[src], (wa, row)) for src, row in edges]
            gamma_rows = [(wg, row) for row in gamma_rows]
            beta_rows = [((wb, b0), (wb, b1)) for b0, b1 in beta_rows]
        values.append(cell_forward(tape, ins, gamma_rows, beta_rows, node_ops))

    return _head(tape, values[-1], leaves["head.w"], leaves["head.b"]), leaves


def _head(tape, v: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """Class logits mean_L(v) @ w + b, one tape entry with the arithmetic of
    mean_axis, a ones-matmul bias, matmul and add."""
    scale = 1.0 / v.shape[2]
    pooled = v.data.sum(axis=2) * scale
    ones = np.ones((pooled.shape[0], 1))
    bias = ones @ b.data.reshape((1, b.shape[0]))
    prod = pooled @ w.data

    def bw(g):
        if w.requires_grad:
            ad.accumulate(w, pooled.swapaxes(-1, -2) @ g)
        if b.requires_grad:
            ad.accumulate(b, (ones.swapaxes(-1, -2) @ g).reshape(b.shape))
        if v.requires_grad:
            g_sums = (g @ w.data.swapaxes(-1, -2)) * scale
            ad.accumulate(v, np.broadcast_to(np.expand_dims(g_sums, 2), v.shape))

    return ad.result(tape, prod + bias, (v, w, b), bw)


def network_forward(tape, state: SearchState, xa, xb, rng, mode: str, grads: str = "all"):
    """Search-space forward pass; returns (logits tensor, leaf tensor dict).

    ``grads`` names the leaves that take gradients: "omega" (the op and head
    weights), "arch" (alpha, gamma, beta) or "all".  The forward values and
    the draws from ``rng`` do not depend on it.
    """
    if grads not in ("omega", "arch", "all"):
        raise ValueError(f"grads must be 'omega', 'arch' or 'all', got {grads!r}")
    space = state.space
    arch = state.arch.leaves(tape, grads != "omega")
    uniforms = _mixture_uniforms(space, arch, rng) if mode == "search" else {}
    weights = [
        grmc_mixture_weights(tape, t, space.lam, space.k_samples, rng, mode, uniforms.get(name))
        for name, t in arch.items()
    ]  # each matrix's weights at once
    logits, leaves = _walk(tape, state, weights, xa, xb, grads != "arch")
    return logits, {**arch, **leaves}


def cross_entropy_loss(tape, logits: Tensor, labels) -> Tensor:
    """Mean cross-entropy of two-class logits, one tape entry with the
    arithmetic of log_softmax_last, a one-hot mul, sum_all and scale."""
    onehot = np.eye(2)[np.asarray(labels, dtype=np.int64)]
    logp = gumbel.log_softmax(logits.data)
    picked = logp * onehot
    total = np.asarray(picked.sum())
    scale = -1.0 / labels.shape[0]

    def bw(g):
        g_logp = np.full_like(picked, float(g * scale)) * onehot
        ad.accumulate(logits, g_logp - np.exp(logp) * g_logp.sum(axis=-1, keepdims=True))

    return ad.result(tape, total * scale, (logits,), bw)


# ---------------------------------------------------------------------------
# optimization


class Adam:
    """Adaptive-moment optimizer over one parameter buffer, updated in place.

    A parameter group's ``data`` and ``grad`` step in one elementwise pass,
    with the moments as one buffer each, made at the first step.
    """

    def __init__(self, lr, betas=(0.9, 0.999), eps=1e-8, weight_decay=0.0):
        self.lr = lr
        self.betas = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self.step_count = 0
        self.moments = None  # (m, v), each laid out like the parameters

    def step(self, params: np.ndarray, grads: np.ndarray) -> None:
        if self.lr == 0.0:
            return  # bitwise no-op contract for zero learning rates
        self.step_count += 1
        b1, b2 = self.betas
        correction1 = 1.0 - b1**self.step_count
        correction2 = 1.0 - b2**self.step_count
        g = grads + self.weight_decay * params if self.weight_decay else grads
        if self.moments is None:
            self.moments = (np.zeros_like(params), np.zeros_like(params))
        m, v = self.moments
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * g * g
        params -= self.lr * (m / correction1) / (np.sqrt(v / correction2) + self.eps)


def _descend(forward, batch, opt: Adam, group: ParamGroup, failure: str) -> float:
    """One cross-entropy step of ``opt`` on the parameter group ``group``
    over (xa, xb, labels).

    ``forward(tape, xa, xb)`` returns (logits, leaves) and takes the group's
    gradients, which land in ``group.grad``; a non-finite loss raises
    TrainingDivergedError with ``failure`` formatted by its value.
    """
    xa, xb, labels = batch
    tape = Tape()
    logits, _ = forward(tape, xa, xb)
    loss = cross_entropy_loss(tape, logits, labels)
    value = loss.item()
    if not np.isfinite(value):
        raise TrainingDivergedError(failure.format(value))
    tape.backward(loss)
    opt.step(group.data, group.grad)
    return value


def bilevel_train_step(state, train_batch, val_batch, schedule, rng, w_opt, a_opt):
    """One alternation: weights on the train batch, architecture on the val batch.

    Each step's forward takes gradients only for the group it updates.
    Returns (train_loss, val_loss).  Raises TrainingDivergedError on
    non-finite losses.
    """

    def forward(grads):
        return lambda tape, xa, xb: network_forward(tape, state, xa, xb, rng, "search", grads)

    train_loss = _descend(
        forward("omega"), train_batch, w_opt, state.omega, "non-finite train loss {} at weight update"
    )
    val_loss = _descend(
        forward("arch"), val_batch, a_opt, state.arch, "non-finite validation loss {} at architecture update"
    )
    return train_loss, val_loss


def entropy(logits_matrix) -> float:
    """Summed Shannon entropy (natural log) of softmax over each row."""
    p = gumbel.softmax(np.atleast_2d(logits_matrix))
    with np.errstate(divide="ignore", invalid="ignore"):
        plogp = np.where(p > 0, p * np.log(p), 0.0)
    return float(-plogp.sum())


# ---------------------------------------------------------------------------
# genotype


def _cell_entry(c: dict) -> dict:
    return {
        "cell": c["cell"], "node": c["node"], "op": c["op"],
        "inputs": list(c["inputs"]), "tie": bool(c.get("tie", False)),
    }


_GENOTYPE_KEYS = (  # JSON key, Genotype field, JSON type, reader (None: as is)
    ("first_level_edges", "first_level_edges", list, lambda v: tuple((e[0], e[1], bool(e[2])) for e in v)),
    ("cells", "cells", list, lambda v: tuple(map(_cell_entry, v))),
    ("lambda", "lam", (int, float), None),
    ("K", "k_samples", int, None),
    ("seed", "seed", int, None),
    ("epoch", "epoch", int, None),
)


@dataclass(frozen=True)
class Genotype:
    """Discrete architecture extracted from a search state."""

    first_level_edges: tuple  # of (src name, dst name, kept)
    cells: tuple  # of dicts {cell, node, op, inputs, tie}
    lam: float
    k_samples: int
    seed: int
    epoch: int
    entropy_history_ref: str = None

    def to_json_dict(self) -> dict:
        return {
            "version": GENOTYPE_VERSION,
            "lambda": self.lam,
            "K": self.k_samples,
            "seed": self.seed,
            "epoch": self.epoch,
            "first_level_edges": [list(e) for e in self.first_level_edges],
            "cells": [dict(c) for c in self.cells],
            "entropy_history_ref": self.entropy_history_ref,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2, sort_keys=True) + "\n"

    def structure_json(self) -> str:
        """Edges and cells only, no provenance; for stability comparisons."""
        payload = self.to_json_dict()
        for key in ("epoch", "seed", "entropy_history_ref"):
            payload.pop(key, None)
        return json.dumps(payload, sort_keys=True)

    @classmethod
    def from_json_dict(cls, payload) -> "Genotype":
        """Raise ValueError naming the first key that is missing or mistyped."""
        if not isinstance(payload, dict):
            raise ValueError(f"expected a JSON object, got {type(payload).__name__}")
        if payload.get("version") != GENOTYPE_VERSION:
            raise ValueError(f"unsupported genotype version {payload.get('version')!r}")
        fields = {"entropy_history_ref": payload.get("entropy_history_ref")}
        for key, name, kind, read in _GENOTYPE_KEYS:
            if key not in payload:
                raise ValueError(f"missing key {key!r}")
            try:
                if isinstance(payload[key], bool) or not isinstance(payload[key], kind):
                    raise TypeError
                fields[name] = read(payload[key]) if read else payload[key]
            except (TypeError, KeyError, IndexError) as err:
                raise ValueError(f"key {key!r} is mistyped: {payload[key]!r:.80}") from err
        return cls(**fields)

    @classmethod
    def from_json(cls, text: str) -> "Genotype":
        return cls.from_json_dict(json.loads(text))

    def check_fits(self, space: SearchSpaceConfig) -> None:
        """Raise ValueError naming the first way this genotype misses ``space``.

        The edges must be the space's first-level edges by name and in order,
        the cells its (cell, node) pairs in order, each with a known op and two
        inputs from the cell input or the previous node; a cell left without a
        kept input edge raises DegenerateGenotypeError.
        """
        names = space.node_names
        expected = (
            ("first-level edge", [(s, d) for s, d, _ in self.first_level_edges],
             [(names[s], names[d]) for s, d in space.first_level_edges()]),
            ("cell node", [(c["cell"], c["node"]) for c in self.cells],
             [(ci, ni) for ci in range(space.n_cells) for ni in range(space.nodes_per_cell)]),
        )
        for what, got, want in expected:
            for i, (g, w) in enumerate(itertools.zip_longest(got, want)):
                if g != w:
                    raise ValueError(f"{what} {i} is {g}, the search space has {w}")
        for c in self.cells:
            wiring = {"in", f"node{c['node'] - 1}"} if c["node"] else {"in"}
            if c["op"] not in SECOND_LEVEL_OPS or len(c["inputs"]) != 2 or not set(c["inputs"]) <= wiring:
                raise ValueError(
                    f"cell {c['cell']} node {c['node']}: {c['op']!r} on {c['inputs']} is not in the space"
                )
        _require_cell_inputs(space, self.first_level_edges)


def _require_cell_inputs(space: SearchSpaceConfig, first_level_edges) -> None:
    for dst in space.node_names[space.n_feature_nodes :]:
        if not any(kept for _, d, kept in first_level_edges if d == dst):
            raise DegenerateGenotypeError(f"no kept input edge into {dst}")


def derive_architecture(state: SearchState, seed: int = 0, epoch: int = 0,
                        entropy_history_ref: str = None) -> Genotype:
    """Per-edge and per-node argmax extraction; deterministic given the state.

    First-level edges are kept iff the identity probability strictly exceeds
    the zero probability; gamma/beta ties resolve to the lowest index and
    set the node's tie flag.  A cell left without any kept incoming edge is
    a degenerate genotype and raises.
    """
    space = state.space
    names = space.node_names
    edges = space.first_level_edges()
    probs = gumbel.softmax(state.alpha)
    id_col = FIRST_LEVEL_OPS.index("identity")
    zero_col = FIRST_LEVEL_OPS.index("zero")
    first = tuple(
        (names[src], names[dst], bool(probs[ei, id_col] > probs[ei, zero_col]))
        for ei, (src, dst) in enumerate(edges)
    )
    _require_cell_inputs(space, first)

    cells = []
    gamma_probs = gumbel.softmax(state.gamma)
    beta_probs = gumbel.softmax(state.beta)
    for ci in range(space.n_cells):
        for ni in range(space.nodes_per_cell):
            row = gamma_probs[space.gamma_row(ci, ni)]
            op_idx = int(np.argmax(row))
            tie = bool(np.sum(row == row[op_idx]) > 1)
            inputs = []
            for slot in range(2):
                brow = beta_probs[space.beta_row(ci, ni, slot)]
                src_idx = int(np.argmax(brow))
                if ni == 0:
                    inputs.append("in")  # both candidates coincide: a tie here is structural
                else:
                    tie = tie or bool(brow[0] == brow[1])
                    inputs.append("in" if src_idx == 0 else f"node{ni - 1}")
            op = SECOND_LEVEL_OPS[op_idx]
            cells.append({"cell": ci, "node": ni, "op": op, "inputs": inputs, "tie": tie})
    return Genotype(
        first_level_edges=first, cells=tuple(cells), lam=space.lam, k_samples=space.k_samples,
        seed=seed, epoch=epoch, entropy_history_ref=entropy_history_ref,
    )


def genotype_param_count(genotype: Genotype, space: SearchSpaceConfig) -> int:
    """Analytic learnable-parameter count of the discrete network (ops + head)."""
    total = sum(
        descriptor(cell["op"], space.channels).param_count for cell in genotype.cells
    )
    return total + space.channels * 2 + 2


# ---------------------------------------------------------------------------
# discrete (derived) network: retraining and evaluation


# Scoring runs the network over blocks of this many samples, so its (n, C, L)
# temporaries stay a block's size (128 KiB at C = 16, L = 8) whatever the split
# size.  It is a multiple of 4, the BLAS row unroll of the head's product, so
# each row rounds as in a one-pass product and the scores keep its bits.
SCORE_BLOCK = 128


class DiscreteNetwork(_FusionWeights):
    """The derived architecture with fresh weights; no sampling anywhere.

    Its ``cells`` hold the genotype's picks as ints, which the graph walker
    takes as hard choices: per cell the source nodes of its kept edges, per
    node its one op (pick 0) and per slot 0 (cell input) or 1 (previous
    node).
    """

    def __init__(self, genotype: Genotype, space: SearchSpaceConfig, rng: np.random.Generator):
        genotype.check_fits(space)
        self.genotype = genotype
        op_instances = {
            (c["cell"], c["node"], c["op"]): OpInstance(descriptor(c["op"], space.channels), rng)
            for c in genotype.cells
        }
        super().__init__(space, op_instances, rng)

    def _cell_choices(self):
        # check_fits guarantees that edges and cells come in SearchState's row order
        edges, cells = self.genotype.first_level_edges, self.genotype.cells
        return [
            (
                tuple(src for src, row in in_edges if edges[row][2]),
                (0,) * len(gamma_rows),
                tuple(tuple(0 if src == "in" else 1 for src in cells[g]["inputs"]) for g in gamma_rows),
            )
            for in_edges, gamma_rows, _ in _cell_rows(self.space)
        ]

    params = _FusionWeights.omega_arrays

    def param_count(self) -> int:
        return int(self.omega.data.size)

    def forward(self, tape, xa, xb, omega_grads: bool = True):
        return _walk(tape, self, None, xa, xb, omega_grads)

    def scores(self, xa, xb) -> np.ndarray:
        """Deterministic class-1 probabilities, from passes that record no
        adjoints, over consecutive blocks of SCORE_BLOCK samples."""
        cuts = list(range(SCORE_BLOCK, xa.shape[0], SCORE_BLOCK))
        if cuts and xa.shape[0] - cuts[-1] == 1:
            cuts.pop()  # a one-row product takes another BLAS path: join the block before
        blocks = []
        for xa_block, xb_block in zip(np.split(xa, cuts), np.split(xb, cuts)):
            logits, _ = self.forward(Tape(), xa_block, xb_block, omega_grads=False)
            blocks.append(gumbel.softmax(logits.data)[:, 1])
        return np.concatenate(blocks)


def train_discrete(net: DiscreteNetwork, train_split, schedule: TrainSchedule, rng) -> list:
    """Plain supervised training of the derived network; returns epoch losses."""
    xa, xb, labels = train_split.xa, train_split.xb, train_split.labels
    opt = Adam(schedule.weight_lr, weight_decay=schedule.weight_decay)
    n = labels.shape[0]
    losses = []
    for _ in range(schedule.epochs):
        order = rng.permutation(n)
        epoch_loss = 0.0
        batches = 0
        for start in range(0, n - schedule.batch_size + 1, schedule.batch_size):
            sel = order[start : start + schedule.batch_size]
            batch = (xa[sel], xb[sel], labels[sel])
            epoch_loss += _descend(net.forward, batch, opt, net.omega, "non-finite retrain loss {}")
            batches += 1
        losses.append(epoch_loss / max(batches, 1))
    return losses


def retrain_and_eval(
    genotype: Genotype, dataset: dict, schedule: TrainSchedule, rng, space: SearchSpaceConfig = None
) -> MetricsReport:
    """Build the discrete network, train from fresh weights, report test metrics.

    ``dataset`` maps split names to ModalitySplit-like objects; training uses
    "train" and metrics come from "test".
    """
    net = DiscreteNetwork(genotype, space if space is not None else SearchSpaceConfig(), rng)
    train_discrete(net, dataset["train"], schedule, rng)
    test = dataset["test"]
    scores = net.scores(test.xa, test.xb)
    return classification_report(scores, test.labels, net.param_count())


# ---------------------------------------------------------------------------
# the search loop


@dataclass
class EpochRecord:
    epoch: int
    e_alpha: float
    e_gamma: float
    train_loss: float
    val_loss: float

    def as_row(self) -> list:
        return [self.epoch, self.e_alpha, self.e_gamma, self.train_loss, self.val_loss]


@dataclass
class SearchResult:
    state: SearchState
    genotype: Genotype
    history: list
    stopped_epoch: int
    stopped_early: bool
    seed: int
    genotype_trace: list = None  # (epoch, genotype JSON or None while degenerate)


def _optimizers(schedule: TrainSchedule):
    """Fresh (weight, architecture) optimizers of a search run."""
    return Adam(schedule.weight_lr, weight_decay=schedule.weight_decay), Adam(schedule.arch_lr)


def _entropy_converged(history, tol: float, patience: int) -> bool:
    if len(history) <= patience:
        return False
    recent = history[-(patience + 1) :]
    for prev, cur in zip(recent, recent[1:]):
        if abs(cur.e_alpha - prev.e_alpha) >= tol or abs(cur.e_gamma - prev.e_gamma) >= tol:
            return False
    return True


def run_search(
    train_split,
    val_split,
    space: SearchSpaceConfig,
    schedule: TrainSchedule,
    seed: int,
    checkpoint_path=None,
    checkpoint_every: int = 0,
    resume_from=None,
) -> SearchResult:
    """Bilevel search with entropy stopping; deterministic given the seed.

    Checkpointing (optional) snapshots the full state, optimizer moments,
    RNG stream and history every ``checkpoint_every`` epochs; ``resume_from``
    continues a run so precisely that the final genotype matches the
    uninterrupted run.
    """
    if resume_from is not None:
        state, w_opt, a_opt, rng, history, start_epoch = load_checkpoint(resume_from, space, schedule, seed)
    else:
        rng = np.random.default_rng(seed)
        state = SearchState(space, rng)
        w_opt, a_opt = _optimizers(schedule)
        history = []
        start_epoch = 0

    n = min(len(train_split.labels), len(val_split.labels))
    per_epoch = max(n // schedule.batch_size, 1)
    bs = schedule.batch_size
    genotype_trace = []
    saved_epoch = None

    for epoch in range(start_epoch, schedule.epochs):
        a_opt.lr = schedule.arch_lr * schedule.arch_lr_decay**epoch
        train_order = rng.permutation(len(train_split.labels))
        val_order = rng.permutation(len(val_split.labels))
        train_loss_sum = 0.0
        val_loss_sum = 0.0
        e_alpha_sum = 0.0
        e_gamma_sum = 0.0
        for b in range(per_epoch):
            ts = train_order[b * bs : (b + 1) * bs]
            vs = val_order[b * bs : (b + 1) * bs]
            if ts.size == 0 or vs.size == 0:
                break
            tr = (train_split.xa[ts], train_split.xb[ts], train_split.labels[ts])
            va = (val_split.xa[vs], val_split.xb[vs], val_split.labels[vs])
            t_loss, v_loss = bilevel_train_step(state, tr, va, schedule, rng, w_opt, a_opt)
            train_loss_sum += t_loss
            val_loss_sum += v_loss
            e_alpha_sum += entropy(state.alpha)
            e_gamma_sum += entropy(state.gamma)
        record = EpochRecord(
            epoch=epoch + 1,
            e_alpha=e_alpha_sum / per_epoch,
            e_gamma=e_gamma_sum / per_epoch,
            train_loss=train_loss_sum / per_epoch,
            val_loss=val_loss_sum / per_epoch,
        )
        history.append(record)
        try:
            snapshot = derive_architecture(state, seed=seed, epoch=epoch + 1).structure_json()
        except DegenerateGenotypeError:
            snapshot = None
        genotype_trace.append((epoch + 1, snapshot))
        if checkpoint_path is not None and checkpoint_every and (epoch + 1) % checkpoint_every == 0:
            save_checkpoint(checkpoint_path, state, w_opt, a_opt, rng, history, epoch + 1, seed, schedule)
            saved_epoch = epoch + 1
        if _entropy_converged(history, schedule.entropy_tol, schedule.entropy_patience):
            break

    stopped = history[-1].epoch if history else 0
    if checkpoint_path is not None and saved_epoch != stopped:
        save_checkpoint(checkpoint_path, state, w_opt, a_opt, rng, history, stopped, seed, schedule)
    genotype = derive_architecture(state, seed=seed, epoch=stopped)
    return SearchResult(
        state=state,
        genotype=genotype,
        history=history,
        stopped_epoch=stopped,
        stopped_early=stopped < schedule.epochs,
        seed=seed,
        genotype_trace=genotype_trace,
    )


# ---------------------------------------------------------------------------
# checkpoints: zip of GRNT tensors (interchange) + exact f64 sidecars + manifest


def _state_arrays(state: SearchState) -> dict:
    taps = {f"tap.{ti}": tap for ti, tap in enumerate(state.taps)}
    return {**state.arch_arrays(), **state.omega_arrays(), **taps}


def _checkpoint_arrays(state: SearchState, w_opt: Adam, a_opt: Adam) -> dict:
    arrays = _state_arrays(state)
    for prefix, opt, group in (("w_opt", w_opt, state.omega), ("a_opt", a_opt, state.arch)):
        if opt.moments is not None:  # each moment is written per named view
            for kind, moment in zip("mv", opt.moments):
                for name, view in group.views(moment).items():
                    arrays[f"{prefix}.{kind}.{name}"] = view
    return arrays


def save_checkpoint(path, state, w_opt, a_opt, rng, history, epoch, seed, schedule) -> None:
    arrays = _checkpoint_arrays(state, w_opt, a_opt)
    manifest = {
        "version": CHECKPOINT_VERSION,
        "epoch": epoch,
        "seed": seed,
        "space": asdict(state.space),
        "schedule": asdict(schedule),
        "rng_state": rng.bit_generator.state,
        "history": [r.as_row() for r in history],
        "tensors": {name: list(a.shape) for name, a in arrays.items()},
        "optimizer_steps": {"w_opt": w_opt.step_count, "a_opt": a_opt.step_count},
    }
    def entry(name):
        # fixed timestamp: checkpoint bytes depend only on content
        return zipfile.ZipInfo(name, date_time=(1980, 1, 1, 0, 0, 0))

    with zipfile.ZipFile(path, "w") as zf:
        zf.writestr(entry("manifest.json"), json.dumps(manifest, indent=2, sort_keys=True))
        for name, arr in sorted(arrays.items()):
            zf.writestr(entry(f"{name}.grnt"), tensor_io.tensor_bytes(arr))
            zf.writestr(entry(f"{name}.f64le"), np.ascontiguousarray(arr, dtype="<f8").tobytes())


def _check_resumes(manifest: dict, space, schedule, seed) -> None:
    """Refuse a resume whose seed, space or schedule (``epochs`` aside) differs."""
    if manifest["version"] != CHECKPOINT_VERSION:
        raise CheckpointMismatchError(f"unsupported checkpoint version {manifest['version']!r}")
    fields = [("seed", manifest["seed"], seed)] if seed is not None else []
    for section, config in (("space", space), ("schedule", schedule)):
        for name, value in asdict(config).items():
            if name != "epochs":
                fields.append((f"{section}.{name}", manifest[section][name], value))
    for name, stored, value in fields:
        if stored != value:
            raise CheckpointMismatchError(
                f"{name} is {stored!r} in the checkpoint but {value!r} in this run"
            )


def load_checkpoint(path, space: SearchSpaceConfig, schedule: TrainSchedule, seed=None):
    """Restore (state, optimizers, rng, history, next_epoch) for exact resume.

    Raises CheckpointMismatchError unless the checkpoint reads as a zip with
    a manifest and the arrays, optimizer steps, RNG state and history it
    names, written under the same space, schedule (``epochs`` aside) and,
    when given, seed.
    """
    try:
        with zipfile.ZipFile(path) as zf:
            manifest = json.loads(zf.read("manifest.json"))
            _check_resumes(manifest, space, schedule, seed)
            arrays = {}
            for name, shape in manifest["tensors"].items():
                raw = zf.read(f"{name}.f64le")
                arrays[name] = np.frombuffer(raw, dtype="<f8").reshape(shape).copy()
        return _restore(manifest, arrays, space, schedule)
    except CheckpointMismatchError:
        raise
    except (OSError, zipfile.BadZipFile, KeyError, TypeError, ValueError) as err:
        raise CheckpointMismatchError(f"it cannot be read ({type(err).__name__}: {err})") from err


def _restore(manifest: dict, arrays: dict, space: SearchSpaceConfig, schedule: TrainSchedule):
    """load_checkpoint's result from a checked manifest and its arrays."""
    state = SearchState(space, np.random.default_rng(manifest["seed"]))
    for name, array in _state_arrays(state).items():
        _put(array, arrays, name)
    state.flag_taps()

    w_opt, a_opt = _optimizers(schedule)
    w_opt.step_count = manifest["optimizer_steps"]["w_opt"]
    a_opt.step_count = manifest["optimizer_steps"]["a_opt"]
    for prefix, opt, group in (("w_opt", w_opt, state.omega), ("a_opt", a_opt, state.arch)):
        if any(name.startswith(f"{prefix}.m.") for name in arrays):
            opt.moments = (np.zeros_like(group.data), np.zeros_like(group.data))
            for kind, moment in zip("mv", opt.moments):
                for name, view in group.views(moment).items():
                    _put(view, arrays, f"{prefix}.{kind}.{name}")

    rng = np.random.default_rng(manifest["seed"])
    rng.bit_generator.state = manifest["rng_state"]
    history = []
    for row in manifest["history"]:
        record = EpochRecord(*row)
        epoch, *values = row
        if type(epoch) is not int or any(type(v) not in (int, float) for v in values):
            raise ValueError(f"history row {row!r} is not an int epoch and four real numbers")
        history.append(record)
    return state, w_opt, a_opt, rng, history, manifest["epoch"]


def _put(target: np.ndarray, arrays: dict, name: str) -> None:
    """Write the checkpoint's array ``name`` over ``target``; one of
    another shape is refused, not broadcast."""
    stored = arrays.pop(name)
    if stored.shape != target.shape:
        raise ValueError(f"array {name!r} has shape {list(stored.shape)}, the state's has {list(target.shape)}")
    target[...] = stored
