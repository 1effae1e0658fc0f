"""Each fused primitive against the chain of autodiff primitives it replaced.

The fusion ops, the search head and the loss are one tape entry each.  Their
forward values and every input's gradient must equal, bit for bit, those of
the composite written out below: under every subset of inputs that take a
gradient, with x and y as one tensor, with a transposed input layout, and
with an input whose gradient already holds a contribution.  The benchmark's
batch shapes run rows of 8 positions, where numpy's row sums switch from a
plain loop to pairwise blocks, so a sum read in another layout can round
differently there, which it cannot at 5.
"""

import itertools
import math

import numpy as np
import pytest

from grnas import autodiff as ad
from grnas import ops
from grnas import search as search_module
from grnas.autodiff import Tape


def bias_rows(tape, rows, b):
    # replicate a bias vector over rows via an explicit ones matmul
    ones = tape.constant(np.ones((rows, 1)))
    return ad.matmul(ones, ad.reshape(b, (1, b.shape[0])))


def composite_channel_linear(x, w):
    n, c, length = x.shape
    flat = ad.reshape(ad.transpose(x, (0, 2, 1)), (n * length, c))
    h = ad.matmul(flat, w)
    return ad.transpose(ad.reshape(h, (n, length, w.shape[1])), (0, 2, 1))


def composite_attention(tape, x, y):
    scores = ad.scale(ad.matmul(ad.transpose(x, (0, 2, 1)), y), 1.0 / math.sqrt(x.shape[1]))
    attn = ad.softmax_last(scores)
    return ad.matmul(y, ad.transpose(attn, (0, 2, 1)))


def composite_linear_glu(tape, x, y, w1, w2):
    return ad.mul(composite_channel_linear(x, w1), ad.sigmoid(composite_channel_linear(y, w2)))


def composite_concat_fc(tape, x, y, w, b):
    joint = ad.concat(x, y, axis=1)
    n, c2, length = joint.shape
    flat = ad.reshape(ad.transpose(joint, (0, 2, 1)), (n * length, c2))
    h = ad.add(ad.matmul(flat, w), bias_rows(tape, n * length, b))
    return ad.transpose(ad.reshape(ad.relu(h), (n, length, w.shape[1])), (0, 2, 1))


def composite_head(tape, v, w, b):
    pooled = ad.mean_axis(v, 2)
    bias = bias_rows(tape, pooled.shape[0], b)
    return ad.add(ad.matmul(pooled, w), bias)


def composite_loss(tape, logits, labels):
    onehot = np.eye(2)[labels]
    logp = ad.log_softmax_last(logits)
    return ad.scale(ad.sum_all(ad.mul(logp, tape.constant(onehot))), -1.0 / labels.shape[0])


ACT = (8, 3, 5)  # N, C, L
# a search-k100 batch and a retrain-b64 batch, whose rows reach 8-element sums
BENCH_ACTS = [(8, 16, 8), (64, 16, 8)]
# name: (fused, composite, shapes of the weights for C channels, takes y)
CASES = {
    "channel_linear": (
        lambda t, x, w: ops.channel_linear(x, w),
        lambda t, x, w: composite_channel_linear(x, w),
        lambda c: [(c, c + 2)],
        False,
    ),
    "attention": (ops.op_attention, composite_attention, lambda c: [], True),
    "linear_glu": (ops.op_linear_glu, composite_linear_glu, lambda c: [(c, c), (c, c)], True),
    "concat_fc": (ops.op_concat_fc, composite_concat_fc, lambda c: [(2 * c, c), (c,)], True),
    "head": (search_module._head, composite_head, lambda c: [(c, 2), (2,)], False),
}
VARIANTS = [
    pytest.param(
        name, layout, x_is_y, act,
        id="-".join([name, layout, str(x_is_y)] + ([] if act == ACT else ["x".join(map(str, act))])),
    )
    for act in [ACT] + BENCH_ACTS
    for name, (*_, takes_y) in CASES.items()
    for layout in ("c", "transposed")
    for x_is_y in ((False, True) if takes_y else (False,))
]


def _activation(rng, layout, act=ACT):
    if layout == "c":
        return rng.normal(size=act)
    n, c, length = act
    return rng.normal(size=(n, length, c)).transpose(0, 2, 1)  # a channel_linear output's layout


def _run(fn, arrays, x_is_y, grad_set, prior):
    """Forward and backward of fn; returns (output data, each distinct leaf)."""
    tape = Tape()
    leaves = [tape.tensor(a, i in grad_set) for i, a in enumerate(arrays)]
    args = list(leaves)
    if x_is_y:
        args.insert(1, leaves[0])
    out = fn(tape, *args)
    upstream = np.random.default_rng(99).normal(size=out.shape)
    loss = ad.sum_all(ad.mul(out, tape.constant(upstream)))
    if prior:  # recorded after the op: x already holds a gradient when the op's adjoint runs
        other = np.random.default_rng(98).normal(size=arrays[0].shape)
        loss = ad.add(loss, ad.sum_all(ad.mul(leaves[0], tape.constant(other))))
    if loss.requires_grad:
        tape.backward(loss)
    return out.data, leaves


@pytest.mark.parametrize("name,layout,x_is_y,act", VARIANTS)
def test_fused_op_is_its_composite_bit_for_bit(name, layout, x_is_y, act):
    fused, composite, weight_shapes, takes_y = CASES[name]
    rng = np.random.default_rng(30)
    acts = [_activation(rng, layout, act)]
    if takes_y and not x_is_y:
        acts.append(_activation(rng, layout, act))
    arrays = acts + [rng.normal(size=s) for s in weight_shapes(act[1])]
    for r in range(1, len(arrays) + 1):
        for grad_set in itertools.combinations(range(len(arrays)), r):
            for prior in (False, True):
                got_out, got = _run(fused, arrays, x_is_y, grad_set, prior)
                want_out, want = _run(composite, arrays, x_is_y, grad_set, prior)
                case = (grad_set, prior)
                assert np.array_equal(got_out, want_out), case
                assert got_out.strides == want_out.strides, case
                for i, (g, w) in enumerate(zip(got, want)):
                    if w.grad is None:
                        assert g.grad is None, (case, i)
                        continue
                    assert np.array_equal(g.grad, w.grad), (case, i)
                    assert g.grad.strides == w.grad.strides, (case, i)


def test_fused_ops_record_one_entry():
    rng = np.random.default_rng(31)
    for name, (fused, _, weight_shapes, takes_y) in CASES.items():
        tape = Tape()
        acts = [tape.tensor(rng.normal(size=ACT), True) for _ in range(1 + takes_y)]
        fused(tape, *acts, *(tape.tensor(rng.normal(size=s), True) for s in weight_shapes(ACT[1])))
        assert len(tape._entries) == 1, name


def test_loss_is_its_composite_bit_for_bit():
    rng = np.random.default_rng(32)
    labels = np.array([0, 1, 1, 0, 1])
    for scale in (1e-3, 1.0, 50.0):
        z = rng.normal(size=(5, 2)) * scale
        results = []
        for fn in (search_module.cross_entropy_loss, composite_loss):
            tape = Tape()
            logits = tape.tensor(z, True)
            loss = fn(tape, logits, labels)
            entries = len(tape._entries)
            tape.backward(loss)
            results.append((np.asarray(loss.data), logits.grad, entries))
        (got, got_grad, entries), (want, want_grad, _) = results
        assert entries == 1
        assert np.array_equal(got, want) and np.array_equal(got_grad, want_grad), scale
