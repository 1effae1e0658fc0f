import copy
import dataclasses
import gc
import json
import tracemalloc

import numpy as np
import pytest

from grnas import autodiff as ad
from grnas import data, gumbel, kernels, ops
from grnas import search as search_module
from grnas.autodiff import Tape, grad_check
from grnas.search import (
    Adam,
    CheckpointMismatchError,
    DegenerateGenotypeError,
    DiscreteNetwork,
    Genotype,
    SearchSpaceConfig,
    SearchState,
    TrainSchedule,
    bilevel_train_step,
    cell_forward,
    cross_entropy_loss,
    derive_architecture,
    entropy,
    genotype_param_count,
    grmc_mixture_weights,
    mixed_edge_forward,
    network_forward,
    retrain_and_eval,
    run_search,
    train_discrete,
)
from grnas.ops import SECOND_LEVEL_OPS


def tiny_space(**kw):
    base = dict(channels=8, length=4, k_samples=16, lam=0.5)
    base.update(kw)
    return SearchSpaceConfig(**base)


def tiny_splits(seed=3, n=64, channels=8, length=4, **kw):
    cfg = data.SynthTaskConfig(
        n_train=n, n_val=n, n_test=n, channels=channels, length=length, seed=seed, **kw
    )
    return data.gen_synthetic_bimodal(cfg)


def sum_cell_genotype(space, lam=0.1, k=100, seed=0):
    edges = tuple(
        (space.node_names[s], space.node_names[d], True) for s, d in space.first_level_edges()
    )
    cells = tuple(
        {
            "cell": c,
            "node": n,
            "op": "sum",
            "inputs": ["in", "in" if n == 0 else f"node{n - 1}"],
            "tie": False,
        }
        for c in range(space.n_cells)
        for n in range(space.nodes_per_cell)
    )
    return Genotype(
        first_level_edges=edges, cells=cells, lam=lam, k_samples=k, seed=seed, epoch=0
    )


class TestConfigs:
    def test_space_validation(self):
        with pytest.raises(ValueError):
            SearchSpaceConfig(n_cells=0)
        with pytest.raises(ValueError):
            SearchSpaceConfig(lam=0.0)
        with pytest.raises(ValueError):
            SearchSpaceConfig(k_samples=0)

    def test_schedule_validation(self):
        with pytest.raises(ValueError):
            TrainSchedule(epochs=0)
        with pytest.raises(ValueError):
            TrainSchedule(arch_lr=-1.0)
        with pytest.raises(ValueError):
            TrainSchedule(arch_lr_decay=0.0)

    def test_default_topology(self):
        space = SearchSpaceConfig()
        assert space.node_names == ["I1", "I2", "S1", "S2", "Cell1", "Cell2"]
        edges = space.first_level_edges()
        assert len(edges) == 9  # 4 into Cell1, 5 into Cell2
        state = SearchState(space, np.random.default_rng(0))
        assert state.alpha.shape == (9, 2)
        assert state.gamma.shape == (4, 5)
        assert state.beta.shape == (8, 2)


class TestMixedEdge:
    def test_identity_dominant_both_modes(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(2, 3, 4))
        logits = np.array([30.0, -30.0])
        for mode in ("search", "eval"):
            tape = Tape()
            out = mixed_edge_forward(
                tape.tensor(x), _mix(tape, tape.tensor(logits), 0.1, 50, np.random.default_rng(2), mode)
            )
            assert np.max(np.abs(out.data - x)) < 1e-9, mode

    def test_zero_dominant_both_modes(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(2, 3, 4))
        logits = np.array([-30.0, 30.0])
        for mode in ("search", "eval"):
            tape = Tape()
            out = mixed_edge_forward(
                tape.tensor(x), _mix(tape, tape.tensor(logits), 0.1, 50, np.random.default_rng(4), mode)
            )
            assert np.max(np.abs(out.data)) < 1e-9, mode

    def test_symmetric_logits_weights_on_simplex_and_unbiased(self):
        rng = np.random.default_rng(5)
        total = np.zeros(2)
        draws = 10**4
        for _ in range(draws):
            tape = Tape()
            w = grmc_mixture_weights(tape, tape.tensor(np.zeros(2)), 0.1, 100, rng, "search")
            assert np.all(w.data >= 0)
            assert abs(w.data.sum() - 1.0) < 1e-9
            total += w.data
        mean = total / draws
        assert np.max(np.abs(mean - 0.5)) < 0.02

    def test_mixture_backward_matches_averaged_jacobian(self):
        theta = np.array([0.4, -0.2, 1.0])
        lam, k = 0.7, 32
        # replay the kernel draws to compute the expected closed form
        rng = np.random.default_rng(11)
        index = int(kernels.gumbel_max_indices(theta, 1, rng)[0])
        values = kernels.conditional_values(theta, index, k, rng)
        s = np.exp(values / lam - (values / lam).max(axis=1, keepdims=True))
        s /= s.sum(axis=1, keepdims=True)
        v = np.array([1.0, -2.0, 0.5])
        expected = (s * (v - (s * v).sum(axis=1, keepdims=True))).mean(axis=0) / lam

        tape = Tape()
        logits = tape.tensor(theta, requires_grad=True)
        w = grmc_mixture_weights(tape, logits, lam, k, np.random.default_rng(11), "search")
        tape.backward(ad.sum_all(ad.mul(w, tape.constant(v))))
        assert np.allclose(logits.grad, expected, atol=1e-12)

    @staticmethod
    def _search_draw(theta, lam, k, v, rng):
        tape = Tape()
        logits = tape.tensor(theta, requires_grad=True)
        w = grmc_mixture_weights(tape, logits, lam, k, rng, "search")
        tape.backward(ad.sum_all(ad.mul(w, tape.constant(v))))
        return w.data, logits.grad

    @staticmethod
    def _log_space_draw(theta, lam, k, v, rng):
        """Reference: log-space posterior values, max-subtracted softmax, textbook JVP."""
        n = theta.shape[0]
        eps = kernels.UNIFORM_EPS
        index = int(np.argmax(theta - np.log(-np.log(np.clip(rng.random(n), eps, 1 - eps)))))
        log_e = np.log(-np.log(np.clip(rng.random((k, n)), eps, 1 - eps)))
        log_z = np.logaddexp.reduce(theta)
        values = -np.logaddexp(log_e - theta, log_e[:, [index]] - log_z)
        values[:, index] = log_z - log_e[:, index]
        z = values / lam
        s = np.exp(z - z.max(axis=1, keepdims=True))
        s /= s.sum(axis=1, keepdims=True)
        grad = (s * (v - (s * v).sum(axis=1, keepdims=True))).mean(axis=0) / lam
        return s.mean(axis=0), grad

    @pytest.mark.parametrize("n", [2, 5])
    @pytest.mark.parametrize("lam", [0.1, 0.5, 1.0])
    @pytest.mark.parametrize("k", [1, 100])
    def test_mixture_matches_log_space_reference(self, n, lam, k):
        cases = np.random.default_rng([n, k, int(lam * 10)])
        for seed in range(10):
            theta, v = cases.normal(size=n), cases.normal(size=n)
            got = self._search_draw(theta, lam, k, v, np.random.default_rng(seed))
            want = self._log_space_draw(theta, lam, k, v, np.random.default_rng(seed))
            # the textbook JVP cancels where a weight nears 1 (errors up to 2e-16 x |v|/lam),
            # so entries near 0 are held to an atol on that scale
            for a, b, scale in zip(got, want, (1.0, np.max(np.abs(v)) / lam)):
                np.testing.assert_allclose(a, b, rtol=1e-12, atol=1e-14 * scale)

    def test_constant_upstream_gradient_gives_exactly_zero(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            theta = rng.normal(size=5)
            _, grad = self._search_draw(theta, 0.3, 100, np.full(5, 0.37), rng)
            assert np.all(grad == 0.0)

    def test_draws_a_hard_block_then_a_posterior_block(self):
        for n, k in ((2, 1), (5, 100)):
            rng, twin = np.random.default_rng(23), np.random.default_rng(23)
            self._search_draw(np.linspace(-1.0, 1.0, n), 0.5, k, np.ones(n), rng)
            twin.random((1, n))
            twin.random((k, n))
            assert rng.bit_generator.state == twin.bit_generator.state

    def test_eval_mode_needs_no_rng_and_is_deterministic(self):
        tape = Tape()
        w1 = grmc_mixture_weights(tape, tape.tensor(np.array([0.3, -0.1])), 0.5, 10, None, "eval")
        w2 = grmc_mixture_weights(tape, tape.tensor(np.array([0.3, -0.1])), 0.5, 10, None, "eval")
        assert np.array_equal(w1.data, w2.data)

    def test_bad_mode_rejected(self):
        tape = Tape()
        with pytest.raises(ValueError):
            grmc_mixture_weights(tape, tape.tensor(np.zeros(2)), 0.5, 10, None, "train")


def _mix(tape, logits, lam, k, rng, mode):
    """A logits row's mixture weights as the walker passes them: a (weights, ...) pair."""
    return grmc_mixture_weights(tape, logits, lam, k, rng, mode), ...


def _eval_mix(tape, logits):
    return _mix(tape, tape.tensor(logits), 0.1, 8, None, "eval")


def _fixed_candidates(tape_unused, channels, weight_tensors=None):
    """Candidate callables with deterministic weights for cell tests."""
    insts = {
        name: ops.OpInstance(ops.descriptor(name, channels), np.random.default_rng(1))
        for name in SECOND_LEVEL_OPS
    }

    def bind(name):
        return lambda t, a, b: insts[name].forward(t, a, b, [t.tensor(w) for w in insts[name].weights])

    return [(name, bind(name)) for name in SECOND_LEVEL_OPS]


def _walk_order(space):
    """(matrix, row) of each mixed choice in a forward: per cell its alpha
    edges, then per node beta slot 0, beta slot 1 and gamma."""
    order = []
    edge = 0
    for ci in range(space.n_cells):
        n_in = space.n_feature_nodes + ci  # every predecessor feeds the cell
        order += [("alpha", edge + j) for j in range(n_in)]
        edge += n_in
        for ni in range(space.nodes_per_cell):
            row = ci * space.nodes_per_cell + ni
            order += [("beta", 2 * row), ("beta", 2 * row + 1), ("gamma", row)]
    return order


class TestBatchedSearchForward:
    """A search forward draws each arch matrix once and mixes each choice in one tape entry."""

    @staticmethod
    def _forward(space, state, rng, mode="search", grads="all"):
        """A training step's tape: the forward and its loss."""
        x = np.random.default_rng(8).normal(size=(4, space.channels, space.length))
        tape = Tape()
        logits, _ = network_forward(tape, state, x, -x, rng, mode, grads)
        cross_entropy_loss(tape, logits, np.array([0, 1, 1, 0]))
        return tape

    @staticmethod
    def _default_state():
        space = SearchSpaceConfig()
        state = SearchState(space, np.random.default_rng(0))
        arch = np.random.default_rng(1)
        for name, a in state.arch_arrays().items():
            a[...] = arch.normal(size=a.shape)
        return space, state

    def test_stream_and_weights_are_those_of_one_row_draws(self, monkeypatch):
        space, state = self._default_state()
        drawn = {}

        def record(tape, logits, *args, **kwargs):
            w = grmc_mixture_weights(tape, logits, *args, **kwargs)
            drawn[next(n for n, a in state.arch_arrays().items() if a is logits.data)] = w.data
            return w

        monkeypatch.setattr(search_module, "grmc_mixture_weights", record)
        rng = np.random.default_rng(42)
        self._forward(space, state, rng)
        assert sorted(drawn) == ["alpha", "beta", "gamma"]

        blocks, rows = np.random.default_rng(42), np.random.default_rng(42)
        k = space.k_samples
        for name, row in _walk_order(space):
            theta = state.arch_arrays()[name][row]
            blocks.random((1, theta.size))
            blocks.random((k, theta.size))
            tape = Tape()
            want = grmc_mixture_weights(tape, tape.tensor(theta), space.lam, k, rows, "search")
            assert np.array_equal(drawn[name][row], want.data), (name, row)
        assert rng.bit_generator.state == blocks.bit_generator.state
        assert rng.bit_generator.state == rows.bit_generator.state

    def test_tape_entries_per_forward(self):
        space, state = self._default_state()
        choices = sum(len(a) for a in state.arch_arrays().values())
        assert choices == 21
        # both groups: one weighted_sum per choice, one entry per arch matrix
        # for its weights, 16 fusion ops (sum, attention, linear_glu and
        # concat_fc at 4 nodes), 9 adds (7 into cell inputs, 1 per cell over
        # its nodes), the head and the loss.  The weight step leaves off what
        # sees only constants: the 3 weight matrices, 8 feature-edge choices,
        # 6 of the input adds, and the first node's 2 slot choices, sum and
        # attention.
        want = {"all": choices + 3 + 16 + 9 + 2, "arch": 51, "omega": 51 - 3 - 8 - 6 - 4}
        assert want == {"all": 51, "arch": 51, "omega": 30}
        for mode in ("search", "eval"):
            for grads, count in want.items():
                tape = self._forward(space, state, np.random.default_rng(3), mode, grads)
                assert len(tape._entries) == count, (mode, grads)

    def test_matrix_weights_match_row_weights_in_both_modes(self):
        theta = np.random.default_rng(5).normal(size=(4, 5))
        v = np.random.default_rng(6).normal(size=(4, 5))
        for mode in ("search", "eval"):
            tape = Tape()
            logits = tape.tensor(theta, requires_grad=True)
            w = grmc_mixture_weights(tape, logits, 0.3, 20, np.random.default_rng(7), mode)
            tape.backward(ad.sum_all(ad.mul(w, tape.constant(v))))
            rng = np.random.default_rng(7)
            for r in range(4):
                tape = Tape()
                row = tape.tensor(theta[r], requires_grad=True)
                w_row = grmc_mixture_weights(tape, row, 0.3, 20, rng, mode)
                tape.backward(ad.sum_all(ad.mul(w_row, tape.constant(v[r]))))
                assert np.array_equal(w.data[r], w_row.data), (mode, r)
                assert np.array_equal(logits.grad[r], row.grad), (mode, r)


class TestCellForward:
    def test_zero_mass_cell_outputs_zero(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(2, 3, 4))
        tape = Tape()
        gamma = [_eval_mix(tape, np.array([40.0, -40.0, -40.0, -40.0, -40.0])) for _ in range(2)]
        beta = [[_eval_mix(tape, np.zeros(2)) for _ in range(2)] for _ in range(2)]
        node_ops = [_fixed_candidates(tape, 3) for _ in range(2)]
        out = cell_forward(tape, [tape.tensor(x)], gamma, beta, node_ops)
        assert np.max(np.abs(out.data)) < 1e-30

    def test_sum_mass_cell_hand_trace(self):
        # in_c = x; node1 = Sum(x, x) = 2x; node2 = Sum(x, 2x) = 3x; output = 5x
        rng = np.random.default_rng(4)
        x = rng.normal(size=(2, 3, 4))
        tape = Tape()
        one_hot_sum = np.array([-40.0, 40.0, -40.0, -40.0, -40.0])
        gamma = [_eval_mix(tape, one_hot_sum) for _ in range(2)]
        beta = [
            [_eval_mix(tape, np.array([40.0, -40.0])), _eval_mix(tape, np.array([-40.0, 40.0]))]
            for _ in range(2)
        ]
        node_ops = [_fixed_candidates(tape, 3) for _ in range(2)]
        out = cell_forward(tape, [tape.tensor(x)], gamma, beta, node_ops)
        assert np.allclose(out.data, 5.0 * x, atol=1e-10)

    def test_requires_an_input(self):
        tape = Tape()
        with pytest.raises(ValueError):
            cell_forward(tape, [], [], [], [])

    def test_eval_cell_grad_check(self):
        rng = np.random.default_rng(6)
        c = 3
        x0 = rng.normal(size=(1, c, 3))
        g0 = rng.normal(size=5) * 0.5
        g1 = rng.normal(size=5) * 0.5
        b00, b01, b10, b11 = (rng.normal(size=2) * 0.5 for _ in range(4))
        glu_w1 = rng.normal(size=(c, c)) * 0.5
        glu_w2 = rng.normal(size=(c, c)) * 0.5
        fc_w = rng.normal(size=(2 * c, c)) * 0.5
        fc_b = rng.normal(size=c) * 0.5

        def fn(tape, x, g0, g1, b00, b01, b10, b11, glu1, glu2, fcw, fcb):
            def candidates():
                return [
                    ("zero", lambda t, a, b: ops.op_zero(t, a, b)),
                    ("sum", lambda t, a, b: ops.op_sum(t, a, b)),
                    ("attention", lambda t, a, b: ops.op_attention(t, a, b)),
                    ("linear_glu", lambda t, a, b: ops.op_linear_glu(t, a, b, glu1, glu2)),
                    ("concat_fc", lambda t, a, b: ops.op_concat_fc(t, a, b, fcw, fcb)),
                ]

            def mix(row):
                return _mix(tape, row, 0.5, 4, None, "eval")

            out = cell_forward(
                tape,
                [x],
                [mix(g0), mix(g1)],
                [[mix(b00), mix(b01)], [mix(b10), mix(b11)]],
                [candidates(), candidates()],
            )
            return ad.mean_all(out)

        res = grad_check(
            fn, [x0, g0, g1, b00, b01, b10, b11, glu_w1, glu_w2, fc_w, fc_b], step=1e-4
        )
        assert res.max_rel_error < 1e-4


class TestBilevel:
    def test_zero_learning_rates_leave_state_bitwise(self):
        space = tiny_space()
        splits = tiny_splits()
        state = SearchState(space, np.random.default_rng(0))
        before = {
            "alpha": state.alpha.copy(),
            "gamma": state.gamma.copy(),
            "beta": state.beta.copy(),
        }
        omega_before = {k: v.copy() for k, v in state.omega_arrays().items()}
        sched = TrainSchedule(weight_lr=0.0, arch_lr=0.0, weight_decay=0.0)
        tr = (splits["train"].xa[:8], splits["train"].xb[:8], splits["train"].labels[:8])
        va = (splits["val"].xa[:8], splits["val"].xb[:8], splits["val"].labels[:8])
        w_opt = Adam(0.0)
        a_opt = Adam(0.0)
        bilevel_train_step(state, tr, va, sched, np.random.default_rng(1), w_opt, a_opt)
        for name, arr in before.items():
            assert np.array_equal(getattr(state, name), arr), name
        for name, arr in state.omega_arrays().items():
            assert np.array_equal(arr, omega_before[name]), name

    def test_each_step_takes_gradients_only_for_its_group(self, monkeypatch):
        space = SearchSpaceConfig(k_samples=16)
        splits = tiny_splits(channels=16, length=8)
        state = SearchState(space, np.random.default_rng(0))
        batches = [
            (s.xa[:8], s.xb[:8], s.labels[:8]) for s in (splits["train"], splits["val"])
        ]
        real = network_forward
        calls = []

        def record(tape, st, xa, xb, rng, mode, grads="all"):
            twin = np.random.default_rng()
            twin.bit_generator.state = rng.bit_generator.state
            snapshot = copy.deepcopy(st)
            logits, leaves = real(tape, st, xa, xb, rng, mode, grads)
            calls.append((grads, leaves, snapshot, twin))
            return logits, leaves

        monkeypatch.setattr(search_module, "network_forward", record)
        bilevel_train_step(
            state, *batches, TrainSchedule(), np.random.default_rng(1), Adam(3e-3), Adam(2e-2)
        )
        assert [grads for grads, *_ in calls] == ["omega", "arch"]
        arch_names = set(state.arch_arrays())
        for (grads, leaves, snapshot, twin), (xa, xb, labels) in zip(calls, batches):
            stepped = arch_names if grads == "arch" else set(leaves) - arch_names
            for name, leaf in leaves.items():
                assert (leaf.grad is not None) == (name in stepped), (grads, name)
            tape = Tape()
            logits, both = real(tape, snapshot, xa, xb, twin, "search")
            tape.backward(cross_entropy_loss(tape, logits, labels))
            for name in stepped:
                assert np.array_equal(leaves[name].grad, both[name].grad), (grads, name)

    def test_divergence_raises_with_context(self):
        from grnas.search import TrainingDivergedError

        space = tiny_space()
        splits = tiny_splits()
        state = SearchState(space, np.random.default_rng(0))
        xa = splits["train"].xa[:8].copy()
        xa[0, 0, 0] = np.nan  # poisoned batch: loss must surface as a training error
        batch = (xa, splits["train"].xb[:8], splits["train"].labels[:8])
        with pytest.raises(TrainingDivergedError, match="weight update"):
            bilevel_train_step(
                state, batch, batch, TrainSchedule(), np.random.default_rng(1), Adam(1e-3), Adam(1e-3)
            )

    def test_losses_are_finite_and_returned(self):
        space = tiny_space()
        splits = tiny_splits()
        state = SearchState(space, np.random.default_rng(0))
        sched = TrainSchedule()
        tr = (splits["train"].xa[:8], splits["train"].xb[:8], splits["train"].labels[:8])
        va = (splits["val"].xa[:8], splits["val"].xb[:8], splits["val"].labels[:8])
        t_loss, v_loss = bilevel_train_step(
            state, tr, va, sched, np.random.default_rng(1), Adam(3e-3), Adam(2e-2)
        )
        assert np.isfinite(t_loss) and np.isfinite(v_loss)

    def test_convex_toy_strictly_decreases(self):
        # all-Sum genotype leaves only the linear head: full-batch training
        # on the convex cross-entropy must descend monotonically
        space = tiny_space()
        splits = tiny_splits()
        net = DiscreteNetwork(sum_cell_genotype(space), space, np.random.default_rng(5))
        losses = train_discrete(
            net, splits["train"], TrainSchedule(epochs=50, batch_size=64), np.random.default_rng(5)
        )
        assert all(b < a for a, b in zip(losses, losses[1:]))

    def test_identity_selected_when_optimal(self):
        # regression onto the input itself: only the identity branch helps
        rng = np.random.default_rng(7)
        x = rng.normal(size=(4, 3, 2))
        alpha = np.zeros(2)
        opt = Adam(2e-2)
        for _ in range(200):
            tape = Tape()
            alpha_t = tape.tensor(alpha, requires_grad=True)
            out = mixed_edge_forward(tape.tensor(x), _mix(tape, alpha_t, 0.5, 8, rng, "search"))
            diff = ad.sub(out, tape.constant(x))
            tape.backward(ad.mean_all(ad.mul(diff, diff)))
            opt.step(alpha, alpha_t.grad)
        probs = np.exp(alpha) / np.exp(alpha).sum()
        assert probs[0] > 0.9

    def test_architecture_gradient_variance_shrinks_with_k(self):
        theta = np.array([0.3, -0.4])
        v = np.array([1.0, 0.0])
        reps = 400

        def grads(k, seed):
            out = np.empty((reps, 2))
            rng = np.random.default_rng(seed)
            for r in range(reps):
                tape = Tape()
                logits = tape.tensor(theta, requires_grad=True)
                w = grmc_mixture_weights(tape, logits, 0.3, k, rng, "search")
                tape.backward(ad.sum_all(ad.mul(w, tape.constant(v))))
                out[r] = logits.grad
            return out

        var_small = grads(10, 13).var(axis=0)
        var_large = grads(1000, 13).var(axis=0)
        assert np.all(var_large <= var_small)


class TestEntropy:
    def test_uniform_binary_edge(self):
        assert entropy(np.zeros((1, 2))) == pytest.approx(np.log(2.0), abs=1e-12)

    def test_three_uniform_five_way_nodes(self):
        assert entropy(np.zeros((3, 5))) == pytest.approx(3.0 * np.log(5.0), abs=1e-12)

    def test_concentrated_logits(self):
        z = np.array([[30.0, -30.0], [-30.0, 30.0]])
        assert entropy(z) < 1e-9

    def test_neg_inf_safe(self):
        assert entropy(np.array([[0.0, -np.inf]])) == pytest.approx(0.0, abs=1e-12)


class TestGenotype:
    def test_fully_connected_sum_dag(self):
        space = tiny_space()
        state = SearchState(space, np.random.default_rng(0))
        state.alpha[:, 0] = 30.0
        state.alpha[:, 1] = -30.0
        state.gamma[:, :] = -30.0
        state.gamma[:, SECOND_LEVEL_OPS.index("sum")] = 30.0
        state.beta[:, 0] = 5.0  # wire every slot to the cell input node
        g = derive_architecture(state)
        assert all(kept for *_, kept in g.first_level_edges)
        assert all(cell["op"] == "sum" and not cell["tie"] for cell in g.cells)
        assert all(cell["inputs"] == ["in", "in"] for cell in g.cells)

    def test_uniform_gamma_tie_flagged_lowest_index(self):
        space = tiny_space()
        state = SearchState(space, np.random.default_rng(0))
        state.alpha[:, 0] = 1.0  # keep edges
        g = derive_architecture(state)
        assert all(cell["op"] == SECOND_LEVEL_OPS[0] and cell["tie"] for cell in g.cells)

    def test_degenerate_state_raises(self):
        space = tiny_space()
        state = SearchState(space, np.random.default_rng(0))
        with pytest.raises(DegenerateGenotypeError):
            derive_architecture(state)  # exact ties: strict keep rule drops all edges

    def test_logit_shift_invariance(self):
        space = tiny_space()
        state = SearchState(space, np.random.default_rng(1))
        rng = np.random.default_rng(2)
        state.alpha += rng.normal(size=state.alpha.shape)
        state.gamma += rng.normal(size=state.gamma.shape)
        state.beta += rng.normal(size=state.beta.shape)
        state.alpha[:, 0] += 2.0  # ensure edges kept
        base = derive_architecture(state).structure_json()
        state.alpha += 3.7  # constant shift per row leaves softmax ordering alone
        state.gamma -= 1.9
        state.beta += 0.4
        assert derive_architecture(state).structure_json() == base

    def test_json_round_trip(self):
        space = tiny_space()
        state = SearchState(space, np.random.default_rng(1))
        state.alpha[:, 0] = 1.0
        state.gamma[:, 2] = 1.5
        g = derive_architecture(state, seed=42, epoch=17)
        back = Genotype.from_json(g.to_json())
        assert back == g

    def test_version_check(self):
        with pytest.raises(ValueError):
            Genotype.from_json(json.dumps({"version": 99}))

    def test_param_count_matches_discrete_network(self):
        space = tiny_space()
        edges = tuple(
            (space.node_names[s], space.node_names[d], True) for s, d in space.first_level_edges()
        )
        cells = (
            {"cell": 0, "node": 0, "op": "attention", "inputs": ["in", "in"], "tie": False},
            {"cell": 0, "node": 1, "op": "linear_glu", "inputs": ["in", "node0"], "tie": False},
            {"cell": 1, "node": 0, "op": "concat_fc", "inputs": ["in", "in"], "tie": False},
            {"cell": 1, "node": 1, "op": "sum", "inputs": ["in", "node0"], "tie": False},
        )
        g = Genotype(first_level_edges=edges, cells=cells, lam=0.1, k_samples=10, seed=0, epoch=0)
        net = DiscreteNetwork(g, space, np.random.default_rng(3))
        assert net.param_count() == genotype_param_count(g, space)
        # C=8: linear_glu 2*64, concat_fc 16*8+8, head 8*2+2
        assert genotype_param_count(g, space) == 128 + 136 + 18


def mixed_genotype(space):
    """A zero op, a dropped edge (I2 -> Cell1) and a node0-wired slot."""
    names = space.node_names
    edges = tuple(
        (names[s], names[d], (names[s], names[d]) != ("I2", "Cell1"))
        for s, d in space.first_level_edges()
    )
    cells = (
        {"cell": 0, "node": 0, "op": "linear_glu", "inputs": ["in", "in"], "tie": False},
        {"cell": 0, "node": 1, "op": "zero", "inputs": ["node0", "in"], "tie": False},
        {"cell": 1, "node": 0, "op": "attention", "inputs": ["in", "in"], "tie": False},
        {"cell": 1, "node": 1, "op": "concat_fc", "inputs": ["in", "node0"], "tie": False},
    )
    return Genotype(first_level_edges=edges, cells=cells, lam=0.5, k_samples=16, seed=0, epoch=0)


class TestDiscreteNetwork:
    def test_one_hot_search_eval_matches_discrete_forward(self):
        # logits at +-30 towards the genotype make the eval-mode mixtures one-hot
        # to ~1e-26, so the search network's eval pass is the derived network
        space = tiny_space()
        g = mixed_genotype(space)
        net = DiscreteNetwork(g, space, np.random.default_rng(3))
        state = SearchState(space, np.random.default_rng(4))
        one_hot = {True: [30.0, -30.0], False: [-30.0, 30.0]}
        for ei, (_, _, kept) in enumerate(g.first_level_edges):
            state.alpha[ei] = one_hot[kept]
        state.gamma[:] = -30.0
        for row, cell in enumerate(g.cells):
            state.gamma[row, SECOND_LEVEL_OPS.index(cell["op"])] = 30.0
            for slot, src in enumerate(cell["inputs"]):
                state.beta[2 * row + slot] = one_hot[src == "in"]
        omega = state.omega_arrays()
        for name, w in net.params().items():
            omega[name][...] = w

        splits = tiny_splits()
        xa, xb = splits["test"].xa[:8], splits["test"].xb[:8]
        searched, _ = network_forward(Tape(), state, xa, xb, None, "eval")
        derived, _ = net.forward(Tape(), xa, xb)
        assert np.max(np.abs(searched.data - derived.data)) < 1e-12
        assert np.max(np.abs(derived.data)) > 1e-3  # the comparison is not vacuous

    def test_refuses_extra_cell(self):
        space = tiny_space()
        g = sum_cell_genotype(dataclasses.replace(space, n_cells=3))
        with pytest.raises(ValueError, match="Cell3"):
            DiscreteNetwork(g, space, np.random.default_rng(0))

    def test_refuses_missing_node(self):
        space = tiny_space()
        g = sum_cell_genotype(space)
        g = Genotype(g.first_level_edges, g.cells[:1] + g.cells[2:], 0.1, 100, 0, 0)
        with pytest.raises(ValueError, match=r"cell node 1 is \(1, 0\)"):
            DiscreteNetwork(g, space, np.random.default_rng(0))

    def test_refuses_foreign_wiring(self):
        space = tiny_space()
        g = sum_cell_genotype(space)
        cells = (dict(g.cells[0], inputs=["in", "node3"]),) + g.cells[1:]
        with pytest.raises(ValueError, match="node3"):
            DiscreteNetwork(Genotype(g.first_level_edges, cells, 0.1, 100, 0, 0), space, None)

    def test_refuses_cell_without_inputs(self):
        space = tiny_space()
        g = mixed_genotype(space)
        edges = tuple((s, d, kept and d != "Cell2") for s, d, kept in g.first_level_edges)
        with pytest.raises(DegenerateGenotypeError, match="Cell2"):
            DiscreteNetwork(Genotype(edges, g.cells, 0.5, 16, 0, 0), space, None)


@pytest.fixture(scope="module")
def trained_networks():
    """Two derived networks at the default space, each trained for 2 epochs,
    and a 1,536-sample test split."""
    space = SearchSpaceConfig()
    splits = data.gen_synthetic_bimodal(data.SynthTaskConfig(n_test=1536))
    nets = []
    for genotype, seed in ((mixed_genotype(space), 1), (sum_cell_genotype(space), 2)):
        rng = np.random.default_rng(seed)
        net = DiscreteNetwork(genotype, space, rng)
        train_discrete(net, splits["train"], TrainSchedule(epochs=2, batch_size=64), rng)
        nets.append(net)
    return nets, splits["test"]


class TestScoreBlocks:
    @pytest.mark.parametrize("n", [1, 2, 127, 128, 129, 257, 513, 515])
    def test_scores_are_the_one_pass_scores_bit_for_bit(self, trained_networks, n):
        nets, test = trained_networks
        xa, xb = test.xa[:n], test.xb[:n]
        for net in nets:
            logits, _ = net.forward(Tape(), xa, xb, omega_grads=False)
            one_pass = gumbel.softmax(logits.data)[:, 1]
            assert np.array_equal(net.scores(xa, xb), one_pass)

    def test_scoring_memory_does_not_grow_with_the_split(self, trained_networks):
        nets, test = trained_networks
        net = nets[0]
        net.scores(test.xa[:256], test.xb[:256])  # warm-up: lazily built module state
        peaks = []
        tracemalloc.start()
        try:
            for n in (256, 1536):
                tracemalloc.reset_peak()
                net.scores(test.xa[:n], test.xb[:n])
                peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert peaks[1] <= 1.1 * peaks[0], peaks


class TestNoReferenceCycles:
    """A step's tape, closures and arrays are freed by reference count as soon
    as it returns: the cyclic collector finds nothing after it."""

    @staticmethod
    def assert_leaves_no_cycles(run):
        run()  # warm-up: lazily built module state is not the step's garbage
        enabled = gc.isenabled()
        gc.collect()
        gc.disable()
        try:
            run()
            assert gc.collect() == 0
        finally:
            if enabled:
                gc.enable()

    def test_bilevel_train_step(self):
        space = SearchSpaceConfig()
        splits = tiny_splits(channels=space.channels, length=space.length)
        state = SearchState(space, np.random.default_rng(0))
        tr, va = ((s.xa[:8], s.xb[:8], s.labels[:8]) for s in (splits["train"], splits["val"]))
        rng, w_opt, a_opt = np.random.default_rng(1), Adam(3e-3), Adam(2e-2)
        self.assert_leaves_no_cycles(
            lambda: bilevel_train_step(state, tr, va, TrainSchedule(), rng, w_opt, a_opt)
        )

    @staticmethod
    def discrete_network():
        space = tiny_space()
        return DiscreteNetwork(mixed_genotype(space), space, np.random.default_rng(3)), tiny_splits()

    def test_retrain_step(self):
        net, splits = self.discrete_network()
        train = splits["train"]
        batch, opt = (train.xa[:8], train.xb[:8], train.labels[:8]), Adam(1e-3)
        self.assert_leaves_no_cycles(
            lambda: search_module._descend(net.forward, batch, opt, net.omega, "{}")
        )

    def test_scores(self):
        net, splits = self.discrete_network()
        test = splits["test"]
        self.assert_leaves_no_cycles(lambda: net.scores(test.xa, test.xb))

    def test_grad_check(self):
        rng = np.random.default_rng(9)
        inputs = [rng.normal(size=(2, 3)), rng.normal(size=(3, 4))]
        self.assert_leaves_no_cycles(
            lambda: grad_check(lambda t, x, w: ad.mean_all(ad.relu(ad.matmul(x, w))), inputs)
        )


class TestWeightLeaves:
    @staticmethod
    def assert_leaves_are_omega_arrays(net):
        names = [
            f"cell{ci}.node{ni}.{op}.w{k}"
            for (ci, ni, op), inst in sorted(net.ops.items())
            for k in range(len(inst.weights))
        ] + ["head.w", "head.b"]
        omega = net.omega_arrays()
        assert list(omega) == names
        for requires_grad in (True, False):
            leaves, by_op = net.weight_leaves(Tape(), requires_grad)
            assert list(leaves) == names
            for name, leaf in leaves.items():
                assert leaf.data is omega[name] and leaf.requires_grad is requires_grad
            assert list(by_op) == list(net.ops)
            for (ci, ni, op), op_leaves in by_op.items():
                assert [leaf.data for leaf in op_leaves] == [
                    omega[f"cell{ci}.node{ni}.{op}.w{k}"] for k in range(len(op_leaves))
                ]
                assert all(leaf is leaves[f"cell{ci}.node{ni}.{op}.w{k}"] for k, leaf in enumerate(op_leaves))

    def test_search_state(self):
        self.assert_leaves_are_omega_arrays(SearchState(tiny_space(), np.random.default_rng(0)))

    def test_discrete_network(self):
        space = tiny_space()
        self.assert_leaves_are_omega_arrays(DiscreteNetwork(mixed_genotype(space), space, np.random.default_rng(0)))

    def test_resumed_state_reads_the_restored_arrays(self, tmp_path):
        splits = tiny_splits(n=16)
        space = tiny_space(k_samples=4)
        sched = TrainSchedule(epochs=1, batch_size=8, entropy_tol=0.0)
        ckpt = tmp_path / "c.ckpt"
        res = run_search(splits["train"], splits["val"], space, sched, seed=2, checkpoint_path=ckpt)
        state = search_module.load_checkpoint(ckpt, space, sched)[0]
        self.assert_leaves_are_omega_arrays(state)
        leaves, _ = state.weight_leaves(Tape(), False)
        for name, arr in res.state.omega_arrays().items():
            assert np.array_equal(leaves[name].data, arr), name


class RefAdam:
    """The per-array Adam that the one-pass group step replaced: named
    arrays updated in place, a missing gradient read as zero."""

    def __init__(self, lr, betas=(0.9, 0.999), eps=1e-8, weight_decay=0.0):
        self.lr, self.betas, self.eps, self.weight_decay = lr, betas, eps, weight_decay
        self.step_count = 0
        self.moments = {}

    def step(self, params, grads):
        if self.lr == 0.0:
            return
        self.step_count += 1
        b1, b2 = self.betas
        correction1 = 1.0 - b1**self.step_count
        correction2 = 1.0 - b2**self.step_count
        for name, p in params.items():
            g = grads.get(name)
            if g is None:
                g = np.zeros_like(p)
            if self.weight_decay:
                g = g + self.weight_decay * p
            if name not in self.moments:
                self.moments[name] = (np.zeros_like(p), np.zeros_like(p))
            m, v = self.moments[name]
            m *= b1
            m += (1.0 - b1) * g
            v *= b2
            v += (1.0 - b2) * g * g
            p -= self.lr * (m / correction1) / (np.sqrt(v / correction2) + self.eps)


class TestParamGroups:
    @staticmethod
    def assert_views(group, arrays):
        """``arrays`` are, in order, the named views of the group's one buffer."""
        assert list(arrays) == list(group.arrays)
        assert np.array_equal(np.concatenate([a.ravel() for a in arrays.values()]), group.data)
        for name, a in arrays.items():
            assert a is group.arrays[name] and a.base is group.data, name

    def assert_state_views(self, state):
        self.assert_views(state.omega, state.omega_arrays())
        self.assert_views(state.arch, dict(zip(("alpha", "gamma", "beta"), (state.alpha, state.gamma, state.beta))))
        for key, name, k in state._op_weights:
            assert state.ops[key].weights[k] is state.omega.arrays[name], name

    @staticmethod
    def snapshot(net):
        """Every named array object of ``net`` and its bytes."""
        arrays = {**net.omega_arrays(), **(net.arch.arrays if hasattr(net, "arch") else {})}
        return {name: (a, a.tobytes()) for name, a in arrays.items()}

    @staticmethod
    def assert_same_objects_new_values(net, before):
        after = {**net.omega_arrays(), **(net.arch.arrays if hasattr(net, "arch") else {})}
        assert list(after) == list(before)
        assert all(after[name] is a for name, (a, _) in before.items())
        assert any(after[name].tobytes() != raw for name, (_, raw) in before.items())

    def test_bilevel_step_keeps_the_views(self):
        space = tiny_space()
        splits = tiny_splits()
        state = SearchState(space, np.random.default_rng(0))
        self.assert_state_views(state)
        before = self.snapshot(state)
        batch = (splits["train"].xa[:8], splits["train"].xb[:8], splits["train"].labels[:8])
        bilevel_train_step(state, batch, batch, TrainSchedule(), np.random.default_rng(1), Adam(3e-3), Adam(2e-2))
        self.assert_same_objects_new_values(state, before)
        self.assert_state_views(state)

    def test_retrain_step_keeps_the_views(self):
        space = tiny_space()
        train = tiny_splits()["train"]
        net = DiscreteNetwork(mixed_genotype(space), space, np.random.default_rng(3))
        self.assert_views(net.omega, net.params())
        before = self.snapshot(net)
        search_module._descend(net.forward, (train.xa[:8], train.xb[:8], train.labels[:8]), Adam(1e-3), net.omega, "{}")
        self.assert_same_objects_new_values(net, before)
        self.assert_views(net.omega, net.params())
        assert net.param_count() == net.omega.data.size

    def test_resumed_run_keeps_the_views(self, tmp_path, monkeypatch):
        splits = tiny_splits(n=16)
        space = tiny_space(k_samples=4)
        ckpt = tmp_path / "c.ckpt"
        run_search(splits["train"], splits["val"], space, TrainSchedule(epochs=1, batch_size=8, entropy_tol=0.0),
                   seed=2, checkpoint_path=ckpt)
        loaded = {}
        real = search_module.load_checkpoint

        def capture(*args, **kwargs):
            out = real(*args, **kwargs)
            self.assert_state_views(out[0])
            loaded.update(state=out[0], before=self.snapshot(out[0]))
            return out

        monkeypatch.setattr(search_module, "load_checkpoint", capture)
        sched = TrainSchedule(epochs=2, batch_size=8, entropy_tol=0.0)
        res = run_search(splits["train"], splits["val"], space, sched, seed=2, resume_from=ckpt)
        assert res.state is loaded["state"] and res.stopped_epoch == 2
        self.assert_same_objects_new_values(res.state, loaded["before"])
        self.assert_state_views(res.state)

    def test_each_step_starts_from_zero_gradients(self):
        space = tiny_space()
        train = tiny_splits()["train"]
        net = DiscreteNetwork(mixed_genotype(space), space, np.random.default_rng(3))
        opt = Adam(1e-3)
        for start in (0, 8, 16):
            batch = (train.xa[start : start + 8], train.xb[start : start + 8], train.labels[start : start + 8])
            fresh = DiscreteNetwork(mixed_genotype(space), space, np.random.default_rng(3))
            fresh.omega.data[...] = net.omega.data
            search_module._descend(net.forward, batch, opt, net.omega, "{}")
            search_module._descend(fresh.forward, batch, Adam(0.0), fresh.omega, "{}")
            assert net.omega.grad.tobytes() == fresh.omega.grad.tobytes()
            assert np.any(net.omega.grad != 0.0)

    @staticmethod
    def gradients(group, rng, silent):
        """Random gradients per name, None for ``silent``, and the group's
        gradient buffer holding them (zero for ``silent``)."""
        grads = {name: None if name == silent else rng.normal(size=a.shape) for name, a in group.arrays.items()}
        group.grad[...] = 0.0
        for name, view in group.views(group.grad).items():
            if grads[name] is not None:
                view[...] = grads[name]
        return grads

    @staticmethod
    def assert_bits(group, reference):
        for name, a in group.arrays.items():
            assert a.tobytes() == reference[name].tobytes(), name

    @pytest.mark.parametrize("weight_decay", [0.0, 1e-3])
    def test_group_step_is_the_per_array_step_bit_for_bit(self, weight_decay):
        state = SearchState(tiny_space(), np.random.default_rng(0))
        rng = np.random.default_rng(1)
        for group, lr in ((state.omega, 3e-3), (state.arch, 2e-2)):
            reference = {name: a.copy() for name, a in group.arrays.items()}
            opt, ref = Adam(lr, weight_decay=weight_decay), RefAdam(lr, weight_decay=weight_decay)
            silent = list(group.arrays)[1]  # a leaf that takes no gradient
            for _ in range(5):
                grads = self.gradients(group, rng, silent)
                opt.step(group.data, group.grad)
                ref.step(reference, grads)
                self.assert_bits(group, reference)
            assert opt.step_count == ref.step_count == 5
            for kind, moment in zip((0, 1), opt.moments):
                for name, view in group.views(moment).items():
                    assert view.tobytes() == ref.moments[name][kind].tobytes(), name

    def test_zero_learning_rate_is_a_no_op(self):
        state = SearchState(tiny_space(), np.random.default_rng(0))
        group = state.omega
        before = group.data.tobytes()
        opt = Adam(0.0, weight_decay=1e-3)
        self.gradients(group, np.random.default_rng(1), None)
        opt.step(group.data, group.grad)
        assert group.data.tobytes() == before and opt.step_count == 0 and opt.moments is None

    def test_restored_moments_continue_bit_for_bit(self, tmp_path):
        space = tiny_space()
        sched = TrainSchedule(weight_decay=1e-3)
        state = SearchState(space, np.random.default_rng(0))
        opts = search_module._optimizers(sched)
        refs = (RefAdam(sched.weight_lr, weight_decay=sched.weight_decay), RefAdam(sched.arch_lr))
        references = [{name: a.copy() for name, a in g.arrays.items()} for g in (state.omega, state.arch)]
        rng = np.random.default_rng(1)

        def steps(groups, opts, n):
            for _ in range(n):
                for group, opt, ref, reference in zip(groups, opts, refs, references):
                    grads = self.gradients(group, rng, list(group.arrays)[0])
                    opt.step(group.data, group.grad)
                    ref.step(reference, grads)
                    self.assert_bits(group, reference)

        steps((state.omega, state.arch), opts, 3)
        ckpt = tmp_path / "c.ckpt"
        search_module.save_checkpoint(ckpt, state, *opts, np.random.default_rng(2), [], 3, 0, sched)
        restored, w_opt, a_opt, *_ = search_module.load_checkpoint(ckpt, space, sched, 0)
        assert (w_opt.step_count, a_opt.step_count) == (3, 3)
        steps((restored.omega, restored.arch), (w_opt, a_opt), 2)
        for opt, ref in zip((w_opt, a_opt), refs):
            assert opt.step_count == ref.step_count == 5

    def test_an_optimizer_that_never_stepped_writes_no_moments(self, tmp_path):
        space = tiny_space()
        sched = TrainSchedule()
        state = SearchState(space, np.random.default_rng(0))
        w_opt, a_opt = search_module._optimizers(sched)
        self.gradients(state.omega, np.random.default_rng(1), None)
        w_opt.step(state.omega.data, state.omega.grad)
        names = set(search_module._checkpoint_arrays(state, w_opt, a_opt))
        assert {n for n in names if "_opt." in n} == {
            f"w_opt.{kind}.{name}" for kind in "mv" for name in state.omega.arrays
        }
        ckpt = tmp_path / "c.ckpt"
        search_module.save_checkpoint(ckpt, state, w_opt, a_opt, np.random.default_rng(2), [], 1, 0, sched)
        _, w_back, a_back, *_ = search_module.load_checkpoint(ckpt, space, sched, 0)
        assert a_back.moments is None
        for mine, back in zip(w_opt.moments, w_back.moments):
            assert mine.tobytes() == back.tobytes()

    @pytest.mark.parametrize("space", [tiny_space(), SearchSpaceConfig(), SearchSpaceConfig(n_image_features=3)])
    def test_tap_flags_are_the_identity_check(self, space):
        nets = [SearchState(space, np.random.default_rng(0)),
                DiscreteNetwork(sum_cell_genotype(space), space, np.random.default_rng(0))]
        for net in nets:
            assert net.identity_taps == [np.array_equal(tap, np.eye(space.channels)) for tap in net.taps]
            assert net.identity_taps.count(True) == 2  # tap 0 of each modality

    def test_restored_taps_are_flagged_again(self, tmp_path):
        space = tiny_space()
        sched = TrainSchedule()
        state = SearchState(space, np.random.default_rng(0))
        state.taps[0][...] = state.taps[1]  # a checkpoint whose identity tap is not the identity
        ckpt = tmp_path / "c.ckpt"
        search_module.save_checkpoint(ckpt, state, *search_module._optimizers(sched), np.random.default_rng(2),
                                      [], 1, 0, sched)
        restored = search_module.load_checkpoint(ckpt, space, sched, 0)[0]
        assert restored.identity_taps == [np.array_equal(tap, np.eye(space.channels)) for tap in restored.taps]
        assert restored.identity_taps[0] is False


@pytest.fixture(scope="module")
def small_run():
    splits = tiny_splits(n=48)
    space = tiny_space(k_samples=8)
    sched = TrainSchedule(epochs=6, batch_size=8)
    return run_search(splits["train"], splits["val"], space, sched, seed=5), splits, space, sched


class TestSearchLoop:
    def test_history_shape_and_finiteness(self, small_run):
        res, *_ = small_run
        assert len(res.history) == res.stopped_epoch
        for rec in res.history:
            assert np.isfinite([rec.e_alpha, rec.e_gamma, rec.train_loss, rec.val_loss]).all()

    def test_determinism_across_runs(self, small_run):
        res, splits, space, sched = small_run
        res2 = run_search(splits["train"], splits["val"], space, sched, seed=5)
        assert res2.genotype.to_json() == res.genotype.to_json()
        assert [r.as_row() for r in res2.history] == [r.as_row() for r in res.history]

    def test_eval_forward_bitwise_deterministic(self, small_run):
        res, splits, *_ = small_run
        xa, xb = splits["test"].xa[:8], splits["test"].xb[:8]
        outs = []
        for _ in range(2):
            tape = Tape()
            logits, _ = network_forward(tape, res.state, xa, xb, None, "eval")
            outs.append(logits.data.copy())
        assert np.array_equal(outs[0], outs[1])

    def test_checkpoint_resume_reproduces_run(self, tmp_path):
        splits = tiny_splits(n=48)
        space = tiny_space(k_samples=8)
        sched = TrainSchedule(epochs=6, batch_size=8, entropy_tol=0.0)  # disable early stop
        full = run_search(splits["train"], splits["val"], space, sched, seed=9)
        # a 3-epoch run leaves exactly the 6-epoch run's mid-state at the path
        ckpt = tmp_path / "mid.ckpt"
        half_sched = TrainSchedule(epochs=3, batch_size=8, entropy_tol=0.0)
        run_search(
            splits["train"], splits["val"], space, half_sched, seed=9, checkpoint_path=ckpt
        )
        resumed = run_search(
            splits["train"], splits["val"], space, sched, seed=9, resume_from=ckpt
        )
        assert resumed.genotype.to_json() == full.genotype.to_json()
        assert [r.as_row() for r in resumed.history] == [r.as_row() for r in full.history]
        assert np.array_equal(resumed.state.alpha, full.state.alpha)
        assert np.array_equal(resumed.state.gamma, full.state.gamma)
        for name, arr in full.state.omega_arrays().items():
            assert np.array_equal(resumed.state.omega_arrays()[name], arr), name

    def test_resume_builds_the_state_and_optimizers_once(self, tmp_path, monkeypatch):
        splits = tiny_splits(n=48)
        space = tiny_space(k_samples=8)
        sched = TrainSchedule(epochs=2, batch_size=8, entropy_tol=0.0)
        ckpt = tmp_path / "c.ckpt"
        run_search(splits["train"], splits["val"], space, sched, seed=9, checkpoint_path=ckpt)
        built = {"SearchState": 0, "Adam": 0}
        for cls in (SearchState, Adam):
            init = cls.__init__

            def counting(self, *args, _init=init, _name=cls.__name__, **kwargs):
                built[_name] += 1
                _init(self, *args, **kwargs)

            monkeypatch.setattr(cls, "__init__", counting)
        resumed = run_search(splits["train"], splits["val"], space, sched, seed=9, resume_from=ckpt)
        assert built == {"SearchState": 1, "Adam": 2}
        assert resumed.stopped_epoch == 2

    @pytest.mark.parametrize("every, saved", [(0, [4]), (1, [1, 2, 3, 4]), (3, [3, 4])])
    def test_final_checkpoint_is_written_once(self, tmp_path, monkeypatch, every, saved):
        splits = tiny_splits(n=48)
        space = tiny_space(k_samples=8)
        sched = TrainSchedule(epochs=4, batch_size=8, entropy_tol=0.0)
        ckpt = tmp_path / "c.ckpt"
        epochs = []
        save = search_module.save_checkpoint

        def counting(path, state, w_opt, a_opt, rng, history, epoch, *rest):
            epochs.append(epoch)
            save(path, state, w_opt, a_opt, rng, history, epoch, *rest)

        monkeypatch.setattr(search_module, "save_checkpoint", counting)
        run_search(splits["train"], splits["val"], space, sched, seed=9, checkpoint_path=ckpt,
                   checkpoint_every=every)
        assert epochs == saved
        # a resume that runs no epoch still writes its checkpoint
        epochs.clear()
        again = tmp_path / "again.ckpt"
        run_search(splits["train"], splits["val"], space, sched, seed=9, checkpoint_path=again,
                   checkpoint_every=every, resume_from=ckpt)
        assert epochs == [4]
        assert again.read_bytes() == ckpt.read_bytes()

    def test_resume_refuses_another_seed(self, tmp_path):
        splits = tiny_splits(n=48)
        space = tiny_space(k_samples=8)
        sched = TrainSchedule(epochs=1, batch_size=8)
        ckpt = tmp_path / "c.ckpt"
        run_search(splits["train"], splits["val"], space, sched, seed=9, checkpoint_path=ckpt)
        with pytest.raises(CheckpointMismatchError, match="seed is 9 in the checkpoint but 10"):
            run_search(splits["train"], splits["val"], space, sched, seed=10, resume_from=ckpt)

    def test_checkpoint_contains_grnt_views(self, tmp_path):
        import zipfile

        splits = tiny_splits(n=48)
        space = tiny_space(k_samples=8)
        sched = TrainSchedule(epochs=2, batch_size=8)
        ckpt = tmp_path / "c.ckpt"
        run_search(splits["train"], splits["val"], space, sched, seed=9, checkpoint_path=ckpt)
        with zipfile.ZipFile(ckpt) as zf:
            names = set(zf.namelist())
            assert "manifest.json" in names
            assert "alpha.grnt" in names and "alpha.f64le" in names
            manifest = json.loads(zf.read("manifest.json"))
            assert manifest["epoch"] == 2
            raw = zf.read("alpha.grnt")
            assert raw[:4] == b"GRNT"

    def test_retrain_and_eval_reports(self, small_run):
        res, splits, space, _ = small_run
        sched = TrainSchedule(epochs=10, batch_size=16)
        report = retrain_and_eval(res.genotype, splits, sched, np.random.default_rng(1), space=space)
        assert 0.0 <= report.auc <= 1.0
        assert report.param_count == genotype_param_count(res.genotype, space)
        assert report.tp + report.fp + report.tn + report.fn == len(splits["test"])

    def test_k_sample_count_convergence_comparison_report_only(self, capsys):
        # qualitative faster-convergence claim: logged as an observation, not asserted
        splits = tiny_splits(n=48)
        sched = TrainSchedule(epochs=20, batch_size=8)
        epochs = {}
        for k in (1, 100):
            space = tiny_space(lam=0.1, k_samples=k)
            res = run_search(splits["train"], splits["val"], space, sched, seed=7)
            epochs[k] = res.stopped_epoch
        with capsys.disabled():
            comparison = "no more" if epochs[100] <= epochs[1] else "more"
            print(
                f"\n[observation] stability epoch at K=100: {epochs[100]}, at K=1: {epochs[1]} "
                f"(K=100 took {comparison} epochs; report-only)"
            )
        assert all(e >= 1 for e in epochs.values())
