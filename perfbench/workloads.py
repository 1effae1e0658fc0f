"""The three workloads, each mirroring the defaults of one ``grnas`` command
with fewer trials or epochs per round.

Every workload is single process, single threaded and closed loop: one
round starts when the previous one returns.  A round is the unit that the
correctness checks judge; a step is the unit that work and per-layer
numbers are divided by.

* ``estimator-grid``: the ``estimator-bench`` grid.  Round = step = one
  pass.  ``kernels.grmc_stats`` does almost all the work in a few large
  calls; the autodiff tape and the search are never called.
* ``search-k100``: ``run_search`` on the default search space and
  schedule.  Round = one search, step = one bilevel step.  The kernels run
  as thousands of tiny calls, the reverse of ``estimator-grid``.
* ``retrain-b64``: ``retrain_and_eval`` at the eval defaults, cut to 3
  epochs, on a genotype built in code.  Round = one retrain, step = one
  minibatch step.  Autodiff, ops and Adam run at 8x the search batch with
  no sampling, and the work cannot depend on the search's numerics.
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import os
import tempfile
import time

import numpy as np

from grnas import data, estimators, search
from grnas.configs import EstimatorBenchConfig, EvalConfig, SearchRunConfig

# Per unit; the command's default is 1e5.  At 250 one call is one
# vectorised block of the numpy kernel (256 trials), so a K=1000 call
# lasts about 0.1 s and the fastest of a run's forty-odd repeats of it
# falls in a quiet moment of the host.  The variance ordering held on 100 of 100
# seeds at this count.  The command's other check, STGS and GRMC means
# within 3 pooled standard errors, is not applied: at 1,000 trials the STGS
# estimate at lam=0.1 is too skewed for its sample standard error: the
# check failed on 8 of 60 seeds, all in the linear lam=0.1 unit, which
# passed on all 60 at 1e4 trials.
GRID_TRIALS = 250
# Rounds are kept short (about 0.8 s and 50 ms) so that a run holds many
# and their fastest parts fall in quiet moments of the host; see README.md.
SEARCH_EPOCHS = 1  # per round; the default schedule's cap is 100 epochs
RETRAIN_EPOCHS = 3  # per round; the eval default is 100
AUC_FLOOR = 0.9  # each of 300 seeds scored above 0.99 after 3 epochs


class CheckFailed(Exception):
    """A round's output broke one of the workload's correctness checks."""


def _substream(seed: int, index: int) -> int:
    # order-independent per-purpose seed, as the CLI derives per-unit seeds
    return int(np.random.default_rng([seed, index]).integers(2**31))


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else repr(part).encode())
    return h.hexdigest()


class Workload:
    name = ""
    steps_per_round = 1
    timed_step = None  # dotted name timed per call; else a round is the operation
    op_label = ("", 1.0, "s")  # report name, scale from seconds, unit
    work_label = ""
    first_digest = None
    parts = ()  # times of the current round's timed parts, in order
    part_best = None  # fastest time of each part (and of the rest) over passed rounds

    def warm_up(self) -> None:
        raise NotImplementedError

    def run_round(self) -> str:
        """One round; returns its output digest or raises."""
        raise NotImplementedError

    def check_round(self, digest: str) -> None:
        # every round repeats the same inputs, so outputs must repeat exactly
        if self.first_digest is None:
            self.first_digest = digest
        elif digest != self.first_digest:
            raise CheckFailed(f"round digest {digest[:12]} differs from {self.first_digest[:12]}")

    def work_per_round(self) -> float:
        return float(self.steps_per_round)

    def keep_fastest_parts(self, wall_s: float) -> None:
        """Fold a passed round's part times, and the rest of its wall time, into ``part_best``.

        Every round repeats the same work, so the n-th part of one round
        matches the n-th part of any other.
        """
        times = [*self.parts, wall_s - sum(self.parts)]
        if self.part_best is None:
            self.part_best = times
        elif len(times) != len(self.part_best):
            raise CheckFailed(f"{len(times) - 1} timed parts, round 0 had {len(self.part_best) - 1}")
        else:
            self.part_best = [min(a, b) for a, b in zip(self.part_best, times)]

    def best_round_s(self) -> float:
        """The passed rounds' parts, each at its fastest, summed."""
        return sum(self.part_best) if self.part_best else 0.0

    def close(self) -> None:
        pass


class EstimatorGrid(Workload):
    name = "estimator-grid"
    op_label = ("grid_pass_s", 1.0, "s")
    work_label = "grmc_rows_per_s"

    def __init__(self, seed: int):
        self.cfg = EstimatorBenchConfig(trials=GRID_TRIALS, seed=seed)
        n = self.cfg.n_categories
        self.theta = np.linspace(-0.5, 0.5, n)
        objectives = {
            "linear": estimators.LinearObjective(np.eye(n)[0]),
            "quadratic": self._quadratic(n),
        }
        pairs = itertools.product(self.cfg.objectives, self.cfg.lambdas)
        self.units = [
            (objectives[obj], obj, lam, _substream(seed, i)) for i, (obj, lam) in enumerate(pairs)
        ]

    @staticmethod
    def _quadratic(n):
        # the command's fixed quadratic objective
        rng = np.random.default_rng(2024)
        a = rng.normal(size=(n, n))
        return estimators.QuadraticObjective(a, rng.normal(size=n))

    def work_per_round(self) -> float:
        return float(len(self.units) * self.cfg.trials * sum(self.cfg.k_grid))

    def warm_up(self) -> None:
        obj, _, lam, unit_seed = self.units[-1]
        cfg = estimators.EstimatorConfig("grmc", lam, max(self.cfg.k_grid))
        estimators.estimator_stats(obj, self.theta, cfg, 2, np.random.default_rng(unit_seed))

    def run_round(self) -> str:
        trials = self.cfg.trials
        outputs = []
        failures = []

        def timed_stats(obj, cfg, unit_seed):
            t0 = time.perf_counter()
            st = estimators.estimator_stats(
                obj, self.theta, cfg, trials,
                np.random.default_rng(unit_seed),  # common forward outcomes with STGS
            )
            self.parts.append(time.perf_counter() - t0)  # one part per call
            return st

        for obj, obj_name, lam, unit_seed in self.units:
            stgs = timed_stats(obj, estimators.EstimatorConfig("stgs", lam), unit_seed)
            results = [stgs]
            for k in self.cfg.k_grid:
                grmc = timed_stats(obj, estimators.EstimatorConfig("grmc", lam, k), unit_seed)
                results.append(grmc)
                if not grmc.trace_variance <= stgs.trace_variance:
                    failures.append(f"variance ordering {obj_name} lam={lam} K={k}")
            for st in results:
                if not np.isfinite(st.mse):
                    failures.append(f"non-finite MSE {st.estimator} {obj_name} lam={lam}")
                outputs.append(st.mean.tobytes() + st.variance.tobytes() + repr(st.mse).encode())
        if failures:
            raise CheckFailed("; ".join(failures))
        return _digest(*outputs)


class SearchK100(Workload):
    name = "search-k100"
    timed_step = "search.bilevel_train_step"
    op_label = ("search_step_ms", 1000.0, "ms")
    work_label = "search_steps_per_s"

    def __init__(self, seed: int, tmp_dir: str):
        defaults = SearchRunConfig()
        task = dataclasses.replace(defaults.task, seed=_substream(seed, 0))
        self.splits = data.gen_synthetic_bimodal(task)
        self.space = defaults.space
        self.schedule = dataclasses.replace(
            defaults.schedule, epochs=SEARCH_EPOCHS, entropy_tol=0.0
        )
        self.seed = _substream(seed, 1)
        n = min(len(self.splits["train"]), len(self.splits["val"]))
        self.steps_per_round = SEARCH_EPOCHS * max(n // self.schedule.batch_size, 1)
        self._tmp = tempfile.TemporaryDirectory(prefix="search-", dir=tmp_dir)
        self.ckpt_path = os.path.join(self._tmp.name, "search.ckpt")

    def warm_up(self) -> None:
        rng = np.random.default_rng(self.seed)
        state = search.SearchState(self.space, rng)
        bs = self.schedule.batch_size
        batch = tuple(
            arr[:bs]
            for arr in (self.splits["train"].xa, self.splits["train"].xb, self.splits["train"].labels)
        )
        search.bilevel_train_step(
            state, batch, batch, self.schedule, rng,
            search.Adam(self.schedule.weight_lr), search.Adam(self.schedule.arch_lr),
        )

    def run_round(self) -> str:
        result = search.run_search(
            self.splits["train"], self.splits["val"], self.space, self.schedule, self.seed,
            checkpoint_path=self.ckpt_path, checkpoint_every=1,
        )  # TrainingDivergedError and DegenerateGenotypeError fail the round
        rows = [r.as_row() for r in result.history]
        if len(rows) != SEARCH_EPOCHS or not np.all(np.isfinite(np.array(rows, dtype=float))):
            raise CheckFailed(f"history has {len(rows)} epochs or non-finite losses")
        with open(self.ckpt_path, "rb") as fh:
            ckpt = fh.read()
        return _digest(result.genotype.to_json(), rows, ckpt)

    def close(self) -> None:
        self._tmp.cleanup()


def fixed_genotype(space) -> "search.Genotype":
    """Every first-level edge kept; attention, linear_glu, concat_fc, sum, one per node."""
    names = space.node_names
    ops = ("attention", "linear_glu", "concat_fc", "sum")
    cells = []
    for ci in range(space.n_cells):
        for ni in range(space.nodes_per_cell):
            inputs = ["in", "in"] if ni == 0 else [f"node{ni - 1}", "in"]
            op = ops[(ci * space.nodes_per_cell + ni) % len(ops)]
            cells.append({"cell": ci, "node": ni, "op": op, "inputs": inputs, "tie": False})
    return search.Genotype(
        first_level_edges=tuple((names[s], names[d], True) for s, d in space.first_level_edges()),
        cells=tuple(cells),
        lam=space.lam,
        k_samples=space.k_samples,
        seed=0,
        epoch=0,
    )


class RetrainB64(Workload):
    name = "retrain-b64"
    op_label = ("retrain_run_s", 1.0, "s")
    work_label = "retrain_steps_per_s"

    def __init__(self, seed: int):
        defaults = EvalConfig()
        task = dataclasses.replace(defaults.task, seed=_substream(seed, 0))
        self.splits = data.gen_synthetic_bimodal(task)
        self.space = defaults.space
        self.schedule = dataclasses.replace(defaults.retrain, epochs=RETRAIN_EPOCHS)
        self.genotype = fixed_genotype(self.space)
        self.seed = _substream(seed, 1)
        per_epoch = len(self.splits["train"]) // self.schedule.batch_size
        self.steps_per_round = self.schedule.epochs * per_epoch

    def warm_up(self) -> None:
        one_epoch = dataclasses.replace(self.schedule, epochs=1)
        search.retrain_and_eval(
            self.genotype, self.splits, one_epoch, np.random.default_rng(self.seed), space=self.space
        )

    def run_round(self) -> str:
        report = search.retrain_and_eval(
            self.genotype, self.splits, self.schedule, np.random.default_rng(self.seed),
            space=self.space,
        )
        if not report.auc >= AUC_FLOOR:
            raise CheckFailed(f"test AUC {report.auc:.4f} below {AUC_FLOOR}")
        return _digest(sorted(report.to_dict().items()))


def build(name: str, seed: int, tmp_dir: str) -> Workload:
    if name == EstimatorGrid.name:
        return EstimatorGrid(seed)
    if name == SearchK100.name:
        return SearchK100(seed, tmp_dir)
    if name == RetrainB64.name:
        return RetrainB64(seed)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = (EstimatorGrid.name, SearchK100.name, RetrainB64.name)
