"""Acceptance criteria, one test per criterion, each printing a pass/fail line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines as they complete.  Stated tolerances are pinned here; shared fixtures
(the estimator grid, the toy search) are computed once and their wall time
is attributed to the first criterion that needs them.
"""

import hashlib
import json
import sys
import time

import numpy as np
import pytest

from grnas import autodiff as ad
from grnas import data, ops
from grnas.autodiff import grad_check
from grnas.cli import _map_units
from grnas.cli import main as cli_main
from grnas.estimators import (
    EstimatorConfig,
    LinearObjective,
    QuadraticObjective,
    estimator_stats,
    means_within_pooled_se,
)
from grnas.gumbel import (
    EULER_MASCHERONI,
    STANDARD_GUMBEL_VARIANCE,
    GumbelParams,
    gumbel_cdf,
    gumbel_icdf,
    gumbel_max_indices,
    pooled_conditional_values,
    sample_gumbel,
    softmax,
)
from grnas.search import (
    Genotype,
    SearchSpaceConfig,
    TrainSchedule,
    cell_forward,
    entropy,
    genotype_param_count,
    grmc_mixture_weights,
    retrain_and_eval,
    run_search,
)


def report(criterion, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {criterion}] {status} - {detail}", file=sys.stderr)
    assert ok, f"criterion {criterion}: {detail}"


def ks_statistic(samples, cdf_at):
    x = np.sort(np.asarray(samples))
    n = x.size
    f = cdf_at(x)
    return max(
        np.abs(np.arange(1, n + 1) / n - f).max(), np.abs(np.arange(0, n) / n - f).max()
    )


# ---------------------------------------------------------------------------
# shared fixtures


GRID_LAMBDAS = (0.1, 0.5, 1.0)
GRID_K = (10, 100, 1000)
GRID_SEED = 2024
GRID_TRIALS = 10**5


def _grid_cell(cell, _pool_seed):
    """STGS and GRMC-K statistics of one (objective, lambda) cell.  The cell
    seeds from its grid index, so the seed the pool derives is unused."""
    obj, theta, lam, seed = cell
    stgs = estimator_stats(obj, theta, EstimatorConfig("stgs", lam), GRID_TRIALS, np.random.default_rng(seed))
    grmc = {
        k: estimator_stats(
            obj,
            theta,
            EstimatorConfig("grmc", lam, k),
            GRID_TRIALS,
            np.random.default_rng(seed),  # shared seed: common forward outcomes
        )
        for k in GRID_K
    }
    return stgs, grmc


@pytest.fixture(scope="module")
def estimator_grid():
    """STGS + GRMC-K statistics for both objectives over the full grid, one
    cell per unit of the command's process pool."""
    t0 = time.time()
    n = 5
    theta = np.linspace(-0.5, 0.5, n)
    c = np.zeros(n)
    c[0] = 1.0
    rng = np.random.default_rng(GRID_SEED)
    objectives = {
        "linear": LinearObjective(c),
        "quadratic": QuadraticObjective(rng.normal(size=(n, n)), rng.normal(size=n)),
    }
    cells = [(obj_name, lam) for obj_name in objectives for lam in GRID_LAMBDAS]
    units = [
        # seeded from the grid index, not hash(): str hashes vary per process
        (objectives[obj_name], theta, lam, [GRID_SEED, i])
        for i, (obj_name, lam) in enumerate(cells)
    ]
    grid = dict(zip(cells, _map_units(_grid_cell, GRID_SEED, units)))
    return grid, time.time() - t0


TOY_TASK = data.SynthTaskConfig(seed=7, n_test=2048)  # separation 4, correlation 0.5
TOY_SPACE = SearchSpaceConfig()  # lam=0.1, K=100, C=16, L=8
RETRAIN_SCHED = TrainSchedule(epochs=100, batch_size=64)


@pytest.fixture(scope="module")
def toy_search():
    """The lam=0.1 / K=100 / seed 7 search on the synthetic bimodal task."""
    t0 = time.time()
    splits = data.gen_synthetic_bimodal(TOY_TASK)
    result = run_search(splits["train"], splits["val"], TOY_SPACE, TrainSchedule(), seed=7)
    return result, splits, time.time() - t0


# ---------------------------------------------------------------------------
# criteria


def test_criterion_1_gumbel_correctness():
    t0 = time.time()
    u = np.linspace(0.001, 0.999, 1997)
    params = GumbelParams(0.7, 1.9)
    round_trip = np.max(np.abs(gumbel_cdf(gumbel_icdf(u, params), params) - u))

    draws = sample_gumbel(10**6, rng=np.random.default_rng(101))
    mean_err = abs(draws.mean() - EULER_MASCHERONI)
    var_rel_err = abs(draws.var() - STANDARD_GUMBEL_VARIANCE) / STANDARD_GUMBEL_VARIANCE

    tv_worst = 0.0
    for theta in (np.log([0.7, 0.2, 0.1]), np.array([0.5, -0.5, 1.0, 0.0, -1.0, 0.3, 0.9, -0.2])):
        idx = gumbel_max_indices(theta, 10**5, np.random.default_rng(5))
        freq = np.bincount(idx, minlength=theta.size) / 10**5
        tv_worst = max(tv_worst, 0.5 * np.abs(freq - softmax(theta)).sum())

    elapsed = time.time() - t0
    ok = round_trip < 1e-10 and mean_err < 0.01 and var_rel_err < 0.02 and tv_worst < 0.01 and elapsed < 10
    report(
        1,
        ok,
        f"round-trip {round_trip:.2e}, mean err {mean_err:.4f}, var rel err {var_rel_err:.4f}, "
        f"worst TV {tv_worst:.4f}, {elapsed:.1f}s (<10s)",
    )


def test_criterion_2_conditional_gumbel_validity():
    t0 = time.time()
    logit_sets = [
        np.array([0.3, 1.2, -0.5]),
        np.zeros(4),
        np.array([2.0, 0.0, -1.0, 0.5, -2.0]),
        np.log([0.7, 0.2, 0.1]),
        np.array([5.0, -5.0]),
    ]
    rng = np.random.default_rng(37)
    preserved = True
    for theta in logit_sets:
        vals, idx = pooled_conditional_values(theta, 10**4, rng)
        preserved = preserved and bool(np.all(np.argmax(vals, axis=1) == idx))

    theta = np.array([0.3, 1.2, -0.5])
    vals, _ = pooled_conditional_values(theta, 10**5, np.random.default_rng(41))
    ks_worst = max(
        ks_statistic(vals[:, j], lambda x, j=j: gumbel_cdf(x - theta[j])) for j in range(3)
    )
    elapsed = time.time() - t0
    ok = preserved and ks_worst < 0.01 and elapsed < 30
    report(
        2,
        ok,
        f"argmax preserved on 100% of draws: {preserved}, pooled KS {ks_worst:.4f} (<0.01), "
        f"{elapsed:.1f}s (<30s)",
    )


def test_criterion_3_variance_ordering(estimator_grid):
    grid, build_time = estimator_grid
    failures = []
    for (obj_name, lam), (stgs, grmc) in grid.items():
        for k, stats in grmc.items():
            if stats.trace_variance > stgs.trace_variance:
                failures.append(f"{obj_name} lam={lam} K={k}: variance ordering")
            if not means_within_pooled_se(stgs, stats):
                failures.append(f"{obj_name} lam={lam} K={k}: mean equality")
    ok = not failures and build_time < 300
    report(
        3,
        ok,
        f"18 grid cells, variance ordering + mean equality (3 pooled SE) all hold; "
        f"grid built in {build_time:.0f}s (<300s)" + (f"; failures: {failures}" if failures else ""),
    )


def test_criterion_4_mse_non_increasing(estimator_grid):
    grid, _ = estimator_grid
    failures = []
    for (obj_name, lam), (_, grmc) in grid.items():
        ks = sorted(grmc)
        for k_prev, k_next in zip(ks, ks[1:]):
            a, b = grmc[k_prev], grmc[k_next]
            slack = 1.96 * np.sqrt(a.mse_stderr**2 + b.mse_stderr**2)
            if b.mse > a.mse + slack:
                failures.append(f"{obj_name} lam={lam}: MSE K={k_next} > K={k_prev}")
    ok = not failures
    report(
        4,
        ok,
        "MSE non-increasing across K in {10,100,1000} within 95% CI for all 6 settings"
        + (f"; failures: {failures}" if failures else ""),
    )


def test_criterion_5_gradient_integrity():
    t0 = time.time()
    worst = 0.0
    for seed in (11, 22, 33):
        rng = np.random.default_rng(seed)
        c = 3
        x = rng.normal(size=(2, c, 4))
        y = rng.normal(size=(2, c, 4))
        w1, w2 = rng.normal(size=(c, c)), rng.normal(size=(c, c))
        fw, fb = rng.normal(size=(2 * c, c)), rng.normal(size=c)
        checks = [
            (lambda t, a, b: ad.sum_all(ops.op_sum(t, a, b)), [x, y]),
            (lambda t, a, b: ad.sum_all(ops.op_attention(t, a, b)), [x, y]),
            (lambda t, a, b, u, v: ad.sum_all(ops.op_linear_glu(t, a, b, u, v)), [x, y, w1, w2]),
            (lambda t, a, b, u, v: ad.sum_all(ops.op_concat_fc(t, a, b, u, v)), [x, y, fw, fb]),
            (lambda t, a: ad.sum_all(ops.op_identity(t, a)), [x]),
            (lambda t, a, b: ad.sum_all(ops.op_zero(t, a, b)), [x, y]),
        ]
        for fn, inputs in checks:
            worst = max(worst, grad_check(fn, inputs, step=1e-4).max_rel_error)

        # full 2-node cell, eval mode, deterministic weights
        g0, g1 = rng.normal(size=5) * 0.5, rng.normal(size=5) * 0.5
        b00, b01, b10, b11 = (rng.normal(size=2) * 0.5 for _ in range(4))

        def cell_fn(t, xin, g0, g1, b00, b01, b10, b11, w1, w2, fw, fb):
            def candidates():
                return [
                    ("zero", lambda tt, a, b: ops.op_zero(tt, a, b)),
                    ("sum", lambda tt, a, b: ops.op_sum(tt, a, b)),
                    ("attention", lambda tt, a, b: ops.op_attention(tt, a, b)),
                    ("linear_glu", lambda tt, a, b: ops.op_linear_glu(tt, a, b, w1, w2)),
                    ("concat_fc", lambda tt, a, b: ops.op_concat_fc(tt, a, b, fw, fb)),
                ]

            def mix(row):
                return grmc_mixture_weights(t, row, 0.5, 4, None, "eval"), ...

            out = cell_forward(
                t, [xin], [mix(g0), mix(g1)], [[mix(b00), mix(b01)], [mix(b10), mix(b11)]],
                [candidates(), candidates()],
            )
            return ad.mean_all(out)

        res = grad_check(
            cell_fn, [x[:1], g0, g1, b00, b01, b10, b11, w1, w2, fw, fb], step=1e-4
        )
        worst = max(worst, res.max_rel_error)
    elapsed = time.time() - t0
    ok = worst < 1e-4 and elapsed < 60
    report(5, ok, f"max relative grad error {worst:.2e} (<1e-4) over 3 seeds, {elapsed:.1f}s (<60s)")


def test_criterion_6_entropy_formula_and_trend(toy_search):
    result, _, search_time = toy_search
    formula_ok = (
        abs(entropy(np.zeros((1, 2))) - np.log(2.0)) < 1e-9
        and abs(entropy(np.zeros((3, 5))) - 3.0 * np.log(5.0)) < 1e-9
        and entropy(np.array([[30.0, -30.0]])) < 1e-9
    )
    first, last = result.history[0], result.history[-1]
    trend_ok = last.e_alpha < first.e_alpha and last.e_gamma < first.e_gamma
    ok = formula_ok and trend_ok and search_time < 900
    report(
        6,
        ok,
        f"entropy formula exact; E_alpha {first.e_alpha:.3f}->{last.e_alpha:.3f}, "
        f"E_gamma {first.e_gamma:.3f}->{last.e_gamma:.3f} at stopping epoch {result.stopped_epoch}; "
        f"search {search_time:.0f}s (<900s)",
    )


def test_toy_search_converges_with_stable_genotype(toy_search):
    # converged toy run: terminates before the epoch cap via entropy
    # stabilization, and the derived genotype is identical (structure
    # serialization) across the final 5 epochs
    result, _, _ = toy_search
    assert result.stopped_early
    tail = [snapshot for _, snapshot in result.genotype_trace[-5:]]
    assert all(snapshot is not None and snapshot == tail[0] for snapshot in tail)


def test_criterion_7_end_to_end_search_quality(toy_search):
    result, splits, _ = toy_search
    t0 = time.time()
    rep = retrain_and_eval(
        result.genotype, splits, RETRAIN_SCHED, np.random.default_rng(7), space=TOY_SPACE
    )
    shuffled = data.shuffle_all_labels(splits, np.random.default_rng(99))
    control = retrain_and_eval(
        result.genotype, shuffled, RETRAIN_SCHED, np.random.default_rng(7), space=TOY_SPACE
    )
    elapsed = time.time() - t0
    ok = rep.auc >= 0.95 and abs(control.auc - 0.5) <= 0.05 and elapsed < 1200
    report(
        7,
        ok,
        f"retrained AUC {rep.auc:.4f} (>=0.95), shuffled-label control AUC {control.auc:.4f} "
        f"(0.5 +/- 0.05), params {rep.param_count}, {elapsed:.0f}s (<1200s)",
    )


def test_criterion_8_determinism_and_serialization(tmp_path):
    task = {"n_train": 48, "n_val": 48, "n_test": 48, "channels": 8, "length": 4, "seed": 3}
    cfg = tmp_path / "run.json"
    cfg.write_text(
        json.dumps(
            {
                "task": task,
                "space": {"channels": 8, "length": 4, "k_samples": 8, "lam": 0.5},
                "schedule": {"epochs": 3, "batch_size": 8},
                "retrain": {"epochs": 4, "batch_size": 16},
                "seed": 5,
            }
        )
    )
    bench_cfg = tmp_path / "bench.json"
    bench_cfg.write_text(
        json.dumps(
            {"lambdas": [0.5], "k_grid": [5, 20], "trials": 4000, "n_categories": 3,
             "objectives": ["linear"], "seed": 11}
        )
    )
    digests = {}
    for tag in ("a", "b"):
        out = tmp_path / f"run_{tag}"
        assert cli_main(["search", "--config", str(cfg), "--out-dir", str(out)]) == 0
        bout = tmp_path / f"bench_{tag}"
        assert cli_main(["estimator-bench", "--config", str(bench_cfg), "--out-dir", str(bout)]) == 0
        digests[tag] = {
            name: hashlib.sha256((out / name).read_bytes()).hexdigest()
            for name in ("genotype.json", "entropy.csv", "search.ckpt")
        }
        digests[tag]["bench"] = hashlib.sha256(
            (bout / "estimator_bench.csv").read_bytes()
        ).hexdigest()

    byte_identical = digests["a"] == digests["b"]

    genotype_text = (tmp_path / "run_a" / "genotype.json").read_text()
    g = Genotype.from_json(genotype_text)
    round_trip_ok = g.to_json() == genotype_text

    from grnas.search import load_checkpoint

    state, *_ = load_checkpoint(
        tmp_path / "run_a" / "search.ckpt",
        SearchSpaceConfig(channels=8, length=4, k_samples=8, lam=0.5),
        TrainSchedule(epochs=3, batch_size=8),
    )
    checkpoint_ok = state.alpha.shape == (9, 2)

    ok = byte_identical and round_trip_ok and checkpoint_ok
    report(
        8,
        ok,
        f"repeat runs byte-identical (genotype/entropy/bench/checkpoint): {byte_identical}; "
        f"genotype JSON round-trip: {round_trip_ok}; checkpoint parses: {checkpoint_ok}",
    )


def test_criterion_9_ablation_structural_echo(tmp_path):
    cfg = tmp_path / "ablation.json"
    cfg.write_text(
        json.dumps(
            {
                "task": {"n_train": 128, "n_val": 128, "n_test": 128, "channels": 8,
                         "length": 4, "seed": 3},
                "space": {"channels": 8, "length": 4},
                "schedule": {"epochs": 10, "batch_size": 8},
                "retrain": {"epochs": 20, "batch_size": 32},
                "lambdas": [0.1, 0.5, 1.0],
                "k_grid": [10, 100, 1000],
                "seed": 4,
            }
        )
    )
    out = tmp_path / "ablation"
    code = cli_main(["ablation", "--config", str(cfg), "--out-dir", str(out)])
    lines = (out / "ablation.csv").read_text().strip().split("\n")
    rows_ok = code == 0 and len(lines) == 10
    genotypes_ok = True
    for line in lines[1:]:
        fname = line.split(",")[-1]
        genotype = Genotype.from_json((out / fname).read_text())
        space = SearchSpaceConfig(channels=8, length=4, lam=genotype.lam, k_samples=genotype.k_samples)
        genotypes_ok = genotypes_ok and genotype_param_count(genotype, space) > 0

    observations = json.loads((out / "observations.json").read_text())
    reference_pattern = "monotone decreasing in K (reference: 341760 -> 205565 -> 189574 at the lowest temperature)"
    for obs in observations:
        trend = obs["param_count_trend"]
        match = "matches" if trend == "non-increasing" else "does not match"
        print(
            f"[criterion 9 observation] lambda={obs['lambda']}: param counts {obs['param_counts_by_K']} "
            f"-> {trend}; {match} the reference pattern [{reference_pattern}] (report-only)",
            file=sys.stderr,
        )
    ok = rows_ok and genotypes_ok and len(observations) == 3
    report(
        9,
        ok,
        f"3x3 grid emitted {len(lines) - 1} rows, all genotype files validate; "
        "parameter-count trend logged as observation only",
    )
