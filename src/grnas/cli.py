"""Command-line harness: estimator benchmarks, search, eval, ablation, data.

Every command is reproducible: (config, seed) fully determines the emitted
artifacts, and a RunManifest with content digests accompanies each run.
Exit codes: 0 success; 2 config error, including a genotype that does not
fit the search space and a checkpoint that cannot resume the configured
run; 3 statistical-assertion failure in bench mode; 4 search or training
failed (a derived architecture left a cell without inputs, or a loss went
non-finite).
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import hashlib
import json
import multiprocessing
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor, as_completed

import numpy as np

from . import data as data_mod
from .configs import (
    AblationConfig,
    ConfigError,
    EstimatorBenchConfig,
    EvalConfig,
    GenDataConfig,
    SearchRunConfig,
    config_snapshot,
    load_config,
)
from .estimators import (
    EstimatorConfig,
    LinearObjective,
    QuadraticObjective,
    estimator_stats,
    means_within_pooled_se,
)
from .search import (
    CheckpointMismatchError,
    DegenerateGenotypeError,
    Genotype,
    TrainingDivergedError,
    genotype_param_count,
    retrain_and_eval,
    run_search,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_ASSERTION = 3
EXIT_FAILED = 4


# ---------------------------------------------------------------------------
# manifest and file helpers


def _sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


class RunManifest:
    def __init__(self, command: str, config, seed: int):
        self.payload = {
            "command": command,
            "config": config_snapshot(config),
            "seed": seed,
            "started_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
            "outputs": {},
        }

    def add_output(self, path) -> None:
        self.payload["outputs"][os.path.basename(str(path))] = _sha256(path)

    def write(self, out_dir) -> str:
        self.payload["finished_at"] = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
        path = os.path.join(out_dir, "manifest.json")
        with open(path, "w") as fh:
            json.dump(self.payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
        return path


def _load_config(cls, args):
    """The command's config file, with ``--seed`` overriding its seed."""
    return load_config(cls, args.config, {"seed": args.seed} if args.seed is not None else None)


def _write_csv(path, header, rows) -> None:
    # repr() formatting: shortest round-trip floats, byte-stable across runs
    def fmt(v):
        if isinstance(v, (bool, np.bool_)):
            return "true" if v else "false"
        if isinstance(v, float):
            return repr(v)
        if isinstance(v, (np.floating, np.integer)):
            return repr(v.item())
        return str(v)

    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(fmt(v) for v in row) + "\n")


def _map_units(fn, seed: int, units: list) -> list:
    """[fn(unit, unit_seed) for each unit], in index order, on one process pool.

    unit_seed depends only on (seed, index), so results do not depend on the
    pool size. The first unit to raise cancels the queued ones and propagates.
    """
    workers = min(len(units), len(os.sched_getaffinity(0)))
    # fork: the workers inherit the loaded modules, patched attributes
    # included, instead of re-importing them; the command runs no thread of
    # its own when the pool forks
    pool = ProcessPoolExecutor(max_workers=workers, mp_context=multiprocessing.get_context("fork"))
    try:
        futures = [
            pool.submit(fn, unit, int(np.random.default_rng([seed, index]).integers(2**31)))
            for index, unit in enumerate(units)
        ]
        for future in as_completed(futures):
            future.result()  # the first unit to fail raises here, not after the others
        return [future.result() for future in futures]
    finally:
        pool.shutdown(cancel_futures=True)


# ---------------------------------------------------------------------------
# estimator-bench


def _bench_objective(kind: str, n: int):
    rng = np.random.default_rng(2024)
    if kind == "linear":
        c = np.zeros(n)
        c[0] = 1.0
        return LinearObjective(c)
    a = rng.normal(size=(n, n))
    return QuadraticObjective(a, rng.normal(size=n))


def run_unit(cfg: EstimatorBenchConfig, unit, unit_seed: int):
    """One estimator-bench unit: STGS and GRMC-K at every K for one (objective, lambda)."""
    obj_name, lam = unit
    obj = _bench_objective(obj_name, cfg.n_categories)
    theta = np.linspace(-0.5, 0.5, cfg.n_categories)
    stgs = estimator_stats(
        obj, theta, EstimatorConfig("stgs", lam), cfg.trials, np.random.default_rng(unit_seed)
    )
    rows = [
        (
            "stgs", lam, 1, cfg.trials, unit_seed, stgs.bias_sq, stgs.trace_variance,
            stgs.mse, obj_name, "", stgs.ci_reliable,
        )
    ]
    failures = []
    for k in cfg.k_grid:
        grmc = estimator_stats(
            obj,
            theta,
            EstimatorConfig("grmc", lam, k),
            cfg.trials,
            np.random.default_rng(unit_seed),  # shared seed: common forward outcomes
        )
        ordering_ok = grmc.trace_variance <= stgs.trace_variance
        mean_ok = means_within_pooled_se(stgs, grmc)
        if not ordering_ok:
            failures.append(f"variance ordering failed: {obj_name} lam={lam} K={k}")
        if not mean_ok:
            failures.append(f"mean equality failed: {obj_name} lam={lam} K={k}")
        rows.append(
            (
                "grmc", lam, k, cfg.trials, unit_seed, grmc.bias_sq, grmc.trace_variance,
                grmc.mse, obj_name, ordering_ok and mean_ok, grmc.ci_reliable,
            )
        )
    return rows, failures


def cmd_estimator_bench(args) -> int:
    cfg = _load_config(EstimatorBenchConfig, args)
    os.makedirs(args.out_dir, exist_ok=True)
    manifest = RunManifest("estimator-bench", cfg, cfg.seed)
    units = [(obj_name, lam) for obj_name in cfg.objectives for lam in cfg.lambdas]
    results = _map_units(functools.partial(run_unit, cfg), cfg.seed, units)

    all_rows = [row for rows, _ in results for row in rows]
    all_failures = [f for _, fails in results for f in fails]
    csv_path = os.path.join(args.out_dir, "estimator_bench.csv")
    _write_csv(
        csv_path,
        [
            "estimator", "lambda", "K", "trials", "seed", "bias_sq", "variance", "mse",
            "objective", "checks_pass", "ci_reliable",
        ],
        all_rows,
    )
    manifest.add_output(csv_path)
    manifest.write(args.out_dir)
    for failure in all_failures:
        print(f"ASSERTION FAILED: {failure}", file=sys.stderr)
    if all_failures:
        return EXIT_ASSERTION
    print(f"estimator-bench: {len(all_rows)} rows -> {csv_path}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# search


def _write_entropy_csv(path, history) -> None:
    _write_csv(
        path,
        ["epoch", "E_alpha", "E_gamma", "train_loss", "val_loss"],
        [r.as_row() for r in history],
    )


def read_history_csv(path):
    """Parse an entropy/loss history CSV back into EpochRecord rows."""
    from .search import EpochRecord

    records = []
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        if header != ["epoch", "E_alpha", "E_gamma", "train_loss", "val_loss"]:
            raise ValueError(f"{path}: unexpected header {header}")
        for line in fh:
            line = line.strip()
            if not line:
                continue
            epoch, *rest = line.split(",")
            records.append(EpochRecord(int(epoch), *(float(v) for v in rest)))
    return records


def cmd_search(args) -> int:
    cfg = _load_config(SearchRunConfig, args)
    if args.checkpoint_every < 0:
        raise ConfigError(f"--checkpoint-every must be >= 0, got {args.checkpoint_every}")
    os.makedirs(args.out_dir, exist_ok=True)
    manifest = RunManifest("search", cfg, cfg.seed)
    splits = data_mod.gen_synthetic_bimodal(cfg.task)
    ckpt_path = os.path.join(args.out_dir, "search.ckpt")
    try:
        result = run_search(
            splits["train"],
            splits["val"],
            cfg.space,
            cfg.schedule,
            cfg.seed,
            checkpoint_path=ckpt_path,
            checkpoint_every=args.checkpoint_every,
            resume_from=args.resume,
        )
    except CheckpointMismatchError as err:
        raise ConfigError(f"checkpoint {args.resume} cannot resume this run: {err}") from err
    entropy_csv = os.path.join(args.out_dir, "entropy.csv")
    _write_entropy_csv(entropy_csv, result.history)
    genotype = dataclasses.replace(result.genotype, entropy_history_ref="entropy.csv")
    genotype_path = os.path.join(args.out_dir, "genotype.json")
    with open(genotype_path, "w") as fh:
        fh.write(genotype.to_json())
    for path in (entropy_csv, genotype_path, ckpt_path):
        manifest.add_output(path)
    manifest.write(args.out_dir)
    print(
        f"search: stopped at epoch {result.stopped_epoch}"
        f" ({'entropy-stable' if result.stopped_early else 'epoch cap'}) -> {genotype_path}"
    )
    return EXIT_OK


# ---------------------------------------------------------------------------
# eval


def cmd_eval(args) -> int:
    cfg = _load_config(EvalConfig, args)
    os.makedirs(args.out_dir, exist_ok=True)
    try:
        with open(args.genotype) as fh:
            genotype = Genotype.from_json(fh.read())
    except (OSError, ValueError) as err:
        raise ConfigError(f"genotype {args.genotype} cannot be read: {err}") from err
    try:
        genotype.check_fits(cfg.space)
    except ValueError as err:
        raise ConfigError(f"genotype {args.genotype} does not fit the search space: {err}") from err
    manifest = RunManifest("eval", cfg, cfg.seed)
    splits = data_mod.gen_synthetic_bimodal(cfg.task)
    if cfg.shuffle_labels or args.shuffle_labels:
        splits = data_mod.shuffle_all_labels(splits, np.random.default_rng(cfg.seed))
    report = retrain_and_eval(
        genotype, splits, cfg.retrain, np.random.default_rng(cfg.seed), space=cfg.space
    )
    payload = report.to_dict()
    payload["genotype_file"] = os.path.basename(args.genotype)
    payload["analytic_param_count"] = genotype_param_count(genotype, cfg.space)
    metrics_path = os.path.join(args.out_dir, "metrics.json")
    with open(metrics_path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    manifest.add_output(metrics_path)
    manifest.write(args.out_dir)
    print(f"eval: AUC={report.auc:.4f} ACC={report.acc:.4f} params={report.param_count}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# ablation


def run_cell(cfg: AblationConfig, splits, cell, cell_seed: int):
    """One ablation cell: search at (lambda, K), then retrain the derived genotype.

    Returns only what the outputs read: genotype, stopped epoch, MetricsReport.
    """
    lam, k = cell
    space = dataclasses.replace(cfg.space, lam=lam, k_samples=k)
    result = run_search(splits["train"], splits["val"], space, cfg.schedule, cell_seed)
    report = retrain_and_eval(
        result.genotype, splits, cfg.retrain, np.random.default_rng(cell_seed), space=space
    )
    return result.genotype, result.stopped_epoch, report


def cmd_ablation(args) -> int:
    cfg = _load_config(AblationConfig, args)
    os.makedirs(args.out_dir, exist_ok=True)
    manifest = RunManifest("ablation", cfg, cfg.seed)
    splits = data_mod.gen_synthetic_bimodal(cfg.task)
    grid = [(lam, k) for lam in cfg.lambdas for k in cfg.k_grid]
    outcomes = _map_units(functools.partial(run_cell, cfg, splits), cfg.seed, grid)

    rows = []
    genotype_files = []
    for (lam, k), (genotype, stopped_epoch, report) in zip(grid, outcomes):
        gpath = os.path.join(args.out_dir, f"genotype_lam{lam}_K{k}.json")
        with open(gpath, "w") as fh:
            fh.write(genotype.to_json())
        genotype_files.append(gpath)
        rows.append(
            (
                lam, k, report.auc, report.acc, report.param_count,
                stopped_epoch, os.path.basename(gpath),
            )
        )
    csv_path = os.path.join(args.out_dir, "ablation.csv")
    _write_csv(
        csv_path,
        ["lambda", "K", "auc", "acc", "param_count", "stopped_epoch", "genotype_file"],
        rows,
    )

    # report-only structural echo: parameter-count trend within each lambda row
    observations = []
    for lam in cfg.lambdas:
        counts = [r[4] for r in rows if r[0] == lam]
        trend = "non-increasing" if all(b <= a for a, b in zip(counts, counts[1:])) else "mixed"
        observations.append(
            {
                "lambda": lam,
                "param_counts_by_K": dict(zip([str(k) for k in cfg.k_grid], counts)),
                "param_count_trend": trend,
                "note": "reference pattern decreases with K; observation only, not asserted",
            }
        )
    obs_path = os.path.join(args.out_dir, "observations.json")
    with open(obs_path, "w") as fh:
        json.dump(observations, fh, indent=2, sort_keys=True)
        fh.write("\n")

    for path in [csv_path, obs_path] + genotype_files:
        manifest.add_output(path)
    manifest.write(args.out_dir)
    print(f"ablation: {len(rows)} grid cells -> {csv_path}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# gen-data


def cmd_gen_data(args) -> int:
    cfg = load_config(GenDataConfig, args.config)
    try:
        task = cfg.task if args.seed is None else dataclasses.replace(cfg.task, seed=args.seed)
    except ValueError as err:
        raise ConfigError(f"--seed: {err}") from err
    os.makedirs(args.out_dir, exist_ok=True)
    manifest = RunManifest("gen-data", cfg, task.seed)
    splits = data_mod.gen_synthetic_bimodal(task)
    for name, split in splits.items():
        paths = data_mod.write_feature_dataset(args.out_dir, split, prefix=f"{cfg.prefix}_{name}")
        for path in paths.values():
            manifest.add_output(path)
    manifest.write(args.out_dir)
    print(f"gen-data: wrote {len(splits) * 3} files to {args.out_dir}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="grnas",
        description="Gumbel-based gradient estimator benchmarks and bimodal fusion architecture search",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", default=None, help="JSON config file (defaults apply if omitted)")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--out-dir", default=".", help="output directory")

    p = sub.add_parser("estimator-bench", help="variance/MSE benchmark over the lambda x K grid")
    common(p)
    p.set_defaults(func=cmd_estimator_bench)

    p = sub.add_parser("search", help="run the bilevel architecture search")
    common(p)
    p.add_argument("--resume", default=None, help="checkpoint file to resume from")
    p.add_argument("--checkpoint-every", type=int, default=0, help="epochs between checkpoints")
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("eval", help="retrain a derived genotype and report metrics")
    common(p)
    p.add_argument("--genotype", required=True, help="genotype JSON file")
    p.add_argument("--shuffle-labels", action="store_true", help="chance-level control")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("ablation", help="search+eval over the lambda x K grid")
    common(p)
    p.set_defaults(func=cmd_ablation)

    p = sub.add_parser("gen-data", help="write synthetic bimodal feature files")
    common(p)
    p.set_defaults(func=cmd_gen_data)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except (DegenerateGenotypeError, TrainingDivergedError) as err:
        print(f"search or training failed: {err}", file=sys.stderr)
        return EXIT_FAILED


if __name__ == "__main__":
    sys.exit(main())
