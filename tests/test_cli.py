import hashlib
import json
import multiprocessing
import os
import subprocess
import sys
import time
import zipfile

import pytest

from grnas import tensor_io
from grnas.cli import main, read_history_csv
from grnas.search import (
    DegenerateGenotypeError,
    Genotype,
    SearchSpaceConfig,
    TrainingDivergedError,
    TrainSchedule,
    genotype_param_count,
)


def write_config(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def sha(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


TINY_TASK = {
    "n_train": 48,
    "n_val": 48,
    "n_test": 48,
    "channels": 8,
    "length": 4,
    "seed": 3,
}
TINY_SPACE = {"channels": 8, "length": 4, "k_samples": 8, "lam": 0.5}
TINY_SCHED = {"epochs": 3, "batch_size": 8}
TINY_RETRAIN = {"epochs": 5, "batch_size": 16}


class TestConfigHandling:
    def test_unknown_key_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "c.json", {"trails": 100})
        assert main(["estimator-bench", "--config", cfg, "--out-dir", str(tmp_path)]) == 2
        assert "unknown keys" in capsys.readouterr().err

    def test_invalid_json_exits_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        assert main(["estimator-bench", "--config", str(bad), "--out-dir", str(tmp_path)]) == 2

    def test_missing_file_exits_2(self, tmp_path):
        assert main(["search", "--config", str(tmp_path / "absent.json"), "--out-dir", str(tmp_path)]) == 2

    def test_invalid_value_exits_2(self, tmp_path):
        cfg = write_config(tmp_path, "c.json", {"trials": 1})
        assert main(["estimator-bench", "--config", cfg, "--out-dir", str(tmp_path)]) == 2

    @pytest.mark.parametrize(
        "command, payload",
        [
            ("estimator-bench", {"objectives": []}),
            ("ablation", {"k_grid": []}),
        ],
    )
    def test_empty_grid_exits_2(self, tmp_path, capsys, command, payload):
        cfg = write_config(tmp_path, "c.json", payload)
        assert main([command, "--config", cfg, "--out-dir", str(tmp_path / "o")]) == 2
        assert "must not be empty" in capsys.readouterr().err

    def test_nested_unknown_key_exits_2(self, tmp_path):
        cfg = write_config(tmp_path, "c.json", {"task": {"n_trainn": 10}})
        assert main(["search", "--config", cfg, "--out-dir", str(tmp_path)]) == 2


class TestGenData:
    def test_writes_valid_files_with_manifest(self, tmp_path):
        cfg = write_config(tmp_path, "c.json", {"task": TINY_TASK, "prefix": "toy"})
        out = tmp_path / "out"
        assert main(["gen-data", "--config", cfg, "--out-dir", str(out)]) == 0
        arr = tensor_io.read_tensor(out / "toy_train_modality_a.grnt")
        assert arr.shape == (48, 8, 4)
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "gen-data"
        for fname, digest in manifest["outputs"].items():
            assert sha(out / fname) == digest

    def test_deterministic_bytes(self, tmp_path):
        cfg = write_config(tmp_path, "c.json", {"task": TINY_TASK})
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        main(["gen-data", "--config", cfg, "--out-dir", str(out1)])
        main(["gen-data", "--config", cfg, "--out-dir", str(out2)])
        name = "synthetic_test_modality_b.grnt"
        assert sha(out1 / name) == sha(out2 / name)

    def test_top_level_seed_refused(self, tmp_path, capsys):
        # the data's only seed is task.seed; a top-level one would be ignored
        cfg = write_config(tmp_path, "c.json", {"task": TINY_TASK, "seed": 7})
        assert main(["gen-data", "--config", cfg, "--out-dir", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "unknown keys ['seed']" in err
        assert not (tmp_path / "o").exists()

    def test_seed_flag_changes_data(self, tmp_path):
        cfg = write_config(tmp_path, "c.json", {"task": TINY_TASK})
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        assert main(["gen-data", "--config", cfg, "--out-dir", str(out1)]) == 0
        assert main(["gen-data", "--config", cfg, "--out-dir", str(out2), "--seed", "7"]) == 0
        name = "synthetic_train_modality_a.grnt"
        assert sha(out1 / name) != sha(out2 / name)
        manifest = json.loads((out2 / "manifest.json").read_text())
        assert manifest["seed"] == 7 and "seed" not in manifest["config"]


class TestEstimatorBench:
    CFG = {
        "lambdas": [0.5],
        "k_grid": [5, 20],
        "trials": 4000,
        "n_categories": 3,
        "objectives": ["linear"],
        "seed": 11,
    }

    def test_rows_and_checks(self, tmp_path):
        cfg = write_config(tmp_path, "c.json", self.CFG)
        out = tmp_path / "bench"
        assert main(["estimator-bench", "--config", cfg, "--out-dir", str(out)]) == 0
        lines = (out / "estimator_bench.csv").read_text().strip().split("\n")
        header = lines[0].split(",")
        assert header[:8] == ["estimator", "lambda", "K", "trials", "seed", "bias_sq", "variance", "mse"]
        assert len(lines) == 1 + 1 + 2  # header + stgs baseline + two grmc rows
        grmc_rows = [l for l in lines[1:] if l.startswith("grmc")]
        assert all(",true," in l for l in grmc_rows)  # ordering + mean checks pass

    def test_byte_for_byte_determinism(self, tmp_path):
        cfg = write_config(tmp_path, "c.json", self.CFG)
        out1, out2 = tmp_path / "b1", tmp_path / "b2"
        main(["estimator-bench", "--config", cfg, "--out-dir", str(out1)])
        main(["estimator-bench", "--config", cfg, "--out-dir", str(out2)])
        assert sha(out1 / "estimator_bench.csv") == sha(out2 / "estimator_bench.csv")

    def test_degenerate_trials_flagged_unreliable(self, tmp_path):
        cfg = write_config(tmp_path, "c.json", dict(self.CFG, trials=2))
        out = tmp_path / "b"
        assert main(["estimator-bench", "--config", cfg, "--out-dir", str(out)]) == 0
        lines = (out / "estimator_bench.csv").read_text().strip().split("\n")
        assert all(l.endswith(",false") for l in lines[1:])  # ci_reliable column

    def test_assertion_failure_exits_3(self, tmp_path, monkeypatch, capsys):
        import grnas.cli as cli_mod

        real = cli_mod.estimator_stats

        def rigged(obj, theta, config, trials, rng):
            stats = real(obj, theta, config, trials, rng)
            if config.kind == "grmc":
                stats.trace_variance = 1e9  # force the ordering check to fail
            return stats

        monkeypatch.setattr(cli_mod, "estimator_stats", rigged)
        cfg = write_config(tmp_path, "c.json", dict(self.CFG, k_grid=[5]))
        assert main(["estimator-bench", "--config", cfg, "--out-dir", str(tmp_path / "b3")]) == 3
        assert "variance ordering failed" in capsys.readouterr().err


@pytest.fixture(scope="module")
def search_run(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("cli_search")
    cfg = write_config(
        tmp_path,
        "c.json",
        {
            "task": TINY_TASK,
            "space": TINY_SPACE,
            "schedule": TINY_SCHED,
            "retrain": TINY_RETRAIN,
            "seed": 5,
        },
    )
    out = tmp_path / "run"
    code = main(["search", "--config", cfg, "--out-dir", str(out)])
    return code, cfg, out, tmp_path


class TestSearchCommand:
    def test_outputs_exist(self, search_run):
        code, _, out, _ = search_run
        assert code == 0
        for name in ("entropy.csv", "genotype.json", "search.ckpt", "manifest.json"):
            assert (out / name).exists(), name

    def test_genotype_round_trips(self, search_run):
        _, _, out, _ = search_run
        g = Genotype.from_json((out / "genotype.json").read_text())
        assert g.entropy_history_ref == "entropy.csv"
        assert len(g.cells) == 4

    def test_entropy_csv_round_trips(self, search_run):
        _, _, out, _ = search_run
        records = read_history_csv(out / "entropy.csv")
        assert len(records) == 3
        rewritten = [r.as_row() for r in records]
        raw = (out / "entropy.csv").read_text().strip().split("\n")[1:]
        for row, line in zip(rewritten, raw):
            assert [repr(v) for v in row[1:]] == line.split(",")[1:]

    def test_manifest_digests_match(self, search_run):
        _, _, out, _ = search_run
        manifest = json.loads((out / "manifest.json").read_text())
        for fname, digest in manifest["outputs"].items():
            assert sha(out / fname) == digest

    def test_repeat_run_byte_identical(self, search_run):
        _, cfg, out, tmp_path = search_run
        out2 = tmp_path / "run2"
        assert main(["search", "--config", cfg, "--out-dir", str(out2)]) == 0
        assert sha(out / "genotype.json") == sha(out2 / "genotype.json")
        assert sha(out / "entropy.csv") == sha(out2 / "entropy.csv")

    def test_eval_command_reports(self, search_run):
        _, cfg, out, tmp_path = search_run
        out_eval = tmp_path / "eval"
        code = main(
            [
                "eval",
                "--config", cfg.replace("c.json", "e.json"),
                "--genotype", str(out / "genotype.json"),
                "--out-dir", str(out_eval),
            ]
        )
        assert code == 2  # eval config does not accept schedule section

    def test_eval_with_proper_config(self, search_run, tmp_path_factory):
        _, _, out, tmp_path = search_run
        cfg = write_config(
            tmp_path,
            "eval.json",
            {"task": TINY_TASK, "space": TINY_SPACE, "retrain": TINY_RETRAIN, "seed": 5},
        )
        out_eval = tmp_path / "eval2"
        code = main(
            ["eval", "--config", cfg, "--genotype", str(out / "genotype.json"), "--out-dir", str(out_eval)]
        )
        assert code == 0
        metrics = json.loads((out_eval / "metrics.json").read_text())
        assert 0.0 <= metrics["auc"] <= 1.0
        g = Genotype.from_json((out / "genotype.json").read_text())
        space = SearchSpaceConfig(**TINY_SPACE)
        assert metrics["param_count"] == genotype_param_count(g, space)
        assert metrics["analytic_param_count"] == metrics["param_count"]
        conf = metrics["confusion"]
        total = conf["tp"] + conf["fp"] + conf["tn"] + conf["fn"]
        assert total == TINY_TASK["n_test"]

    def test_eval_refuses_genotype_from_another_space(self, search_run, capsys):
        _, _, out, tmp_path = search_run
        cfg = write_config(
            tmp_path,
            "eval3.json",
            {"task": TINY_TASK, "space": TINY_SPACE, "retrain": TINY_RETRAIN, "seed": 5},
        )
        space3 = SearchSpaceConfig(**TINY_SPACE, n_cells=3)
        names = space3.node_names
        g = Genotype(
            first_level_edges=tuple((names[s], names[d], True) for s, d in space3.first_level_edges()),
            cells=tuple(
                {"cell": c, "node": n, "op": "linear_glu", "inputs": ["in", "in"], "tie": False}
                for c in range(3)
                for n in range(2)
            ),
            lam=0.5, k_samples=8, seed=5, epoch=3,
        )
        gpath = tmp_path / "three_cells.json"
        gpath.write_text(g.to_json())
        out_eval = tmp_path / "eval3"
        code = main(["eval", "--config", cfg, "--genotype", str(gpath), "--out-dir", str(out_eval)])
        assert code == 2
        err = capsys.readouterr().err
        assert str(gpath) in err and "Cell3" in err
        assert not (out_eval / "metrics.json").exists()

    def test_resume_matches_uninterrupted(self, search_run):
        _, _, out, tmp_path = search_run
        short_cfg = write_config(
            tmp_path,
            "short.json",
            {
                "task": TINY_TASK,
                "space": TINY_SPACE,
                "schedule": dict(TINY_SCHED, epochs=1),
                "retrain": TINY_RETRAIN,
                "seed": 5,
            },
        )
        full_cfg = write_config(
            tmp_path,
            "full.json",
            {
                "task": TINY_TASK,
                "space": TINY_SPACE,
                "schedule": TINY_SCHED,
                "retrain": TINY_RETRAIN,
                "seed": 5,
            },
        )
        out_short = tmp_path / "short"
        out_resumed = tmp_path / "resumed"
        assert main(["search", "--config", short_cfg, "--out-dir", str(out_short)]) == 0
        assert (
            main(
                [
                    "search",
                    "--config", full_cfg,
                    "--out-dir", str(out_resumed),
                    "--resume", str(out_short / "search.ckpt"),
                ]
            )
            == 0
        )
        assert sha(out_resumed / "genotype.json") == sha(out / "genotype.json")
        assert sha(out_resumed / "entropy.csv") == sha(out / "entropy.csv")

    @pytest.mark.parametrize(
        "section, field, was, now",
        [("space", "lam", 0.5, 0.1), ("schedule", "weight_lr", TrainSchedule().weight_lr, 0.05)],
    )
    def test_resume_refuses_changed_config(self, search_run, capsys, section, field, was, now):
        _, _, out, tmp_path = search_run
        payload = {
            "task": TINY_TASK,
            "space": TINY_SPACE,
            "schedule": TINY_SCHED,
            "retrain": TINY_RETRAIN,
            "seed": 5,
        }
        payload[section] = dict(payload[section], **{field: now})
        cfg = write_config(tmp_path, f"drift_{field}.json", payload)
        ckpt = out / "search.ckpt"
        out_resumed = tmp_path / f"drift_{field}"
        code = main(["search", "--config", cfg, "--out-dir", str(out_resumed), "--resume", str(ckpt)])
        assert code == 2
        err = capsys.readouterr().err
        assert str(ckpt) in err
        assert f"{section}.{field} is {was!r} in the checkpoint but {now!r} in this run" in err
        assert list(out_resumed.iterdir()) == []

    UNREADABLE_GENOTYPES = {
        "missing": "No such file",
        "invalid_json": "Expecting",
        "no_first_level_edges": "missing key 'first_level_edges'",
        "version_2": "unsupported genotype version 2",
    }

    @pytest.mark.parametrize("case", list(UNREADABLE_GENOTYPES))
    def test_eval_refuses_unreadable_genotype(self, search_run, capsys, case):
        _, _, out, tmp_path = search_run
        cfg = write_config(
            tmp_path,
            "eval_bad.json",
            {"task": TINY_TASK, "space": TINY_SPACE, "retrain": TINY_RETRAIN, "seed": 5},
        )
        payload = json.loads((out / "genotype.json").read_text())
        gpath = tmp_path / f"genotype_{case}.json"
        if case == "invalid_json":
            gpath.write_text("{not json")
        elif case == "no_first_level_edges":
            del payload["first_level_edges"]
            gpath.write_text(json.dumps(payload))
        elif case == "version_2":
            gpath.write_text(json.dumps(dict(payload, version=2)))
        out_eval = tmp_path / f"eval_{case}"
        code = main(["eval", "--config", cfg, "--genotype", str(gpath), "--out-dir", str(out_eval)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: genotype {gpath} ") and err.count("\n") == 1
        assert self.UNREADABLE_GENOTYPES[case] in err
        assert not (out_eval / "metrics.json").exists()

    @pytest.mark.parametrize("case", ["missing", "not_a_zip", "no_manifest"])
    def test_resume_refuses_unreadable_checkpoint(self, search_run, capsys, case):
        _, cfg, _, tmp_path = search_run
        ckpt = tmp_path / f"{case}.ckpt"
        if case == "not_a_zip":
            ckpt.write_bytes(b"not a zip archive")
        elif case == "no_manifest":
            with zipfile.ZipFile(ckpt, "w") as zf:
                zf.writestr("alpha.f64le", b"")
        out_resumed = tmp_path / f"unreadable_{case}"
        code = main(["search", "--config", cfg, "--out-dir", str(out_resumed), "--resume", str(ckpt)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: checkpoint {ckpt} cannot resume this run: it cannot be read")
        assert err.count("\n") == 1
        assert list(out_resumed.iterdir()) == []


def _edit_manifest(edit):
    def damage(entries):
        manifest = json.loads(entries["manifest.json"])
        edit(manifest)
        entries["manifest.json"] = json.dumps(manifest).encode()

    return damage


def _cut(n):
    return lambda entries: entries.update({"alpha.f64le": entries["alpha.f64le"][:-n]})


def _one_value(name):
    """The checkpoint array ``name`` cut to its first value, listed in the manifest as shape [1]."""

    def damage(entries):
        _edit_manifest(lambda m: m["tensors"].__setitem__(name, [1]))(entries)
        entries[f"{name}.f64le"] = entries[f"{name}.f64le"][:8]

    return damage


# name: (damage done to the checkpoint's {entry: bytes}, the error the refusal names)
CHECKPOINT_DAMAGE = {
    "alpha_short_by_3_bytes": (_cut(3), "ValueError: buffer size must be a multiple of element size"),
    "alpha_short_by_8_bytes": (_cut(8), "ValueError: cannot reshape array of size 17 into shape (9,2)"),
    "alpha_one_value": (_one_value("alpha"), "ValueError: array 'alpha' has shape [1], the state's has [9, 2]"),
    "arch_moment_one_value": (
        _one_value("a_opt.v.gamma"), "ValueError: array 'a_opt.v.gamma' has shape [1], the state's has [4, 5]",
    ),
    "no_optimizer_steps": (_edit_manifest(lambda m: m.pop("optimizer_steps")), "KeyError: 'optimizer_steps'"),
    "no_alpha_in_tensors": (_edit_manifest(lambda m: m["tensors"].pop("alpha")), "KeyError: 'alpha'"),
    "short_history_row": (
        _edit_manifest(lambda m: m.update(history=[[1, 2]])),
        "TypeError: EpochRecord.__init__() missing 3 required positional arguments",
    ),
    "history_value_not_a_number": (
        _edit_manifest(lambda m: m["history"].__setitem__(0, [1, 0.5, 0.5, "x", 0.1])),
        "ValueError: history row [1, 0.5, 0.5, 'x', 0.1] is not an int epoch and four real numbers",
    ),
    "history_epoch_a_bool": (
        _edit_manifest(lambda m: m["history"].__setitem__(0, [True, 0.5, 0.5, 0.5, 0.1])),
        "ValueError: history row [True, 0.5, 0.5, 0.5, 0.1] is not an int epoch",
    ),
    "rng_state_without_state": (_edit_manifest(lambda m: m["rng_state"].pop("state")), "KeyError: 'state'"),
}

RUN = {"task": TINY_TASK, "space": TINY_SPACE, "retrain": TINY_RETRAIN, "seed": 5}
SEARCH = dict(RUN, schedule=TINY_SCHED)
CONFIGS = {"search": SEARCH, "eval": RUN, "ablation": dict(SEARCH, lambdas=[0.5], k_grid=[4])}
LONG_TASK = dict(TINY_TASK, length=8)
CHANNELS = "task.channels is 8 but space.channels is 16"
LENGTH = "task.length is 8 but space.length is 4"

# command, config, flags, what the message names, checkpoint damage
REFUSALS = [
    *(
        pytest.param("search", None, [], f"it cannot be read ({error}", damage, id=f"resume-{damage}")
        for damage, (_, error) in CHECKPOINT_DAMAGE.items()
    ),
    *(
        pytest.param(command, dict(payload, space={}), [], CHANNELS, None, id=f"{command}-channels")
        for command, payload in CONFIGS.items()
    ),
    *(
        pytest.param(command, dict(payload, task=LONG_TASK), [], LENGTH, None, id=f"{command}-length")
        for command, payload in CONFIGS.items()
    ),
    *(
        pytest.param(command, payload, ["--seed", "-1"], "seed must be >= 0, got -1", None, id=f"{command}-seed")
        for command, payload in [*CONFIGS.items(), ("gen-data", {"task": TINY_TASK}), ("estimator-bench", {})]
    ),
    *(
        pytest.param(command, dict(payload, task=dict(TINY_TASK, seed=-3)), [], "task: seed must be >= 0, got -3",
                     None, id=f"{command}-task-seed")
        for command, payload in [("search", SEARCH), ("gen-data", {})]
    ),
    pytest.param("search", dict(SEARCH, space=dict(TINY_SPACE, tap_seed=-1)), [],
                 "space: tap_seed must be >= 0, got -1", None, id="search-tap-seed"),
    pytest.param("search", SEARCH, ["--checkpoint-every", "-2"], "--checkpoint-every must be >= 0, got -2",
                 None, id="search-checkpoint-every"),
]


@pytest.mark.parametrize("command, payload, flags, named, damage", REFUSALS)
def test_refused_with_exit_2(search_run, tmp_path, capsys, command, payload, flags, named, damage):
    """Exit 2 with one ``config error:`` line naming the file or field, and no output."""
    if damage is not None:
        _, cfg, out, _ = search_run
        with zipfile.ZipFile(out / "search.ckpt") as zf:
            entries = {name: zf.read(name) for name in zf.namelist()}
        CHECKPOINT_DAMAGE[damage][0](entries)
        ckpt = tmp_path / "damaged.ckpt"
        with zipfile.ZipFile(ckpt, "w") as zf:
            for name, raw in entries.items():
                zf.writestr(name, raw)
        flags = ["--resume", str(ckpt)]
        named = f"config error: checkpoint {ckpt} cannot resume this run: {named}"
    else:
        cfg = write_config(tmp_path, "c.json", payload)
    if command == "eval":
        flags = [*flags, "--genotype", str(search_run[2] / "genotype.json")]
    out_dir = tmp_path / "out"
    assert main([command, "--config", cfg, "--out-dir", str(out_dir), *flags]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1, err
    assert named in err
    assert not out_dir.exists() or list(out_dir.iterdir()) == []


@pytest.mark.parametrize(
    "key, value",
    [("K", "8"), ("lambda", True), ("cells", [1]), ("first_level_edges", [["in", "Cell0"]])],
)
def test_genotype_names_a_mistyped_key(key, value):
    space = SearchSpaceConfig(**TINY_SPACE)
    names = space.node_names
    g = Genotype(
        first_level_edges=tuple((names[s], names[d], True) for s, d in space.first_level_edges()),
        cells=({"cell": 0, "node": 0, "op": "sum", "inputs": ["in", "in"], "tie": False},),
        lam=0.5, k_samples=8, seed=5, epoch=3,
    )
    assert Genotype.from_json_dict(g.to_json_dict()) == g
    with pytest.raises(ValueError, match=f"key '{key}' is mistyped"):
        Genotype.from_json_dict(dict(g.to_json_dict(), **{key: value}))
    payload = g.to_json_dict()
    del payload[key]
    with pytest.raises(ValueError, match=f"missing key '{key}'"):
        Genotype.from_json_dict(payload)


class TestAblationCommand:
    def test_grid_outputs(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "c.json",
            {
                "task": TINY_TASK,
                "space": TINY_SPACE,
                "schedule": {"epochs": 2, "batch_size": 8},
                "retrain": {"epochs": 3, "batch_size": 16},
                "lambdas": [0.5, 1.0],
                "k_grid": [4, 8],
                "seed": 2,
            },
        )
        out = tmp_path / "abl"
        assert main(["ablation", "--config", cfg, "--out-dir", str(out)]) == 0
        lines = (out / "ablation.csv").read_text().strip().split("\n")
        assert len(lines) == 1 + 4  # header + 2x2 grid
        for line in lines[1:]:
            fname = line.split(",")[-1]
            g = Genotype.from_json((out / fname).read_text())
            assert g.cells  # parses and is non-empty
        observations = json.loads((out / "observations.json").read_text())
        assert len(observations) == 2
        assert all("param_count_trend" in o for o in observations)

    def test_single_cell_grid(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "c.json",
            {
                "task": TINY_TASK,
                "space": TINY_SPACE,
                "schedule": {"epochs": 1, "batch_size": 8},
                "retrain": {"epochs": 2, "batch_size": 16},
                "lambdas": [0.5],
                "k_grid": [4],
                "seed": 2,
            },
        )
        out = tmp_path / "abl1"
        assert main(["ablation", "--config", cfg, "--out-dir", str(out)]) == 0
        lines = (out / "ablation.csv").read_text().strip().split("\n")
        assert len(lines) == 2


@pytest.mark.parametrize(
    "command, target, error",
    [
        ("search", "run_search", DegenerateGenotypeError("no kept input edge into Cell2")),
        ("eval", "retrain_and_eval", TrainingDivergedError("retrain loss is nan")),
        ("ablation", "run_search", TrainingDivergedError("search loss is inf")),
    ],
)
def test_failed_run_exits_4(command, target, error, tmp_path, monkeypatch, capsys):
    import grnas.cli as cli_mod

    def fail(*args, **kwargs):
        raise error

    monkeypatch.setattr(cli_mod, target, fail)
    payload = {"task": TINY_TASK, "space": TINY_SPACE, "retrain": TINY_RETRAIN, "seed": 5}
    extra = []
    if command == "eval":
        space = SearchSpaceConfig(**TINY_SPACE)
        names = space.node_names
        g = Genotype(
            first_level_edges=tuple((names[s], names[d], True) for s, d in space.first_level_edges()),
            cells=tuple(
                {"cell": c, "node": n, "op": "sum", "inputs": ["in", "in"], "tie": False}
                for c in range(space.n_cells)
                for n in range(space.nodes_per_cell)
            ),
            lam=0.5, k_samples=8, seed=5, epoch=3,
        )
        gpath = tmp_path / "g.json"
        gpath.write_text(g.to_json())
        extra = ["--genotype", str(gpath)]
    else:
        payload["schedule"] = TINY_SCHED
    if command == "ablation":
        payload.update(lambdas=[0.5], k_grid=[4])
    cfg = write_config(tmp_path, "c.json", payload)
    assert main([command, "--config", cfg, "--out-dir", str(tmp_path / "out"), *extra]) == 4
    err = capsys.readouterr().err
    assert err == f"search or training failed: {error}\n"


@pytest.mark.parametrize("command", ["estimator-bench", "search", "eval", "ablation", "gen-data"])
def test_threads_refused(command, tmp_path, capsys):
    required = ["--genotype", "g.json"] if command == "eval" else []
    with pytest.raises(SystemExit) as exc:
        main([command, "--threads", "2", "--config", str(tmp_path / "absent.json"), *required])
    assert exc.value.code == 2
    assert "--threads" in capsys.readouterr().err


BENCH_2_UNITS = dict(TestEstimatorBench.CFG, objectives=["linear", "quadratic"])
ABLATION_2X2 = {
    "task": TINY_TASK,
    "space": TINY_SPACE,
    "schedule": {"epochs": 2, "batch_size": 8},
    "retrain": {"epochs": 3, "batch_size": 16},
    "lambdas": [0.5, 1.0],
    "k_grid": [4, 8],
    "seed": 2,
}


def output_digests(out):
    return {p.name: sha(p) for p in sorted(out.iterdir()) if p.name != "manifest.json"}


def test_pool_size_does_not_change_outputs(tmp_path, monkeypatch):
    bench = write_config(tmp_path, "bench.json", BENCH_2_UNITS)
    grid = write_config(tmp_path, "grid.json", ABLATION_2X2)
    digests = {}
    for cores in (1, 4):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid, n=cores: set(range(n)))
        for command, cfg in (("estimator-bench", bench), ("ablation", grid)):
            out = tmp_path / f"{command}_{cores}"
            assert main([command, "--config", cfg, "--out-dir", str(out)]) == 0
            digests[command, cores] = output_digests(out)
    assert len(digests["ablation", 1]) == 2 + 4  # csv, observations, 4 genotypes
    for command in ("estimator-bench", "ablation"):
        assert digests[command, 1] == digests[command, 4]


def rig_bench_variance(monkeypatch):
    import grnas.cli as cli_mod

    real = cli_mod.estimator_stats

    def rigged(obj, theta, config, trials, rng):
        stats = real(obj, theta, config, trials, rng)
        if config.kind == "grmc":
            stats.trace_variance = 1e9
        return stats

    monkeypatch.setattr(cli_mod, "estimator_stats", rigged)


def rig_search_failure(monkeypatch):
    import grnas.cli as cli_mod

    def fail(*args, **kwargs):
        raise TrainingDivergedError("search loss is inf")

    monkeypatch.setattr(cli_mod, "run_search", fail)


@pytest.mark.parametrize(
    "command, payload, rig, code",
    [
        ("estimator-bench", BENCH_2_UNITS, None, 0),
        ("estimator-bench", BENCH_2_UNITS, rig_bench_variance, 3),
        ("ablation", ABLATION_2X2, None, 0),
        ("ablation", ABLATION_2X2, rig_search_failure, 4),
    ],
    ids=["bench-ok", "bench-exit3", "ablation-ok", "ablation-exit4"],
)
def test_no_worker_left_behind(command, payload, rig, code, tmp_path, monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    if rig is not None:
        rig(monkeypatch)
    cfg = write_config(tmp_path, "c.json", payload)
    assert main([command, "--config", cfg, "--out-dir", str(tmp_path / "out")]) == code
    assert multiprocessing.active_children() == []


def test_failed_unit_cancels_queued_units(tmp_path, monkeypatch):
    import grnas.cli as cli_mod

    started = tmp_path / "started"
    started.mkdir()

    def slow_or_failing(train, val, space, schedule, seed):
        (started / f"lam{space.lam}").touch()
        if space.lam != 0.1:
            time.sleep(0.5)
        raise TrainingDivergedError("search loss is inf")

    monkeypatch.setattr(cli_mod, "run_search", slow_or_failing)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    lambdas = [round(0.1 * i, 1) for i in range(1, 11)]
    cfg = write_config(tmp_path, "c.json", dict(ABLATION_2X2, lambdas=lambdas, k_grid=[4]))
    assert main(["ablation", "--config", cfg, "--out-dir", str(tmp_path / "out")]) == 4
    # one worker: the first unit fails at once; the units already handed to the
    # worker's call queue still run, the queued rest are cancelled
    assert len(list(started.iterdir())) <= len(lambdas) // 2
    assert multiprocessing.active_children() == []


def test_console_entry_point(tmp_path):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"task": TINY_TASK}))
    proc = subprocess.run(
        [sys.executable, "-m", "grnas.cli", "gen-data", "--config", str(cfg), "--out-dir", str(tmp_path / "o")],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert "gen-data" in proc.stdout


def test_grid_commands_as_module(tmp_path):
    # under -m the unit functions pickle as __main__.run_unit / __main__.run_cell
    for command, payload, csv, rows in (
        ("estimator-bench", BENCH_2_UNITS, "estimator_bench.csv", 2 * 3),
        ("ablation", ABLATION_2X2, "ablation.csv", 4),
    ):
        cfg = write_config(tmp_path, f"{command}.json", payload)
        out = tmp_path / command
        proc = subprocess.run(
            [sys.executable, "-m", "grnas.cli", command, "--config", cfg, "--out-dir", str(out)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert len((out / csv).read_text().strip().split("\n")) == 1 + rows
