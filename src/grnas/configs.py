"""Strict JSON configuration loading.

Every command takes a JSON config with full defaulting; unknown keys are
errors (silent typos in an ablation grid are expensive).  Sections map
onto the library dataclasses.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field

from .data import SynthTaskConfig
from .search import SearchSpaceConfig, TrainSchedule


class ConfigError(ValueError):
    """Malformed configuration: unknown key, bad type, or bad value."""


def build_dataclass(cls, payload: dict, where: str):
    if not isinstance(payload, dict):
        raise ConfigError(f"{where}: expected an object, got {type(payload).__name__}")
    allowed = {f.name for f in dataclasses.fields(cls)}
    unknown = set(payload) - allowed
    if unknown:
        raise ConfigError(f"{where}: unknown keys {sorted(unknown)}; allowed keys {sorted(allowed)}")
    try:
        return cls(**payload)
    except (TypeError, ValueError) as err:
        raise ConfigError(f"{where}: {err}") from err


def _check_seed(seed) -> None:
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")


def _check_run(cfg) -> None:
    """A run's seed is non-negative and its task's samples have its space's shape."""
    _check_seed(cfg.seed)
    for name in ("channels", "length"):
        task, space = getattr(cfg.task, name), getattr(cfg.space, name)
        if task != space:
            raise ValueError(f"task.{name} is {task} but space.{name} is {space}; they must be equal")


@dataclass(frozen=True)
class EstimatorBenchConfig:
    lambdas: tuple = (0.1, 0.5, 1.0)
    k_grid: tuple = (10, 100, 1000)
    trials: int = 100_000
    n_categories: int = 5
    objectives: tuple = ("linear", "quadratic")
    seed: int = 0

    def __post_init__(self):
        if self.trials < 2:
            raise ValueError(f"trials must be >= 2, got {self.trials}")
        if self.n_categories < 2 or self.n_categories > 20:
            raise ValueError("n_categories must lie in [2, 20] (enumeration oracle bound)")
        if not (self.lambdas and self.objectives):
            raise ValueError("lambdas and objectives must not be empty")
        for obj in self.objectives:
            if obj not in ("linear", "quadratic"):
                raise ValueError(f"unknown objective {obj!r}; use 'linear' or 'quadratic'")
        if any(l <= 0 for l in self.lambdas) or any(k < 1 for k in self.k_grid):
            raise ValueError("lambdas must be positive and k_grid entries >= 1")
        _check_seed(self.seed)


@dataclass(frozen=True)
class SearchRunConfig:
    task: SynthTaskConfig = field(default_factory=SynthTaskConfig)
    space: SearchSpaceConfig = field(default_factory=SearchSpaceConfig)
    schedule: TrainSchedule = field(default_factory=TrainSchedule)
    retrain: TrainSchedule = field(default_factory=lambda: TrainSchedule(epochs=100, batch_size=64))
    seed: int = 0

    def __post_init__(self):
        _check_run(self)


@dataclass(frozen=True)
class AblationConfig:
    task: SynthTaskConfig = field(default_factory=SynthTaskConfig)
    space: SearchSpaceConfig = field(default_factory=SearchSpaceConfig)
    schedule: TrainSchedule = field(default_factory=TrainSchedule)
    retrain: TrainSchedule = field(default_factory=lambda: TrainSchedule(epochs=100, batch_size=64))
    lambdas: tuple = (0.1, 0.5, 1.0)
    k_grid: tuple = (10, 100, 1000)
    seed: int = 0

    def __post_init__(self):
        if not (self.lambdas and self.k_grid):
            raise ValueError("lambdas and k_grid must not be empty")
        if any(l <= 0 for l in self.lambdas) or any(k < 1 for k in self.k_grid):
            raise ValueError("lambdas must be positive and k_grid entries >= 1")
        _check_run(self)


@dataclass(frozen=True)
class GenDataConfig:
    task: SynthTaskConfig = field(default_factory=SynthTaskConfig)
    prefix: str = "synthetic"


@dataclass(frozen=True)
class EvalConfig:
    task: SynthTaskConfig = field(default_factory=SynthTaskConfig)
    space: SearchSpaceConfig = field(default_factory=SearchSpaceConfig)
    retrain: TrainSchedule = field(default_factory=lambda: TrainSchedule(epochs=100, batch_size=64))
    shuffle_labels: bool = False
    seed: int = 0

    def __post_init__(self):
        _check_run(self)


_NESTED = {
    "task": SynthTaskConfig,
    "space": SearchSpaceConfig,
    "schedule": TrainSchedule,
    "retrain": TrainSchedule,
}

_LIST_KEYS = ("lambdas", "k_grid", "objectives")


def load_config(cls, path=None, overrides: dict = None):
    """Read a JSON config file into ``cls`` with strict keys and full defaults.

    ``overrides`` (e.g. a --seed flag) replace top-level scalar entries after
    the file is read; a missing path yields the all-defaults config.
    """
    payload = {}
    if path is not None:
        try:
            with open(path) as fh:
                payload = json.load(fh)
        except FileNotFoundError as err:
            raise ConfigError(f"config file not found: {path}") from err
        except json.JSONDecodeError as err:
            raise ConfigError(f"{path}: invalid JSON ({err})") from err
    if not isinstance(payload, dict):
        raise ConfigError(f"{path}: top level must be a JSON object")
    built = dict(payload)
    for key, sub_cls in _NESTED.items():
        if key in built and any(f.name == key for f in dataclasses.fields(cls)):
            built[key] = build_dataclass(sub_cls, built[key], f"{cls.__name__}.{key}")
    for key in _LIST_KEYS:
        if key in built and isinstance(built[key], list):
            built[key] = tuple(built[key])
    if overrides:
        built.update(overrides)
    return build_dataclass(cls, built, cls.__name__)


def config_snapshot(cfg) -> dict:
    """Full post-defaulting snapshot of a config, JSON-serializable."""
    return dataclasses.asdict(cfg)
