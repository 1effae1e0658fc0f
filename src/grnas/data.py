"""Synthetic bimodal classification tasks and feature-file ingestion.

Each sample carries two modality tensors of shape C x L.  The label signal
splits into a component shared between modalities and per-modality
exclusive components; the ``correlation`` knob moves energy between them
(correlation 1 = all signal shared, below 1 each modality holds private
evidence and fusing them genuinely helps).  Signal lives in per-channel
means so it survives mean-pooling over positions; positions carry i.i.d.
observation noise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor_io

LATENT_NOISE = 1.0


@dataclass(frozen=True)
class SynthTaskConfig:
    n_train: int = 512
    n_val: int = 512
    n_test: int = 512
    channels: int = 16
    length: int = 8
    separation: float = 4.0  # Mahalanobis distance between class means, single modality
    correlation: float = 0.5  # share of signal energy common to both modalities
    noise: float = 0.3  # per-position observation noise
    seed: int = 0

    def __post_init__(self):
        if not 0.0 <= self.correlation <= 1.0:
            raise ValueError(f"correlation must lie in [0, 1], got {self.correlation}")
        if self.noise <= 0 or self.separation < 0:
            raise ValueError("noise must be positive and separation non-negative")
        if min(self.n_train, self.n_val, self.n_test) < 2:
            raise ValueError("each split needs at least 2 samples")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


@dataclass
class ModalitySplit:
    """One dataset split: two modality tensors (N, C, L) and 0/1 labels."""

    xa: np.ndarray
    xb: np.ndarray
    labels: np.ndarray

    def __len__(self) -> int:
        return self.labels.shape[0]


def _orthonormal_directions(rng, channels: int, count: int) -> np.ndarray:
    q, _ = np.linalg.qr(rng.normal(size=(channels, count)))
    return q.T  # rows are orthonormal


def _balanced_labels(n: int, rng) -> np.ndarray:
    labels = np.zeros(n, dtype=np.int64)
    labels[n // 2 :] = 1
    rng.shuffle(labels)
    return labels


def gen_synthetic_bimodal(config: SynthTaskConfig) -> dict:
    """Build {train, val, test} splits, fully determined by the config seed.

    Per modality, the class-mean shift splits between a direction whose
    latent noise is shared across modalities and a direction private to the
    modality; amplitudes are calibrated so the optimal single-modality
    linear discriminant sits ``separation`` latent standard deviations wide.
    """
    rng = np.random.default_rng(config.seed)
    c = config.channels
    dirs_a = _orthonormal_directions(rng, c, 2)  # rows: shared, exclusive
    dirs_b = _orthonormal_directions(rng, c, 2)

    total = LATENT_NOISE**2
    amp_shared = 0.5 * config.separation * np.sqrt(config.correlation * total)
    amp_excl = 0.5 * config.separation * np.sqrt((1.0 - config.correlation) * total)

    splits = {}
    for name, n in (("train", config.n_train), ("val", config.n_val), ("test", config.n_test)):
        labels = _balanced_labels(n, rng)
        sign = 2.0 * labels - 1.0
        z_shared = rng.normal(size=n)
        z_a = rng.normal(size=n)
        z_b = rng.normal(size=n)
        chan_a = np.outer(sign * amp_shared + LATENT_NOISE * z_shared, dirs_a[0]) + np.outer(
            sign * amp_excl + LATENT_NOISE * z_a, dirs_a[1]
        )
        chan_b = np.outer(sign * amp_shared + LATENT_NOISE * z_shared, dirs_b[0]) + np.outer(
            sign * amp_excl + LATENT_NOISE * z_b, dirs_b[1]
        )
        xa = chan_a[:, :, None] + config.noise * rng.normal(size=(n, c, config.length))
        xb = chan_b[:, :, None] + config.noise * rng.normal(size=(n, c, config.length))
        splits[name] = ModalitySplit(xa=xa, xb=xb, labels=labels)
    return splits


def shuffle_labels(split: ModalitySplit, rng) -> ModalitySplit:
    """Control condition: same features, permuted labels."""
    perm = rng.permutation(len(split))
    return ModalitySplit(xa=split.xa, xb=split.xb, labels=split.labels[perm])


def shuffle_all_labels(splits: dict, rng) -> dict:
    """Label-shuffle every split: the chance-level control dataset."""
    return {name: shuffle_labels(split, rng) for name, split in splits.items()}


def linear_probe_scores(train: ModalitySplit, test: ModalitySplit, modality: str = "both"):
    """Ridge least-squares probe on position-pooled channels; returns test scores.

    The deterministic baseline used to establish achievable AUC levels.
    """

    def features(split):
        parts = []
        if modality in ("a", "both"):
            parts.append(split.xa.mean(axis=2))
        if modality in ("b", "both"):
            parts.append(split.xb.mean(axis=2))
        return np.concatenate(parts, axis=1)

    x_train = features(train)
    x_test = features(test)
    x_train = np.concatenate([x_train, np.ones((x_train.shape[0], 1))], axis=1)
    x_test = np.concatenate([x_test, np.ones((x_test.shape[0], 1))], axis=1)
    y = 2.0 * train.labels - 1.0
    gram = x_train.T @ x_train + 1e-6 * np.eye(x_train.shape[1])
    w = np.linalg.solve(gram, x_train.T @ y)
    return x_test @ w


# ---------------------------------------------------------------------------
# feature-file ingestion


def write_feature_dataset(dirpath, split: ModalitySplit, prefix: str = "split") -> dict:
    """Persist a split as two GRNT tensors plus a labels CSV; returns the paths."""
    import os

    paths = {
        "a": os.path.join(dirpath, f"{prefix}_modality_a.grnt"),
        "b": os.path.join(dirpath, f"{prefix}_modality_b.grnt"),
        "labels": os.path.join(dirpath, f"{prefix}_labels.csv"),
    }
    tensor_io.write_tensor(paths["a"], split.xa)
    tensor_io.write_tensor(paths["b"], split.xb)
    with open(paths["labels"], "w") as fh:
        fh.write("sample_id,label\n")
        for i, label in enumerate(split.labels):
            fh.write(f"{i},{int(label)}\n")
    return paths


def read_labels_csv(path) -> np.ndarray:
    labels = {}
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        if header != ["sample_id", "label"]:
            raise ValueError(f"{path}: expected header 'sample_id,label', got {header}")
        for lineno, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                continue
            try:
                sid, lab = (int(v) for v in line.split(","))
            except ValueError:
                raise ValueError(f"{path}:{lineno}: {line!r} is not two integers 'sample_id,label'") from None
            if lab not in (0, 1):
                raise ValueError(f"{path}:{lineno}: label {lab} is not 0 or 1")
            if sid in labels:
                raise ValueError(f"{path}:{lineno}: sample id {sid} repeats")
            labels[sid] = lab
    if not labels:
        raise ValueError(f"{path}: no label rows")
    out = np.empty(len(labels), dtype=np.int64)
    for sid, lab in labels.items():
        if not 0 <= sid < len(labels):
            raise ValueError(f"{path}: non-contiguous sample ids")
        out[sid] = lab
    return out


def load_feature_dataset(path_a, path_b, labels_path, dims=None) -> ModalitySplit:
    """Ingest GRNT (rank 3) or CSV (2-D, reshaped via ``dims``) feature files."""

    def load(path):
        if str(path).endswith(".csv"):
            mat = tensor_io.read_tensor_csv(path)
            if dims is None:
                raise ValueError("CSV feature ingestion requires dims=(C, L) to reshape")
            return mat.reshape(mat.shape[0], *dims)
        arr = tensor_io.read_tensor(path)
        if arr.ndim != 3:
            raise ValueError(f"{path}: expected a rank-3 (N, C, L) tensor, got rank {arr.ndim}")
        return arr

    xa = load(path_a)
    xb = load(path_b)
    labels = read_labels_csv(labels_path)
    if not (xa.shape[0] == xb.shape[0] == labels.shape[0]):
        raise ValueError(
            f"sample counts disagree: {xa.shape[0]}, {xb.shape[0]}, {labels.shape[0]} labels"
        )
    if xa.shape != xb.shape:
        raise ValueError(f"modality shapes disagree: {xa.shape} vs {xb.shape}")
    return ModalitySplit(xa=xa, xb=xb, labels=labels)
