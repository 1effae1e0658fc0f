import numpy as np
import pytest

from grnas import data
from grnas.metrics import compute_auc


class TestSynthGenerator:
    def test_determinism(self):
        cfg = data.SynthTaskConfig(seed=7, n_train=32, n_val=32, n_test=32)
        a = data.gen_synthetic_bimodal(cfg)
        b = data.gen_synthetic_bimodal(cfg)
        for split in ("train", "val", "test"):
            assert np.array_equal(a[split].xa, b[split].xa)
            assert np.array_equal(a[split].xb, b[split].xb)
            assert np.array_equal(a[split].labels, b[split].labels)

    def test_exact_class_balance(self):
        cfg = data.SynthTaskConfig(seed=3, n_train=64, n_val=50, n_test=128)
        splits = data.gen_synthetic_bimodal(cfg)
        for split in splits.values():
            assert int(split.labels.sum()) == len(split) // 2

    def test_shapes(self):
        cfg = data.SynthTaskConfig(seed=1, n_train=16, n_val=16, n_test=16, channels=5, length=3)
        splits = data.gen_synthetic_bimodal(cfg)
        assert splits["train"].xa.shape == (16, 5, 3)
        assert splits["train"].xb.shape == (16, 5, 3)

    def test_probe_baselines_at_four_sigma(self):
        # oracle-established: single-modality probes clear 0.95 comfortably
        splits = data.gen_synthetic_bimodal(data.SynthTaskConfig(seed=7))
        for modality in ("a", "b"):
            scores = data.linear_probe_scores(splits["train"], splits["test"], modality)
            assert compute_auc(scores, splits["test"].labels) >= 0.95

    def test_joint_probe_strictly_higher_with_exclusive_signal(self):
        # tighter separation gives the fusion advantage a robust margin
        cfg = data.SynthTaskConfig(seed=7, separation=2.0, correlation=0.5)
        splits = data.gen_synthetic_bimodal(cfg)
        aucs = {
            m: compute_auc(
                data.linear_probe_scores(splits["train"], splits["test"], m),
                splits["test"].labels,
            )
            for m in ("a", "b", "both")
        }
        assert aucs["both"] > max(aucs["a"], aucs["b"])

    def test_full_correlation_removes_fusion_advantage(self):
        cfg = data.SynthTaskConfig(seed=7, separation=2.0, correlation=1.0)
        splits = data.gen_synthetic_bimodal(cfg)
        aucs = {
            m: compute_auc(
                data.linear_probe_scores(splits["train"], splits["test"], m),
                splits["test"].labels,
            )
            for m in ("a", "b", "both")
        }
        assert aucs["both"] <= max(aucs["a"], aucs["b"]) + 0.01

    def test_config_validation(self):
        with pytest.raises(ValueError):
            data.SynthTaskConfig(correlation=1.5)
        with pytest.raises(ValueError):
            data.SynthTaskConfig(noise=0.0)
        with pytest.raises(ValueError):
            data.SynthTaskConfig(n_train=1)

    def test_shuffle_controls(self):
        cfg = data.SynthTaskConfig(seed=5, n_train=64, n_val=64, n_test=64)
        splits = data.gen_synthetic_bimodal(cfg)
        shuffled = data.shuffle_all_labels(splits, np.random.default_rng(0))
        assert shuffled["train"].labels.sum() == splits["train"].labels.sum()
        assert shuffled["train"].xa is splits["train"].xa


class TestIngestion:
    def test_grnt_round_trip(self, tmp_path):
        cfg = data.SynthTaskConfig(seed=11, n_train=16, n_val=16, n_test=16, channels=4, length=3)
        split = data.gen_synthetic_bimodal(cfg)["train"]
        paths = data.write_feature_dataset(tmp_path, split)
        back = data.load_feature_dataset(paths["a"], paths["b"], paths["labels"])
        assert np.array_equal(back.labels, split.labels)
        # payload is float32: round-trip is exact at f32 resolution
        assert np.allclose(back.xa, split.xa, atol=1e-6)
        assert back.xa.shape == split.xa.shape

    def test_csv_fallback_requires_dims(self, tmp_path):
        from grnas import tensor_io

        mat = np.arange(24, dtype=np.float64).reshape(4, 6)
        pa = tmp_path / "a.csv"
        pb = tmp_path / "b.csv"
        tensor_io.write_tensor_csv(pa, mat)
        tensor_io.write_tensor_csv(pb, mat)
        labels = tmp_path / "labels.csv"
        labels.write_text("sample_id,label\n" + "".join(f"{i},{i % 2}\n" for i in range(4)))
        with pytest.raises(ValueError):
            data.load_feature_dataset(pa, pb, labels)
        split = data.load_feature_dataset(pa, pb, labels, dims=(2, 3))
        assert split.xa.shape == (4, 2, 3)

    def test_label_mismatch_rejected(self, tmp_path):
        cfg = data.SynthTaskConfig(seed=2, n_train=8, n_val=8, n_test=8, channels=3, length=2)
        split = data.gen_synthetic_bimodal(cfg)["train"]
        paths = data.write_feature_dataset(tmp_path, split)
        bad = tmp_path / "bad_labels.csv"
        bad.write_text("sample_id,label\n0,1\n1,0\n")
        with pytest.raises(ValueError):
            data.load_feature_dataset(paths["a"], paths["b"], bad)

    def test_bad_label_header_rejected(self, tmp_path):
        bad = tmp_path / "labels.csv"
        bad.write_text("id,y\n0,1\n")
        with pytest.raises(ValueError):
            data.read_labels_csv(bad)

    def test_label_outside_zero_one_rejected(self, tmp_path):
        bad = tmp_path / "labels.csv"
        bad.write_text("sample_id,label\n0,1\n1,2\n2,-1\n")
        with pytest.raises(ValueError, match=r"labels\.csv:3: label 2 is not 0 or 1"):
            data.read_labels_csv(bad)

    @pytest.mark.parametrize("row", ["1,0,7", "1", "x,0", "1,0.5"])
    def test_row_not_two_integers_names_the_file_and_line(self, tmp_path, row):
        bad = tmp_path / "labels.csv"
        bad.write_text(f"sample_id,label\n0,1\n{row}\n")
        with pytest.raises(ValueError, match=rf"labels\.csv:3: '{row}' is not two integers"):
            data.read_labels_csv(bad)

    def test_repeated_sample_id_rejected(self, tmp_path):
        bad = tmp_path / "labels.csv"
        bad.write_text("sample_id,label\n0,1\n1,0\n1,1\n")
        with pytest.raises(ValueError, match=r"labels\.csv:4: sample id 1 repeats"):
            data.read_labels_csv(bad)
