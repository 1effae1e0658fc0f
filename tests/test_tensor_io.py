import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from grnas import tensor_io


def test_binary_round_trip(tmp_path):
    rng = np.random.default_rng(1)
    for shape in [(4,), (3, 5), (2, 3, 4)]:
        arr = rng.normal(size=shape).astype(np.float32).astype(np.float64)
        path = tmp_path / "t.grnt"
        tensor_io.write_tensor(path, arr)
        back = tensor_io.read_tensor(path)
        assert back.shape == shape
        assert np.array_equal(back, arr)


def test_tensor_bytes_is_the_file_content(tmp_path):
    rng = np.random.default_rng(2)
    for arr in (rng.normal(size=(3,)), rng.normal(size=(2, 0, 4)), rng.normal(size=(2, 3, 4))):
        path = tmp_path / "t.grnt"
        tensor_io.write_tensor(path, arr)
        assert path.read_bytes() == tensor_io.tensor_bytes(arr)
        assert np.array_equal(tensor_io.read_tensor(path), np.asarray(arr, dtype=np.float32))


def test_scalar_keeps_rank_zero(tmp_path):
    raw = tensor_io.tensor_bytes(np.float64(1.5))
    assert raw == b"GRNT" + struct.pack("<I", 0) + struct.pack("<f", 1.5)
    path = tmp_path / "s.grnt"
    tensor_io.write_tensor(path, np.float64(1.5))
    back = tensor_io.read_tensor(path)
    assert back.shape == ()
    assert back == 1.5


def test_binary_layout(tmp_path):
    path = tmp_path / "t.grnt"
    tensor_io.write_tensor(path, np.arange(6, dtype=np.float64).reshape(2, 3))
    raw = path.read_bytes()
    assert raw[:4] == b"GRNT"
    assert int.from_bytes(raw[4:8], "little") == 2
    assert int.from_bytes(raw[8:12], "little") == 2
    assert int.from_bytes(raw[12:16], "little") == 3
    assert len(raw) == 16 + 4 * 6
    assert np.frombuffer(raw[16:], dtype="<f4")[4] == 4.0


def test_bad_magic_and_truncation(tmp_path):
    path = tmp_path / "bad.grnt"
    path.write_bytes(b"NOPE" + b"\x00" * 8)
    with pytest.raises(ValueError):
        tensor_io.read_tensor(path)
    good = tmp_path / "good.grnt"
    tensor_io.write_tensor(good, np.ones((2, 2)))
    truncated = tmp_path / "trunc.grnt"
    truncated.write_bytes(good.read_bytes()[:-3])
    with pytest.raises(ValueError):
        tensor_io.read_tensor(truncated)


def test_header_declaring_more_than_the_file_holds_names_the_file(tmp_path):
    cases = {
        "short_rank.grnt": b"GRNT\x02\x00",
        "short_dims.grnt": b"GRNT" + struct.pack("<I", 2) + struct.pack("<I", 3),
        "huge_dims.grnt": b"GRNT" + struct.pack("<3I", 2, 2**32 - 1, 2**32 - 1),
        "huge_rank.grnt": b"GRNT" + struct.pack("<I", 2**32 - 1),
    }
    for name, raw in cases.items():
        path = tmp_path / name
        path.write_bytes(raw)
        with pytest.raises(ValueError, match=name):
            tensor_io.read_tensor(path)


def _grnt_bytes(shape):
    return (
        b"GRNT"
        + struct.pack("<I", len(shape))
        + struct.pack(f"<{len(shape)}I", *shape)
        + np.arange(int(np.prod(shape)), dtype="<f4").tobytes()
    )


@given(
    shape=st.lists(st.integers(0, 4), min_size=0, max_size=3),
    cut=st.integers(min_value=1),
)
@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_fuzz_truncated_files_are_refused(tmp_path, shape, cut):
    raw = _grnt_bytes(shape)
    path = tmp_path / "trunc.grnt"
    path.write_bytes(raw[: max(0, len(raw) - cut)])
    with pytest.raises(ValueError, match="trunc.grnt"):
        tensor_io.read_tensor(path)


@given(
    header=st.one_of(
        st.binary(max_size=40),
        st.lists(st.integers(0, 2**32 - 1), max_size=6).map(
            lambda words: struct.pack(f"<{len(words)}I", *words)
        ),
    ),
    payload=st.binary(max_size=64),
)
@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_fuzz_garbage_headers_are_refused_or_read_exactly(tmp_path, header, payload):
    raw = b"GRNT" + header + payload
    path = tmp_path / "garbage.grnt"
    path.write_bytes(raw)
    try:
        arr = tensor_io.read_tensor(path)
    except ValueError as err:
        assert "garbage.grnt" in str(err)
    else:
        # accepted only when rank, dims and payload account for every byte
        assert 8 + 4 * arr.ndim + 4 * arr.size == len(raw)


def test_csv_round_trip(tmp_path):
    mat = np.array([[1.5, -2.25], [0.0, 1e-7]])
    path = tmp_path / "t.csv"
    tensor_io.write_tensor_csv(path, mat)
    assert np.array_equal(tensor_io.read_tensor_csv(path), mat)


def test_csv_rejects_non_2d_and_ragged(tmp_path):
    with pytest.raises(ValueError):
        tensor_io.write_tensor_csv(tmp_path / "x.csv", np.zeros((2, 2, 2)))
    ragged = tmp_path / "r.csv"
    ragged.write_text("1,2\n3\n")
    with pytest.raises(ValueError):
        tensor_io.read_tensor_csv(ragged)
