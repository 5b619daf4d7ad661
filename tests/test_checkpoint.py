"""Checkpoint container round trips and corruption handling."""

import json
import struct
import tracemalloc

import numpy as np
import pytest

from metaner.checkpoint import (
    FORMAT_VERSION,
    MAGIC,
    CheckpointError,
    load_checkpoint,
    save_checkpoint,
)


def test_round_trip_preserves_arrays_and_config(tmp_path):
    rng = np.random.default_rng(5)
    arrays = {
        "embed.table": rng.normal(size=(7, 3)),
        "crf.b": rng.normal(size=4),
        "scalarish": np.array(2.5),
        "empty": np.zeros((0, 3)),
        "transposed": rng.normal(size=(3, 5)).T,
    }
    config = {"model": {"hidden": 4}, "label_vocab": ["O", "S-PER"]}
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, arrays, config)
    loaded, cfg, version = load_checkpoint(path)
    assert version == FORMAT_VERSION
    assert cfg == config
    assert set(loaded) == set(arrays)
    for name in arrays:
        np.testing.assert_array_equal(loaded[name], arrays[name])
        assert loaded[name].dtype == np.float64


def test_bitwise_identical_files_for_identical_input(tmp_path):
    arrays = {"w": np.linspace(0, 1, 12).reshape(3, 4)}
    p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    save_checkpoint(p1, arrays, {"seed": 3})
    save_checkpoint(p2, arrays, {"seed": 3})
    assert p1.read_bytes() == p2.read_bytes()


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "junk.ckpt"
    path.write_bytes(b"NOTACKPT" + b"\x00" * 16)
    with pytest.raises(CheckpointError, match="magic"):
        load_checkpoint(path)


def test_truncated_file_rejected(tmp_path):
    # Every cut after the magic: inside the header, a name, a shape or values.
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, {"w": np.ones((4, 4)), "b": np.ones(2)}, {"k": 1})
    raw = path.read_bytes()
    for cut in range(len(MAGIC), len(raw)):
        path.write_bytes(raw[:cut])
        with pytest.raises(CheckpointError, match="truncated"):
            load_checkpoint(path)


def test_dims_larger_than_the_file_are_truncated(tmp_path):
    blob = json.dumps({"format_version": FORMAT_VERSION, "config": {}}).encode()
    path = tmp_path / "model.ckpt"
    path.write_bytes(
        MAGIC + struct.pack("<I", len(blob)) + blob + struct.pack("<I", 1)
        + struct.pack("<I", 1) + b"w" + struct.pack("<I", 2)
        + struct.pack("<2Q", 10**9, 10**9)
    )
    with pytest.raises(CheckpointError, match="truncated"):
        load_checkpoint(path)


def test_unknown_format_version_rejected(tmp_path):
    blob = json.dumps({"format_version": FORMAT_VERSION + 1, "config": {}}).encode()
    path = tmp_path / "model.ckpt"
    path.write_bytes(MAGIC + struct.pack("<I", len(blob)) + blob + struct.pack("<I", 0))
    with pytest.raises(CheckpointError, match="unsupported format version 2"):
        load_checkpoint(path)


def traced_peak(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


def test_save_writes_arrays_without_copying(tmp_path):
    arrays = {"a": np.ones((500, 1000)), "b": np.ones((250, 1000))}
    peak = traced_peak(save_checkpoint, tmp_path / "model.ckpt", arrays, {})
    assert peak < 0.1 * arrays["a"].nbytes


def test_load_reads_each_array_once(tmp_path):
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, {"a": np.ones((500, 1000)), "b": np.ones((250, 1000))}, {})
    size = path.stat().st_size
    assert traced_peak(load_checkpoint, path) < 1.5 * size


def test_nonfinite_values_rejected_on_load(tmp_path):
    path = tmp_path / "model.ckpt"
    arr = np.ones(3)
    save_checkpoint(path, {"w": arr}, {})
    # Corrupt one float in place with a NaN pattern.
    raw = bytearray(path.read_bytes())
    nan_bytes = np.array([np.nan]).astype("<f8").tobytes()
    raw[-8:] = nan_bytes
    path.write_bytes(bytes(raw))
    with pytest.raises(CheckpointError, match="non-finite"):
        load_checkpoint(path)
