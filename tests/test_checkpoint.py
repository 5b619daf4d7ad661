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
    load_checkpoint_into,
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


def corrupt_last_value(path, value):
    """Overwrite the last float64 of the file at `path` with `value`."""
    raw = bytearray(path.read_bytes())
    raw[-8:] = np.array([value]).astype("<f8").tobytes()
    path.write_bytes(bytes(raw))


def test_nonfinite_values_rejected_on_load(tmp_path):
    path = tmp_path / "model.ckpt"
    arr = np.ones(3)
    save_checkpoint(path, {"w": arr}, {})
    corrupt_last_value(path, np.nan)
    with pytest.raises(CheckpointError, match="non-finite"):
        load_checkpoint(path)


@pytest.mark.parametrize("into", [False, True])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_every_nonfinite_value_rejected_by_both_readers(tmp_path, into, bad):
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, {"w": np.ones(3)}, {})
    corrupt_last_value(path, bad)
    with pytest.raises(CheckpointError, match="non-finite"):
        if into:
            load_checkpoint_into(path, {"w": np.zeros(3)})
        else:
            load_checkpoint(path)


def test_failed_save_leaves_the_previous_file(tmp_path):
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, {"w": np.ones((4, 4))}, {"k": 1})
    before = path.read_bytes()
    # The second array cannot be written as float64, after the first was.
    arrays = {"w": np.zeros((4, 4)), "bad": np.array(["x"])}
    with pytest.raises(ValueError):
        save_checkpoint(path, arrays, {"k": 2})
    assert path.read_bytes() == before
    assert list(tmp_path.iterdir()) == [path]


def test_header_matches_one_shot_json(tmp_path):
    config = {"b": [1.5, "\u00e9", None], "a": {"z": True, "y": list(range(5))}}
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, {}, config)
    blob = json.dumps({"format_version": FORMAT_VERSION, "config": config}, sort_keys=True)
    raw = path.read_bytes()
    assert raw[len(MAGIC):len(MAGIC) + 4] == struct.pack("<I", len(blob))
    assert raw[len(MAGIC) + 4:-4] == blob.encode("utf-8")


class TestLoadInto:
    def saved(self, tmp_path):
        rng = np.random.default_rng(2)
        arrays = {"a": rng.normal(size=(5, 3)), "b": rng.normal(size=4)}
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, arrays, {"vocab": ["x"] * 10})
        return path, arrays

    def test_reads_into_the_targets_in_place(self, tmp_path):
        path, arrays = self.saved(tmp_path)
        targets = {"b": np.zeros(4), "a": np.zeros((5, 3))}
        ids = {k: id(v) for k, v in targets.items()}
        assert load_checkpoint_into(path, targets) is None
        for name, arr in targets.items():
            assert id(arr) == ids[name]
            np.testing.assert_array_equal(arr, arrays[name])

    @pytest.mark.parametrize(
        "targets, match",
        [
            ({"a": np.zeros((3, 5)), "b": np.zeros(4)}, r"'a' is \(5, 3\), expected \(3, 5\)"),
            ({"a": np.zeros((5, 3))}, "unexpected array 'b'"),
            ({"a": np.zeros((5, 3)), "b": np.zeros(4), "c": np.zeros(1)}, "missing array.*'c'"),
        ],
    )
    def test_arrays_that_do_not_fit_rejected(self, tmp_path, targets, match):
        path, _ = self.saved(tmp_path)
        with pytest.raises(CheckpointError, match=match):
            load_checkpoint_into(path, targets)

    @pytest.mark.parametrize("target", [np.zeros(4, dtype=np.float32), np.zeros(8)[::2]])
    def test_target_that_is_not_a_contiguous_float64_buffer_rejected(self, tmp_path, target):
        path, _ = self.saved(tmp_path)
        with pytest.raises(ValueError, match="cannot read into 'b'"):
            load_checkpoint_into(path, {"a": np.zeros((5, 3)), "b": target})

    def test_truncated_file_rejected(self, tmp_path):
        path, _ = self.saved(tmp_path)
        raw = path.read_bytes()
        for cut in range(len(MAGIC), len(raw)):
            path.write_bytes(raw[:cut])
            with pytest.raises(CheckpointError, match="truncated"):
                load_checkpoint_into(path, {"a": np.zeros((5, 3)), "b": np.zeros(4)})

    def test_reads_without_copying(self, tmp_path):
        path = tmp_path / "model.ckpt"
        targets = {"a": np.ones((500, 1000)), "b": np.ones((250, 1000))}
        save_checkpoint(path, targets, {"vocab": [f"w{i}" for i in range(10_000)]})
        peak = traced_peak(load_checkpoint_into, path, targets)
        assert peak < 0.1 * targets["a"].nbytes
