"""Self-describing binary checkpoint container.

Layout (all integers little-endian):

    magic   8 bytes  b"NERCKPT1" (format version baked into the tag)
    u32     length of the UTF-8 JSON configuration block
    bytes   configuration block
    u32     number of arrays
    per array:
        u32      name length, then UTF-8 name
        u32      ndim, then ndim * u64 dims
        float64  raw little-endian values, C order
"""

from __future__ import annotations

import json
import math
import os
import struct
from pathlib import Path
from typing import BinaryIO, Callable, Mapping

import numpy as np

MAGIC = b"NERCKPT1"
FORMAT_VERSION = 1


class CheckpointError(ValueError):
    """Malformed or truncated checkpoint file."""


def save_checkpoint(path: str | Path, arrays: Mapping[str, np.ndarray], config: dict) -> None:
    """Write named float64 arrays plus the config block that produced them.

    The file is written as `<path>.tmp` beside `path` and then renamed onto
    it, so `path` holds either its old bytes or the whole new file, never a
    part of one.
    """
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "wb") as fh:
            _write(fh, arrays, config)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _write(fh: BinaryIO, arrays: Mapping[str, np.ndarray], config: dict) -> None:
    fh.write(MAGIC)
    # The header is encoded a piece at a time, so a large vocabulary in
    # `config` is never held as one string; its length is filled in after.
    fh.write(struct.pack("<I", 0))
    start = fh.tell()
    header = {"format_version": FORMAT_VERSION, "config": config}
    for chunk in json.JSONEncoder(sort_keys=True).iterencode(header):
        fh.write(chunk.encode("utf-8"))
    end = fh.tell()
    fh.seek(start - 4)
    fh.write(struct.pack("<I", end - start))
    fh.seek(end)
    fh.write(struct.pack("<I", len(arrays)))
    for name, arr in arrays.items():
        # A contiguous little-endian float64 array is written from its
        # own buffer, without a copy.
        a = np.ascontiguousarray(arr, dtype="<f8")
        nb = name.encode("utf-8")
        fh.write(struct.pack("<I", len(nb)))
        fh.write(nb)
        fh.write(struct.pack("<I", a.ndim))
        fh.write(struct.pack(f"<{a.ndim}Q", *a.shape))
        fh.write(a.data)


def load_checkpoint(path: str | Path) -> tuple[dict[str, np.ndarray], dict, int]:
    """Read a checkpoint; returns (arrays, config, format_version).

    Rejects unknown magic and non-finite values: checkpoints are external
    input. Each array is read straight into its own buffer, so loading holds
    the arrays and little else.
    """
    arrays: dict[str, np.ndarray] = {}

    def fresh(name: str, shape: tuple[int, ...]) -> np.ndarray:
        arrays[name] = np.empty(shape, dtype="<f8")
        return arrays[name]

    config = _read(path, fresh, parse_config=True)
    arrays = {k: a.astype(np.float64, copy=False) for k, a in arrays.items()}
    return arrays, config, FORMAT_VERSION


def load_checkpoint_into(path: str | Path, targets: Mapping[str, np.ndarray]) -> None:
    """Read a checkpoint's arrays straight into `targets`, leaving its config
    block unparsed.

    The file must hold exactly the names of `targets`, each once and with its
    target's shape, or `CheckpointError` is raised, as `load_checkpoint` raises
    it for a bad file. After an error the targets may hold part of the file.
    """
    for name, arr in targets.items():
        if arr.dtype != np.dtype("<f8") or not arr.flags.c_contiguous:
            raise ValueError(f"cannot read into {name!r}: not a C-contiguous <f8 array")
    seen: set[str] = set()

    def live(name: str, shape: tuple[int, ...]) -> np.ndarray:
        arr = targets.get(name)
        if arr is None or name in seen:
            raise CheckpointError(f"{path}: unexpected array {name!r}")
        if arr.shape != shape:
            raise CheckpointError(
                f"{path}: array {name!r} is {shape}, expected {arr.shape}"
            )
        seen.add(name)
        return arr

    _read(path, live, parse_config=False)
    missing = sorted(targets.keys() - seen)
    if missing:
        raise CheckpointError(f"{path}: missing array(s) {', '.join(map(repr, missing))}")


def _all_finite(arr: np.ndarray) -> bool:
    # NaN propagates through min and max, and an infinity is one of them, so
    # this reads the array twice and allocates nothing of its size.
    return arr.size == 0 or bool(np.isfinite(arr.min()) and np.isfinite(arr.max()))


def _read(
    path: str | Path,
    buffer_for: Callable[[str, tuple[int, ...]], np.ndarray],
    parse_config: bool,
) -> dict | None:
    """Check `path` and read each array into `buffer_for(name, shape)`.

    Returns the config block, or None with `parse_config` off: the block
    holds the vocabularies, which would cost more memory to parse than a
    small model's arrays.
    """
    with open(path, "rb") as fh:
        if fh.read(len(MAGIC)) != MAGIC:
            raise CheckpointError(f"{path}: not a checkpoint file (bad magic)")
        size = os.fstat(fh.fileno()).st_size

        def need(n: int) -> None:
            if fh.tell() + n > size:
                raise CheckpointError(f"{path}: truncated checkpoint")

        def take(n: int) -> bytes:
            need(n)
            return fh.read(n)

        (blob_len,) = struct.unpack("<I", take(4))
        config = None
        if parse_config:
            config = _parse_header(path, take(blob_len))
        else:
            need(blob_len)
            fh.seek(blob_len, os.SEEK_CUR)
        (count,) = struct.unpack("<I", take(4))
        for _ in range(count):
            (name_len,) = struct.unpack("<I", take(4))
            name = take(name_len).decode("utf-8")
            (ndim,) = struct.unpack("<I", take(4))
            shape = struct.unpack(f"<{ndim}Q", take(8 * ndim))
            need(8 * math.prod(shape))
            arr = buffer_for(name, shape)
            if fh.readinto(arr) != arr.nbytes:
                raise CheckpointError(f"{path}: truncated checkpoint")
            if not _all_finite(arr):
                raise CheckpointError(f"{path}: non-finite values in array {name!r}")
    return config


def _parse_header(path: str | Path, blob: bytes) -> dict:
    """The config block of a header blob, after checking its format version."""
    try:
        header = json.loads(blob.decode("utf-8"))
    except ValueError as exc:
        raise CheckpointError(f"{path}: header is not UTF-8 JSON: {exc}") from exc
    if not isinstance(header, dict):
        raise CheckpointError(f"{path}: header is not a JSON object")
    version = header.get("format_version")
    if version != FORMAT_VERSION:
        raise CheckpointError(f"{path}: unsupported format version {version!r}")
    if not isinstance(header.get("config"), dict):
        raise CheckpointError(f"{path}: header has no config block")
    return header["config"]
