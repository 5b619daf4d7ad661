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
from typing import Mapping

import numpy as np

MAGIC = b"NERCKPT1"
FORMAT_VERSION = 1


class CheckpointError(ValueError):
    """Malformed or truncated checkpoint file."""


def save_checkpoint(path: str | Path, arrays: Mapping[str, np.ndarray], config: dict) -> None:
    """Write named float64 arrays plus the config block that produced them."""
    blob = json.dumps(
        {"format_version": FORMAT_VERSION, "config": config}, sort_keys=True
    ).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", len(blob)))
        fh.write(blob)
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
        blob = take(blob_len)
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
        (count,) = struct.unpack("<I", take(4))
        arrays: dict[str, np.ndarray] = {}
        for _ in range(count):
            (name_len,) = struct.unpack("<I", take(4))
            name = take(name_len).decode("utf-8")
            (ndim,) = struct.unpack("<I", take(4))
            shape = struct.unpack(f"<{ndim}Q", take(8 * ndim))
            need(8 * math.prod(shape))
            arr = np.empty(shape, dtype="<f8")
            if fh.readinto(arr) != arr.nbytes:
                raise CheckpointError(f"{path}: truncated checkpoint")
            if not np.isfinite(arr).all():
                raise CheckpointError(f"{path}: non-finite values in array {name!r}")
            arrays[name] = arr.astype(np.float64, copy=False)
    return arrays, header["config"], version
