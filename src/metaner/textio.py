"""Opening the UTF-8 text files that metaner reads as input."""

from __future__ import annotations

from collections.abc import Iterator
from contextlib import contextmanager
from pathlib import Path
from typing import TextIO


@contextmanager
def open_text(path: str | Path, error: type[Exception]) -> Iterator[TextIO]:
    """Open `path` for reading as UTF-8, skipping a leading byte-order mark.

    A byte sequence that is not UTF-8 raises `error` naming the file and the
    line it is on, as every other bad input does.
    """
    with open(path, encoding="utf-8-sig") as fh:
        try:
            yield fh
        except UnicodeDecodeError as exc:
            # The decoder's offset counts from the chunk it was given, so find
            # the first bad byte again in the whole file.
            data = Path(path).read_bytes()
            try:
                data.decode("utf-8")
            except UnicodeDecodeError as whole:
                line = data.count(b"\n", 0, whole.start) + 1
                raise error(
                    f"{path}:{line}: not UTF-8: {whole.reason} "
                    f"(byte 0x{data[whole.start]:02x})"
                ) from exc
            raise
