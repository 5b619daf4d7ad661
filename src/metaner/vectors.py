"""Plain-text word vector and stop-word file IO.

Vector file format: one word per line followed by whitespace-separated
decimal floats. Stop-word file: one word per line.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

from .textio import open_text


def read_vector_file(path: str | Path) -> dict[str, np.ndarray]:
    """Load word vectors; all rows must share one dimension and be finite.

    numpy's C reader parses the values; a light pass collects the words. A
    file that numpy rejects or that holds a non-finite value is read again
    line by line, which gives the same vectors or names the first bad line.
    """
    path = Path(path)
    with open_text(path, ValueError) as fh:
        words = [head[0] for head in (line.split(None, 1) for line in fh) if head]
    if not words:
        return {}
    try:
        # Column 0 is the word. Reading every column, not `usecols`, makes
        # numpy reject a row longer than the first one.
        table = np.loadtxt(
            path,
            converters={0: lambda word: 0.0},
            comments=None,
            ndmin=2,
            encoding="utf-8",
        )
    except ValueError:
        return _read_vector_lines(path)
    values = table[:, 1:]
    if len(values) != len(words) or not values.size or not np.isfinite(values).all():
        return _read_vector_lines(path)
    return dict(zip(words, values))


def _read_vector_lines(path: Path) -> dict[str, np.ndarray]:
    """`read_vector_file` one line at a time, with `float` on every value."""
    vectors: dict[str, np.ndarray] = {}
    dim: int | None = None
    with open_text(path, ValueError) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) < 2:
                raise ValueError(f"{path}:{lineno}: expected 'word v1 v2 ...'")
            word = parts[0]
            try:
                values = [float(x) for x in parts[1:]]
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: bad float in vector for {word!r}") from exc
            if dim is None:
                dim = len(values)
            elif len(values) != dim:
                raise ValueError(
                    f"{path}:{lineno}: vector for {word!r} has dim {len(values)}, expected {dim}"
                )
            # A NaN or an infinity makes the sum non-finite. So can finite values
            # that overflow, which the exact check then lets through; the sum
            # alone costs a fraction of the exact check on every line.
            if not math.isfinite(sum(values)) and not all(map(math.isfinite, values)):
                raise ValueError(f"{path}:{lineno}: non-finite value in vector for {word!r}")
            vectors[word] = np.array(values, dtype=np.float64)
    return vectors


def write_vector_file(path: str | Path, vectors: dict[str, np.ndarray]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for word, vec in vectors.items():
            fh.write(word + " " + " ".join(repr(float(x)) for x in vec) + "\n")


def read_stopword_file(path: str | Path) -> set[str]:
    with open_text(path, ValueError) as fh:
        return {line.strip() for line in fh if line.strip()}
