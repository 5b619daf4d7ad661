"""The generated demo dataset is byte-stable, whichever BLAS kernel runs."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

from metaner.synthetic import write_synthetic_dataset

SRC = Path(__file__).resolve().parents[1] / "src"

# sha256 of each file for seed 0 at the split sizes of the benchmark's demo
# workload. The text files are as written before their labels came from
# `corpus.render_labels`; the vectors as written since their norms became
# exact sums.
DEMO_SEED0_SHA256 = {
    "train": "bed57771926b96c735453eaee30aea78d164bbec2aeb34327558c85ce8c7fcfe",
    "dev": "b41cf98e57a889adaf4592148a0e3da6c7b93ba50c152c43cf05d15e0b8f997c",
    "test": "7674b9e4918aa63ea2dc965be30d347b1f11bcc0fa352bf967ea18f6a75f672a",
    "vectors": "46a6d270c9ed02d6be01b47f410852a365b009bb64813a3674a9cc62901b4590",
    "stopwords": "c4df6f5c03ddd632f9023d6f6a788e2e14f9c7b95d98bbd9a70894a3ce840897",
}

WRITE_AND_HASH = """
import hashlib, json, sys
sys.path.insert(0, sys.argv[1])
from metaner.synthetic import write_synthetic_dataset
paths = write_synthetic_dataset(sys.argv[2], train=200, dev=50, test=2000, seed=0, dim=12)
print(json.dumps({n: hashlib.sha256(p.read_bytes()).hexdigest() for n, p in paths.items()}))
"""


def test_demo_dataset_bytes_are_pinned(tmp_path):
    paths = write_synthetic_dataset(tmp_path, train=200, dev=50, test=2000, seed=0, dim=12)
    got = {name: hashlib.sha256(path.read_bytes()).hexdigest() for name, path in paths.items()}
    assert got == DEMO_SEED0_SHA256


def test_demo_dataset_bytes_under_the_sse3_kernel(tmp_path):
    # numpy's OpenBLAS picks its kernel for the CPU when it loads, and
    # OPENBLAS_CORETYPE overrides that for one process only. Prescott needs
    # no more than SSE3, so every x86-64 CPU can run it.
    env = dict(os.environ, OPENBLAS_CORETYPE="Prescott", OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, "-c", WRITE_AND_HASH, str(SRC), str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == DEMO_SEED0_SHA256
