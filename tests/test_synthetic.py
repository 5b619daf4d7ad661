"""The generated demo dataset is byte-stable."""

import hashlib

from metaner.synthetic import write_synthetic_dataset

# sha256 of each file for seed 0 at the split sizes of the benchmark's demo
# workload, as written before its labels came from `corpus.render_labels`.
DEMO_SEED0_SHA256 = {
    "train": "bed57771926b96c735453eaee30aea78d164bbec2aeb34327558c85ce8c7fcfe",
    "dev": "b41cf98e57a889adaf4592148a0e3da6c7b93ba50c152c43cf05d15e0b8f997c",
    "test": "7674b9e4918aa63ea2dc965be30d347b1f11bcc0fa352bf967ea18f6a75f672a",
    "vectors": "72bba5b4b2b10268139f00c74f9e4b5d8df90e55b22f40a88352459a4f43ebde",
    "stopwords": "c4df6f5c03ddd632f9023d6f6a788e2e14f9c7b95d98bbd9a70894a3ce840897",
}


def test_demo_dataset_bytes_are_pinned(tmp_path):
    paths = write_synthetic_dataset(tmp_path, train=200, dev=50, test=2000, seed=0, dim=12)
    got = {name: hashlib.sha256(path.read_bytes()).hexdigest() for name, path in paths.items()}
    assert got == DEMO_SEED0_SHA256
