"""The benchmark's workloads: generated inputs plus one `metaner train` config.

Each workload is one config for `metaner train`, run again and again in one
process until the run's time is up. `steps` is fixed per workload so that runs
with one seed do the same arithmetic and can be compared by their loss trace.
It is sized so that one training run takes about 12 s on a 2-core x86 box.
A 36 s run then holds three training runs, and still does when the machine
runs 15% faster or slower: that gives three set-up samples, and steps and
decodes spread over the whole run, whose speed drifts by 10-20% from one
few-second window to the next on a shared machine.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import gen

# Test splits are large so that decode time is spread over the run; dev splits
# are small because they are decoded twice per training run and not measured.
CONLL_SPLITS = {"n_train": 4500, "n_dev": 50, "n_test": 700}
DEMO_SPLITS = {"train": 200, "dev": 50, "test": 2000}


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "conll" or "demo": which generator writes the inputs
    steps: int
    config: tuple[str, ...]
    meta_reweight: bool
    dev_f1_floor: float | None = None

    def write_inputs(self, seed: int, data_dir: Path) -> dict[str, Path]:
        if self.kind == "conll":
            return gen.write_conll_dataset(data_dir, seed, **CONLL_SPLITS)
        from metaner.synthetic import write_synthetic_dataset

        return write_synthetic_dataset(data_dir, seed=seed, dim=12, **DEMO_SPLITS)

    def config_text(self, seed: int, paths: dict[str, Path], out_dir: Path) -> str:
        lines = [
            f"train={paths['train']}",
            f"dev={paths['dev']}",
            f"test={paths['test']}",
            f"vectors={paths['vectors']}",
            f"stopwords={paths['stopwords']}",
            f"out={out_dir}",
            f"seed={seed}",
            f"steps={self.steps}",
            f"eval_every={self.steps}",
            f"meta_reweight={'true' if self.meta_reweight else 'false'}",
            *self.config,
        ]
        return "\n".join(lines) + "\n"


# Why each workload exists is recorded in BENCHMARK.json and README.md.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="conll-meta",
            kind="conll",
            steps=7,
            config=("method=both", "batch=16", "meta_batch=16",
                    "model.emb_dim=100", "model.hidden=100"),
            meta_reweight=True,
        ),
        Workload(
            name="conll-plain",
            kind="conll",
            steps=18,
            config=("method=baseline", "batch=16", "meta_batch=16",
                    "model.emb_dim=100", "model.hidden=100"),
            meta_reweight=False,
        ),
        Workload(
            name="demo-encoder-mix",
            kind="demo",
            steps=90,
            config=("method=both", "mix_layer=encoder", "model.emb_dim=12",
                    "model.hidden=16", "lr=0.01"),
            meta_reweight=True,
            # Best dev F1 at 90 steps over seeds 0-23: lowest 0.913, median 0.99.
            dev_f1_floor=0.8,
        ),
    )
}
