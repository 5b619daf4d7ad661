"""The names `perfbench/probes.py` wraps still exist and still take its calls.

`Probe.install` replaces module attributes by name and its wrappers call them
with fixed arguments, so a rename or a changed signature breaks only traced
benchmark runs. Most tests here read the probe's targets without installing
it; one installs a traced probe in a child process around a tiny `metaner
train` run.
"""

import importlib
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))
import probes  # noqa: E402


def resolve(module: str, attr: str):
    obj = importlib.import_module(f"metaner.{module}")
    for part in attr.split("."):
        obj = getattr(obj, part)
    return obj


def split(span_name: str) -> tuple[str, str]:
    module, attr = span_name.split(".", 1)
    return module, attr


# Every attribute `Probe.install` and `Probe._count_graph_nodes` reach by name.
# The decode span is named after the module, but the method is wrapped.
TARGETS = [(module, attr) for module, attr, _ in probes.LAYER_CALLS] + [
    split(probes.STEP),
    split(probes.EVALUATE),
    split(probes.CLIP),
    ("tagger", "TaggerModel." + split(probes.DECODE)[1]),
    ("augment", "token_substitute"),
    ("trainer", "example_loss"),
    ("tagger", "TaggerModel.sequence_loss"),
]


@pytest.mark.parametrize("module, attr", TARGETS)
def test_target_exists(module, attr):
    assert callable(resolve(module, attr))


def test_step_has_the_parameters_the_probe_binds():
    params = inspect.signature(resolve(*split(probes.STEP))).parameters
    assert {"model", "aug_batch", "meta_batch", "cfg", "mix_layer"} <= set(params)


@pytest.mark.parametrize(
    "module, attr, args",
    [
        # (model, item, mix_layer, train, rng), as _count_graph_nodes calls it
        ("trainer", "example_loss", (None, None, "embedding", True, None)),
        # (self, example, train, rng)
        ("tagger", "TaggerModel.sequence_loss", (None, None, True, None)),
        ("tagger", "TaggerModel.decode", (None, ["tok"])),
        (*split(probes.EVALUATE), (None, None)),
        (*split(probes.CLIP), (None, 5.0)),
        # (self, tokens, path), as `TaggerModel.decode_all` calls it
        ("tagger", "TaggerModel.decode", (None, ["tok"], [0])),
    ],
)
def test_positional_calls_still_bind(module, attr, args):
    inspect.signature(resolve(module, attr)).bind(*args)


# Installs a traced probe as `perfbench/run.py` does, runs `metaner train`
# once with the config named by argv[1] and the test split by argv[2], and
# prints what the probe saw as the last line of standard output.
TRACED_RUN = """
import contextlib, json, sys
sys.path[:0] = [sys.argv[3], sys.argv[4]]
import metaner.cli
from metaner.corpus import read_conll
from probes import Probe

test = read_conll(sys.argv[2])
probe = Probe(traced=True, test_split=(len(test), test.examples[0].tokens))
probe.install()
run = probe.start_run()
with contextlib.redirect_stdout(sys.stderr):
    rc = metaner.cli.main(["train", "--config", sys.argv[1]])
print(json.dumps({
    "rc": rc,
    "failures": probe.failures,
    "steps": len(run.step_s),
    "test_evals": len(run.test_eval_s),
    "spans": sorted({span.name for span in probe.tracer.spans}),
}))
"""


def test_traced_probe_runs_a_tiny_training(tmp_path):
    from metaner.synthetic import write_synthetic_dataset

    paths = write_synthetic_dataset(tmp_path / "data", train=20, dev=8, test=8, seed=0)
    config = tmp_path / "run.cfg"
    config.write_text(
        "\n".join(
            [f"{key}={paths[key]}" for key in ("train", "dev", "test", "vectors", "stopwords")]
            + [f"out={tmp_path / 'out'}", "method=both", "mix_layer=encoder",
               "meta_reweight=true", "steps=4", "batch=4", "meta_batch=2", "eval_every=2",
               "model.emb_dim=12", "model.hidden=6", "seed=1"]
        ) + "\n",
        encoding="utf-8",
    )
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, "-c", TRACED_RUN, str(config), str(paths["test"]),
         str(ROOT / "src"), str(ROOT / "perfbench")],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    seen = json.loads(proc.stdout.splitlines()[-1])
    assert seen["rc"] == 0, proc.stderr
    assert seen["failures"] == []
    assert seen["steps"] == 4 and seen["test_evals"] == 1
    for name in ("encode_states", "crf_log_partition", "crf_score", "viterbi"):
        assert f"tagger.{name}" in seen["spans"], name
