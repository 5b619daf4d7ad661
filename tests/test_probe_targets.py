"""The names `perfbench/probes.py` wraps still exist and still take its calls.

`Probe.install` replaces module attributes by name and its wrappers call them
with fixed arguments, so a rename or a changed signature breaks only traced
benchmark runs. These tests read the probe's targets without installing it.
"""

import importlib
import inspect
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
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
