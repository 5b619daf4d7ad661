"""Instrumentation of metaner from outside its source tree.

`Probe.install` replaces public functions and methods of the metaner modules
with wrappers, in every module namespace that bound them, so that the calls
`metaner.cli.main` makes go through the wrappers. Nothing under `src/` is
edited.

Every run times each training step, the test-split `evaluate`, and set-up
(from `main()` entry to the first step), and checks the step and decode
outputs. A traced run also records a span around each call into a layer,
and the counts that the per-layer metrics need. It traces every other step,
so the untraced steps of the same run give the baseline for the tracing
overhead.
"""

from __future__ import annotations

import inspect
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from spans import Tracer

# (module, attribute, span name); an attribute "Class.method" is a method.
LAYER_CALLS = (
    ("autodiff", "grad", "autodiff.grad"),
    ("autodiff", "GradientMap.dot", "autodiff.gradmap_dot"),
    ("autodiff", "combine", "autodiff.combine"),
    ("trainer", "epsilon_grad", "trainer.epsilon_grad"),
    ("tagger", "TaggerModel.lookup_embeddings", "tagger.lookup_embeddings"),
    ("tagger", "TaggerModel.encode_states", "tagger.encode_states"),
    ("tagger", "TaggerModel.emissions", "tagger.emissions"),
    ("tagger", "TaggerModel.forward", "tagger.forward"),
    ("tagger", "crf_log_partition", "tagger.crf_log_partition"),
    ("tagger", "crf_score", "tagger.crf_score"),
    ("tagger", "viterbi", "tagger.viterbi"),
    ("augment", "mixup_loss", "augment.mixup_loss"),
    ("augment", "generate_augmented_set", "augment.generate_augmented_set"),
    ("augment", "build_synonym_dict", "augment.build_synonym_dict"),
    ("vectors", "read_vector_file", "vectors.read_vector_file"),
    ("corpus", "read_conll", "corpus.read_conll"),
    ("corpus", "span_f1", "corpus.span_f1"),
    ("optim", "adamw_step", "optim.adamw_step"),
)
STEP = "trainer.meta_train_step"
EVALUATE = "trainer.evaluate"
DECODE = "tagger.decode"
CLIP = "optim.clip_global_norm"


def _module(name: str):
    return sys.modules[f"metaner.{name}"]


def _replace(module_name: str, attr: str, make_wrapper) -> None:
    """Swap `module.attr` for make_wrapper(original) wherever it is bound."""
    owner = _module(module_name)
    if "." in attr:
        cls_name, method = attr.split(".")
        cls = getattr(owner, cls_name)
        setattr(cls, method, make_wrapper(getattr(cls, method)))
        return
    original = getattr(owner, attr)
    wrapper = make_wrapper(original)
    for name, module in list(sys.modules.items()):
        if name.startswith("metaner.") and module is not None:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapper)


def graph_nodes(root) -> int:
    """Distinct tensors reachable from `root` through `Tensor.parents`."""
    seen = {id(root)}
    todo = [root]
    while todo:
        for parent in todo.pop().parents:
            if id(parent) not in seen:
                seen.add(id(parent))
                todo.append(parent)
    return len(seen)


@dataclass
class RunRecord:
    """What one `metaner train` call measured."""

    entry: float
    first_step: float | None = None
    step_s: list[float] = field(default_factory=list)
    step_traced: list[bool] = field(default_factory=list)
    step_tokens: list[int] = field(default_factory=list)
    losses: list[float] = field(default_factory=list)
    test_eval_s: list[float] = field(default_factory=list)
    test_sentences: int = 0


@dataclass
class Counters:
    """Counts taken at layer boundaries during traced steps and set-up."""

    grad_bytes: int = 0
    graph_nodes: int = 0
    graph_tokens: int = 0
    substitute_calls: int = 0
    substitute_accepted: int = 0
    clip_calls: int = 0
    clip_fired: int = 0


class Probe:
    def __init__(self, traced: bool, test_split: tuple[int, tuple[str, ...]]):
        self.traced = traced
        self.tracer = Tracer()
        self.tracer.on = traced
        self.counters = Counters()
        self.runs: list[RunRecord] = []
        self.attempted = 0
        self.failures: list[str] = []
        self.test_eval_spans: list[int] = []
        self._test_split = test_split
        self._in_step = False

    # --- bookkeeping ---------------------------------------------------------

    def start_run(self) -> RunRecord:
        self.tracer.run = len(self.runs)
        record = RunRecord(entry=time.perf_counter())
        self.runs.append(record)
        return record

    def fail(self, message: str) -> None:
        self.failures.append(message)

    def _span(self, name: str, fn):
        tracer = self.tracer

        def wrapper(*args, **kwargs):
            if not tracer.on:
                return fn(*args, **kwargs)
            index = tracer.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close(index)

        return wrapper

    # --- installation --------------------------------------------------------

    def install(self) -> None:
        _replace("trainer", "meta_train_step", self._wrap_step)
        _replace("trainer", "evaluate", self._wrap_evaluate)
        _replace("tagger", "TaggerModel.decode", self._wrap_decode)
        if not self.traced:
            return
        for module, attr, name in LAYER_CALLS:
            _replace(module, attr, lambda fn, name=name: self._span(name, fn))
        _replace("autodiff", "grad", self._wrap_grad)
        _replace("optim", "clip_global_norm", self._wrap_clip)
        _replace("augment", "token_substitute", self._wrap_substitute)

    def _wrap_step(self, fn):
        signature = inspect.signature(fn)
        traced_fn = self._span(STEP, fn)
        trainer = _module("trainer")

        def step(*args, **kwargs):
            entered = time.perf_counter()
            run = self.runs[-1]
            call = signature.bind(*args, **kwargs)
            call.apply_defaults()
            p = call.arguments
            if run.first_step is None:
                run.first_step = entered
                if self.traced:
                    self._count_graph_nodes(p, trainer)
            tokens = sum(_tokens(item.payload) for item in p["aug_batch"])
            if p["cfg"].meta_reweight:
                tokens += sum(len(ex) for ex in p["meta_batch"])
            # Alternate by step and by run, so that over two runs every step
            # index (hence every batch) is timed both traced and untraced.
            traced = self.traced and (len(run.step_s) + len(self.runs)) % 2 == 1
            self.tracer.on = traced
            self._in_step = traced
            self.attempted += 1
            try:
                t0 = time.perf_counter()
                weights, loss = (traced_fn if traced else fn)(*args, **kwargs)
                elapsed = time.perf_counter() - t0
            except Exception as exc:
                self.fail(f"step {len(run.step_s) + 1}: {type(exc).__name__}: {exc}")
                raise
            finally:
                self.tracer.on = self.traced
                self._in_step = False
            run.step_s.append(elapsed)
            run.step_traced.append(traced)
            run.step_tokens.append(tokens)
            run.losses.append(loss)
            problem = _check_step(weights.w, loss, p["cfg"].meta_reweight)
            if problem:
                self.fail(f"step {len(run.step_s)}: {problem}")
            return weights, loss

        return step

    def _count_graph_nodes(self, p: dict, trainer) -> None:
        """Build the first step's losses with a private generator and count nodes."""
        rng = np.random.default_rng(0)
        model = p["model"]
        self.tracer.on = False
        try:
            for item in p["aug_batch"]:
                loss = trainer.example_loss(model, item, p["mix_layer"], True, rng)
                self.counters.graph_nodes += graph_nodes(loss)
                self.counters.graph_tokens += _tokens(item.payload)
            if p["cfg"].meta_reweight:
                for ex in p["meta_batch"]:
                    loss = model.sequence_loss(ex, True, rng)
                    self.counters.graph_nodes += graph_nodes(loss)
                    self.counters.graph_tokens += len(ex)
        finally:
            self.tracer.on = self.traced

    def _wrap_evaluate(self, fn):
        traced_fn = self._span(EVALUATE, fn)
        n_test, first_test = self._test_split

        def evaluate(model, corpus, *args, **kwargs):
            span = len(self.tracer.spans) if self.tracer.on else None
            t0 = time.perf_counter()
            out = traced_fn(model, corpus, *args, **kwargs)
            elapsed = time.perf_counter() - t0
            if len(corpus) == n_test and corpus.examples[0].tokens == first_test:
                if span is not None:
                    self.test_eval_spans.append(span)
                run = self.runs[-1]
                run.test_eval_s.append(elapsed)
                run.test_sentences += n_test
            return out

        return evaluate

    def _wrap_decode(self, fn):
        traced_fn = self._span(DECODE, fn)

        def decode(model, tokens, *args, **kwargs):
            self.attempted += 1
            labels = traced_fn(model, tokens, *args, **kwargs)
            if len(labels) != len(tokens):
                self.fail(f"decode returned {len(labels)} labels for {len(tokens)} tokens")
            elif not set(labels) <= set(model.label_vocab):
                self.fail(f"decode returned labels outside the vocabulary: {labels}")
            return labels

        return decode

    def _wrap_grad(self, fn):
        def grad(*args, **kwargs):
            out = fn(*args, **kwargs)
            if self._in_step:
                self.counters.grad_bytes += sum(a.nbytes for a in out.values())
            return out

        return grad

    def _wrap_clip(self, fn):
        traced_fn = self._span(CLIP, fn)

        def clip(grads, *args, **kwargs):
            out = traced_fn(grads, *args, **kwargs)
            if self._in_step:
                self.counters.clip_calls += 1
                self.counters.clip_fired += out is not grads
            return out

        return clip

    def _wrap_substitute(self, fn):
        def token_substitute(*args, **kwargs):
            out = fn(*args, **kwargs)
            self.counters.substitute_calls += 1
            self.counters.substitute_accepted += out is not None
            return out

        return token_substitute


def _tokens(payload) -> int:
    """Sentence length; a mixup pair counts its padded length."""
    return payload.length if hasattr(payload, "length") else len(payload)


def _check_step(w: np.ndarray, loss: float, meta_reweight: bool) -> str | None:
    if not np.isfinite(loss):
        return f"non-finite loss {loss!r}"
    if not np.all(np.isfinite(w)) or np.any(w < 0):
        return f"weights not finite and non-negative: {w.tolist()}"
    if meta_reweight:
        total = float(w.sum())
        if not 1.0 - 1e-6 < total <= 1.0:
            return f"reweighted weights sum to {total!r}, outside (1 - 1e-6, 1]"
    elif not np.all(w == 1.0 / len(w)):
        return f"uniform weights expected, got {w.tolist()}"
    return None
