#!/usr/bin/env python3
"""Benchmark of `metaner train`, end to end and layer by layer.

    python3 perfbench/run.py --workload conll-meta --seed 1 --seconds 36 --trace 0

Run from the root of a checkout. The benchmark writes the workload's inputs
(generated from --seed) under .perfbench-work/, then calls
`metaner.cli.main(["train", "--config", ...])` in this process again and again.
It stops at the training run that brings its length closest to --seconds.
There is one closed-loop caller, the training loop, which waits on every step. BLAS is pinned to one thread. With --trace 0 it prints
the end-to-end metrics; with --trace 1 it traces every other step and prints
the per-layer metrics. The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}. The line before it stamps the
environment and gives the checked values.

Exit codes: 0 when a result was printed, 2 when the program under test
cannot be found or imported.
"""

import os

# Must precede the first numpy import, here and in the program under test.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import hashlib
import json
import math
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"

sys.path.insert(0, str(HERE))

from probes import Probe  # noqa: E402
from spans import ancestors, self_times  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def import_program():
    """Import metaner from this checkout's src/, never from anywhere else."""
    if not (SRC / "metaner" / "cli.py").is_file():
        raise ImportError(f"no metaner sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import metaner.cli

    if Path(metaner.cli.__file__).resolve().parent != SRC / "metaner":
        raise ImportError(f"metaner imported from {metaner.cli.__file__}, not {SRC}")
    return metaner.cli


def source_digest(directory: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(directory.glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def git_revision() -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def blas_threads() -> int | None:
    """Threads the bundled OpenBLAS will use, if numpy ships one we can ask."""
    import ctypes

    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*.so*")):
        dll = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(dll, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(seed: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_revision": git_revision(),
        "source_sha256": source_digest(SRC / "metaner"),
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "seed": seed,
    }


def first_sentence(path: Path) -> tuple[int, tuple[str, ...]]:
    """Sentence count and first sentence's tokens of a CoNLL file."""
    count, first, tokens = 0, None, []
    for line in path.read_text(encoding="utf-8").splitlines() + [""]:
        if line.strip():
            tokens.append(line.split()[0])
        elif tokens:
            count += 1
            first = first or tuple(tokens)
            tokens = []
    return count, first


def loss_trace_digest(losses: list[float]) -> str:
    return hashlib.sha256(",".join(repr(x) for x in losses).encode()).hexdigest()


def check_loss_record(key: str, digest: str) -> str | None:
    """Compare with the digest an earlier process recorded for the same key."""
    path = WORK / "loss_traces.json"
    records = json.loads(path.read_text()) if path.exists() else {}
    known = records.get(key)
    if known is None:
        records[key] = digest
        path.write_text(json.dumps(records, indent=1, sort_keys=True) + "\n")
    elif known != digest:
        return f"loss trace {digest[:12]} differs from earlier run's {known[:12]} ({key})"
    return None


def metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def end_to_end(probe: Probe, peak_rss_mb: float) -> dict:
    runs = [r for r in probe.runs if r.first_step is not None]
    steps = [s for r in runs for s in r.step_s]
    test_s = sum(s for r in runs for s in r.test_eval_s)
    return {
        "setup_s": metric(statistics.median(r.first_step - r.entry for r in runs), "s"),
        "step_ms.p50": metric(1e3 * statistics.median(steps), "ms"),
        "train_tok_per_s": metric(
            sum(t for r in runs for t in r.step_tokens) / sum(steps), "tokens/s"
        ),
        "decode_sent_per_s": metric(sum(r.test_sentences for r in runs) / test_s, "sentences/s"),
        "peak_rss_mb": metric(peak_rss_mb, "MB"),
    }


def per_layer(probe: Probe) -> dict:
    spans = probe.tracer.spans
    own = self_times(spans)
    c = probe.counters
    n_runs = len(probe.runs)
    step_ids = {i for i, s in enumerate(spans) if s.name == "trainer.meta_train_step"}
    n_steps = len(step_ids)
    n_decodes = sum(1 for s in spans if s.name == "tagger.decode")

    total: dict[str, float] = {}  # self time over the whole run
    in_step: dict[str, float] = {}  # self time of traced steps and their callees
    step_calls: dict[str, int] = {}
    decode_path: dict[str, float] = {}  # inclusive time inside decode calls
    for i, span in enumerate(spans):
        total[span.name] = total.get(span.name, 0.0) + own[i]
        above = list(ancestors(spans, i))
        if i in step_ids or any(a in step_ids for a in above):
            in_step[span.name] = in_step.get(span.name, 0.0) + own[i]
            step_calls[span.name] = step_calls.get(span.name, 0) + 1
        elif any(spans[a].name == "tagger.decode" for a in above):
            decode_path[span.name] = decode_path.get(span.name, 0.0) + span.end - span.start

    def ms_per_step(name):
        return metric(1e3 * in_step.get(name, 0.0) / n_steps, "ms")

    def s_per_run(name):
        return metric(total.get(name, 0.0) / n_runs, "s")

    def ms_per_sent(name):
        return metric(1e3 * decode_path.get(name, 0.0) / n_decodes, "ms")

    def ratio(hits, calls):
        return metric(hits / calls if calls else 0.0, "ratio")

    test_evals = probe.test_eval_spans
    span_f1 = [i for i, s in enumerate(spans) if s.name == "corpus.span_f1"
               and s.parent in test_evals]
    steps = [(s, traced) for r in probe.runs for s, traced in zip(r.step_s, r.step_traced)]
    traced_p50 = statistics.median(s for s, traced in steps if traced)
    plain_p50 = statistics.median(s for s, traced in steps if not traced)
    return {
        "autodiff.grad.ms_per_step": ms_per_step("autodiff.grad"),
        "autodiff.grad.calls_per_step": metric(
            step_calls.get("autodiff.grad", 0) / n_steps, "calls"),
        "autodiff.graph_nodes_per_token": metric(c.graph_nodes / c.graph_tokens, "nodes"),
        "autodiff.grad_bytes_per_step": metric(c.grad_bytes / n_steps, "bytes"),
        "autodiff.gradmap_dot.ms_per_step": ms_per_step("autodiff.gradmap_dot"),
        "autodiff.combine.ms_per_step": ms_per_step("autodiff.combine"),
        "trainer.epsilon_grad.ms_per_step": ms_per_step("trainer.epsilon_grad"),
        "tagger.lookup_embeddings.ms_per_step": ms_per_step("tagger.lookup_embeddings"),
        "tagger.encode_states.ms_per_step": ms_per_step("tagger.encode_states"),
        "tagger.emissions.ms_per_step": ms_per_step("tagger.emissions"),
        "tagger.crf_log_partition.ms_per_step": ms_per_step("tagger.crf_log_partition"),
        "tagger.crf_score.ms_per_step": ms_per_step("tagger.crf_score"),
        "tagger.forward.ms_per_sent": ms_per_sent("tagger.forward"),
        "tagger.viterbi.ms_per_sent": ms_per_sent("tagger.viterbi"),
        "augment.mixup_loss.ms_per_step": ms_per_step("augment.mixup_loss"),
        "augment.generate_augmented_set.s": s_per_run("augment.generate_augmented_set"),
        "augment.build_synonym_dict.s": s_per_run("augment.build_synonym_dict"),
        "vectors.read_vector_file.s": s_per_run("vectors.read_vector_file"),
        "corpus.read_conll.s": s_per_run("corpus.read_conll"),
        "augment.token_substitute.accept_ratio": ratio(
            c.substitute_accepted, c.substitute_calls),
        "trainer.meta_train_step.self_ms": ms_per_step("trainer.meta_train_step"),
        "trainer.evaluate.s": metric(
            statistics.mean(spans[i].end - spans[i].start for i in test_evals), "s"),
        "corpus.span_f1.ms": metric(
            1e3 * statistics.mean(spans[i].end - spans[i].start for i in span_f1), "ms"),
        "optim.adamw_step.ms_per_step": ms_per_step("optim.adamw_step"),
        "optim.clip_global_norm.ms_per_step": ms_per_step("optim.clip_global_norm"),
        "optim.clip_fired_share": ratio(c.clip_fired, c.clip_calls),
        "tracing_overhead": metric(traced_p50 / plain_p50 - 1.0, "ratio"),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    workload = WORKLOADS[args.workload]

    try:
        cli = import_program()
    except ImportError as exc:
        print(f"perfbench: cannot import the program under test: {exc}", file=sys.stderr)
        return 2

    work = WORK / workload.name  # reused by every run of the workload, to bound disk use
    paths = workload.write_inputs(args.seed, work / "data")
    config = work / "run.cfg"
    config.write_text(workload.config_text(args.seed, paths, work / "out"), encoding="utf-8")

    probe = Probe(traced=bool(args.trace), test_split=first_sentence(paths["test"]))
    probe.install()

    checked = {"final_loss": None, "dev_f1": None, "dev_f1_floor": workload.dev_f1_floor}
    digests = set()
    peak_rss_mb = None
    t_start = time.perf_counter()
    while True:
        run = probe.start_run()
        try:
            with contextlib.redirect_stdout(sys.stderr):
                rc = cli.main(["train", "--config", str(config)])
        except Exception as exc:  # report it as a failed run, with its traceback
            traceback.print_exc()
            probe.fail(f"metaner train raised {type(exc).__name__}: {exc}")
            break
        if rc != 0:
            probe.fail(f"metaner train exited with {rc} in run {len(probe.runs)}")
            break
        if len(run.losses) != workload.steps or not run.test_eval_s:
            probe.fail(f"run {len(probe.runs)} made {len(run.losses)} of {workload.steps} "
                       f"steps and {len(run.test_eval_s)} test evaluations")
            break
        summary = json.loads((work / "out" / "summary.json").read_text())
        checked["final_loss"] = run.losses[-1]
        checked["dev_f1"] = summary["best_dev_f1"]
        if not math.isfinite(run.losses[-1]):
            probe.fail(f"final loss {run.losses[-1]!r} is not finite")
        floor = workload.dev_f1_floor
        if floor is not None and summary["best_dev_f1"] < floor:
            probe.fail(f"dev F1 {summary['best_dev_f1']:.4f} below the floor {floor}")
        digests.add(loss_trace_digest(run.losses))
        if peak_rss_mb is None:  # what one `metaner train` process would reach
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        # Stop where the run ends closest to --seconds.
        elapsed = time.perf_counter() - t_start
        if elapsed * (len(probe.runs) + 0.5) / len(probe.runs) > args.seconds:
            break

    if len(digests) > 1:
        probe.fail(f"runs with one seed gave {len(digests)} different loss traces")
    elif digests:
        digest = digests.pop()
        checked["loss_trace_sha256"] = digest
        sources = source_digest(SRC / "metaner")[:16] + source_digest(HERE)[:16]
        key = f"{workload.name}/seed{args.seed}/{sources}"
        problem = check_loss_record(key, digest)
        if problem:
            probe.fail(problem)

    measured = peak_rss_mb is not None
    metrics = {}
    if measured:
        metrics = per_layer(probe) if args.trace else end_to_end(probe, peak_rss_mb)
    if args.trace:
        probe.tracer.write(work / "trace.jsonl")
    steps = sum(len(r.step_s) for r in probe.runs)
    print(json.dumps({
        "workload": workload.name,
        "trace": args.trace,
        "environment": environment(args.seed),
        "runs": len(probe.runs),
        "steps": steps,
        "test_sentences": sum(r.test_sentences for r in probe.runs),
        "fail_share": len(probe.failures) / max(probe.attempted, 1),
        "checked": checked,
        "failures": probe.failures[:10],
    }, sort_keys=True))
    print(json.dumps({
        "correct": measured and not probe.failures,
        "attempted": max(probe.attempted, 1),
        "failed": min(len(probe.failures), max(probe.attempted, 1)),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
