"""Release gate: every acceptance criterion checked at its stated tolerance.

Each test prints one PASS/FAIL verdict line directly to the terminal
(bypassing pytest capture) so the gate's outcome is readable in any run mode.
Budgeted runtimes are asserted alongside the numeric tolerances.
"""

import dataclasses
import json
import math
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import oracles
from oracles import convert_sentence, extract_spans, load_snapshot, snapshot
from metaner import autodiff as ad
from metaner.augment import (
    AugConfig,
    EntityDict,
    MixedExample,
    SynonymDict,
    build_entity_dict,
    build_synonym_dict,
    generate_augmented_set,
    mixup_loss,
    sample_mixup_pair,
    token_substitute,
)
from metaner.cli import main as cli_main
from metaner.corpus import (
    Corpus,
    LabeledSequence,
    read_conll,
    span_f1,
)
from metaner.synthetic import synthetic_corpus, write_synthetic_dataset
from metaner.vectors import read_stopword_file, read_vector_file
from metaner.tagger import (
    ModelConfig,
    TaggerModel,
    crf_log_partition,
    crf_nll,
    viterbi,
)
from metaner.trainer import TrainerConfig, TrainExample, epsilon_grad, reweight, train

REPO_ROOT = Path(__file__).resolve().parents[1]


def verdict(capsys, name: str, ok: bool, detail: str) -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}"
    with capsys.disabled():
        print(line)
    assert ok, line


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("acceptance-data")
    return write_synthetic_dataset(root, train=200, dev=50, test=50, seed=0)


def random_bioes_labels(n: int, rng: np.random.Generator, types=("PER", "LOC", "ORG")):
    """A uniformly random structurally valid BIOES sequence of length n."""
    labels = []
    pos = 0
    while pos < n:
        if rng.random() < 0.45:
            span_len = min(int(rng.integers(1, 4)), n - pos)
            etype = types[int(rng.integers(len(types)))]
            if span_len == 1:
                labels.append(f"S-{etype}")
            else:
                labels.append(f"B-{etype}")
                labels.extend(f"I-{etype}" for _ in range(span_len - 2))
                labels.append(f"E-{etype}")
            pos += span_len
        else:
            labels.append("O")
            pos += 1
    return tuple(labels)


def tiny_corpus(seed: int, n_sentences: int = 4) -> Corpus:
    rng = np.random.default_rng(seed)
    words = ["ada", "bo", "cy", "dee", "eve", "fog"]
    examples = []
    for _ in range(n_sentences):
        n = int(rng.integers(2, 5))
        tokens = tuple(words[int(rng.integers(len(words)))] for _ in range(n))
        labels = random_bioes_labels(n, rng, types=("AA", "BB"))
        examples.append(LabeledSequence(tokens, labels, "BIOES"))
    return Corpus(examples, scheme="BIOES")


class TestCrfExactness:
    def test_partition_and_viterbi_match_enumeration(self, capsys):
        rng = np.random.default_rng(0)
        t0 = time.perf_counter()
        worst = 0.0
        viterbi_exact = True
        for _ in range(200):
            n = int(rng.integers(1, 6))
            num_labels = int(rng.integers(1, 5))
            o = rng.normal(scale=2.0, size=(n, num_labels))
            t = rng.normal(scale=2.0, size=(num_labels + 1, num_labels))
            log_z = crf_log_partition(ad.constant(o), ad.constant(t)).item()
            ref = oracles.brute_log_partition(o, t)
            worst = max(worst, rel_scalar(log_z, ref))
            path = viterbi(o, t)
            decoded = oracles.brute_score(o, t, tuple(path))
            if decoded != oracles.brute_viterbi_score(o, t):
                viterbi_exact = False
        elapsed = time.perf_counter() - t0
        ok = worst <= 1e-8 and viterbi_exact and elapsed < 10.0
        verdict(
            capsys,
            "CRF exactness",
            ok,
            f"log-partition max rel err {worst:.2e} (tol 1e-8) over 200 instances, "
            f"viterbi exact={viterbi_exact}, {elapsed:.1f}s (budget 10s)",
        )


def rel_scalar(a: float, b: float) -> float:
    return abs(a - b) / max(1.0, abs(a), abs(b))


class TestGradientSoundness:
    def test_losses_match_central_differences(self, capsys):
        t0 = time.perf_counter()
        worst = 0.0
        n_models = 0

        for k in range(7):
            rng = np.random.default_rng(10 + k)
            n = int(rng.integers(1, 5))
            num_labels = int(rng.integers(2, 5))
            store = ad.ParamStore()
            store.add("o", rng.normal(size=(n, num_labels)))
            store.add("t", rng.normal(size=(num_labels + 1, num_labels)))
            labels = [int(rng.integers(num_labels)) for _ in range(n)]
            worst = max(
                worst,
                oracles.finite_diff_check(
                    lambda: crf_nll(store["o"], store["t"], labels), store
                ),
            )
            n_models += 1

        for k in range(7):
            corpus = tiny_corpus(seed=20 + k)
            model = TaggerModel.build(
                corpus, ModelConfig(emb_dim=4, hidden=3), seed=k
            )
            ex = corpus.examples[k % len(corpus)]
            worst = max(
                worst,
                oracles.finite_diff_check(
                    lambda: model.sequence_loss(
                        ex, train=True, rng=np.random.default_rng(99)
                    ),
                    model.params,
                ),
            )
            n_models += 1

        for k in range(7):
            corpus = tiny_corpus(seed=30 + k)
            model = TaggerModel.build(
                corpus, ModelConfig(emb_dim=4, hidden=3), seed=50 + k
            )
            ex1, ex2 = corpus.examples[0], corpus.examples[1]
            mx = MixedExample(ex1, ex2, lam=0.25 + 0.5 * (k / 6))
            layer = "embedding" if k % 2 == 0 else "encoder"
            worst = max(
                worst,
                oracles.finite_diff_check(
                    lambda: mixup_loss(
                        model, mx, layer, train=True, rng=np.random.default_rng(7)
                    ),
                    model.params,
                ),
            )
            n_models += 1

        elapsed = time.perf_counter() - t0
        ok = worst <= 1e-4 and n_models >= 20 and elapsed < 60.0
        verdict(
            capsys,
            "gradient soundness",
            ok,
            f"max rel err {worst:.2e} (tol 1e-4) across {n_models} tiny models "
            f"(crf nll / full model / mixup, h=1e-5), {elapsed:.1f}s (budget 60s)",
        )


class TestMixupIdentity:
    def test_loss_is_convex_combination_of_nlls(self, capsys):
        corpus = synthetic_corpus(40, seed=3)
        model = TaggerModel.build(corpus, ModelConfig(emb_dim=6, hidden=4), seed=1)
        rng = np.random.default_rng(7)
        worst = 0.0
        for _ in range(100):
            i = int(rng.integers(len(corpus)))
            j = int(rng.integers(len(corpus) - 1))
            j += j >= i
            mx = MixedExample(
                corpus.examples[i], corpus.examples[j], lam=float(rng.beta(7, 7))
            )
            y1 = model.label_indices(mx.labels_first())
            y2 = model.label_indices(mx.labels_second())

            e1 = model.lookup_embeddings(mx.first.tokens)
            e2 = model.lookup_embeddings(mx.second.tokens)
            mixed = oracles.mix_embeddings(e1, e2, mx.lam, mx.length)
            o, t = model.emissions(model.encode_states(mixed)), model.transitions()
            combo = mx.lam * crf_nll(o, t, y1).item() + (1 - mx.lam) * crf_nll(
                o, t, y2
            ).item()
            worst = max(worst, abs(mixup_loss(model, mx, "embedding").item() - combo))

            s1 = model.encode_states(e1)
            s2 = model.encode_states(e2)
            mixed_states = oracles.mix_embeddings(s1, s2, mx.lam, mx.length)
            o_enc = model.emissions(mixed_states)
            t_enc = model.transitions()
            combo_enc = mx.lam * crf_nll(o_enc, t_enc, y1).item() + (
                1 - mx.lam
            ) * crf_nll(o_enc, t_enc, y2).item()
            worst = max(worst, abs(mixup_loss(model, mx, "encoder").item() - combo_enc))

        endpoints_exact = True
        same_length = [
            (a, b)
            for a in corpus.examples
            for b in corpus.examples
            if a is not b and len(a.tokens) == len(b.tokens)
        ][:10]
        for ex1, ex2 in same_length:
            for layer in ("embedding", "encoder"):
                at_one = mixup_loss(model, MixedExample(ex1, ex2, 1.0), layer).item()
                at_zero = mixup_loss(model, MixedExample(ex1, ex2, 0.0), layer).item()
                if at_one != model.sequence_loss(ex1).item():
                    endpoints_exact = False
                if at_zero != model.sequence_loss(ex2).item():
                    endpoints_exact = False

        ok = worst <= 1e-10 and endpoints_exact and len(same_length) > 0
        verdict(
            capsys,
            "mixup identity",
            ok,
            f"max |loss - convex combination| {worst:.2e} (tol 1e-10) over 100 pairs "
            f"x 2 layers; endpoints exact={endpoints_exact}",
        )


def two_stage_fd(model, loss_builders, meta_examples, beta, i, h=1e-5):
    """Literal lookahead: perturb one example weight, step, measure meta loss."""
    params = model.params
    saved = snapshot(params)
    g_i = ad.grad(loss_builders[i](), params)

    def meta_at(eps):
        for name in g_i:
            params[name].data -= beta * eps * g_i[name]
        value = float(np.mean([model.sequence_loss(ex).item() for ex in meta_examples]))
        load_snapshot(params, saved)
        return value

    return (meta_at(h) - meta_at(-h)) / (2 * h)


class TestMetaGradient:
    """`epsilon_grad`, which the reweighted step calls, against the literal lookahead.

    Each batch mixes plain sentences with mixup pairs, mixed at the embedding
    layer in even configurations and at the encoder layer in odd ones. The
    models have dropout off, so the training-mode graphs `epsilon_grad` builds
    are the ones the finite difference measures, and each g_i it steps along
    comes from the oracle's one graph per example.
    """

    def test_closed_form_matches_two_stage_execution(self, capsys):
        worst = 0.0
        n_configs = 0
        pairs = {"embedding": 0, "encoder": 0}
        for k in range(20):
            rng = np.random.default_rng(200 + k)
            corpus = tiny_corpus(seed=60 + k, n_sentences=6)
            model = TaggerModel.build(
                corpus, ModelConfig(emb_dim=4, hidden=3, dropout=0.0), seed=100 + k
            )
            n_aug = int(rng.integers(2, 5))
            n_meta = int(rng.integers(1, 4))
            aug_exs = [
                corpus.examples[int(rng.integers(len(corpus)))] for _ in range(n_aug)
            ]
            meta_exs = [
                corpus.examples[int(rng.integers(len(corpus)))] for _ in range(n_meta)
            ]
            beta = float(10 ** rng.uniform(-2, 0))
            mix_layer = ("embedding", "encoder")[k % 2]
            batch = [TrainExample(ex, "clean", f"clean-{j}") for j, ex in enumerate(aug_exs)]
            for j in range(int(rng.integers(1, 3))):
                first, second = rng.choice(len(corpus), size=2, replace=False)
                mx = MixedExample(
                    corpus.examples[first], corpus.examples[second], float(rng.uniform())
                )
                at = int(rng.integers(len(batch) + 1))
                batch.insert(at, TrainExample(mx, "mixup", f"mixup-{j}"))
                pairs[mix_layer] += 1
            eps, _, _ = epsilon_grad(model, batch, meta_exs, beta, mix_layer, rng)
            builders = [
                lambda item=item: oracles.example_loss(model, item, mix_layer) for item in batch
            ]
            for i in range(len(batch)):
                fd = two_stage_fd(model, builders, meta_exs, beta, i)
                worst = max(worst, rel_scalar(float(eps[i]), fd))
            n_configs += 1

            w = reweight(eps, delta=1e-8)
            sigma = 1.0 / (1.0 + np.exp(eps))
            assert np.max(np.abs(w.w_hat - sigma)) <= 1e-15
            expected_sum = w.w_hat.sum() / (w.w_hat.sum() + 1e-8)
            assert abs(w.w.sum() - expected_sum) <= 1e-14

        hand = reweight(np.array([-math.log(3), math.log(3)]))
        hand_ok = np.max(np.abs(hand.w_hat - np.array([0.75, 0.25]))) <= 1e-12

        ok = worst <= 1e-4 and n_configs >= 20 and min(pairs.values()) > 0 and hand_ok
        verdict(
            capsys,
            "meta-gradient correctness",
            ok,
            f"max rel err {worst:.2e} (tol 1e-4) over {n_configs} configurations "
            f"({pairs['embedding']} embedding-mixup and {pairs['encoder']} "
            f"encoder-mixup pairs); "
            f"sigmoid/normalization identities at machine precision; "
            f"hand case (0.75, 0.25) ok={hand_ok}",
        )


class TestSamplerStatistics:
    def test_mixing_coefficient_moments(self, capsys):
        corpus = synthetic_corpus(10, seed=0)
        cfg = AugConfig(alpha=7.0)
        rng = np.random.default_rng(42)
        lams = np.array(
            [sample_mixup_pair(corpus, cfg, rng).lam for _ in range(10_000)]
        )
        mean = float(lams.mean())
        var = float(lams.var())
        target_var = 1.0 / 60.0
        mean_ok = abs(mean - 0.5) <= 0.02
        var_ok = abs(var - target_var) <= 0.2 * target_var
        ok = mean_ok and var_ok
        verdict(
            capsys,
            "sampler statistics (mixing coefficient)",
            ok,
            f"Beta(7,7) over 10k draws: mean {mean:.4f} (0.5 +/- 0.02), "
            f"var {var:.5f} (1/60 +/- 20%)",
        )

    def test_entity_substitution_share(self, capsys):
        ex = LabeledSequence(("alice", "runs"), ("S-PER", "O"), "BIOES")
        edict = EntityDict({"PER": [("bob",), ("carol",)]})
        sdict = SynonymDict({"runs": [("jogs", 1.0), ("walks", 0.9)]})
        cfg = AugConfig(gamma=0.2, p_sub=0.6)
        rng = np.random.default_rng(1)
        spans = extract_spans(ex)
        entity_ops = 0
        total_ops = 0
        while total_ops < 5000:
            sub = token_substitute(ex, edict, sdict, cfg, rng, spans)
            if sub is None:
                continue
            for r in sub.replacements:
                total_ops += 1
                entity_ops += r.kind == "entity"
        share = entity_ops / total_ops
        ok = abs(share - 0.2) <= 0.03
        verdict(
            capsys,
            "sampler statistics (entity substitution share)",
            ok,
            f"entity share {share:.4f} over {total_ops} operations (0.2 +/- 0.03)",
        )


class TestSchemeScoring:
    def test_round_trip_and_f1_hand_case(self, capsys):
        rng = np.random.default_rng(9)
        round_trip_ok = True
        for _ in range(1000):
            n = int(rng.integers(1, 13))
            bioes = random_bioes_labels(n, rng)
            seq = LabeledSequence(("w",) * n, bioes, "BIOES")
            as_bio = convert_sentence(seq, "BIO")
            back = convert_sentence(as_bio, "BIOES")
            if back.labels != bioes:
                round_trip_ok = False
            if convert_sentence(back, "BIO").labels != as_bio.labels:
                round_trip_ok = False

        gold = [["S-PER", "O", "S-LOC", "O"]]
        pred = [["S-PER", "O", "O", "S-ORG"]]
        metrics = span_f1(pred, gold, scheme="BIOES")
        hand_ok = (
            metrics["precision"] == 0.5
            and metrics["recall"] == 0.5
            and metrics["f1"] == 0.5
        )
        ok = round_trip_ok and hand_ok
        verdict(
            capsys,
            "scheme/scoring correctness",
            ok,
            f"BIO<->BIOES round-trip identity on 1000 sequences ok={round_trip_ok}; "
            f"span F1 hand case 0.5/0.5/0.5 ok={hand_ok}",
        )


_TYPE_ROTATION = {"PER": "LOC", "LOC": "ORG", "ORG": "PER"}


def rotate_entity_types(labels):
    out = []
    for lab in labels:
        if lab == "O":
            out.append(lab)
        else:
            prefix, _, etype = lab.partition("-")
            out.append(f"{prefix}-{_TYPE_ROTATION[etype]}")
    return tuple(out)


def corrupted_weight_means(seed: int, vector_path, stopword_path, steps: int = 150):
    """Train with half the pseudo labels corrupted; return weight means.

    Returns (mean weight of uncorrupted pseudo examples, mean weight of
    corrupted ones), both measured after the first third of training.
    """
    corpus = synthetic_corpus(200, seed=seed)
    edict = build_entity_dict(corpus)
    sdict = build_synonym_dict(vector_path, k=5, stopwords=read_stopword_file(stopword_path))
    pseudo = list(
        generate_augmented_set(
            corpus,
            AugConfig(times=2),
            seed=seed,
            edict=edict,
            sdict=sdict,
            use_ts=True,
            use_mixup=False,
        )
    )
    rng = np.random.default_rng(seed + 1000)
    corrupted = set(
        int(j) for j in rng.choice(len(pseudo), len(pseudo) // 2, replace=False)
    )
    for j in corrupted:
        p = pseudo[j]
        ex = p.example
        pseudo[j] = dataclasses.replace(
            p,
            example=LabeledSequence(
                ex.tokens, rotate_entity_types(ex.labels), ex.scheme
            ),
        )
    model = TaggerModel.build(
        corpus,
        ModelConfig(emb_dim=12, hidden=16),
        seed=seed,
        vectors=read_vector_file(vector_path),
    )
    cfg = TrainerConfig(
        steps=steps,
        m=8,
        n=16,
        eval_every=steps,
        seed=seed,
        meta_reweight=True,
        lr=3e-3,
        beta=1.0,
    )
    result = train(model, corpus, pseudo, None, cfg)
    cutoff = steps / 3
    clean_ws, corrupt_ws = [], []
    for step, ident, provenance, w in result.weight_rows:
        if provenance != "ts" or step <= cutoff:
            continue
        j = int(ident.split("-", 1)[1])
        (corrupt_ws if j in corrupted else clean_ws).append(w)
    return float(np.mean(clean_ws)), float(np.mean(corrupt_ws))


class TestNoiseDiscrimination:
    def test_corrupted_pseudo_examples_get_lower_weight(self, capsys, dataset):
        t0 = time.perf_counter()
        outcomes = []
        for seed in range(5):
            clean_mean, corrupt_mean = corrupted_weight_means(
                seed, dataset["vectors"], dataset["stopwords"]
            )
            outcomes.append(corrupt_mean < clean_mean)
        elapsed = time.perf_counter() - t0
        passes = sum(outcomes)
        ok = passes >= 4 and elapsed < 600.0
        verdict(
            capsys,
            "noise discrimination",
            ok,
            f"corrupted mean weight below uncorrupted in {passes}/5 seeded runs "
            f"(need >=4), {elapsed:.0f}s (budget 600s)",
        )


class TestAblationAndBaseline:
    def test_all_conditions_run_and_baseline_learns(
        self, capsys, dataset, tmp_path
    ):
        out = tmp_path / "grid"
        proc = subprocess.run(
            [
                sys.executable,
                str(REPO_ROOT / "scripts" / "run_ablations.py"),
                "--out", str(out),
                "--train-size", "400",
                "--fraction", "0.05",
                "--steps", "10",
                "--batch", "4",
                "--meta-batch", "2",
                "--hidden", "8",
            ],
            capture_output=True,
            text=True,
            timeout=240,
        )
        assert proc.returncode == 0, proc.stderr
        results = json.loads((out / "ablation_results.json").read_text())
        expected = {
            "baseline", "baseline+mr", "ts", "ts+mr", "mixup", "mixup+mr", "both+mr",
        }
        plumbing_ok = (
            set(results) == expected
            and all((out / "configs" / f"{c}.cfg").exists() for c in expected)
            and len({frozenset(results[c]["dev"]) for c in expected}) == 1
        )

        t0 = time.perf_counter()
        corpus = read_conll(dataset["train"])
        dev = read_conll(dataset["dev"])
        model = TaggerModel.build(
            corpus,
            ModelConfig(emb_dim=12, hidden=16),
            seed=0,
            vectors=read_vector_file(dataset["vectors"]),
        )
        cfg = TrainerConfig(
            steps=250, m=4, n=16, eval_every=50, seed=0, meta_reweight=False, lr=5e-3
        )
        result = train(
            model, corpus, [], dev, cfg, checkpoint_path=tmp_path / "baseline.ckpt"
        )
        elapsed = time.perf_counter() - t0
        baseline_ok = result.best_dev_f1 >= 0.80 and elapsed < 300.0

        ok = plumbing_ok and baseline_ok
        verdict(
            capsys,
            "ablation plumbing + baseline quality",
            ok,
            f"7/7 conditions produced comparable metrics ok={plumbing_ok}; "
            f"baseline dev F1 {result.best_dev_f1:.3f} (need >=0.80) "
            f"in {elapsed:.0f}s (budget 300s)",
        )


class TestDeterminism:
    def test_identical_seeds_identical_metrics_files(
        self, capsys, dataset, tmp_path
    ):
        artifacts = []
        for name in ("first", "second"):
            out = tmp_path / name
            config = tmp_path / f"{name}.cfg"
            config.write_text(
                "\n".join(
                    [
                        f"train={dataset['train']}",
                        f"dev={dataset['dev']}",
                        f"test={dataset['test']}",
                        f"vectors={dataset['vectors']}",
                        f"stopwords={dataset['stopwords']}",
                        f"out={out}",
                        "method=both",
                        "seed=5",
                        "model.emb_dim=12",
                        "model.hidden=6",
                        "steps=6",
                        "batch=4",
                        "meta_batch=2",
                        "eval_every=3",
                    ]
                )
                + "\n",
                encoding="utf-8",
            )
            assert cli_main(["train", "--config", str(config)]) == 0
            assert (
                cli_main(
                    ["eval", "--model", str(out / "model.ckpt"), "--data", str(dataset["test"])]
                )
                == 0
            )
            artifacts.append(out)

        first, second = artifacts
        files = (
            "summary.json",
            "history.jsonl",
            "weights.tsv",
            "model.ckpt",
            "metrics_test.json",
        )
        mismatched = [
            name
            for name in files
            if (first / name).read_bytes() != (second / name).read_bytes()
        ]
        ok = not mismatched
        verdict(
            capsys,
            "determinism",
            ok,
            "identical seeds gave bitwise-identical artifacts "
            f"({', '.join(files)})"
            + (f"; MISMATCH in {mismatched}" if mismatched else ""),
        )
