"""Lookahead weight gradients, reweighting, and the training loop."""

import json
import tracemalloc

import numpy as np
import pytest

from oracles import dense_adamw_step, dense_combine, rel_err

from metaner import autodiff as ad
from metaner import trainer as trainer_mod
from metaner.autodiff import NumericError, grad
from metaner.augment import AugConfig, MixedExample, generate_augmented_set
from metaner.corpus import Corpus, LabeledSequence
from metaner.tagger import ModelConfig, TaggerModel
from metaner.trainer import (
    TrainerConfig,
    TrainExample,
    WeightVector,
    build_pool,
    epsilon_grad,
    evaluate,
    example_loss,
    meta_train_step,
    read_weight_rows,
    reweight,
    train,
)
from metaner.optim import AdamWState


def seq(tokens, labels):
    return LabeledSequence(tuple(tokens), tuple(labels), scheme="BIOES")


def toy_corpus():
    return Corpus(
        [
            seq(["john", "smith", "visits", "paris"], ["B-PER", "E-PER", "O", "S-LOC"]),
            seq(["acme", "hires", "mary"], ["S-ORG", "O", "S-PER"]),
            seq(["mary", "likes", "rome"], ["S-PER", "O", "S-LOC"]),
            seq(["acme", "opened"], ["S-ORG", "O"]),
        ]
    )


def toy_model(seed=0, dropout=0.0):
    return TaggerModel.build(
        toy_corpus(), ModelConfig(emb_dim=3, hidden=2, dropout=dropout), seed=seed
    )


def two_stage_fd(model, loss_builders, meta_examples, beta, i, h=1e-5):
    """Literal lookahead: perturb one example weight, step, measure meta loss."""
    params = model.params
    snapshot = params.snapshot()
    g_i = grad(loss_builders[i](), params)

    def meta_at(eps):
        for name in g_i:
            params[name].data -= beta * eps * g_i[name]
        value = float(
            np.mean([model.sequence_loss(ex).data for ex in meta_examples])
        )
        params.load_snapshot(snapshot)
        return value

    return (meta_at(h) - meta_at(-h)) / (2 * h)


class TestTrainerConfig:
    def test_inner_lr_defaults_to_lr(self):
        assert TrainerConfig(lr=0.01).inner_lr == 0.01
        assert TrainerConfig(lr=0.01, beta=0.5).inner_lr == 0.5

    @pytest.mark.parametrize(
        "kw",
        [
            {"steps": -1},
            {"m": 0},
            {"n": 0},
            {"lr": 0.0},
            {"beta": -1.0},
            {"delta": 0.0},
            {"eval_every": 0},
        ],
    )
    def test_invalid_values_rejected(self, kw):
        with pytest.raises(ValueError):
            TrainerConfig(**kw)


class TestEpsilonGrad:
    def test_identical_example_gives_negative_norm_squared(self):
        model = toy_model()
        ex = toy_corpus().examples[0]
        beta = 0.2
        eg = epsilon_grad(
            model.params,
            [model.sequence_loss(ex)],
            [model.sequence_loss(ex)],
            beta,
        )
        g = grad(model.sequence_loss(ex), model.params)
        want = -beta * g.global_norm() ** 2
        assert abs(eg.values[0] - want) < 1e-12
        assert eg.values[0] < 0
        assert reweight(eg).w_hat[0] > 0.5

    def test_orthogonal_gradients_give_zero(self):
        store = ad.ParamStore()
        store.add("x", np.array([1.0, 2.0]))
        aug = [ad.pick(store["x"], 0)]
        meta = [ad.pick(store["x"], 1)]
        eg = epsilon_grad(store, aug, meta, beta=0.5)
        assert eg.values[0] == 0.0
        assert reweight(eg).w_hat[0] == 0.5

    def test_antisymmetric_in_example_gradient(self):
        model = toy_model()
        corpus = toy_corpus()
        loss = model.sequence_loss(corpus.examples[0])
        eg = epsilon_grad(
            model.params,
            [loss, ad.scale(model.sequence_loss(corpus.examples[0]), -1.0)],
            [model.sequence_loss(corpus.examples[1])],
            beta=0.3,
        )
        assert abs(eg.values[0] + eg.values[1]) < 1e-15

    def test_matches_two_stage_finite_differences(self):
        corpus = toy_corpus()
        for seed in range(3):
            model = toy_model(seed=seed)
            mx = MixedExample(corpus.examples[0], corpus.examples[1], lam=0.35)
            builders = [
                lambda: model.sequence_loss(corpus.examples[2]),
                lambda: example_loss(
                    model, TrainExample(mx, "mixup", "mixup-0"), train=False
                ),
            ]
            meta_examples = [corpus.examples[1], corpus.examples[3]]
            beta = 0.25
            eg = epsilon_grad(
                model.params,
                [b() for b in builders],
                [model.sequence_loss(ex) for ex in meta_examples],
                beta,
            )
            for i in range(2):
                fd = two_stage_fd(model, builders, meta_examples, beta, i)
                assert rel_err(np.array(eg.values[i]), np.array(fd)) < 1e-4

    def test_peak_memory_does_not_grow_with_vocabulary(self):
        example, meta_example = toy_corpus().examples[:2]

        def peak_bytes(extra_words):
            filler = [seq([f"w{i}"], ["O"]) for i in range(extra_words)]
            corpus = Corpus(toy_corpus().examples + filler)
            model = TaggerModel.build(corpus, ModelConfig(emb_dim=4, hidden=3), seed=0)
            losses = [model.sequence_loss(example)]
            meta_losses = [model.sequence_loss(meta_example)]
            tracemalloc.start()
            try:
                epsilon_grad(model.params, losses, meta_losses, beta=0.1)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            return peak, model.params["embed.table"].data.nbytes

        small, small_table = peak_bytes(0)
        large, large_table = peak_bytes(5000)
        assert large_table > 100 * small_table
        assert large - small < (large_table - small_table) / 2

    def test_empty_batches_rejected(self):
        model = toy_model()
        loss = model.sequence_loss(toy_corpus().examples[0])
        with pytest.raises(ValueError):
            epsilon_grad(model.params, [], [loss], 0.1)
        with pytest.raises(ValueError):
            epsilon_grad(model.params, [loss], [], 0.1)


class TestReweight:
    def eg(self, values):
        return trainer_mod.EpsilonGrad(np.asarray(values, dtype=float), [])

    def test_zero_gradients_give_uniform_half(self):
        n = 4
        out = reweight(self.eg(np.zeros(n)), delta=1e-8)
        np.testing.assert_array_equal(out.w_hat, 0.5)
        np.testing.assert_allclose(out.w, 0.5 / (0.5 * n + 1e-8), rtol=0, atol=0)

    def test_hand_case_log3(self):
        out = reweight(self.eg([-np.log(3.0), np.log(3.0)]), delta=1e-8)
        np.testing.assert_allclose(out.w_hat, [0.75, 0.25], atol=1e-12)
        np.testing.assert_allclose(out.w, [0.75, 0.25], atol=1e-6)
        assert abs(out.w.sum() - 1.0 / (1.0 + 1e-8)) < 1e-12

    def test_most_negative_gets_largest_weight(self):
        out = reweight(self.eg([-5.0, 0.1, 2.0, 0.3]))
        assert out.w.argmax() == 0
        assert out.w.argmin() == 2

    def test_ordering_matches_negated_gradient(self):
        rng = np.random.default_rng(0)
        values = rng.normal(size=10)
        out = reweight(self.eg(values))
        np.testing.assert_array_equal(np.argsort(out.w), np.argsort(-values))

    def test_invariants(self):
        rng = np.random.default_rng(1)
        values = rng.normal(scale=3.0, size=8)
        out = reweight(self.eg(values), delta=1e-8)
        assert np.all((out.w_hat > 0) & (out.w_hat < 1))
        assert np.all(out.w >= 0)
        total = out.w_hat.sum()
        assert abs(out.w.sum() - total / (total + 1e-8)) < 1e-15
        assert 0 < out.w.sum() < 1

    def test_bad_delta_rejected(self):
        with pytest.raises(ValueError):
            reweight(self.eg([0.0]), delta=0.0)


class TestMetaTrainStep:
    def batch(self, model, corpus):
        pool = build_pool(corpus, [])
        return pool[:3], [corpus.examples[3]]

    def test_reweighting_disabled_gives_uniform_weights(self):
        model = toy_model()
        corpus = toy_corpus()
        aug, meta = self.batch(model, corpus)
        cfg = TrainerConfig(meta_reweight=False)
        weights, loss_value = meta_train_step(
            model, aug, meta, cfg, AdamWState(lr=cfg.lr), np.random.default_rng(0)
        )
        np.testing.assert_array_equal(weights.w, 1.0 / 3.0)
        assert loss_value > 0

    def test_aligned_example_upweighted(self):
        model = toy_model()
        corpus = toy_corpus()
        aug = [TrainExample(corpus.examples[0], "clean", "clean-0")]
        meta = [corpus.examples[0]]
        weights, _ = meta_train_step(
            model, aug, meta, TrainerConfig(), AdamWState(), np.random.default_rng(0)
        )
        assert weights.w_hat[0] >= 0.5

    def test_parameters_change_and_weighted_loss_reported(self):
        model = toy_model()
        corpus = toy_corpus()
        aug, meta = self.batch(model, corpus)
        before = model.params.snapshot()
        weights, loss_value = meta_train_step(
            model, aug, meta, TrainerConfig(), AdamWState(lr=1e-2), np.random.default_rng(0)
        )
        assert any(
            not np.array_equal(before[k], model.params[k].data) for k in before
        )
        assert len(weights.w) == 3
        assert np.isfinite(loss_value)

    def test_identical_runs_identical_parameters(self):
        corpus = toy_corpus()

        def run():
            model = toy_model(seed=5, dropout=0.5)
            state = AdamWState(lr=1e-3)
            rng = np.random.default_rng(9)
            pool = build_pool(corpus, [])
            for _ in range(4):
                meta_train_step(
                    model, pool[:2], [corpus.examples[2]], TrainerConfig(), state, rng
                )
            return model.params.snapshot()

        a, b = run(), run()
        for name in a:
            np.testing.assert_array_equal(a[name], b[name])

    def test_empty_batch_rejected(self):
        model = toy_model()
        with pytest.raises(ValueError):
            meta_train_step(
                model, [], [toy_corpus().examples[0]], TrainerConfig(), AdamWState(),
                np.random.default_rng(0),
            )


class TestRowSparseUpdate:
    """The row-sparse weighted update against the dense one it replaced."""

    def run_steps(
        self, monkeypatch, clip, meta_reweight, reference, steps=20, extra_words=0
    ):
        """Train `steps` steps; `reference` swaps in the dense combine and AdamW."""
        corpus = toy_corpus()
        filler = [seq([f"w{i}"], ["O"]) for i in range(extra_words)]
        model = TaggerModel.build(
            Corpus(corpus.examples + filler),
            ModelConfig(emb_dim=3, hidden=2, dropout=0.3),
            seed=7,
        )
        pseudo = generate_augmented_set(
            corpus, AugConfig(times=1), seed=0, use_ts=False, use_mixup=True
        )
        pool = build_pool(corpus, pseudo)
        cfg = TrainerConfig(lr=1e-2, clip=clip, meta_reweight=meta_reweight)
        state = AdamWState(lr=cfg.lr, weight_decay=1e-3)
        sample_rng, dropout_rng = np.random.default_rng(1), np.random.default_rng(2)
        seen = {"fired": [], "embedding_bytes": []}
        combine_fn = dense_combine if reference else trainer_mod.combine
        clip_fn = trainer_mod.clip_global_norm
        step_fn = dense_adamw_step if reference else trainer_mod.adamw_step

        def combine_and_record(maps, coeffs):
            out = combine_fn(maps, coeffs)
            seen["embedding_bytes"].append(out.stored("embed.table").nbytes)
            return out

        def clip_and_record(grads, max_norm):
            out = clip_fn(grads, max_norm)
            seen["fired"].append(out is not grads)
            seen["embedding_bytes"].append(out.stored("embed.table").nbytes)
            return out

        with monkeypatch.context() as mp:
            mp.setattr(trainer_mod, "combine", combine_and_record)
            mp.setattr(trainer_mod, "clip_global_norm", clip_and_record)
            mp.setattr(trainer_mod, "adamw_step", step_fn)
            for _ in range(steps):
                aug = [pool[i] for i in sample_rng.integers(len(pool), size=3)]
                meta_idx = sample_rng.integers(len(corpus), size=2)
                meta = [corpus.examples[i] for i in meta_idx]
                meta_train_step(model, aug, meta, cfg, state, dropout_rng)
        return model.params.snapshot(), state, seen

    @pytest.mark.parametrize("meta_reweight", [True, False])
    def test_bit_identical_to_dense_update_without_clipping(
        self, monkeypatch, meta_reweight
    ):
        params, state, seen = self.run_steps(monkeypatch, 1e9, meta_reweight, False)
        want_params, want_state, _ = self.run_steps(monkeypatch, 1e9, meta_reweight, True)
        assert not any(seen["fired"])
        for name in want_params:
            assert params[name].tobytes() == want_params[name].tobytes(), name
            assert state.m[name].tobytes() == want_state.m[name].tobytes(), name
            assert state.v[name].tobytes() == want_state.v[name].tobytes(), name

    @pytest.mark.parametrize("meta_reweight", [True, False])
    def test_close_to_dense_update_with_clipping(self, monkeypatch, meta_reweight):
        # The row-sparse norm sums fewer terms in another order, so the clip
        # factor, and everything after it, may differ in the last bits.
        params, state, seen = self.run_steps(monkeypatch, 0.05, meta_reweight, False)
        want_params, want_state, _ = self.run_steps(monkeypatch, 0.05, meta_reweight, True)
        assert all(seen["fired"])
        pairs = [(params, want_params), (state.m, want_state.m), (state.v, want_state.v)]
        for got, want in pairs:
            for name in want:
                scale = np.max(np.abs(want[name]))
                assert np.max(np.abs(got[name] - want[name])) <= 1e-12 * scale, name

    def test_no_vocabulary_sized_embedding_gradient_after_grad(self, monkeypatch):
        def embedding_bytes(extra_words):
            params, _, seen = self.run_steps(
                monkeypatch, 0.05, True, False, steps=3, extra_words=extra_words
            )
            return seen["embedding_bytes"], params["embed.table"].nbytes

        small, small_table = embedding_bytes(0)
        large, large_table = embedding_bytes(5000)
        assert large_table > 100 * small_table
        assert large == small


class TestBuildPool:
    def test_union_with_stable_ids(self):
        corpus = toy_corpus()
        pseudo = generate_augmented_set(
            corpus,
            AugConfig(times=1, p_sub=1.0, gamma=0.5),
            seed=2,
            edict=None,
            sdict=None,
            use_ts=False,
            use_mixup=True,
        )
        pool = build_pool(corpus, pseudo)
        assert len(pool) == len(corpus) + len(pseudo)
        assert [p.ident for p in pool[: len(corpus)]] == [
            f"clean-{i}" for i in range(len(corpus))
        ]
        assert all(p.provenance == "mixup" for p in pool[len(corpus) :])

    def test_unknown_payload_rejected(self):
        with pytest.raises(TypeError):
            build_pool(toy_corpus(), ["not-a-pseudo-example"])


class TestTrain:
    def test_zero_steps_returns_initial_model(self):
        model = toy_model()
        before = model.params.snapshot()
        result = train(model, toy_corpus(), [], None, TrainerConfig(steps=0))
        assert result.history == []
        for name in before:
            np.testing.assert_array_equal(result.model.params[name].data, before[name])

    def test_loss_decreases_without_reweighting(self):
        corpus = toy_corpus()
        model = toy_model(seed=1)
        mean_before = float(
            np.mean([model.sequence_loss(ex).data for ex in corpus.examples])
        )
        cfg = TrainerConfig(
            steps=60, n=4, m=1, lr=0.02, eval_every=10, meta_reweight=False, seed=3
        )
        result = train(model, corpus, [], None, cfg)
        mean_after = float(
            np.mean([model.sequence_loss(ex).data for ex in corpus.examples])
        )
        assert mean_after < 0.5 * mean_before
        assert result.history[-1]["loss"] < result.history[0]["loss"]

    def test_history_cadence_and_fields(self):
        corpus = toy_corpus()
        model = toy_model(seed=2)
        cfg = TrainerConfig(steps=12, n=2, m=1, eval_every=5, seed=0)
        result = train(model, corpus, [], corpus, cfg)
        assert [h["step"] for h in result.history] == [5, 10, 12]
        for record in result.history:
            assert set(record) == {
                "step",
                "loss",
                "dev_f1",
                "mean_weight_clean",
                "mean_weight_ts",
                "mean_weight_mixup",
            }
            assert record["mean_weight_clean"] is not None
            assert record["mean_weight_ts"] is None  # no TS examples in pool

    def test_weight_rows_cover_every_step(self):
        corpus = toy_corpus()
        model = toy_model(seed=3)
        cfg = TrainerConfig(steps=6, n=3, m=1, eval_every=3, seed=1)
        pseudo = generate_augmented_set(
            corpus, AugConfig(times=1), seed=0, use_ts=False, use_mixup=True
        )
        result = train(model, corpus, pseudo, None, cfg)
        assert len(result.weight_rows) == 6 * 3
        steps = {row[0] for row in result.weight_rows}
        assert steps == set(range(1, 7))
        assert {row[2] for row in result.weight_rows} <= {"clean", "mixup"}

    def test_best_dev_checkpoint_restored(self):
        corpus = toy_corpus()
        model = toy_model(seed=4)
        cfg = TrainerConfig(steps=40, n=4, m=2, lr=0.02, eval_every=10, seed=2)
        result = train(model, corpus, [], corpus, cfg)
        best = max(h["dev_f1"] for h in result.history)
        assert result.best_dev_f1 == best
        assert evaluate(result.model, corpus)["f1"] == best

    def test_output_files_round_trip(self, tmp_path):
        corpus = toy_corpus()
        model = toy_model(seed=5)
        cfg = TrainerConfig(steps=4, n=2, m=1, eval_every=2, seed=4)
        history_path = tmp_path / "history.jsonl"
        weights_path = tmp_path / "weights.tsv"
        result = train(
            model, corpus, [], corpus, cfg,
            history_path=history_path, weights_path=weights_path,
        )
        lines = history_path.read_text().strip().split("\n")
        assert [json.loads(line)["step"] for line in lines] == [2, 4]
        rows = read_weight_rows(weights_path)
        assert rows == result.weight_rows

    def test_same_seed_bitwise_identical_history(self, tmp_path):
        corpus = toy_corpus()
        cfg = TrainerConfig(steps=6, n=3, m=2, eval_every=3, seed=11)

        def run(path):
            model = toy_model(seed=6, dropout=0.5)
            train(model, corpus, [], corpus, cfg, history_path=path)
            return path.read_bytes()

        assert run(tmp_path / "a.jsonl") == run(tmp_path / "b.jsonl")

    def test_empty_clean_corpus_rejected(self):
        model = toy_model()
        with pytest.raises(ValueError, match="empty"):
            train(model, Corpus([]), [], None, TrainerConfig(steps=1))

    def test_divergence_aborts_with_step_number(self, monkeypatch):
        def explode(*args, **kwargs):
            raise NumericError("boom")

        monkeypatch.setattr(trainer_mod, "meta_train_step", explode)
        model = toy_model()
        with pytest.raises(RuntimeError, match="diverged at step 1"):
            train(model, toy_corpus(), [], None, TrainerConfig(steps=3))


class TestEvaluate:
    def test_perfect_model_scores_one(self):
        corpus = toy_corpus()
        model = toy_model(seed=1)
        cfg = TrainerConfig(steps=80, n=4, m=1, lr=0.02, eval_every=20, meta_reweight=False)
        train(model, corpus, [], corpus, cfg)
        out = evaluate(model, corpus)
        assert set(out) == {"precision", "recall", "f1", "support"}
        assert out["support"] == 7
