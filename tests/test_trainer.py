"""Lookahead weight gradients, reweighting, and the training loop."""

import json
import tracemalloc
import weakref

import numpy as np
import pytest

from oracles import (
    dense_adamw_step,
    example_loss,
    load_snapshot,
    per_example_epsilon_grad,
    per_example_reweighted_step,
    per_sentence_uniform_step,
    pick,
    rel_err,
    sentence_decode,
    snapshot,
    span_f1,
)

from metaner import autodiff as ad
from metaner import trainer as trainer_mod
from metaner.autodiff import NumericError, grad
from metaner.checkpoint import load_checkpoint
from metaner.augment import AugConfig, MixedExample, generate_augmented_set
from metaner.corpus import Corpus, LabeledSequence
from metaner.tagger import LaneSum, ModelConfig, TaggerModel
from metaner.trainer import (
    TrainerConfig,
    TrainExample,
    WeightVector,
    build_pool,
    epsilon_grad,
    evaluate,
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
    saved = snapshot(params)
    g_i = grad(loss_builders[i](), params)

    def meta_at(eps):
        for name in g_i:
            params[name].data -= beta * eps * g_i[name]
        value = float(
            np.mean([model.sequence_loss(ex).data for ex in meta_examples])
        )
        load_snapshot(params, saved)
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
    """`epsilon_grad`, the lookahead values the reweighted step takes.

    Orthogonality and antisymmetry need losses no training batch builds, so
    they are checked on the per-example oracle the packed step is compared
    with (`TestReweightedStep`).
    """

    def test_identical_example_gives_negative_norm_squared(self):
        model = toy_model()
        ex = toy_corpus().examples[0]
        beta = 0.2
        eps, _, _ = epsilon_grad(
            model, [TrainExample(ex, "clean", "clean-0")], [ex], beta, "embedding",
            np.random.default_rng(0),
        )
        g = grad(model.sequence_loss(ex), model.params)
        want = -beta * g.global_norm() ** 2
        assert abs(eps[0] - want) <= 1e-12 * abs(want)
        assert eps[0] < 0
        assert reweight(eps).w_hat[0] > 0.5

    def test_orthogonal_gradients_give_zero(self):
        store = ad.ParamStore()
        store.add("x", np.array([1.0, 2.0]))
        aug = [pick(store["x"], 0)]
        meta = [pick(store["x"], 1)]
        values, _ = per_example_epsilon_grad(store, aug, meta, beta=0.5)
        assert values[0] == 0.0
        assert reweight(values).w_hat[0] == 0.5

    def test_antisymmetric_in_example_gradient(self):
        model = toy_model()
        corpus = toy_corpus()
        loss = model.sequence_loss(corpus.examples[0])
        values, _ = per_example_epsilon_grad(
            model.params,
            [loss, ad.scale(model.sequence_loss(corpus.examples[0]), -1.0)],
            [model.sequence_loss(corpus.examples[1])],
            beta=0.3,
        )
        assert abs(values[0] + values[1]) < 1e-15

    def test_matches_two_stage_finite_differences(self):
        corpus = toy_corpus()
        mx = MixedExample(corpus.examples[0], corpus.examples[1], lam=0.35)
        batch = [
            TrainExample(corpus.examples[2], "clean", "clean-2"),
            TrainExample(mx, "mixup", "mixup-0"),
        ]
        meta_examples = [corpus.examples[1], corpus.examples[3]]
        beta = 0.25
        for seed, mix_layer in enumerate(["embedding", "encoder", "embedding"]):
            model = toy_model(seed=seed)
            eps, _, _ = epsilon_grad(
                model, batch, meta_examples, beta, mix_layer, np.random.default_rng(0)
            )
            builders = [
                lambda item=item: example_loss(model, item, mix_layer, train=False)
                for item in batch
            ]
            for i in range(2):
                fd = two_stage_fd(model, builders, meta_examples, beta, i)
                assert rel_err(np.array(eps[i]), np.array(fd)) < 1e-4, mix_layer

    def test_peak_memory_does_not_grow_with_vocabulary(self):
        example, meta_example = toy_corpus().examples[:2]

        def peak_bytes(extra_words):
            filler = [seq([f"w{i}"], ["O"]) for i in range(extra_words)]
            corpus = Corpus(toy_corpus().examples + filler)
            model = TaggerModel.build(corpus, ModelConfig(emb_dim=4, hidden=3), seed=0)
            batch = [TrainExample(example, "clean", "clean-0")]
            tracemalloc.start()
            try:
                epsilon_grad(
                    model, batch, [meta_example], 0.1, "embedding", np.random.default_rng(0)
                )
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            return peak, model.params["embed.table"].data.nbytes

        small, small_table = peak_bytes(0)
        large, large_table = peak_bytes(5000)
        assert large_table > 100 * small_table
        assert large - small < (large_table - small_table) / 2

    def test_augmented_graph_is_released_before_the_meta_forward(self, monkeypatch):
        class Watched(LaneSum):
            __slots__ = ("__weakref__",)

        built = []
        batch_loss = TaggerModel.batch_loss

        def watched_batch_loss(*args, **kwargs):
            assert all(ref() is None for ref in built), "augmented graph alive"
            out = batch_loss(*args, **kwargs)
            out = Watched(out.data, out.parents, out.vjp, out.per_lane)
            built.append(weakref.ref(out))
            return out

        monkeypatch.setattr(TaggerModel, "batch_loss", watched_batch_loss)
        corpus = toy_corpus()
        batch = [
            TrainExample(corpus.examples[2], "clean", "clean-2"),
            TrainExample(MixedExample(corpus.examples[0], corpus.examples[1], lam=0.35),
                         "mixup", "mixup-0"),
        ]
        eps, _, losses = epsilon_grad(
            toy_model(dropout=0.5), batch, corpus.examples[1:], 0.1, "embedding",
            np.random.default_rng(0),
        )
        assert len(built) == 2  # the augmented forward, then the meta forward
        assert eps.shape == losses.shape == (2,)

    def test_empty_batches_rejected(self):
        model = toy_model()
        ex = toy_corpus().examples[0]
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            epsilon_grad(model, [], [ex], 0.1, "embedding", rng)
        with pytest.raises(ValueError):
            epsilon_grad(model, [TrainExample(ex, "clean", "clean-0")], [], 0.1, "embedding", rng)


class TestReweight:
    def eg(self, values):
        return np.asarray(values, dtype=float)

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
        before = snapshot(model.params)
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
            return snapshot(model.params)

        a, b = run(), run()
        for name in a:
            np.testing.assert_array_equal(a[name], b[name])

    def test_calls_epsilon_grad_once_when_reweighting(self, monkeypatch):
        calls = []

        def counting(*args, **kwargs):
            calls.append(1)
            return epsilon_grad(*args, **kwargs)

        monkeypatch.setattr(trainer_mod, "epsilon_grad", counting)
        corpus = toy_corpus()
        aug, meta = self.batch(toy_model(), corpus)
        for meta_reweight, want in ((True, 1), (False, 0)):
            calls.clear()
            meta_train_step(
                toy_model(), aug, meta, TrainerConfig(meta_reweight=meta_reweight),
                AdamWState(), np.random.default_rng(0),
            )
            assert len(calls) == want, meta_reweight

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
        self,
        monkeypatch,
        clip,
        meta_reweight,
        reference,
        per_sentence=False,
        steps=20,
        extra_words=0,
    ):
        """Train `steps` steps; `reference` swaps in the dense AdamW.

        With `per_sentence`, `reference` runs the step with one graph and one
        gradient per example instead (the per-example reweighted step, or
        the per-sentence uniform one), then the dense combine and AdamW.
        Those steps draw their dropout masks example by example, the packed
        one layer by layer, so then both run with dropout off.
        """
        corpus = toy_corpus()
        filler = [seq([f"w{i}"], ["O"]) for i in range(extra_words)]
        model = TaggerModel.build(
            Corpus(corpus.examples + filler),
            ModelConfig(emb_dim=3, hidden=2, dropout=0.0 if per_sentence else 0.3),
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
        clip_fn = trainer_mod.clip_global_norm
        step_fn = dense_adamw_step if reference else trainer_mod.adamw_step

        def clip_and_record(grads, max_norm):
            out = clip_fn(grads, max_norm)
            seen["fired"].append(out is not grads)
            seen["embedding_bytes"].append(out.stored("embed.table").nbytes)
            return out

        with monkeypatch.context() as mp:
            mp.setattr(trainer_mod, "clip_global_norm", clip_and_record)
            mp.setattr(trainer_mod, "adamw_step", step_fn)
            for _ in range(steps):
                aug = [pool[i] for i in sample_rng.integers(len(pool), size=3)]
                meta_idx = sample_rng.integers(len(corpus), size=2)
                meta = [corpus.examples[i] for i in meta_idx]
                if per_sentence and reference and meta_reweight:
                    per_example_reweighted_step(model, aug, meta, cfg, state, dropout_rng)
                elif per_sentence and reference:
                    per_sentence_uniform_step(model, aug, cfg, state, dropout_rng)
                else:
                    meta_train_step(model, aug, meta, cfg, state, dropout_rng)
        return snapshot(model.params), state, seen

    @pytest.mark.parametrize("meta_reweight", [True, False])
    def test_bit_identical_to_dense_update_without_clipping(
        self, monkeypatch, meta_reweight
    ):
        # This checks AdamW on the packed step's gradient; that gradient sums
        # in another order than per-example gradients do, so TestUniformStep
        # and TestReweightedStep compare it with those steps to 1e-12.
        params, state, seen = self.run_steps(monkeypatch, 1e9, meta_reweight, False)
        want_params, want_state, _ = self.run_steps(monkeypatch, 1e9, meta_reweight, True)
        assert not any(seen["fired"])
        for name in want_params:
            assert params[name].tobytes() == want_params[name].tobytes(), name
            assert state.m[name].tobytes() == want_state.m[name].tobytes(), name
            assert state.v[name].tobytes() == want_state.v[name].tobytes(), name

    @pytest.mark.parametrize("meta_reweight", [True, False])
    def test_close_to_dense_update_with_clipping(self, monkeypatch, meta_reweight):
        # The row-sparse norm sums fewer terms in another order, and the packed
        # gradient sums over examples in another order than the per-example
        # reference, so the clip factor, and everything after it, may differ
        # in the last bits.
        params, state, seen = self.run_steps(
            monkeypatch, 0.05, meta_reweight, False, per_sentence=True
        )
        want_params, want_state, _ = self.run_steps(
            monkeypatch, 0.05, meta_reweight, True, per_sentence=True
        )
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


class TestUniformStep:
    """The packed reweighting-off step against the per-sentence reference."""

    def run_steps(self, mix_layer, packed, steps=20):
        corpus = toy_corpus()
        model = TaggerModel.build(
            corpus, ModelConfig(emb_dim=3, hidden=2, dropout=0.0), seed=7
        )
        pseudo = generate_augmented_set(
            corpus, AugConfig(times=1), seed=0, use_ts=False, use_mixup=True
        )
        clean, mixed = build_pool(corpus, []), build_pool(Corpus([]), pseudo)
        cfg = TrainerConfig(lr=1e-2, clip=1e9, meta_reweight=False)
        state = AdamWState(lr=cfg.lr, weight_decay=1e-3)
        sample_rng, dropout_rng = np.random.default_rng(1), np.random.default_rng(2)
        for _ in range(steps):
            aug = [clean[i] for i in sample_rng.integers(len(clean), size=3)]
            aug += [mixed[i] for i in sample_rng.integers(len(mixed), size=2)]
            aug = [aug[i] for i in sample_rng.permutation(len(aug))]
            if packed:
                meta = [corpus.examples[0]]
                meta_train_step(model, aug, meta, cfg, state, dropout_rng, mix_layer)
            else:
                per_sentence_uniform_step(model, aug, cfg, state, dropout_rng, mix_layer)
        return snapshot(model.params), state

    @pytest.mark.parametrize("mix_layer", ["embedding", "encoder"])
    def test_matches_per_sentence_reference(self, mix_layer):
        params, state = self.run_steps(mix_layer, packed=True)
        want_params, want_state = self.run_steps(mix_layer, packed=False)
        pairs = [(params, want_params), (state.m, want_state.m), (state.v, want_state.v)]
        for got, want in pairs:
            for name in want:
                scale = np.max(np.abs(want[name]))
                assert np.max(np.abs(got[name] - want[name])) <= 1e-12 * scale, name

    def test_one_backward_pass_per_step(self, monkeypatch):
        calls = []

        def counting_grad(*args, **kwargs):
            calls.append(1)
            return grad(*args, **kwargs)

        monkeypatch.setattr(trainer_mod, "grad", counting_grad)
        corpus = toy_corpus()
        mx = MixedExample(corpus.examples[0], corpus.examples[1], lam=0.4)
        aug = [TrainExample(corpus.examples[i % 4], "clean", "clean") for i in range(14)]
        aug += [TrainExample(mx, "mixup", "mixup-0")] * 2
        for mix_layer in ("embedding", "encoder"):
            calls.clear()
            meta_train_step(
                toy_model(), aug, [corpus.examples[0]], TrainerConfig(meta_reweight=False),
                AdamWState(), np.random.default_rng(0), mix_layer,
            )
            assert len(calls) == 1


class TestReweightedStep:
    """The packed reweighted step against the per-example reference."""

    @staticmethod
    def pool():
        """Ragged sentences and pairs with either member shorter, lambda 0, 0.37 and 1."""
        corpus = toy_corpus()  # lengths 4, 3, 3, 2
        ex = corpus.examples
        pairs = [
            MixedExample(ex[3], ex[0], 0.37),  # first shorter
            MixedExample(ex[0], ex[1], 0.0),  # second shorter
            MixedExample(ex[1], ex[3], 1.0),  # second shorter
            MixedExample(ex[2], ex[1], 0.37),  # equal lengths
        ]
        mixed = [TrainExample(p, "mixup", f"mixup-{j}") for j, p in enumerate(pairs)]
        return corpus, build_pool(corpus, []) + mixed

    def run_steps(self, monkeypatch, mix_layer, packed, steps=20):
        corpus, pool = self.pool()
        model = TaggerModel.build(
            corpus, ModelConfig(emb_dim=3, hidden=2, dropout=0.0), seed=7
        )
        cfg = TrainerConfig(lr=1e-2, beta=1.0, weight_decay=1e-3)
        state = AdamWState(lr=cfg.lr, weight_decay=cfg.weight_decay)
        sample_rng, dropout_rng = np.random.default_rng(1), np.random.default_rng(2)
        eps, ws, losses = [], [], []

        def recording_reweight(values, delta):
            eps.append(values)
            return reweight(values, delta)

        monkeypatch.setattr(trainer_mod, "reweight", recording_reweight)
        for _ in range(steps):
            aug = [pool[i] for i in sample_rng.integers(len(pool), size=6)]
            meta = [corpus.examples[i] for i in sample_rng.integers(len(corpus), size=2)]
            if packed:
                weights, loss = meta_train_step(
                    model, aug, meta, cfg, state, dropout_rng, mix_layer
                )
            else:
                values, weights, loss = per_example_reweighted_step(
                    model, aug, meta, cfg, state, dropout_rng, mix_layer
                )
                eps.append(values)
            ws.append(weights.w)
            losses.append(loss)
        return eps, ws, losses, snapshot(model.params), state

    @pytest.mark.parametrize("mix_layer", ["embedding", "encoder"])
    def test_matches_per_example_reference(self, monkeypatch, mix_layer):
        eps, ws, losses, params, state = self.run_steps(monkeypatch, mix_layer, True)
        want_eps, want_ws, want_losses, want_params, want_state = self.run_steps(
            monkeypatch, mix_layer, False
        )
        assert len(eps) == len(want_eps) == 20
        for got, want in zip(eps, want_eps):
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
        for got, want in zip(ws, want_ws):
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
        assert rel_err(np.array(losses), np.array(want_losses)) < 1e-12
        pairs = [(params, want_params), (state.m, want_state.m), (state.v, want_state.v)]
        for got, want in pairs:
            for name in want:
                scale = np.max(np.abs(want[name]))
                assert np.max(np.abs(got[name] - want[name])) <= 1e-12 * scale, name

    @pytest.mark.parametrize("mix_layer", ["embedding", "encoder"])
    def test_two_backward_passes_and_no_per_example_maps(self, monkeypatch, mix_layer):
        walks, maps = [], []

        def counting_grad(*args, **kwargs):
            walks.append(1)
            return grad(*args, **kwargs)

        map_init = ad.GradientMap.__init__

        def counting_map(self, grads):
            maps.append(1)
            map_init(self, grads)

        def no_combine(*args, **kwargs):
            raise AssertionError("the reweighted step called combine")

        monkeypatch.setattr(trainer_mod, "grad", counting_grad)
        monkeypatch.setattr(ad.GradientMap, "__init__", counting_map)
        monkeypatch.setattr(ad, "combine", no_combine)
        corpus, pool = self.pool()
        aug = [pool[i % len(pool)] for i in range(16)]
        meta_train_step(
            toy_model(), aug, corpus.examples[:2], TrainerConfig(), AdamWState(),
            np.random.default_rng(0), mix_layer,
        )
        assert len(walks) <= 2
        assert len(maps) <= 3  # the meta gradient, the weighted sum, its clipped copy


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
        before = snapshot(model.params)
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

    def test_history_cadence_and_fields(self, tmp_path):
        corpus = toy_corpus()
        model = toy_model(seed=2)
        cfg = TrainerConfig(steps=12, n=2, m=1, eval_every=5, seed=0)
        result = train(model, corpus, [], corpus, cfg, checkpoint_path=tmp_path / "m.ckpt")
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

    @staticmethod
    def scripted_evaluate(monkeypatch, scores, checkpoint=None):
        """Make the dev evals score `scores` in turn; returns the parameter
        bytes seen at each eval, and whether `checkpoint` existed then."""
        scores = iter(scores)
        seen, existed = [], []

        def scripted(model, dev):
            seen.append({n: t.data.tobytes() for n, t in model.params.items()})
            existed.append(checkpoint is not None and checkpoint.exists())
            return {"f1": next(scores)}

        monkeypatch.setattr(trainer_mod, "evaluate", scripted)
        return seen, existed

    @staticmethod
    def assert_checkpoint_holds(path, params, best_step):
        """`path` holds `params` (name -> bytes) and `best_step` in its run block."""
        arrays, config, _ = load_checkpoint(path)
        assert config["run"] == {"scheme": "BIOES", "best_step": best_step}
        assert set(arrays) == set(params)
        for name, arr in arrays.items():
            assert arr.tobytes() == params[name], name

    def test_best_dev_checkpoint_restored(self, monkeypatch, tmp_path):
        # Two improving evals overwrite the checkpoint, a tie does not, and
        # the best is not the last eval, so the file is read back in place.
        path = tmp_path / "model.ckpt"
        seen, existed = self.scripted_evaluate(monkeypatch, [0.2, 0.5, 0.4, 0.5], path)
        corpus = toy_corpus()
        model = toy_model(seed=4)
        live = {name: t.data for name, t in model.params.items()}
        cfg = TrainerConfig(steps=40, n=4, m=2, lr=0.02, eval_every=10, seed=2)
        result = train(
            model, corpus, [], corpus, cfg,
            checkpoint_path=path, run_fields={"scheme": "BIOES"},
        )
        assert [h["dev_f1"] for h in result.history] == [0.2, 0.5, 0.4, 0.5]
        assert (result.best_dev_f1, result.best_step) == (0.5, 20)
        assert len({seen[1]["embed.table"], seen[3]["embed.table"]}) == 2
        assert existed == [False, True, True, True]
        assert result.model is model
        for name, arr in model.params.items():
            assert arr.data is live[name], name
            assert arr.data.tobytes() == seen[1][name], name
        self.assert_checkpoint_holds(path, seen[1], 20)
        assert list(tmp_path.iterdir()) == [path]

    def test_zero_steps_with_dev_saves_initial_parameters(self, tmp_path):
        model = toy_model()
        before = {n: t.data.tobytes() for n, t in model.params.items()}
        path = tmp_path / "model.ckpt"
        result = train(
            model, toy_corpus(), [], toy_corpus(), TrainerConfig(steps=0),
            checkpoint_path=path, run_fields={"scheme": "BIOES"},
        )
        assert (result.history, result.best_step) == ([], 0)
        self.assert_checkpoint_holds(path, before, 0)

    def test_dev_corpus_without_checkpoint_path_rejected(self):
        with pytest.raises(ValueError, match="checkpoint path"):
            train(toy_model(), toy_corpus(), [], toy_corpus(), TrainerConfig(steps=1))

    def test_divergence_keeps_the_best_checkpoint(self, monkeypatch, tmp_path):
        # Evals at steps 2 and 4 score 0.3 and 0.2; step 5 diverges.
        seen, _ = self.scripted_evaluate(monkeypatch, [0.3, 0.2])
        step = trainer_mod.meta_train_step
        calls = []

        def diverge_at_5(*args, **kwargs):
            calls.append(None)
            if len(calls) == 5:
                raise NumericError("boom")
            return step(*args, **kwargs)

        monkeypatch.setattr(trainer_mod, "meta_train_step", diverge_at_5)
        path = tmp_path / "model.ckpt"
        cfg = TrainerConfig(steps=6, n=2, m=1, eval_every=2, seed=0)
        with pytest.raises(RuntimeError, match="diverged at step 5"):
            train(
                toy_model(seed=3), toy_corpus(), [], toy_corpus(), cfg,
                checkpoint_path=path, run_fields={"scheme": "BIOES"},
            )
        assert len(seen) == 2
        self.assert_checkpoint_holds(path, seen[0], 2)
        loaded = TaggerModel.load(path)
        for name, arr in loaded.params.items():
            assert arr.data.tobytes() == seen[0][name], name

    def test_peak_memory_holds_one_best_copy(self, monkeypatch, tmp_path):
        # The one copy of the best parameters is the checkpoint file. Growing
        # the embedding table by G bytes may grow train()'s peak by AdamW's m
        # and v, not by an in-memory best copy, whether the best eval is the
        # last or an earlier one whose parameters are read back.
        base = toy_corpus()

        def peak_bytes(extra_words, scores):
            it = iter(scores)
            monkeypatch.setattr(trainer_mod, "evaluate", lambda *_: {"f1": next(it)})
            vocab = base.token_vocab + [f"pad{i}" for i in range(extra_words)]
            corpus = Corpus(base.examples, token_vocab=vocab)
            model = TaggerModel.build(corpus, ModelConfig(emb_dim=8, hidden=2), seed=0)
            cfg = TrainerConfig(steps=6, n=2, m=1, eval_every=2, seed=0)
            tracemalloc.start()
            try:
                result = train(
                    model, corpus, [], corpus, cfg, checkpoint_path=tmp_path / "m.ckpt"
                )
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert result.best_step == 2 * (1 + scores.index(max(scores)))
            return peak, model.params["embed.table"].data.nbytes

        for scores in ((0.1, 0.2, 0.3), (0.3, 0.2, 0.1)):
            small, small_table = peak_bytes(0, scores)
            large, large_table = peak_bytes(50_000, scores)
            growth = large_table - small_table
            assert growth == 50_000 * 8 * 8
            assert large - small <= 2.5 * growth, scores

    def test_output_files_round_trip(self, tmp_path):
        corpus = toy_corpus()
        model = toy_model(seed=5)
        cfg = TrainerConfig(steps=4, n=2, m=1, eval_every=2, seed=4)
        history_path = tmp_path / "history.jsonl"
        weights_path = tmp_path / "weights.tsv"
        result = train(
            model, corpus, [], corpus, cfg,
            history_path=history_path, weights_path=weights_path,
            checkpoint_path=tmp_path / "m.ckpt",
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
            train(
                model, corpus, [], corpus, cfg,
                history_path=path, checkpoint_path=tmp_path / "m.ckpt",
            )
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
    def test_perfect_model_scores_one(self, tmp_path):
        corpus = toy_corpus()
        model = toy_model(seed=1)
        cfg = TrainerConfig(steps=80, n=4, m=1, lr=0.02, eval_every=20, meta_reweight=False)
        train(model, corpus, [], corpus, cfg, checkpoint_path=tmp_path / "m.ckpt")
        out = evaluate(model, corpus)
        assert set(out) == {"precision", "recall", "f1", "support"}
        assert out["support"] == 7

    def test_decodes_each_sentence_once_in_corpus_order(self, monkeypatch):
        corpus = toy_corpus()
        model = toy_model(seed=2)
        seen = []
        decode = TaggerModel.decode

        def counting(self, tokens, *args, **kwargs):
            seen.append(tuple(tokens))
            return decode(self, tokens, *args, **kwargs)

        monkeypatch.setattr(TaggerModel, "decode", counting)
        out = evaluate(model, corpus)
        assert seen == [ex.tokens for ex in corpus.examples]
        preds = [sentence_decode(model, ex.tokens)[1] for ex in corpus.examples]
        golds = [list(ex.labels) for ex in corpus.examples]
        assert out == span_f1(preds, golds, scheme=corpus.scheme)
