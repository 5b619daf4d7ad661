"""Dictionaries, token substitution, mixup pairs, and the composite mixup loss."""

import tracemalloc

import numpy as np
import pytest

import oracles
from oracles import (
    brute_nll,
    exhaustive_synonym_dict,
    extract_spans,
    finite_diff_check,
    mix_embeddings,
    numeric_gradient,
    pair_loss,
    rel_err,
    tsum,
)

from metaner import augment
from metaner import autodiff as ad
from metaner.autodiff import grad
from metaner.augment import (
    AugConfig,
    EntityDict,
    MixedExample,
    Substituted,
    SynonymDict,
    build_entity_dict,
    build_synonym_dict,
    generate_augmented_set,
    mixup_loss,
    sample_mixup_pair,
    token_substitute,
)
from metaner.corpus import Corpus, LabeledSequence
from metaner.synthetic import STOPWORDS, synthetic_corpus, synthetic_vectors
from metaner.tagger import MIX_LAYERS, Lanes, ModelConfig, TaggerModel, crf_nll
from metaner.trainer import TrainExample


def seq(tokens, labels):
    return LabeledSequence(tuple(tokens), tuple(labels), scheme="BIOES")


def tiny_corpus():
    return Corpus(
        [
            seq(["john", "smith", "visits", "paris"], ["B-PER", "E-PER", "O", "S-LOC"]),
            seq(["acme", "hires", "john"], ["S-ORG", "O", "S-PER"]),
            seq(["mary", "likes", "paris"], ["S-PER", "O", "S-LOC"]),
        ]
    )


def tiny_model(**kw):
    defaults = dict(emb_dim=3, hidden=2, dropout=0.0)
    defaults.update(kw)
    return TaggerModel.build(tiny_corpus(), ModelConfig(**defaults), seed=0)


class TestAugConfig:
    def test_defaults(self):
        cfg = AugConfig()
        assert (cfg.gamma, cfg.p_sub, cfg.k, cfg.alpha) == (0.2, 0.3, 5, 7.0)
        assert cfg.mix_layer == "embedding"

    @pytest.mark.parametrize(
        "kw",
        [
            {"gamma": -0.1},
            {"gamma": 1.1},
            {"p_sub": 2.0},
            {"k": 0},
            {"times": -1},
            {"alpha": 0.0},
            {"mix_layer": "logits"},
        ],
    )
    def test_invalid_values_rejected(self, kw):
        with pytest.raises(ValueError):
            AugConfig(**kw)


class TestEntityDict:
    def test_collects_and_dedups(self):
        corpus = Corpus(
            [
                seq(["john", "runs"], ["S-PER", "O"]),
                seq(["john", "waves"], ["S-PER", "O"]),
                seq(["paris", "is", "big"], ["S-LOC", "O", "O"]),
            ]
        )
        d = build_entity_dict(corpus)
        assert d.mentions == {"PER": [("john",)], "LOC": [("paris",)]}
        assert len(d) == 2

    def test_multi_token_mention_and_hand_count(self):
        d = build_entity_dict(tiny_corpus())
        assert d.mentions["PER"] == [("john", "smith"), ("john",), ("mary",)]
        assert d.mentions["LOC"] == [("paris",)]
        assert d.mentions["ORG"] == [("acme",)]
        assert len(d) == 5

    def test_no_entities_warns_and_is_empty(self, caplog):
        corpus = Corpus([seq(["just", "words"], ["O", "O"])])
        with caplog.at_level("WARNING"):
            d = build_entity_dict(corpus)
        assert d.mentions == {}
        assert "no entity spans" in caplog.text

    def test_equals_oracle_with_stray_tags(self, caplog):
        corpus = Corpus(
            [
                seq(["john", "smith", "visits"], ["I-PER", "E-PER", "O"]),
                seq(["acme", "corp", "in", "paris"], ["B-ORG", "E-LOC", "O", "E-LOC"]),
                seq(["john", "smith"], ["B-PER", "E-PER"]),
                seq(["the", "acme", "corp"], ["O", "I-ORG", "I-ORG"]),
                seq(["paris", "acme"], ["S-LOC", "E-ORG"]),
            ]
        )
        with caplog.at_level("WARNING"):
            want = oracles.build_entity_dict(corpus)
        expected = caplog.record_tuples
        caplog.clear()
        with caplog.at_level("WARNING"):
            got = build_entity_dict(corpus)
        assert got.mentions == want.mentions
        assert list(got.mentions) == ["PER", "ORG", "LOC"]
        assert caplog.record_tuples == expected
        assert len(expected) == 5

    def test_no_entities_warns_as_oracle(self, caplog):
        corpus = Corpus([seq(["just", "words"], ["O", "O"])])
        with caplog.at_level("WARNING"):
            oracles.build_entity_dict(corpus)
        expected = caplog.record_tuples
        caplog.clear()
        with caplog.at_level("WARNING"):
            build_entity_dict(corpus)
        assert caplog.record_tuples == expected

    def test_equals_oracle_on_synthetic_corpus(self):
        corpus = synthetic_corpus(60, seed=4)
        want = oracles.build_entity_dict(corpus).mentions
        assert build_entity_dict(corpus).mentions == want
        # Spans parsed by the caller, as `metaner train` shares them with substitution.
        spans = [oracles._parse_spans(ex.labels, "BIOES") for ex in corpus.examples]
        assert build_entity_dict(corpus, spans).mentions == want

    def test_sample_missing_type_returns_none(self):
        d = build_entity_dict(tiny_corpus())
        assert d.sample("GPE", np.random.default_rng(0)) is None

    def test_save_load_round_trip(self, tmp_path):
        d = build_entity_dict(tiny_corpus())
        path = tmp_path / "entities.tsv"
        d.save(path)
        assert EntityDict.load(path).mentions == d.mentions


class TestSynonymDict:
    def vectors(self):
        return {
            "cat": np.array([1.0, 0.0]),
            "kitten": np.array([0.9, 0.1]),
            "stone": np.array([0.0, 1.0]),
            "the": np.array([0.5, 0.5]),
        }

    def test_nearest_neighbor_ranked_first(self):
        d = build_synonym_dict(self.vectors(), k=2)
        assert d.synonyms["cat"][0][0] == "kitten"
        scores = [s for _, s in d.synonyms["cat"]]
        assert scores == sorted(scores, reverse=True)

    def test_never_lists_itself(self):
        d = build_synonym_dict(self.vectors(), k=3)
        for word, pool in d.synonyms.items():
            assert word not in [w for w, _ in pool]

    def test_stopwords_absent_from_keys_and_values(self):
        d = build_synonym_dict(self.vectors(), k=3, stopwords={"the"})
        assert "the" not in d.synonyms
        for pool in d.synonyms.values():
            assert "the" not in [w for w, _ in pool]

    def test_zero_vector_excluded(self, caplog):
        vecs = dict(self.vectors(), null=np.zeros(2))
        with caplog.at_level("WARNING"):
            d = build_synonym_dict(vecs, k=3)
        assert "null" not in d.synonyms
        for pool in d.synonyms.values():
            assert "null" not in [w for w, _ in pool]

    def test_k_truncated_to_available(self):
        d = build_synonym_dict(self.vectors(), k=50)
        assert all(len(pool) == 3 for pool in d.synonyms.values())

    def test_hand_cosine_value(self):
        d = build_synonym_dict(self.vectors(), k=1)
        expected = 0.9 / np.sqrt(0.9**2 + 0.1**2)
        assert abs(d.synonyms["cat"][0][1] - expected) < 1e-12

    def test_save_load_round_trip(self, tmp_path):
        d = build_synonym_dict(self.vectors(), k=2)
        path = tmp_path / "synonyms.tsv"
        d.save(path)
        back = SynonymDict.load(path)
        assert back.synonyms == d.synonyms

    def test_file_input(self, tmp_path):
        from metaner.vectors import write_vector_file

        path = tmp_path / "vecs.txt"
        write_vector_file(path, self.vectors())
        d = build_synonym_dict(path, k=1)
        assert d.synonyms["cat"][0][0] == "kitten"


def tied_vectors(n, seed=0, all_equal=False):
    """n kept words with entries of +-1/4 in 16 dimensions, plus a stop-word and
    a zero vector among them.

    Every vector has unit norm and every dot product is a multiple of 1/16,
    exact in any summation order, so equal cosines are exactly equal. Every
    third word repeats an earlier word's vector; with `all_equal`, every word
    has the first word's vector, so every cosine is 1.
    """
    rng = np.random.default_rng(seed)
    rows = rng.choice([-0.25, 0.25], size=(n, 16))
    rows[2::3] = rows[: len(rows[2::3])]
    if all_equal:
        rows[:] = rows[0]
    items = [(f"w{i}", rows[i]) for i in range(n)]
    items[n // 2 : n // 2] = [("the", rows[0]), ("null", np.zeros(16))]
    return dict(items)


class TestBlockedSynonymSearch:
    @pytest.mark.parametrize("n", [2, 3, 4, 7, 40])
    @pytest.mark.parametrize("k_of", ["1", "n-1", "n+2"])
    def test_equals_exhaustive_search_with_ties(self, monkeypatch, n, k_of):
        self.check_exhaustive(monkeypatch, tied_vectors(n, seed=n), n, k_of)

    @pytest.mark.parametrize("n", [2, 3, 4, 7, 40])
    @pytest.mark.parametrize("k_of", ["1", "n-1", "n+2"])
    def test_equals_exhaustive_search_all_tied(self, monkeypatch, n, k_of):
        # Every word of every row is a candidate, and file order ranks them.
        self.check_exhaustive(monkeypatch, tied_vectors(n, seed=n, all_equal=True), n, k_of)

    @staticmethod
    def check_exhaustive(monkeypatch, vecs, n, k_of):
        monkeypatch.setattr(augment, "_SYNONYM_BLOCK", 3)
        k = {"1": 1, "n-1": n - 1, "n+2": n + 2}[k_of]
        got = build_synonym_dict(vecs, k, stopwords={"the"})
        want = exhaustive_synonym_dict(vecs, k, stopwords={"the"})
        assert got.synonyms == want.synonyms
        assert set(got.synonyms) == {f"w{i}" for i in range(n)}
        assert all(len(pool) == min(k, n - 1) for pool in got.synonyms.values())

    def test_random_vectors_match_across_blocks(self):
        rng = np.random.default_rng(5)
        vecs = {f"w{i}": rng.normal(size=20) for i in range(600)}
        got = build_synonym_dict(vecs, k=5).synonyms
        want = exhaustive_synonym_dict(vecs, k=5).synonyms
        assert got.keys() == want.keys()
        for word, pool in got.items():
            assert [w for w, _ in pool] == [w for w, _ in want[word]]
            np.testing.assert_allclose(
                [s for _, s in pool], [s for _, s in want[word]], rtol=0, atol=1e-12
            )

    def test_never_holds_a_vocabulary_square(self):
        n = 3000
        rng = np.random.default_rng(0)
        vecs = {f"w{i}": rng.normal(size=16) for i in range(n)}
        tracemalloc.start()
        try:
            build_synonym_dict(vecs, k=5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < n * n * 8 / 4


class TestTokenSubstitute:
    def edict(self):
        return EntityDict({"PER": [("mary",)], "LOC": [("rome",)]})

    def sdict(self):
        return SynonymDict({"visits": [("tours", 0.9)], "hires": [("recruits", 0.8)]})

    def test_forced_entity_replacement(self):
        ex = seq(["john", "visits", "paris"], ["S-PER", "O", "S-LOC"])
        cfg = AugConfig(gamma=1.0, p_sub=1.0)
        out = token_substitute(
            ex, self.edict(), self.sdict(), cfg, np.random.default_rng(0), extract_spans(ex)
        )
        assert out.example.tokens == ("mary", "visits", "rome")
        assert out.example.labels == ("S-PER", "O", "S-LOC")
        assert {r.kind for r in out.replacements} == {"entity"}

    def test_forced_synonym_replacement(self):
        ex = seq(["john", "visits", "paris"], ["S-PER", "O", "S-LOC"])
        cfg = AugConfig(gamma=0.0, p_sub=1.0)
        out = token_substitute(
            ex, self.edict(), self.sdict(), cfg, np.random.default_rng(0), extract_spans(ex)
        )
        assert out.example.tokens == ("john", "tours", "paris")
        assert out.example.labels == ex.labels
        assert [r.kind for r in out.replacements] == ["synonym"]

    def test_longer_mention_regrows_labels(self):
        ex = seq(["john", "visits", "paris"], ["S-PER", "O", "S-LOC"])
        edict = EntityDict({"PER": [("mary", "ann", "smith")], "LOC": [("rome",)]})
        cfg = AugConfig(gamma=1.0, p_sub=1.0)
        out = token_substitute(
            ex, edict, self.sdict(), cfg, np.random.default_rng(0), extract_spans(ex)
        )
        assert out.example.tokens == ("mary", "ann", "smith", "visits", "rome")
        assert out.example.labels == ("B-PER", "I-PER", "E-PER", "O", "S-LOC")
        assert len(out.example) == len(ex) + 2
        got = {(s.entity_type) for s in extract_spans(out.example)}
        assert got == {"PER", "LOC"}

    def test_no_usable_site_returns_none(self):
        ex = seq(["john", "visits"], ["S-PER", "O"])
        out = token_substitute(
            ex,
            EntityDict({}),
            SynonymDict({}),
            AugConfig(p_sub=1.0),
            np.random.default_rng(0),
            extract_spans(ex),
        )
        assert out is None

    def test_bio_input_rejected(self):
        ex = LabeledSequence(("john",), ("B-PER",), scheme="BIO")
        with pytest.raises(ValueError, match="BIOES"):
            token_substitute(
                ex,
                self.edict(),
                self.sdict(),
                AugConfig(),
                np.random.default_rng(0),
                extract_spans(ex),
            )

    def test_deterministic_per_seed(self):
        ex = seq(["john", "visits", "paris"], ["S-PER", "O", "S-LOC"])
        cfg = AugConfig(p_sub=0.9)
        spans = extract_spans(ex)
        a = token_substitute(ex, self.edict(), self.sdict(), cfg, np.random.default_rng(5), spans)
        b = token_substitute(ex, self.edict(), self.sdict(), cfg, np.random.default_rng(5), spans)
        assert a == b

    def test_span_structure_preserved_across_random_runs(self):
        corpus = tiny_corpus()
        edict = build_entity_dict(corpus)
        sdict = SynonymDict(
            {
                "visits": [("tours", 0.9)],
                "hires": [("recruits", 0.8)],
                "likes": [("enjoys", 0.7)],
            }
        )
        cfg = AugConfig(gamma=0.5, p_sub=0.9)
        rng = np.random.default_rng(17)
        for _ in range(200):
            ex = corpus.examples[int(rng.integers(len(corpus)))]
            out = token_substitute(ex, edict, sdict, cfg, rng, extract_spans(ex))
            if out is None:
                continue
            want = sorted(s.entity_type for s in extract_spans(ex))
            got = sorted(s.entity_type for s in extract_spans(out.example))
            assert got == want

    def test_ems_share_converges_to_gamma(self):
        # One entity site and one synonym site per sentence, with replacement
        # pools that never return the original surface, so every accepted
        # draw's operations tally cleanly.
        ex = seq(["john", "walks", "home"], ["S-PER", "O", "O"])
        edict = EntityDict({"PER": [("mary",), ("susan",)]})
        sdict = SynonymDict({"walks": [("strolls", 0.9), ("marches", 0.8)]})
        cfg = AugConfig(gamma=0.2, p_sub=0.3)
        rng = np.random.default_rng(23)
        counts = {"entity": 0, "synonym": 0}
        spans = extract_spans(ex)
        for _ in range(6000):
            out = token_substitute(ex, edict, sdict, cfg, rng, spans)
            if out is None:
                continue
            for r in out.replacements:
                counts[r.kind] += 1
        total = counts["entity"] + counts["synonym"]
        assert total >= 5000
        share = counts["entity"] / total
        assert abs(share - 0.2) < 0.03


class TestSampleMixupPair:
    def test_distinct_members_and_lambda_range(self):
        corpus = tiny_corpus()
        rng = np.random.default_rng(0)
        for _ in range(50):
            mx = sample_mixup_pair(corpus, AugConfig(), rng)
            assert mx.first_index != mx.second_index
            assert 0.0 <= mx.lam <= 1.0

    def test_singleton_corpus_rejected(self):
        corpus = Corpus([seq(["a"], ["O"])])
        with pytest.raises(ValueError, match="at least 2"):
            sample_mixup_pair(corpus, AugConfig(), np.random.default_rng(0))

    def test_label_padding_to_longer_member(self):
        mx = MixedExample(
            seq(["a", "b", "c"], ["O", "O", "S-PER"]),
            seq(["d"], ["S-LOC"]),
            lam=0.5,
        )
        assert mx.length == 3
        assert mx.labels_first() == ("O", "O", "S-PER")
        assert mx.labels_second() == ("S-LOC", "O", "O")

    def test_equal_length_pair_needs_no_padding(self):
        mx = MixedExample(
            seq(["a", "b"], ["O", "O"]), seq(["c", "d"], ["S-PER", "O"]), lam=0.3
        )
        assert mx.length == 2
        assert mx.labels_second() == ("S-PER", "O")

    def test_invalid_lambda_rejected(self):
        a, b = seq(["a"], ["O"]), seq(["b"], ["O"])
        for lam in (-0.1, 1.1, float("nan")):
            with pytest.raises(ValueError):
                MixedExample(a, b, lam)

    def test_beta_statistics(self):
        corpus = tiny_corpus()
        cfg = AugConfig(alpha=7.0)
        rng = np.random.default_rng(42)
        draws = np.array(
            [sample_mixup_pair(corpus, cfg, rng).lam for _ in range(10_000)]
        )
        assert abs(draws.mean() - 0.5) < 0.02
        target_var = 1.0 / 60.0  # Beta(a,a) variance = 1 / (4 (2a + 1))
        assert abs(draws.var() - target_var) < 0.2 * target_var


class TestMixEmbeddings:
    def test_endpoints(self):
        e1 = ad.constant(np.array([[1.0, 2.0], [3.0, 4.0]]))
        e2 = ad.constant(np.array([[5.0, 6.0]]))
        at_one = mix_embeddings(e1, e2, 1.0, 2)
        np.testing.assert_array_equal(at_one.data, e1.data)
        at_zero = mix_embeddings(e1, e2, 0.0, 2)
        np.testing.assert_array_equal(at_zero.data, [[5.0, 6.0], [0.0, 0.0]])

    def test_halfway_hand_case(self):
        e1 = ad.constant(np.array([[2.0, 0.0]]))
        e2 = ad.constant(np.array([[0.0, 2.0]]))
        out = mix_embeddings(e1, e2, 0.5, 1)
        np.testing.assert_array_equal(out.data, [[1.0, 1.0]])

    def test_exactly_linear_in_lambda(self):
        rng = np.random.default_rng(1)
        e1 = ad.constant(rng.normal(size=(3, 4)))
        e2 = ad.constant(rng.normal(size=(2, 4)))
        for lam in (0.2, 0.5, 0.9):
            mixed = mix_embeddings(e1, e2, lam, 3).data
            expected = lam * mix_embeddings(e1, e2, 1.0, 3).data + (
                1 - lam
            ) * mix_embeddings(e1, e2, 0.0, 3).data
            np.testing.assert_array_equal(mixed, expected)

    @pytest.mark.parametrize("rows", [(2, 4), (4, 2)], ids=["first_shorter", "second_shorter"])
    def test_gradients_match_finite_differences(self, rows):
        rng = np.random.default_rng(sum(rows))
        store = ad.ParamStore()
        store.add("e1", rng.normal(size=(rows[0], 3)))
        store.add("e2", rng.normal(size=(rows[1], 3)))
        weights = rng.normal(size=(4, 3))

        def loss():
            return tsum(ad.scale(mix_embeddings(store["e1"], store["e2"], 0.3, 4), weights))

        analytic = grad(loss(), store)
        for name in ("e1", "e2"):
            numeric = numeric_gradient(lambda: loss().item(), store[name].data)
            assert rel_err(analytic[name], numeric) < 1e-7, name

    def test_contract_violations(self):
        e1 = ad.constant(np.zeros((2, 3)))
        e2 = ad.constant(np.zeros((2, 4)))
        with pytest.raises(ValueError, match="equal d"):
            mix_embeddings(e1, e2, 0.5, 2)
        e3 = ad.constant(np.zeros((2, 3)))
        with pytest.raises(ValueError, match="lambda"):
            mix_embeddings(e1, e3, 1.5, 2)
        with pytest.raises(ValueError, match="length"):
            mix_embeddings(e1, e3, 0.5, 1)


class TestMixupLoss:
    def pair(self, lam=0.3):
        corpus = tiny_corpus()
        return MixedExample(corpus.examples[0], corpus.examples[1], lam, 0, 1)

    def mixed_forward(self, model, mx):
        e1 = model.lookup_embeddings(mx.first.tokens)
        e2 = model.lookup_embeddings(mx.second.tokens)
        mixed = mix_embeddings(e1, e2, mx.lam, mx.length)
        return model.emissions(model.encode_states(mixed)), model.transitions()

    @pytest.mark.parametrize("layer, nodes", [("embedding", 19), ("encoder", 19)])
    def test_training_graph_size(self, layer, nodes):
        model = tiny_model(dropout=0.5)
        loss = mixup_loss(model, self.pair(), layer, True, np.random.default_rng(0))
        assert len(ad._topo_order(loss)) == nodes

    def test_identity_with_separate_losses_both_layers(self):
        model = tiny_model()
        mx = self.pair(lam=0.37)
        y1 = model.label_indices(mx.labels_first())
        y2 = model.label_indices(mx.labels_second())
        for layer in ("embedding", "encoder"):
            loss = mixup_loss(model, mx, mix_layer=layer).data
            if layer == "embedding":
                o, t = self.mixed_forward(model, mx)
            else:
                h1 = model.encode_states(model.lookup_embeddings(mx.first.tokens))
                h2 = model.encode_states(model.lookup_embeddings(mx.second.tokens))
                states = mix_embeddings(h1, h2, mx.lam, mx.length)
                o, t = model.emissions(states), model.transitions()
            l1 = crf_nll(o, t, y1).data
            l2 = crf_nll(o, t, y2).data
            assert abs(loss - (mx.lam * l1 + (1 - mx.lam) * l2)) < 1e-10

    def test_endpoint_reduces_to_single_loss(self):
        model = tiny_model()
        mx = self.pair(lam=1.0)
        o, t = self.mixed_forward(model, mx)
        expected = crf_nll(o, t, model.label_indices(mx.labels_first())).data
        assert mixup_loss(model, mx).data == expected

    def test_identical_members_match_plain_example_loss(self):
        model = tiny_model()
        ex = tiny_corpus().examples[0]
        mx = MixedExample(ex, ex, lam=1.0)
        assert mixup_loss(model, mx).data == model.sequence_loss(ex).data

    def test_matches_brute_force_oracle(self):
        model = tiny_model()
        mx = self.pair(lam=0.61)
        o, t = self.mixed_forward(model, mx)
        want = mx.lam * brute_nll(
            o.data, t.data, tuple(model.label_indices(mx.labels_first()))
        ) + (1 - mx.lam) * brute_nll(
            o.data, t.data, tuple(model.label_indices(mx.labels_second()))
        )
        got = mixup_loss(model, mx).data
        assert abs(got - want) < 1e-8

    def test_gradients_match_finite_differences_both_layers(self):
        model = tiny_model()
        mx = self.pair(lam=0.42)
        for layer in ("embedding", "encoder"):
            err = finite_diff_check(
                lambda: mixup_loss(model, mx, mix_layer=layer), model.params
            )
            assert err < 1e-6, layer

    def test_gradient_with_frozen_dropout(self):
        model = tiny_model(dropout=0.5)
        mx = self.pair(lam=0.42)
        err = finite_diff_check(
            lambda: mixup_loss(
                model, mx, train=True, rng=np.random.default_rng(9)
            ),
            model.params,
        )
        assert err < 1e-6

    def test_invalid_layer_rejected(self):
        with pytest.raises(ValueError, match="mix_layer"):
            mixup_loss(tiny_model(), self.pair(), mix_layer="logits")


class TestPackedLoss:
    """`TaggerModel.batch_loss` of plain sentences and mixup pairs as lanes of one
    graph, against one graph each."""

    @staticmethod
    def examples():
        a, b, c = tiny_corpus().examples  # lengths 4, 3, 3
        d = seq(["paris"], ["S-LOC"])
        return [
            b,
            MixedExample(d, a, 0.37),  # first shorter
            MixedExample(a, b, 0.0),  # second shorter
            d,
            MixedExample(c, d, 1.0),  # second shorter
            MixedExample(b, c, 0.37),  # equal lengths
            a,
        ]

    @staticmethod
    def separate_losses(model, examples, layer):
        return [
            pair_loss(model, ex, layer) if isinstance(ex, MixedExample) else model.sequence_loss(ex)
            for ex in examples
        ]

    @pytest.mark.parametrize("layer", ["embedding", "encoder"])
    def test_per_example_losses_match_separate_graphs(self, layer):
        model = tiny_model()
        examples = self.examples()
        loss = model.batch_loss(examples, mix_layer=layer)
        want = np.array([t.item() for t in self.separate_losses(model, examples, layer)])
        assert rel_err(loss.per_lane, want) < 1e-12
        assert abs(loss.item() - want.sum()) < 1e-12

    @pytest.mark.parametrize("layer", ["embedding", "encoder"])
    def test_example_gradients_match_separate_graphs(self, layer):
        model = tiny_model()
        examples = self.examples()
        n = len(examples)
        rows = grad(model.batch_loss(examples, mix_layer=layer), model.params, per_example=True)
        assert isinstance(rows, ad.ExampleGrads)
        separate = [grad(t, model.params) for t in self.separate_losses(model, examples, layer)]
        meta = grad(model.batch_loss(tiny_corpus().examples[1:]), model.params)
        want = np.array([meta.dot(g) for g in separate])
        assert np.max(np.abs(rows.dots(meta, n) - want)) <= 1e-12 * np.max(np.abs(want))
        w = np.random.default_rng(3).random(n)
        got, combined = rows.weighted(w), ad.combine(separate, w)
        summed = grad(model.batch_loss(examples, mix_layer=layer), model.params)
        for name in model.params.names():
            assert rel_err(got[name], combined[name]) < 1e-12, name
            assert rel_err(summed[name], ad.combine(separate, np.ones(n))[name]) < 1e-12

    @pytest.mark.parametrize("layer", MIX_LAYERS)
    def test_plain_and_pair_match_the_oracle_example_losses(self, layer):
        model = tiny_model()
        a, b, _ = tiny_corpus().examples
        pair = MixedExample(a, b, 0.37)
        loss = model.batch_loss([b, pair], mix_layer=layer)
        items = [TrainExample(b, "clean", "clean-1"), TrainExample(pair, "mixup", "mixup-0")]
        separate = [oracles.example_loss(model, item, layer, train=False) for item in items]
        want = np.array([t.item() for t in separate])
        assert rel_err(loss.per_lane, want) < 1e-12
        got = grad(loss, model.params)
        for name in model.params.names():
            summed = sum(grad(t, model.params)[name] for t in separate)
            assert rel_err(got[name], summed) < 1e-12, name

    def test_unknown_mix_layer_rejected(self):
        model = tiny_model()
        with pytest.raises(ValueError, match="mix_layer"):
            model.batch_loss(tiny_corpus().examples, mix_layer="logits")

    def test_without_pairs_is_the_batch_loss(self):
        # Owners tag rows for per-example weights only: plain sentences give
        # the bits of the same stages run with no owners.
        model = tiny_model(dropout=0.5)
        plain = tiny_corpus().examples
        got = model.batch_loss(plain, train=True, rng=np.random.default_rng(4))
        rng, lengths = np.random.default_rng(4), [len(ex) for ex in plain]
        lanes = Lanes(lengths, sum(lengths))
        x = model.lookup_embeddings([tok for ex in plain for tok in ex.tokens])
        states = model.dropout(model.encode_states(model.dropout(x, rng), lanes), rng)
        labels = [y for ex in plain for y in model.label_indices(ex.labels)]
        want = crf_nll(model.emissions(states), model.transitions(), labels, lanes)
        assert got.item() == want.item()
        g, w = grad(got, model.params), grad(want, model.params)
        for name in model.params.names():
            assert g[name].tobytes() == w[name].tobytes(), name

    @pytest.mark.parametrize("layer", ["embedding", "encoder"])
    def test_gradient_with_frozen_dropout(self, layer):
        model = tiny_model(dropout=0.5)
        examples = self.examples()[:3]
        err = finite_diff_check(
            lambda: model.batch_loss(examples, True, np.random.default_rng(6), layer),
            model.params,
        )
        assert err < 1e-6, layer


class TestSlotGenerators:
    @staticmethod
    def draws(rng):
        # float32 draws use PCG64's buffered half word, beta its normals.
        return (
            rng.random(3, dtype=np.float32).tolist(),
            rng.random(3).tolist(),
            rng.integers(7, size=3).tolist(),
            int(rng.integers(2**40)),
            float(rng.beta(7.0, 7.0)),
        )

    @pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**64 + 7, 2**160 + 3])
    def test_draw_the_seed_sequence_streams(self, seed):
        slots = 0
        for slot, rng in enumerate(augment._slot_generators(seed, 40)):
            want = np.random.default_rng(np.random.SeedSequence([seed, slot]))
            assert self.draws(rng) == self.draws(want), slot
            slots += 1
        assert slots == 40

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError, match="seed"):
            next(augment._slot_generators(-1, 3))


class TestGenerateAugmentedSet:
    def dicts(self):
        corpus = tiny_corpus()
        edict = build_entity_dict(corpus)
        sdict = SynonymDict(
            {
                "visits": [("tours", 0.9)],
                "hires": [("recruits", 0.8)],
                "likes": [("enjoys", 0.7)],
            }
        )
        return corpus, edict, sdict

    def test_times_zero_is_empty(self):
        corpus, edict, sdict = self.dicts()
        out = generate_augmented_set(corpus, AugConfig(times=0), 0, edict, sdict)
        assert out == []

    def test_ts_only_count_and_provenance(self):
        corpus, edict, sdict = self.dicts()
        out = generate_augmented_set(
            corpus, AugConfig(times=5, p_sub=0.5), 0, edict, sdict, use_ts=True
        )
        assert len(out) == 5 * len(corpus)
        assert all(isinstance(p, Substituted) for p in out)
        assert all(0 <= p.source_index < len(corpus) for p in out)

    def test_even_split_when_both_enabled(self):
        corpus, edict, sdict = self.dicts()
        cfg = AugConfig(times=4, p_sub=0.5)
        out = generate_augmented_set(
            corpus, cfg, 1, edict, sdict, use_ts=True, use_mixup=True
        )
        assert len(out) == 12
        assert sum(isinstance(p, Substituted) for p in out) == 6
        assert sum(isinstance(p, MixedExample) for p in out) == 6

    def test_mixup_only(self):
        corpus, _, _ = self.dicts()
        out = generate_augmented_set(
            corpus, AugConfig(times=2), 3, use_ts=False, use_mixup=True
        )
        assert len(out) == 6
        assert all(isinstance(p, MixedExample) for p in out)

    def test_deterministic_per_seed(self):
        corpus, edict, sdict = self.dicts()
        cfg = AugConfig(times=3, p_sub=0.5)
        a = generate_augmented_set(corpus, cfg, 7, edict, sdict, use_ts=True, use_mixup=True)
        b = generate_augmented_set(corpus, cfg, 7, edict, sdict, use_ts=True, use_mixup=True)
        assert a == b
        c = generate_augmented_set(corpus, cfg, 8, edict, sdict, use_ts=True, use_mixup=True)
        assert a != c

    @pytest.mark.parametrize("seed", [3, 2**64 + 7])
    def test_equals_a_generator_built_per_slot(self, monkeypatch, seed):
        corpus = synthetic_corpus(30, seed=0)
        edict = build_entity_dict(corpus)
        sdict = build_synonym_dict(synthetic_vectors(), k=5, stopwords=STOPWORDS)
        cfg = AugConfig(times=2, p_sub=0.5)
        args = (corpus, cfg, seed, edict, sdict, True, True)
        got = generate_augmented_set(*args)
        monkeypatch.setattr(
            augment,
            "_slot_generators",
            lambda seed, total: (
                np.random.default_rng(np.random.SeedSequence([seed, slot]))
                for slot in range(total)
            ),
        )
        assert generate_augmented_set(*args) == got

    def test_different_seeds_draw_independent_sets(self):
        corpus = synthetic_corpus(50, seed=0)
        edict = build_entity_dict(corpus)
        sdict = build_synonym_dict(synthetic_vectors(), k=5, stopwords=STOPWORDS)
        cfg = AugConfig(times=1, p_sub=0.5)

        def pseudo_set(seed):
            out = generate_augmented_set(corpus, cfg, seed, edict, sdict)
            return {p.example for p in out}

        a, b = pseudo_set(0), pseudo_set(1)
        assert len(a & b) <= 0.2 * min(len(a), len(b))

    def test_no_method_enabled_rejected(self):
        corpus, _, _ = self.dicts()
        with pytest.raises(ValueError, match="method"):
            generate_augmented_set(corpus, AugConfig(times=1), 0, use_ts=False, use_mixup=False)

    def test_impossible_substitution_raises(self):
        corpus, _, _ = self.dicts()
        with pytest.raises(RuntimeError, match="dictionaries"):
            generate_augmented_set(corpus, AugConfig(times=1), 0, EntityDict({}), SynonymDict({}))

    @pytest.mark.parametrize("source", ["synthetic", "multi-token"])
    def test_equals_set_from_per_sentence_spans(self, source):
        # The corpus is parsed once; each drawn sentence must get its own spans.
        if source == "synthetic":
            corpus = synthetic_corpus(60, seed=4)
            sdict = build_synonym_dict(synthetic_vectors(), k=5, stopwords=STOPWORDS)
        else:
            corpus = Corpus(
                [
                    seq(
                        "the new york city council".split(),
                        ["O", "B-ORG", "I-ORG", "I-ORG", "E-ORG"],
                    ),
                    seq(
                        "john ronald smith visits rome".split(),
                        ["B-PER", "I-PER", "E-PER", "O", "S-LOC"],
                    ),
                    seq("mary likes san jose".split(), ["S-PER", "O", "B-LOC", "E-LOC"]),
                    seq("acme hires anne".split(), ["S-ORG", "O", "S-PER"]),
                ]
            )
            sdict = SynonymDict({"visits": [("tours", 0.9)], "likes": [("enjoys", 0.7)]})
        edict = build_entity_dict(corpus)
        cfg = AugConfig(times=10, gamma=0.5, p_sub=0.5)
        got = generate_augmented_set(corpus, cfg, 9, edict, sdict, use_ts=True, use_mixup=True)
        spans = [oracles._parse_spans(ex.labels, "BIOES", warn=False) for ex in corpus.examples]
        want = generate_augmented_set(
            corpus, cfg, 9, edict, sdict, use_ts=True, use_mixup=True, spans=spans
        )
        assert got == want
        multi = [
            r
            for p in want
            if isinstance(p, Substituted)
            for r in p.replacements
            if r.kind == "entity" and r.end > r.start
        ]
        assert len(multi) >= 5
