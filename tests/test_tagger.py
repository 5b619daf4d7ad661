"""BiLSTM-CRF model: shapes, cell math, CRF exactness, gradients, persistence."""

import hashlib
import tracemalloc

import numpy as np
import pytest

from oracles import (
    all_sequences,
    brute_log_partition,
    brute_nll,
    brute_score,
    brute_viterbi_score,
    add,
    finite_diff_check,
    numeric_gradient,
    rel_err,
    sentence_bilstm,
    sentence_crf_log_partition,
    sentence_decode,
    sentence_viterbi,
    snapshot,
    sub,
    tsum,
)

from metaner import autodiff as ad
from metaner import tagger as tagger_mod
from metaner.augment import MixedExample, mixup_loss
from metaner.autodiff import RowGrad, grad
from metaner.corpus import Corpus, LabeledSequence
from metaner.optim import AdamWState, adamw_step
from metaner.tagger import (
    Lanes,
    ModelConfig,
    TaggerModel,
    bilstm,
    crf_log_partition,
    crf_nll,
    crf_score,
    viterbi,
)
from metaner.vectors import read_vector_file, write_vector_file


def seq(tokens, labels):
    return LabeledSequence(tuple(tokens), tuple(labels), scheme="BIOES")


def tiny_corpus():
    return Corpus(
        [
            seq(["john", "smith", "visits", "paris"], ["B-PER", "E-PER", "O", "S-LOC"]),
            seq(["acme", "hires", "john"], ["S-ORG", "O", "S-PER"]),
        ]
    )


def tiny_model(emb_dim=4, hidden=3, dropout=0.0, seed=0, **kw):
    config = ModelConfig(emb_dim=emb_dim, hidden=hidden, dropout=dropout, **kw)
    return TaggerModel.build(tiny_corpus(), config, seed=seed)


# --- independent LSTM reference ------------------------------------------------


def _sig(x):
    return 1.0 / (1.0 + np.exp(-x))


def lstm_reference(Wx, Wh, b, xs, reverse=False):
    """Step-by-step cell recurrence in plain numpy, gate order (i, f, g, o)."""
    hidden = Wh.shape[1]
    h = np.zeros(hidden)
    c = np.zeros(hidden)
    order = range(len(xs) - 1, -1, -1) if reverse else range(len(xs))
    out = {}
    for i in order:
        pre = Wx @ xs[i] + Wh @ h + b
        i_g = _sig(pre[:hidden])
        f_g = _sig(pre[hidden : 2 * hidden])
        g_g = np.tanh(pre[2 * hidden : 3 * hidden])
        o_g = _sig(pre[3 * hidden :])
        c = f_g * c + i_g * g_g
        h = o_g * np.tanh(c)
        out[i] = h
    return [out[i] for i in range(len(xs))]


class TestEncoder:
    def test_shapes(self):
        model = tiny_model()
        emb = model.lookup_embeddings(["john", "visits", "paris"])
        assert emb.shape == (3, 4)
        states = model.encode_states(emb)
        assert states.shape == (3, 6)
        o = model.emissions(states)
        assert o.shape == (3, len(model.label_vocab))
        assert model.transitions().shape == (len(model.label_vocab) + 1, len(model.label_vocab))

    def test_forget_gate_bias_initialized_to_one(self):
        model = tiny_model(hidden=5)
        for prefix in ("lstm.fw", "lstm.bw"):
            b = model.params[f"{prefix}.b"].data
            assert np.all(b[5:10] == 1.0)
            assert np.all(b[:5] == 0.0) and np.all(b[10:] == 0.0)

    def test_states_match_cell_recurrence(self):
        model = tiny_model(emb_dim=3, hidden=2, seed=4)
        rng = np.random.default_rng(11)
        xs = rng.normal(size=(3, 3))
        states = model.encode_states(ad.constant(xs.copy()))
        p = model.params
        fwd = lstm_reference(
            p["lstm.fw.Wx"].data, p["lstm.fw.Wh"].data, p["lstm.fw.b"].data, xs
        )
        bwd = lstm_reference(
            p["lstm.bw.Wx"].data, p["lstm.bw.Wh"].data, p["lstm.bw.b"].data, xs, reverse=True
        )
        expected = np.stack([np.concatenate([f, b]) for f, b in zip(fwd, bwd)])
        np.testing.assert_allclose(states.data, expected, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("n", [1, 2, 7])
    def test_states_gradient_matches_finite_differences(self, n):
        model = tiny_model(emb_dim=3, hidden=2, seed=14)
        vocab = model.table.vocab[2:]
        tokens = [vocab[i % len(vocab)] for i in range(n)]
        # Weighting both halves of every state row reaches both directions.
        weights = np.random.default_rng(n).normal(size=(n, 4))
        err = finite_diff_check(
            lambda: tsum(
                ad.scale(model.encode_states(model.lookup_embeddings(tokens)), weights)
            ),
            model.params,
        )
        assert err < 1e-6

    def test_emissions_are_affine_in_states(self):
        model = tiny_model()
        states = model.encode_states(model.lookup_embeddings(["acme", "hires"]))
        o = model.emissions(states)
        expected = states.data @ model.params["crf.W"].data + model.params["crf.b"].data
        np.testing.assert_allclose(o.data, expected, rtol=1e-15)

    def test_unknown_token_maps_to_unk_row(self):
        model = tiny_model()
        emb = model.lookup_embeddings(["zzz-never-seen"])
        np.testing.assert_array_equal(emb.data[0], model.params["embed.table"].data[1])

    def test_lowercase_option_merges_case_variants(self):
        model = tiny_model(lowercase=True)
        assert model.table.index("John") == model.table.index("john")
        assert model.table.index("john") != model.table.UNK_INDEX


class TestDropout:
    def test_eval_mode_is_deterministic_without_rng(self):
        model = tiny_model(dropout=0.5)
        o1, _ = model.forward(["john", "visits"])
        o2, _ = model.forward(["john", "visits"])
        np.testing.assert_array_equal(o1.data, o2.data)

    def test_same_seed_same_masks(self):
        model = tiny_model(dropout=0.5)
        o1, _ = model.forward(["john", "visits"], train=True, rng=np.random.default_rng(3))
        o2, _ = model.forward(["john", "visits"], train=True, rng=np.random.default_rng(3))
        np.testing.assert_array_equal(o1.data, o2.data)

    def test_different_seed_different_masks(self):
        model = tiny_model(dropout=0.5)
        o1, _ = model.forward(["john", "visits"], train=True, rng=np.random.default_rng(3))
        o2, _ = model.forward(["john", "visits"], train=True, rng=np.random.default_rng(4))
        assert not np.array_equal(o1.data, o2.data)

    def test_zero_rate_train_equals_eval(self):
        model = tiny_model(dropout=0.0)
        o1, _ = model.forward(["john", "visits"], train=True, rng=np.random.default_rng(3))
        o2, _ = model.forward(["john", "visits"])
        np.testing.assert_array_equal(o1.data, o2.data)


# --- CRF layer against brute-force enumeration ---------------------------------


def random_crf(rng, n, num_labels, scale=1.0):
    o = rng.normal(scale=scale, size=(n, num_labels))
    t = rng.normal(scale=scale, size=(num_labels + 1, num_labels))
    return o, t


class TestCrfScore:
    def test_matches_brute_score(self):
        rng = np.random.default_rng(0)
        for _ in range(30):
            n = int(rng.integers(1, 6))
            num_labels = int(rng.integers(2, 5))
            o, t = random_crf(rng, n, num_labels)
            labels = tuple(int(v) for v in rng.integers(0, num_labels, size=n))
            got = crf_score(ad.constant(o), ad.constant(t), labels).data
            assert abs(got - brute_score(o, t, labels)) < 1e-12

    def test_length_mismatch_rejected(self):
        o = ad.constant(np.zeros((3, 2)))
        t = ad.constant(np.zeros((3, 2)))
        with pytest.raises(ValueError, match="length"):
            crf_score(o, t, [0, 1])

    def test_label_out_of_range_rejected(self):
        o = ad.constant(np.zeros((2, 2)))
        t = ad.constant(np.zeros((3, 2)))
        with pytest.raises(ValueError, match="range"):
            crf_score(o, t, [0, 2])


class TestCrfPartition:
    def test_single_position_closed_form(self):
        rng = np.random.default_rng(1)
        o, t = random_crf(rng, 1, 4)
        got = crf_log_partition(ad.constant(o), ad.constant(t)).data
        expected = np.log(np.sum(np.exp(t[-1] + o[0])))
        assert abs(got - expected) < 1e-12

    def test_zero_scores_give_n_log_l(self):
        for n, num_labels in [(1, 3), (4, 3), (5, 2)]:
            o = ad.constant(np.zeros((n, num_labels)))
            t = ad.constant(np.zeros((num_labels + 1, num_labels)))
            got = crf_log_partition(o, t).data
            assert abs(got - n * np.log(num_labels)) < 1e-12

    def test_matches_enumeration(self):
        rng = np.random.default_rng(2)
        for _ in range(40):
            n = int(rng.integers(1, 6))
            num_labels = int(rng.integers(2, 5))
            o, t = random_crf(rng, n, num_labels, scale=2.0)
            got = crf_log_partition(ad.constant(o), ad.constant(t)).data
            want = brute_log_partition(o, t)
            assert abs(got - want) / max(1.0, abs(want)) < 1e-10

    @pytest.mark.parametrize("n", [1, 2, 4])
    def test_gradients_are_brute_force_marginals(self, n):
        rng = np.random.default_rng(20 + n)
        o, t = random_crf(rng, n, 3)
        store = ad.ParamStore()
        store.add("o", o)
        store.add("t", t)
        log_z = crf_log_partition(store["o"], store["t"])
        assert abs(log_z.item() - brute_log_partition(o, t)) < 1e-12
        analytic = grad(log_z, store)
        for name in ("o", "t"):
            arr = store[name].data
            numeric = numeric_gradient(
                lambda: brute_log_partition(store["o"].data, store["t"].data), arr
            )
            assert rel_err(analytic[name], numeric) < 1e-8, name

    def test_stable_under_large_scores(self):
        rng = np.random.default_rng(3)
        o, t = random_crf(rng, 3, 3)
        got = crf_log_partition(ad.constant(o * 500), ad.constant(t * 500)).data
        assert np.isfinite(got)
        want = brute_viterbi_score(o * 500, t * 500)
        assert got >= want  # partition dominates the best single path

    def test_probabilities_normalize(self):
        rng = np.random.default_rng(4)
        o, t = random_crf(rng, 3, 3)
        log_z = crf_log_partition(ad.constant(o), ad.constant(t)).data
        total = sum(
            np.exp(brute_score(o, t, labels) - log_z) for labels in all_sequences(3, 3)
        )
        assert abs(total - 1.0) < 1e-12


class TestCrfNll:
    def test_matches_brute_and_nonnegative(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            n = int(rng.integers(1, 5))
            num_labels = int(rng.integers(2, 4))
            o, t = random_crf(rng, n, num_labels)
            labels = tuple(int(v) for v in rng.integers(0, num_labels, size=n))
            got = crf_nll(ad.constant(o), ad.constant(t), labels).data
            assert abs(got - brute_nll(o, t, labels)) < 1e-10
            assert got >= 0.0

    def test_invariant_to_constant_emission_shift(self):
        rng = np.random.default_rng(6)
        o, t = random_crf(rng, 4, 3)
        labels = (0, 2, 1, 1)
        base = crf_nll(ad.constant(o), ad.constant(t), labels).data
        shifted = crf_nll(ad.constant(o + 17.5), ad.constant(t), labels).data
        assert abs(base - shifted) < 1e-9

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        o, t = random_crf(rng, 3, 3)
        labels = (2, 0, 1)
        store = ad.ParamStore()
        store.add("o", o)
        store.add("t", t)
        err = finite_diff_check(
            lambda: crf_nll(store["o"], store["t"], labels), store
        )
        assert err < 1e-8


class TestViterbi:
    def test_achieves_brute_force_maximum(self):
        rng = np.random.default_rng(8)
        for _ in range(40):
            n = int(rng.integers(1, 6))
            num_labels = int(rng.integers(2, 5))
            o, t = random_crf(rng, n, num_labels)
            path = viterbi(o, t)
            assert len(path) == n
            assert brute_score(o, t, tuple(path)) == brute_viterbi_score(o, t)

    def test_ties_resolve_to_lowest_label_index(self):
        o = np.zeros((4, 3))
        t = np.zeros((4, 3))
        assert viterbi(o, t) == [0, 0, 0, 0]

    def test_follows_transition_structure(self):
        # Label 1 is forced after label 0 by a large transition bonus.
        o = np.array([[5.0, 0.0], [0.0, 0.0], [5.0, 0.0], [0.0, 0.0]])
        t = np.array([[-10.0, 10.0], [0.0, -10.0], [0.0, 0.0]])
        assert viterbi(o, t) == [0, 1, 0, 1]


class TestPackedViterbi:
    """Packed `viterbi` against the one-sentence oracle, path for path."""

    KINDS = ["ragged", "one_token", "equal", "ascending", "all_zero", "final_ties"]

    @staticmethod
    def final_ties(o, t, rng):
        """Set o's last row so that two or more labels tie for the best path
        score, and only there: scores are multiples of 1/256, so sums are exact."""
        best = t[-1]  # best score of a path ending in each label, before its emission
        for row in o[:-1]:
            best = ((best + row)[:, None] + t[:-1]).max(axis=0)
        tied = rng.permutation(o.shape[1])[: int(rng.integers(2, o.shape[1] + 1))]
        o[-1] = 2.0**30 - best - 1.0
        o[-1, tied] += 1.0

    def packing(self, kind, rng):
        num_labels = int(rng.integers(2, 6))
        k = int(rng.integers(1, 9))
        lengths = [int(n) for n in rng.integers(1, 12, size=k)]
        if kind == "one_token":
            lengths = [1] * k
        elif kind == "equal":
            lengths = [lengths[0]] * k
        elif kind == "ascending":  # lanes run in the reverse of packed order
            lengths = sorted(rng.choice(np.arange(1, 16), size=k + 1, replace=False))
        n = sum(lengths)
        o = rng.integers(-(2**20), 2**20, size=(n, num_labels)) / 256
        t = rng.integers(-(2**20), 2**20, size=(num_labels + 1, num_labels)) / 256
        if kind == "all_zero":  # every comparison is a tie
            o[:], t[:] = 0.0, 0.0
        if kind == "final_ties":
            for part in split_rows(o, lengths):
                self.final_ties(part, t, rng)
        return o, t, lengths

    @pytest.mark.parametrize("kind", KINDS)
    def test_equals_sentence_viterbi(self, kind):
        rng = np.random.default_rng(len(kind))
        for _ in range(40):  # 240 packings over the six kinds
            o, t, lengths = self.packing(kind, rng)
            want = [y for part in split_rows(o, lengths) for y in sentence_viterbi(part, t)]
            assert viterbi(o, t, lanes_of(lengths)) == want
            if len(lengths) == 1:
                assert viterbi(o, t) == want


# --- packed sentences against per-sentence oracles --------------------------------

LSTM_NAMES = [f"lstm.{d}.{w}" for d in ("fw", "bw") for w in ("Wx", "Wh", "b")]


def split_rows(x, lengths):
    return np.split(x, np.cumsum(lengths)[:-1])


def lanes_of(lengths):
    return Lanes(lengths, sum(lengths))


def total(losses):
    out = losses[0]
    for loss in losses[1:]:
        out = add(out, loss)
    return out


class TestPackedBatch:
    """The packed nodes against sums of one-sentence oracle calls."""

    LENGTHS = [[1], [1, 1, 1], [3, 3, 3], [1, 2, 4, 7], [7, 4, 2, 1], [2, 7, 1, 4]]

    @staticmethod
    def leaves(rows, lengths, shared):
        """Packed leaf `x` and per-sentence leaves `x0`, `x1`, ... plus `shared`."""
        packed, split = ad.ParamStore(), ad.ParamStore()
        packed.add("x", rows)
        for k, part in enumerate(split_rows(rows, lengths)):
            split.add(f"x{k}", part)
        for name, value in shared.items():
            packed.add(name, value)
            split.add(name, value)
        return packed, split

    @staticmethod
    def assert_close(got, want, lengths, shared):
        want_x = np.concatenate([want[f"x{k}"] for k in range(len(lengths))])
        assert rel_err(got["x"], want_x) < 1e-12
        for name in shared:
            assert rel_err(got[name], want[name]) < 1e-12, name

    @pytest.mark.parametrize("lengths", LENGTHS, ids=str)
    def test_bilstm_is_sum_of_sentence_calls(self, lengths):
        rng = np.random.default_rng(sum(lengths))
        model = tiny_model(emb_dim=3, hidden=2, seed=len(lengths))
        shared = {name: model.params[name].data for name in LSTM_NAMES}
        n = sum(lengths)
        packed, split = self.leaves(rng.normal(size=(n, 3)), lengths, shared)
        upstream = rng.normal(size=(n, 4))
        out = bilstm(packed["x"], [packed[name] for name in LSTM_NAMES], lanes_of(lengths))
        got = grad(tsum(ad.scale(out, upstream)), packed)
        outs = [
            sentence_bilstm(split[f"x{k}"], [split[name] for name in LSTM_NAMES])
            for k in range(len(lengths))
        ]
        assert rel_err(out.data, np.concatenate([h.data for h in outs])) < 1e-12
        want = grad(
            total(
                [
                    tsum(ad.scale(h, g))
                    for h, g in zip(outs, split_rows(upstream, lengths))
                ]
            ),
            split,
        )
        self.assert_close(got, want, lengths, shared)

    @pytest.mark.parametrize("lengths", LENGTHS, ids=str)
    def test_crf_partition_is_sum_of_sentence_calls(self, lengths):
        rng = np.random.default_rng(100 + sum(lengths))
        num_labels = 4
        o, t = random_crf(rng, sum(lengths), num_labels, scale=2.0)
        packed, split = self.leaves(o, lengths, {"t": t})
        log_z = crf_log_partition(packed["x"], packed["t"], lanes_of(lengths))
        got = grad(log_z, packed)
        parts = [
            sentence_crf_log_partition(split[f"x{k}"], split["t"])
            for k in range(len(lengths))
        ]
        want_z = total(parts)
        assert rel_err(np.array(log_z.data), np.array(want_z.data)) < 1e-12
        want = grad(want_z, split)
        self.assert_close(got, want, lengths, {"t": t})

    @pytest.mark.parametrize("lengths", LENGTHS, ids=str)
    def test_crf_score_is_sum_of_brute_scores(self, lengths):
        rng = np.random.default_rng(200 + sum(lengths))
        o, t = random_crf(rng, sum(lengths), 3)
        labels = rng.integers(0, 3, size=sum(lengths))
        got = crf_score(ad.constant(o), ad.constant(t), labels, lanes_of(lengths)).item()
        want = sum(
            brute_score(o_k, t, tuple(y_k))
            for o_k, y_k in zip(split_rows(o, lengths), split_rows(labels, lengths))
        )
        assert abs(got - want) < 1e-12

    @pytest.mark.parametrize("lengths", LENGTHS, ids=str)
    def test_crf_score_gradients_match_finite_differences(self, lengths):
        rng = np.random.default_rng(300 + sum(lengths))
        o, t = random_crf(rng, sum(lengths), 3)
        labels = rng.integers(0, 3, size=sum(lengths))
        store = ad.ParamStore()
        store.add("o", o)
        store.add("t", t)

        def score():
            return crf_score(store["o"], store["t"], labels, lanes_of(lengths))

        analytic = grad(score(), store)
        for name in ("o", "t"):
            numeric = numeric_gradient(lambda: score().item(), store[name].data)
            assert rel_err(analytic[name], numeric) < 1e-8, name

    @pytest.mark.parametrize("lengths", LENGTHS, ids=str)
    def test_weighted_gold_paths_are_weighted_sums(self, lengths):
        rng = np.random.default_rng(400 + sum(lengths))
        o, t = random_crf(rng, sum(lengths), 3)
        paths = rng.integers(0, 3, size=(2, sum(lengths)))
        coefs = rng.random((2, len(lengths)))
        store = ad.ParamStore()
        store.add("o", o)
        store.add("t", t)

        def score():
            return crf_score(store["o"], store["t"], paths, lanes_of(lengths), coefs)

        want = [
            sum(c[k] * brute_score(o_k, t, tuple(y_k)) for c, y_k in zip(coefs, ys))
            for k, (o_k, *ys) in enumerate(
                zip(split_rows(o, lengths), *(split_rows(y, lengths) for y in paths))
            )
        ]
        got = score()
        assert rel_err(got.per_lane, np.array(want)) < 1e-12
        assert abs(got.item() - sum(want)) < 1e-12
        analytic = grad(got, store)
        for name in ("o", "t"):
            numeric = numeric_gradient(lambda: score().item(), store[name].data)
            assert rel_err(analytic[name], numeric) < 1e-8, name

    @pytest.mark.parametrize("lengths", LENGTHS, ids=str)
    def test_per_lane_nll_in_sentence_order(self, lengths):
        rng = np.random.default_rng(500 + sum(lengths))
        o, t = random_crf(rng, sum(lengths), 3)
        labels = rng.integers(0, 3, size=sum(lengths))
        nll = crf_nll(ad.constant(o), ad.constant(t), labels, lanes_of(lengths))
        want = [
            brute_nll(o_k, t, tuple(y_k))
            for o_k, y_k in zip(split_rows(o, lengths), split_rows(labels, lengths))
        ]
        assert rel_err(nll.per_lane, np.array(want)) < 1e-12

    @pytest.mark.parametrize("lengths", LENGTHS, ids=str)
    def test_lane_states_do_not_depend_on_companions(self, lengths):
        rng = np.random.default_rng(600 + sum(lengths))
        model = tiny_model(emb_dim=3, hidden=2, seed=len(lengths))
        weights = [model.params[name] for name in LSTM_NAMES]
        x = rng.normal(size=(sum(lengths), 3))
        packed = bilstm(ad.constant(x), weights, lanes_of(lengths)).data
        for part, x_k in zip(split_rows(packed, lengths), split_rows(x, lengths)):
            assert part.tobytes() == bilstm(ad.constant(x_k), weights).data.tobytes()

    def test_crf_marginals_match_brute_force(self):
        rng = np.random.default_rng(30)
        lengths = [1, 3, 2]
        o, t = random_crf(rng, sum(lengths), 3)
        store = ad.ParamStore()
        store.add("o", o)
        store.add("t", t)

        def brute():
            parts = split_rows(store["o"].data, lengths)
            return sum(brute_log_partition(o_k, store["t"].data) for o_k in parts)

        log_z = crf_log_partition(store["o"], store["t"], lanes_of(lengths))
        assert abs(log_z.item() - brute()) < 1e-12
        analytic = grad(log_z, store)
        for name in ("o", "t"):
            numeric = numeric_gradient(brute, store[name].data)
            assert rel_err(analytic[name], numeric) < 1e-8, name

    def test_batch_loss_matches_sentence_oracles_under_frozen_masks(self):
        model = tiny_model(emb_dim=3, hidden=2, dropout=0.5, seed=21)
        seqs = tiny_corpus().examples + [
            seq(["paris"], ["S-LOC"]),
            seq(["acme", "visits"], ["S-ORG", "O"]),
        ]
        lengths = [len(s) for s in seqs]
        got = model.batch_loss(seqs, train=True, rng=np.random.default_rng(4))
        # batch_loss draws one mask over the real tokens for the embeddings,
        # then one for the BiLSTM states.
        rng, n = np.random.default_rng(4), sum(lengths)
        masks = [(rng.random((n, width)) < 0.5) / 0.5 for width in (3, 4)]
        emb_masks, state_masks = (split_rows(m, lengths) for m in masks)
        weights = [model.params[name] for name in LSTM_NAMES]
        parts = []
        for s, emb_mask, state_mask in zip(seqs, emb_masks, state_masks):
            emb = ad.scale(model.lookup_embeddings(s.tokens), emb_mask)
            states = ad.scale(sentence_bilstm(emb, weights), state_mask)
            o, t = model.emissions(states), model.transitions()
            labels = model.label_indices(s.labels)
            parts.append(sub(sentence_crf_log_partition(o, t), crf_score(o, t, labels)))
        want = total(parts)
        assert rel_err(np.array(got.data), np.array(want.data)) < 1e-12
        got_grads, want_grads = grad(got, model.params), grad(want, model.params)
        for name in model.params.names():
            assert rel_err(got_grads[name], want_grads[name]) < 1e-12, name

    @pytest.mark.parametrize("lengths", [[2, 2], [0, 5], [], [6, -1]], ids=str)
    def test_lengths_must_split_the_rows(self, lengths):
        with pytest.raises(ValueError, match="lengths"):
            Lanes(lengths, 5)

    def test_nodes_reject_lanes_of_other_rows(self):
        o, t = ad.constant(np.zeros((5, 2))), ad.constant(np.zeros((3, 2)))
        lanes = Lanes([2, 2], 4)
        with pytest.raises(ValueError, match="lanes"):
            crf_log_partition(o, t, lanes)
        with pytest.raises(ValueError, match="lanes"):
            crf_score(o, t, [0] * 5, lanes)
        with pytest.raises(ValueError, match="lanes"):
            viterbi(o.data, t.data, lanes)
        with pytest.raises(ValueError, match="lanes"):
            bilstm(ad.constant(np.zeros((5, 3))), [ad.constant(np.zeros(1))] * 6, lanes)


# --- full-model losses ----------------------------------------------------------


class TestSequenceLoss:
    def test_training_loss_is_eighteen_nodes_for_any_batch(self):
        # lookup, two dropouts, BiLSTM, affine, partition, score and their
        # difference, over the 10 parameters
        model = tiny_model(dropout=0.5)
        rng = np.random.default_rng(0)
        for seqs in (tiny_corpus().examples[:1], tiny_corpus().examples):
            loss = model.batch_loss(seqs, train=True, rng=rng)
            assert len(ad._topo_order(loss)) == 18

    @pytest.mark.parametrize(
        "layer, pairs",
        [("embedding", False), ("embedding", True), ("encoder", True)],
        ids=["plain", "embedding-pairs", "encoder-pairs"],
    )
    def test_training_graph_leaves_are_the_parameters(self, layer, pairs):
        # Dropout scales by its mask: the mask is no leaf of the graph.
        model = tiny_model(dropout=0.5)
        a, b = tiny_corpus().examples
        examples = [a, MixedExample(a, b, 0.3), b] if pairs else [a, b]
        loss = model.batch_loss(examples, True, np.random.default_rng(0), layer)
        leaves = {id(t) for t in ad._topo_order(loss) if not t.parents}
        assert leaves == {id(t) for _, t in model.params.items()}

    def test_backward_scratch_is_a_few_gate_arrays(self):
        # On top of what the graph holds, the backward pass of a packed batch
        # allocates the bytes of 2.9 arrays the size of the BiLSTM's gates,
        # (2, n, 4H), at its peak; one more such array breaks the bound.
        model = tiny_model(emb_dim=32, hidden=32, dropout=0.5)
        words = ["john", "smith", "visits", "paris", "acme", "hires"]
        labels = ["O", "S-PER", "O", "S-LOC", "B-PER", "E-PER"]
        seqs = [
            seq([words[(k + i) % 6] for i in range(n)], [labels[(k + i) % 4] for i in range(n)])
            for k, n in enumerate(3 + (7 * k) % 17 for k in range(24))
        ]
        loss = model.batch_loss(seqs, train=True, rng=np.random.default_rng(0))
        gate_bytes = 2 * sum(map(len, seqs)) * 4 * 32 * 8
        tracemalloc.start()
        try:
            grad(loss, model.params)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 3.5 * gate_bytes

    def test_gradient_matches_finite_differences_eval_mode(self):
        model = tiny_model(emb_dim=3, hidden=2, seed=9)
        example = seq(["john", "visits", "paris"], ["S-PER", "O", "S-LOC"])
        err = finite_diff_check(lambda: model.sequence_loss(example), model.params)
        assert err < 1e-6

    def test_gradient_matches_finite_differences_frozen_dropout(self):
        model = tiny_model(emb_dim=3, hidden=2, dropout=0.5, seed=10)
        example = seq(["acme", "hires", "john"], ["S-ORG", "O", "S-PER"])
        err = finite_diff_check(
            lambda: model.sequence_loss(example, train=True, rng=np.random.default_rng(5)),
            model.params,
        )
        assert err < 1e-6

    def test_graph_size_independent_of_length(self):
        def graph_nodes(root):
            seen = {id(root)}
            todo = [root]
            while todo:
                for parent in todo.pop().parents:
                    if id(parent) not in seen:
                        seen.add(id(parent))
                        todo.append(parent)
            return len(seen)

        model = tiny_model(dropout=0.5)
        vocab = model.table.vocab[2:]

        def nodes(n):
            tokens = [vocab[i % len(vocab)] for i in range(n)]
            example = seq(tokens, ["O"] * n)
            return graph_nodes(
                model.sequence_loss(example, train=True, rng=np.random.default_rng(0))
            )

        assert nodes(5) == nodes(20)

    def test_loss_decreases_under_gradient_steps(self):
        model = tiny_model(emb_dim=4, hidden=3, seed=11)
        example = seq(["john", "smith", "visits", "paris"], ["B-PER", "E-PER", "O", "S-LOC"])
        state = AdamWState(lr=0.05)
        first = model.sequence_loss(example).data
        for _ in range(30):
            g = grad(model.sequence_loss(example), model.params)
            adamw_step(model.params, g, state)
        last = model.sequence_loss(example).data
        assert last < first * 0.2

    def test_pad_row_untouched_by_training(self):
        model = tiny_model(seed=12)
        example = seq(["john", "visits"], ["S-PER", "O"])
        state = AdamWState(lr=0.01, weight_decay=0.1)
        for _ in range(5):
            g = grad(model.sequence_loss(example), model.params)
            adamw_step(model.params, g, state)
        np.testing.assert_array_equal(model.params["embed.table"].data[0], 0.0)

    def test_decode_returns_label_strings(self):
        model = tiny_model()
        out = model.decode(["john", "visits", "paris"])
        assert len(out) == 3
        assert all(lab in model.label_vocab for lab in out)


class TestCorpusDecode:
    """`decode_all`, and the emissions its packed Viterbi reads, against
    one-sentence decode through the graph."""

    @staticmethod
    def ragged(seed):
        """About 60 sentences, 1-token ones and a 600-token one among them."""
        rng = np.random.default_rng(seed)
        vocab = ["john", "smith", "visits", "paris", "acme", "hires", "unseen"]
        lengths = [1, *rng.integers(1, 25, size=30), 600, 1, 1, *rng.integers(1, 25, size=30)]
        return [tuple(rng.choice(vocab, size=n)) for n in lengths]

    @staticmethod
    def model(seed):
        """CoNLL's 17 BIOES labels and, as built, a zero `crf.b`: one product
        over many sentences' states then rounds some rows unlike each
        sentence's own product, and the sum keeps the difference."""
        labels = ["O"] + [f"{p}-{t}" for t in ("LOC", "MISC", "ORG", "PER") for p in "BIES"]
        corpus = Corpus(tiny_corpus().examples, label_vocab=labels)
        config = ModelConfig(emb_dim=8, hidden=20, dropout=0.0)
        return TaggerModel.build(corpus, config, seed=seed)

    @staticmethod
    def corpus_decode(model, sentences):
        """Each sentence's emission rows as its chunk's `viterbi` read them,
        and `decode_all`'s labels."""
        emissions = []

        def recording(o, t, lanes):
            emissions.extend(split_rows(o, lanes.sizes))
            return viterbi(o, t, lanes)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(tagger_mod, "viterbi", recording)
            labels = model.decode_all(sentences)
        return emissions, labels

    @pytest.mark.parametrize("budget", [None, 7])
    def test_same_bits_and_labels_as_one_sentence_decode(self, budget, monkeypatch):
        if budget is not None:
            monkeypatch.setattr(tagger_mod, "_DECODE_ROWS", budget)
        rng = np.random.default_rng(41)
        model = self.model(5)
        model.params["crf.T"].data[:] = rng.normal(size=model.params["crf.T"].shape)
        sentences = self.ragged(7)
        lengths = [len(s) for s in sentences]
        assert len(list(tagger_mod._chunks(lengths, tagger_mod._DECODE_ROWS))) > 1
        emissions, labels = self.corpus_decode(model, sentences)
        assert len(emissions) == len(sentences)
        for tokens, o, got in zip(sentences, emissions, labels):
            want_o, want = sentence_decode(model, tokens)
            assert o.tobytes() == want_o.tobytes()
            assert got == want
            assert model.decode(tokens) == want

    def test_ties_resolve_to_the_first_label(self):
        model = self.model(6)
        for name in ("crf.W", "crf.b", "crf.T"):
            model.params[name].data[:] = 0.0
        sentences = self.ragged(8)
        _, labels = self.corpus_decode(model, sentences)
        first = model.label_vocab[0]
        assert labels == [[first] * len(s) for s in sentences]

    @pytest.mark.parametrize(
        "lengths, budget, want",
        [
            ([], 5, []),
            ([5, 5], 5, [(0, 1), (1, 2)]),
            ([2, 3, 1, 4], 5, [(0, 2), (2, 4)]),
            ([1, 9, 1], 5, [(0, 1), (1, 2), (2, 3)]),
            ([9], 5, [(0, 1)]),
        ],
    )
    def test_chunks_fill_the_row_budget_in_order(self, lengths, budget, want):
        chunks = tagger_mod._chunks(lengths, budget)
        assert [(c.start, c.stop) for c in chunks] == want

    def test_path_must_match_the_sentence(self):
        model = tiny_model()
        with pytest.raises(ValueError, match="path has 3 labels for 2 tokens"):
            model.decode(["john", "visits"], [0, 0, 0])


class TestOneLanesPerLayout:
    """A packed pass builds the `Lanes` of each of its layouts once, and every
    node of the pass reads that one."""

    @staticmethod
    def count_lanes(monkeypatch):
        built = []

        class Counted(tagger_mod.Lanes):
            __slots__ = ()

            def __init__(self, *args, **kwargs):
                built.append(args)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(tagger_mod, "Lanes", Counted)
        return built

    @pytest.mark.parametrize(
        "layer, pairs, want",
        [("embedding", False, 1), ("embedding", True, 1), ("encoder", True, 2)],
        ids=["plain", "embedding-pairs", "encoder-pairs"],
    )
    def test_batch_loss(self, monkeypatch, layer, pairs, want):
        model = tiny_model(dropout=0.5)
        a, b = tiny_corpus().examples
        examples = [a, MixedExample(a, b, 0.3), b] if pairs else [a, b]
        built = self.count_lanes(monkeypatch)
        loss = model.batch_loss(examples, True, np.random.default_rng(0), layer)
        grad(loss, model.params)
        assert len(built) == want

    def test_decode_chunk(self, monkeypatch):
        monkeypatch.setattr(tagger_mod, "_DECODE_ROWS", 7)
        model = tiny_model()
        sentences = TestCorpusDecode.ragged(3)
        chunks = list(tagger_mod._chunks([len(s) for s in sentences], 7))
        built = self.count_lanes(monkeypatch)
        model.decode_all(sentences)
        assert len(built) == len(chunks) > 1


class TestEmbeddingGradient:
    """The row-sparse embedding gradient against a dense scatter-add reference."""

    @staticmethod
    def leaf_lookups(model, token_lists):
        """Swap the model's lookups for leaves, returned in call order."""
        store = ad.ParamStore()
        table = model.params["embed.table"].data
        for k, tokens in enumerate(token_lists):
            store.add(f"e{k}", table[model.table.indices(tokens)])
        leaves = iter(store[f"e{k}"] for k in range(len(token_lists)))
        model.lookup_embeddings = lambda tokens, owners=None: next(leaves)
        return store

    @staticmethod
    def scatter(model, tokens, upstream):
        full = np.zeros_like(model.params["embed.table"].data)
        np.add.at(full, model.table.indices(tokens), upstream)
        return full

    def test_repeated_token_matches_dense_scatter_bit_for_bit(self):
        model = tiny_model(dropout=0.5, seed=13)
        example = seq(["john", "visits", "john", "john"], ["S-PER", "O", "S-PER", "S-PER"])
        g = grad(
            model.sequence_loss(example, train=True, rng=np.random.default_rng(2)),
            model.params,
        )
        assert isinstance(g.stored("embed.table"), RowGrad)
        store = self.leaf_lookups(model, [example.tokens])
        upstream = grad(
            model.sequence_loss(example, train=True, rng=np.random.default_rng(2)), store
        )["e0"]
        want = self.scatter(model, example.tokens, upstream)
        got = g["embed.table"]
        assert got.tobytes() == want.tobytes()
        np.testing.assert_array_equal(got[0], 0.0)

    def test_mixup_pair_lookup_matches_dense_reference(self):
        model = tiny_model(seed=14)
        first, second = tiny_corpus().examples
        mx = MixedExample(first, second, lam=0.3)
        got = grad(mixup_loss(model, mx), model.params)["embed.table"]
        tokens = first.tokens + second.tokens  # one lookup for both sentences
        store = self.leaf_lookups(model, [tokens])
        upstream = grad(mixup_loss(model, mx), store)
        want = self.scatter(model, tokens, upstream["e0"])
        assert rel_err(got, want) < 1e-12
        np.testing.assert_array_equal(got[0], 0.0)

    def test_stored_bytes_do_not_grow_with_vocabulary(self):
        example = seq(["john", "visits", "john"], ["S-PER", "O", "S-PER"])

        def stored_bytes(extra_words):
            filler = [seq([f"w{i}"], ["O"]) for i in range(extra_words)]
            corpus = Corpus(tiny_corpus().examples + filler)
            model = TaggerModel.build(corpus, ModelConfig(emb_dim=4, hidden=3), seed=0)
            g = grad(model.sequence_loss(example), model.params)
            return g.stored("embed.table").nbytes, model.params["embed.table"].data.nbytes

        small, small_table = stored_bytes(0)
        large, large_table = stored_bytes(5000)
        assert large_table > 100 * small_table
        assert large == small


# --- pretrained vectors and persistence -----------------------------------------


class TestPretrained:
    def test_matching_rows_copied_others_random(self, tmp_path):
        vec_path = tmp_path / "vecs.txt"
        vectors = {"john": np.array([1.0, 2.0, 3.0, 4.0]), "paris": np.full(4, 0.5)}
        write_vector_file(vec_path, vectors)
        model = TaggerModel.build(
            tiny_corpus(),
            ModelConfig(emb_dim=4, hidden=2),
            seed=0,
            vectors=read_vector_file(vec_path),
        )
        table = model.params["embed.table"].data
        np.testing.assert_array_equal(table[model.table.index("john")], vectors["john"])
        np.testing.assert_array_equal(table[model.table.index("paris")], vectors["paris"])
        np.testing.assert_array_equal(table[0], 0.0)
        assert np.all(np.abs(table[model.table.index("acme")]) <= 0.5 / 4)

    def test_dimension_mismatch_rejected(self, tmp_path):
        vec_path = tmp_path / "vecs.txt"
        write_vector_file(vec_path, {"john": np.array([1.0, 2.0])})
        with pytest.raises(ValueError, match="dim"):
            TaggerModel.build(
                tiny_corpus(),
                ModelConfig(emb_dim=4, hidden=2),
                vectors=read_vector_file(vec_path),
            )


    @pytest.mark.parametrize("values", ["nan 1", "1 -inf", "1e999 1"])
    def test_non_finite_value_rejected_with_line(self, tmp_path, values):
        vec_path = tmp_path / "vecs.txt"
        vec_path.write_text(f"john 1 2\nparis {values}\n")
        with pytest.raises(ValueError, match=r"vecs.txt:2: non-finite value.*'paris'"):
            read_vector_file(vec_path)

    def test_finite_values_whose_sum_overflows_accepted(self, tmp_path):
        vec_path = tmp_path / "vecs.txt"
        vec_path.write_text("john 1e308 1e308\n")
        np.testing.assert_array_equal(read_vector_file(vec_path)["john"], [1e308, 1e308])


class TestPersistence:
    def test_save_load_round_trip(self, tmp_path):
        model = tiny_model(seed=13)
        path = tmp_path / "model.ckpt"
        model.save(path, extra_config={"note": "unit"})
        back = TaggerModel.load(path)
        assert back.label_vocab == model.label_vocab
        assert back.table.vocab == model.table.vocab
        assert back.config == model.config
        for name, arr in snapshot(model.params).items():
            np.testing.assert_array_equal(back.params[name].data, arr)
        tokens = ["john", "smith", "visits", "paris"]
        assert back.decode(tokens) == model.decode(tokens)

    def test_save_writes_the_live_arrays(self, tmp_path):
        base = tiny_corpus()
        vocab = base.token_vocab + [f"pad{i}" for i in range(5000)]
        model = TaggerModel.build(
            Corpus(base.examples, token_vocab=vocab), ModelConfig(emb_dim=256, hidden=2)
        )
        tracemalloc.start()
        try:
            model.save(tmp_path / "model.ckpt")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < model.params["embed.table"].data.nbytes / 4

    # Fixed sha256 of this model's checkpoint: the file format must not drift.
    PINNED_SHA256 = "ae3e219222002fcbe4cacc29d7ee8f5cdda075ed0e033afae91d33702f77517d"

    def test_saved_bytes_are_pinned(self, tmp_path):
        path = tmp_path / "model.ckpt"
        tiny_model(seed=13).save(path, extra_config={"note": "pinned"})
        assert hashlib.sha256(path.read_bytes()).hexdigest() == self.PINNED_SHA256
