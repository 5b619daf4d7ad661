"""CoNLL IO, scheme conversion, span extraction, F1 and subsampling."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from oracles import convert_sentence, extract_spans
from metaner.corpus import (
    Corpus,
    CorpusFormatError,
    LabeledSequence,
    Span,
    _renders_as_itself,
    _span_arrays,
    read_conll,
    render_labels,
    span_f1,
    subsample,
    write_conll,
)


def seq(tokens, labels, scheme="BIOES"):
    return LabeledSequence(tuple(tokens), tuple(labels), scheme=scheme)


class TestReadConll:
    def test_single_sentence(self, tmp_path):
        path = tmp_path / "toy.conll"
        path.write_text("EU B-ORG\nrejects O\n. O\n")
        corpus = read_conll(path, scheme="BIO")
        assert len(corpus) == 1
        assert len(corpus.examples[0]) == 3
        assert corpus.examples[0].tokens == ("EU", "rejects", ".")

    def test_blank_only_file_is_empty(self, tmp_path):
        path = tmp_path / "empty.conll"
        path.write_text("\n\n\n")
        assert len(read_conll(path)) == 0

    def test_three_columns_rejected_with_line_number(self, tmp_path):
        path = tmp_path / "bad.conll"
        path.write_text("EU B-ORG\nrejects O extra\n")
        with pytest.raises(CorpusFormatError, match="bad.conll:2"):
            read_conll(path, scheme="BIO")

    def test_invalid_label_rejected_with_line_number(self, tmp_path):
        path = tmp_path / "bad.conll"
        path.write_text("EU Q-ORG\n")
        with pytest.raises(CorpusFormatError, match="bad.conll:1"):
            read_conll(path)

    def test_bio_file_rejects_e_tags_a_bioes_file_accepted(self, tmp_path):
        # Labels are checked once per file, so the BIOES file's E-PER must
        # not pass the BIO file's.
        good = tmp_path / "good.conll"
        good.write_text("John B-PER\nSmith E-PER\n")
        bad = tmp_path / "bad.conll"
        bad.write_text("John B-PER\nSmith I-PER\n\nMary B-PER\nJones E-PER\n")
        assert read_conll(good, scheme="BIOES").examples[0].labels == ("B-PER", "E-PER")
        with pytest.raises(CorpusFormatError, match=r"bad.conll:5: label 'E-PER'"):
            read_conll(bad, scheme="BIO")

    def test_first_of_two_invalid_labels_reported(self, tmp_path):
        path = tmp_path / "bad.conll"
        path.write_text("a O\nb Q-ORG\nc Z-LOC\nd Q-ORG\n")
        with pytest.raises(CorpusFormatError, match=r"bad.conll:2: label 'Q-ORG'"):
            read_conll(path)
        with pytest.raises(ValueError, match="'Q-ORG'"):
            seq("abcd", ["O", "Q-ORG", "Z-LOC", "Q-ORG"])

    def test_no_scheme_takes_the_labels_scheme(self, tmp_path):
        path = tmp_path / "toy.conll"
        path.write_text("John B-PER\nSmith I-PER\n\nParis B-LOC\n")
        assert read_conll(path, scheme=None).scheme == "BIO"
        path.write_text("John B-PER\nSmith I-PER\n\nParis S-LOC\n")
        assert read_conll(path, scheme=None).scheme == "BIOES"
        path.write_text("John B-PER\nSmith I-PER x\n\nParis S-LOC\n")
        with pytest.raises(CorpusFormatError, match="toy.conll:2: expected 2 columns"):
            read_conll(path, scheme=None)

    def test_write_read_round_trip(self, tmp_path):
        corpus = Corpus(
            [
                seq(["John", "Smith", "lives", "here"], ["B-PER", "E-PER", "O", "O"]),
                seq(["Paris", "."], ["S-LOC", "O"]),
            ]
        )
        path = tmp_path / "out.conll"
        write_conll(corpus, path)
        back = read_conll(path)
        assert back.examples == corpus.examples
        assert back.label_vocab == corpus.label_vocab
        assert back.token_vocab == corpus.token_vocab

    @pytest.mark.parametrize("scheme", ["BIOES", None])
    def test_byte_order_mark_reads_as_absent(self, tmp_path, scheme):
        text = "John B-PER\nSmith E-PER\nsleeps O\n\nParis S-LOC\n"
        plain, marked = tmp_path / "plain.conll", tmp_path / "marked.conll"
        plain.write_text(text, encoding="utf-8")
        marked.write_text(text, encoding="utf-8-sig")
        assert marked.read_bytes().startswith(b"\xef\xbb\xbf")
        want, got = read_conll(plain, scheme=scheme), read_conll(marked, scheme=scheme)
        assert got.examples == want.examples
        assert got.examples[0].tokens[0] == "John"
        assert (got.scheme, got.label_vocab, got.token_vocab) == (
            want.scheme, want.label_vocab, want.token_vocab
        )

    @pytest.mark.parametrize("scheme", ["BIOES", None])
    def test_one_string_per_distinct_token_and_label(self, tmp_path, scheme):
        path = tmp_path / "toy.conll"
        path.write_text("John B-PER\nSmith E-PER\nsleeps O\n\nJohn S-PER\nruns O\n\n"
                        "Smith B-PER\nJohn E-PER\n")
        a, b, c = read_conll(path, scheme=scheme).examples
        assert a.tokens[0] is b.tokens[0] is c.tokens[1]
        assert a.tokens[1] is c.tokens[0]
        assert a.labels[0] is c.labels[0] and a.labels[1] is c.labels[1]
        assert a.labels[2] is b.labels[1]


class TestConvertScheme:
    def test_bio_pair_to_bioes(self):
        out = convert_sentence(seq(["a", "b", "c"], ["B-PER", "I-PER", "O"], "BIO"), "BIOES")
        assert out.labels == ("B-PER", "E-PER", "O")

    def test_bio_single_to_s(self):
        out = convert_sentence(seq(["a"], ["B-LOC"], "BIO"), "BIOES")
        assert out.labels == ("S-LOC",)

    def test_long_span_to_bioes(self):
        out = convert_sentence(
            seq("a b c d".split(), ["B-ORG", "I-ORG", "I-ORG", "O"], "BIO"), "BIOES"
        )
        assert out.labels == ("B-ORG", "I-ORG", "E-ORG", "O")

    def test_repair_stray_inside_tag(self, caplog):
        with caplog.at_level("WARNING"):
            out = convert_sentence(seq(["a", "b"], ["O", "I-PER"], "BIO"), "BIOES")
        assert out.labels == ("O", "S-PER")
        assert "repair" in caplog.text

    def test_round_trip_identity_simple(self):
        original = seq(
            "x y z w v".split(), ["B-PER", "I-PER", "O", "B-LOC", "I-LOC"], "BIO"
        )
        back = convert_sentence(convert_sentence(original, "BIOES"), "BIO")
        assert back.labels == original.labels


# Well-formed BIOES sentences plus the three kinds of ill-formed span that
# conversion repairs or re-renders: a stray I-, a B- followed by O, a lone E-.
MIXED_BIOES = [
    (["John", "Smith", "visits", "Paris"], ["B-PER", "E-PER", "O", "S-LOC"]),
    (["the", "big", "apple", "corp"], ["O", "I-ORG", "E-ORG", "O"]),
    (["Mary", "left"], ["B-PER", "O"]),
    (["Acme", "hires", "Bob"], ["S-ORG", "O", "S-PER"]),
    (["in", "New", "York"], ["O", "O", "E-LOC"]),
    (["New", "York", "City", "."], ["B-LOC", "I-LOC", "E-LOC", "O"]),
]


class TestConvertAsRead:
    """BIOES to BIOES keeps the sentences that need no conversion."""

    def write(self, tmp_path, sentences):
        path = tmp_path / "mixed.conll"
        write_conll([seq(toks, labs) for toks, labs in sentences], path)
        return path

    def test_mixed_file_matches_per_sentence_conversion(self, tmp_path, caplog):
        path = self.write(tmp_path, MIXED_BIOES)
        read = read_conll(path)
        with caplog.at_level("WARNING"):
            expected = [oracles.convert_scheme(ex, "BIOES") for ex in read.examples]
        expected_records = [(r.levelno, r.getMessage()) for r in caplog.records]
        caplog.clear()
        with caplog.at_level("WARNING"):
            converted = read.convert("BIOES")
        assert [(r.levelno, r.getMessage()) for r in caplog.records] == expected_records
        assert len(expected_records) == 2  # the stray I-ORG and the lone E-LOC
        assert converted.examples == expected
        fresh = Corpus(expected)
        assert converted.label_vocab == fresh.label_vocab
        assert converted.token_vocab == fresh.token_vocab
        assert "I-ORG" not in converted.label_vocab

    def test_well_formed_file_is_used_as_read(self, tmp_path, caplog):
        well_formed = [s for i, s in enumerate(MIXED_BIOES) if i in (0, 3, 5)]
        read = read_conll(self.write(tmp_path, well_formed))
        with caplog.at_level("WARNING"):
            converted = read.convert("BIOES")
        assert not caplog.records
        assert all(a is b for a, b in zip(converted.examples, read.examples))
        fresh = Corpus([oracles.convert_scheme(ex, "BIOES") for ex in read.examples])
        assert converted.examples == fresh.examples
        assert converted.label_vocab == fresh.label_vocab
        assert converted.token_vocab == fresh.token_vocab

    def test_fixed_point_test_is_exact(self):
        alphabet = ["O"] + [f"{p}-{t}" for p in "BIES" for t in ("X", "YY")]
        count = 0
        for n in range(1, 5):
            for labels in itertools.product(alphabet, repeat=n):
                spans = oracles._parse_spans(labels, "BIOES", warn=False)
                expected = render_labels(n, spans, "BIOES") == labels
                assert _renders_as_itself(labels) == expected, labels
                count += 1
        assert count == 9 + 9**2 + 9**3 + 9**4


@st.composite
def random_span_layout(draw):
    """Random sentence as disjoint typed spans rendered in BIO."""
    n = draw(st.integers(1, 12))
    types = ["PER", "LOC", "ORG"]
    labels = ["O"] * n
    i = 0
    while i < n:
        if draw(st.booleans()):
            length = draw(st.integers(1, min(3, n - i)))
            etype = draw(st.sampled_from(types))
            labels[i] = f"B-{etype}"
            for j in range(i + 1, i + length):
                labels[j] = f"I-{etype}"
            i += length + 1  # gap keeps adjacent spans distinct in BIO
        else:
            i += 1
    tokens = [f"t{j}" for j in range(n)]
    return seq(tokens, labels, "BIO")


class TestSchemeProperties:
    @given(random_span_layout())
    @settings(max_examples=200)
    def test_conversion_preserves_spans(self, example):
        converted = convert_sentence(example, "BIOES")
        assert extract_spans(converted) == extract_spans(example)

    @given(random_span_layout())
    @settings(max_examples=200)
    def test_bio_bioes_round_trip(self, example):
        back = convert_sentence(convert_sentence(example, "BIOES"), "BIO")
        assert back.labels == example.labels


class TestExtractSpans:
    def test_pair_span(self):
        assert extract_spans(seq(["a", "b", "c"], ["B-PER", "E-PER", "O"])) == {
            Span("PER", 0, 1)
        }

    def test_all_o(self):
        assert extract_spans(seq(["a", "b", "c"], ["O", "O", "O"])) == set()

    def test_adjacent_singles(self):
        assert extract_spans(seq(["a", "b"], ["S-LOC", "S-LOC"])) == {
            Span("LOC", 0, 0),
            Span("LOC", 1, 1),
        }


class TestSpanF1:
    def test_perfect_prediction(self):
        gold = [["B-PER", "E-PER", "O"]]
        out = span_f1(gold, gold)
        assert out["precision"] == out["recall"] == out["f1"] == 1.0
        assert out["support"] == 1

    def test_all_o_prediction(self):
        out = span_f1([["O", "O"]], [["S-PER", "O"]])
        assert out == {"precision": 0.0, "recall": 0.0, "f1": 0.0, "support": 1}

    def test_half_match(self):
        # gold: 2 spans; pred: 1 correct + 1 spurious -> P = R = F1 = 0.5
        gold = [["S-PER", "O", "S-LOC", "O"]]
        pred = [["S-PER", "O", "O", "S-ORG"]]
        out = span_f1(pred, gold)
        assert out["precision"] == 0.5
        assert out["recall"] == 0.5
        assert out["f1"] == 0.5

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            span_f1([["O"]], [["O", "O"]])
        with pytest.raises(ValueError):
            span_f1([["O"]], [["O"], ["O"]])

    @given(random_span_layout())
    @settings(max_examples=100)
    def test_self_comparison_is_perfect_when_entities_exist(self, example):
        labels = [list(example.labels)]
        out = span_f1(labels, labels, scheme="BIO")
        if extract_spans(example):
            assert out["f1"] == 1.0


ALPHABETS = {
    "BIOES": ["O"] + [f"{p}-{t}" for p in "BIES" for t in ("X", "YY")],
    "BIO": ["O"] + [f"{p}-{t}" for p in "BI" for t in ("X", "YY")],
}


def three_type_labels(scheme):
    return ["O"] + [f"{p}-{t}" for p in scheme if p != "O" for t in ("PER", "LOC", "ORG")]


def random_corpus(rng, scheme, n_max=12, len_max=9):
    """Random label sequences in `scheme`, malformed ones and empty ones included."""
    alphabet = three_type_labels(scheme)
    return [
        [str(lab) for lab in rng.choice(alphabet, size=rng.integers(0, len_max))]
        for _ in range(rng.integers(0, n_max))
    ]


class TestSpanArrays:
    @pytest.mark.parametrize("scheme", sorted(ALPHABETS))
    def test_equals_parse_spans_on_every_short_sequence(self, scheme):
        alphabet = ALPHABETS[scheme]
        sequences = [
            labels
            for n in range(1, 5)
            for labels in itertools.product(alphabet, repeat=n)
        ]
        assert len(sequences) == sum(len(alphabet) ** n for n in range(1, 5))
        types: dict[str, int] = {}
        # One pass over all of them, so no span may run across a sentence end.
        sentence, start, end, typ = _span_arrays(sequences, scheme, types)
        names = list(types)
        got = [[] for _ in sequences]
        for i, s_, e, t in zip(sentence, start, end, typ):
            got[i].append(Span(names[t], int(s_), int(e)))
        for labels, spans in zip(sequences, got):
            assert spans == oracles._parse_spans(labels, scheme, warn=False), labels

    def test_empty_sentences_and_corpus(self):
        types: dict[str, int] = {}
        sequences = [[], ["S-X"], [], ["B-X", "E-X"], []]
        sentence, start, end, typ = _span_arrays(sequences, "BIOES", types)
        assert sentence.tolist() == [1, 3]
        assert start.tolist() == [0, 0] and end.tolist() == [0, 1]
        assert typ.tolist() == [0, 0] and types == {"X": 0}
        assert all(len(a) == 0 for a in _span_arrays([], "BIOES", {}))

    def test_warns_each_repair_as_parse_spans(self, caplog):
        sequences = [["I-X", "E-YY", "O"], ["B-X", "I-X", "E-X", "E-X"], ["O", "I-YY"]]
        with caplog.at_level("WARNING"):
            for labels in sequences:
                oracles._parse_spans(labels, "BIOES")
        expected = caplog.record_tuples
        caplog.clear()
        with caplog.at_level("WARNING"):
            _span_arrays(sequences, "BIOES", {}, warn=True)
        assert caplog.record_tuples == expected
        assert len(expected) == 4


class TestSpanF1Oracle:
    @pytest.mark.parametrize("scheme", ["BIO", "BIOES"])
    def test_equals_oracle_on_random_corpora(self, scheme):
        rng = np.random.default_rng(7)
        alphabet = three_type_labels(scheme)
        for _ in range(400):
            gold = random_corpus(rng, scheme)
            # Predictions: each label kept or redrawn, so that spans partly match.
            pred = [
                [lab if rng.random() < 0.6 else str(rng.choice(alphabet)) for lab in labels]
                for labels in gold
            ]
            out = span_f1(pred, gold, scheme=scheme)
            assert out == oracles.span_f1(pred, gold, scheme=scheme), (pred, gold)
            assert type(out["support"]) is int
        assert span_f1([], [], scheme) == oracles.span_f1([], [], scheme)

    def test_same_error_as_oracle(self):
        rng = np.random.default_rng(11)
        cases = [([["O"]], [["O", "O"]]), ([["O"]], [["O"], ["O"]]), ([["X-PER"]], [["O"]])]
        for _ in range(300):
            gold = random_corpus(rng, "BIOES", n_max=6, len_max=5)
            pred = [list(labels) for labels in gold]
            # One to three faults anywhere: a bad label on either side, or a
            # sentence one label short, so the first one met decides the error.
            for _ in range(rng.integers(1, 4)):
                side = pred if rng.random() < 0.5 else gold
                nonempty = [labels for labels in side if labels]
                if not nonempty:
                    continue
                labels = nonempty[rng.integers(len(nonempty))]
                if rng.random() < 0.5:
                    labels[rng.integers(len(labels))] = str(rng.choice(["B-", "Q-X", "E", "O-X"]))
                else:
                    labels.pop()
            cases.append((pred, gold))
        raised = 0
        for pred, gold in cases:
            try:
                oracles.span_f1(pred, gold)
            except ValueError as exc:
                with pytest.raises(ValueError) as got:
                    span_f1(pred, gold)
                assert type(got.value) is type(exc), (pred, gold)
                assert str(got.value) == str(exc), (pred, gold)
                raised += 1
            else:
                assert span_f1(pred, gold) == oracles.span_f1(pred, gold)
        assert raised > 200


def as_corpus(sequences, scheme):
    """The nonempty label sequences as a corpus of sentences in `scheme`."""
    examples = [
        seq([f"t{i}" for i in range(len(labels))], labels, scheme)
        for labels in sequences
        if labels
    ]
    return Corpus(examples, scheme=scheme)


class TestCorpusConvertOracle:
    """One batched parse equals parsing and rendering each sentence alone."""

    @pytest.mark.parametrize("warn", [True, False])
    @pytest.mark.parametrize(
        "source, target", [("BIO", "BIOES"), ("BIOES", "BIOES"), ("BIOES", "BIO")]
    )
    def test_equals_per_sentence_oracle(self, source, target, warn, caplog):
        rng = np.random.default_rng(13)
        kept = changed = 0
        for _ in range(150):
            corpus = as_corpus(random_corpus(rng, source), source)
            caplog.clear()
            with caplog.at_level("WARNING"):
                want = [oracles.convert_scheme(ex, target, warn) for ex in corpus.examples]
            expected = caplog.record_tuples
            caplog.clear()
            with caplog.at_level("WARNING"):
                got = corpus.convert(target, warn)
            assert caplog.record_tuples == expected
            assert got.examples == want
            assert got.scheme == target
            assert got.token_vocab == corpus.token_vocab
            assert got.label_vocab == Corpus(want, scheme=target).label_vocab
            for old, new, ref in zip(corpus.examples, got.examples, want):
                if source == target == "BIOES" and ref.labels == old.labels:
                    assert new is old
                    kept += 1
                else:
                    assert new is not old
                    changed += 1
        assert changed > 500
        assert (kept > 50) == (source == target)

    def test_repairs_warn_in_corpus_order(self, caplog):
        # Stray I-/E- tags in several sentences: one log record per repair,
        # sentence by sentence, as the per-sentence parse gives them.
        corpus = as_corpus([labels for _, labels in MIXED_BIOES] * 2, "BIOES")
        with caplog.at_level("WARNING"):
            for ex in corpus.examples:
                oracles.convert_scheme(ex, "BIO")
        expected = caplog.record_tuples
        caplog.clear()
        with caplog.at_level("WARNING"):
            corpus.convert("BIO")
        assert caplog.record_tuples == expected
        assert len(expected) == 4

    def test_label_vocab_carried_exactly_when_nothing_changed(self):
        well_formed = [seq(t, lab) for i, (t, lab) in enumerate(MIXED_BIOES) if i in (0, 3, 5)]
        vocab = ["S-MISC", "O", "S-LOC", "B-PER", "E-PER"]  # own order, an unused label
        corpus = Corpus(well_formed, label_vocab=list(vocab))
        same = corpus.convert("BIOES")
        assert same.label_vocab == vocab
        assert same.label_vocab is not corpus.label_vocab
        repaired = Corpus(well_formed + [seq(["a", "b"], ["O", "I-PER"])], label_vocab=vocab)
        out = repaired.convert("BIOES")
        assert out.label_vocab == Corpus(out.examples).label_vocab
        assert corpus.convert("BIO").label_vocab == Corpus(
            [oracles.convert_scheme(ex, "BIO") for ex in well_formed], scheme="BIO"
        ).label_vocab
        empty = Corpus([], scheme="BIO", label_vocab=["O", "B-X"]).convert("BIOES")
        assert (empty.scheme, empty.label_vocab) == ("BIOES", ["O"])

    def test_unknown_target_rejected(self):
        with pytest.raises(ValueError, match="unknown scheme"):
            as_corpus([["O"]], "BIO").convert("IOB2")


class TestSubsample:
    def corpus(self, n=100):
        return Corpus(
            [seq([f"w{i}", "x"], ["S-PER", "O"]) for i in range(n)]
        )

    def test_full_fraction_identity(self):
        c = self.corpus(10)
        out = subsample(c, 1.0, seed=0)
        assert out.examples == c.examples

    def test_exact_size(self):
        out = subsample(self.corpus(100), 0.1, seed=1)
        assert len(out) == 10

    def test_deterministic_and_seed_sensitive(self):
        c = self.corpus(100)
        a = subsample(c, 0.2, seed=7)
        b = subsample(c, 0.2, seed=7)
        assert a.examples == b.examples
        assert any(
            subsample(c, 0.2, seed=s).examples != a.examples for s in range(8, 13)
        )

    def test_order_preserved(self):
        c = self.corpus(50)
        out = subsample(c, 0.3, seed=3)
        positions = [c.examples.index(ex) for ex in out.examples]
        assert positions == sorted(positions)

    def test_zero_size_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            subsample(self.corpus(10), 0.01, seed=0)

    def test_bad_fraction_rejected(self):
        with pytest.raises(ValueError):
            subsample(self.corpus(10), 0.0, seed=0)
        with pytest.raises(ValueError):
            subsample(self.corpus(10), 1.5, seed=0)
