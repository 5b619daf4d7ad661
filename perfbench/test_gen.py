"""Shape guarantees of the CoNLL-shaped generator.  python3 -m pytest perfbench"""

import pytest

import gen


def bioes_valid(labels) -> bool:
    open_type = None
    for label in labels:
        prefix, _, etype = label.partition("-")
        if prefix not in "BIESO" or (prefix == "O") != (label == "O"):
            return False
        if open_type is None:
            if prefix in "IE":
                return False
            if prefix == "B":
                open_type = etype
        elif prefix not in "IE" or etype != open_type:
            return False
        elif prefix == "E":
            open_type = None
    return open_type is None


@pytest.fixture(scope="module", params=[0, 7])
def corpus(request):
    return gen.conll_corpus(request.param, n_train=4500, n_dev=100, n_test=300)


def test_training_split_has_about_16k_distinct_tokens(corpus):
    distinct = {t for s in corpus["train"] for t in s.tokens}
    assert 15_000 <= len(distinct) <= 17_000


def test_sentence_lengths_span_8_to_24(corpus):
    lengths = {len(s.tokens) for split in corpus.values() for s in split}
    assert min(lengths) == gen.MIN_LEN and max(lengths) == gen.MAX_LEN
    assert all(len(s.tokens) == len(s.labels) for split in corpus.values() for s in split)


def test_labels_are_valid_bioes_over_four_entity_types(corpus):
    sentences = [s for split in corpus.values() for s in split]
    assert all(bioes_valid(s.labels) for s in sentences)
    types = {lab[2:] for s in sentences for lab in s.labels if lab != "O"}
    assert types == set(gen.ENTITY_TYPES)


def test_vectors_cover_the_o_words_and_nothing_else(corpus):
    vectors = gen.o_word_vectors(0)
    assert len(vectors) == gen.O_LEXICON
    words = {(t, lab == "O") for s in corpus["train"] for t, lab in zip(s.tokens, s.labels)}
    assert all((t in vectors) == is_o for t, is_o in words)
    assert {v.shape for v in vectors.values()} == {(100,)}


def test_same_seed_same_files_other_seed_other_files(tmp_path):
    sizes = {"n_train": 50, "n_dev": 5, "n_test": 5}
    a = gen.write_conll_dataset(tmp_path / "a", 3, **sizes)
    b = gen.write_conll_dataset(tmp_path / "b", 3, **sizes)
    c = gen.write_conll_dataset(tmp_path / "c", 4, **sizes)
    for key in a:
        assert a[key].read_bytes() == b[key].read_bytes()
    assert a["train"].read_bytes() != c["train"].read_bytes()
    assert a["vectors"].read_bytes() != c["vectors"].read_bytes()
