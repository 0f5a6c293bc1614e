import csv
import itertools
import string
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stylosig.conllu import DepTree, parse_conllu
from stylosig.corpus import Document
from stylosig import features
from stylosig.errors import DataError
from stylosig.features import (
    FAMILIES,
    SEP,
    SNGRAM_ELEMENTS,
    CsrMatrix,
    FeatureModel,
    Vocabulary,
    build_vocabulary,
    extract_matrix,
    take_columns,
    write_feature_tsv,
)

from .conftest import join_sentences, make_sentence
from .oracles import as_scipy, extract_counts, extracted_feature, positions_reference, sngrams_recursive, tokenize_reference


def row_counts(matrix, i, names=None):
    """Row i of a feature matrix as a Counter over feature strings; ``names`` names the columns of one extracted onto given features."""
    row = as_scipy(matrix.counts)[[i]].toarray()[0]
    (columns,) = np.nonzero(row)
    strings = matrix.decode(columns) if names is None else np.array(names, dtype=object)[columns]
    return Counter(dict(zip(strings, row[columns].tolist())))


def tokens_of(text):
    """The tokens extraction counts in ``text``."""
    return features._token_bytes(text).decode().split()


def ngrams(text, k):
    return row_counts(extract_matrix(FeatureModel("ngram", (k,)), [Document("d", 0, text)]), 0)


def sngrams(sentence, element, k):
    doc = Document("d", 0, "", tree=sentence)
    return row_counts(extract_matrix(FeatureModel("sngram", (k,), element), [doc]), 0)


# -- tokenization -----------------------------------------------------------

def test_tokenize_lowercases_and_splits():
    assert tokens_of("Dogs chase cats.") == ["dogs", "chase", "cats"]


def test_tokenize_punctuation_and_digits():
    assert tokens_of("E-mail me 2x, O.K.?") == ["e", "mail", "me", "2x", "o", "k"]


def test_tokenize_underscore_is_a_separator():
    assert tokens_of("snake_case") == ["snake", "case"]


def test_tokenize_unicode_letters():
    assert tokens_of("Café naïve") == ["café", "naïve"]


def test_tokenize_empty():
    assert tokens_of("...") == []


# ASCII punctuation, "_", digits, the separator, DEL, whitespace, other control
# bytes, and letters whose lower case a byte table cannot give
TOKEN_ALPHABET = string.ascii_letters + string.digits + string.punctuation + " \x1f\x7f\t\n\r\x0b\x0c\x00\x01\x1b\x1c"
token_texts = st.one_of(
    st.text(st.sampled_from(TOKEN_ALPHABET), max_size=40),
    st.text(st.sampled_from(TOKEN_ALPHABET + "İßÉé٣ǅ\u00a0\u2028"), max_size=40),
    st.text(max_size=20),
)


def test_tokenize_every_ascii_character_as_the_regex():
    for c in map(chr, range(128)):
        assert tokens_of(f"Ab{c}9z{c}") == tokenize_reference(f"Ab{c}9z{c}"), repr(c)


@given(token_texts)
@settings(max_examples=500, deadline=None)
def test_tokenize_equals_regex_reference(text):
    assert tokens_of(text) == tokenize_reference(text)


# -- packed tokens ----------------------------------------------------------

TOKEN_CHARACTERS = string.ascii_letters + string.digits
# every word boundary of the packed keys (1, 8, 9, 16, 17, 24 bytes), and past them
ascii_words = st.one_of(
    st.sampled_from([1, 7, 8, 9, 15, 16, 17, 23, 24, 25, 40]).flatmap(
        lambda n: st.text(st.sampled_from(TOKEN_CHARACTERS), min_size=n, max_size=n)
    ),
    st.text(st.sampled_from(TOKEN_CHARACTERS), min_size=1, max_size=26),
)
ascii_gaps = st.sampled_from([" ", "  ", ", ", "_", "-", "\n", "\t", "...", "\x1f", "\x00"])


@st.composite
def packed_batches(draw, non_ascii):
    """Texts of zero to six documents; an empty one, or one of gaps only, has no token."""
    words, gaps = ascii_words, ascii_gaps
    if non_ascii:
        words, gaps = st.one_of(words, st.sampled_from(["é", "Straße", "日本", "İ"])), st.one_of(gaps, st.just("…"))
    texts = []
    for _ in range(draw(st.integers(min_value=0, max_value=6))):
        pieces = draw(st.lists(st.tuples(words, gaps), max_size=12))
        texts.append("".join(map("".join, pieces)) if pieces else draw(st.one_of(st.just(""), gaps)))
    return texts


@given(st.one_of(packed_batches(non_ascii=False), packed_batches(non_ascii=True)), st.sampled_from([1, 9, 64, 1 << 20]))
@settings(max_examples=500, deadline=None)
def test_positions_equal_reference_interning(texts, chunk_bytes):
    # a small chunk size splits a batch into many chunks
    names, label, pred, lengths = positions_reference(texts)
    with mock.patch.object(features, "_CHUNK_BYTES", chunk_bytes):
        got = features._positions(FeatureModel("ngram", (1, 2)), [Document(f"d{i}", 0, t) for i, t in enumerate(texts)])
    assert got[0].dtype == object and got[0].tolist() == names
    assert got[1].dtype == np.int32 and got[1].tolist() == label
    assert got[2].tolist() == pred
    assert got[3].dtype == np.int64 and got[3].tolist() == lengths


# -- word n-grams -----------------------------------------------------------

def test_unigrams_are_plain_counts():
    assert ngrams("a b a", 1) == Counter({"a": 2, "b": 1})


def test_bigrams_use_separator():
    assert ngrams("a b a", 2) == Counter({f"a{SEP}b": 1, f"b{SEP}a": 1})


def test_short_text_yields_nothing():
    assert ngrams("a", 2) == Counter()
    assert ngrams("", 1) == Counter()


def test_ngram_order_must_be_positive():
    with pytest.raises(ValueError):
        FeatureModel("ngram", (0,))


def test_separator_prevents_collisions():
    # "a b" as a bigram must differ from a token that contains a space,
    # which only a parse's word forms can hold
    bigram = sngrams(make_sentence([-1, 0], ["a", "b"]), "word", 2)
    unigram = sngrams(make_sentence([-1], ["a b"]), "word", 1)
    assert set(bigram) != set(unigram)


# -- syntactic n-grams ------------------------------------------------------

CONLLU = (
    "1\tDogs\tdog\tNOUN\t_\t_\t2\tnsubj\t_\t_\n"
    "2\tchase\tchase\tVERB\t_\t_\t0\troot\t_\t_\n"
    "3\tcats\tcat\tNOUN\t_\t_\t2\tobj\t_\t_\n"
)


def test_sngrams_head_to_dependent():
    sent = parse_conllu(CONLLU)
    assert sngrams(sent, "word", 2) == Counter({f"chase{SEP}dogs": 1, f"chase{SEP}cats": 1})


def test_sngrams_order_one_is_per_token():
    sent = parse_conllu(CONLLU)
    assert sngrams(sent, "word", 1) == Counter({"dogs": 1, "chase": 1, "cats": 1})


def test_sngrams_deeper_chain():
    # 0 <- 1 <- 2 <- 3 chain, root at token 0
    sent = make_sentence([-1, 0, 1, 2], ["r", "a", "b", "c"])
    assert sngrams(sent, "word", 3) == Counter({f"r{SEP}a{SEP}b": 1, f"a{SEP}b{SEP}c": 1})


def test_sngrams_too_long_chain_yields_nothing():
    sent = make_sentence([-1, 0], ["r", "a"])
    assert sngrams(sent, "word", 3) == Counter()


def test_sngrams_element_channels():
    sent = parse_conllu(CONLLU)
    assert sngrams(sent, "upos", 2) == Counter({f"VERB{SEP}NOUN": 2})
    assert sngrams(sent, "deprel", 2) == Counter({f"root{SEP}nsubj": 1, f"root{SEP}obj": 1})
    assert sngrams(sent, "lemma", 2) == Counter({f"chase{SEP}dog": 1, f"chase{SEP}cat": 1})


def test_sngrams_count_equals_deep_tokens():
    # each token at depth >= k-1 closes exactly one k-chain
    sent = make_sentence([-1, 0, 0, 1, 1, 3], ["r", "a", "b", "c", "d", "e"])
    for k in (1, 2, 3):
        depth = [0, 1, 1, 2, 2, 3]
        expected = sum(1 for d in depth if d >= k - 1)
        assert sum(sngrams(sent, "word", k).values()) == expected


def test_sngrams_validate_arguments():
    with pytest.raises(ValueError):
        FeatureModel("sngram", (0,), "word")
    with pytest.raises(ValueError):
        FeatureModel("sngram", (2,), "stem")


@st.composite
def random_trees(draw, forms="wxyz"):
    n = draw(st.integers(min_value=1, max_value=8))
    heads = [-1] + [draw(st.integers(min_value=0, max_value=i - 1)) for i in range(1, n)]
    labels = [draw(st.sampled_from(forms)) for _ in range(n)]
    return make_sentence(heads, labels)


@given(random_trees(), st.integers(min_value=1, max_value=4))
@settings(max_examples=300, deadline=None)
def test_sngrams_match_recursive_oracle(sent, k):
    assert sngrams(sent, "word", k) == sngrams_recursive(sent, "word", k)


# -- feature models ---------------------------------------------------------

def test_model_union_of_orders():
    counts = row_counts(extract_matrix(FeatureModel("ngram", (1, 2)), [Document("d", 0, "a b a")]), 0)
    assert counts["a"] == 2 and counts[f"a{SEP}b"] == 1


def test_model_sngram_requires_tree():
    model = FeatureModel("sngram", (2,), "word")
    with pytest.raises(DataError, match="no dependency tree"):
        extract_matrix(model, [Document("d", 0, "some text", tree=None)])


def test_model_sngram_over_sentences():
    model = FeatureModel("sngram", (2,), "word")
    doc = Document("d", 0, "Dogs chase cats", tree=parse_conllu(CONLLU + "\n" + CONLLU))
    assert row_counts(extract_matrix(model, [doc]), 0)[f"chase{SEP}dogs"] == 2


def test_model_validation():
    with pytest.raises(ValueError):
        FeatureModel("chargram", (1,))
    with pytest.raises(ValueError):
        FeatureModel("ngram", ())
    with pytest.raises(ValueError):
        FeatureModel("ngram", (1, 1))
    with pytest.raises(ValueError):
        FeatureModel("sngram", (2,), "stem")


# -- integer-coded extraction against the per-document oracle -----------------

WORDS = ("a", "b", "ab", "É", "é", "straße", "日本", "x1", "Ωμέγα", "İ", "Ωμέγα" * 3)  # the last past 24 bytes
GAPS = (" ", "  ", ", ", "_", "-", "\n", "…")


@st.composite
def word_documents(draw):
    docs = []
    for i in range(draw(st.integers(min_value=0, max_value=5))):
        words = draw(st.lists(st.sampled_from(WORDS), max_size=9))
        text = "".join(w + draw(st.sampled_from(GAPS)) for w in words)
        docs.append(Document(f"d{i}", 0, text))
    return docs


@st.composite
def parsed_documents(draw):
    """Documents of zero to three sentences; a form may be empty, pass 24 bytes, or hold a space or "!", just above the separator."""
    docs = []
    forms = ("a", "B", "a b", "a!", "a0", "é", "日本", "", "x" * 25, "ü" * 13, "a label of spaces past 24 bytes")
    for i in range(draw(st.integers(min_value=0, max_value=5))):
        tree = join_sentences(draw(st.lists(random_trees(forms=forms), max_size=3)))
        n = len(tree.head)
        lemma, upos = (tuple(draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n))) for pool in (WORDS, "NV"))
        docs.append(Document(f"d{i}", 0, "", tree=DepTree(tree.form, lemma, upos, tree.deprel, tree.head)))
    return docs


def check_against_oracle(model, docs, n_indexed, index_draw):
    refs = [extract_counts(model, doc) for doc in docs]
    indexed = set().union(*refs[:n_indexed])
    matrix = extract_matrix(model, docs, n_indexed)
    assert matrix.decode(np.arange(len(indexed))) == tuple(sorted(indexed))  # string order: the vocabulary's tie order
    assert matrix.counts.data.dtype == np.int64 and matrix.counts.shape == (len(docs), len(indexed))
    for i, ref in enumerate(refs):
        assert row_counts(matrix, i) == Counter({f: c for f, c in ref.items() if f in indexed})
        assert matrix.mass[i] == sum(ref.values())
    # projection onto given features: some of the grams seen, plus one never seen at each order ("never", "never\x1fseen", ...)
    seen = sorted(set().union(*refs))
    names = index_draw(seen) + [SEP.join(["never", *["seen"] * (k - 1)]) for k in model.orders]
    projected = extract_matrix(model, docs, features=names)
    assert projected.labels is None and projected.grams is None and projected.counts.shape == (len(docs), len(names))
    # scoring sums each row in stored order, so both keep columns ascending whatever the numbering
    assert as_scipy(matrix.counts).has_sorted_indices and as_scipy(projected.counts).has_sorted_indices
    for i, ref in enumerate(refs):
        assert row_counts(projected, i, names) == Counter({f: c for f, c in ref.items() if f in set(names)})
        assert projected.mass[i] == sum(ref.values())
    assert projected.tokens == matrix.tokens


orders = st.lists(st.integers(min_value=1, max_value=4), min_size=1, max_size=4, unique=True).map(tuple)


@given(word_documents(), orders, st.data())
@settings(max_examples=200, deadline=None)
def test_word_extract_matrix_matches_per_document_oracle(docs, ks, data):
    n_indexed = data.draw(st.integers(min_value=0, max_value=len(docs)))
    model = FeatureModel("ngram", ks)
    check_against_oracle(model, docs, n_indexed, lambda seen: data.draw(st.permutations(seen))[: len(seen) // 2])
    tokens = extract_matrix(model, docs).tokens
    assert tokens == sum(len(tokens_of(doc.text)) for doc in docs)


@given(st.lists(token_texts, max_size=5), orders, st.data())
@settings(max_examples=200, deadline=None)
def test_mixed_script_corpus_matches_per_document_oracle(bodies, ks, data):
    # ASCII documents take the byte table and the others the regex; one matrix holds both
    docs = [Document(f"d{i}", 0, text) for i, text in enumerate(bodies)]
    n_indexed = data.draw(st.integers(min_value=0, max_value=len(docs)))
    model = FeatureModel("ngram", ks)
    check_against_oracle(model, docs, n_indexed, lambda seen: data.draw(st.permutations(seen))[: len(seen) // 2])


@given(parsed_documents(), orders, st.sampled_from(SNGRAM_ELEMENTS), st.data())
@settings(max_examples=200, deadline=None)
def test_syntactic_extract_matrix_matches_per_document_oracle(docs, ks, element, data):
    n_indexed = data.draw(st.integers(min_value=0, max_value=len(docs)))
    model = FeatureModel("sngram", ks, element)
    check_against_oracle(model, docs, n_indexed, lambda seen: data.draw(st.permutations(seen))[: len(seen) // 2])
    tokens = extract_matrix(model, docs).tokens
    assert tokens == sum(len(doc.tree.head) for doc in docs)


@st.composite
def conllu_sentences(draw):
    """One sentence of 1 to 6 nodes as CoNLL-U rows: the root anywhere, each other node below one met before it in a random order."""
    n = draw(st.integers(min_value=1, max_value=6))
    order = draw(st.permutations(range(n)))
    heads = [0] * n
    for at in range(1, n):
        heads[order[at]] = order[draw(st.integers(min_value=0, max_value=at - 1))] + 1
    labels = ("a", "A", "ΑΣ", "Σ", "σa", "x" * 25, "日本")
    rows = []
    for i, head in enumerate(heads):
        form, lemma = draw(st.sampled_from(labels)), draw(st.sampled_from(labels))
        upos, deprel = draw(st.sampled_from(("NOUN", "VERB", "X"))), "root" if head == 0 else draw(st.sampled_from(("nsubj", "obj")))
        rows.append(f"{i + 1}\t{form}\t{lemma}\t{upos}\t_\t_\t{head}\t{deprel}\t_\t_\n")
    return "".join(rows)


@st.composite
def sidecar_documents(draw):
    """2 to 4 documents parsed from CoNLL-U sidecars: each a one-node sentence and 0 to 3 more, and one of them an empty sidecar."""
    sidecars = []
    for _ in range(draw(st.integers(min_value=2, max_value=4))):
        sentences = ["1\tOne\tone\tX\t_\t_\t0\troot\t_\t_\n", *draw(st.lists(conllu_sentences(), max_size=3))]
        sidecars.append("\n".join(draw(st.permutations(sentences))))
    sidecars[draw(st.integers(min_value=0, max_value=len(sidecars) - 1))] = ""
    return [Document(f"d{i}", 0, "", tree=parse_conllu(text)) for i, text in enumerate(sidecars)]


@given(sidecar_documents())
@settings(max_examples=100, deadline=None)
def test_syntactic_rows_of_a_batch_match_each_document_alone(docs):
    # every row's chains follow its own document's heads and labels, wherever the document sits in the batch
    for element in SNGRAM_ELEMENTS:
        for ks in [(1,), (2,), (3,), (1, 2, 3)]:
            model = FeatureModel("sngram", ks, element)
            matrix = extract_matrix(model, docs)
            for i, doc in enumerate(docs):
                assert row_counts(matrix, i) == extract_counts(model, doc)
                assert matrix.mass[i] == sum(extract_counts(model, doc).values())


# -- count matrices and vocabulary -------------------------------------------

UNIGRAMS = FeatureModel("ngram", (1,))


def text_of(counts):
    return " ".join(f for f, c in counts.items() for _ in range(c))


def ranked(dicts, m):
    """Features of the profile ranked on documents holding exactly the given unigram counts."""
    docs = [Document(f"d{i}", 0, text_of(d)) for i, d in enumerate(dicts)]
    matrix = extract_matrix(UNIGRAMS, docs)
    return matrix.decode(build_vocabulary(matrix, matrix.counts.column_sums(), m))


def test_extract_matrix_rows_match_per_document_counts():
    model = FeatureModel("ngram", (1, 2))
    docs = [Document("d0", 0, "a b a"), Document("d1", 1, "b c"), Document("d2", 1, "")]
    matrix = extract_matrix(model, docs)
    for i, doc in enumerate(docs):
        assert row_counts(matrix, i) == extract_counts(model, doc)
    assert list(matrix.mass) == [5, 3, 0]


def test_extract_matrix_projects_unindexed_documents():
    docs = [Document("d0", 0, "a b"), Document("d1", 1, "a c c")]
    matrix = extract_matrix(UNIGRAMS, docs, n_indexed=1)
    assert matrix.decode([0, 1]) == ("a", "b")
    assert as_scipy(matrix.counts).toarray().tolist() == [[1, 1], [1, 0]]
    assert list(matrix.mass) == [2, 3]  # the dropped "c c" still counts


@pytest.mark.parametrize("ks", [(1, 2), (2, 3)])
def test_columns_follow_string_order_past_two_byte_label_ids(ks):
    # 70,000 distinct labels, so the big-endian bytes above the last decide the column order
    words = ["".join(w) for n in range(1, 5) for w in itertools.product(string.ascii_lowercase, repeat=n)][:70_000]
    words = [words[i] for i in np.random.default_rng(3).permutation(len(words))]
    matrix = extract_matrix(FeatureModel("ngram", ks), [Document("d", 0, " ".join(words))])
    features = {SEP.join(words[i : i + k]) for k in ks for i in range(len(words) - k + 1)}
    assert matrix.counts.shape == (1, len(features))
    assert matrix.decode(np.arange(len(features))) == tuple(sorted(features))


def assert_same_matrix(a, b):
    assert a.counts.shape == b.counts.shape and a.counts.data.dtype == b.counts.data.dtype == np.int64
    for name in ("data", "indices", "indptr"):
        assert getattr(a.counts, name).tolist() == getattr(b.counts, name).tolist()
    assert a.mass.tolist() == b.mass.tolist() and a.tokens == b.tokens
    if a.grams is None:
        assert b.grams is None and a.labels is None and b.labels is None
    else:
        assert np.array_equal(a.grams, b.grams) and a.labels.tolist() == b.labels.tolist()


@pytest.mark.parametrize("ks", [(1,), (1, 2), (1, 2, 3), (3,)])
def test_extract_matrix_is_the_same_at_both_key_widths(ks):
    rng = np.random.default_rng(2)
    words = [f"w{i}" for i in range(60)]
    docs = [Document(f"d{i}", 0, " ".join(rng.choice(words, int(rng.integers(0, 40))))) for i in range(30)]
    model = FeatureModel("ngram", ks)
    seen = set().union(*(extract_counts(model, doc) for doc in docs[:5]))
    narrow = extract_matrix(model, docs, n_indexed=20), extract_matrix(model, docs, features=sorted(seen))
    with mock.patch.object(features, "_INT32_KEYS", 0):  # every key past the bound
        wide = extract_matrix(model, docs, n_indexed=20), extract_matrix(model, docs, features=sorted(seen))
    for a, b in zip(narrow, wide):
        assert a.counts.indices.dtype == a.counts.indptr.dtype == np.int32
        assert b.counts.indices.dtype == b.counts.indptr.dtype == np.int64
        assert_same_matrix(a, b)


def test_an_order_no_chain_reaches_adds_no_label_id_column(monkeypatch):
    # the longest document has 5 positions: orders 3 to 5 have chains, but none is counted, so none is numbered
    trees = [make_sentence([-1, 0, 1, 2, 3]), make_sentence([1, -1, 1])]
    docs = [Document("d0", 0, "a b c a b", trees[0]), Document("d1", 0, "b c d", trees[1]), Document("d2", 0, "", join_sentences([]))]
    calls, unique = [], np.unique
    monkeypatch.setattr(features.np, "unique", lambda *args, **kwargs: calls.append(1) or unique(*args, **kwargs))
    for family in FAMILIES:
        made = []
        for ks in [(1, 2), (1, 2, 1000)]:
            calls.clear()
            made.append((extract_matrix(FeatureModel(family, ks), docs), len(calls)))
        (short, short_calls), (wide, wide_calls) = made
        assert wide.grams.shape[1] == 2 and wide_calls == short_calls
        assert (as_scipy(wide.counts) != as_scipy(short.counts)).nnz == 0 and wide.mass.tolist() == short.mass.tolist()
        columns = np.arange(short.counts.shape[1])
        assert wide.decode(columns) == short.decode(columns)


def test_order_three_keys_past_int32_where_order_two_keys_fit():
    # 40,000 labels: an order-2 key (labels²) fits in int32, an order-3 key (order-2 codes × labels) does not
    rng = np.random.default_rng(5)
    words = ["".join(w) for w in itertools.product(string.ascii_lowercase, repeat=4)]
    words = [words[i] for i in rng.choice(len(words), 40_000, replace=False)]
    tokens = words + [words[i] for i in rng.integers(0, len(words), 20_000)]
    doc = Document("d", 0, " ".join(tokens[i] for i in rng.permutation(len(tokens))))
    model = FeatureModel("ngram", (2, 3))
    ref = extract_counts(model, doc)
    bigrams = sum(1 for feature in ref if feature.count(SEP) == 1)
    assert len(words) ** 2 < 2**31 < bigrams * len(words)
    assert row_counts(extract_matrix(model, [doc]), 0) == ref


def test_vocabulary_ranks_by_frequency_then_lexicographic():
    # totals: a=3, b=3, c=3 -> all tie, lexicographic
    assert ranked([{"b": 3, "a": 1}, {"c": 3, "a": 2}], 3) == ("a", "b", "c")


def test_vocabulary_truncates_to_m():
    assert ranked([{"a": 5, "b": 4, "c": 3}], 2) == ("a", "b")


def test_vocabulary_smaller_than_m_is_fine():
    assert ranked([{"a": 1}], 100) == ("a",)


def test_vocabulary_skips_features_absent_from_training():
    matrix = extract_matrix(UNIGRAMS, [Document("d0", 0, "a"), Document("d1", 0, "b b")])
    assert list(build_vocabulary(matrix, matrix.counts.take_rows([0]).column_sums(), 5)) == [0]  # "a"


def test_vocabulary_rejects_bad_size():
    with pytest.raises(ValueError):
        build_vocabulary(extract_matrix(UNIGRAMS, []), np.zeros(0), 0)


@given(
    st.lists(st.sampled_from([0, 1, 2, 3, 65534, 65535, 65536, 65537, 70000, 2**40]), max_size=30),
    st.integers(min_value=1, max_value=40),
)
@settings(max_examples=300, deadline=None)
def test_vocabulary_ranks_as_the_int64_key(totals, m):
    # ties, and totals on both sides of the 16-bit key's range
    totals = np.array(totals, dtype=np.int64)
    seen = np.flatnonzero(totals)
    if seen.size:
        expected = seen[np.argsort(-totals[seen], kind="stable")][:m]
        assert build_vocabulary(extract_matrix(UNIGRAMS, []), totals, m).tolist() == expected.tolist()


def test_extract_matrix_over_vocabulary_drops_out_of_vocabulary():
    vocab = Vocabulary(UNIGRAMS, 2, ranked([{"a": 2, "b": 1}], 2))
    counts = extract_matrix(UNIGRAMS, [Document("q", 0, text_of({"a": 4, "z": 9}))], features=vocab.features).counts
    assert counts.shape == (1, 2) and counts.nnz == 1
    assert as_scipy(counts)[0, vocab.features.index("a")] == 4
    assert as_scipy(counts).sum() == 4


WORD_PAIRS, WORD_TREES = FeatureModel("ngram", (1, 2)), FeatureModel("sngram", (1, 2))


@pytest.mark.parametrize(
    "model, feature",
    [
        pytest.param(WORD_PAIRS, "a b", id="ngram-label-with-a-space"),
        pytest.param(WORD_PAIRS, f"a{SEP}", id="ngram-empty-label"),
        pytest.param(WORD_PAIRS, "", id="ngram-empty-feature"),
        pytest.param(WORD_PAIRS, "A", id="ngram-upper-case"),
        pytest.param(WORD_PAIRS, "a-b", id="ngram-punctuation"),
        pytest.param(WORD_PAIRS, "é\n", id="ngram-line-feed"),
        pytest.param(WORD_PAIRS, f"a{SEP}b{SEP}c", id="ngram-order-3"),
        pytest.param(FeatureModel("ngram", (2,)), "a", id="ngram-order-1"),
        pytest.param(WORD_TREES, "A", id="sngram-word-upper-case"),
        pytest.param(FeatureModel("sngram", (1,), "lemma"), "É", id="sngram-lemma-upper-case"),
        pytest.param(WORD_TREES, "a\nb", id="sngram-line-feed"),
        pytest.param(WORD_TREES, "a\tb", id="sngram-tab"),
        pytest.param(FeatureModel("sngram", (1,), "upos"), f"X{SEP}X", id="sngram-order-2"),
    ],
)
def test_extract_matrix_refuses_a_feature_no_extraction_gives(model, feature):
    # a misread chain would shift the columns of every later feature, so none is matched silently
    docs = [Document("d", 0, "a b", tree=make_sentence([-1, 0], ["a", "b"]))]
    with pytest.raises(ValueError) as caught:
        extract_matrix(model, docs, features=["a", feature, "b"])
    assert str(caught.value).endswith(f" gives no feature {feature!r}")


@pytest.mark.parametrize(
    "element, labels, feature",
    [
        pytest.param("word", ("a b", "c"), "a b", id="label-with-a-space"),
        pytest.param("word", ("", "a"), f"{SEP}a", id="empty-label"),
        pytest.param("upos", ("X", "Y"), "X", id="upos-upper-case"),
    ],
)
def test_extract_matrix_takes_an_sngram_feature_a_tree_can_give(element, labels, feature):
    tree = DepTree(labels, labels, labels, labels, (-1, 0))
    counts = extract_matrix(FeatureModel("sngram", (1, 2), element), [Document("d", 0, "", tree=tree)], features=["b", feature]).counts
    assert as_scipy(counts).toarray().tolist() == [[0, 1]]


# labels of the documents above, their cased and uncased forms, and labels that no word n-gram holds
FEATURE_LABELS = ("a", "b", "ab", "é", "É", "x1", "ωμέγα", "ς", "σ", "Σ", "İ", "i\u0307", "a!", "a b", "", "a\n", "a\t", "N", "n", "日本", "x" * 25)


@given(st.data(), st.booleans(), orders)
@settings(max_examples=300, deadline=None)
def test_extract_matrix_takes_exactly_the_features_some_document_gives(data, syntactic, ks):
    if syntactic:
        model, docs = FeatureModel("sngram", ks, data.draw(st.sampled_from(SNGRAM_ELEMENTS))), data.draw(parsed_documents())
    else:
        model, docs = FeatureModel("ngram", ks), data.draw(word_documents())
    label_lists = st.lists(st.sampled_from(FEATURE_LABELS), min_size=1, max_size=4)
    names = data.draw(st.lists(label_lists.map(SEP.join), max_size=6, unique=True))
    refused = [f for f in names if not extracted_feature(model, f)]
    if refused:
        with pytest.raises(ValueError) as caught:
            extract_matrix(model, docs, features=names)
        assert str(caught.value).endswith(f" gives no feature {refused[0]!r}")
        return
    projected = extract_matrix(model, docs, features=names)
    for i, doc in enumerate(docs):
        assert row_counts(projected, i, names) == Counter({f: c for f, c in extract_counts(model, doc).items() if f in names})


def test_extract_matrix_refuses_features_that_repeat():
    with pytest.raises(ValueError, match=r"^features repeat a string: 2 distinct of 3$"):
        extract_matrix(WORD_PAIRS, [Document("d", 0, "a b")], features=["a", f"a{SEP}b", "a"])


@given(
    st.lists(st.lists(st.sampled_from(["a", "ab", "b", "é", "éa"]), min_size=1, max_size=8), min_size=1, max_size=5),
    st.integers(min_value=1, max_value=12),
)
@settings(max_examples=100, deadline=None)
def test_vocabulary_size_bounded_and_sorted(texts, m):
    # unigrams and bigrams, so a gram can tie with its own prefix: "a", "a\x1fb", "ab"
    model = FeatureModel("ngram", (1, 2))
    docs = [Document(f"d{i}", 0, " ".join(words)) for i, words in enumerate(texts)]
    matrix = extract_matrix(model, docs)
    features = list(matrix.decode(build_vocabulary(matrix, matrix.counts.column_sums(), m)))
    assert len(features) <= m
    total = Counter()
    for doc in docs:
        total.update(extract_counts(model, doc))
    ranked_ref = sorted(total.items(), key=lambda kv: (-kv[1], kv[0]))
    assert features == [f for f, _ in ranked_ref[:m]]


# -- the count matrix against scipy ------------------------------------------

def assert_same_csr(got, want, index_dtype):
    """``got``, a ``CsrMatrix``, holds scipy's ``want`` array for array, with index arrays of ``index_dtype``."""
    assert isinstance(got, CsrMatrix)
    assert got.shape == want.shape and got.nnz == want.nnz and got.data.dtype == want.data.dtype
    assert got.indices.dtype == got.indptr.dtype == index_dtype
    for name in ("data", "indices", "indptr"):
        assert getattr(got, name).tolist() == getattr(want, name).tolist()


def assert_takes_as_scipy(matrix, columns):
    # the input's index width, which scipy's column take may narrow
    assert_same_csr(take_columns(matrix, columns), as_scipy(matrix)[:, np.asarray(columns, dtype=np.int64)], matrix.indices.dtype)


@st.composite
def stored_matrices(draw, data_dtypes=(np.int64, np.float64)):
    """A CSR matrix whose rows store their distinct columns in any order, some rows empty."""
    n_rows, n_cols = draw(st.integers(0, 5)), draw(st.integers(0, 8))
    column_lists = st.lists(st.integers(0, max(n_cols - 1, 0)), unique=True, max_size=n_cols)
    rows = [draw(column_lists) for _ in range(n_rows)]
    indices = [j for row in rows for j in row]
    values = draw(st.lists(st.integers(-3, 9), min_size=len(indices), max_size=len(indices)))
    data = np.array(values, dtype=draw(st.sampled_from(data_dtypes)))
    width = draw(st.sampled_from([np.int32, np.int64]))  # scipy keeps int64 indices when indptr is int64
    indptr = np.cumsum([0] + [len(row) for row in rows]).astype(width)
    return CsrMatrix(data, np.array(indices, dtype=width), indptr, (n_rows, n_cols))


@st.composite
def column_takes(draw):
    """A stored matrix and distinct columns to take."""
    matrix = draw(stored_matrices())
    return matrix, draw(st.lists(st.integers(0, max(matrix.shape[1] - 1, 0)), unique=True, max_size=matrix.shape[1]))


@given(column_takes())
@settings(max_examples=400, deadline=None)
def test_take_columns_equals_scipy_take(case):
    assert_takes_as_scipy(*case)


def csr_of(rows, n_cols=4):
    """The CSR of rows given as their stored column lists, valued 1, 2, ... in stored order."""
    indices = [j for row in rows for j in row]
    indptr = np.cumsum([0] + [len(row) for row in rows]).astype(np.int32)
    return CsrMatrix(np.arange(1, len(indices) + 1), np.array(indices, dtype=np.int32), indptr, (len(rows), n_cols))


@pytest.mark.parametrize(
    "rows, columns",
    [
        ([[0, 3, 1], [], [2]], []),  # no column
        ([[0, 3], [], [3, 0]], [1, 2]),  # every stored column drops
        ([[], []], [2, 0]),  # no entry
        ([], [1, 0]),  # no row
    ],
)
def test_take_columns_edge_cases(rows, columns):
    assert_takes_as_scipy(csr_of(rows), columns)


@st.composite
def row_takes(draw):
    """A stored matrix and rows to take: any order, repeats, empty rows and none at all, as int32 or int64."""
    matrix = draw(stored_matrices())
    rows = draw(st.lists(st.integers(0, matrix.shape[0] - 1), max_size=12)) if matrix.shape[0] else []
    return matrix, np.array(rows, dtype=draw(st.sampled_from([np.int32, np.int64])))


@given(row_takes())
@settings(max_examples=400, deadline=None)
def test_take_rows_equals_scipy_take(case):
    matrix, rows = case
    # the input's index width, which scipy narrows to int32 when it takes no row
    assert_same_csr(matrix.take_rows(rows), as_scipy(matrix)[rows], matrix.indices.dtype)


def test_take_rows_edge_cases():
    matrix = csr_of([[0, 3, 1], [], [2], [1]])
    for rows in ([], [1], [1, 1], [3, 2, 1, 0], [0, 1, 2, 3], [2, 3, 0, 1], [0, 0, 1, 2, 2]):
        assert_same_csr(matrix.take_rows(rows), as_scipy(matrix)[np.array(rows, dtype=np.int64)], np.int32)
    for rows in ([4], [-1], [0, 7]):
        with pytest.raises(IndexError):
            matrix.take_rows(rows)


@given(stored_matrices(data_dtypes=(np.int64,)))
@settings(max_examples=300, deadline=None)
def test_column_sums_equal_scipy_sums(matrix):
    got, want = matrix.column_sums(), as_scipy(matrix).sum(axis=0)
    assert got.dtype == want.dtype == np.int64
    assert got.tolist() == want.tolist()


def test_column_sums_are_exact_past_float_precision():
    # 2**53 + 1 has no float64: a sum through float weights would round it
    matrix = csr_of([[0, 1], [0]], n_cols=2)
    big = CsrMatrix(np.array([2**53, 1, 1], dtype=np.int64), matrix.indices, matrix.indptr, matrix.shape)
    assert big.column_sums().tolist() == [2**53 + 1, 1]


# -- TSV round trip ---------------------------------------------------------

def test_feature_tsv_roundtrip(tmp_path):
    pairs = [("plain", 3), (f"two{SEP}part", 1), ("café", 2)]
    path = tmp_path / "features.tsv"
    write_feature_tsv(pairs, path)
    with path.open("r", encoding="utf-8", newline="") as fh:
        assert [(feature, int(n)) for feature, n in csv.reader(fh, delimiter="\t")] == pairs
