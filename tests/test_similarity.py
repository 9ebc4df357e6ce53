import math
import random
import weakref
from collections import Counter
from contextlib import nullcontext
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy import sparse

from newsreuse import corpus, headlines, similarity
from newsreuse.corpus import AMBIGUOUS, FORWARD, read_pairs_csv, write_pairs_csv
from newsreuse.errors import DataError
from newsreuse.similarity import (
    TokenizedDoc,
    cosine,
    fit_tfidf,
    match_window,
    tokenize,
    vectorize,
    window_pairs,
)

from helpers import (
    BASE_TS,
    DEFAULT_MATCH,
    make_article,
    make_pair,
    make_window,
    pseudo_vocab,
    random_body,
)
from oracles import (
    article_fit,
    article_match_window,
    column_df,
    dense_tfidf_matrix,
    exhaustive_pairs,
    merge_dot,
    product_pairs,
    reference_vectors,
)


def test_tokenize_headline():
    assert tokenize("EPA Chief Scott Pruitt Calls for Exit") == [
        "epa", "chief", "scott", "pruitt", "calls", "for", "exit",
    ]


def test_tokenize_empty():
    assert tokenize("") == []


def test_tokenize_punctuation_and_repeats():
    doc = TokenizedDoc.from_text("U.S.-backed plan, plan!")
    assert list(doc.tokens) == ["u", "s", "backed", "plan", "plan"]
    assert doc.tokens.count("plan") == 2


@given(st.text(max_size=200))
@example("snake_case __x__")
@example("\u212a")  # KELVIN SIGN lowers to ASCII "k"
@example("\u212aelvin_\u212a")
@example("\u0130stanbul")  # lowers to "i" plus a combining dot
@example("cafe\u0301 and caf\u00e9")
@example("\u0661\u0662\u0663 \u096b5 \u00b2x")  # non-ASCII digits
@example("a\x1cb\x1dc\x1ed\x1fe")  # str.split splits at these too
@example("\u201cquoted\u201d it\u2019s")
@settings(max_examples=500, deadline=None)
def test_tokenize_equals_unicode_regex(text):
    assert tokenize(text) == similarity._TOKEN_RE.findall(text.lower())


def test_ascii_table_splits_each_code_point_as_the_regex():
    for c in map(chr, range(128)):
        for text in (c, f"a{c}b", f"{c}{c}X9{c}z_{c}"):
            assert tokenize(text) == similarity._TOKEN_RE.findall(text.lower()), repr(text)


@given(st.text(alphabet=st.characters(max_codepoint=127), max_size=200))
@example("".join(map(chr, range(128))))
@example("".join(map(chr, reversed(range(128)))))
@settings(max_examples=300, deadline=None)
def test_tokenize_ascii_text_equals_unicode_regex(text):
    assert tokenize(text) == similarity._TOKEN_RE.findall(text.lower())


def test_text_ascii_once_lowered_skips_the_regex(monkeypatch):
    # U+212A KELVIN SIGN lowers to ASCII "k", so this takes the fast path.
    monkeypatch.setattr(similarity, "_TOKEN_RE", None)
    assert tokenize("\u212aelvin_Scale, 12") == ["kelvin", "scale", "12"]


@given(st.text(max_size=200))
@settings(max_examples=200, deadline=None)
def test_term_counts_sum_to_token_count(text):
    doc = TokenizedDoc.from_text(text)
    # Fitted on two copies of the document, every term has df == n, so
    # every idf is 1 and the row is the term counts divided by their norm.
    row = vectorize(fit_tfidf([text, text], 0))[0]
    norm = math.sqrt(sum(c * c for c in Counter(doc.tokens).values()))
    assert row.data.sum() * norm == pytest.approx(len(doc.tokens))
    assert all(t == t.lower() for t in doc.tokens)


def test_idf_smoothing_identity():
    model = fit_tfidf(["common xyz%d" % i for i in range(10)], 0)
    column = model.vocabulary.index
    assert model.idf[column("common")] == 1.0
    assert model.idf[column("xyz3")] == pytest.approx(math.log(11 / 2) + 1.0, abs=1e-12)
    assert vectorize(model)[:, column("common")].nnz == 10


def test_vectorize_unit_norm_and_identity():
    model = fit_tfidf(["a b c a", "b c d", "a b c a"], 0)
    vecs = vectorize(model)
    for v in vecs:
        norm = math.sqrt(sum(w * w for w in v.data))
        assert abs(norm - 1.0) < 1e-9
        assert list(v.indices) == sorted(v.indices)
    assert vecs[0].indices.tolist() == vecs[2].indices.tolist()
    assert vecs[0].data.tolist() == vecs[2].data.tolist()


def test_fitted_doc_without_tokens_is_empty_row_counted_in_n():
    model = fit_tfidf(["a b", "!!", "a c"], 0)
    vecs = vectorize(model)
    assert vecs.shape == (3, 3)
    assert not vecs[1].nnz
    # n = 3 with the empty document: "b" is in 1 of 3, "a" in 2 of 3.
    assert model.vocabulary == ["a", "b", "c"]
    assert model.idf[1] == math.log(4 / 2) + 1.0
    assert model.idf[0] == math.log(4 / 3) + 1.0
    assert cosine(vecs, [1, 1, 1, 0, 2], [0, 1, 2, 1, 1]).tolist() == [0.0] * 5


def test_toy_corpus_matches_dense_oracle():
    bodies = ["a b", "a c", "b c"]
    model = fit_tfidf(bodies, 0)
    vecs = vectorize(model)
    matrix, _ = dense_tfidf_matrix([tokenize(b) for b in bodies])
    got = cosine(vecs, [0], [1])[0]
    want = float(matrix[0] @ matrix[1])
    assert abs(got - want) <= 1e-12


def test_cosine_self_similarity_and_symmetry():
    model = fit_tfidf(["w x y z w", "x y q"], 0)
    vecs = vectorize(model)
    assert abs(cosine(vecs, [0], [0])[0] - 1.0) < 1e-9
    assert cosine(vecs, [0], [1])[0] == cosine(vecs, [1], [0])[0]


# Twelve words, so rows can hold 8 or more terms: numpy's pairwise sums
# start to differ from a sequential sum there.
_WORDS = ["ka", "lo", "mi", "ta", "re", "zu", "ne", "po", "si", "vu", "da", "he"]


@given(docs=st.lists(st.lists(st.sampled_from(_WORDS), max_size=24), min_size=2, max_size=7))
@example(
    # Empty rows first, in the middle and last (--min-body-tokens 0); repeats.
    docs=[[], ["ka", "lo", "ka", "ka"], [], ["lo", "mi"], ["mi", "lo", "lo"], []],
)
@settings(max_examples=300, deadline=None)
def test_vectorize_and_cosine_equal_per_document_reference(docs):
    model = fit_tfidf([" ".join(d) for d in docs], 0)
    vocab, idf, want = reference_vectors(docs, docs)
    # The term of each column, in the reference's column order.
    assert model.vocabulary == sorted(vocab, key=vocab.__getitem__)
    assert model.idf.tolist() == idf
    # The counts, read before `vectorize` weights them in place.
    assert [
        dict(zip(model.counts.indices[lo:hi].tolist(), model.counts.data[lo:hi].tolist()))
        for lo, hi in zip(model.counts.indptr[:-1], model.counts.indptr[1:])
    ] == [{vocab[t]: c for t, c in Counter(d).items()} for d in docs]
    matrix = vectorize(model)
    assert matrix.shape == (len(docs), len(vocab))
    assert matrix.has_canonical_format
    got = [
        (matrix.indices[lo:hi].tolist(), matrix.data[lo:hi].tolist())
        for lo, hi in zip(matrix.indptr[:-1], matrix.indptr[1:])
    ]
    assert got == want
    rows_a, rows_b = zip(*[(i, j) for i in range(len(docs)) for j in range(len(docs))])
    assert cosine(matrix, rows_a, rows_b).tolist() == [
        merge_dot(want[i], want[j]) for i, j in zip(rows_a, rows_b)
    ]


def test_idf_equals_math_log_at_every_document_frequency():
    # np.log differs from math.log in the last ulp for some of these n.
    for n in range(2, 64):
        fit_docs = [[f"t{k}" for k in range(d, n)] for d in range(n)]
        model = fit_tfidf([" ".join(d) for d in fit_docs], 0)
        assert model.idf.tolist() == reference_vectors(fit_docs, [])[1]


# Two of these words are not ASCII, so bodies take both tokenize paths.
_BODY_WORDS = ["ka", "lo", "Mi", "ta", "zu", "caf\u00e9", "na\u00efve"]


@given(
    bodies=st.lists(
        st.lists(st.sampled_from(_BODY_WORDS), max_size=6).map(", ".join),
        min_size=2,
        max_size=10,
    ),
    min_tokens=st.sampled_from([0, 1, 3]),
)
@example(
    # Short bodies between long ones; "zu" is only in short ones.
    bodies=[
        "ka lo mi", "zu caf\u00e9", "lo mi ta", "na\u00efve", "caf\u00e9, na\u00efve, ka", "zu"
    ],
    min_tokens=3,
)
@example(bodies=["", "ka lo", "", "na\u00efve lo", ""], min_tokens=0)
@settings(max_examples=300, deadline=None)
def test_streamed_fit_equals_per_document_reference(bodies, min_tokens):
    model = fit_tfidf((b for b in bodies), min_tokens)
    rows = [k for k, b in enumerate(bodies) if len(tokenize(b)) >= min_tokens]
    assert model.rows == rows
    assume(len(rows) >= 2)
    eligible = [tokenize(bodies[k]) for k in rows]
    matrix = vectorize(model)
    vocab, idf, want = reference_vectors(eligible, eligible)
    assert model.vocabulary == sorted(vocab, key=vocab.__getitem__)
    assert model.idf.tolist() == idf
    assert matrix.shape == (len(eligible), len(vocab))
    assert [
        (matrix.indices[lo:hi].tolist(), matrix.data[lo:hi].tolist())
        for lo, hi in zip(matrix.indptr[:-1], matrix.indptr[1:])
    ] == want


def test_vocabulary_and_columns_equal_the_dict_ranking():
    # Non-ASCII and astral terms (U+10400 lowers to U+10428; U+1D518 has no
    # lower case), empty rows and rows too short to keep.
    texts = [
        "caf\u00e9 na\u00efve caf\u00e9",
        "",
        "\U00010400x na\u00efve z \U0001d518",
        "a",
        "zz caf\u00e9 \U0001d518 b cafe",
        "b, a",
        "!!",
    ]
    for min_tokens in (0, 1, 2, 3):
        model = fit_tfidf(texts, min_tokens)
        rows, vocabulary, counts, idf = article_fit(texts, min_tokens)
        assert model.rows == rows
        assert [vocabulary[term] for term in model.vocabulary] == list(range(len(vocabulary)))
        assert model.counts.indptr.tolist() == counts.indptr.tolist()
        assert model.counts.indices.tolist() == counts.indices.tolist()
        assert model.counts.data.tolist() == counts.data.tolist()
        assert model.idf.tolist() == idf.tolist()
        assert model.row_df.tolist() == np.bincount(counts.indices, minlength=len(idf)).tolist()
        # Each text stands for its multiplicity's documents in the idf, and
        # once in the row df; the empty text is kept at min_tokens=0.
        multiplicity = [2, 7, 1, 7, 2, 1, 7]
        weighted = fit_tfidf(texts, min_tokens, multiplicity)
        repeated = [text for text, k in zip(texts, multiplicity) for _ in range(k)]
        idf = article_fit(repeated, min_tokens)[3]
        assert weighted.idf.tobytes() == idf.tobytes()
        assert weighted.row_df.tolist() == model.row_df.tolist()
        assert weighted.counts.data.tolist() == counts.data.tolist()


class _Tokens(list):
    """A body's tokens that a weak reference can watch, as a tuple's cannot."""


def test_fit_keeps_no_body_tokenized_while_it_counts(monkeypatch):
    rng = random.Random(5)
    vocab = pseudo_vocab(rng, 40)
    bodies = [random_body(rng, vocab) for _ in range(11)]
    refs, alive = [], []

    def from_text(text):
        tokens = _Tokens(tokenize(text))
        refs.append(weakref.ref(tokens))
        return TokenizedDoc(tokens)

    csr_matrix = sparse.csr_matrix

    def counted(*args, **kwargs):
        alive.append(sum(ref() is not None for ref in refs))
        return csr_matrix(*args, **kwargs)

    monkeypatch.setattr(TokenizedDoc, "from_text", staticmethod(from_text))
    monkeypatch.setattr(sparse, "csr_matrix", counted)
    fit_tfidf(iter(bodies), DEFAULT_MATCH["min_body_tokens"])
    # The count matrix is built after the last body's lookup, with none held.
    assert len(refs) == 11
    assert alive == [0]


def test_match_window_keeps_at_most_one_body_tokenized(monkeypatch):
    rng = random.Random(5)
    vocab = pseudo_vocab(rng, 40)
    bodies = [random_body(rng, vocab) for _ in range(11)]
    window = make_window(
        make_article(f"d{i:02d}", "ab"[i % 2], body=body, ts=BASE_TS + i)
        for i, body in enumerate(bodies + bodies[:1])
    )
    tokenized = TokenizedDoc.from_text
    refs, alive = [], []

    def from_text(text):
        alive.append(sum(ref() is not None for ref in refs))
        doc = tokenized(text)
        refs.append(weakref.ref(doc))
        return doc

    monkeypatch.setattr(TokenizedDoc, "from_text", staticmethod(from_text))
    assert len(match_window(window, **DEFAULT_MATCH).pairs) == 1
    # The 12th body repeats the 1st, and each distinct body is tokenized once.
    assert len(alive) == 11
    assert max(alive) <= 1


def _assert_matches_per_article_oracle(window, threshold, min_body_tokens):
    got = match_window(window, threshold=threshold, min_body_tokens=min_body_tokens)
    eligible, pairs = article_match_window(window, threshold, min_body_tokens)
    assert got.eligible_count == eligible
    got_pairs = tuple(window_pairs(window, got))
    assert got_pairs == pairs
    assert [p.similarity.hex() for p in got_pairs] == [p.similarity.hex() for p in pairs]
    return got


@given(
    bodies=st.lists(
        st.lists(st.sampled_from(_BODY_WORDS), max_size=8).map(" ".join), min_size=1, max_size=5
    ),
    # (body, source) of each article: repeats within one source and across sources.
    placed=st.lists(st.tuples(st.integers(0, 4), st.integers(0, 2)), min_size=2, max_size=24),
    min_body_tokens=st.sampled_from([0, 1, 4]),
    threshold=st.sampled_from([0.3, 0.6, 0.9]),
    one_key=st.booleans(),
)
# A whole window of one body, in three sources.
@example(bodies=["ka lo mi ta"], placed=[(0, 0), (0, 1), (0, 2), (0, 1)], min_body_tokens=1,
         threshold=0.9, one_key=False)
# Repeated empty bodies, eligible at min_body_tokens=0.
@example(bodies=["", "ka lo zu"], placed=[(0, 0), (0, 1), (0, 2), (1, 0), (1, 1)],
         min_body_tokens=0, threshold=0.3, one_key=False)
# Repeats of a body below min_body_tokens beside repeats of one above it.
@example(bodies=["ka", "ka lo mi ta zu"], placed=[(0, 0), (0, 1), (1, 0), (1, 1), (1, 1)],
         min_body_tokens=4, threshold=0.6, one_key=False)
# Every body under one key, so only the byte comparison tells them apart.
@example(bodies=["ka lo", "lo ka", "ka lo, ka"], placed=[(0, 0), (1, 1), (2, 2), (0, 1), (1, 2)],
         min_body_tokens=0, threshold=0.3, one_key=True)
@settings(max_examples=300, deadline=None)
def test_copies_sharing_a_row_match_the_per_article_oracle(
    bodies, placed, min_body_tokens, threshold, one_key
):
    # The spool keys bodies as make_window spools them: under one key, only
    # its byte comparison tells them apart.
    one_hash = mock.patch.object(corpus, "hash", lambda data: 0, create=True)
    with one_hash if one_key else nullcontext():
        window = make_window(
            make_article(f"d{k:02d}", f"s{source}", body=bodies[body % len(bodies)],
                         ts=BASE_TS + k // 2)
            for k, (body, source) in enumerate(placed)
        )
    try:
        _assert_matches_per_article_oracle(window, threshold, min_body_tokens)
    finally:
        window.spool.close()


def test_copies_in_a_norm_bound_window_match_the_per_article_oracle(monkeypatch):
    # The skewed window's rows, each body of a few of them republished again
    # by its own source and by others: the distinct rows still take the
    # norm-bound join.
    window = _skewed_window(random.Random(3))
    extra = [
        replace(a, id=f"{a.id}-copy{c}", source=f"s{(k + c) % 9}")
        for k, a in enumerate(window.articles[::23])
        for c in range(3)
    ]
    window = replace(window, articles=window.articles + tuple(extra))
    taken = _cuts_taken(monkeypatch)
    got = _assert_matches_per_article_oracle(window, 0.5, 0)
    assert len(taken) == 1 and taken[0].any()
    assert any("-copy" in p.earlier.id + p.later.id for p in window_pairs(window, got))


def test_every_tokenization_happens_inside_fit(monkeypatch):
    # Bodies and titles are tokenized by `fit_tfidf` alone, so the
    # benchmark's tokenize span nests inside its fit span.
    rng = random.Random(7)
    vocab = pseudo_vocab(rng, 40)
    bodies = [random_body(rng, vocab) for _ in range(5)]
    window = make_window(
        make_article(f"d{i:02d}", "ab"[i % 2], body=body, ts=BASE_TS + i)
        for i, body in enumerate(bodies + bodies[:1])
    )
    pairs = [
        make_pair("ap", "echo", earlier_title="Storm hits coast", later_title="Storm hits"),
        make_pair("ap", "blog", earlier_title="Storm hits coast", later_title="Coast storm"),
    ]
    fitting, inside = [False], []
    tokenized = TokenizedDoc.from_text

    def from_text(text):
        inside.append(fitting[0])
        return tokenized(text)

    def flagged(fit):
        def fit_flagged(*args):
            fitting[0] = True
            try:
                return fit(*args)
            finally:
                fitting[0] = False

        return fit_flagged

    monkeypatch.setattr(TokenizedDoc, "from_text", staticmethod(from_text))
    monkeypatch.setattr(similarity, "fit_tfidf", flagged(similarity.fit_tfidf))
    monkeypatch.setattr(headlines, "fit_tfidf", flagged(headlines.fit_tfidf))
    assert len(match_window(window, **DEFAULT_MATCH).pairs) == 1
    # The 6th body repeats the 1st, and each distinct body is tokenized once.
    assert len(inside) == 5
    assert all(tp.distance > 0 for tp in headlines.title_distance(pairs))
    assert len(inside) == 5 + 3
    assert all(inside)


def _window_articles(bodies_by_source, start=BASE_TS):
    articles = []
    tick = 0
    for source, bodies in bodies_by_source.items():
        for i, body in enumerate(bodies):
            tick += 1
            articles.append(
                make_article(f"{source}-{i}", source, body=body, ts=start + tick * 60)
            )
    return articles


LONG_A = "alpha beta gamma delta " * 8
LONG_B = "epsilon zeta eta theta " * 8


def test_verbatim_copy_detected_at_one():
    window = make_window(
        _window_articles({"ap": [LONG_A, LONG_B], "echo": [LONG_A]})
    )
    pairs = list(window_pairs(window, match_window(window, **DEFAULT_MATCH)))
    assert len(pairs) == 1
    assert pairs[0].similarity == pytest.approx(1.0, abs=1e-9)
    assert {pairs[0].earlier.source, pairs[0].later.source} == {"ap", "echo"}
    assert pairs[0].direction == FORWARD


def test_same_source_duplicates_excluded():
    window = make_window(_window_articles({"ap": [LONG_A, LONG_A], "x": [LONG_B]}))
    assert list(window_pairs(window, match_window(window, **DEFAULT_MATCH))) == []


def test_short_bodies_ineligible():
    short = "too short to count"
    window = make_window(_window_articles({"ap": [short], "echo": [short]}))
    result = match_window(window, **DEFAULT_MATCH)
    assert result.eligible_count == 0
    assert list(window_pairs(window, result)) == []


def test_window_with_single_eligible_doc_skipped():
    window = make_window(_window_articles({"ap": [LONG_A], "echo": ["tiny"]}))
    result = match_window(window, **DEFAULT_MATCH)
    assert result.eligible_count == 1
    assert list(window_pairs(window, result)) == []


def test_timestamp_tie_marks_ambiguous():
    a = make_article("idb", "zsource", body=LONG_A, ts=BASE_TS + 100)
    b = make_article("ida", "asource", body=LONG_A, ts=BASE_TS + 100)
    window = make_window([a, b])
    pairs = list(window_pairs(window, match_window(window, **DEFAULT_MATCH)))
    assert len(pairs) == 1
    assert pairs[0].direction == AMBIGUOUS
    assert pairs[0].earlier.source == "asource"


def _planted_window(rng, size, copies, vocab):
    sources = [f"s{i:02d}" for i in range(max(6, size // 12))]
    articles = []
    for i in range(size):
        articles.append(
            make_article(
                f"a{i:03d}",
                rng.choice(sources),
                body=random_body(rng, vocab),
                ts=BASE_TS + rng.randrange(13 * 86400),
            )
        )
    planted = set()
    originals = rng.sample(articles, copies)
    for j, orig in enumerate(originals):
        source = rng.choice([s for s in sources if s != orig.source])
        copy = make_article(
            f"copy{j:03d}", source, body=orig.body, ts=orig.published_utc + 1800
        )
        articles.append(copy)
        planted.add(frozenset((orig.id, copy.id)))
    return make_window(articles), planted


def test_planted_copies_recovered_exactly():
    rng = random.Random(11)
    vocab = pseudo_vocab(rng, 900)
    window, planted = _planted_window(rng, 200, 10, vocab)
    pairs = list(window_pairs(window, match_window(window, threshold=0.90, min_body_tokens=20)))
    got = {frozenset((p.earlier.id, p.later.id)) for p in pairs}
    assert got == planted
    for p in pairs:
        assert p.similarity == pytest.approx(1.0, abs=1e-9)


def _oracle_pairs(window, threshold, min_body_tokens):
    """Cross-source pairs of `window` above `threshold`, scored densely."""
    articles = sorted(window.articles, key=lambda a: a.id)
    docs = [list(TokenizedDoc.from_text(a.body).tokens) for a in articles]
    keep = [i for i, d in enumerate(docs) if len(d) >= min_body_tokens]
    oracle = {}
    for i, j, sim in exhaustive_pairs([docs[k] for k in keep], threshold):
        a, b = articles[keep[i]], articles[keep[j]]
        if a.source != b.source:
            oracle[frozenset((a.id, b.id))] = sim
    return oracle


def test_pruned_search_equals_exhaustive_oracle():
    rng = random.Random(23)
    vocab = pseudo_vocab(rng, 300)
    for trial in range(8):
        size = rng.randint(20, 160)
        window, _ = _planted_window(rng, size, rng.randint(1, 6), vocab)
        threshold = rng.choice([0.5, 0.7, 0.9])
        result = match_window(window, threshold=threshold, min_body_tokens=5)
        oracle = _oracle_pairs(window, threshold, 5)
        got = {
            frozenset((p.earlier.id, p.later.id)): p.similarity
            for p in window_pairs(window, result)
        }
        assert got.keys() == oracle.keys(), f"trial {trial} set mismatch"
        for key, sim in got.items():
            assert abs(sim - oracle[key]) <= 1e-12


@st.composite
def _small_windows(draw):
    """2-14 short bodies over 8 words, some verbatim copies, some empty."""
    words = ["ka", "lo", "mi", "ta", "re", "zu", "ne", "po"]
    bodies = []
    for _ in range(draw(st.integers(2, 14))):
        if bodies and draw(st.booleans()):
            bodies.append(draw(st.sampled_from(bodies)))
        else:
            bodies.append(" ".join(draw(st.lists(st.sampled_from(words), max_size=10))))
    return make_window(
        [
            make_article(f"d{i:02d}", draw(st.sampled_from("abc")), body=body, ts=BASE_TS + i)
            for i, body in enumerate(bodies)
        ]
    )


@given(
    window=_small_windows(),
    threshold=st.sampled_from([0.5, 0.9, 0.99]),
    min_body_tokens=st.sampled_from([0, 3]),
    tile_entries=st.sampled_from([1, 4, 9, similarity._TILE_ENTRIES]),
)
@settings(max_examples=300, deadline=None)
def test_tiled_join_equals_exhaustive_oracle(
    window, threshold, min_body_tokens, tile_entries
):
    # Tiles of side 1, 2 and 3 split every window into several tiles; the
    # default budget puts each of these windows in a single tile.
    articles = sorted(window.articles, key=lambda a: a.id)
    docs = [TokenizedDoc.from_text(a.body).tokens for a in articles]
    docs = [d for d in docs if len(d) >= min_body_tokens]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(similarity, "_TILE_ENTRIES", tile_entries)
        result = match_window(
            window, threshold=threshold, min_body_tokens=min_body_tokens
        )
        if len(docs) >= 2:
            matrix = vectorize(fit_tfidf([" ".join(d) for d in docs], 0))
            joined = similarity._threshold_join(matrix, threshold, column_df(matrix))
            assert sorted(joined) == product_pairs(matrix, threshold)
    got = {
        frozenset((p.earlier.id, p.later.id)): p.similarity
        for p in window_pairs(window, result)
    }
    assert len(got) == len(result.pairs)
    # Tiny vocabularies produce pairs whose exact cosine equals the
    # threshold; rounding may put those on either side of it.
    oracle = _oracle_pairs(window, threshold - 1e-12, min_body_tokens)
    certain = {key for key, sim in oracle.items() if sim > threshold + 1e-12}
    assert certain <= got.keys() <= oracle.keys()
    for key, sim in got.items():
        assert abs(sim - oracle[key]) <= 1e-12


def test_raising_threshold_never_adds_pairs():
    rng = random.Random(31)
    vocab = pseudo_vocab(rng, 120)
    window, _ = _planted_window(rng, 80, 4, vocab)
    previous = None
    for threshold in [0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.95, 0.99]:
        pairs = {
            frozenset((p.earlier.id, p.later.id))
            for p in window_pairs(
                window, match_window(window, threshold=threshold, min_body_tokens=5)
            )
        }
        if previous is not None:
            assert pairs <= previous
        previous = pairs


def _tied_window(rng, vocab):
    """Five bodies, each published by 8 of 12 sources, whose ids sort
    against their publication order: most pairs tie on similarity, so the
    ids order them, and the earlier article's id is the larger."""
    articles = []
    for b in range(5):
        body = random_body(rng, vocab)
        for c, source in enumerate(rng.sample(range(12), 8)):
            k = 8 * b + c
            articles.append(
                make_article(f"x{99 - k:02d}", f"s{source:02d}", body=body, ts=BASE_TS + 60 * k)
            )
    return make_window(articles)


def test_output_sorted_and_deterministic():
    rng = random.Random(47)
    vocab = pseudo_vocab(rng, 200)
    window, _ = _planted_window(rng, 90, 6, vocab)
    for checked in (window, _tied_window(random.Random(5), vocab)):
        first, second = (
            list(window_pairs(checked, match_window(checked, threshold=0.5, min_body_tokens=5)))
            for _ in range(2)
        )
        assert first == second
        keys = [(-p.similarity, p.earlier.id, p.later.id) for p in first]
        assert keys == sorted(keys)
    # Shuffling the window's articles changes no pair and no score bit, on
    # either join path (the skewed window takes the norm-bound join).
    for window, min_body_tokens in ((window, 5), (_skewed_window(random.Random(3)), 0)):
        want = list(window_pairs(
            window, match_window(window, threshold=0.5, min_body_tokens=min_body_tokens)
        ))
        assert want
        for _ in range(3):
            shuffled = replace(
                window, articles=tuple(rng.sample(window.articles, len(window.articles)))
            )
            got = list(window_pairs(shuffled, match_window(
                shuffled, threshold=0.5, min_body_tokens=min_body_tokens
            )))
            assert got == want
            assert [p.similarity.hex() for p in got] == [p.similarity.hex() for p in want]


def test_matching_is_strictly_intra_window(tmp_path):
    # A verbatim copy published in a later window is never paired.
    from newsreuse.corpus import ingest_articles, partition_windows
    from helpers import write_jsonl

    path = tmp_path / "articles.jsonl"
    write_jsonl(
        path,
        [
            {"id": "a", "source": "wire", "body": LONG_A, "published_utc": BASE_TS},
            {"id": "b", "source": "blog", "body": LONG_A,
             "published_utc": BASE_TS + 20 * 86400},
        ],
    )
    windows = partition_windows(ingest_articles(path), window_days=14)
    assert len(windows) == 2
    assert all(list(window_pairs(w, match_window(w, **DEFAULT_MATCH))) == [] for w in windows)


def test_pairs_csv_round_trip(tmp_path):
    window = make_window(
        _window_articles({"ap": [LONG_A, LONG_B], "echo": [LONG_A, LONG_B]})
    )
    pairs = list(window_pairs(window, match_window(window, **DEFAULT_MATCH)))
    assert pairs
    path = tmp_path / "pairs.csv"
    write_pairs_csv(pairs, path)
    by_id = {a.id: a for a in window.articles}
    loaded = read_pairs_csv(path, by_id, 1)
    assert loaded == pairs
    with pytest.raises(DataError, match="row 2: window 0 is not one of the 0 windows"):
        read_pairs_csv(path, by_id, 0)


def test_pairs_csv_unknown_id_errors(tmp_path):
    window = make_window(_window_articles({"ap": [LONG_A], "echo": [LONG_A]}))
    pairs = list(window_pairs(window, match_window(window, **DEFAULT_MATCH)))
    path = tmp_path / "pairs.csv"
    write_pairs_csv(pairs, path)
    with pytest.raises(DataError, match="not in corpus"):
        read_pairs_csv(path, {}, 1)


def _skewed_docs(rng, size, common, rare, only_frequent, copies):
    """Token lists of a skewed window, and the (original, copy) positions of
    its planted near-copies.

    Every document holds each of `common` frequent terms 1-4 times; all but
    `only_frequent` of them also hold 1-12 of `rare` rare terms. A near-copy
    repeats a document with one more rare term, or one more frequent one.
    With at most 13 distinct rare terms per document, each with df < n/16
    or counted as frequent, the frequent columns hold at least half of
    sum(df^2). With more rare words than documents, some stay below n/16.
    """
    frequent_words = [f"c{k}" for k in range(common)]
    rare_words = [f"r{k}" for k in range(rare)]
    docs = []
    for k in range(size - copies):
        doc = [w for w in frequent_words for _ in range(rng.randint(1, 4))]
        if k >= only_frequent:
            doc += rng.choices(rare_words, k=rng.randint(1, 12))
        docs.append(doc)
    planted = []
    for _ in range(copies):
        original = rng.randrange(size - copies)
        extra = rng.choice(frequent_words if rng.random() < 0.2 else rare_words)
        planted.append((original, len(docs)))
        docs.append(docs[original] + [extra])
    return _shuffled(rng, docs, planted)


def _flat_docs(rng, size, words, length, copies):
    """Token lists of a flat window, and the (original, copy) positions of
    its planted near-copies.

    Each of `size` documents holds `length` tokens drawn uniformly from
    `words` words; a near-copy repeats a document with one more word.

    Every column has about the same df, so a df threshold cuts almost no
    column or almost all of them, and only a cut by df rank splits them.
    """
    vocabulary = [f"w{k}" for k in range(words)]
    docs = [rng.choices(vocabulary, k=length) for _ in range(size - copies)]
    planted = []
    for _ in range(copies):
        original = rng.randrange(size - copies)
        planted.append((original, len(docs)))
        docs.append(docs[original] + [rng.choice(vocabulary)])
    return _shuffled(rng, docs, planted)


def _shuffled(rng, docs, planted):
    order = rng.sample(range(len(docs)), len(docs))
    position = {old: new for new, old in enumerate(order)}
    return [docs[k] for k in order], [(position[a], position[b]) for a, b in planted]


def _docs_matrix(docs):
    return vectorize(fit_tfidf([" ".join(d) for d in docs], 0))


@st.composite
def _skewed_windows(draw):
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    size = draw(st.integers(48, 120))
    return _skewed_docs(
        rng,
        size,
        common=draw(st.integers(1, 5)),
        rare=draw(st.integers(2 * size, 6 * size)),
        only_frequent=draw(st.integers(0, 6)),
        copies=draw(st.integers(1, 12)),
    )


@st.composite
def _flat_windows(draw):
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    size = draw(st.integers(48, 120))
    return _flat_docs(
        rng,
        size,
        words=draw(st.integers(size // 4, 8 * size)),
        length=draw(st.integers(8, 40)),
        copies=draw(st.integers(1, 12)),
    )


def _near_planted_threshold(matrix, planted, fixed, pick, ulps):
    """`fixed`, or when it is None a threshold within a few ulps of a
    planted near-copy's score, far inside the margin."""
    if fixed is not None:
        return fixed
    earlier, later = planted[pick % len(planted)]
    threshold = cosine(matrix, [earlier], [later])[0]
    for _ in range(abs(ulps)):
        threshold = np.nextafter(threshold, 2.0 if ulps > 0 else 0.0)
    assume(0.0 < threshold < 1.0)
    return threshold


def _candidate_cuts(matrix):
    """Each cut the chooser weighs, a prefix of the columns ranked by
    descending df, ties by column index: the columns with df >= n / 16,
    n / 32, n / 64, ... and the top i / 16 of them, for i = 1 .. 15, less
    the empty cut and the cut of every column. For each, by size, its
    columns and each row's norm over them, summed row by row."""
    n, width = matrix.shape
    df = column_df(matrix).tolist()
    ranked = sorted(range(width), key=lambda c: (-df[c], c))
    sizes = {i * width // 16 for i in range(1, 16)}
    divisor = 16
    while divisor < n:
        sizes.add(sum(d * divisor >= n for d in df))
        divisor *= 2
    rows = [
        list(zip(matrix.indices[lo:hi].tolist(), matrix.data[lo:hi].tolist()))
        for lo, hi in zip(matrix.indptr[:-1], matrix.indptr[1:])
    ]
    cuts = []
    for size in sorted(s for s in sizes if 0 < s < width):
        in_cut = np.zeros(width, dtype=bool)
        in_cut[ranked[:size]] = True
        norms = [math.sqrt(sum(w * w for c, w in row if in_cut[c])) for row in rows]
        cuts.append((in_cut, np.array(norms)))
    return cuts


def _chosen_cut(cuts, matrix, threshold):
    """The position in `cuts` of the chooser's cut, whose norms must be
    those of the row-by-row sums up to rounding; None when it chose the
    empty cut, whose norms must all be zero."""
    in_cut, norms = similarity._cheapest_cut(matrix, threshold, column_df(matrix))
    assert in_cut.shape == (matrix.shape[1],) and norms.shape == (matrix.shape[0],)
    if not in_cut.any():
        assert not norms.any()
        return None
    (at,) = [k for k, (columns, _) in enumerate(cuts) if np.array_equal(columns, in_cut)]
    np.testing.assert_allclose(norms, cuts[at][1], rtol=1e-12, atol=0)
    return at


def _heavy_rows(norms, threshold):
    """How many rows pass the bound on their cut-part norm alone."""
    return int(np.count_nonzero(norms * norms.max() > threshold))


def _check_every_cut(matrix, threshold, tile_entries):
    """`_threshold_join`, and `_norm_bound_join` at the empty cut and at
    every other cut the chooser weighs, give the pairs and score bits of
    one untiled product. With no fixed cost for the filter, the chooser
    takes a cut wherever one costs less than the product."""
    cuts = _candidate_cuts(matrix)
    want = product_pairs(matrix, threshold)
    # Tiles of side 8 and 32 split the window and batch the re-scoring.
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(similarity, "_TILE_ENTRIES", tile_entries)
        mp.setattr(similarity, "_FILTER_COST", 0)
        _chosen_cut(cuts, matrix, threshold)
        assert sorted(similarity._threshold_join(matrix, threshold, column_df(matrix))) == want
        for in_cut, norms in [similarity._empty_cut(matrix), *cuts]:
            got = similarity._norm_bound_join(matrix, threshold, in_cut, norms)
            assert sorted(got) == want


@given(
    window=_skewed_windows(),
    fixed=st.sampled_from([None, None, 0.3, 0.6, 0.9]),
    pick=st.integers(0, 11),
    ulps=st.integers(-2, 2),
    tile_entries=st.sampled_from([64, 1024, similarity._TILE_ENTRIES]),
)
@settings(max_examples=100, deadline=None)
def test_norm_bound_join_equals_product_join_on_skewed_windows(
    window, fixed, pick, ulps, tile_entries
):
    docs, planted = window
    matrix = _docs_matrix(docs)
    threshold = _near_planted_threshold(matrix, planted, fixed, pick, ulps)
    _check_every_cut(matrix, threshold, tile_entries)


@given(
    window=_flat_windows(),
    fixed=st.sampled_from([None, None, 0.3, 0.6, 0.9]),
    pick=st.integers(0, 11),
    ulps=st.integers(-2, 2),
    tile_entries=st.sampled_from([64, 1024, similarity._TILE_ENTRIES]),
)
@settings(max_examples=60, deadline=None)
def test_norm_bound_join_equals_product_join_on_flat_windows(
    window, fixed, pick, ulps, tile_entries
):
    docs, planted = window
    matrix = _docs_matrix(docs)
    threshold = _near_planted_threshold(matrix, planted, fixed, pick, ulps)
    _check_every_cut(matrix, threshold, tile_entries)


def test_cut_chooser_lowers_the_cut_short_of_most_rows_heavy():
    # Three terms in every document and rare terms of df about 3: the rest
    # shrinks as the cut grows, until the rows' cut parts carry most of
    # their weight and most rows pass the bound on their own.
    docs, _ = _skewed_docs(random.Random(0), 400, common=3, rare=800, only_frequent=2, copies=20)
    matrix = _docs_matrix(docs)
    n = matrix.shape[0]
    df = column_df(matrix)
    cuts = _candidate_cuts(matrix)
    at = _chosen_cut(cuts, matrix, 0.9)
    assert df[cuts[at][0]].sum() > df[df * 16 >= n].sum()  # beyond df >= n / 16
    assert _heavy_rows(cuts[at][1], 0.9) <= n // 2
    assert max(_heavy_rows(norms, 0.9) for _, norms in cuts) > n // 2
    assert sorted(similarity._threshold_join(matrix, 0.9, df)) == product_pairs(matrix, 0.9)


@pytest.mark.parametrize(
    "seed, common, rare, only_frequent, lowest_norm",
    # The second window's cut-part norms spread from below 0.1 to 1, so
    # each later row's first cut in `_tiles` differs widely from the
    # tile's largest.
    [(5, 4, 300, 4, 0.3), (6, 2, 800, 40, 0.1)],
    ids=["skewed", "spread-norms"],
)
def test_norm_bound_join_keeps_pairs_one_ulp_above_threshold(
    seed, common, rare, only_frequent, lowest_norm
):
    # The filter's value is within a few ulps of the score when the two
    # cut parts are parallel; without the margin some of these pairs are
    # lost.
    docs, planted = _skewed_docs(
        random.Random(seed), 200, common=common, rare=rare, only_frequent=only_frequent,
        copies=30,
    )
    matrix = _docs_matrix(docs)
    df = column_df(matrix)
    in_cut, norms = similarity._cheapest_cut(matrix, 0.9, df)
    assert in_cut.any()
    assert norms.min() < lowest_norm and norms.max() > 0.99
    checked = 0
    for earlier, later in planted:
        score = cosine(matrix, [earlier], [later])[0]
        if not 0.0 < score < 1.0:
            continue
        threshold = np.nextafter(score, 0.0)
        got = similarity._threshold_join(matrix, threshold, df)
        assert sorted(got) == product_pairs(matrix, threshold)
        assert (min(earlier, later), max(earlier, later), score) in got
        checked += 1
    assert checked >= 20


def test_norm_bound_join_pairs_documents_of_frequent_terms_only():
    # Such pairs share no term outside the cut, so only the join of the
    # rows whose cut-part norm alone can pass finds them.
    docs = [["c0", "c1", "c1"]] * 3 + [["c0", "c1", f"r{k}"] for k in range(300)]
    matrix = _docs_matrix(docs)
    df = column_df(matrix)
    assert similarity._cheapest_cut(matrix, 0.9, df)[0].any()
    got = similarity._threshold_join(matrix, 0.9, df)
    assert sorted(got) == product_pairs(matrix, 0.9)
    assert {(i, j) for i, j, _ in got} >= {(0, 1), (0, 2), (1, 2)}


def _cuts_taken(monkeypatch):
    """The columns of each cut that `_cheapest_cut` returns, in call order."""
    taken = []

    def spy(*args, _choose=similarity._cheapest_cut):
        in_cut, norms = _choose(*args)
        taken.append(in_cut)
        return in_cut, norms

    monkeypatch.setattr(similarity, "_cheapest_cut", spy)
    return taken


def _skewed_window(rng):
    docs, _ = _skewed_docs(rng, 200, common=3, rare=300, only_frequent=2, copies=8)
    return make_window(
        [
            make_article(f"d{i:03d}", f"s{i % 7}", body=" ".join(d), ts=BASE_TS + i)
            for i, d in enumerate(docs)
        ]
    )


def test_gate_sends_skewed_window_to_norm_bound_join(monkeypatch):
    window = _skewed_window(random.Random(3))
    taken = _cuts_taken(monkeypatch)
    result = _assert_matches_per_article_oracle(window, 0.5, 0)
    assert len(taken) == 1 and taken[0].any()
    assert result.pairs


def test_gate_sends_flat_window_to_norm_bound_join(monkeypatch):
    # No column is in 1/16 of the documents, and each column carries about
    # the same share of sum(df^2): the cut taken is one by df rank, not one
    # at df >= n / 16, n / 32, ...
    docs, planted = _flat_docs(random.Random(11), 400, words=1600, length=40, copies=10)
    matrix = _docs_matrix(docs)
    n = matrix.shape[0]
    df = column_df(matrix)
    assert df.max() * 16 < n
    taken = _cuts_taken(monkeypatch)
    got = similarity._threshold_join(matrix, 0.9, df)
    (in_cut,) = taken
    at_df = {int(np.count_nonzero(df * (16 << k) >= n)) for k in range(n.bit_length())}
    assert in_cut.any() and np.count_nonzero(in_cut) not in at_df
    assert sorted(got) == product_pairs(matrix, 0.9)
    assert {(min(p), max(p)) for p in planted} <= {(i, j) for i, j, _ in got}


def test_gate_sends_fixture_window_to_norm_bound_join(tmp_path, monkeypatch):
    from newsreuse.corpus import ingest_articles, partition_windows
    from newsreuse.fixture import FixtureSpec, generate_fixture

    paths = generate_fixture(
        tmp_path, FixtureSpec(sources=6, articles_per_source=40, copies=10, windows=1)
    )
    (window,) = partition_windows(ingest_articles(paths["articles"]), window_days=14)
    taken = _cuts_taken(monkeypatch)
    result = match_window(window, **DEFAULT_MATCH)
    assert len(taken) == 1 and taken[0].any()
    assert len(result.pairs) >= 10
    texts = [window.spool.read(a.body_index) for a in window.articles]
    matrix = vectorize(fit_tfidf(texts, DEFAULT_MATCH["min_body_tokens"]))
    threshold = DEFAULT_MATCH["threshold"]
    joined = similarity._threshold_join(matrix, threshold, column_df(matrix))
    assert sorted(joined) == product_pairs(matrix, threshold)


def test_gate_sends_window_without_rare_columns_to_product_join(monkeypatch):
    # In 16 or fewer documents every term is frequent: nothing is left for
    # the bound to skip, so the cut is empty and the filter is the product.
    bodies = [LONG_A, LONG_B, "alpha zeta " * 10]
    window = make_window(_window_articles({"ap": bodies[:2], "echo": [LONG_A, bodies[2]]}))
    taken = _cuts_taken(monkeypatch)
    result = _assert_matches_per_article_oracle(window, **DEFAULT_MATCH)
    assert len(result.pairs) == 1
    (in_cut,) = taken
    assert not in_cut.any()
    # A threshold below the rounding margin puts the filter's floor below 0.
    matrix = vectorize(fit_tfidf(bodies, 0))
    for threshold in (DEFAULT_MATCH["threshold"], 5e-324):
        joined = similarity._threshold_join(matrix, threshold, column_df(matrix))
        assert sorted(joined) == product_pairs(matrix, threshold)
    assert len(taken) == 3 and not any(cut.any() for cut in taken)
