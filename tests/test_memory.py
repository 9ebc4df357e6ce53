"""A memory budget for matching one window, in bytes per token and per entry.

`match_window`'s traced peak is bounded by the window's own counts: its
tokens (of the distinct bodies it fits) and its stored entries (distinct
terms per body). The fit holds at most two int32 arrays of one entry per
token at a time; the count matrix, and later the TFIDF matrix, holds an
int32 index and a float64 value per entry, beside at most one 8-byte
temporary per entry; the vocabulary's strings come to a few bytes per entry.

The window is shaped like the benchmark's Zipf stories: a Zipf(1.1) draw
from a large vocabulary, where the join's norm bound filters well. The
join's tiles add a working set bounded by `similarity._TILE_ENTRIES`, not
by the window; on a flat vocabulary, where a tile passes nearly every entry
to the exact check, that working set is what a small window's peak
measures, and this budget does not cover it.

A body's copies share its row and take no path of their own: they weight
the column sums that give the idf's df, and two copies score their row's
sum of squares. So a window whose every body is republished by
another source is held to the same budget, counted over its distinct
bodies. The join re-scores each tile's candidates as the tile comes, so
none wait for a later tile.

A window where no cut of the columns pays takes the empty cut: its filter
is the whole product, walked by the same tiles. Such a window is small in
sum(df^2), and so in tokens and entries, and the tiles' working set is
most of its peak; its join is held to one 8-byte temporary per entry
beyond what the tiles alone hold.

A window also holds the pairs it keeps, which no count of tokens or
entries bounds: one body republished by k sources is one row and k(k-1)/2
pairs. Each kept pair adds at most 128 bytes: a `MatchedPair` of five
slots, and its place in the window's list and in the result's tuple. Its
articles and its score are shared with the window and its row pair.

Ingest keeps each article, and no more: at most 500 bytes an article on a
generated corpus (its slots, id, title, timestamp, counts and body span),
beside the spool's one write buffer, and one string per source.
"""

import gc
import itertools
import random
import tracemalloc
from contextlib import closing

from newsreuse import similarity
from newsreuse.corpus import ingest_articles, read_matched_articles, write_matched_articles
from newsreuse.fixture import FixtureSpec, generate_fixture
from newsreuse.similarity import fit_tfidf, match_window, tokenize, vectorize

from helpers import BASE_TS, DEFAULT_MATCH, make_article, make_window, republished_window

BYTES_PER_TOKEN = 8
BYTES_PER_ENTRY = 24
BYTES_PER_KEPT_PAIR = 128
BYTES_PER_ARTICLE = 500


def zipf_bodies(rng: random.Random, count: int, words: int) -> list[str]:
    vocabulary = [f"w{k}" for k in range(words)]
    weights = list(itertools.accumulate((k + 1) ** -1.1 for k in range(words)))
    return [
        " ".join(rng.choices(vocabulary, cum_weights=weights, k=rng.randint(200, 600)))
        for _ in range(count)
    ]


def window_budget(bodies: list[str]) -> int:
    """8 B per token plus 24 B per entry, over the distinct bodies that match."""
    tokens = entries = 0
    for body in set(bodies):
        terms = tokenize(body)
        if len(terms) >= DEFAULT_MATCH["min_body_tokens"]:
            tokens += len(terms)
            entries += len(set(terms))
    return BYTES_PER_TOKEN * tokens + BYTES_PER_ENTRY * entries


def traced_peak(call) -> int:
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        call()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def check_zipf_window_with_copies(copied: int) -> None:
    """300 Zipf bodies, `copied` of them republished verbatim by another
    source, so that each copy shares its body's row."""
    rng = random.Random(1)
    bodies = zipf_bodies(rng, 300, 20000)
    copies = rng.sample(range(len(bodies)), copied)
    articles = [
        make_article(f"d{i}", f"s{i % 7}", body=body, ts=BASE_TS + i)
        for i, body in enumerate(bodies)
    ] + [
        make_article(f"c{i}", f"s{(i + 3) % 7}", body=bodies[i], ts=BASE_TS + 600 + i)
        for i in copies
    ]
    window = make_window(articles)
    results = []
    try:
        peak = traced_peak(lambda: results.append(match_window(window, **DEFAULT_MATCH)))
    finally:
        window.spool.close()

    assert len(results[0].pairs) == copied
    budget = window_budget(bodies)
    assert peak <= budget, f"{peak} bytes traced against a budget of {budget}"


def test_match_window_peak_is_within_bytes_per_token_and_entry():
    check_zipf_window_with_copies(10)


def test_window_of_copies_is_within_bytes_per_token_and_entry_of_its_bodies():
    check_zipf_window_with_copies(300)


def test_empty_cut_join_adds_at_most_a_temporary_per_entry_to_its_tiles():
    # 30 rows over a flat 400-word vocabulary: sum(df^2) is too small for
    # any cut to pay, so the join filters the matrix itself; a copy of it
    # would add 12 bytes per entry.
    rng = random.Random(1)
    vocabulary = [f"w{k}" for k in range(400)]
    bodies = [" ".join(rng.choices(vocabulary, k=rng.randint(180, 220))) for _ in range(30)]
    model = fit_tfidf(bodies, DEFAULT_MATCH["min_body_tokens"])
    df = model.row_df
    matrix = vectorize(model)
    threshold = DEFAULT_MATCH["threshold"]
    in_cut, norms = similarity._cheapest_cut(matrix, threshold, df)
    assert matrix.shape[0] > similarity._CUT_STEPS and not in_cut.any()

    tiles = traced_peak(lambda: list(similarity._tiles(matrix, norms, threshold)))
    join = traced_peak(lambda: similarity._threshold_join(matrix, threshold, df))
    assert join - tiles <= 8 * matrix.nnz, f"{join} bytes traced, {tiles} in the tiles alone"


def test_republished_body_adds_at_most_a_constant_per_kept_pair():
    # 400 sources republish one 200-token body: one row, 79,800 pairs.
    window = republished_window(400, 200)
    results = []
    try:
        peak = traced_peak(lambda: results.append(match_window(window, **DEFAULT_MATCH)))
    finally:
        window.spool.close()

    kept = len(results[0].pairs)
    assert kept == 400 * 399 // 2
    budget = window_budget([a.body for a in window.articles]) + BYTES_PER_KEPT_PAIR * kept
    assert peak <= budget, f"{peak} bytes traced against a budget of {budget}"


def test_ingest_keeps_a_constant_per_article_and_one_string_per_source(tmp_path):
    paths = generate_fixture(
        tmp_path, FixtureSpec(sources=4, articles_per_source=500, copies=100, windows=1)
    )
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        collection = ingest_articles(paths["articles"])
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()

    with closing(collection.spool):
        # The spool's write buffer is 64 KiB, whatever the corpus.
        budget = BYTES_PER_ARTICLE * len(collection) + (1 << 16)
        assert retained <= budget, f"{retained} bytes kept against a budget of {budget}"
        assert len({id(a.source) for a in collection}) == len(collection.sources()) == 4
        handoff = tmp_path / "matched_articles.jsonl"
        write_matched_articles(handoff, collection)
        read_back = read_matched_articles(handoff).values()
        assert len(read_back) == len(collection)
        assert len({id(a.source) for a in read_back}) == 4
