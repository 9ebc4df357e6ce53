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
pairs. Each kept pair adds at most 32 bytes to the window's peak. It is
kept as arrays, two int32 positions, a float64 score and a bool direction,
17 bytes; while they are made and sorted, at most about as many bytes
again wait beside them. No `MatchedPair` is built until detect writes it.

Ingest keeps each article, and no more: at most 400 bytes an article on a
generated corpus (its slots, id, title, timestamp, counts and body index,
and the spool's 8-byte end of its body), beside the spool's one write
buffer, and one string per source.

The stages after detect read `pairs.csv` a line at a time: beyond the pairs
it returns, `read_pairs_csv` holds at most 80 bytes a row, the int that
finds a repeated row (28 bytes) and its place in a table that grows by
doubling. A graph export holds the graph's edge list and the line being
written: at most 1.5 times the bytes of the file it writes. Beyond the
title pairs it returns, `title_distance` holds at most 64 bytes a pair,
its lists of pair and row indices, and no gather of every pair's rows.
"""

import gc
import itertools
import random
import tracemalloc
from contextlib import closing

import pytest

from newsreuse import headlines, network, similarity
from newsreuse.corpus import (
    Article,
    ingest_articles,
    pair_articles,
    read_matched_articles,
    read_pairs_csv,
    write_matched_articles,
    write_pairs_csv,
)
from newsreuse.fixture import FixtureSpec, generate_fixture
from newsreuse.similarity import fit_tfidf, match_window, tokenize, vectorize

from helpers import BASE_TS, DEFAULT_MATCH, make_article, make_window, republished_window

BYTES_PER_TOKEN = 8
BYTES_PER_ENTRY = 24
BYTES_PER_KEPT_PAIR = 32
BYTES_PER_ARTICLE = 400
BYTES_PER_PAIR_ROW = 80
EXPORT_BYTES_PER_FILE_BYTE = 1.5
BYTES_PER_TITLE_PAIR = 64


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
    # 400 sources republish one 200-token body: one row, 79,800 pairs,
    # kept as arrays.
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


def all_pairs(sources: int, titles: list[str] | None = None) -> list:
    """The pairs of `sources` articles of one story, one per source, a
    minute apart: every two of them are a pair. Article i is titled
    `title {i}`, or takes `titles` in turn."""
    articles = [
        Article(
            f"article-{i}", f"source {i:03d}",
            titles[i % len(titles)] if titles else f"title {i}", BASE_TS + 60 * i,
        )
        for i in range(sources)
    ]
    return [pair_articles(a, b, 1.0, 0) for i, a in enumerate(articles) for b in articles[i + 1:]]


def test_reading_pairs_csv_holds_a_constant_per_row_beyond_the_pairs(tmp_path):
    pairs = all_pairs(120)
    write_pairs_csv(pairs, tmp_path / "pairs.csv")
    write_matched_articles(
        tmp_path / "matched.jsonl", {a for p in pairs for a in (p.earlier, p.later)}
    )
    articles = read_matched_articles(tmp_path / "matched.jsonl")
    del pairs
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        read = read_pairs_csv(tmp_path / "pairs.csv", articles, 1)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()

    assert len(read) == 120 * 119 // 2
    budget = BYTES_PER_PAIR_ROW * len(read)
    assert peak - kept <= budget, f"{peak - kept} bytes beyond the pairs against {budget}"


@pytest.mark.parametrize("export", [network.export_graphml, network.export_dot],
                         ids=["graphml", "dot"])
def test_graph_export_holds_its_lines_and_no_copy_of_the_text(tmp_path, export):
    graph = network.build_window_graph(
        all_pairs(120), include_ambiguous=False, dedupe_origin=False, window_index=0
    )
    network.attach_metrics(graph)
    path = tmp_path / "graph"
    gc.collect()
    peak = traced_peak(lambda: export(graph, path))

    budget = EXPORT_BYTES_PER_FILE_BYTE * path.stat().st_size
    assert peak <= budget, f"{peak} bytes traced against a budget of {budget}"


def test_title_distance_holds_a_constant_per_pair_beyond_its_result():
    # 120 articles with 5 titles between them: 7,140 pairs, most of them
    # scored, over a model of 5 rows.
    titles = ["rates rise again", "central bank raises rates again", "rates rise",
              "bank lifts rates", "markets fall as rates rise"]
    pairs = all_pairs(120, titles)
    gc.collect()
    tracemalloc.start()
    try:
        read = headlines.title_distance(pairs)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()

    assert sum(tp.distance > 0 for tp in read) > len(pairs) // 2
    budget = BYTES_PER_TITLE_PAIR * len(pairs)
    assert peak - kept <= budget, f"{peak - kept} bytes beyond the title pairs against {budget}"
